"""Hyperspectral cube data model, ENVI ingestion, synthetic scenes, patches.

Cubes are stored band-interleaved-by-pixel, i.e. as a C-contiguous
``(height, width, bands)`` array, so the spectrum of one pixel is a
contiguous slice. Images and ground-truth maps are immutable after
construction and safe for concurrent reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ContractViolation,
    DegenerateDataError,
    FormatError,
    ParameterError,
    ShapeError,
    TruncationError,
    reject_unknown_keys,
)

# ENVI "data type" codes accepted by the reader/writer.
_ENVI_DTYPES = {
    1: np.dtype(np.uint8),
    2: np.dtype(np.int16),
    3: np.dtype(np.int32),
    4: np.dtype(np.float32),
    5: np.dtype(np.float64),
    12: np.dtype(np.uint16),
    13: np.dtype(np.uint32),
}
_ENVI_CODES = {v: k for k, v in _ENVI_DTYPES.items()}
_INTERLEAVES = ("bsq", "bil", "bip")
_BORDERS = ("clamp", "mirror")


@dataclass(frozen=True)
class HyperspectralImage:
    """A ``height x width x bands`` cube of finite reflectance values.

    ``band_centers`` optionally carries one wavelength (nm) per band.
    """

    data: np.ndarray
    band_centers: np.ndarray | None = None

    def __post_init__(self):
        cube = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if cube.ndim != 3:
            raise ShapeError(f"cube must be 3-D (height, width, bands), got {cube.shape}")
        if min(cube.shape) < 1:
            raise ShapeError(f"cube dimensions must be positive, got {cube.shape}")
        if not np.isfinite(cube).all():
            raise ParameterError("cube values must be finite")
        cube.flags.writeable = False
        object.__setattr__(self, "data", cube)
        if self.band_centers is not None:
            centers = np.asarray(self.band_centers, dtype=np.float64)
            if centers.shape != (cube.shape[2],):
                raise ShapeError(
                    f"band_centers must have length {cube.shape[2]}, got {centers.shape}"
                )
            centers.flags.writeable = False
            object.__setattr__(self, "band_centers", centers)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def bands(self) -> int:
        return self.data.shape[2]

    def spectrum(self, row: int, col: int) -> np.ndarray:
        """Spectrum of one pixel as a length-``bands`` vector."""
        return self.data[row, col]

    def pixels(self) -> np.ndarray:
        """All spectra as a ``(height*width, bands)`` matrix (read-only view)."""
        return self.data.reshape(-1, self.bands)


@dataclass(frozen=True)
class GroundTruthMap:
    """Per-pixel class ids; 0 marks unlabeled pixels, classes are 1..n_classes."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.ascontiguousarray(np.asarray(self.labels))
        if labels.ndim != 2:
            raise ShapeError(f"label grid must be 2-D, got {labels.shape}")
        if not np.issubdtype(labels.dtype, np.integer):
            as_int = labels.astype(np.int64)
            if not np.array_equal(as_int, labels):
                raise FormatError("labels must be integers")
            labels = as_int
        else:
            labels = labels.astype(np.int64)
        if labels.size and labels.min() < 0:
            raise FormatError("labels must be non-negative")
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) if self.labels.size else 0

    def class_counts(self) -> np.ndarray:
        """Pixel count per class id 1..n_classes."""
        return np.bincount(self.labels.ravel(), minlength=self.n_classes + 1)[1:]


@dataclass(frozen=True)
class PatchSpec:
    """Square neighbourhood: side length and how to resolve out-of-image pixels."""

    side: int = 3
    border: str = "clamp"

    def __post_init__(self):
        if self.side < 1:
            raise ParameterError(f"patch side must be >= 1, got {self.side}")
        if self.border not in _BORDERS:
            raise ParameterError(f"border must be one of {_BORDERS}, got {self.border!r}")


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of a synthetic labeled scene.

    The scene is a Voronoi partition of seeded region centres; every region
    is painted with one class endmember plus i.i.d. Gaussian band noise.
    """

    height: int
    width: int
    bands: int
    classes: int
    class_spectra: np.ndarray
    region_scale: float = 8.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if min(self.height, self.width, self.bands) < 1:
            raise ParameterError("scene dimensions must be positive")
        if self.classes < 1:
            raise ParameterError("need at least one class")
        if self.region_scale <= 0:
            raise ParameterError("region_scale must be positive")
        if self.noise_sigma < 0:
            raise ParameterError("noise_sigma must be >= 0")
        spectra = np.asarray(self.class_spectra, dtype=np.float64)
        if spectra.shape != (self.classes, self.bands):
            raise ShapeError(
                f"class_spectra must be ({self.classes}, {self.bands}), got {spectra.shape}"
            )
        for i in range(self.classes):
            for j in range(i + 1, self.classes):
                if np.array_equal(spectra[i], spectra[j]):
                    raise ParameterError(f"class spectra {i + 1} and {j + 1} are identical")
        spectra.flags.writeable = False
        object.__setattr__(self, "class_spectra", spectra)


def scene_spec_from_json(obj: dict) -> SceneSpec:
    """Build a SceneSpec from its JSON mirror.

    ``class_spectra`` may be omitted, in which case endmembers are drawn
    deterministically from the spec seed.
    """
    reject_unknown_keys(
        obj,
        ("height", "width", "bands", "classes", "class_spectra", "region_scale",
         "noise_sigma", "seed"),
        "scene spec",
    )
    required = ("height", "width", "bands", "classes")
    for key in required:
        if key not in obj:
            raise FormatError(f"scene spec is missing {key!r}")
    seed = int(obj.get("seed", 0))
    spectra = obj.get("class_spectra")
    if spectra is None:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5CE7E]))
        spectra = rng.random((int(obj["classes"]), int(obj["bands"])))
    return SceneSpec(
        height=int(obj["height"]),
        width=int(obj["width"]),
        bands=int(obj["bands"]),
        classes=int(obj["classes"]),
        class_spectra=np.asarray(spectra, dtype=np.float64),
        region_scale=float(obj.get("region_scale", 8.0)),
        noise_sigma=float(obj.get("noise_sigma", 0.0)),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# ENVI raster IO
# ---------------------------------------------------------------------------

def _parse_envi_header(text: str, path: str) -> dict:
    """Parse an ENVI ``key = value`` header; brace blocks may span lines."""
    entries: dict[str, str] = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line or line.upper() == "ENVI" or "=" not in line:
            continue
        key, _, value = line.partition("=")
        key = " ".join(key.lower().split())
        value = value.strip()
        if value.startswith("{"):
            while "}" not in value and i < len(lines):
                value += " " + lines[i].strip()
                i += 1
            value = value.strip("{}").strip()
        if key in entries and entries[key] != value:
            raise FormatError(f"{path}: contradictory values for header key {key!r}")
        entries[key] = value
    return entries


def _header_int(entries: dict, key: str, path: str, default: int | None = None) -> int:
    if key not in entries:
        if default is not None:
            return default
        raise FormatError(f"{path}: missing required header key {key!r}")
    try:
        return int(entries[key])
    except ValueError as exc:
        raise FormatError(f"{path}: header key {key!r} is not an integer") from exc


def _find_companion(header_path: Path) -> Path:
    stem = header_path.with_suffix("") if header_path.suffix == ".hdr" else header_path
    candidates = [stem] + [stem.with_suffix(ext) for ext in
                           (".img", ".dat", ".raw", ".bsq", ".bil", ".bip")]
    for cand in candidates:
        if cand != header_path and cand.is_file():
            return cand
    raise FormatError(f"no companion binary found for header {header_path}")


def load_envi(header_path: str | Path) -> HyperspectralImage:
    """Read an ENVI cube (bsq/bil/bip; uint8, int16, int32, uint16, uint32,
    float32 or float64 payloads).

    Returns the cube converted to the internal band-interleaved-by-pixel
    layout with values cast to float64.
    """
    header_path = Path(header_path)
    if not header_path.is_file():
        raise FormatError(f"header file not found: {header_path}")
    entries = _parse_envi_header(header_path.read_text(), str(header_path))

    samples = _header_int(entries, "samples", str(header_path))
    lines = _header_int(entries, "lines", str(header_path))
    bands = _header_int(entries, "bands", str(header_path))
    if min(samples, lines, bands) < 1:
        raise FormatError(f"{header_path}: non-positive dimensions")
    offset = _header_int(entries, "header offset", str(header_path), default=0)
    byte_order = _header_int(entries, "byte order", str(header_path), default=0)
    if byte_order not in (0, 1):
        raise FormatError(f"{header_path}: byte order must be 0 or 1")
    dtype_code = _header_int(entries, "data type", str(header_path))
    if dtype_code not in _ENVI_DTYPES:
        raise FormatError(
            f"{header_path}: unsupported data type {dtype_code} "
            f"(supported: {sorted(_ENVI_DTYPES)})"
        )
    interleave = entries.get("interleave", "").lower()
    if interleave not in _INTERLEAVES:
        raise FormatError(f"{header_path}: interleave must be one of {_INTERLEAVES}")

    dtype = _ENVI_DTYPES[dtype_code].newbyteorder("<" if byte_order == 0 else ">")
    data_path = _find_companion(header_path)
    n_values = samples * lines * bands
    expected = offset + n_values * dtype.itemsize
    actual = data_path.stat().st_size
    if actual != expected:
        raise TruncationError(
            f"{data_path}: expected {expected} bytes ({n_values} values), found {actual}"
        )
    raw = np.fromfile(data_path, dtype=dtype, count=n_values, offset=offset)

    if interleave == "bsq":
        cube = raw.reshape(bands, lines, samples).transpose(1, 2, 0)
    elif interleave == "bil":
        cube = raw.reshape(lines, bands, samples).transpose(0, 2, 1)
    else:  # bip
        cube = raw.reshape(lines, samples, bands)
    cube = cube.astype(np.float64)
    if not np.isfinite(cube).all():
        raise FormatError(f"{data_path}: payload contains non-finite values")

    band_centers = None
    if "wavelength" in entries:
        try:
            band_centers = np.array(
                [float(tok) for tok in entries["wavelength"].split(",") if tok.strip()]
            )
        except ValueError as exc:
            raise FormatError(f"{header_path}: malformed wavelength list") from exc
        if band_centers.shape != (bands,):
            raise FormatError(f"{header_path}: wavelength count does not match bands")
    return HyperspectralImage(cube, band_centers)


def save_envi(
    image: HyperspectralImage,
    header_path: str | Path,
    interleave: str = "bsq",
    dtype: str | np.dtype = np.float64,
    byte_order: int = 0,
) -> Path:
    """Write ``image`` as an ENVI header + binary pair; returns the header path.

    The data file sits next to the header with an ``.img`` extension.
    """
    if interleave not in _INTERLEAVES:
        raise ParameterError(f"interleave must be one of {_INTERLEAVES}")
    if byte_order not in (0, 1):
        raise ParameterError("byte order must be 0 or 1")
    base = np.dtype(dtype)
    if base not in _ENVI_CODES:
        raise ParameterError(f"dtype must be one of {sorted(str(d) for d in _ENVI_CODES)}")
    header_path = Path(header_path)
    if header_path.suffix != ".hdr":
        header_path = header_path.with_suffix(header_path.suffix + ".hdr")
    data_path = header_path.with_suffix(".img")

    cube = image.data
    if interleave == "bsq":
        ordered = cube.transpose(2, 0, 1)
    elif interleave == "bil":
        ordered = cube.transpose(0, 2, 1)
    else:
        ordered = cube
    out_dtype = base.newbyteorder("<" if byte_order == 0 else ">")
    if base.kind in "iu":
        info = np.iinfo(base)
        if (cube < info.min).any() or (cube > info.max).any() or \
                not np.array_equal(cube, np.round(cube)):
            raise ParameterError(f"cube values do not fit a {base} payload")
    np.ascontiguousarray(ordered).astype(out_dtype).tofile(data_path)

    lines = [
        "ENVI",
        f"samples = {image.width}",
        f"lines = {image.height}",
        f"bands = {image.bands}",
        "header offset = 0",
        f"data type = {_ENVI_CODES[base]}",
        f"interleave = {interleave}",
        f"byte order = {byte_order}",
    ]
    if image.band_centers is not None:
        wl = ", ".join(repr(float(w)) for w in image.band_centers)
        lines.append("wavelength = {" + wl + "}")
    header_path.write_text("\n".join(lines) + "\n")
    return header_path


# ---------------------------------------------------------------------------
# Ground truth IO
# ---------------------------------------------------------------------------

def read_label_grid(path: str | Path) -> np.ndarray:
    """Read a 2-D int64 label grid, of any height and width, from a CSV
    file or a single-band ENVI integer raster."""
    path = Path(path)
    if not path.is_file():
        raise FormatError(f"label file not found: {path}")
    if path.suffix == ".hdr":
        image = load_envi(path)
        if image.bands != 1:
            raise ShapeError(f"{path}: label raster must have exactly 1 band")
        values = image.data[:, :, 0]
        if not np.array_equal(values, np.round(values)):
            raise FormatError(f"{path}: raster labels are not integers")
        labels = values.astype(np.int64)
    else:
        rows = []
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if not line.strip():
                continue
            try:
                row = [int(tok) for tok in line.split(",")]
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: non-integer label") from exc
            rows.append(row)
        if not rows:
            raise FormatError(f"{path}: empty label grid")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise FormatError(f"{path}: ragged rows in label grid")
        labels = np.array(rows, dtype=np.int64)
    if labels.min() < 0:
        raise FormatError(f"{path}: negative label")
    return labels


def load_ground_truth(path: str | Path, height: int, width: int) -> GroundTruthMap:
    """Read a label grid (see ``read_label_grid``) that must be height x width."""
    labels = read_label_grid(path)
    if labels.shape != (height, width):
        raise ShapeError(
            f"{path}: label grid is {labels.shape}, expected ({height}, {width})"
        )
    return GroundTruthMap(labels)


def save_ground_truth(gt: GroundTruthMap, path: str | Path) -> Path:
    """Write a label grid as the canonical CSV format (one row per image row)."""
    path = Path(path)
    text = "\n".join(",".join(str(v) for v in row) for row in gt.labels) + "\n"
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# Synthetic scenes
# ---------------------------------------------------------------------------

# elements of the int64 distance scratch computed at once (32 MB)
_DISTANCE_BLOCK = 1 << 22


def _nearest_centre(
    height: int, width: int, center_rows: np.ndarray, center_cols: np.ndarray
) -> np.ndarray:
    """(height, width) index of the nearest centre in squared pixel distance.

    Computed in row blocks so the distance scratch stays bounded; ties
    resolve to the lowest centre index.
    """
    col_d2 = (np.arange(width)[:, None] - center_cols[None, :]) ** 2
    nearest = np.empty((height, width), dtype=np.int64)
    step = max(1, _DISTANCE_BLOCK // col_d2.size)
    for start in range(0, height, step):
        rows = np.arange(start, min(start + step, height))
        d2 = ((rows[:, None] - center_rows[None, :]) ** 2)[:, None, :] + col_d2[None]
        nearest[start : start + rows.size] = np.argmin(d2, axis=2)
    return nearest


def generate_synthetic_scene(spec: SceneSpec) -> tuple[HyperspectralImage, GroundTruthMap]:
    """Deterministically generate a labeled scene from ``spec``.

    Region centres are sampled without replacement, each Voronoi cell gets
    one class (every class owns at least one cell), and pixel spectra are
    the class endmember plus N(0, noise_sigma^2) noise per band.
    """
    n_pixels = spec.height * spec.width
    if spec.classes > n_pixels:
        raise DegenerateDataError(
            f"cannot place {spec.classes} classes in {n_pixels} pixels"
        )
    rng = np.random.default_rng(spec.seed)
    n_regions = int(np.clip(round(n_pixels / spec.region_scale**2), spec.classes, n_pixels))
    centers = rng.choice(n_pixels, size=n_regions, replace=False)
    center_rows = centers // spec.width
    center_cols = centers % spec.width
    region_class = np.concatenate(
        [
            rng.permutation(spec.classes),
            rng.integers(0, spec.classes, size=n_regions - spec.classes),
        ]
    )

    nearest = _nearest_centre(spec.height, spec.width, center_rows, center_cols)
    labels = region_class[nearest] + 1

    cube = spec.class_spectra[labels - 1].astype(np.float64)
    if spec.noise_sigma > 0:
        cube = cube + rng.normal(0.0, spec.noise_sigma, size=cube.shape)
    return HyperspectralImage(cube), GroundTruthMap(labels)


# ---------------------------------------------------------------------------
# Spectrum normalization and patch extraction
# ---------------------------------------------------------------------------

def normalize_spectra(image: HyperspectralImage) -> HyperspectralImage:
    """Scale every pixel spectrum to unit Euclidean norm.

    All-zero spectra are left as the zero vector, so the result's per-pixel
    norms are exactly 0 or 1 and the operation is idempotent.
    """
    cube = image.data
    norms = np.linalg.norm(cube, axis=2, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    return HyperspectralImage(cube / safe, image.band_centers)


def _fold_mirror(idx: np.ndarray, n: int) -> np.ndarray:
    """Symmetric reflection of indices into [0, n): ..., -1 -> 0, n -> n-1."""
    j = np.mod(idx, 2 * n)
    return np.where(j >= n, 2 * n - 1 - j, j)


def _window_axis(centres, spec: PatchSpec, n: int) -> np.ndarray:
    """Resolved coordinates along one axis of the side-long window around
    each centre: shape ``centres.shape + (side,)``."""
    lo = (spec.side - 1) // 2
    coords = np.asarray(centres)[..., None] + np.arange(-lo, spec.side - lo)
    if spec.border == "clamp":
        return np.clip(coords, 0, n - 1)
    return _fold_mirror(coords, n)


def patch_window(
    row: int, col: int, spec: PatchSpec, height: int, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Resolved (rows, cols) of the side^2 patch members in row-major order.

    Offsets run from -floor((s-1)/2) to +ceil((s-1)/2) so even sides are
    centred on the top-left pixel of the central 2x2 block. Out-of-image
    coordinates are resolved by the border policy, so each returned pair
    is an actual pixel of the image (possibly repeated).
    """
    r = _window_axis(row, spec, height)
    c = _window_axis(col, spec, width)
    return np.repeat(r, spec.side), np.tile(c, spec.side)


def patch_indices(
    flat: np.ndarray, spec: PatchSpec, height: int, width: int
) -> np.ndarray:
    """Flat indices of the patch members of each given flat pixel index, one
    row per pixel in ``patch_window`` order: shape ``(len(flat), side^2)``."""
    rows, cols = np.divmod(np.asarray(flat, dtype=np.int64), width)
    r = _window_axis(rows, spec, height)
    c = _window_axis(cols, spec, width)
    return (r[:, :, None] * width + c[:, None, :]).reshape(rows.size, -1)


def extract_patch(
    image: HyperspectralImage, row: int, col: int, spec: PatchSpec
) -> np.ndarray:
    """The side^2 spectra around ``(row, col)`` as a ``(side^2, bands)`` matrix."""
    if not (0 <= row < image.height and 0 <= col < image.width):
        raise ContractViolation(
            f"pixel ({row}, {col}) outside image {image.height}x{image.width}"
        )
    rr, cc = patch_window(row, col, spec, image.height, image.width)
    return image.data[rr, cc, :]
