"""Hyperspectral cube data model, ENVI ingestion, synthetic scenes, patches.

Cubes are stored band-interleaved-by-pixel, i.e. as a C-contiguous
``(height, width, bands)`` array, so the spectrum of one pixel is a
contiguous slice. Images and ground-truth maps are immutable after
construction and safe for concurrent reads. The ENVI reader takes every
interleave, data type and byte order that real scenes arrive in; the writer
writes the one format the synthetic scenes need, bsq little-endian float64.
The reader and writer, the scene generator and the image's own finiteness
check move a cube through memory in row blocks of about ``_BLOCK`` values
(see ``row_blocks``), so none of them holds a second cube. The feature,
scoring and prediction loops of the other modules take their blocks from
here too.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
# loaded with the package: numpy loads them lazily, at a command's first
# random draw and first np.unique (which reads np.ma)
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from .errors import (
    SEED,
    FormatError,
    ParameterError,
    ShapeError,
    TruncationError,
    check_integer,
    check_real,
    is_finite_number,
    is_integer,
    read_section,
)

# ENVI "data type" codes accepted by the reader (the writer's is 5).
_ENVI_DTYPES = {
    1: np.dtype(np.uint8),
    2: np.dtype(np.int16),
    3: np.dtype(np.int32),
    4: np.dtype(np.float32),
    5: np.dtype(np.float64),
    12: np.dtype(np.uint16),
    13: np.dtype(np.uint32),
}
# the cube's (lines, samples, bands) axes in the file order of each interleave
_FILE_AXES = {"bsq": (2, 0, 1), "bil": (0, 2, 1), "bip": (0, 1, 2)}
_INTERLEAVES = tuple(_FILE_AXES)
_BORDERS = ("clamp", "mirror")

# values a bounded loop holds at once (8 MB of float64). It sizes the cube
# IO and the synth's fill and centre distances here, and the feature blocks,
# score bands and prediction blocks of the other modules. A score band is at
# most one block, and for a patch wider than one pixel no more rows than fit
# in the size of the box filter's ring of prefix rows, so the streamed pass
# holds at most about two and a half blocks beside the cube (README,
# "Memory"). On the PU-like bench
# (610 x 340 x 103, N=256, 2 cores) blocks of 32, 16, 8, 4, 2 and 1 MB ran
# in 2.8-3.3, 2.1-2.5 and then 1.8-2.4 s, at 378, 315, 278, 261, 252 and 251
# MB of RSS; on the IP-like grid (N=1024) 4 and 2 MB were 0.2-0.4 s slower
# than 8 MB (single-thread cos and sin throughout).
# Taking the cube tiles and centre distances from 32 to 8 MB as well cut the
# synth peak from 266 to 242 MB (PU-like) and from 132 to 108 MB (IP-like).
_BLOCK = 1 << 20


def block_rows(width: int) -> int:
    """How many rows of ``width`` values make one block (at least one)."""
    return max(1, _BLOCK // width)


def row_blocks(n: int, width: int):
    """(first, end) of consecutive blocks of ``block_rows(width)`` rows out
    of ``n`` rows of ``width`` values each."""
    step = block_rows(width)
    for a in range(0, n, step):
        yield a, min(a + step, n)


def equal_blocks(n: int, width: int):
    """(first, end) of as many consecutive blocks as ``row_blocks`` makes of
    ``n`` rows of ``width`` values, but of sizes that differ by at most one
    row. So no block is a single row while a block holds more, and no block
    is larger than ``row_blocks``' largest."""
    parts = -(-n // block_rows(width))
    for j in range(parts):
        yield n * j // parts, n * (j + 1) // parts


@dataclass(frozen=True)
class HyperspectralImage:
    """A ``height x width x bands`` cube of finite reflectance values.

    A C-contiguous float64 cube is kept as given, not copied (and is made
    read-only); any other is copied once into that form. Finiteness is
    checked in row blocks, so the check holds no cube-sized mask.
    """

    data: np.ndarray

    def __post_init__(self):
        cube = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if cube.ndim != 3:
            raise ShapeError(f"cube must be 3-D (height, width, bands), got {cube.shape}")
        if min(cube.shape) < 1:
            raise ShapeError(f"cube dimensions must be positive, got {cube.shape}")
        for a, b in row_blocks(cube.shape[0], cube.shape[1] * cube.shape[2]):
            if not np.isfinite(cube[a:b]).all():
                raise ParameterError("cube values must be finite")
        cube.flags.writeable = False
        object.__setattr__(self, "data", cube)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def bands(self) -> int:
        return self.data.shape[2]

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
        check_integer(self.side, "patch side", 1)
        if self.border not in _BORDERS:
            raise ParameterError(f"border must be one of {_BORDERS}, got {self.border!r}")


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of a synthetic labeled scene.

    The scene is a Voronoi partition of seeded region centres; every region
    is painted with one class endmember plus i.i.d. Gaussian band noise.
    Endmembers left as None are drawn from the seed, once the sizes hold.
    """

    height: int
    width: int
    bands: int
    classes: int
    class_spectra: np.ndarray | None = None
    region_scale: float = 8.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for key in ("height", "width", "bands", "classes"):
            check_integer(getattr(self, key), f"scene spec key {key!r}", 1)
        if self.classes > self.height * self.width:
            raise ParameterError(
                f"scene spec key 'classes' must be at most the {self.height * self.width} "
                f"pixels, got {self.classes}"
            )
        check_real(self.region_scale, "scene spec key 'region_scale'")
        check_real(self.noise_sigma, "scene spec key 'noise_sigma'", positive=False)
        check_integer(self.seed, "scene spec key 'seed'", 0)
        if self.class_spectra is None:
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0x5CE7E]))
            object.__setattr__(self, "class_spectra", rng.random((self.classes, self.bands)))
        spectra = np.asarray(self.class_spectra, dtype=np.float64)
        if spectra.shape != (self.classes, self.bands):
            raise ParameterError(
                f"scene spec key 'class_spectra' must be ({self.classes}, {self.bands}) "
                f"values, got shape {spectra.shape}"
            )
        for i in range(self.classes):
            for j in range(i + 1, self.classes):
                if np.array_equal(spectra[i], spectra[j]):
                    raise ParameterError(f"class spectra {i + 1} and {j + 1} are identical")
        spectra.flags.writeable = False
        object.__setattr__(self, "class_spectra", spectra)


def _is_spectra(value: object) -> bool:
    """Null (draw them from the seed) or a list of equal-length lists of
    finite numbers."""
    return value is None or (
        isinstance(value, list)
        and all(isinstance(row, list) and all(map(is_finite_number, row)) for row in value)
        and len({len(row) for row in value}) <= 1
    )


# the keys of a scene spec and their kinds (see errors.read_section)
SCENE_KEYS = dict(
    height=int, width=int, bands=int, classes=int,
    class_spectra=("null or a list of equal-length number lists", _is_spectra),
    region_scale=float, noise_sigma=float, seed=SEED,
)


def scene_spec_from_json(obj: dict) -> SceneSpec:
    """Build a SceneSpec from its JSON mirror.

    ``class_spectra`` may be omitted or null, in which case endmembers are
    drawn deterministically from the spec seed.
    """
    values = read_section(obj, "scene spec", **SCENE_KEYS)
    for key in ("height", "width", "bands", "classes"):
        if key not in values:
            raise FormatError(f"scene spec is missing {key!r}")
    return SceneSpec(**values)


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
    float32 or float64 payloads, either byte order).

    Returns the cube converted to the internal band-interleaved-by-pixel
    layout with values cast to float64. The payload is read in row blocks
    of about ``_BLOCK`` values over all bands (see ``row_blocks``), each
    into one raw buffer: a bil or bip block is one contiguous run of the
    file, a bsq block one run per band, that band's rows of the block. The
    buffer is copied, cast and transposed, into its rows of the one float64
    cube, so the cube is written in memory order; ``HyperspectralImage``'s
    one finiteness scan of the cube then rejects a non-finite payload value
    as a FormatError. Besides the cube, the read holds about one block.
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
    if offset < 0:
        raise FormatError(
            f"{header_path}: header key 'header offset' must be >= 0, got {offset}"
        )
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
    axes = _FILE_AXES[interleave]
    cube = np.empty((lines, samples, bands))
    most = min(lines, block_rows(samples * bands)) * samples * bands
    raw = np.empty(most * dtype.itemsize, dtype=np.uint8)
    with open(data_path, "rb") as f:
        for a, b in row_blocks(lines, samples * bands):
            # the first value of each contiguous run of the block in the file
            if interleave == "bsq":
                starts = [(j * lines + a) * samples for j in range(bands)]
            else:
                starts = [a * samples * bands]
            run = (b - a) * samples * bands // len(starts) * dtype.itemsize
            for k, start in enumerate(starts):
                f.seek(offset + start * dtype.itemsize)
                if f.readinto(raw[k * run:(k + 1) * run]) != run:
                    raise TruncationError(f"{data_path}: payload ended early")
            dims = (b - a, samples, bands)
            values = raw[: len(starts) * run].view(dtype).reshape([dims[i] for i in axes])
            cube[a:b] = values.transpose(np.argsort(axes))
    try:
        return HyperspectralImage(cube)  # which scans the cube for non-finite values
    except ParameterError as exc:
        raise FormatError(f"{data_path}: payload contains non-finite values") from exc


def save_envi(image: HyperspectralImage, header_path: str | Path) -> Path:
    """Write ``image`` as an ENVI header + binary pair, bsq little-endian
    float64; returns the header path.

    The data file sits next to the header with an ``.img`` extension. It is
    written in file order, band by band, each band plane in row blocks (see
    ``row_blocks``), so the write never seeks and holds about one converted
    block besides the cube. The reader takes row blocks over all bands
    instead (see ``load_envi``), so that it fills the cube in memory order;
    a writer tiled that way needs a transposed copy of each block, and on
    the PU-like scene it measured no faster and raised the synth peak from
    242 to 250 MB.
    """
    header_path = Path(header_path)
    if header_path.suffix != ".hdr":
        header_path = header_path.with_suffix(header_path.suffix + ".hdr")
    data_path = header_path.with_suffix(".img")

    with open(data_path, "wb") as f:
        for j in range(image.bands):
            for a, b in row_blocks(image.height, image.width):
                np.ascontiguousarray(image.data[a:b, :, j], "<f8").tofile(f)

    lines = [
        "ENVI",
        f"samples = {image.width}",
        f"lines = {image.height}",
        f"bands = {image.bands}",
        "header offset = 0",
        "data type = 5",
        "interleave = bsq",
        "byte order = 0",
    ]
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
        at = [0]  # the line numpy stopped on: it pulls one line at a time
        with path.open() as f, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows: refused below
            try:
                labels = np.loadtxt(
                    (line for at[0], line in enumerate(f, start=1) if line.strip()),
                    delimiter=",", dtype=np.int64, ndmin=2, comments=None,
                )
            except ValueError as exc:
                raise FormatError(f"{path}:{at[0]}: not a row of integer labels: {exc}") from exc
        if labels.size == 0:
            raise FormatError(f"{path}: empty label grid")
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

def _nearest_centre(
    height: int, width: int, center_rows: np.ndarray, center_cols: np.ndarray
) -> np.ndarray:
    """(height, width) index of the nearest centre in squared pixel distance.

    Computed in row blocks so the distance scratch stays bounded; ties
    resolve to the lowest centre index.
    """
    col_d2 = (np.arange(width)[:, None] - center_cols[None, :]) ** 2
    nearest = np.empty((height, width), dtype=np.int64)
    for a, b in row_blocks(height, col_d2.size):
        d2 = ((np.arange(a, b)[:, None] - center_rows[None, :]) ** 2)[:, None, :] + col_d2[None]
        nearest[a:b] = np.argmin(d2, axis=2)
    return nearest


def generate_synthetic_scene(spec: SceneSpec) -> tuple[HyperspectralImage, GroundTruthMap]:
    """Deterministically generate a labeled scene from ``spec``.

    Region centres are sampled without replacement, each Voronoi cell gets
    one class (every class owns at least one cell), and pixel spectra are
    the class endmember plus N(0, noise_sigma^2) noise per band. The cube
    is filled a row block at a time: the endmembers, then that block's noise
    draw added in place. The draws follow one another in the generator's
    stream, so the cube does not depend on the block size. A region scale
    below 1 or above the pixel count gives the same scene as those bounds.
    """
    n_pixels = spec.height * spec.width
    rng = np.random.default_rng(spec.seed)
    scale = min(max(spec.region_scale, 1.0), n_pixels)
    n_regions = int(np.clip(round(n_pixels / scale**2), spec.classes, n_pixels))
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

    cube = np.empty((spec.height, spec.width, spec.bands))
    for a, b in row_blocks(spec.height, spec.width * spec.bands):
        cube[a:b] = spec.class_spectra[labels[a:b] - 1]
        if spec.noise_sigma > 0:
            cube[a:b] += rng.normal(0.0, spec.noise_sigma, size=(b - a, spec.width, spec.bands))
    return HyperspectralImage(cube), GroundTruthMap(labels)


# ---------------------------------------------------------------------------
# Spectrum normalization and patch windows
# ---------------------------------------------------------------------------

def unit_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to unit Euclidean norm (zero rows stay zero), and the norms."""
    norms = np.linalg.norm(rows, axis=1)
    return rows / np.where(norms > 0, norms, 1.0)[:, None], norms


def squared_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the (..., d) rows of x and y, which
    broadcast against each other, summed one coordinate at a time from the
    first: the sequential sum of scipy's ``cdist`` and ``pdist``, bit for bit."""
    d2 = np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]))
    for k in range(x.shape[-1]):
        d2 += (x[..., k] - y[..., k]) ** 2
    return d2


def normalize_spectra(image: HyperspectralImage) -> HyperspectralImage:
    """Scale every pixel spectrum to unit Euclidean norm.

    All-zero spectra are left as the zero vector, so the result's per-pixel
    norms are exactly 0 or 1 and the operation is idempotent.
    """
    unit = unit_rows(image.pixels())[0]
    return HyperspectralImage(unit.reshape(image.data.shape))


def window_axis(n: int, spec: PatchSpec) -> np.ndarray:
    """The pixel that each position -lo ... n - 1 + hi of an axis of n pixels
    resolves to, where a side-long window spans offsets -lo ... hi, lo =
    floor((side - 1) / 2) and hi = side - 1 - lo, so an even side is centred
    on the top-left pixel of its central pair. Clamp repeats the edge pixel;
    mirror reflects symmetrically (..., -1 -> 0, n -> n - 1), as often as a
    window wider than the axis needs. The window of pixel i is entries
    i ... i + side - 1. The one border resolution of the training rows and
    the box filter."""
    lo = (spec.side - 1) // 2
    at = np.arange(-lo, n + spec.side - 1 - lo)
    if spec.border == "clamp":
        return np.clip(at, 0, n - 1)
    at %= 2 * n
    return np.where(at >= n, 2 * n - 1 - at, at)


def patch_window(
    row: int, col: int, spec: PatchSpec, height: int, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Resolved (rows, cols) of the side^2 patch members of one pixel, in
    row-major order: its ``patch_indices``. Each returned pair is an actual
    pixel of the image (possibly repeated); a position that is not an integer
    or lies outside the image is a ParameterError."""
    if not (is_integer(row) and is_integer(col)):
        raise ParameterError(f"pixel position must be integers, got ({row!r}, {col!r})")
    if not (0 <= row < height and 0 <= col < width):
        raise ParameterError(f"pixel ({row}, {col}) is outside the {height} x {width} image")
    return np.divmod(patch_indices([int(row) * width + int(col)], spec, height, width)[0], width)


def patch_indices(
    flat: np.ndarray, spec: PatchSpec, height: int, width: int
) -> np.ndarray:
    """Flat indices of the patch members of each given flat pixel index, one
    row per pixel in row-major window order, borders resolved by
    ``window_axis``: shape ``(len(flat), side^2)``. An index that is not an
    integer or lies outside the image is a ParameterError."""
    flat = np.asarray(flat)
    if flat.size and flat.dtype.kind not in "iu":
        raise ParameterError(f"pixel indices must be integers, got dtype {flat.dtype}")
    flat = flat.astype(np.int64)
    if np.any((flat < 0) | (flat >= height * width)):
        raise ParameterError(f"pixel indices must lie in [0, {height * width})")
    rows, cols = np.divmod(flat, width)
    offsets = np.arange(spec.side)
    r = window_axis(height, spec)[rows[:, None] + offsets]
    c = window_axis(width, spec)[cols[:, None] + offsets]
    return (r[:, :, None] * width + c[:, None, :]).reshape(rows.size, spec.side * spec.side)
