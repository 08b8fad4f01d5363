"""End-to-end and per-layer benchmark of the hsembed commands.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run writes the workload's scene with ``hsembed synth`` in its own
process (the set-up), then drives ``hsembed evaluate`` or ``classify``
through ``hsembed.cli.main``, one sample per fresh worker process, one at
a time (a closed loop with one client), until ``--seconds`` have passed.
Every sample's outputs are verified. The last stdout line is the result
object; with ``--trace 0`` it holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run plus the tracing
overhead against untraced samples made in the same run.

See README.md beside this file for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"

# synth runs per untraced run; setup_s is their median
SETUP_REPEATS = 5
# hard limit on one worker; a whole run must end within 180 s
WORKER_TIMEOUT_S = 170
C_GRID_SIZE = 31  # hsembed.svm.default_c_grid()

END_TO_END = {
    "wall_s": "s",
    "pixels_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "setup_peak_rss_mb": "MB",
    "oa_pct": "%",
    "aa_pct": "%",
    "kappa_pct": "%",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "svm.train_binary.calls": "count",
    "svm.train_binary.s": "s",
    "svm.train_binary.epochs": "count",
    "svm.train_binary.unconverged": "count",
    "svm.train_binary.converged_ratio": "ratio",
    "svm.train_binary.max_kkt": "1",
    "svm.cross_validate.s": "s",
    "svm.final_train.s": "s",
    "svm.predict_table.s": "s",
    "svm.predict_table.rows": "count",
    "rff.feature_matrix.s": "s",
    "rff.feature_matrix.bytes_out": "bytes_computed",
    "embedding.build_feature_table.s": "s",
    "embedding.build_feature_table.self_s": "s",
    "embedding.table_bytes": "bytes_computed",
    "embedding.median_heuristic.s": "s",
    "morphology.morphological_profile.s": "s",
    "evaluation.monte_carlo_protocol.s": "s",
    "evaluation.run_split.calls": "count",
    "evaluation.run_split.self_s": "s",
    "hsi.load_envi.s": "s",
    "hsi.load_envi.bytes": "bytes_computed",
    "hsi.load_ground_truth.s": "s",
    "hsi.save_ground_truth.s": "s",
    "hsi.generate_synthetic_scene.s": "s",
    "hsi.save_envi.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


@dataclass(frozen=True)
class Scene:
    height: int
    width: int
    bands: int
    classes: int


IP_LIKE = Scene(145, 145, 200, 16)
PU_LIKE = Scene(610, 340, 103, 9)
REGION_SCALE = 12.0
NOISE_SIGMA = 0.3
PATCH_SIDE = 15
PER_CLASS = 5
FOLDS = 5


@dataclass(frozen=True)
class Workload:
    command: str  # "evaluate" or "classify"
    scene: Scene
    method: str
    n_features: int
    c: float | None  # None: 5-fold grid search over the 31 C values
    runs: int

    @property
    def pairs(self) -> int:
        k = self.scene.classes
        return k * (k - 1) // 2

    def expected_solves(self) -> int:
        """Binary solves per command: the CV grid (if any) plus the final
        training, for every protocol run."""
        per_run = self.pairs * (1 + (C_GRID_SIZE * FOLDS if self.c is None else 0))
        return self.runs * per_run

    def pixels_scored(self) -> int:
        """Pixels predicted per command; every synthetic pixel is labeled."""
        n = self.scene.height * self.scene.width
        if self.command == "classify":
            return n
        return self.runs * (n - self.scene.classes * PER_CLASS)


# Why each workload exists is in README.md.
WORKLOADS = {
    "ip-evaluate-grid": Workload("evaluate", IP_LIKE, "meanmap", 1024, None, 1),
    "pu-classify": Workload("classify", PU_LIKE, "meanmap", 256, 64.0, 1),
    "ip-fusion-evaluate": Workload("evaluate", IP_LIKE, "mp_x_meanmap", 64, 8.0, 5),
}


def scene_config(scene: Scene, seed: int) -> dict:
    return {
        "height": scene.height,
        "width": scene.width,
        "bands": scene.bands,
        "classes": scene.classes,
        "region_scale": REGION_SCALE,
        "noise_sigma": NOISE_SIGMA,
        "seed": seed,
    }


def pipeline_config(w: Workload, seed: int, scene_dir: Path) -> dict:
    return {
        "seed": seed,
        "data": {
            "image": str(scene_dir / "scene.hdr"),
            "ground_truth": str(scene_dir / "gt.csv"),
        },
        "method": w.method,
        "embedding": {
            "patch_side": PATCH_SIDE,
            "border": "clamp",
            "n_features": w.n_features,
        },
        "svm": {"c": w.c, "folds": FOLDS},
        "protocol": {"runs": w.runs, "per_class": PER_CLASS},
    }


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------


class Runner:
    """Starts one worker process at a time and waits for it."""

    def __init__(self, work: Path, blas_threads: int):
        self.work = work
        self.count = 0
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(blas_threads)
        self.env["PYTHONPATH"] = str(ROOT)

    def run(self, argv: list[str], trace: bool) -> dict:
        self.count += 1
        request = self.work / f"request-{self.count}.json"
        result = self.work / f"result-{self.count}.json"
        request.write_text(json.dumps({"src": str(SRC), "argv": argv, "trace": trace}))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "perfbench.worker", str(request), str(result)],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"exit_code": None, "error": f"worker timed out after {WORKER_TIMEOUT_S} s"}
        if proc.returncode != 0 or not result.is_file():
            return {"exit_code": None, "error": f"worker failed: {proc.stderr[-2000:]}"}
        out = json.loads(result.read_text())
        if out["exit_code"] != 0 and not out["error"]:
            out["error"] = f"exit code {out['exit_code']}: {proc.stderr[-2000:]}"
        return out


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------


def blas_thread_count() -> tuple[int, int]:
    """(pinned BLAS threads, nproc): at most two threads, at most nproc."""
    nproc = len(os.sched_getaffinity(0))
    return min(2, nproc), nproc


def provenance(args, blas_threads: int, nproc: int) -> dict:
    import numpy
    import scipy

    git_rev = None
    if (ROOT / ".git").exists():  # a plain source checkout has no revision
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            git_rev = rev.stdout.strip() if rev.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
        "blas_threads": blas_threads,
        "nproc": nproc,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


class Tally:
    """Operations attempted and the problems of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))
        return not problems


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def run_benchmark(args) -> dict:
    from perfbench import spans, verify

    w = WORKLOADS[args.workload]
    trace = bool(args.trace)
    blas_threads, nproc = blas_thread_count()
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, blas_threads)
    tally = Tally()
    try:
        scene_json = work / "scene.json"
        scene_json.write_text(json.dumps(scene_config(w.scene, args.seed)))
        setups = []
        for i in range(1 if trace else SETUP_REPEATS):
            # each repeat writes a fresh directory; the previous one is
            # removed between repeats, outside the timed call
            scene_dir = work / f"scene-{i}"
            res = runner.run(
                ["synth", "--config", str(scene_json), "--output", str(scene_dir)], trace
            )
            if not tally.record(f"setup {i}", [res["error"]] if res["error"] else []):
                raise RuntimeError(f"set-up failed: {res['error']}")
            setups.append(res)
            if i:
                shutil.rmtree(work / f"scene-{i - 1}")
        cfg_json = work / "pipeline.json"
        cfg_json.write_text(json.dumps(pipeline_config(w, args.seed, scene_dir)))

        train_idx = None
        if w.command == "classify":
            train_idx = verify.classify_training_indices(
                scene_dir / "gt.csv", args.seed, PER_CLASS
            )

        out_dir = work / "out"
        argv = [w.command, "--config", str(cfg_json), "--output", str(out_dir)]
        samples = []
        first_digest = None
        deadline = time.perf_counter() + args.seconds
        while True:
            order = [True, False] if trace else [False]
            if len(samples) // 2 % 2 == 0:  # traced pairs alternate their order
                order.reverse()
            for traced in order:
                shutil.rmtree(out_dir, ignore_errors=True)
                res = runner.run(argv, traced)
                if res["error"]:
                    problems = [res["error"]]
                elif w.command == "classify":
                    problems = verify.check_classify(
                        out_dir, scene_dir / "gt.csv", train_idx, w.scene.classes
                    )
                else:
                    problems = verify.check_evaluate(out_dir, w.runs)
                metrics_path = out_dir / "metrics.json"
                digest = (
                    hashlib.sha256(metrics_path.read_bytes()).hexdigest()
                    if metrics_path.is_file()
                    else None
                )
                if first_digest is None:
                    first_digest = digest
                elif digest != first_digest:
                    problems.append("metrics.json differs from the first sample's")
                if traced and res.get("spans") is not None:
                    res["layers"] = spans.layer_metrics(
                        [spans.Span.from_list(s) for s in res["spans"]]
                    )
                    calls = res["layers"]["svm.train_binary.calls"]
                    if calls != w.expected_solves():
                        problems.append(
                            f"train_binary called {calls} times, expected {w.expected_solves()}"
                        )
                    del res["spans"]
                tally.record(f"sample {len(samples)}", problems)
                res["traced"] = traced
                if not problems:
                    res["metrics_json"] = json.loads(metrics_path.read_text())["mean"]
                samples.append(res)
            if time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [s for s in samples if not s["traced"] and s.get("wall_s") is not None]
    if not untraced:
        raise RuntimeError("no sample ran: " + "; ".join(tally.failures))
    walls = [s["wall_s"] for s in untraced]
    if trace:
        traced_samples = [s for s in samples if "layers" in s]
        if not traced_samples:
            raise RuntimeError("no traced sample ran: " + "; ".join(tally.failures))
        metrics = {
            name: median([s["layers"][name] for s in traced_samples])
            for name in traced_samples[0]["layers"]
        }
        setup_spans = [spans.Span.from_list(s) for s in setups[0]["spans"]]
        metrics.update(spans.setup_metrics(setup_spans))
        traced_wall = median([s["wall_s"] for s in traced_samples])
        metrics["trace.overhead_s"] = traced_wall - median(walls)
        metrics["trace.overhead_pct"] = 100.0 * metrics["trace.overhead_s"] / median(walls)
        units = PER_LAYER
    else:
        accuracy = next((s["metrics_json"] for s in untraced if "metrics_json" in s), None)
        if accuracy is None:
            raise RuntimeError("no sample passed its checks: " + "; ".join(tally.failures))
        metrics = {
            "wall_s": median(walls),
            "pixels_per_s": median([w.pixels_scored() / t for t in walls]),
            "peak_rss_mb": median([s["peak_rss_mb"] for s in untraced]),
            "setup_s": median([s["wall_s"] for s in setups]),
            "setup_peak_rss_mb": median([s["peak_rss_mb"] for s in setups]),
            "oa_pct": accuracy["oa"],
            "aa_pct": accuracy["aa"],
            "kappa_pct": accuracy["kappa"],
            "ok_ratio": (tally.attempted - len(tally.failures)) / tally.attempted,
        }
        units = END_TO_END

    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "provenance": provenance(args, blas_threads, nproc),
        "failures": tally.failures,
        "samples": samples,
        "setups": setups if not trace else [{k: v for k, v in setups[0].items() if k != "spans"}],
        "result": result,
    }
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1))
    return record


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hsembed" / "cli.py").is_file():
        print(f"error: no hsembed source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    try:
        record = run_benchmark(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in record["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
