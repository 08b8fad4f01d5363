"""Run one hsembed command in this (fresh) process and report on it.

Usage: python3 -m perfbench.worker REQUEST.json RESULT.json

The request names the source tree to import, the ``hsembed`` argv and
whether to trace. The result holds the exit code, the time from calling
``hsembed.cli.main`` to its return (imports excluded), this process's
peak RSS and, when traced, the recorded spans. BLAS thread pinning is
done by the parent through the environment, before numpy loads.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(request_path: str, result_path: str) -> int:
    request = json.loads(Path(request_path).read_text())
    src = Path(request["src"]).resolve()
    sys.path.insert(0, str(src))

    import numpy  # noqa: F401  (imported before timing)
    import hsembed.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"hsembed imported from {cli.__file__}, not from {src}")

    recorder = None
    if request["trace"]:
        from perfbench import spans

        recorder = spans.Recorder()
        spans.install(recorder)
        root = recorder.open(spans.ROOT_SPAN)

    error = None
    start = time.perf_counter()
    try:
        code = cli.main(request["argv"])
    except Exception:  # reported to the parent, which counts the failure
        code = -1
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    if recorder is not None:
        recorder.close(root)

    result = {
        "exit_code": code,
        "error": error,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": [s.to_list() for s in recorder.spans] if recorder is not None else None,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
