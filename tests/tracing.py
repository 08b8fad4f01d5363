"""Memory measurement shared by test modules."""

import tracemalloc


def traced_peak(fn) -> int:
    """Peak bytes that ``tracemalloc`` (which sees numpy's buffers) traces
    while ``fn()`` runs; what was allocated before the call does not count."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
