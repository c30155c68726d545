"""Peak traced memory of one call, for the memory regression tests."""

import tracemalloc


def peak_bytes(fn) -> int:
    """The tracemalloc peak of a second call of fn() above what was traced
    before it; the first call warms up caches and compiled kernels."""
    fn()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
