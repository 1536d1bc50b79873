"""Peak memory of one call, for the tests that bound it."""

import tracemalloc


def traced_peak(fn):
    """(fn(), the peak of the memory that tracemalloc traced while it ran, in bytes)."""
    tracemalloc.start()
    try:
        value = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak
