"""The benchmark's calibration kernel.

It imports nothing but ``time``, so a child can time it before it imports
entcap, and a change to entcap cannot move it.
"""

import time

MARKER = "bench-calibration "  # prefix of the line a child reports its kernel times on


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python arithmetic loop (about 4 ms on a fast vCPU).

    entcap's operations on 4x4 matrices are bound by interpreter overhead.
    Of the kernels tried (4x4 eigh loops, batched eigh, sorting), this loop
    tracked their speed best as the machine slowed down: REE solves slowed
    by its slowdown to the power 0.97, the bounds suite to the power 0.75.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(50_000):
        acc += i * 0.5 - acc * 1e-9
    return time.perf_counter() - t0
