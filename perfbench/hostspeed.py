"""Host speed index: a fixed reference kernel timed next to the work.

The cores this benchmark shares with other tenants change speed over
tens of seconds: the same 4096-die lot takes from 0.4 s to 0.7 s.
Every time an end-to-end metric reports is scaled by
``NOMINAL_S / kernel seconds`` measured next to it, which states it at
the speed the host has when the kernel takes ``NOMINAL_S``.  The kernel
is benchmark code and runs only while the program is idle, so no change
to the program can move it.  The unscaled figures are kept in the run
record.
"""

import functools
import statistics
import time

import numpy as np

#: Kernel seconds on a typical moment of the reference host (2-core
#: x86_64, NumPy 2.4 with OpenBLAS); the scale is 1 there.
NOMINAL_S = 0.012


def _kernel_pass() -> None:
    x = np.linspace(0.0, 100.0, 1 << 16)
    for _ in range(8):
        np.cumsum(np.sin(x) > 0.5)
    total = 0
    for i in range(60_000):
        total += i & 7


@functools.cache
def _warm() -> None:
    """One untimed pass, so the first timing pays no page faults."""
    _kernel_pass()


def kernel_seconds(passes: int = 3) -> float:
    """Median time of a fixed mix of NumPy and interpreter work.

    One pass alone is noisy, so the median of ``passes`` is returned.
    """
    _warm()
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        _kernel_pass()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
