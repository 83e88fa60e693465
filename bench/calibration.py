"""Calibration kernel: fixed work whose time tracks how fast this CPU runs
at the moment.

The machine is shared: neighbours on the same cores slow every op by up to
60% for seconds at a time, in CPU time as well as wall time.  The benchmark
times the kernel next to every op and scales the op's latency by
KERNEL_REF_S / (kernel time), so that timings read as seconds on the
reference machine at rest.  Raw timings go to the run record.
"""

import time

import numpy

# Kernel time, in seconds, on an idle 2-vCPU Intel Xeon with Python 3.11
# and single-threaded OpenBLAS.
KERNEL_REF_S = 0.0030

_MATRIX = numpy.full((112, 112), 1e-3 + 1e-3j)


def kernel_seconds() -> float:
    """Time dictionary work plus four small complex matmuls."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(4000):
        key = ((i * 7) % 13, str(i % 97))
        acc[key] = acc.get(key, 0) + i
    m = _MATRIX
    for _ in range(4):
        m = m @ _MATRIX
    return time.perf_counter() - t0
