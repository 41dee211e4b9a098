"""Host-speed calibration for the reported times.

On a shared host the speed of one process drifts over minutes.  On the
2-vCPU Xeon VM where this benchmark was built, a fixed pure-Python loop ran
at 51 to 72 passes per second in successive 20-second windows, and the
kernel below took 5.0 to 11.6 ms on average in runs minutes apart.
Wall-clock medians of the same workload moved with it.

To take that drift out, a run interleaves one pass of a fixed kernel after
every op and after every set-up. The kernel is the benchmark's own code and
does the three kinds of work the workloads do: heap operations in Python, a
numpy sort and a text round trip. Times are then reported at reference
speed, that is, multiplied by ``REF_KERNEL_S`` / (mean kernel time of the
run). A program change does not touch the kernel, so it shows in full. The
wall-clock figures are printed beside the scaled ones.
"""

from __future__ import annotations

import heapq
import statistics
import time

# Kernel time that defines reference speed: about the median on the machine
# above.
REF_KERNEL_S = 0.007


def kernel_seconds() -> float:
    import numpy as np

    t0 = time.perf_counter()
    heap: list = []
    for i in range(3000):
        heapq.heappush(heap, ((i * 7919) % 3001, i))
    while heap:
        heapq.heappop(heap)
    np.sort((np.arange(100000, dtype=np.int64) * 7919) % 100003)
    " ".join(map(str, range(6000))).split()
    return time.perf_counter() - t0


class Calibration:
    def __init__(self):
        self.samples: list = []

    def sample(self) -> None:
        self.samples.append(kernel_seconds())

    def scale(self) -> float:
        """Factor taking a wall time of this run to reference speed."""
        return REF_KERNEL_S / statistics.fmean(self.samples)
