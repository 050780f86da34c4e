"""Host-speed calibration for a shared, noisy machine.

On the 2-vCPU reference host, co-tenants slow every instruction by up
to 60% for stretches of ten seconds to minutes: a pass's wall and CPU
time both swell, so no repetition inside one run averages it out.
The benchmark therefore interleaves a fixed pure-Python kernel with the
measured work and scales each pass's timings by how fast that kernel
ran meanwhile.  The kernel lives here, outside ``src/``, so a change to
the simulator never changes the yardstick.

Normalized times read as seconds on the reference host in a quiet
phase; raw times are printed beside them.
"""

from __future__ import annotations

import time

#: Kernel iterations per sample (about 3 ms of CPU time).
ITERATIONS = 16000

#: Thread CPU seconds of one sample on the reference host (2.1 GHz
#: Xeon, Python 3.11) in a quiet phase: the lower mode of the kernel's
#: bimodal time distribution.
REFERENCE_S = 0.00285


def _kernel(n: int) -> int:
    """Interpreter-bound work shaped like the simulator's hot loops:
    small-int arithmetic, list indexing and dict traffic."""
    regs = [0] * 64
    table: dict = {}
    acc = 0
    for i in range(n):
        r = (i * 7 + acc) & 63
        v = regs[r] + i
        regs[(r + 13) & 63] = v & 0xFFFF
        if v & 1:
            table[r] = v
        else:
            acc += table.get(r, 0) & 0xFF
    return acc


#: An item's own factor averages the samples taken within this many
#: seconds of it: slow phases last seconds, so neighbours share them.
WINDOW_S = 0.5


class HostSpeed:
    """Samples the kernel; the factors scale raw times to the
    reference host.

    Samples are timed in thread CPU time, so waiting for the GIL or
    for a core does not count: the samples see only how fast the host
    executes instructions.
    """

    def __init__(self) -> None:
        self.spent = 0.0
        #: (perf_counter at the sample's end, its CPU seconds)
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        start = time.thread_time()
        _kernel(ITERATIONS)
        spent = time.thread_time() - start
        self.spent += spent
        self.samples.append((time.perf_counter(), spent))

    def factor(self) -> float:
        """Reference time per measured time (1.0 when no samples)."""
        if not self.samples:
            return 1.0
        return REFERENCE_S * len(self.samples) / self.spent

    def factor_between(self, start: float, end: float) -> float:
        """The factor of the samples near ``[start, end]``."""
        near = [spent for t, spent in self.samples
                if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            return self.factor()
        return REFERENCE_S * len(near) / sum(near)
