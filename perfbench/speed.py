"""How fast the CPU runs right now, measured beside the work it runs.

On a shared virtual machine the speed of a vCPU changes by up to ~2x,
within a second and for minutes at a time.  Process CPU time changes with
it (no steal time is accounted), so CPU time alone cannot correct for it,
and a reference timed before or after a unit samples another moment.

:class:`Reference` therefore runs a fixed chunk of work over and over in a
child process, on the same CPU as the measuring process and at a lower
priority (nice 10, about a tenth of the CPU while both are busy).  The
scheduler interleaves the two every few milliseconds, so over any window
of a second or so the reference sees the speed the measured work saw.  A
CPU time measured in that window is scaled by
``NOMINAL_CHUNK_S / (reference CPU time per chunk)``: it reads as if the
machine ran one chunk in ``NOMINAL_CHUNK_S``.  The reference runs no dp2
code.
"""

from __future__ import annotations

import multiprocessing
import os
import time

NOMINAL_CHUNK_S = 0.001
NICE = 10


def _chunk(x, z) -> None:
    """About a millisecond of FFTs, complex exponentials and interpreted Python."""
    import numpy as np

    for _ in range(2):
        np.fft.irfft(np.fft.rfft(x), n=x.size)
    np.exp(1j * z).sum()
    acc = 0
    for k in range(4000):
        acc += k * k % 7


def _loop(state, parent: int) -> None:
    import numpy as np

    os.nice(NICE)
    x = np.linspace(0.0, 1.0, 8192)
    z = np.outer(np.arange(8.0), np.linspace(0.0, 1.0, 513))
    # state = [chunks done, CPU time at the last one, sequence]; the
    # sequence is odd while the other two are being written.
    while os.getppid() == parent:
        _chunk(x, z)
        cpu = time.process_time()
        state[2] += 1
        state[0] += 1
        state[1] = cpu
        state[2] += 1


class Reference:
    """Context manager: pins this process to one CPU and runs the reference
    process beside it until the block ends."""

    def __enter__(self) -> "Reference":
        self._affinity = os.sched_getaffinity(0)
        cpu = min(self._affinity)
        os.sched_setaffinity(0, {cpu})  # inherited by the reference and set-up probes
        self._state = multiprocessing.RawArray("d", 3)
        self._proc = multiprocessing.get_context("fork").Process(
            target=_loop, args=(self._state, os.getpid()), daemon=True)
        self._proc.start()
        self.cpu = cpu
        return self

    def __exit__(self, *exc) -> None:
        self._proc.terminate()
        self._proc.join()
        os.sched_setaffinity(0, self._affinity)

    def read(self) -> tuple:
        """(chunks done, reference CPU time at the last chunk)."""
        state = self._state
        while True:
            seq = state[2]
            chunks, cpu = state[0], state[1]
            if seq % 2 == 0 and state[2] == seq:
                return chunks, cpu
            time.sleep(0)

    @staticmethod
    def factor(before: tuple, after: tuple) -> float | None:
        """Scale for CPU times measured between two reads; None without a
        chunk in between."""
        chunks = after[0] - before[0]
        if chunks < 1:
            return None
        return NOMINAL_CHUNK_S * chunks / (after[1] - before[1])
