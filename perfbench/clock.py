"""The clock every end-to-end timing of the benchmark is read from, and the
reference that scales those timings to one machine speed.

`cpu_clock` is the CPU time of the benchmark process plus that of the child
processes it has waited for (the CLI commands of ``cli_512``). Every
operation is CPU-bound and single-threaded, so on an idle machine this equals
wall time; unlike wall time it leaves out the time other processes, or the
host (steal), held the CPU.

A shared host also changes how fast the CPU runs: a fixed modular
exponentiation takes from 4.9 to 6.6 ms of CPU time on the 2-core VM the
benchmark was built on, in spells of 10 to 60 seconds, and every operation
of the benchmark slows with it. A `SpeedReference` times that fixed
exponentiation about every `EVERY_S` CPU seconds through a run, between
timed operations; `factor` turns the run's timings into what they would be
at the nominal speed, where the reference takes `REF_S`. A set-up lasts seconds, so it is scaled by the
samples taken just before and after it instead. Over six 25-second issuance
runs the raw median holder time ranged over 15% and the scaled one over
1.4%. The reference uses only the built-in ``pow`` on fixed operands, so no
change to the program can move it.
"""

from __future__ import annotations

import random
import resource
import statistics
from time import process_time

REF_S = 0.006  # CPU seconds the reference takes at the nominal speed
EVERY_S = 0.25  # CPU seconds between samples: about 2.5% extra work

_rng = random.Random(20260101)
_MODULUS = _rng.getrandbits(1024) | 1 << 1023 | 1
_BASE = _rng.getrandbits(1024)
_EXPONENT = _rng.getrandbits(1104)  # l_n + l_stat bits, as for the blinding v'


def cpu_clock() -> float:
    """CPU seconds used so far by this process and its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + kids.ru_utime + kids.ru_stime


class SpeedReference:
    """Times the reference exponentiation at intervals through a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # CPU seconds spent on samples
        self.next_at = 0.0

    def sample(self) -> float:
        """Time the reference once; returns its CPU seconds."""
        t0 = cpu_clock()
        pow(_BASE, _EXPONENT, _MODULUS)
        t1 = cpu_clock()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self.next_at = t1 + EVERY_S
        return t1 - t0

    def tick(self) -> None:
        """Take a sample if `EVERY_S` CPU seconds have passed since the last."""
        if cpu_clock() >= self.next_at:
            self.sample()

    def factor(self) -> float:
        """Multiplier from this run's timings to timings at the nominal speed."""
        return REF_S / statistics.median(self.samples)

