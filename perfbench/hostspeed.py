"""Host-speed calibration for the timed metrics.

The machines this benchmark runs on are shared: the same code runs up to
1.9x slower for seconds at a time when neighbours are busy, which no run
length or median removes.  So every timed span is bracketed by two samples
of a fixed calibration kernel, and the span is reported at a reference host
speed:

    reported = measured * REF_MS / mean(sample before, sample after)

The kernel is the benchmark's own code, never cliffspin's, and has the same
shape as cliffspin's hot loop (a sparse blade product over dicts of complex
coefficients), so it slows down with the host the way the workloads do.  A
change to cliffspin leaves the kernel's time alone and shows in full.  The
raw times stay in the results file.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

REF_MS = 0.35  # the kernel's time at the reference speed (an unloaded host)


class HostSpeed:
    def __init__(self):
        rng = random.Random(20020212)
        self.a = {m: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for m in range(32)}
        self.b = {m: complex(rng.uniform(-1, 1), 0.0) for m in range(32)}
        self.sign = {(x, y): rng.choice((1, -1)) for x in range(32) for y in range(32)}
        self.samples: list[float] = []

    def _kernel(self) -> None:
        out: dict[int, complex] = {}
        sign = self.sign
        for ma, ca in self.a.items():
            for mb, cb in self.b.items():
                m = ma ^ mb
                out[m] = out.get(m, 0) + sign[ma, mb] * ca * cb

    def sample(self) -> float:
        """Kernel time in ms: the best of two runs, with the collector off so
        a collection owed by the previous operation does not land here."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(2):
                t0 = perf_counter()
                self._kernel()
                best = min(best, perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        ms = best * 1e3
        self.samples.append(ms)
        return ms

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor that takes a time measured between two samples to the
        reference speed."""
        return REF_MS / ((before + after) / 2.0)
