"""Scale measured seconds to a reference CPU speed.

On a shared machine the speed of the CPU this process gets moves by up to 2x
between phases lasting seconds to minutes. A fixed piece of
pure-Python work, independent of the package, is timed in slices interleaved
with the measured work, in proportion to it. Dividing by the median slice
time and multiplying by ``REFERENCE_CHUNK_S`` turns seconds on this machine,
at this moment, into seconds on a CPU where the slice takes exactly
``REFERENCE_CHUNK_S``.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_CHUNK_S = 0.004  # slice time on the reference CPU


def chunk() -> float:
    """Seconds taken by one fixed slice of interpreter work."""
    start = perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i % 7
    return perf_counter() - start


class Calibrator:
    def __init__(self, share: float = 0.05):
        self.share = share  # calibration seconds per measured second
        self.chunks: list[float] = []
        self._owed = 0.0

    def after(self, measured_s: float) -> None:
        """Run slices until their time reaches ``share`` of everything measured so far."""
        self._owed += self.share * measured_s
        while self._owed > 0:
            self.chunks.append(chunk())
            self._owed -= self.chunks[-1]

    @property
    def scale(self) -> float:
        """Reference seconds per second measured here."""
        return REFERENCE_CHUNK_S / statistics.median(self.chunks)
