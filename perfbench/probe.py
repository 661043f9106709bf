"""Machine-speed probe, and the normalization that uses it.

On a shared host the same code runs at two or more speeds: another tenant's
load on the same physical core can slow a run by up to about 1.8x, for
stretches of seconds to minutes.  Medians over a run cannot remove this,
because one stretch often covers a whole operation.

The probe is a process pinned to the same CPU as the benchmark.  Every
``INTERVAL_S`` it runs one fixed chunk of exact-rational arithmetic and logs
the chunk's CPU time (``thread_time``, so being preempted by the measured
child does not count).  Exact arithmetic is what jordanlie spends its time
on, so the chunk slows down with the host as the program does.  A wall time
measured over [a, b] is rescaled to reference speed:

    wall * REF_CHUNK_S / mean(chunk CPU time logged in [a - PAD_S, b + PAD_S])

The probe's own load is about 4% of the CPU, the same for every commit.

    python3 probe.py OUT_FILE      # runs until SIGTERM, then writes OUT_FILE
"""

from __future__ import annotations

import bisect
import signal
import sys
import time
from fractions import Fraction

INTERVAL_S = 0.04
REF_CHUNK_S = 0.001  # chunk CPU time that defines the reference speed
PAD_S = 0.1  # short operations are judged by the probe samples around them


def chunk() -> Fraction:
    s = Fraction(0)
    for i in range(1, 200):
        s += Fraction(1, i % 97 + 1) * Fraction(i % 7 + 1, 3)
    return s


def main(out_path: str) -> int:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    samples = []
    while not stop:
        time.sleep(INTERVAL_S)
        t = time.thread_time()
        chunk()
        samples.append((time.perf_counter(), time.thread_time() - t))
    with open(out_path, "w") as fh:
        fh.writelines(f"{at!r} {dt!r}\n" for at, dt in samples)
    return 0


class Speed:
    """Probe log of one run; rescales wall times to reference speed."""

    def __init__(self, samples):
        samples = sorted(samples)
        if not samples:
            raise RuntimeError("the speed probe logged no samples")
        self.at = [s[0] for s in samples]
        self.prefix = [0.0]
        for _, dt in samples:
            self.prefix.append(self.prefix[-1] + dt)

    @classmethod
    def load(cls, path: str) -> "Speed":
        with open(path) as fh:
            return cls(tuple(float(x) for x in line.split()) for line in fh if line.strip())

    def chunk_s(self, a: float, b: float) -> float:
        """Mean probe chunk time around [a, b]; widens until it holds a sample."""
        pad = PAD_S
        while True:
            lo = bisect.bisect_left(self.at, a - pad)
            hi = bisect.bisect_right(self.at, b + pad)
            if hi > lo:
                return (self.prefix[hi] - self.prefix[lo]) / (hi - lo)
            pad *= 2

    def scale(self, a: float, b: float) -> float:
        """Factor that turns wall time over [a, b] into reference seconds."""
        return REF_CHUNK_S / self.chunk_s(a, b)

    def normalize(self, a: float, b: float) -> float:
        return (b - a) * self.scale(a, b)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
