"""Machine-speed probe, and the reference-speed times computed from it.

On a shared host the same code runs up to 1.7 times slower for tens of
seconds at a time, so raw times of one commit spread by 20 % between
runs and no amount of repetition inside a run averages that away.  The
benchmark therefore pins all its processes to one CPU and runs this
probe beside them on the same CPU.  Every PERIOD_S the probe times a
fixed stdlib kernel (``Fraction`` arithmetic into a dict, the library's
own instruction mix, no library code) in CPU time, which tracks how fast
that CPU currently runs Python.  Each measured interval is then

* net of the probe: the probe's own kernel time inside the interval is
  subtracted, since the measured process could not run meanwhile;
* scaled to reference speed: multiplied by KERNEL_REF_S over the mean
  kernel time of the probe samples taken during the interval or within
  WINDOW_S of it.

The scaled time is the time the interval would take on a CPU that runs
the kernel in KERNEL_REF_S.  Run as a script, the probe samples until
SIGTERM, then prints one ``start end kernel_cpu_s`` line per sample.
"""

from __future__ import annotations

import bisect
import os
import signal
import sys
from fractions import Fraction
from time import perf_counter, process_time, sleep

KERNEL_REF_S = 0.002
PERIOD_S = 0.04
# One kernel sample reads up to 25 % fast or slow; the speed drifts over
# seconds.  A second-wide window of about 25 samples averages the first
# and still follows the second.
WINDOW_S = 0.5


def kernel() -> None:
    acc: dict[int, Fraction] = {}
    x = Fraction(7, 5)
    for i in range(500):
        k = i % 97
        acc[k] = acc.get(k, 0) + x * Fraction(i % 13 + 1, i % 11 + 1)


class Calibration:
    """Reference-speed durations from the probe's samples."""

    def __init__(self, samples: list[tuple[float, float, float]]):
        if len(samples) < 2:
            raise ValueError('the speed probe took fewer than two samples')
        self.samples = sorted(samples)
        self.starts = [s[0] for s in self.samples]

    def reference_s(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        busy = sum(max(0.0, min(t1, end) - max(t0, start))
                   for t0, t1, _ in self.samples[max(lo - 1, 0):hi])
        return (end - start - busy) * KERNEL_REF_S / self.kernel_around_s(start, end)

    def kernel_around_s(self, start: float, end: float) -> float:
        """Mean kernel time of the samples within WINDOW_S of the interval."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        ks = [k for _, _, k in self.samples[lo:hi]] or [self._nearest(start)]
        return sum(ks) / len(ks)

    def _nearest(self, t: float) -> float:
        i = min(bisect.bisect_left(self.starts, t), len(self.samples) - 1)
        return self.samples[i][2]

    def kernel_median_s(self) -> float:
        ks = sorted(k for _, _, k in self.samples)
        return ks[len(ks) // 2]


def main() -> int:
    samples: list[tuple[float, float, float]] = []
    parent = os.getppid()

    def stop(*_):
        sys.stdout.write(''.join(f'{a!r} {b!r} {c!r}\n' for a, b, c in samples))
        sys.stdout.flush()
        sys.exit(0)

    signal.signal(signal.SIGTERM, stop)
    while os.getppid() == parent:
        sleep(PERIOD_S)
        t0 = perf_counter()
        c0 = process_time()
        kernel()
        c1 = process_time()
        samples.append((t0, perf_counter(), c1 - c0))
    return 0


if __name__ == '__main__':
    sys.exit(main())
