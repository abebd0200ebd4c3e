"""Machine-speed probe: times a fixed pure-Python loop every few milliseconds.

The shared host this benchmark was defined on changes speed by up to 1.7x
within seconds (5-second medians of one fixed loop ranged from 21 to 41 ms),
which no amount of repetition inside a 30-second run averages away.  The
probe runs on the same CPU as the worker (bench/run.py pins both), where it
sees the speed the worker gets; a probe on the other CPU does not track it.
bench/run.py scales every measured time by REFERENCE_S over the probe's
durations in the same interval, after taking out the time the probe itself
ran, so that figures from a fast and a slow moment of the machine compare.
The loop is the benchmark's own code and never touches the program under
test.

    python3 bench/probe.py OUT   (runs until SIGTERM; writes "<t> <duration>" lines)
"""

from __future__ import annotations

import bisect
import signal
import sys
import time

# The loop's duration on the defining host (2-vCPU Xeon at 2.1 GHz,
# Python 3.11) when that host ran fast.  It fixes the unit of the scaled
# times only; no comparison depends on its value.
REFERENCE_S = 300e-6
PERIOD_S = 0.01


def probe_loop() -> float:
    start = time.perf_counter()
    s = 0
    for i in range(5000):
        s += i * i % 7
    return time.perf_counter() - start


def _stop(signum, frame):
    raise SystemExit(0)


def main(path: str) -> int:
    signal.signal(signal.SIGTERM, _stop)
    with open(path, "w", encoding="utf-8") as out:
        while True:
            start = time.perf_counter()
            duration = probe_loop()
            out.write(f"{start + duration / 2} {duration}\n")
            time.sleep(PERIOD_S)


class SpeedScale:
    """Scale factors REFERENCE_S / (probe duration), averaged over intervals."""

    MARGIN_S = 0.05  # probe samples this close to an interval also count
    MIN_SAMPLES = 5

    def __init__(self, path: str) -> None:
        samples = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                try:
                    t, duration = map(float, line.split())
                except ValueError:  # the last line can be cut short by SIGTERM
                    continue
                if duration > 0:
                    samples.append((t, duration))
        if len(samples) < self.MIN_SAMPLES:
            raise RuntimeError(f"the speed probe recorded only {len(samples)} samples")
        samples.sort()
        self.times = [t for t, _ in samples]
        self.prefix = [0.0]
        self.busy = [0.0]
        for _, duration in samples:
            self.prefix.append(self.prefix[-1] + REFERENCE_S / duration)
            self.busy.append(self.busy[-1] + duration)

    def probe_time(self, start: float, end: float) -> float:
        """How long the probe itself ran in [start, end], on the worker's CPU."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        return self.busy[hi] - self.busy[lo]

    def scaled(self, start: float, end: float) -> float:
        """The time the worker's work in [start, end] takes at reference speed."""
        return max(0.0, end - start - self.probe_time(start, end)) * self.factor(start, end)

    def factor(self, start: float, end: float) -> float:
        """Mean of REFERENCE_S / duration over the samples taken in [start, end].

        A time measured over the interval, multiplied by this, is the time
        the same work takes at the reference speed.
        """
        lo = bisect.bisect_left(self.times, start - self.MARGIN_S)
        hi = bisect.bisect_right(self.times, end + self.MARGIN_S)
        if hi - lo < self.MIN_SAMPLES:
            lo = max(0, min(lo, len(self.times) - self.MIN_SAMPLES))
            hi = lo + self.MIN_SAMPLES
        return (self.prefix[hi] - self.prefix[lo]) / (hi - lo)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
