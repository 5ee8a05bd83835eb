"""Scale measured times to a fixed interpreter speed.

The virtual machine this benchmark was written on (2 vCPUs) runs the same
Python code up to twice as fast at one minute as at the next, presumably
because other work shares the host; neither CPU time nor steal time shows
it.  Runs of identical work spread by more than the bounds a regression
check can use.  So while a run measures, a timer signal interrupts it every
``INTERVAL`` seconds and times a fixed calibration loop that does not touch
charfol.  A measured interval is then reported as
``seconds * REFERENCE / calibration``, where ``calibration`` is the median
loop time sampled around that interval: seconds on an interpreter that runs
the loop in ``REFERENCE`` seconds.  A change to charfol moves the scaled
time as much as the raw one; a slower host moves it much less.

Time spent in the handler is excluded from every interval, by measuring on
:meth:`SpeedProbe.clock`, which stops while the loop runs.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

INTERVAL = 0.2
REFERENCE = 0.004  # seconds per calibration loop at the reference speed
WINDOW = 0.5  # seconds of samples taken on each side of an interval
MIN_SAMPLES = 5


class SpeedProbe:
    """Samples the calibration loop from a timer signal while active."""

    def __init__(self) -> None:
        self.times: list[float] = []  # on clock(), ascending
        self.loops: list[float] = []
        self._spent = 0.0
        rng = random.Random(0)
        self._table = {f"key{i}": i for i in range(50000)}
        self._keys = rng.sample(sorted(self._table), 1000)
        self._perm = list(range(240))
        rng.shuffle(self._perm)
        darts = [(f"e{i}", end) for i in range(60) for end in ("src", "tgt")]
        self._theta = {d: (d[0], "tgt" if d[1] == "src" else "src") for d in darts}
        self._sigma = dict(zip(darts, rng.sample(darts, len(darts))))

    def calibration_loop(self) -> tuple:
        """Three kinds of interpreter work that take about equal time.

        How much a loaded host slows code down depends on the code; a mix
        tracks charfol's layers better than any one part alone.
        """
        # dictionary lookups in a table larger than the fast caches, a sort
        # and string building
        rows = [(k, self._table[k] % 17) for k in self._keys]
        rows.sort(key=lambda kv: (kv[1], kv[0]))
        text = "".join(k for k, _ in rows[:200])
        # permutation walks over a byte array, like a flat face trace
        perm, n, cycles = self._perm, len(self._perm), 0
        for _ in range(36):
            seen = bytearray(n)
            for d0 in range(n):
                d = d0
                while not seen[d]:
                    seen[d] = 1
                    d = perm[d ^ 1]
                cycles += d == d0
        # breadth-first numbering and encoding, like a canonical form
        theta, sigma, best = self._theta, self._sigma, ""
        for start in list(sigma)[:6]:
            index, order = {start: 0}, [start]
            for d in order:
                for nxt in (theta[d], sigma[d]):
                    if nxt not in index:
                        index[nxt] = len(order)
                        order.append(nxt)
            code = "|".join(f"{d[0]},{d[1][0]},{index[theta[d]]},{index[sigma[d]]}" for d in order)
            best = max(best, code)
        return text, cycles, best

    def clock(self) -> float:
        """perf_counter minus the time spent in calibration loops."""
        while True:
            spent = self._spent
            now = time.perf_counter()
            if spent == self._spent:  # no sample ran in between
                return now - spent

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.calibration_loop()
        took = time.perf_counter() - start
        self.times.append(start - self._spent)
        self.loops.append(took)
        self._spent += took

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, end: float) -> float:
        """The interval [start, end] on clock(), at the reference speed."""
        lo = bisect.bisect_left(self.times, start - WINDOW)
        hi = bisect.bisect_right(self.times, end + WINDOW)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        if hi == lo:
            raise RuntimeError("no calibration samples were taken")
        return (end - start) * REFERENCE / statistics.median(self.loops[lo:hi])
