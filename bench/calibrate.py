"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of a core drifts by a quarter or more over
seconds to minutes, as other tenants come and go, and the drift slows all
code running at that moment.  So the benchmark runs a short, fixed reference
pass after each timed leg of a job and after each set-up sample (and one
before the first), and divides each time by the mean slowdown of the passes
either side of it: the result is the time on a machine where the pass runs
at its nominal speed.

A pass has up to three parts, because contention slows different kinds of
work by different amounts:

- ``scalar``: an interpreted loop of scalar ``scipy.special.betainc`` and
  ``math`` calls, like the solver's scalar cdf and partial-expectation calls;
- ``vector``: numpy draws, exp, a reduction and a sort over arrays of
  250 000 elements, allocated once so that they add little to peak RSS;
- ``spawn``: a fresh ``python -c pass`` process, like interpreter start-up.

Each part's time is divided by its nominal time, and a workload weighs the
factors by how much of its own work is of each kind; a part of weight 0 is
not run.  The weights are the mixes that made the calibrated medians
steadiest across seeds (see ``bench/README.md``).  No part touches
flowauction, so a change to the program moves the job's time and not the
pass's.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np
from scipy import special

# nominal times of the parts: their medians on the 2-core Xeon VM the
# benchmark was written on.  They only set the scale of the calibrated times.
NOMINAL_S = {"scalar": 0.010, "vector": 0.010, "spawn": 0.065}

_rng = np.random.default_rng(0)
_small = _rng.random(2_000)
_draws = np.empty(250_000)
_work = np.empty(250_000)


def _scalar() -> float:
    s = 0.0
    for i in range(4_000):
        x = (i % 97) / 97.0
        s += special.betainc(2.0, 5.0, x) + math.sqrt(x) * 0.5
        if i % 50 == 0:
            s += float(np.exp(_small).sum())
    return s


def _vector() -> float:
    s = 0.0
    for _ in range(4):
        _rng.random(out=_draws)
        np.exp(_draws, out=_work)
        np.multiply(_work, _draws, out=_work)
        s += float(_work.sum())
        _work[:50_000] = _draws[:50_000]
        _work[:50_000].sort()
        s += float(_work[3])
    return s


def _spawn() -> int:
    return subprocess.run([sys.executable, "-c", "pass"], check=True).returncode


PARTS = {"scalar": _scalar, "vector": _vector, "spawn": _spawn}


class Calibration:
    """Reference passes for one kind of work, given as weights over ``PARTS``."""

    def __init__(self, weights: dict[str, float]):
        self.weights = {name: w for name, w in weights.items() if w}
        self.measure()  # warm-up
        self.factors = self.measure()  # the latest pass

    def measure(self) -> dict[str, float]:
        """Run one pass; return each part's time as a multiple of its nominal time."""
        factors = {}
        for name in self.weights:
            t0 = time.perf_counter()
            PARTS[name]()
            factors[name] = (time.perf_counter() - t0) / NOMINAL_S[name]
        return factors

    def slowdown(self, factors: dict[str, float]) -> float:
        """The weighted mean of a pass's factors (1 = nominal speed)."""
        return sum(w * factors[n] for n, w in self.weights.items()) / sum(self.weights.values())

    def timed(self, wall_s: float) -> dict:
        """Run the pass that follows a time ``wall_s``; return it with its calibrated value.

        ``ref_s`` is ``wall_s`` over the mean slowdown of the pass before
        it (the latest one) and this pass.
        """
        before, self.factors = self.factors, self.measure()
        slow = (self.slowdown(before) + self.slowdown(self.factors)) / 2
        return {"wall_s": wall_s, "ref_s": wall_s / slow, "calibration": [before, self.factors]}
