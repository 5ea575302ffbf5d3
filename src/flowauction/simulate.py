"""Seeded Monte Carlo play-out of the auction winner's decision problem.

Each trial pays the upfront part of the bid, draws one uniform to settle the
forced-execution / forced-failure / voluntary branch, then draws the
reference price S (every trial draws S, so a trial consumes a fixed number
of variates).  A voluntary trial executes only when ``S - K - (1-alpha)*bid``
is strictly positive; ties do not execute.

Randomness comes from numpy's PCG64 generator.  Trials run in fixed-size
chunks whose generators are spawned deterministically from the run seed, and
chunk aggregates are combined with exact summation (``math.fsum``), so the
result is bit-identical for a given ``SimConfig`` no matter how many workers
evaluate the chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._bisect import find_crossing
from .distributions import Distribution
from .equilibrium import AuctionParams, check_execution_right, upper_bid_bracket
from .errors import InvalidParamsError

__all__ = ["SimConfig", "SimResult", "simulate_auction", "calibrate_zero_profit_bid"]

_CHUNK = 1 << 18


def _check_count_and_seed(n, seed, n_name: str, n_min: int) -> None:
    counts = (n, seed)
    if any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) for v in counts):
        raise InvalidParamsError(f"{n_name} and seed must be integers, got {counts!r}")
    if n < n_min:
        raise InvalidParamsError(f"{n_name} must be >= {n_min}, got {n}")
    if not 0 <= seed < 2**64:
        raise InvalidParamsError(f"seed must be a 64-bit nonnegative integer, got {seed}")


@dataclass(frozen=True)
class SimConfig:
    """Trial count, master seed, and the bid under test."""

    n_trials: int
    seed: int
    bid: float

    def __post_init__(self):
        _check_count_and_seed(self.n_trials, self.seed, "n_trials", 1)
        if not math.isfinite(self.bid):
            raise InvalidParamsError(f"bid must be finite, got {self.bid}")


@dataclass(frozen=True)
class SimResult:
    """Sample means with standard errors for the winner's problem.

    ``mean_spread_given_exec`` averages ``S - K`` over executed trials only
    and is None when no trial executed.  Standard errors use the plain
    sample-variance estimate.
    """

    mean_utility: float
    se_utility: float
    exec_rate: float
    se_exec: float
    mean_revenue: float
    se_revenue: float
    mean_spread_given_exec: float | None
    se_spread: float
    n_exec: int


def _trials(d: Distribution, params: AuctionParams, seed_seq: np.random.SeedSequence, m: int):
    """Draw ``m`` seeded trials (a branch uniform, then a price S); return ``S`` and ``settle``.

    ``settle(bid)`` gives each trial's execution indicator and gain ``S - K - (1-alpha)*bid``
    (0 where it does not execute); it keeps only S and the branch masks, not the uniforms.
    """
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    u = rng.random(m)
    s = d.sample(rng, size=m)
    forced_exec = u < params.p
    voluntary = u >= params.p + params.q

    def settle(bid: float):
        gain_if_exec = s - params.strike - (1.0 - params.alpha) * bid
        executed = forced_exec | (voluntary & (gain_if_exec > 0.0))
        return executed, np.where(executed, gain_if_exec, 0.0)

    return s, settle


def _run_chunk(d, params, bid, seed_seq, m):
    s, settle = _trials(d, params, seed_seq, m)
    executed, gain = settle(bid)
    spread = (s - params.strike)[executed]
    return (
        float(gain.sum()),
        float((gain * gain).sum()),
        int(executed.sum()),
        float(spread.sum()),
        float((spread * spread).sum()),
    )


def _sample_var(sum_x: float, sum_x2: float, n: int) -> float:
    if n < 2:
        return 0.0
    mean = sum_x / n
    return max(0.0, (sum_x2 - n * mean * mean) / (n - 1))


def simulate_auction(
    d: Distribution,
    params: AuctionParams,
    cfg: SimConfig,
    workers: int = 1,
) -> SimResult:
    """Simulate ``cfg.n_trials`` auctions at the fixed bid ``cfg.bid``.

    Per trial the winner pays ``alpha * bid`` unconditionally; on execution
    (forced, or voluntary and strictly profitable) it additionally pays
    ``(1 - alpha) * bid`` and books ``S - K``, in forced trials even when
    that is negative.  Revenue per trial is the total payment received by
    the auction.

    ``workers`` > 1 evaluates chunks in a thread pool; results are identical
    to the serial run.
    """
    check_execution_right(d, params)
    n = cfg.n_trials
    n_chunks = (n + _CHUNK - 1) // _CHUNK
    seeds = np.random.SeedSequence(cfg.seed).spawn(n_chunks)
    sizes = [_CHUNK] * (n_chunks - 1) + [n - _CHUNK * (n_chunks - 1)]

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # imported only here: it pulls in logging

        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(
                pool.map(lambda sm: _run_chunk(d, params, cfg.bid, sm[0], sm[1]), zip(seeds, sizes))
            )
    else:
        chunks = [_run_chunk(d, params, cfg.bid, ss, m) for ss, m in zip(seeds, sizes)]

    sum_gain = math.fsum(c[0] for c in chunks)
    sum_gain2 = math.fsum(c[1] for c in chunks)
    n_exec = sum(c[2] for c in chunks)
    sum_spread = math.fsum(c[3] for c in chunks)
    sum_spread2 = math.fsum(c[4] for c in chunks)

    mean_gain = sum_gain / n
    mean_utility = mean_gain - params.alpha * cfg.bid
    se_utility = math.sqrt(_sample_var(sum_gain, sum_gain2, n) / n)

    exec_rate = n_exec / n
    var_exec = n * exec_rate * (1.0 - exec_rate) / (n - 1) if n > 1 else 0.0
    se_exec = math.sqrt(var_exec / n)

    # revenue per trial is alpha*bid + executed*(1-alpha)*bid, an affine map
    # of the execution indicator, so its moments follow from the exec ones
    mean_revenue = cfg.bid * (params.alpha + (1.0 - params.alpha) * exec_rate)
    se_revenue = abs((1.0 - params.alpha) * cfg.bid) * se_exec

    if n_exec > 0:
        mean_spread = sum_spread / n_exec
        se_spread = math.sqrt(_sample_var(sum_spread, sum_spread2, n_exec) / n_exec)
    else:
        mean_spread = None
        se_spread = 0.0

    return SimResult(
        mean_utility=mean_utility,
        se_utility=se_utility,
        exec_rate=exec_rate,
        se_exec=se_exec,
        mean_revenue=mean_revenue,
        se_revenue=se_revenue,
        mean_spread_given_exec=mean_spread,
        se_spread=se_spread,
        n_exec=n_exec,
    )


def calibrate_zero_profit_bid(
    d: Distribution,
    params: AuctionParams,
    n_per_eval: int,
    seed: int,
) -> float:
    """Locate the zero-profit bid empirically.

    One batch of common random numbers (branch uniforms and price draws) is
    generated up front and reused for every bid evaluated, which makes the
    empirical expected utility a deterministic, nonincreasing function of
    the bid; the bracketed search of :func:`find_crossing` then finds its
    zero crossing in about 10 evaluations, and returns 0 when the utility at
    b = 0 is already nonpositive.  Requires ``alpha > 0`` or ``p > 0`` so
    that the crossing is strict.
    """
    if params.alpha == 0.0 and params.p == 0.0:
        raise InvalidParamsError(
            "calibration needs alpha > 0 or p > 0; with both zero the empirical "
            "utility never crosses below zero"
        )
    _check_count_and_seed(n_per_eval, seed, "n_per_eval", 2)
    check_execution_right(d, params)

    _, settle = _trials(d, params, np.random.SeedSequence(seed), n_per_eval)

    def empirical_eu(bid: float) -> float:
        return float(settle(bid)[1].mean()) - params.alpha * bid

    return find_crossing(empirical_eu, 0.0, upper_bid_bracket(d, params))
