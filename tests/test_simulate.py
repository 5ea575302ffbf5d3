import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from flowauction import (
    AuctionParams,
    Beta,
    ConvergenceError,
    InvalidParamsError,
    QuadratureDistribution,
    SimConfig,
    SimResult,
    Uniform,
    calibrate_zero_profit_bid,
    expected_utility,
    revenue,
    simulate_auction,
    solution_at,
    solve_equilibrium,
)
from flowauction import simulate
from flowauction.simulate import _chunks, _executable, _moments, _zero_profit_bid

U01 = Uniform(0.0, 1.0)


def z(emp, ana, se):
    return (emp - ana) / se


def check_against_analytic(d, params, n=200_000, seed=42):
    """Simulate at the analytic equilibrium bid and z-test every estimate."""
    sol = solve_equilibrium(d, params)
    res = simulate_auction(d, params, SimConfig(n_trials=n, seed=seed, bid=sol.b_star))
    assert abs(z(res.mean_utility, 0.0, res.se_utility)) <= 4.0
    assert abs(z(res.exec_rate, sol.p_exec, res.se_exec)) <= 4.0
    if res.se_revenue > 0.0:
        assert abs(z(res.mean_revenue, sol.revenue, res.se_revenue)) <= 4.0
    else:
        assert res.mean_revenue == pytest.approx(sol.revenue, abs=1e-12)
    if sol.effective_spread is not None:
        assert abs(z(res.mean_spread_given_exec, sol.effective_spread, res.se_spread)) <= 4.0
    return res, sol


class TestSimulateAuction:
    def test_deterministic_given_config(self):
        params = AuctionParams(strike=0.5, alpha=0.25)
        cfg = SimConfig(n_trials=300_000, seed=7, bid=2 / 9)
        assert simulate_auction(U01, params, cfg) == simulate_auction(U01, params, cfg)

    def test_empty_execution_region_is_exact(self):
        # threshold 0.5 + 0.5*1.2 = 1.1 sits above the support
        params = AuctionParams(strike=0.5, alpha=0.5)
        res = simulate_auction(U01, params, SimConfig(n_trials=100_000, seed=1, bid=1.2))
        assert res.exec_rate == 0.0
        assert res.n_exec == 0
        assert res.mean_utility == -0.6
        assert res.se_utility == 0.0
        assert res.mean_spread_given_exec is None
        assert res.mean_revenue == 0.6  # the upfront half is still collected

    def test_forced_execution_rate_exact(self):
        params = AuctionParams(strike=0.5, alpha=0.5, p=1.0)
        res = simulate_auction(U01, params, SimConfig(n_trials=50_000, seed=2, bid=0.1))
        assert res.exec_rate == 1.0
        assert res.n_exec == 50_000

    def test_forced_failure_rate_exact(self):
        params = AuctionParams(strike=0.5, alpha=0.5, q=1.0)
        res = simulate_auction(U01, params, SimConfig(n_trials=50_000, seed=2, bid=0.1))
        assert res.exec_rate == 0.0
        assert res.mean_utility == -0.05

    def test_uniform_zero_profit(self):
        check_against_analytic(U01, AuctionParams(strike=0.5, alpha=1.0))
        check_against_analytic(U01, AuctionParams(strike=0.5, alpha=0.25))

    def test_beta_zero_profit(self):
        check_against_analytic(Beta(2.0, 5.0), AuctionParams(strike=0.5, alpha=0.5))

    def test_forced_outcomes_zero_profit(self):
        check_against_analytic(U01, AuctionParams(strike=0.5, alpha=0.5, p=0.1, q=0.1))

    def test_empirical_revenue_identity(self):
        params = AuctionParams(strike=0.5, alpha=0.5)
        res, sol = check_against_analytic(U01, params, n=400_000)
        combined_se = math.sqrt(
            res.se_revenue**2
            + (res.mean_spread_given_exec * res.se_exec) ** 2
            + (res.exec_rate * res.se_spread) ** 2
        )
        gap = res.mean_revenue - res.exec_rate * res.mean_spread_given_exec
        assert abs(gap) <= 4.0 * combined_se

    @pytest.mark.parametrize("bid", [0.1, -0.2])
    def test_off_equilibrium_bid_against_analytic(self, bid):
        params = AuctionParams(strike=0.5, alpha=0.5)
        res = simulate_auction(U01, params, SimConfig(n_trials=200_000, seed=11, bid=bid))
        # a negative bid pays the bidder, but a standard error is never negative
        assert min(res.se_utility, res.se_exec, res.se_revenue, res.se_spread) >= 0.0
        assert abs(z(res.mean_utility, expected_utility(U01, params, bid), res.se_utility)) <= 4.0
        at = solution_at(U01, params, bid)
        assert abs(z(res.exec_rate, at.p_exec, res.se_exec)) <= 4.0
        assert abs(z(res.mean_revenue, revenue(params, bid, at.p_exec), res.se_revenue)) <= 4.0
        assert abs(z(res.mean_spread_given_exec, at.effective_spread, res.se_spread)) <= 4.0

    def test_mean_utility_unbiased_across_seeds(self):
        # per-seed z-check; the count of |z| > 4 events should be ~0 out of 100
        params = AuctionParams(strike=0.5, alpha=0.5)
        b_star = solve_equilibrium(U01, params).b_star
        passes = 0
        for seed in range(100):
            res = simulate_auction(U01, params, SimConfig(n_trials=100_000, seed=seed, bid=b_star))
            if abs(res.mean_utility) <= 4.0 * res.se_utility:
                passes += 1
        assert passes >= 99

    @pytest.mark.parametrize("seed, n_exec", [(0, 0), (5, 1)])
    def test_one_trial_has_zero_standard_errors(self, seed, n_exec):
        # a sample of one has no spread to estimate: every standard error is 0, not 0 / 0
        params = AuctionParams(strike=0.5, alpha=0.5)
        res = simulate_auction(U01, params, SimConfig(n_trials=1, seed=seed, bid=0.1))
        assert res.n_exec == n_exec and res.exec_rate == n_exec
        assert res.se_exec == res.se_utility == res.se_revenue == res.se_spread == 0.0
        for name, value in vars(res).items():
            assert value is None or math.isfinite(value), name
        assert (res.mean_spread_given_exec is None) == (n_exec == 0)

    def test_prices_near_2_to_the_minus_600_scale_every_estimate(self):
        # the squared gains and spreads, near 2**-1200, would underflow to 0 and
        # so would the standard errors; the rates do not scale
        tiny = 2.0**-600
        params, small = AuctionParams(0.5, 0.5, p=0.1, q=0.2), AuctionParams(0.5 * tiny, 0.5, p=0.1, q=0.2)
        bid = solve_equilibrium(U01, params).b_star
        unit = simulate_auction(U01, params, SimConfig(n_trials=10_000, seed=7, bid=bid))
        res = simulate_auction(Uniform(0.0, tiny), small, SimConfig(n_trials=10_000, seed=7, bid=bid * tiny))
        for name, value in vars(unit).items():
            rate = name in ("exec_rate", "se_exec", "n_exec")
            assert getattr(res, name) == (value if rate else value * tiny), name
        assert res.se_utility > 0.0 and res.se_spread > 0.0

    def test_prices_near_2_to_the_600_scale_every_estimate(self):
        # the squared gains and spreads, near 2**1200, would overflow to inf and
        # the standard errors would be NaN; the rates do not scale
        huge = 2.0**600
        params, big = AuctionParams(0.5, 0.5, p=0.1, q=0.2), AuctionParams(0.5 * huge, 0.5, p=0.1, q=0.2)
        bid = solve_equilibrium(U01, params).b_star
        unit = simulate_auction(U01, params, SimConfig(n_trials=10_000, seed=7, bid=bid))
        res = simulate_auction(Uniform(0.0, huge), big, SimConfig(n_trials=10_000, seed=7, bid=bid * huge))
        for name, value in vars(unit).items():
            rate = name in ("exec_rate", "se_exec", "n_exec")
            assert getattr(res, name) == (value if rate else value * huge), name

    def test_strike_above_support_rejected(self):
        with pytest.raises(InvalidParamsError):
            simulate_auction(
                U01, AuctionParams(strike=1.5, alpha=0.5), SimConfig(n_trials=10, seed=0, bid=0.1)
            )

    def test_config_validation(self):
        with pytest.raises(InvalidParamsError):
            SimConfig(n_trials=0, seed=0, bid=0.1)
        with pytest.raises(InvalidParamsError):
            SimConfig(n_trials=10, seed=0, bid=math.inf)

    @pytest.mark.parametrize(
        "n_trials, seed", [(True, 1), (10, True), (10.0, 1), (10, 1.5), (10, "1")]
    )
    def test_config_rejects_non_integer_counts(self, n_trials, seed):
        with pytest.raises(InvalidParamsError):
            SimConfig(n_trials=n_trials, seed=seed, bid=0.1)


@pytest.mark.parametrize("count", [np.int64(1000), np.uint32(1000)], ids=["int64", "uint32"])
def test_a_numpy_integer_count_plays_the_trials_of_the_int(count):
    params = AuctionParams(0.5, 0.5)
    want = simulate_auction(U01, params, SimConfig(1000, 3, 0.1))
    assert simulate_auction(U01, params, SimConfig(count, 3, 0.1)) == want
    assert calibrate_zero_profit_bid(U01, params, count, 3) == calibrate_zero_profit_bid(U01, params, 1000, 3)


class TestCalibration:
    def test_uniform_all_upfront(self):
        params = AuctionParams(strike=0.5, alpha=1.0)
        sol = solve_equilibrium(U01, params)
        cal = calibrate_zero_profit_bid(U01, params, n_per_eval=200_000, seed=42)
        res = simulate_auction(U01, params, SimConfig(n_trials=200_000, seed=42, bid=sol.b_star))
        h = 1e-6
        slope = (
            expected_utility(U01, params, sol.b_star + h)
            - expected_utility(U01, params, sol.b_star - h)
        ) / (2 * h)
        assert abs(cal - sol.b_star) <= 3.0 * res.se_utility / abs(slope)

    @pytest.mark.parametrize(
        "n_per_eval, seed", [(True, 1), (1000, True), (1000.5, 1), (1000, 1.5), (1000, "1"), (1, 1)]
    )
    def test_rejects_non_integer_counts(self, n_per_eval, seed):
        params = AuctionParams(strike=0.5, alpha=0.5)
        with pytest.raises(InvalidParamsError):
            calibrate_zero_profit_bid(U01, params, n_per_eval=n_per_eval, seed=seed)

    def test_rejects_degenerate_setting(self):
        with pytest.raises(InvalidParamsError):
            calibrate_zero_profit_bid(U01, AuctionParams(strike=0.5, alpha=0.0), 1000, 0)

    def test_liability_case_returns_zero(self):
        params = AuctionParams(strike=0.8, alpha=0.5, p=0.5, q=0.2)
        assert calibrate_zero_profit_bid(U01, params, 10_000, 0) == 0.0

    def test_an_overflowing_bid_bracket_raises(self):
        # no float bid puts the threshold at the support top
        with pytest.raises(ConvergenceError, match="upper bid bracket .* overflows to inf"):
            calibrate_zero_profit_bid(Uniform(0.0, 1e308), AuctionParams(0.0, 0.5), 10_000, 1)

    def test_an_overflowing_sum_of_gains_raises(self):
        # the bracket is finite, but 10^4 gains near 1e307 sum past the float range
        with pytest.raises(ConvergenceError, match="sum to inf"):
            calibrate_zero_profit_bid(Uniform(0.0, 1e307), AuctionParams(0.0, 0.5), 10_000, 1)

    # bids calibrated from 200,000 trials of seed 42 by the search on the direct mean of
    # each bid's trial gains; the sorted table sums them in another order
    @pytest.mark.parametrize("d, params, bid", [
        (U01, AuctionParams(0.5, 0.5), 0.1715486057989436),
        (U01, AuctionParams(0.5, 0.5, 0.2, 0.1), 0.11473276027135758),
        (U01, AuctionParams(0.5, 1.0), 0.12492703604057886),
        (Beta(2.0, 5.0), AuctionParams(0.5, 0.5), 0.018131764486610073),
        (Beta(2.0, 5.0), AuctionParams(0.5, 1.0), 0.010014189202933566),
        (Beta(2.0, 5.0), AuctionParams(0.5, 0.5, 0.2, 0.1), 0.0),
    ])
    def test_calibrated_bids_match_the_direct_search(self, d, params, bid):
        got = calibrate_zero_profit_bid(d, params, 200_000, 42)
        assert got == pytest.approx(bid, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# the draws and kernel, with a new array for every step, that the chunked,
# in-place ones must reproduce bit for bit
# ---------------------------------------------------------------------------

def reference_trials(d, params, seed_seq, m):
    """All ``m`` branch uniforms, then all ``m`` prices, each drawn as one array."""
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    u = rng.random(m)
    x = d.sample(rng, size=m) - params.strike
    return x, u < params.p, u >= params.p + params.q


def reference_chunks(d, params, seed, n, chunk=2**18):
    """The ``n`` trials of ``seed``, drawn one chunk after another on this thread:
    chunks of ``chunk`` trials and a last one, each from its own spawned seed."""
    sizes = [min(chunk, n - lo) for lo in range(0, n, chunk)]
    seeds = np.random.SeedSequence(seed).spawn(len(sizes))
    return [reference_trials(d, params, ss, m) for ss, m in zip(seeds, sizes)]


def reference_settle(params, bid, x, forced, voluntary):
    """Each trial's execution indicator and gain, zeroed by a masked copy where it does not execute."""
    gain_if_exec = x - (1.0 - params.alpha) * bid
    executed = forced | (voluntary & (gain_if_exec > 0.0))
    return executed, np.where(executed, gain_if_exec, 0.0)


def reference_moments(params, bid, x, forced, voluntary):
    """One chunk's sums of gain and squared gain, executed count, and sums of spread and squared spread."""
    executed, gain = reference_settle(params, bid, x, forced, voluntary)
    spread = x[executed]
    return (
        float(gain.sum()),
        float((gain * gain).sum()),
        int(executed.sum()),
        float(spread.sum()),
        float((spread * spread).sum()),
    )


def reference_simulate(d, params, cfg):
    """The simulation's estimates from the exactly summed moments of the reference chunks."""
    chunks = [reference_moments(params, cfg.bid, *c) for c in reference_chunks(d, params, cfg.seed, cfg.n_trials)]
    sum_gain, sum_gain2, sum_spread, sum_spread2 = (math.fsum(c[i] for c in chunks) for i in (0, 1, 3, 4))
    n, n_exec, alpha, bid = cfg.n_trials, sum(c[2] for c in chunks), params.alpha, cfg.bid

    def se(total, total2, k):
        """The standard error of a mean of ``k`` values, from their sum and sum of squares."""
        if k < 2:
            return 0.0
        mean = total / k
        return math.sqrt(max(0.0, (total2 - k * mean * mean) / (k - 1)) / k)

    exec_rate = n_exec / n
    se_exec = math.sqrt((n * exec_rate * (1.0 - exec_rate) / (n - 1) if n > 1 else 0.0) / n)
    return SimResult(
        mean_utility=sum_gain / n - alpha * bid,
        se_utility=se(sum_gain, sum_gain2, n),
        exec_rate=exec_rate,
        se_exec=se_exec,
        mean_revenue=bid * (alpha + (1.0 - alpha) * exec_rate),
        se_revenue=abs((1.0 - alpha) * bid) * se_exec,
        mean_spread_given_exec=sum_spread / n_exec if n_exec else None,
        se_spread=se(sum_spread, sum_spread2, n_exec),
        n_exec=n_exec,
    )


def reference_calibrate(d, params, n, seed):
    """The zero-profit bid read from the reference chunks' ``n`` trials held whole."""
    x, forced, voluntary = (np.concatenate(v) for v in zip(*reference_chunks(d, params, seed, n)))
    return _zero_profit_bid(params, n, x[forced], np.sort(x[voluntary & (x > 0.0)]))


REFERENCE_LAWS = [
    (U01, 0.5, 0.1),
    (Beta(2.0, 5.0), 0.5, 0.05),
    (Beta(0.5, 0.5), 0.5, 0.1),
    (Uniform(-3.0, 5.0), 1.0, 0.8),  # a shifted law: x = S - K is negative on most of it
]


@pytest.mark.parametrize("d, strike, bid", REFERENCE_LAWS,
                         ids=["uniform", "beta-2-5", "beta-0.5-0.5", "shifted"])
@pytest.mark.parametrize("alpha, p, q", [(0.5, 0.0, 0.0), (0.5, 0.2, 0.1), (1.0, 0.0, 0.0)])
# 2 * 2**18 + 1 draws a pair of chunks, then a lone one
@pytest.mark.parametrize("n", [2, 2**18 - 1, 2**18, 2**18 + 1, 2 * 2**18 + 1, 10**6])
class TestChunksMatchTheReference:
    def test_calibration(self, d, strike, bid, alpha, p, q, n):
        params = AuctionParams(strike, alpha, p, q)
        assert calibrate_zero_profit_bid(d, params, n, 5) == reference_calibrate(d, params, n, 5)

    def test_simulation(self, d, strike, bid, alpha, p, q, n):
        params, cfg = AuctionParams(strike, alpha, p, q), SimConfig(n_trials=n, seed=5, bid=bid)
        assert simulate_auction(d, params, cfg) == reference_simulate(d, params, cfg)


def branches(xs, kinds):
    """A hand-made chunk: the prices less the strike, and each trial's branch,
    ``F`` forced, ``V`` voluntary or ``Q`` a forced failure."""
    kinds = np.array(list(kinds))
    return np.array(xs, float), kinds == "F", kinds == "V"


NAN = math.nan
# (law, params, bid, n) chunks drawn by _chunks at seed 3, or (params, bid, chunk) made by hand
KERNEL_CASES = {
    # x - bid overflows to -inf below x = -7.98e307: forced trials execute at -inf,
    # the others do not, and their zeroed gain must not be -inf * 0 = NaN
    "minus-inf-gains": (Uniform(-1e308, 1e307), AuctionParams(0.0, 0.0, 0.3, 0.3), 1e308, 2000),
    # x + 1e308 overflows to +inf: forced and voluntary trials execute at +inf, forced failures do not
    "plus-inf-gains": (Uniform(-1e307, 1e308), AuctionParams(0.0, 0.0, 0.3, 0.3), -1e308, 2000),
    "nan-prices": (AuctionParams(0.5, 0.5), 0.1, branches([NAN, NAN, NAN, 0.3, -0.2, NAN], "FVQVFF")),
    # (1 - alpha) * bid = 0.25 exactly: a voluntary trial at x = 0.25 does not execute
    "ties": (AuctionParams(0.5, 0.5), 0.5,
             branches([0.25, 0.25, 0.25, 0.25 + 2**-54, 0.25 - 2**-54, 0.3], "FVQVVQ")),
    "forced-failures": (U01, AuctionParams(0.5, 0.5, 0.2, 0.5), 0.1, 2**18 + 5),
    "no-forced-outcomes": (Beta(2.0, 5.0), AuctionParams(0.1, 0.5), 0.05, 2**18 + 5),
    "nothing-executes": (U01, AuctionParams(0.5, 0.5), 1.2, 2**18 + 5),
    "nothing-executes-by-hand": (AuctionParams(0.5, 0.5), 0.1,
                                 branches([-1.0, -1e308, 0.0, NAN, 0.05], "VVVVQ")),
}


def kernel_chunks(case):
    """The case's params, bid and chunks."""
    if len(case) == 3:
        params, bid, chunk = case
        return params, bid, [chunk]
    d, params, bid, n = case
    return params, bid, list(_chunks(d, params, 3, n, identity))


def identity(*chunk):
    """A chunk reduced to itself: its ``x`` and branch masks."""
    return chunk


def float_bits(values):
    """The values' float64 bits, so that 0.0 and -0.0 differ and NaN equals NaN."""
    return np.asarray(values, float).view(np.int64)


def assert_same_chunks(got, want):
    """The chunks hold the same trials: the same ``x`` bits and branch masks."""
    assert len(got) == len(want)
    for (x, forced, voluntary), (rx, rforced, rvoluntary) in zip(got, want):
        assert np.array_equal(float_bits(x), float_bits(rx))
        assert np.array_equal(forced, rforced) and np.array_equal(voluntary, rvoluntary)


@pytest.mark.parametrize("case", KERNEL_CASES.values(), ids=KERNEL_CASES.keys())
def test_the_chunk_kernel_matches_the_masked_copy(case):
    params, bid, chunks = kernel_chunks(case)
    for x, forced, voluntary in chunks:
        # the kernel may not signal an invalid operation where the masked copy does not
        with np.errstate(over="ignore", invalid="raise"):
            want = reference_moments(params, bid, x.copy(), forced, voluntary)
            got = _moments(params, bid, 1.0, x.copy(), forced, voluntary)
        assert got[2] == want[2]
        assert np.array_equal(float_bits(got[:2] + got[3:]), float_bits(want[:2] + want[3:]))


@pytest.mark.parametrize("d, sizes", [
    (U01, [1, 2**18 - 1, 2**18, 2**18 + 1]),
    (Beta(0.5, 0.5), [1, 2**18 - 1, 2**18, 2**18 + 1]),
    (Beta(2.0, 5.0), [1, 2**18 - 1, 2**18, 2**18 + 1]),
    (QuadratureDistribution(Beta(2.0, 5.0).pdf, Beta(2.0, 5.0).support), [1, 3]),
], ids=["uniform", "beta-0.5-0.5", "beta-2-5", "quadrature"])
@pytest.mark.parametrize("p, q, advances", [(0.0, 0.0, True), (5e-324, 0.0, False), (0.0, 5e-324, False)])
def test_chunks_skip_only_branch_uniforms_that_decide_nothing(monkeypatch, d, sizes, p, q, advances):
    skipped = []

    class PCG64(np.random.PCG64):
        def advance(self, delta):
            skipped.append(delta)
            return super().advance(delta)

    monkeypatch.setattr(np.random, "PCG64", PCG64)
    params = AuctionParams(0.5, 0.5, p, q)
    for n in sizes:
        skipped.clear()
        assert_same_chunks(list(_chunks(d, params, 11, n, identity)), reference_chunks(d, params, 11, n))
        assert skipped == ([min(2**18, n - lo) for lo in range(0, n, 2**18)] if advances else [])


def test_calibration_holds_the_executable_trials_not_the_batch():
    # held whole, the batch's uniforms, prices and x peaked at 17.9 MiB; about
    # half of the 10^6 trials have x > 0, and their x take 3.8 MiB
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        calibrate_zero_profit_bid(U01, AuctionParams(0.5, 0.5), 10**6, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


def test_simulation_holds_at_most_two_chunks():
    # one chunk's arrays at a time peaked at 5.0 MiB; two chunks drawn and reduced at once, 7.1-8.0 MiB
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        simulate_auction(U01, AuctionParams(0.5, 0.5), SimConfig(n_trials=10**6, seed=1, bid=0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2**20


def test_a_quadrature_law_is_sampled_on_two_threads_as_on_one(monkeypatch):
    # its draws call the Python pdf; chunks of 64 trials keep them quick
    monkeypatch.setattr(simulate, "_CHUNK", 64)
    law, params = QuadratureDistribution(Beta(2.0, 5.0).pdf, Beta(2.0, 5.0).support), AuctionParams(0.2, 0.5)
    # four chunks: two pairs, each drawn on two threads
    assert_same_chunks(list(_chunks(law, params, 13, 200, identity)),
                       reference_chunks(law, params, 13, 200, chunk=64))


def test_one_helper_thread_draws_every_second_chunk_of_a_run(monkeypatch):
    # a helper started for every pair could take a new malloc arena, and with it MBs of resident memory
    monkeypatch.setattr(simulate, "_CHUNK", 64)
    before = threading.active_count()
    threads = list(_chunks(U01, AuctionParams(0.5, 0.5), 5, 5 * 64, lambda *chunk: threading.current_thread()))
    caller, helper = threads[:2]
    assert caller is threading.current_thread() and helper is not caller
    assert all(t is caller for t in threads[0::2]) and all(t is helper for t in threads[1::2])
    assert threading.active_count() == before


def test_every_reduction_at_p_q_zero_gets_read_only_masks(monkeypatch):
    # every chunk is given views of one pair of constant masks, which no reduction may write to
    monkeypatch.setattr(simulate, "_CHUNK", 64)

    def reduce(x, forced, voluntary):
        seen = forced.flags.writeable, voluntary.flags.writeable, forced.any(), voluntary.all()
        return threading.current_thread(), *seen

    reductions = list(_chunks(U01, AuctionParams(0.5, 0.5), 5, 4 * 64 + 1, reduce))
    assert {thread for thread, *_ in reductions[0::2]} == {threading.current_thread()}
    assert threading.current_thread() not in {thread for thread, *_ in reductions[1::2]}
    assert [flags for _, *flags in reductions] == [[False, False, False, True]] * 5


class SecondChunk(Uniform):
    """U(0, 1), except that ``second(size)`` gives the draws of a run's second chunk."""

    def __init__(self, second):
        super().__init__(0.0, 1.0)
        self.second = second

    def sample(self, rng, size=None):
        if rng.bit_generator.seed_seq.spawn_key == (1,):  # child 1 of the run's seed
            return self.second(size)
        return super().sample(rng, size)


class DrawFailed(Exception):
    pass


def fail(size):
    raise DrawFailed(size)


class ReductionFailed(Exception):
    pass


def refuse_twos(reduce):
    """``reduce``, except that it fails on a chunk whose prices are all 2 at a strike of 0.5."""
    def reduced(*args):
        if (args[-3] == 1.5).all():  # the chunk's x
            raise ReductionFailed
        return reduce(*args)
    return reduced


def test_a_failed_draw_or_reduction_is_raised_and_no_thread_outlives_it(monkeypatch):
    params, n = AuctionParams(0.5, 0.5), 3 * 2**18
    runs = (lambda law: simulate_auction(law, params, SimConfig(n_trials=n, seed=2, bid=0.1)),
            lambda law: calibrate_zero_profit_bid(law, params, n, 2))
    before = threading.active_count()
    for run in runs:
        with pytest.raises(DrawFailed):
            run(SecondChunk(fail))
        assert threading.active_count() == before
    # the second chunk, which a helper thread draws and reduces, has prices of 2 only
    for name in ("_moments", "_executable"):
        monkeypatch.setattr(simulate, name, refuse_twos(getattr(simulate, name)))
    for run in runs:
        with pytest.raises(ReductionFailed):
            run(SecondChunk(lambda size: np.full(size, 2.0)))
        assert threading.active_count() == before


def test_every_chunk_is_drawn_and_reduced_under_the_callers_errstate():
    # x - K overflows in the second chunk only, which a helper thread draws
    law, params, n = SecondChunk(lambda size: np.full(size, -1e308)), AuctionParams(1e308, 0.5), 2**18 + 1
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        list(_chunks(law, params, 3, n, identity))
    with np.errstate(over="ignore"):  # a warning would fail the test
        (x, _, _), (y, _, _) = _chunks(law, params, 3, n, identity)
    assert np.isfinite(x).all() and y.tolist() == [-math.inf]
    # the second chunk's x is drawn finite, and only its squared gain, which the helper reduces, overflows
    law, params = SecondChunk(lambda size: np.full(size, 1e308)), AuctionParams(0.5, 0.5)
    cfg = SimConfig(n_trials=n, seed=3, bid=0.1)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        simulate_auction(law, params, cfg)
    with np.errstate(over="ignore"):
        result = simulate_auction(law, params, cfg)
    assert math.isfinite(result.mean_utility) and math.isnan(result.se_utility)  # the squares' sum is inf


def test_a_cli_simulation_whose_draws_overflow_writes_no_warning():
    # S - K overflows to -inf in about a fifth of the trials of either chunk; at
    # p = 1e-9 no trial of this seed is forced, so none of them executes and the
    # result is finite
    env = {**os.environ, "PYTHONPATH": str(Path(simulate.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "flowauction", "simulate", "--dist", "uniform:-1e308,1e307",
         "--strike", "1e308", "--p", "1e-9", "--alpha", "1", "--n", str(2**18 + 40_000), "--seed", "1"],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[1].startswith("1,0,302144,1,0,")


@st.composite
def laws_and_params(draw):
    """A Uniform or Beta law and auction parameters, with the strike anywhere near the support."""
    if draw(st.booleans()):
        lo = draw(st.floats(-100.0, 100.0))
        d = Uniform(lo, lo + draw(st.floats(1e-3, 100.0)))
    else:
        d = Beta(draw(st.floats(0.2, 50.0)), draw(st.floats(0.2, 50.0)))
    lo, hi = d.support.lo, d.support.hi
    strike = lo + draw(st.floats(-0.5, 1.5)) * (hi - lo)
    # where 1 - alpha is a power of two, (1 - alpha) * bid is exact and ties are common
    alpha = draw(st.sampled_from([1.0, 0.5, 0.75, 0.875]) | st.floats(0.0, 1.0, exclude_min=True))
    p = draw(st.floats(0.0, 1.0))
    q = draw(st.floats(0.0, 1.0 - p))
    return d, AuctionParams(strike, alpha, p, q)


@st.composite
def trial_batches(draw):
    """A law, auction parameters, a small seeded batch of trials and bids to read it at."""
    d, params = draw(laws_and_params())
    lo, hi, alpha = d.support.lo, d.support.hi, params.alpha
    (x, forced, voluntary), = _chunks(d, params, draw(st.integers(0, 2**64 - 1)), draw(st.integers(2, 64)), identity)
    # the batch repeated, so that trials tie with each other
    repeats = draw(st.integers(1, 3))
    x, forced, voluntary = (np.tile(v, repeats) for v in (x, forced, voluntary))
    c = 1.0 - alpha
    span = 2.0 * (hi - lo) / max(c, 1e-3)
    bids = [u * span for u in draw(st.lists(st.floats(0.0, 1.0), max_size=8))]
    # bids whose contingent part (1 - alpha) * bid equals a trial's x exactly
    for xi in draw(st.lists(st.sampled_from(x.tolist()), max_size=4)):
        if c > 0.0 and xi > 0.0:
            b = xi / c
            bids += [t for t in (math.nextafter(b, 0.0), b, math.nextafter(b, math.inf)) if c * t == xi]
    return params, x, forced, voluntary, bids


@settings(max_examples=200, deadline=None)
@given(batch=trial_batches())
# three equal gains summed and divided by three round above the top breakpoint,
# where with alpha near 0 no trial executes and the utility is -alpha * b
@example(batch=(AuctionParams(0.0, 1e-80), np.array([0.5, 0.9355867217045211] * 3), np.zeros(6, bool),
                np.ones(6, bool), []))
def test_the_exact_root_is_a_crossing_of_the_direct_mean(batch):
    params, x, forced, voluntary, bids = batch
    c = 1.0 - params.alpha

    def utility_and_bound(bid):
        """The masked copy's mean utility at ``bid``, and the rounding allowed in it."""
        executed, gain = reference_settle(params, bid, x, forced, voluntary)
        # the root sums the same executed gains x - c*bid, in other orders and groupings
        scale = (np.abs(x[executed]).sum() + executed.sum() * c * abs(bid)) / len(x) + params.alpha * abs(bid)
        return float(gain.mean()) - params.alpha * bid, 16 * sys.float_info.epsilon * scale

    root = _zero_profit_bid(params, len(x), *_executable(x, forced, voluntary))
    assert root >= 0.0 and math.isfinite(root)
    above = [math.nextafter(root, math.inf)] + [bid for bid in bids if bid > root]
    below = [bid for bid in bids if bid < root]
    if root > 0.0:
        below.append(math.nextafter(root, -math.inf))
    else:  # the utility at 0 is already nonpositive
        above.append(0.0)
    for bid in above:
        utility, tol = utility_and_bound(bid)
        assert utility <= tol
    for bid in below:
        utility, tol = utility_and_bound(bid)
        assert utility >= -tol


@settings(deadline=None)
@given(law=laws_and_params(), n=st.integers(2, 2**18 + 1), seed=st.integers(0, 2**64 - 1))
@example(law=(U01, AuctionParams(0.5, 0.5)), n=10**6, seed=42)
@example(law=(Beta(2.0, 5.0), AuctionParams(0.5, 0.5)), n=10**6, seed=42)
def test_the_calibrated_bid_breaks_even_on_the_trials_of_its_seed(law, n, seed):
    d, params = law
    assume(params.strike < d.support.hi or params.p > 0.0)  # else the execution right is worthless
    bid = calibrate_zero_profit_bid(d, params, n, seed)
    utility = simulate_auction(d, params, SimConfig(n_trials=n, seed=seed, bid=bid)).mean_utility
    scale = max(abs(d.support.lo), abs(d.support.hi), abs(params.strike)) + abs(bid)
    tol = 16 * sys.float_info.epsilon * scale
    if bid > 0.0:
        assert abs(utility) <= tol
    else:  # the utility at 0 is already nonpositive
        assert utility <= tol
