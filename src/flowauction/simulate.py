"""Seeded Monte Carlo play-out of the auction winner's decision problem.

Each trial pays the upfront part of the bid, draws one uniform to settle the
forced-execution / forced-failure / voluntary branch, then draws the
reference price S (every trial draws one price, whichever branch it takes).
A voluntary trial executes only when ``S - K - (1-alpha)*bid`` is strictly
positive; ties do not execute.

Randomness comes from numpy's PCG64 generator.  Trials are drawn in
fixed-size chunks whose generators are spawned deterministically from the
seed.  Chunks are drawn and reduced two at a time, the second on a helper
thread, and their reductions are read on the caller's thread, in chunk
order.  The simulation and the calibrator read the same chunks, so at one
seed they play the same trials.  A simulation reduces each chunk to its
moments and combines them with exact summation (``math.fsum``), so its
result is bit-identical for a given ``SimConfig``, and it holds at most two
chunks' arrays at a time.  The calibrator reduces each chunk to the trials
that can execute.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import math
import mmap
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution
from .equilibrium import AuctionParams, check_execution_right, upper_bid_bracket
from .errors import ConvergenceError, InvalidParamsError

__all__ = ["SimConfig", "SimResult", "simulate_auction", "calibrate_zero_profit_bid"]

_CHUNK = 1 << 18


def _is_integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_count_and_seed(n, seed, n_name: str, n_min: int) -> None:
    counts = (n, seed)
    if not all(_is_integer(v) for v in counts):
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
    sample-variance estimate, taken at a power-of-two scale that brings the
    gains and spreads near 1, so that their squares neither underflow nor
    overflow.
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


def _chunks(d: Distribution, params: AuctionParams, seed: int, n: int, reduce):
    """Draw ``n`` seeded trials in chunks of at most ``_CHUNK``, each from its own
    generator, and yield each chunk's ``reduce(x, forced, voluntary)``, in chunk order.

    Chunk ``k`` draws from child ``k`` of ``SeedSequence(seed)``.  A chunk of
    ``m`` trials draws ``m`` branch uniforms, then ``m`` prices S, and is
    reduced from its ``x = S - K``, the mask of trials whose execution is
    forced and the mask of those where the winner decides; ``reduce`` may
    overwrite ``x``.  The chunk seeds and sizes define the draws, so a seed
    gives every caller the same trials.  At ``p = q = 0`` the uniforms decide
    nothing: the generator is advanced past them instead (``Generator.random``
    takes one 64-bit PCG64 output per float), so the prices are the same, and
    every chunk is given views of one read-only pair of constant masks.

    Chunks are drawn in pairs, in order: this thread draws and reduces the
    first chunk of a pair while a helper thread draws and reduces the second,
    in a copy of this thread's context as the pair begins (numpy lets go of
    the interpreter lock while it draws).  The seeds are spawned and the
    generators built and advanced here, in chunk order, each into a call that
    draws and reduces its chunk.  A pair is begun only once the last
    one's reductions are yielded, so at most two chunks are held at once.
    One helper serves the whole run and ends with its last chunk, and it is
    joined before the run returns, raises or is closed; an exception it
    raised is raised here.  A helper started for every pair could start
    before the last one had handed its malloc arena back and take a new one,
    which now and then left several MB more of the process resident.  A run
    of one chunk starts no thread.
    """
    root = np.random.SeedSequence(seed)
    sizes = [min(_CHUNK, int(n) - lo) for lo in range(0, n, _CHUNK)]  # advance() refuses numpy integers
    masks = None
    if params.p == params.q == 0.0:
        masks = np.zeros(sizes[0], bool), np.ones(sizes[0], bool)
        for mask in masks:
            mask.flags.writeable = False  # every chunk is given views of them

    def chunk(m: int):
        rng = np.random.Generator(np.random.PCG64(root.spawn(1)[0]))  # spawn counts on: chunk k gets child k
        if masks is not None:
            rng.bit_generator.advance(m)

        def draw():
            if masks is None:
                u = rng.random(m)
                forced, voluntary = u < params.p, u >= params.p + params.q
                del u
            else:
                forced, voluntary = (mask[:m] for mask in masks)
            x = d.sample(rng, size=m)
            x -= params.strike
            return reduce(x, forced, voluntary)
        return draw

    if len(sizes) == 1:
        yield chunk(sizes[0])()
        return
    # imported here, so that only runs of two chunks or more pay for its import, logging's included
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(1) as helper:
        for g in range(0, len(sizes), 2):
            ours, *second = [chunk(m) for m in sizes[g:g + 2]]
            theirs = [helper.submit(contextvars.copy_context().run, call) for call in second]
            if g + 2 >= len(sizes):
                helper.shutdown(wait=False)  # the last pair: the helper ends while this thread draws
            yield ours()
            yield from (future.result() for future in theirs)


def _scale(d: Distribution, params: AuctionParams, bid: float) -> float:
    """The power of two ``s`` by which a simulation multiplies every trial's ``x``
    before it takes moments.  ``max(|lo - K|, |hi - K|) + |(1-alpha)*bid|`` bounds
    each gain and spread; ``s`` puts the bound into [1/2, 1) from either side, so that
    their squares neither underflow nor overflow (``s`` is 1 at a bound of 0 or inf and
    stops at 2**1023, which a subnormal bound would pass).  Where nothing underflows
    or overflows, the scaling is exact and dividing by ``s`` undoes it bit for bit."""
    lo, hi, strike = d.support.lo, d.support.hi, params.strike
    bound = max(abs(lo - strike), abs(hi - strike)) + abs((1.0 - params.alpha) * bid)
    return math.ldexp(1.0, min(-math.frexp(bound)[1], sys.float_info.max_exp - 1))


def _moments(params: AuctionParams, bid: float, scale: float, x: np.ndarray, forced: np.ndarray,
             voluntary: np.ndarray):
    """One chunk's sums of gain and squared gain, executed count, and sums of spread and
    squared spread, each gain and spread multiplied by ``scale`` (see :func:`_scale`).

    A trial executes when it is forced, or voluntary with ``x`` above the contingent
    payment ``paid = (1-alpha)*bid``; it gains ``x - paid`` then and 0 otherwise.
    ``x`` is overwritten with the gains."""
    if scale != 1.0:
        x *= scale
    paid = (1.0 - params.alpha) * bid * scale
    executed = x > paid
    executed &= voluntary
    executed |= forced
    spread = x[executed]
    sum_spread = float(spread.sum())
    sum_spread2 = float(np.multiply(spread, spread, out=spread).sum())
    x -= paid
    # masked copies mispredict on a random mask; a product by the mask does
    # not.  It leaves -0.0 where a gain was negative, which += 0.0 makes 0.0,
    # and NaN where a gain was infinite or NaN, which is set to 0 where the
    # trial does not execute: an executed inf or NaN keeps its value
    with np.errstate(invalid="ignore"):
        x *= executed
    x += 0.0
    nan = np.isnan(x)
    if nan.any():
        np.copyto(x, 0.0, where=nan & ~executed)
    return float(x.sum()), float(np.multiply(x, x, out=x).sum()), spread.size, sum_spread, sum_spread2


def _sample_var(sum_x: float, sum_x2: float, n: int) -> float:
    if n < 2:
        return 0.0
    mean = sum_x / n
    var = (sum_x2 - n * mean * mean) / (n - 1)
    # rounding can make it negative; the NaN of squares that overflow is kept
    return var if not var < 0.0 else 0.0


def simulate_auction(d: Distribution, params: AuctionParams, cfg: SimConfig) -> SimResult:
    """Simulate ``cfg.n_trials`` auctions at the fixed bid ``cfg.bid``.

    Per trial the winner pays ``alpha * bid`` unconditionally; on execution
    (forced, or voluntary and strictly profitable) it additionally pays
    ``(1 - alpha) * bid`` and books ``S - K``, in forced trials even when
    that is negative.  Revenue per trial is the total payment received by
    the auction.

    The trials are :func:`_chunks` of ``cfg.seed``, the ones the calibrator
    reads at that seed; a seeded run gives the same result bit for bit.  A
    run holds at most two chunks' arrays at a time.
    """
    check_execution_right(d, params)
    n = cfg.n_trials
    scale = _scale(d, params, cfg.bid)
    moments = _chunks(d, params, cfg.seed, n, functools.partial(_moments, params, cfg.bid, scale))
    gains, gains2, n_execs, spreads, spreads2 = zip(*moments)
    sum_gain, sum_gain2, sum_spread, sum_spread2 = map(math.fsum, (gains, gains2, spreads, spreads2))
    n_exec = sum(n_execs)

    # the variances are taken at the moments' scale; each result is divided by its count, then by the scale
    mean_gain = sum_gain / n / scale
    mean_utility = mean_gain - params.alpha * cfg.bid
    se_utility = math.sqrt(_sample_var(sum_gain, sum_gain2, n) / n) / scale

    exec_rate = n_exec / n
    var_exec = n * exec_rate * (1.0 - exec_rate) / (n - 1) if n > 1 else 0.0
    se_exec = math.sqrt(var_exec / n)

    # revenue per trial is alpha*bid + executed*(1-alpha)*bid, an affine map
    # of the execution indicator, so its moments follow from the exec ones
    mean_revenue = cfg.bid * (params.alpha + (1.0 - params.alpha) * exec_rate)
    se_revenue = abs((1.0 - params.alpha) * cfg.bid) * se_exec

    if n_exec > 0:
        mean_spread = sum_spread / n_exec / scale
        se_spread = math.sqrt(_sample_var(sum_spread, sum_spread2, n_exec) / n_exec) / scale
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


def _executable(x: np.ndarray, forced: np.ndarray, voluntary: np.ndarray):
    """The ``x`` of the trials that execute at some bid >= 0: the forced ones,
    and the voluntary ones with ``x > 0``."""
    return x[forced], x[voluntary & (x > 0.0)]


def _zero_profit_bid(params: AuctionParams, n: int, x_forced: np.ndarray, xv: np.ndarray) -> float:
    """The bid at which the mean utility of ``n`` trials crosses zero, or 0 when it is not positive at bid 0.

    ``x_forced`` and ``xv`` are the trials' :func:`_executable` parts; ``xv``
    is sorted in place.  At bid ``b`` a trial that executes gains ``x - c``
    with ``c = (1-alpha)*b``: a forced trial always, a voluntary one iff
    ``x > c``, which at ``c >= 0`` only a trial with ``x > 0`` can meet.
    With ``xv`` sorted, the mean utility is continuous, nonincreasing and
    linear between the breakpoints ``c = xv[j]``; while the trials ``xv[j:]`` execute it is
    ``(sum(x_forced) + sum(xv[j:]) - (n_forced + k)*c)/n - alpha*b`` with
    ``k = len(xv) - j``.  A binary search over ``j`` finds the first
    breakpoint where it is nonpositive, and the root on the segment below it
    is that line's zero.  At ``alpha = 1``, ``c`` is 0 at every bid and the
    utility is one line.  Ties ``x == c`` do not execute, as in
    :func:`_moments`.  Raises :class:`ConvergenceError` when a sum of gains
    overflows.
    """
    with np.errstate(over="ignore"):  # an overflowing sum is refused below
        sum_forced = float(x_forced.sum())
    n_forced = x_forced.size
    xv.sort()
    m, alpha, contingent = len(xv), params.alpha, 1.0 - params.alpha

    def gains(j: int) -> float:
        """The executed trials' ``x`` summed, when the trials ``xv[j:]`` execute."""
        with np.errstate(over="ignore"):
            total = sum_forced + float(xv[j:].sum())
        if not math.isfinite(total):
            raise ConvergenceError(f"the trial gains sum to {total}, beyond the float range")
        return total

    def crossed(j: int) -> bool:
        """Whether the utility is nonpositive at the bid whose contingent part is ``xv[j]``."""
        c = float(xv[j])
        return (gains(j) - (n_forced + m - j) * c) / n - alpha * (c / contingent) <= 0.0

    if gains(0) / n <= 0.0:
        return 0.0
    if contingent == 0.0:  # at alpha = 1 every trial with x > 0 executes at every bid
        return gains(0) / n
    j = bisect.bisect_left(range(m), True, key=crossed)
    bid = gains(j) / ((n_forced + m - j) * contingent + n * alpha)
    # rounding must not carry the root past the breakpoint where the utility is already nonpositive
    return min(bid, float(xv[j]) / contingent) if j < m else bid


def calibrate_zero_profit_bid(
    d: Distribution,
    params: AuctionParams,
    n_per_eval: int,
    seed: int,
) -> float:
    """Locate the zero-profit bid empirically.

    One batch of ``n_per_eval`` seeded trials (branch uniforms and price
    draws) is generated and reused for every bid, which makes the empirical
    expected utility a deterministic, nonincreasing, piecewise linear
    function of the bid.  Its zero crossing is found exactly, from the
    forced trials' gain sum and count and the sorted gains of the voluntary
    trials that execute at some bid >= 0 (see :func:`_zero_profit_bid`); it
    is 0 when the utility at b = 0 is already nonpositive.  The batch is the
    :func:`_chunks` of ``seed``, so :func:`simulate_auction` at the same
    seed and ``n_per_eval`` trials plays the same trials.  Of each chunk only
    the trials that can execute are kept, in one buffer, so a run holds 8
    bytes per trial with ``x > 0`` or a forced execution, and the prices and
    branch masks of at most two chunks.  Requires
    ``alpha > 0`` or ``p > 0`` so that the crossing is strict.  Raises
    :class:`ConvergenceError` when the upper bid bracket (see
    :func:`upper_bid_bracket`) or a sum of trial gains overflows.
    """
    if params.alpha == 0.0 and params.p == 0.0:
        raise InvalidParamsError(
            "calibration needs alpha > 0 or p > 0; with both zero the empirical "
            "utility never crosses below zero"
        )
    _check_count_and_seed(n_per_eval, seed, "n_per_eval", 2)
    check_execution_right(d, params)
    upper_bid_bracket(d, params)  # no float bid reaching the support top: refused as the solver refuses it
    # A trial is kept at most once, so one buffer of n_per_eval floats takes them
    # all: the forced trials' x from the front, in chunk order, and the voluntary
    # ones' from the back.  It is an anonymous mapping, not a malloc'd array, so
    # its pages are backed only once a kept trial is written to them, and all
    # go back to the system with it.
    buf = np.frombuffer(mmap.mmap(-1, 8 * n_per_eval), np.float64)
    n_forced, top = 0, n_per_eval
    for forced, voluntary in _chunks(d, params, seed, n_per_eval, _executable):
        buf[n_forced:n_forced + forced.size] = forced
        buf[top - voluntary.size:top] = voluntary
        n_forced, top = n_forced + forced.size, top - voluntary.size
        # let go of the pieces now, not while the helper draws on: a piece it
        # made goes back to its malloc arena while the helper is idle
        del forced, voluntary
    return _zero_profit_bid(params, n_per_eval, buf[:n_forced], buf[top:])
