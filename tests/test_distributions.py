import math
from fractions import Fraction
import sys
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import special

from flowauction import (
    AuctionParams,
    Beta,
    ConvergenceError,
    DistributionSpec,
    InvalidParamsError,
    QuadratureDistribution,
    SupportInterval,
    Uniform,
    regularized_incomplete_beta,
    solve_equilibrium,
)

# I_{0.25}(2, 5) by direct binomial enumeration (integer shapes):
# I_x(a,b) = sum_{j=a}^{a+b-1} C(a+b-1, j) x^j (1-x)^(a+b-1-j)
I_025_2_5 = sum(math.comb(6, j) * 0.25**j * 0.75 ** (6 - j) for j in range(2, 7))


def rng_from(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def gauss_legendre(f, a, b, panels=4):
    """``∫_a^b f`` by a fixed composite 20-point Gauss–Legendre rule.

    The reference the closed forms are checked against: exact up to rounding
    for polynomials of degree below 40, and independent of the adaptive panels
    of :class:`QuadratureDistribution`.
    """
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = edges[:-1, None] + half * (1.0 + GL_NODES)
    return float(np.sum(half * GL_WEIGHTS * np.vectorize(f)(nodes)))


# ---------------------------------------------------------------------------
# regularized incomplete beta
# ---------------------------------------------------------------------------

class TestRegularizedIncompleteBeta:
    def test_boundaries(self):
        assert regularized_incomplete_beta(2.0, 5.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 5.0, 1.0) == 1.0

    def test_symmetric_half(self):
        assert regularized_incomplete_beta(2.0, 2.0, 0.5) == pytest.approx(0.5, abs=1e-14)

    def test_binomial_enumeration_value(self):
        assert regularized_incomplete_beta(2.0, 5.0, 0.25) == pytest.approx(I_025_2_5, abs=1e-12)

    def test_against_quadrature(self):
        # quadrature of the density is the independent route
        ln_b = math.lgamma(2) + math.lgamma(5) - math.lgamma(7)
        pdf = lambda t: 0.0 if t <= 0.0 else math.exp(math.log(t) + 4.0 * math.log1p(-t) - ln_b)
        quad = gauss_legendre(pdf, 0.0, 0.25)
        assert regularized_incomplete_beta(2.0, 5.0, 0.25) == pytest.approx(quad, abs=1e-10)

    def test_against_scipy(self):
        rng = rng_from(11)
        for _ in range(300):
            a = rng.uniform(0.5, 10.0)
            b = rng.uniform(0.5, 10.0)
            x = rng.random()
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                special.betainc(a, b, x), abs=1e-12
            )

    @pytest.mark.parametrize("a,b,x", [(-1.0, 2.0, 0.5), (2.0, 0.0, 0.5), (2.0, 2.0, 1.5), (2.0, 2.0, -0.1)])
    def test_domain_errors(self, a, b, x):
        with pytest.raises(InvalidParamsError):
            regularized_incomplete_beta(a, b, x)


# ---------------------------------------------------------------------------
# support / closed-form laws
# ---------------------------------------------------------------------------

def test_support_interval_validation():
    with pytest.raises(InvalidParamsError):
        SupportInterval(1.0, 1.0)
    with pytest.raises(InvalidParamsError):
        SupportInterval(0.0, math.inf)
    with pytest.raises(InvalidParamsError, match="width must be finite"):
        SupportInterval(-1e308, 1e308)  # hi - lo overflows


@pytest.mark.parametrize("law", [Uniform(-1.0, 2.0), Beta(2.0, 5.0),
                                 QuadratureDistribution(lambda x: 1.0, SupportInterval(3.0, 4.0))])
def test_support_is_the_interval_the_law_was_built_on_and_read_only(law):
    want = {Uniform: (-1.0, 2.0), Beta: (0.0, 1.0), QuadratureDistribution: (3.0, 4.0)}[type(law)]
    assert isinstance(law.support, SupportInterval) and (law.support.lo, law.support.hi) == want
    with pytest.raises(AttributeError):
        law.support = SupportInterval(0.0, 9.0)
    assert (law.support.lo, law.support.hi) == want


def test_a_stacked_beta_lives_on_the_unit_interval():
    stacked = Beta._stacked(np.array([2.0, 0.5]), np.array([5.0, 0.5]))
    assert stacked.support == Beta(2.0, 5.0).support == SupportInterval(0.0, 1.0)


class TestUniform:
    def test_cdf_linear(self):
        d = Uniform(0.0, 1.0)
        assert d.cdf(0.75) == 0.75
        assert d.cdf(-1.0) == 0.0
        assert d.cdf(2.0) == 1.0

    def test_partial_expectation_values(self):
        d = Uniform(0.0, 1.0)
        assert d.partial_expectation(0.0) == d.mean() == 0.5
        assert d.partial_expectation(0.5) == 0.375  # ∫_{0.5}^{1} x dx
        assert d.partial_expectation(1.0) == 0.0
        assert d.partial_expectation(-3.0) == 0.5
        assert d.partial_expectation(7.0) == 0.0

    @pytest.mark.parametrize("lo, hi", [(0.0, 1e160), (0.0, 1e308), (1e9, 1e9 + 1e-3), (-5.0, -4.0)])
    def test_partial_expectation_is_exact_on_huge_and_far_supports(self, lo, hi):
        # hi * hi overflowed past 1.3e154, and hi**2 - t**2 cancelled far from zero
        d = Uniform(lo, hi)
        for u in [0.0, 0.25, 0.5, 0.9]:
            t = lo + u * (hi - lo)
            exact = (Fraction(hi) ** 2 - Fraction(t) ** 2) / (2 * (Fraction(hi) - Fraction(lo)))
            assert d.partial_expectation(t) == pytest.approx(float(exact), rel=1e-15)

    def test_partial_expectation_matches_quadrature(self):
        d = Uniform(-1.0, 3.0)
        for t in [-1.0, -0.25, 0.8, 2.9]:
            quad = gauss_legendre(lambda x: x * d.pdf(x), t, 3.0)
            assert d.partial_expectation(t) == pytest.approx(quad, abs=1e-11)


class TestBeta:
    def test_cdf_boundaries(self):
        d = Beta(2.0, 5.0)
        assert d.cdf(0.0) == 0.0
        assert d.cdf(1.0) == 1.0

    def test_symmetry(self):
        assert Beta(2.0, 2.0).cdf(0.5) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("x", [0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1 - 1e-12, 1 - 2**-53])
    def test_arcsine_cdf_closed_form(self, x):
        # Beta(1/2, 1/2) is the arcsine law: I_x = (2/pi) asin(sqrt(x)) = acos(1 - 2x) / pi,
        # the acos form because its argument stays exact near x = 1
        exact = math.acos(1 - 2 * x) / math.pi
        assert Beta(0.5, 0.5).cdf(x) == pytest.approx(exact, abs=1e-15)
        assert regularized_incomplete_beta(0.5, 0.5, x) == pytest.approx(exact, abs=1e-15)

    def test_extreme_shape_normalizer(self):
        # the density at 1 of Beta(a, 1) is 1/B(a, 1) = a; lgamma(1e308) overflowed
        assert Beta(1e308, 1.0).pdf(1.0) == pytest.approx(1e308)

    def test_huge_shapes_cdf(self):
        # the median of a symmetric law, however concentrated it is
        assert Beta(1e6, 1e6).cdf(0.5) == pytest.approx(0.5, abs=1e-14)

    def test_mean(self):
        assert Beta(2.0, 5.0).mean() == pytest.approx(2 / 7, abs=1e-15)

    def test_partial_expectation_limits(self):
        d = Beta(2.0, 5.0)
        assert d.partial_expectation(1.0) == 0.0
        assert d.partial_expectation(0.0) == d.mean()

    def test_partial_expectation_matches_quadrature(self):
        d = Beta(2.0, 5.0)
        for t in [0.1, 0.3, 0.5, 0.9]:
            quad = gauss_legendre(lambda x: x * d.pdf(x), t, 1.0)
            assert d.partial_expectation(t) == pytest.approx(quad, abs=1e-11)

    def test_pdf_edges(self):
        assert Beta(2.0, 5.0).pdf(0.0) == 0.0
        assert Beta(1.0, 3.0).pdf(0.0) == pytest.approx(3.0, abs=1e-14)
        assert math.isinf(Beta(0.5, 0.5).pdf(0.0))
        assert math.isinf(Beta(2.0, 0.5).pdf(1.0))
        assert Beta(2.0, 5.0).pdf(-0.2) == 0.0

    def test_pdf_above_the_float_range_next_to_an_end_is_inf(self):
        # exp of the log-density overflowed and raised OverflowError
        assert Beta(0.01, 1.0).pdf(5e-324) == math.inf
        assert Beta(0.001, 7.0).pdf(5e-324) == math.inf
        assert Beta(0.05, 3.0).pdf(5e-324) == pytest.approx(7.4e305, rel=1e-2)

    def test_invalid_shapes(self):
        with pytest.raises(InvalidParamsError):
            Beta(0.0, 1.0)
        with pytest.raises(InvalidParamsError):
            Beta(2.0, -3.0)
        with pytest.raises(InvalidParamsError):
            Beta(1e308, 1e308)  # a + b overflows, so the mean would be 0
        # a * b underflows, and betainc drops the smaller shape's mass
        for a, b in [(5e-324, 5e-324), (1e-160, 1e-160), (1e-200, 1e-150), (5e-324, 2.0)]:
            with pytest.raises(InvalidParamsError, match="product of at least"):
                Beta(a, b)

    def test_tiny_shapes_whose_product_is_normal_keep_both_masses(self):
        # the law is all but b/(a+b) δ0 + a/(a+b) δ1
        for a, b in [(1.5e-154, 1.5e-154), (1e-150, 1e-150), (1e-200, 1e-100), (1e-100, 1e-200)]:
            d = Beta(a, b)
            assert d.cdf(0.25) == pytest.approx(b / (a + b), rel=1e-12)
            assert d.cdf(0.75) == pytest.approx(b / (a + b), rel=1e-12)
            assert d.partial_expectation(0.5) == pytest.approx(a / (a + b), rel=1e-12)


@pytest.mark.parametrize("law", [Uniform(-1.0, 3.0), Beta(2.0, 5.0),
                                 QuadratureDistribution(Beta(2.0, 5.0).pdf, SupportInterval(0.0, 1.0))])
def test_nan_gives_nan(law):
    # bisect_right placed NaN past the last panel edge, so a quadrature law's cdf
    # was 1.0 there and its partial expectation raised IndexError
    for method in (law.cdf, law.partial_expectation):
        assert math.isnan(method(math.nan))
        values = method(np.array([0.25, math.nan, 0.75]))
        assert np.isnan(values[1]) and values[[0, 2]].tolist() == [method(0.25), method(0.75)]


@pytest.mark.parametrize("law", [Uniform(-1.0, 3.0), Beta(2.0, 5.0), Beta(0.5, 0.5),
                                 QuadratureDistribution(Beta(2.0, 5.0).pdf, SupportInterval(0.0, 1.0))])
def test_a_float_gives_a_float_and_an_array_an_array_of_its_shape(law):
    for method in (law.cdf, law.partial_expectation):
        for x in (0.25, np.float64(0.25), np.array(0.25)):
            assert type(method(x)) is float and method(x) == method(0.25)
        assert math.isnan(method(np.array(math.nan)))
        for x in ([0.1, 0.6], np.empty(0), np.array([-2.0, 0.3, math.nan]), np.array([[0.0, 0.5], [1.0, 4.0]])):
            flat = np.asarray(x, dtype=float).reshape(-1)
            values = method(x)
            assert type(values) is np.ndarray and values.dtype == np.float64 and values.shape == np.shape(x)
            assert values.reshape(-1).tobytes() == method(flat).tobytes()
            for u, v in zip(flat.tolist(), values.reshape(-1).tolist()):
                assert math.isnan(v) if math.isnan(u) else v == method(u)


# ---------------------------------------------------------------------------
# distribution invariants (property-based)
# ---------------------------------------------------------------------------

LAWS = [Uniform(0.0, 1.0), Uniform(-2.0, 5.0), Beta(2.0, 5.0), Beta(0.5, 0.5), Beta(5.0, 2.0)]

# the upper partial expectation decreases in the threshold only when the
# support is nonnegative (removing mass below 0 raises the integral)
PRICE_LAWS = [Uniform(0.0, 1.0), Uniform(0.5, 4.0), Beta(2.0, 5.0), Beta(0.5, 0.5), Beta(5.0, 2.0)]


@settings(max_examples=200, deadline=None)
@given(
    law_idx=st.integers(min_value=0, max_value=len(PRICE_LAWS) - 1),
    u1=st.floats(min_value=0.0, max_value=1.0),
    u2=st.floats(min_value=0.0, max_value=1.0),
)
def test_partial_expectation_nonincreasing(law_idx, u1, u2):
    d = PRICE_LAWS[law_idx]
    lo, hi = d.support.lo, d.support.hi
    t1, t2 = sorted((lo + u1 * (hi - lo), lo + u2 * (hi - lo)))
    assert d.partial_expectation(t1) >= d.partial_expectation(t2) - 1e-12


@settings(max_examples=200, deadline=None)
@given(
    law_idx=st.integers(min_value=0, max_value=len(LAWS) - 1),
    u=st.floats(min_value=0.0, max_value=1.0),
)
@example(law_idx=3, u=0.9999999999999999)  # Beta(0.5, 0.5) one ulp below 1
def test_partial_expectation_dominates_threshold_mass(law_idx, u):
    d = LAWS[law_idx]
    lo, hi = d.support.lo, d.support.hi
    t = lo + u * (hi - lo)
    assert d.partial_expectation(t) - t * (1.0 - d.cdf(t)) >= -1e-12


@settings(max_examples=200, deadline=None)
@given(
    law_idx=st.integers(min_value=0, max_value=len(LAWS) - 1),
    u1=st.floats(min_value=-0.5, max_value=1.5),
    u2=st.floats(min_value=-0.5, max_value=1.5),
)
def test_cdf_monotone_and_bounded(law_idx, u1, u2):
    d = LAWS[law_idx]
    lo, hi = d.support.lo, d.support.hi
    x1, x2 = sorted((lo + u1 * (hi - lo), lo + u2 * (hi - lo)))
    c1, c2 = d.cdf(x1), d.cdf(x2)
    assert 0.0 <= c1 <= c2 <= 1.0


# ---------------------------------------------------------------------------
# quadrature-backed law agrees with the closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("closed", [Uniform(0.0, 1.0), Beta(2.0, 5.0), Beta(2.0, 2.0)])
def test_quadrature_fallback_matches_closed_forms(closed):
    lo, hi = closed.support.lo, closed.support.hi
    wrapped = QuadratureDistribution(closed.pdf, closed.support)
    for t in np.linspace(lo, hi, 101):
        assert wrapped.cdf(t) == pytest.approx(closed.cdf(t), abs=1e-8)
        assert wrapped.partial_expectation(t) == pytest.approx(
            closed.partial_expectation(t), abs=1e-8
        )
    assert wrapped.mean() == pytest.approx(closed.mean(), abs=1e-10)
    for t in (lo - 0.5, hi + 0.5):  # outside the support
        assert closed.pdf(t) == wrapped.pdf(t) == 0.0


def test_quadrature_law_accepts_unnormalized_density():
    d = QuadratureDistribution(lambda x: 3.0, SupportInterval(0.0, 2.0))
    assert d.cdf(1.0) == pytest.approx(0.5, abs=1e-12)
    assert d.mean() == pytest.approx(1.0, abs=1e-10)


def test_quadrature_law_density_is_the_normalized_raw_density():
    def raw(x):
        return 3.0 * x * (2.0 - x)  # mass 4 on [0, 2]

    d = QuadratureDistribution(raw, SupportInterval(0.0, 2.0))
    h = 1e-5
    for x in (0.0, 0.3, 1.0, 1.7, 2.0):
        assert d.pdf(x) == pytest.approx(raw(x) / 4.0, rel=1e-12)
        if 0.0 < x < 2.0:
            assert d.pdf(x) == pytest.approx((d.cdf(x + h) - d.cdf(x - h)) / (2.0 * h), abs=1e-8)
    assert d.pdf(-0.1) == d.pdf(2.1) == d.pdf(-math.inf) == 0.0


def test_quadrature_law_repr_names_its_arguments():
    d = QuadratureDistribution(Beta(2.0, 5.0).pdf, SupportInterval(0.0, 1.0))
    assert repr(d) == ("QuadratureDistribution(<bound method Beta.pdf of Beta(2.0, 5.0)>, "
                       "SupportInterval(lo=0.0, hi=1.0), tol=1e-12)")


def test_quadrature_law_rejects_zero_mass():
    with pytest.raises(InvalidParamsError):
        QuadratureDistribution(lambda x: 0.0, SupportInterval(0.0, 1.0))


@pytest.mark.parametrize(
    "tol, error",
    [(math.nan, InvalidParamsError), (0.0, InvalidParamsError), (-1.0, InvalidParamsError),
     (1e-20, ConvergenceError)],
)
def test_quadrature_law_rejects_unreachable_tol(tol, error):
    # a polynomial's gaps are rounding noise, which the estimate's floor keeps above 1e-20
    start = time.perf_counter()
    with pytest.raises(error):
        QuadratureDistribution(Beta(2.0, 5.0).pdf, SupportInterval(0.0, 1.0), tol=tol)
    assert time.perf_counter() - start < 0.5


def test_quadrature_law_reports_its_panels():
    # a degree-5 polynomial: one split, and an estimate at the rounding floor
    d = QuadratureDistribution(Beta(2.0, 5.0).pdf, SupportInterval(0.0, 1.0))
    assert d.panels == 2
    assert 0.0 < d.error_estimate <= 1e-12


def test_quadrature_law_on_a_wide_support():
    # the tolerance is relative to the mass and the price scale, not absolute
    width = 1e6
    base = Beta(2.0, 5.0)
    d = QuadratureDistribution(lambda x: base.pdf(x / width) / width, SupportInterval(0.0, width))
    for alpha in (0.25, 0.75):
        got = solve_equilibrium(d, AuctionParams(0.5 * width, alpha)).b_star
        want = solve_equilibrium(base, AuctionParams(0.5, alpha)).b_star
        assert got / width == pytest.approx(want, rel=1e-12)


def test_quadrature_law_with_an_endpoint_singularity():
    # Beta(1/2, 1/2) is infinite at both ends; next to 1 the float spacing
    # limits any rule to about 1e-9, so the default tol is out of reach
    arcsine = Beta(0.5, 0.5)
    with pytest.raises(ConvergenceError, match=r"estimate \S+ exceeds tol 1e-12"):
        QuadratureDistribution(arcsine.pdf, arcsine.support)
    d = QuadratureDistribution(arcsine.pdf, arcsine.support, tol=1e-8)
    assert d.error_estimate <= 1e-8
    ends = np.geomspace(1e-16, 1e-2, 141)
    for x in np.concatenate([np.linspace(0.0, 1.0, 1001), ends, 1.0 - ends]):
        assert d.cdf(x) == pytest.approx(math.acos(1.0 - 2.0 * x) / math.pi, abs=1e-8)


EPS = sys.float_info.epsilon


@settings(max_examples=150, deadline=None)
@given(
    shapes=st.one_of(st.none(), st.tuples(st.floats(1.0, 20.0), st.floats(1.0, 20.0))),
    lo=st.floats(-1e6, 1e9),
    log_width=st.floats(-6.0, 6.0),
    u=st.floats(0.0, 0.99),
    alpha=st.floats(0.0, 1.0),
)
@example(shapes=(2.0, 5.0), lo=0.0, log_width=0.0, u=0.5, alpha=0.5)
@example(shapes=(20.0, 20.0), lo=-1e6, log_width=6.0, u=0.5, alpha=0.25)
@example(shapes=(2.0, 5.0), lo=1e9, log_width=-6.0, u=0.5, alpha=0.5)
@example(shapes=None, lo=1e9, log_width=-6.0, u=0.3, alpha=0.5)
# on the 84-ulp span [lo, lo + 0.05 w] the lowest node rounds onto lo, where the density is 0
@example(shapes=(1.0000000000000002, 1.0), lo=268435456.0, log_width=-4.0, u=0.0, alpha=0.0)
def test_quadrature_law_matches_closed_forms_on_any_support(shapes, lo, log_width, u, alpha):
    # a law on [0, 1] moved onto [lo, lo + w]: S = lo + w U
    tol = 1e-12
    base = Uniform(0.0, 1.0) if shapes is None else Beta(*shapes)
    hi = lo + 10.0**log_width
    w = hi - lo  # the width the rounded support really has
    scale = max(abs(lo), abs(hi))
    try:
        d = QuadratureDistribution(lambda x: base.pdf((x - lo) / w) / w, SupportInterval(lo, hi), tol)
    except ConvergenceError:
        # only where the float spacing at the support, eps |x|, is not small
        # against its width: the nodes themselves are rounded by that much
        assert EPS * scale / w > 1e-14
        return
    assert d.error_estimate <= tol
    for x in lo + w * np.linspace(0.0, 1.0, 21):
        v = (x - lo) / w
        F = base.cdf(v)
        assert abs(d.cdf(x) - F) <= 10 * tol
        P = lo * (1.0 - F) + w * base.partial_expectation(v)
        assert abs(d.partial_expectation(x) - P) <= 10 * tol * scale
    assert abs(d.mean() - (lo + w * base.mean())) <= 10 * tol * scale
    # zero profit scales with the law: b* = w b*(base, strike (K - lo) / w);
    # the error in b* is weighed by the utility's slope there, which vanishes
    # as alpha -> 0 and the threshold reaches the top of the support
    strike = lo + u * w
    assume(strike < hi)  # on a support a few floats wide, u < 1 can round to the top
    got = solve_equilibrium(d, AuctionParams(strike, alpha)).b_star
    want = w * solve_equilibrium(base, AuctionParams((strike - lo) / w, alpha)).b_star
    slope = alpha + (1.0 - alpha) * (1.0 - base.cdf((strike - lo) / w + (1.0 - alpha) * want / w))
    assert abs(got - want) * slope <= 1e-9 * scale


@pytest.mark.parametrize("k", [2, 4, 64])
def test_a_node_rounded_onto_an_infinite_end_moves_inside(k):
    # Beta(0.5, 1) on [1, 2]: the density is infinite at 1 and the cdf is
    # sqrt(x - 1); on a span of k floats above 1 the lowest nodes round onto 1
    law = Beta(0.5, 1.0)
    d = QuadratureDistribution(lambda x: law.pdf(x - 1.0), SupportInterval(1.0, 2.0), tol=1e-8)
    assert d.cdf(1.0 + k * 2.0**-52) == pytest.approx(math.sqrt(k * 2.0**-52), abs=1e-8)


@pytest.mark.parametrize("lo", [1.0, 0.0])
def test_a_span_with_no_float_inside_is_read_off_the_support_end(lo):
    # 1 / (2 sqrt(x - lo)) and 1 / (2 sqrt(hi - x)) on [lo, hi = lo + 1] are infinite
    # at one end, where x ** -0.5 raises ZeroDivisionError.  The span from that end
    # to the next float holds no float inside, so the rule reads the density at the
    # span's other end only: within the law's tolerance of the exact mass sqrt(ulp)
    # (1.5e-8 above 1), not inf, NaN or a raise
    hi, tol = lo + 1.0, 1e-8
    rising = QuadratureDistribution(lambda x: 0.5 * (x - lo) ** -0.5, SupportInterval(lo, hi), tol=tol)
    above = math.nextafter(lo, hi)
    assert abs(rising.cdf(above) - math.sqrt(above - lo)) <= tol
    assert 0.0 < rising.cdf(math.nextafter(above, hi)) < 1e-7
    falling = QuadratureDistribution(lambda x: 0.5 * (hi - x) ** -0.5, SupportInterval(lo, hi), tol=tol)
    below = math.nextafter(hi, lo)
    assert abs(falling.partial_expectation(below) - hi * math.sqrt(hi - below)) <= tol * hi


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

class TestSampling:
    def test_uniform_support_membership(self):
        d = Uniform(0.0, 1.0)
        x = d.sample(rng_from(0), size=1000)
        assert np.all((x >= 0.0) & (x < 1.0))
        assert isinstance(d.sample(rng_from(0)), float)

    def test_uniform_clt_bound(self):
        # sd of U[0,1] is 1/sqrt(12) ~ 0.2887
        x = Uniform(0.0, 1.0).sample(rng_from(123), size=10**6)
        assert abs(x.mean() - 0.5) <= 4 * 0.2887 / 1e3

    def test_beta_clt_bound(self):
        a, b = 2.0, 5.0
        sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
        x = Beta(a, b).sample(rng_from(123), size=10**6)
        assert abs(x.mean() - a / (a + b)) <= 4 * sd / 1e3

    def test_same_seed_same_draws(self):
        d = Beta(2.0, 5.0)
        x1 = d.sample(rng_from(99), size=100)
        x2 = d.sample(rng_from(99), size=100)
        assert np.array_equal(x1, x2)

    @pytest.mark.parametrize("d", [Uniform(0.0, 1.0), Beta(2.0, 5.0), Beta(0.5, 0.5)])
    def test_kolmogorov_smirnov(self, d):
        n = 10**5
        x = np.sort(d.sample(rng_from(7), size=n))
        cdf_vals = d.cdf(x)
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - cdf_vals), np.max(cdf_vals - (i - 1) / n))
        assert ks <= 0.01

    def test_quadrature_law_sampling(self):
        base = Beta(2.0, 2.0)
        wrapped = QuadratureDistribution(base.pdf, base.support, tol=1e-10)
        x = wrapped.sample(rng_from(5), size=40)
        assert np.all((x >= 0.0) & (x <= 1.0))
        # inverse-CDF draws match the closed-form law through the same uniforms
        u = rng_from(5).random(40)
        expected = special.betaincinv(2.0, 2.0, u)
        assert np.max(np.abs(x - expected)) <= 1e-9
        # one lockstep search inverts draws of any shape, each as it would alone
        assert np.array_equal(wrapped.sample(rng_from(5), size=(4, 10)), x.reshape(4, 10))
        assert wrapped.sample(rng_from(5)) == x[0]

    @pytest.mark.parametrize("d", [
        Uniform(-3.0, 5.0),
        Beta(0.5, 0.5),  # shapes below 1 and above 1 take different rejection samplers
        Beta(2.0, 5.0),
        QuadratureDistribution(Beta(2.0, 2.0).pdf, SupportInterval(0.0, 1.0)),
    ], ids=["uniform", "beta-0.5-0.5", "beta-2-5", "quadrature"])
    @pytest.mark.parametrize("k, m", [(None, 7), (1, 1), (3, 250), (100, 201)])
    def test_draws_split_anywhere_are_the_draws_of_one_batch(self, d, k, m):
        whole = d.sample(rng_from(11), size=(k or 1) + m)
        rng = rng_from(11)
        first = np.atleast_1d(d.sample(rng, size=k))
        assert np.array_equal(np.concatenate([first, d.sample(rng, size=m)]), whole)

    def test_uniform_draws_are_the_scaled_uniforms(self):
        # the in-place scaling gives the values of lo + (hi - lo) * u
        u = rng_from(4).random(1000)
        assert np.array_equal(Uniform(-3.0, 5.0).sample(rng_from(4), size=1000), -3.0 + 8.0 * u)
        assert Uniform(-3.0, 5.0).sample(rng_from(4)) == -3.0 + 8.0 * u[0]

    def test_quadrature_law_sampling_far_from_zero(self):
        # near 1e4 adjacent floats are ~1.8e-12 apart: bisection must stop on adjacency
        support = SupportInterval(1e4, 1e4 + 1.0)
        x = QuadratureDistribution(lambda _: 1.0, support).sample(rng_from(3), size=3)
        assert x.shape == (3,)
        assert np.all((x >= support.lo) & (x <= support.hi))


# ---------------------------------------------------------------------------
# spec strings
# ---------------------------------------------------------------------------

class TestDistributionSpec:
    def test_parse_uniform(self):
        spec = DistributionSpec.parse("uniform:0,1")
        assert spec.kind == "uniform" and spec.params == (0.0, 1.0)
        assert isinstance(spec.build(), Uniform)

    def test_parse_beta(self):
        spec = DistributionSpec.parse("beta:2,5")
        assert spec.kind == "beta" and spec.params == (2.0, 5.0)
        assert isinstance(spec.build(), Beta)

    def test_parse_builds_the_law_once(self):
        # parse validates by building; later builds share that law
        spec = DistributionSpec.parse("beta:2,5")
        assert spec.build() is spec.build()
        assert spec == DistributionSpec("beta", (2.0, 5.0))

    def test_round_trip_text(self):
        for text in ["uniform:0,1", "beta:2,5", "beta:0.5,0.5", "uniform:-1.5,2.25"]:
            assert str(DistributionSpec.parse(text)) == text

    @pytest.mark.parametrize(
        "bad",
        [
            "beta:2",
            "uniform:1,0",
            "beta:-1,2",
            "beta:0,2",
            "gauss:0,1",
            "uniform: 0,1",
            "uniform:0,1,2",
            "uniform:a,b",
            "uniform",
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(InvalidParamsError):
            DistributionSpec.parse(bad)

    def test_an_unknown_kind_is_refused_when_built(self):
        with pytest.raises(InvalidParamsError, match=r"^unknown distribution kind 'gamma'$"):
            DistributionSpec("gamma", (1.0, 2.0)).build()
