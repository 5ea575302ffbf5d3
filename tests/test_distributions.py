import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special

from flowauction import (
    Beta,
    ConvergenceError,
    DistributionSpec,
    InvalidParamsError,
    QuadratureDistribution,
    SupportInterval,
    Uniform,
    adaptive_simpson,
    regularized_incomplete_beta,
)

# I_{0.25}(2, 5) by direct binomial enumeration (integer shapes):
# I_x(a,b) = sum_{j=a}^{a+b-1} C(a+b-1, j) x^j (1-x)^(a+b-1-j)
I_025_2_5 = sum(math.comb(6, j) * 0.25**j * 0.75 ** (6 - j) for j in range(2, 7))


def rng_from(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

class TestAdaptiveSimpson:
    def test_polynomial(self):
        assert adaptive_simpson(lambda x: x * x, 0.0, 1.0) == pytest.approx(1 / 3, abs=1e-14)

    def test_sine(self):
        assert adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-12)

    def test_reversed_limits_negate(self):
        forward = adaptive_simpson(lambda x: x**3 + 1, 0.2, 1.7)
        assert adaptive_simpson(lambda x: x**3 + 1, 1.7, 0.2) == -forward

    def test_empty_interval(self):
        assert adaptive_simpson(math.exp, 0.4, 0.4) == 0.0


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
        quad = adaptive_simpson(pdf, 0.0, 0.25, 1e-13)
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

    def test_partial_expectation_matches_quadrature(self):
        d = Uniform(-1.0, 3.0)
        for t in [-1.0, -0.25, 0.8, 2.9]:
            quad = adaptive_simpson(lambda x: x * d.pdf(x), t, 3.0, 1e-13)
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
            quad = adaptive_simpson(lambda x: x * d.pdf(x), t, 1.0, 1e-13)
            assert d.partial_expectation(t) == pytest.approx(quad, abs=1e-11)

    def test_pdf_edges(self):
        assert Beta(2.0, 5.0).pdf(0.0) == 0.0
        assert Beta(1.0, 3.0).pdf(0.0) == pytest.approx(3.0, abs=1e-14)
        assert math.isinf(Beta(0.5, 0.5).pdf(0.0))
        assert Beta(2.0, 5.0).pdf(-0.2) == 0.0

    def test_invalid_shapes(self):
        with pytest.raises(InvalidParamsError):
            Beta(0.0, 1.0)
        with pytest.raises(InvalidParamsError):
            Beta(2.0, -3.0)


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


def test_quadrature_law_accepts_unnormalized_density():
    d = QuadratureDistribution(lambda x: 3.0, SupportInterval(0.0, 2.0))
    assert d.cdf(1.0) == pytest.approx(0.5, abs=1e-12)
    assert d.mean() == pytest.approx(1.0, abs=1e-10)


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
    # tol halves at every split, so an unreachable tol used to expand the whole binary tree
    with pytest.raises(error):
        QuadratureDistribution(Beta(2.0, 5.0).pdf, SupportInterval(0.0, 1.0), tol=tol)


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
        cdf_vals = np.fromiter((d.cdf(v) for v in x), dtype=float, count=n)
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
