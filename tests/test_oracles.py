import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate, stats
from test_hygiene import fresh_python

from degenbsde import (
    Example1Params,
    bachelier_digital,
    example1_sigma0,
    example1_u,
    example1_ux_at_zero,
)
from degenbsde.oracles import example1_z_exponent, gaussian_abs_moment


def test_gaussian_abs_moment_integer_cases():
    assert gaussian_abs_moment(0.0) == pytest.approx(1.0, rel=1e-14)
    assert gaussian_abs_moment(1.0) == pytest.approx(math.sqrt(2.0 / math.pi),
                                                     rel=1e-14)
    assert gaussian_abs_moment(2.0) == pytest.approx(1.0, rel=1e-14)
    assert gaussian_abs_moment(4.0) == pytest.approx(3.0, rel=1e-14)
    assert gaussian_abs_moment(6.0) == pytest.approx(15.0, rel=1e-13)


def test_gaussian_abs_moment_against_quadrature():
    # integrate on (0, 12] and double; keeps x = 0 out of reach for p < 0
    for p in (0.2, 1.2, 2.7, -0.5):
        val, _ = integrate.quad(
            lambda x: x ** p * math.exp(-0.5 * x * x)
            * math.sqrt(2.0 / math.pi), 0, 12, limit=200)
        assert gaussian_abs_moment(p) == pytest.approx(val, rel=1e-8)


def test_gaussian_abs_moment_domain():
    with pytest.raises(ValueError):
        gaussian_abs_moment(-1.0)


def test_example1_params_gate():
    Example1Params(alpha=0.8, beta=0.5)
    with pytest.raises(ValueError):
        Example1Params(alpha=0.8, beta=2.1)
    with pytest.raises(ValueError):
        Example1Params(alpha=0.0, beta=0.1)


def test_sigma0_shrinks_to_zero_at_onset():
    p = Example1Params(alpha=0.8, beta=0.5)
    assert example1_sigma0(0.0, p) == pytest.approx(1.0 / math.sqrt(2.0))
    assert example1_sigma0(0.5, p) == pytest.approx(0.5 / math.sqrt(2.0))
    assert example1_sigma0(1.0, p) == 0.0
    assert example1_sigma0(1.5, p) == 0.0


def test_example1_u_matches_adaptive_quadrature():
    # reference: E g(x + s0 N) integrated adaptively, split at the kink
    p = Example1Params(alpha=0.8, beta=0.5)
    s0 = example1_sigma0(0.4, p)

    def reference(x):
        def integrand(y):
            v = x + s0 * y
            return (math.copysign(abs(v) ** (1 - p.alpha), v)
                    * math.exp(-0.5 * y * y) / math.sqrt(2 * math.pi))

        cuts = sorted({-14.0, min(max(-x / s0, -14.0), 14.0), 14.0})
        return sum(integrate.quad(integrand, a, b, limit=400,
                                  epsabs=1e-13, epsrel=1e-13)[0]
                   for a, b in zip(cuts, cuts[1:]))

    for x in (-1.0, -0.1, 0.0, 0.3, 2.0):
        ref = reference(x)
        assert example1_u(0.4, x, p) == pytest.approx(ref, rel=1e-11,
                                                      abs=1e-12)


def test_example1_u_is_odd_and_monotone_in_x():
    p = Example1Params(alpha=0.8, beta=0.5)
    xs = np.array([0.1, 0.7, 1.9])
    left = example1_u(0.3, -xs, p)
    right = example1_u(0.3, xs, p)
    np.testing.assert_allclose(left, -right, rtol=1e-13)
    assert example1_u(0.3, 0.0, p) == pytest.approx(0.0, abs=1e-14)
    vals = example1_u(0.3, np.linspace(-2, 2, 21), p)
    assert np.all(np.diff(vals) > 0)


def test_example1_u_reduces_to_payoff_at_onset():
    p = Example1Params(alpha=0.8, beta=0.5)
    xs = np.array([-2.0, -0.5, 0.5, 2.0])
    expected = np.sign(xs) * np.abs(xs) ** (1 - p.alpha)
    np.testing.assert_allclose(example1_u(1.0, xs, p), expected, rtol=1e-14)
    np.testing.assert_allclose(example1_u(1.6, xs, p), expected, rtol=1e-14)


def test_ux_at_zero_frozen_value():
    # independent recomputation: sigma0(1/2)^(-4/5) * E|N|^(6/5)
    # = (2^(-3/2))^(-4/5) * 2^(3/5) Gamma(11/10) / sqrt(pi)
    p = Example1Params(alpha=0.8, beta=0.5)
    from scipy.special import gamma as gamma_fn
    expected = (2.0 ** 1.2) * (2.0 ** 0.6) * gamma_fn(1.1) / math.sqrt(math.pi)
    got = example1_ux_at_zero(0.5, p)
    assert got == pytest.approx(expected, rel=1e-13)
    assert got == pytest.approx(1.8690448796208596, rel=1e-12)


def test_ux_at_zero_matches_central_difference_of_u():
    p = Example1Params(alpha=0.8, beta=0.5)
    h = 1e-6
    for t in (0.2, 0.5, 0.9):
        fd = (example1_u(t, h, p) - example1_u(t, -h, p)) / (2 * h)
        assert example1_ux_at_zero(t, p) == pytest.approx(fd, rel=5e-4)


def test_ux_at_zero_rejects_dead_window():
    p = Example1Params(alpha=0.8, beta=0.5)
    with pytest.raises(ValueError):
        example1_ux_at_zero(1.0, p)


def test_z_exponent_value():
    p = Example1Params(alpha=0.8, beta=0.5)
    assert example1_z_exponent(p) == pytest.approx(-0.3, abs=1e-12)
    # beta (1 - alpha) - alpha / 2 for another admissible pair
    p2 = Example1Params(alpha=0.5, beta=0.4)
    assert example1_z_exponent(p2) == pytest.approx(0.4 * 0.5 - 0.25, abs=1e-12)


def test_blowup_product_is_flat_in_time():
    # ux * (1-t)^(alpha (1+2 beta)/2) must not depend on t
    p = Example1Params(alpha=0.8, beta=0.5)
    rate = p.alpha * (1 + 2 * p.beta) / 2.0
    vals = [example1_ux_at_zero(t, p) * (1 - t) ** rate
            for t in (0.1, 0.5, 0.9, 0.99)]
    np.testing.assert_allclose(vals, vals[0], rtol=1e-12)


def test_bachelier_digital_closed_form():
    u, ux = bachelier_digital(0.0, 0.0, 1.0, 0.0, 1.0)
    assert u == pytest.approx(0.5, rel=1e-14)
    assert ux == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-14)
    u2, ux2 = bachelier_digital(0.75, 0.3, 2.0, 0.1, 1.0)
    s = 2.0 * math.sqrt(0.25)
    assert u2 == pytest.approx(stats.norm.cdf(0.2 / s), rel=1e-13)
    assert ux2 == pytest.approx(stats.norm.pdf(0.2 / s) / s, rel=1e-13)


def test_bachelier_digital_validates_inputs():
    with pytest.raises(ValueError):
        bachelier_digital(1.0, 0.0, 1.0, 0.0, 1.0)  # t == T
    with pytest.raises(ValueError):
        bachelier_digital(0.0, 0.0, -1.0, 0.0, 1.0)


def test_bachelier_digital_vectorizes_in_x():
    xs = np.linspace(-2, 2, 9)
    u, ux = bachelier_digital(0.5, xs, 1.0, 0.0, 1.0)
    assert u.shape == xs.shape and ux.shape == xs.shape
    assert np.all(np.diff(u) > 0)
    np.testing.assert_allclose(u + u[::-1], np.ones_like(u), rtol=1e-13)


_EDGES = [math.inf, -math.inf, 0.0, -0.0, math.nan, 5e-324, -5e-324,
          1e308, -1e308]
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True,
                       allow_subnormal=True)
_DIGITAL_ARGS = dict(
    t=st.floats(-5.0, 0.99), sigma_bar=st.floats(1e-3, 1e3),
    strike=st.floats(-1e3, 1e3), T=st.just(1.0))


def _scipy_digital(t, x, sigma_bar, strike, T):
    s = sigma_bar * math.sqrt(T - float(t))
    z = (np.asarray(x, dtype=float) - strike) / s
    return stats.norm.cdf(z), stats.norm.pdf(z) / s


# huge x overflows z**2 to inf, in scipy.stats as here
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(x=hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=6),
                    elements=_ANY_FLOAT), **_DIGITAL_ARGS)
@example(x=np.array(_EDGES), t=0.0, sigma_bar=1.0, strike=0.0, T=1.0)
@example(x=np.array(_EDGES), t=0.75, sigma_bar=2.0, strike=0.1, T=1.0)
def test_bachelier_digital_equals_scipy_norm_on_arrays(x, t, sigma_bar,
                                                       strike, T):
    u, ux = bachelier_digital(t, x, sigma_bar, strike, T)
    ref_u, ref_ux = _scipy_digital(t, x, sigma_bar, strike, T)
    assert type(u) is np.ndarray and type(ux) is np.ndarray
    assert u.shape == ux.shape == x.shape
    np.testing.assert_array_equal(u, ref_u)
    np.testing.assert_array_equal(ux, ref_ux)


# huge x overflows z**2 to inf, in scipy.stats as here
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(x=st.one_of(_ANY_FLOAT, st.sampled_from(_EDGES)), **_DIGITAL_ARGS)
def test_bachelier_digital_equals_scipy_norm_on_scalars(x, t, sigma_bar,
                                                        strike, T):
    u, ux = bachelier_digital(t, x, sigma_bar, strike, T)
    ref_u, ref_ux = _scipy_digital(t, x, sigma_bar, strike, T)
    assert type(u) is float and type(ux) is float
    assert u == ref_u or (math.isnan(u) and np.isnan(ref_u))
    assert ux == ref_ux or (math.isnan(ux) and np.isnan(ref_ux))


def test_oracles_load_scipy_on_their_first_call():
    # a fresh interpreter, so nothing has imported SciPy before the calls
    out = fresh_python("""
        import sys
        from degenbsde import Example1Params, bachelier_digital, example1_u
        assert not any(m == "scipy" or m.startswith("scipy.")
                       for m in sys.modules)
        p = Example1Params(alpha=0.8, beta=0.5)
        print(repr(example1_u(0.4, 0.3, p)))
        print(repr(bachelier_digital(0.75, 0.3, 2.0, 0.1, 1.0)))
        """)
    p = Example1Params(alpha=0.8, beta=0.5)
    assert out.splitlines() == [
        repr(example1_u(0.4, 0.3, p)),
        repr(bachelier_digital(0.75, 0.3, 2.0, 0.1, 1.0))]


@settings(max_examples=40, deadline=None)
@given(p=st.floats(-0.9, 8.0))
def test_gaussian_abs_moment_log_convexity_neighbors(p):
    # Cauchy-Schwarz: m(p)^2 <= m(p - d) m(p + d)
    d = 0.1
    if p - d <= -1.0:
        return
    m0 = gaussian_abs_moment(p)
    lo = gaussian_abs_moment(p - d)
    hi = gaussian_abs_moment(p + d)
    assert m0 * m0 <= lo * hi * (1 + 1e-12)
