import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconv.closedforms import (Branch, ConvPoint, branch_curves, classify,
                                   exp_weighted_conv, mixed_sup_breakpoint,
                                   mu_cone_conv, mu_cone_conv_grid,
                                   mu_cone_conv_sup, mu_self_conv,
                                   mu_self_conv_casewise, mu_self_conv_grid,
                                   mu_self_conv_masked, mu_self_conv_sup,
                                   mu_self_conv_sup_exact, self_conv_row_mass,
                                   support_predicate)
from hyperconv.quadrature import QuadratureSpec, integrate_pieces

TWO_PI = 2.0 * np.pi


def window_measure_self(s, rho, tau, n=400_001):
    """Independent oracle: slice-time window length for the self convolution."""
    t = np.linspace(0.0, tau, n)
    r1 = np.sqrt(t * t + s * s)
    r2 = np.sqrt((tau - t) ** 2 + s * s)
    ok = (np.abs(r1 - r2) <= rho) & (rho <= r1 + r2)
    return TWO_PI / rho * ok.mean() * tau


def window_measure_mixed(s, rho, tau, n=400_001):
    """Independent oracle for the mixed (mass-s with cone) convolution."""
    t = np.linspace(0.0, tau, n)
    sig = np.sqrt((tau - t) ** 2 + s * s)
    ok = (np.abs(t - sig) <= rho) & (rho <= t + sig)
    return TWO_PI / rho * ok.mean() * tau


def test_axis_value_paper_point():
    # value on the rho = 0 axis at s = 1, tau = 2 is 2*pi*sqrt(2)
    np.testing.assert_allclose(mu_self_conv(ConvPoint(1.0, 0.0, 2.0)),
                               TWO_PI * np.sqrt(2.0), rtol=1e-14)


def test_outside_support_zero():
    assert mu_self_conv(ConvPoint(1.0, 5.0, 1.0)) == 0.0  # 5 > sqrt(2) + 1
    assert mu_self_conv(ConvPoint(1.0, 1.0, -0.5)) == 0.0
    assert mu_self_conv(ConvPoint(1.0, 0.0, 0.0)) == 0.0


def test_self_conv_vs_window_oracle():
    rng = np.random.default_rng(7)
    for _ in range(12):
        s = float(rng.choice([0.5, 1.0, 2.0]))
        tau = float(rng.uniform(0.2, 5.0))
        hi = np.sqrt(tau * tau + s * s) + s
        rho = float(rng.uniform(0.05, hi * 0.98))
        got = mu_self_conv(ConvPoint(s, rho, tau))
        want = window_measure_self(s, rho, tau)
        np.testing.assert_allclose(got, want, rtol=2e-4, atol=1e-4)


def test_casewise_differential():
    rng = np.random.default_rng(11)
    for _ in range(300):
        s = float(rng.choice([0.3, 1.0, 1.7]))
        tau = float(rng.uniform(0.01, 8.0))
        rho = float(rng.uniform(0.0, np.sqrt(tau * tau + s * s) + s + 0.5))
        a = mu_self_conv(ConvPoint(s, rho, tau))
        b = mu_self_conv_casewise(s, rho, tau)
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)



@settings(max_examples=50, deadline=None)
@given(s=st.one_of(st.just(0.0), st.floats(0.0, 10.0)), seed=st.integers(0, 2 ** 32 - 1))
def test_casewise_matches_grid_next_to_branch_curves(s, seed):
    # rho a relative 1e-12 .. 1e-6 off each branch curve, tau from 1e-6 to
    # 1e3: the inner curve sqrt(tau^2 + s^2) - s is far below s there, where
    # a difference of square roots loses every digit
    rng = np.random.default_rng(seed)
    tau = 10.0 ** rng.uniform(-6.0, 3.0, 60)
    off = rng.choice([-1.0, 1.0], 60) * 10.0 ** rng.uniform(-12.0, -6.0, 60)
    root = np.hypot(tau, s)
    for edge in (tau * tau / (root + s), np.sqrt(tau * tau + 4.0 * s * s), root + s):
        rho = edge * (1.0 + off)
        want = [mu_self_conv_casewise(s, r, t) for r, t in zip(rho, tau)]
        np.testing.assert_allclose(mu_self_conv_grid(s, rho, tau), want,
                                   rtol=1e-9, atol=1e-9)


def test_scaling_identity_exact():
    rng = np.random.default_rng(3)
    for _ in range(50):
        s = float(rng.uniform(0.2, 4.0))
        tau = float(rng.uniform(0.1, 6.0))
        rho = float(rng.uniform(0.0, np.sqrt(tau * tau + 1.0) + 1.0))
        a = mu_self_conv(ConvPoint(s, s * rho, s * tau))
        b = mu_self_conv(ConvPoint(1.0, rho, tau))
        np.testing.assert_allclose(a, b, rtol=5e-14, atol=1e-14)


def test_branch_continuity_on_boundary_curves():
    # inner|middle boundary: both branches smooth, direct one-sided samples.
    # middle|outer boundary: the outer branch approaches its limit like
    # sqrt(distance), so the one-sided limit is extrapolated with
    # 2 f(edge(1+eps/4)) - f(edge(1+eps)), which cancels the sqrt term.
    for s in [0.5, 1.0, 2.0]:
        for tau in np.linspace(0.3, 6.0, 12):
            lo, mid, hi = branch_curves(s, tau)
            eps = 1e-12
            left = mu_self_conv(ConvPoint(s, lo * (1 - eps), tau))
            right = mu_self_conv(ConvPoint(s, lo * (1 + eps), tau))
            assert abs(left - right) < 1e-9
            eps = 1e-10
            left = mu_self_conv(ConvPoint(s, mid * (1 - eps), tau))
            right = (2 * mu_self_conv(ConvPoint(s, mid * (1 + eps / 4), tau))
                     - mu_self_conv(ConvPoint(s, mid * (1 + eps), tau)))
            assert abs(left - right) < 1e-9
            # outer support edge: density vanishes in the limit
            assert mu_self_conv(ConvPoint(s, hi * (1 - 1e-9), tau)) < 1e-3


def test_sup_bracket_and_exact():
    for s in [0.5, 1.0, 2.0]:
        for tau in [0.5, 1.0, 2.0, 10.0, 1e6]:
            lower, upper = mu_self_conv_sup(s, tau)
            lo, mid, hi = branch_curves(s, tau)
            rho = np.sort(np.concatenate([np.linspace(0.0, hi, 40001), [lo, mid]]))
            scan = mu_self_conv_grid(s, rho, np.full_like(rho, tau)).max()
            assert lower - 1e-9 <= scan <= upper + 1e-9
            np.testing.assert_allclose(scan, mu_self_conv_sup_exact(s, tau),
                                       rtol=1e-12)
    lower, upper = mu_self_conv_sup(1.0, 1e6)
    assert abs(lower - TWO_PI) < 1e-5 * TWO_PI
    assert abs(upper - TWO_PI) < 1e-5 * TWO_PI
    with pytest.raises(ValueError):
        mu_self_conv_sup(1.0, 0.0)


def test_sup_scaling():
    for tau in [0.7, 2.3]:
        for s in [0.5, 2.0]:
            np.testing.assert_allclose(mu_self_conv_sup_exact(s, tau),
                                       mu_self_conv_sup_exact(1.0, tau / s),
                                       rtol=1e-13)


def test_masked_variant():
    s, tau = 1.0, 2.0
    lo, mid, hi = branch_curves(s, tau)
    inner_pt = 0.5 * lo
    outer_pt = 0.5 * (mid + hi)
    np.testing.assert_allclose(float(mu_self_conv_masked(s, inner_pt, tau)),
                               mu_self_conv(ConvPoint(s, inner_pt, tau)), rtol=1e-14)
    assert float(mu_self_conv_masked(s, outer_pt, tau)) == 0.0
    assert mu_self_conv(ConvPoint(s, outer_pt, tau)) > 0.0


def test_support_predicate_consistency_scan():
    rng = np.random.default_rng(23)
    pts = rng.uniform([-1.0, 0.0], [8.0, 8.0], size=(10_000, 2))
    for tau, rho in pts:
        p = ConvPoint(1.0, rho, tau)
        if not support_predicate(p, "self"):
            assert mu_self_conv(p) == 0.0
        if not support_predicate(p, "cone"):
            assert mu_cone_conv(p) == 0.0


def test_support_predicate_examples():
    assert support_predicate(ConvPoint(1.0, 2.0, np.sqrt(3.0)), "self")
    assert not support_predicate(ConvPoint(1.0, 0.5, -1e-9), "self")


def test_closed_forms_follow_the_support_at_rounded_branch_edges():
    # the edges are clamped to lo <= mid <= hi, as the windows' edges are
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert branch_curves(0.0, 0.0) == (0.0, 0.0, 0.0)
        # s = 0: tau^2 / tau rounds one ulp above tau, and rho = tau is middle
        tau = 1.5788163903634936e-12
        p = ConvPoint(0.0, tau, tau)
        assert mu_self_conv(p) == TWO_PI
        assert classify(p).branch is Branch.MIDDLE
        assert support_predicate(p)
        # the middle edge rounds one ulp beyond the support edge 1.625
        p = ConvPoint(0.8125, float(np.nextafter(1.625, 2.0)), 1.55e-8)
        assert mu_self_conv(p) == 0.0
        assert classify(p).branch is Branch.OUTSIDE
        assert not support_predicate(p)


def test_branch_tags():
    s, tau = 1.0, 2.0
    lo, mid, hi = branch_curves(s, tau)
    assert classify(ConvPoint(s, 0.5 * lo, tau)).branch == Branch.INNER
    assert classify(ConvPoint(s, 0.5 * (lo + mid), tau)).branch == Branch.MIDDLE
    assert classify(ConvPoint(s, 0.5 * (mid + hi), tau)).branch == Branch.OUTER
    assert classify(ConvPoint(s, hi + 0.1, tau)).branch == Branch.OUTSIDE
    assert classify(ConvPoint(s, 2.5, tau)).wide_regime


# ---- mixed convolution ----

def test_mixed_vs_window_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = float(rng.choice([0.5, 1.0, 2.0]))
        tau = float(rng.uniform(0.2, 4.0))
        rho = float(rng.uniform(0.05, (tau + s) * 0.98))
        got = mu_cone_conv(ConvPoint(s, rho, tau))
        want = window_measure_mixed(s, rho, tau)
        np.testing.assert_allclose(got, want, rtol=2e-4, atol=1e-4)


def test_mixed_support_and_examples():
    assert mu_cone_conv(ConvPoint(1.0, 0.5, -1.0)) == 0.0
    np.testing.assert_allclose(mu_cone_conv_sup(1.0, 3.0), TWO_PI * (1 + 1 / 5),
                               rtol=1e-14)
    np.testing.assert_allclose(mu_cone_conv_sup(1.0, 1.0), 4 * np.pi, rtol=1e-14)


def test_mixed_global_sup_is_4pi():
    # global sup attained in the limit tau -> s+, rho -> 0+
    s = 1.0
    taus = np.linspace(1e-3, 4.0, 1200)
    taus = np.concatenate([taus, s + np.logspace(-7, -2, 40)])
    best = 0.0
    for tau in taus:
        rho = np.linspace(1e-6, tau + s, 3000)
        best = max(best, mu_cone_conv_grid(s, rho, np.full_like(rho, tau)).max())
    assert best <= 4 * np.pi + 1e-9
    assert best > 4 * np.pi * (1 - 1e-4)


def test_mixed_sup_matches_scan():
    # scan at representative tau in each regime (tau = s excluded: the sup
    # function takes its upper limit there; see module docstring)
    s = 1.0
    for tau in [0.3, 0.7, 0.9, 0.99, 1.0001, 1.5, 3.0]:
        rho = np.linspace(1e-7, tau + s, 200_001)
        scan = mu_cone_conv_grid(s, rho, np.full_like(rho, tau)).max()
        np.testing.assert_allclose(scan, mu_cone_conv_sup(s, tau), rtol=1e-4)


def test_mixed_sup_continuity_at_breakpoint():
    for s in [0.5, 1.0, 2.0]:
        t = mixed_sup_breakpoint(s)
        a = mu_cone_conv_sup(s, t * (1 - 1e-9))
        b = mu_cone_conv_sup(s, t * (1 + 1e-9))
        np.testing.assert_allclose(a, b, rtol=1e-7)


def test_exp_weighted():
    p = ConvPoint(1.0, 1.3, 2.7)
    np.testing.assert_allclose(exp_weighted_conv(0.0, p), mu_self_conv(p), rtol=0)
    np.testing.assert_allclose(exp_weighted_conv(0.4, p),
                               np.exp(-0.2 * 2.7) * mu_self_conv(p), rtol=1e-15)
    # positive weight leaves the support unchanged
    q = ConvPoint(1.0, 5.0, 1.0)
    assert exp_weighted_conv(0.4, q) == 0.0
    with pytest.raises(ValueError):
        exp_weighted_conv(-0.1, p)


# ---- the closed-form row mass ----

def quadrature_row_mass(s, tau, scale):
    """(inner + middle, outer) rho integrals of mu_self_conv_grid^2 rho^2 by Gauss-Kronrod.

    The outer integrand cancels as tau/s -> 0, so each piece is converged to
    an absolute tolerance set by the scale of the whole row mass.
    """
    lo, mid, hi = (float(e) for e in branch_curves(s, tau))
    f = lambda rho: mu_self_conv_grid(s, rho, tau) ** 2 * rho * rho
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15 * scale, max_depth=24)
    return (integrate_pieces(f, [0.0, lo, mid], spec).value,
            integrate_pieces(f, [mid, hi], spec).value)


# tau/s = 2 sqrt(2) is where the inner edge crosses the wide-regime radius 2 s
ROW_MASS_TAU_OVER_S = [1e-3, 0.03, 0.1, 1.0, 2.0 * np.sqrt(2.0) * (1.0 - 1e-9),
                       2.0 * np.sqrt(2.0), 2.0 * np.sqrt(2.0) * (1.0 + 1e-9), 10.0, 1000.0]


@pytest.mark.parametrize("s", [0.3, 1.0, 2.0])
def test_row_mass_matches_the_rho_quadrature_of_the_density(s):
    tau = s * np.array(ROW_MASS_TAU_OVER_S)
    masked, outer = self_conv_row_mass(s, tau)
    for t, m, o in zip(tau, masked, outer):
        want_masked, want_outer = quadrature_row_mass(s, t, m + o)
        want = want_masked + want_outer
        # 1e-12 is well above the form's own error, which stays near 5e-16
        assert abs(m + o - want) <= 1e-12 * want, (t, m + o, want)
        assert abs(m - want_masked) <= 1e-12 * want_masked, (t, m, want_masked)


def test_row_mass_of_the_cone_and_at_the_tip():
    tau = np.array([0.0, 0.5, 1.0, 7.0])
    masked, outer = self_conv_row_mass(0.0, tau)
    np.testing.assert_array_equal(masked, 4.0 * np.pi ** 2 * tau ** 3 / 3.0)
    np.testing.assert_array_equal(outer, 0.0)
    for s in (0.3, 1.0):
        np.testing.assert_array_equal(self_conv_row_mass(s, 0.0), (0.0, 0.0))
    with pytest.raises(ValueError, match="mass parameter s"):
        self_conv_row_mass(-1.0, tau)


@pytest.mark.parametrize("s, tau", [(1e-300, 1e10), (1e-200, 1e-100), (1e-162, 1e-300)])
def test_row_mass_where_the_mass_squared_underflows_is_the_cone(s, tau):
    # 4 s^2 (or s^2) rounds to 0 while s > 0; the closed form returned nan
    # here (0 * inf at tau/s > 1e308, 0 / 0 when tau^2 also underflows)
    masked, outer = self_conv_row_mass(s, tau)
    want = 4.0 * np.pi ** 2 * tau ** 3 / 3.0
    assert np.isfinite(masked) and np.isfinite(outer)
    assert abs(masked + outer - want) <= 1e-15 * want


@settings(max_examples=60, deadline=None)
@given(st.floats(0.01, 10.0), st.floats(1e-3, 1e3))
def test_row_mass_is_finite_and_its_parts_positive(s, tau_over_s):
    # the outer part is a difference of terms that cancel as tau/s -> 0;
    # it must stay a small positive number, never the rounding noise
    masked, outer = self_conv_row_mass(s, s * tau_over_s)
    assert np.isfinite(masked) and np.isfinite(outer)
    assert masked > 0.0 and 0.0 < outer < masked
