import logging
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperconv import convolution
from hyperconv.closedforms import ConvPoint, branch_curves, mu_self_conv, mu_self_conv_grid
from hyperconv.convolution import (cross_conv, cross_window, field_mass, hyperbolic_conv,
                                   profile_measure_integral, self_half_width,
                                   self_window, sphere_pair_kernel)
from hyperconv.extremizer import SheetPair, _sheet_fields, full_q_ratio, pair_convolution_field
from hyperconv.fields import Conv2DField
from hyperconv.geometry import psi
from hyperconv.profiles import RadialProfile, shell_indicator, trial_profile
from hyperconv.quadrature import QuadratureSpec, integrate

SPEC = QuadratureSpec(rel_tol=1e-9)


def const_profile(s, r_lo, r_hi, n=400):
    grid = np.linspace(r_lo, r_hi, n)
    return RadialProfile(s, grid, np.ones(n))


def interp_then_mask(prof, r):
    """The reference evaluation: interpolate in u = psi(r), then zero r outside the grid."""
    r = np.asarray(r, dtype=float)
    out = np.interp(psi(r, prof.s), psi(prof.grid, prof.s), prof.values)
    return np.where((r < prof.grid[0]) | (r > prof.grid[-1]), 0.0, out)


@settings(max_examples=60, deadline=None)
@given(s=st.floats(0.0, 10.0), n=st.integers(2, 30), complex_values=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_profile_evaluation_equals_interp_then_mask_bit_for_bit(s, n, complex_values, seed):
    # at the nodes, at both ends and one ulp past them, between the nodes
    # and outside the grid on both sides
    rng = np.random.default_rng(seed)
    grid = s + np.cumsum(rng.uniform(0.01, 1.0, n))
    values = rng.normal(size=n)
    if complex_values:
        values = values + 1j * rng.normal(size=n)
    prof = RadialProfile(s, grid, values)
    ends = grid[[0, -1]]
    r = np.concatenate([grid, ends, np.nextafter(ends, [-np.inf, np.inf]),
                        rng.uniform(ends[0], ends[1], 20), ends[0] - rng.uniform(0.0, 5.0, 5),
                        ends[1] + rng.uniform(0.0, 5.0, 5)])
    got, want = prof(r), interp_then_mask(prof, r)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for x in r[[0, n - 1, n + 2, n + 3, -1]]:  # scalars come back as Python numbers
        assert type(prof(x)) is (complex if complex_values else float)
        assert prof(x) == interp_then_mask(prof, x)


# ---- sphere pair kernel ----

def test_kernel_point_values():
    np.testing.assert_allclose(sphere_pair_kernel(1.0, 1.0, 1.0), 2 * np.pi, rtol=0)
    assert sphere_pair_kernel(1.0, 2.0, 4.0) == 0.0
    assert sphere_pair_kernel(1.0, 2.0, 0.5) == 0.0
    np.testing.assert_allclose(sphere_pair_kernel(2.0, 1.0, 2.5),
                               sphere_pair_kernel(1.0, 2.0, 2.5), rtol=0)


def test_kernel_mass_identity():
    # total mass of the pair convolution = product of sphere masses
    res = integrate(lambda x: 2 * np.pi / x * 4 * np.pi * x * x, 1.0, 3.0, SPEC)
    np.testing.assert_allclose(res.value, 32 * np.pi ** 2, rtol=1e-10)


def test_kernel_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        sphere_pair_kernel(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        sphere_pair_kernel(1.0, 1.0, -1.0)


# ---- window geometry ----

def test_self_window_reproduces_density():
    rng = np.random.default_rng(17)
    for _ in range(200):
        s = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        tau = float(rng.uniform(0.1, 6.0))
        hi = np.sqrt(tau * tau + s * s) + s
        rho = float(rng.uniform(1e-3, hi * 1.05))
        length = sum(b - a for a, b in self_window(s, rho, tau))
        want = mu_self_conv(ConvPoint(s, rho, tau))
        np.testing.assert_allclose(2 * np.pi / rho * length, want,
                                   rtol=1e-10, atol=1e-12)


def test_self_window_inside_domain():
    rng = np.random.default_rng(29)
    for _ in range(200):
        s = float(rng.uniform(0.0, 2.0))
        tau = float(rng.uniform(0.05, 5.0))
        rho = float(rng.uniform(0.0, np.sqrt(tau * tau + s * s) + s))
        win = self_window(s, rho, tau)
        for a, b in win:
            assert -1e-12 <= a <= b <= tau + 1e-12


def test_cross_window_against_bruteforce():
    rng = np.random.default_rng(31)
    t = np.linspace(0.0, 30.0, 600_001)
    for _ in range(60):
        s = float(rng.choice([0.5, 1.0, 2.0]))
        tau = float(rng.uniform(0.0, 4.0))
        rho = float(rng.uniform(0.05, 8.0))
        r1 = np.sqrt((tau + t) ** 2 + s * s)
        r2 = np.sqrt(t * t + s * s)
        ok = (np.abs(r1 - r2) <= rho) & (rho <= r1 + r2)
        brute = ok.mean() * 30.0
        win = cross_window(s, rho, tau, t_cap=30.0)
        length = sum(b - a for a, b in win)
        np.testing.assert_allclose(length, brute, atol=2e-4)


def test_windows_at_a_tiny_tau_keep_the_inner_edge():
    # tau << s: sqrt(tau^2 + s^2) - s cancels and once read 2.4158e-13 for
    # the true edge 2.4125e-13, which put rho = 1.001 x edge on the inner
    # branch with the window [-1.05e-9, 2.101e-6]
    s, tau = 9.14, 2.1e-6
    edge = branch_curves(s, tau)[0]
    assert self_window(s, 1.001 * edge, tau) == [(0.0, tau)]
    assert cross_window(s, 0.999 * edge, tau, t_cap=1.0) == []
    (a, b), = cross_window(s, 1.001 * edge, tau, t_cap=1.0)
    assert 0.0 == a < b < tau


def test_cross_window_one_ulp_beyond_the_support_edge_starts_at_zero():
    # there 1 + 4 s^2 / (tau^2 - rho^2) rounds below 0, the half width to 0,
    # and the window used to start at t_b = -tau/2
    s, tau = 1.8108694352693044, 3.2115966561837844e-08
    rho = float(np.nextafter(branch_curves(s, tau)[2], np.inf))
    (a, b), = cross_window(s, rho, tau, t_cap=1.0)
    assert 0.0 <= a < b == 1.0


@settings(max_examples=300, deadline=None)
@given(s=st.floats(0.0, 10.0), log_tau=st.floats(-9.0, 3.0),
       which=st.sampled_from([0, 1, 2]),
       rel=st.one_of(st.floats(-1e-6, 1e-6), st.sampled_from([-1e-15, 0.0, 1e-15])),
       anywhere=st.one_of(st.none(), st.floats(0.0, 1.5)), cap=st.floats(0.1, 10.0))
def test_windows_stay_inside_their_range(s, log_tau, which, rel, anywhere, cap):
    # tau from 1e-9 s up (1e-12 at s = 0); rho next to a branch curve, or
    # anywhere below 1.5 x the support edge
    tau = 10.0 ** log_tau * max(s, 1e-3)
    lo, mid, hi = branch_curves(s, tau)
    rho = (1.0 + rel) * (lo, mid, hi)[which] if anywhere is None else anywhere * hi
    t_cap = cap * tau
    win = self_window(s, rho, tau)
    assert all(0.0 <= a < b <= tau for a, b in win)
    assert all(0.0 <= a < b <= t_cap for a, b in cross_window(s, rho, tau, t_cap))
    # the inner/middle switch sits on branch_curves' inner edge and the
    # middle branch ends at its middle edge, both clamped to lo <= mid <= hi
    if rho < min(lo, mid, hi):
        w = self_half_width(s, rho, tau)
        a, b = 0.5 * tau - w, 0.5 * tau + w
        assert win == ([(a, b)] if b > a else [])
    elif rho <= min(mid, hi):
        assert win == [(0.0, tau)]


def test_branch_edges_keep_their_order_under_rounding():
    # tau^2 / (4 s) below an ulp of 2 s: the middle edge rounds to
    # 1.6250000000000002 against the support edge 1.625, and the rho between
    # them lies beyond the support
    s, tau = 0.8125, 1.55e-8
    lo, mid, hi = convolution._branch_edges(s, tau)
    assert lo <= mid <= hi == 1.625
    assert self_window(s, np.nextafter(1.625, 2.0), tau) == []
    assert self_window(s, 1.625, tau) == [(0.0, tau)]
    # at s = 0 all three edges meet at tau; this tau rounds tau^2 / tau one
    # ulp above tau, and rho = tau, where w is 0/0, is on the middle branch
    tau = 1.5788163903634936e-12
    lo, mid, hi = convolution._branch_edges(0.0, tau)
    assert lo == mid == hi == tau
    assert self_window(0.0, tau, tau) == [(0.0, tau)]


def _window_length(s, rho, tau):
    return sum(b - a for a, b in self_window(s, rho, tau))


@settings(max_examples=300, deadline=None)
@given(s=st.floats(0.0, 10.0), log_tau=st.floats(-9.0, 3.0), theta=st.floats(1e-12, 1.0))
@example(s=5.799943092246908, log_tau=-6.161532051440594, theta=0.5)
@example(s=3.08779924722896, log_tau=0.0, theta=1e-12)
def test_window_length_is_continuous_across_the_branch_curves(s, log_tau, theta):
    # the length L(rho) rises to tau on the inner branch, is tau on the
    # middle one and falls to 0 on the outer one; each probe is bounded by
    # the mean value theorem: L' <= 2 sqrt(tau^2 + s^2) / tau on the inner
    # branch, tau - L(m + h) = 2 w <= rho sqrt(h (2 m + h)) / (2 s) on the
    # outer one, and L' = tau / R + R / tau at the support edge R
    tau = 10.0 ** log_tau * max(s, 1e-3)
    lo, mid, hi = (float(e) for e in convolution._branch_edges(s, tau))
    tol = 1e-14 * tau
    if lo <= mid:  # rounding can swap them at s = 0, where all three edges meet
        assert _window_length(s, lo, tau) == _window_length(s, mid, tau) == tau
    rho = lo * (1.0 - theta)
    if 0.0 < rho < lo:
        gap = tau - _window_length(s, rho, tau)
        assert -tol <= gap <= 2.0 * np.hypot(tau, s) / tau * (lo - rho) + tol
    rho = mid + theta * (hi - mid)
    if s > 0.0 and mid < rho <= hi:
        h = rho - mid + np.spacing(mid)
        gap = tau - _window_length(s, rho, tau)
        assert -tol <= gap <= rho * np.sqrt(h * (2.0 * mid + h)) / (2.0 * s) + tol
    if s > 0.0 and hi - mid >= 16.0 * np.spacing(hi):
        slope = tau / hi + hi / tau
        assert 0.0 <= _window_length(s, hi, tau) <= 4.0 * slope * np.spacing(hi) + tol
    if mid <= hi:  # rounding can swap them when tau^2 / (4 s) is below an ulp of 2 s
        assert _window_length(s, np.nextafter(hi, np.inf), tau) == 0.0


def test_half_width_is_accurate_on_a_narrow_outer_branch():
    # tau = 1e-6 s: the outer branch is 2.5e-13 wide; the reference is the
    # same closed form in 60-digit arithmetic on these double inputs (the
    # unfactored radicand 1 + 4 s^2 / (tau^2 - rho^2) was off by 8.9e-5)
    w = self_half_width(1.0, 2.000000000000375, 1e-6)
    np.testing.assert_allclose(w, 3.532864179578931879159148e-7, rtol=1e-14)


def test_half_width_inversion_matches_window():
    s, tau = 1.0, 3.0
    rho = 1.2  # inner branch
    w = self_half_width(s, rho, tau)
    (a, b), = self_window(s, rho, tau)
    np.testing.assert_allclose(b - a, 2 * w, rtol=1e-12)


# ---- grid convolutions ----

def test_hyperbolic_conv_matches_closed_form():
    s = 1.0
    f = const_profile(s, 1.0, 40.0, 2000)
    grid = Conv2DField.template(6.0, 0.1, 4.0, 25, 23)
    h = hyperbolic_conv(f, f, grid)
    want = mu_self_conv_grid(s, grid.rho_grid[:, None], grid.tau_grid[None, :])
    mask = want > 1e-12
    np.testing.assert_allclose(h.values[mask], want[mask], rtol=1e-6)
    # a spot point
    gp = Conv2DField(np.array([1.3, 1.31]), np.array([2.7, 2.71]), np.zeros((2, 2)))
    hp = hyperbolic_conv(f, f, gp)
    np.testing.assert_allclose(hp.values[0, 0], mu_self_conv(ConvPoint(s, 1.3, 2.7)),
                               rtol=1e-6)


def test_hyperbolic_conv_exponential_weight_identity():
    # f = g = f_a  =>  h(rho, tau) = e^{-a tau / 2} (mu*mu)(rho, tau)
    s, a = 1.0, 0.1
    f = trial_profile(a, s, r_max=120.0, n=6000)
    grid = Conv2DField.template(4.0, 0.2, 3.5, 14, 13)
    h = hyperbolic_conv(f, f, grid)
    want = (np.exp(-0.5 * a * grid.tau_grid[None, :])
            * mu_self_conv_grid(s, grid.rho_grid[:, None], grid.tau_grid[None, :]))
    mask = want > 1e-12
    np.testing.assert_allclose(h.values[mask], want[mask], rtol=1e-5)


def test_conv_zero_and_commutativity_and_bilinearity():
    s = 1.0
    f = shell_indicator(1.5, 3.0, s, smooth=True)
    g = shell_indicator(2.0, 4.0, s, smooth=True)
    zero = RadialProfile(s, g.grid, np.zeros_like(g.values))
    grid = Conv2DField.template(8.0, 0.05, 8.0, 40, 40)
    hz = hyperbolic_conv(f, zero, grid)
    assert np.all(hz.values == 0.0)
    hfg = hyperbolic_conv(f, g, grid)
    hgf = hyperbolic_conv(g, f, grid)
    np.testing.assert_allclose(hfg.values, hgf.values, rtol=1e-8, atol=1e-9)
    h2 = hyperbolic_conv(f.scaled(2.5), g, grid)
    np.testing.assert_allclose(h2.values, 2.5 * hfg.values, rtol=1e-8, atol=1e-9)


def test_conv_support_exact_zero():
    s = 1.0
    f = shell_indicator(1.5, 3.0, s, smooth=True)
    grid = Conv2DField.template(9.0, -1.0, 7.0, 35, 30)
    h = hyperbolic_conv(f, f, grid)
    rho = grid.rho_grid[:, None]
    tau = grid.tau_grid[None, :]
    outside = (tau < 0) | (rho > np.sqrt(np.maximum(tau, 0) ** 2 + s * s) + s)
    assert np.all(h.values[outside] == 0.0)


def test_mass_conservation():
    # radially disjoint shells: no sqrt cusp in the field (the cusp
    # coefficient is the product of the profiles at the window-center
    # radius), so the trapezoid mass converges cleanly at O(h^2) and one
    # Richardson step reaches the 1e-6 target.
    s = 1.0
    f = shell_indicator(1.2, 1.8, s, n=120, smooth=True)
    g = shell_indicator(2.4, 3.2, s, n=120, smooth=True)
    want = profile_measure_integral(f) * profile_measure_integral(g)
    masses = []
    for mult in (1, 2):
        grid = Conv2DField.template(5.8, 2.7, 4.7, 160 * mult + 1, 120 * mult + 1)
        h = hyperbolic_conv(f, g, grid)
        masses.append(field_mass(h))
    got = (4 * masses[1] - masses[0]) / 3.0
    np.testing.assert_allclose(got, want, rtol=1e-6)


def test_mass_conservation_overlapping_cusped():
    # overlapping shells put a sqrt cusp along rho = sqrt(tau^2 + 4 s^2);
    # the cusp-refined template plus Richardson reaches ~1e-5 here (the
    # cusp limits plain product-grid trapezoids to ~h^{3/2}).
    s = 1.0
    f = shell_indicator(1.5, 2.2, s, n=120, smooth=True)
    g = shell_indicator(1.7, 2.5, s, n=120, smooth=True)
    want = profile_measure_integral(f) * profile_measure_integral(g)
    masses = []
    for mult in (1, 2):
        grid = Conv2DField.cusp_refined_template(s, 5.6, 2.3, 4.4,
                                                 120 * mult + 1, 100 * mult + 1)
        h = hyperbolic_conv(f, g, grid)
        masses.append(field_mass(h))
    got = (4 * masses[1] - masses[0]) / 3.0
    np.testing.assert_allclose(got, want, rtol=1e-5)


def test_pointwise_cauchy_schwarz():
    s = 1.0
    grid = Conv2DField.template(6.0, 0.05, 6.0, 30, 30)
    rng = np.random.default_rng(2)
    base = shell_indicator(1.2, 3.5, s, n=200, smooth=True)
    vals = base.values * rng.uniform(-1.0, 2.0, base.values.size)
    f = RadialProfile(s, base.grid, vals)
    fsq = RadialProfile(s, base.grid, np.abs(vals) ** 2)
    h = hyperbolic_conv(f, f, grid)
    hsq = hyperbolic_conv(fsq, fsq, grid)
    mu2 = mu_self_conv_grid(s, grid.rho_grid[:, None], grid.tau_grid[None, :])
    lhs = np.abs(h.values) ** 2
    rhs = hsq.values * mu2
    assert np.all(lhs <= rhs * (1 + 1e-8) + 1e-12)


# ---- row integrator against an adaptive Gauss-Kronrod oracle ----

def _oracle_profiles(s, kind, rng):
    """Two bump profiles on overlapping shells, signed-real or complex."""
    f = shell_indicator(s + 0.3, s + 2.0, s, n=40, smooth=True)
    g = shell_indicator(s + 0.6, s + 2.6, s, n=35, smooth=True)
    if kind == "signed":
        return (RadialProfile(s, f.grid, f.values * rng.uniform(-1.0, 2.0, f.grid.size)),
                RadialProfile(s, g.grid, g.values * rng.uniform(-1.0, 2.0, g.grid.size)))
    return (RadialProfile(s, f.grid, f.values * np.exp(1j * rng.uniform(0, 6, f.grid.size))),
            RadialProfile(s, g.grid, g.values * np.exp(1j * rng.uniform(0, 6, g.grid.size))))


def _window_oracle(integrand, windows, support, kinks, rho, complex_values):
    """2 pi / rho * int over the clipped windows, scipy quad with the kinks as points."""
    spec = QuadratureSpec(rel_tol=1e-12)
    total = 0.0
    for a, b in windows:
        a, b = max(a, support[0]), min(b, support[1])
        if b > a:
            for unit, part in ((1.0, np.real), (1j, np.imag))[:1 + complex_values]:
                total += unit * integrate(lambda t: part(integrand(t)), a, b, spec,
                                          points=kinks).value
    return 2 * np.pi / rho * total


def _draw(rng, strata, count=20):
    """count distinct cells, spread as evenly as the strata allow."""
    pools = [list(map(tuple, rng.permutation(c))) for c in strata if len(c)]
    cells = []
    while len(cells) < count and any(pools):
        cells += [pool.pop() for pool in pools if pool][:count - len(cells)]
    return cells


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("kind", ["signed", "complex"])
def test_row_integrator_matches_gk_oracle(s, kind):
    rng = np.random.default_rng(int(10 * s) + (kind == "complex"))
    f, g = _oracle_profiles(s, kind, rng)
    fu, gu = f.u_support(), g.u_support()
    hi_tau = fu[1] + gu[1]
    rho_max = np.sqrt(hi_tau ** 2 + s * s) + s + 0.2
    grid = Conv2DField.template(rho_max, -hi_tau, hi_tau, 57, 64)
    rho, tau = grid.rho_grid[:, None], grid.tau_grid[None, :]

    # self convolution: cells drawn from the inner, middle and outer branches
    h = hyperbolic_conv(f, g, grid)
    live = (h.values != 0) & (rho > 0)
    lo = np.sqrt(tau ** 2 + s * s) - s
    mid = np.sqrt(tau ** 2 + 4 * s * s)
    branches = [live & (rho < lo), live & (lo <= rho) & (rho <= mid), live & (rho > mid)]
    cells = _draw(rng, [np.argwhere(b) for b in branches])
    assert len(cells) == 20
    for i, j in cells:
        r, t = grid.rho_grid[i], grid.tau_grid[j]
        want = _window_oracle(lambda x: f.at_time(x) * g.at_time(t - x),
                              self_window(s, r, t),
                              (max(fu[0], t - gu[1]), min(fu[1], t - gu[0])),
                              np.concatenate([psi(f.grid, s), t - psi(g.grid, s)]), r,
                              kind == "complex")
        np.testing.assert_allclose(h.values[i, j], want, rtol=1e-9)

    # cross convolution: cells drawn from both signs of tau
    h = cross_conv(f, g, grid)
    live = h.values != 0
    cells = _draw(rng, [np.argwhere(live & (tau > 0)), np.argwhere(live & (tau < 0))])
    assert len(cells) == 20
    for i, j in cells:
        r, t = grid.rho_grid[i], grid.tau_grid[j]
        fa, fb = (f, g) if t >= 0 else (g, f)
        au, bu = fa.u_support(), fb.u_support()
        support = (max(bu[0], au[0] - abs(t)), min(bu[1], au[1] - abs(t)))
        want = _window_oracle(lambda x: fa.at_time(abs(t) + x) * fb.at_time(x),
                              cross_window(s, r, abs(t), t_cap=support[1]), support,
                              np.concatenate([psi(fa.grid, s) - abs(t), psi(fb.grid, s)]), r,
                              kind == "complex")
        np.testing.assert_allclose(h.values[i, j], want, rtol=1e-9)


# ---- exact window integrals ----

def _gauss2(integrand, cuts):
    """2-point Gauss on each piece between sorted cuts: exact for cubics.

    Its points lie inside the pieces, so no value is read across a jump at
    a cut, as Simpson's endpoints would.
    """
    a, b = cuts[:-1], cuts[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x = half / np.sqrt(3.0)
    return np.sum(half * (integrand(mid - x) + integrand(mid + x)))


def _exact_cell(integrand, windows, times, tau, support, rho):
    """2 pi / rho * int over the windows, cut at the node times, tau minus them and the support."""
    total = 0.0
    for a, b in windows:
        cuts = np.concatenate([[a, b], times, tau - times, times - tau, support])
        total += _gauss2(integrand, np.unique(cuts[(cuts >= a) & (cuts <= b)]))
    return 2 * np.pi / rho * total


def _few_node_profile(s, complex_values, rng):
    """2 to 5 nodes, spanning [0.5, 2] in time, with values that stay away from 0."""
    n = int(rng.integers(2, 6))
    u = np.sort(np.concatenate([rng.uniform(0.0, 0.5, 1), rng.uniform(0.5, 2.0, n - 2),
                                rng.uniform(2.0, 2.5, 1)]))
    vals = rng.uniform(0.3, 2.0, n) * rng.choice([-1.0, 1.0], n)
    if complex_values:
        vals = vals * np.exp(1j * rng.uniform(0.0, 6.0, n))
    return RadialProfile(s, np.sqrt(u * u + s * s), vals)


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("complex_values", [False, True])
def test_window_integrals_are_exact_for_profiles_linear_in_time(s, complex_values):
    # between kinks both factors are linear in t, so each sampled cell is
    # the exact window integral of the interpolants, up to rounding
    rng = np.random.default_rng(int(10 * s) + 100 * complex_values)
    for _ in range(3):
        f = _few_node_profile(s, complex_values, rng)
        g = _few_node_profile(s, False, rng)
        times = np.concatenate([f.times, g.times])
        grid = _pair_grid(f, g, 13, 17, 1.0)
        # every cell off rho = 0, where the sampler takes the closed-form axis value
        cells = [(i, j) for i in range(1, 13) for j in range(17)]
        for a, b in ((f, g), (f, f)):
            h = hyperbolic_conv(a, b, grid).values
            for i, j in cells:
                r, t = grid.rho_grid[i], grid.tau_grid[j]
                want = _exact_cell(lambda x: a.at_time(x) * b.at_time(t - x),
                                   self_window(s, r, t), times, t, [], r)
                assert abs(h[i, j] - want) <= 1e-13 * np.abs(h).max()
        h = cross_conv(f, g, grid).values
        assert np.any(h[:, grid.tau_grid < 0]) and np.any(h[:, grid.tau_grid > 0])
        for i, j in cells:
            r, t = grid.rho_grid[i], grid.tau_grid[j]
            # at tau < 0 the lower sheet's slice lies |tau| above the upper one's
            fa, fb = (f, g) if t >= 0 else (g, f)
            t = abs(t)
            want = _exact_cell(lambda x: fa.at_time(t + x) * fb.at_time(x),
                               cross_window(s, r, t, t_cap=fb.times[-1]), times, t,
                               [fb.times[0], fa.times[0] - t, fa.times[-1] - t], r)
            assert abs(h[i, j] - want) <= 1e-13 * np.abs(h).max()


# ---- block sampler against the per-row reference ----

_GL8_X, _GL8_W = np.polynomial.legendre.leggauss(8)


def _ref_gauss_sums(integrand, lo, hi):
    half = 0.5 * (hi - lo)
    t = (lo + half)[:, None, None] + half[:, None, None] * _GL8_X
    return (half[:, None, None] * _GL8_W * integrand(t)).sum(axis=(1, 2))


def _ref_window_sums(ends, segs, first, last):
    acc = np.concatenate([np.zeros(1, dtype=segs.dtype), np.cumsum(segs)])
    k = ends.size // 2
    return ends[:k] + ends[k:] + (acc[last] - acc[first])


def _ref_cell_sums(cell, x, n):
    if np.iscomplexobj(x):
        return np.bincount(cell, x.real, n) + 1j * np.bincount(cell, x.imag, n)
    return np.bincount(cell, x, n)


def _ref_live_sums(integrand, lo, hi):
    """``_ref_gauss_sums`` on the intervals of nonzero length, exactly 0 on the others."""
    live = hi > lo
    val = _ref_gauss_sums(integrand, lo[live], hi[live])
    out = np.zeros(lo.size, dtype=val.dtype)
    out[live] = val
    return out


def _ref_row_integrals(integrand, kinks, lo, hi, support, rho):
    """One tau row at a time, one 8-point rule per segment.

    A window end on a kink starts or ends the window's whole-kink part,
    and an end segment of length zero is exactly 0.
    """
    n = rho.size
    lo = np.maximum(lo, support[0])
    hi = np.minimum(hi, support[1])
    slot, cell = np.nonzero(hi > lo)
    if cell.size == 0:
        return np.zeros(n)
    lo, hi = lo[slot, cell], hi[slot, cell]
    kinks = np.unique(kinks)
    kinks = kinks[(kinks >= lo.min()) & (kinks <= hi.max())]
    first = np.searchsorted(kinks, lo, side="left")
    last = np.searchsorted(kinks, hi, side="right") - 1
    inner = last >= first
    padded = np.append(kinks, 0.0)
    ends_lo = np.concatenate([lo, np.where(inner, padded[last], hi)])
    ends_hi = np.concatenate([np.where(inner, padded[first], hi), hi])
    first = np.where(inner, first, 0)
    last = np.where(inner, last, 0)
    seg = _ref_gauss_sums(integrand, kinks[:-1], kinks[1:])
    end = _ref_live_sums(integrand, ends_lo, ends_hi)
    out = _ref_cell_sums(cell, _ref_window_sums(end, seg, first, last), n)
    out[cell] *= 2 * np.pi / rho[cell]
    return out


def _ref_hyperbolic_conv(f, g, grid):
    """Rows folded at tau/2: f(t) g(tau - t) + g(t) f(tau - t) over t >= tau/2."""
    s = f.s
    fu, gu = f.u_support(), g.u_support()
    u = np.union1d(psi(f.grid, s), psi(g.grid, s))
    rho = grid.rho_grid
    out = np.zeros((rho.size, grid.tau_grid.size),
                   dtype=complex if (f.is_complex or g.is_complex) else float)
    for j, tau in enumerate(grid.tau_grid):
        if tau <= 0 or tau < fu[0] + gu[0] or tau > fu[1] + gu[1]:
            continue
        c = 0.5 * tau
        lo1, hi1 = max(fu[0], tau - gu[1]), min(fu[1], tau - gu[0])
        support = (max(tau - fu[1], gu[0]) if hi1 < c else max(lo1, c),
                   max(hi1, min(tau - fu[0], gu[1])))
        lo, hi = convolution._self_windows(s, rho, tau)
        out[:, j] = _ref_row_integrals(
            lambda t: f.at_time(t) * g.at_time(tau - t) + g.at_time(t) * f.at_time(tau - t),
            np.concatenate([u, tau - u, [c]]), lo, hi, support, rho)
        mid = f.at_time(0.5 * tau) * g.at_time(0.5 * tau)
        out[rho == 0.0, j] = 2 * np.pi * np.sqrt(1.0 + 4.0 * s * s / (tau * tau)) * mid
    return grid.like(out)


def _ref_cross_conv(f_plus, f_minus, grid):
    s = f_plus.s
    rho = grid.rho_grid
    out = np.zeros((rho.size, grid.tau_grid.size),
                   dtype=complex if (f_plus.is_complex or f_minus.is_complex) else float)
    for j, tau in enumerate(grid.tau_grid):
        fa, fb = (f_plus, f_minus) if tau >= 0 else (f_minus, f_plus)
        t_abs = abs(tau)
        au, bu = fa.u_support(), fb.u_support()
        support = (max(bu[0], au[0] - t_abs), min(bu[1], au[1] - t_abs))
        if support[1] <= support[0]:
            continue
        lo, hi = convolution._cross_windows(s, rho, t_abs, support[1])
        out[:, j] = _ref_row_integrals(
            lambda t: fa.at_time(t_abs + t) * fb.at_time(t),
            np.concatenate([psi(fa.grid, s) - t_abs, psi(fb.grid, s)]),
            lo, hi, support, rho)
    return grid.like(out)


@st.composite
def _profile(draw, s, complex_values):
    u_lo = draw(st.floats(0.0, 3.0))
    u_hi = u_lo + draw(st.floats(0.05, 3.0))
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vals = rng.uniform(-1.0, 2.0, n)
    if complex_values:
        vals = vals * np.exp(1j * rng.uniform(0.0, 6.0, n))
    return RadialProfile(s, np.sqrt(np.linspace(u_lo, u_hi, n) ** 2 + s * s), vals)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), s=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
       complex_values=st.booleans(), rho_min=st.sampled_from([0.0, 0.013]),
       n_rho=st.integers(2, 30), n_tau=st.integers(2, 30), reach=st.floats(0.3, 1.5),
       bound=st.sampled_from([1, convolution.BLOCK_CELLS, 10 ** 9]))
def test_block_sampler_matches_per_row_reference(data, s, complex_values, rho_min, n_rho,
                                                 n_tau, reach, bound):
    # values bit for bit; reach < 1 or > 1 leaves tau rows and rho cells
    # outside the support
    f = data.draw(_profile(s, complex_values))
    g = data.draw(_profile(s, False))
    u_hi = max(f.u_support()[1], g.u_support()[1])
    rho_hi = reach * (np.sqrt(4 * u_hi ** 2 + s * s) + s) + 0.1
    grid = Conv2DField(np.linspace(rho_min, rho_hi, n_rho),
                       np.linspace(-2.0 * reach * u_hi, 2.0 * reach * u_hi + 0.01, n_tau),
                       np.zeros((n_rho, n_tau)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convolution, "BLOCK_CELLS", bound)
        for conv, ref in ((hyperbolic_conv, _ref_hyperbolic_conv),
                          (cross_conv, _ref_cross_conv)):
            got, want = conv(f, g, grid).values, ref(f, g, grid).values
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("complex_values", [False, True])
def test_gauss_chunks_change_no_bit(monkeypatch, complex_values):
    # one interval per chunk against one chunk per pass, on zigzag sheets
    # near the tip of a small mass
    s = 0.01
    zigzag = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    f = RadialProfile(s, np.linspace(s, s + 2.0, 6), zigzag * (1.0 + 0.5j * complex_values))
    g = RadialProfile(s, f.grid, 1.0 - zigzag)
    grid = _pair_grid(f, g, 21, 31, 1.1)
    got = {}
    for points in (1, 10 ** 9):
        monkeypatch.setattr(convolution, "GAUSS_POINTS", points)
        got[points] = [conv(f, g, grid).values for conv in (hyperbolic_conv, cross_conv)]
    for a, b in zip(got[1], got[10 ** 9]):
        assert a.tobytes() == b.tobytes()


def _pair_grid(f, g, n_rho, n_tau, reach):
    """A template over both profiles' reach, with rows and cells outside the support."""
    s = f.s
    u_hi = max(f.u_support()[1], g.u_support()[1])
    rho_hi = reach * (np.sqrt(4 * u_hi ** 2 + s * s) + s) + 0.1
    return Conv2DField(np.linspace(0.0, rho_hi, n_rho),
                       np.linspace(-2.0 * reach * u_hi, 2.0 * reach * u_hi + 0.01, n_tau),
                       np.zeros((n_rho, n_tau)))


@settings(max_examples=30, deadline=None)
@given(data=st.data(), s=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
       complex_values=st.booleans(), n_rho=st.integers(2, 30), n_tau=st.integers(2, 30),
       reach=st.floats(0.3, 1.5))
def test_self_convolution_of_a_profile_with_itself_equals_that_with_a_copy(
        data, s, complex_values, n_rho, n_tau, reach):
    # g is f evaluates 2 f(t) f(tau - t); a copy takes the general sum
    # f(t) g(tau - t) + g(t) f(tau - t), and (2a)b = ab + ba exactly
    f = data.draw(_profile(s, complex_values))
    copy = RadialProfile(s, f.grid.copy(), f.values.copy())
    grid = _pair_grid(f, f, n_rho, n_tau, reach)
    got, want = hyperbolic_conv(f, f, grid).values, hyperbolic_conv(f, copy, grid).values
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(data=st.data(), s=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
       complex_values=st.booleans(), n_rho=st.integers(2, 30), n_tau=st.integers(2, 30),
       reach=st.floats(0.3, 1.5))
def test_self_convolution_is_symmetric_in_its_profiles_to_rounding(
        data, s, complex_values, n_rho, n_tau, reach):
    f = data.draw(_profile(s, complex_values))
    g = data.draw(_profile(s, False))
    grid = _pair_grid(f, g, n_rho, n_tau, reach)
    fg = hyperbolic_conv(f, g, grid).values
    gf = hyperbolic_conv(g, f, grid).values
    np.testing.assert_allclose(fg, gf, rtol=0.0, atol=1e-13 * np.max(np.abs(fg), initial=0.0))


def test_no_gauss_sum_is_taken_over_an_empty_interval(monkeypatch):
    # unequal sheets on one grid, as in a pair field: many window ends fall
    # on kinks, support edges and t_cap, where an end segment is empty
    s = 1.0
    f = shell_indicator(1.2, 2.4, s, n=80, smooth=True)
    g = RadialProfile(s, f.grid, f.values * np.linspace(0.5, 1.5, f.grid.size))
    u_hi = psi(f.r_max, s)
    grid = Conv2DField.template(np.sqrt(4 * u_hi ** 2 + s * s) + s, -2.0 * u_hi, 2.0 * u_hi,
                                41, 61)
    intervals = []
    gauss = convolution._gauss_sums

    def nonempty(integrand, lo, hi, tau, level=0):
        assert np.all(hi > lo)
        intervals.append(lo.size)
        return gauss(integrand, lo, hi, tau, level)

    monkeypatch.setattr(convolution, "_gauss_sums", nonempty)
    for conv, a, b in ((hyperbolic_conv, f, f), (hyperbolic_conv, f, g),
                       (cross_conv, f, g), (cross_conv, g, f)):
        conv(a, b, grid)
    assert sum(intervals) > 0


_PAIR = SheetPair(*[shell_indicator(1.2, 2.0, 1.0, n=20)] * 2)
_GRID_TAKERS = {
    "hyperbolic_conv": lambda grid: hyperbolic_conv(_PAIR.f_plus, _PAIR.f_plus, grid),
    "cross_conv": lambda grid: cross_conv(_PAIR.f_plus, _PAIR.f_plus, grid),
    "full_q_ratio": lambda grid: full_q_ratio(_PAIR, grid),
    "pair_convolution_field": lambda grid: pair_convolution_field(_PAIR, grid),
}


@pytest.mark.parametrize("call", _GRID_TAKERS.values(), ids=_GRID_TAKERS.keys())
@pytest.mark.parametrize("grid", ["template", np.zeros((5, 6)), (np.ones(5), np.ones(6))])
def test_field_routes_name_a_grid_that_is_not_a_field(call, grid):
    # each died with AttributeError: 'str' object has no attribute 'rho_grid'
    with pytest.raises(TypeError, match="grid must be a Conv2DField"):
        call(grid)


def test_each_sampled_field_logs_one_debug_record(caplog):
    f = shell_indicator(1.2, 2.0, 1.0, n=20)
    grid = Conv2DField.template(4.0, -3.0, 3.0, 9, 12)
    with caplog.at_level(logging.DEBUG, logger="hyperconv"):
        h = hyperbolic_conv(f, f, grid)
        cross_conv(f, f, grid)
    records = [r for r in caplog.records if r.name == "hyperconv"]
    assert [r.levelno for r in records] == [logging.DEBUG] * 2
    assert [r.getMessage().split(":")[0] for r in records] == ["hyperbolic_conv", "cross_conv"]
    u_lo, u_hi = f.u_support()
    tau = grid.tau_grid
    rows = np.count_nonzero((tau > 0) & (tau >= 2 * u_lo) & (tau <= 2 * u_hi))
    cells = np.count_nonzero((h.values != 0) & (grid.rho_grid[:, None] > 0))
    assert f"{rows} tau rows, {cells} cells with a window, 1 blocks," in records[0].getMessage()
    assert "quadrature points" in records[1].getMessage()


# ---- shared passes against single-field calls ----

def _single_cross(f, g, grid):
    """cross_conv(f, g) from grids of tau >= 0 alone, each a pass of one integrand.

    The rows at tau < 0 are those of cross(g, f) at |tau|.
    """
    tau = grid.tau_grid
    out = None
    for a, b, cols in ((f, g, np.flatnonzero(tau >= 0)), (g, f, np.flatnonzero(tau < 0)[::-1])):
        if cols.size:
            sub = Conv2DField(grid.rho_grid, np.abs(tau[cols]),
                              np.zeros((grid.rho_grid.size, cols.size)))
            values = cross_conv(a, b, sub).values
            out = np.zeros(grid.values.shape, dtype=values.dtype) if out is None else out
            out[:, cols] = values
    return out


def _values_on(f, rng, complex_values, zero_ends):
    """Values for f's grid; with zero_ends, 0 on a stretch at each end (a narrower support)."""
    vals = rng.uniform(-1.0, 2.0, f.grid.size)
    if complex_values:
        vals = vals * np.exp(1j * rng.uniform(0.0, 6.0, f.grid.size))
    if zero_ends:
        vals[:rng.integers(0, f.grid.size // 2 + 1)] = 0.0
        vals[f.grid.size - rng.integers(0, f.grid.size // 2 + 1):] = 0.0
    return vals


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), s=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
       complex_values=st.booleans(), even=st.booleans(), zero_ends=st.booleans(),
       reflected=st.booleans(), mirrored=st.booleans(), n_rho=st.integers(2, 20),
       n_tau=st.integers(2, 30), bound=st.sampled_from([1, convolution.BLOCK_CELLS, 10 ** 9]))
def test_sheet_fields_equal_single_field_calls(data, s, complex_values, even, zero_ends,
                                               reflected, mirrored, n_rho, n_tau, bound):
    # the shared self pass and the shared |tau| rows of the cross fields
    # change no bit of any field; a linspace tau grid is symmetric only to
    # rounding, so few of its rows at tau and -tau share a cross pass
    f = data.draw(_profile(s, complex_values))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    g = RadialProfile(s, f.grid, f.values.copy() if even
                      else _values_on(f, rng, data.draw(st.booleans()), zero_ends))
    pair = SheetPair(f, g)
    u_hi = f.u_support()[1]
    rho_hi, tau_hi = np.sqrt(4 * u_hi ** 2 + s * s) + s + 0.1, 2.2 * u_hi
    grid = (Conv2DField.template(rho_hi, -tau_hi, tau_hi, n_rho, n_tau) if mirrored
            else Conv2DField(np.linspace(0.0, rho_hi, n_rho), np.linspace(-tau_hi, tau_hi, n_tau),
                             np.zeros((n_rho, n_tau))))
    fp, fm = f, (f if even else g)  # equal values take the g is f paths
    gp, gm = (fm, fp) if reflected else (fp, fm)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convolution, "BLOCK_CELLS", bound)
        got = [h.values for h in _sheet_fields(pair, grid, reflected)]
        want = [hyperbolic_conv(fp, gp, grid).values, hyperbolic_conv(fm, gm, grid).values,
                _single_cross(fp, gm, grid), _single_cross(gp, fm, grid)]
    for a, b in zip(got, want):
        _assert_same_bytes(a, b)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), s=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
       complex_values=st.booleans(), same_times=st.booleans(), zero_ends=st.booleans(),
       n_rho=st.integers(2, 20), n_mags=st.integers(1, 15),
       bound=st.sampled_from([1, convolution.BLOCK_CELLS, 10 ** 9]))
def test_shared_passes_equal_single_passes_on_any_tau_grid(data, s, complex_values, same_times,
                                                           zero_ends, n_rho, n_mags, bound):
    # a tau = 0 row, and each |tau| at tau, at -tau or at both; profiles with
    # one set of node times share their passes, others take one per sign
    f = data.draw(_profile(s, complex_values))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    g = (RadialProfile(s, f.grid, _values_on(f, rng, False, zero_ends)) if same_times
         else data.draw(_profile(s, False)))
    u_hi = max(f.u_support()[1], g.u_support()[1])
    mags = rng.uniform(0.01, 2.2 * u_hi, n_mags)
    sign = rng.integers(0, 3, n_mags)  # +, - or both
    tau = np.unique(np.concatenate([[0.0], mags[sign != 1], -mags[sign != 0]]))
    rho = np.linspace(0.0, np.sqrt(4 * u_hi ** 2 + s * s) + s + 0.1, n_rho)
    grid = Conv2DField(rho, tau, np.zeros((rho.size, tau.size)))
    components = [(f, f), (g, g), (f, g), (g, f)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convolution, "BLOCK_CELLS", bound)
        for a, b in components:
            _assert_same_bytes(cross_conv(a, b, grid).values, _single_cross(a, b, grid))
        if same_times:
            with convolution.shared_self_pass(components, grid):
                shared = [hyperbolic_conv(a, b, grid).values for a, b in components]
            for (a, b), got in zip(components, shared):
                _assert_same_bytes(got, hyperbolic_conv(a, b, grid).values)


def test_a_shared_self_pass_refuses_profiles_with_other_node_times():
    f = shell_indicator(1.2, 2.0, 1.0, n=20)
    g = shell_indicator(1.2, 2.0, 1.0, n=21)
    grid = Conv2DField.template(4.0, -3.0, 3.0, 9, 12)
    with pytest.raises(ValueError, match="one s and one set of node times"):
        with convolution.shared_self_pass([(f, f), (g, g)], grid):
            pass


@pytest.mark.parametrize("n_tau", [2, 3, 170, 171, 242, 243])
def test_template_tau_nodes_are_mirrored_exactly(n_tau):
    tau = Conv2DField.template(1.0, -3.7, 3.7, 2, n_tau).tau_grid
    assert np.array_equal(tau, -tau[::-1])
    assert tau[0] == -3.7 and tau[-1] == 3.7 and np.all(np.diff(tau) > 0)
    np.testing.assert_allclose(tau, np.linspace(-3.7, 3.7, n_tau), rtol=0.0, atol=1e-15)
    if n_tau % 2:
        assert tau[n_tau // 2] == 0.0
    # an asymmetric range keeps linspace's nodes
    assert np.array_equal(Conv2DField.template(1.0, -3.0, 3.7, 2, n_tau).tau_grid,
                          np.linspace(-3.0, 3.7, n_tau))


# ---- cross convolution ----

def test_cross_reflection_symmetry():
    s = 1.0
    f = shell_indicator(1.2, 2.5, s, smooth=True)
    grid = Conv2DField.template(7.0, -5.0, 5.0, 25, 41)
    h = cross_conv(f, f, grid)
    # symmetric tau grid: field even in tau for identical sheets
    np.testing.assert_allclose(h.values, h.values[:, ::-1], rtol=1e-9, atol=1e-13)


def test_cross_swap_reflection():
    s = 1.0
    f = shell_indicator(1.2, 2.5, s, smooth=True)
    g = shell_indicator(2.0, 3.5, s, smooth=True)
    grid = Conv2DField.template(8.0, -6.0, 6.0, 20, 31)
    hfg = cross_conv(f, g, grid)
    hgf = cross_conv(g, f, grid)
    np.testing.assert_allclose(hfg.values, hgf.values[:, ::-1], rtol=1e-9, atol=1e-13)


def test_cross_mass_conservation():
    s = 1.0
    f = shell_indicator(1.5, 2.5, s, n=300, smooth=True)
    g = shell_indicator(1.8, 3.0, s, n=300, smooth=True)
    want = profile_measure_integral(f) * profile_measure_integral(g)
    masses = []
    for mult in (1, 2):
        grid = Conv2DField.template(6.5, -4.0, 4.0, 140 * mult + 1, 180 * mult + 1)
        h = cross_conv(f, g, grid)
        masses.append(field_mass(h))
    got = (4 * masses[1] - masses[0]) / 3.0
    np.testing.assert_allclose(got, want, rtol=2e-5)


def test_field_csv_binary_roundtrip(tmp_path):
    grid = Conv2DField.template(2.0, 0.0, 3.0, 5, 7)
    rng = np.random.default_rng(4)
    h = grid.like(rng.uniform(0, 1, grid.values.shape))
    p_csv = tmp_path / "f.csv"
    p_bin = tmp_path / "f.h3cf"
    h.to_csv(p_csv)
    h.to_binary(p_bin)
    back_csv = Conv2DField.from_csv(p_csv)
    back_bin = Conv2DField.from_binary(p_bin)
    np.testing.assert_allclose(back_csv.values, h.values, rtol=0, atol=0)
    np.testing.assert_allclose(back_bin.values, h.values, rtol=0, atol=0)
    np.testing.assert_array_equal(back_bin.rho_grid, h.rho_grid)


def test_from_binary_rejects_truncated_file(tmp_path):
    grid = Conv2DField.template(2.0, 0.0, 3.0, 5, 7)
    path = tmp_path / "f.h3cf"
    grid.to_binary(path)
    data = path.read_bytes()
    for cut in (len(data) - 8, 10):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match=f"f.h3cf.*{cut}"):
            Conv2DField.from_binary(path)


@pytest.mark.parametrize("rho, tau", [
    ([0.0, 1.0, np.inf], [0.0, 1.0]),
    ([0.0, 1.0], [-np.inf, 0.0, 1.0]),
    ([0.0, np.nan, 1.0], [0.0, 1.0]),
    ([0.0, 1.0], [0.0, np.nan])])
def test_field_rejects_non_finite_grids(rho, tau):
    with pytest.raises(ValueError, match="grids must be finite"):
        Conv2DField(np.array(rho), np.array(tau), np.zeros((len(rho), len(tau))))


def test_to_csv_rejects_complex_values(tmp_path):
    h = Conv2DField([0.0, 1.0], [0.0, 1.0], np.array([[1.0, 2.0], [3.0 + 1j, 4.0]]))
    with pytest.raises(ValueError, match="real"):
        h.to_csv(tmp_path / "f.csv")


@st.composite
def real_fields(draw):
    n_rho, n_tau = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rho = draw(st.lists(st.floats(0.0, 1e300), min_size=n_rho, max_size=n_rho,
                        unique=True))
    tau = draw(st.lists(st.floats(-1e300, 1e300), min_size=n_tau, max_size=n_tau,
                        unique=True))
    special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])
    values = draw(st.lists(st.one_of(special, st.floats()), min_size=n_rho * n_tau,
                           max_size=n_rho * n_tau))
    return Conv2DField(sorted(rho), sorted(tau), np.reshape(values, (n_rho, n_tau)))


@settings(max_examples=60, deadline=None)
@given(h=real_fields())
def test_csv_and_binary_round_trips_are_exact(h):
    with tempfile.TemporaryDirectory() as tmp:
        h.to_csv(f"{tmp}/f.csv")
        h.to_binary(f"{tmp}/f.h3cf")
        backs = [Conv2DField.from_csv(f"{tmp}/f.csv"),
                 Conv2DField.from_binary(f"{tmp}/f.h3cf")]
    for back in backs:
        for got, want in [(back.rho_grid, h.rho_grid), (back.tau_grid, h.tau_grid),
                          (back.values, h.values)]:
            assert np.array_equal(got, want, equal_nan=True)
            # the sign of a zero survives; a NaN's sign is not kept ("nan")
            signed = ~np.isnan(want)
            assert np.array_equal(np.signbit(got[signed]), np.signbit(want[signed]))


def test_gauss_rule_literals_are_numpys_leggauss_bit_for_bit():
    x, w = np.polynomial.legendre.leggauss(8)
    assert convolution._GL8_X.tobytes() == x.tobytes()
    assert convolution._GL8_W.tobytes() == w.tobytes()
