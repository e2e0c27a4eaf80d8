import logging
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperconv.norms as norms
from hyperconv.convolution import profile_measure_integral
from hyperconv.fields import Conv2DField
from hyperconv.geometry import phi
from hyperconv.norms import TruncationWarning, l2_field_norm, lp_norm
from hyperconv.profiles import RadialProfile, trial_profile
from hyperconv.quadrature import (QuadratureError, QuadratureSpec, integrate_exp_decay,
                                  integrate_pieces)


def test_l2_norm_cone_indicator():
    # s = 0, f = 1 on [1, 2]: ||f||_2^2 = 4 pi int_1^2 r dr = 6 pi
    grid = np.linspace(1.0, 2.0, 50)
    f = RadialProfile(0.0, grid, np.ones(50))
    got = lp_norm(f, 2.0)
    np.testing.assert_allclose(got ** 2, 6.0 * np.pi, rtol=1e-10)


def test_zero_profile():
    grid = np.linspace(1.0, 2.0, 10)
    f = RadialProfile(1.0, grid, np.zeros(10))
    assert lp_norm(f, 2.0) == 0.0


def test_trial_profile_l2_matches_defining_integral():
    # ||f_a||_2^2 = 4 pi int_0^inf e^{-a u} sqrt(u^2 + 1) du, a large enough
    # that the truncation at r_max is immaterial
    a, s = 1.0, 1.0
    f = trial_profile(a, s, r_max=60.0, n=12000)
    want = 4.0 * np.pi * integrate_exp_decay(
        lambda u: np.exp(-a * u) * np.sqrt(u * u + 1.0), a,
        QuadratureSpec(rel_tol=1e-12)).value
    # tolerance limited by the piecewise-linear sampling of the exponential
    np.testing.assert_allclose(lp_norm(f, 2.0) ** 2, want, rtol=2e-6)


def test_lp_rejects_small_p():
    grid = np.linspace(1.0, 2.0, 10)
    f = RadialProfile(1.0, grid, np.ones(10))
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_p4_vs_p2_consistency():
    # for an indicator profile, ||f||_4^4 = ||f||_2^2
    grid = np.linspace(1.5, 2.5, 80)
    vals = np.ones(80)
    f = RadialProfile(1.0, grid, vals)
    np.testing.assert_allclose(lp_norm(f, 4.0) ** 4, lp_norm(f, 2.0) ** 2,
                               rtol=1e-9)


def test_field_norm_zero_and_refinement():
    h = Conv2DField.template(3.0, 0.0, 3.0, 41, 41)
    norm, err = l2_field_norm(h)
    assert norm == 0.0
    # smooth compactly supported field: doubling changes value below 1e-4
    vals = []
    for n in (81, 161):
        g = Conv2DField.template(3.0, 0.0, 3.0, n, n)
        rho, tau = np.meshgrid(g.rho_grid, g.tau_grid, indexing="ij")
        bump = np.exp(-1.0 / np.clip(1 - ((rho - 1.2) / 0.8) ** 2, 1e-12, None)
                      - 1.0 / np.clip(1 - ((tau - 1.5) / 0.8) ** 2, 1e-12, None))
        bump[(np.abs(rho - 1.2) >= 0.8) | (np.abs(tau - 1.5) >= 0.8)] = 0.0
        norm, err = l2_field_norm(g.like(bump))
        vals.append(norm)
        assert err < 1e-3 * norm
    assert abs(vals[1] - vals[0]) < 1e-4 * vals[0]


def test_field_norm_warns_on_boundary_support():
    g = Conv2DField.template(2.0, 0.0, 2.0, 21, 21)
    vals = np.ones(g.values.shape)
    with pytest.warns(TruncationWarning):
        l2_field_norm(g.like(vals))


def test_lp_norm_breaks_at_the_profile_nodes(caplog):
    # the interpolant has a kink at every node time psi(r_i); without those
    # breakpoints gk missed rel_tol 1e-13 here and fell back to simpson
    r = np.linspace(1.0, 1.5, 20)
    f = RadialProfile(1.0, r, np.cos(r))
    with caplog.at_level(logging.DEBUG, logger="hyperconv"):
        got = lp_norm(f, 2, QuadratureSpec(rel_tol=1e-13))
    assert caplog.records == []
    np.testing.assert_allclose(got ** 2, profile_measure_integral(f, power=2),
                               rtol=1e-12, atol=0)


def test_profile_mass_of_a_complex_profile_keeps_its_phase():
    # a purely imaginary profile has a purely imaginary mass, returned as a
    # complex without a ComplexWarning; a real profile's mass stays a float
    grid = np.linspace(1.0, 2.0, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = profile_measure_integral(RadialProfile(1.0, grid, 1j * np.ones(5)))
        real = profile_measure_integral(RadialProfile(1.0, grid, np.ones(5)))
    assert type(got) is complex and type(real) is float
    assert got == 1j * real


def _reference_lp_norm(f, p, spec):
    # the former lp_norm: scipy's adaptive Gauss-Kronrod between breakpoints.
    # It took the node times only, in one call; the zero crossings of a
    # signed interpolant are kinks of |f|^p as well, and one call then
    # missed rel_tol 1e-12 (and was off by up to 4e-6) on signed profiles,
    # so here every piece between node times and zero crossings is its own
    # call.  The piece at the tip is also cut at u = s, where phi bends:
    # without that cut gk missed rel_tol 1e-12 on 6 of 1500 random profiles
    # with s near 1e-6.  The interpolant is linear in u, so its zeros are
    # placed in u
    u, v = f.times, f.values
    i = np.flatnonzero(np.isrealobj(v) & (np.sign(v[:-1].real) * np.sign(v[1:].real) < 0))
    zeros = u[i] + (u[i + 1] - u[i]) * (v[i] / (v[i] - v[i + 1])).real
    edges = np.sort(np.concatenate([u, zeros]))
    edges = np.unique(np.append(edges, np.clip(f.s, edges[0], edges[-1])))
    res = integrate_pieces(lambda u: np.abs(f.at_time(u)) ** p * phi(u, f.s), edges, spec)
    return float((4.0 * np.pi * res.value) ** (1.0 / p))


@st.composite
def _profiles(draw):
    s = draw(st.one_of(st.just(0.0), st.floats(1e-9, 10.0)))
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    r0 = s + draw(st.sampled_from([0.0, 1.0])) * rng.uniform(0.0, 2.0 * max(s, 1.0))
    grid = r0 + np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, n - 1))])
    kind = draw(st.sampled_from(["nonnegative", "signed", "complex"]))
    vals = {"nonnegative": rng.uniform(0.0, 1.0, n), "signed": rng.normal(size=n),
            "complex": rng.normal(size=n) + 1j * rng.normal(size=n)}[kind]
    if draw(st.booleans()):  # exact zeros at some nodes
        vals[rng.integers(0, n, 1 + n // 4)] = 0.0
    return RadialProfile(s, grid, vals)


@settings(max_examples=30, deadline=None)
@given(f=_profiles(), p=st.floats(1.0, 4.0))
def test_lp_norm_matches_the_gauss_kronrod_reference(f, p):
    got = lp_norm(f, p, QuadratureSpec(rel_tol=1e-10))
    want = _reference_lp_norm(f, p, QuadratureSpec(rel_tol=1e-12))
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


@pytest.mark.parametrize("s, n", [(1e-4, 5), (1e-3, 2)])
def test_lp_norm_on_coarse_profiles_near_the_cone(s, n):
    # without the cuts at u = s 2^k toward the tip both miss rel_tol 1e-13;
    # at the default 1e-8, s = 1e-3 with 2 nodes misses it and s = 1e-4 with
    # 5 nodes meets it with ||f||^2 4.5e-8 off
    r = np.linspace(s, 2.0, n)
    f = RadialProfile(s, r, np.cos(r))
    spec = QuadratureSpec(rel_tol=1e-13)
    np.testing.assert_allclose(lp_norm(f, 2.0, spec), _reference_lp_norm(f, 2.0, spec),
                               rtol=1e-12, atol=0)


def test_lp_norm_names_an_unmet_tolerance_and_logs_nothing(caplog):
    f = trial_profile(1.0, 1.0, 20.0, n=200)
    u_lo, u_hi = f.u_support()
    with caplog.at_level(logging.DEBUG, logger="hyperconv"):
        with pytest.raises(QuadratureError, match=rf"u in \[{u_lo}, {u_hi}\]"):
            lp_norm(f, 2.0, QuadratureSpec(rel_tol=1e-20, abs_tol=0.0))
    assert caplog.records == []


@pytest.mark.parametrize("p", [np.nan, np.inf, -np.inf, 0.5, 0.0, -2.0])
def test_lp_norm_names_a_bad_p_before_any_integral(monkeypatch, p):
    def no_integral(*args):
        raise AssertionError("integral taken")

    monkeypatch.setattr(norms, "_profile_integral", no_integral)
    f = RadialProfile(1.0, np.linspace(1.0, 2.0, 10), np.ones(10))
    with pytest.raises(ValueError, match=r"\bp must be finite and >= 1"):
        lp_norm(f, p)
