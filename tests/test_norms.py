import logging
from dataclasses import replace

import numpy as np
import pytest

import hyperconv.norms as norms
from hyperconv.convolution import profile_measure_integral
from hyperconv.fields import Conv2DField
from hyperconv.norms import TruncationWarning, l2_field_norm, lp_norm
from hyperconv.profiles import RadialProfile, trial_profile
from hyperconv.quadrature import QuadResult, QuadratureSpec, integrate_exp_decay


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


def test_lp_norm_fallback_is_logged_and_keeps_the_callers_spec(monkeypatch, caplog):
    # force the gk route to report non-convergence; the simpson retry must
    # be logged and must keep every other field of the caller's spec
    real = norms.integrate
    specs = []

    def gk_never_converges(f, a, b, spec, points=None, strict=True):
        specs.append(spec)
        res = real(f, a, b, spec, points=points, strict=strict)
        return QuadResult(res.value, res.error, False) if spec.rule == "gk" else res

    monkeypatch.setattr(norms, "integrate", gk_never_converges)
    f = RadialProfile(0.0, np.linspace(1.0, 2.0, 50), np.ones(50))
    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-12, max_depth=18)
    with caplog.at_level(logging.WARNING, logger="hyperconv"):
        got = lp_norm(f, 2.0, spec)
    assert specs == [spec, replace(spec, rule="simpson")]
    assert [r.name for r in caplog.records] == ["hyperconv"]
    assert "simpson" in caplog.records[0].getMessage()
    np.testing.assert_allclose(got ** 2, 6.0 * np.pi, rtol=1e-9)


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
