import warnings

import numpy as np
import pytest

from hyperconv import lorentz
from hyperconv.lorentz import (BoostParam, CapSpec, GaussianTest,
                               PreconditionError, boost, boost_matrix,
                               bounded_ball_certificate, cap_measure,
                               dyadic_cap_asymptotics, dyadic_log_term,
                               lorentz_invariance_check, minkowski_form,
                               normalize_cap, rotation_to_axis, surface_integral)
from hyperconv.geometry import phi
from hyperconv.quadrature import QuadratureSpec, gauss_legendre_nodes


def test_minkowski_basics():
    e_t = np.array([0.0, 0.0, 0.0, 1.0])
    assert minkowski_form(e_t, e_t) == 1.0
    # point on the unit one-sheeted surface: t^2 = |x|^2 - 1 -> B = -1
    p = np.array([2.0, 0.0, 0.0, np.sqrt(3.0)])
    np.testing.assert_allclose(minkowski_form(p, p), -1.0, atol=1e-14)


def test_boost_identity_and_paper_point():
    bp = BoostParam(0.0)
    p = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(boost(bp, p), p, atol=0)
    t = 0.6
    got = boost(BoostParam(t), np.array([1.0, 0.0, 0.0, 0.0]))
    g = 1.0 / np.sqrt(1 - t * t)
    np.testing.assert_allclose(got, [g, 0.0, 0.0, t * g], rtol=1e-14)


def test_boost_preserves_form_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        t = float(rng.uniform(-0.95, 0.95))
        axis = rng.normal(size=3)
        L = boost_matrix(BoostParam(t, tuple(axis)))
        p = rng.normal(size=4)
        q = rng.normal(size=4)
        np.testing.assert_allclose(minkowski_form(L @ p, L @ q),
                                   minkowski_form(p, q), atol=1e-12)
        assert abs(abs(np.linalg.det(L)) - 1.0) < 1e-12


def test_boost_inverse_and_scaled_inverse():
    bp = BoostParam(0.7, (0.0, 1.0, 0.0))
    L = boost_matrix(bp)
    Linv = boost_matrix(BoostParam(-0.7, (0.0, 1.0, 0.0)))
    np.testing.assert_allclose(Linv @ L, np.eye(4), atol=1e-13)
    Ls = boost_matrix(bp, scaled=True)
    Ls_inv = boost_matrix(BoostParam(-0.7, (0.0, 1.0, 0.0)), scaled=True) / (1 - 0.49)
    np.testing.assert_allclose(Ls_inv @ Ls, np.eye(4), atol=1e-13)


def test_boost_maps_surface_to_surface():
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = rng.uniform(0.0, 5.0)
        w = rng.normal(size=3)
        w /= np.linalg.norm(w)
        p = np.concatenate([np.sqrt(u * u + 1.0) * w, [u * rng.choice([-1, 1])]])
        np.testing.assert_allclose(minkowski_form(p, p), -1.0, atol=1e-12)
        q = boost(BoostParam(0.8, (0.2, -0.5, 0.6)), p)
        np.testing.assert_allclose(minkowski_form(q, q), -1.0, atol=1e-11)


def test_rotation_to_axis_edge_cases():
    np.testing.assert_allclose(rotation_to_axis([1, 0, 0]), np.eye(3), atol=0)
    R = rotation_to_axis([-1, 0, 0])
    np.testing.assert_allclose(R @ np.array([1.0, 0, 0]), [-1, 0, 0], atol=1e-14)
    np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-14)


# ---- caps ----

def test_cap_measure_degenerate_and_cone():
    c = CapSpec(0.0, 1.0, 3.0, np.pi)
    np.testing.assert_allclose(cap_measure(c), 2 * np.pi * (9.0 - 1.0), rtol=1e-13)
    tiny = CapSpec(1.0, 2.0, 2.0 + 1e-12, 0.7)
    assert cap_measure(tiny) < 1e-10


def test_cap_measure_rescaling_exact():
    # measure under the joint (radius, mass) dilation scales by t^2
    base = CapSpec(0.5, 1.0, 2.0, 0.8)
    m = cap_measure(base)
    for t in [0.5, 2.0, 7.0]:
        scaled = CapSpec(0.5 * t, t, 2.0 * t, 0.8)
        np.testing.assert_allclose(cap_measure(scaled), t * t * m, rtol=1e-12)


def test_cap_measure_additivity_and_monotonicity():
    a = cap_measure(CapSpec(1.0, 1.5, 2.5, 0.6))
    b = cap_measure(CapSpec(1.0, 2.5, 4.0, 0.6))
    ab = cap_measure(CapSpec(1.0, 1.5, 4.0, 0.6))
    np.testing.assert_allclose(a + b, ab, rtol=1e-13)
    assert cap_measure(CapSpec(1.0, 1.5, 2.5, 0.8)) > a
    assert cap_measure(CapSpec(1.0, 1.5, 3.0, 0.6)) > a


def test_cap_measure_vs_quadrature():
    from hyperconv.quadrature import integrate
    c = CapSpec(0.7, 1.0, 3.0, 1.1)
    res = integrate(lambda r: r * r / np.sqrt(r * r - c.s ** 2), c.a, c.b,
                    QuadratureSpec(rel_tol=1e-12))
    np.testing.assert_allclose(cap_measure(c), c.spherical_area * res.value,
                               rtol=1e-10)


def test_normalize_cap_small_angle_uses_cos():
    eps = np.pi / 6
    c = CapSpec(0.05, 1.0, 2.0, eps)
    bp, report = normalize_cap(c)
    np.testing.assert_allclose(bp.t, np.cos(eps), rtol=1e-15)
    assert report["pass"]
    assert report["measure"] >= np.pi / (1 + np.cos(eps)) - 1e-12
    assert report["radial_min"] >= 7 / 16 and report["radial_max"] <= 33 / 16


def test_normalize_cap_wide_angle_uses_zero():
    c = CapSpec(0.05, 1.0, 2.0, 0.4 * np.pi)
    bp, report = normalize_cap(c)
    assert bp.t == 0.0
    assert report["pass"]


def test_normalize_cap_rejections_name_hypothesis():
    with pytest.raises(PreconditionError) as e:
        normalize_cap(CapSpec(0.7, 1.0, 2.0, 0.5))
    assert "s <= 1/2" in str(e.value)
    with pytest.raises(PreconditionError) as e:
        normalize_cap(CapSpec(0.3, 1.0, 2.0, 0.05))
    assert "sin(eps)^2" in str(e.value)
    with pytest.raises(PreconditionError) as e:
        normalize_cap(CapSpec(0.05, 1.0, 3.0, 0.5))
    assert "radial band" in str(e.value)
    with pytest.raises(PreconditionError):
        normalize_cap(CapSpec(0.05, 1.0, 2.0, 0.8 * np.pi))


@pytest.mark.parametrize("eps", [0.0, 1e-9])
def test_normalize_cap_names_eps_when_the_boost_would_reach_one(eps):
    # at s = 0 every other hypothesis holds, but t = cos(eps) rounds to 1
    # and the boost would divide by 1 - t^2 = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match=r"eps > 0.*eps = "):
            normalize_cap(CapSpec(0.0, 1.0, 2.0, eps))


def test_dyadic_asymptotics():
    exact, asym, ratio = dyadic_cap_asymptotics(1.0, 12, 0.3)
    assert abs(ratio - 1.0) <= 1e-3
    np.testing.assert_allclose(dyadic_log_term(20), np.log(2.0), rtol=1e-9)
    exact0, asym0, ratio0 = dyadic_cap_asymptotics(1.0, 3, 0.0)
    assert exact0 == 0.0 and asym0 == 0.0 and np.isnan(ratio0)


def test_bounded_ball_certificate():
    # first-coordinate bound carries the +3s tip-defect correction: at the
    # dyadic band start r = s 2^k the term r(1 - sqrt(1-(s/r)^2)) reaches 2s
    # for k = 0, so the widely quoted "+s" form fails there
    for (s, k, eps) in [(1.0, 2, 0.4), (0.5, 4, 0.2), (2.0, 3, 1.0), (1.0, 0, 0.0)]:
        radius, report = bounded_ball_certificate(s, k, eps)
        assert report["x1_ok"], (s, k, eps, report)
        assert report["perp_ok"], (s, k, eps, report)
        assert report["ball_ok"], (s, k, eps, report)
        assert np.isfinite(radius)


# ---- measure invariance ----

def test_invariance_identity_exact():
    f = GaussianTest()
    lhs, rhs, rel = lorentz_invariance_check(f, np.eye(4),
                                             QuadratureSpec(rel_tol=1e-8))
    assert lhs == rhs
    assert rel == 0.0


def test_invariance_under_boosts():
    f = GaussianTest(alpha=0.6, beta=0.25, gamma_t=0.15)
    for t in (0.3, 0.6, 0.9):
        lhs, rhs, rel = lorentz_invariance_check(
            f, BoostParam(t, (0.3, -0.2, 0.93)), QuadratureSpec(rel_tol=1e-8))
        assert rel <= 1e-6, (t, lhs, rhs, rel)


def test_invariance_under_rotation_tighter():
    f = GaussianTest(alpha=0.6, beta=0.25, gamma_t=0.15)
    R = np.eye(4)
    R[:3, :3] = rotation_to_axis([0.0, 1.0, 0.0])
    lhs, rhs, rel = lorentz_invariance_check(f, R, QuadratureSpec(rel_tol=1e-9))
    assert rel <= 1e-10


def test_unconverged_surface_integral_returns_its_last_value_and_an_infinite_error(monkeypatch):
    # a small first resolution keeps all five small (the default one needs
    # 0.6 GB at the fifth); an integrand that grows with each evaluation
    # never settles
    monkeypatch.setattr(lorentz, "SURFACE_NODES", (4, 2, 4))
    calls = []

    def drifting(x, t):
        calls.append(1)
        return np.full(t.shape, float(len(calls)))

    value, error = surface_integral(drifting)
    assert error == np.inf
    assert len(calls) == 10  # five resolutions, two sheets each
    # the value is the fifth resolution's, with 19 u nodes: sheets worth 9 and 10
    u, wu = gauss_legendre_nodes(0.0, 12.0, 19)
    np.testing.assert_allclose(value, (9 + 10) * 4.0 * np.pi * np.sum(wu * phi(u, 1.0)),
                               rtol=1e-12)


def test_invariance_check_raises_when_a_surface_integral_does_not_converge(monkeypatch):
    monkeypatch.setattr(lorentz, "surface_integral", lambda *args, **kwargs: (1.0, np.inf))
    with pytest.raises(RuntimeError, match="did not converge at the resolution cap"):
        lorentz_invariance_check(GaussianTest(), BoostParam(0.3))
