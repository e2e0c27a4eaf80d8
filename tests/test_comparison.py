import numpy as np
import pytest

from hyperconv.comparison import (CONE_CONSTANT, D3_LIMIT, I_LIMIT, II_LIMIT,
                                  ND_DERIVATIVE_LIMIT, I_of_a, II_of_a,
                                  asymptotic_integral_suite, closing_integral,
                                  derivative_limits, exact_log_identity_gap,
                                  full_numerator, masked_numerator, nd_ratio,
                                  ratio_of_a, ratio_scan)
from hyperconv.norms import lp_norm
from hyperconv.profiles import trial_profile
from hyperconv.quadrature import QuadratureError, QuadratureSpec


def test_small_a_limits():
    a = 1e-3
    np.testing.assert_allclose(a ** 4 * I_of_a(a), I_LIMIT, rtol=1e-3)
    np.testing.assert_allclose(a ** 4 * II_of_a(a), II_LIMIT, rtol=1e-3)
    assert abs(ratio_of_a(a) - CONE_CONSTANT) <= 0.02 * CONE_CONSTANT


def test_I_monotone_decreasing():
    grid = np.linspace(0.05, 2.0, 15)
    vals = [I_of_a(a) for a in grid]
    assert np.all(np.diff(vals) < 0)


def test_dual_rule_agreement():
    gk = QuadratureSpec(rule="gk", rel_tol=1e-12)
    simpson = QuadratureSpec(rule="simpson", rel_tol=1e-12)
    for a in (0.05, 0.3, 1.0):
        np.testing.assert_allclose(I_of_a(a, gk), I_of_a(a, simpson), rtol=1e-9)
        np.testing.assert_allclose(II_of_a(a, gk), II_of_a(a, simpson), rtol=1e-10)


@pytest.mark.parametrize("integral", [I_of_a, II_of_a])
def test_spec_rule_is_honoured(integral):
    # a Simpson spec used to run Gauss-Kronrod: only its rel_tol was read
    gk = QuadratureSpec(rule="gk", rel_tol=1e-12)
    simpson = QuadratureSpec(rule="simpson", rel_tol=1e-12)
    assert integral(0.3) == integral(0.3, gk)
    assert integral(0.3, simpson) != integral(0.3, gk)


def test_II_matches_profile_norm():
    # II(a) = ||f_a||_2^4 with the norm computed through the profile stack
    a = 1.0
    f = trial_profile(a, 1.0, r_max=70.0, n=16000)
    np.testing.assert_allclose(lp_norm(f, 2.0) ** 4, II_of_a(a), rtol=1e-5)


def test_masked_numerator_equals_I():
    # same quantity through the closed-form density branches
    for a in (0.3, 1.0):
        np.testing.assert_allclose(masked_numerator(a), I_of_a(a), rtol=1e-7)


def test_full_numerator_dominates_I():
    for a in (0.1, 0.3, 1.0):
        assert full_numerator(a) > I_of_a(a)


def test_ratio_scan_structure_and_crossing():
    samples, summary = ratio_scan(0.005, 0.25, 50)
    assert len(samples) == 50
    margins = np.array([s.margin for s in samples])
    # adjacent-sample continuity (smoothness of the integrals)
    ratios = np.array([s.ratio for s in samples])
    assert np.max(np.abs(np.diff(ratios)) / ratios[:-1]) < 0.05
    # the ratio is above the cone constant on most of the range but crosses
    # below it near a ~ 0.2385, so the last rows are flagged
    assert margins[0] > 0 and margins.max() > 0
    assert summary["failures"], "expected the known >2pi failures near a=0.25"
    assert all(a >= 0.238 for a in summary["failures"])
    assert not summary["pass"]
    # restricted to a <= 0.235 every margin is positive
    sub, sub_summary = ratio_scan(0.005, 0.235, 47)
    assert sub_summary["pass"]


def test_ratio_scan_validation():
    with pytest.raises(ValueError):
        ratio_scan(0.1, 0.05, 10)


def test_nd_ratio_definition():
    a = 1e-3
    np.testing.assert_allclose(nd_ratio(a), ratio_of_a(a ** (1 / 3)), rtol=1e-12)


def test_derivative_limits_report():
    rep = derivative_limits()
    assert abs(rep["ratio"]["value"] - CONE_CONSTANT) <= 0.02 * CONE_CONSTANT
    assert abs(rep["d1"]["value"]) <= 0.05 * CONE_CONSTANT
    assert abs(rep["d2"]["value"]) <= 0.05 * CONE_CONSTANT
    assert abs(rep["d3"]["value"] - D3_LIMIT) <= 0.2 * D3_LIMIT
    nd = rep["nd_derivative"]
    assert abs(nd["value"] - ND_DERIVATIVE_LIMIT) <= 0.05 * ND_DERIVATIVE_LIMIT
    assert abs(nd["smallest_sample"] - ND_DERIVATIVE_LIMIT) <= 0.05 * ND_DERIVATIVE_LIMIT


def test_asymptotic_suite_all_pass():
    report = asymptotic_integral_suite()
    names = {e["name"] for e in report}
    assert len(report) == 9
    for entry in report:
        assert entry["pass"], entry
    ent = {e["name"]: e for e in report}
    assert abs(ent["inv_sqrt"]["log_coefficient"] + 1 / 3) < 0.02
    assert abs(ent["centered_log"]["limit_value"] + 1.0) < 1e-2


def test_exact_identity_and_closing_integral():
    assert exact_log_identity_gap(0.1) < 1e-9
    np.testing.assert_allclose(closing_integral(), 1.0, rtol=1e-8)


def test_full_numerator_raises_on_unreachable_tolerance():
    # the one tau integral reports the piece that misses its tolerance
    with pytest.raises(QuadratureError, match=r"\[0\.0, 1\.0\].*rel_tol=1e-17"):
        full_numerator(1.0, rel_tol=1e-17)


@pytest.mark.parametrize("oracle", [masked_numerator, full_numerator])
@pytest.mark.parametrize("kwargs, name", [
    ({"a": -1.0}, "decay rate a"), ({"a": 0.0}, "decay rate a"),
    ({"a": np.nan}, "decay rate a"), ({"a": np.inf}, "decay rate a"),
    ({"s": -1.0}, "mass parameter s"), ({"s": np.nan}, "mass parameter s")])
def test_density_oracles_name_a_bad_input(oracle, kwargs, name):
    # a < 0 used to integrate e^{+a tau}, and s < 0 returned a value
    with pytest.raises(ValueError, match=name):
        oracle(**({"a": 1.0} | kwargs))


def test_appendix_integral_raises_on_unreachable_tolerance():
    # a piece that misses its tolerance is reported, not added to the sum
    with pytest.raises(QuadratureError, match=r"\[0\.0, 0\.03\].*rel_tol=1e-17"):
        I_of_a(0.3, QuadratureSpec(rel_tol=1e-17))
