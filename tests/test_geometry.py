import numpy as np
import pytest

from hyperconv.geometry import check_mass, check_real, phi, psi


def test_round_trip_machine_precision():
    rng = np.random.default_rng(1)
    for s in [0.0, 0.5, 1.0, 2.0]:
        r = np.sort(rng.uniform(s, s + 50.0, 200))
        back = phi(psi(r, s), s)
        np.testing.assert_allclose(back, r, rtol=0, atol=1e-12 * (1 + r.max()))


def test_psi_phi_basic_values():
    assert psi(1.0, 1.0) == 0.0
    assert phi(0.0, 1.0) == 1.0
    assert psi(5.0, 0.0) == 5.0
    np.testing.assert_allclose(psi(np.sqrt(2.0), 1.0), 1.0, rtol=1e-15)


def test_mass_param_validation():
    assert check_mass(0) == 0.0
    assert check_mass(2.5) == 2.5
    with pytest.raises(ValueError):
        check_mass(-1.0)
    with pytest.raises(ValueError):
        check_mass(float("nan"))


def test_check_real_returns_a_float():
    assert check_real("x", np.float64(2.5), above=0.0) == 2.5
    assert type(check_real("x", 3, at_least=3)) is float
    assert check_real("x", -7.0) == -7.0


@pytest.mark.parametrize("kwargs, value, message", [
    ({"above": 0.0}, 0.0, "x must be finite and > 0, got 0.0"),
    ({"above": 1.5}, np.nan, "x must be finite and > 1.5, got nan"),
    ({"at_least": 1.0}, 0.5, "x must be finite and >= 1, got 0.5"),
    ({"at_least": 0.0}, np.inf, "x must be finite and >= 0, got inf"),
    ({}, -np.inf, "x must be finite, got -inf"),
    ({}, "two", "x must be finite, got two"),
    ({}, None, "x must be finite, got None")])
def test_check_real_names_the_parameter_and_its_bound(kwargs, value, message):
    with pytest.raises(ValueError) as err:
        check_real("x", value, **kwargs)
    assert str(err.value) == message
