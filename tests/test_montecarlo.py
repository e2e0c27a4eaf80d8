import numpy as np
import pytest

from hyperconv.closedforms import branch_curves, mu_self_conv_grid
from hyperconv.montecarlo import (BumpSpec, mc_pairing_oracle,
                                  pairing_quadrature, smooth_bump)
from hyperconv import profiles
from hyperconv.profiles import RadialProfile
from hyperconv.quadrature import QuadratureSpec

N_MC = 400_000


def ones(s, r_lo, r_hi, n=200):
    grid = np.linspace(r_lo, r_hi, n)
    return RadialProfile(s, grid, np.ones(n))


def test_smooth_bump_shape():
    assert smooth_bump(0.0) == 1.0
    assert smooth_bump(1.0) == 0.0
    assert smooth_bump(-2.0) == 0.0
    assert 0 < smooth_bump(0.5) < 1


def test_smooth_bump_is_the_profiles_bump():
    assert smooth_bump is profiles.smooth_bump


@pytest.mark.parametrize("oracle", [
    lambda bump: pairing_quadrature(lambda rho, tau: mu_self_conv_grid(1.0, rho, tau),
                                    bump, QuadratureSpec()),
    lambda bump: mc_pairing_oracle(ones(1.0, 1.0, 3.0), ones(1.0, 1.0, 3.0), bump,
                                   n_samples=1000)], ids=["quadrature", "monte_carlo"])
def test_misspelt_bump_kind_is_rejected(oracle):
    # pairing_quadrature never calls the bump, so "axial-odd" used to pair
    # as a radial bump (152.26 where an odd bump pairs to 0)
    with pytest.raises(ValueError, match="kind must be one of"):
        oracle(BumpSpec(2.0, 3.0, 0.5, 0.5, "axial-odd"))


def test_mc_agrees_with_closed_form_pairing():
    # support-interior bump, f = g = 1: the pairing against the exact
    # self-convolution density is the independence check for the kernel
    s = 1.0
    f = ones(s, 1.0, 12.0)
    bump = BumpSpec(rho0=1.5, tau0=3.0, w_rho=0.6, w_tau=0.8)
    spec = QuadratureSpec(seed=71)
    est, err = mc_pairing_oracle(f, f, bump, spec, n_samples=N_MC)
    want = pairing_quadrature(
        lambda rho, tau: mu_self_conv_grid(s, rho, tau), bump, spec,
        breakpoints=lambda tau: list(branch_curves(s, tau)))
    assert err > 0
    assert abs(est - want) <= 3.0 * err


def test_mc_outside_support_is_zero():
    s = 1.0
    f = ones(s, 1.0, 3.0)
    # tau < 0 region: outside the support of any self convolution
    bump = BumpSpec(rho0=1.0, tau0=-3.0, w_rho=0.5, w_tau=0.5)
    est, err = mc_pairing_oracle(f, f, bump, QuadratureSpec(seed=5),
                                 n_samples=100_000)
    assert est == 0.0 and err == 0.0


def test_mc_antisymmetric_bump_vanishes():
    s = 1.0
    f = ones(s, 1.0, 6.0)
    bump = BumpSpec(rho0=1.2, tau0=2.0, w_rho=0.8, w_tau=0.8, kind="axial_odd")
    est, err = mc_pairing_oracle(f, f, bump, QuadratureSpec(seed=9),
                                 n_samples=N_MC)
    assert err > 0
    assert abs(est) <= 3.0 * err
    assert pairing_quadrature(lambda rho, tau: mu_self_conv_grid(s, rho, tau),
                              bump, QuadratureSpec()) == 0.0


def test_mc_deterministic_given_seed():
    s = 1.0
    f = ones(s, 1.0, 4.0)
    bump = BumpSpec(rho0=1.0, tau0=1.5, w_rho=0.5, w_tau=0.5)
    a = mc_pairing_oracle(f, f, bump, QuadratureSpec(seed=33), n_samples=50_000)
    b = mc_pairing_oracle(f, f, bump, QuadratureSpec(seed=33), n_samples=50_000)
    assert a == b
    c = mc_pairing_oracle(f, f, bump, QuadratureSpec(seed=34), n_samples=50_000)
    assert a != c
