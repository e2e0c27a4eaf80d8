"""Bad scalar inputs fail at the boundary with a ValueError that names the parameter."""
import numpy as np
import pytest

from hyperconv import montecarlo
from hyperconv.closedforms import (ConvPoint, exp_weighted_conv, mu_cone_conv_sup,
                                   mu_self_conv_sup, mu_self_conv_sup_exact)
from hyperconv.comparison import I_of_a, II_of_a, ratio_scan
from hyperconv.extremizer import dyadic_shell_values, shell_pair_norm_sq, tail_bound_check
from hyperconv.lorentz import bounded_ball_certificate, dyadic_log_term
from hyperconv.montecarlo import BumpSpec, mc_pairing_oracle
from hyperconv.profiles import RadialProfile, shell_indicator
from hyperconv.quadrature import split_exp_tail

nan, inf = np.nan, np.inf
F = np.ones(10)
F_NAN, F_INF = np.where(np.arange(10) == 3, nan, F), np.where(np.arange(10) == 3, inf, F)


CASES = {
    "I_of_a(nan)": (lambda: I_of_a(nan), "decay rate a"),
    "I_of_a(inf)": (lambda: I_of_a(inf), "decay rate a"),
    "II_of_a(nan)": (lambda: II_of_a(nan), "decay rate a"),
    "II_of_a(inf)": (lambda: II_of_a(inf), "decay rate a"),
    "ratio_scan(a_max=inf)": (lambda: ratio_scan(0.1, inf, 3), "a_max"),
    "ratio_scan(steps=0)": (lambda: ratio_scan(0.1, 0.2, 0), "steps"),
    "mu_self_conv_sup(tau=nan)": (lambda: mu_self_conv_sup(1.0, nan), "tau"),
    "mu_self_conv_sup_exact(tau=nan)": (lambda: mu_self_conv_sup_exact(1.0, nan), "tau"),
    "mu_cone_conv_sup(tau=nan)": (lambda: mu_cone_conv_sup(1.0, nan), "tau"),
    "mu_cone_conv_sup(tau=inf)": (lambda: mu_cone_conv_sup(1.0, inf), "tau"),
    "mu_self_conv_sup(s=-1)": (lambda: mu_self_conv_sup(-1.0, 1.0), "mass parameter s"),
    "mu_self_conv_sup_exact(s=nan)": (lambda: mu_self_conv_sup_exact(nan, 1.0),
                                      "mass parameter s"),
    "mu_cone_conv_sup(s=nan)": (lambda: mu_cone_conv_sup(nan, 1.0), "mass parameter s"),
    "exp_weighted_conv(a=nan)": (lambda: exp_weighted_conv(nan, ConvPoint(1.0, 1.3, 2.7)),
                                 "decay rate a"),
    "split_exp_tail(nan)": (lambda: split_exp_tail(nan), "a_rate"),
    "split_exp_tail(inf)": (lambda: split_exp_tail(inf), "a_rate"),
    "tail_bound_check(a=nan)": (lambda: tail_bound_check(nan, shell_indicator(2.0, 6.0, 1.0)),
                                "a"),
    "shell_pair_norm_sq(i0_f=1.5)": (lambda: shell_pair_norm_sq(1.0, 0.1, 1.5, F, 0, F), "i0_f"),
    "shell_pair_norm_sq(F with nan)": (lambda: shell_pair_norm_sq(1.0, 0.1, 0, F_NAN, 0, F), "F"),
    "shell_pair_norm_sq(F with inf)": (lambda: shell_pair_norm_sq(1.0, 0.1, 0, F_INF, 0, F), "F"),
    "shell_pair_norm_sq(G with nan)": (lambda: shell_pair_norm_sq(1.0, 0.1, 0, F, 4, F_NAN), "G"),
    "shell_pair_norm_sq(F 2-D)": (lambda: shell_pair_norm_sq(1.0, 0.1, 0, F.reshape(2, 5), 0, F),
                                  "F"),
    "shell_pair_norm_sq(F scalar)": (lambda: shell_pair_norm_sq(1.0, 0.1, 0, 1.0, 0, F), "F"),
    "dyadic_shell_values(k=2.5)": (lambda: dyadic_shell_values(1.0, 2.5, 0.01), "k"),
    "dyadic_shell_values(k=-1)": (lambda: dyadic_shell_values(1.0, -1, 0.01), "k"),
    "dyadic_shell_values(delta=-0.1)": (lambda: dyadic_shell_values(1.0, 1, -0.1), "delta"),
    "dyadic_shell_values(delta=nan)": (lambda: dyadic_shell_values(1.0, 1, nan), "delta"),
    "dyadic_shell_values(s=nan)": (lambda: dyadic_shell_values(nan, 1, 0.01), "mass parameter s"),
    "dyadic_shell_values(s=0)": (lambda: dyadic_shell_values(0.0, 1, 0.01), "mass parameter s"),
    "bounded_ball_certificate(k=-1)": (lambda: bounded_ball_certificate(1.0, -1, 0.3), "k"),
    "bounded_ball_certificate(k=2.5)": (lambda: bounded_ball_certificate(1.0, 2.5, 0.3), "k"),
    "dyadic_log_term(-1)": (lambda: dyadic_log_term(-1), "k"),
    "dyadic_log_term(2.5)": (lambda: dyadic_log_term(2.5), "k"),
}


@pytest.mark.parametrize("call, name", CASES.values(), ids=CASES.keys())
def test_bad_scalar_is_named(call, name):
    # each of these used to return nan, a silently truncated result, or a late
    # error that named no parameter (for dyadic shells, "grid too coarse")
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        call()


@pytest.mark.parametrize("name", ["n_samples"])
def test_mc_pairing_oracle_refuses_an_empty_count(monkeypatch, name):
    # n_samples = 0 divided by zero
    def no_sampling(*args):
        raise AssertionError("points were sampled")

    monkeypatch.setattr(montecarlo, "_uniform_sphere", no_sampling)
    f = RadialProfile(1.0, np.linspace(1.0, 3.0, 20), np.ones(20))
    bump = BumpSpec(rho0=1.0, tau0=1.5, w_rho=0.5, w_tau=0.5)
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        mc_pairing_oracle(f, f, bump, **{name: 0})
