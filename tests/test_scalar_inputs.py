"""Bad scalar inputs fail at the boundary with a ValueError that names the parameter.

Inputs at the edge of a routine's domain (tau = 0, rho = 0, s = 0, an empty
interval) return the routine's exact edge value.
"""
import os

import numpy as np
import pytest

from hyperconv import montecarlo
from hyperconv.closedforms import (ConvPoint, exp_weighted_conv, mu_cone_conv_sup,
                                   mu_self_conv, mu_self_conv_casewise, mu_self_conv_sup,
                                   mu_self_conv_sup_exact, support_predicate)
from hyperconv.comparison import I_of_a, II_of_a, ratio_scan
from hyperconv.convolution import cross_conv, hyperbolic_conv, self_window, sphere_pair_kernel
from hyperconv.engine import SliceEngine
from hyperconv.extremizer import (AscentResult, SheetPair, cone_limit_scan, dyadic_pieces,
                                  dyadic_refinement_check, dyadic_shell_values,
                                  even_pair_certificate, q_ratio, shell_pair_norm_sq,
                                  tail_bound_check)
from hyperconv.fields import Conv2DField
from hyperconv.lorentz import (BoostParam, CapSpec, bounded_ball_certificate, cap_measure,
                               dyadic_log_term, rotation_to_axis)
from hyperconv.montecarlo import BumpSpec, mc_pairing_oracle
from hyperconv.norms import field_inner_product
from hyperconv.profiles import RadialProfile, shell_indicator
from hyperconv.quadrature import QuadResult, simpson_adaptive, split_exp_tail

nan, inf = np.nan, np.inf
F = np.ones(10)
F_NAN, F_INF = np.where(np.arange(10) == 3, nan, F), np.where(np.arange(10) == 3, inf, F)
SHELL = shell_indicator(1.0, 2.0, 1.0, n=20)
SHELL_HALF = RadialProfile(0.5, SHELL.grid, SHELL.values)
AXIS_PROFILE = RadialProfile(0.0, np.linspace(0.0, 1.0, 5), np.ones(5))  # nonzero at r = 0
FIELD = Conv2DField.template(1.0, -1.0, 1.0, 3, 4)
BUMP = BumpSpec(rho0=1.0, tau0=1.5, w_rho=0.5, w_tau=0.5)
ZERO = RadialProfile(1.0, SHELL.grid, np.zeros(SHELL.grid.size))
SHELL_RESULT = AscentResult(profile=SHELL, q_star=1.0, q_refined=1.0, trial_best_a=1.0,
                            trial_best_q=1.0, trace=[], restarts=[], stagnated=False)


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
    "sphere_pair_kernel(R=0)": (lambda: sphere_pair_kernel(0.0, 1.0, 1.0), "R"),
    "sphere_pair_kernel(R2=-1)": (lambda: sphere_pair_kernel(1.0, -1.0, 1.0), "R2"),
    "hyperbolic_conv(g.s)": (lambda: hyperbolic_conv(SHELL, SHELL_HALF, FIELD),
                             "g.s"),
    "cross_conv(f_minus.s)": (lambda: cross_conv(SHELL, SHELL_HALF, FIELD),
                              "f_minus.s"),
    "mc_pairing_oracle(g.s)": (lambda: mc_pairing_oracle(SHELL, SHELL_HALF, BUMP), "g.s"),
    "dyadic_shell_values(delta too coarse)": (lambda: dyadic_shell_values(1.0, 0, 0.5), "delta"),
    "tail_bound_check(f_tail.s=0.5)": (lambda: tail_bound_check(2.0, SHELL_HALF), "f_tail.s"),
    "Conv2DField(rho_grid 2-D)": (lambda: Conv2DField(np.ones((2, 2)), [0.0, 1.0], np.ones((4, 2))),
                                  "rho_grid"),
    "Conv2DField(tau_grid not increasing)": (
        lambda: Conv2DField([0.0, 1.0], [0.0, 1.0, 1.0], np.ones((2, 3))), "tau_grid"),
    # n_rho = 2.5 failed inside numpy, cusp n_rho = 1 raised IndexError and
    # n_tau = 0 returned an empty field
    "Conv2DField.template(n_rho=2.5)": (lambda: Conv2DField.template(1.0, -1.0, 1.0, 2.5, 4),
                                        "n_rho"),
    "Conv2DField.template(n_rho=0)": (lambda: Conv2DField.template(1.0, -1.0, 1.0, 0, 4),
                                      "n_rho"),
    "Conv2DField.template(n_tau=0)": (lambda: Conv2DField.template(1.0, -1.0, 1.0, 3, 0),
                                      "n_tau"),
    "Conv2DField.template(n_tau=True)": (lambda: Conv2DField.template(1.0, -1.0, 1.0, 3, True),
                                         "n_tau"),
    "Conv2DField.template(rho_max=0)": (lambda: Conv2DField.template(0.0, -1.0, 1.0, 3, 4),
                                        "rho_max"),
    "Conv2DField.template(rho_max=inf)": (lambda: Conv2DField.template(inf, -1.0, 1.0, 3, 4),
                                          "rho_max"),
    "Conv2DField.template(tau_min=nan)": (lambda: Conv2DField.template(1.0, nan, 1.0, 3, 4),
                                          "tau_min"),
    "Conv2DField.template(tau_max=inf)": (lambda: Conv2DField.template(1.0, -1.0, inf, 3, 4),
                                          "tau_max"),
    "Conv2DField.template(tau_max=tau_min)": (lambda: Conv2DField.template(1.0, 1.0, 1.0, 3, 4),
                                              "tau_max"),
    "Conv2DField.cusp_refined_template(n_rho=1)": (
        lambda: Conv2DField.cusp_refined_template(1.0, 1.0, -1.0, 1.0, 1, 4), "n_rho"),
    "Conv2DField.cusp_refined_template(n_tau=2.5)": (
        lambda: Conv2DField.cusp_refined_template(1.0, 1.0, -1.0, 1.0, 3, 2.5), "n_tau"),
    "Conv2DField.cusp_refined_template(rho_max=-1)": (
        lambda: Conv2DField.cusp_refined_template(1.0, -1.0, -1.0, 1.0, 3, 4), "rho_max"),
    "Conv2DField.cusp_refined_template(tau_min=inf)": (
        lambda: Conv2DField.cusp_refined_template(1.0, 1.0, inf, 1.0, 3, 4), "tau_min"),
    "Conv2DField.cusp_refined_template(tau_max < tau_min)": (
        lambda: Conv2DField.cusp_refined_template(1.0, 1.0, 1.0, -1.0, 3, 4), "tau_max"),
    "Conv2DField.cusp_refined_template(s=nan)": (
        lambda: Conv2DField.cusp_refined_template(nan, 1.0, -1.0, 1.0, 3, 4), "mass parameter s"),
    "rotation_to_axis(0)": (lambda: rotation_to_axis([0.0, 0.0, 0.0]), "axis"),
    "CapSpec(eps=4)": (lambda: CapSpec(1.0, 1.0, 2.0, 4.0), "eps"),
    "RadialProfile(one node)": (lambda: RadialProfile(1.0, [1.0], [1.0]), "grid"),
    "RadialProfile(grid not increasing)": (lambda: RadialProfile(1.0, [2.0, 1.5], [1.0, 1.0]),
                                           "grid"),
    "even_pair_certificate(engine_n=4)": (lambda: even_pair_certificate(SHELL_RESULT, engine_n=4),
                                          "engine_n"),
}

# bad inputs whose message names the condition rather than reading "<name> must be"
# (a lorentz.PreconditionError is a ValueError)
MESSAGES = {
    "ConvPoint(rho=-1)": (lambda: ConvPoint(1.0, -1.0, 1.0), r"rho = \|xi\| must be nonnegative"),
    "support_predicate(kind)": (lambda: support_predicate(ConvPoint(1.0, 1.0, 1.0), "box"),
                                "unknown kind 'box'"),
    "SliceEngine.q_gradient(0)": (lambda: SliceEngine(1.0, 64, 3.0).q_gradient(np.zeros(64)),
                                  "zero L2 norm"),
    "SheetPair(mass)": (lambda: SheetPair(SHELL, SHELL_HALF), "sheets must share the mass"),
    "SheetPair(grid)": (lambda: SheetPair(SHELL, shell_indicator(1.0, 3.0, 1.0, n=20)),
                        "sheets must share the radial grid"),
    "dyadic_pieces(mass at r = 0)": (lambda: dyadic_pieces(AXIS_PROFILE), "f must vanish at r = 0"),
    "tail_bound_check(support)": (lambda: tail_bound_check(5.0, shell_indicator(2.0, 6.0, 1.0)),
                                  r"profile must be supported in \|y\| >= a"),
    "cone_limit_scan(mass at r = 0)": (lambda: cone_limit_scan(AXIS_PROFILE, [0.1]),
                                       "profile must vanish near the origin"),
    "cone_limit_scan(s beyond support)": (lambda: cone_limit_scan(SHELL_HALF, [1.5]),
                                          "every s in s_list must stay below the support"),
    "Conv2DField(rho < 0)": (lambda: Conv2DField([-1.0, 1.0], [0.0, 1.0], np.ones((2, 2))),
                             "rho grid must be nonnegative"),
    "Conv2DField(values shape)": (lambda: Conv2DField([0.0, 1.0], [0.0, 1.0], np.ones((2, 3))),
                                  r"values must have shape \(n_rho, n_tau\)"),
    "Conv2DField.to_binary(complex)": (lambda: FIELD.like(FIELD.values + 1j).to_binary(os.devnull),
                                       "binary cache stores real-valued fields only"),
    "Conv2DField.from_binary(empty)": (lambda: Conv2DField.from_binary(os.devnull),
                                       "not a H3CF field cache"),
    "BoostParam(t=1)": (lambda: BoostParam(1.0), r"boost parameter must satisfy \|t\| < 1"),
    "CapSpec(a < s)": (lambda: CapSpec(1.0, 0.5, 2.0, 0.3), "need s <= a < b"),
    "cap_measure(b=inf)": (lambda: cap_measure(CapSpec(1.0, 1.0, inf, 0.3)),
                           "cap measure requires b < infinity"),
    "bounded_ball_certificate(eps=2)": (lambda: bounded_ball_certificate(1.0, 1, 2.0),
                                        r"eps in \[0, pi/2\]"),
    "field_inner_product(grids)": (lambda: field_inner_product(FIELD, Conv2DField.template(
        1.0, -1.0, 1.0, 3, 5)), "fields must share grids"),
    "RadialProfile(grid below s)": (lambda: RadialProfile(1.0, [0.5, 2.0], [1.0, 1.0]),
                                    r"grid radii must be >= s = 1\.0"),
    # both nodes map to the time u = 0, where the interpolant in u has no width
    "RadialProfile(node times not increasing)": (
        lambda: RadialProfile(1.0, [1.0 - 1e-13, 1.0, 2.0], [1.0, 1.0, 1.0]),
        r"^grid must be strictly increasing, and so must its node times psi\(grid, s\)"),
    # radii whose squares underflow give one node time, an empty time support
    "RadialProfile(node times underflow)": (
        lambda: RadialProfile(0.0, [1e-200, 2e-200], [1.0, 1.0]),
        r"^grid must be strictly increasing, and so must its node times"),
    "RadialProfile(values shape)": (lambda: RadialProfile(1.0, [1.0, 2.0], [1.0]),
                                    "values must match grid shape"),
    "RadialProfile(values nan)": (lambda: RadialProfile(1.0, [1.0, 2.0], [1.0, nan]),
                                  "profile values must be finite"),
    "shell_indicator(lo < s)": (lambda: shell_indicator(0.5, 2.0, 1.0), "need s <= lo < hi"),
    "q_ratio(zero)": (lambda: q_ratio(ZERO), "^f must not be a zero profile"),
    "dyadic_refinement_check(zero)": (lambda: dyadic_refinement_check(ZERO),
                                      "^f must not be a zero profile"),
}

# the exact value at the edge of each routine's domain
EDGE_VALUES = {
    "mu_self_conv_casewise(tau=0)": (lambda: mu_self_conv_casewise(1.0, 0.5, 0.0), 0.0),
    "mu_self_conv_casewise(rho=0)": (lambda: mu_self_conv_casewise(0.5, 0.0, 0.3),
                                     mu_self_conv(ConvPoint(0.5, 0.0, 0.3))),
    "mu_cone_conv_sup(s=0)": (lambda: mu_cone_conv_sup(0.0, 1.0), 2.0 * np.pi),
    "mu_cone_conv_sup(s=0, tau=0)": (lambda: mu_cone_conv_sup(0.0, 0.0), 0.0),
    "mu_cone_conv_sup(tau=0)": (lambda: mu_cone_conv_sup(1.0, 0.0), 0.0),
    "self_window(tau=0)": (lambda: self_window(1.0, 1.0, 0.0), []),
    "simpson_adaptive(b = a)": (lambda: simpson_adaptive(np.exp, 1.0, 1.0),
                                QuadResult(0.0, 0.0, True)),
}


@pytest.mark.parametrize("call, name", CASES.values(), ids=CASES.keys())
def test_bad_scalar_is_named(call, name):
    # each of these used to return nan, a silently truncated result, or a late
    # error that named no parameter (for dyadic shells, "grid too coarse")
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        call()


@pytest.mark.parametrize("call, match", MESSAGES.values(), ids=MESSAGES.keys())
def test_bad_input_names_the_condition(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("call, expected", EDGE_VALUES.values(), ids=EDGE_VALUES.keys())
def test_domain_edge_returns_its_exact_value(call, expected):
    assert call() == expected


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
