"""The benchmark's workloads: inputs from a seed, one timed solve, oracle gates.

Each workload is three steps, and only ``solve`` is timed:

* ``setup(seed)`` builds the inputs (profiles, shell parameters);
* ``solve(inputs)`` makes one call into the public ``hyperconv`` API;
* ``check(inputs, output)`` runs after the solve and returns the accuracy
  metrics and the pass/fail gates, both from oracles outside the solve.

The seed draws the mass parameter ``s = TRIAL_RATIO**m`` with ``m`` in
``{-2, ..., 2}``, and every length of the inputs scales with ``s``. The
quartic functional is scale invariant and ``TRIAL_RATIO`` is the ratio of
the exponential trial family's default ``a`` grid, so each seed hands the
library a different input whose discrete problem is the same up to rounding
(and, for the ascent, up to its step-size rule). Timings and accuracy figures
of different seeds are therefore comparable.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import hyperconv.extremizer as extremizer
from hyperconv.engine import SliceEngine
from hyperconv.extremizer import CONE_Q, SheetPair
from hyperconv.fields import Conv2DField
from hyperconv.geometry import psi
from hyperconv.profiles import RadialProfile, shell_indicator

TRIAL_RATIO = 40.0 ** (1.0 / 39.0)  # geomspace(0.05, 2.0, 40) in trial_family_scan


def draw_mass(seed: int) -> float:
    """Mass parameter of a seed's inputs: TRIAL_RATIO**m, m in {-2, ..., 2}."""
    return float(TRIAL_RATIO ** random.Random(seed).randint(-2, 2))


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], dict]
    solve: Callable[[dict], object]
    check: Callable[[dict, object], tuple]
    gates: tuple
    layers: tuple      # span names that must appear inside the solve
    bypassed: tuple    # layer prefixes whose spans must not appear inside it
    reference: tuple   # calibration kernels shaped like the solve's hot loops


# ---- radial_ascent: SliceEngine numerator/gradient under maximize_radial ----

def radial_setup(seed: int) -> dict:
    s = draw_mass(seed)
    return {"s": s, "grid_size": 600, "r_max": 40.0 * s, "restarts": 1,
            "iters": 30, "seed": seed}


def radial_solve(inputs: dict):
    return extremizer.maximize_radial(**inputs)


def radial_check(inputs: dict, res):
    s = inputs["s"]
    oracle = SliceEngine(s, 1200, psi(inputs["r_max"], s))
    q_oracle = oracle.q_ratio(oracle.sample(res.profile))
    metrics = {
        "q_excess": res.q_star - CONE_Q,
        "q_refine_gap": abs(res.q_refined - res.q_star),
        "route_gap": abs(res.q_star / q_oracle - 1.0),
    }
    gates = {
        "q_star_above_cone": res.q_star > CONE_Q,
        "q_star_dominates_trial": res.q_star >= res.trial_best_q,
        "trace_monotone": bool(np.all(np.diff(res.trace) >= 0.0)),
    }
    return metrics, gates


# ---- pair_field: per-cell field sampler under full_q_ratio ----

# full_q_ratio's default template at about half its cells, so that a run
# holds several solves; HALF_NODES keeps every other node of it
PAIR_NODES = (113, 171)
PAIR_HALF_NODES = (57, 86)

def pair_setup(seed: int) -> dict:
    s = draw_mass(seed)
    f_plus = shell_indicator(1.2 * s, 2.4 * s, s, n=80, smooth=True)
    x = np.linspace(-1.0, 1.0, f_plus.grid.size)
    f_minus = RadialProfile(s, f_plus.grid, f_plus.values * (1.0 + 0.5 * x))
    pair = SheetPair(f_plus, f_minus)
    return {"pair": pair, "grid": pair_template(pair, *PAIR_NODES)}


def pair_solve(inputs: dict):
    return extremizer.full_q_ratio(inputs["pair"], grid=inputs["grid"])


def pair_template(pair: SheetPair, n_rho: int, n_tau: int) -> Conv2DField:
    """full_q_ratio's default template (161 x 243 nodes) at another node count."""
    s = pair.s
    u_hi = max(psi(pair.f_plus.r_max, s), psi(pair.f_minus.r_max, s))
    rho_hi = np.sqrt((2 * u_hi) ** 2 + s ** 2) + s
    return Conv2DField.template(rho_hi * 1.01, -2.02 * u_hi, 2.02 * u_hi,
                                n_rho, n_tau)


def pair_check(inputs: dict, out):
    qbar, br = out
    pair = inputs["pair"]
    f_plus = pair.f_plus
    oracle = SliceEngine(pair.s, 1600, psi(f_plus.r_max, pair.s))
    route_gap = abs(br["terms"]["upper_self"]
                    / oracle.numerator(oracle.sample(f_plus)) - 1.0)
    # every other node of the solve's template: a Richardson error bar
    qbar_half, _ = extremizer.full_q_ratio(pair, grid=pair_template(pair, *PAIR_HALF_NODES))
    metrics = {
        "q_excess": br["numerator"] / br["six_term_floor"] - 1.0,
        "q_refine_gap": abs(qbar - qbar_half) / 3.0,
        "route_gap": route_gap,
    }
    gates = {
        "expansion_gap": abs(br["expansion_gap"]) <= 1e-8 * br["numerator"],
        "six_term_floor": br["numerator"] >= br["six_term_floor"],
        "route_gap": route_gap <= 2e-3,
    }
    return metrics, gates


# ---- dyadic_scan: sparse shell-pair rows under bilinear_dyadic_scan ----

DYADIC_SLOPE_GATE = -0.2
ORACLE_PAIR = (1, 2)   # shell pair checked against the dense engine
COARSE_SHELLS = 4      # shells 0..3 hold the table's largest resolution gap


def dyadic_setup(seed: int) -> dict:
    return {"s": draw_mass(seed), "k_max": 4, "profile_kind": "bump",
            "nodes_per_shell": 32}


def dyadic_solve(inputs: dict):
    return extremizer.bilinear_dyadic_scan(**inputs)


def dense_pair_numerator(s: float, delta: float, shell_f, shell_g) -> float:
    """SliceEngine.numerator for two (start index, values) shells on one grid."""
    n = max(shell_f[0] + shell_f[1].size, shell_g[0] + shell_g[1].size) + 2
    engine = SliceEngine(s, n, (n - 1) * delta)
    dense = np.zeros((2, n))
    for row, (i0, vals) in zip(dense, (shell_f, shell_g)):
        row[i0:i0 + vals.size] = vals
    return engine.numerator(dense[0], dense[1])


def dyadic_check(inputs: dict, out):
    table, report = out
    s, kind = inputs["s"], inputs["profile_kind"]
    # the table comes from the finer of the scan's two grids
    delta = psi(2.0 * s, s) / inputs["nodes_per_shell"] / (4.0 if report["refined"] else 2.0)

    def shells(d, ks):
        return [extremizer.dyadic_shell_values(s, k, d, kind) for k in ks]

    k, kp = ORACLE_PAIR
    exact = dense_pair_numerator(s, delta, *shells(delta, ORACLE_PAIR))
    fine = dense_pair_numerator(s, delta / 4.0, *shells(delta / 4.0, ORACLE_PAIR))
    coarse = shells(2.0 * delta, range(COARSE_SHELLS))
    refine_gap = max(
        abs(np.sqrt(extremizer.shell_pair_norm_sq(s, 2.0 * delta, *coarse[i], *coarse[j]))
            / table[i, j] - 1.0)
        for i in range(COARSE_SHELLS) for j in range(i, COARSE_SHELLS))
    metrics = {
        "q_excess": DYADIC_SLOPE_GATE - report["slope"],
        "q_refine_gap": refine_gap,
        "route_gap": abs(table[k, kp] ** 2 / fine - 1.0),
    }
    gates = {
        "symmetric": bool(np.allclose(table, table.T, rtol=1e-12, atol=0.0)),
        "slope": report["slope"] <= DYADIC_SLOPE_GATE,
        "dense_engine_pair": abs(table[k, kp] ** 2 / exact - 1.0) <= 1e-6,
    }
    return metrics, gates


ENGINE_SPANS = ("engine.build", "engine.numerator", "engine.q_ratio",
                "engine.q_gradient")

WORKLOADS = {w.name: w for w in (
    Workload("radial_ascent", radial_setup, radial_solve, radial_check,
             gates=("q_star_above_cone", "q_star_dominates_trial", "trace_monotone"),
             layers=ENGINE_SPANS + ("extremizer.trial_family_scan", "extremizer.ascend"),
             bypassed=("convolution.", "norms."), reference=("tables",)),
    Workload("pair_field", pair_setup, pair_solve, pair_check,
             gates=("expansion_gap", "six_term_floor", "route_gap"),
             layers=("convolution.hyperbolic_conv", "convolution.cross_conv",
                     "convolution.profile_measure_integral",
                     "norms.l2_field_norm", "norms.field_inner_product"),
             bypassed=("engine.",), reference=("rows", "tables")),
    Workload("dyadic_scan", dyadic_setup, dyadic_solve, dyadic_check,
             gates=("symmetric", "slope", "dense_engine_pair"),
             layers=("extremizer.shell_pair_norm_sq", "extremizer.dyadic_shell_values"),
             bypassed=("engine.", "convolution.", "norms."), reference=("rows",)),
)}
