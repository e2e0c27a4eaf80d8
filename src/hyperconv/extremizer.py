"""Quartic-functional maximization and the dyadic/bilinear diagnostics.

The functional is Q(f) = ||f mu_s * f mu_s||_2^2 / ||f||_2^4; in these
convolution-form units the sharp cone value is 2*pi, and the sharp constant
of the extension inequality is 2*pi (sup Q)^{1/4}.  The search ascends Q
over nonnegative radial profiles with the exact discrete gradient from the
slice engine; multi-start covers the exponential trial family (the
certified quasi-extremal direction), shell indicators and random profiles.
The engine's numerator N is a quartic form with nonnegative coefficients,
so grad N >= 0 on F >= 0, and a maximizer solves the Euler-Lagrange
equation grad N(F) = lambda w F (w the denominator weights), a nonnegative
tensor eigenproblem.  Each ascent (``_ascend``) iterates the power map
F <- grad N(F) / w, normalized (Ng, Qi and Zhou, SIAM J. Matrix Anal.
Appl. 2009), with Anderson acceleration (Walker and Ni, SIAM J. Numer.
Anal. 2011) under a safeguard that keeps only steps raising Q.
``maximize_radial`` starts each ascent from its optimum on a grid four
times coarser (nested iteration); ``extremal_study`` repeats the ascent on
refined grids, each warm-started from the coarser optimum, and extrapolates
q*(delta) to delta -> 0 with an error bar.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from . import convolution
from .convolution import cross_conv, hyperbolic_conv
from .engine import SliceEngine, _node_values, _Scratch, blocks_numerator, row_blocks
from .fields import Conv2DField, check_grid
from .geometry import check_count, check_mass, check_r_max, check_real, phi, psi
from .norms import field_inner_product, l2_field_norm, lp_norm
from .profiles import RadialProfile, smooth_bump
from .quadrature import DEFAULT_SEED, richardson

log = logging.getLogger("hyperconv")


def _check_positive_mass(s, routine: str) -> float:
    """``check_mass``, refusing the cone s = 0 too, with the routine named."""
    s = check_mass(s)
    if s == 0.0:
        raise ValueError(f"mass parameter s must be > 0 for the {routine}, got 0.0")
    return s

TWO_PI = 2.0 * np.pi
CONE_Q = TWO_PI           # sup Q over the cone (convolution-form units)
DOUBLE_CONE_Q = 3.0 * np.pi  # (3/2) * cone value, the double-cone benchmark


# ---- single-sheet functional ----

def q_ratio(f: RadialProfile, n: int | None = None):
    """(Q(f), report) on an engine grid matched to the profile.

    The report carries the tail mass fraction near the truncation radius and an
    error estimate, the Richardson correction (``quadrature.richardson``) from
    a half-resolution evaluation.  That estimate covers only the engine's own
    resolution error: it says nothing of the gap to the field route
    (``full_q_ratio``), which is larger on sharp-edged profiles (1.3 % for
    ``shell_indicator(1, 2, 1, n=200)``, against an estimate of 0.05 %).  ``n``
    (at least 16, default max(256, 2 * profile nodes)) is the engine grid size.
    """
    if not np.any(np.abs(f.values) > 0):
        raise ValueError("f must not be a zero profile")
    n = max(256, 2 * f.grid.size) if n is None else check_count("n", n, 16)
    u_max = psi(f.r_max, f.s)
    eng = SliceEngine(f.s, n, u_max)
    F = eng.sample(f)
    q = eng.q_ratio(F)
    eng_half = SliceEngine(f.s, n // 2, u_max)
    q_half = eng_half.q_ratio(eng_half.sample(f))
    *_, corrections, _ = richardson((q_half, q), (eng_half.delta, eng.delta))
    den = eng.norm_sq(F)
    tail_mass = float(np.sum((eng.den_weights * F * F)[eng.u > 0.9 * u_max]) / den)
    report = {
        "grid_n": n,
        "error_estimate": abs(corrections[0]),
        "tail_mass_fraction": tail_mass,
        "sharp_constant_lower_bound": TWO_PI * q ** 0.25,
    }
    return q, report


def trial_family_scan(engine: SliceEngine, a_grid=None):
    """Best exponential trial profile on the engine grid: (a*, Q*, table).

    The scan is one pass over the engine's table, not one numerator per a:
    on the grid exp(-a u/2) is geometric in the node index, so every row
    value is e^{-a tau} times that of the all-ones profile
    (``SliceEngine.trial_q_ratios``).  Its Q values agree with
    ``engine.q_ratio(engine.trial_values(a))`` to a few ulps.
    """
    if a_grid is None:
        a_grid = np.geomspace(0.05, 2.0, 40)
    q = engine.trial_q_ratios(a_grid)
    table = [(float(a), float(qv)) for a, qv in zip(a_grid, q)]
    best = max(table, key=lambda t: t[1])
    return best[0], best[1], table


@dataclass
class AscentResult:
    """Best profile of a multi-start ascent, with one row per restart.

    Each ``restarts`` row holds the restart index, its final Q, its trace
    length (``iterations``), ``evaluations`` (the ascent's Q evaluations on
    the search grid, one gradient each), ``coarse_evaluations`` (those of
    its ascent on the coarse grid, 0 when there is none; see
    ``maximize_radial``), ``stagnated`` and ``stop``, the reason its ascent
    on the search grid ended (see ``_ascend``).  ``trace`` is the search-grid
    trace of the best restart.
    """

    profile: RadialProfile
    q_star: float
    q_refined: float
    trial_best_a: float
    trial_best_q: float
    trace: list
    restarts: list
    stagnated: bool


class GradientNaNError(RuntimeError):
    def __init__(self, indices):
        self.indices = indices
        super().__init__(f"NaN gradient entries at nodes {indices[:8]}")


ANDERSON_DEPTH = 5  # residual differences in the Anderson least-squares mix


def _ascend(engine: SliceEngine, F0: np.ndarray, iters: int, rel_stop: float):
    """Safeguarded, Anderson-accelerated power iteration for Q; monotone trace.

    At ||F||_w = 1 (w = ``engine.den_weights``) grad N / w = grad Q / w + 4 Q F,
    so one ``engine.q_gradient`` per evaluation gives the plain image
    G(F) = max(grad N / w, 0), normalized; its fixed points solve the
    Euler-Lagrange equation grad N = 4 N w F.  Each step mixes the last
    ANDERSON_DEPTH + 1 images by least squares on their residuals G(F) - F
    in the w-norm, clips the mix at 0 and normalizes it.  The mix is kept
    only if Q strictly rises, and its gradient serves the next step;
    otherwise the plain image is evaluated and the history cleared.  This Q
    safeguard is what makes the trace monotone: no convexity of N on the
    cone and no SS-HOPM shift (Kolda and Mayo, SIAM J. Matrix Anal. Appl.
    2011) is claimed for the map itself.

    trace[0] is Q at the clipped, normalized start, then Q after every
    accepted step; F is the last accepted iterate, normalized.  Returns
    (F, trace, stop, evaluations), stop being "iters" (``iters`` steps ran),
    "rel_stop" (an accepted step gained less than rel_stop relative) or
    "stalled" (neither the mix nor the plain image raised Q), and
    evaluations the count of ``q_gradient`` calls, the start's included.
    """
    w = engine.den_weights
    sqrt_w = np.sqrt(w)

    def evaluate(F):
        q, grad = engine.q_gradient(F)
        if not np.all(np.isfinite(grad)):
            raise GradientNaNError(np.flatnonzero(~np.isfinite(grad)).tolist())
        return float(q), grad

    def normalized(F):
        F = np.maximum(F, 0.0)
        return F / np.sqrt(engine.norm_sq(F))

    F = normalized(F0)
    q, grad = evaluate(F)
    trace, stop, evaluations = [q], "iters", 1
    images, residuals = [], []
    for _ in range(iters):
        G = normalized(grad / w + 4.0 * q * F)
        images = images[-ANDERSON_DEPTH:] + [G]
        residuals = residuals[-ANDERSON_DEPTH:] + [G - F]
        step = None
        if len(images) > 1:
            dR = np.diff(residuals, axis=0) * sqrt_w
            gamma = np.linalg.lstsq(dR.T, residuals[-1] * sqrt_w, rcond=None)[0]
            mix = np.maximum(G - gamma @ np.diff(images, axis=0), 0.0)
            norm_sq = engine.norm_sq(mix) if np.all(np.isfinite(mix)) else np.inf
            if 0.0 < norm_sq < np.inf:  # else the plain image
                step = mix / np.sqrt(norm_sq)
                q_step, grad_step = evaluate(step)
                evaluations += 1
                if not q_step > q:
                    step, images, residuals = None, [], []
        if step is None:
            step = G
            q_step, grad_step = evaluate(step)
            evaluations += 1
        if not q_step > q:
            stop = "stalled"
            break
        rel = (q_step - q) / q
        F, q, grad = step, q_step, grad_step
        trace.append(q)
        if rel < rel_stop:
            stop = "rel_stop"
            break
    residual = np.max(np.abs(grad / w)) / np.max(4.0 * q * F)
    log.debug("ascent stopped (%s) after %d accepted steps at Q = %.12g, "
              "stationarity residual %.3g", stop, len(trace) - 1, trace[-1], residual)
    return F, trace, stop, evaluations


def _drawn_starts(engine: SliceEngine, a_star: float, restarts: int, seed: int) -> list:
    """The restarts - 1 drawn starts of ``maximize_radial`` on the engine grid.

    Shell indicators, random log-normal profiles and perturbed trial
    profiles exp(-a u/2), a drawn around a_star, in turn.  A single start
    draws none, and leaves numpy.random (with hashlib and secrets) unloaded.
    """
    starts = []
    if restarts == 1:
        return starts
    for k, seq in enumerate(np.random.SeedSequence(seed).spawn(restarts - 1)):
        rng = np.random.default_rng(seq)
        kind = k % 3
        if kind == 0:
            lo, hi = sorted(rng.uniform(0.0, engine.u[-1] / 2, size=2))
            F = ((engine.u >= lo) & (engine.u <= hi + 1.0)).astype(float)
        elif kind == 1:
            F = np.exp(rng.normal(0.0, 1.0, engine.n) - 0.1 * engine.u)
        else:
            a_perturbed = a_star * rng.uniform(0.5, 2.0)
            F = engine.trial_values(a_perturbed) * rng.uniform(0.8, 1.2, engine.n)
        starts.append(F)
    return starts


# Nested iteration: a search grid of n nodes first ascends every start on
# n // COARSE_FACTOR nodes when that is at least COARSE_MIN_NODES (the search's
# own minimum).  At s = 1, r_max = 40, grid 600 this takes 14 gradients on 150
# nodes and 10 on 600 where a cold start takes 18 on 600.  Median wall times of
# the whole search on 2 cores: 76 -> 58 ms at grid 600, 239 -> 176 ms at 1200,
# 35 ms either way at 400.  A factor of 2 was slower (67 ms at 600), 6 and 8
# no better, and a second coarse level (n // 16) no better at 1200 and 2400.
COARSE_FACTOR = 4
COARSE_MIN_NODES = 64


def maximize_radial(s: float, grid_size: int = 400, r_max: float = 40.0,
                    restarts: int = 1, iters: int = 2000, seed: int = DEFAULT_SEED,
                    rel_stop: float = 1e-9) -> AscentResult:
    """Euler-Lagrange power ascent on Q over nonnegative radial profiles.

    The best exponential trial profile is restart 0, the only start by
    default; ``restarts`` > 1 adds dyadic shell indicators, random
    log-normal profiles and perturbed trial profiles, drawn on the search
    grid around the best trial rate of the first grid scanned.  Each start is ascended by
    the Anderson-accelerated power map (``_ascend``) for at most ``iters``
    steps or until an accepted step gains less than ``rel_stop``.  When
    grid_size // ``COARSE_FACTOR`` is at least ``COARSE_MIN_NODES``, every
    start is first ascended so on that many nodes over the same span (restart
    0 from the coarse grid's own best trial profile, the others interpolated
    onto it), and the search grid's ascent starts from the coarse optimum
    interpolated in u; ``iters`` and ``rel_stop`` hold on each grid.  At
    ``rel_stop`` = 1e-12 every start reaches the same Q to 1e-9 or better on
    the grids tested, so the extra starts check uniqueness rather than
    search.  The returned best value dominates the trial-family baseline to
    rounding: restart 0 starts from the interpolated coarse optimum only if
    its Q on the search grid is at least the best trial value, and from the
    best trial profile otherwise; the ascent's trace is monotone, and its
    first entry is Q at that start normalized, which can differ from the
    scan's value (``trial_family_scan``) by a few ulps.

    ``q_refined`` is the Richardson limit (``quadrature.richardson``) of q_star
    and Q at the optimum resampled on a doubled grid; Q's O(delta^2) bias is
    positive, so it lies below q_star.  One engine table (``SliceEngine``)
    is held at a time: the coarse engine is dropped before the search grid's
    trial scan builds that grid's table, and the search engine is released
    before the doubled-grid engine is built; that engine evaluates once, so
    it streams its table block by block and never holds it.  The cone s = 0
    is refused: there the engine's first rows overweight the tip node, and
    the ascent runs to a spike at node 0.
    """
    s = _check_positive_mass(s, "radial search")
    r_max = check_r_max(r_max, s)
    rel_stop = check_real("rel_stop", rel_stop, at_least=0.0)
    grid_size = check_count("grid_size", grid_size, 64)
    restarts = check_count("restarts", restarts, 1)
    iters = check_count("iters", iters, 1)
    seed = check_count("seed", seed, 0)  # SeedSequence's own error names no parameter
    u_max = psi(r_max, s)
    engine = SliceEngine(s, grid_size, u_max)  # its grid only: no table yet
    coarse_n = grid_size // COARSE_FACTOR
    if coarse_n >= COARSE_MIN_NODES:
        # every start ascends on the coarse grid first, and only then does the
        # search grid build its table, so one table is held at a time
        coarse = SliceEngine(s, coarse_n, u_max)
        a_coarse = trial_family_scan(coarse)[0]
        drawn = _drawn_starts(engine, a_coarse, restarts, seed)
        starts, coarse_evaluations = [], []
        for F0 in [coarse.trial_values(a_coarse)] + [np.interp(coarse.u, engine.u, F)
                                                     for F in drawn]:
            F, _, _, evaluations = _ascend(coarse, F0, iters, rel_stop)
            starts.append(np.interp(engine.u, coarse.u, F))
            coarse_evaluations.append(evaluations)
        del coarse
        a_star, q_trial, _ = trial_family_scan(engine)
        if not engine.q_ratio(starts[0]) >= q_trial:  # the trial baseline stays a floor
            starts[0] = engine.trial_values(a_star)
    else:
        a_star, q_trial, _ = trial_family_scan(engine)
        starts = [engine.trial_values(a_star)] + _drawn_starts(engine, a_star, restarts, seed)
        coarse_evaluations = [0] * restarts

    best = None
    restart_rows = []
    stagnated_any = False
    for idx, F0 in enumerate(starts):
        F, trace, stop, evaluations = _ascend(engine, F0, iters, rel_stop)
        stagnated = stop == "stalled"
        stagnated_any = stagnated_any or stagnated
        q = trace[-1]
        restart_rows.append({"restart": idx, "q": q, "iterations": len(trace),
                             "evaluations": evaluations,
                             "coarse_evaluations": coarse_evaluations[idx],
                             "stagnated": stagnated, "stop": stop})
        if best is None or q > best[1]:
            best = (F, q, trace)
    F_star, q_star, trace = best

    prof = RadialProfile(s, engine.radius_grid, F_star)
    delta = engine.delta
    del engine
    eng2 = SliceEngine(s, 2 * grid_size, u_max)
    q2 = eng2.q_ratio(eng2.sample(prof))
    *_, limits = richardson((q_star, q2), (delta, eng2.delta))
    return AscentResult(profile=prof, q_star=float(q_star),
                        q_refined=float(limits[0]), trial_best_a=a_star,
                        trial_best_q=q_trial, trace=trace,
                        restarts=restart_rows, stagnated=stagnated_any)


STUDY_REL_STOP = 1e-12  # q* to about 1e-11, far below the O(delta^2) differences
STUDY_ITERS = 2000      # a cap only: study ascents meet STUDY_REL_STOP in 9-17 evaluations


def extremal_study(s: float, r_max: float, n_list) -> dict:
    """q*(delta) on refined grids, extrapolated to delta -> 0 with an error bar.

    The ascent at the first n starts from the best exponential trial profile;
    each later one is warm-started from the coarser optimum, interpolated in u
    (every grid spans [0, psi(r_max)]).  Each ascent (``_ascend``, the
    safeguarded power map) runs to ``STUDY_REL_STOP``; a warm start needs about
    10 gradients.  The report holds q*(n) and its order-2 Richardson ladder in
    the grid spacings (``quadrature.richardson``): the differences, their
    ratios, the observed orders and the limits, with ``q_inf`` the last, and
    ``margin`` = q_inf - 2*pi.  ``error_bar`` adds the spread of the last two
    limits and the truncation shift: q* at about 2*r_max on the first grid's
    nodes and spacing, minus q*(n_list[0]).  ``rows`` (and ``truncation``) hold
    each ascent's iterations, Q evaluations, stop reason and wall time.  The
    cone s = 0 is refused, as in ``maximize_radial``.
    """
    s = _check_positive_mass(s, "radial search")
    r_max = check_r_max(r_max, s)
    n_list = [check_count(f"n_list[{i}]", n, 64) for i, n in enumerate(n_list)]
    if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must hold at least 3 strictly increasing sizes, got {n_list}")

    def solve(n, u_max, start):
        """(optimum, row) of one ascent; start is (u, F) or None for the trial start."""
        started = time.perf_counter()
        engine = SliceEngine(s, n, u_max)
        if start is None:
            F0 = engine.trial_values(trial_family_scan(engine)[0])
        else:
            F0 = np.interp(engine.u, *start)
        F, trace, stop, evaluations = _ascend(engine, F0, STUDY_ITERS, STUDY_REL_STOP)
        row = {"n": n, "delta": float(engine.delta), "q_star": float(trace[-1]),
               "iterations": len(trace), "evaluations": evaluations,
               "stop": stop, "wall_s": time.perf_counter() - started}
        return (engine.u, F), row

    u_max = psi(r_max, s)
    rows, optima = [], []
    for n in n_list:
        opt, row = solve(n, u_max, optima[-1] if optima else None)
        optima.append(opt)
        rows.append(row)
    # about 2*r_max on exactly the first grid's nodes and spacing
    n_wide = round(psi(2.0 * r_max, s) / u_max * (n_list[0] - 1)) + 1
    u_wide = (n_wide - 1) * rows[0]["delta"]
    _, wide = solve(n_wide, u_wide, optima[0])

    q = [row["q_star"] for row in rows]
    d, ratios, orders, _, limits = richardson(q, [row["delta"] for row in rows])
    spread = abs(limits[-1] - limits[-2])
    truncation = wide["q_star"] - q[0]
    return {
        "q_star": q,
        "differences": d.tolist(), "difference_ratios": ratios.tolist(),
        "observed_orders": orders.tolist(),
        "richardson": limits.tolist(), "q_inf": float(limits[-1]),
        "margin": float(limits[-1] - CONE_Q),
        "error_bar": float(spread + abs(truncation)),
        "extrapolation_spread": float(spread),
        "truncation": {**wide, "r_max": phi(u_wide, s), "shift": float(truncation)},
        "rows": rows,
    }


# ---- sheet pairs and the full functional ----

@dataclass
class SheetPair:
    """Profiles on the upper and lower sheet (domains identified radially).

    ``l2_norm_sq``, the norm of the interpolants, is what Qbar divides by.
    """

    f_plus: RadialProfile
    f_minus: RadialProfile

    def __post_init__(self):
        if self.f_plus.s != self.f_minus.s:
            raise ValueError("sheets must share the mass parameter")
        if not np.array_equal(self.f_plus.grid, self.f_minus.grid):
            raise ValueError("sheets must share the radial grid")

    @property
    def s(self):
        return self.f_plus.s

    def l2_norm_sq(self):
        """||f_plus||^2 + ||f_minus||^2 in L2(mu_s) of the interpolated profiles."""
        # looked up on the module at call time, so a patched (traced) version is used
        return (convolution.profile_measure_integral(self.f_plus, power=2)
                + convolution.profile_measure_integral(self.f_minus, power=2))


def symmetrize(pair: SheetPair) -> SheetPair:
    """Nonnegative even symmetrization sqrt((|f(p)|^2 + |f(-p)|^2)/2).

    For radial sheets the antipodal reflection swaps the sheets, so both
    output sheets carry Sf_i = sqrt((|f_plus_i|^2 + |f_minus_i|^2)/2) at the
    nodes: 2 |Sf_i|^2 = |f_plus_i|^2 + |f_minus_i|^2 node by node.  It acts
    on the node values, because the pointwise symmetrization of two
    interpolants is not piecewise linear on the grid.  The interpolant of
    Sf dominates that pointwise symmetrization (Minkowski), so
    ``l2_norm_sq`` can only grow.
    """
    vals = np.sqrt(0.5 * (np.abs(pair.f_plus.values) ** 2
                          + np.abs(pair.f_minus.values) ** 2))
    f = RadialProfile(pair.s, pair.f_plus.grid, vals)
    return SheetPair(f, f)


def _sheet_fields(pair: SheetPair, grid: Conv2DField, reflected: bool = False):
    """Unreflected fields f+ * g+, f- * g-, f+ * g- and g+ * f- of a pair field.

    g is the pair or, if reflected, its reflection (the sheets swapped).
    Equal sheets share one self and one cross field.  Otherwise the two
    self fields come from one ``convolution.shared_self_pass``, since a
    pair's sheets share their grid and mass, hence their node times and
    windows; reflected, they are one field with its profiles swapped, whose
    integrand is evaluated once.  Each cross field integrates each |tau|
    row once (``cross_conv``).  The lower field is reflected by reversing
    tau, so the tau grid must be symmetric about 0; a template with
    tau_min = -tau_max is so exactly, and only then do the rows at tau and
    -tau share a cross pass.  A ``grid`` that is not a ``Conv2DField``
    raises a TypeError that names it.
    """
    check_grid(grid)
    tau = grid.tau_grid
    if not np.allclose(tau, -tau[::-1], rtol=0.0, atol=1e-12 * np.max(np.abs(tau))):
        raise ValueError(f"grid needs a tau grid symmetric about 0, got [{tau[0]}, {tau[-1]}]")
    fp, fm = pair.f_plus, pair.f_minus
    even = np.array_equal(fp.values, fm.values)
    if even:  # a pair shares its grid and mass, so equal values are one function
        fm = fp  # and the samplers take their g is f paths, reflected or not
    gp, gm = (fm, fp) if reflected else (fp, fm)
    if even:
        upper = lower = hyperbolic_conv(fp, gp, grid)
    else:
        with convolution.shared_self_pass([(fp, gp), (fm, gm)], grid):
            upper, lower = hyperbolic_conv(fp, gp, grid), hyperbolic_conv(fm, gm, grid)
    cross = cross_conv(fp, gm, grid)
    cross2 = cross_conv(gp, fm, grid) if reflected and not even else cross
    return upper, lower, cross, cross2


def pair_convolution_field(pair: SheetPair, grid: Conv2DField,
                           reflected: bool = False) -> Conv2DField:
    """Sampled (f mubar * g mubar) with g = pair or its antipodal reflection.

    reflected=False gives f mubar * f mubar; reflected=True gives
    f mubar * (reflection of f) mubar, the object the symmetrization
    inequality bounds pointwise.  The fields come from ``_sheet_fields``:
    ``grid`` must be a ``Conv2DField``, or a TypeError names it, its tau
    grid must be symmetric about 0, or a ValueError names ``grid``, and an
    even pair samples one self field and one cross field.
    """
    upper, lower, cross, cross2 = _sheet_fields(pair, grid, reflected)
    return grid.like(upper.values + lower.values[:, ::-1] + cross.values + cross2.values)


def pair_template(pair: SheetPair, n_rho: int = 161, n_tau: int = 243) -> Conv2DField:
    """``full_q_ratio``'s default grid: every tau row and rho cell the pair's fields reach.

    tau spans [-2.02 u_hi, 2.02 u_hi] and rho [0, 1.01 (sqrt(4 u_hi^2 + s^2) + s)],
    with u_hi the larger sheet's time support.
    """
    n_rho = check_count("n_rho", n_rho, 2)
    n_tau = check_count("n_tau", n_tau, 2)
    s = pair.s
    u_hi = max(psi(pair.f_plus.r_max, s), psi(pair.f_minus.r_max, s))
    rho_hi = np.sqrt((2 * u_hi) ** 2 + s ** 2) + s
    return Conv2DField.template(rho_hi * 1.01, -2.02 * u_hi, 2.02 * u_hi, n_rho, n_tau)


def full_q_ratio(pair: SheetPair, grid: Conv2DField | None = None):
    """Full-surface Q with the five-term expansion breakdown.

    Q = ||f mubar * f mubar||_2^2 / ||f||_{L2(mubar)}^4 assembled from the
    sheet self-convolutions, the cross convolution and reflections.  The
    breakdown reports the expansion terms; for nonnegative even pairs the
    kept terms certify the >= 6 x (upper-sheet term) inequality.  The
    sampled field values are exact window integrals of the profiles'
    interpolants (``convolution``), so the only resolution error left is
    that of the grid rule over (rho, tau) in ``l2_field_norm``.
    ``grid`` defaults to ``pair_template``;
    any other must be a ``Conv2DField``, or a TypeError names it, and its
    tau grid must be symmetric about 0, or a ValueError names ``grid``.
    The fields come from ``_sheet_fields``, so sheets with equal node values
    (even pairs) share one self field, unequal sheets sample their two self
    fields in one pass, and the cross field takes each |tau| row once, each
    field bit for bit that of a sampler call of its own.  A
    ``norms.TruncationWarning`` says
    that the summed field reaches the grid's outer lines, so the numerator
    misses the part beyond them.
    """
    if grid is None:
        grid = pair_template(pair)
    A, Ap, B, _ = _sheet_fields(pair, grid)
    Ap_ref = grid.like(Ap.values[:, ::-1])
    total = grid.like(A.values + Ap_ref.values + 2.0 * B.values)
    num = l2_field_norm(total, warn_boundary=True)[0] ** 2
    den = pair.l2_norm_sq()
    terms = {
        "upper_self": l2_field_norm(A, warn_boundary=False)[0] ** 2,
        "lower_self": l2_field_norm(Ap, warn_boundary=False)[0] ** 2,
        "cross_sq": 4.0 * l2_field_norm(B, warn_boundary=False)[0] ** 2,
        "upper_cross": 4.0 * field_inner_product(A, B),
        "lower_cross": 4.0 * field_inner_product(Ap_ref, B),
        "upper_lower": 2.0 * field_inner_product(A, Ap_ref),
    }
    qbar = num / den ** 2
    breakdown = {
        "numerator": num,
        "denominator_sq": den ** 2,
        "terms": terms,
        "expansion_gap": num - sum(terms.values()),
        "six_term_floor": 6.0 * terms["upper_self"],
        "kept_terms": terms["upper_self"] + terms["lower_self"] + terms["cross_sq"],
    }
    return qbar, breakdown


def even_pair_certificate(result: AscentResult, engine_n: int = 800):
    """Expansion certificate for the even pair built from a radial optimum.

    For g = (f, f) with f >= 0 radial: the two sheet terms are equal by
    construction, the cross-square term equals the self term by the
    modulus identity of the transforms (checked numerically elsewhere), and
    the remaining cross terms are inner products of nonnegative fields.
    Hence ||T g||^4-equivalent >= 6 ||T f||^4-equivalent and
    Qbar >= 1.5 Q(f), which exceeds the double-cone benchmark 3*pi whenever
    Q(f) > 2*pi.
    """
    f = result.profile
    eng = SliceEngine(f.s, check_count("engine_n", engine_n, 8), psi(f.r_max, f.s))
    q = eng.q_ratio(eng.sample(f))
    qbar_floor = 1.5 * q
    return {
        "q_single": q,
        "qbar_floor": qbar_floor,
        "exceeds_double_cone": bool(qbar_floor > DOUBLE_CONE_Q),
        "six_term_inequality": "kept terms = 2 self + 4 cross-square = 6 self; "
                               "dropped terms are inner products of nonnegative fields",
    }


# ---- dyadic bilinear diagnostics ----

def shell_pair_norm_sq(s: float, delta: float, i0_f: int, F: np.ndarray,
                       i0_g: int, G: np.ndarray, *, scratch=None) -> float:
    """||f mu_s * g mu_s||_2^2 for node values on a shared uniform time grid.

    F occupies nodes i0_f .. i0_f + len(F) - 1 (spacing delta), likewise G,
    and both vanish on every other node.  This is the SliceEngine numerator
    (F, G) on the tau rows the pair reaches, built and evaluated in the
    engine's row blocks (``engine.row_blocks``, ``engine.blocks_numerator``)
    without building an engine.  F and G are zero-filled into one node
    vector each over the pair's span, and ``blocks_numerator`` reads the
    zeros off those vectors.  Row k is stored as (k, j_first, j_last): the
    product F_i G_{k-i} lives on the nodes iA .. iB, so S = 0 up to
    j_first, the last window that misses the support, and S = C from
    j_last, one past the first window that holds all of it.  The middle
    branch takes in both constant stretches (``engine`` module docstring),
    so the cost per row is the length of the support.

    ``scratch`` (an ``engine._Scratch``) builds and evaluates the blocks; a
    scan over many pairs passes one to all of them.  Buffers made anew for
    each pair go back to the system between pairs whenever the heap's free
    top outgrows glibc's trim threshold, and every page of them then faults
    again in the next pair: a scan's first run in a fresh process took 8,100
    page faults that way, and takes 2,300 with one scratch.
    """
    s, delta = check_mass(s), check_real("delta", delta, above=0.0)
    i0_f, i0_g = check_count("i0_f", i0_f, 0), check_count("i0_g", i0_g, 0)
    F, G = _node_values(F, "F"), _node_values(G, "G")
    scratch = _Scratch(3) if scratch is None else scratch
    nf, ng = len(F), len(G)
    origin = min(i0_f, i0_g)
    n = max(i0_f + nf, i0_g + ng) - origin
    Fz, Gz = np.zeros((2, n))
    Fz[i0_f - origin:i0_f - origin + nf] = F
    Gz[i0_g - origin:i0_g - origin + ng] = G
    k = np.arange(max(i0_f + i0_g, 1), i0_f + nf + i0_g + ng - 1)
    iA = np.maximum(i0_f, k - i0_g - ng + 1)
    iB = np.minimum(i0_f + nf - 1, k - i0_g)
    # window j pairs hi = k//2 + j and lo = j_end - j (empty at j = 0 on odd rows)
    j_end, k2 = (k + 1) // 2, k // 2
    j_first = np.maximum(np.maximum(j_end - iB, iA - k2) - 1, 0)
    j_last = np.minimum(np.maximum(j_end - iA, iB - k2) + 1, j_end)
    # every row is interior to the tau trapezoid: the pair vanishes beyond it;
    # a self pair takes the self path, whose row values are the cross path's over 4 exactly
    self_pair = i0_f == i0_g and np.array_equal(F, G)
    return blocks_numerator(row_blocks(s, delta, k, j_first, j_last, origin, scratch), delta,
                            Fz, None if self_pair else Gz, scratch)


def dyadic_shell_values(s: float, k: int, delta: float, kind: str = "bump"):
    """(start index, node values) of a unit-normalized shell profile."""
    s = _check_positive_mass(s, "dyadic shells")
    k = check_count("k", k, 0)  # shells below k = 0 lie inside the tip radius s
    delta = check_real("delta", delta, above=0.0)
    u_lo = psi(s * 2.0 ** k, s)
    u_hi = psi(s * 2.0 ** (k + 1), s)
    i0 = int(np.ceil(u_lo / delta))
    i1 = int(np.floor(u_hi / delta))
    if i1 - i0 < 8:
        raise ValueError(f"delta must be fine enough for 9 nodes in shell k = {k}, got {delta} "
                         f"({i1 - i0 + 1} nodes)")
    u = np.arange(i0, i1 + 1) * delta
    if kind == "bump":
        vals = smooth_bump(2.0 * (u - u_lo) / (u_hi - u_lo) - 1.0)
    elif kind == "indicator":
        vals = np.ones(u.size)
        vals[[0, -1]] = 0.0
    else:
        raise ValueError(f"profile_kind must be 'bump' or 'indicator', got {kind!r}")
    wts = np.full(u.size, delta)
    wts[[0, -1]] *= 0.5
    nrm = np.sqrt(4.0 * np.pi * np.sum(wts * vals * vals * phi(u, s)))
    return i0, vals / nrm


def bilinear_dyadic_scan(s: float, k_max: int = 6, profile_kind: str = "bump",
                         nodes_per_shell: int = 48):
    """Pairwise ||f_k mu * f_k' mu||_2 decay table and fitted dyadic slope.

    Returns (table, report): table[k][k'] is the norm for unit-normalized
    shell profiles; the report carries the least-squares slope of
    log2(norm) against the separations 1 <= |k - k'| <= 6 (at least four,
    as k_max >= 4) and the on-diagonal constant.  One automatic refinement
    doubles the grid when the two resolutions disagree beyond 1 percent; a
    warning names the gap if the refined and previous tables still do.
    """
    s = _check_positive_mass(s, "dyadic scan")
    k_max = check_count("k_max", k_max, 4)
    nodes_per_shell = check_count("nodes_per_shell", nodes_per_shell, 8)
    scratch = _Scratch(3)  # shared by every pair (``shell_pair_norm_sq``)

    def compute(delta):
        shells = [dyadic_shell_values(s, k, delta, profile_kind)
                  for k in range(k_max + 1)]
        tbl = np.zeros((k_max + 1, k_max + 1))
        for k in range(k_max + 1):
            for kp in range(k, k_max + 1):
                i0f, F = shells[k]
                i0g, G2 = shells[kp]
                val = np.sqrt(shell_pair_norm_sq(s, delta, i0f, F, i0g, G2, scratch=scratch))
                tbl[k, kp] = tbl[kp, k] = val
        return tbl

    gap = lambda fine, coarse: np.max(np.abs(fine - coarse) / np.maximum(fine, 1e-300))
    delta = psi(2.0 * s, s) / nodes_per_shell
    table = compute(delta / 2.0)
    refined = bool(gap(table, compute(delta)) > 1e-2)
    if refined:
        half, table = table, compute(delta / 4.0)
        if gap(table, half) > 1e-2:
            log.warning("dyadic scan: after its one refinement the tables still differ by "
                        "%.2g relative (nodes_per_shell = %d)", gap(table, half), nodes_per_shell)

    seps, logs = [], []
    for k in range(k_max + 1):
        for kp in range(k_max + 1):
            d = abs(k - kp)
            if 1 <= d <= 6:
                seps.append(d)
                logs.append(np.log2(table[k, kp]))
    A = np.stack([np.ones(len(seps)), np.asarray(seps, dtype=float)], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.asarray(logs), rcond=None)
    report = {
        "slope": float(coef[1]),
        "intercept": float(coef[0]),
        "constant": float(2.0 ** coef[0]),
        "diag_max": float(np.max(np.diag(table))),
        "refined": refined,
    }
    return table, report


# ---- dyadic refinement of the linear bound ----

def dyadic_pieces(f: RadialProfile):
    """Restrictions (k, f_k) of f to the dyadic shells [2^k, 2^{k+1}) it meets.

    k runs over every integer whose shell holds a nonzero node value,
    negative k included (radii below 1 when s < 1), and the last shell is
    closed at r_max, so the pieces sum to f on every node.
    """
    nonzero = f.values != 0
    if np.any(nonzero & (f.grid == 0.0)):
        raise ValueError("f must vanish at r = 0, which lies in no dyadic shell")
    mantissa, exponent = np.frexp(f.grid)
    shell = exponent - 1  # r in [2^shell, 2^{shell + 1}), exactly
    if mantissa[-1] == 0.5:
        shell[-1] -= 1  # r_max = 2^K closes the shell below it
    return [(int(k), RadialProfile(f.s, f.grid, np.where(shell == k, f.values, 0.0)))
            for k in np.unique(shell[nonzero])]


def dyadic_refinement_check(f: RadialProfile, engine: SliceEngine | None = None):
    """(lhs, rhs3, rhs_sup) of the dyadic refinement of the linear bound.

    lhs = 2 pi ||f mu * f mu||_2^{1/2} (the L4 extension norm in convolution
    units); rhs3 is the l3 sum of dyadic-piece L2 norms, rhs_sup the
    sup-refined combination sup_k ||f_k||^{1/3} ||f||^{2/3}.

    The refinement is an upper bound lhs <= C * rhs3.  Its constant C is at
    least the sharp extension constant 2 pi (sup Q)^{1/4}, since rhs3 =
    ||f||_2 for a single-shell profile.  Neighbouring shells interact
    strongly, so lhs need not fall when a fixed mass is spread over a few
    dyadic shells; the bilinear decay only wins once the shells lie farther
    apart than its decay length.
    """
    if not np.any(f.values):
        raise ValueError("f must not be a zero profile")
    engine = engine or SliceEngine(f.s, max(512, 2 * f.grid.size), psi(f.r_max, f.s))
    F = engine.sample(f)
    lhs = TWO_PI * engine.numerator(F) ** 0.25
    norms = np.array([lp_norm(piece, 2.0) for _, piece in dyadic_pieces(f)])
    total = lp_norm(f, 2.0)
    rhs3 = float(np.sum(norms ** 3) ** (1.0 / 3.0))
    rhs_sup = float(np.max(norms) ** (1.0 / 3.0) * total ** (2.0 / 3.0))
    return lhs, rhs3, rhs_sup


# ---- tail bound and cone limit ----

def tail_bound_check(a: float, f_tail: RadialProfile):
    """(lhs, bound) of the far-tail convolution bound at mass 1.

    For profiles supported where |y| >= a > 1,
    ||f mu * f mu||_2^2 <= 2 pi (1 + 1/sqrt(a^2 - 1)) ||f||_2^4.
    The bound uses the exact L2 norm of the profile (``lp_norm``), not a
    sum over engine nodes; lhs is the numerator on a ``SliceEngine`` of
    max(512, 2 * profile nodes) nodes over [0, psi(r_max, 1)].
    """
    a = check_real("a", a, above=1.0)
    if f_tail.s != 1.0:
        raise ValueError(f"f_tail.s must be 1 (the unit mass), got {f_tail.s}")
    if f_tail.grid[np.abs(f_tail.values) > 0].min() < a:
        raise ValueError("profile must be supported in |y| >= a")
    engine = SliceEngine(1.0, max(512, 2 * f_tail.grid.size), psi(f_tail.r_max, 1.0))
    F = engine.sample(f_tail)
    lhs = engine.numerator(F)
    norm_sq = lp_norm(f_tail, 2.0) ** 2
    bound = TWO_PI * (1.0 + 1.0 / np.sqrt(a * a - 1.0)) * norm_sq * norm_sq
    return lhs, bound


def cone_limit_scan(f: RadialProfile, s_list):
    """Distances ||f mu_s * f mu_s - f sigma_c * f sigma_c||_2 along s -> 0.

    The profile is a fixed radial function supported in |y| >= a > 0 and is
    re-read as living on each mass-s surface; every field is sampled on one
    161 x 161 template.  Also reports the
    dominating bound 4 pi ||f||_inf^2 (1 + 1/a) against the field maxima.
    """
    s_list = [check_real("every s in s_list", s, at_least=0.0) for s in s_list]
    if not s_list:
        raise ValueError("s_list must hold at least one mass parameter")
    a = float(f.grid[np.abs(f.values) > 0].min())
    if a <= 0:
        raise ValueError("profile must vanish near the origin")
    if any(s >= a for s in s_list):
        raise ValueError("every s in s_list must stay below the support radius")
    b = f.r_max
    s_pad = max(s_list)
    grid = Conv2DField.template(2.0 * b + 2.0 * s_pad + 0.1, 0.0,
                                2.0 * b * 1.02, 161, 161)
    cone_profile = RadialProfile(0.0, f.grid, f.values)
    h0 = hyperbolic_conv(cone_profile, cone_profile, grid)
    sup_bound = 4.0 * np.pi * float(np.max(np.abs(f.values))) ** 2 * (1.0 + 1.0 / a)
    rows = []
    for s in s_list:
        fs = RadialProfile(s, f.grid, f.values)
        hs = hyperbolic_conv(fs, fs, grid)
        diff = grid.like(hs.values - h0.values)
        d = l2_field_norm(diff, warn_boundary=False)[0]
        rows.append({"s": float(s), "distance": float(d),
                     "field_max": float(np.max(hs.values)),
                     "bound_ok": bool(np.max(hs.values) <= sup_bound * (1 + 1e-9))})
    rows.append({"s": 0.0, "distance": 0.0,
                 "field_max": float(np.max(h0.values)),
                 "bound_ok": bool(np.max(h0.values) <= sup_bound * (1 + 1e-9))})
    return rows, sup_bound
