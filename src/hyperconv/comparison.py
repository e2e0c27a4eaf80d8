"""Appendix oracles: the trial-family integrals against the cone constant 2*pi.

For the exponential trial profiles f_a the convolution-form ratio
||f_a mu * f_a mu||_2^2 / ||f_a||_2^4 dominates I(a)/II(a), where

    I(a)  = 16 pi^3 int_0^inf e^{-a t} (t^2 sqrt(t^2+4)
            - (2/3)(t^2+4) sqrt(t^2+1) + 8/3 + 2 t asinh(t)) dt,
    II(a) = 16 pi^2 (int_0^inf e^{-a t} sqrt(t^2+1) dt)^2.

Both are evaluated in u = a*t, which keeps the integrands O(u^3) as a -> 0;
a^4 I(a) -> 32 pi^3 and a^4 II(a) -> 16 pi^2 give ratio -> 2 pi.  The ratio
exceeds 2*pi for small a and crosses below it near a_c ~ 0.2385 (the scan
flags non-positive margins).  ``derivative_limits`` extrapolates the
central-difference derivatives, including that of the cube-root rescaled
N(a)/D(a) = ratio(a^{1/3}) (limit 4*pi/3), by least squares in b = a^{1/3}.
``IDENTITY_SPECS`` lists the nine small-a identities, each with its
integrand, leading term and remainder envelope.  ``masked_numerator`` and
``full_numerator`` recompute I(a) and the full numerator as tau integrals
of the closed-form row mass, as a cross-check.

Every one-dimensional integral here runs through
``quadrature.integrate_pieces``, so a piece that misses its tolerance
raises ``QuadratureError`` instead of adding an unconverged value.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closedforms import self_conv_row_mass
from .geometry import check_count, check_real
from .quadrature import QuadratureSpec, integrate_pieces

TWO_PI = 2.0 * np.pi
CONE_CONSTANT = TWO_PI
I_LIMIT = 32.0 * np.pi ** 3   # lim a^4 I(a)
II_LIMIT = 16.0 * np.pi ** 2  # lim a^4 II(a)


def _piecewise(f, edges, rel_tol: float, rule: str = "gk") -> float:
    """Sum of the integrals of f over the pieces of ``edges``; raises if one is unmet."""
    spec = QuadratureSpec(rule, rel_tol, abs_tol=1e-300, max_depth=24)
    return integrate_pieces(f, edges, spec).value


def _edges_for(c: float):
    """Breakpoints resolving the scale-c regularization near u = 0."""
    raw = [0.0, 0.1 * c, c, 10.0 * c, 1.0, 5.0, 15.0, 40.0, 90.0]
    return sorted(set(e for e in raw if e <= 90.0))


def I_of_a(a: float, spec: QuadratureSpec | None = None) -> float:
    """Trial-family numerator lower bound I(a), relative accuracy ~1e-12.

    Only the spec's rule and rel_tol are read.
    """
    a = check_real("decay rate a", a, above=0.0)
    spec = spec or QuadratureSpec(rel_tol=1e-12)

    def g(u):
        ra = np.sqrt(u * u + a * a)
        return np.exp(-u) * (u * u * np.sqrt(u * u + 4.0 * a * a)
                             - (2.0 / 3.0) * (u * u + 4.0 * a * a) * ra
                             + 2.0 * a * a * u * np.log(u + ra))
    core = _piecewise(g, _edges_for(a), spec.rel_tol, spec.rule)
    return 16.0 * np.pi ** 3 / a ** 4 * (core + 8.0 * a ** 3 / 3.0
                                         - 2.0 * a * a * np.log(a))


def II_of_a(a: float, spec: QuadratureSpec | None = None) -> float:
    """Fourth power of the trial-profile L2 norm, II(a); spec as in ``I_of_a``."""
    a = check_real("decay rate a", a, above=0.0)
    spec = spec or QuadratureSpec(rel_tol=1e-12)

    def g(u):
        return np.exp(-u) * np.sqrt(u * u + a * a)
    core = _piecewise(g, _edges_for(a), spec.rel_tol, spec.rule)
    return 16.0 * np.pi ** 2 / a ** 4 * core * core


def ratio_of_a(a: float, spec: QuadratureSpec | None = None) -> float:
    return I_of_a(a, spec) / II_of_a(a, spec)


def nd_ratio(a: float, spec: QuadratureSpec | None = None) -> float:
    """N(a)/D(a) = ratio at the cube root of a (the rescaled pair)."""
    return ratio_of_a(a ** (1.0 / 3.0), spec)


@dataclass
class RatioSample:
    a: float
    I: float
    II: float
    ratio: float
    margin: float  # ratio - 2*pi


def ratio_scan(a_min: float, a_max: float, steps: int):
    """Figure-style scan (samples, summary) at rel_tol 1e-12; flags non-positive margins.

    summary['pass'] is False when any sampled ratio fails to exceed the cone
    constant 2*pi; those samples are listed as reproduction failures (the
    ratio genuinely crosses below 2*pi near a ~ 0.2385).
    """
    a_min = check_real("a_min", a_min, above=0.0)
    a_max = check_real("a_max", a_max, above=a_min)
    steps = check_count("steps", steps, 1)
    samples = []
    for a in np.linspace(a_min, a_max, steps):
        I = I_of_a(a)
        II = II_of_a(a)
        samples.append(RatioSample(float(a), I, II, I / II, I / II - CONE_CONSTANT))
    margins = np.array([s.margin for s in samples])
    failures = [s.a for s in samples if s.margin <= 0.0]
    summary = {
        "min_margin": float(margins.min()),
        "a_at_min": float(samples[int(margins.argmin())].a),
        "max_margin": float(margins.max()),
        "a_at_max": float(samples[int(margins.argmax())].a),
        "failures": failures,
        "pass": not failures,
    }
    return samples, summary


# ---- derivative limits ----

RATIO_LIMIT = TWO_PI
D1_LIMIT = 0.0
D2_LIMIT = 0.0
D3_LIMIT = 8.0 * np.pi
ND_DERIVATIVE_LIMIT = 4.0 * np.pi / 3.0


def _central_diff(f, x: float, h: float, order: int) -> float:
    if order == 1:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    if order == 2:
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
    if order == 3:
        return (-f(x - 2 * h) + 2 * f(x - h) - 2 * f(x + h) + f(x + 2 * h)) / (2.0 * h ** 3)
    raise ValueError("order must be 1, 2 or 3")


def _fit_limit(A, values):
    """Least-squares fit on design matrix A (constant column first): (limit, max resid)."""
    coef, *_ = np.linalg.lstsq(A, np.asarray(values), rcond=None)
    return float(coef[0]), float(np.max(np.abs(A @ coef - values)))


def derivative_limits() -> dict:
    """Estimates of the five comparison-ratio limits with error bars, at rel_tol 1e-13.

    ratio -> 2*pi, first and second a-derivatives -> 0, third -> 8*pi, and
    the rescaled-pair derivative d/da (N/D) -> 4*pi/3.  Central differences
    with steps proportional to the evaluation point; the third derivative
    and the N/D derivative converge like b log^2 b resp. b log b in
    b = a^{1/3}-type variables, so their limits are least-squares
    extrapolations over the fixed schedules b = 0.02 .. 0.0025 and
    b = 1e-2 .. 1e-3 (reported per-sample too).
    """
    spec = QuadratureSpec(rel_tol=1e-13)
    r = lambda b: ratio_of_a(b, spec)
    report = {}

    ratio_small = r(1e-3)
    report["ratio"] = {"value": ratio_small, "target": RATIO_LIMIT,
                       "abs_error_bar": abs(ratio_small - r(2e-3))}

    b0 = 5e-3
    d1 = _central_diff(r, b0, b0 / 4.0, 1)
    d2 = _central_diff(r, b0, b0 / 4.0, 2)
    report["d1"] = {"value": d1, "target": D1_LIMIT, "at": b0}
    report["d2"] = {"value": d2, "target": D2_LIMIT, "at": b0}

    bs = [0.02, 0.01, 0.005, 0.0025]
    d3_samples = [_central_diff(r, b, b / 4.0, 3) for b in bs]
    # remainder scale for the third derivative is b log^2 b
    b = np.asarray(bs, dtype=float)
    d3_limit, d3_resid = _fit_limit(
        np.stack([np.ones_like(b), b * np.log(b) ** 2, b * np.abs(np.log(b))], axis=1),
        d3_samples)
    report["d3"] = {"samples": dict(zip(bs, d3_samples)), "value": d3_limit,
                    "target": D3_LIMIT, "abs_error_bar": d3_resid}

    nd_bs = [1e-2, 4e-3, 2e-3, 1e-3]
    nd_samples = []
    for b in nd_bs:
        a = b ** 3
        nd_samples.append(_central_diff(lambda x: nd_ratio(x, spec), a, a / 2.0, 1))
    b = np.asarray(nd_bs, dtype=float)
    nd_limit, nd_resid = _fit_limit(
        np.stack([np.ones_like(b), b, b * np.log(b)], axis=1), nd_samples)
    report["nd_derivative"] = {
        "samples": dict(zip(nd_bs, nd_samples)),
        "value": nd_limit,
        "smallest_sample": nd_samples[-1],
        "target": ND_DERIVATIVE_LIMIT,
        "abs_error_bar": nd_resid,
    }
    return report


# ---- the nine small-parameter integral identities ----

EULER_GAMMA = float(np.euler_gamma)

IDENTITY_SPECS = [
    # name, leading(a, c), envelope(a, c), integrand(u, c) with c = a^{1/3}
    ("inv_sqrt", lambda a, c: -np.log(a) / 3.0, lambda a, c: abs(np.log(a)),
     lambda u, c: np.exp(-u) / np.sqrt(u * u + c * c)),
    ("sqrt_over", lambda a, c: 1.0 / c, lambda a, c: c * abs(np.log(a)),
     lambda u, c: np.exp(-u) * np.sqrt(u * u + c * c) / c),
    ("u_sqrt_over", lambda a, c: 2.0 / c, lambda a, c: c,
     lambda u, c: np.exp(-u) * u * np.sqrt(u * u + c * c) / c),
    ("usq_inv_sqrt4", lambda a, c: 1.0 / c, lambda a, c: c * abs(np.log(a)),
     lambda u, c: np.exp(-u) * u * u / (c * np.sqrt(u * u + 4.0 * c * c))),
    ("shifted_ratio", lambda a, c: 1.0 / c, lambda a, c: c * abs(np.log(a)),
     lambda u, c: np.exp(-u) * (u * u + 4.0 * c * c) / (c * np.sqrt(u * u + c * c))),
    ("defect", lambda a, c: 0.0, lambda a, c: c * c * abs(np.log(a)),
     lambda u, c: np.exp(-u) * c * c / (u + np.sqrt(u * u + c * c))),
    ("mixed4", lambda a, c: 0.0, lambda a, c: c * abs(np.log(a)),
     lambda u, c: np.exp(-u) * c * u / ((u + np.sqrt(u * u + 4 * c * c))
                                        * np.sqrt(u * u + 4 * c * c))),
    # c * lhs -> 1 + log 2 - gamma
    ("u_log", lambda a, c: (1.0 + np.log(2.0) - EULER_GAMMA) / c, lambda a, c: 1.0,
     lambda u, c: np.exp(-u) * u * np.log(u + np.sqrt(u * u + c * c)) / c),
    ("centered_log", lambda a, c: -1.0, lambda a, c: 1.0,
     lambda u, c: np.exp(-u) * ((u - 1.0) * np.log(u + np.sqrt(u * u + c * c))
                                - 1.0) / c),
]


def _identity_integral(integrand, a: float) -> float:
    """int_0^inf integrand(u, a^{1/3}) du on the scale-c pieces, at rel_tol 1e-12."""
    c = a ** (1.0 / 3.0)
    return _piecewise(lambda u: integrand(u, c), _edges_for(c), 1e-12)


def asymptotic_integral_suite():
    """Verify, per identity, the leading term and the remainder order (rel_tol 1e-12).

    For each identity the remainder (lhs - leading)/envelope is computed on
    a = 1e-2, 1e-3, ..., 1e-8 and must be bounded and stable: it is fitted
    against a constant (plus an optional linear correction in the envelope
    ratio) and passes when the fit explains the samples and the bound stays
    below a fixed cap.  The final identity must approach its exact limit -1.
    """
    # the slowest identities converge like a^{1/3}, so the schedule reaches
    # deep enough for the -1 limit to land within 1e-2
    a_arr = np.array([1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    out = []
    for name, leading, envelope, integrand in IDENTITY_SPECS:
        lhs = np.array([_identity_integral(integrand, a) for a in a_arr])
        c = a_arr ** (1.0 / 3.0)
        lead = np.array([leading(a, cc) for a, cc in zip(a_arr, c)])
        env = np.array([envelope(a, cc) for a, cc in zip(a_arr, c)])
        scaled = (lhs - lead) / env
        bounded = bool(np.max(np.abs(scaled)) < 10.0)
        # remainder-order check: the scaled remainder must not grow as a -> 0
        trend_ok = bool(abs(scaled[-1]) <= max(1.5 * abs(scaled[0]), 1.0))
        entry = {
            "name": name,
            "a": a_arr.tolist(),
            "lhs": lhs.tolist(),
            "scaled_remainder": scaled.tolist(),
            "bounded": bounded,
            "order_ok": trend_ok,
        }
        if name == "inv_sqrt":
            # sharp sub-check: the log-a coefficient is exactly -1/3
            A = np.stack([np.ones_like(a_arr), np.log(a_arr)], axis=1)
            coef, *_ = np.linalg.lstsq(A, lhs, rcond=None)
            entry["log_coefficient"] = float(coef[1])
            entry["order_ok"] = entry["order_ok"] and abs(coef[1] + 1.0 / 3.0) < 0.02
        if name == "u_log":
            entry["limit_value"] = float(lhs[-1] * c[-1])
            entry["order_ok"] = (entry["order_ok"]
                                 and abs(entry["limit_value"]
                                         - (1.0 + np.log(2.0) - EULER_GAMMA)) < 5e-3)
        if name == "centered_log":
            entry["limit_value"] = float(lhs[-1])
            entry["order_ok"] = entry["order_ok"] and abs(lhs[-1] + 1.0) < 1e-2
        entry["pass"] = entry["bounded"] and entry["order_ok"]
        out.append(entry)
    return out


def exact_log_identity_gap(a: float) -> float:
    """|lhs - rhs| of the integration-by-parts identity linking (1) and the logs.

    int e^{-u}/sqrt(u^2 + a^{2/3}) du = int e^{-u} log(u + sqrt(u^2 + a^{2/3})) du
                                        - (1/3) log a,
    both sides by quadrature at rel_tol 1e-12.
    """
    lhs = _identity_integral(IDENTITY_SPECS[0][3], a)  # inv_sqrt
    log_term = lambda u, c: np.exp(-u) * np.log(u + np.sqrt(u * u + c * c))
    rhs = _identity_integral(log_term, a) - np.log(a) / 3.0
    return abs(lhs - rhs)


def closing_integral() -> float:
    """int_0^inf du / ((u + sqrt(u^2+1)) sqrt(u^2+1)) at rel_tol 1e-12; equals 1 exactly."""
    f = lambda u: 1.0 / ((u + np.sqrt(u * u + 1.0)) * np.sqrt(u * u + 1.0))
    val = _piecewise(f, [0.0, 1.0, 10.0, 100.0, 1e4, 1e6, 1e8], 1e-12)
    # analytic tail beyond the last edge: integrand ~ 1/(2 u^2)
    return val + 0.5e-8


# ---- cross links to the closed-form density ----

def _exp_weighted_row_mass(a: float, s: float, part, rel_tol: float) -> float:
    """4 pi int_0^60/a e^{-a tau} part(self_conv_row_mass(s, tau)) d tau."""
    a = check_real("decay rate a", a, above=0.0)
    f = lambda tau: np.exp(-a * tau) * part(self_conv_row_mass(s, tau))
    return 4.0 * np.pi * _piecewise(f, sorted({0.0, 1.0, 5.0, 10.0, 30.0 / a, 60.0 / a}), rel_tol)


def masked_numerator(a: float, s: float = 1.0) -> float:
    """Weighted L2 mass of the exp-weighted inner+middle density branches.

    Equals I(a) at s = 1: the same object reached through the closed-form
    row mass, at rel_tol 1e-10, instead of the appendix integrand (cross-oracle).
    """
    return _exp_weighted_row_mass(a, s, lambda m: m[0], 1e-10)


def full_numerator(a: float, s: float = 1.0, rel_tol: float = 1e-9) -> float:
    """Exact ||f_a mu * f_a mu||_2^2, the tau integral of the full row mass.

    The oracle for the trial-family functional; it strictly dominates the
    masked value I(a).
    """
    return _exp_weighted_row_mass(a, s, sum, rel_tol)
