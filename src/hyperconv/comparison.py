"""Trial-family comparison integrals against the cone constant 2*pi.

For the exponential trial profiles f_a the convolution-form ratio
||f_a mu * f_a mu||_2^2 / ||f_a||_2^4 dominates I(a)/II(a), where

    I(a)  = 16 pi^3 int_0^inf e^{-a t} (t^2 sqrt(t^2+4)
            - (2/3)(t^2+4) sqrt(t^2+1) + 8/3 + 2 t asinh(t)) dt,
    II(a) = 16 pi^2 (int_0^inf e^{-a t} sqrt(t^2+1) dt)^2,

I(a) being exactly the weighted L2 mass of the inner+middle branches of the
self-convolution density.  Both are evaluated in the rescaled variable
u = a*t, which keeps the integrands O(u^3) uniformly as a -> 0; the limits
a^4 I(a) -> 32 pi^3 and a^4 II(a) -> 16 pi^2 give ratio -> 2 pi.

The ratio exceeds 2*pi for small a but crosses below it at
a_c ~ 0.2385 (the scan flags any non-positive margin as a reproduction
failure); the derivative diagnostics use the cube-root rescaled
N(a) = a^{4/3} I(a^{1/3}), D(a) = a^{4/3} II(a^{1/3}) whose ratio has the
finite derivative limit 4*pi/3 at zero.  Convergence of that derivative is
O(a^{1/3} log a)-slow, so the limit estimate extrapolates a small-a schedule
with a {1, b, b log b} model in b = a^{1/3} on top of the central-difference
samples.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad as _quad

from .closedforms import mu_self_conv_grid, mu_self_conv_masked
from .quadrature import QuadratureSpec, gauss_legendre_nodes, simpson_adaptive

TWO_PI = 2.0 * np.pi
CONE_CONSTANT = TWO_PI
I_LIMIT = 32.0 * np.pi ** 3   # lim a^4 I(a)
II_LIMIT = 16.0 * np.pi ** 2  # lim a^4 II(a)


def _quad_pieces(f, edges, rel_tol):
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        val, _ = _quad(f, lo, hi, epsabs=1e-300, epsrel=rel_tol, limit=200)
        total += val
    return total


def _simpson_pieces(f, edges, rel_tol):
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        total += simpson_adaptive(f, lo, hi, rel_tol, 1e-300, 24).value
    return total


def _edges_for(c: float):
    """Breakpoints resolving the scale-c regularization near u = 0."""
    raw = [0.0, 0.1 * c, c, 10.0 * c, 1.0, 5.0, 15.0, 40.0, 90.0]
    return sorted(set(e for e in raw if e <= 90.0))


def I_of_a(a: float, spec: QuadratureSpec | None = None, rule: str = "gk") -> float:
    """Trial-family numerator lower bound I(a), relative accuracy ~1e-12."""
    if a <= 0:
        raise ValueError("a must be positive")
    spec = spec or QuadratureSpec(rel_tol=1e-12)

    def g(u):
        ra = np.sqrt(u * u + a * a)
        return np.exp(-u) * (u * u * np.sqrt(u * u + 4.0 * a * a)
                             - (2.0 / 3.0) * (u * u + 4.0 * a * a) * ra
                             + 2.0 * a * a * u * np.log(u + ra))
    edges = _edges_for(a)
    core = (_quad_pieces(g, edges, spec.rel_tol) if rule == "gk"
            else _simpson_pieces(g, edges, spec.rel_tol))
    return 16.0 * np.pi ** 3 / a ** 4 * (core + 8.0 * a ** 3 / 3.0
                                         - 2.0 * a * a * np.log(a))


def II_of_a(a: float, spec: QuadratureSpec | None = None, rule: str = "gk") -> float:
    """Fourth power of the trial-profile L2 norm, II(a)."""
    if a <= 0:
        raise ValueError("a must be positive")
    spec = spec or QuadratureSpec(rel_tol=1e-12)

    def g(u):
        return np.exp(-u) * np.sqrt(u * u + a * a)
    edges = _edges_for(a)
    core = (_quad_pieces(g, edges, spec.rel_tol) if rule == "gk"
            else _simpson_pieces(g, edges, spec.rel_tol))
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


def ratio_scan(a_min: float, a_max: float, steps: int,
               spec: QuadratureSpec | None = None):
    """Figure-style scan (samples, summary); flags non-positive margins.

    summary['pass'] is False when any sampled ratio fails to exceed the cone
    constant 2*pi; those samples are listed as reproduction failures (the
    ratio genuinely crosses below 2*pi near a ~ 0.2385).
    """
    if not (0 < a_min < a_max):
        raise ValueError("need 0 < a_min < a_max")
    samples = []
    for a in np.linspace(a_min, a_max, steps):
        I = I_of_a(a, spec)
        II = II_of_a(a, spec)
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


def _fit_limit(bs, values, with_log: bool = True):
    """Least-squares limit of v(b) = L + c b (+ d b log b); returns (L, resid)."""
    bs = np.asarray(bs, dtype=float)
    cols = [np.ones_like(bs), bs]
    if with_log:
        cols.append(bs * np.log(bs))
    A = np.stack(cols, axis=1)
    coef, res, *_ = np.linalg.lstsq(A, np.asarray(values), rcond=None)
    fitted = A @ coef
    resid = float(np.max(np.abs(fitted - values)))
    return float(coef[0]), resid


def derivative_limits(spec: QuadratureSpec | None = None,
                      b_schedule=None, nd_schedule=None) -> dict:
    """Estimates of the five comparison-ratio limits with error bars.

    ratio -> 2*pi, first and second a-derivatives -> 0, third -> 8*pi, and
    the rescaled-pair derivative d/da (N/D) -> 4*pi/3.  Central differences
    with steps proportional to the evaluation point; the third derivative
    and the N/D derivative converge like b log^2 b resp. b log b in
    b = a^{1/3}-type variables, so their limits are least-squares
    extrapolations over the schedule (reported per-sample too).
    """
    spec = spec or QuadratureSpec(rel_tol=1e-13)
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

    bs = list(b_schedule) if b_schedule is not None else [0.02, 0.01, 0.005, 0.0025]
    d3_samples = [_central_diff(r, b, b / 4.0, 3) for b in bs]
    # remainder scale for the third derivative is b log^2 b
    A = np.stack([np.ones(len(bs)),
                  np.array(bs) * np.log(bs) ** 2,
                  np.array(bs) * np.abs(np.log(bs))], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.array(d3_samples), rcond=None)
    d3_limit = float(coef[0])
    report["d3"] = {"samples": dict(zip(bs, d3_samples)), "value": d3_limit,
                    "target": D3_LIMIT,
                    "abs_error_bar": float(np.max(np.abs(A @ coef - d3_samples)))}

    nd_bs = list(nd_schedule) if nd_schedule is not None else [1e-2, 4e-3, 2e-3, 1e-3]
    nd_samples = []
    for b in nd_bs:
        a = b ** 3
        nd_samples.append(_central_diff(lambda x: nd_ratio(x, spec), a, a / 2.0, 1))
    nd_limit, nd_resid = _fit_limit(nd_bs, nd_samples, with_log=True)
    report["nd_derivative"] = {
        "samples": dict(zip(nd_bs, nd_samples)),
        "value": nd_limit,
        "smallest_sample": nd_samples[-1],
        "target": ND_DERIVATIVE_LIMIT,
        "abs_error_bar": nd_resid,
    }
    return report


# ---- the nine small-parameter integral identities ----

def _identity_integral(kind: str, a: float, rel_tol: float = 1e-12) -> float:
    c = a ** (1.0 / 3.0)
    if kind == "inv_sqrt":            # (1): O(log a); log coefficient -1/3
        f = lambda u: np.exp(-u) / np.sqrt(u * u + c * c)
    elif kind == "sqrt_over":         # (2): 1/c + O(c log a)
        f = lambda u: np.exp(-u) * np.sqrt(u * u + c * c) / c
    elif kind == "u_sqrt_over":       # (3): 2/c + O(c)
        f = lambda u: np.exp(-u) * u * np.sqrt(u * u + c * c) / c
    elif kind == "usq_inv_sqrt4":     # (4): 1/c + O(c log a)
        f = lambda u: np.exp(-u) * u * u / (c * np.sqrt(u * u + 4.0 * c * c))
    elif kind == "shifted_ratio":     # (5): 1/c + O(c log a)
        f = lambda u: np.exp(-u) * (u * u + 4.0 * c * c) / (c * np.sqrt(u * u + c * c))
    elif kind == "defect":            # (6): O(c^2 log a)
        f = lambda u: np.exp(-u) * c * c / (u + np.sqrt(u * u + c * c))
    elif kind == "mixed4":            # (7): O(c log a)
        f = lambda u: np.exp(-u) * c * u / ((u + np.sqrt(u * u + 4 * c * c))
                                            * np.sqrt(u * u + 4 * c * c))
    elif kind == "u_log":             # (8): O(1/c), limit of c*lhs = 1+log2-gamma
        f = lambda u: np.exp(-u) * u * np.log(u + np.sqrt(u * u + c * c)) / c
    elif kind == "centered_log":      # (9): -> -1
        f = lambda u: np.exp(-u) * ((u - 1.0) * np.log(u + np.sqrt(u * u + c * c))
                                    - 1.0) / c
    else:
        raise ValueError(kind)
    return _quad_pieces(f, _edges_for(c), rel_tol)


EULER_GAMMA = float(np.euler_gamma)

IDENTITY_SPECS = [
    # name, leading(a, c), envelope(a, c), fit basis builder
    ("inv_sqrt", lambda a, c: -np.log(a) / 3.0, lambda a, c: abs(np.log(a)),
     ("const",)),
    ("sqrt_over", lambda a, c: 1.0 / c, lambda a, c: c * abs(np.log(a)),
     ("const", "lin")),
    ("u_sqrt_over", lambda a, c: 2.0 / c, lambda a, c: c, ("const",)),
    ("usq_inv_sqrt4", lambda a, c: 1.0 / c, lambda a, c: c * abs(np.log(a)),
     ("const", "lin")),
    ("shifted_ratio", lambda a, c: 1.0 / c, lambda a, c: c * abs(np.log(a)),
     ("const", "lin")),
    ("defect", lambda a, c: 0.0, lambda a, c: c * c * abs(np.log(a)),
     ("const", "lin")),
    ("mixed4", lambda a, c: 0.0, lambda a, c: c * abs(np.log(a)), ("const", "lin")),
    ("u_log", lambda a, c: (1.0 + np.log(2.0) - EULER_GAMMA) / c,
     lambda a, c: 1.0, ("const", "lin")),
    ("centered_log", lambda a, c: -1.0, lambda a, c: 1.0, ("const", "lin")),
]


def asymptotic_integral_suite(a_list=None, rel_tol: float = 1e-12):
    """Verify, per identity, the leading term and the remainder order.

    For each identity the remainder (lhs - leading)/envelope is computed on
    the a-schedule and must be bounded and stable: it is fitted against a
    constant (plus an optional linear correction in the envelope ratio) and
    passes when the fit explains the samples and the bound stays below a
    fixed cap.  The final identity must approach its exact limit -1.
    """
    if a_list is None:
        # the slowest identities converge like a^{1/3}, so the default
        # schedule reaches deep enough for the -1 limit to land within 1e-2
        a_list = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8]
    a_arr = np.asarray(sorted(a_list, reverse=True), dtype=float)
    if np.any((a_arr <= 0) | (a_arr >= 1)):
        raise ValueError("a_list must lie in (0, 1)")
    out = []
    for name, leading, envelope, _basis in IDENTITY_SPECS:
        lhs = np.array([_identity_integral(name, a, rel_tol) for a in a_arr])
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


def exact_log_identity_gap(a: float, rel_tol: float = 1e-12) -> float:
    """|lhs - rhs| of the integration-by-parts identity linking (1) and the logs.

    int e^{-u}/sqrt(u^2 + a^{2/3}) du = int e^{-u} log(u + sqrt(u^2 + a^{2/3})) du
                                        - (1/3) log a,
    both sides by quadrature.
    """
    c = a ** (1.0 / 3.0)
    lhs = _identity_integral("inv_sqrt", a, rel_tol)
    f = lambda u: np.exp(-u) * np.log(u + np.sqrt(u * u + c * c))
    rhs = _quad_pieces(f, _edges_for(c), rel_tol) - np.log(a) / 3.0
    return abs(lhs - rhs)


def closing_integral(rel_tol: float = 1e-12) -> float:
    """int_0^inf du / ((u + sqrt(u^2+1)) sqrt(u^2+1)); equals 1 exactly."""
    f = lambda u: 1.0 / ((u + np.sqrt(u * u + 1.0)) * np.sqrt(u * u + 1.0))
    val = _quad_pieces(f, [0.0, 1.0, 10.0, 100.0, 1e4, 1e6, 1e8], rel_tol)
    # analytic tail beyond the last edge: integrand ~ 1/(2 u^2)
    return val + 0.5e-8


# ---- cross links to the closed-form density ----

def _exp_weighted_density_mass(a: float, s: float, inner, rel_tol: float) -> float:
    """4 pi int e^{-a tau} inner(tau) d tau over panels matched to the decay.

    The slice integral inner(tau) is smooth in tau, so composite Gauss with
    one doubling check suffices for the outer direction.
    """
    edges = [0.0, 1.0, 5.0, 10.0, 30.0 / a, 60.0 / a]
    prev = None
    for order in (16, 24):
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi <= lo:
                continue
            t, w = gauss_legendre_nodes(lo, hi, order)
            total += float(np.sum(w * np.exp(-a * t)
                                  * np.array([inner(tt) for tt in t])))
        if prev is not None and abs(total - prev) <= 10 * rel_tol * abs(total):
            break
        prev = total
    return 4.0 * np.pi * total


def masked_numerator(a: float, s: float = 1.0, rel_tol: float = 1e-10) -> float:
    """Weighted L2 mass of the exp-weighted inner+middle density branches.

    Equals I(a) exactly at s = 1: the same object computed through the
    closed-form density instead of the appendix integrand (cross-oracle).
    """
    def inner(tau):
        hi = np.sqrt(tau * tau + 4.0 * s * s)
        lo = np.sqrt(tau * tau + s * s) - s
        f = lambda rho: mu_self_conv_masked(s, rho, np.full_like(rho, tau)) ** 2 * rho * rho
        return _quad_pieces(f, [0.0, lo, hi], rel_tol)

    return _exp_weighted_density_mass(a, s, inner, rel_tol)


def full_numerator(a: float, s: float = 1.0, rel_tol: float = 1e-9) -> float:
    """Weighted L2 mass of the full exp-weighted self-convolution density.

    This is the exact value of ||f_a mu * f_a mu||_2^2 (all branches), used
    as an oracle for the trial-family functional; it strictly dominates the
    masked value I(a).
    """
    def inner(tau):
        lo = np.sqrt(tau * tau + s * s) - s
        mid = np.sqrt(tau * tau + 4.0 * s * s)
        hi = np.sqrt(tau * tau + s * s) + s
        f = lambda rho: mu_self_conv_grid(s, rho, np.full_like(rho, tau)) ** 2 * rho * rho
        return _quad_pieces(f, [0.0, lo, mid, hi], rel_tol)

    return _exp_weighted_density_mass(a, s, inner, rel_tol)
