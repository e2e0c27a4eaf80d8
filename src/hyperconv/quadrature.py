"""Quadrature specs and the two 1-D integration routes used for dual checks.

Route A ("gk") wraps scipy's adaptive Gauss-Kronrod rule; ``scipy.integrate``
is imported on the first gk call, so importing this module loads no scipy
submodule.  Route B ("simpson") is an in-house composite Simpson rule with
panel doubling up to a depth cap; it is deliberately independent of scipy so
that closed forms can be checked against two dissimilar integrators.
``integrate_pieces`` runs either route over consecutive pieces and is the
package's one piece loop; ``richardson`` is its one grid-refinement rule.
``QuadratureSpec`` rejects any other rule name.
Integrands must accept numpy arrays.  These routes serve the oracles
(``comparison``, ``montecarlo``, the tests); the profile integrals and the
field samplers use ``convolution``'s Gauss rule and read only the tolerances.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import check_count, check_real

DEFAULT_SEED = 0x5EED
RULES = ("gk", "simpson")


class QuadratureError(RuntimeError):
    """Raised when a requested tolerance is not met at the depth cap."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Rule id, tolerances, depth cap and RNG seed for all integrals."""

    rule: str = "gk"
    rel_tol: float = 1e-8
    abs_tol: float = 1e-14
    max_depth: int = 20
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"rule must be one of {RULES}, got {self.rule!r}")
        check_real("rel_tol", self.rel_tol, above=0.0)
        check_real("abs_tol", self.abs_tol, at_least=0.0)
        check_count("max_depth", self.max_depth, 0)


@dataclass
class QuadResult:
    value: float
    error: float
    converged: bool


def richardson(values, spacings):
    """Order-2 Richardson ladder of ``values`` on grid ``spacings``, coarse to fine.

    With d_k = values[k] - values[k-1] and h_k = spacings[k-1] / spacings[k],
    returns arrays (d_k, d_{k-1} / d_k, observed orders log(d_{k-1} / d_k) /
    log(h_k), NaN where d changes sign, corrections d_k / (h_k^2 - 1), limits
    values[k] + d_k / (h_k^2 - 1)), the limits exact for errors c spacing^2.
    """
    d = np.diff(values)
    h = np.divide(spacings[:-1], spacings[1:])
    ratios = d[:-1] / d[1:]
    orders = np.log(np.where(ratios > 0.0, ratios, np.nan)) / np.log(h[1:])
    corrections = d / (h ** 2 - 1.0)
    return d, ratios, orders, corrections, np.add(values[1:], corrections)


def simpson_adaptive(f, a: float, b: float, rel_tol: float = 1e-8,
                     abs_tol: float = 1e-14, max_depth: int = 20) -> QuadResult:
    """Composite Simpson with panel doubling until the doubling update is small.

    The update is first tested at depth 2 (8 against 4 panels), so chance
    agreement of the two coarsest rules is never accepted.  Without
    convergence the error is the last update tested, or inf if none was.
    """
    a, b = float(a), float(b)
    if b <= a:
        return QuadResult(0.0, 0.0, True)
    prev = None
    err = np.inf
    n = 2
    for depth in range(max_depth + 1):
        x = np.linspace(a, b, n + 1)
        y = np.asarray(f(x), dtype=float)
        h = (b - a) / n
        val = h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())
        if depth >= 2:
            err = abs(val - prev) / 15.0
            if err <= rel_tol * abs(val) + abs_tol:
                return QuadResult(val, err, True)
        prev = val
        n *= 2
    return QuadResult(prev, err, False)


def integrate(f, a: float, b: float, spec: QuadratureSpec, points=None) -> QuadResult:
    """Integrate f on [a, b] with the spec's rule; raise QuadratureError if unmet."""
    if b <= a:
        return QuadResult(0.0, 0.0, True)
    if spec.rule == "simpson":
        res = simpson_adaptive(f, a, b, spec.rel_tol, spec.abs_tol, spec.max_depth)
    else:
        from scipy.integrate import IntegrationWarning, quad

        pts = [p for p in points if a < p < b] if points is not None else []
        with warnings.catch_warnings():
            # convergence is judged from the returned error estimate below;
            # kinked piecewise-linear integrands trip the roundoff warning
            warnings.simplefilter("ignore", IntegrationWarning)
            # every piece between breakpoints gets the budget of a whole range
            val, err = quad(f, a, b, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                            limit=200 * (len(pts) + 1), points=pts or None)
        res = QuadResult(val, err, err <= spec.rel_tol * abs(val) + 10 * spec.abs_tol + 1e-300)
    if not res.converged:
        raise QuadratureError(
            f"integral on [{a}, {b}] did not reach rel_tol={spec.rel_tol} "
            f"(value={res.value}, err={res.error})")
    return res


def split_exp_tail(a_rate: float):
    """Breakpoints [0, 1, 10, 30/a, 60/a, 90/a] for integrands damped by exp(-a*t), a = a_rate.

    The remainder beyond the last breakpoint is below exp(-90) relative to
    the total for polynomially bounded integrands.
    """
    a_rate = check_real("a_rate", a_rate, above=0.0)
    return sorted({0.0, 1.0, 10.0, 30.0 / a_rate, 60.0 / a_rate, 90.0 / a_rate})


def integrate_pieces(f, edges, spec: QuadratureSpec) -> QuadResult:
    """Integrate f over consecutive pieces of ``edges`` and sum values and errors.

    Empty pieces (hi <= lo) add nothing; a piece that misses the spec's
    tolerance raises ``QuadratureError`` naming that piece.
    """
    total, err = 0.0, 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        r = integrate(f, lo, hi, spec)
        total += r.value
        err += r.error
    return QuadResult(total, err, True)


def integrate_exp_decay(f, a_rate: float, spec: QuadratureSpec) -> QuadResult:
    """Integrate f over [0, inf) when |f| <= poly * exp(-a_rate * t)."""
    return integrate_pieces(f, split_exp_tail(a_rate), spec)


def gauss_legendre_nodes(a: float, b: float, n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w
