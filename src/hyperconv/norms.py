"""Lp norms of radial profiles and weighted L2 norms of sampled fields."""
from __future__ import annotations

import logging
import warnings
from dataclasses import replace

import numpy as np

from .fields import Conv2DField
from .geometry import phi, psi
from .profiles import RadialProfile
from .quadrature import QuadratureSpec, integrate

log = logging.getLogger("hyperconv")


def lp_norm(f: RadialProfile, p: float, spec: QuadratureSpec | None = None) -> float:
    """Lp norm of a radial profile against the surface measure.

    In the time chart the weight is smooth:
    ||f||_p^p = 4*pi * int_0^inf |f(phi(u))|^p phi(u) du; the substitution
    u = psi(r) removes the endpoint weight singularity 1/sqrt(r^2-s^2)
    exactly, so plain adaptive quadrature applies.  The node times
    psi(grid) are passed as breakpoints, since the interpolant has a kink at
    each.  If the spec's rule does not converge, the integral is retried
    with the Simpson rule at the same tolerances and depth, and the fallback
    is logged as a warning on the "hyperconv" logger.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    spec = spec or QuadratureSpec()
    u0, u1 = f.u_support()
    if u1 <= u0 or not np.any(f.values):
        return 0.0
    s = f.s

    def integrand(u):
        return np.abs(f.at_time(u)) ** p * phi(u, s)

    res = integrate(integrand, u0, u1, spec, points=psi(f.grid, s), strict=False)
    if not res.converged:
        log.warning("lp_norm: rule %r did not converge on [%g, %g]; retrying with simpson",
                    spec.rule, u0, u1)
        res = integrate(integrand, u0, u1, replace(spec, rule="simpson"))
    return float((4.0 * np.pi * res.value) ** (1.0 / p))


class TruncationWarning(UserWarning):
    pass


def l2_field_norm(h: Conv2DField, warn_boundary: bool = True):
    """Weighted L2 norm of a sampled field with a grid-refinement error estimate.

    Returns (norm, error_estimate); the estimate compares the trapezoid value
    with the one on every-other-node subgrids (Richardson-style).  Warns when
    the support touches the grid boundary (truncation bias).
    """
    if warn_boundary and h.touches_boundary():
        warnings.warn("field support touches the grid boundary; norm is truncated",
                      TruncationWarning, stacklevel=2)

    def sq_integral(rho, tau, vals):
        w = 4.0 * np.pi * rho[:, None] ** 2 * np.abs(vals) ** 2
        return float(np.trapezoid(np.trapezoid(w, rho, axis=0), tau))

    full = sq_integral(h.rho_grid, h.tau_grid, h.values)
    coarse = sq_integral(h.rho_grid[::2], h.tau_grid[::2], h.values[::2, ::2])
    err_sq = abs(full - coarse) / 3.0
    norm = np.sqrt(max(full, 0.0))
    err = 0.5 * err_sq / norm if norm > 0 else np.sqrt(err_sq)
    return norm, err


def field_inner_product(h1: Conv2DField, h2: Conv2DField) -> float:
    """<h1, h2> with the 4*pi*rho^2 weight (shared grids required)."""
    if not (np.array_equal(h1.rho_grid, h2.rho_grid)
            and np.array_equal(h1.tau_grid, h2.tau_grid)):
        raise ValueError("fields must share grids")
    w = 4.0 * np.pi * h1.rho_grid[:, None] ** 2 * (np.conj(h1.values) * h2.values)
    val = np.trapezoid(np.trapezoid(w, h1.rho_grid, axis=0), h1.tau_grid)
    return float(np.real(val))
