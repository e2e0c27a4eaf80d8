"""Lp norms of radial profiles by ``convolution``'s profile rule; L2 norms of sampled fields."""
from __future__ import annotations

import warnings

import numpy as np

from .convolution import _profile_integral
from .fields import Conv2DField
from .geometry import check_real
from .profiles import RadialProfile
from .quadrature import QuadratureSpec, richardson


def lp_norm(f: RadialProfile, p: float, spec: QuadratureSpec | None = None) -> float:
    """Lp norm of a radial profile against the surface measure; ``p`` finite and >= 1.

    ||f||_p^p = 4*pi * int |f|^p phi(u) du over the interpolant, which is linear in the
    time height u between node times.  Unlike the field samplers' window integrals this
    integrand is not a polynomial in u (|.|^p and phi(u) = sqrt(u^2 + s^2) are not), so the
    rule stays adaptive: 8-point Gauss between cuts at the node times, the interpolant's
    zeros in u and u = s 2**k (each graded), levels doubling until the spec's rel_tol and
    abs_tol are met, else ``QuadratureError`` names the u-range.
    """
    p = check_real("p", p, at_least=1.0)
    return float(_profile_integral(f, p, spec or QuadratureSpec()) ** (1.0 / p))


class TruncationWarning(UserWarning):
    pass


def l2_field_norm(h: Conv2DField, warn_boundary: bool = True):
    """Weighted L2 norm of a sampled field with a grid-refinement error estimate.

    Returns (norm, error_estimate); the estimate is the Richardson correction
    (``quadrature.richardson``) from every-other-node subgrids.  Warns when
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
    *_, corrections, _ = richardson((coarse, full), (2.0, 1.0))
    err_sq = abs(corrections[0])
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
