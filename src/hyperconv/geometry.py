"""Coordinate maps between spatial radius and time height on the mass-s surface.

The surface with mass parameter s >= 0 is t = sqrt(|x|^2 - s^2), |x| >= s;
s = 0 degenerates to the light cone.  All radial integrals in this package
are carried out in the time variable u = psi(r, s), where the surface
measure weight r^2 / sqrt(r^2 - s^2) dr becomes the smooth phi(u, s) du.
The ``check_*`` helpers here are where the package validates its scalar inputs.
"""
from __future__ import annotations

import math

import numpy as np


def check_real(name: str, value, *, above=None, at_least=None) -> float:
    """Validate a real parameter: finite, and > ``above`` or >= ``at_least`` if given."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if above is not None:
        ok, bound = x > above, f" and > {above:g}"
    elif at_least is not None:
        ok, bound = x >= at_least, f" and >= {at_least:g}"
    else:
        ok, bound = True, ""
    if not (ok and math.isfinite(x)):
        raise ValueError(f"{name} must be finite{bound}, got {value}")
    return x


def check_mass(s: float) -> float:
    """Validate a mass parameter (s = 0 is the cone, s > 0 a hyperboloid)."""
    return check_real("mass parameter s", s, at_least=0.0)


def check_r_max(r_max, s: float) -> float:
    """Validate a truncation radius: finite and beyond the tip radius s."""
    return check_real("r_max", r_max, above=s)


def check_count(name: str, value, minimum: int) -> int:
    """Validate an integer parameter (no bool, no float) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def psi(r, s: float):
    """Time height sqrt(r^2 - s^2) of the surface point at spatial radius r >= s."""
    r = np.asarray(r, dtype=float)
    out = np.sqrt(np.maximum(r * r - s * s, 0.0))
    return out if out.ndim else float(out)


def phi(t, s: float):
    """Spatial radius sqrt(t^2 + s^2) of the surface point at time height t >= 0."""
    t = np.asarray(t, dtype=float)
    out = np.sqrt(t * t + s * s)
    return out if out.ndim else float(out)
