"""Radial profiles on the mass-s surface: node values, linear in the time height.

A profile holds values at a strictly increasing grid of radii inside
[s, r_max].  Between nodes it is linear in the time height u = psi(r, s),
the variable in which every radial integral of this package is taken, and
it is zero outside the grid.  So one interpolant describes a profile
everywhere: ``SliceEngine``'s trapezoid rows, the field samplers' window
integrals and the warm starts of the radial search all read the same
piecewise-linear function of u.  Linear interpolation preserves
nonnegativity, which the extremizer search relies on.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import check_count, check_mass, check_r_max, check_real, phi, psi


@dataclass
class RadialProfile:
    s: float
    grid: np.ndarray
    values: np.ndarray
    times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.s = check_mass(self.s)
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values)
        if self.grid.ndim != 1 or self.grid.size < 2:
            raise ValueError("grid must be a 1-D array with at least two nodes")
        if self.grid[0] < self.s - 1e-12:
            raise ValueError(f"grid radii must be >= s = {self.s}")
        self.times = psi(self.grid, self.s)
        if not np.all((np.diff(self.grid) > 0) & (np.diff(self.times) > 0)):
            raise ValueError("grid must be strictly increasing, and so must its node "
                             "times psi(grid, s)")
        if self.values.shape != self.grid.shape:
            raise ValueError("values must match grid shape")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("profile values must be finite")

    @property
    def r_max(self) -> float:
        return float(self.grid[-1])

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.values)

    def __call__(self, r):
        """Evaluate at radius r: ``at_time(psi(r))`` on the grid, exactly 0 outside it."""
        r = np.asarray(r, dtype=float)
        inside = (r >= self.grid[0]) & (r <= self.grid[-1])
        out = np.where(inside, self.at_time(psi(r, self.s)), 0.0)
        return out if out.ndim else complex(out) if self.is_complex else float(out)

    def at_time(self, t):
        """Evaluate at time height |t|: linear between the node times, 0 beyond them."""
        return np.interp(np.abs(t), self.times, self.values, left=0.0, right=0.0)

    def u_support(self):
        """Time-height interval [psi(grid[0]), psi(r_max)] carrying the profile."""
        return float(self.times[0]), float(self.times[-1])

    def scaled(self, c: float) -> "RadialProfile":
        return RadialProfile(self.s, self.grid, self.values * c)


def smooth_bump(x):
    """C-infinity bump exp(1 - 1/(1-x^2)) on |x| < 1, zero outside."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    out = np.zeros(x.shape)
    with np.errstate(divide="ignore", over="ignore"):
        val = np.exp(1.0 - 1.0 / np.clip(1.0 - x * x, 1e-300, None))
    out[inside] = val[inside]
    return out


def trial_profile(a: float, s: float = 1.0, r_max: float = 40.0,
                  n: int = 400) -> RadialProfile:
    """Exponential trial profile exp(-(a/2) u) at n nodes uniform in the time height u.

    Equal steps in u are the engine's grid, and the interpolant is linear in
    u, so near the tip r = s, where r = phi(u) bends, the nodes need no
    refinement.
    """
    a, s = check_real("decay rate a", a, above=0.0), check_mass(s)
    r_max = check_r_max(r_max, s)
    n = check_count("n", n, 2)
    u = np.linspace(0.0, psi(r_max, s), n)
    return RadialProfile(s, phi(u, s), np.exp(-0.5 * a * u))


def shell_indicator(lo: float, hi: float, s: float, n: int = 200,
                    smooth: bool = False) -> RadialProfile:
    """Profile supported on the radial shell [lo, hi]; optionally a smooth bump.

    The indicator variant samples 1 inside and 0 at the two outermost nodes
    so the interpolant stays inside the shell.  The smooth variant is
    ``smooth_bump`` on the shell, which measures dyadic interactions
    without the artificial edge mass of indicators.
    """
    if not (s <= lo < hi):
        raise ValueError("need s <= lo < hi")
    grid = np.linspace(lo, hi, n)
    if smooth:
        vals = smooth_bump(2.0 * (grid - lo) / (hi - lo) - 1.0)
    else:
        vals = np.ones(n)
        vals[[0, -1]] = 0.0
    return RadialProfile(s, grid, vals)

