"""Radial profiles on the mass-s surface: sampled values with linear interpolation.

A profile is a function of the spatial radius r on a strictly increasing grid
inside [s, r_max]; evaluation between nodes is piecewise linear and zero
outside the grid (linear interpolation preserves nonnegativity, which the
extremizer search relies on).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import check_count, check_mass, check_r_max, check_real, phi, psi


@dataclass
class RadialProfile:
    s: float
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.s = check_mass(self.s)
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values)
        if self.grid.ndim != 1 or self.grid.size < 2:
            raise ValueError("grid must be a 1-D array with at least two nodes")
        if not np.all(np.diff(self.grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if self.grid[0] < self.s - 1e-12:
            raise ValueError(f"grid radii must be >= s = {self.s}")
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
        """Evaluate at radius r (piecewise linear, zero outside the grid)."""
        r = np.asarray(r, dtype=float)
        if self.is_complex:
            out = (np.interp(r, self.grid, self.values.real, left=0.0, right=0.0)
                   + 1j * np.interp(r, self.grid, self.values.imag, left=0.0, right=0.0))
        else:
            out = np.interp(r, self.grid, self.values, left=0.0, right=0.0)
        return out if out.ndim else complex(out) if self.is_complex else float(out)

    def at_time(self, t):
        """Evaluate at time height t, i.e. at radius phi(t, s)."""
        return self(phi(t, self.s))

    def u_support(self):
        """Time-height interval [psi(grid[0]), psi(r_max)] carrying the profile."""
        return psi(self.grid[0], self.s), psi(self.grid[-1], self.s)

    def scaled(self, c: float) -> "RadialProfile":
        return RadialProfile(self.s, self.grid, self.values * c)


def tip_refined_time_grid(s: float, r_max: float, n: int,
                          tip_nodes: int = 200) -> np.ndarray:
    """Time-uniform radius grid with quadratically spaced nodes near the tip r = s.

    Linear-in-r interpolation of smooth functions of the time height u loses
    accuracy near the tip (d^2/dr^2 grows like s^2/psi^3, psi = time height);
    spacing du proportional to sqrt(u) equalizes the local interpolation
    error there, so the tip region [0, u_break] gets nodes u_break*(j/m)^2.
    """
    u_max = psi(r_max, s)
    u = np.linspace(0.0, u_max, n)
    if s > 0 and n > 2 and tip_nodes > 1:
        u_break = min(max(1.0, 4.0 * u[1]), u_max / 4.0)
        quad_nodes = u_break * (np.arange(tip_nodes + 1) / tip_nodes) ** 2
        u = np.unique(np.concatenate([u, quad_nodes]))
    return phi(u, s)


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
    """Exponential trial profile exp(-(a/2) * psi(r, s)), tip-refined sampling."""
    a, s = check_real("decay rate a", a, above=0.0), check_mass(s)
    r_max = check_r_max(r_max, s)
    n = check_count("n", n, 2)
    grid = tip_refined_time_grid(s, r_max, n, tip_nodes=max(64, n // 8))
    vals = np.exp(-0.5 * a * psi(grid, s))
    return RadialProfile(s, grid, vals)


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

