"""Sampled convolution densities h(rho, tau) on a rectangular grid, with IO.

Rotational symmetry of radial inputs reduces every convolution density in
this package to a function of (rho, tau) = (|xi|, tau); the full-space L2
pairing weight is 4*pi*rho^2 d rho d tau.

Serialization: CSV with header ``rho,tau,value`` (full 17-significant-digit
decimals) and an optional little-endian binary cache with layout
``magic "H3CF" | u32 n_rho | u32 n_tau | f64 rho_grid | f64 tau_grid |
f64 values row-major (rho index varies slowest)``.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .geometry import check_count, check_mass, check_real

MAGIC = b"H3CF"


def _template_axes(rho_max, tau_min, tau_max, n_rho, n_tau, min_rho: int):
    """The checked equispaced rho and tau axes of a template."""
    rho_max = check_real("rho_max", rho_max, above=0.0)
    tau_min = check_real("tau_min", tau_min)
    tau_max = check_real("tau_max", tau_max, above=tau_min)
    return (np.linspace(0.0, rho_max, check_count("n_rho", n_rho, min_rho)),
            np.linspace(tau_min, tau_max, check_count("n_tau", n_tau, 1)))


def check_grid(grid) -> None:
    """A TypeError that names ``grid`` unless it is a ``Conv2DField``."""
    if not isinstance(grid, Conv2DField):
        raise TypeError(f"grid must be a Conv2DField, got {grid!r}")


@dataclass
class Conv2DField:
    rho_grid: np.ndarray
    tau_grid: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.rho_grid = np.asarray(self.rho_grid, dtype=float)
        self.tau_grid = np.asarray(self.tau_grid, dtype=float)
        self.values = np.asarray(self.values)
        for name, grid in (("rho_grid", self.rho_grid), ("tau_grid", self.tau_grid)):
            if grid.ndim != 1:
                raise ValueError(f"{name} must be 1-D, got shape {grid.shape}")
            if not np.all(np.isfinite(grid)):
                raise ValueError("grids must be finite")
            if not np.all(np.diff(grid) > 0):
                raise ValueError(f"{name} must be increasing, got a step of {np.diff(grid).min()}")
        if np.any(self.rho_grid < 0):
            raise ValueError("rho grid must be nonnegative")
        if self.values.shape != (self.rho_grid.size, self.tau_grid.size):
            raise ValueError("values must have shape (n_rho, n_tau)")

    @classmethod
    def template(cls, rho_max: float, tau_min: float, tau_max: float,
                 n_rho: int, n_tau: int) -> "Conv2DField":
        """Zero field on n_rho equispaced rho in [0, rho_max] and n_tau tau in [tau_min, tau_max].

        A ValueError names ``rho_max`` unless it is finite and > 0,
        ``tau_min`` or ``tau_max`` unless both are finite with
        tau_min < tau_max, and ``n_rho`` or ``n_tau`` unless it is an
        integer >= 1.
        """
        rho, tau = _template_axes(rho_max, tau_min, tau_max, n_rho, n_tau, 1)
        return cls(rho, tau, np.zeros((rho.size, tau.size)))

    @classmethod
    def cusp_refined_template(cls, s: float, rho_max: float, tau_min: float,
                              tau_max: float, n_rho: int, n_tau: int) -> "Conv2DField":
        """Template whose rho grid resolves the square-root cusp curves.

        Self-convolution densities have a sqrt cusp in rho along
        rho = sqrt(tau^2 + 4 s^2); plain trapezoid integration across it
        stalls at O(h^{3/2}).  This grid adds, for every tau row, the cusp
        location and the 32 offsets (j/32)^2 * 6h after it (h the uniform rho
        spacing), restoring near-O(h^2) behavior of row-wise trapezoids.
        Inputs are checked as in ``template``, except that ``n_rho`` must be
        >= 2 to give h; a ValueError names ``mass parameter s`` unless it is
        finite and >= 0.
        """
        s = check_mass(s)
        rho, tau = _template_axes(rho_max, tau_min, tau_max, n_rho, n_tau, 2)
        h = rho[1] - rho[0]
        cusps = np.sqrt(np.maximum(tau, 0.0) ** 2 + 4.0 * s * s)
        # sqrt-spaced band after each cusp: node offsets (j/m)^2 * band widen
        # the cells quadratically, equalizing the trapezoid error against the
        # sqrt(rho - cusp) behavior; the band spans several uniform cells.
        m = 32
        band = 6.0 * h
        offsets = band * (np.arange(m + 1) / m) ** 2
        extra = (cusps[:, None] + offsets[None, :]).ravel()
        extra = extra[(extra > 0.0) & (extra < rho_max)]
        rho = np.unique(np.concatenate([rho, extra]))
        return cls(rho, tau, np.zeros((rho.size, tau.size)))

    def like(self, values: np.ndarray) -> "Conv2DField":
        return Conv2DField(self.rho_grid, self.tau_grid, values, dict(self.meta))

    def touches_boundary(self) -> bool:
        """True when a value on the outer grid lines (not rho = 0) exceeds 1e-9 of the peak."""
        v = np.abs(self.values)
        peak = v.max() if v.size else 0.0
        if peak == 0.0:
            return False
        edge = max(v[-1, :].max(), v[:, 0].max(), v[:, -1].max())
        return edge > 1e-9 * peak

    def to_csv(self, path) -> None:
        if np.iscomplexobj(self.values):
            raise ValueError("CSV stores real-valued fields only")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("rho,tau,value\n")
            for i, rho in enumerate(self.rho_grid):
                for j, tau in enumerate(self.tau_grid):
                    fh.write(f"{rho:.17g},{tau:.17g},{self.values[i, j]:.17g}\n")

    @classmethod
    def from_csv(cls, path) -> "Conv2DField":
        data = np.genfromtxt(path, delimiter=",", names=True)
        rho = np.unique(data["rho"])
        tau = np.unique(data["tau"])
        vals = np.asarray(data["value"]).reshape(rho.size, tau.size)
        return cls(rho, tau, vals)

    def to_binary(self, path) -> None:
        if np.iscomplexobj(self.values):
            raise ValueError("binary cache stores real-valued fields only")
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", self.rho_grid.size, self.tau_grid.size))
            fh.write(self.rho_grid.astype("<f8").tobytes())
            fh.write(self.tau_grid.astype("<f8").tobytes())
            fh.write(np.ascontiguousarray(self.values, dtype="<f8").tobytes())

    @classmethod
    def from_binary(cls, path) -> "Conv2DField":
        with open(path, "rb") as fh:
            data = fh.read()
        if data[:4] != MAGIC:
            raise ValueError(f"{path}: not a H3CF field cache")
        if len(data) < 12:
            raise ValueError(f"{path}: H3CF header needs 12 bytes, file has {len(data)}")
        n_rho, n_tau = struct.unpack_from("<II", data, 4)
        expected = 12 + 8 * (n_rho + n_tau + n_rho * n_tau)
        if len(data) != expected:
            raise ValueError(f"{path}: H3CF header gives {n_rho} x {n_tau} nodes, "
                             f"so {expected} bytes are expected; the file has {len(data)}")
        vals = np.frombuffer(data, dtype="<f8", offset=12)
        rho, tau = vals[:n_rho], vals[n_rho:n_rho + n_tau]
        return cls(rho.copy(), tau.copy(),
                   vals[n_rho + n_tau:].reshape(n_rho, n_tau).copy())
