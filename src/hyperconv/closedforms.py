"""Exact convolution densities on the mass-s surface and their sup bounds.

Everything here reduces, after the rotational symmetry reduction, to window
measures on a time slice: the self convolution of the weighted surface
measure mu_s at (|xi|, tau) = (rho, tau) equals (2*pi/rho) times the length
of {t in [0, tau] : |phi(t) - phi(tau - t)| <= rho <= phi(t) + phi(tau - t)},
which evaluates to the three-branch closed form implemented in
``mu_self_conv``.  The mixed convolution with the cone measure sigma_c has
an analogous three-branch form in ``mu_cone_conv``.  ``self_conv_row_mass``
is the closed-form row mass M(tau), the rho integral of the squared density
against rho^2, within 5e-16 of a 50-digit quadrature for tau/s in [1e-3, 1e12].

Branch geometry for the self convolution at fixed tau > 0:

    inner   rho <  sqrt(tau^2 + s^2) - s        density 2*pi*sqrt(1 + 4 s^2/(tau^2 - rho^2))
    middle  ...  <= rho <= sqrt(tau^2 + 4 s^2)  density 2*pi*tau/rho
    outer   ...  <  rho <= sqrt(tau^2 + s^2)+s  density 2*pi*(tau/rho - sqrt(1 + 4 s^2/(tau^2 - rho^2)))
    outside                                     0

Branch boundaries evaluate by the interior branch (measure-zero choice,
fixed for determinism); rho = 0 uses the analytic limit
2*pi*sqrt(1 + 4 s^2/tau^2).  ``branch_curves`` clamps the three edges to
lo <= mid <= hi, so rounding never puts a rho beyond the support on the
middle branch, nor rho = tau at s = 0 on the inner one.  The window
integrals of ``convolution`` read these same edges; only the edges are
shared, and the densities here (and ``mu_self_conv_casewise`` with its own
tau-partitioned edges) stay independent checks of those integrals.

``mu_cone_conv_sup`` does NOT use the printed middle-regime formula of the
source derivation, which is inconsistent with the density itself (it is
exactly twice the true sup and discontinuous at its own breakpoints); the
corrected value pi*(1 + (s - sqrt(s^2 - tau^2))^2/tau^2), equal to
2*pi*s*(s - sqrt(s^2 - tau^2))/tau^2, is the interior maximum of the middle
branch of the density and is continuous at the golden-ratio breakpoint
tau = (s/2)*sqrt(2*(sqrt(5)-1)).  At tau = s the pointwise sup is 2*pi but
its tau->s+ limit is 4*pi (the density is discontinuous at the corner
rho -> 0, tau -> s); the sup function returns the upper value 4*pi there so
that its maximum equals the global sup norm 4*pi.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import check_mass, check_real

TWO_PI = 2.0 * np.pi


class Branch(str, Enum):
    INNER = "inner"
    MIDDLE = "middle"
    OUTER = "outer"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class ConvPoint:
    s: float
    rho: float
    tau: float

    def __post_init__(self):
        check_mass(self.s)
        if self.rho < 0:
            raise ValueError("rho = |xi| must be nonnegative")


@dataclass(frozen=True)
class BranchTag:
    branch: Branch
    wide_regime: bool  # True when rho > 2 s (the wide-|xi| case of the derivation)


def branch_curves(s: float, tau):
    """The rho edges (inner|middle, middle|outer, support) of the branches at tau.

    The inner edge sqrt(tau^2 + s^2) - s is taken as
    tau^2 / (sqrt(tau^2 + s^2) + s), which does not cancel when tau << s.
    The edges are clamped to lo <= mid <= hi: rounding can put the middle
    edge an ulp beyond the support edge (tau^2 / (4 s) below an ulp of 2 s)
    and, at s = 0 where all three meet at tau, the inner edge an ulp beyond
    the others; 2 hypot(tau/2, s) keeps the middle edge within half an ulp.
    ``tau`` may be an array (a column of rows); the edges then come as arrays.
    """
    tau = np.asarray(tau, dtype=float)
    root = np.sqrt(tau * tau + s * s)
    hi_edge = root + s
    mid_edge = np.minimum(2.0 * np.hypot(0.5 * tau, s), hi_edge)
    lo_edge = np.divide(tau * tau, hi_edge, out=np.zeros_like(root), where=root > 0.0)
    return np.minimum(lo_edge, mid_edge), mid_edge, hi_edge


def self_conv_row_mass(s: float, tau):
    """M(tau) = int mu_self_conv(rho, tau)^2 rho^2 d rho, as (inner + middle, outer).

    Vectorized over tau >= 0 like ``branch_curves``; the first part is what
    ``mu_self_conv_masked`` keeps.  Each branch integrates in closed form: with
    c = 4 s^2 and the edges lo <= mid <= hi, the first part is 4 pi^2 (lo^3/3
    + c (tau artanh(lo/tau) - lo) + tau^2 (mid - lo)).  Every difference is
    taken without cancellation, so M keeps 5e-16 relative accuracy for tau/s
    in [1e-3, 1e12]; the outer part alone, O(tau^4/s) as tau/s -> 0, keeps
    only M's absolute accuracy (1e-8 relative at tau/s = 1e-3).  At s = 0,
    M = 4 pi^2 tau^3/3 exactly.  That form is also taken where s^2
    underflows to 0 (s below about 1.5e-162), where the closed form divides
    0 by 0 or multiplies a vanishing c by an infinite log1p; M differs from
    the cone's by about 6 (s/tau)^2 ln(tau/s) relative, under rounding
    wherever M does not itself underflow.
    """
    s = check_mass(s)
    tau = np.asarray(tau, dtype=float)
    if s * s == 0.0:
        return TWO_PI ** 2 * tau ** 3 / 3.0, np.zeros_like(tau)
    c = 4.0 * s * s
    lo, mid, hi = branch_curves(s, tau)
    t2 = tau * tau
    inner = lo ** 3 / 3.0 + c * (0.5 * tau * np.log1p((tau + lo) / s) - lo)
    width = 2.0 * s * t2 / (hi * (hi + mid))  # hi - mid
    outer = (width * (t2 - c + (hi * hi + hi * mid + mid * mid) / 3.0) - 2.0 * s * t2
             + c * tau * np.log1p((width + tau + lo) / (mid + tau)))
    return TWO_PI ** 2 * (inner + t2 * (mid - lo)), TWO_PI ** 2 * outer


def classify(p: ConvPoint) -> BranchTag:
    lo, mid, hi = branch_curves(p.s, p.tau)
    if p.tau < 0 or (p.tau >= 0 and p.rho > hi) or (p.tau == 0 and p.rho == 0):
        br = Branch.OUTSIDE
    elif p.rho < lo:
        br = Branch.INNER
    elif p.rho <= mid:
        br = Branch.MIDDLE
    else:
        br = Branch.OUTER
    return BranchTag(br, p.rho > 2.0 * p.s)


def mu_self_conv_grid(s: float, rho, tau):
    """Vectorized self-convolution density of the mass-s surface measure."""
    rho = np.asarray(rho, dtype=float)
    tau = np.asarray(tau, dtype=float)
    rho, tau = np.broadcast_arrays(rho, tau)
    out = np.zeros(rho.shape)
    pos = tau > 0
    lo, mid, hi = branch_curves(s, tau)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = 1.0 + 4.0 * s * s / (tau * tau - rho * rho)
        inner = TWO_PI * np.sqrt(np.maximum(ratio, 0.0))
        middle = TWO_PI * np.where(rho > 0, tau / np.maximum(rho, 1e-300), np.inf)
        outer = np.where(rho > 0,
                         TWO_PI * (tau / np.maximum(rho, 1e-300)
                                   - np.sqrt(np.maximum(ratio, 0.0))),
                         0.0)
    axis = pos & (rho == 0.0)
    out[axis] = TWO_PI * np.sqrt(1.0 + 4.0 * s * s / tau[axis] ** 2)
    m_in = pos & (rho > 0) & (rho < lo)
    m_mid = pos & (rho >= lo) & (rho <= mid)
    m_out = pos & (rho > mid) & (rho <= hi)
    out[m_in] = inner[m_in]
    out[m_mid] = middle[m_mid]
    out[m_out] = outer[m_out]
    return out


def mu_self_conv(p: ConvPoint) -> float:
    """Self-convolution density at a single point (0 outside the support)."""
    return float(mu_self_conv_grid(p.s, p.rho, p.tau))


def mu_self_conv_masked(s: float, rho, tau):
    """Inner + middle branches only: the lower bound kept in the comparison chain."""
    out = mu_self_conv_grid(s, rho, tau)
    _, mid, _ = branch_curves(s, tau)
    return np.where(np.asarray(rho, dtype=float) <= mid, out, 0.0)


def mu_self_conv_casewise(s: float, rho: float, tau: float) -> float:
    """Redundant second implementation, partitioned by tau at fixed rho.

    Used only for differential testing against ``mu_self_conv``: the four
    indicator terms come from the direct window-measure derivation before
    rearrangement into the rho-partitioned form.
    """
    if tau <= 0 or rho < 0:
        return 0.0
    if rho == 0.0:
        return TWO_PI * np.sqrt(1.0 + 4.0 * s * s / (tau * tau))
    out = 0.0
    # tau on the curves, sqrt((rho +- s)^2 - s^2) without cancellation at small rho
    edge_hi = np.sqrt(rho * (rho + 2.0 * s))  # the support boundary curve
    if rho <= 2.0 * s:
        if tau <= edge_hi:
            out += 2.0 * tau
    else:
        edge_lo = np.sqrt(rho * (rho - 2.0 * s))
        edge_mid = np.sqrt(rho * rho - 4.0 * s * s)
        if edge_lo <= tau < edge_mid:
            out += 2.0 * (tau - rho * np.sqrt(1.0 + 4.0 * s * s / (tau * tau - rho * rho)))
        if edge_mid <= tau <= edge_hi:
            out += 2.0 * tau
    if tau > edge_hi:
        out += 2.0 * rho * np.sqrt(1.0 + 4.0 * s * s / (tau * tau - rho * rho))
    return float(np.pi / rho * out)


def mu_self_conv_sup(s: float, tau: float):
    """Bracket [2*pi*sqrt(1+4s^2/tau^2), 2*pi*(1+2s/tau)] for the rho-sup at tau."""
    s, tau = check_mass(s), check_real("tau", tau, above=0.0)
    lower = TWO_PI * np.sqrt(1.0 + 4.0 * s * s / (tau * tau))
    upper = TWO_PI * (1.0 + 2.0 * s / tau)
    return float(lower), float(upper)


def mu_self_conv_sup_exact(s: float, tau: float) -> float:
    """Exact rho-sup 2*pi*(sqrt(tau^2+s^2)+s)/tau, attained at the inner boundary."""
    s, tau = check_mass(s), check_real("tau", tau, above=0.0)
    return float(TWO_PI * (np.sqrt(tau * tau + s * s) + s) / tau)


def mu_cone_conv_grid(s: float, rho, tau):
    """Vectorized mixed convolution density (mass-s measure with the cone measure)."""
    rho = np.asarray(rho, dtype=float)
    tau = np.asarray(tau, dtype=float)
    rho, tau = np.broadcast_arrays(rho, tau)
    out = np.zeros(rho.shape)
    root = np.sqrt(tau * tau + s * s)
    with np.errstate(divide="ignore", invalid="ignore"):
        v1 = TWO_PI * (tau * tau - rho * rho + s * s) / (tau * tau - rho * rho)
        v2 = (TWO_PI / np.maximum(rho, 1e-300)) * ((tau + rho) ** 2 - s * s) / (2.0 * (tau + rho))
        v3 = (TWO_PI / np.maximum(rho, 1e-300)) * (s * s - (rho - tau) ** 2) / (2.0 * (rho - tau))
    pos = tau >= 0
    m1 = pos & (tau >= s) & (rho < tau - s)
    m2 = pos & (np.abs(tau - s) <= rho) & (rho < root) & ~m1 & (tau + rho > 0)
    m3 = pos & (root <= rho) & (rho <= tau + s) & (rho > tau)
    out[m1] = v1[m1]
    out[m2] = v2[m2]
    out[m3] = v3[m3]
    return out


def mu_cone_conv(p: ConvPoint) -> float:
    return float(mu_cone_conv_grid(p.s, p.rho, p.tau))


def mixed_sup_breakpoint(s: float) -> float:
    """First breakpoint tau* = (s/2)*sqrt(2*(sqrt(5)-1)) of the mixed sup."""
    return 0.5 * s * np.sqrt(2.0 * (np.sqrt(5.0) - 1.0))


def mu_cone_conv_sup(s: float, tau: float) -> float:
    """Sup over rho of the mixed density at fixed tau >= 0 (corrected middle regime)."""
    s, tau = check_mass(s), check_real("tau", tau, at_least=0.0)
    if s == 0.0:
        return TWO_PI if tau > 0 else 0.0
    if tau == 0.0:
        return 0.0
    if tau >= s:
        return float(TWO_PI * (1.0 + s / (2.0 * tau - s)))
    if tau <= mixed_sup_breakpoint(s):
        return float(TWO_PI * tau / np.sqrt(tau * tau + s * s))
    d = np.sqrt(s * s - tau * tau)
    return float(np.pi * (1.0 + (s - d) ** 2 / (tau * tau)))


def exp_weighted_conv(a: float, p: ConvPoint) -> float:
    """Density of the exponential-profile pair trial convolution: e^{-a tau/2} mu*mu."""
    a = check_real("decay rate a", a, at_least=0.0)
    return float(np.exp(-0.5 * a * p.tau) * mu_self_conv(p))


def support_predicate(p: ConvPoint, kind: str = "self") -> bool:
    """True iff the point lies in the closed support of the requested convolution."""
    if p.tau < 0:
        return False
    if kind == "self":
        return bool(p.rho <= np.sqrt(p.tau ** 2 + p.s ** 2) + p.s)
    if kind == "cone":
        return bool(p.rho <= p.tau + p.s)
    raise ValueError(f"unknown kind {kind!r}")
