"""Fast slice-quadrature engine for the quartic convolution functional.

Everything lives on a uniform time grid u_i = i*delta.  For a radial
profile with node values F_i = f(phi(u_i)) the self-convolution density at
(rho, tau) is (2*pi/rho) H(rho, tau) with

    H = S(w(rho))                 on the inner branch,
    H = C                         on the middle branch,
    H = C - S(w(rho))             on the outer branch,

where S(w) is the centered window integral of F(t) F(tau - t) over
[tau/2 - w, tau/2 + w], C its saturation, and the half width
w = (rho/2) sqrt(1 + 4 s^2/(tau^2 - rho^2)) is invertible per branch.  The
weighted L2 mass of the field in rho is therefore a 1-D integral in w with
the mapped node positions rho_inner(w), rho_outer(w); integrating in w
passes through the sqrt cusp of the rho parametrization exactly.

On the grid, tau nodes are sums of u nodes, so the window integrands align
with grid nodes.  Row k = 0 .. 2n-2 of the window table is tau = k*delta;
its window j pairs the nodes hi = k//2 + j and lo = k - hi at half width
w_j = (j - (k%2)/2)*delta, and the window reaches the saturation width
tau/2 at j_end = (k+1)//2.  The pair sums P_j = g_lo + g_hi of the product
integrand (P_0 = 2 g_c on even rows, P_0 = 0 on odd rows, whose j = 0
window is empty) make S a single cumulative trapezoid sum per row.  Pairs
that leave the grid point at the sentinel index n, where the node vectors
carry an appended zero, so no mask is needed.

Only the live diamond of the table is stored.  Row k keeps the windows
j = 0 .. J_k with J_k = min(j_end, n-1-k//2), the last pair on the grid.
A row with J_k = j_end saturates on the grid, at C = S_{J_k}.  Otherwise
P_j = 0 beyond J_k, so S_j = C from J = J_k + 1 on, and the dropped
windows J+1 .. j_end add C^2 times the inner trapezoid weights of their
nodes, r_sat - (r_J + r_{J+1})/2 (r = rho_inner), and nothing on the outer
branch.  The row therefore keeps window J+1 and one appended column at
the saturation width tau/2: the trapezoid weights of those two nodes,
(r_sat - r_J)/2 and (r_sat - r_{J+1})/2, sum to exactly that weight, and
the appended column (a sentinel pair) holds C.  The rows are stored in
blocks of consecutive k, each padded to its widest row with columns at the
saturation width (trapezoid weight 0) and sentinel pairs (P = 0).  The
numerator

    ||f mu * f mu||_2^2 = 16 pi^3 int d tau int H^2 d rho

becomes a quadratic form in the per-row cumulative sums with fixed,
profile-independent coefficients (``rho_weights``, applied per row by
``row_values``), and its exact gradient is the reverse cumulative chain
(the adjoint of the slice quadrature).  ``extremizer.shell_pair_norm_sq``
integrates its sparse rows with the same two functions, applying the same
saturation reduction.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .geometry import check_mass, phi

SIXTEEN_PI3 = 16.0 * np.pi ** 3
FOUR_PI = 4.0 * np.pi
BLOCK_ENTRIES = 2 ** 15  # packed entries per block, about: bounds each block's temporaries


def rho_pair_from_w(s: float, w, tau):
    """(rho_inner, rho_outer) whose centered window has half width w at tau."""
    w = np.asarray(w, dtype=float)
    tau = np.asarray(tau, dtype=float)
    b = tau * tau + 4.0 * s * s + 4.0 * w * w
    disc = np.sqrt(np.maximum(b * b - 16.0 * w * w * tau * tau, 0.0))
    x_plus = 0.5 * (b + disc)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_minus = np.where(x_plus > 0.0, 4.0 * w * w * tau * tau / x_plus, 0.0)
    return np.sqrt(x_minus), np.sqrt(x_plus)


def rho_weights(s: float, w, tau):
    """Trapezoid weights (alpha_in, alpha_out, mid_len) of the rho integral per row.

    w[r] holds row r's window half widths, nondecreasing from 0 up to the
    saturation width tau[r]/2.  alpha_in[r, j] multiplies S_j^2 (inner
    branch), alpha_out[r, j] multiplies (C - S_j)^2 (outer branch) and
    mid_len[r] multiplies C^2 (middle branch); repeated widths get zero
    weight.
    """
    r_in, r_out = rho_pair_from_w(s, w, np.asarray(tau, dtype=float)[:, None])
    mid_len = np.maximum(r_out[:, 0] - r_in[:, -1], 0.0)
    return _trapezoid_weights(r_in), _trapezoid_weights(r_out), mid_len


def _trapezoid_weights(r):
    """Node weights of the trapezoid rule on the nodes r along axis 1 (in place)."""
    half = np.diff(r, axis=1)
    half *= 0.5
    r[:, :-1] = half
    r[:, -1] = 0.0
    r[:, 1:] += half
    return r


def row_values(S, j_end, alpha_in, alpha_out, mid_len):
    """int H^2 d rho per row from window sums S, saturating at C = S[r, j_end[r]]."""
    C = np.take_along_axis(S, j_end[:, None], axis=1)
    return (np.sum(alpha_in * S * S, axis=1) + mid_len * C[:, 0] ** 2
            + np.sum(alpha_out * (C - S) ** 2, axis=1))


class _Block(NamedTuple):
    """Consecutive rows of the packed window table, padded to one width.

    The tau trapezoid weight of each row (1/2 on the first and the last row
    of the table) is folded into alpha_in, alpha_out and mid_len.
    """

    lo: np.ndarray         # (rows, width) int32 node indices, sentinel n
    hi: np.ndarray
    sat: np.ndarray        # (rows,) column holding the saturation value C
    alpha_in: np.ndarray   # (rows, width) rho weights, from rho_weights
    alpha_out: np.ndarray
    mid_len: np.ndarray    # (rows,)


def _packed_block(s: float, n: int, delta: float, k0: int, k1: int) -> _Block:
    """Rows k0 .. k1-1 of the packed table of the module docstring."""
    k = np.arange(k0, k1, dtype=np.int32)[:, None]
    j_end = (k + 1) // 2
    last = np.minimum(j_end, n - 1 - k // 2)   # J_k
    sat = np.where(last == j_end, last, last + 2)
    j = np.arange(int(sat.max()) + 1, dtype=np.int32)[None, :]
    hi = k // 2 + j
    lo = k - hi
    off = (j > last) | (lo > hi)
    hi[off] = n
    lo[off] = n
    tau = delta * k
    w = np.where(j > last + 1, 0.5 * tau,
                 np.clip((j - 0.5 * (k % 2)) * delta, 0.0, 0.5 * tau))
    alpha_in, alpha_out, mid_len = rho_weights(s, w, tau[:, 0])
    ends = (k[:, 0] == 0) | (k[:, 0] == 2 * n - 2)
    alpha_in[ends] *= 0.5
    alpha_out[ends] *= 0.5
    mid_len[ends] *= 0.5
    return _Block(lo, hi, sat[:, 0], alpha_in, alpha_out, mid_len)


class SliceEngine:
    """Quartic-functional evaluator on a uniform time grid for mass s.

    The packed window table (pair indices and rho weights of the live rows
    tau = k*delta, k = 0 .. 2n-2, in blocks of about ``BLOCK_ENTRIES``
    entries) depends only on (s, n, u_max) and is built once; each numerator
    or gradient evaluation is pure array arithmetic, one block at a time.
    """

    def __init__(self, s: float, n: int, u_max: float):
        if n < 8:
            raise ValueError("need at least 8 grid nodes")
        s = check_mass(s)
        u_max = float(u_max)
        if not (np.isfinite(u_max) and u_max > 0.0):
            raise ValueError(f"u_max must be finite and positive, got {u_max}")
        self.s = s
        self.n = int(n)
        self.u = np.linspace(0.0, u_max, n)
        self.delta = self.u[1] - self.u[0]
        self.phi_u = phi(self.u, s)
        self.radius_grid = self.phi_u  # strictly increasing radii
        # rows per block: no packed row is wider than n//2 + 3 columns
        rows, step = 2 * n - 1, max(8, BLOCK_ENTRIES // (n // 2 + 3))
        self._blocks = [_packed_block(s, n, self.delta, k0, min(k0 + step, rows))
                        for k0 in range(0, rows, step)]

        # denominator weights: 4 pi int F^2 phi(u) du by trapezoid
        wts = np.full(n, self.delta)
        wts[[0, -1]] *= 0.5
        self.den_weights = FOUR_PI * wts * self.phi_u

    # ---- profile handling ----

    def sample(self, profile) -> np.ndarray:
        """Node values of a RadialProfile on the engine grid."""
        return np.asarray(profile(self.radius_grid), dtype=float)

    def trial_values(self, a: float) -> np.ndarray:
        return np.exp(-0.5 * a * self.u)

    # ---- quadratic slice machinery ----

    def _window_sums(self, P):
        """Window integrals S of one block from its pair sums P (overwritten).

        P_j = g_lo + g_hi, with the center pair P_0 = 2 g_c counted once
        per side, makes the trapezoid recurrence
        S_j = S_{j-1} + delta (P_j + P_{j-1})/2 hold uniformly.
        """
        S = np.cumsum(P, axis=1)
        P += P[:, :1]
        P *= 0.5
        S -= P
        S *= self.delta
        return S

    def numerator(self, F: np.ndarray, G: np.ndarray | None = None) -> float:
        """||f mu * g mu||_2^2 for node-value vectors on the engine grid."""
        F = np.append(F, 0.0)
        if G is not None:
            G = np.append(G, 0.0)
        total = 0.0
        for blk in self._blocks:
            if G is None:
                P = F.take(blk.lo) * F.take(blk.hi)
                P *= 2.0
            else:
                P = F.take(blk.lo) * G.take(blk.hi)
                P += G.take(blk.lo) * F.take(blk.hi)
            S = self._window_sums(P)
            total += row_values(S, blk.sat, blk.alpha_in, blk.alpha_out, blk.mid_len).sum()
        return SIXTEEN_PI3 * self.delta * float(total)

    def numerator_gradient(self, F: np.ndarray):
        """(numerator, gradient wrt the node values), exact for the discrete form."""
        n = self.n
        Fz = np.append(F, 0.0)
        total = 0.0
        grad = np.zeros(n + 1)
        for blk in self._blocks:
            F_lo, F_hi = Fz.take(blk.lo), Fz.take(blk.hi)
            P = F_lo * F_hi
            P *= 2.0
            S = self._window_sums(P)
            total += row_values(S, blk.sat, blk.alpha_in, blk.alpha_out, blk.mid_len).sum()

            # T = (dV/dS)/2 for the row values V, the saturation C = S[sat] folded in
            rows = np.arange(S.shape[0])
            C = S[rows, blk.sat]
            D = C[:, None] - S
            D *= blk.alpha_out
            T = blk.alpha_in * S
            T -= D
            T[rows, blk.sat] += blk.mid_len * C + D.sum(axis=1)

            # adjoint of the cumulative sums: suffix sums R_j = sum_{j' >= j} T_j';
            # dV/dP_i = 2 delta (R_i - T_i/2 - [i = 0] R_0/2), and dP/dF_lo = 2 F_hi
            dP = np.cumsum(T[:, ::-1], axis=1)[:, ::-1]
            dP[:, 0] *= 0.5
            T *= 0.5
            dP -= T
            F_hi *= dP
            F_lo *= dP
            grad += np.bincount(blk.lo.ravel(), weights=F_hi.ravel(), minlength=n + 1)
            grad += np.bincount(blk.hi.ravel(), weights=F_lo.ravel(), minlength=n + 1)
        grad = grad[:n]
        grad *= 4.0 * SIXTEEN_PI3 * self.delta ** 2
        return SIXTEEN_PI3 * self.delta * float(total), grad

    # ---- the functional ----

    def norm_sq(self, F: np.ndarray) -> float:
        return float(np.sum(self.den_weights * F * F))

    def q_ratio(self, F: np.ndarray) -> float:
        den = self.norm_sq(F)
        if den <= 0:
            raise ValueError("profile has zero L2 norm")
        return self.numerator(F) / den ** 2

    def q_gradient(self, F: np.ndarray):
        """(Q, grad Q) for the scale-invariant ratio N / ||f||_2^4."""
        den = self.norm_sq(F)
        if den <= 0:
            raise ValueError("profile has zero L2 norm")
        num, dnum = self.numerator_gradient(F)
        dden = 2.0 * self.den_weights * F
        q = num / den ** 2
        grad = dnum / den ** 2 - 2.0 * num / den ** 3 * dden
        return q, grad
