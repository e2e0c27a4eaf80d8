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
with grid nodes.  Row k of the window table is tau = k*delta; its window j
pairs the nodes hi = k//2 + j and lo = k - hi at half width
w_j = (j - (k%2)/2)*delta, and the window saturates at j_end = (k+1)//2
(w = tau/2).  The pair sums P_j = g_lo + g_hi of the product integrand
(P_0 = 2 g_c on even rows, P_0 = 0 on odd rows, whose j = 0 window is
empty) make S a single cumulative trapezoid sum per row.  Pairs that leave
the grid point at the sentinel index n, where the node vectors carry an
appended zero, so no mask is needed.  The numerator

    ||f mu * f mu||_2^2 = 16 pi^3 int d tau int H^2 d rho

becomes a quadratic form in the per-row cumulative sums with fixed,
profile-independent coefficients (``rho_weights``, applied per row by
``row_values``), and its exact gradient is the reverse cumulative chain
(the adjoint of the slice quadrature).  ``extremizer.shell_pair_norm_sq``
integrates its sparse rows with the same two functions.
"""
from __future__ import annotations

import numpy as np

from .geometry import check_mass, phi

SIXTEEN_PI3 = 16.0 * np.pi ** 3
FOUR_PI = 4.0 * np.pi


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


class SliceEngine:
    """Quartic-functional evaluator on a uniform time grid for mass s.

    The window table (pair indices and rho weights of the rows
    tau = k*delta, k = 0 .. 2n-2) depends only on (s, n, u_max) and is
    built once; each numerator or gradient evaluation is pure array
    arithmetic.
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
        # the row table of the module docstring; int32 indices halve its size
        k = np.arange(2 * n - 1, dtype=np.int32)[:, None]
        j = np.arange(n, dtype=np.int32)[None, :]
        hi = k // 2 + j
        lo = k - hi
        off = (lo < 0) | (hi >= n) | (lo > hi)
        hi[off] = n
        lo[off] = n
        self._hi, self._lo = hi, lo
        self._j_end = (k[:, 0] + 1) // 2
        tau = self.delta * k
        w = np.clip((j - 0.5 * (k % 2)) * self.delta, 0.0, 0.5 * tau)
        self._weights = rho_weights(s, w, tau[:, 0])

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

    def _window_sums(self, F, G=None):
        """Window integrals S[k, j] of the (F, G) product on the row table.

        P_j = g_lo + g_hi, with the center pair P_0 = 2 g_c counted once
        per side, makes the trapezoid recurrence
        S_j = S_{j-1} + delta (P_j + P_{j-1})/2 hold uniformly.
        """
        F = np.append(F, 0.0)
        if G is None:
            P = F[self._lo] * F[self._hi]
            P *= 2.0
        else:
            G = np.append(G, 0.0)
            P = F[self._lo] * G[self._hi]
            P += G[self._lo] * F[self._hi]
        S = np.cumsum(P, axis=1)
        S -= 0.5 * (P + P[:, :1])
        S *= self.delta
        return S

    def _integrate(self, S) -> float:
        V = row_values(S, self._j_end, *self._weights)
        # tau-trapezoid over the rows k = 0 .. 2n-2 (spacing delta)
        return SIXTEEN_PI3 * self.delta * float(V.sum() - 0.5 * (V[0] + V[-1]))

    def numerator(self, F: np.ndarray, G: np.ndarray | None = None) -> float:
        """||f mu * g mu||_2^2 for node-value vectors on the engine grid."""
        return self._integrate(self._window_sums(F, G))

    def numerator_gradient(self, F: np.ndarray):
        """(numerator, gradient wrt the node values), exact for the discrete form."""
        S = self._window_sums(F)
        value = self._integrate(S)

        # T = dN/dS per row: the saturation C = S[j_end] folded in, rows
        # weighted by the tau trapezoid
        alpha_in, alpha_out, mid_len = self._weights
        rows = np.arange(S.shape[0])
        C = S[rows, self._j_end][:, None]
        T = 2.0 * alpha_in * S - 2.0 * alpha_out * (C - S)
        T[rows, self._j_end] += 2.0 * (mid_len * C[:, 0]
                                       + np.sum(alpha_out * (C - S), axis=1))
        T[[0, -1]] *= 0.5

        # adjoint of the cumulative sums: suffix sums R_j = sum_{j' >= j} T_j';
        # dN/dP_i = delta (R_i - T_i/2 - [i = 0] (sum_j T_j)/2)
        dP = np.cumsum(T[:, ::-1], axis=1)[:, ::-1]
        dP -= 0.5 * T
        dP[:, 0] -= 0.5 * T.sum(axis=1)
        dP *= 2.0 * self.delta

        n = self.n
        Fz = np.append(F, 0.0)
        grad = np.bincount(self._lo.ravel(), weights=(dP * Fz[self._hi]).ravel(),
                           minlength=n + 1)[:n]
        grad += np.bincount(self._hi.ravel(), weights=(dP * Fz[self._lo]).ravel(),
                            minlength=n + 1)[:n]
        grad *= SIXTEEN_PI3 * self.delta
        return value, grad

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
