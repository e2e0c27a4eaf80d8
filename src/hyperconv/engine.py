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
with grid nodes: for tau = 2c*delta the centered pair sums are
P_j = (2 - delta_{j0}) F_{c-j} F_{c+j}, for tau = (2m+1)*delta they are
Q_j = 2 F_{m+1-j} F_{m+j}, and S is a single cumulative sum per row.  The
numerator

    ||f mu * f mu||_2^2 = 16 pi^3 int d tau int H^2 d rho

becomes a quadratic form in the per-row cumulative sums with fixed,
profile-independent coefficients, and its exact gradient is the reverse
cumulative chain (the adjoint of the slice quadrature).
"""
from __future__ import annotations

import numpy as np

from .geometry import check_mass, phi, psi

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


class SliceEngine:
    """Quartic-functional evaluator on a uniform time grid for mass s.

    The geometry tables (mapped rho nodes per parity batch) depend only on
    (s, n, u_max) and are built once; each numerator or gradient evaluation
    is pure array arithmetic.
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
        idx = np.arange(n)
        jj = np.arange(n)

        # even batch: tau = 2 c delta, window nodes at w_j = j delta
        c = idx[:, None]
        j = jj[None, :]
        self._even_lo = c - j
        self._even_hi = c + j
        self._even_valid = (self._even_lo >= 0) & (self._even_hi <= n - 1)
        tau_even = 2.0 * self.delta * idx
        w_even = self.delta * jj
        rin, rout = rho_pair_from_w(s, w_even[None, :], tau_even[:, None])
        self._even_geom = self._build_geometry(rin, rout, j_end=idx, tau=tau_even)

        # odd batch: tau = (2m+1) delta, window nodes at w_j = (j - 1/2) delta
        m = np.arange(n - 1)[:, None]
        self._odd_lo = m + 1 - j
        self._odd_hi = m + j
        self._odd_valid = (j >= 1) & (self._odd_lo >= 0) & (self._odd_hi <= n - 1)
        tau_odd = self.delta * (2.0 * np.arange(n - 1) + 1.0)
        w_odd = self.delta * (jj - 0.5)
        w_odd = np.where(jj >= 1, w_odd, 0.0)
        rin_o, rout_o = rho_pair_from_w(s, w_odd[None, :], tau_odd[:, None])
        self._odd_geom = self._build_geometry(rin_o, rout_o,
                                              j_end=np.arange(n - 1) + 1, tau=tau_odd)

        # denominator weights: 4 pi int F^2 phi(u) du by trapezoid
        wts = np.full(n, self.delta)
        wts[[0, -1]] *= 0.5
        self.den_weights = FOUR_PI * wts * self.phi_u

    def _build_geometry(self, rin, rout, j_end, tau):
        """Per-row trapezoid coefficient tables in the half-width variable.

        alpha_in[r, j] multiplies S_j^2, alpha_out[r, j] multiplies
        (C - S_j)^2, mid_len[r] multiplies C^2; cells beyond the geometric
        end j_end(row) = tau/(2 delta) are zeroed.
        """
        rows, cols = rin.shape
        j = np.arange(cols)[None, :]
        live = j <= j_end[:, None]
        rin = np.where(live, rin, np.take_along_axis(
            rin, np.minimum(j_end[:, None], cols - 1), axis=1))
        rout = np.where(live, rout, np.take_along_axis(
            rout, np.minimum(j_end[:, None], cols - 1), axis=1))
        d_in = np.diff(rin, axis=1)
        d_out = np.diff(rout, axis=1)
        alpha_in = np.zeros_like(rin)
        alpha_in[:, :-1] += 0.5 * d_in
        alpha_in[:, 1:] += 0.5 * d_in
        alpha_out = np.zeros_like(rout)
        alpha_out[:, :-1] += 0.5 * d_out
        alpha_out[:, 1:] += 0.5 * d_out
        lo = np.take_along_axis(rin, np.minimum(j_end[:, None], cols - 1), axis=1)[:, 0]
        mid = rout[:, 0]
        mid_len = np.maximum(mid - lo, 0.0)
        return {"alpha_in": alpha_in, "alpha_out": alpha_out,
                "mid_len": mid_len, "j_end": j_end, "tau": tau}

    # ---- profile handling ----

    def sample(self, profile) -> np.ndarray:
        """Node values of a RadialProfile on the engine grid."""
        return np.asarray(profile(self.radius_grid), dtype=float)

    def trial_values(self, a: float) -> np.ndarray:
        return np.exp(-0.5 * a * self.u)

    # ---- quadratic slice machinery ----

    def _pair_sums(self, F, G=None):
        """(P_even, Q_odd) window pair sums for the (F, G) product integrand.

        P_j = g_{c-j} + g_{c+j} with the center pair P_0 = 2 g_c (both
        "sides" coincide there), which makes the trapezoid recurrence
        S_j = S_{j-1} + delta (P_j + P_{j-1})/2 hold uniformly.
        """
        G = F if G is None else G
        lo_e = np.where(self._even_valid, self._even_lo, 0)
        hi_e = np.where(self._even_valid, self._even_hi, 0)
        P = F[lo_e] * G[hi_e]
        if G is not F:
            P = 0.5 * (P + G[lo_e] * F[hi_e])
        P = np.where(self._even_valid, P, 0.0)
        P *= 2.0
        lo_o = np.where(self._odd_valid, self._odd_lo, 0)
        hi_o = np.where(self._odd_valid, self._odd_hi, 0)
        Q = F[lo_o] * G[hi_o]
        if G is not F:
            Q = 0.5 * (Q + G[lo_o] * F[hi_o])
        Q = np.where(self._odd_valid, Q, 0.0)
        Q *= 2.0
        return P, Q

    @staticmethod
    def _cumulative_even(P, delta):
        """S_j = delta * (sum_{i<=j} P_i - (P_0 + P_j)/2)."""
        acc = np.cumsum(P, axis=1)
        return delta * (acc - 0.5 * (P + P[:, :1]))

    @staticmethod
    def _cumulative_odd(Q, delta):
        """S_j = delta * (sum_{1<=i<=j} Q_i - Q_j/2), S_0 = 0."""
        acc = np.cumsum(Q, axis=1)
        return delta * (acc - 0.5 * Q)

    def _batch_value(self, S, geom):
        C = np.take_along_axis(S, geom["j_end"][:, None], axis=1)
        V = (np.sum(geom["alpha_in"] * S * S, axis=1)
             + geom["mid_len"] * C[:, 0] ** 2
             + np.sum(geom["alpha_out"] * (C - S) ** 2, axis=1))
        return V

    def numerator(self, F: np.ndarray, G: np.ndarray | None = None) -> float:
        """||f mu * g mu||_2^2 for node-value vectors on the engine grid."""
        P, Q = self._pair_sums(F, G)
        S_e = self._cumulative_even(P, self.delta)
        S_o = self._cumulative_odd(Q, self.delta)
        V_e = self._batch_value(S_e, self._even_geom)
        V_o = self._batch_value(S_o, self._odd_geom)
        # tau-trapezoid over interleaved even/odd rows (spacing delta)
        total = V_e.sum() + V_o.sum() - 0.5 * (V_e[0] + V_e[-1])
        return SIXTEEN_PI3 * self.delta * float(total)

    def _batch_value_grad(self, S, geom, row_weight):
        """dN/dS for the weighted batch value (C = S at j_end folded in)."""
        C = np.take_along_axis(S, geom["j_end"][:, None], axis=1)
        dS = 2.0 * geom["alpha_in"] * S - 2.0 * geom["alpha_out"] * (C - S)
        dC = (2.0 * geom["mid_len"] * C[:, 0]
              + 2.0 * np.sum(geom["alpha_out"] * (C - S), axis=1))
        rows = np.arange(S.shape[0])
        dS[rows, geom["j_end"]] += dC
        return dS * row_weight[:, None]

    def numerator_gradient(self, F: np.ndarray):
        """(numerator, gradient wrt the node values), exact for the discrete form."""
        P, Q = self._pair_sums(F)
        S_e = self._cumulative_even(P, self.delta)
        S_o = self._cumulative_odd(Q, self.delta)
        V_e = self._batch_value(S_e, self._even_geom)
        V_o = self._batch_value(S_o, self._odd_geom)
        total = V_e.sum() + V_o.sum() - 0.5 * (V_e[0] + V_e[-1])
        value = SIXTEEN_PI3 * self.delta * float(total)

        w_even = np.ones(S_e.shape[0])
        w_even[[0, -1]] = 0.5
        w_odd = np.ones(S_o.shape[0])
        T_e = self._batch_value_grad(S_e, self._even_geom, w_even)
        T_o = self._batch_value_grad(S_o, self._odd_geom, w_odd)

        # adjoint of the cumulative sums: suffix sums R_j = sum_{j' >= j} T_j';
        # dN/dP_i = delta (R_i - T_i/2 - [i = 0] (sum_j T_j)/2)
        R_e = np.cumsum(T_e[:, ::-1], axis=1)[:, ::-1]
        dP = self.delta * (R_e - 0.5 * T_e)
        dP[:, 0] -= 0.5 * self.delta * T_e.sum(axis=1)
        R_o = np.cumsum(T_o[:, ::-1], axis=1)[:, ::-1]
        dQ = self.delta * (R_o - 0.5 * T_o)

        dP = np.where(self._even_valid, dP, 0.0)
        dQ = np.where(self._odd_valid, dQ, 0.0)
        dP *= 2.0
        dQ *= 2.0

        n = self.n
        grad = np.zeros(n)
        flat_lo = np.where(self._even_valid, self._even_lo, n)
        flat_hi = np.where(self._even_valid, self._even_hi, n)
        contrib = dP * F[np.where(self._even_valid, self._even_hi, 0)]
        grad += np.bincount(flat_lo.ravel(), weights=contrib.ravel(),
                            minlength=n + 1)[:n]
        contrib = dP * F[np.where(self._even_valid, self._even_lo, 0)]
        grad += np.bincount(flat_hi.ravel(), weights=contrib.ravel(),
                            minlength=n + 1)[:n]
        flat_lo = np.where(self._odd_valid, self._odd_lo, n)
        flat_hi = np.where(self._odd_valid, self._odd_hi, n)
        contrib = dQ * F[np.where(self._odd_valid, self._odd_hi, 0)]
        grad += np.bincount(flat_lo.ravel(), weights=contrib.ravel(),
                            minlength=n + 1)[:n]
        contrib = dQ * F[np.where(self._odd_valid, self._odd_lo, 0)]
        grad += np.bincount(flat_hi.ravel(), weights=contrib.ravel(),
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
