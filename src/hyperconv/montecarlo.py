"""Monte-Carlo pairing oracle, independent of every quadrature code path.

The pairing <f mu_s * g mu_s, test> equals the double surface integral of
f(y) g(y') test(y + y', psi(y) + psi(y')), which is estimated by sampling
the two surface points directly in the (time, direction) chart.  Nothing
here touches the closed forms or the sliced quadrature engine, so agreement
is a genuine cross-validation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import check_count, phi
from .profiles import RadialProfile, smooth_bump
from .quadrature import DEFAULT_SEED, QuadratureSpec, integrate

BUMP_KINDS = ("radial", "axial_odd")
CHUNK = 1_000_000  # samples drawn per pass; bounds the estimator's memory


@dataclass(frozen=True)
class BumpSpec:
    """Separable test function b((|xi|-rho0)/w_rho) * b((tau-tau0)/w_tau).

    kind "radial" is the plain product; "axial_odd" multiplies by xi_1,
    which makes the function odd under xi -> -xi (zero pairing against any
    rotation-invariant convolution).
    """

    rho0: float
    tau0: float
    w_rho: float
    w_tau: float
    kind: str = "radial"

    def __post_init__(self):
        if self.kind not in BUMP_KINDS:
            raise ValueError(f"kind must be one of {BUMP_KINDS}, got {self.kind!r}")

    def __call__(self, xi: np.ndarray, tau: np.ndarray):
        rho = np.linalg.norm(xi, axis=-1)
        vals = (smooth_bump((rho - self.rho0) / self.w_rho)
                * smooth_bump((tau - self.tau0) / self.w_tau))
        return vals * xi[..., 0] if self.kind == "axial_odd" else vals


def _uniform_sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def mc_pairing_oracle(f: RadialProfile, g: RadialProfile, testfn: BumpSpec,
                      quad: QuadratureSpec | None = None,
                      n_samples: int = 10_000_000):
    """Monte-Carlo estimate (value, standard_error) of <f mu * g mu, testfn>.

    Surface points are sampled uniformly in time height over each profile's
    support, uniformly in direction; the product measure weight
    phi(u) phi(v) and the chart volumes are folded into the estimator.
    """
    n_samples = check_count("n_samples", n_samples, 1)
    if f.s != g.s:
        raise ValueError(f"g.s must be f.s = {f.s}, got {g.s}")
    quad = quad or QuadratureSpec()
    rng = np.random.default_rng(quad.seed if quad.seed is not None else DEFAULT_SEED)
    (u0, u1), (v0, v1) = f.u_support(), g.u_support()  # nonempty: node times increase
    vol = (u1 - u0) * (v1 - v0) * (4.0 * np.pi) ** 2
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        m = min(CHUNK, n_samples - done)
        u = rng.uniform(u0, u1, m)
        v = rng.uniform(v0, v1, m)
        w1 = _uniform_sphere(rng, m)
        w2 = _uniform_sphere(rng, m)
        r1, r2 = phi(u, f.s), phi(v, g.s)
        y = r1[:, None] * w1 + r2[:, None] * w2
        vals = (f(r1) * g(r2) * r1 * r2) * testfn(y, u + v)
        total += vals.sum()
        total_sq += (vals * vals).sum()
        done += m
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    return float(vol * mean), float(vol * np.sqrt(var / n_samples))


def pairing_quadrature(density, testfn: BumpSpec, spec: QuadratureSpec,
                       breakpoints=None) -> float:
    """<density, testfn> for a rotation-invariant density(rho, tau) by 2-D quadrature.

    Only radial bumps pair nontrivially with rotation-invariant densities;
    axial-odd bumps integrate to zero exactly.
    """
    if testfn.kind == "axial_odd":
        return 0.0
    rho_lo = max(testfn.rho0 - testfn.w_rho, 0.0)
    rho_hi = testfn.rho0 + testfn.w_rho
    tau_lo = testfn.tau0 - testfn.w_tau
    tau_hi = testfn.tau0 + testfn.w_tau

    def inner(tau):
        def rho_part(rho):
            return (density(rho, tau) * smooth_bump((rho - testfn.rho0) / testfn.w_rho)
                    * 4.0 * np.pi * rho * rho)
        pts = None if breakpoints is None else breakpoints(tau)
        return integrate(rho_part, rho_lo, rho_hi, spec, points=pts).value

    def outer(tau):
        tau = np.asarray(tau, dtype=float)
        flat = np.atleast_1d(tau)
        vals = np.array([inner(t) for t in flat])
        out = vals * smooth_bump((flat - testfn.tau0) / testfn.w_tau)
        return out if tau.ndim else float(out[0])

    return integrate(outer, tau_lo, tau_hi, spec).value
