"""Minkowski form, boosts, caps on the mass-s surface, and measure invariance.

Space-time points are length-4 arrays (x1, x2, x3, t); the invariant bilinear
form is B(p, q) = p_t q_t - p_x . q_x.  The two-sheeted family here is the
surface t^2 = |x|^2 - s^2 (both sheets), whose weighted measure is preserved
by the full Lorentz group; boosts along a general axis are the standard
first-axis boost conjugated by a rotation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import check_count, check_mass, check_real, phi, psi
from .quadrature import QuadratureSpec, gauss_legendre_nodes

CAP_SAMPLES = 64  # radii and angles sampled per cap certificate
SURFACE_NODES = (64, 24, 48)  # surface_integral's first (u, polar, azimuth) resolution
CALIBRATED_C = 3.0  # empirical constant of the bounded-ball certificate


class PreconditionError(ValueError):
    """Raised when a stated hypothesis of a geometric construction fails."""

    def __init__(self, hypothesis: str, detail: str = ""):
        self.hypothesis = hypothesis
        super().__init__(f"hypothesis violated: {hypothesis}" + (f" ({detail})" if detail else ""))


def minkowski_form(p, q) -> float:
    """B(p, q) = p_t q_t - p_x . q_x for 4-vectors (..., 3 spatial, 1 time)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(p[..., 3] * q[..., 3] - np.sum(p[..., :3] * q[..., :3], axis=-1))


def rotation_to_axis(axis) -> np.ndarray:
    """Rotation matrix in SO(3) taking e1 to the given unit axis."""
    a = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(a)
    if norm == 0:
        raise ValueError("axis must be nonzero")
    a = a / norm
    e1 = np.array([1.0, 0.0, 0.0])
    v = np.cross(e1, a)
    c = float(e1 @ a)
    if np.linalg.norm(v) < 1e-15:
        if c > 0:
            return np.eye(3)
        return np.diag([-1.0, -1.0, 1.0])  # half-turn about e3 maps e1 to -e1
    vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


@dataclass(frozen=True)
class BoostParam:
    """Rapidity-like velocity t in (-1, 1) along a unit axis (default e1)."""

    t: float
    axis: tuple = (1.0, 0.0, 0.0)

    def __post_init__(self):
        if not abs(self.t) < 1.0:
            raise ValueError("boost parameter must satisfy |t| < 1")


def boost_matrix(bp: BoostParam, scaled: bool = False) -> np.ndarray:
    """4x4 boost: e1-boost conjugated to bp.axis; scaled multiplies by sqrt(1-t^2).

    The unscaled boost preserves B; composing with its parameter-negated
    inverse gives the identity, and for the scaled variant
    (L_t)^{-1} = (1 - t^2)^{-1/2} L^{-t}.
    """
    t = bp.t
    g = 1.0 / np.sqrt(1.0 - t * t)
    core = np.eye(4)
    core[0, 0] = g
    core[0, 3] = t * g
    core[3, 0] = t * g
    core[3, 3] = g
    R = rotation_to_axis(bp.axis)
    R4 = np.eye(4)
    R4[:3, :3] = R
    L = R4 @ core @ R4.T
    if scaled:
        L = np.sqrt(1.0 - t * t) * L
    return L


def boost(bp: BoostParam, p):
    """Apply the unscaled boost ``boost_matrix(bp)`` to one or many 4-vectors."""
    L = boost_matrix(bp)
    p = np.asarray(p, dtype=float)
    return p @ L.T


@dataclass(frozen=True)
class CapSpec:
    """Radial band [a, b] times a spherical cap of half-angle eps about e1."""

    s: float
    a: float
    b: float
    eps: float

    def __post_init__(self):
        check_mass(self.s)
        if not (self.s <= self.a < self.b):
            raise ValueError("need s <= a < b")
        if not (0.0 <= self.eps <= np.pi):
            raise ValueError(f"eps must be in [0, pi], got {self.eps}")

    @property
    def spherical_area(self) -> float:
        return 2.0 * np.pi * (1.0 - np.cos(self.eps))


def _radial_antiderivative(r, s: float):
    """F with F' = r^2 / sqrt(r^2 - s^2): (s^2 ln(r + psi) + r psi) / 2."""
    r = np.asarray(r, dtype=float)
    p = psi(r, s)
    if s == 0.0:
        return 0.5 * r * r
    return 0.5 * (s * s * np.log(r + p) + r * p)


def cap_measure(c: CapSpec) -> float:
    """Exact surface measure of the cap (single sheet)."""
    if not np.isfinite(c.b):
        raise ValueError("cap measure requires b < infinity")
    val = c.spherical_area * (_radial_antiderivative(c.b, c.s)
                              - _radial_antiderivative(c.a, c.s))
    return float(val)


def cap_image_radii(s: float, t: float, r: np.ndarray, cos_phi: np.ndarray):
    """Spatial radii of boosted cap points (r, angle-from-axis) under the
    scaled inverse boost: L^{-t} followed by the factor (1-t^2)^{-1/2}.

    The azimuth drops out of |x|.
    """
    gam = 1.0 / np.sqrt(1.0 - t * t)
    x1 = (r * cos_phi - t * psi(r, s)) * gam
    x_perp_sq = r * r * (1.0 - cos_phi ** 2)
    return np.sqrt((x1 * gam) ** 2 + x_perp_sq * gam * gam)


def normalize_cap(c: CapSpec) -> tuple:
    """Boost parameter normalizing a [1,2]-band cap, with certificates.

    Hypotheses: s <= 1/2, eps in (0, pi/2] with cos(eps) < 1 in floating
    point, sin^2(eps)/s^2 >= 8, band [1, 2].
    For eps <= pi/3 the boost t = cos(eps) is used, otherwise t = 0.  The
    report certifies (exactly for the measure, by dense boundary sampling
    for the image) that the rescaled-boost image has measure >= pi/2 and
    spatial radii inside [7/16, 33/16].
    """
    if c.s > 0.5:
        raise PreconditionError("s <= 1/2", f"s = {c.s}")
    if not (0.0 <= c.eps <= np.pi / 2):
        raise PreconditionError("eps in [0, pi/2]", f"eps = {c.eps}")
    if c.s > 0 and np.sin(c.eps) ** 2 / c.s ** 2 < 8.0:
        raise PreconditionError("sin(eps)^2 / s^2 >= 8",
                                f"value = {np.sin(c.eps) ** 2 / c.s ** 2:.3f}")
    if not (abs(c.a - 1.0) < 1e-12 and abs(c.b - 2.0) < 1e-12):
        raise PreconditionError("radial band equals [1, 2]", f"band = [{c.a}, {c.b}]")

    t = float(np.cos(c.eps)) if c.eps <= np.pi / 3 else 0.0
    if t == 1.0:  # eps = 0, or too small for cos(eps) to round below 1
        raise PreconditionError("eps > 0 with cos(eps) < 1", f"eps = {c.eps}")
    new_mass = c.s / np.sqrt(1.0 - t * t)
    measure = cap_measure(c) / (1.0 - t * t)
    measure_floor = np.pi / (1.0 + np.cos(c.eps))

    r = np.linspace(c.a, c.b, CAP_SAMPLES)
    cphi = np.cos(np.linspace(0.0, c.eps, CAP_SAMPLES)) if c.eps > 0 else np.ones(CAP_SAMPLES)
    radii = cap_image_radii(c.s, t, r[:, None], cphi[None, :])
    report = {
        "t": t,
        "new_mass_param": float(new_mass),
        "measure": float(measure),
        "measure_floor": float(measure_floor),
        "measure_ok": bool(measure >= np.pi / 2 - 1e-12
                           and measure >= measure_floor - 1e-12),
        "radial_min": float(radii.min()),
        "radial_max": float(radii.max()),
        "band_ok": bool(radii.min() >= 7.0 / 16.0 - 1e-12
                        and radii.max() <= 33.0 / 16.0 + 1e-12),
    }
    report["pass"] = report["measure_ok"] and report["band_ok"]
    return BoostParam(t), report


def dyadic_cap_asymptotics(s: float, k: int, eps: float):
    """(exact measure, large-k asymptote 3 pi s^2 4^k (1-cos eps), ratio)."""
    k, s = check_count("k", k, 0), check_real("mass parameter s", s, above=0.0)
    c = CapSpec(s, s * 2.0 ** k, s * 2.0 ** (k + 1), eps)
    exact = cap_measure(c)
    asym = 3.0 * np.pi * s * s * 4.0 ** k * (1.0 - np.cos(eps))
    ratio = exact / asym if asym > 0 else np.nan
    return exact, asym, float(ratio)


def dyadic_log_term(k: int) -> float:
    """ln((2^{k+1} + sqrt(4^{k+1}-1)) / (2^k + sqrt(4^k-1))); tends to ln 2."""
    k = check_count("k", k, 0)
    hi = 2.0 ** (k + 1) + np.sqrt(4.0 ** (k + 1) - 1.0)
    lo = 2.0 ** k + np.sqrt(4.0 ** k - 1.0)
    return float(np.log(hi / lo))


def bounded_ball_certificate(s: float, k: int, eps: float):
    """Max spatial radius of the boosted dyadic cap, with per-coordinate checks.

    Uses the boost t = sqrt(1 - 4^{-(k+1)}) on the dyadic cap
    [s 2^k, s 2^{k+1}] x cap(eps); certifies the sampled image lies in a
    ball of radius CALIBRATED_C * (s + measure/s + sqrt(measure)), sampling
    CAP_SAMPLES radii and angles.  The constant is an empirical calibration,
    reported with the slack.
    """
    k = check_count("k", k, 0)
    if not (0.0 <= eps <= np.pi / 2):
        raise PreconditionError("eps in [0, pi/2]", f"eps = {eps}")
    t = np.sqrt(1.0 - 4.0 ** (-(k + 1)))
    r = np.linspace(s * 2.0 ** k, s * 2.0 ** (k + 1), CAP_SAMPLES)
    angles = np.linspace(0.0, eps, CAP_SAMPLES) if eps > 0 else np.zeros(1)
    cphi = np.cos(angles)
    gam = 2.0 ** (k + 1)  # 1/sqrt(1-t^2)
    x1 = (r[:, None] * cphi[None, :] - t * psi(r[:, None], s)) * gam
    x_perp = r[:, None] * np.sin(angles)[None, :]
    radius = float(np.sqrt(x1 ** 2 + x_perp ** 2).max())

    measure = cap_measure(CapSpec(s, s * 2.0 ** k, s * 2.0 ** (k + 1), eps))
    # chain bound on the first coordinate: the angular part contributes
    # 4^{k+1} s (1 - cos eps), the boost defect (1 - t) at most s, and the
    # tip defect r (1 - sqrt(1 - (s/r)^2)) at most 2s on the dyadic band
    x1_bound = 4.0 ** (k + 1) * s * (1.0 - np.cos(eps)) + 3.0 * s
    perp_bound = 2.0 ** (k + 1) * s * np.sin(eps)
    ball_bound = CALIBRATED_C * (s + measure / s + np.sqrt(measure))
    report = {
        "t": float(t),
        "radius": radius,
        "measure": float(measure),
        "x1_max": float(np.abs(x1).max()),
        "x1_bound": float(x1_bound),
        "x1_ok": bool(np.abs(x1).max() <= x1_bound * (1 + 1e-12)),
        "perp_max": float(x_perp.max()),
        "perp_bound": float(perp_bound),
        "perp_ok": bool(x_perp.max() <= perp_bound * (1 + 1e-12)),
        "ball_bound": float(ball_bound),
        "ball_ok": bool(radius <= ball_bound),
        "calibrated_c": CALIBRATED_C,
    }
    report["pass"] = report["x1_ok"] and report["perp_ok"] and report["ball_ok"]
    return radius, report


# ---- invariance of the two-sheet measure ----

@dataclass(frozen=True)
class GaussianTest:
    """Smooth integrable test function on space-time, axially asymmetric."""

    alpha: float = 0.5
    beta: float = 0.3
    gamma_t: float = 0.1

    def __call__(self, x: np.ndarray, t: np.ndarray):
        r2 = np.sum(x * x, axis=-1)
        return np.exp(-self.alpha * (r2 + t * t)) * (1.0 + self.beta * x[..., 0]
                                                     + self.gamma_t * x[..., 1] * t)


def surface_integral(f, s: float = 1.0, transform: np.ndarray | None = None,
                     spec: QuadratureSpec | None = None,
                     u_max: float | None = None):
    """int f(L p) d(two-sheet measure)(p) in the time chart, with refinement.

    The chart integral is int_0^inf phi(u) [sphere average of f at heights
    +-u] du; the sphere factor uses Gauss-Legendre in the polar cosine and
    the trapezoid rule in azimuth (spectrally accurate for smooth f).
    Resolution doubles until the relative update is below the tolerance.
    """
    spec = spec or QuadratureSpec()
    if u_max is None:
        u_max = 12.0  # Gaussian-type default; callers override for slow decay

    def evaluate(n_u: int, n_polar: int, n_azim: int) -> float:
        u, wu = gauss_legendre_nodes(0.0, u_max, n_u)
        cpol, wpol = gauss_legendre_nodes(-1.0, 1.0, n_polar)
        az = np.linspace(0.0, 2.0 * np.pi, n_azim, endpoint=False)
        waz = 2.0 * np.pi / n_azim
        spol = np.sqrt(1.0 - cpol ** 2)
        dirs = np.empty((n_polar, n_azim, 3))
        dirs[..., 0] = cpol[:, None]
        dirs[..., 1] = spol[:, None] * np.cos(az)[None, :]
        dirs[..., 2] = spol[:, None] * np.sin(az)[None, :]
        total = 0.0
        for sign in (1.0, -1.0):
            pts = np.empty((n_u, n_polar, n_azim, 4))
            pts[..., :3] = phi(u, s)[:, None, None, None] * dirs[None, ...]
            pts[..., 3] = sign * u[:, None, None]
            if transform is not None:
                pts = pts @ transform.T
            vals = f(pts[..., :3], pts[..., 3])
            sphere = np.sum(vals * wpol[None, :, None], axis=(1, 2)) * waz
            total += float(np.sum(wu * phi(u, s) * sphere))
        return total

    prev = None
    n_u, n_polar, n_azim = SURFACE_NODES
    for _ in range(5):
        val = evaluate(n_u, n_polar, n_azim)
        if prev is not None and abs(val - prev) <= spec.rel_tol * abs(val):
            return val, abs(val - prev)
        prev = val
        n_u, n_polar, n_azim = int(1.5 * n_u), int(1.5 * n_polar), int(1.5 * n_azim)
    return prev, np.inf


def lorentz_invariance_check(f, bp_or_matrix, spec: QuadratureSpec | None = None,
                             s: float = 1.0):
    """(plain integral, boosted integral, relative difference)."""
    spec = spec or QuadratureSpec()
    if isinstance(bp_or_matrix, BoostParam):
        L = boost_matrix(bp_or_matrix)
    else:
        L = np.asarray(bp_or_matrix, dtype=float)
    # the composed integrand decays slower in the chart by the operator norm
    # of L (= sqrt((1+|t|)/(1-|t|)) for a boost), so widen the truncation
    stretch = float(np.linalg.norm(L, 2))
    lhs, err1 = surface_integral(f, s=s, transform=None, spec=spec)
    rhs, err2 = surface_integral(f, s=s, transform=L, spec=spec,
                                 u_max=12.0 * stretch)
    if not (np.isfinite(err1) and np.isfinite(err2)):
        raise RuntimeError("surface integral did not converge at the resolution cap")
    relerr = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    return lhs, rhs, relerr
