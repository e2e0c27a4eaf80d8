"""Sliced convolution of weighted radial measures on the mass-s surface.

The time-slice of the surface at height t is a sphere of radius phi(t, s)
carrying the measure with total mass 4*pi*phi(t, s).  Convolving two such
spheres gives the density 2*pi/|x| on the annulus
||R1 - R2| <= |x| <= R1 + R2 (``sphere_pair_kernel``), which is forced by
mass conservation and validated against the Monte-Carlo pairing oracle.

Convolutions of weighted surface measures then reduce to one-dimensional
integrals over the slice times:

    self :  h(rho, tau) = int_0^tau  f(phi(t)) g(phi(tau-t)) k(phi(t), phi(tau-t), rho) dt
    cross:  h(rho, tau) = int_{t >= max(0,-tau)} f(phi(tau+t)) g(phi(t)) k(phi(tau+t), phi(t), rho) dt

where k is the sphere-pair kernel; the kernel's annulus constraint carves
an explicit window out of the time axis, computed in closed form below.

``hyperbolic_conv`` and ``cross_conv`` integrate blocks of tau rows, at
most ``BLOCK_CELLS`` grid cells (rows x rho nodes, at least one row) per
block, which bounds a block's temporaries whatever the template.  Within
a block the windows of all cells come from one broadcast of the window
formulas over the block's tau column, each row's kinks are one row of a
(rows x kinks) array, and every window is cut at the kinks of its own row:
its two end segments and the whole-kink segments between them get 8-point
Gauss on 2**L equal pieces, all windows of the block in one pass per
level.  The kinks a window holds are searched inclusively, so a window end
that equals a kink (a support edge, the cross window's t_cap, the fold
point tau/2) starts or ends its whole-kink part, and its end segment has
length zero.  Such an end is exactly 0 and no Gauss sum is taken over it,
nor over a whole-kink segment between two equal kinks.  The whole-kink
part of a window is a difference of prefix sums taken along its own row,
starting at the row's first kink inside any of its windows, so that its
rounding is bounded by the row's total and never by the block's; a block
returns bit for bit what its rows return one at a time.  A cell far below
its row's total therefore carries absolute rounding of about 1e-16 times
that total.  On the fields of the overlapping cusped shells in the tests,
cells between 1e-7 and 1e-5 of the field maximum carry relative rounding
of order 1e-10 (two summation orders differ there by up to 2.3e-10), and
the whole field about 4e-15 of its maximum; harmless for L2 norms, not
for a log-scale fit of small field values.  A cell is
accepted at the first level L = 1..4 whose value moved by at most
rel_tol * max(|value|, 1e-3 * int |integrand|) + abs_tol from level L - 1.
``meta["quad_levels"]`` counts the cells accepted at each level; cells
still open after level 4 raise ``CellConvergenceError``.

The self integrand's windows and kernel are symmetric about t = tau/2, so
``hyperbolic_conv`` folds each row there and integrates
f(t) g(tau - t) + g(t) f(tau - t) over t >= tau/2 only, with the row's
kinks psi(f.grid), psi(g.grid), their reflections tau - psi and tau/2.

A cross row at tau < 0 is the row at |tau| of the swapped pair
(cross(f, g)(rho, tau) = cross(g, f)(rho, -tau)), so ``cross_conv`` runs
its rows as two groups, tau >= 0 and tau < 0 with the sheets swapped,
each with a single integrand and the windows of ``cross_window`` at |tau|.
"""
from __future__ import annotations

import numpy as np

from .closedforms import branch_curves as _branch_edges
from .fields import Conv2DField
from .geometry import check_real, phi, psi
from .profiles import RadialProfile
from .quadrature import QuadratureError, QuadratureSpec

TWO_PI = 2.0 * np.pi


def sphere_pair_kernel(R: float, R2: float, x: float) -> float:
    """Density of the product of two slice-sphere measures at distance |x|.

    Spheres of radii R, R2 with masses 4*pi*R and 4*pi*R2; the convolution
    lives on the annulus |R - R2| <= |x| <= R + R2 with density 2*pi/|x|.
    x = 0 (with R = R2) is a singular ray; only x > 0 is accepted.
    """
    R, R2 = check_real("R", R, above=0.0), check_real("R2", R2, above=0.0)
    if x <= 0:
        raise ValueError("kernel defined for x > 0 only (singular ray at 0)")
    if abs(R - R2) <= x <= R + R2:
        return TWO_PI / x
    return 0.0


def self_half_width(s: float, rho, tau):
    """Half width w of the centered window {|phi(t)-phi(tau-t)| <= rho <= ...}.

    w = (rho/2) * sqrt(1 + 4 s^2/(tau^2 - rho^2)); on the inner branch the
    window is [tau/2 - w, tau/2 + w], on the outer branch its complement in
    [0, tau].  The radicand is taken in the factored form
    (m^2 - rho^2) / ((tau - rho)(tau + rho)), m^2 = tau^2 + 4 s^2, with
    m^2 - rho^2 = a^2 - (rho - b)(rho + b) for b = max(tau, 2 s),
    a = min(tau, 2 s).  On the outer branch rho - b is exact, so the radicand
    does not cancel next to the branch curves.  Against the closed form in
    60-digit arithmetic (s in [0, 10], tau/s in [1e-9, 1e3]) w is off by at
    most 2.1e-15 tau on the outer branch, where 1 + 4 s^2/(tau^2 - rho^2)
    was off by up to 1.3e-3 tau and (m - rho)(m + rho) with m rounded by
    2.9e-3 tau, both once tau << s.
    """
    rho = np.asarray(rho, dtype=float)
    tau = np.asarray(tau, dtype=float)
    b = np.maximum(tau, 2.0 * s)
    a = np.minimum(tau, 2.0 * s)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = 0.5 * rho * np.sqrt(np.maximum(
            (a * a - (rho - b) * (rho + b)) / ((tau - rho) * (tau + rho)), 0.0))
    return val if val.ndim else float(val)


def _self_windows(s: float, rho: np.ndarray, tau):
    """(lo, hi), each of shape (2,) + broadcast(rho, tau): every ``self_window``.

    One slot pair per (rho, tau) with tau > 0; a tau column against a rho
    row gives a block of rows.  Unused slots are empty (lo == hi); rho = 0
    gets the empty window w = 0.
    """
    lo_edge, mid_edge, hi_edge = _branch_edges(s, tau)
    inner = rho < lo_edge
    middle = (lo_edge <= rho) & (rho <= mid_edge)
    outer = (mid_edge < rho) & (rho <= hi_edge)
    w = self_half_width(s, rho, tau)
    c = 0.5 * tau
    lo = np.stack([np.where(inner, c - w, 0.0), np.where(outer, c + w, 0.0)])
    hi = np.stack([np.select([inner, middle, outer], [c + w, tau, c - w], 0.0),
                   np.where(outer, tau, 0.0)])
    return lo, hi


def _intervals(lo: np.ndarray, hi: np.ndarray):
    return [(float(a), float(b)) for a, b in zip(lo[:, 0], hi[:, 0]) if b > a]


def self_window(s: float, rho: float, tau: float):
    """Kernel-support window in slice time for the self convolution at (rho, tau).

    Returns a list of at most two disjoint nonempty intervals inside [0, tau]:
    [tau/2 - w, tau/2 + w] on the inner branch, [0, tau] on the middle one
    and the complement of the inner form on the outer one.
    """
    if tau <= 0 or rho < 0:
        return []
    return _intervals(*_self_windows(s, np.array([float(rho)]), float(tau)))


def _cross_windows(s: float, rho: np.ndarray, tau, t_cap):
    """(lo, hi), each of shape (1,) + broadcast(rho, tau, t_cap): every ``cross_window``.

    Takes tau >= 0, and broadcasts like ``_self_windows``.
    """
    lo_edge, _, hi_edge = _branch_edges(s, tau)
    # the constraint becomes active at t_b = w - tau/2 >= 0 (w: the self half
    # width); clamped, since w cancels where the outer branch is below rho's ulp
    t_b = np.maximum(self_half_width(s, rho, tau) - 0.5 * tau, 0.0)
    live = rho > lo_edge  # lo_edge >= 0, so rho = 0 has no window
    short = live & (rho < tau)
    full = live & ~short & (rho <= hi_edge)
    far = live & ~short & ~full
    lo = np.where(far, t_b, 0.0)
    hi = np.select([short, full, far], [np.minimum(t_b, t_cap), t_cap, t_cap], 0.0)
    return lo[None], hi[None]


def cross_window(s: float, rho: float, tau: float, t_cap: float):
    """Window [lo, hi] in the lower-sheet slice time for the cross convolution.

    ``t_cap`` truncates the a priori unbounded window (profile supports make
    the integral finite).  Only tau >= 0 is handled; callers use the
    reflection symmetry for tau < 0.  Empty list when no window.
    """
    if rho <= 0 or tau < 0:
        return []
    return _intervals(*_cross_windows(s, np.array([float(rho)]), float(tau), float(t_cap)))


class CellConvergenceError(RuntimeError):
    def __init__(self, cells):
        self.cells = cells
        super().__init__(f"{len(cells)} grid cells did not reach the quadrature tolerance")


# 8-point Gauss-Legendre nodes and weights on [-1, 1], bit for bit those of
# np.polynomial.legendre.leggauss(8); literals keep numpy.polynomial unloaded
_GL8_X = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                   -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                   0.7966664774136267, 0.9602898564975362])
_GL8_W = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                   0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                   0.22238103445337443, 0.10122853629037706])
MAX_LEVEL = 4
BLOCK_CELLS = 2 ** 10  # grid cells (rows x rho nodes) per row block: bounds its temporaries


def _gauss_sums(integrand, lo: np.ndarray, hi: np.ndarray, tau: np.ndarray, level: int):
    """Signed and absolute 8-point Gauss sums on 2**level equal pieces of each [lo, hi].

    ``tau[i]`` is the row parameter handed to the integrand with interval i.
    """
    pieces = 2 ** level
    half = 0.5 * (hi - lo) / pieces
    centers = lo[:, None] + half[:, None] * (2.0 * np.arange(pieces) + 1.0)
    t = centers[:, :, None] + half[:, None, None] * _GL8_X
    terms = half[:, None, None] * _GL8_W * integrand(t, tau[:, None, None])
    return terms.sum(axis=(1, 2)), np.abs(terms).sum(axis=(1, 2))


def _window_sums(ends: np.ndarray, segs: np.ndarray, row, first, last) -> np.ndarray:
    """Both end segments of each window plus its whole-kink segments first..last-1.

    ``segs`` holds each row's segment sums; acc[r, j] = sum of segs[r, :j].
    """
    acc = np.zeros((segs.shape[0], segs.shape[1] + 1), dtype=segs.dtype)
    np.cumsum(segs, axis=1, out=acc[:, 1:])
    k = ends.size // 2
    return ends[:k] + ends[k:] + (acc[row, last] - acc[row, first])


def _cell_sums(cell: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    if np.iscomplexobj(x):
        return np.bincount(cell, x.real, n) + 1j * np.bincount(cell, x.imag, n)
    return np.bincount(cell, x, n)


def _block_integrals(integrand, tau, kinks, lo, hi, support, rho, quad: QuadratureSpec):
    """(2 pi / rho) * window integral, and acceptance level, of every cell of a row block.

    Row r has the integrand parameter ``tau[r]``, the kink times
    ``kinks[r]`` and the window slots ``lo[:, r]``/``hi[:, r]``, clipped
    here to ``support[:, r]``.  Values and levels come as (rows, rho.size);
    the level is -1 for a cell with no window and MAX_LEVEL + 1 for a cell
    that never met the tolerance.
    """
    rows, n = tau.size, rho.size
    lo = np.maximum(lo, support[0][:, None])
    hi = np.minimum(hi, support[1][:, None])
    live = hi > lo
    slot, row, col = np.nonzero(live)
    level = np.full(rows * n, -1)
    if row.size == 0:
        return np.zeros((rows, n)), level.reshape(rows, n)
    lo_min = np.where(live, lo, np.inf).min(axis=(0, 2))
    hi_max = np.where(live, hi, -np.inf).max(axis=(0, 2))
    lo, hi = lo[slot, row, col], hi[slot, row, col]
    cell = row * n + col
    kinks = np.sort(kinks, axis=1)
    # each kink's rank among the block's kinks, offset by its row: one sorted
    # key array, so one search places a value among the kinks of its row
    uniq = np.unique(kinks)
    width = uniq.size + 1
    keys = (np.arange(rows)[:, None] * width + np.searchsorted(uniq, kinks)).ravel()

    def count(r, x, side):  # np.searchsorted(kinks[r[i]], x[i], side) for every i
        at = np.searchsorted(keys, r * width + np.searchsorted(uniq, x, side))
        return at - r * kinks.shape[1]

    # a row's kinks inside [min lo, max hi] of its windows are
    # kinks[r, span_lo[r]:span_hi[r]], and its whole-kink segments of
    # nonzero length join them; its prefix sums start at the span, as for
    # the row alone
    every = np.arange(rows)
    span_lo = count(every, lo_min, "left")
    span_hi = count(every, hi_max, "right")
    j = np.arange(kinks.shape[1] - 1)
    in_span = ((j >= span_lo[:, None]) & (j + 1 < span_hi[:, None])
               & (kinks[:, 1:] > kinks[:, :-1]))
    # kinks[r, first:last + 1] are the kinks inside a window, ends included:
    # the two end segments reach them from lo and hi, so an end on a kink
    # has length zero, and a kink-free window is one segment [lo, hi] plus
    # an empty one.  Only ends of nonzero length are integrated; the others
    # are exactly 0
    first = count(row, lo, "left")
    last = count(row, hi, "right") - 1
    inner = last >= first
    first = np.where(inner, first, 0)
    last = np.where(inner, last, 0)
    ends_lo = np.concatenate([lo, np.where(inner, kinks[row, last], hi)])
    ends_hi = np.concatenate([np.where(inner, kinks[row, first], hi), hi])
    ends_tau = np.concatenate([tau[row], tau[row]])
    alive = ends_hi > ends_lo

    def segment_sums(lev, open_rows):
        # the whole-kink segments of the open rows, zero elsewhere: zeros
        # ahead of a row's span leave its prefix sums exact
        r, k = np.nonzero(in_span & open_rows[:, None])
        val, mag = _gauss_sums(integrand, kinks[r, k], kinks[r, k + 1], tau[r], lev)
        segs = np.zeros((rows, j.size), dtype=val.dtype)
        segs_abs = np.zeros((rows, j.size))
        segs[r, k] = val
        segs_abs[r, k] = mag
        return segs, segs_abs

    def end_sums(lev, run):
        # the ends picked by ``run``, exactly 0 where an end has length zero
        pick = run & alive
        val, mag = _gauss_sums(integrand, ends_lo[pick], ends_hi[pick], ends_tau[pick], lev)
        ends = np.zeros(np.count_nonzero(run), dtype=val.dtype)
        ends_abs = np.zeros(ends.size)
        ends[alive[run]], ends_abs[alive[run]] = val, mag
        return ends, ends_abs

    seg, _ = segment_sums(0, np.ones(rows, dtype=bool))
    end, _ = end_sums(0, np.ones(alive.size, dtype=bool))
    out = np.zeros(rows * n, dtype=end.dtype)
    level[cell] = MAX_LEVEL + 1
    open_cells = level > MAX_LEVEL
    for lev in range(1, MAX_LEVEL + 1):
        sel = open_cells[cell]
        sel2 = np.concatenate([sel, sel])
        c, r, a, b = cell[sel], row[sel], first[sel], last[sel]
        open_rows = np.zeros(rows, dtype=bool)
        open_rows[r] = True
        new_seg, seg_abs = segment_sums(lev, open_rows)
        new_end, end_abs = end_sums(lev, sel2)
        fine = _cell_sums(c, _window_sums(new_end, new_seg, r, a, b), out.size)
        # the change from the previous level, summed segment by segment, so
        # that its rounding scales with the change and not with the row total
        change = _cell_sums(c, _window_sums(new_end - end[sel2], new_seg - seg, r, a, b),
                            out.size)
        scale = np.bincount(c, _window_sums(end_abs, seg_abs, r, a, b), out.size)
        ok = open_cells & (np.abs(change) <= quad.rel_tol * np.maximum(
            np.abs(fine), 1e-3 * scale) + quad.abs_tol)
        out[ok] = fine[ok]
        level[ok] = lev
        open_cells &= ~ok
        if not open_cells.any():
            break
        seg = new_seg
        end[sel2] = new_end
    done = np.flatnonzero(level >= 0)
    out[done] *= TWO_PI / rho[done % n]
    return out.reshape(rows, n), level.reshape(rows, n)


def _blocks(count: int, n_rho: int):
    """Slices of at most BLOCK_CELLS // n_rho (at least one) of ``count`` rows."""
    step = max(1, BLOCK_CELLS // n_rho)
    return [slice(r, r + step) for r in range(0, count, step)]


def _check_quad(quad) -> None:
    if not isinstance(quad, QuadratureSpec):
        raise TypeError(f"quad must be a QuadratureSpec, got {quad!r}")


def _checked_field(grid: Conv2DField, out: np.ndarray, level: np.ndarray) -> Conv2DField:
    """The sampled field with its level counts, or CellConvergenceError."""
    bad = np.argwhere(level.T > MAX_LEVEL)
    if bad.size:
        raise CellConvergenceError([(int(i), int(j)) for j, i in bad])
    field = grid.like(out)
    counts = np.bincount(level[level > 0], minlength=MAX_LEVEL + 1)
    field.meta["quad_levels"] = {lev: int(counts[lev]) for lev in range(1, MAX_LEVEL + 1)}
    return field


def hyperbolic_conv(f: RadialProfile, g: RadialProfile, grid: Conv2DField,
                    quad: QuadratureSpec) -> Conv2DField:
    """Self-sheet convolution (f mu_s * g mu_s) sampled on the grid template.

    The tau rows inside the support, tau in [fu_lo + gu_lo, fu_hi + gu_hi]
    with tau > 0, are integrated in blocks as the module docstring
    describes, folded at c = tau/2: the integrand is
    f(t) g(tau - t) + g(t) f(tau - t) on t >= c, or 2 f(t) f(tau - t) when
    ``g is f`` (the same values bit for bit), on the support where either
    term lives, and the kinks are u = psi(f.grid) | psi(g.grid), tau - u
    and c.  With [lo1, hi1] the support of f(t) g(tau - t), that support is
    [tau - hi1 if hi1 < c else max(lo1, c), max(hi1, tau - lo1)], each edge
    written so that it equals its kink bit for bit and joins the prefix
    sums.  rho = 0 takes the closed-form axis value.
    ``meta["quad_levels"]`` maps each level 1..4 to the number of cells
    accepted there; ``CellConvergenceError.cells`` lists the (i, j) cells
    that never converged.  ``quad`` must be a ``QuadratureSpec``, or a
    TypeError names it.
    """
    if f.s != g.s:
        raise ValueError(f"g.s must be f.s = {f.s}, got {g.s}")
    _check_quad(quad)
    s = f.s
    fu, gu = f.u_support(), g.u_support()
    u = np.union1d(psi(f.grid, s), psi(g.grid, s))
    rho, tau = grid.rho_grid, grid.tau_grid
    out = np.zeros((rho.size, tau.size),
                   dtype=complex if (f.is_complex or g.is_complex) else float)
    level = np.full(out.shape, -1)
    if g is f:
        def integrand(x, tau):
            return 2.0 * f.at_time(x) * f.at_time(tau - x)
    else:
        def integrand(x, tau):
            return f.at_time(x) * g.at_time(tau - x) + g.at_time(x) * f.at_time(tau - x)
    cols = np.flatnonzero((tau > 0) & (tau >= fu[0] + gu[0]) & (tau <= fu[1] + gu[1]))
    for block in _blocks(cols.size, rho.size):
        j = cols[block]
        t = tau[j]
        c = 0.5 * t
        # [lo1, hi1] carries f(x) g(t - x); t - x in it carries g(x) f(t - x).
        # Their union on x >= c, with t - (t - v) written as v so that every
        # edge is one of the row's kinks bit for bit
        lo1 = np.maximum(fu[0], t - gu[1])
        hi1 = np.minimum(fu[1], t - gu[0])
        support = np.stack([np.where(hi1 < c, np.maximum(t - fu[1], gu[0]), np.maximum(lo1, c)),
                            np.maximum(hi1, np.minimum(t - fu[0], gu[1]))])
        lo, hi = _self_windows(s, rho, t[:, None])
        kinks = np.concatenate([np.broadcast_to(u, (t.size, u.size)),
                                t[:, None] - u, c[:, None]], axis=1)
        vals, levs = _block_integrals(integrand, t, kinks, lo, hi, support, rho, quad)
        out[:, j], level[:, j] = vals.T, levs.T
    t = tau[cols]
    mid = f.at_time(0.5 * t) * g.at_time(0.5 * t)
    out[np.ix_(rho == 0.0, cols)] = TWO_PI * np.sqrt(1.0 + 4.0 * s * s / (t * t)) * mid
    return _checked_field(grid, out, level)


def cross_conv(f_plus: RadialProfile, f_minus: RadialProfile, grid: Conv2DField,
               quad: QuadratureSpec) -> Conv2DField:
    """Cross-sheet convolution (f+ mu_+ * f- mu_-) sampled on the grid template.

    tau may take either sign; the field obeys
    cross(f, g)(rho, tau) = cross(g, f)(rho, -tau).  A row at tau < 0 is
    therefore the row at |tau| of the swapped pair, so the rows run as two
    groups, tau >= 0 with (fa, fb) = (f+, f-) and tau < 0 with (f-, f+),
    each in blocks with the integrand fa(|tau| + t) fb(t) in the lower
    sheet's time t, the kinks psi(fa.grid) - |tau| and psi(fb.grid), and
    the support where both factors live.  Levels, errors and ``quad`` are
    handled as in ``hyperbolic_conv``.
    """
    if f_plus.s != f_minus.s:
        raise ValueError(f"f_minus.s must be f_plus.s = {f_plus.s}, got {f_minus.s}")
    _check_quad(quad)
    s = f_plus.s
    rho, tau = grid.rho_grid, grid.tau_grid
    out = np.zeros((rho.size, tau.size),
                   dtype=complex if (f_plus.is_complex or f_minus.is_complex) else float)
    level = np.full(out.shape, -1)
    t_abs = np.abs(tau)
    for fa, fb, group in ((f_plus, f_minus, tau >= 0), (f_minus, f_plus, tau < 0)):
        au, bu = fa.u_support(), fb.u_support()
        a_kinks, b_kinks = psi(fa.grid, s), psi(fb.grid, s)
        support = np.stack([np.maximum(bu[0], au[0] - t_abs), np.minimum(bu[1], au[1] - t_abs)])
        cols = np.flatnonzero(group & (support[1] > support[0]))
        for block in _blocks(cols.size, rho.size):
            j = cols[block]
            t = t_abs[j]
            lo, hi = _cross_windows(s, rho, t[:, None], support[1, j, None])
            kinks = np.concatenate([a_kinks - t[:, None],
                                    np.broadcast_to(b_kinks, (t.size, b_kinks.size))], axis=1)
            vals, levs = _block_integrals(
                lambda x, tau: fa.at_time(tau + x) * fb.at_time(x),
                t, kinks, lo, hi, support[:, j], rho, quad)
            out[:, j], level[:, j] = vals.T, levs.T
    return _checked_field(grid, out, level)


def _time_segments(f: RadialProfile):
    """(lo, hi): the segments of f's time support on which |f|^p phi is smooth.

    Cuts at the node times; in each segment at the point c nearest the zero
    of the interpolant's linear extension (complex for complex values), and
    graded toward c down to half that zero's distance; and at u = s 2**k,
    graded toward phi's branch points u = +-i s.
    """
    s, r, v = f.s, f.grid, f.values
    with np.errstate(divide="ignore", invalid="ignore"):
        zero = -v[:-1] / np.diff(v)  # of a + d t, t in [0, 1]; not finite if d = 0
    c = np.clip(zero.real, 0.0, 1.0)
    step = 0.5 ** np.arange(1, 21)  # at a real zero, down to 2**-20 of the segment
    offsets = np.concatenate([-step, [0.0], step])
    t = c[:, None] + offsets
    keep = (np.abs(offsets) >= 0.5 * np.abs(zero - c)[:, None]) & (t > 0.0) & (t < 1.0)
    u = psi(np.concatenate([r, (r[:-1, None] + t * np.diff(r)[:, None])[keep]]), s)
    u_lo, u_hi = u[0], u[r.size - 1]
    if 0 < s < u_hi:
        u = np.concatenate([u, s * 2.0 ** np.arange(np.log2(u_hi / s) + 1)])
    u = np.unique(u[(u >= u_lo) & (u <= u_hi)])
    return u[:-1], u[1:]


def _profile_integral(f: RadialProfile, power, quad: QuadratureSpec):
    """4 pi int g(u) phi(u) du on f's time support, g = f (power None) or |f|^power.

    8-point Gauss on 2**L equal pieces of each ``_time_segments`` segment, accepted
    at the first L = 1..MAX_LEVEL that moved the value by at most rel_tol *
    max(|value|, 1e-3 int |integrand|) + abs_tol.  At rel_tol 1e-10 within 2e-14
    of scipy's adaptive rule (s = 0 and 1e-9 to 10, 2-300 nodes, p in [1, 4]).
    """
    def integrand(u, _):
        vals = f.at_time(u)
        return (vals if power is None else np.abs(vals) ** power) * phi(u, f.s)

    lo, hi = _time_segments(f)
    prev, _ = _gauss_sums(integrand, lo, hi, lo, 0)
    for lev in range(1, MAX_LEVEL + 1):
        val, mag = _gauss_sums(integrand, lo, hi, lo, lev)
        value, change = val.sum(), (val - prev).sum()
        if abs(change) <= quad.rel_tol * max(abs(value), 1e-3 * mag.sum()) + quad.abs_tol:
            return 4.0 * np.pi * value
        prev = val
    raise QuadratureError(f"profile integral on u in [{lo[0]}, {hi[-1]}] missed {quad.rel_tol=}")


def profile_measure_integral(f: RadialProfile, power: int = 1) -> float | complex:
    """int f d(mu_s), or of |f|^power if power != 1, by ``_profile_integral`` at rel_tol 1e-8.

    A float, or a complex for int f d(mu_s) of a complex profile.
    """
    return _profile_integral(f, None if power == 1 else power, QuadratureSpec()).item()


def field_mass(h: Conv2DField) -> float:
    """int h * 4*pi*rho^2 d rho d tau by the grid trapezoid rule."""
    w = 4.0 * np.pi * h.rho_grid[:, None] ** 2 * h.values
    inner = np.trapezoid(w, h.rho_grid, axis=0)
    return float(np.trapezoid(inner, h.tau_grid))
