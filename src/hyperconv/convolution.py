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

``hyperbolic_conv`` and ``cross_conv`` integrate blocks of tau rows.  A
block's arrays hold, per row, one entry for each rho cell and one for each
kink.  A field's rows split into the fewest blocks of at most
``BLOCK_CELLS`` // (rho cells + kinks per row) rows, and at least one, as
equal as the rows allow.  Within a block the windows of all cells come
from one broadcast of the window formulas over the block's tau column,
each row's kinks are one row of a (rows x kinks) array, and every window
is cut at the kinks of its own row: its two end segments and the
whole-kink segments between them get 8-point Gauss on 2**L equal pieces,
all windows of the block in one pass per level, and levels 0 and 1 in one
pass.  A pass evaluates the integrand in chunks of at most
``GAUSS_POINTS`` points, so a block's point arrays stay that small however
many rows it holds; each interval's sums are formed from its own terms in
the same order as in one pass, so the chunks change no bit.  The kinks a
window holds are searched inclusively, so a window end that equals a kink
(a support edge, the cross window's t_cap, the fold point tau/2) starts or
ends its whole-kink part, and its end segment has length zero.  Such an
end is exactly 0 and no Gauss sum is taken over it, nor over a whole-kink
segment between two equal kinks.  The whole-kink part of a window is a
difference of prefix sums taken along its own row, starting at the row's
first kink inside any of its windows, so that its rounding is bounded by
the row's total and never by the block's; a block returns bit for bit what
its rows return one at a time.  A cell far below its row's total therefore
carries absolute rounding of about 1e-16 times that total.  On the fields
of the overlapping cusped shells in the tests, cells between 1e-7 and 1e-5
of the field maximum carry relative rounding of order 1e-10 (two summation
orders differ there by up to 2.3e-10), and the whole field about 4e-15 of
its maximum; harmless for L2 norms, not for a log-scale fit of small field
values.  A cell is accepted at the first level L = 1..4 whose value moved
by at most rel_tol * max(|value|, 1e-3 * int |integrand|) + abs_tol from
level L - 1.  ``meta["quad_levels"]`` counts the cells accepted at each
level; cells still open after level 4 raise ``CellConvergenceError``.
Each sampled field logs one DEBUG record to
``logging.getLogger("hyperconv")``: its tau rows, cells with a window,
blocks, integrand points and wall time.

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

import logging
import time

import numpy as np

from .closedforms import branch_curves as _branch_edges
from .fields import Conv2DField, check_grid
from .geometry import check_real, phi, psi
from .profiles import RadialProfile
from .quadrature import QuadratureError, QuadratureSpec

TWO_PI = 2.0 * np.pi
log = logging.getLogger("hyperconv")


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
# odd multiples 2k + 1 of the half piece at the centers of level L's 2**L pieces
_ODD = [2.0 * np.arange(2 ** lev) + 1.0 for lev in range(MAX_LEVEL + 1)]
# a block's rows times the rho cells plus kinks of a row: its cell and
# segment arrays scale with that, its Gauss point arrays with GAUSS_POINTS
BLOCK_CELLS = 2 ** 13
GAUSS_POINTS = 2 ** 13  # integrand points per chunk of a Gauss pass


def _gauss_sums(integrand, lo: np.ndarray, hi: np.ndarray, tau: np.ndarray, levels):
    """Signed and absolute 8-point Gauss sums on 2**L equal pieces of each [lo, hi].

    One (signed, absolute) pair per L in ``levels``, all from one integrand
    pass; ``tau[i]`` is the row parameter handed to the integrand with
    interval i.  Level 0 has no absolute sums
    (None): every acceptance test compares a level L >= 1 with L - 1 and
    scales by level L.  The intervals run in chunks of at most GAUSS_POINTS
    points (at least one interval), and each sum is formed from its own
    interval's terms alone, so the chunks change no bit.
    """
    div = np.concatenate([np.full(2 ** lev, 2.0 ** lev) for lev in levels])
    odd = np.concatenate([_ODD[lev] for lev in levels])
    bounds = np.cumsum([0] + [2 ** lev for lev in levels])
    step = max(1, GAUSS_POINTS // (8 * div.size))
    out = None
    for a in range(0, max(lo.size, 1), step):
        part = slice(a, a + step)
        half = (0.5 * (hi[part] - lo[part]))[:, None] / div
        t = (lo[part, None] + half * odd)[:, :, None] + half[:, :, None] * _GL8_X
        terms = half[:, :, None] * _GL8_W * integrand(t, tau[part, None, None])
        if out is None:
            out = [(np.empty(lo.size, dtype=terms.dtype), np.empty(lo.size) if lev else None)
                   for lev in levels]
        for (val, mag), p, q in zip(out, bounds[:-1], bounds[1:]):
            terms[:, p:q].sum(axis=(1, 2), out=val[part])
            if mag is not None:
                np.abs(terms[:, p:q]).sum(axis=(1, 2), out=mag[part])
    return out


def _window_sums(ends: np.ndarray, segs: np.ndarray, row, first, last) -> np.ndarray:
    """Both end segments of each window plus its whole-kink segments first..last-1.

    ``segs`` holds each row's segment sums; acc[r, j] = sum of segs[r, :j].
    """
    acc = np.zeros((segs.shape[0], segs.shape[1] + 1), dtype=segs.dtype)
    np.cumsum(segs, axis=1, out=acc[:, 1:])
    k = ends.size // 2
    return ends[:k] + ends[k:] + (acc[row, last] - acc[row, first])


def _scatter(shape, at, x):
    """``x`` at ``at`` in zeros of ``shape``, or None for None (no sums)."""
    if x is None:
        return None
    out = np.zeros(shape, dtype=x.dtype)
    out[at] = x
    return out


def _cell_sums(cell: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    if np.iscomplexobj(x):
        return np.bincount(cell, x.real, n) + 1j * np.bincount(cell, x.imag, n)
    return np.bincount(cell, x, n)


def _block_integrals(integrand, tau, kinks, lo, hi, support, rho, quad: QuadratureSpec):
    """(2 pi / rho) * window integral, and acceptance level, of every cell of a row block.

    Row r has the integrand parameter ``tau[r]``, the kink times
    ``kinks[r]`` and the window slots ``lo[:, r]``/``hi[:, r]``, clipped
    to ``support[:, r]``; ``kinks``, ``lo`` and ``hi`` are sorted and
    clipped in place.  Values and levels come as (rows, rho.size), with the
    number of integrand points taken; the level is -1 for a cell with no
    window and MAX_LEVEL + 1 for a cell that never met the tolerance.
    """
    rows, n = tau.size, rho.size
    lo = np.maximum(lo, support[0][:, None], out=lo)
    hi = np.minimum(hi, support[1][:, None], out=hi)
    live = hi > lo
    slot, row, col = np.nonzero(live)
    level = np.full(rows * n, -1, dtype=np.int8)
    if row.size == 0:
        return np.zeros((rows, n)), level.reshape(rows, n), 0
    lo_min = np.where(live, lo, np.inf).min(axis=(0, 2))
    hi_max = np.where(live, hi, -np.inf).max(axis=(0, 2))
    lo, hi = lo[slot, row, col], hi[slot, row, col]
    cell = row * n + col
    kinks.sort(axis=1)
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
    # the row alone.  Segment j below is the one from kink j0 + j, where no
    # row's span starts before kink j0
    every = np.arange(rows)
    span_lo = count(every, lo_min, "left")
    span_hi = count(every, hi_max, "right")
    j0 = span_lo.min()
    j = np.arange(j0, max(span_hi.max() - 1, j0))
    in_span = ((j >= span_lo[:, None]) & (j + 1 < span_hi[:, None])
               & (kinks[:, j0 + 1:j0 + 1 + j.size] > kinks[:, j0:j0 + j.size]))
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
    alive = ends_hi > ends_lo
    points = 0

    def gauss(lo, hi, of_row, levels):
        nonlocal points
        points += 8 * lo.size * sum(2 ** lev for lev in levels)
        return _gauss_sums(integrand, lo, hi, tau[of_row], levels)

    def segment_sums(open_rows, levels):
        # each level's sums and absolute sums of the open rows' whole-kink
        # segments, zero elsewhere: zeros ahead of a row's span leave its
        # prefix sums exact
        at = np.nonzero(in_span & open_rows[:, None])
        rs, ks = at
        sums = gauss(kinks[rs, j0 + ks], kinks[rs, j0 + ks + 1], rs, levels)
        return [tuple(_scatter((rows, j.size), at, x) for x in pair) for pair in sums]

    def end_sums(levels):
        # each level's sums and absolute sums of the open windows' ends,
        # exactly 0 where an end has length zero
        sums = gauss(ends_lo[alive], ends_hi[alive], np.concatenate([r, r])[alive], levels)
        return [tuple(_scatter(alive.size, alive, x) for x in pair) for pair in sums]

    # the open windows: their cells and rows, and their whole-kink parts
    # a..b - 1 as columns of the segment arrays
    c, r, a, b = cell, row, np.where(inner, first - j0, 0), np.where(inner, last - j0, 0)
    # levels 0 and 1 take every window: one integrand pass
    (seg, _), (new_seg, seg_abs) = segment_sums(np.ones(rows, dtype=bool), (0, 1))
    (end, _), (new_end, end_abs) = end_sums((0, 1))
    out = np.zeros(rows * n, dtype=end.dtype)
    level[cell] = MAX_LEVEL + 1
    open_cells = level > MAX_LEVEL
    for lev in range(1, MAX_LEVEL + 1):
        if lev > 1:
            open_rows = np.zeros(rows, dtype=bool)
            open_rows[r] = True
            (new_seg, seg_abs), = segment_sums(open_rows, (lev,))
            (new_end, end_abs), = end_sums((lev,))
        fine = _cell_sums(c, _window_sums(new_end, new_seg, r, a, b), out.size)
        # the change from the previous level, summed segment by segment, so
        # that its rounding scales with the change and not with the row total
        change = _cell_sums(c, _window_sums(new_end - end, new_seg - seg, r, a, b), out.size)
        scale = np.bincount(c, _window_sums(end_abs, seg_abs, r, a, b), out.size)
        ok = open_cells & (np.abs(change) <= quad.rel_tol * np.maximum(
            np.abs(fine), 1e-3 * scale) + quad.abs_tol)
        out[ok] = fine[ok]
        level[ok] = lev
        open_cells &= ~ok
        if not open_cells.any():
            break
        keep = open_cells[c]
        c, r, a, b = c[keep], r[keep], a[keep], b[keep]
        keep = np.concatenate([keep, keep])
        ends_lo, ends_hi, alive, end = ends_lo[keep], ends_hi[keep], alive[keep], new_end[keep]
        seg = new_seg
    done = np.flatnonzero(level >= 0)
    out[done] *= TWO_PI / rho[done % n]
    return out.reshape(rows, n), level.reshape(rows, n), points


def _blocks(count: int, per_row: int):
    """Slices of ``count`` rows in the fewest blocks of at most BLOCK_CELLS // per_row
    rows (at least one), the blocks as equal as rows allow."""
    blocks = max(1, -(-count // max(1, BLOCK_CELLS // per_row)))
    step = max(1, -(-count // blocks))
    return [slice(r, r + step) for r in range(0, count, step)]


def _check_args(grid, quad) -> None:
    check_grid(grid)
    if not isinstance(quad, QuadratureSpec):
        raise TypeError(f"quad must be a QuadratureSpec, got {quad!r}")


def _log_field(name: str, start: float, rows: int, level: np.ndarray, blocks: int,
               points: int) -> None:
    """One DEBUG record per sampled field: its rows, live cells, blocks, points and wall time."""
    if log.isEnabledFor(logging.DEBUG):
        log.debug("%s: %d tau rows, %d cells with a window, %d blocks, %d quadrature points, "
                  "%.3g s", name, rows, np.count_nonzero(level >= 0), blocks, points,
                  time.perf_counter() - start)


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
    that never converged.  ``grid`` must be a ``Conv2DField`` and ``quad``
    a ``QuadratureSpec``, or a TypeError names the one that is not.
    """
    if f.s != g.s:
        raise ValueError(f"g.s must be f.s = {f.s}, got {g.s}")
    _check_args(grid, quad)
    start = time.perf_counter()
    s = f.s
    fu, gu = f.u_support(), g.u_support()
    u = np.union1d(psi(f.grid, s), psi(g.grid, s))
    rho, tau = grid.rho_grid, grid.tau_grid
    out = np.zeros((rho.size, tau.size),
                   dtype=complex if (f.is_complex or g.is_complex) else float)
    level = np.full(out.shape, -1, dtype=np.int8)
    if g is f:
        def integrand(x, tau):
            return 2.0 * f.at_time(x) * f.at_time(tau - x)
    else:
        def integrand(x, tau):
            r, r2 = phi(x, s), phi(tau - x, s)
            return f(r) * g(r2) + g(r) * f(r2)
    cols = np.flatnonzero((tau > 0) & (tau >= fu[0] + gu[0]) & (tau <= fu[1] + gu[1]))
    t = tau[cols]
    c = 0.5 * t
    # [lo1, hi1] carries f(x) g(t - x); t - x in it carries g(x) f(t - x).
    # Their union on x >= c, with t - (t - v) written as v so that every
    # edge is one of the row's kinks bit for bit
    lo1 = np.maximum(fu[0], t - gu[1])
    hi1 = np.minimum(fu[1], t - gu[0])
    support = np.stack([np.where(hi1 < c, np.maximum(t - fu[1], gu[0]), np.maximum(lo1, c)),
                        np.maximum(hi1, np.minimum(t - fu[0], gu[1]))])
    blocks = _blocks(cols.size, rho.size + 2 * u.size + 1)
    points = 0
    for block in blocks:
        tb, cb = t[block], c[block]
        kinks = np.concatenate([np.broadcast_to(u, (tb.size, u.size)),
                                tb[:, None] - u, cb[:, None]], axis=1)
        vals, levs, n_points = _block_integrals(integrand, tb, kinks,
                                                *_self_windows(s, rho, tb[:, None]),
                                                support[:, block], rho, quad)
        j = cols[block]
        out[:, j], level[:, j] = vals.T, levs.T
        points += n_points
    mid = f.at_time(c) * g.at_time(c)
    out[np.ix_(rho == 0.0, cols)] = TWO_PI * np.sqrt(1.0 + 4.0 * s * s / (t * t)) * mid
    _log_field("hyperbolic_conv", start, cols.size, level, len(blocks), points)
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
    the support where both factors live.  Levels, errors, ``grid`` and
    ``quad`` are handled as in ``hyperbolic_conv``.
    """
    if f_plus.s != f_minus.s:
        raise ValueError(f"f_minus.s must be f_plus.s = {f_plus.s}, got {f_minus.s}")
    _check_args(grid, quad)
    start = time.perf_counter()
    s = f_plus.s
    rho, tau = grid.rho_grid, grid.tau_grid
    out = np.zeros((rho.size, tau.size),
                   dtype=complex if (f_plus.is_complex or f_minus.is_complex) else float)
    level = np.full(out.shape, -1, dtype=np.int8)
    t_abs = np.abs(tau)
    rows = blocks = points = 0
    for fa, fb, group in ((f_plus, f_minus, tau >= 0), (f_minus, f_plus, tau < 0)):
        au, bu = fa.u_support(), fb.u_support()
        a_kinks, b_kinks = psi(fa.grid, s), psi(fb.grid, s)
        support = np.stack([np.maximum(bu[0], au[0] - t_abs), np.minimum(bu[1], au[1] - t_abs)])
        cols = np.flatnonzero(group & (support[1] > support[0]))
        t, support = t_abs[cols], support[:, cols]
        group_blocks = _blocks(cols.size, rho.size + a_kinks.size + b_kinks.size)
        for block in group_blocks:
            tb = t[block]
            kinks = np.concatenate([a_kinks - tb[:, None],
                                    np.broadcast_to(b_kinks, (tb.size, b_kinks.size))], axis=1)
            vals, levs, n_points = _block_integrals(
                lambda x, tau: fa.at_time(tau + x) * fb.at_time(x), tb, kinks,
                *_cross_windows(s, rho, tb[:, None], support[1, block, None]),
                support[:, block], rho, quad)
            j = cols[block]
            out[:, j], level[:, j] = vals.T, levs.T
            points += n_points
        rows += cols.size
        blocks += len(group_blocks)
    _log_field("cross_conv", start, rows, level, blocks, points)
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
    (prev, _), = _gauss_sums(integrand, lo, hi, lo, (0,))
    for lev in range(1, MAX_LEVEL + 1):
        (val, mag), = _gauss_sums(integrand, lo, hi, lo, (lev,))
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
