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

The window integrals are exact.  A profile is linear in the time height
between its node times (``profiles``), so in the slice time t each factor,
f(t) or g(tau - t), is linear between its kinks, the node times or tau
minus them, and the kernel is the constant 2 pi / rho on a window.  Between
a row's kinks the integrand is therefore a quadratic in t, which one
8-point Gauss-Legendre rule (exact to degree 15) integrates up to
rounding.  No level, tolerance or convergence test is involved, and no
cell can fail.

``hyperbolic_conv`` and ``cross_conv`` integrate tau rows in passes.  A
pass holds the rows of one geometry (windows, kinks and support) and one or
more integrands, one per field or per sign of tau that it fills, and splits
its rows into the fewest blocks of at most ``BLOCK_CELLS`` //
(integrands x (rho cells + kinks per row)) rows, and at least one, as
equal as the rows allow; a block's arrays hold, per row, one entry for each
rho cell and one for each kink.  Within a block the windows of all cells
come from one broadcast of the window formulas over the block's tau column,
each row's kinks are one row of a (rows x kinks) array, and every window
is cut at the kinks of its own row: its two end segments and the
whole-kink segments between them get the 8-point rule once.  That geometry
is computed once; then each integrand in turn is summed, alone, over the
segments of the rows it carries, so each field is bit for bit what a pass
of its own returns.  A Gauss pass evaluates the integrand in chunks of at
most ``GAUSS_POINTS`` points, so a block's point arrays stay that small
however many rows it holds; each interval's sum is formed from its own
terms in the same order as in one pass, so the chunks change no bit.  The
kinks a window holds are searched inclusively, so a window end that equals
a kink (a support edge, the cross window's t_cap, the fold point tau/2)
starts or ends its whole-kink part, and its end segment has length zero.
Such an end is exactly 0 and no Gauss sum is taken over it, nor over a
whole-kink segment between two equal kinks.  The whole-kink part of a
window is a difference of prefix sums taken along its own row, starting at
the row's first kink inside any of its windows, so that its rounding is
bounded by the row's total and never by the block's; a block returns bit
for bit what its rows return one at a time.  A cell far below its row's
total therefore carries absolute rounding of about 1e-16 times that total.
On the fields of the overlapping cusped shells in the tests, cells between
1e-7 and 1e-5 of the field maximum carry relative rounding of order 1e-10
(two summation orders differ there by up to 2.3e-10), and the whole field
about 4e-15 of its maximum; harmless for L2 norms, not for a log-scale fit
of small field values.  Each pass logs one DEBUG record to
``logging.getLogger("hyperconv")``: its fields, tau rows, cells with a
window, blocks, integrand points and wall time.

The self integrand's windows and kernel are symmetric about t = tau/2, so
``hyperbolic_conv`` folds each row there and integrates
f(t) g(tau - t) + g(t) f(tau - t) over t >= tau/2 only, with the row's
kinks psi(f.grid), psi(g.grid), their reflections tau - psi and tau/2.
Inside ``shared_self_pass`` the self fields of profiles that share their
node times, such as a sheet pair's two, come from one pass.

A cross row at tau < 0 is the row at |tau| of the swapped pair
(cross(f, g)(rho, tau) = cross(g, f)(rho, -tau)), with the windows of
``cross_window`` at |tau|.  When f and g share their node times both signs
share each row's geometry, so ``cross_conv`` integrates each distinct
|tau| once, with the integrand of each sign present there; otherwise each
sign is a pass of its own.  Identical integrands, a self field's f and g
in either order or ``cross_conv(f, f)``'s two signs, are evaluated once.
"""
from __future__ import annotations

import contextlib
import contextvars
import logging
import time

import numpy as np

from .closedforms import branch_curves as _branch_edges
from .fields import Conv2DField, check_grid
from .geometry import check_real, phi
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


# 8-point Gauss-Legendre nodes and weights on [-1, 1], bit for bit those of
# np.polynomial.legendre.leggauss(8); literals keep numpy.polynomial unloaded
_GL8_X = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                   -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                   0.7966664774136267, 0.9602898564975362])
_GL8_W = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                   0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                   0.22238103445337443, 0.10122853629037706])
MAX_LEVEL = 4  # of the profile integral's adaptive rule
# a block's rows times the rho cells plus kinks of a row, times the
# integrands of its pass: its cell and segment arrays scale with that, its
# Gauss point arrays with GAUSS_POINTS
BLOCK_CELLS = 2 ** 13
GAUSS_POINTS = 2 ** 13  # integrand points per chunk of a Gauss pass


def _gauss_sums(integrand, lo: np.ndarray, hi: np.ndarray, tau: np.ndarray, level: int = 0):
    """Signed and absolute 8-point Gauss sums on 2**level equal pieces of each [lo, hi].

    ``tau[i]`` is the row parameter handed to the integrand with interval i.
    Level 0 has no absolute sums (None): every acceptance test compares a
    level L >= 1 with L - 1 and scales by level L.  The intervals run in
    chunks of at most GAUSS_POINTS points (at least one interval), and each
    sum is formed from its own interval's terms alone, so the chunks change
    no bit.
    """
    pieces = 2 ** level
    odd = 2.0 * np.arange(pieces) + 1.0  # the piece centers, in half pieces
    step = max(1, GAUSS_POINTS // (8 * pieces))
    val = mag = None
    for a in range(0, max(lo.size, 1), step):
        part = slice(a, a + step)
        half = (0.5 * (hi[part] - lo[part]))[:, None] / pieces
        t = (lo[part, None] + half * odd)[:, :, None] + half[:, :, None] * _GL8_X
        terms = half[:, :, None] * _GL8_W * integrand(t, tau[part, None, None])
        if val is None:
            val, mag = np.empty(lo.size, dtype=terms.dtype), np.empty(lo.size) if level else None
        terms.sum(axis=(1, 2), out=val[part])
        if level:
            np.abs(terms).sum(axis=(1, 2), out=mag[part])
    return val, mag


def _window_sums(ends: np.ndarray, segs: np.ndarray, row, first, last) -> np.ndarray:
    """Both end segments of each window plus its whole-kink segments first..last-1.

    ``segs`` holds each row's segment sums; acc[r, j] = sum of segs[r, :j].
    """
    acc = np.zeros((segs.shape[0], segs.shape[1] + 1), dtype=segs.dtype)
    np.cumsum(segs, axis=1, out=acc[:, 1:])
    k = ends.size // 2
    return ends[:k] + ends[k:] + (acc[row, last] - acc[row, first])


def _scatter(shape, at, x):
    """``x`` at ``at`` in zeros of ``shape``."""
    out = np.zeros(shape, dtype=x.dtype)
    out[at] = x
    return out


def _cell_sums(cell: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    if np.iscomplexobj(x):
        return np.bincount(cell, x.real, n) + 1j * np.bincount(cell, x.imag, n)
    return np.bincount(cell, x, n)


def _distinct(x: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``x``, as np.unique gives them (which loads numpy.ma)."""
    x = np.sort(x, axis=None)
    keep = np.ones(x.size, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _block_integrals(integrands, carried, tau, kinks, lo, hi, support, rho):
    """(2 pi / rho) * window integral of every cell of a row block, for each integrand.

    Row r has the integrand parameter ``tau[r]``, the kink times
    ``kinks[r]`` and the window slots ``lo[:, r]``/``hi[:, r]``, clipped
    to ``support[:, r]``; ``kinks``, ``lo`` and ``hi`` are sorted and
    clipped in place.  This geometry is shared: integrand c is integrated
    on the rows ``carried[c]`` marks, alone, so its values are bit for bit
    those of a block of its own.  Values come as one (rows, rho.size) array
    per integrand, 0 on the rows it does not carry, with the number of cells
    that have a window and the number of integrand points taken.
    """
    rows, n = tau.size, rho.size
    lo = np.maximum(lo, support[0][:, None], out=lo)
    hi = np.minimum(hi, support[1][:, None], out=hi)
    live = hi > lo
    slot, row, col = np.nonzero(live)
    if row.size == 0:
        return [np.zeros((rows, n))] * len(integrands), 0, 0
    lo_min = np.where(live, lo, np.inf).min(axis=(0, 2))
    hi_max = np.where(live, hi, -np.inf).max(axis=(0, 2))
    lo, hi = lo[slot, row, col], hi[slot, row, col]
    cell = row * n + col
    kinks.sort(axis=1)
    # each kink's rank among the block's kinks, offset by its row: one sorted
    # key array, so one search places a value among the kinks of its row
    uniq = _distinct(kinks)
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
    end_row = np.concatenate([row, row])
    first, last = np.where(inner, first - j0, 0), np.where(inner, last - j0, 0)
    # the whole-kink segments; zeros ahead of a row's span leave its prefix
    # sums exact
    rs, ks = np.nonzero(in_span)
    seg_lo, seg_hi = kinks[rs, j0 + ks], kinks[rs, j0 + ks + 1]
    values, points = [], 0
    for integrand, rows_c in zip(integrands, carried):
        every = rows_c.all()  # then no copies of the geometry
        on_seg = slice(None) if every else rows_c[rs]
        on_end = alive if every else alive & rows_c[end_row]
        seg, _ = _gauss_sums(integrand, seg_lo[on_seg], seg_hi[on_seg], tau[rs[on_seg]])
        # the windows' ends, exactly 0 where an end has length zero
        end, _ = _gauss_sums(integrand, ends_lo[on_end], ends_hi[on_end], tau[end_row[on_end]])
        sums = _window_sums(_scatter(alive.size, on_end, end),
                            _scatter((rows, j.size), (rs[on_seg], ks[on_seg]), seg),
                            row, first, last)
        out = _cell_sums(cell, sums, rows * n)
        out[cell] *= TWO_PI / rho[col]
        values.append(out.reshape(rows, n))
        points += 8 * (seg.size + end.size)
    return values, np.count_nonzero(live.any(axis=0)), points


def _blocks(count: int, per_row: int):
    """Slices of ``count`` rows in the fewest blocks of at most BLOCK_CELLS // per_row
    rows (at least one), the blocks as equal as rows allow."""
    blocks = max(1, -(-count // max(1, BLOCK_CELLS // per_row)))
    step = max(1, -(-count // blocks))
    return [slice(r, r + step) for r in range(0, count, step)]


def _log_field(name: str, start: float, fields: int, rows: int, cells: int, blocks: int,
               points: int) -> None:
    """One DEBUG record per pass: its fields, rows, live cells, blocks, points and wall time."""
    if log.isEnabledFor(logging.DEBUG):
        log.debug("%s: %d fields, %d tau rows, %d cells with a window, %d blocks, "
                  "%d quadrature points, %.3g s", name, fields, rows, cells, blocks, points,
                  time.perf_counter() - start)


def _sample(name, fields, jobs, t, support, kinks, windows, rho):
    """One pass over the rows ``t``: their geometry once, then each job's integrand.

    A job is (integrand, [(values, column of each row or -1), ...]); its
    integrand is integrated on the rows that have a column.  ``kinks(tb)``
    and ``windows(tb, block)`` give a block's kinks and window slots.
    """
    start = time.perf_counter()
    carried = [np.any([cols >= 0 for _, cols in targets], axis=0) for _, targets in jobs]
    blocks = _blocks(t.size, (rho.size + kinks(t[:1]).shape[1]) * len(jobs))
    cells = points = 0
    for block in blocks:
        tb = t[block]
        values, n_cells, n_points = _block_integrals(
            [integrand for integrand, _ in jobs], [rows[block] for rows in carried], tb,
            kinks(tb), *windows(tb, block), support[:, block], rho)
        for vals, (_, targets) in zip(values, jobs):
            for out, cols in targets:
                at = cols[block] >= 0
                out[:, cols[block][at]] = vals[at].T
        cells += n_cells
        points += n_points
    _log_field(name, start, fields, t.size, cells, len(blocks), points)


def _self_integrand(f: RadialProfile, g: RadialProfile):
    if g is f:
        return lambda x, tau: 2.0 * f.at_time(x) * f.at_time(tau - x)
    return lambda x, tau: f.at_time(x) * g.at_time(tau - x) + g.at_time(x) * f.at_time(tau - x)


def _self_fields(components, grid: Conv2DField) -> list:
    """The self fields of the (f, g) ``components``, which share s and node times, in one pass.

    Components with the same two profiles, in either order, have one
    integrand (its two terms add in the other order), evaluated once.
    """
    f, g = components[0]
    s = f.s
    fu, gu = f.u_support(), g.u_support()
    u = _distinct(np.concatenate([f.times, g.times]))
    rho, tau = grid.rho_grid, grid.tau_grid
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
    outs = [np.zeros((rho.size, tau.size), dtype=complex if (a.is_complex or b.is_complex)
                     else float) for a, b in components]
    jobs = {}
    for (a, b), out in zip(components, outs):
        job = jobs.setdefault(frozenset((id(a), id(b))), (_self_integrand(a, b), []))
        job[1].append((out, cols))
    _sample("hyperbolic_conv", len(outs), list(jobs.values()), t, support,
            lambda tb: np.concatenate([np.broadcast_to(u, (tb.size, u.size)),
                                       tb[:, None] - u, 0.5 * tb[:, None]], axis=1),
            lambda tb, block: _self_windows(s, rho, tb[:, None]), rho)
    for (a, b), out in zip(components, outs):
        mid = a.at_time(c) * b.at_time(c)
        out[np.ix_(rho == 0.0, cols)] = TWO_PI * np.sqrt(1.0 + 4.0 * s * s / (t * t)) * mid
    return [grid.like(out) for out in outs]


# the components, grid and, once sampled, fields of the innermost ``shared_self_pass``
_SHARED = contextvars.ContextVar("shared_self_pass", default=((), None, []))


@contextlib.contextmanager
def shared_self_pass(components, grid: Conv2DField):
    """Inside the block, ``hyperbolic_conv`` of the (f, g) ``components`` on ``grid`` is one pass.

    The first such call samples every component's field and each later one
    returns its own, so a caller still makes one call per field, and each
    field is bit for bit that of a call alone.  The profiles must share s
    and node times (their windows and kinks), or a ValueError says so.
    """
    times, s = components[0][0].times, components[0][0].s
    if any(p.s != s or not np.array_equal(p.times, times) for pair in components for p in pair):
        raise ValueError("a shared self pass needs profiles with one s and one set of node times")
    token = _SHARED.set((components, grid, []))
    try:
        yield
    finally:
        _SHARED.reset(token)


def hyperbolic_conv(f: RadialProfile, g: RadialProfile, grid: Conv2DField) -> Conv2DField:
    """Self-sheet convolution (f mu_s * g mu_s) sampled on the grid template.

    The tau rows inside the support, tau in [fu_lo + gu_lo, fu_hi + gu_hi]
    with tau > 0, are integrated in blocks as the module docstring
    describes, folded at c = tau/2: the integrand is
    f(t) g(tau - t) + g(t) f(tau - t) on t >= c, or 2 f(t) f(tau - t) when
    ``g is f`` (the same values bit for bit, since both read the profiles
    through ``at_time``), on the support where either term lives, and the
    kinks are u = psi(f.grid) | psi(g.grid), tau - u and c.  Between
    neighbouring kinks each term is a product of two functions linear in
    t, so every window integral is exact up to rounding.  With [lo1, hi1]
    the support of f(t) g(tau - t), that support is
    [tau - hi1 if hi1 < c else max(lo1, c), max(hi1, tau - lo1)], each edge
    written so that it equals its kink bit for bit and joins the prefix
    sums.  rho = 0 takes the closed-form axis value.  ``grid`` must be a
    ``Conv2DField``, or a TypeError names it.  Inside ``shared_self_pass``
    the field comes from the pass that samples all of its components.
    """
    if f.s != g.s:
        raise ValueError(f"g.s must be f.s = {f.s}, got {g.s}")
    check_grid(grid)
    components, shared, fields = _SHARED.get()
    k = next((k for k, (a, b) in enumerate(components) if a is f and b is g), None)
    if shared is not grid or k is None:
        return _self_fields([(f, g)], grid)[0]
    if not fields:
        fields.extend(_self_fields(components, grid))
    return fields[k]


def cross_conv(f_plus: RadialProfile, f_minus: RadialProfile, grid: Conv2DField) -> Conv2DField:
    """Cross-sheet convolution (f+ mu_+ * f- mu_-) sampled on the grid template.

    tau may take either sign; the field obeys
    cross(f, g)(rho, tau) = cross(g, f)(rho, -tau).  A row at tau < 0 is
    therefore the row at |tau| of the swapped pair: tau >= 0 takes
    (fa, fb) = (f+, f-) and tau < 0 takes (f-, f+), each with the
    integrand fa(|tau| + t) fb(t) in the lower sheet's time t, the kinks
    psi(fa.grid) - |tau| and psi(fb.grid), and the support where both
    factors live.  If f+ and f- share their node times, both signs share
    those kinks and supports, so each distinct |tau| is one row of one pass
    carrying the integrand of each sign present there, one integrand for
    both if ``f_plus is f_minus``; otherwise each sign is a pass of its
    own.  Between neighbouring kinks the integrand is a product of two
    functions linear in t, so every window integral is exact up to
    rounding.  ``grid`` is checked as in ``hyperbolic_conv``.
    """
    if f_plus.s != f_minus.s:
        raise ValueError(f"f_minus.s must be f_plus.s = {f_plus.s}, got {f_minus.s}")
    check_grid(grid)
    s = f_plus.s
    rho, tau = grid.rho_grid, grid.tau_grid
    out = np.zeros((rho.size, tau.size),
                   dtype=complex if (f_plus.is_complex or f_minus.is_complex) else float)
    t_abs = np.abs(tau)
    signs = [(f_plus, f_minus, tau >= 0), (f_minus, f_plus, tau < 0)]
    for group in [signs] if np.array_equal(f_plus.times, f_minus.times) else [[a] for a in signs]:
        fa, fb = group[0][:2]
        au, bu = fa.u_support(), fb.u_support()
        live = np.maximum(bu[0], au[0] - t_abs) < np.minimum(bu[1], au[1] - t_abs)
        t = _distinct(t_abs[live & np.any([sign for *_, sign in group], axis=0)])
        support = np.stack([np.maximum(bu[0], au[0] - t), np.minimum(bu[1], au[1] - t)])
        jobs = {}
        for a, b, sign in group:
            cols = np.full(t.size, -1)
            at = np.flatnonzero(sign & live)
            cols[np.searchsorted(t, t_abs[at])] = at
            jobs.setdefault((id(a), id(b)), (lambda x, tau, a=a, b=b: a.at_time(tau + x)
                                             * b.at_time(x), []))[1].append((out, cols))
        _sample("cross_conv", 1, list(jobs.values()), t, support,
                lambda tb: np.concatenate([fa.times - tb[:, None],
                                           np.broadcast_to(fb.times, (tb.size, fb.times.size))],
                                          axis=1),
                lambda tb, block: _cross_windows(s, rho, tb[:, None], support[1, block, None]),
                rho)
    return grid.like(out)


def _time_segments(f: RadialProfile):
    """(lo, hi): the segments of f's time support on which |f|^p phi is smooth.

    Cuts at the node times; in each segment at the point c nearest the zero
    of the interpolant's linear extension in u (complex for complex
    values), and graded toward c down to half that zero's distance; and at
    u = s 2**k, graded toward phi's branch points u = +-i s.
    """
    s, u, v = f.s, f.times, f.values
    with np.errstate(divide="ignore", invalid="ignore"):
        zero = -v[:-1] / np.diff(v)  # of a + d t, t in [0, 1]; not finite if d = 0
    c = np.clip(zero.real, 0.0, 1.0)
    step = 0.5 ** np.arange(1, 21)  # at a real zero, down to 2**-20 of the segment
    offsets = np.concatenate([-step, [0.0], step])
    t = c[:, None] + offsets
    keep = (np.abs(offsets) >= 0.5 * np.abs(zero - c)[:, None]) & (t > 0.0) & (t < 1.0)
    cuts = np.concatenate([u, (u[:-1, None] + t * np.diff(u)[:, None])[keep]])
    u_lo, u_hi = u[0], u[-1]
    if 0 < s < u_hi:
        cuts = np.concatenate([cuts, s * 2.0 ** np.arange(np.log2(u_hi / s) + 1)])
    cuts = _distinct(cuts[(cuts >= u_lo) & (cuts <= u_hi)])
    return cuts[:-1], cuts[1:]


def _profile_integral(f: RadialProfile, power, quad: QuadratureSpec):
    """4 pi int g(u) phi(u) du on f's time support, g = f (power None) or |f|^power.

    8-point Gauss on 2**L equal pieces of each ``_time_segments`` segment, accepted
    at the first L = 1..MAX_LEVEL that moved the value by at most rel_tol *
    max(|value|, 1e-3 int |integrand|) + abs_tol.  The rule stays adaptive
    because |f|^p phi(u) is not a polynomial in u.  At rel_tol 1e-10 within
    2e-14 of scipy's adaptive rule (s = 0 and 1e-9 to 10, 2-300 nodes, p in
    [1, 4]).
    """
    def integrand(u, _):
        vals = f.at_time(u)
        return (vals if power is None else np.abs(vals) ** power) * phi(u, f.s)

    lo, hi = _time_segments(f)
    prev, _ = _gauss_sums(integrand, lo, hi, lo)
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
