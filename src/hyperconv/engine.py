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
with grid nodes.  Row k of a window table is tau = k*delta; its window j
pairs the nodes hi = k//2 + j and lo = k - hi at half width
w_j = (j - (k%2)/2)*delta, clipped to [0, tau/2], which it reaches at
j_end = (k+1)//2.  The half pair sums q_j = (g_lo + g_hi)/2 of the
product integrand g(t) = F(t) G(tau - t), which is F_lo F_hi when F = G
(q_0 = g_c on even rows, 0 on odd rows, whose j = 0 window is empty), give
S by the trapezoid rule as

    S_0 = 0,    S_j = delta sum_{1 <= i <= j} (q_i + q_{i-1})
                    = delta (q_j + 2 sum_{i < j} q_i - q_0).

The evaluator takes the second form in chunks of ``CHUNK`` columns
(``_window_sums``): one matrix product of the block, viewed as
(rows * chunks, CHUNK), with 2 U + I, U the strictly upper matrix of ones,
gives q_j plus twice the sum over the chunk's earlier columns, and a carry
per chunk, twice the sum of q over the earlier chunks less q_0, completes
it.  A product of that shape costs a fraction of a cumulative sum per row,
whose every entry waits on the one before it.  The chunked sums add in
another order than a running sum: the rounding error of S_j is bounded by a
few (CHUNK + j/CHUNK) eps sum_i |q_i|, where a running sum's bound is
j eps sum_i |q_i|, so the row values agree with row-wise scans to rounding,
not bit for bit.

A row is stored as (k, j_first, j_last): only its windows j_first .. j_last,
where S = 0 up to j_first and S = C from j_last on (the first window with
S = C).  Both constant stretches hold the middle-branch value H = C: the
outer branch on [0, w_{j_first}] and the inner branch on [w_{j_last}, tau/2]
hold C^2, the other branch 0.  So the middle branch, measured from
r_in(w_{j_last}) to r_out(w_{j_first}), takes in both stretches exactly.
Each row records the column of window j_last, whose S is C.  Rows are
stored in blocks of at most ``BLOCK_ENTRIES`` entries, padded to a width
that is a multiple of ``CHUNK`` with columns that repeat the radii of window
j_last.  Those columns need no mask: their trapezoid weights are a = b = 0
exactly (see the build below), so V sees none of the products their pairs
read, and the adjoint D is exactly 0 there (T = 0 past the saturation
column, and D there sums only T that follows).  ``SliceEngine`` stores the
rows k = 0 .. 2n-2, ``extremizer.shell_pair_norm_sq`` the rows of one shell
pair.

A row stores no pair indices.  Column col holds window j = j_first + col,
so hi = base_hi + col and lo = base_lo - col with base_hi = k//2 + j_first
and base_lo = j_end - j_first (less ``origin`` where the nodes are counted
from there): each side of a row pairs a run of consecutive nodes, and a
block keeps one base index per row and side (``_Runs``).  The evaluators
copy each run's node values whole, as a row of the matrix of the windows
of the nodes the block reaches, padded with zeros where that stretch runs
off the nodes (``_take_runs``); so a pair off the nodes reads zero, and the
copies cost less than a gather by one index per entry.

The numerator

    ||f mu * g mu||_2^2 = 16 pi^3 delta sum_rows V

takes per row the trapezoid rule in rho of int H^2 d rho, with the weights
(alpha_in, alpha_out, mid_len) of ``rho_weights``:
V = sum_j alpha_in_j S_j^2 + mid_len C^2 + sum_j alpha_out_j (C - S_j)^2
(``row_values``).  Expanding the outer branch makes V a quadratic form with
fixed, profile-independent coefficients, stored per row at build.  In the
units the evaluator carries, S and C divided by delta,

    V = sum_j a_j S_j^2 - 2 C sum_j b_j S_j + c C^2,
    a = (alpha_in + alpha_out) delta^2,  b = alpha_out delta^2,
    c = (mid_len + sum_j alpha_out_j) delta^2,

two row-wise dot products per row.  The expansion rounds at about
eps C^2 sum_j alpha_out_j.  That sum is the length of the row's outer
branch, which never exceeds its middle branch (the ratio tends to 1 as
tau/s grows), and V holds mid_len C^2, so the rounding stays at eps V.

The build takes no half widths.  Window j pairs the nodes at lo delta =
tau/2 - w_j and hi delta = tau/2 + w_j, so with the node radii
Phi[m] = phi(m delta)

    rho_out(w_j) = Phi[lo] + Phi[hi],    rho_in(w_j) = Phi[hi] - Phi[lo],

the second because Phi[hi]^2 - Phi[lo]^2 = 2 tau w_j = rho_in rho_out.  The
empty j = 0 window of an odd row lies at w = 0, where both radii are
phi(tau/2).  As rho_in + rho_out = 2 Phi[hi], the trapezoid weights sum to

    a_j = delta^2 (Phi_hi[j+1] - Phi_hi[j-1]),
    b_j = (delta^2/2) (rho_out[j+1] - rho_out[j-1]),

one-sided at both ends of a row, and c = mid_len delta^2 + sum_j b_j: a
gather of Phi along each run of a row and a few differences, where
``rho_weights`` takes two square roots and a division per entry; it stays
as the per-entry oracle that the tests hold the tables to.  In the padding
the gathered hi radii are clamped from above, and the lo radii from below,
at their value in the saturation column.  Phi is nondecreasing in floating
point, since each operation of phi rounds monotonically, so the clamp moves
no radius up to that column and sets every later one equal to it: the
padding's differences, a and b, are exactly 0.

The exact gradient is the adjoint of this chain.  With T = (dV/dS)/2 =
a S - C b, plus c C - sum_j b_j S_j in the saturation column, and the
suffix sums R_j = sum_{j' >= j} T_j', dV/dq_i = 2 D_i with
D_i = R_i + R_{i+1} = T_i + 2 R_{i+1} for i >= 1 and D_0 = R_1 (q_0 enters
S_1 only); dq/dF_lo = F_hi.  D is formed like S (``_window_adjoint``): one
product with 2 U^T + I and a carry per chunk, twice the sum of T over the
later chunks, give T_i + 2 R_{i+1} in every column, and column 0 is then
halved after taking T_0 off.  The products F_hi D and F_lo D go back to
the nodes through the adjoint of the run copies (``_add_runs``):
each row is added into its own row of a zeroed buffer, skewed by its run's
offset, so that one sum along the buffer's columns totals every node of the
stretch, and the totals off the nodes are dropped.  The one stored pair
that must not count lies on the nodes: the empty j = 0 window of an odd row
with j_first = 0, whose q and D are zeroed.  A block reaches those entries,
and each row's saturation column, through their indices into the flattened
block.  All tables come from one block builder (``row_blocks``) and every
evaluation, numerator, gradient and trial pass alike, goes through one
evaluator (``_block_values``).

The exponential trial profiles are geometric on the grid: F_i = e^{-a u_i/2}
= r^i with r = e^{-a delta/2}.  Every stored pair of row k has lo + hi = k,
and pairs off the grid read zero, so row k's pair sums are r^k
times those of the all-ones profile and its value is e^{-a tau_k} V_k, where
V_k is the all-ones row value with the tau trapezoid end weights folded in.
Hence N(a) = 16 pi^3 delta sum_k e^{-a tau_k} V_k and
||f||^2 = sum_i den_weights_i e^{-a u_i}: ``SliceEngine.trial_q_ratios``
evaluates Q on a whole a-grid with one pass over the table.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .geometry import check_count, check_mass, check_real, phi

SIXTEEN_PI3 = 16.0 * np.pi ** 3
FOUR_PI = 4.0 * np.pi
CHUNK = 16  # block widths are multiples of CHUNK, the width of the window-sum products
# stored entries per block, at most, padding to a multiple of CHUNK included:
# bounds each block's temporaries.  With row-wise scans, 2^14 made the
# gradient 1.05x / 1.14x slower and 2^16 1.11x / 1.07x slower at n = 600 / 1200.
BLOCK_ENTRIES = 2 ** 15


def rho_pair_from_w(s: float, w, tau):
    """(rho_inner, rho_outer) whose centered window has half width w at tau.

    rho_outer = |(tau/2 - w, s)| + |(tau/2 + w, s)| and rho_inner, the
    difference of the two lengths, is taken as 2 w tau / rho_outer; neither
    form cancels, also at s = 0 and w -> tau/2.
    """
    w = np.asarray(w, dtype=float)
    h = 0.5 * np.asarray(tau, dtype=float)
    r_out = np.sqrt((h - w) ** 2 + s * s) + np.sqrt((h + w) ** 2 + s * s)
    # r_out = 0 only at tau = s = 0, where the window is empty
    r_in = np.divide(w * (4.0 * h), r_out, out=np.zeros_like(r_out), where=r_out > 0.0)
    return r_in, r_out


def rho_weights(s: float, w, tau):
    """Trapezoid weights (alpha_in, alpha_out, mid_len) of the rho integral per row.

    The per-entry oracle of ``row_blocks``, which builds the same weights
    from node radii (module docstring).

    w[r] holds row r's nondecreasing window half widths in [0, tau[r]/2].
    alpha_in[r, j] multiplies S_j^2 (inner branch), alpha_out[r, j]
    multiplies (C - S_j)^2 (outer branch) and mid_len[r] multiplies C^2 on
    the middle branch, which takes in S = 0 below the first width and S = C
    above the last (module docstring); repeated widths get zero weight.
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


class _Runs(NamedTuple):
    """One side of a block's pairs, in runs of consecutive nodes: row r,
    column col pairs node start + sign (rows[r] + col), where sign is -1 on
    the lo side and +1 on the hi side."""

    start: int
    sign: int
    rows: np.ndarray  # (rows,) each row's run, as its offset from start: 0 .. count-1
    count: int        # rows.max() + 1, stored to spare a reduction per evaluation

    def indices(self, width: int) -> np.ndarray:
        """The (rows, width) node indices of the runs."""
        return self.start + self.sign * (self.rows[:, None] + np.arange(width))


class _Block(NamedTuple):
    """Consecutive rows of a window table, padded to one width, with the
    coefficients of their quadratic forms (module docstring); the tau
    trapezoid weight of each row is folded into a, b and c.  The entries
    read one per row or fewer (the saturation columns, the empty windows)
    are stored as indices into the flattened block."""

    lo_runs: _Runs          # lo = base_lo - col, counted from origin
    hi_runs: _Runs          # hi = base_hi + col
    empty_flat: np.ndarray  # the empty j = 0 windows of odd rows, all in column 0
    sat_flat: np.ndarray    # (rows,) the entry of each row's saturation value C
    a: np.ndarray           # (rows, width) (alpha_in + alpha_out) delta^2
    b: np.ndarray           # (rows, width) alpha_out delta^2
    c: np.ndarray           # (rows,) (mid_len + sum_j alpha_out) delta^2

    @property
    def lo(self) -> np.ndarray:
        """(rows, width) node indices lo, derived; pairs off the nodes are kept."""
        return self.lo_runs.indices(self.a.shape[1])

    @property
    def hi(self) -> np.ndarray:
        """(rows, width) node indices hi, derived like ``lo``."""
        return self.hi_runs.indices(self.a.shape[1])

    @property
    def empty(self) -> np.ndarray:
        """The rows whose column 0 is an empty window, derived from ``empty_flat``."""
        return self.empty_flat // self.a.shape[1]

    @property
    def sat(self) -> np.ndarray:
        """(rows,) the column of each row's saturation value, derived from ``sat_flat``."""
        rows, width = self.a.shape
        return self.sat_flat - width * np.arange(rows)


def row_blocks(s: float, delta: float, k, j_first, j_last, origin: int = 0, scratch=None):
    """Blocks of the rows (k[r], j_first[r], j_last[r]) of the module docstring.

    Node indices are counted from ``origin``.  A block stores per row the
    base indices of its pairs, not the pairs (module docstring), and marks
    no pair off the nodes, since those read zero when evaluated; so the
    node count does not enter the blocks.  A block is padded to a width that
    is a multiple of ``CHUNK`` and holds at most ``BLOCK_ENTRIES`` entries,
    or 8 rows when one padded row is wider.

    The coefficients come from the node radii Phi[m] = phi(m delta),
    computed once per call up to the last node that a block's hi runs
    reach, padding included: a gather off their end would read 0, which
    the clamp below would copy into the row.  Each block gathers Phi along
    its runs: rho_out = Phi[lo] + Phi[hi] and rho_in = Phi[hi] - Phi[lo]
    (as Phi[hi]^2 - Phi[lo]^2 = 2 tau w_j), with phi(tau/2) for both at the
    empty window of an odd row.  The hi radii are clamped from above and
    the lo radii from below at the saturation column; Phi is monotone in
    floating point, so the padding holds a = b = 0 exactly.  ``rho_weights``
    computes the same weights entry by entry from the half widths and is
    kept as the tests' oracle (module docstring).

    A block's temporaries live in ``scratch`` (a ``_Scratch``), so an
    evaluator that takes each block as it is built may pass its own
    (``shell_pair_norm_sq``).
    """
    k, j_first, j_last = (np.asarray(a, dtype=np.int32)[:, None] for a in (k, j_first, j_last))
    sat = j_last - j_first                         # column of window j_last
    width = _padded_width(int(sat.max(initial=0)))
    radii = phi(delta * np.arange(int((k // 2 + j_first).max(initial=0)) + width), s)
    step = max(8, BLOCK_ENTRIES // width)
    scratch = _Scratch(2) if scratch is None else scratch
    for r in range(0, k.size, step):
        rows = slice(r, r + step)
        yield _row_block(s, delta, origin, radii, scratch, k[rows], j_first[rows], sat[rows])


def _padded_width(sat_max: int) -> int:
    """The width of a block whose widest row saturates in column sat_max: a multiple of CHUNK."""
    return -(-(sat_max + 1) // CHUNK) * CHUNK


def _row_block(s, delta, origin, radii, scratch, k, j_first, sat) -> _Block:
    """One block of ``row_blocks``, from its rows' (rows, 1) descriptors."""
    k, j_first, sat = k[:, 0].astype(np.intp), j_first[:, 0], sat[:, 0]
    base_lo = (k + 1) // 2 - j_first - origin
    base_hi = k // 2 + j_first - origin
    lo_start, hi_start = int(base_lo.max()), int(base_hi.min())
    lo_runs = _Runs(lo_start, -1, lo_start - base_lo, lo_start - int(base_lo.min()) + 1)
    hi_runs = _Runs(hi_start, 1, base_hi - hi_start, int(base_hi.max()) - hi_start + 1)
    empty = np.flatnonzero((k % 2 == 1) & (j_first == 0))
    width = _padded_width(int(sat.max()))
    empty_flat = width * empty
    sat_flat = width * np.arange(k.size, dtype=sat.dtype) + sat

    # node radii along both runs
    shape = (k.size, width)
    phi_hi, phi_lo = scratch.floats(shape)[:2]
    _take_runs(radii, hi_runs, phi_hi, origin)
    _take_runs(radii, lo_runs, phi_lo, origin)
    phi_hi.ravel()[empty_flat] = phi_lo.ravel()[empty_flat] = phi(0.5 * delta * k[empty], s)
    hi_sat, lo_sat = phi_hi.ravel()[sat_flat], phi_lo.ravel()[sat_flat]
    np.minimum(phi_hi, hi_sat[:, None], out=phi_hi)
    np.maximum(phi_lo, lo_sat[:, None], out=phi_lo)
    d2 = delta * delta
    a = _centered_differences(phi_hi, np.empty(shape))
    a *= d2
    r_out = np.add(phi_lo, phi_hi, out=phi_lo)
    b = _centered_differences(r_out, np.empty(shape))
    b *= 0.5 * d2
    # middle branch: from rho_in of window j_last to rho_out of window j_first
    c = np.maximum(r_out[:, 0] - (hi_sat - lo_sat), 0.0)
    c *= d2
    c += b.sum(axis=1)
    return _Block(lo_runs, hi_runs, empty_flat, sat_flat, a, b, c)


def _centered_differences(x, out):
    """out[:, col] = x[:, col + 1] - x[:, col - 1], one-sided at both ends; returns out.

    The differences are taken in one pass along the flattened x (a strided
    pass per row costs about twice as much); the two end columns, where that
    pass pairs entries of two rows, are then written over.
    """
    flat = x.ravel()
    np.subtract(flat[2:], flat[:-2], out=out.ravel()[1:-1])
    last = x.shape[1] - 1
    np.subtract(x[:, min(1, last)], x[:, 0], out=out[:, 0])
    np.subtract(x[:, last], x[:, max(last - 1, 0)], out=out[:, last])
    return out


def _node_values(F, name: str, n: int | None = None) -> np.ndarray:
    """F as a 1-D float array of finite node values, n of them when n is given,
    or a ValueError naming it."""
    F = np.asarray(F, dtype=float)
    if F.ndim != 1 or n is not None and F.size != n:
        count = "" if n is None else f", n = {n}"
        raise ValueError(f"{name} must be a 1-D array of one value per node{count}, "
                         f"got shape {F.shape}")
    if not np.all(np.isfinite(F)):
        bad = int(np.flatnonzero(~np.isfinite(F))[0])
        raise ValueError(f"{name} must be finite, got {F[bad]} at node {bad}")
    return F


class _Scratch:
    """Flat buffers that hold every block's temporaries in turn, sized for
    ``BLOCK_ENTRIES`` entries and regrown for a larger block.  Fresh
    block-sized arrays would come from new pages on each block, and those
    page faults cost about as much as the arithmetic.  A scratch lives for
    one evaluator call, or for one scan that builds and evaluates many small
    tables (``extremizer.bilinear_dyadic_scan``), never for the process.  A
    workspace kept for the process was measured on the benchmark's field
    workload, whose solve runs no engine code: its raw solve times matched
    (0.0606 against 0.0615 s), but the workspace outlived the engine oracle
    check, the calibration run that follows fell from 0.399 to 0.344 s, and
    the timings scaled by it rose, setup 0.0653 -> 0.0872 s (+34 %) and
    solve 0.0622 -> 0.0707 s (+14 %)."""

    def __init__(self, count: int):
        self._float = np.empty((count, 0))
        self._spare = np.empty(0)

    def floats(self, shape):
        """The float buffers, each of a block's shape."""
        size = shape[0] * shape[1]
        if self._float.shape[1] < size:
            self._float = np.empty((len(self._float), max(size, BLOCK_ENTRIES)))
        return [buf[:size].reshape(shape) for buf in self._float]

    def spare(self, rows: int, cols: int) -> np.ndarray:
        """A (rows, cols) float buffer for ``_add_runs``."""
        if self._spare.size < rows * cols:
            self._spare = np.empty(max(rows * cols, BLOCK_ENTRIES))
        return self._spare[:rows * cols].reshape(rows, cols)


def _read_only(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


# 2 U + I and 2 U^T + I of CHUNK columns (``_window_sums``, ``_window_adjoint``),
# U the strictly upper matrix of ones; both contiguous: a transposed view multiplies slower
_SUMS_MATRIX = _read_only(2.0 * np.triu(np.ones((CHUNK, CHUNK)), 1) + np.eye(CHUNK))
_ADJOINT_MATRIX = _read_only(_SUMS_MATRIX.T.copy())
_lower = np.empty((0, 0))  # the strictly lower triangle of ones, at its largest size yet


def _lower_triangle(size: int) -> np.ndarray:
    """The (size, size) strictly lower triangle of ones, L = U^T.

    Built at twice the size asked and kept for the process, so that the
    widening blocks of a table seldom rebuild it.
    """
    global _lower
    if len(_lower) < size:
        _lower = _read_only(np.tri(2 * size, k=-1))
    return _lower[:size, :size]


def _take_runs(vec, runs: _Runs, out, shift: int = 0):
    """out[r, col] = vec[shift + start + sign (rows[r] + col)], reading 0 off vec.

    Each row of out is a run of vec, so it is gathered whole, as a row of the
    matrix of the windows of the stretch of vec that the runs cover; one
    index per entry would be several times slower to write and to gather by.
    """
    width = out.shape[1]
    size = runs.count + width - 1
    first = shift + runs.start - (0 if runs.sign > 0 else size - 1)
    stretch = np.zeros(size)
    lo, hi = max(first, 0), min(first + size, vec.size)
    if lo < hi:
        stretch[lo - first:hi - first] = vec[lo:hi]
    step = runs.sign * stretch.itemsize
    windows = np.ndarray((runs.count, width), stretch.dtype, stretch,
                         0 if runs.sign > 0 else -step * (size - 1), (step, step))
    np.take(windows, runs.rows, axis=0, out=out, mode="clip")


def _add_runs(X, runs: _Runs, out, scratch: _Scratch):
    """out[start + sign (rows[r] + col)] += X[r, col], dropping the entries off out.

    The adjoint of ``_take_runs``.  Row r of X is copied into row r of a
    zeroed (rows, count + width - 1) buffer from column rows[r] on, so
    column m of that skewed buffer holds every entry that lands on node
    start + sign m, and one sum along its columns totals them; an index per
    entry and a ``bincount`` cost more.
    """
    n_rows, width = X.shape
    size = runs.count + width - 1
    skew = scratch.spare(n_rows, size)
    skew.fill(0.0)
    step = skew.itemsize
    windows = np.ndarray((n_rows, runs.count, width), skew.dtype, skew, 0,
                         (size * step, step, step))
    windows[np.arange(n_rows), runs.rows] = X
    sums = skew.sum(axis=0)
    first = runs.start
    if runs.sign < 0:
        sums, first = sums[::-1], first - size + 1
    lo, hi = max(first, 0), min(first + size, out.size)
    if lo < hi:
        out[lo:hi] += sums[lo - first:hi - first]


def _window_sums(q, S):
    """S_0 = 0, S_j = sum_{1 <= i <= j} (q_i + q_{i-1}) along each row (module docstring).

    q and S are contiguous, of a width that is a multiple of CHUNK.  Within
    each chunk S = q (2 U + I) + carry, U the strictly upper matrix of ones,
    as one matrix product over the block viewed as (rows * chunks, CHUNK);
    the carry of chunk c is twice the sum of q over the chunks before it,
    less q_0.  Each chunk's last column of the product plus its last q is
    twice that chunk's sum.
    """
    rows, width = q.shape
    chunks = width // CHUNK
    np.matmul(q.reshape(-1, CHUNK), _SUMS_MATRIX, out=S.reshape(-1, CHUNK))
    S3 = S.reshape(rows, chunks, CHUNK)
    twice = S3[:, :, -1] + q.reshape(rows, chunks, CHUNK)[:, :, -1]
    carry = twice @ _lower_triangle(chunks).T
    carry -= q[:, :1]
    S3 += carry[:, :, None]


def _window_adjoint(T, D):
    """The adjoint of ``_window_sums``: D = dV/dq / 2 from T = (dV/dS)/2 along each row.

    D_i = R_i + R_{i+1} = T_i + 2 R_{i+1} for i >= 1 and D_0 = R_1, with the
    suffix sums R_j = sum_{j' >= j} T_j' (module docstring).  Within each
    chunk D = T (2 U^T + I) + carry, the carry of chunk c twice the sum of T
    over the chunks after it; D_0 is then (D_0 - T_0) / 2.
    """
    rows, width = T.shape
    chunks = width // CHUNK
    np.matmul(T.reshape(-1, CHUNK), _ADJOINT_MATRIX, out=D.reshape(-1, CHUNK))
    D3 = D.reshape(rows, chunks, CHUNK)
    twice = D3[:, :, 0] + T.reshape(rows, chunks, CHUNK)[:, :, 0]
    D3 += (twice @ _lower_triangle(chunks))[:, :, None]
    D[:, 0] -= T[:, 0]
    D[:, 0] *= 0.5


def _block_values(blk: _Block, q, S, aS):
    """Per-row values V of one block from its half pair sums q, and what the adjoint reuses.

    Fills S with the window sums over delta (``_window_sums``) and aS with
    a*S, and returns (V, C, bS): the row values, the saturation values C and
    sum_j b_j S_j.
    """
    _window_sums(q, S)
    C = S.ravel()[blk.sat_flat]
    np.multiply(blk.a, S, out=aS)
    bS = np.vecdot(blk.b, S)
    V = blk.c * C
    V -= 2.0 * bS
    V *= C
    V += np.vecdot(aS, S)
    return V, C, bS


def _row_values(blocks, F, G=None, scratch=None):
    """Each block's row values V in turn, from node values F and G.

    G = None pairs F with itself; otherwise the half pair sums are doubled
    and V carries a factor 4.  ``scratch`` may be the one that builds the
    blocks (``row_blocks``).
    """
    scratch = _Scratch(3) if scratch is None else scratch
    for blk in blocks:
        q, x, aS = scratch.floats(blk.a.shape)[:3]
        _take_runs(F, blk.lo_runs, q)
        _take_runs(F if G is None else G, blk.hi_runs, x)
        q *= x
        if G is not None:
            _take_runs(G, blk.lo_runs, x)
            _take_runs(F, blk.hi_runs, aS)
            x *= aS
            q += x
        q.ravel()[blk.empty_flat] = 0.0
        V = _block_values(blk, q, x, aS)[0]
        del blk  # a generator of blocks builds the next one without this one
        yield V


def blocks_numerator(blocks, delta: float, F: np.ndarray, G: np.ndarray | None = None,
                     scratch=None) -> float:
    """||f mu * g mu||_2^2 over the rows of blocks, for node values counted from their origin.

    F and G hold the same nodes, any number of them: pairs off the nodes
    read zero.  ``scratch`` is passed to ``_row_values``.
    """
    F = _node_values(F, "F")
    G = None if G is None else _node_values(G, "G", F.size)
    total = sum(V.sum() for V in _row_values(blocks, F, G, scratch))
    return SIXTEEN_PI3 * delta * float(total if G is None else 0.25 * total)


class SliceEngine:
    """Quartic-functional evaluator on a uniform time grid for mass s.

    The window table (per-row base indices and the rho coefficients of the
    rows tau = k*delta, k = 0 .. 2n-2, in blocks from ``row_blocks``) depends
    only on (s, n, u_max) and is built once; each numerator or gradient
    evaluation is pure array arithmetic, one block at a time.
    """

    def __init__(self, s: float, n: int, u_max: float):
        n = check_count("n", n, 8)
        s = check_mass(s)
        u_max = check_real("u_max", u_max, above=0.0)
        self.s = s
        self.n = n
        self.u = np.linspace(0.0, u_max, n)
        self.delta = self.u[1] - self.u[0]
        self.radius_grid = phi(self.u, s)  # strictly increasing radii
        # J_k = min(j_end, n-1-k//2) is row k's last window with its pair on the
        # grid; P = 0 beyond it, so the first window with S = C is min(J_k + 1, j_end)
        k = np.arange(2 * n - 1)
        j_last = np.minimum(n - k // 2, (k + 1) // 2)
        self._blocks = list(row_blocks(s, self.delta, k, np.zeros_like(k), j_last))
        for blk, r in ((self._blocks[0], 0), (self._blocks[-1], -1)):  # tau trapezoid ends
            blk.a[r] *= 0.5
            blk.b[r] *= 0.5
            blk.c[r] *= 0.5

        # denominator weights: 4 pi int F^2 phi(u) du by trapezoid
        wts = np.full(n, self.delta)
        wts[[0, -1]] *= 0.5
        self.den_weights = FOUR_PI * wts * self.radius_grid

    # ---- profile handling ----

    def sample(self, profile) -> np.ndarray:
        """Node values of a RadialProfile on the engine grid."""
        return np.asarray(profile(self.radius_grid), dtype=float)

    def trial_values(self, a: float) -> np.ndarray:
        return np.exp(-0.5 * a * self.u)

    def trial_q_ratios(self, a_grid) -> np.ndarray:
        """Q of ``trial_values(a)`` for every decay rate a in a_grid, in one table pass.

        Uses the all-ones row values V_k (module docstring); the result
        agrees with per-profile ``q_ratio`` to rounding.
        """
        a = np.asarray(a_grid, dtype=float)
        if a.ndim != 1 or a.size == 0 or not np.all(np.isfinite(a) & (a > 0.0)):
            raise ValueError("a_grid must be a nonempty 1-D array of finite positive "
                             f"decay rates, got {a_grid!r}")
        V = np.concatenate(list(_row_values(self._blocks, np.ones(self.n))))
        tau = self.delta * np.arange(V.size)
        num = SIXTEEN_PI3 * self.delta * (np.exp(-np.outer(a, tau)) @ V)
        den = np.exp(-np.outer(a, self.u)) @ self.den_weights
        return num / den ** 2

    # ---- quadratic slice machinery ----

    def numerator(self, F: np.ndarray, G: np.ndarray | None = None) -> float:
        """||f mu * g mu||_2^2 for node-value vectors on the engine grid."""
        return blocks_numerator(self._blocks, self.delta, _node_values(F, "F", self.n), G)

    def numerator_gradient(self, F: np.ndarray):
        """(numerator, gradient wrt the node values), exact for the discrete form."""
        F = _node_values(F, "F", self.n)
        total = 0.0
        grad = np.zeros(self.n)
        scratch = _Scratch(5)
        for blk in self._blocks:
            F_lo, F_hi, q, S, T = scratch.floats(blk.a.shape)
            _take_runs(F, blk.lo_runs, F_lo)
            _take_runs(F, blk.hi_runs, F_hi)
            np.multiply(F_lo, F_hi, out=q)
            q.ravel()[blk.empty_flat] = 0.0
            V, C, bS = _block_values(blk, q, S, T)
            total += V.sum()

            # T = (dV/dS)/2 = a S - C b, the saturation C = S[sat] folded in
            np.multiply(blk.b, C[:, None], out=q)
            T -= q
            T.ravel()[blk.sat_flat] += blk.c * C - bS
            D = S
            _window_adjoint(T, D)  # dV/dq = 2 D
            D.ravel()[blk.empty_flat] = 0.0  # the empty window's pair lies on the nodes
            F_hi *= D
            F_lo *= D
            _add_runs(F_hi, blk.lo_runs, grad, scratch)
            _add_runs(F_lo, blk.hi_runs, grad, scratch)
        grad *= 2.0 * SIXTEEN_PI3 * self.delta
        return SIXTEEN_PI3 * self.delta * float(total), grad

    # ---- the functional ----

    def norm_sq(self, F: np.ndarray) -> float:
        F = _node_values(F, "F", self.n)
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
