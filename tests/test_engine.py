import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconv import engine, extremizer
from hyperconv.closedforms import self_conv_row_mass
from hyperconv.comparison import II_of_a, full_numerator
from hyperconv.engine import (CHUNK, SIXTEEN_PI3, SliceEngine, _add_runs, _row_values, _Runs,
                              _Scratch, _take_runs, _window_adjoint, _window_sums,
                              blocks_numerator, rho_pair_from_w, rho_weights, row_blocks,
                              row_values)
from hyperconv.convolution import self_half_width

DEFAULT_A_GRID = np.geomspace(0.05, 2.0, 40)  # trial_family_scan's default


def test_rho_pair_inverts_half_width():
    rng = np.random.default_rng(2)
    for _ in range(200):
        s = float(rng.uniform(0.05, 2.0))
        tau = float(rng.uniform(0.1, 8.0))
        w = float(rng.uniform(0.0, tau / 2))
        r_in, r_out = rho_pair_from_w(s, w, tau)
        np.testing.assert_allclose(self_half_width(s, r_in, tau), w,
                                   rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(self_half_width(s, r_out, tau), w,
                                   rtol=1e-9, atol=1e-11)
    # cone limit: the outer branch collapses onto rho = tau
    r_in, r_out = rho_pair_from_w(0.0, 0.3, 2.0)
    np.testing.assert_allclose(r_in, 0.6, rtol=1e-12)
    np.testing.assert_allclose(r_out, 2.0, rtol=1e-12)


@settings(max_examples=200, deadline=None)
@given(s=st.floats(0.01, 10.0), tau=st.floats(1e-3, 50.0), frac=st.floats(0.0, 1.0))
def test_rho_pair_inverts_half_width_property(s, tau, frac):
    # w = frac * tau/2 spans [0, tau/2].  The inner branch inverts to
    # rounding.  The outer branch squeezes [0, tau/2] into rho in
    # [sqrt(tau^2 + 4s^2), s + sqrt(tau^2 + s^2)], of length L, and rho(w)
    # is even in w, so a rounded rho fixes w only to about
    # sqrt(eps rho/L) tau; self_half_width's radicand 1 + 4s^2/(tau^2 - rho^2)
    # adds sqrt(eps) tau^2/s.  Both tolerances are relative to tau.
    eps = np.finfo(float).eps
    w = frac * tau / 2
    r_in, r_out = rho_pair_from_w(s, w, tau)
    assert abs(self_half_width(s, r_in, tau) - w) <= 1e-14 * tau
    length = s - 3.0 * s * s / (np.hypot(tau, s) + np.hypot(tau, 2.0 * s))
    tol = 4.0 * np.sqrt(eps) * tau * (np.sqrt(r_out / length) + tau / s)
    assert abs(self_half_width(s, r_out, tau) - w) <= tol


def test_numerator_constant_profile_self_consistent():
    # the hard support cutoff of an indicator profile limits the slice
    # trapezoids to O(delta); smooth profiles converge at O(delta^2)
    s, u_max, n = 1.0, 8.0, 1200
    got = SliceEngine(s, n, u_max).numerator(np.ones(n))
    got2 = SliceEngine(s, 2 * n, u_max).numerator(np.ones(2 * n))
    got4 = SliceEngine(s, 4 * n, u_max).numerator(np.ones(4 * n))
    assert abs(got2 - got) / got < 3e-3
    assert abs(got4 - got2) < 0.75 * abs(got2 - got)


def richardson_numerator(s, u_max, n, a):
    eng1 = SliceEngine(s, n, u_max)
    eng2 = SliceEngine(s, 2 * n, u_max)
    v1 = eng1.numerator(eng1.trial_values(a))
    v2 = eng2.numerator(eng2.trial_values(a))
    return (4.0 * v2 - v1) / 3.0


def test_numerator_matches_trial_family_oracle():
    # discretization is O(delta^2); one Richardson step against the
    # closed-form density oracle (truncation negligible for a >= 1)
    s, u_max = 1.0, 40.0
    for a in (1.0, 2.0):
        got = richardson_numerator(s, u_max, 900, a)
        want = full_numerator(a, s)
        np.testing.assert_allclose(got, want, rtol=2e-6)
        raw = SliceEngine(s, 900, u_max)
        raw_val = raw.numerator(raw.trial_values(a))
        np.testing.assert_allclose(raw_val, want, rtol=1e-3)


@pytest.mark.parametrize("tau", [0.25, 1.0, 4.0])
def test_all_ones_rows_converge_to_the_closed_form_row_mass(tau):
    # for F = 1 a row value V_k is M(tau_k) / (4 pi^2) up to the rho
    # trapezoid's O(delta^2) error; row k's window is whole for tau <= u_max
    s, u_max = 1.0, 8.0
    want = sum(self_conv_row_mass(s, tau)) / (4.0 * np.pi ** 2)
    errs = []
    for n in (129, 257, 513):
        eng = SliceEngine(s, n, u_max)
        k = round(tau / eng.delta)
        blocks = row_blocks(s, eng.delta, [k], [0], [min(n - k // 2, (k + 1) // 2)])
        V = blocks_numerator(blocks, eng.delta, np.ones(n)) / (SIXTEEN_PI3 * eng.delta)
        errs.append(abs(V - want) / want)
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all((3.8 <= ratios) & (ratios <= 4.2)), (errs, ratios)


def test_numerator_resolution_convergence():
    s, u_max, a = 1.0, 40.0, 1.0
    vals = []
    for n in (300, 600, 1200):
        eng = SliceEngine(s, n, u_max)
        vals.append(eng.numerator(eng.trial_values(a)))
    want = full_numerator(a, s)
    errs = [abs(v - want) / want for v in vals]
    assert errs[1] < 0.5 * errs[0]
    assert errs[2] < 0.5 * errs[1]


def test_denominator_matches_II():
    s, a = 1.0, 1.0
    v = []
    for n in (1000, 2000):
        eng = SliceEngine(s, n, 40.0)
        v.append(eng.norm_sq(eng.trial_values(a)))
    extrap = (4.0 * v[1] - v[0]) / 3.0
    np.testing.assert_allclose(extrap ** 2, II_of_a(a), rtol=1e-7)
    np.testing.assert_allclose(v[1] ** 2, II_of_a(a), rtol=1e-3)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    eng = SliceEngine(1.0, 60, 6.0)
    F = rng.uniform(0.2, 1.0, eng.n)
    num, grad = eng.numerator_gradient(F)
    np.testing.assert_allclose(num, eng.numerator(F), rtol=1e-13)
    h = 1e-6
    for idx in rng.choice(eng.n, size=10, replace=False):
        e = np.zeros(eng.n)
        e[idx] = h
        fd = (eng.numerator(F + e) - eng.numerator(F - e)) / (2 * h)
        np.testing.assert_allclose(grad[idx], fd, rtol=5e-6, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(8, 41), s=st.floats(0.0, 10.0), u_max=st.floats(0.5, 20.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_gradient_property(n, s, u_max, seed):
    # the discrete numerator is a homogeneous quartic in the node values, so
    # the central difference along v carries only an h^2 term, and
    # grad . F = 4 N holds to rounding
    rng = np.random.default_rng(seed)
    eng = SliceEngine(s, n, u_max)
    F = rng.uniform(0.0, 1.0, n)
    num, grad = eng.numerator_gradient(F)
    assert num == eng.numerator(F)
    scale = np.sum(np.abs(grad) * np.abs(F))
    np.testing.assert_allclose(grad @ F, 4.0 * num, rtol=1e-12, atol=1e-12 * scale)
    v = rng.normal(0.0, 1.0, n)
    h = 1e-5
    fd = (eng.numerator(F + h * v) - eng.numerator(F - h * v)) / (2 * h)
    np.testing.assert_allclose(fd, grad @ v, rtol=1e-7,
                               atol=1e-7 * np.sum(np.abs(grad) * np.abs(v)))


def test_q_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    eng = SliceEngine(1.0, 50, 5.0)
    F = rng.uniform(0.2, 1.0, eng.n)
    q, grad = eng.q_gradient(F)
    h = 1e-7
    for idx in rng.choice(eng.n, size=8, replace=False):
        e = np.zeros(eng.n)
        e[idx] = h
        fd = (eng.q_ratio(F + e) - eng.q_ratio(F - e)) / (2 * h)
        np.testing.assert_allclose(grad[idx], fd, rtol=2e-5, atol=1e-10)


def test_bilinear_symmetry_and_cross():
    rng = np.random.default_rng(9)
    eng = SliceEngine(1.0, 80, 8.0)
    F = rng.uniform(0.0, 1.0, eng.n)
    G = rng.uniform(0.0, 1.0, eng.n)
    np.testing.assert_allclose(eng.numerator(F, G), eng.numerator(G, F), rtol=1e-12)
    # bilinear expansion: N(F+G, F+G) as a quartic in (F, G) slices
    left = eng.numerator(F + G)
    # N(F+G) = sum over pairs of slice products; check against direct value
    assert left > 0


def test_scale_invariance_exact():
    eng = SliceEngine(1.0, 120, 10.0)
    F = eng.trial_values(0.7)
    q1 = eng.q_ratio(F)
    q2 = eng.q_ratio(2.5 * F)
    np.testing.assert_allclose(q1, q2, rtol=1e-12)


def test_dilation_invariance_across_mass():
    # Q at (s, F on [0, T]) equals Q at (1, same node values on [0, T/s])
    n, T, s = 400, 20.0, 2.0
    eng_s = SliceEngine(s, n, T)
    eng_1 = SliceEngine(1.0, n, T / s)
    F = np.exp(-0.3 * eng_s.u) * (1.0 + 0.2 * np.sin(eng_s.u))
    np.testing.assert_allclose(eng_s.q_ratio(F), eng_1.q_ratio(F), rtol=1e-10)


def test_engine_rejects_bad_mass():
    for s in (float("nan"), -0.5):
        with pytest.raises(ValueError, match="mass parameter s"):
            SliceEngine(s, 64, 5.0)


def test_engine_rejects_bad_time_range():
    for u_max in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="u_max"):
            SliceEngine(1.0, 64, u_max)


def dense_reference(s, n, u_max):
    """The engine's numerator on its full (2n-1) x n row table, nothing packed.

    Row k is tau = k*delta, window j pairs hi = k//2 + j and lo = k - hi at
    half width w_j clipped to [0, tau/2]; every window up to j = n-1 is kept
    and off-grid pairs point at a zero appended at index n.  Works for
    complex node values, so a complex step gives exact gradients.
    """
    eng = SliceEngine(s, n, u_max)
    delta = eng.delta
    k = np.arange(2 * n - 1, dtype=np.int32)[:, None]
    j = np.arange(n, dtype=np.int32)[None, :]
    hi = k // 2 + j
    lo = k - hi
    off = (lo < 0) | (hi >= n) | (lo > hi)
    hi[off] = n
    lo[off] = n
    tau = delta * k
    weights = rho_weights(s, np.clip((j - 0.5 * (k % 2)) * delta, 0.0, 0.5 * tau), tau[:, 0])

    def numerator(F, G=None):
        F = np.append(F, 0.0)
        G = F if G is None else np.append(G, 0.0)
        P = F[lo] * G[hi]
        P += G[lo] * F[hi]
        S = delta * (np.cumsum(P, axis=1) - 0.5 * (P + P[:, :1]))
        V = row_values(S, (k[:, 0] + 1) // 2, *weights)
        return SIXTEEN_PI3 * delta * (V.sum() - 0.5 * (V[0] + V[-1]))
    return eng, numerator


def check_against_dense(s, n, u_max, seed, grad_nodes=None):
    """Packed numerator, bilinear numerator and gradient against the dense table."""
    rng = np.random.default_rng(seed)
    eng, dense = dense_reference(s, n, u_max)
    F = rng.uniform(0.0, 1.0, n)
    G = rng.uniform(0.0, 1.0, n)
    np.testing.assert_allclose(eng.numerator(F), dense(F), rtol=1e-13, atol=0)
    np.testing.assert_allclose(eng.numerator(F, G), dense(F, G), rtol=1e-13, atol=0)
    num, grad = eng.numerator_gradient(F)
    np.testing.assert_allclose(num, dense(F), rtol=1e-13, atol=0)
    # N is a homogeneous quartic in F: grad . F = 4 N, over every node
    np.testing.assert_allclose(grad @ F, 4.0 * num, rtol=1e-12,
                               atol=1e-12 * np.sum(np.abs(grad) * F))
    nodes = np.arange(n) if grad_nodes is None else np.asarray(grad_nodes)
    h = 1e-30  # complex step: dN/dF_i = Im N(F + i h e_i) / h, no cancellation
    want = [dense(F + 1j * h * (np.arange(n) == i)).imag / h for i in nodes]
    np.testing.assert_allclose(grad[nodes], want, rtol=0,
                               atol=1e-13 * np.max(np.abs(grad)))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(8, 41), s=st.floats(0.0, 10.0), u_max=st.floats(0.5, 20.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_packed_table_matches_dense_reference(n, s, u_max, seed):
    check_against_dense(s, n, u_max, seed)


@pytest.mark.parametrize("n", [600, 1201])
def test_packed_table_matches_dense_reference_large(n):
    # rows past k = n - 1 saturate off the grid; the checked nodes cover
    # both ends and the middle of the grid
    check_against_dense(1.0, n, 20.0, n, grad_nodes=[0, 1, n // 2, n - 2, n - 1])


@pytest.mark.parametrize("n, last_rows", [(255, 1), (257, 9)])
def test_gradient_matches_dense_reference_at_every_node_across_blocks(monkeypatch, n, last_rows):
    # the table spans three blocks, and its last block holds a single row
    # (n = 255) or an odd number of rows (n = 257); both are 144 columns wide
    monkeypatch.setattr(engine, "BLOCK_ENTRIES", (254 if n == 255 else 252) * 144)
    rows = [blk.a.shape[0] for blk in SliceEngine(1.0, n, 20.0)._blocks]
    assert len(rows) == 3 and rows[-1] == last_rows
    check_against_dense(1.0, n, 20.0, n)


def row_window_sums(q):
    """The row-wise window sums: one shifted add and one cumulative sum per row."""
    S = np.zeros_like(q)
    S[:, 1:] = q[:, 1:] + q[:, :-1]
    return np.cumsum(S, axis=1)


def row_window_adjoint(T):
    """The row-wise adjoint from the prefix sums U = cumsum(T) and the row total:
    D_i = 2 tot - U_i - U_{i-1} for i >= 1 and D_0 = tot - U_0."""
    U = np.cumsum(T, axis=1)
    tot = U[:, -1:]
    D = 2.0 * tot - U
    D[:, 1:] -= U[:, :-1]
    D[:, :1] = tot - U[:, :1]
    return D


@settings(max_examples=80, deadline=None)
@given(width=st.one_of(st.integers(1, 3 * CHUNK + 5), st.just(8 * CHUNK)),
       n_rows=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_chunked_window_sums_match_the_row_wise_scans(width, n_rows, seed):
    # a block padded to a multiple of CHUNK, as the tables are: its padding
    # holds arbitrary q but T = 0; 8 chunks per row give the chunk carries a
    # 64-byte row stride.  Signed values of mixed scales, and rows whose
    # j = 0 window is empty (q_0 = 0).
    rng = np.random.default_rng(seed)
    padded = -(-width // CHUNK) * CHUNK
    scale = 10.0 ** rng.uniform(-3, 3, (n_rows, 1))
    q = scale * rng.normal(size=(n_rows, padded))
    q[rng.random(n_rows) < 0.5, 0] = 0.0
    T = np.zeros((n_rows, padded))
    T[:, :width] = scale * rng.normal(size=(n_rows, width))
    S, D = np.empty_like(q), np.empty_like(T)
    _window_sums(q, S)
    _window_adjoint(T, D)
    # the chunked sums add in another order: bound fixed from the dtype
    tol = 4.0 * width * np.finfo(float).eps
    for got, want, x in ((S, row_window_sums(q[:, :width]), q[:, :width]),
                         (D, row_window_adjoint(T[:, :width]), T)):
        err = np.abs(got[:, :width] - want)
        assert np.all(err <= tol * np.sum(np.abs(x), axis=1, keepdims=True))
    assert np.array_equal(S[:, 0], np.zeros(n_rows))
    assert np.array_equal(D[:, width:], np.zeros((n_rows, padded - width)))


@settings(max_examples=80, deadline=None)
@given(sign=st.sampled_from([-1, 1]), start=st.integers(-30, 70), count=st.integers(1, 20),
       width=st.integers(1, 12), n_rows=st.integers(1, 15), size=st.integers(1, 50),
       seed=st.integers(0, 2 ** 32 - 1))
def test_add_runs_is_the_adjoint_of_take_runs(sign, start, count, width, n_rows, size, seed):
    # runs on, across and off both ends of the vector, any row order
    rng = np.random.default_rng(seed)
    offsets = rng.integers(0, count, n_rows)
    offsets[rng.integers(n_rows)] = count - 1
    runs = _Runs(start, sign, offsets, count)
    vec = rng.normal(size=size)
    X = rng.normal(size=(n_rows, width))
    scratch = _Scratch(0)
    taken = np.empty((n_rows, width))
    _take_runs(vec, runs, taken)
    added = np.zeros(size)
    _add_runs(X, runs, added, scratch)
    # entry by entry: the node each entry pairs, and only those on vec count
    nodes = runs.indices(width)
    on = (nodes >= 0) & (nodes < size)
    np.testing.assert_array_equal(taken, np.where(on, vec[np.clip(nodes, 0, size - 1)], 0.0))
    want = np.zeros(size)
    np.add.at(want, nodes[on], X[on])
    scale = np.sum(np.abs(X))
    np.testing.assert_allclose(added, want, rtol=0, atol=1e-14 * scale)
    np.testing.assert_allclose(np.sum(taken * X), vec @ added, rtol=0,
                               atol=1e-14 * scale * np.max(np.abs(vec)))


def test_engine_memory_stays_packed():
    # the packed diamond: build plus one gradient peaked at 178.5 MB with the
    # dense (2n-1) x n table and stays near 20 MB packed
    tracemalloc.start()
    try:
        eng = SliceEngine(1.0, 1200, 20.0)
        eng.q_gradient(eng.trial_values(0.4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2 ** 20


@pytest.mark.parametrize("n", [8.5, float("nan"), 7, True])
def test_engine_names_a_bad_node_count(n):
    with pytest.raises(ValueError, match="n must be an integer >= 8"):
        SliceEngine(1.0, n, 10.0)


def reference_trial_scan(engine, a_grid):
    """Q of every trial profile, one full q_ratio per decay rate (the oracle)."""
    return np.array([engine.q_ratio(engine.trial_values(a)) for a in a_grid])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(8, 700), s=st.floats(0.0, 10.0), u_max=st.floats(0.5, 20.0),
       a_grid=st.one_of(st.none(), st.lists(st.floats(0.01, 20.0), min_size=1, max_size=8)))
def test_trial_q_ratios_match_the_per_profile_scan(n, s, u_max, a_grid):
    eng = SliceEngine(s, n, u_max)
    a_grid = DEFAULT_A_GRID if a_grid is None else a_grid
    np.testing.assert_allclose(eng.trial_q_ratios(a_grid), reference_trial_scan(eng, a_grid),
                               rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("a_grid", [[0.3, float("nan")], [0.0], [0.5, -0.1], [],
                                    [[0.1, 0.2]], [float("inf")]])
def test_trial_q_ratios_name_a_bad_a_grid(a_grid):
    with pytest.raises(ValueError, match="a_grid"):
        SliceEngine(1.0, 64, 10.0).trial_q_ratios(a_grid)


def direct_rows_numerator(s, delta, n, origin, rows, F, G):
    """The numerator of the rows (k, j_first, j_last), one row at a time.

    Each row takes its window sums S from the full pair sums P and its value
    from ``rho_weights`` and ``row_values``, the (C - S)^2 form of the
    outer branch.
    """
    Fz, Gz = np.append(F, 0.0), np.append(G, 0.0)
    total = 0.0
    for k, j_first, j_last in rows:
        j = np.arange(j_first, j_last + 1)
        hi = k // 2 + j
        lo = k - hi
        off = (lo > hi) | (lo < origin) | (hi >= origin + n)
        lo = np.where(off, n, lo - origin)
        hi = np.where(off, n, hi - origin)
        P = Fz[lo] * Gz[hi] + Gz[lo] * Fz[hi]
        S = delta * (np.cumsum(P) - 0.5 * (P + P[0]))
        tau = delta * k
        w = np.clip((j - 0.5 * (k % 2)) * delta, 0.0, 0.5 * tau)
        weights = rho_weights(s, w[None, :], np.array([tau]))
        total += row_values(S[None, :], np.array([j_last - j_first]), *weights)[0]
    return SIXTEEN_PI3 * delta * total


@settings(max_examples=80, deadline=None)
@given(s=st.one_of(st.just(0.0), st.floats(0.0, 10.0, exclude_min=True)),
       delta=st.floats(0.01, 2.0), n=st.integers(2, 30), origin=st.integers(1, 20),
       kind=st.sampled_from(["random", "one-node spike", "two-node spike"]),
       n_rows=st.integers(1, 25), seed=st.integers(0, 2 ** 32 - 1))
def test_blocks_numerator_matches_direct_rows(s, delta, n, origin, kind, n_rows, seed):
    # the coefficient form sum a S^2 - 2 C sum b S + c C^2 expands the outer
    # branch's (C - S)^2; on a spike S = C over the whole outer branch, so
    # the expansion cancels to 0 there while the direct form is exactly 0
    rng = np.random.default_rng(seed)
    if kind == "random":
        F, G = rng.uniform(-1.0, 1.0, (2, n))
    else:
        width = 1 if kind == "one-node spike" else 2
        i = int(rng.integers(0, n - width + 1))
        F = np.zeros(n)
        F[i:i + width] = rng.uniform(0.5, 1.5, width)
        G = F
    # shell-pair style rows: random ones, and the rows through the support
    # of F with every window from j = 0 kept
    k = rng.integers(2 * origin, 2 * (origin + n), n_rows)
    support = np.flatnonzero(F) + origin
    k = np.concatenate([k, np.arange(2 * support[0], 2 * support[-1] + 1)])
    j_end = (k + 1) // 2
    j_first = rng.integers(0, j_end + 1)
    j_first[n_rows:] = 0
    j_last = rng.integers(j_first, j_end + 1)
    j_last[n_rows:] = j_end[n_rows:]
    blocks = list(row_blocks(s, delta, k, j_first, j_last, origin))
    rows = list(zip(k, j_first, j_last))
    want = direct_rows_numerator(s, delta, n, origin, rows, F, F)
    got = blocks_numerator(blocks, delta, np.append(F, 0.0))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    want = direct_rows_numerator(s, delta, n, origin, rows, F, G)
    got = blocks_numerator(blocks, delta, np.append(F, 0.0), np.append(G, 0.0))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_cone_limit_exponential_converges_to_two_pi_at_second_order():
    # on the cone every exponential is an extremizer (Foschi, JEMS 2007), so
    # the discrete Q of e^{-u} tends to 2*pi at the engines' O(delta^2) rate
    qs, deltas = [], []
    for n in (400, 800, 1600, 3200):
        eng = SliceEngine(0.0, n, 40.0)
        qs.append(eng.q_ratio(eng.trial_values(1.0)))
        deltas.append(eng.delta)
    excess = np.array(qs) - 2.0 * np.pi
    assert np.all(excess > 0)
    ratios = excess[:-1] / excess[1:]
    assert np.all((3.9 <= ratios) & (ratios <= 4.1)), ratios
    r = (deltas[-2] / deltas[-1]) ** 2
    limit = (r * qs[-1] - qs[-2]) / (r - 1.0)
    assert abs(limit - 2.0 * np.pi) <= 1e-5


# ---- tables store coefficients, not pair indices ----

def _arrays(obj):
    """Every array a block holds, its pair runs included."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _arrays(item)


def assert_entries_take_16_bytes(blocks):
    """a and b take 16 bytes per entry; every other array is per row, in all 40."""
    for blk in blocks:
        rows = blk.a.shape[0]
        per_entry = per_row = 0
        for arr in _arrays(blk):
            if arr.shape == blk.a.shape:
                per_entry += arr.nbytes
            else:
                assert arr.ndim == 1 and arr.size <= rows
                per_row += arr.nbytes
        assert per_entry == 16 * blk.a.size
        assert per_row <= 40 * rows  # pair runs, empty rows, sat and c


@pytest.mark.parametrize("n", [600, 1201])
def test_engine_table_stores_at_most_16_bytes_per_entry(n):
    assert_entries_take_16_bytes(SliceEngine(1.0, n, 30.0)._blocks)


def test_shell_pair_blocks_store_at_most_16_bytes_per_entry(monkeypatch):
    blocks = []

    def kept(*args):
        for blk in row_blocks(*args):
            blocks.append(blk)
            yield blk
    monkeypatch.setattr(extremizer, "row_blocks", kept)
    rng = np.random.default_rng(3)
    F, G = rng.uniform(-1.0, 1.0, (2, 400))
    extremizer.shell_pair_norm_sq(0.7, 0.05, 0, F, 250, G)
    assert len(blocks) >= 3
    assert_entries_take_16_bytes(blocks)


def test_block_pair_indices_are_derived_from_the_row():
    # lo + hi = k - 2*origin on every column, and hi steps by one per column
    k = np.arange(6, 30)
    j_end = (k + 1) // 2
    j_first = np.where(k % 3 == 0, 0, 2)
    j_last = np.minimum(j_first + 4, j_end)
    (blk,) = row_blocks(0.5, 0.1, k, j_first, j_last, origin=3)
    np.testing.assert_array_equal(blk.lo + blk.hi, np.broadcast_to((k - 6)[:, None], blk.lo.shape))
    np.testing.assert_array_equal(blk.hi[:, 0], k // 2 + j_first - 3)
    np.testing.assert_array_equal(np.diff(blk.hi, axis=1), 1)
    np.testing.assert_array_equal(blk.empty, np.flatnonzero((k % 2 == 1) & (j_first == 0)))
    np.testing.assert_array_equal(blk.lo[:, 0], (k + 1) // 2 - j_first - 3)


def test_rows_whose_padding_reaches_the_nodes_match_direct_rows():
    # one wide row pads every other row of its block: their padding columns
    # pair real nodes, and odd rows that start at j = 0 store the empty
    # window's pair, also on the nodes; both must count for nothing
    rng = np.random.default_rng(11)
    s, delta, n, origin = 0.8, 0.07, 40, 2
    F, G = rng.uniform(-1.0, 1.0, (2, n))
    k = np.array([2 * origin + n, 45, 47, 30, 31, 60, 61, 9])
    j_end = (k + 1) // 2
    j_first = np.array([0, 0, 0, 3, 0, 5, 1, 0])
    j_last = np.minimum(j_first + np.array([j_end[0], 2, 1, 2, 3, 4, 0, 2]), j_end)
    blocks = list(row_blocks(s, delta, k, j_first, j_last, origin))
    (blk,) = blocks
    pad = np.arange(blk.a.shape[1])[None, :] > blk.sat[:, None]
    on_nodes = (blk.lo >= 0) & (blk.lo < n) & (blk.hi >= 0) & (blk.hi < n)
    assert np.any(pad & on_nodes) and blk.empty.size >= 3
    assert np.all(on_nodes[blk.empty, 0])
    rows = list(zip(k, j_first, j_last))
    for other in (None, G):
        want = direct_rows_numerator(s, delta, n, origin, rows, F, F if other is None else other)
        got = blocks_numerator(blocks, delta, F, other)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def nodes_with(bad):
    """64 node values of 1, but ``bad`` at node 3."""
    return np.where(np.arange(64) == 3, bad, 1.0)


@pytest.mark.parametrize("method", ["numerator", "numerator_gradient", "norm_sq",
                                    "q_ratio", "q_gradient"])
@pytest.mark.parametrize("F, match", [
    *(pytest.param(np.ones(size), r"^F .*n = 64", id=str(size)) for size in (10, 63, 65)),
    *(pytest.param(nodes_with(bad), rf"^F must be finite, got {bad} at node 3$", id=str(bad))
      for bad in (np.nan, np.inf))])
def test_engine_names_a_node_vector_of_the_wrong_length(method, F, match):
    # NaN and inf are refused like a wrong length
    eng = SliceEngine(1.0, 64, 10.0)
    with pytest.raises(ValueError, match=match):
        getattr(eng, method)(F)


def test_engine_numerator_names_a_second_vector_of_the_wrong_length():
    eng = SliceEngine(1.0, 64, 10.0)
    with pytest.raises(ValueError, match=r"^G .*n = 64"):
        eng.numerator(np.ones(64), np.ones(10))
    with pytest.raises(ValueError, match=r"^F .*n = 64"):
        eng.numerator(np.ones((64, 1)))
    with pytest.raises(ValueError, match=r"^G must be finite, got nan at node 3$"):
        eng.numerator(np.ones(64), nodes_with(np.nan))


# ---- coefficients from the node radii, against the per-entry oracle ----

def oracle_coefficients(s, delta, blk, k, j_first):
    """A block's a, b and c entry by entry from the half widths, through ``rho_weights``."""
    k, j_first = k[:, None], j_first[:, None]
    j = np.minimum(np.arange(blk.a.shape[1]), blk.sat[:, None]) + j_first  # padding repeats j_last
    tau = delta * k
    w = np.clip((j - 0.5 * (k % 2)) * delta, 0.0, 0.5 * tau)
    alpha_in, alpha_out, mid_len = rho_weights(s, w, tau[:, 0])
    d2 = delta * delta
    return (alpha_in + alpha_out) * d2, alpha_out * d2, (mid_len + alpha_out.sum(axis=1)) * d2


@settings(max_examples=80, deadline=None)
@given(s=st.one_of(st.just(0.0), st.floats(0.0, 10.0, exclude_min=True)),
       delta=st.floats(0.01, 2.0), n=st.integers(1, 120), origin=st.integers(1, 40),
       n_rows=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1))
def test_row_blocks_match_the_per_entry_oracle(s, delta, n, origin, n_rows, seed):
    # shell-style rows from j_first > 0, odd rows from j = 0, single-window
    # rows (sat = 0) and whole rows, with one whole row at the top of the
    # nodes, so the other rows' padding reaches past the last node
    rng = np.random.default_rng(seed)
    k = rng.integers(2 * origin, 2 * (origin + n), n_rows)
    kind = rng.integers(0, 4, n_rows)
    k[kind == 1] |= 1
    j_end = (k + 1) // 2
    j_first = np.where(kind == 0, rng.integers(1, j_end + 1), 0)
    j_last = np.select([kind <= 1, kind == 2], [rng.integers(j_first, j_end + 1), j_first], j_end)
    k, j_first, j_last = (np.append(x, y) for x, y in
                          ((k, 2 * (origin + n) - 1), (j_first, 0), (j_last, origin + n)))
    start = 0
    for blk in row_blocks(s, delta, k, j_first, j_last, origin):
        rows = slice(start, start + blk.a.shape[0])
        start = rows.stop
        want = oracle_coefficients(s, delta, blk, k[rows], j_first[rows])
        # every coefficient is delta^2 times a difference of radii of at
        # most 2 phi(tau), and both builds round each radius, so where
        # tau << s both sit about eps delta^2 phi(tau) from the exact value,
        # more than 1e-12 of the block's largest a
        rounding = 8.0 * np.finfo(float).eps * delta ** 2 * np.hypot(delta * k[rows].max(), s)
        tol = 1e-12 * np.abs(want[0]).max() + rounding
        for got, expected in zip((blk.a, blk.b, blk.c), want):
            np.testing.assert_allclose(got, expected, rtol=0, atol=tol)
    assert start == k.size


def mixed_width_block():
    """The block of ``test_rows_whose_padding_reaches_the_nodes_match_direct_rows``."""
    k = np.array([84, 45, 47, 30, 31, 60, 61, 9])
    j_end = (k + 1) // 2
    j_first = np.array([0, 0, 0, 3, 0, 5, 1, 0])
    j_last = np.minimum(j_first + np.array([j_end[0], 2, 1, 2, 3, 4, 0, 2]), j_end)
    return list(row_blocks(0.8, 0.07, k, j_first, j_last, 2))


@pytest.mark.parametrize("blocks", [lambda: SliceEngine(1.0, 600, 30.0)._blocks,
                                    lambda: SliceEngine(0.0, 257, 10.0)._blocks,
                                    mixed_width_block],
                         ids=["engine", "cone engine", "mixed widths"])
def test_padding_columns_hold_exactly_zero_weight(blocks):
    # padding columns pair real nodes, so only an exact zero keeps them out
    padded = 0
    for blk in blocks():
        pad = np.arange(blk.a.shape[1])[None, :] > blk.sat[:, None]
        assert np.array_equal(blk.a[pad], np.zeros(pad.sum()))
        assert np.array_equal(blk.b[pad], np.zeros(pad.sum()))
        padded += pad.sum()
    assert padded > 0


@pytest.mark.parametrize("tau", [0.25, 1.0, 4.0])
def test_shell_pair_rows_converge_to_the_closed_form_row_mass(monkeypatch, tau):
    # F = G = 1 on nodes 0 .. n-1: shell_pair_norm_sq stores row k <= n - 1
    # whole, and its value tends to M(tau_k) / (4 pi^2) at the rho
    # trapezoid's O(delta^2), like the SliceEngine rows
    s, u_max = 1.0, 8.0
    want = sum(self_conv_row_mass(s, tau)) / (4.0 * np.pi ** 2)
    captured = []

    def kept(*args):
        blocks = list(row_blocks(*args))
        captured.append((args[2], blocks))
        yield from blocks
    monkeypatch.setattr(extremizer, "row_blocks", kept)
    errs = []
    for n in (129, 257, 513):
        delta = u_max / (n - 1)
        captured.clear()
        extremizer.shell_pair_norm_sq(s, delta, 0, np.ones(n), 0, np.ones(n))
        ((k, blocks),) = captured
        V = np.concatenate(list(_row_values(blocks, np.ones(n), np.ones(n)))) / 4.0
        (row,) = np.flatnonzero(k == round(tau / delta))
        errs.append(abs(V[row] - want) / want)
    assert len(blocks) >= 3
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all((3.8 <= ratios) & (ratios <= 4.2)), (errs, ratios)


@pytest.mark.parametrize("s, n", [(0.0, 41), (0.5, 255), (1.0, 600), (3.0, 1201)])
def test_one_shot_evaluations_equal_the_held_table_bit_for_bit(s, n):
    # an engine that holds no table streams its blocks; the values must not move
    rng = np.random.default_rng(n)
    F, G = rng.uniform(0.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    fresh = SliceEngine(s, n, 20.0)
    streamed = (fresh.numerator(F), fresh.numerator(F, G), fresh.q_ratio(F))
    assert fresh._table is None
    held = SliceEngine(s, n, 20.0)
    held._blocks
    assert (held.numerator(F), held.numerator(F, G), held.q_ratio(F)) == streamed


def traced_peak(fn):
    """The peak traced allocation of fn(), in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_shot_q_ratio_holds_one_block_at_a_time():
    # the held table at n = 3000 peaks at about 72 MB to build; streamed, a
    # q_ratio keeps one block and one scratch alive (about 2 MB)
    eng = SliceEngine(1.0, 3000, 40.0)
    F = eng.trial_values(0.3)
    assert traced_peak(lambda: eng.q_ratio(F)) < 8 * 2 ** 20
    assert eng._table is None
    assert traced_peak(lambda: eng._blocks) > 48 * 2 ** 20


def test_gradient_keeps_the_table_and_numerator_reads_it(monkeypatch):
    eng = SliceEngine(1.0, 300, 20.0)
    F = eng.trial_values(0.4)
    eng.q_gradient(F)
    table = eng._table
    assert table is not None and eng._blocks is table

    def refused(*args, **kwargs):
        raise AssertionError("the held table was rebuilt")
    monkeypatch.setattr(engine, "row_blocks", refused)
    want = SIXTEEN_PI3 * eng.delta * sum(V.sum() for V in _row_values(table, F))
    assert eng.numerator(F) == want
    assert eng.q_ratio(F) == want / eng.norm_sq(F) ** 2
    eng.q_gradient(F)
    assert eng._table is table
