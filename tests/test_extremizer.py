import logging
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconv import engine, extremizer
from hyperconv.convolution import cross_conv, hyperbolic_conv
from hyperconv.engine import BLOCK_ENTRIES, SliceEngine, _Scratch, blocks_numerator, row_blocks
from hyperconv.extremizer import (CONE_Q, DOUBLE_CONE_Q, SheetPair,
                                  bilinear_dyadic_scan, cone_limit_scan,
                                  dyadic_pieces, dyadic_refinement_check,
                                  dyadic_shell_values,
                                  even_pair_certificate, full_q_ratio,
                                  maximize_radial, pair_convolution_field, pair_template,
                                  q_ratio, shell_pair_norm_sq, symmetrize,
                                  tail_bound_check, trial_family_scan)
from hyperconv.fields import Conv2DField
from hyperconv.geometry import psi
from hyperconv.norms import TruncationWarning, l2_field_norm, lp_norm
from hyperconv.profiles import RadialProfile, shell_indicator, trial_profile


def test_q_ratio_trial_profile_exceeds_cone():
    f = trial_profile(0.3, 1.0, r_max=40.0, n=500)
    q, report = q_ratio(f)
    assert q > CONE_Q
    assert report["error_estimate"] < 1e-3 * q
    assert 0 <= report["tail_mass_fraction"] < 0.05


def test_q_ratio_error_estimate_uses_the_grid_ratio():
    # the default engine has 400 nodes and its half 200, so h = 399/199
    f = shell_indicator(1.0, 2.0, 1.0, n=200)
    q, report = q_ratio(f)
    half = SliceEngine(f.s, 200, psi(f.r_max, f.s))
    q_half = half.q_ratio(half.sample(f))
    h = 399.0 / 199.0
    np.testing.assert_allclose(report["error_estimate"], abs(q - q_half) / (h * h - 1.0),
                               rtol=1e-12)


def test_q_ratio_rejects_zero():
    grid = np.linspace(1.0, 2.0, 10)
    with pytest.raises(ValueError):
        q_ratio(RadialProfile(1.0, grid, np.zeros(10)))


def test_cone_q_never_exceeds_cone_constant():
    # s = 0: any nonnegative profile stays at or below 2*pi + tolerance
    rng = np.random.default_rng(3)
    eng = SliceEngine(0.0, 500, 30.0)
    for _ in range(5):
        F = rng.uniform(0.0, 1.0, eng.n) * np.exp(-0.1 * eng.u)
        assert eng.q_ratio(F) <= CONE_Q * (1.0 + 2e-3)
    # and the trial family on the cone approaches but stays below it
    assert eng.q_ratio(np.exp(-0.05 * eng.u)) <= CONE_Q * (1.0 + 2e-3)


def test_shell_pair_norm_matches_engine():
    # the sparse windowed route must agree with the dense engine route
    s, u_max, n = 1.0, 10.0, 400
    eng = SliceEngine(s, n, u_max)
    delta = eng.delta
    i0f, F = dyadic_shell_values(s, 0, delta)
    i0g, G = dyadic_shell_values(s, 1, delta)
    dense_F = np.zeros(n)
    dense_F[i0f:i0f + F.size] = F
    dense_G = np.zeros(n)
    dense_G[i0g:i0g + G.size] = G
    want = eng.numerator(dense_F, dense_G)
    got = shell_pair_norm_sq(s, delta, i0f, F, i0g, G)
    np.testing.assert_allclose(got, want, rtol=1e-6)
    # self pair too
    want_self = eng.numerator(dense_F)
    got_self = shell_pair_norm_sq(s, delta, i0f, F, i0f, F)
    np.testing.assert_allclose(got_self, want_self, rtol=1e-6)


@pytest.mark.parametrize("kind", ["bump", "indicator"])
def test_shell_self_pairs_equal_the_cross_path_bit_for_bit(monkeypatch, kind):
    # a self pair takes blocks_numerator's self path: the cross path's half
    # pair sums are twice the self path's, so every sum scales by an exact
    # power of 2
    s, delta = 1.0, 0.05
    shells = [dyadic_shell_values(s, k, delta, kind) for k in range(5)]
    self_path = [shell_pair_norm_sq(s, delta, *sh, *sh) for sh in shells]
    seen = []

    def cross_path(blocks, delta, F, G=None, scratch=None):
        seen.append(G is None)
        return blocks_numerator(blocks, delta, F, F.copy() if G is None else G, scratch)
    monkeypatch.setattr(extremizer, "blocks_numerator", cross_path)
    assert [shell_pair_norm_sq(s, delta, *sh, *sh) for sh in shells] == self_path
    assert seen == [True] * 5
    shell_pair_norm_sq(s, delta, *shells[0], *shells[1])
    assert seen[-1] is False


def test_one_scratch_shared_by_shell_pairs_of_changing_size_is_bit_identical(monkeypatch):
    # bilinear_dyadic_scan passes one scratch to every pair, and each pair's
    # block builder and evaluator share its first two buffers.  Pairs of
    # growing, then shrinking size, cross and self, with blocks small enough
    # that the scratch regrows: each value equals the one with a fresh
    # scratch per pair, and the one from blocks built with their own scratch.
    monkeypatch.setattr(engine, "BLOCK_ENTRIES", 2 ** 8)
    rng = np.random.default_rng(17)
    s, delta = 1.0, 0.05
    pairs = []
    for nf, ng in ((12, 9), (40, 25), (150, 90), (400, 300), (150, 150), (40, 60), (12, 12)):
        i0_f, i0_g = rng.integers(0, 200, 2)
        F, G = rng.uniform(-1.0, 1.0, nf), rng.uniform(-1.0, 1.0, ng)
        pairs += [(i0_f, F, i0_g, G), (i0_f, F, i0_f, F)]
    shared = _Scratch(3)
    got = [shell_pair_norm_sq(s, delta, *pair, scratch=shared) for pair in pairs]
    assert got == [shell_pair_norm_sq(s, delta, *pair, scratch=_Scratch(3)) for pair in pairs]
    monkeypatch.setattr(extremizer, "row_blocks", lambda *args: list(row_blocks(*args[:-1])))
    assert got == [shell_pair_norm_sq(s, delta, *pair, scratch=shared) for pair in pairs]


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_shell_pair_norm_equals_dense_engine(s):
    # the sparse rows integrate with the engine's own window sums and rho
    # weights, so the two routes give the same discrete number to rounding
    for kind in ("bump", "indicator"):
        for nodes_per_shell in (32, 33):
            for parity in (0, 1):
                delta = psi(2.0 * s, s) / nodes_per_shell
                i3, last = dyadic_shell_values(s, 3, delta, kind)
                n = i3 + last.size + 3 + parity  # zero nodes past the last shell
                eng = SliceEngine(s, n, (n - 1) * delta)
                shells = [dyadic_shell_values(s, k, eng.delta, kind) for k in range(4)]
                dense = np.zeros((4, n))
                for row, (i0, vals) in zip(dense, shells):
                    row[i0:i0 + vals.size] = vals
                for a, b in ((1, 1), (1, 2), (0, 3)):  # self, adjacent, distant
                    got = shell_pair_norm_sq(s, eng.delta, *shells[a], *shells[b])
                    want = eng.numerator(dense[a], dense[b])
                    np.testing.assert_allclose(got, want, rtol=1e-12)


def dense_pair_numerator(s, delta, i0_f, F, i0_g, G, pad=1):
    """SliceEngine numerator (F, G) on zero-padded dense vectors: pad zero nodes
    past the pair keep every row of the pair interior to the tau trapezoid."""
    n = max(8, i0_f + F.size + pad, i0_g + G.size + pad)
    eng = SliceEngine(s, n, (n - 1) * delta)
    dense = np.zeros((2, n))
    dense[0, i0_f:i0_f + F.size] = F
    dense[1, i0_g:i0_g + G.size] = G
    return eng.numerator(dense[0], dense[1])


@settings(max_examples=80, deadline=None)
@given(s=st.floats(0.0, 10.0), delta=st.floats(0.01, 2.0),
       i0_f=st.integers(0, 40), nf=st.integers(1, 40),
       i0_g=st.integers(0, 40), ng=st.integers(1, 40),
       same=st.booleans(), pad=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_shell_pair_norm_matches_engine_property(s, delta, i0_f, nf, i0_g, ng, same, pad, seed):
    # random starts and lengths give self, overlapping and disjoint pairs,
    # rows of both parities, and start index 0 (a pair at node 0 of every row)
    rng = np.random.default_rng(seed)
    F = rng.uniform(-1.0, 1.0, nf)
    G = F if same else rng.uniform(-1.0, 1.0, ng)
    if same:
        i0_g = i0_f
    got = shell_pair_norm_sq(s, delta, i0_f, F, i0_g, G)
    want = dense_pair_numerator(s, delta, i0_f, F, i0_g, G, pad)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_shell_pair_norm_spanning_several_blocks(monkeypatch):
    # two 400-node shells, overlapping, equal or disjoint, one of them from
    # node 0: their rows fill several blocks
    blocks = []

    def counted(*args):
        for blk in row_blocks(*args):
            blocks.append(blk.lo.size)
            yield blk
    monkeypatch.setattr(extremizer, "row_blocks", counted)
    rng = np.random.default_rng(5)
    F, G = rng.uniform(-1.0, 1.0, (2, 400))
    s, delta = 0.7, 0.05
    for i0_f, i0_g in ((0, 250), (30, 30), (0, 500)):
        blocks.clear()
        got = shell_pair_norm_sq(s, delta, i0_f, F, i0_g, G)
        np.testing.assert_allclose(got, dense_pair_numerator(s, delta, i0_f, F, i0_g, G),
                                   rtol=1e-12, atol=0)
        assert len(blocks) >= 3 and max(blocks) <= BLOCK_ENTRIES


def test_shell_pair_memory_stays_blocked():
    # the self pair of shell 6 at the scan's finer default grid: 3548 nodes
    # and 7095 rows; one dense table of it would take about 200 MB per array
    s = 1.0
    delta = psi(2.0 * s, s) / 48 / 2.0
    i0, F = dyadic_shell_values(s, 6, delta)
    assert F.size == 3548
    tracemalloc.start()
    try:
        value = shell_pair_norm_sq(s, delta, i0, F, i0, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(value) and value > 0.0
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("kwargs, name", [
    ({"s": -1.0}, "mass parameter s"), ({"s": 0.0}, "mass parameter s"),
    ({"s": np.nan}, "mass parameter s"), ({"nodes_per_shell": np.nan}, "nodes_per_shell"),
    ({"nodes_per_shell": 7}, "nodes_per_shell"), ({"nodes_per_shell": 32.0}, "nodes_per_shell"),
    ({"k_max": 3}, "k_max"), ({"k_max": 4.5}, "k_max")])
def test_dyadic_scan_rejects_bad_input_by_name(kwargs, name):
    args = {"s": 1.0, "k_max": 4, "nodes_per_shell": 16} | kwargs
    with pytest.raises(ValueError, match=name):
        bilinear_dyadic_scan(**args)


@pytest.mark.parametrize("delta, i0_f, i0_g, name", [
    (0.0, 0, 0, "delta"), (-0.1, 0, 0, "delta"), (np.nan, 0, 0, "delta"),
    (np.inf, 0, 0, "delta"), (0.1, -1, 0, "i0_f"), (0.1, 0, -2, "i0_g")])
def test_shell_pair_norm_rejects_bad_input_by_name(delta, i0_f, i0_g, name):
    F = np.ones(10)
    with pytest.raises(ValueError, match=name):
        shell_pair_norm_sq(1.0, delta, i0_f, F, i0_g, F)


def test_maximize_radial_small():
    res = maximize_radial(1.0, grid_size=160, r_max=25.0, restarts=2, iters=250,
                          seed=11)
    assert res.q_star > CONE_Q
    assert res.q_star >= res.trial_best_q - 1e-4
    assert res.q_refined > CONE_Q
    # monotone ascent trace
    assert all(b >= a for a, b in zip(res.trace, res.trace[1:]))


@pytest.mark.parametrize("name, value", [("seed", -2), ("seed", 1.5), ("seed", True),
                                         ("grid_size", 100.5), ("grid_size", 32),
                                         ("restarts", 0), ("iters", -1)])
def test_maximize_radial_names_a_bad_input(name, value):
    kwargs = {"grid_size": 64, "restarts": 1, "iters": 3, name: value}
    with pytest.raises(ValueError, match=name):
        maximize_radial(1, r_max=10, **kwargs)


@pytest.mark.parametrize("name, value", [("r_max", np.nan), ("r_max", np.inf),
                                         ("r_max", 0.5), ("r_max", 1.0),
                                         ("rel_stop", np.nan), ("rel_stop", np.inf),
                                         ("rel_stop", -1.0)])
def test_maximize_radial_names_a_bad_range_before_building_an_engine(monkeypatch, name,
                                                                     value):
    def no_engine(*args, **kwargs):
        raise AssertionError("an engine was built")

    monkeypatch.setattr(extremizer, "SliceEngine", no_engine)
    kwargs = {"r_max": 10.0, "grid_size": 64, "restarts": 1, "iters": 3, name: value}
    with pytest.raises(ValueError, match=name):
        maximize_radial(1.0, **kwargs)


@pytest.mark.parametrize("search", [
    lambda: maximize_radial(0.0, 400, r_max=40.0, restarts=1, iters=300),
    lambda: extremizer.extremal_study(0.0, 40.0, [200, 400, 800])])
def test_radial_search_refuses_the_cone_before_building_an_engine(monkeypatch, search):
    # at s = 0 the ascent used to run to a spike at node 0 (q_star 3.9e28)
    # or to a NaN gradient
    def no_engine(*args, **kwargs):
        raise AssertionError("an engine was built")

    monkeypatch.setattr(extremizer, "SliceEngine", no_engine)
    with pytest.raises(ValueError, match="mass parameter s must be > 0"):
        search()


def test_maximize_scaling_invariance():
    r1 = maximize_radial(1.0, grid_size=128, r_max=20.0, restarts=1, iters=150)
    # map the argmax to mass 2 on the matched grid: Q agrees to 1e-10
    eng2 = SliceEngine(2.0, 128, psi(40.0, 2.0))
    np.testing.assert_allclose(eng2.q_ratio(r1.profile.values), r1.q_star,
                               rtol=1e-10)
    # an independent search at mass 2 lands on the same value
    r2 = maximize_radial(2.0, grid_size=128, r_max=40.0, restarts=1, iters=150)
    np.testing.assert_allclose(r1.q_star, r2.q_star, rtol=1e-5)


def test_absolute_value_monotonicity():
    rng = np.random.default_rng(5)
    eng = SliceEngine(1.0, 200, 12.0)
    for _ in range(6):
        F = rng.uniform(-1.0, 1.0, eng.n)
        q_signed = eng.numerator(F) / eng.norm_sq(F) ** 2
        q_abs = eng.numerator(np.abs(F)) / eng.norm_sq(np.abs(F)) ** 2
        assert q_abs >= q_signed - 1e-12


# ---- sheet pairs ----

def small_pair(seed=0, n=28, complex_vals=True):
    rng = np.random.default_rng(seed)
    grid = np.linspace(1.0, 2.5, n)
    def draw():
        v = rng.uniform(0.2, 1.0, n)
        if complex_vals:
            v = v * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        v[0] = v[-1] = 0.0
        return v
    return SheetPair(RadialProfile(1.0, grid, draw()),
                     RadialProfile(1.0, grid, draw()))


def test_symmetrize_preserves_norm_and_fixes_even():
    pair = small_pair(1)
    sym = symmetrize(pair)
    np.testing.assert_allclose(2.0 * np.abs(sym.f_plus.values) ** 2,
                               np.abs(pair.f_plus.values) ** 2 + np.abs(pair.f_minus.values) ** 2,
                               rtol=1e-12)
    assert sym.l2_norm_sq() >= pair.l2_norm_sq() * (1 - 1e-7)
    np.testing.assert_array_equal(sym.f_plus.values, sym.f_minus.values)
    # an already even nonnegative pair is a fixed point
    again = symmetrize(sym)
    np.testing.assert_allclose(again.f_plus.values, sym.f_plus.values, rtol=1e-14)


def pair_norm_sq_of_field(pair, grid, reflected=False):
    h = pair_convolution_field(pair, grid, reflected=reflected)
    return l2_field_norm(h, warn_boundary=False)[0] ** 2


def test_symmetrization_inequality_random_complex():
    grid = Conv2DField.template(7.2, -6.3, 6.3, 41, 57)
    worst = np.inf
    for seed in range(20):
        pair = small_pair(seed)
        sym = symmetrize(pair)
        lhs = pair_norm_sq_of_field(pair, grid)
        rhs = pair_norm_sq_of_field(sym, grid)
        slack = np.sqrt(rhs) - np.sqrt(lhs)
        worst = min(worst, slack)
    assert worst >= -1e-12


def test_reflected_pointwise_domination():
    # |f mubar * (reflected f) mubar| <= fsharp mubar * fsharp mubar holds
    # pointwise; with shared quadrature nodes it holds cell-exactly
    grid = Conv2DField.template(7.2, -6.3, 6.3, 31, 41)
    for seed in (2, 7):
        pair = small_pair(seed)
        sym = symmetrize(pair)
        refl = pair_convolution_field(pair, grid, reflected=True)
        dom = pair_convolution_field(sym, grid)
        assert np.all(np.abs(refl.values) <= dom.values.real + 1e-10)


def test_full_q_reduces_to_single_sheet():
    f = shell_indicator(1.2, 2.2, 1.0, n=60, smooth=True)
    zero = RadialProfile(1.0, f.grid, np.zeros_like(f.values))
    pair = SheetPair(f, zero)
    qbar, breakdown = full_q_ratio(pair)
    q_single, _ = q_ratio(f)
    np.testing.assert_allclose(qbar, q_single, rtol=2e-3)
    assert breakdown["terms"]["cross_sq"] == 0.0
    assert breakdown["terms"]["lower_self"] == 0.0


def test_full_q_even_pair_expansion():
    # even nonnegative pair: cross-square term equals the self terms
    # (modulus identity of the transforms) and all cross terms are
    # nonnegative, certifying the six-fold lower bound
    f = shell_indicator(1.2, 2.4, 1.0, n=80, smooth=True)
    pair = SheetPair(f, f)
    qbar, br = full_q_ratio(pair)
    t = br["terms"]
    np.testing.assert_allclose(t["upper_self"], t["lower_self"], rtol=1e-10)
    np.testing.assert_allclose(t["cross_sq"], 4.0 * t["upper_self"], rtol=2e-3)
    assert t["upper_cross"] >= 0 and t["lower_cross"] >= 0
    assert abs(t["upper_lower"]) <= 1e-9 * t["upper_self"]  # disjoint supports
    assert br["numerator"] >= br["six_term_floor"] * (1 - 1e-9)
    assert abs(br["expansion_gap"]) <= 1e-8 * br["numerator"]
    # Qbar >= 1.5 Q(f) with equal denominators
    q_single, _ = q_ratio(f)
    assert qbar >= 1.5 * q_single * (1 - 5e-3)


def test_full_q_ratio_of_the_even_trial_pair_stays_within_its_memory():
    # the default 161 x 243 template: the samplers' blocks and Gauss chunks
    # bound their temporaries, so the fields and norms set the peak (4.43 MiB
    # when every 6-row block held its Gauss points at once)
    f = trial_profile(1.0, 1.0, 20.0, 400)
    tracemalloc.start()
    try:
        qbar, _ = full_q_ratio(SheetPair(f, f))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(qbar - 12.4897180969) < 1e-9
    assert peak <= 4.2 * 2 ** 20


def test_even_pair_samples_each_field_once(monkeypatch):
    # equal node values on both sheets: one self field and one cross field,
    # assembled exactly as from separately sampled fields
    f = shell_indicator(1.2, 2.4, 1.0, n=40, smooth=True)
    pair = SheetPair(f, RadialProfile(1.0, f.grid, f.values.copy()))
    grid = Conv2DField.template(7.0, -6.0, 6.0, 31, 45)
    A, B = hyperbolic_conv(f, f, grid), cross_conv(f, f, grid)
    calls = []
    for name in ("hyperbolic_conv", "cross_conv"):
        real = getattr(extremizer, name)
        monkeypatch.setattr(extremizer, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    qbar, br = full_q_ratio(pair, grid=grid)
    assert calls == ["hyperbolic_conv", "cross_conv"]
    total = grid.like(A.values + A.values[:, ::-1] + 2.0 * B.values)
    num = l2_field_norm(total, warn_boundary=False)[0] ** 2
    assert br["numerator"] == num
    assert qbar == num / pair.l2_norm_sq() ** 2
    assert br["terms"]["upper_self"] == br["terms"]["lower_self"]
    # the unreflected pair field samples its cross field once as well
    calls.clear()
    pair_convolution_field(small_pair(3), grid)
    assert calls == ["hyperbolic_conv", "hyperbolic_conv", "cross_conv"]


@pytest.mark.parametrize("reflected", [False, True])
def test_even_pair_field_samples_each_field_once(monkeypatch, reflected):
    pair = symmetrize(small_pair(3))
    f = pair.f_plus
    grid = Conv2DField.template(7.2, -6.3, 6.3, 31, 41)
    A, B = hyperbolic_conv(f, f, grid), cross_conv(f, f, grid)
    calls = []
    for name in ("hyperbolic_conv", "cross_conv"):
        real = getattr(extremizer, name)
        monkeypatch.setattr(extremizer, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    h = pair_convolution_field(pair, grid, reflected=reflected)
    assert calls == ["hyperbolic_conv", "cross_conv"]
    np.testing.assert_array_equal(h.values, A.values + A.values[:, ::-1] + B.values + B.values)


def test_reflected_even_pair_of_equal_copies_takes_the_self_path(monkeypatch):
    # sheets with equal values but distinct objects: reflecting swaps equal
    # sheets, so the reflected field is the unreflected one, at the same cost
    f = trial_profile(0.7, 1.0, 20.0, 200)
    pair = SheetPair(f, RadialProfile(f.s, f.grid, f.values.copy()))
    grid = pair_template(pair, 41, 61)
    points = []
    real = RadialProfile.at_time
    monkeypatch.setattr(RadialProfile, "at_time",
                        lambda self, t: points.append(np.size(t)) or real(self, t))
    values, counts = [], []
    for reflected in (False, True):
        points.clear()
        values.append(pair_convolution_field(pair, grid, reflected=reflected).values)
        counts.append(sum(points))
    assert counts[0] > 0 and counts[0] == counts[1]
    np.testing.assert_array_equal(*values)


def _pass_records(caplog, run):
    """(name, fields, tau rows, quadrature points) of each sampler pass that ``run`` makes."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="hyperconv"):
        run()
    found = [re.match(r"(\w+): (\d+) fields, (\d+) tau rows, .* (\d+) quadrature points",
                      r.getMessage()) for r in caplog.records if r.name == "hyperconv"]
    return [(m[1], int(m[2]), int(m[3]), int(m[4])) for m in found if m]


@pytest.mark.parametrize("reflected", [False, True])
def test_a_pairs_self_fields_take_one_pass_and_cross_rows_one_per_abs_tau(caplog, reflected):
    pair = small_pair(3)
    fp, fm = pair.f_plus, pair.f_minus
    gp, gm = (fm, fp) if reflected else (fp, fm)
    grid = Conv2DField.template(7.2, -6.3, 6.3, 31, 41)
    passes = _pass_records(caplog, lambda: pair_convolution_field(pair, grid, reflected))
    alone = _pass_records(caplog, lambda: (hyperbolic_conv(fp, gp, grid),
                                           hyperbolic_conv(fm, gm, grid)))
    # one self pass carries both fields; reflected they are f+ * f- and
    # f- * f+, one integrand, so the pass takes the points of one field
    (_, fields, _, points), = [p for p in passes if p[0] == "hyperbolic_conv"]
    assert fields == 2 and points == alone[0][3] + (0 if reflected else alone[1][3])
    # a cross field is one pass over the distinct |tau| of the mirrored grid,
    # the rows of its tau >= 0 columns alone; cross(f, f) integrates each once
    half = Conv2DField.template(7.2, 0.0, 6.3, 31, 21)
    (_, _, rows, points), = _pass_records(caplog, lambda: cross_conv(fp, gm, half))
    cross = [p for p in passes if p[0] == "cross_conv"]
    assert rows > 0 and [p[1:3] for p in cross] == [(1, rows)] * (2 if reflected else 1)
    if reflected:
        assert cross[0][3] == points


def test_full_q_ratio_warns_when_the_summed_field_is_truncated():
    # half the 81 x 121 template's extent cuts the field: Qbar 12.391, not 12.166
    f = trial_profile(0.7, 1.0, 20.0, 200)
    pair = SheetPair(f, f)
    full = pair_template(pair, 81, 121)
    half = Conv2DField.template(full.rho_grid[-1] / 2, full.tau_grid[0] / 2,
                                full.tau_grid[-1] / 2, 81, 121)
    with pytest.warns(TruncationWarning, match="touches the grid boundary"):
        qbar_half = full_q_ratio(pair, grid=half)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        qbar_full = full_q_ratio(pair, grid=full)[0]
        # the default grid is pair_template's
        assert full_q_ratio(pair)[0] == full_q_ratio(pair, grid=pair_template(pair))[0]
    np.testing.assert_allclose([qbar_half, qbar_full], [12.391, 12.166], atol=1e-3)


@pytest.mark.parametrize("grid", [
    Conv2DField.template(7.0, -6.0, 9.0, 61, 113),
    # a 0.1 % shift of a span of 1e-5, inside np.allclose's absolute 1e-8
    Conv2DField.template(1e-5, -1e-5, 1.001e-5, 5, 9)])
def test_pair_fields_reject_an_asymmetric_tau_grid(grid):
    pair = small_pair(3)
    with pytest.raises(ValueError, match="^grid"):
        full_q_ratio(pair, grid=grid)
    with pytest.raises(ValueError, match="^grid"):
        pair_convolution_field(pair, grid)


def test_even_pair_certificate_rejects_a_zero_profile():
    zero = RadialProfile(1.0, np.linspace(1.0, 5.0, 40), np.zeros(40))
    result = extremizer.AscentResult(profile=zero, q_star=0.0, q_refined=0.0,
                                     trial_best_a=1.0, trial_best_q=0.0, trace=[],
                                     restarts=[], stagnated=False)
    with pytest.raises(ValueError, match="zero L2 norm"):
        even_pair_certificate(result, engine_n=64)


def test_even_pair_certificate_exceeds_double_cone():
    res = maximize_radial(1.0, grid_size=160, r_max=25.0, restarts=1, iters=200)
    cert = even_pair_certificate(res, engine_n=400)
    assert cert["exceeds_double_cone"]
    assert cert["qbar_floor"] > DOUBLE_CONE_Q


# ---- dyadic diagnostics ----

def test_bilinear_scan_slope_and_symmetry():
    table, report = bilinear_dyadic_scan(1.0, k_max=5, nodes_per_shell=32)
    assert report["slope"] <= -0.20
    np.testing.assert_allclose(table, table.T, rtol=1e-12)
    assert np.isfinite(report["diag_max"])


def test_indicator_scan_warns_when_its_one_refinement_is_not_enough(caplog):
    # at 8 nodes per shell the delta and delta/2 tables differ by 4.9e-2 and
    # the delta/2 and delta/4 tables still by 2.3e-2
    with caplog.at_level(logging.WARNING, logger="hyperconv"):
        table, report = bilinear_dyadic_scan(1.0, k_max=4, profile_kind="indicator",
                                             nodes_per_shell=8)
    assert report["refined"]
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "0.023" in caplog.text and "nodes_per_shell = 8" in caplog.text
    # the reported table is the delta/4 one, pair by pair
    delta = psi(2.0, 1.0) / 8 / 4.0
    shells = [dyadic_shell_values(1.0, k, delta, "indicator") for k in range(5)]
    direct = np.array([[np.sqrt(shell_pair_norm_sq(1.0, delta, *shells[k], *shells[kp]))
                        for kp in range(5)] for k in range(5)])
    np.testing.assert_array_equal(table, direct)


def test_bump_scan_settles_without_a_refinement_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="hyperconv"):
        _, report = bilinear_dyadic_scan(1.0, k_max=4, nodes_per_shell=32)
    assert not report["refined"]
    assert not caplog.records


def test_dyadic_refinement_single_and_multi_shell():
    s = 1.0
    single = shell_indicator(2.0, 4.0, s, n=200, smooth=True)
    lhs, rhs3, rhs_sup = dyadic_refinement_check(single)
    from hyperconv.norms import lp_norm
    np.testing.assert_allclose(rhs3, lp_norm(single, 2.0), rtol=1e-9)
    assert lhs <= 8.0 * rhs3  # finite empirical constant
    # equal mass over m shells: rhs3 scales like m^{-1/6}; lhs need not
    # fall (neighbouring shells interact), so it is pinned to the discrete
    # form and bracketed by its dyadic pieces
    engine = SliceEngine(s, 700, psi(2.0 ** 4, s))
    ratios = []
    for m in (1, 2, 4):
        grid = engine.radius_grid
        vals = np.zeros_like(grid)
        for k in range(m):
            sel = (grid >= 2.0 ** k) & (grid < 2.0 ** (k + 1))
            piece = np.where(sel, 1.0, 0.0)
            nrm = np.sqrt(np.sum(engine.den_weights * piece ** 2))
            vals += piece / (nrm * np.sqrt(m))
        f = RadialProfile(s, grid, vals)
        lhs_m, rhs3_m, _ = dyadic_refinement_check(f, engine)
        ratios.append((m, lhs_m, rhs3_m))
        # lhs is the L4 extension norm 2 pi N(F)^{1/4} of the sampled profile
        F = engine.sample(f)
        np.testing.assert_allclose(lhs_m, 2 * np.pi * engine.numerator(F) ** 0.25,
                                   rtol=1e-12)
        # empirical constants stay bounded: the pieces sum to F on the nodes,
        # the slice weights are nonnegative, so N(F) lies between the
        # diagonal shell terms and the triangle inequality over shell pairs
        pieces = [engine.sample(p) for _, p in dyadic_pieces(f)]
        np.testing.assert_array_equal(sum(pieces), F)
        diag = sum(engine.numerator(Fk) for Fk in pieces)
        tri = sum(np.sqrt(engine.numerator(Fk, Fl))
                  for Fk in pieces for Fl in pieces) ** 2
        assert diag <= (lhs_m / (2 * np.pi)) ** 4 * (1 + 1e-12)
        assert (lhs_m / (2 * np.pi)) ** 4 <= tri * (1 + 1e-12)
    m_vals, lhs_vals, rhs3_vals = zip(*ratios)
    assert rhs3_vals[2] < rhs3_vals[1] < rhs3_vals[0]


def test_tail_bound():
    a = 10.0
    f = shell_indicator(a, a + 4.0, 1.0, n=200, smooth=False)
    lhs, bound = tail_bound_check(a, f)
    assert lhs <= bound
    np.testing.assert_allclose(bound / (2 * np.pi * (1 + 1 / np.sqrt(99.0))),
                               (lhs * 0 + 1) * tail_norm_sq(f) ** 2, rtol=1e-9)
    # bound degrades gracefully as a -> 1+
    g = shell_indicator(1.05, 3.0, 1.0, n=200, smooth=False)
    lhs2, bound2 = tail_bound_check(1.05, g)
    assert lhs2 <= bound2
    assert bound2 / tail_norm_sq(g) ** 2 > bound / tail_norm_sq(f) ** 2


def tail_norm_sq(f):
    from hyperconv.norms import lp_norm
    return lp_norm(f, 2.0) ** 2


def test_cone_limit_scan():
    f = shell_indicator(1.0, 2.0, 0.6, n=120, smooth=False)
    f = RadialProfile(0.6, f.grid, f.values)  # support [1, 2], masses below 0.6
    rows, sup_bound = cone_limit_scan(f, [0.5, 0.25, 0.1, 0.05])
    ds = [r["distance"] for r in rows]
    assert ds[-1] == 0.0  # s = 0 row
    assert all(a > b for a, b in zip(ds[:-2], ds[1:-1]))  # strictly decreasing
    assert all(r["bound_ok"] for r in rows)


@pytest.mark.parametrize("s_list, match", [
    ([], "s_list must hold at least one mass parameter"),
    ([float("nan")], "every s in s_list must be finite and >= 0, got nan"),
    ([0.1, float("inf")], "every s in s_list must be finite and >= 0, got inf"),
    ([-0.1], "every s in s_list must be finite and >= 0, got -0.1"),
])
def test_cone_limit_scan_names_a_bad_s_list_before_sampling(monkeypatch, s_list, match):
    def sampled(*args):
        raise AssertionError("a field was sampled")

    monkeypatch.setattr(extremizer, "hyperbolic_conv", sampled)
    f = shell_indicator(1.0, 2.0, 0.6, n=40)
    with pytest.raises(ValueError, match=match):
        cone_limit_scan(RadialProfile(0.6, f.grid, f.values), s_list)


def test_dyadic_pieces_cover_every_node():
    # mass below r = 1 (s < 1) lands in the shells of negative k
    s = 0.5
    f = RadialProfile(s, np.linspace(0.5, 0.99, 50), np.ones(50))
    pieces = dyadic_pieces(f)
    assert [k for k, _ in pieces] == [-1]
    lhs, rhs3, rhs_sup = dyadic_refinement_check(f)
    assert np.isfinite([lhs, rhs3, rhs_sup]).all() and rhs3 > 0
    # a node at r_max = 2^K closes the last shell
    g = RadialProfile(1.0, np.linspace(1.0, 16.0, 100), np.ones(100))
    assert [k for k, _ in dyadic_pieces(g)] == [0, 1, 2, 3]
    rng = np.random.default_rng(8)
    h = RadialProfile(0.3, np.geomspace(0.3, 8.0, 90), rng.uniform(-1.0, 1.0, 90))
    for prof in (f, g, h):
        np.testing.assert_array_equal(sum(p.values for _, p in dyadic_pieces(prof)),
                                      prof.values)
    with pytest.raises(ValueError, match="zero profile"):
        dyadic_refinement_check(RadialProfile(s, f.grid, np.zeros(50)))


@pytest.mark.parametrize("iters, rel_stop, stop", [(3, 0.0, "iters"),
                                                  (30, 1.0, "rel_stop"),
                                                  (5000, 0.0, "stalled")])
def test_ascent_reports_why_it_stopped(caplog, iters, rel_stop, stop):
    # a budget of 3 iterations ends first; rel_stop = 1 ends after the first
    # accepted step; with rel_stop = 0 the 64-node ascent reaches its
    # optimum and then fails 50 iterations in a row
    with caplog.at_level(logging.DEBUG, logger="hyperconv"):
        res = maximize_radial(1.0, 64, 20.0, restarts=2, iters=iters, rel_stop=rel_stop)
    assert [row["stop"] for row in res.restarts] == [stop, stop]
    assert [row["stagnated"] for row in res.restarts] == [stop == "stalled"] * 2
    assert res.stagnated == (stop == "stalled")
    lines = [rec.getMessage() for rec in caplog.records if "ascent stopped" in rec.getMessage()]
    assert len(lines) == 2 and all(f"({stop})" in line for line in lines)


# ---- the power ascent, its L-BFGS-B reference and the extremal study ----

def test_ascent_reaches_the_search_target():
    res = maximize_radial(1.0, 400, 40.0, restarts=1, iters=300)
    assert res.q_star >= 6.44656


def test_refined_value_extrapolates_at_the_grids_own_ratio():
    # 400 and 800 nodes on one span: delta ratio 799/399, not 2 (which reads
    # 6.4442679); the 200/400/800 study's q_inf is 6.4442987
    res = maximize_radial(1.0, 400, 40.0, restarts=1, iters=300)
    assert abs(res.q_refined - 6.4442698) <= 1e-7


def test_search_returns_one_q_star_for_every_mass():
    # Q is invariant under s -> lambda s with r_max -> lambda r_max, and the
    # grids in u coincide; a cold start on the 600-node grid stops by rel_stop
    # at s = 10 after 9 gradients, 4.3e-8 below the other masses
    q = [maximize_radial(s, 600, 40.0 * s, restarts=1).q_star
         for s in (0.25, 0.5, 1.0, 2.0, 4.0, 10.0)]
    assert max(q) - min(q) <= 1e-10 * min(q)


def test_ascent_returns_a_normalized_nonnegative_profile():
    eng = SliceEngine(1.0, 120, psi(20.0, 1.0))
    F0 = eng.trial_values(0.5) * np.cos(0.3 * eng.u)  # signed start, clipped at 0
    F, trace, stop, evaluations = extremizer._ascend(eng, F0, 25, 0.0)
    assert np.all(F >= 0.0)
    assert abs(eng.norm_sq(F) - 1.0) <= 1e-12
    assert 1 <= len(trace) and len(trace) - 1 <= 25
    assert all(b > a for a, b in zip(trace, trace[1:]))
    np.testing.assert_allclose(eng.q_ratio(F), trace[-1], rtol=1e-12)
    assert evaluations >= len(trace) - 1
    assert stop in ("iters", "stalled")


def test_ascent_names_the_node_of_a_nan_gradient(monkeypatch):
    original = SliceEngine.q_gradient

    def q_gradient(self, F):
        q, grad = original(self, F)
        grad[17] = np.nan
        return q, grad

    monkeypatch.setattr(SliceEngine, "q_gradient", q_gradient)
    eng = SliceEngine(1.0, 64, psi(20.0, 1.0))
    with pytest.raises(extremizer.GradientNaNError) as exc:
        extremizer._ascend(eng, eng.trial_values(0.5), 10, 1e-9)
    assert exc.value.indices == [17]
    assert "[17]" in str(exc.value)


def test_ascent_without_a_usable_mix_is_the_plain_power_map(monkeypatch):
    # a least-squares solve that returns NaN leaves a non-finite mix, which
    # the ascent must skip for the plain image without evaluating it
    eng = SliceEngine(1.0, 120, psi(20.0, 1.0))
    F = eng.trial_values(0.5)
    F = F / np.sqrt(eng.norm_sq(F))
    q, grad = eng.q_gradient(F)
    plain = [q]
    for _ in range(8):
        G = np.maximum(grad / eng.den_weights + 4.0 * q * F, 0.0)
        F = G / np.sqrt(eng.norm_sq(G))
        q, grad = eng.q_gradient(F)
        plain.append(q)
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda a, b, rcond=None: (np.full(a.shape[1], np.nan),))
    _, trace, stop, evaluations = extremizer._ascend(eng, eng.trial_values(0.5), 8, 0.0)
    assert stop == "iters" and evaluations == 9
    np.testing.assert_allclose(trace, plain, rtol=1e-14)
    assert all(b > a for a, b in zip(trace, trace[1:]))


SEARCH_CASES = [(1.0, 400, 40.0), (3.0, 400, 120.0), (0.5, 600, 20.0)]


@pytest.mark.parametrize("s, n, r_max", SEARCH_CASES)
def test_ascent_reaches_the_lbfgsb_optimum(s, n, r_max):
    # scipy's bound-constrained quasi-Newton method is the reference here only
    from scipy.optimize import minimize

    eng = SliceEngine(s, n, psi(r_max, s))
    F0 = eng.trial_values(trial_family_scan(eng)[0])
    F, trace, stop, _ = extremizer._ascend(eng, F0, 2000, 1e-12)
    assert stop == "rel_stop"

    def neg_q(x):
        q, grad = eng.q_gradient(x)
        return -q, -grad

    res = minimize(neg_q, F0 / np.sqrt(eng.norm_sq(F0)), jac=True, method="L-BFGS-B",
                   bounds=[(0.0, None)] * n,
                   options={"maxiter": 2000, "maxcor": 20, "ftol": 1e-15, "gtol": 1e-12})
    G = res.x / np.sqrt(eng.norm_sq(res.x))
    np.testing.assert_allclose(trace[-1], eng.q_ratio(G), rtol=1e-12)
    assert np.sqrt(eng.norm_sq(F - G)) <= 1e-6
    # Euler-Lagrange residual at ||F||_w = 1: grad N = 4 N w F
    num, grad = eng.numerator_gradient(F)
    fixed = 4.0 * num * F
    assert np.max(np.abs(grad / eng.den_weights - fixed)) / np.max(fixed) <= 1e-7


@pytest.mark.parametrize("s, n, r_max", SEARCH_CASES)
def test_every_start_reaches_one_optimum(s, n, r_max):
    res = maximize_radial(s, n, r_max, restarts=7, iters=2000, rel_stop=1e-12)
    q = [row["q"] for row in res.restarts]
    assert len(q) == 7 and max(q) - min(q) <= 1e-9


def test_extremal_study_converges_at_order_two():
    report = extremizer.extremal_study(1.0, 40.0, [200, 400, 800])
    assert abs(report["q_inf"] - 6.444299) <= 1e-5
    assert all(1.8 <= p <= 2.2 for p in report["observed_orders"])
    q = report["q_star"]
    assert all(b < a for a, b in zip(q, q[1:]))
    assert report["error_bar"] > 0.0
    assert report["margin"] > 0.0
    np.testing.assert_allclose(report["margin"], report["q_inf"] - CONE_Q, rtol=1e-12)
    assert [row["n"] for row in report["rows"]] == [200, 400, 800]
    assert all(row["wall_s"] > 0.0 for row in report["rows"])
    # the truncation run keeps the first grid's spacing at about twice r_max
    trunc = report["truncation"]
    assert trunc["delta"] == report["rows"][0]["delta"]
    assert abs(trunc["r_max"] / 80.0 - 1.0) < 1e-2


@pytest.mark.parametrize("n_list, name", [([200, 400], "n_list"),
                                          ([200, 400, 400], "n_list"),
                                          ([400, 200, 800], "n_list"),
                                          ([32, 64, 128], r"n_list\[0\]"),
                                          ([200, 400.0, 800], r"n_list\[1\]"),
                                          ([200, True, 800], r"n_list\[1\]")])
def test_extremal_study_rejects_bad_grid_sizes(n_list, name):
    with pytest.raises(ValueError, match=name):
        extremizer.extremal_study(1.0, 40.0, n_list)


@pytest.mark.parametrize("r_max", [0.5, float("nan"), float("inf")])
def test_extremal_study_rejects_bad_r_max(r_max):
    with pytest.raises(ValueError, match="r_max"):
        extremizer.extremal_study(1.0, r_max, [200, 400, 800])


def test_sheet_pair_l2_norm_squares_the_interpolant():
    f = shell_indicator(1.0, 2.0, 1.0, n=200)
    zero = RadialProfile(1.0, f.grid, np.zeros(f.grid.size))
    np.testing.assert_allclose(SheetPair(f, zero).l2_norm_sq(), lp_norm(f, 2.0) ** 2,
                               rtol=1e-7)
    x = np.linspace(-1.0, 1.0, f.grid.size)
    g = RadialProfile(1.0, f.grid, np.sin(5.0 * x) * (1.0 + x))
    pair = SheetPair(g, f)
    want = lp_norm(g, 2.0) ** 2 + lp_norm(f, 2.0) ** 2
    np.testing.assert_allclose(pair.l2_norm_sq(), want, rtol=1e-7)
    # full_q_ratio divides by the interpolants' norm
    grid = Conv2DField.template(8.0, -7.0, 7.0, 21, 31)
    _, br = full_q_ratio(pair, grid=grid)
    np.testing.assert_allclose(br["denominator_sq"], want ** 2, rtol=2e-7)


def reference_trial_family_scan(engine, a_grid=None):
    """The per-profile scan, one engine.q_ratio per decay rate (the oracle)."""
    if a_grid is None:
        a_grid = np.geomspace(0.05, 2.0, 40)
    table = [(float(a), float(engine.q_ratio(engine.trial_values(a)))) for a in a_grid]
    best = max(table, key=lambda t: t[1])
    return best[0], best[1], table


@settings(max_examples=30, deadline=None)
@given(n=st.integers(8, 700), s=st.floats(0.0, 10.0), u_max=st.floats(0.5, 20.0),
       a_grid=st.one_of(st.none(), st.lists(st.floats(0.01, 20.0), min_size=1, max_size=8)))
def test_trial_family_scan_matches_the_per_profile_scan(n, s, u_max, a_grid):
    eng = SliceEngine(s, n, u_max)
    a_star, q_best, table = trial_family_scan(eng, a_grid)
    ref_a, ref_q, ref_table = reference_trial_family_scan(eng, a_grid)
    assert [a for a, _ in table] == [a for a, _ in ref_table]
    q, ref = np.array([q for _, q in table]), np.array([q for _, q in ref_table])
    np.testing.assert_allclose(q, ref, rtol=1e-13, atol=0.0)
    assert q_best == q.max()
    if a_grid is None:
        assert a_star == ref_a
    else:  # drawn rates may lie ulps apart, so the best is unique only to rounding
        assert ref[[a for a, _ in table].index(a_star)] >= ref_q * (1.0 - 1e-13)


def test_maximize_radial_is_unchanged_by_the_one_pass_scan(monkeypatch):
    kwargs = dict(s=1.0, grid_size=600, r_max=40.0, restarts=1, iters=30)
    fast = maximize_radial(**kwargs)
    monkeypatch.setattr(extremizer, "trial_family_scan", reference_trial_family_scan)
    slow = maximize_radial(**kwargs)
    assert fast.trial_best_a == slow.trial_best_a
    assert fast.q_star == slow.q_star and fast.q_refined == slow.q_refined
    assert fast.trace == slow.trace
    np.testing.assert_allclose(fast.trial_best_q, slow.trial_best_q, rtol=1e-13)


@pytest.mark.parametrize("a_grid", [[float("nan")], [0.0], [-1.0], []])
def test_trial_family_scan_names_a_bad_a_grid(a_grid):
    with pytest.raises(ValueError, match="a_grid"):
        trial_family_scan(SliceEngine(1.0, 64, 10.0), a_grid)


# ---- shell-pair tables and the one-table radial search ----

def _capture_blocks(monkeypatch):
    blocks = []

    def kept(*args):
        for blk in row_blocks(*args):
            blocks.append(blk)
            yield blk
    monkeypatch.setattr(extremizer, "row_blocks", kept)
    return blocks


@pytest.mark.parametrize("i0_f, nf, i0_g, ng", [(3, 25, 5, 9), (12, 7, 0, 40), (4, 10, 0, 30)])
def test_shell_pair_rows_whose_padding_reaches_the_nodes(monkeypatch, i0_f, nf, i0_g, ng):
    # odd rows from j = 0 keep their empty window's pair on the nodes, and the
    # padding columns of narrow rows pair real nodes: the dense engine agrees
    blocks = _capture_blocks(monkeypatch)
    rng = np.random.default_rng(i0_f + nf + i0_g + ng)
    F, G = rng.uniform(0.2, 1.0, (2, max(nf, ng)))
    F, G = F[:nf], G[:ng]
    s, delta = 1.3, 0.04
    got = shell_pair_norm_sq(s, delta, i0_f, F, i0_g, G)
    origin = min(i0_f, i0_g)
    n = max(i0_f + nf, i0_g + ng) - origin
    on_nodes = [(b.lo >= 0) & (b.lo < n) & (b.hi >= 0) & (b.hi < n) for b in blocks]
    pad = [np.arange(b.a.shape[1])[None, :] > b.sat[:, None] for b in blocks]
    assert any(np.any(p & o) for p, o in zip(pad, on_nodes))
    assert any(np.any(o[b.empty, 0]) for b, o in zip(blocks, on_nodes))
    np.testing.assert_allclose(got, dense_pair_numerator(s, delta, i0_f, F, i0_g, G),
                               rtol=1e-12, atol=0)


def test_maximize_radial_holds_one_engine_at_a_time(monkeypatch):
    built, alive_at_build = [], []

    class Tracked(SliceEngine):
        def __init__(self, *args):
            alive_at_build.append([ref().n for ref in built if ref() is not None])
            super().__init__(*args)
            built.append(weakref.ref(self))
    monkeypatch.setattr(extremizer, "SliceEngine", Tracked)
    res = extremizer.maximize_radial(1.0, 64, r_max=20.0, restarts=2, iters=5)
    assert len(built) == 2 and alive_at_build == [[], []]
    assert res.profile.grid.size == 64


def test_maximize_radial_holds_one_table_at_a_time_with_a_coarse_grid(monkeypatch):
    # each time an engine builds or streams its table, no engine holds one
    sizes, built, holders = [], [], []

    class Tracked(SliceEngine):
        def __init__(self, *args):
            super().__init__(*args)
            sizes.append(self.n)
            built.append(weakref.ref(self))

        def _table_blocks(self, scratch=None):
            holders.append([e.n for e in (ref() for ref in built)
                            if e is not None and e._table is not None])
            return super()._table_blocks(scratch)
    monkeypatch.setattr(extremizer, "SliceEngine", Tracked)
    res = extremizer.maximize_radial(1.0, 256, r_max=20.0, restarts=2)
    assert sizes == [256, 64, 512]
    assert holders == [[], [], []]
    assert res.profile.grid.size == 256


@pytest.mark.parametrize("grid_size, coarse", [(64, False), (255, False), (256, True)])
def test_only_a_search_grid_of_256_nodes_or_more_starts_on_a_coarse_grid(grid_size, coarse):
    res = maximize_radial(1.0, grid_size, r_max=20.0, restarts=2)
    assert [row["coarse_evaluations"] > 0 for row in res.restarts] == [coarse, coarse]


def test_a_poor_coarse_optimum_falls_back_to_the_best_trial_start(monkeypatch):
    # the coarse phase returns a spike at one node, whose Q on the 256-node
    # grid is 0.32 against the trial family's 6.36
    real_ascend = extremizer._ascend

    def spiked(engine, F0, iters, rel_stop):
        if engine.n < 256:
            F = np.zeros(engine.n)
            F[20] = 1.0
            return F, [0.0], "iters", 1
        return real_ascend(engine, F0, iters, rel_stop)
    monkeypatch.setattr(extremizer, "_ascend", spiked)
    res = maximize_radial(1.0, 256, r_max=20.0, restarts=1)
    assert res.restarts[0]["coarse_evaluations"] == 1
    assert res.trace[0] >= res.trial_best_q * (1.0 - 1e-12)
    assert res.q_star >= res.trial_best_q


def test_dyadic_scan_slope_fits_separations_one_to_six():
    table, report = bilinear_dyadic_scan(1.0, k_max=4, nodes_per_shell=16)
    seps = np.abs(np.subtract.outer(np.arange(5), np.arange(5)))
    keep = (seps >= 1) & (seps <= 6)
    slope, _ = np.polyfit(seps[keep], np.log2(table[keep]), 1)
    np.testing.assert_allclose(report["slope"], slope, rtol=1e-9)
