import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hyperconv import quadrature
from hyperconv.geometry import phi, psi
from hyperconv.norms import lp_norm
from hyperconv.profiles import RadialProfile
from hyperconv.quadrature import (QuadratureError, QuadratureSpec, gauss_legendre_nodes,
                                  integrate, integrate_exp_decay, integrate_pieces,
                                  simpson_adaptive, split_exp_tail)


def test_simpson_polynomial_exact():
    res = simpson_adaptive(lambda x: x ** 2, 0.0, 1.0)
    np.testing.assert_allclose(res.value, 1.0 / 3.0, rtol=1e-12)
    assert res.converged


def test_dual_rule_agreement():
    f = lambda x: np.exp(-x) * np.sqrt(x * x + 1.0)
    a = integrate(f, 0.0, 30.0, QuadratureSpec(rule="gk", rel_tol=1e-12))
    b = integrate(f, 0.0, 30.0, QuadratureSpec(rule="simpson", rel_tol=1e-12))
    np.testing.assert_allclose(a.value, b.value, rtol=1e-10)


def test_exp_tail_integral():
    for a in [0.1, 1.0, 3.0]:
        res = integrate_exp_decay(lambda t, a=a: np.exp(-a * t) * t ** 3,
                                  a, QuadratureSpec(rel_tol=1e-11))
        np.testing.assert_allclose(res.value, 6.0 / a ** 4, rtol=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_gk_budget_covers_every_breakpoint_piece(seed):
    # |f|^p phi of a signed 80-200-node profile, with the node times and the
    # zero crossings as points: 200 + len(points) subintervals for the whole
    # range used to run out before rel_tol 1e-12 on most of these
    rng = np.random.default_rng(seed)
    n = int(rng.integers(80, 201))
    grid = np.concatenate([[1.0], np.sort(rng.uniform(1.0, 6.0, n - 2)), [6.0]])
    v = rng.standard_normal(n)
    p = float(rng.uniform(1.0, 3.0))
    f = RadialProfile(1.0, grid, v)
    i = np.flatnonzero(v[:-1] * v[1:] < 0)
    cross = grid[i] - v[i] * (grid[i + 1] - grid[i]) / (v[i + 1] - v[i])
    pts = psi(np.sort(np.concatenate([grid, cross])), 1.0)
    spec = QuadratureSpec(rel_tol=1e-12)
    res = integrate(lambda u: np.abs(f(phi(u, 1.0))) ** p * phi(u, 1.0), 0.0, pts[-1], spec,
                    points=pts)
    np.testing.assert_allclose(4.0 * np.pi * res.value, lp_norm(f, p, spec) ** p, rtol=1e-12)


def test_split_edges_sorted_positive():
    edges = split_exp_tail(0.05)
    assert edges == sorted(edges)
    assert edges[0] == 0.0


def test_spec_validation_and_profiles():
    spec = QuadratureSpec()
    assert spec.rel_tol == 1e-8
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)


def test_gauss_legendre_weights_sum():
    x, w = gauss_legendre_nodes(-2.0, 3.0, 12)
    np.testing.assert_allclose(w.sum(), 5.0, rtol=1e-14)
    np.testing.assert_allclose((w * x ** 5).sum(), (3.0 ** 6 - (-2.0) ** 6) / 6.0, rtol=1e-12)


@pytest.mark.parametrize("field, value", [
    ("rel_tol", np.nan), ("rel_tol", np.inf), ("rel_tol", -1e-8),
    ("abs_tol", np.nan), ("abs_tol", -1.0),
    ("max_depth", -3), ("max_depth", 2.5), ("max_depth", True)])
def test_spec_rejects_bad_fields_by_name(field, value):
    with pytest.raises(ValueError, match=field):
        QuadratureSpec(**{field: value})


@pytest.mark.parametrize("rule", ["Simpson", "GK", "trapezoid", ""])
def test_spec_rejects_an_unknown_rule(rule):
    with pytest.raises(ValueError, match=r"rule must be one of \('gk', 'simpson'\)"):
        QuadratureSpec(rule=rule)


def test_spec_accepts_zero_abs_tol_and_depth():
    spec = QuadratureSpec(abs_tol=0.0, max_depth=0)
    assert spec.abs_tol == 0.0 and spec.max_depth == 0


def test_integrate_pieces_sums_pieces_and_skips_empty_ones():
    spec = QuadratureSpec(rel_tol=1e-12)
    res = integrate_pieces(np.cos, [0.0, 1.0, 1.0, 0.5, 2.0], spec)
    want = sum(integrate(np.cos, lo, hi, spec).value for lo, hi in [(0.0, 1.0), (0.5, 2.0)])
    assert res.value == want and res.converged
    assert 0.0 < res.error <= 1e-12 * 2


@pytest.mark.parametrize("rule", ["gk", "simpson"])
def test_integrate_pieces_names_the_piece_that_fails(rule):
    spec = QuadratureSpec(rule=rule, rel_tol=1e-12, max_depth=4)
    with pytest.raises(QuadratureError, match=r"\[1\.0, 2\.0\]"):
        integrate_pieces(lambda x: np.where(x > 1.0, np.sin(1e4 * x), x),
                         [0.0, 1.0, 2.0], spec)


def test_simpson_reports_its_last_update_when_it_does_not_converge():
    # a result that missed its tolerance carries the last update tested,
    # the same estimate a converged result carries, never 0
    f = lambda x: np.sin(1e4 * x)
    res = simpson_adaptive(f, 0, 1, 1e-12, 1e-14, 3)
    assert not res.converged
    coarser = simpson_adaptive(f, 0, 1, 1e-12, 1e-14, 2)
    assert res.error == abs(res.value - coarser.value) / 15.0 > 0.0
    # depth 1 compares no two rules it may accept
    assert simpson_adaptive(f, 0, 1, 1e-12, 1e-14, 1).error == np.inf


def test_integrate_names_the_nonzero_error_of_a_missed_tolerance():
    spec = QuadratureSpec(rule="simpson", rel_tol=1e-12, max_depth=3)
    with pytest.raises(QuadratureError, match=r"err=") as info:
        integrate(lambda x: np.sin(1e4 * x), 0.0, 1.0, spec)
    err = float(str(info.value).rsplit("err=", 1)[1].rstrip(")"))
    assert err > 0.0


def test_only_the_quadrature_module_imports_scipy_integrate():
    # every 1-D integral goes through quadrature.integrate, so no module
    # keeps a private piece loop on scipy's quad
    importers = set()
    for path in Path(quadrature.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            if any(n == "scipy.integrate" or n.startswith("scipy.integrate.") for n in names):
                importers.add(path.name)
    assert importers == {"quadrature.py"}


_IMPORT_PROBE = """
import importlib, pkgutil, sys
import numpy as np
import hyperconv
from hyperconv import quadrature
from hyperconv.extremizer import (SheetPair, bilinear_dyadic_scan, full_q_ratio,
                                  maximize_radial)
from hyperconv.fields import Conv2DField
from hyperconv.profiles import shell_indicator

for mod in pkgutil.walk_packages(hyperconv.__path__, "hyperconv."):
    importlib.import_module(mod.name)
f = shell_indicator(1.2, 2.4, 1.0, n=40, smooth=True)
full_q_ratio(SheetPair(f, f), grid=Conv2DField.template(7.0, -6.0, 6.0, 31, 45))
bilinear_dyadic_scan(1.0, k_max=4)
heavy = ("integrate", "optimize", "special", "linalg", "sparse")
print(sorted(m for m in sys.modules if m.startswith(tuple(f"scipy.{h}" for h in heavy))))
maximize_radial(1.0, 64, restarts=1, iters=3)
print(quadrature.integrate(np.exp, 0.0, 1.0, quadrature.QuadratureSpec(rule="gk")).value)
print(sorted(m for m in sys.modules if m.partition(".")[0] in ("mpmath", "sympy")))
"""


def test_importing_the_package_loads_no_scipy_submodule():
    # scipy.integrate and scipy.optimize load on the first gk integral and the
    # first ascent; every module import and the field, engine and dyadic
    # routes run without them, in a fresh interpreter
    src = Path(quadrature.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out[0] == "[]"
    np.testing.assert_allclose(float(out[1]), np.e - 1.0, rtol=1e-12)
    assert out[2] == "[]"  # after every route: no undeclared mpmath or sympy


def test_importing_the_package_loads_no_numpy_polynomial():
    # the Gauss rules that quadrature and lorentz build call leggauss inside
    # functions, and convolution keeps its 8-point rule as literals
    probe = ("import importlib, pkgutil, sys\n"
             "import hyperconv\n"
             "for mod in pkgutil.walk_packages(hyperconv.__path__, 'hyperconv.'):\n"
             "    importlib.import_module(mod.name)\n"
             "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n")
    src = Path(quadrature.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out == ["[]"]
