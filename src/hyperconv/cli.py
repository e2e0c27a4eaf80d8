"""The ``hyperconv`` console script: one JSON run record per command.

    hyperconv maximize --s 1 --grid-size 400 --r-max 40 --restarts 1 \\
        --iters 2000 --seed 24301
    hyperconv scan --s 1 --k-max 6 --profile-kind bump --nodes-per-shell 48
    hyperconv study --s 1 --r-max 40 --n 400,800,1600 --n 3200
    hyperconv q --a 0.3 --s 1 --r-max 40 --n 500 --grid-n 1000
    hyperconv field --a 1 --s 1 --r-max 20 --n 400 --n-rho 161 --n-tau 243

Every record holds the command, its inputs (the parsed arguments), the
package versions and the total wall time.  ``maximize`` runs
``extremizer.maximize_radial``, whose ascent is the safeguarded
Euler-Lagrange power map with Anderson mixing, and adds the seed,
``q_star``, ``q_refined``, the best exponential trial value and one row per
restart with its Q evaluations (one gradient each) on the search grid, its
``coarse_evaluations`` on the grid four times coarser that the search
starts from (0 below 256 nodes, where there is none) and the reason its
search-grid ascent stopped: "iters" (the step budget ran out), "rel_stop"
(an accepted step gained less than rel_stop) or "stalled".  ``scan`` runs
``extremizer.bilinear_dyadic_scan`` and adds the shell-pair table as
nested lists and the report (slope, intercept, constant, ``diag_max``,
``refined``).  ``study`` runs
``extremizer.extremal_study`` and adds its report: q*(n), the observed
orders, the Richardson limits, ``q_inf``, ``margin``, ``error_bar``, the
truncation run and one row per n with its wall time.  ``q`` runs
``extremizer.q_ratio`` on ``profiles.trial_profile(a, s, r_max, n)`` with
``grid_n`` engine nodes (null: the default) and adds ``q`` and the report
(grid size, error estimate, tail mass fraction, sharp-constant bound).
``field`` runs ``extremizer.full_q_ratio`` on the even pair (f, f) with
f = ``profiles.trial_profile(a, s, r_max, n)``, sampled on
``extremizer.pair_template`` with ``n_rho`` x ``n_tau`` nodes, and adds
``qbar`` and the breakdown: numerator, squared denominator, the six
expansion terms, the expansion gap, the six-term floor, the kept terms and
the quadrature levels of the three sampled fields.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np
import scipy

from . import __version__
from .extremizer import (SheetPair, bilinear_dyadic_scan, extremal_study, full_q_ratio,
                         maximize_radial, pair_template, q_ratio)
from .geometry import check_count
from .profiles import trial_profile
from .quadrature import DEFAULT_SEED

STUDY_N = [400, 800, 1600, 3200]


def _maximize(inputs):
    res = maximize_radial(**inputs)
    return {
        "seed": inputs["seed"],
        "q_star": res.q_star,
        "q_refined": res.q_refined,
        "trial_best_q": res.trial_best_q,
        "restarts": res.restarts,
    }


def _scan(inputs):
    table, report = bilinear_dyadic_scan(**inputs)
    return {"table": table.tolist(), "report": report}


def _study(inputs):
    # flattened in place, so the record lists the sizes the study ran
    inputs["n_list"] = [n for part in inputs["n_list"] or [STUDY_N] for n in part]
    return extremal_study(**inputs)


def _q(inputs):
    if inputs["grid_n"] is not None:
        check_count("grid_n", inputs["grid_n"], 16)
    profile = trial_profile(inputs["a"], inputs["s"], inputs["r_max"], inputs["n"])
    q, report = q_ratio(profile, n=inputs["grid_n"])
    return {"q": q, "report": report}


def _field(inputs):
    f = trial_profile(inputs["a"], inputs["s"], inputs["r_max"], inputs["n"])
    pair = SheetPair(f, f)
    grid = pair_template(pair, inputs["n_rho"], inputs["n_tau"])
    qbar, breakdown = full_q_ratio(pair, grid=grid)
    return {"qbar": qbar, "breakdown": breakdown}


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hyperconv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("maximize", help="radial extremizer search (maximize_radial)")
    p.set_defaults(run=_maximize)
    p.add_argument("--s", type=float, default=1.0, help="mass parameter s > 0")
    p.add_argument("--grid-size", type=int, default=400, help="engine grid nodes (>= 64)")
    p.add_argument("--r-max", type=float, default=40.0, help="truncation radius")
    p.add_argument("--restarts", type=int, default=1, help="number of ascent starts")
    p.add_argument("--iters", type=int, default=2000, help="steps per ascent")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed of the random starts")
    p = sub.add_parser("scan", help="dyadic shell-pair decay table (bilinear_dyadic_scan)")
    p.set_defaults(run=_scan)
    p.add_argument("--s", type=float, default=1.0, help="mass parameter s > 0")
    p.add_argument("--k-max", type=int, default=6, help="last dyadic shell (>= 4)")
    p.add_argument("--profile-kind", default="bump", help="shell profile: bump or indicator")
    p.add_argument("--nodes-per-shell", type=int, default=48,
                   help="grid nodes across the first shell (>= 8)")
    p = sub.add_parser("study", help="extrapolated extremal value q_inf (extremal_study)")
    p.set_defaults(run=_study)
    p.add_argument("--s", type=float, default=1.0, help="mass parameter s > 0")
    p.add_argument("--r-max", type=float, default=40.0, help="truncation radius")
    p.add_argument("--n", type=_int_list, action="append", dest="n_list",
                   help="grid sizes, comma-separated or repeated (default "
                        f"{','.join(map(str, STUDY_N))})")
    p = sub.add_parser("q", help="Q of one exponential trial profile (q_ratio)")
    p.set_defaults(run=_q)
    p.add_argument("--a", type=float, default=0.3, help="decay rate a > 0 of exp(-a u/2)")
    p.add_argument("--s", type=float, default=1.0, help="mass parameter s >= 0")
    p.add_argument("--r-max", type=float, default=40.0, help="truncation radius (> s)")
    p.add_argument("--n", type=int, default=400, help="profile nodes (>= 2)")
    p.add_argument("--grid-n", type=int, default=None,
                   help="engine grid nodes (>= 16; default max(256, 2 * profile nodes))")
    p = sub.add_parser("field", help="Qbar of the even exponential pair (full_q_ratio)")
    p.set_defaults(run=_field)
    p.add_argument("--a", type=float, default=1.0, help="decay rate a > 0 of exp(-a u/2)")
    p.add_argument("--s", type=float, default=1.0, help="mass parameter s >= 0")
    p.add_argument("--r-max", type=float, default=20.0, help="truncation radius (> s)")
    p.add_argument("--n", type=int, default=400, help="profile nodes (>= 2)")
    p.add_argument("--n-rho", type=int, default=161, help="template rho nodes (>= 2)")
    p.add_argument("--n-tau", type=int, default=243, help="template tau nodes (>= 2)")
    args = parser.parse_args(argv)
    inputs = {k: v for k, v in vars(args).items() if k not in ("command", "run")}
    started = time.perf_counter()
    try:
        result = args.run(inputs)
    except ValueError as exc:  # bad inputs, named by the library
        parser.error(str(exc))
    record = {
        "command": args.command,
        "inputs": inputs,
        "versions": {"hyperconv": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "wall_s": time.perf_counter() - started,
        **result,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
