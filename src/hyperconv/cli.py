"""The ``hyperconv`` console script: one JSON run record per command.

    hyperconv maximize --s 1 --grid-size 400 --r-max 40 --restarts 5 \\
        --iters 2000 --seed 24301

``maximize`` runs ``extremizer.maximize_radial`` and prints its inputs, the
package versions, the seed, the total wall time, ``q_star``, ``q_refined``,
the best exponential trial value and one row per restart with the reason
its ascent stopped.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np
import scipy

from . import __version__
from .extremizer import maximize_radial
from .quadrature import DEFAULT_SEED


def _maximize(args) -> dict:
    inputs = {"s": args.s, "grid_size": args.grid_size, "r_max": args.r_max,
              "restarts": args.restarts, "iters": args.iters, "seed": args.seed}
    started = time.perf_counter()
    res = maximize_radial(**inputs)
    return {
        "command": "maximize",
        "inputs": inputs,
        "versions": {"hyperconv": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "seed": args.seed,
        "wall_s": time.perf_counter() - started,
        "q_star": res.q_star,
        "q_refined": res.q_refined,
        "trial_best_q": res.trial_best_q,
        "restarts": res.restarts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hyperconv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("maximize", help="radial extremizer search (maximize_radial)")
    p.add_argument("--s", type=float, default=1.0, help="mass parameter s >= 0")
    p.add_argument("--grid-size", type=int, default=400, help="engine grid nodes (>= 64)")
    p.add_argument("--r-max", type=float, default=40.0, help="truncation radius")
    p.add_argument("--restarts", type=int, default=5, help="number of ascent starts")
    p.add_argument("--iters", type=int, default=2000, help="iterations per ascent")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed of the random starts")
    args = parser.parse_args(argv)
    try:
        record = _maximize(args)
    except ValueError as exc:  # bad inputs, named by the library
        parser.error(str(exc))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
