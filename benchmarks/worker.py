"""One benchmark worker in a fresh process; prints one JSON line.

    PYTHONPATH=src python3 benchmarks/worker.py --workload NAME --seed N \
        --mode solve|setup --trace 0|1 --budget SECONDS

``setup`` mode imports the package, builds the inputs and stops. ``solve``
mode goes on to the timed solve, reads the process's peak resident memory,
and then runs the oracle checks, which therefore cannot inflate it. It then
repeats the same solve while ``--budget`` seconds (counted from the start of
the process) allow another one, and checks that every repeat returns exactly
the first, gate-checked output. The library keeps no state between calls, so
each repeat is a whole solve; repeating it in one process spends the run's
time on solves rather than on imports and oracles. Calibration kernels
(``calibration.py``) run right before and after every solve, so that the
solve's time can be corrected for the host's speed drift. With ``--trace 1``
the solves alternate traced and untraced, the first one traced.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import resource
import sys
import time
import traceback
from collections import Counter

import numpy as np


def main(argv=None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("solve", "setup"), default="solve")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--budget", type=float, default=0.0)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import scipy

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    out = {"setup_s": time.perf_counter() - t0,
           "versions": {"python": platform.python_version(),
                        "numpy": np.__version__, "scipy": scipy.__version__}}
    if args.mode == "solve":
        out.update(sample(workload, inputs, bool(args.trace),
                          deadline=started + args.budget))
    print(json.dumps(out))
    return 0


def identical(a, b) -> bool:
    """Exact equality of two solve outputs (arrays, dataclasses, containers)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.shape == b.shape and np.array_equal(a, b, equal_nan=True))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and identical(vars(a), vars(b))
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(identical(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(identical(x, y) for x, y in zip(a, b)))
    if isinstance(a, float) and isinstance(b, float) and a != a and b != b:
        return True
    return a == b


def timed_solve(workload, inputs, traced: bool):
    """(output, record) of one solve; a traced one also records its layers."""
    import tracing
    if not traced:
        t = time.perf_counter()
        output = workload.solve(inputs)
        return output, {"traced": False, "solve_s": time.perf_counter() - t}
    tracer = tracing.Tracer()
    solve = tracer.wrap("workload.solve", workload.solve)
    with tracing.traced(tracer):
        t = time.perf_counter()
        output = solve(inputs)
        solve_s = time.perf_counter() - t
    return output, {"traced": True, "solve_s": solve_s,
                    "layers": tracing.layer_metrics(tracer),
                    "span_counts": dict(Counter(sp.name for sp in tracer.spans))}


def sample(workload, inputs, trace: bool, deadline: float = 0.0) -> dict:
    """Timed solves until the deadline, gates on the first; errors count as failures.

    The first solve, its gates and every repeat are operations; a repeat
    fails when its output differs from the first. With ``trace`` there are
    at least two solves, so that a traced and an untraced one can be compared.
    The workload's calibration kernels run after every solve and before the
    first repeat: a solve's record holds its wall time ``solve_s``, the mean
    kernel time around it ``reference_s`` (only the time after it, for the
    first solve) and the drift-corrected ``corrected_s``.
    """
    import calibration
    nominal = calibration.nominal_time(workload.reference)
    rec = {"error": None, "gates": {}, "metrics": {}, "solves": [], "nominal_s": nominal}
    attempted = 1 + len(workload.gates)
    failed = 0

    def solve_once(traced: bool, before):
        """One solve and the kernels after it; before is the kernel time just ahead."""
        begun = time.perf_counter()
        output, solve_rec = timed_solve(workload, inputs, traced)
        solve_rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        after = calibration.reference_time(workload.reference)
        solve_rec["reference_s"] = after if before is None else 0.5 * (before + after)
        solve_rec["corrected_s"] = solve_rec["solve_s"] * nominal / solve_rec["reference_s"]
        solve_rec["cost_s"] = time.perf_counter() - begun
        rec["solves"].append(solve_rec)
        return output, after

    try:
        # no kernel runs ahead of the first solve, so its peak memory is its own
        first, _ = solve_once(trace, None)
        rec["peak_rss_mb"] = rec["solves"][0]["peak_rss_mb"]
        metrics, gates = workload.check(inputs, first)
        rec["metrics"] = {k: float(v) for k, v in metrics.items()}
        rec["gates"] = {k: bool(v) for k, v in gates.items()}
        failed = sum(not ok for ok in rec["gates"].values())
        after = calibration.reference_time(workload.reference)
        while (trace and len(rec["solves"]) < 2
               or time.perf_counter() + rec["solves"][-1]["cost_s"] <= deadline):
            attempted += 1
            output, after = solve_once(trace and len(rec["solves"]) % 2 == 0, after)
            rec["solves"][-1]["identical"] = identical(output, first)
            failed += not rec["solves"][-1]["identical"]
    except Exception:  # any library error is a failed operation, not a crash
        rec["error"] = traceback.format_exc(limit=8)
        failed = attempted if not rec["gates"] else failed + 1
    rec["attempted"] = attempted
    rec["failed"] = failed
    return rec


if __name__ == "__main__":
    sys.exit(main())
