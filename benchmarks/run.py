"""Run one hyperconv benchmark workload and print its metrics as JSON.

    python3 benchmarks/run.py --workload radial_ascent --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Workers (``worker.py``) run one at a time in fresh processes with
BLAS threads pinned to one. With ``--trace 0`` ``SETUP_SAMPLES - 1``
set-up-only workers come first; then one solve worker repeats the timed solve
for what is left of ``--seconds`` (a solve that would end later is not
started, but there is always one). The result carries the end-to-end
metrics: ``solve_s`` is the median over the solves after the first (a
warm-up, gated but not timed unless it is the only one) of their wall times
corrected for the host's speed drift (see ``calibration.py``), ``setup_s``
the median over the workers, corrected by the run's median reference time. With ``--trace 1`` the solves alternate traced
and untraced, and the result carries the per-layer metrics, medians over the
traced solves, plus ``trace.overhead_s`` (the traced minus the untraced
median wall time), ``workload.wall_solve_s`` (the untraced median wall time)
and ``calibration.reference_s`` (the median reference time).

The last line of standard output is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
record of the run: versions, processor count, commit, thread pinning and
every worker's record. Without a package to import, the run exits with code
2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINNED_THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                          "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0   # the whole run ends within 180 s


class BenchError(RuntimeError):
    pass


def git_commit(root: Path):
    """Commit of a git checkout, read from .git without running git; else None."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def processor_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Runner:
    """Starts worker processes one at a time within the run's time limit."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        path = os.environ.get("PYTHONPATH")
        src = str(ROOT / "src")
        self.env = dict(os.environ, **PINNED_THREADS,
                        PYTHONPATH=src + (os.pathsep + path if path else ""))

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def worker(self, mode: str, trace: bool = False, budget: float = 0.0) -> dict:
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--trace", str(int(trace)),
               "--budget", repr(budget)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=max(TIME_LIMIT_S - self.elapsed(), 1.0))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {mode} did not finish within the run's time limit") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker {mode} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(lines[-1])


def medians(records, key: str) -> dict:
    names = sorted({name for r in records for name in r[key]})
    return {name: median(r[key][name] for r in records if name in r[key])
            for name in names}


def measure(runner: Runner, seconds: float, trace: bool):
    """({metric: value}, workers) of one run; workers hold every worker's record.

    One solve worker repeats the solve for what is left of ``seconds``. With
    ``--trace 0`` it follows ``SETUP_SAMPLES - 1`` set-up-only workers, so that
    ``setup_s`` is a median of ``SETUP_SAMPLES`` fresh imports.
    """
    workers = [] if trace else [runner.worker("setup")
                                for _ in range(SETUP_SAMPLES - 1)]
    solver = runner.worker("solve", trace, budget=seconds - runner.elapsed())
    workers.append(solver)
    plain = [r for r in solver["solves"] if not r["traced"]]
    traced = [r for r in solver["solves"] if r["traced"]]
    if trace:
        values = medians(traced, "layers")
        if plain and traced:
            values["trace.overhead_s"] = (median(r["solve_s"] for r in traced)
                                          - median(r["solve_s"] for r in plain))
            values["workload.wall_solve_s"] = median(r["solve_s"] for r in plain)
            values["calibration.reference_s"] = median(r["reference_s"] for r in plain)
        return values, workers
    values = {"setup_s": median(w["setup_s"] for w in workers)}
    if plain:
        # set-up, mostly imports, follows the host's speed like the solves do
        values["setup_s"] *= solver["nominal_s"] / median(r["reference_s"] for r in plain)
        timed = plain[1:] or plain  # the first solve is the warm-up when others follow
        values["solve_s"] = median(r["corrected_s"] for r in timed)
        values["peak_rss_mb"] = solver["peak_rss_mb"]
    values.update(solver["metrics"])
    return values, workers


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hyperconv" / "__init__.py").is_file():
        print(f"no hyperconv package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        values, workers = measure(runner, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(w.get("attempted", 0) for w in workers)
    failed = sum(w.get("failed", 0) for w in workers)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "wall_s": runner.elapsed(),
        "versions": workers[0]["versions"], "nproc": processor_count(),
        "commit": git_commit(ROOT), "thread_pinning": PINNED_THREADS,
        "bytes": "engine.table_bytes is computed from ndarray.nbytes, not measured",
        "workers": workers,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
