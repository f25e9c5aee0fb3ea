"""Benchmark child process: runs one workload in a fresh interpreter.

Started by run.py with OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=1 and the
checkout's src/ on PYTHONPATH.  Modes:

    setup   import the library and run each call of the cycle once at the
            warm-up size (run.py times the whole process)
    verify  run the first cycle and print its estimates
    run     run the first cycle untimed (reference estimates), timed cycles
            for --seconds, the gates on the first cycles (a failed gate is
            re-checked once on fresh cycles) and the untimed extra gates;
            with --trace 1 the second half of the time runs under the tracer

The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np
import scipy

import carnot_coupling
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# every loop runs enough cycles for the gates' sample
MIN_CYCLES = workloads.GATE_CYCLES - 1


def _encode(results) -> list[dict]:
    """Estimates as exact strings: float.hex for numbers, text as is."""
    return [{k: (float(v).hex() if isinstance(v, float) else v) for k, v in r.values.items()}
            for r in results]


def run_cycle(wl, seed: int, cycle: int, tracer=None):
    results, walls = [], []
    t_cycle = time.perf_counter()
    for i, call in enumerate(wl.calls):
        est_seed = workloads.call_seed(seed, cycle, i)
        t = time.perf_counter()
        if tracer is None:
            results.append(call.run(est_seed, None))
        else:
            with tracer.span("call", call=call.name):
                results.append(call.run(est_seed, tracer))
        walls.append(time.perf_counter() - t)
    return results, walls, time.perf_counter() - t_cycle


def timed_loop(wl, seed: int, first_cycle: int, budget: float, tracer=None):
    """Closed loop of whole cycles until the next one would overrun `budget`.

    Returns the timings and the results of the first MIN_CYCLES cycles.
    """
    call_walls, call_se, cycle_walls, kept = [], [], [], []
    start = time.perf_counter()
    while True:
        results, walls, wall = run_cycle(wl, seed, first_cycle + len(cycle_walls), tracer)
        if len(kept) < MIN_CYCLES:
            kept.append(results)
        call_walls.append(walls)
        call_se.append([r.se for r in results])
        cycle_walls.append(wall)
        elapsed = time.perf_counter() - start
        if len(cycle_walls) >= MIN_CYCLES and elapsed + statistics.median(cycle_walls) > budget:
            break
    return {"call_walls": call_walls, "call_se": call_se, "cycle_walls": cycle_walls}, kept


def versions() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "carnot_coupling": carnot_coupling.__version__,
        "library_path": os.path.dirname(carnot_coupling.__file__),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=["setup", "verify", "run"], required=True)
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--spans", default=None, help="where to write the traced spans")
    args = p.parse_args(argv)

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.mode}-", dir=out_dir)
    try:
        wl = workloads.build(args.workload, scratch, args.workers, small=args.mode == "setup")
        # cycle 0 is untimed: it warms the process up, feeds the gates and is
        # the reference the verify process must repeat bit for bit
        results, _, _ = run_cycle(wl, args.seed, 0)
        if args.mode == "setup":
            print(json.dumps({"ok": True}))
            return 0
        baseline = _encode(results)
        if args.mode == "verify":
            print(json.dumps({"baseline": baseline}))
            return 0

        report = {
            "versions": versions(),
            "baseline": baseline,
            "samples_per_cycle": sum(c.samples for c in wl.calls),
            "calls": [c.name for c in wl.calls],
        }
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced, kept = timed_loop(wl, args.seed, 1, budget)
        report["untraced"] = untraced

        # gates: the untimed cycle and the first timed ones, pooled; a failure
        # is re-checked once on as many fresh, untimed cycles
        first = wl.gates([results] + kept)

        def rerun():
            return wl.gates([run_cycle(wl, args.seed, workloads.CONFIRM_CYCLE + j)[0]
                             for j in range(workloads.GATE_CYCLES)])

        report["gates_first_sample"] = first
        report["gates"] = workloads.confirm_gates(first, rerun) + wl.untimed_gates(args.seed)
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                traced, _ = timed_loop(wl, args.seed, 1 + len(untraced["cycle_walls"]), budget,
                                       tracer)
            report["traced"] = traced
            report["per_layer"] = tracing.layer_metrics(tracer.spans, len(traced["cycle_walls"]))
            if args.spans:
                tracer.dump(args.spans)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
