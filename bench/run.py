"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The library is imported from the
checkout's src/ in fresh child processes (bench/worker.py), each started with
OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1; this process sets neither for
itself.  One run makes:

1. SETUP_REPS setup probes (untraced runs only): a fresh interpreter imports
   carnot_coupling and makes one warm-up call per estimator; setup_s is the
   median wall time.
2. The workload process: the first cycle untimed (the reference estimates),
   then timed cycles for --seconds, then the correctness gates.  With
   --trace 1 the second half of the time runs traced, and the per-layer
   metrics come from it.
3. A verify process under another PYTHONHASHSEED, which repeats the first
   cycle; its estimates must match bit for bit.

Prints every metric by name and unit, an environment line, and as its last
line the JSON result {"correct", "attempted", "failed", "metrics"}.  Exits 2
without a result when the checkout has no library to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "carnot_coupling")
OUT_DIR = os.path.join(ROOT, ".bench_out")

NAMES = ("weighted-transfer", "coupling-failure", "long-path-gradient")
SETUP_REPS = 5
DEADLINE_S = 170.0  # a whole run, every child included, ends within this
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
TARGET_SE = 1e-3

END_TO_END_UNITS = {
    "samples_per_s": "1/s",
    "time_to_se_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "mc.batches": "count",
    "mc.batch_ms_p50": "ms",
    "mc.batch_ms_p90": "ms",
    "mc.rng_s": "s",
    "mc.rng_normals": "count",
    "mc.rng_ns_per_normal": "ns",
    "sylvester.calls": "count",
    "sylvester.rows": "count",
    "sylvester.s": "s",
    "sylvester.us_per_row": "us",
    "sylvester.cond_over_limit": "count",
    "legendre.endpoint_calls": "count",
    "legendre.endpoint_s": "s",
    "legendre.area_s": "s",
    "legendre.terms": "count",
    "legendre.bytes_computed": "B",
    "legendre.ops_per_byte": "flop/B",
    "gaussian_coupling.rows": "count",
    "gaussian_coupling.s": "s",
    "gaussian_coupling.met_frac": "fraction",
    "catalog.f_calls": "count",
    "catalog.f_s": "s",
    "girsanov.self_s": "s",
    "coupling.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.cycle_s": "s",
    "checks_failed_frac": "fraction",
    "estimate_mismatches": "count",
}


class BenchError(RuntimeError):
    pass


def _child_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _worker(mode: str, args, deadline: float, hash_seed: int = 0,
            extra=()) -> tuple[dict, float]:
    """Run bench/worker.py in `mode`; its JSON result and its wall time."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} process")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--workers", str(args.workers), *extra]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(hash_seed), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process exceeded {timeout:.0f} s") from exc
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed no result")
    return json.loads(lines[-1]), wall


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    """Digest of the library sources, which identifies the code in a checkout
    that is not a git repository."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def count_mismatches(baseline: list[dict], other: list[dict]) -> tuple[int, int]:
    """(differing, compared) estimate counts; a missing key counts as differing."""
    differing = compared = 0
    for a, b in zip(baseline, other):
        for key in a.keys() | b.keys():
            compared += 1
            differing += a.get(key) != b.get(key)
    return differing, compared


def _median(xs) -> float:
    return float(statistics.median(xs))


def end_to_end(report: dict, setup_walls: list[float]) -> dict:
    """samples_per_s, time_to_se_s, setup_s and peak_rss_mb from a run report.

    Timings are medians over timed cycles, so one cycle slowed by the machine
    does not move the result.  time_to_se_s scales each call i to a standard
    error of TARGET_SE: sum_i t_i (se_i / TARGET_SE)^2, with t_i the median
    call time and se_i^2 the median over cycles of the squared standard
    error.  The median, not the mean: a Girsanov weight is heavy-tailed, and
    one large weight in one cycle can multiply that cycle's se^2 by ten.
    """
    loop = report["untraced"]
    t = [_median(col) for col in zip(*loop["call_walls"])]
    se2 = [_median(x * x for x in col) for col in zip(*loop["call_se"])]
    return {
        "samples_per_s": report["samples_per_cycle"] / _median(loop["cycle_walls"]),
        "time_to_se_s": sum(ti * s2 / TARGET_SE ** 2 for ti, s2 in zip(t, se2)),
        "setup_s": _median(setup_walls),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="carnot-coupling benchmark (one workload run)")
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no library sources under {os.path.relpath(PACKAGE, ROOT)}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    # the worker pool never exceeds the cores; long-path-gradient is the
    # single-threaded baseline
    args.workers = 1 if args.workload == "long-path-gradient" else min(2, nproc or 1)

    env = {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "loadavg_start": os.getloadavg(),
        "child_env_set": THREAD_ENV,
        "workers": args.workers,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(OUT_DIR, f"spans-{tag}.json")
    deadline = time.monotonic() + DEADLINE_S
    try:
        # setup_s is an end-to-end metric; a traced run reports none
        setup_walls = [] if args.trace else [
            _worker("setup", args, deadline)[1] for _ in range(SETUP_REPS)]
        extra = ["--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans", spans_path]
        report, _ = _worker("run", args, deadline, hash_seed=0, extra=extra)
        verify, _ = _worker("verify", args, deadline, hash_seed=1)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = os.getloadavg()
    env.update(report["versions"])

    # correctness: every gate, and every first-cycle estimate against the
    # verify process's rerun of the same seed
    differing, compared = count_mismatches(report["baseline"], verify["baseline"])
    gates_failed = [name for name, ok in report["gates"] if not ok]
    attempted = len(report["gates"]) + compared
    failed = len(gates_failed) + differing

    if args.trace:
        traced = report["traced"]
        layer = dict(report["per_layer"])
        layer["trace.cycle_s"] = _median(traced["cycle_walls"])
        layer["trace.overhead_frac"] = (layer["trace.cycle_s"]
                                        / _median(report["untraced"]["cycle_walls"]) - 1.0)
        layer["checks_failed_frac"] = len(gates_failed) / max(len(report["gates"]), 1)
        layer["estimate_mismatches"] = differing
        values, units = layer, PER_LAYER_UNITS
    else:
        values, units = end_to_end(report, setup_walls), END_TO_END_UNITS
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "gates": report["gates"],
              "setup_walls_s": setup_walls, "report": report, "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"run-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, ok in report["gates_first_sample"]:
        if not ok and name not in gates_failed:
            print(f"gate missed on the first sample, passed on the re-check: {name}")
    for name in gates_failed:
        print(f"gate FAILED: {name}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
