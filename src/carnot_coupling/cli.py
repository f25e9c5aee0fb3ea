"""Batch experiment runner: every verification as a subcommand.

Each subcommand takes exactly these flags and rejects any other:

constants     --seed --out --format
couple        --group --g --gt --T --N --seed --workers --out --format --variant
marginals     --group --g --T --N --seed --workers --out --format
sylvester     --group --N --seed --workers --out --format --m
girsanov      --group --g --gt --T --N --seed --K --workers --out --format --function
bismut        --group --g --h --T --N --seed --K --workers --out --format --eps --function
inequalities  --group --g --gt --h --T --N --seed --K --workers --out --format --function

--g, --gt and --h are required where listed.  --T is one positive horizon;
only `couple` takes a comma-separated grid (`--T 1,25,100`), one record per
horizon.  A `couple` grid makes one pass over the draws, shared by every
horizon; each record equals that of a run at its horizon alone.  Its
estimate is the mean over runs of erf(|u|/(2 sqrt 2)), the probability that
a run fails to meet given its shift u: the coupling is reflection-maximal
given the shift, so this mean is the failure probability, unbiased, with
less variance than the fraction of runs that fail.  --N is at least 2,
--workers at least 1, --eps positive.  `sylvester` checks its
solver residual on min(N, 20000) instances and reports that count in the N
column.

Points are given in group coordinates: `carnot-N` takes the N horizontal
entries followed by the N(N-1)/2 strictly upper triangular vertical entries
in row-major (i < j) order.  `heisenberg` is the rank-2 group and takes
`x1,x2,z` like `carnot-2`; every coordinate must be finite.  A point whose
first coordinate is negative takes the `--flag=value` form, `--g=-1,0,0`:
the parser reads a separate token that starts with `-` as a flag.  The
group picks the block count K of the coupling that `couple` samples and
records: K = 1 (the two-index coupling) on `heisenberg`, K = 2n+1 on
`carnot-N`.  --variant picks only the closed-form bound (default
proof-stage on `heisenberg`, carnot-n otherwise); its Heisenberg variants
need rank 2, and improved-remark2, whose refined constants do not cover the
K = 1 coupling, takes `carnot-2` (K = 5): on `heisenberg` it exits 2.
Records are written as CSV (fixed column order) or JSON
(canonical schema, with the parsed flags as `config`); identical config +
seed produce byte-identical artifacts.

Every sampling subcommand exits 2 before any sampling when the float64
arrays it holds at once exceed 256 MiB.  That is min(workers, batches)
batches of min(N, 16384) rows, each holding a few statistics values a row
beside one row tile of at most 8 MiB of coefficients and its working set.
A `couple` tile row holds its (3K + 2) x n coefficients, its probes, each
horizon's mismatch and shift, and the peak working set of the shift solve,
which grows like n^4 (`coupling.batch_row_values`).  `girsanov`, `bismut`
and `inequalities` count their largest estimator, the sign-orbit gradient,
so K is bounded only once a tile is a single row: K = 949331 is the largest
on `heisenberg` with one worker, and K = 469982 with two.  A `marginals` tile row holds 2 x 257 x n + 3n^2
values; its KS test draws and frees about (2n + 6) N values before the
batches run.  A `sylvester` batch row holds at most 4nm + 3n^2 values, and
so does each of the min(N, 20000) instances of its residual pass, which
frees them before the batches run.

--out names a file in an existing directory; a directory or a path in a
missing directory exits 2 before any sampling.  Exit codes: 0 every record
passed, 1 some check failed, 2 a configuration error (found before any
sampling where the flags or CARNOT_COUPLING_SEED alone show it), 3 a
numerically singular Gram system (no artifact is written).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import mc
from .catalog import CATALOG, get_function
from .coupling import batch_row_values, default_support_count, failure_probability, tv_bound
from .girsanov import (
    bismut_gradient,
    finite_diff_gradient,
    girsanov_normalization_check,
    gradient_sup_spotcheck,
    inequality_suite,
    semigroup_transfer_check,
)
from .groups import CarnotElement, SkewMatrix, unpack_skew
from .legendre import endpoint_moments, endpoint_packed, truncation_index
from .mc import bound_check, derive_rng, ks_test, run_vector_estimator, split_seed, two_sample_compare
from .special_constants import constants_table
from .sylvester import (SingularGramError, lemma_solution_batch, tsylvester_row_values,
                        u_moment_check, wishart_inv_trace_mc)

__all__ = ["main", "build_parser"]

ENV_SEED = "CARNOT_COUPLING_SEED"


class Record(NamedTuple):
    reference: str
    group: str
    check: str
    g: str
    gt: str
    h: str
    T: float
    N: int
    K: int
    seed: int
    estimate: float
    stderr: float
    bound: float
    passed: bool


COLUMNS = list(Record._fields)  # the fixed artifact column order


def _parse_group(text: str) -> int:
    """Group name to rank: 'heisenberg' -> 2, 'carnot-N' -> N."""
    if text == "heisenberg":
        return 2
    if text.startswith("carnot-"):
        n = int(text.split("-", 1)[1])
        if n < 2:
            raise ValueError("rank must be at least 2")
        return n
    raise ValueError(f"unknown group {text!r}")


def _parse_point(text: str, group: str) -> CarnotElement:
    """Point in group coordinates; 'heisenberg' is rank 2, read as x1,x2,z."""
    vals = [float(tok) for tok in text.split(",")]
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"point coordinates must be finite, got {text!r}")
    n = _parse_group(group)
    need = n + n * (n - 1) // 2
    if len(vals) != need:
        raise ValueError(f"{group} points take {need} coordinates")
    return CarnotElement(np.array(vals[:n]), SkewMatrix(n, np.array(vals[n:])))


def _point_str(g: CarnotElement) -> str:
    return ",".join(repr(float(v)) for v in [*g.x, *g.z.upper])


# bytes of float64 arrays a subcommand may hold at once; a run that needs more exits 2 unsampled
MAX_BATCH_BYTES = 1 << 28


def _check_memory(args, what: str, row_values: int, kept_values: int = 0) -> None:
    """Reject a run whose arrays held at once exceed MAX_BATCH_BYTES, before any sampling.

    Each batch holds row_values float64 values on each of its min(N,
    mc.BATCH_SIZE) rows, and min(workers, batches) batches run at once;
    kept_values are held beside them for the whole run.
    """
    batches = -(-args.N // mc.BATCH_SIZE)
    rows = min(args.workers, batches) * min(args.N, mc.BATCH_SIZE)
    need = 8 * (rows * row_values + kept_values)
    if need > MAX_BATCH_BYTES:
        raise ValueError(f"{what} needs {need / 2 ** 20:.0f} MiB of arrays at once with "
                         f"--workers {args.workers}, over the budget of "
                         f"{MAX_BATCH_BYTES >> 20} MiB")


def _tile_share(args, coefficients: int, tile_row_values: int, tile_values: int = 0) -> int:
    """Values per batch row of one row tile, for `_check_memory`.

    The tile holds `mc.tile_rows(coefficients)` rows, at most a batch, of
    tile_row_values each, and tile_values more, spread here over the min(N,
    mc.BATCH_SIZE) rows of a batch.  A batch that draws ahead
    (`mc.tiled_sampler`) holds the working set of one half tile and the draw
    of the next, which is less.
    """
    rows = min(args.N, mc.BATCH_SIZE)
    return -(-(min(rows, mc.tile_rows(coefficients)) * tile_row_values + tile_values) // rows)


def _emit(args, records: list[Record]) -> int:
    """Write the artifact; exit code 0 when every record passed, else 1."""
    if args.format == "json":
        # the parsed flags, less the handler and the artifact path
        config = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")}
        doc = {
            "config": config,
            "columns": COLUMNS,
            "records": [r._asdict() for r in records],
        }
        text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(COLUMNS)
        writer.writerows(records)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(r.passed for r in records) else 1


def _recorder(args, **context):
    """Record factory for one subcommand: fills group, g, gt, h, T, N, K and seed.

    Keyword arguments override the defaults (the --group and --N flags, or
    "-" and 0 for a subcommand without them, no points, T = 0, K = 0) for
    every record; per-record keywords override again.
    """
    base = dict(group=getattr(args, "group", "-"), g="-", gt="-", h="-", T=0.0,
                N=getattr(args, "N", 0), K=0, seed=args.seed)
    base.update(context)

    def record(reference, check, *, estimate, stderr, bound, passed, **override) -> Record:
        return Record(reference=reference, check=check, estimate=estimate, stderr=stderr,
                      bound=bound, passed=passed, **{**base, **override})

    return record


def cmd_constants(args) -> int:
    record = _recorder(args)
    records = []
    for entry in constants_table():
        err = abs(entry.value - entry.reference()) / max(abs(entry.value), 1.0)
        records.append(record(
            f"{entry.source}; {entry.name} = {entry.formula}", f"constant:{entry.name}",
            estimate=entry.value, stderr=0.0, bound=1e-14, passed=bool(err <= 1e-14),
        ))
    return _emit(args, records)


def cmd_couple(args) -> int:
    g = _parse_point(args.g, args.group)
    gt = _parse_point(args.gt, args.group)
    # the group picks the sampler; the variant picks only the bound
    heisenberg = args.group == "heisenberg"
    variant = args.variant or ("proof-stage" if heisenberg else "carnot-n")
    if heisenberg and variant == "improved-remark2":
        raise ValueError("improved-remark2 does not bound the K = 1 coupling that heisenberg "
                         "samples; use --group carnot-2, which samples K = 5")
    K = 1 if heisenberg else default_support_count(g.n)
    record = _recorder(args, g=_point_str(g), gt=_point_str(gt), K=K)
    # rejects a variant the group lacks before any sampling
    bounds = [tv_bound(g, gt, T, variant).total for T in args.T]
    # a batch row holds its uniform, 2S output columns and what the statistics make of them
    S = len(args.T)
    _check_memory(args, f"{args.group} at {S} horizons", 3 * 2 * S + 3 + _tile_share(
        args, (3 * K + 2) * g.n, batch_row_values(g.n, K, S)))
    ests = failure_probability(g, gt, args.T, args.N, args.seed, args.workers, K=K)
    records = [
        record("endpoint coupling failure given the shift vs total-variation bound",
               f"couple:{variant}", estimate=est.conditional.mean,
               stderr=est.conditional.stderr, bound=bound,
               passed=bound_check(est.conditional, bound).passed, T=T)
        for T, est, bound in zip(args.T, ests, bounds)
    ]
    return _emit(args, records)


def _moment_columns(xT: np.ndarray, zT: np.ndarray) -> np.ndarray:
    """Powers 1 to 4 of the first horizontal and the first vertical endpoint entry."""
    x, z = xT[:, 0], zT[:, 0]
    return np.stack([x, x ** 2, x ** 3, x ** 4, z, z ** 2, z ** 3, z ** 4], axis=1)


def _legendre_moment_sampler(g: CarnotElement, T: float, k_path: int):
    return mc.tiled_sampler(lambda xi: _moment_columns(*endpoint_packed(g.x, g.z.upper, xi, T)),
                            (k_path + 1, g.n))


def _ks_p_values(g: CarnotElement, T: float, N: int, rng: np.random.Generator) -> list[float]:
    """KS p-value of each horizontal endpoint coordinate of N paths against N(x_i, T).

    x_T = x + sqrt(T) xi_0 reads no other coefficient of a path, so only
    xi_0 (N, n) is drawn.  Its arrays are freed on return, before the moment
    batches run.
    """
    import scipy.special

    xT = g.x + math.sqrt(T) * rng.standard_normal((N, g.n))
    return [ks_test(xT[:, i], lambda x: scipy.special.ndtr((x - loc) / math.sqrt(T)))
            for i, loc in enumerate(g.x)]


def cmd_marginals(args) -> int:
    g = _parse_point(args.g, args.group)
    T = args.T
    k_path = truncation_index(1.0 / 32.0, T)
    # a tile row holds its draw, the weighted copy that `levy_area_packed` makes
    # of it, and the n x n product with its packed parts; a batch row holds its
    # 8 moment columns, the two copies the statistics make of them and two
    # running sums.  The KS test holds x_T and the draw it is made from, then
    # x_T and the sorted copies and CDF values of one coordinate.
    coefficients = (k_path + 1) * g.n
    what = f"--N {args.N} on {args.group}"
    _check_memory(args, what, 0, (2 * g.n + 6) * args.N)
    _check_memory(args, what, 3 * 8 + 2 + _tile_share(
        args, coefficients, 2 * coefficients + 3 * g.n ** 2))
    record = _recorder(args, g=_point_str(g), T=T, K=k_path)
    records = [record(
        "endpoint horizontal coordinate is Gaussian with variance T",
        f"marginals:ks-x{i}", estimate=p, stderr=0.0, bound=0.01, passed=bool(p > 0.01),
    ) for i, p in enumerate(_ks_p_values(g, T, args.N, derive_rng(args.seed, 101)))]

    names = ["x1^1", "x1^2", "x1^3", "x1^4", "z12^1", "z12^2", "z12^3", "z12^4"]
    leg = run_vector_estimator(_legendre_moment_sampler(g, T, k_path), args.N,
                               split_seed(args.seed, 7), args.workers)
    exact = endpoint_moments(g.x, g.z.upper, T, k_path)
    for name, est, target in zip(names, leg, exact):
        rep = two_sample_compare(est, target)
        records.append(record(
            "series endpoint moments match their exact law",
            f"marginals:moment-{name}",
            estimate=est.mean, stderr=rep.sigma, bound=rep.rhs, passed=rep.passed,
        ))
    return _emit(args, records)


def _lemma_residual(n: int, m: int, count: int, rng: np.random.Generator) -> float:
    """Largest |u v^t - v u^t - w| / (1 + |w|) of the lemma solution u over `count` draws of v, w.

    Its arrays are freed on return, before the estimators run.
    """
    v = rng.standard_normal((count, n, m))
    w_packed = rng.standard_normal((count, n * (n - 1) // 2))
    u, _ = lemma_solution_batch(v, w_packed)
    w = unpack_skew(n, w_packed)
    resid = u @ np.swapaxes(v, -1, -2) - v @ np.swapaxes(u, -1, -2) - w
    rnorm = np.sqrt(np.sum(resid ** 2, axis=(-2, -1)))
    wnorm = np.sqrt(np.sum(w ** 2, axis=(-2, -1)))
    return float(np.max(rnorm / (1.0 + wnorm)))


def cmd_sylvester(args) -> int:
    n = _parse_group(args.group)
    m = default_support_count(n) if args.m is None else args.m
    if m < n + 2:
        raise ValueError(f"--m must be at least n + 2 = {n + 2} on {args.group}")
    count = min(args.N, 20000)
    # an instance of the lemma solve holds at most 3nm + 2n^2 + n(n-1)/2 + n + 2
    # values (v, its Gram solution and their product with the dense w; the Gram
    # matrix and the dense w; the packed w, the eigenvalues and the masks), and of
    # the residual after it 2nm + 4n^2 + n(n-1)/2; 4nm + 3n^2 bounds both for
    # m >= n + 2.  The residual pass solves `count` instances and frees them before
    # the estimators' batches, each of which solves or factors one per row.
    instance = 4 * n * m + 3 * n * n
    _check_memory(args, f"--m {m} on {args.group}", instance)
    _check_memory(args, f"--m {m} on {args.group}", 0, count * instance)
    record = _recorder(args, K=m)
    records = []
    ratio = _lemma_residual(n, m, count, derive_rng(args.seed, 3))
    records.append(record(
        "T-Sylvester particular solution residual", "sylvester:residual",
        estimate=ratio, stderr=0.0, bound=1e-10, passed=bool(ratio <= 1e-10), N=count,
    ))
    est = wishart_inv_trace_mc(n, m, args.N, split_seed(args.seed, 1), args.workers)
    target = n / (m - n - 1)
    rep = two_sample_compare(est, target)
    records.append(record(
        "Wishart inverse-trace identity n/(m-n-1)", "sylvester:wishart-trace",
        estimate=est.mean, stderr=est.stderr, bound=target, passed=rep.passed,
    ))
    um = u_moment_check(n, m, args.N, split_seed(args.seed, 2), args.workers)
    records.append(record(
        "solution moment bound E|u|^2 <= E|w|^2/(4(m-n-1))", "sylvester:u-moment",
        estimate=um.mean_u_sq, stderr=um.stderr, bound=um.bound, passed=um.passed,
    ))
    return _emit(args, records)


def _support_count(args, n: int) -> int:
    """--K, or the default 2n+1 when it is not given (an explicit 0 is kept and rejected).

    A K whose batch does not fit `_check_memory`'s budget is rejected before
    any sampling.  The count bounds every estimator of `girsanov`, from the
    largest, the sign-orbit gradient on two starts (`inequalities`).  A batch
    row holds at most 6 output columns and what its statistics make of them.
    A row tile of at most `mc.tile_rows` rows holds, per row, its draw of
    (3K + 2) x n coefficients and the n x K probes, and beside them the
    larger of two stages: the shift solve of the four orbit points (their
    packed mismatches and `tsylvester_row_values`, or after it the 4 n K
    solution and 24 pairing columns), and the endpoints
    (those 4 n K shift values, the scaled probes, the weighted copy of the
    draw that the area series makes, the n x n product, and 40 values per
    horizontal and packed vertical coordinate for the endpoints from both
    starts at the four points, their reflections, the test function and the
    output columns).  Each tile also holds the 3K + 2 term alpha ladder and
    its copy per coordinate.  `_tile_share` spreads a tile over its batch.
    """
    K = default_support_count(n) if args.K is None else args.K
    coefficients, pairs = (3 * K + 2) * n, n * (n - 1) // 2
    solve = 8 * pairs + max(tsylvester_row_values(n, K, 4), 4 * n * K + 24)
    endpoints = 6 * n * K + coefficients + n * n + 40 * (n + pairs)
    _check_memory(args, f"--K {K}", 3 * 6 + 2 + _tile_share(
        args, coefficients, coefficients + n * K + max(solve, endpoints), (n + 1) * (3 * K + 2)))
    return K


def _warn_few_weights(check: str, ess_fraction: float) -> None:
    """Warn on stderr when a check's weights have a Kish ESS fraction below 0.01.

    On stderr only: the artifact stays byte-identical.
    """
    if ess_fraction < 0.01:
        print(f"carnot-coupling: warning: {check} weights have a Kish ESS fraction of "
              f"{ess_fraction:.2e} < 0.01; few samples carry the weighted estimate",
              file=sys.stderr)


def cmd_girsanov(args) -> int:
    g = _parse_point(args.g, args.group)
    gt = _parse_point(args.gt, args.group)
    T = args.T
    K = _support_count(args, g.n)
    record = _recorder(args, g=_point_str(g), gt=_point_str(gt), T=T, K=K)
    rep = girsanov_normalization_check(g, gt, T, K, args.N, args.seed, args.workers)
    records = [
        record("Gaussian shift weight normalizes: E[R] = 1", "girsanov:normalization",
               estimate=rep.mean_R.mean, stderr=rep.mean_R.stderr, bound=1.0,
               passed=rep.normalization.passed),
        record("entropy identity E[R ln R] = E|u|^2/2", "girsanov:entropy-identity",
               estimate=rep.entropy_gap.mean, stderr=rep.entropy_gap.stderr, bound=0.0,
               passed=rep.entropy_identity.passed),
        record("entropy bound from the closed-form constants", "girsanov:entropy-bound",
               estimate=rep.mean_half_norm_sq.mean, stderr=rep.mean_half_norm_sq.stderr,
               bound=rep.entropy_bound, passed=rep.entropy_bounded),
    ]
    _warn_few_weights("girsanov:normalization", rep.ess_fraction)
    f = get_function(args.function)
    tr = semigroup_transfer_check(f, g, gt, T, K, args.N, split_seed(args.seed, 9), args.workers)
    _warn_few_weights(f"girsanov:transfer-{f.name}", tr.ess_fraction)
    records.append(record(
        "semigroup transfer: weighted estimate from g matches the one from gt, same draws",
        f"girsanov:transfer-{f.name}", estimate=tr.weighted.mean, stderr=tr.comparison.sigma,
        bound=tr.direct.mean, passed=tr.comparison.passed,
    ))
    return _emit(args, records)


def cmd_bismut(args) -> int:
    g = _parse_point(args.g, args.group)
    h = _parse_point(args.h, args.group)
    T = args.T
    K = _support_count(args, g.n)
    f = get_function(args.function)
    bg = bismut_gradient(f, g, h, T, K, args.N, split_seed(args.seed, 1), args.workers)
    fd = finite_diff_gradient(f, g, h, T, args.eps, args.N, split_seed(args.seed, 2),
                              args.workers, K=K)
    bias = args.eps * (1.0 + abs(fd.mean))
    rep = two_sample_compare(bg, fd, bias=bias)
    record = _recorder(args, g=_point_str(g), h=_point_str(h), T=T, K=K)
    records = [record(
        "integration-by-parts gradient vs central finite differences", f"bismut:{f.name}",
        estimate=bg.mean, stderr=rep.sigma, bound=fd.mean, passed=rep.passed,
    )]
    return _emit(args, records)


def cmd_inequalities(args) -> int:
    g = _parse_point(args.g, args.group)
    gt = _parse_point(args.gt, args.group)
    h = _parse_point(args.h, args.group)
    T = args.T
    f = get_function(args.function)
    K = _support_count(args, g.n)
    record = _recorder(args, g=_point_str(g), T=T, K=K)
    suite = inequality_suite(f, g, gt, h, T, args.N, args.seed, K=K, workers=args.workers)
    records = [record(
        f"semigroup inequality: {c.name}", f"inequalities:{c.name}",
        estimate=c.lhs, stderr=c.sigma, bound=c.rhs, passed=c.passed,
        gt=_point_str(gt), h=_point_str(h),
    ) for c in suite.checks]
    spots = gradient_sup_spotcheck(f, [g], T, max(args.N // 10, 2), split_seed(args.seed, 40),
                                   args.workers, K=K)
    for sc in spots:
        records += [
            record("sup-norm horizontal gradient bound at a sample point",
                   "inequalities:gradient-spot", estimate=sc.horizontal_norm,
                   stderr=sc.horizontal_sigma, bound=sc.horizontal_bound,
                   passed=sc.horizontal_passed, N=max(args.N // 10, 2)),
            record("sup-norm vertical gradient bound at a sample point",
                   "inequalities:gradient-spot-vertical", estimate=sc.vertical_norm,
                   stderr=sc.vertical_sigma, bound=sc.vertical_bound,
                   passed=sc.vertical_passed, N=max(args.N // 10, 2)),
        ]
    return _emit(args, records)


def _checked(convert, accept, what: str):
    """argparse type: convert the text and reject values outside the accepted range."""
    def parse(text: str):
        try:
            if accept(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")

    return parse


_positive = _checked(float, lambda v: 0.0 < v < math.inf, "a positive number")
_at_least_one = _checked(int, lambda v: v >= 1, "an integer >= 1")


# every flag once; each subcommand below lists the flags its cmd_* reads
_FLAGS = {
    "group": dict(default="heisenberg",
                  help="heisenberg (rank 2, K = 1 coupling) or carnot-N (N >= 2)"),
    "g": dict(required=True, help="start point of the first process"),
    "gt": dict(required=True, help="start point of the second process"),
    "h": dict(required=True, help="direction (group coordinates)"),
    "T": dict(type=_positive, default=1.0, help="horizon"),
    "N": dict(type=_checked(int, lambda v: v >= 2, "an integer >= 2"), default=100_000,
              help="Monte Carlo sample count"),
    "seed": dict(type=int, help=f"base seed (env {ENV_SEED})"),
    "K": dict(type=int, default=None, help="modified-block count (default 2n+1, at least n+2)"),
    "workers": dict(type=_at_least_one, default=1),
    "out": dict(default=None, help="output artifact path (default stdout)"),
    "format": dict(choices=["csv", "json"], default="csv"),
    "variant": dict(choices=["proof-stage", "improved-remark2", "carnot-n"], default=None),
    "m": dict(type=int, default=None, help="number of probe columns (default 2n+1, at least n+2)"),
    "eps": dict(type=_positive, default=1e-3, help="finite-difference step"),
    "function": dict(default="gaussian-bump", choices=sorted(CATALOG)),
}

_SUBCOMMANDS = {
    # name: (handler, help, flags, per-subcommand flag overrides)
    "constants": (cmd_constants, "closed-form constant table", "seed out format", {}),
    "couple": (cmd_couple, "coupling failure probability against the closed-form bound",
               "group g gt T N seed workers out format variant",
               {"T": dict(type=lambda text: [_positive(t) for t in text.split(",")], default=[1.0],
                          help="horizon, or comma list for a grid")}),
    "marginals": (cmd_marginals, "endpoint-law checks (KS, moments vs their exact law)",
                  "group g T N seed workers out format", {}),
    "sylvester": (cmd_sylvester, "T-Sylvester residuals and Wishart moment identities",
                  "group N seed workers out format m", {}),
    "girsanov": (cmd_girsanov, "weight normalization, entropy identity, semigroup transfer",
                 "group g gt T N seed K workers out format function", {}),
    "bismut": (cmd_bismut, "integration-by-parts gradient vs central finite differences",
               "group g h T N seed K workers out format eps function", {}),
    "inequalities": (cmd_inequalities,
                     "log-Harnack, reverse Poincare, weak log-Sobolev, gradient spots",
                     "group g gt h T N seed K workers out format function",
                     {"function": dict(default="sin-perturbation")}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carnot-coupling",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    text = os.environ.get(ENV_SEED, "20240901")
    try:
        seed = int(text)
    except ValueError:
        parser.exit(2, f"{parser.prog}: error: {ENV_SEED}={text!r} is not an integer\n")
    for name, (func, help_text, flags, overrides) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **{**_FLAGS[flag], **overrides.get(flag, {})})
        p.set_defaults(func=func, seed=seed)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the only place where a failure becomes an exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.out:
        # checked before any sampling: a write that fails after it would waste the run
        folder = os.path.dirname(args.out) or os.curdir
        if os.path.isdir(args.out):
            parser.exit(2, f"{parser.prog}: error: --out {args.out!r} is a directory\n")
        if not os.path.isdir(folder):
            parser.exit(2, f"{parser.prog}: error: --out {args.out!r}: no directory {folder!r}\n")
    try:
        return args.func(args)
    except SingularGramError as exc:
        # a numerical event, not a configuration error: checked before ValueError,
        # which it subclasses through numpy's LinAlgError
        parser.exit(3, f"{parser.prog}: numerical failure: {exc}\n")
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
