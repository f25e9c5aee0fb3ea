"""Batch experiment runner: every verification as a subcommand.

Each subcommand takes exactly these flags and rejects any other:

constants     --seed --out --format
couple        --group --g --gt --T --N --seed --workers --out --format --variant
marginals     --group --g --T --N --seed --workers --out --format --steps
sylvester     --group --N --seed --workers --out --format --m
girsanov      --group --g --gt --T --N --seed --K --workers --out --format --function
bismut        --group --g --h --T --N --seed --K --workers --out --format --eps --function
inequalities  --group --g --gt --h --T --N --seed --K --workers --out --format --function

--g, --gt and --h are required where listed.  --T is one positive horizon;
only `couple` takes a comma-separated grid (`--T 1,25,100`), one record per
horizon.  A `couple` grid makes one pass over the draws, shared by every
horizon; each record equals that of a run at its horizon alone.  --N is at
least 2, --workers and --steps at least 1, --eps positive.  `sylvester`
checks its solver residual on min(N, 20000) instances and reports that count
in the N column.

Points are given in group coordinates: `carnot-N` takes the N horizontal
entries followed by the N(N-1)/2 strictly upper triangular vertical entries
in row-major (i < j) order.  `heisenberg` is the rank-2 group and takes
`x1,x2,z` like `carnot-2`.  The group picks the coupling that `couple`
samples: the two-index one on `heisenberg`, the 2n+1-block one on
`carnot-N`.  --variant picks only the closed-form bound (default
proof-stage on `heisenberg`, carnot-n otherwise); its Heisenberg variants
need rank 2.  Records are written as CSV (fixed column order) or JSON
(canonical schema, with the parsed flags as `config`); identical config +
seed produce byte-identical artifacts.

Exit codes: 0 every record passed, 1 some check failed, 2 a configuration
error (found before any sampling where the flags alone show it), 3 a
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
import scipy.stats

from . import mc
from .catalog import CATALOG, get_function
from .coupling import failure_probability, tv_bound
from .girsanov import (
    bismut_gradient,
    default_support_count,
    finite_diff_gradient,
    girsanov_normalization_check,
    gradient_sup_spotcheck,
    inequality_suite,
    semigroup_transfer_check,
)
from .groups import CarnotElement, SkewMatrix, unpack_skew
from .legendre import endpoint_packed, sde_oracle_batch, truncation_index
from .mc import bound_check, derive_rng, ks_test, run_vector_estimator, split_seed, two_sample_compare
from .special_constants import constants_table
from .sylvester import (SingularGramError, lemma_solution_batch, u_moment_check,
                        wishart_inv_trace_mc)

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
    n = _parse_group(group)
    need = n + n * (n - 1) // 2
    if len(vals) != need:
        raise ValueError(f"{group} points take {need} coordinates")
    return CarnotElement(np.array(vals[:n]), SkewMatrix(n, np.array(vals[n:])))


def _point_str(g: CarnotElement) -> str:
    return ",".join(repr(float(v)) for v in [*g.x, *g.z.upper])


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
        err = abs(entry.value - entry.recompute()) / max(abs(entry.value), 1.0)
        records.append(record(
            f"{entry.source}; {entry.name} = {entry.formula}", f"constant:{entry.name}",
            estimate=entry.value, stderr=0.0, bound=1e-14, passed=bool(err <= 1e-14),
        ))
    return _emit(args, records)


def cmd_couple(args) -> int:
    g = _parse_point(args.g, args.group)
    gt = _parse_point(args.gt, args.group)
    # the group picks the sampler; the variant picks only the bound
    two_index = args.group == "heisenberg"
    variant = args.variant or ("proof-stage" if two_index else "carnot-n")
    record = _recorder(args, g=_point_str(g), gt=_point_str(gt))
    # rejects a variant the group lacks before any sampling
    bounds = [tv_bound(g, gt, T, variant).total for T in args.T]
    ests = failure_probability(g, gt, args.T, args.N, args.seed, args.workers,
                               two_index=two_index)
    records = [
        record("endpoint coupling failure vs total-variation bound", f"couple:{variant}",
               estimate=est.mean, stderr=est.stderr, bound=bound,
               passed=bound_check(est, bound).passed, T=T)
        for T, est, bound in zip(args.T, ests, bounds)
    ]
    return _emit(args, records)


def _moment_columns(xT: np.ndarray, zT: np.ndarray) -> np.ndarray:
    """Powers 1 to 4 of the first horizontal and the first vertical endpoint entry."""
    x, z = xT[:, 0], zT[:, 0]
    return np.stack([x, x ** 2, x ** 3, x ** 4, z, z ** 2, z ** 3, z ** 4], axis=1)


def _legendre_moment_sampler(g: CarnotElement, T: float, k_path: int):
    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        xi = rng.standard_normal((count, k_path + 1, g.n))
        return _moment_columns(*endpoint_packed(g.x, g.z.upper, xi, T))

    return sampler


def _oracle_moment_sampler(g: CarnotElement, T: float, steps: int):
    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        return _moment_columns(*sde_oracle_batch(g, T, steps, count, rng))

    return sampler


def _streamed_endpoints(g: CarnotElement, T: float, k_path: int, N: int,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal endpoints (N, n) and first vertical entries (N,) of N paths.

    Draws in chunks of mc.BATCH_SIZE rows from one generator, so the samples
    equal a single draw of all N paths while only one chunk of coefficients
    is held at a time.
    """
    xT, z0 = np.empty((N, g.n)), np.empty(N)
    for start in range(0, N, mc.BATCH_SIZE):
        stop = min(start + mc.BATCH_SIZE, N)
        xi = rng.standard_normal((stop - start, k_path + 1, g.n))
        xT[start:stop], zT = endpoint_packed(g.x, g.z.upper, xi, T)
        z0[start:stop] = zT[:, 0]
    return xT, z0


def cmd_marginals(args) -> int:
    g = _parse_point(args.g, args.group)
    T = args.T
    k_path = truncation_index(1.0 / 32.0, T)
    record = _recorder(args, g=_point_str(g), T=T, K=k_path)
    records = []

    xT, z0 = _streamed_endpoints(g, T, k_path, args.N, derive_rng(args.seed, 101))
    for i in range(g.n):
        cdf = scipy.stats.norm(loc=float(g.x[i]), scale=math.sqrt(T)).cdf
        p = ks_test(xT[:, i], cdf)
        records.append(record(
            "endpoint horizontal coordinate is Gaussian with variance T",
            f"marginals:ks-x{i}", estimate=p, stderr=0.0, bound=0.01, passed=bool(p > 0.01),
        ))
    # vertical entry variance at identity start: T^2/4 per pair
    var = float(z0.var(ddof=1)) if float(np.max(np.abs(g.x))) == 0.0 else None
    if var is not None:
        target = T * T / 4.0
        se = var * math.sqrt(2.0 / (args.N - 1)) * 2  # rough 4th-moment allowance
        trunc = target / (2 * k_path + 1)
        ok = abs(var - target) <= 3.0 * se + trunc
        records.append(record(
            "vertical entry variance equals T^2/4 at identity start",
            "marginals:vertical-variance",
            estimate=var, stderr=se, bound=target, passed=bool(ok),
        ))

    names = ["x1^1", "x1^2", "x1^3", "x1^4", "z12^1", "z12^2", "z12^3", "z12^4"]
    leg = run_vector_estimator(_legendre_moment_sampler(g, T, k_path), args.N,
                               split_seed(args.seed, 7), args.workers)
    orc = run_vector_estimator(_oracle_moment_sampler(g, T, args.steps),
                               max(args.N // 4, 2), split_seed(args.seed, 8), args.workers)
    for name, a, b in zip(names, leg, orc):
        bias = (abs(a.mean) + abs(b.mean) + 1.0) * 4.0 / args.steps
        rep = two_sample_compare(a, b, bias=bias)
        records.append(record(
            "series endpoint moments match the SDE discretization oracle",
            f"marginals:moment-{name}",
            estimate=a.mean, stderr=rep.sigma, bound=b.mean, passed=rep.passed,
        ))
    return _emit(args, records)


def cmd_sylvester(args) -> int:
    n = _parse_group(args.group)
    m = 2 * n + 1 if args.m is None else args.m
    if m < n + 2:
        raise ValueError(f"--m must be at least n + 2 = {n + 2} on {args.group}")
    record = _recorder(args, K=m)
    records = []
    rng = derive_rng(args.seed, 3)
    count = min(args.N, 20000)
    v = rng.standard_normal((count, n, m))
    w_packed = rng.standard_normal((count, n * (n - 1) // 2))
    u, cond = lemma_solution_batch(v, w_packed)
    w = unpack_skew(n, w_packed)
    resid = u @ np.swapaxes(v, -1, -2) - v @ np.swapaxes(u, -1, -2) - w
    rnorm = np.sqrt(np.sum(resid ** 2, axis=(-2, -1)))
    wnorm = np.sqrt(np.sum(w ** 2, axis=(-2, -1)))
    ratio = float(np.max(rnorm / (1.0 + wnorm)))
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
    """--K, or the default 2n+1 when it is not given (an explicit 0 is kept and rejected)."""
    return default_support_count(n) if args.K is None else args.K


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
    f = get_function(args.function)
    tr = semigroup_transfer_check(f, g, gt, T, K, args.N, split_seed(args.seed, 9), args.workers)
    if tr.ess_fraction < 0.01:
        # on stderr only: the artifact stays byte-identical
        print(f"carnot-coupling: warning: girsanov:transfer-{f.name} weights have a Kish "
              f"ESS fraction of {tr.ess_fraction:.2e} < 0.01; few samples carry the "
              f"weighted estimate", file=sys.stderr)
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
    record = _recorder(args, g=_point_str(g), T=T, K=_support_count(args, g.n))
    suite = inequality_suite(f, g, gt, h, T, args.N, args.seed, K=args.K, workers=args.workers)
    records = [record(
        f"semigroup inequality: {c.name}", f"inequalities:{c.name}",
        estimate=c.lhs, stderr=c.sigma, bound=c.rhs, passed=c.passed,
        gt=_point_str(gt), h=_point_str(h),
    ) for c in suite.checks]
    spots = gradient_sup_spotcheck(f, [g], T, max(args.N // 10, 2), split_seed(args.seed, 40),
                                   args.workers, K=args.K)
    for sc in spots:
        records.append(record(
            "sup-norm gradient bounds at a sample point", "inequalities:gradient-spot",
            estimate=sc.horizontal_norm, stderr=sc.horizontal_sigma,
            bound=sc.horizontal_bound, passed=sc.passed,
            N=max(args.N // 10, 2),
        ))
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
                  help="heisenberg (rank 2, two-index coupling) or carnot-N (N >= 2)"),
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
    "steps": dict(type=_at_least_one, default=512, help="SDE oracle steps"),
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
    "marginals": (cmd_marginals, "endpoint-law checks (KS, variances, moments vs the SDE oracle)",
                  "group g T N seed workers out format steps", {}),
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
    seed = int(os.environ.get(ENV_SEED, "20240901"))
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
