"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every criterion uses fixed
seeds through the deterministic harness, so the whole gate is reproducible
bit for bit.  Monte Carlo checks compare at 3 sigma with explicitly stated
bias allowances where a discretization or truncation enters.
"""

import json
import math

import numpy as np
import pytest
import scipy.stats
from scipy.special import zeta

from carnot_coupling.catalog import CATALOG
from carnot_coupling.cli import _legendre_moment_sampler, _oracle_moment_sampler
from carnot_coupling.cli import main as cli_main
from carnot_coupling.coupling import (
    _couple_batch,
    _gaps,
    _second_stream,
    failure_probability,
    tv_bound,
)
from carnot_coupling.girsanov import (
    bismut_gradient,
    finite_diff_gradient,
    girsanov_normalization_check,
    gradient_sup_spotcheck,
    horizontal_direction,
    inequality_suite,
    semigroup_transfer_check,
    vertical_direction,
)
from carnot_coupling.groups import (
    CarnotElement,
    HeisenbergPoint,
    SkewMatrix,
    dilate,
    heis_to_carnot,
)
from carnot_coupling.legendre import endpoint_packed, truncation_index
from carnot_coupling.mc import derive_rng, ks_test, run_vector_estimator, split_seed
from carnot_coupling.special_constants import (
    constants_table,
    s_h_inverse_moment,
    s_h_inverse_moment_bound,
    s_h_laplace,
)
from carnot_coupling.sylvester import lemma_solution_batch, wishart_inv_trace_mc

SEED = 20240901

_echo = print


@pytest.fixture(autouse=True)
def _passthrough_stdout(capsys):
    # criterion lines must reach the terminal even under default capture
    global _echo

    def echo(msg):
        with capsys.disabled():
            print(msg, flush=True)

    _echo = echo
    yield
    _echo = print


def _report(k: int, description: str, ok: bool):
    _echo(f"[acceptance] criterion {k:2d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {k}: {description}"


def random_heis_pair(rng):
    a = HeisenbergPoint(*rng.uniform(-2, 2, 3))
    b = HeisenbergPoint(*rng.uniform(-2, 2, 3))
    T = float(np.exp(rng.uniform(np.log(0.25), np.log(64.0))))
    return a, b, T


def random_carnot_pair(rng, n):
    p = n * (n - 1) // 2
    mk = lambda: CarnotElement(rng.uniform(-2, 2, n), SkewMatrix(n, rng.uniform(-2, 2, p)))
    T = float(np.exp(rng.uniform(np.log(0.25), np.log(64.0))))
    return mk(), mk(), T


def test_criterion_01_exact_meeting():
    worst_h, worst_v, successes = 0.0, 0.0, 0
    rng = derive_rng(SEED, 1)
    for cfg in range(100):
        g, gt, T = random_heis_pair(rng)
        gc, gct = heis_to_carnot(g), heis_to_carnot(gt)
        batch = _couple_batch(gc, gct, [T], rng, 32, two_index=True)
        met = batch.met[0]
        h_gap, v_gap = _gaps(gc, gct, T, batch.xi, _second_stream(batch, 0))
        if met.any():
            successes += int(met.sum())
            worst_h = max(worst_h, float(h_gap[met].max()))
            worst_v = max(worst_v, float(v_gap[met].max()))
    for cfg in range(50):
        n = 3 if cfg % 2 == 0 else 4
        g, gt, T = random_carnot_pair(rng, n)
        batch = _couple_batch(g, gt, [T], rng, 32, two_index=False)
        assert not batch.bad.any()
        met = batch.met[0]
        h_gap, v_gap = _gaps(g, gt, T, batch.xi, _second_stream(batch, 0))
        if met.any():
            successes += int(met.sum())
            worst_h = max(worst_h, float(h_gap[met].max()))
            worst_v = max(worst_v, float(v_gap[met].max()))
    ok = successes > 500 and worst_h <= 1e-12 and worst_v <= 1e-9
    _report(1, f"exact meeting on {successes} successes: max horizontal gap "
               f"{worst_h:.2e} <= 1e-12, max vertical gap {worst_v:.2e} <= 1e-9", ok)


def test_criterion_02_heisenberg_bound():
    origin = heis_to_carnot(HeisenbergPoint(0, 0, 0))
    ok = True
    lines = []
    horizons = (1.0, 25.0, 100.0)
    for point in (HeisenbergPoint(1, 0, 0), HeisenbergPoint(0, 0, 1)):
        gt = heis_to_carnot(point)
        ests = failure_probability(origin, gt, horizons, 100_000, split_seed(SEED, 20),
                                   two_index=True)
        for T, est in zip(horizons, ests):
            bound = tv_bound(origin, gt, T, "proof-stage").total
            good = est.mean <= bound + 3 * est.stderr
            ok &= good
            lines.append(f"{point.as_tuple()}@T={T:g}: {est.mean:.4f}<= {bound:.4f}+3se")
    _report(2, "two-index coupling failure under the proof-stage bound at every "
               "grid point [" + "; ".join(lines) + "]", ok)


def test_criterion_03_carnot_bound():
    ok = True
    lines = []
    for n in (3, 4):
        p = n * (n - 1) // 2
        origin = CarnotElement.identity(n)
        horiz = CarnotElement(np.eye(n)[0], SkewMatrix.zero(n))
        vert_packed = np.zeros(p)
        vert_packed[0] = 1.0
        vert = CarnotElement(np.zeros(n), SkewMatrix(n, vert_packed))
        for gt in (horiz, vert):
            horizons = (1.0, 25.0, 100.0)
            ests = failure_probability(origin, gt, horizons, 10_000, split_seed(SEED, 30 + n))
            for T, est in zip(horizons, ests):
                bound = tv_bound(origin, gt, T, "carnot-n").total
                good = est.mean <= bound + 3 * est.stderr
                ok &= good
                lines.append(f"n={n},T={T:g}: {est.mean:.3f}<={bound:.3f}")
    _report(3, "rank-n coupling failure under the rank-n bound on ranks 3 and 4 "
               "[" + "; ".join(lines) + "]", ok)


def test_criterion_04_marginal_laws():
    ok = True
    notes = []
    # coupled marginals at N = 1e5, both processes, with shared tail rendering
    g, gt, T = HeisenbergPoint(0, 0, 0), HeisenbergPoint(1, 0, 1), 4.0
    rng = derive_rng(SEED, 40)
    N = 100_000
    gc, gct = heis_to_carnot(g), heis_to_carnot(gt)
    batch = _couple_batch(gc, gct, [T], rng, N, two_index=True)
    xi, xi_t = batch.xi, _second_stream(batch, 0)
    k_path = truncation_index(1.0 / 32.0, T)
    tail = rng.standard_normal((N, k_path + 1 - xi.shape[1], 2))
    xi_full = np.concatenate([xi, tail], axis=1)
    xi_t_full = np.concatenate([xi_t, tail], axis=1)
    xT, _ = endpoint_packed(gc.x, gc.z.upper, xi_full, T)
    xTt, _ = endpoint_packed(gct.x, gct.z.upper, xi_t_full, T)
    for i in range(2):
        p1 = ks_test(xT[:, i], scipy.stats.norm(loc=gc.x[i], scale=math.sqrt(T)).cdf)
        p2 = ks_test(xTt[:, i], scipy.stats.norm(loc=gct.x[i], scale=math.sqrt(T)).cdf)
        ok &= p1 > 0.01 and p2 > 0.01
        notes.append(f"KS x{i}: p={p1:.3f}/{p2:.3f}")
    # vertical variance T^2/4 at identity start
    xi0 = _couple_batch(gc, gc, [T], derive_rng(SEED, 41), N, two_index=True).xi
    tail0 = derive_rng(SEED, 42).standard_normal((N, k_path + 1 - xi0.shape[1], 2))
    _, zT0 = endpoint_packed(gc.x, gc.z.upper, np.concatenate([xi0, tail0], axis=1), T)
    var = float(zT0[:, 0].var())
    target = T * T / 4
    se = var * math.sqrt(6.0 / N)
    good = abs(var - target) <= 3 * se
    ok &= good
    notes.append(f"vert var {var:.4f} vs {target:.4f}")
    # series endpoints vs the SDE oracle, orders 1..4, n in {2, 3}, 4096 steps
    steps, N_leg, N_sde = 4096, 100_000, 25_000
    for n in (2, 3):
        gco = CarnotElement.identity(n)
        leg = run_vector_estimator(_legendre_moment_sampler(gco, 1.0, 128), N_leg,
                                   split_seed(SEED, 43 + n))
        sde = run_vector_estimator(_oracle_moment_sampler(gco, 1.0, steps), N_sde,
                                   split_seed(SEED, 45 + n))
        for a, b in zip(leg, sde):
            se = math.hypot(a.stderr, b.stderr)
            bias = (abs(b.mean) + 1.0) * 4.0 / steps
            ok &= abs(a.mean - b.mean) <= 3 * se + bias
        notes.append(f"n={n} moments ok")
    _report(4, "endpoint laws: " + "; ".join(notes), ok)


def test_criterion_05_wishart_identity():
    ok = True
    lines = []
    for i, (n, m) in enumerate(((2, 5), (3, 5), (3, 7))):
        est = wishart_inv_trace_mc(n, m, 100_000, split_seed(SEED, 50 + i))
        target = n / (m - n - 1)
        good = abs(est.mean - target) <= 3 * est.stderr
        ok &= good
        lines.append(f"({n},{m}): {est.mean:.3f} vs {target:g}")
    _report(5, "Wishart inverse-trace identity n/(m-n-1) [" + "; ".join(lines) + "]", ok)


def test_criterion_06_sylvester_residual():
    rng = derive_rng(SEED, 60)
    worst = 0.0
    for n in (2, 3, 4, 5, 6):
        m = 2 * n + 1
        count = 10_000
        v = rng.standard_normal((count, n, m))
        iu, ju = np.triu_indices(n, k=1)
        w = np.zeros((count, n, n))
        vals = rng.standard_normal((count, len(iu)))
        w[:, iu, ju] = vals
        w[:, ju, iu] = -vals
        u, _ = lemma_solution_batch(v, vals)
        resid = u @ np.swapaxes(v, 1, 2) - v @ np.swapaxes(u, 1, 2) - w
        rnorm = np.sqrt(np.sum(resid ** 2, axis=(1, 2)))
        wnorm = np.sqrt(np.sum(w ** 2, axis=(1, 2)))
        worst = max(worst, float(np.max(rnorm / (1.0 + wnorm))))
    _report(6, f"T-Sylvester residual ratio {worst:.2e} <= 1e-10 over 5x10^4 instances",
            worst <= 1e-10)


def test_criterion_07_girsanov_suite():
    H = lambda *a: heis_to_carnot(HeisenbergPoint(*a))
    ok = True
    notes = []
    identity_points = [
        (H(0, 0, 0), H(0, 0, 1), 100.0, 5),
        (H(0, 0, 0), H(0.3, 0.2, 0.05), 16.0, 8),
        (CarnotElement.identity(3),
         CarnotElement(np.zeros(3), SkewMatrix(3, np.array([0.3, 0.0, 0.0]))), 25.0, 12),
    ]
    for i, (g, gt, T, K) in enumerate(identity_points):
        rep = girsanov_normalization_check(g, gt, T, K, 1_000_000, split_seed(SEED, 70 + i))
        good = rep.normalization.passed and rep.entropy_identity.passed and rep.entropy_bounded
        ok &= good
        notes.append(f"point{i}: E[R]={rep.mean_R.mean:.4f}, "
                     f"gap z={rep.entropy_gap.mean / max(rep.entropy_gap.stderr, 1e-300):+.2f}")
    pairs = [
        (H(0, 0, 0), H(0, 0, 1), 100.0),
        (H(0, 0, 0), H(0.5, 0, 0), 25.0),
        (H(0, 0, 0), H(0.3, 0.2, 0.05), 16.0),
        (H(0.2, -0.3, 0), H(0.4, 0, 0.1), 9.0),
        (H(0, 0, 0), H(0.5, 0, 0.2), 4.0),
    ]
    for fname in ("constant", "gaussian-bump", "sin-perturbation"):
        f = CATALOG[fname]
        zs = []
        for j, (g, gt, T) in enumerate(pairs):
            tr = semigroup_transfer_check(f, g, gt, T, 8, 1_000_000,
                                          split_seed(SEED, 700 + 10 * j + list(CATALOG).index(fname)))
            ok &= tr.comparison.passed
            zs.append(tr.comparison.margin / max(tr.comparison.sigma, 1e-300))
        notes.append(f"transfer {fname}: z={['%+.1f' % z for z in zs]}")
    _report(7, "weight normalization, entropy identity and semigroup transfer "
               "[" + "; ".join(notes) + "]", ok)


def test_criterion_08_bismut_vs_finite_differences():
    gH = heis_to_carnot(HeisenbergPoint(0.3, -0.2, 0.1))
    g3 = CarnotElement(np.array([0.1, -0.2, 0.3]), SkewMatrix(3, np.array([0.1, 0.0, -0.1])))
    cases = [
        ("H horizontal", gH, horizontal_direction(gH, 0), 8),
        ("H vertical", gH, vertical_direction(2, 0), 8),
        ("rank3 horizontal", g3, horizontal_direction(g3, 1), 12),
        ("rank3 vertical", g3, vertical_direction(3, 2), 12),
    ]
    f = CATALOG["gaussian-bump"]
    eps = 1e-3
    ok = True
    notes = []
    for i, (name, g, h, K) in enumerate(cases):
        bg = bismut_gradient(f, g, h, 1.0, K, 1_000_000, split_seed(SEED, 80 + 2 * i))
        fd = finite_diff_gradient(f, g, h, 1.0, eps, 1_000_000,
                                  split_seed(SEED, 81 + 2 * i), K=K)
        se = math.hypot(bg.stderr, fd.stderr)
        bias = eps * (1.0 + abs(fd.mean))
        good = abs(bg.mean - fd.mean) <= 3 * se + bias
        ok &= good
        notes.append(f"{name}: {bg.mean:+.4f} vs {fd.mean:+.4f} (z={(bg.mean - fd.mean) / se:+.2f})")
    _report(8, "integration by parts matches central differences "
               "[" + "; ".join(notes) + "]", ok)


def test_criterion_09_functional_inequalities():
    H = lambda *a: heis_to_carnot(HeisenbergPoint(*a))
    ok = True
    notes = []
    gH, gtH = H(0.3, -0.2, 0.1), H(0.5, 0.0, 0.2)
    g3 = CarnotElement(np.array([0.1, -0.2, 0.3]), SkewMatrix(3, np.array([0.1, 0.0, -0.1])))
    gt3 = CarnotElement(np.array([0.3, 0.0, 0.1]), SkewMatrix(3, np.array([0.0, 0.2, 0.0])))
    grids = [
        ("H/sin", CATALOG["sin-perturbation"], gH, gtH, horizontal_direction(gH, 0), 4.0),
        ("H/const", CATALOG["constant"], gH, gtH, vertical_direction(2, 0), 4.0),
        ("rank3/sin", CATALOG["sin-perturbation"], g3, gt3, horizontal_direction(g3, 0), 9.0),
    ]
    for i, (name, f, g, gt, h, T) in enumerate(grids):
        rep = inequality_suite(f, g, gt, h, T, 400_000, split_seed(SEED, 90 + i))
        ok &= rep.all_passed
        notes.append(f"{name}: " + ",".join(c.name for c in rep.checks if c.passed))
    rng = derive_rng(SEED, 95)
    pts = [heis_to_carnot(HeisenbergPoint(*rng.uniform(-1, 1, 3))) for _ in range(5)]
    checks = gradient_sup_spotcheck(CATALOG["coordinate-bump"], pts, 1.0, 100_000,
                                    split_seed(SEED, 96))
    ok &= all(c.passed for c in checks)
    notes.append(f"5 gradient spot checks, max horizontal ratio "
                 f"{max(c.horizontal_norm / c.horizontal_bound for c in checks):.3f}")
    g3checks = gradient_sup_spotcheck(CATALOG["coordinate-bump"], [g3], 1.0, 60_000,
                                      split_seed(SEED, 97))
    ok &= all(c.passed for c in g3checks)
    _report(9, "log-Harnack, reverse Poincare, weak log-Sobolev and gradient spot "
               "checks [" + "; ".join(notes) + "]", ok)


def test_criterion_10_constants_and_special_functions():
    ok = True
    notes = []
    worst = max(abs(e.value - e.recompute()) / max(abs(e.value), 1.0)
                for e in constants_table())
    ok &= worst <= 1e-14
    notes.append(f"table reproduces to {worst:.1e}")

    # series vs gamma-series MC oracle; exponential / half chi-square fast paths
    L, N = 10_000, 100_000
    ell2 = (np.arange(1, L + 1, dtype=float) ** 2)[None, :]
    chunks = []
    rng = derive_rng(SEED, 100)
    for _ in range(N // 10_000):
        draws = rng.standard_exponential((10_000, L))
        chunks.append((2 / math.pi ** 2) * (draws / ell2).sum(axis=1))
    s1 = np.concatenate(chunks)
    chunks = []
    rng = derive_rng(SEED, 101)
    for _ in range(N // 10_000):
        draws = 0.5 * rng.standard_normal((10_000, L)) ** 2
        chunks.append((2 / math.pi ** 2) * (draws / ell2).sum(axis=1))
    s_half = np.concatenate(chunks)
    tail_mean = lambda h: 2 * h / (math.pi ** 2 * L)
    for (h, a), s in (((1.0, 1.0), s1), ((1.0, 0.5), s1), ((0.5, 0.5), s_half)):
        series = s_h_inverse_moment(h, a, terms=300_000)
        vals = s ** (-a)
        est, se = float(vals.mean()), float(vals.std() / math.sqrt(N))
        bias = a * tail_mean(h) * s_h_inverse_moment(h, a + 1.0, terms=300_000)
        good = abs(est - series) <= 3 * se + bias
        ok &= good
        notes.append(f"E[S^-{a:g}] h={h:g}: {est:.4f} vs {series:.4f}")
    assert s_h_inverse_moment(1.0, 1.0, terms=300_000) == pytest.approx(
        3.5 * float(zeta(3.0)), rel=1e-8
    )
    for a in (0.5, 1.0, 2.0):
        ok &= s_h_inverse_moment(1.0, a, terms=200_000) <= s_h_inverse_moment_bound(a)
    ok &= s_h_inverse_moment(0.5, 0.5, terms=300_000) <= 2 * math.sqrt(2) + math.sqrt(2) / 2
    lam = 1.0
    vals = np.exp(-lam * s1)
    est, se = float(vals.mean()), float(vals.std() / math.sqrt(N))
    good = abs(est - s_h_laplace(lam, 1.0)) <= 3 * se + lam * tail_mean(1.0)
    ok &= good
    notes.append(f"Laplace at 1: {est:.4f} vs {s_h_laplace(lam, 1.0):.4f}")
    # transform slope at zero equals the mean: E[S_1] = 1/3
    mean_se = float(s1.std() / math.sqrt(N))
    ok &= abs(float(s1.mean()) - 1.0 / 3.0) <= 3 * mean_se + tail_mean(1.0)
    _report(10, "constant table and weighted chi-square functionals "
                "[" + "; ".join(notes) + "]", ok)


def test_criterion_11_dilation_invariance():
    ok = True
    notes = []
    H = lambda *a: heis_to_carnot(HeisenbergPoint(*a))
    g, gt, T = H(0, 0, 0), H(0.8, 0.1, 0.5), 9.0
    base = failure_probability(g, gt, [T], 100_000, split_seed(SEED, 110), two_index=True)[0]
    for lam in (0.5, 2.0):
        scaled = failure_probability(dilate(lam, g), dilate(lam, gt), [lam * lam * T],
                                     100_000, split_seed(SEED, 111), two_index=True)[0]
        se = math.hypot(base.stderr, scaled.stderr)
        good = abs(base.mean - scaled.mean) <= 3 * se
        ok &= good
        notes.append(f"H lam={lam:g}: {scaled.mean:.4f} vs {base.mean:.4f}")
    g3 = CarnotElement.identity(3)
    gt3 = CarnotElement(np.array([0.6, 0, 0]), SkewMatrix(3, np.array([0.4, 0, 0])))
    base3 = failure_probability(g3, gt3, [4.0], 40_000, split_seed(SEED, 112))[0]
    for lam in (0.5, 2.0):
        scaled = failure_probability(dilate(lam, g3), dilate(lam, gt3), [lam * lam * 4.0],
                                     40_000, split_seed(SEED, 113))[0]
        se = math.hypot(base3.stderr, scaled.stderr)
        good = abs(base3.mean - scaled.mean) <= 3 * se
        ok &= good
        notes.append(f"rank3 lam={lam:g}: {scaled.mean:.4f} vs {base3.mean:.4f}")
    _report(11, "failure probability is dilation invariant [" + "; ".join(notes) + "]", ok)


def test_criterion_12_reproducibility(tmp_path):
    specs = [
        ["couple", "--group", "heisenberg", "--g", "0,0,0", "--gt", "0,0,1",
         "--T", "25", "--N", "20000", "--seed", "5"],
        ["constants", "--format", "json", "--seed", "5"],
        ["sylvester", "--group", "carnot-3", "--N", "5000", "--seed", "5",
         "--format", "json"],
    ]
    ok = True
    for i, args in enumerate(specs):
        a, b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        cli_main(args + ["--out", str(a)])
        cli_main(args + ["--out", str(b)])
        ok &= a.read_bytes() == b.read_bytes()
    w1, w4 = tmp_path / "w1", tmp_path / "w4"
    base = ["couple", "--group", "heisenberg", "--g", "0,0,0", "--gt", "1,0,0",
            "--T", "25", "--N", "50000", "--seed", "5"]
    cli_main(base + ["--workers", "1", "--out", str(w1)])
    cli_main(base + ["--workers", "4", "--out", str(w4)])
    ok &= w1.read_bytes() == w4.read_bytes()
    doc = json.loads((tmp_path / "a1").read_text())
    ok &= any(r["check"] == "constant:heis_C2_improved" for r in doc["records"])
    _report(12, "CLI artifacts byte-identical under fixed (config, seed, workers)", ok)
