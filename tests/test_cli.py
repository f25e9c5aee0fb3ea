"""CLI: config round-trip, byte-identical artifacts, exit codes, grammar."""

import argparse
import json
import math
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from carnot_coupling import cli, coupling, girsanov, mc, special_constants
from carnot_coupling.catalog import CATALOG
from carnot_coupling.cli import COLUMNS, _recorder, build_parser, main
from carnot_coupling.groups import CarnotElement, HeisenbergPoint, SkewMatrix, heis_to_carnot
from carnot_coupling.legendre import truncation_index
from carnot_coupling.mc import split_seed

README = Path(__file__).resolve().parents[1] / "README.md"

# every name through which a cli handler samples or allocates per-instance arrays
SAMPLERS = ("failure_probability", "girsanov_normalization_check", "semigroup_transfer_check",
            "bismut_gradient", "finite_diff_gradient", "inequality_suite",
            "gradient_sup_spotcheck", "lemma_solution_batch", "wishart_inv_trace_mc",
            "u_moment_check", "run_vector_estimator", "derive_rng")

# the flags each subcommand's handler reads, and no others
FLAGS = {
    "constants": "seed out format",
    "couple": "group g gt T N seed workers out format variant",
    "marginals": "group g T N seed workers out format",
    "sylvester": "group N seed workers out format m",
    "girsanov": "group g gt T N seed K workers out format function",
    "bismut": "group g h T N seed K workers out format eps function",
    "inequalities": "group g gt h T N seed K workers out format function",
}

HEIS = ["--g", "0,0,0", "--gt", "0,0,1"]


def passing_suite(*args, **kwargs):
    """Stands in for `inequality_suite`: one passing check, no sampling."""
    return girsanov.InequalityReport([girsanov.InequalityCheck("stub", 0.0, 1.0, 0.0, True)])


def flag_sets(parser):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {a.dest for a in p._actions if a.option_strings and a.dest != "help"}
            for name, p in sub.choices.items()}


def run_cli(args, tmp_path=None):
    return main(args)


class TestParsing:
    def test_constants_runs_and_contains_improved_c2(self, capsys):
        code = run_cli(["constants", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert repr(5 * math.sqrt(21) / (math.pi * math.sqrt(math.pi))) in out

    def test_malformed_point_exits_2_without_output(self, tmp_path):
        out = tmp_path / "res.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(["couple", "--group", "heisenberg", "--g", "0,0", "--gt", "0,0,1",
                     "--T", "1", "--N", "100", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_missing_required_point_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["couple", "--group", "heisenberg", "--g", "0,0,0"])
        assert exc.value.code == 2

    def test_unknown_group_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["couple", "--group", "octonion", "--g", "0,0,0", "--gt", "0,0,1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv, flag", [
        (["couple", *HEIS], "--g"),
        (["couple", *HEIS], "--gt"),
        (["marginals", "--g", "0,0,0"], "--g"),
        (["girsanov", *HEIS], "--g"),
        (["girsanov", *HEIS], "--gt"),
        (["bismut", "--g", "0,0,0", "--h", "1,0,0"], "--g"),
        (["bismut", "--g", "0,0,0", "--h", "1,0,0"], "--h"),
        (["inequalities", *HEIS, "--h", "1,0,0"], "--g"),
        (["inequalities", *HEIS, "--h", "1,0,0"], "--gt"),
        (["inequalities", *HEIS, "--h", "1,0,0"], "--h"),
    ])
    def test_non_finite_coordinate_exits_2_unsampled(self, argv, flag, bad, monkeypatch,
                                                     tmp_path, capsys):
        for module in (mc, cli):
            monkeypatch.setattr(module, "derive_rng", lambda *a: pytest.fail("sampled"))
        argv = list(argv)
        at = argv.index(flag) + 1
        argv[at] = ",".join(argv[at].split(",")[:-1] + [bad])  # the last, vertical entry
        out = tmp_path / "res.csv"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--N", "100", "--out", str(out)])
        assert exc.value.code == 2
        assert "coordinates must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_first_coordinates_take_the_equals_form(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "inequality_suite", passing_suite)
        monkeypatch.setattr(cli, "gradient_sup_spotcheck", lambda *a, **k: [])
        out = tmp_path / "res.json"
        assert run_cli(["inequalities", "--g=-0.5,0,0", "--gt=-1,0.25,0", "--h=-1,0,0.5",
                        "--format", "json", "--out", str(out)]) == 0
        rec, = json.loads(out.read_text())["records"]
        assert (rec["g"], rec["gt"], rec["h"]) == ("-0.5,0.0,0.0", "-1.0,0.25,0.0",
                                                   "-1.0,0.0,0.5")

    def test_carnot_point_arity_checked(self):
        with pytest.raises(SystemExit):
            run_cli(["couple", "--group", "carnot-3", "--g", "0,0,0", "--gt", "0,0,0",
                     "--N", "10"])


class TestDeclaredFlags:
    def test_each_subcommand_takes_exactly_the_flags_it_reads(self):
        sets = flag_sets(build_parser())
        assert sets == {name: set(flags.split()) for name, flags in FLAGS.items()}
        assert sum(len(v) for v in sets.values()) == 63

    @pytest.mark.parametrize("argv", [
        ["constants", "--group", "carnot-3"],
        ["constants", "--T", "1"],
        ["constants", "--N", "10"],
        ["constants", "--K", "3"],
        ["constants", "--workers", "9"],
        ["couple", *HEIS, "--K", "5"],
        ["marginals", *HEIS],
        ["marginals", "--g", "0,0,0", "--K", "5"],
        ["sylvester", "--T", "1"],
        ["sylvester", "--K", "5"],
        ["bismut", *HEIS, "--h", "1,0,0"],
        ["marginals", "--g", "0,0,0", "--T", "4,100"],
        ["girsanov", *HEIS, "--T", "4,100"],
        ["bismut", "--g", "0,0,0", "--h", "1,0,0", "--T", "4,100"],
        ["inequalities", *HEIS, "--h", "1,0,0", "--T", "4,100"],
        ["couple", *HEIS, "--T", "0"],
        ["couple", *HEIS, "--T", "1,0"],
        ["girsanov", *HEIS, "--T", "nan"],
        ["couple", *HEIS, "--N", "1"],
        ["couple", *HEIS, "--workers", "0"],
        ["marginals", "--g", "0,0,0", "--steps", "512"],
        ["bismut", "--g", "0,0,0", "--h", "1,0,0", "--eps", "0"],
        ["bismut", "--g", "0,0,0"],
    ])
    def test_rejected_by_the_parser(self, argv, tmp_path, capsys):
        # the parser exits before any handler runs, so nothing is sampled
        out = tmp_path / "res.csv"
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_too_few_blocks_is_a_configuration_error(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        with pytest.raises(SystemExit) as exc:
            main(["girsanov", *HEIS, "--K", "1", "--N", "100", "--out", str(out)])
        assert exc.value.code == 2
        assert "need K >= n + 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["girsanov", *HEIS],
        ["bismut", "--g", "0,0,0", "--h", "1,0,0"],
        ["inequalities", *HEIS, "--h", "1,0,0"],
    ])
    def test_too_few_blocks_exit_2_before_any_draw(self, argv, monkeypatch, tmp_path, capsys):
        # K = 3 passes the memory check, and on rank 2 the shift solve would accept it
        draws = []
        monkeypatch.setattr(mc, "derive_rng", lambda *a: draws.append(a))
        out = tmp_path / "res.csv"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--K", "3", "--N", "100", "--out", str(out)])
        assert exc.value.code == 2
        assert "need K >= n + 2" in capsys.readouterr().err
        assert draws == [] and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["girsanov", *HEIS],
        ["bismut", "--g", "0,0,0", "--h", "1,0,0"],
    ])
    def test_zero_K_is_rejected_not_replaced_by_the_default(self, argv, tmp_path, capsys):
        out = tmp_path / "res.json"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--K", "0", "--N", "100", "--format", "json", "--out", str(out)])
        assert exc.value.code == 2
        assert "need K >= n + 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["girsanov", *HEIS],
        ["bismut", "--g", "0,0,0", "--h", "1,0,0"],
        ["inequalities", *HEIS, "--h", "1,0,0"],
    ])
    def test_oversized_K_rejected_before_any_allocation(self, argv, monkeypatch, tmp_path,
                                                        capsys):
        # 10^7 blocks would ask for a 7.15 TiB coefficient array in the first batch
        for name in SAMPLERS:
            monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("sampled"))
        out = tmp_path / "res.csv"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--K", "10000000", "--N", "100", "--out", str(out)])
        assert exc.value.code == 2
        assert "over the budget of 256 MiB" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("group, workers, largest", [
        ("heisenberg", 1, 949331), ("carnot-3", 1, 651499), ("heisenberg", 2, 469982),
        ("carnot-3", 2, 322534),
    ])
    def test_K_budget_is_one_row_tile_per_batch(self, group, workers, largest):
        # every worker holds one row tile of its batch at once, so the budget binds only
        # once a tile is a single row, whose draw alone fits the budget several times
        n = cli._parse_group(group)
        assert mc.tile_rows((3 * largest + 2) * n) == 1
        assert 4 * workers * (3 * largest + 2) * n * 8 <= cli.MAX_BATCH_BYTES
        args = lambda K: argparse.Namespace(K=K, N=4 * mc.BATCH_SIZE, workers=workers)
        assert cli._support_count(args(largest), n) == largest
        with pytest.raises(ValueError, match="over the budget"):
            cli._support_count(args(largest + 1), n)

    def test_K_budget_counts_only_the_batches_that_run(self):
        # one batch of N rows runs alone, whatever --workers says
        args = argparse.Namespace(K=949331, N=mc.BATCH_SIZE, workers=2)
        assert cli._support_count(args, 2) == 949331
        # a shorter batch holds fewer statistics beside its tile
        args = argparse.Namespace(K=949331 + 1000, N=mc.BATCH_SIZE // 4, workers=1)
        assert cli._support_count(args, 2) == 949331 + 1000

    @pytest.mark.parametrize("group, K", [("heisenberg", 400), ("carnot-3", 300)])
    def test_K_count_bounds_the_traced_peak_of_a_batch(self, group, K, monkeypatch):
        # one batch of each girsanov estimator, three row tiles long, against the count
        # that girsanov, bismut and inequalities check at N = rows
        counted = []
        rows = 1024

        def count(args, what, row_values, kept_values=0):
            counted.append(row_values)
            raise ValueError("counted")  # exit 2 before any sampling

        monkeypatch.setattr(cli, "_check_memory", count)
        n = cli._parse_group(group)
        pairs = n * (n - 1) // 2
        point = ",".join(["0"] * (n + pairs))
        with pytest.raises(SystemExit):
            main(["inequalities", "--group", group, "--g", point, "--gt", point, "--h", point,
                  "--K", str(K), "--N", str(rows)])
        assert -(-rows // mc.tile_rows((3 * K + 2) * n)) == 3
        g = CarnotElement.identity(n)
        gt = CarnotElement(np.full(n, 0.3), SkewMatrix(n, np.eye(1, pairs)[0]))
        h = girsanov.horizontal_direction(g, 0)
        bump, sin = CATALOG["gaussian-bump"], CATALOG["sin-perturbation"]
        estimators = [
            lambda N: girsanov.girsanov_normalization_check(g, gt, 4.0, K, N, 1),
            lambda N: girsanov.semigroup_transfer_check(bump, g, gt, 4.0, K, N, 1),
            lambda N: girsanov.bismut_gradient(bump, g, h, 4.0, K, N, 1),
            lambda N: girsanov.finite_diff_gradient(bump, g, h, 4.0, 1e-3, N, 1, K=K),
            lambda N: girsanov.inequality_suite(sin, g, gt, h, 4.0, N, 1, K=K),
        ]
        peaks = []
        for estimator in estimators:
            estimator(4)  # first-call caches, untraced
            tracemalloc.start()
            try:
                estimator(rows)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert 8 * rows * counted[0] >= max(peaks)

    def test_inequalities_samples_the_validated_K(self, monkeypatch, tmp_path):
        seen = []
        monkeypatch.setattr(cli, "inequality_suite",
                            lambda *a, K, **k: seen.append(K) or girsanov.InequalityReport([]))
        monkeypatch.setattr(cli, "gradient_sup_spotcheck", lambda *a, K, **k: seen.append(K) or [])
        main(["inequalities", *HEIS, "--h", "1,0,0", "--N", "100",
              "--out", str(tmp_path / "res.csv")])
        assert seen == [5, 5]  # the default 2n+1, not the unset flag

    @pytest.mark.parametrize("argv", [
        ["sylvester", "--group", "carnot-3000", "--N", "100"],
        ["sylvester", "--group", "heisenberg", "--m", "100000000", "--N", "100"],
        ["marginals", "--g", "0,0,0", "--N", "2000000000"],
        ["marginals", "--g", "0,0,0", "--N", "1000000", "--workers", "16"],
        ["bismut", "--g", "0,0,0", "--h", "1,0,0", "--K", "469983", "--N", "65536",
         "--workers", "2"],
        ["couple", "--group", "carnot-40", "--g", ",".join(["0"] * 820),
         "--gt", ",".join(["0"] * 820)],
    ])
    def test_oversized_run_rejected_before_any_sampling(self, argv, monkeypatch, tmp_path,
                                                       capsys):
        for name in SAMPLERS:
            monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("sampled"))
        out = tmp_path / "res.csv"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert "over the budget of 256 MiB" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", [4, 8, 10])
    def test_couple_count_bounds_the_traced_peak_of_a_batch(self, n, monkeypatch, tmp_path):
        # a whole run over two horizons at N = one batch
        counted = []
        check = cli._check_memory

        def count(args, what, row_values, kept_values=0):
            counted.append(8 * (min(args.N, mc.BATCH_SIZE) * row_values + kept_values))
            check(args, what, row_values, kept_values)

        monkeypatch.setattr(cli, "_check_memory", count)
        pairs = n * (n - 1) // 2
        gt = ",".join(["0.3"] * n + ["1"] + ["0"] * (pairs - 1))
        argv = ["couple", "--group", f"carnot-{n}", "--g", ",".join(["0"] * (n + pairs)),
                "--gt", gt, "--T", "1,25", "--out", str(tmp_path / "res.csv")]
        main(argv + ["--N", "64"])  # first-call caches, untraced
        counted.clear()
        tracemalloc.start()
        try:
            main(argv + ["--N", "4096"])  # one tile at n = 4, two at n = 8, three at n = 10
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counted[0] >= peak

    @pytest.mark.parametrize("n", [4, 8, 10])
    def test_sylvester_count_bounds_the_traced_peak(self, n, monkeypatch, tmp_path):
        # a whole run at N = one batch: the residual pass, then one batch of each estimator
        counted = []
        check = cli._check_memory

        def count(args, what, row_values, kept_values=0):
            counted.append(8 * (min(args.N, mc.BATCH_SIZE) * row_values + kept_values))
            check(args, what, row_values, kept_values)

        monkeypatch.setattr(cli, "_check_memory", count)
        argv = ["sylvester", "--group", f"carnot-{n}", "--out", str(tmp_path / "res.csv")]
        main(argv + ["--N", "64"])  # first-call caches, untraced
        counted.clear()
        tracemalloc.start()
        try:
            main(argv + ["--N", str(mc.BATCH_SIZE)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(counted) >= peak

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_marginals_count_bounds_the_traced_peak_of_a_batch(self, n, monkeypatch):
        # the counts `marginals` checks at N = rows, against its KS test and one batch of
        # its moments
        counted = []
        rows = 4096

        def sampled(*a):
            raise ValueError("sampled")  # exit 2 once the counts are checked

        monkeypatch.setattr(cli, "_check_memory",
                            lambda args, what, row_values, kept_values=0:
                            counted.append((row_values, kept_values)))
        monkeypatch.setattr(cli, "derive_rng", sampled)
        point = ",".join(["0"] * (n + n * (n - 1) // 2))
        with pytest.raises(SystemExit):
            main(["marginals", "--group", f"carnot-{n}", "--g", point, "--N", str(rows)])
        (_, ks), (row_values, kept) = counted
        k_path, g = truncation_index(1.0 / 32.0, 1.0), CarnotElement.identity(n)
        sampler = cli._legendre_moment_sampler(g, 1.0, k_path)
        mc._batch_stats(sampler, 1, 0, 64)  # first-call caches, untraced
        cli._ks_p_values(g, 1.0, 64, mc.derive_rng(1))
        tracemalloc.start()
        try:
            mc._batch_stats(sampler, 1, 0, rows)
            moments = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            cli._ks_p_values(g, 1.0, rows, mc.derive_rng(1))
            ks_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept == 0 and 8 * rows * row_values >= moments
        assert 8 * ks >= ks_peak

    def test_marginals_on_carnot_4_fits_the_budget_at_the_default_N(self, monkeypatch):
        # one 16384-row batch holds one row tile of coefficients, not all of them
        def sampled(*a):
            raise RuntimeError("sampled")

        monkeypatch.setattr(cli, "derive_rng", sampled)  # the KS test's draw, the first
        with pytest.raises(RuntimeError, match="sampled"):
            main(["marginals", "--group", "carnot-4", "--g", ",".join(["0"] * 10)])

    @pytest.mark.parametrize("n", [9, 10])
    def test_rank_10_couple_batch_runs(self, n, tmp_path):
        # a 16384-row batch over two horizons holds one row tile of its coefficients
        pairs = n * (n - 1) // 2
        gt = ",".join(["0.3"] * n + ["1"] + ["0"] * (pairs - 1))
        out = tmp_path / "res.csv"
        assert main(["couple", "--group", f"carnot-{n}", "--g", ",".join(["0"] * (n + pairs)),
                     "--gt", gt, "--T", "1,25", "--N", "16384", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_malformed_env_seed_exits_2_naming_the_variable(self, monkeypatch, tmp_path,
                                                           capsys):
        monkeypatch.setenv(cli.ENV_SEED, "abc")
        out = tmp_path / "res.csv"
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "carnot-coupling: error: CARNOT_COUPLING_SEED='abc' is not an integer\n")
        assert not out.exists()

    @pytest.mark.parametrize("m", ["0", "4"])
    def test_too_few_probe_columns_rejected_before_the_residual_pass(self, m, monkeypatch,
                                                                   tmp_path, capsys):
        monkeypatch.setattr(cli, "lemma_solution_batch", lambda *a: pytest.fail("residual pass ran"))
        out = tmp_path / "res.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sylvester", "--group", "carnot-3", "--m", m, "--N", "100", "--out", str(out)])
        assert exc.value.code == 2
        assert "--m must be at least n + 2 = 5" in capsys.readouterr().err
        assert not out.exists()

    def test_improved_variant_on_the_heisenberg_sampler_rejected_unsampled(self, monkeypatch,
                                                                          tmp_path, capsys):
        # the refined constants do not cover the K = 1 coupling; carnot-2 samples K = 5
        draws = []
        monkeypatch.setattr(mc, "derive_rng", lambda *a: draws.append(a))
        monkeypatch.setattr(cli, "failure_probability", lambda *a, **k: pytest.fail("sampled"))
        out = tmp_path / "res.csv"
        with pytest.raises(SystemExit) as exc:
            main(["couple", *HEIS, "--T", "25,100", "--variant", "improved-remark2",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "--group carnot-2" in capsys.readouterr().err
        assert draws == [] and not out.exists()

    def test_heisenberg_variant_on_a_carnot_group_rejected_unsampled(self, monkeypatch):
        monkeypatch.setattr(cli, "failure_probability", lambda *a: pytest.fail("sampled"))
        with pytest.raises(SystemExit) as exc:
            main(["couple", "--group", "carnot-3", "--g", "0,0,0,0,0,0", "--gt", "0,0,0,1,0,0",
                  "--variant", "improved-remark2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["couple", *HEIS, "--N", "100"], ["constants"]])
    @pytest.mark.parametrize("where", ["missing/res.csv", "."])
    def test_unwritable_out_exits_2_unsampled(self, argv, where, monkeypatch, tmp_path, capsys):
        # a directory, or a file in a missing directory, fails before any sampling
        monkeypatch.setattr(cli, "failure_probability", lambda *a, **k: pytest.fail("sampled"))
        monkeypatch.setattr(cli, "constants_table", lambda: pytest.fail("computed"))
        out = str(tmp_path / where)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and repr(out) in err[0]

    @pytest.mark.parametrize("argv", [
        ["couple", "--group", "carnot-3", "--g", "0,0,0,0,0,0", "--gt", "0,0,0,1,0,0"],
        ["girsanov", *HEIS],
    ])
    def test_singular_gram_exits_3(self, argv, monkeypatch, tmp_path, capsys):
        # every shift goes through `coupling.shift_batch`, which reads this limit
        monkeypatch.setattr(coupling, "COND_LIMIT", 0.0)  # every Gram row counts as singular
        out = tmp_path / "res.csv"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--N", "100", "--out", str(out)])
        assert exc.value.code == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "singular" in err[0]
        assert not out.exists()


def documented_flags(text):
    """Subcommand -> flag names, from the lines `name  --flag --flag ...` of a document."""
    return {m[1]: set(re.findall(r"--(\w+)", m[2]))
            for m in re.finditer(r"^([a-z]+) +((?:--\w+ ?)+)$", text, re.M)}


class TestDocs:
    def test_readme_cli_section_matches_the_parser(self):
        section = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("\n## ", 1)[0]
        block = section.split("```bash", 1)[1].split("```", 1)[0]
        examples = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                    if line.strip()]
        assert {argv[1] for argv in examples} == set(FLAGS)
        for argv in examples:
            assert argv[0] == "carnot-coupling"
            build_parser().parse_args(argv[1:])
        assert documented_flags(section) == flag_sets(build_parser())

    def test_help_text_lists_the_parser_flags(self):
        assert documented_flags(cli.__doc__) == flag_sets(build_parser())


class TestArtifacts:
    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["couple", "--group", "heisenberg", "--g", "0,0,0", "--gt", "0,0,1",
                "--T", "25", "--N", "5000", "--seed", "11"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_workers_do_not_change_artifact(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["couple", "--group", "heisenberg", "--g", "0,0,0", "--gt", "1,0,0",
                "--T", "25", "--N", "40000", "--seed", "12"]
        run_cli(base + ["--workers", "1", "--out", str(a)])
        run_cli(base + ["--workers", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_couple_grid_is_one_pass_with_the_single_horizon_records(self, monkeypatch,
                                                                     tmp_path):
        grids = []
        sample = cli.failure_probability
        monkeypatch.setattr(cli, "failure_probability",
                            lambda g, gt, Ts, *rest, **kw: grids.append(Ts)
                            or sample(g, gt, Ts, *rest, **kw))
        base = ["couple", "--group", "carnot-3", "--g", "0,0,0,0,0,0", "--gt", "1,0,0,0.5,0,0",
                "--N", "3000", "--seed", "14"]
        grid = tmp_path / "grid.csv"
        run_cli(base + ["--T", "4,1,4", "--out", str(grid)])
        assert grids == [[4.0, 1.0, 4.0]]
        rows = []
        for T in ("4", "1", "4"):
            out = tmp_path / f"T{T}.csv"
            run_cli(base + ["--T", T, "--out", str(out)])
            rows += out.read_text().splitlines()[1:]
        assert grid.read_text().splitlines()[1:] == rows

    @pytest.mark.parametrize("variant", ["proof-stage", "carnot-n"])
    def test_heisenberg_record_is_the_one_block_estimate(self, variant, tmp_path):
        out = tmp_path / "res.json"
        run_cli(["couple", "--group", "heisenberg", "--g", "0.3,-0.2,0.1", "--gt", "0.5,0,0.6",
                 "--T", "1,25", "--N", "3000", "--seed", "17", "--workers", "2",
                 "--variant", variant, "--format", "json", "--out", str(out)])
        got = [(r["estimate"], r["stderr"]) for r in json.loads(out.read_text())["records"]]
        g, gt = (heis_to_carnot(HeisenbergPoint(*p)) for p in ((0.3, -0.2, 0.1), (0.5, 0, 0.6)))
        for K, same in ((1, True), (None, False)):
            ests = coupling.failure_probability(g, gt, [1.0, 25.0], 3000, 17, 2, K=K)
            assert (got == [(e.conditional.mean, e.conditional.stderr) for e in ests]) == same

    @pytest.mark.parametrize("group, gt, K", [("heisenberg", "0,0,1", 1),
                                              ("carnot-3", "0,0,0,1,0,0", 7)])
    def test_couple_records_the_sampled_block_count(self, group, gt, K, monkeypatch,
                                                    tmp_path):
        sampled = []

        def spy(*args, K):
            sampled.append(K)
            return coupling.failure_probability(*args, K=K)

        monkeypatch.setattr(cli, "failure_probability", spy)
        out = tmp_path / "res.json"
        g = ",".join(["0"] * len(gt.split(",")))
        run_cli(["couple", "--group", group, "--g", g, "--gt", gt, "--T", "1,25", "--N", "200",
                 "--format", "json", "--out", str(out)])
        assert sampled == [K]
        assert [r["K"] for r in json.loads(out.read_text())["records"]] == [K, K]

    def test_heisenberg_variant_on_carnot_2_bounds_the_rank_n_coupling(self, tmp_path):
        # rank 2 is the Heisenberg group, so its constants apply; the group
        # still picks the 2n+1-block sampler
        out = tmp_path / "res.json"
        code = run_cli(["couple", "--group", "carnot-2", "--g", "0,0,0", "--gt", "0,0,1",
                        "--T", "25", "--N", "3000", "--seed", "18", "--variant", "proof-stage",
                        "--format", "json", "--out", str(out)])
        assert code == 0
        rec, = json.loads(out.read_text())["records"]
        g, gt = heis_to_carnot(HeisenbergPoint(0, 0, 0)), heis_to_carnot(HeisenbergPoint(0, 0, 1))
        est = coupling.failure_probability(g, gt, [25.0], 3000, 18)[0].conditional
        assert (rec["estimate"], rec["stderr"]) == (est.mean, est.stderr)
        assert rec["bound"] == coupling.tv_bound(g, gt, 25.0, "proof-stage").total

    def test_improved_variant_samples_carnot_2(self, tmp_path):
        out = tmp_path / "res.json"
        code = run_cli(["couple", "--group", "carnot-2", "--g", "0,0,0", "--gt", "0,0,1",
                        "--T", "25", "--N", "3000", "--seed", "18",
                        "--variant", "improved-remark2", "--format", "json", "--out", str(out)])
        rec, = json.loads(out.read_text())["records"]
        assert (code, rec["K"], rec["check"]) == (0, 5, "couple:improved-remark2")

    def test_json_schema_and_config_roundtrip(self, tmp_path):
        out = tmp_path / "res.json"
        run_cli(["couple", "--group", "heisenberg", "--g", "0,0,0", "--gt", "0,0,1",
                 "--T", "25", "--N", "2000", "--seed", "13", "--format", "json",
                 "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["columns"] == COLUMNS
        assert json.dumps(doc["config"], sort_keys=True) == json.dumps(
            json.loads(json.dumps(doc["config"])), sort_keys=True
        )
        rec = doc["records"][0]
        assert set(rec) == set(COLUMNS)
        for field in ("reference", "seed", "N", "estimate", "stderr", "bound", "passed"):
            assert field in rec

    @pytest.mark.parametrize("gt, T, warned", [("0,0,4", "1", True), ("0,0,1", "100", False)])
    def test_girsanov_warns_on_stderr_when_few_weights_carry_the_transfer(self, gt, T, warned,
                                                                         tmp_path, capsys):
        # |zeta| = 4 at T = 1 makes the shift long on every draw: the Kish fraction of R
        # and of the transfer's pair-mean weights sits near 1/N (5.0e-4 here); at T = 100
        # and |zeta| = 1 both are above 0.99
        out = tmp_path / "res.json"
        run_cli(["girsanov", "--g", "0,0,0", "--gt", gt, "--T", T, "--N", "2000",
                 "--seed", "16", "--format", "json", "--out", str(out)])
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 * int(warned)
        if warned:
            for line, check in zip(err, ["girsanov:normalization",
                                         "girsanov:transfer-gaussian-bump"]):
                assert line.startswith(f"carnot-coupling: warning: {check} weights have a "
                                       "Kish ESS fraction of ")
        records = json.loads(out.read_text())["records"]
        assert [r["check"] for r in records] == [
            "girsanov:normalization", "girsanov:entropy-identity", "girsanov:entropy-bound",
            "girsanov:transfer-gaussian-bump"]

    def test_girsanov_artifact_is_unchanged_by_the_warnings(self, tmp_path, monkeypatch):
        # the warnings go to stderr only: warned or not, the artifact has the same bytes
        argv = ["girsanov", "--g", "0,0,0", "--gt", "0,0,4", "--T", "1", "--N", "2000",
                "--seed", "16", "--format", "json"]
        run_cli(argv + ["--out", str(tmp_path / "warned.json")])
        monkeypatch.setattr(cli, "_warn_few_weights", lambda check, ess: None)
        run_cli(argv + ["--out", str(tmp_path / "silent.json")])
        assert (tmp_path / "warned.json").read_bytes() == (tmp_path / "silent.json").read_bytes()

    def test_record_fields_are_keyword_only(self):
        args = build_parser().parse_args(["constants"])
        record = _recorder(args)
        with pytest.raises(TypeError):
            record("ref", "check", 1.0, 0.1, 2.0, True)
        rec = record("ref", "check", estimate=1.0, stderr=0.1, bound=2.0, passed=True)
        assert (rec.estimate, rec.stderr, rec.bound) == (1.0, 0.1, 2.0)

    def test_constants_check_flags_a_faulty_library_function(self, monkeypatch, tmp_path):
        real = special_constants.heisenberg_constants
        monkeypatch.setattr(special_constants, "heisenberg_constants",
                            lambda variant="improved": tuple(1.01 * c for c in real(variant)))
        out = tmp_path / "res.json"
        assert run_cli(["constants", "--format", "json", "--out", str(out)]) == 1
        failed = {r["check"] for r in json.loads(out.read_text())["records"] if not r["passed"]}
        assert failed == {f"constant:heis_{c}_{v}" for c in ("C1", "C2")
                          for v in ("proof_stage", "improved")}

    def test_inequalities_K_reaches_the_gradient_spot_check(self, tmp_path):
        out = tmp_path / "res.json"
        run_cli(["inequalities", "--g", "0.3,-0.2,0.1", "--gt", "0.5,0,0.2", "--h", "1,0,0",
                 "--T", "4", "--K", "8", "--N", "2000", "--seed", "3", "--format", "json",
                 "--out", str(out)])
        spot, = (r for r in json.loads(out.read_text())["records"]
                 if r["check"] == "inequalities:gradient-spot")
        g = heis_to_carnot(HeisenbergPoint(0.3, -0.2, 0.1))
        ref, = girsanov.gradient_sup_spotcheck(CATALOG["sin-perturbation"], [g], 4.0, 200,
                                               split_seed(3, 40), K=8)
        assert spot["K"] == 8 and spot["estimate"] == ref.horizontal_norm

    def test_gradient_spot_records_each_direction_apart(self, monkeypatch, tmp_path):
        g = heis_to_carnot(HeisenbergPoint(0.3, -0.2, 0.1))
        spot = girsanov.GradientSpotCheck(g, 0.5, 0.01, 1.0, 2.0, 0.01, 1.0)
        assert spot.horizontal_passed and not spot.vertical_passed and not spot.passed
        monkeypatch.setattr(cli, "inequality_suite", passing_suite)
        monkeypatch.setattr(cli, "gradient_sup_spotcheck", lambda *a, **k: [spot])
        out = tmp_path / "res.json"
        code = run_cli(["inequalities", *HEIS, "--h", "1,0,0", "--format", "json",
                        "--out", str(out)])
        assert code == 1
        records = {r["check"]: r for r in json.loads(out.read_text())["records"]}
        assert [c for c, r in records.items() if not r["passed"]] == [
            "inequalities:gradient-spot-vertical"]
        for check, (norm, sigma, bound) in (("inequalities:gradient-spot", (0.5, 0.01, 1.0)),
                                            ("inequalities:gradient-spot-vertical",
                                             (2.0, 0.01, 1.0))):
            r = records[check]
            assert (r["estimate"], r["stderr"], r["bound"]) == (norm, sigma, bound)

    def test_marginals_holds_one_tile_of_coefficients(self, monkeypatch, tmp_path):
        # small tiles keep the test light; N spans eight full tiles and a partial one
        N = 8 * 1024 + 100
        row = (truncation_index(1.0 / 32.0, 1.0) + 1) * 2 * 8
        argv = ["marginals", "--g", "0,0,0", "--N", str(N), "--seed", "4", "--format", "json"]
        monkeypatch.setattr(mc, "TILE_BYTES", N * row)  # all N paths at once
        run_cli(argv + ["--out", str(tmp_path / "whole.json")])
        monkeypatch.setattr(mc, "TILE_BYTES", 1024 * row)
        tracemalloc.start()
        try:
            run_cli(argv + ["--out", str(tmp_path / "tiled.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < N * row
        # no record depends on the tile size
        assert (tmp_path / "whole.json").read_bytes() == (tmp_path / "tiled.json").read_bytes()

    @pytest.mark.parametrize("workers, cores", [(1, 1), (1, 2), (2, 2), (2, 4)])
    def test_couple_artifact_does_not_depend_on_workers_or_draw_ahead(self, workers, cores,
                                                                       monkeypatch, tmp_path):
        # three batches of 40-row tiles; one worker on two cores, or two on four, draw ahead
        argv = ["couple", "--group", "carnot-3", "--g", "0,0,0,0,0,0", "--gt", "0,0,0,1,0,0",
                "--T", "1,25", "--N", "5000", "--seed", "5"]
        monkeypatch.setattr(mc, "BATCH_SIZE", 2048)
        monkeypatch.setattr(mc, "_usable_cores", lambda: 1)
        run_cli(argv + ["--out", str(tmp_path / "whole.csv")])
        monkeypatch.setattr(mc, "_usable_cores", lambda: cores)
        monkeypatch.setattr(mc, "TILE_BYTES", 40 * 23 * 3 * 8)
        run_cli(argv + ["--workers", str(workers), "--out", str(tmp_path / "tiled.csv")])
        assert (tmp_path / "whole.csv").read_bytes() == (tmp_path / "tiled.csv").read_bytes()

    def test_marginals_ks_test_draws_xi_0_alone(self, tmp_path):
        # x_T = x + sqrt(T) xi_0 with xi_0 (N, n) from substream 101 of the seed
        out = tmp_path / "res.json"
        run_cli(["marginals", "--g", "0.5,-1,0", "--T", "4", "--N", "3000", "--seed", "6",
                 "--format", "json", "--out", str(out)])
        got = [r["estimate"] for r in json.loads(out.read_text())["records"]
               if r["check"].startswith("marginals:ks-x")]
        x = np.array([0.5, -1.0]) + 2.0 * mc.derive_rng(6, 101).standard_normal((3000, 2))
        assert got == [mc.ks_test(x[:, i], lambda v: scipy.stats.norm.cdf(v, loc, 2.0))
                       for i, loc in enumerate([0.5, -1.0])]

    def test_couple_holds_one_tile_of_coefficients(self, monkeypatch, tmp_path):
        # small tiles keep the test light; N spans eight full tiles and a partial one
        N, K = 8 * 1024 + 100, coupling.default_support_count(3)
        row = (3 * K + 2) * 3 * 8
        argv = ["couple", "--group", "carnot-3", "--g", "0,0,0,0,0,0", "--gt", "0,0,0,1,0,0",
                "--T", "1,25", "--N", str(N), "--seed", "4", "--format", "json"]
        monkeypatch.setattr(mc, "TILE_BYTES", N * row)  # all N rows at once
        run_cli(argv + ["--out", str(tmp_path / "whole.json")])
        monkeypatch.setattr(mc, "TILE_BYTES", 1024 * row)
        tracemalloc.start()
        try:
            run_cli(argv + ["--out", str(tmp_path / "tiled.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < N * row
        # no record depends on the tile size
        assert (tmp_path / "whole.json").read_bytes() == (tmp_path / "tiled.json").read_bytes()

    def test_csv_has_fixed_header(self, tmp_path):
        out = tmp_path / "res.csv"
        run_cli(["constants", "--out", str(out)])
        assert out.read_text().splitlines()[0] == ",".join(COLUMNS)

    def test_exit_one_on_failed_check(self, monkeypatch, tmp_path):
        # a zero bound fails a record whose failure estimate is several stderrs above 0
        monkeypatch.setattr(cli, "tv_bound",
                            lambda g, gt, T, variant: coupling.BoundReport(0.0, 0.0, 0.0, variant))
        out = tmp_path / "fail.csv"
        code = run_cli(["couple", "--group", "heisenberg", "--g", "0,0,0",
                        "--gt", "0,0,1", "--T", "25", "--N", "40000", "--seed", "14",
                        "--out", str(out)])
        assert code == 1
        header, row = out.read_text().splitlines()
        assert row.endswith(",False")

    def test_sylvester_subcommand(self, tmp_path):
        out = tmp_path / "syl.csv"
        code = run_cli(["sylvester", "--group", "carnot-3", "--N", "5000",
                        "--seed", "15", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "sylvester:residual" in text and "sylvester:wishart-trace" in text


class TestSubprocessEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "carnot_coupling", "constants", "--format", "json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert any(r["check"] == "constant:heis_C2_improved" for r in doc["records"])

    def test_env_seed_respected(self):
        import os

        env = dict(os.environ)
        env["CARNOT_COUPLING_SEED"] = "777"
        proc = subprocess.run(
            [sys.executable, "-m", "carnot_coupling", "constants", "--format", "json"],
            capture_output=True, text=True, env=env,
        )
        doc = json.loads(proc.stdout)
        assert doc["config"]["seed"] == 777
