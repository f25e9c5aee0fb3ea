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

import pytest

from carnot_coupling import cli, coupling, girsanov, mc, special_constants
from carnot_coupling.catalog import CATALOG
from carnot_coupling.cli import COLUMNS, _recorder, build_parser, main
from carnot_coupling.groups import HeisenbergPoint, heis_to_carnot
from carnot_coupling.legendre import truncation_index
from carnot_coupling.mc import split_seed

README = Path(__file__).resolve().parents[1] / "README.md"

# the flags each subcommand's handler reads, and no others
FLAGS = {
    "constants": "seed out format",
    "couple": "group g gt T N seed workers out format variant",
    "marginals": "group g T N seed workers out format steps",
    "sylvester": "group N seed workers out format m",
    "girsanov": "group g gt T N seed K workers out format function",
    "bismut": "group g h T N seed K workers out format eps function",
    "inequalities": "group g gt h T N seed K workers out format function",
}

HEIS = ["--g", "0,0,0", "--gt", "0,0,1"]


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

    def test_carnot_point_arity_checked(self):
        with pytest.raises(SystemExit):
            run_cli(["couple", "--group", "carnot-3", "--g", "0,0,0", "--gt", "0,0,0",
                     "--N", "10"])


class TestDeclaredFlags:
    def test_each_subcommand_takes_exactly_the_flags_it_reads(self):
        sets = flag_sets(build_parser())
        assert sets == {name: set(flags.split()) for name, flags in FLAGS.items()}
        assert sum(len(v) for v in sets.values()) == 64

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
        ["marginals", "--g", "0,0,0", "--steps", "0"],
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
    ])
    def test_zero_K_is_rejected_not_replaced_by_the_default(self, argv, tmp_path, capsys):
        out = tmp_path / "res.json"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--K", "0", "--N", "100", "--format", "json", "--out", str(out)])
        assert exc.value.code == 2
        assert "need K >= n + 2" in capsys.readouterr().err
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

    def test_heisenberg_variant_on_a_carnot_group_rejected_unsampled(self, monkeypatch):
        monkeypatch.setattr(cli, "failure_probability", lambda *a: pytest.fail("sampled"))
        with pytest.raises(SystemExit) as exc:
            main(["couple", "--group", "carnot-3", "--g", "0,0,0,0,0,0", "--gt", "0,0,0,1,0,0",
                  "--variant", "improved-remark2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("module, argv", [
        (coupling, ["couple", "--group", "carnot-3", "--g", "0,0,0,0,0,0",
                    "--gt", "0,0,0,1,0,0"]),
        (girsanov, ["girsanov", *HEIS]),
    ])
    def test_singular_gram_exits_3(self, module, argv, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(module, "COND_LIMIT", 0.0)  # every Gram row counts as singular
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

    @pytest.mark.parametrize("variant", ["proof-stage", "improved-remark2", "carnot-n"])
    def test_heisenberg_record_is_the_two_index_estimate(self, variant, tmp_path):
        out = tmp_path / "res.json"
        run_cli(["couple", "--group", "heisenberg", "--g", "0.3,-0.2,0.1", "--gt", "0.5,0,0.6",
                 "--T", "1,25", "--N", "3000", "--seed", "17", "--workers", "2",
                 "--variant", variant, "--format", "json", "--out", str(out)])
        got = [(r["estimate"], r["stderr"]) for r in json.loads(out.read_text())["records"]]
        g, gt = (heis_to_carnot(HeisenbergPoint(*p)) for p in ((0.3, -0.2, 0.1), (0.5, 0, 0.6)))
        for two_index in (True, False):
            ests = coupling.failure_probability(g, gt, [1.0, 25.0], 3000, 17, 2,
                                                two_index=two_index)
            assert (got == [(e.mean, e.stderr) for e in ests]) == two_index

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
        est, = coupling.failure_probability(g, gt, [25.0], 3000, 18)
        assert (rec["estimate"], rec["stderr"]) == (est.mean, est.stderr)
        assert rec["bound"] == coupling.tv_bound(g, gt, 25.0, "proof-stage").total

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
        # |zeta| = 4 at T = 1 makes the shift long on every draw: the Kish fraction sits
        # near 1/N (5.0e-4 here); at T = 100 and |zeta| = 1 it is above 0.99
        out = tmp_path / "res.json"
        run_cli(["girsanov", "--g", "0,0,0", "--gt", gt, "--T", T, "--N", "2000",
                 "--seed", "16", "--format", "json", "--out", str(out)])
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == int(warned)
        if warned:
            assert "girsanov:transfer-gaussian-bump" in err[0] and "ESS fraction" in err[0]
        records = json.loads(out.read_text())["records"]
        assert [r["check"] for r in records] == [
            "girsanov:normalization", "girsanov:entropy-identity", "girsanov:entropy-bound",
            "girsanov:transfer-gaussian-bump"]

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

    def test_marginals_holds_one_batch_of_coefficients(self, monkeypatch, tmp_path):
        # a small batch keeps the test light; N spans eight full batches and a partial one
        N = 8 * 1024 + 100
        full = N * (truncation_index(1.0 / 32.0, 1.0) + 1) * 2 * 8  # all N paths at once
        argv = ["marginals", "--g", "0,0,0", "--N", str(N), "--steps", "2", "--seed", "4",
                "--format", "json"]
        run_cli(argv + ["--out", str(tmp_path / "whole.json")])
        monkeypatch.setattr(mc, "BATCH_SIZE", 1024)
        tracemalloc.start()
        try:
            run_cli(argv + ["--out", str(tmp_path / "chunked.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full

        def ks_and_variance(name):
            records = json.loads((tmp_path / name).read_text())["records"]
            return [r for r in records if not r["check"].startswith("marginals:moment")]

        # the KS and variance records do not depend on the chunk size
        assert ks_and_variance("whole.json") == ks_and_variance("chunked.json")

    def test_csv_has_fixed_header(self, tmp_path):
        out = tmp_path / "res.csv"
        run_cli(["constants", "--out", str(out)])
        assert out.read_text().splitlines()[0] == ",".join(COLUMNS)

    def test_exit_one_on_failed_check(self, tmp_path):
        # the refined-scheme constants are not a valid target for this sampler's
        # failure rate at short horizons, which makes a deterministic failing record
        code = run_cli(["couple", "--group", "heisenberg", "--g", "0,0,0",
                        "--gt", "0,0,1", "--T", "25", "--N", "40000", "--seed", "14",
                        "--variant", "improved-remark2",
                        "--out", str(tmp_path / "fail.csv")])
        assert code == 1

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
