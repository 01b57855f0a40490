"""End-to-end tests of the command-line interface: flags, exit codes,
manifest/CSV formats, and rerun determinism."""

import argparse
import json
import math
from dataclasses import replace

import pytest

from piterbarg import RatePoint, piterbarg_bm_half_discrete, rate_points_csv
from piterbarg.cli import _delta_list, _domain, build_parser, main
from piterbarg.rate_study import RATE_CSV_HEADER


# Output formats as they stand: ordered key lists and the CSV header.
MANIFEST_KEYS = ["command", "tool_version", "started_at", "finished_at", "config", "results"]
CONFIG_KEYS = ["alpha", "d", "domain", "delta", "horizon", "replications", "seed"]
ESTIMATE_KEYS = ["estimate", "stderr", "ci_low", "ci_high", "method", "replications",
                 "rows", "paths_per_row", "effective_paths_per_row"]
BUDGET_KEYS = ["delta", "horizon", "disc_bound", "trunc_bound", "stat_error",
               "constants", "total", "up_to_constant", "horizon_below_comfort"]
VALIDATION_KEYS = ["exact", "correction_factor", "corrected_estimate", "abs_error",
                   "model_tolerance", "stat_tolerance", "status", "status_against"]
# the half line adds the exact discrete constant and the raw estimate's z-score
HALF_VALIDATION_KEYS = [*VALIDATION_KEYS, "exact_discrete", "discrete_z"]

# Each subcommand's flags: option string -> (required, default, type).
FLAGS = {
    "estimate": {
        "--alpha": (True, None, float), "--d": (True, None, float),
        "--domain": (True, None, _domain), "--delta": (True, None, float),
        "--horizon": (False, None, float), "--c-disc": (False, None, float),
        "--c-trunc": (False, None, float), "--seed": (True, None, int),
        "--reps": (True, None, int), "--out": (False, None, None),
        "--threads": (False, 1, int),
    },
    "validate": {
        "--d": (True, None, float), "--domain": (True, None, _domain),
        "--delta": (True, None, float), "--seed": (True, None, int),
        "--reps": (True, None, int), "--out": (False, None, None),
        "--threads": (False, 1, int),
    },
    "rate": {
        "--d": (True, None, float), "--domain": (True, None, _domain),
        "--deltas": (True, None, _delta_list), "--seed": (True, None, int),
        "--reps": (True, None, int), "--out": (False, None, None),
        "--threads": (False, 1, int),
    },
    "plan": {
        "--alpha": (True, None, float), "--delta": (True, None, float),
        "--horizon": (False, None, float), "--c-disc": (False, None, float),
        "--c-trunc": (False, None, float), "--out": (False, None, None),
    },
}


def _must_not_simulate(*args, **kwargs):
    raise AssertionError("simulated before rejecting the request")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFlags:
    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_flag_table(self, monkeypatch, command):
        # the variable an earlier release read is ignored: --threads defaults to 1
        monkeypatch.setenv("PITERBARG_THREADS", "3")
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        actions = [a for a in sub.choices[command]._actions
                   if not isinstance(a, argparse._HelpAction)]
        flags = {a.option_strings[0]: (a.required, a.default, a.type) for a in actions}
        assert len(flags) == len(actions) == sum(len(a.option_strings) for a in actions)
        assert flags == FLAGS[command]
        assert all(a.help for a in actions)

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_help_exits_0(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: piterbarg {command}")
        assert all(flag in out for flag in FLAGS[command])


class TestPlan:
    def test_brownian_hand_values(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--alpha", "1", "--delta", "0.01")
        assert code == 0
        manifest = json.loads(out)
        assert list(manifest) == MANIFEST_KEYS
        assert manifest["config"] == {"alpha": 1.0, "delta": 0.01}
        assert list(manifest["results"]) == ["budget"]
        budget = manifest["results"]["budget"]
        assert list(budget) == BUDGET_KEYS
        assert budget["constants"] == {"c_disc": 1.0, "c_trunc": 1.0}
        assert budget["horizon"] == pytest.approx(21.2076, abs=1e-3)
        assert budget["disc_bound"] == pytest.approx(0.214597, abs=1e-5)
        assert budget["trunc_bound"] == pytest.approx(
            math.exp(-math.log(100.0) ** 2), rel=1e-6
        )
        assert budget["trunc_bound"] == pytest.approx(6.2e-10, rel=0.05)
        assert budget["stat_error"] is None
        assert budget["up_to_constant"] is True

    def test_writes_out_file(self, capsys, tmp_path):
        target = tmp_path / "plan.json"
        code, out, _ = run_cli(capsys, "plan", "--alpha", "0.5", "--delta", "0.1",
                               "--out", str(target))
        assert code == 0
        assert out == ""
        blob = json.loads(target.read_text())
        assert blob["command"] == "plan"

    def test_coarse_delta_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--alpha", "1", "--delta", "1.5")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("extra,message", [
        (["--horizon", "nan"], "horizon must be positive and finite"),
        (["--horizon", "inf"], "horizon must be positive and finite"),
        (["--c-disc", "nan"], "c_disc must be positive and finite"),
        (["--c-trunc", "inf"], "c_trunc must be positive and finite"),
    ], ids=["horizon-nan", "horizon-inf", "c_disc-nan", "c_trunc-inf"])
    def test_non_finite_input_is_usage_error(self, capsys, extra, message):
        code, out, err = run_cli(capsys, "plan", "--alpha", "1", "--delta", "0.01",
                                 *extra)
        assert code == 2
        assert out == ""
        assert message in err

    def test_overflowing_planned_horizon_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--alpha", "0.01", "--delta", "1e-300")
        assert code == 2
        assert "outside the float range" in err

    def test_huge_horizon_gives_valid_json(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--alpha", "1.5", "--delta", "0.01",
                               "--horizon", "1e300")
        assert code == 0
        assert json.loads(out)["results"]["budget"]["trunc_bound"] == 0.0


class TestEstimate:
    ARGS = ["estimate", "--alpha", "1", "--d", "1", "--domain", "half",
            "--delta", "0.05", "--reps", "400", "--seed", "7"]

    def test_manifest_contents(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        manifest = json.loads(out)
        assert manifest["command"] == "estimate"
        assert list(manifest) == MANIFEST_KEYS
        assert list(manifest["config"]) == CONFIG_KEYS
        assert list(manifest["results"]) == ["estimate", "budget"]
        assert list(manifest["results"]["estimate"]) == ESTIMATE_KEYS
        assert list(manifest["results"]["budget"]) == BUDGET_KEYS
        config = manifest["config"]
        assert config["domain"] == "half"
        # omitted --horizon defaults to the planning rule
        assert config["horizon"] == pytest.approx(math.log(20.0) ** 2, rel=1e-9)
        est = manifest["results"]["estimate"]
        assert est["method"] == "median-of-means"  # d = 1 forces the fallback
        assert est["estimate"] >= 1.0
        assert manifest["results"]["budget"]["up_to_constant"] is True

    def test_manifest_reports_the_information_rate(self, capsys, tmp_path):
        # 1040 half-line Brownian replications are 33 rows of 32 paths (the
        # last one short), enough rows for the effective paths per row,
        # which check-manifest accepts
        target = tmp_path / "e.json"
        code, _, _ = run_cli(capsys, "estimate", "--alpha", "1", "--d", "2", "--domain", "half",
                             "--delta", "0.05", "--reps", "1040", "--seed", "7",
                             "--out", str(target))
        assert code == 0
        est = json.loads(target.read_text())["results"]["estimate"]
        assert (est["rows"], est["paths_per_row"]) == (33, 32)
        assert est["effective_paths_per_row"] > 1.0
        assert run_cli(capsys, "check-manifest", str(target))[0] == 0

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--alpha", "1", "--domain", "half",
                  "--delta", "0.05", "--reps", "10", "--seed", "1"])
        assert exc.value.code == 2

    def test_invalid_value_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--alpha", "3", "--d", "1",
                               "--domain", "half", "--delta", "0.05",
                               "--reps", "10", "--seed", "1")
        assert code == 2
        assert "alpha" in err

    @pytest.mark.parametrize("extra,message", [
        (["--delta", "1.5", "--horizon", "3000"],
         "delta must lie strictly in (0, 1), got 1.5"),
        (["--delta", "0.05", "--c-disc", "0"], "c_disc must be positive"),
        (["--delta", "0.05", "--c-trunc", "-1"], "c_trunc must be positive"),
        (["--delta", "0.01", "--horizon", "nan"], "horizon must be positive and finite"),
        (["--delta", "1e-300", "--horizon", "1e300"],
         "delta=1e-300 up to horizon T=1e+300"),
    ], ids=["delta", "c_disc", "c_trunc", "horizon-nan", "grid-overflow"])
    def test_budget_inputs_rejected_before_simulating(
        self, capsys, monkeypatch, extra, message
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("estimate_constant ran before validation")

        monkeypatch.setattr("piterbarg.cli.estimate_constant", must_not_run)
        code, _, err = run_cli(capsys, "estimate", "--alpha", "1", "--d", "2",
                               "--domain", "half", *extra,
                               "--reps", "2000", "--seed", "1")
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("command", [
        ["estimate", "--alpha", "1", "--d", "2", "--domain", "half", "--delta", "0.1"],
        ["validate", "--d", "2", "--domain", "half", "--delta", "0.1"],
        ["rate", "--d", "2", "--domain", "half", "--deltas", "0.2,0.1"],
    ], ids=["estimate", "validate", "rate"])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, capsys, command, threads):
        # 40 replications: more than a row on either line, so that the rate
        # study gets as far as the thread count
        code, out, err = run_cli(capsys, *command, "--reps", "40", "--seed", "1",
                                 "--threads", threads)
        assert code == 2
        assert out == ""
        assert f"threads must be a positive integer, got {threads}" in err

    @pytest.mark.parametrize("alpha", ["1", "0.5"])
    def test_grid_beyond_physical_memory_exits_2(self, capsys, monkeypatch, alpha):
        # n = 10^11 increments: rejected from the plan's byte figure, before
        # the drift or the spectrum is built
        def unreachable(*args):
            raise AssertionError("allocated before the memory check")

        monkeypatch.setattr("piterbarg.estimator._drift", unreachable)
        monkeypatch.setattr("piterbarg.estimator._cached", unreachable)
        monkeypatch.setattr("piterbarg.estimator._cgroup_memory_max", lambda: None)
        code, out, err = run_cli(capsys, "estimate", "--alpha", alpha, "--d", "2",
                                 "--domain", "half", "--delta", "1e-9",
                                 "--horizon", "100", "--reps", "1", "--seed", "1")
        assert code == 2
        assert out == ""
        assert "n=100000000000" in err and "bytes of physical memory" in err

    def test_failed_embedding_exits_1(self, capsys, monkeypatch):
        # the spectrum's eigenvalue check, forced to fail, is the numerical
        # failure the CLI maps to exit 1
        monkeypatch.setattr("piterbarg.fbm._EIGENVALUE_CLAMP_REL", -1.0)
        code, out, err = run_cli(capsys, "estimate", "--alpha", "0.55", "--d", "2",
                                 "--domain", "half", "--delta", "0.01", "--horizon", "3.01",
                                 "--reps", "4", "--seed", "1")
        assert code == 1
        assert out == ""
        # the grid's 301 increments embed in m = 640, the embedding length named
        assert "numerical failure: circulant embedding failed for alpha=0.55, m=640" in err

    def test_rerun_reproduces_results_fields(self, capsys, pool_sizes):
        # 35200 replications are 1100 half-line rows of width 179, three
        # blocks of 512: three workers
        _, out1, _ = run_cli(capsys, *self.ARGS, "--reps", "35200")
        _, out2, _ = run_cli(capsys, *self.ARGS, "--reps", "35200", "--threads", "3")
        assert pool_sizes == [3]
        r1, r2 = json.loads(out1), json.loads(out2)
        assert r1["results"] == r2["results"]  # timestamps excluded by design
        assert r1["config"] == r2["config"]

    def test_floats_round_trip_bit_exactly(self, capsys):
        _, out, _ = run_cli(capsys, *self.ARGS)
        manifest = json.loads(out)
        assert json.loads(json.dumps(manifest)) == manifest


class TestValidate:
    def test_small_run_is_inconclusive_but_ok(self, capsys):
        code, out, err = run_cli(capsys, "validate", "--d", "1", "--domain", "half",
                                 "--delta", "0.05", "--reps", "10", "--seed", "3")
        assert code == 0
        manifest = json.loads(out)
        assert list(manifest) == MANIFEST_KEYS
        assert list(manifest["config"]) == CONFIG_KEYS
        assert list(manifest["results"]) == ["estimate", "validation"]
        assert list(manifest["results"]["estimate"]) == ESTIMATE_KEYS
        validation = manifest["results"]["validation"]
        assert list(validation) == HALF_VALIDATION_KEYS
        assert validation["status"] == "inconclusive"
        assert validation["status_against"] == "exact_discrete"
        assert "warning" in err
        # d = 1: median-of-means, no stderr, so no z-score
        assert validation["exact_discrete"] == piterbarg_bm_half_discrete(1.0, 0.05)
        assert validation["discrete_z"] is None

    def test_decisive_run_passes(self, capsys):
        code, out, err = run_cli(capsys, "validate", "--d", "2", "--domain", "half",
                                 "--delta", "0.05", "--reps", "20000",
                                 "--seed", "3", "--threads", "2")
        assert code == 0
        results = json.loads(out)["results"]
        validation, estimate = results["validation"], results["estimate"]
        assert validation["status"] == "pass", validation
        assert validation["exact"] == 1.5
        # the status reads the raw estimate against the grid's exact
        # constant, within the same 1.5% and 3 stderrs
        exact = piterbarg_bm_half_discrete(2.0, 0.05)
        assert validation["status_against"] == "exact_discrete"
        assert validation["exact_discrete"] == exact
        assert validation["abs_error"] == abs(estimate["estimate"] - exact)
        assert validation["model_tolerance"] == 0.015 * exact
        assert validation["stat_tolerance"] == 3.0 * estimate["stderr"]
        assert validation["discrete_z"] == (estimate["estimate"] - exact) / estimate["stderr"]
        assert abs(validation["discrete_z"]) < 3.0

    def test_first_order_miss_passes_against_the_exact_discrete_constant(self, capsys):
        # d = 2 at delta = 0.3 (n = 4): the first-order corrected estimate
        # misses the continuous constant by more than the 1.5% and 3
        # stderrs, which the first-order status read as a fail, while the
        # raw estimate is within them of the grid's exact constant, which
        # the status reads
        code, out, _ = run_cli(capsys, "validate", "--d", "2", "--domain", "half",
                               "--delta", "0.3", "--reps", "200000", "--seed", "5")
        validation = json.loads(out)["results"]["validation"]
        first_order_miss = abs(validation["corrected_estimate"] - validation["exact"])
        assert first_order_miss > 0.015 * validation["exact"] + validation["stat_tolerance"]
        assert validation["status"] == "pass" and code == 0
        assert abs(validation["discrete_z"]) < 3.0

    def test_zero_stderr_gives_a_null_z_score(self, capsys, tmp_path):
        # d = 50, delta = 0.3: n = 4 and the drift keeps every path below 0,
        # so all 64 functionals (two rows) are 1.0, the stderr is 0 and
        # P^delta rounds to 1.0, which the estimate meets exactly; the
        # manifest is still written, with a null z-score
        target = tmp_path / "v.json"
        code, _, _ = run_cli(capsys, "validate", "--d", "50", "--domain", "half",
                             "--delta", "0.3", "--reps", "64", "--seed", "1",
                             "--out", str(target))
        assert code == 0
        results = json.loads(target.read_text())["results"]
        assert results["estimate"]["stderr"] == 0.0
        assert results["estimate"]["effective_paths_per_row"] is None
        validation = results["validation"]
        assert list(validation) == HALF_VALIDATION_KEYS
        assert validation["status"] == "pass" and validation["abs_error"] == 0.0
        assert validation["exact_discrete"] == piterbarg_bm_half_discrete(50.0, 0.3)
        assert validation["discrete_z"] is None
        assert run_cli(capsys, "check-manifest", str(target))[0] == 0

    def test_full_line_has_no_discrete_fields(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--d", "2", "--domain", "full",
                               "--delta", "0.1", "--reps", "50", "--seed", "3")
        assert code in (0, 1)
        validation = json.loads(out)["results"]["validation"]
        assert list(validation) == VALIDATION_KEYS
        assert validation["status_against"] == "corrected"

    def test_refused_series_is_null_with_its_reason(self, capsys, tmp_path):
        # d = 0.001 at delta = 0.04 needs 1.5e6 terms, beyond the series' cap:
        # the fields are null, the reason is recorded and the manifest checks
        target = tmp_path / "v.json"
        code, _, _ = run_cli(capsys, "validate", "--d", "0.001", "--domain", "half",
                             "--delta", "0.04", "--reps", "20", "--seed", "3",
                             "--out", str(target))
        assert code == 0
        validation = json.loads(target.read_text())["results"]["validation"]
        assert list(validation) == [*HALF_VALIDATION_KEYS, "exact_discrete_refused"]
        assert validation["exact_discrete"] is None and validation["discrete_z"] is None
        assert validation["status_against"] == "corrected"
        assert "d=0.001, delta=0.04 needs up to" in validation["exact_discrete_refused"]
        assert run_cli(capsys, "check-manifest", str(target))[0] == 0


class TestRate:
    def test_emits_csv(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--d", "2", "--domain", "half",
                               "--deltas", "0.2,0.05", "--reps", "500",
                               "--seed", "11")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == RATE_CSV_HEADER == (
            "delta,p_hat,stderr,gap,gap_stderr,empirical_rate,p_exact_discrete")
        assert len(lines) == 3
        for row, delta in zip(lines[1:], (0.2, 0.05)):  # repr-exact cells
            assert all(repr(float(cell)) == cell for cell in row.split(","))
            # the half line's last column: the exact constant on that grid
            assert float(row.split(",")[-1]) == piterbarg_bm_half_discrete(2.0, delta)

    def test_full_line_and_refused_series_leave_the_discrete_column_empty(self, capsys,
                                                                         tmp_path):
        # no discrete constant on the full line; on the half line, none
        # where the series refuses (d = 1.001 needs 60 / delta terms, beyond
        # its cap at delta = 5e-5, but not at 1e-4); either way the CSV
        # still checks
        for domain, deltas, cells in [("full", "0.2,0.05", ["", ""]),
                                      ("half", "0.0001,0.00005", [None, ""])]:
            target = tmp_path / f"{domain}.csv"
            code, _, _ = run_cli(capsys, "rate", "--d", "1.001", "--domain", domain,
                                 "--deltas", deltas, "--reps", "40", "--seed", "11",
                                 "--out", str(target))
            assert code == 0
            rows = [line.split(",") for line in target.read_text().splitlines()[1:]]
            for row, cell in zip(rows, cells):
                assert len(row) == 7
                assert row[-1] == cell if cell is not None else float(row[-1]) > 1.0
            assert run_cli(capsys, "check-manifest", str(target))[0] == 0

    def test_row_is_repr_exact(self):
        point = RatePoint(0.2, 1.1512060915223474, 0.0210884520842877,
                          0.34879390847765257, 0.0210884520842877, 0.6774867638708384)
        assert rate_points_csv([point, replace(point, p_exact_discrete=1.1570307785011926)]) == (
            "delta,p_hat,stderr,gap,gap_stderr,empirical_rate,p_exact_discrete\n"
            "0.2,1.1512060915223474,0.0210884520842877,0.34879390847765257,"
            "0.0210884520842877,0.6774867638708384,\n"
            "0.2,1.1512060915223474,0.0210884520842877,0.34879390847765257,"
            "0.0210884520842877,0.6774867638708384,1.1570307785011926\n"
        )

    def test_non_nested_deltas_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--d", "2", "--domain", "half",
                               "--deltas", "0.01,0.003", "--reps", "10",
                               "--seed", "1")
        assert code == 2
        assert "power of two" in err

    def test_single_replication_exits_2(self, capsys, monkeypatch):
        # one replication has no CLT stderr; rejected before any path
        monkeypatch.setattr("piterbarg.rate_study._simulate_functionals", _must_not_simulate)
        code, out, err = run_cli(capsys, "rate", "--d", "2", "--domain", "half",
                                 "--deltas", "0.2,0.05", "--reps", "1", "--seed", "1")
        assert code == 2
        assert out == ""
        assert "at least 2 independent rows" in err

    def test_spacing_beyond_horizon_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr("piterbarg.rate_study._simulate_functionals", _must_not_simulate)
        code, out, err = run_cli(capsys, "rate", "--d", "2", "--domain", "half",
                                 "--deltas", "40.96,0.01", "--reps", "200", "--seed", "1")
        assert code == 2
        assert out == ""
        assert "spacing 40.96 exceeds the horizon" in err

    @pytest.mark.parametrize("deltas,message", [
        ("inf,0.01", "spacing must be positive and finite, got inf"),
        ("nan,0.01", "spacing must be positive and finite, got nan"),
        ("1e300,1e-300", "spacing 1e+300 is not the finest (1e-300) times a power of two"),
    ], ids=["inf", "nan", "ratio-overflow"])
    def test_non_finite_spacing_or_ratio_exits_2(self, capsys, monkeypatch, deltas, message):
        monkeypatch.setattr("piterbarg.rate_study._simulate_functionals", _must_not_simulate)
        code, out, err = run_cli(capsys, "rate", "--d", "2", "--domain", "half",
                                 "--deltas", deltas, "--reps", "10", "--seed", "1")
        assert code == 2
        assert out == ""
        assert message in err


class TestOutPath:
    SIMULATING_COMMANDS = pytest.mark.parametrize("command", [
        ["estimate", "--alpha", "0.5", "--d", "2", "--domain", "half", "--delta", "0.01"],
        ["validate", "--d", "2", "--domain", "half", "--delta", "0.01"],
        ["rate", "--d", "2", "--domain", "half", "--deltas", "0.02,0.01"],
    ], ids=["estimate", "validate", "rate"])

    @SIMULATING_COMMANDS
    def test_missing_directory_exits_2_before_simulating(
        self, capsys, monkeypatch, tmp_path, command
    ):
        monkeypatch.setattr("piterbarg.estimator._simulate_functionals", _must_not_simulate)
        monkeypatch.setattr("piterbarg.rate_study._simulate_functionals", _must_not_simulate)
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, *command, "--reps", "2000", "--seed", "1",
                                 "--out", str(target))
        assert code == 2
        assert out == ""
        assert f"cannot write --out {target}" in err
        assert list(tmp_path.iterdir()) == []

    @SIMULATING_COMMANDS
    def test_existing_directory_exits_2_before_simulating(
        self, capsys, monkeypatch, tmp_path, command
    ):
        monkeypatch.setattr("piterbarg.estimator._simulate_functionals", _must_not_simulate)
        monkeypatch.setattr("piterbarg.rate_study._simulate_functionals", _must_not_simulate)
        target = tmp_path / "outdir"
        target.mkdir()
        code, out, err = run_cli(capsys, *command, "--reps", "2000", "--seed", "1",
                                 "--out", str(target))
        assert code == 2
        assert out == ""
        assert f"cannot write --out {target}: it is a directory" in err
        assert list(target.iterdir()) == []


class TestCheckManifest:
    def test_accepts_own_json(self, capsys, tmp_path):
        target = tmp_path / "m.json"
        run_cli(capsys, "estimate", "--alpha", "1", "--d", "2", "--domain", "half",
                "--delta", "0.1", "--reps", "50", "--seed", "2",
                "--out", str(target))
        code, out, _ = run_cli(capsys, "check-manifest", str(target))
        assert code == 0
        assert "[ok]" in out

    def test_accepts_own_csv(self, capsys, tmp_path):
        target = tmp_path / "r.csv"
        run_cli(capsys, "rate", "--d", "2", "--domain", "half",
                "--deltas", "0.2,0.05", "--reps", "200", "--seed", "5",
                "--out", str(target))
        code, out, _ = run_cli(capsys, "check-manifest", str(target))
        assert code == 0
        assert "[ok]" in out

    def test_rejects_garbage(self, capsys, tmp_path):
        target = tmp_path / "bad.csv"
        target.write_text("delta,p_hat\n0.1,not-a-number\n")
        code, _, err = run_cli(capsys, "check-manifest", str(target))
        assert code == 1
        # an empty cell passes in the p_exact_discrete column alone
        target.write_text(RATE_CSV_HEADER + "\n0.1,1.2,0.01,0.3,0.01,0.9,\n"
                          "0.1,1.2,,0.3,0.01,0.9,1.25\n")
        code, _, err = run_cli(capsys, "check-manifest", str(target))
        assert code == 1
        assert "row 3: non-numeric cell ''" in err and "row 2" not in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "check-manifest", str(tmp_path / "nope.json"))
        assert code == 2

    def _check_edited_manifest(self, capsys, tmp_path, edit):
        target = tmp_path / "m.json"
        run_cli(capsys, "validate", "--d", "2", "--domain", "half", "--delta", "0.1",
                "--reps", "50", "--seed", "2", "--out", str(target))
        manifest = json.loads(target.read_text())
        edit(manifest)
        target.write_text(json.dumps(manifest))
        return run_cli(capsys, "check-manifest", str(target))

    def test_rejects_manifest_without_config(self, capsys, tmp_path):
        code, out, err = self._check_edited_manifest(
            capsys, tmp_path, lambda m: m.pop("config"))
        assert code == 1
        assert "[invalid]" in out
        assert "missing manifest key 'config'" in err

    @pytest.mark.parametrize("key", ["config", "results"])
    def test_rejects_non_object_inputs_or_results(self, capsys, tmp_path, key):
        code, _, err = self._check_edited_manifest(
            capsys, tmp_path, lambda m: m.update({key: 5}))
        assert code == 1
        assert f"manifest key {key!r} is not a JSON object" in err

    def test_rejects_csv_without_rows(self, capsys, tmp_path):
        target = tmp_path / "r.csv"
        target.write_text(RATE_CSV_HEADER + "\n")
        code, out, err = run_cli(capsys, "check-manifest", str(target))
        assert code == 1
        assert "CSV has no data rows" in err


class TestOutNewline:
    def test_out_file_is_the_stdout_manifest(self, capsys, tmp_path):
        target = tmp_path / "plan.json"
        argv = ["plan", "--alpha", "1", "--delta", "0.01"]
        _, stdout_text, _ = run_cli(capsys, *argv)
        run_cli(capsys, *argv, "--out", str(target))
        text = target.read_text()
        assert text.endswith("}\n") and stdout_text.endswith("}\n")
        timestamps = ("started_at", "finished_at")
        written, printed = json.loads(text), json.loads(stdout_text)
        for manifest in (written, printed):
            for key in timestamps:
                del manifest[key]
        assert written == printed
