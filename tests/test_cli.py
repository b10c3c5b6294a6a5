"""Command-line surface: JSON envelopes, exit codes, and flag validation."""

import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path
from unittest import mock

import pytest
import scipy.optimize

import leggettlab
from leggettlab import InputError, MeasurementSettings, cli, ensemble_averages, model_from_json, montecarlo, reduced_lhs_exact
from leggettlab._json import render
from leggettlab.cli import EXIT_CLOSED, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main

RT2 = 1.0 / math.sqrt(2.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv, expect=EXIT_OK):
    code, out, err = run(capsys, *argv)
    assert code == expect, f"exit {code}, stderr: {err!r}"
    return json.loads(out)


class TestEnvelope:
    def test_key_order_and_version(self, capsys):
        doc = run_json(capsys, "eval", "--c", "0.5", "--alpha", "0", "--beta", "0")
        assert list(doc) == ["command", "inputs", "results", "artifact_version"]
        assert doc["command"] == "eval"
        from leggettlab import __version__

        assert doc["artifact_version"] == __version__

    def test_seed_present_only_for_random_commands(self, capsys):
        doc = run_json(capsys, "mc", "--c", "0.3", "--alpha", "0.7", "--beta", "1.1",
                       "--n", "1000", "--seed", "9")
        assert list(doc) == ["command", "inputs", "results", "artifact_version", "seed"]
        assert doc["seed"] == 9
        doc = run_json(capsys, "eval", "--c", "0.1", "--alpha", "0", "--beta", "0")
        assert "seed" not in doc

    def test_output_round_trips_byte_exactly(self, capsys):
        code, out, _ = run(capsys, "eval", "--c", "0.37", "--alpha", "0.71", "--beta", "2.9")
        assert code == EXIT_OK
        assert render(json.loads(out)) == out.strip()

    def test_floats_parse_back_to_exact_values(self, capsys):
        doc = run_json(capsys, "eval", "--c", "0.37", "--alpha", "0.71", "--beta", "2.9")
        expected = reduced_lhs_exact(0.37, MeasurementSettings(0.71, 2.9))
        assert doc["results"]["S"] == expected  # bit-exact through 17-digit rendering

    def test_help_exits_zero(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == EXIT_OK

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "transmogrify")
        assert code == EXIT_USAGE


class TestEval:
    def test_product_state_probabilities(self, capsys):
        doc = run_json(capsys, "eval", "--c", "0.5", "--alpha", "0", "--beta", "0")
        results = doc["results"]
        assert results["marginals"]["p_a_plus"] == pytest.approx(0.75, abs=1e-15)
        assert results["joint"]["p_pp"] == pytest.approx(0.75, abs=1e-15)
        assert results["joint"]["p_mm"] == pytest.approx(0.25, abs=1e-15)
        assert results["bounds"]["satisfied"] is True
        assert results["S"] <= 1.0 + 1e-12

    def test_degrees_flag_converts_and_reports_radians(self, capsys):
        doc = run_json(capsys, "eval", "--c", "0", "--alpha", "0", "--beta", "90", "--degrees")
        assert doc["inputs"]["beta"] == pytest.approx(math.pi / 2.0)
        assert doc["results"]["S"] == pytest.approx(1.0, abs=1e-15)

    def test_out_of_range_weight_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "--c", "2", "--alpha", "0", "--beta", "0")
        assert code == EXIT_USAGE
        assert "[0, 1]" in err

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "eval", "--c", "0.5", "--alpha", "0")
        assert code == EXIT_USAGE


class TestScan:
    def test_small_diagonal_scan(self, capsys):
        doc = run_json(capsys, "scan", "--step", "0.05", "--c-max", "0.2")
        results = doc["results"]
        assert results["max_S"] <= 1.0 + 1e-9
        assert results["violation_count"] == 0
        assert results["violations"] == []
        assert results["refined"] is True
        assert results["grid_points"] == 5 * 63 * 63
        assert results["truncation_discrepancy"] is False  # no ladder attached

    def test_eps_ladder_marks_predictions(self, capsys):
        doc = run_json(capsys, "scan", "--step", "0.02", "--c-max", "0.1",
                       "--eps-ladder", "1e-2:5e-3")
        results = doc["results"]
        predicted = results["first_order_predicted_violations"]
        assert predicted and all(set(p) == {"c", "eps"} for p in predicted)
        assert results["truncation_discrepancy"] is True
        assert results["violation_count"] == 0

    def test_found_violations_are_no_truncation_discrepancy(self, capsys):
        # The ladder predicts violations and the scan finds some (below 1 - 1e-3): the
        # truncation did not mislead, whatever the bound says.
        doc = run_json(capsys, "scan", "--eps-preset", "--step", "2e-2", "--c-step", "1e-2",
                       "--tolerance=-1e-3", "--no-refine", expect=EXIT_VIOLATION)
        results = doc["results"]
        assert results["first_order_predicted_violations"] and results["violation_count"] > 0
        assert results["truncation_discrepancy"] is False

    def test_negative_tolerance_exits_three(self, capsys):
        doc = run_json(capsys, "scan", "--step", "0.1", "--c-max", "0.1",
                       "--tolerance", "-0.5", expect=EXIT_VIOLATION)
        assert doc["results"]["violation_count"] > 0
        assert doc["results"]["violations"]

    def test_invalid_step_is_usage_error(self, capsys):
        code, _, err = run(capsys, "scan", "--step", "-1")
        assert code == EXIT_USAGE
        assert "step" in err

    def test_oversized_axis_is_usage_error(self, capsys):
        code, out, err = run(capsys, "scan", "--step", "1e-12")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_no_refine_flag(self, capsys):
        doc = run_json(capsys, "scan", "--family", "singlet", "--step", "0.2", "--no-refine")
        assert doc["results"]["refined"] is False

    def test_environment_sets_no_worker_count(self, capsys, monkeypatch):
        # --workers is the only worker setting; no environment variable is read.
        def report():
            doc = run_json(capsys, "scan", "--family", "singlet", "--step", "0.2", "--no-refine")
            doc["results"].pop("wall_time")
            return doc

        monkeypatch.delenv("LEGGETTLAB_THREADS", raising=False)
        unset = report()
        monkeypatch.setenv("LEGGETTLAB_THREADS", "x")
        assert report() == unset

    def test_csv_export(self, capsys, tmp_path):
        path = str(tmp_path / "out.csv")
        doc = run_json(capsys, "scan", "--family", "singlet", "--step", "0.2", "--csv", path)
        assert doc["results"]["csv_path"] == path
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "c,alpha,beta,S"
        assert len(lines) > 1

    @pytest.mark.parametrize("argv", [
        ("scan", "--family", "singlet", "--step", "0.2", "--csv"),
        ("hv", "--models", "1", "--frechet-grid", "0", "--emit-model"),
    ])
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, str(tmp_path / "absent" / "out"))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: cannot write") and "Traceback" not in err

    @pytest.mark.parametrize("argv, work", [
        (("scan", "--family", "singlet", "--step", "0.2", "--csv"), "grid_scan"),
        (("hv", "--models", "1", "--frechet-grid", "0", "--emit-model"), "_model_chunks"),
    ])
    def test_unwritable_output_fails_before_the_work(self, capsys, monkeypatch, tmp_path, argv, work):
        def never(*args, **kwargs):
            raise AssertionError(f"{work} ran before the output was opened")

        monkeypatch.setattr(cli, work, never)
        code, out, err = run(capsys, *argv, str(tmp_path / "absent" / "out"))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: cannot write") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("scan", "--family", "singlet", "--step", "0.2", "--workers", "0", "--csv"),
        ("hv", "--models", "1", "--frechet-grid", "0", "--seed", "-1", "--emit-model"),
        ("hv", "--models", "1", "--frechet-grid", "0", "--labels", "0", "--emit-model"),
    ])
    def test_invalid_input_leaves_the_output_file_alone(self, capsys, tmp_path, argv):
        path = tmp_path / "out"
        path.write_bytes(b"earlier output\n")
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and "Traceback" not in err
        assert path.read_bytes() == b"earlier output\n"

    def test_out_of_memory_is_an_internal_error(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "grid_scan", exhausted)
        code, out, err = run(capsys, "scan", "--family", "singlet", "--step", "0.2")
        assert (code, out) == (EXIT_INTERNAL, "")
        assert err.startswith("error: out of memory") and err.count("\n") == 1

    def test_fixed_matrix_via_coeffs(self, capsys):
        direct = run_json(capsys, "scan", "--family", "singlet", "--step", "0.2", "--no-refine")
        coeffs = f"0,{RT2!r},{-RT2!r},0"
        supplied = run_json(capsys, "scan", "--family", "fixed-matrix",
                            "--coeffs", coeffs, "--step", "0.2", "--no-refine")
        assert supplied["results"]["max_S"] == direct["results"]["max_S"]
        assert supplied["inputs"]["coeffs"] == coeffs

    @pytest.mark.parametrize("family", [
        ("--family", "singlet"),
        ("--family", "positive-parity"),
        ("--family", "fixed-matrix",
         "--coeffs=0.5479061340547261,-0.30549400011459804,0.6110109301324874,0.48284358483655865"),
    ])
    @pytest.mark.parametrize("tolerance", ["1e-9", "-1e-4"])
    def test_fixed_state_reports_independent_of_workers(self, capsys, monkeypatch, family, tolerance):
        # --workers 2 is not capped to 1, whichever CPU count the cap reads.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        reports = []
        for workers in ("1", "2"):
            code, out, _ = run(capsys, "scan", *family, "--step", "0.01",
                                 f"--tolerance={tolerance}", "--workers", workers)
            doc = json.loads(out)
            doc["results"]["wall_time"] = 0.0
            reports.append((code, render(doc)))
        assert reports[0] == reports[1]
        assert (reports[0][0] == EXIT_VIOLATION) == (tolerance == "-1e-4")

    @pytest.mark.parametrize("flags", [("--family", "fixed-matrix", "--coeffs", "1,2,3"),
                                       ("--family", "fixed-matrix", "--coeffs", "a,b,c,d"),
                                       ("--eps-ladder", "a:b")])
    def test_malformed_coeffs_and_ladder_are_usage_errors(self, capsys, flags):
        code, out, err = run(capsys, "scan", *flags, "--step", "0.2")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_coeffs_require_fixed_matrix_family(self, capsys):
        code, _, _ = run(capsys, "scan", "--coeffs", "1,0,0,0", "--step", "0.2")
        assert code == EXIT_USAGE

    def test_unnormalized_coeffs_rejected(self, capsys):
        code, _, _ = run(capsys, "scan", "--family", "fixed-matrix",
                         "--coeffs", "1,1,1,1", "--step", "0.2")
        assert code == EXIT_USAGE


class TestMc:
    def test_quantum_sampling_with_z_scores(self, capsys):
        doc = run_json(capsys, "mc", "--c", "0.3", "--alpha", "0.7", "--beta", "1.1",
                       "--n", "100000", "--seed", "1")
        results = doc["results"]
        assert results["counts"]["n_total"] == 100000
        assert sum(results["counts"][k] for k in ("n_pp", "n_pm", "n_mp", "n_mm")) == 100000
        for z in results["z_scores"]:
            assert abs(z) < 6.0

    def test_degenerate_product_average_has_zero_error(self, capsys):
        # At aligned analyzers every draw lands in an equal-outcome cell,
        # so the product estimate is exactly 1 with zero standard error.
        doc = run_json(capsys, "mc", "--c", str(RT2), "--alpha", "0", "--beta", "0",
                       "--n", "10000", "--seed", "3")
        results = doc["results"]
        assert results["estimate"]["triple"]["ab_bar"] == 1.0
        assert results["estimate"]["std_errors"][2] == 0.0
        assert results["z_scores"][2] == 0.0

    def test_worker_count_invisible_in_output(self, capsys):
        args = ("mc", "--c", "0.3", "--alpha", "0.7", "--beta", "1.1",
                "--n", "50000", "--seed", "5")
        _, base, _ = run(capsys, *args, "--workers", "1")
        _, multi, _ = run(capsys, *args, "--workers", "4")
        assert base == multi

    def test_model_file_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "model.json")
        run_json(capsys, "hv", "--models", "1", "--labels", "13", "--seed", "21",
                 "--frechet-grid", "0", "--emit-model", path)
        doc = run_json(capsys, "mc", "--model", path, "--n", "20000", "--seed", "2")
        with open(path, encoding="utf-8") as fh:
            model = model_from_json(fh.read())
        exact = ensemble_averages(model)
        assert doc["results"]["analytic"]["triple"]["ab_bar"] == exact.ab_bar
        assert doc["inputs"] == {"model": path, "n": 20000}

    def test_model_excludes_state_flags(self, capsys, tmp_path):
        path = str(tmp_path / "model.json")
        run_json(capsys, "hv", "--models", "1", "--labels", "3", "--seed", "1",
                 "--frechet-grid", "0", "--emit-model", path)
        code, _, _ = run(capsys, "mc", "--model", path, "--c", "0.5")
        assert code == EXIT_USAGE

    def test_missing_model_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "mc", "--model", str(tmp_path / "absent.json"))
        assert code == EXIT_USAGE
        assert "cannot read model file" in err

    @pytest.mark.parametrize("content", [
        b'{"weights": ["a"], "responses": [[1, 1]]}',
        b'{"weights": [1.0], "responses": [[1, "x"]]}',
        b'{"weights": [1.0], "responses": [[null, 1]]}',
        b'{"weights": [0.5, 0.5], "responses": [[1, 1], [1]]}',
        b'{"weights": [[0.5, 0.5], [1.0]], "responses": [[1, 1], [1, 1]]}',
        b'{"weights": [1.0], "responses": [[1, 1]]}\xff',
    ])
    def test_malformed_model_file(self, capsys, tmp_path, content):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "mc", "--model", str(path))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        try:
            text = content.decode("utf-8")
        except UnicodeDecodeError:
            assert "cannot read model file" in err
        else:
            with pytest.raises(InputError):
                model_from_json(text)

    def test_invalid_sample_count(self, capsys):
        code, _, _ = run(capsys, "mc", "--c", "0.3", "--alpha", "0", "--beta", "0", "--n", "0")
        assert code == EXIT_USAGE
        # One sample over the cap is refused before anything is drawn.
        code, out, err = run(capsys, "mc", "--c", "0.3", "--alpha", "0", "--beta", "0",
                             "--n", str(cli.MAX_SAMPLES + 1))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: sample count") and err.count("\n") == 1

    def test_model_work_over_the_bound(self, capsys, tmp_path):
        # A 101-label model at one sample over 99 x MAX_SAMPLES / 100 is refused before any block is drawn.
        path = tmp_path / "model.json"
        path.write_text(leggettlab.model_to_json(leggettlab.random_model(101, 0)), encoding="utf-8")
        with mock.patch.object(montecarlo, "_label_counts") as draw:
            code, out, err = run(capsys, "mc", "--model", str(path), "--n", str(99 * cli.MAX_SAMPLES // 100 + 1))
        assert code == EXIT_USAGE and out == "" and not draw.called
        assert err.startswith("error: sample count") and err.count("\n") == 1

    def test_state_flags_required_without_model(self, capsys):
        code, _, err = run(capsys, "mc", "--c", "0.3", "--alpha", "0.7")
        assert code == EXIT_USAGE
        assert "beta" in err


class TestHv:
    def test_property_run_reports_compliance(self, capsys):
        doc = run_json(capsys, "hv", "--models", "50", "--labels", "7", "--seed", "4",
                       "--frechet-grid", "5")
        results = doc["results"]
        assert results["max_overshoot"] <= 1e-12
        assert results["all_within_bounds"] is True
        assert results["frechet"]["max_lower_error"] <= 1e-9
        assert results["frechet"]["max_upper_error"] <= 1e-9
        triple = results["first_triple"]
        assert abs(triple["ab_bar"]) <= 1.0

    def test_single_point_mass_model(self, capsys):
        doc = run_json(capsys, "hv", "--models", "1", "--labels", "1", "--seed", "0",
                       "--frechet-grid", "0")
        triple = doc["results"]["first_triple"]
        assert abs(triple["a_bar"]) == 1.0 and abs(triple["b_bar"]) == 1.0
        assert triple["ab_bar"] == triple["a_bar"] * triple["b_bar"]
        assert doc["results"]["frechet"] is None

    def test_model_file_is_written_a_chunk_of_labels_at_a_time(self, capsys, tmp_path):
        # 2^16 labels, 16 chunks: the whole document (2.1 MB) with a string per label
        # would take the traced peak to 7.7 MB; written in pieces, it stays near 1.7 MB.
        path, labels = tmp_path / "model.json", 2**16
        tracemalloc.start()
        try:
            run_json(capsys, "hv", "--models", "1", "--labels", str(labels), "--seed", "8",
                     "--frechet-grid", "0", "--emit-model", str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        model = leggettlab.random_model(labels, 8)
        weights = ", ".join(map(repr, model.weights.tolist()))
        responses = ", ".join(f"[{a}, {b}]" for a, b in model.responses.tolist())
        want, written = f'{{"weights": [{weights}], "responses": [{responses}]}}\n', path.read_text(encoding="utf-8")
        # Not `written == want`: pytest would diff the two 2 MB strings for minutes.
        assert len(written) == len(want) and written.startswith(want)
        assert peak < 4 * 2**20

    def test_validation(self, capsys):
        assert run(capsys, "hv", "--labels", "0")[0] == EXIT_USAGE
        assert run(capsys, "hv", "--labels", str(2**20 + 1), "--models", "1",
                   "--frechet-grid", "0")[0] == EXIT_USAGE
        assert run(capsys, "hv", "--models", "0")[0] == EXIT_USAGE
        assert run(capsys, "hv", "--seed", "-1")[0] == EXIT_USAGE
        assert run(capsys, "hv", "--frechet-grid", "-1")[0] == EXIT_USAGE
        assert run(capsys, "hv", "--models", "1", "--frechet-grid", str(2**12 + 1))[0] == EXIT_USAGE
        assert run(capsys, "hv", "--method", "lp")[0] == EXIT_USAGE


class TestInternalFailure:
    def test_lp_solver_failure_exits_four(self, capsys, monkeypatch):
        failed = types.SimpleNamespace(status=2, x=None, fun=None)
        monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs: failed)
        code, out, err = run(capsys, "hv", "--models", "1", "--frechet-grid", "3")
        assert code == EXIT_INTERNAL
        assert out == ""
        assert "LP solver failed" in err and "Traceback" not in err

    def test_cross_check_failure_exits_four(self, capsys, monkeypatch):
        def disagree(*args, **kwargs):
            raise ArithmeticError("cross-check disagrees")

        monkeypatch.setattr(cli, "reduced_lhs_exact", disagree)
        code, _, err = run(capsys, "eval", "--c", "0.5", "--alpha", "0", "--beta", "0")
        assert code == EXIT_INTERNAL
        assert err == "error: cross-check disagrees\n"


class TestExpand:
    def test_discrepancy_flagged_for_small_weight(self, capsys):
        doc = run_json(capsys, "expand", "--c", "0.005", "--eps", "0.01")
        row = doc["results"]["rows"][0]
        assert row["lhs_first_order"] > 1.0
        assert row["lhs_exact"] <= 1.0
        assert row["first_order_holds"] is False
        assert row["discrepancy"] is True
        assert doc["results"]["any_discrepancy"] is True

    def test_default_ladder_shows_second_order_residual(self, capsys):
        doc = run_json(capsys, "expand", "--c", "0.3")
        results = doc["results"]
        assert len(results["rows"]) == 10
        assert all(3.5 <= r <= 4.5 for r in results["ratios"])
        assert all(row["first_order_holds"] is True for row in results["rows"])
        assert results["any_discrepancy"] is False

    def test_zero_weight_has_no_discrepancy(self, capsys):
        doc = run_json(capsys, "expand", "--c", "0", "--eps", "0.01")
        row = doc["results"]["rows"][0]
        assert row["lhs_first_order"] == 1.0  # equality, not a predicted violation
        assert row["discrepancy"] is False

    def test_predicate_undefined_reported_as_null(self, capsys):
        doc = run_json(capsys, "expand", "--c", "0.8", "--eps", "0.01")
        assert doc["results"]["rows"][0]["first_order_holds"] is None

    def test_ratio_of_zero_residuals_is_null(self, capsys):
        # At c = 0 the first-order form is exact, so both residuals are 0 and their ratio is nan.
        doc = run_json(capsys, "expand", "--c", "0", "--eps-ladder", "1e-300:5e-301")
        assert [row["difference"] for row in doc["results"]["rows"]] == [0, 0]
        assert doc["results"]["ratios"] == [None]

    def test_flag_conflicts(self, capsys):
        code, _, _ = run(capsys, "expand", "--c", "0.3", "--eps", "0.01",
                         "--eps-ladder", "1e-2:1e-3")
        assert code == EXIT_USAGE
        code, _, _ = run(capsys, "expand", "--c", "0.3", "--eps-ladder", "bogus")
        assert code == EXIT_USAGE


def _run_python(*args):
    src = str(Path(leggettlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=60, env=env)


class TestConsoleScript:
    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        proc = _run_python("-c", "import sys, leggettlab.cli; "
                                 "print('scipy.optimize' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_python_dash_m(self):
        proc = _run_python("-m", "leggettlab", "eval", "--c", "0.5", "--alpha", "0", "--beta", "0")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["command"] == "eval"

    def test_closed_stdout_exits_quietly(self):
        # The report, about 0.9 MB of listed violations, outgrows the pipe: the
        # reader takes its first bytes and closes it while the command writes.
        env = dict(os.environ, PYTHONPATH=str(Path(leggettlab.__file__).parents[1]))
        proc = subprocess.Popen([sys.executable, "-m", "leggettlab", "scan", "--step", "2e-2", "--c-step", "0.1",
                                 "--tolerance=-0.5", "--no-refine"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(50).startswith(b'{"command": "scan"')
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == EXIT_CLOSED
        assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr

    def test_installed_entry_point(self):
        exe = shutil.which("leggettlab")
        assert exe, "console script 'leggettlab' not on PATH"
        proc = subprocess.run(
            [exe, "eval", "--c", "0.5", "--alpha", "0", "--beta", "0"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_OK
        doc = json.loads(proc.stdout)
        assert doc["command"] == "eval"
