import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from exact_fit import exact_float_taps
from numpy.testing import assert_allclose

import wsavgol
from wsavgol import cli
from wsavgol.cli import main
from wsavgol.design import make_spec


def run_cli(capsys, *argv):
    """Invoke the CLI in-process and return (exit_code, stdout, stderr)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse-level usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_one_parser_serves_every_call(self, capsys):
        argv = ("design", "--window", "25", "--degree", "4", "--weight", "quadratic")
        first, second = run_cli(capsys, *argv), run_cli(capsys, *argv)
        assert first == second and first[0] == 0
        assert cli.build_parser() is cli.build_parser()
        code, out, err = run_cli(capsys, "design", "--window", "5", "--bogus")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --bogus" in err
        assert run_cli(capsys, *argv) == first


class TestDesignCommand:
    def test_json_document(self, capsys):
        code, out, _ = run_cli(capsys, "design", "--window", "5", "--degree", "0",
                               "--weight", "quadratic")
        assert code == 0
        doc = json.loads(out)
        assert doc["q"] == 5 and doc["degree"] == 0 and doc["weight_kind"] == "quadratic"
        assert_allclose(doc["weights"], [2.5, 4.0, 4.5, 4.0, 2.5], rtol=0, atol=0)
        assert_allclose(doc["coefficients"],
                        [0.142857, 0.228571, 0.257143, 0.228571, 0.142857], atol=5e-7)
        assert_allclose(doc["r"], 37.0 / 175.0, rtol=1e-12)
        assert_allclose(doc["s"], 1.0 / 35.0, rtol=1e-12)

    def test_classic_table_coefficients(self, capsys):
        code, out, _ = run_cli(capsys, "design", "--window", "5", "--degree", "2",
                               "--weight", "constant")
        assert code == 0
        doc = json.loads(out)
        assert_allclose(doc["coefficients"],
                        [-0.085714, 0.342857, 0.485714, 0.342857, -0.085714], atol=5e-7)

    def test_even_window_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "design", "--window", "4")
        assert code == 2
        assert "odd" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "design", "--window", "3", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["index", "weight", "coefficient", "r", "s"]
        assert len(rows) == 4
        assert float(rows[1][2]) == pytest.approx(1 / 3)

    def test_table_format_mentions_metrics(self, capsys):
        code, out, _ = run_cli(capsys, "design", "--window", "5", "--format", "table")
        assert code == 0
        assert "r = " in out and "s = " in out

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "coeff.json"
        code, out, _ = run_cli(capsys, "design", "--window", "7", "--degree", "2",
                               "--weight", "quadratic", "--output", str(path))
        assert code == 0 and out == ""
        doc = json.loads(path.read_text())
        assert len(doc["coefficients"]) == 7

    def test_custom_weight_file(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1.0\n2.0\n1.0\n")
        code, out, _ = run_cli(capsys, "design", "--window", "3", "--weight-file", str(path))
        assert code == 0
        assert json.loads(out)["weight_kind"] == "custom"

    def test_asymmetric_weight_file_reproduces_every_degree(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1\n3\n2\n5\n1\n4\n2\n")
        code, out, _ = run_cli(capsys, "design", "--window", "7", "--degree", "2",
                               "--weight-file", str(path))
        assert code == 0
        c = np.array(json.loads(out)["coefficients"])
        x = np.arange(-3.0, 4.0)
        for power in range(3):
            assert abs(c @ x**power - float(power == 0)) < 1e-13, power

    @pytest.mark.parametrize("q,degree", [(1001, 20), (1001, 40), (2001, 20), (4001, 30)])
    def test_large_windows_match_exact_solve(self, capsys, q, degree):
        code, out, _ = run_cli(capsys, "design", "--window", str(q), "--degree", str(degree))
        assert code == 0
        assert_allclose(json.loads(out)["coefficients"],
                        exact_float_taps(make_spec(q, degree)), rtol=0, atol=1e-14)

    def test_near_interpolating_triangular_fit(self, capsys):
        # one degree short of interpolation, with the small end weights 1/16
        code, out, err = run_cli(capsys, "design", "--window", "31", "--degree", "30",
                                 "--weight", "triangular")
        assert code == 0, err
        assert_allclose(json.loads(out)["coefficients"],
                        exact_float_taps(make_spec(31, 30, "triangular")), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("command,expected", [
        (["design", "--window", "5", "--degree", "2"], 0),
        (["smooth", "--column", "y", "--window", "5", "--degree", "2", "--edge", "polyfit"], 0),
        (["verify", "--max-window", "5"], 1),
    ], ids=["design", "smooth", "verify"])
    def test_weights_near_the_float_limit(self, capsys, tmp_path, command, expected):
        path = tmp_path / "w.txt"
        path.write_text("1e308\n" * 5)
        if command[0] == "smooth":
            (tmp_path / "in.csv").write_text("y\n" + "".join(f"{i * i}\n" for i in range(9)))
            command = command + ["--input", str(tmp_path / "in.csv")]
        code, out, err = run_cli(capsys, *command, "--weight-file", str(path))
        assert (code, err) == (expected, "")
        if command[0] == "design":
            assert_allclose(json.loads(out)["coefficients"],
                            [-3 / 35, 12 / 35, 17 / 35, 12 / 35, -3 / 35], rtol=0, atol=2e-16)

    def test_negative_weight_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1.0\n-2.0\n1.0\n")
        code, _, err = run_cli(capsys, "design", "--window", "3", "--weight-file", str(path))
        assert code == 2
        assert "positive" in err

    @pytest.mark.parametrize("command", ["design", "smooth", "freqresp", "sweep"])
    def test_overparameterized_design_is_a_validation_error(self, capsys, tmp_path, command):
        # the centered fit of degree 6 needs 7 kernel columns on 5 samples
        src = tmp_path / "in.csv"
        _write_csv(src, ["y"], ["1.0"] * 9)
        argv = {"design": ["design", "--window", "5", "--degree", "6"],
                "smooth": ["smooth", "--input", str(src), "--column", "y", "--window", "5",
                           "--degree", "6"],
                "freqresp": ["freqresp", "--window", "5", "--degree", "6"],
                "sweep": ["sweep", "--windows", "5", "--degrees", "6"]}[command]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: degree 6 is too high for window 5: the largest it takes is 5\n"


class TestSweepCommand:
    def test_grid_size(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--windows", "5:9:2", "--degrees", "0",
                               "--weights", "constant,quadratic", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 1 + 6  # header + 3 windows x 1 degree x 2 weights

    def test_row_values(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--windows", "5", "--degrees", "0",
                               "--weights", "quadratic", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        header, row = rows[0], rows[1]
        rec = dict(zip(header, row))
        assert rec["q"] == "5" and rec["weight"] == "quadratic"
        assert float(rec["s"]) == pytest.approx(1 / 35, rel=1e-12)

    def test_q25_ratio_columns(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--windows", "25", "--degrees", "0",
                               "--weights", "constant", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        rec = dict(zip(rows[0], rows[1]))
        assert float(rec["s0/s2"]) == pytest.approx(4.68, rel=1e-12)
        assert float(rec["approx s0/s2"]) == pytest.approx(4.666667, rel=1e-6)

    def test_comma_window_list_and_all_weights(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--windows", "5,7", "--degrees", "0,2",
                               "--weights", "all", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 1 + 2 * 2 * 3

    def test_empty_grid(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--windows", ",", "--degrees", "0")
        assert code == 2

    def test_repeated_weight_kind_counts_once(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--windows", "5", "--degrees", "0",
                               "--weights", "quadratic,constant,quadratic", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [row[2] for row in rows[1:]] == ["constant", "quadratic"]

    def test_bad_grid_syntax(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--windows", "5:9", "--degrees", "0")
        assert code == 2
        assert "start:stop:step" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--windows", "5", "--degrees", "2",
                               "--weights", "triangular", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert len(records) == 1
        assert records[0]["degree"] == 2


    def test_negative_degree_is_named(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--windows", "5", "--degrees", "-2")
        assert (code, out) == (2, "")
        assert err == "error: degree must be >= 0, got -2\n"

    def test_degree_too_high_names_degree_and_window(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--windows", "3,9", "--degrees", "0,4")
        assert (code, out) == (2, "")
        assert err == "error: degree 4 is too high for window 3: the largest it takes is 3\n"

    def test_odd_degree_up_to_the_window_is_taken(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--windows", "3", "--degrees", "3",
                               "--format", "json")
        assert code == 0
        assert [rec["degree"] for rec in json.loads(out)] == [3, 3, 3]

    def test_rows_of_a_window_match_single_degree_sweeps(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--windows", "9,21", "--degrees", "0,2,5,6",
                               "--weights", "all", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        for q in (9, 21):
            for d in (0, 2, 5, 6):
                _, single, _ = run_cli(capsys, "sweep", "--windows", str(q), "--degrees", str(d),
                                       "--weights", "all", "--format", "json")
                got = [r for r in rows if (r["q"], r["degree"]) == (q, d)]
                want = json.loads(single)
                assert [r["weight"] for r in got] == [r["weight"] for r in want]
                for key in cli.SWEEP_KEYS[3:]:
                    # the err_ columns are differences of nearly equal ratios
                    tol = {"rtol": 0, "atol": 1e-15} if key.startswith("err_") else {"rtol": 1e-14}
                    assert_allclose([r[key] for r in got], [r[key] for r in want], **tol,
                                    err_msg=f"q={q} degree={d} {key}")

    def test_exit_codes_near_interpolation(self, capsys):
        # Exit codes of single-degree sweeps with degree q-8..q-1: negative
        # degrees are usage errors, and every near-interpolating fit of a
        # valid degree is designed.
        for q in range(3, 42, 2):
            for d in range(q - 8, q):
                code, _, _ = run_cli(capsys, "sweep", "--windows", str(q), "--degrees", str(d),
                                     "--format", "json")
                assert code == (2 if d < 0 else 0), (q, d)


class TestVerifyCommand:
    def test_default_grid_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-window", "11", "--max-degree", "4")
        assert code == 0
        assert "all checks passed" in out

    def test_small_window_lists_tw_eigenvalues(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-window", "3")
        assert code == 0
        assert "TW eigenvalues (q=3): 1, 3, 6" in out

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-window", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["tw_eigenvalues"]["3"] == pytest.approx([1.0, 3.0, 6.0], rel=1e-12)
        assert all(rep["max_gradient_abs"] <= 1e-10 for rep in payload["reports"])

    def test_negative_weight_file_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1.0 2.0 -1.0 2.0 1.0\n")
        code, _, err = run_cli(capsys, "verify", "--max-window", "5",
                               "--weight-file", str(path))
        assert code == 2
        assert "positive" in err

    def test_suboptimal_weight_file_fails_checks(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1.0 1.0 1.0 1.0 1.0\n")
        code, out, _ = run_cli(capsys, "verify", "--max-window", "5",
                               "--weight-file", str(path))
        assert code == 1
        assert "FAILED" in out

    @pytest.mark.parametrize("weights,max_window", [(8, 11), (5, 3)])
    def test_weight_file_outside_the_grid_names_length_and_range(self, capsys, tmp_path,
                                                                 weights, max_window):
        path = tmp_path / "w.txt"
        path.write_text("1.0\n" * weights)
        code, _, err = run_cli(capsys, "verify", "--max-window", str(max_window),
                               "--weight-file", str(path))
        assert code == 2
        assert f"holds {weights} weights" in err and f"3..{max_window}" in err
        assert len(err.strip().splitlines()) == 1

    def test_weight_file_report_has_no_hessian(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1.0 2.0 3.0 2.0 1.0\n")
        argv = ("verify", "--max-window", "5", "--weight-file", str(path))
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 1
        reports = json.loads(out)["reports"]
        assert [rep["n"] for rep in reports] == [1, 2]
        assert all(rep["min_hessian_eigenvalue"] is None for rep in reports)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        rows = [line.split() for line in out.splitlines() if line.startswith("5 ")]
        assert [row[3] for row in rows] == ["-", "-"]  # q, n, max|grad|, min eig(H)

    def test_even_max_window_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--max-window", "8")
        assert code == 2

    @pytest.mark.parametrize("weight_file", [False, True])
    def test_max_window_below_three_names_only_max_window(self, capsys, tmp_path,
                                                          weight_file):
        argv = ["verify", "--max-window", "1"]
        if weight_file:
            path = tmp_path / "w.txt"
            path.write_text("1.0 2.0 1.0\n")
            argv += ["--weight-file", str(path)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err == "error: --max-window must be at least 3, got 1\n"


def _write_csv(path, header, column):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for value in column:
            writer.writerow([value] if len(header) == 1 else value)


class TestSmoothCommand:
    def test_constant_column_unchanged(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        _write_csv(src, ["y"], ["3.0"] * 9)
        code, out, _ = run_cli(capsys, "smooth", "--input", str(src), "--column", "y",
                               "--window", "5", "--degree", "2", "--edge", "mirror")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [float(r["y_smoothed"]) for r in rows] == pytest.approx([3.0] * 9)

    def test_ramp_interior_unchanged(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        _write_csv(src, ["t", "y"], [[i, float(i)] for i in range(10)])
        code, out, _ = run_cli(capsys, "smooth", "--input", str(src), "--column", "y",
                               "--window", "5", "--degree", "2", "--edge", "valid")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["y_smoothed"] == "" and rows[-1]["y_smoothed"] == ""
        interior = [float(r["y_smoothed"]) for r in rows[2:-2]]
        assert interior == pytest.approx([float(i) for i in range(2, 8)])
        assert rows[0]["t"] == "0"  # original columns preserved

    def test_missing_column(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        _write_csv(src, ["y"], ["1.0", "2.0"])
        code, _, err = run_cli(capsys, "smooth", "--input", str(src), "--column", "z",
                               "--window", "3")
        assert code == 2
        assert "not found" in err

    def test_non_numeric_cell_reports_row(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        _write_csv(src, ["y"], ["1.0", "2.0", "oops", "4.0", "5.0"])
        code, _, err = run_cli(capsys, "smooth", "--input", str(src), "--column", "y",
                               "--window", "3")
        assert code == 1
        assert "row 3" in err

    def test_too_short_for_valid_window(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        _write_csv(src, ["y"], ["1.0", "2.0", "3.0"])
        code, _, err = run_cli(capsys, "smooth", "--input", str(src), "--column", "y",
                               "--window", "5", "--edge", "valid")
        assert code == 2
        assert "insufficient data" in err

    @pytest.mark.parametrize("weight_file,degree,code,message", [
        # the centered design needs 3 basis columns, the off-center edge fit 6
        (None, "5", 2, "6 basis columns exceed window length 5"),
        # two negligible weights leave 3 samples for the edge fit's 4 columns
        ("1 1e-20 1 1e-20 1", "3", 1, "weight-degenerate"),
    ])
    def test_polyfit_edge_fit_failures(self, capsys, tmp_path, weight_file, degree, code,
                                       message):
        src = tmp_path / "in.csv"
        _write_csv(src, ["y"], [str(float(i * i)) for i in range(7)])
        argv = ["smooth", "--input", str(src), "--column", "y", "--window", "5",
                "--degree", degree]
        if weight_file:
            (tmp_path / "w.txt").write_text(weight_file)
            argv += ["--weight-file", str(tmp_path / "w.txt")]
        got, _, err = run_cli(capsys, *argv)
        assert got == code
        assert message in err and len(err.splitlines()) == 1
        got, _, _ = run_cli(capsys, *argv, "--edge", "mirror")
        assert got == 0

    @pytest.mark.parametrize("edge", ["valid", "mirror", "polyfit"])
    def test_overflowing_column_is_a_computation_failure(self, tmp_path, edge):
        src = tmp_path / "in.csv"
        _write_csv(src, ["y"], ["1.7e308"] * 40)
        proc = subprocess.run(
            [sys.executable, "-m", "wsavgol.cli", "smooth", "--input", str(src),
             "--column", "y", "--window", "25", "--degree", "4", "--weight", "quadratic",
             "--edge", edge],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(wsavgol.__file__).parents[1])},
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "overflow" in proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and "Warning" not in proc.stderr

    def test_coefficient_file_round_trip(self, capsys, tmp_path):
        coeff_path = tmp_path / "c.json"
        code, _, _ = run_cli(capsys, "design", "--window", "5", "--degree", "2",
                             "--weight", "quadratic", "--output", str(coeff_path))
        assert code == 0
        src = tmp_path / "in.csv"
        rng = np.random.default_rng(5)
        _write_csv(src, ["y"], [repr(float(v)) for v in rng.standard_normal(20)])

        code, out_file, _ = run_cli(capsys, "smooth", "--input", str(src), "--column", "y",
                                    "--coeff-file", str(coeff_path), "--edge", "polyfit")
        assert code == 0
        code, out_flags, _ = run_cli(capsys, "smooth", "--input", str(src), "--column", "y",
                                     "--window", "5", "--degree", "2",
                                     "--weight", "quadratic", "--edge", "polyfit")
        assert code == 0
        assert out_file == out_flags  # bit-for-bit reproduction

    def _smooth_with_document(self, capsys, tmp_path, doc):
        coeff_path = tmp_path / "c.json"
        coeff_path.write_text(json.dumps(doc))
        src = tmp_path / "in.csv"
        _write_csv(src, ["y"], [str(float(v)) for v in range(12)])
        return run_cli(capsys, "smooth", "--input", str(src), "--column", "y",
                       "--coeff-file", str(coeff_path), "--edge", "mirror")

    @staticmethod
    def _moving_average_document(taps):
        return {"q": 5, "degree": 0, "weight_kind": "constant", "weights": [1.0] * 5,
                "coefficients": taps}

    def test_coefficient_file_must_be_an_object(self, capsys, tmp_path):
        code, _, err = self._smooth_with_document(capsys, tmp_path, [0.2] * 5)
        assert code == 2
        assert err.strip() == f"error: coefficient file {tmp_path / 'c.json'} must hold a JSON object"

    def test_coefficient_file_non_list_weights(self, capsys, tmp_path):
        doc = self._moving_average_document([0.2] * 5)
        doc["weights"] = 5
        code, _, err = self._smooth_with_document(capsys, tmp_path, doc)
        assert code == 2
        assert "malformed field" in err and len(err.strip().splitlines()) == 1

    def test_coefficient_file_taps_must_match_the_design(self, capsys, tmp_path):
        doc = self._moving_average_document([0.1, 0.1, 0.6, 0.1, 0.1])
        code, _, err = self._smooth_with_document(capsys, tmp_path, doc)
        assert code == 2
        assert "taps differ from the design" in err

    @pytest.mark.parametrize("fields", [
        {"q": 5.9, "degree": 0.7},
        {"q": True, "weights": [1.0], "coefficients": [1.0]},
        {"q": "5", "degree": "0"},
        {"weights": ["1"] * 5, "coefficients": ["0.2"] * 5},
    ], ids=["fractional", "bool", "string-sizes", "string-entries"])
    def test_coefficient_file_field_types(self, capsys, tmp_path, fields):
        doc = {**self._moving_average_document([0.2] * 5), **fields}
        code, _, err = self._smooth_with_document(capsys, tmp_path, doc)
        assert code == 2
        assert "malformed field" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_coefficient_file_non_finite_tap(self, capsys, tmp_path, bad):
        doc = self._moving_average_document([0.2, 0.2, bad, 0.2, 0.2])
        code, _, err = self._smooth_with_document(capsys, tmp_path, doc)
        assert code == 2
        assert err == "error: taps must be finite\n"

    def test_coefficient_file_dc_gain_message(self, capsys, tmp_path):
        doc = self._moving_average_document([0.2, 0.2, 0.2, 0.2, 0.21])
        code, _, err = self._smooth_with_document(capsys, tmp_path, doc)
        assert code == 2
        assert err == "error: taps must sum to 1, got 1.01\n"

    def test_coefficient_file_integral_floats_load(self, capsys, tmp_path):
        doc = {**self._moving_average_document([0.2] * 5), "q": 5.0, "degree": 0.0}
        code, _, _ = self._smooth_with_document(capsys, tmp_path, doc)
        assert code == 0

    def test_coefficient_file_taps_within_margin_load(self, capsys, tmp_path):
        # documents written by a less accurate kernel sit up to 5e-8 off
        taps = [0.2 - 5e-8, 0.2 + 5e-8, 0.2, 0.2 + 5e-8, 0.2 - 5e-8]
        code, _, _ = self._smooth_with_document(capsys, tmp_path,
                                                self._moving_average_document(taps))
        assert code == 0


class TestFreqrespCommand:
    def test_shape(self, capsys):
        code, out, _ = run_cli(capsys, "freqresp", "--window", "25", "--degree", "4",
                               "--weights", "constant,quadratic", "--points", "512")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["omega", "constant", "quadratic"]
        assert len(rows) == 513
        assert all(len(r) == 3 for r in rows[1:])

    def test_dc_row_is_unity(self, capsys):
        code, out, _ = run_cli(capsys, "freqresp", "--window", "9", "--degree", "2",
                               "--weights", "constant,triangular,quadratic",
                               "--points", "8")
        rows = list(csv.reader(io.StringIO(out)))
        dc = rows[1]
        assert float(dc[0]) == 0.0
        for mag in dc[1:]:
            assert float(mag) == pytest.approx(1.0, abs=1e-12)

    def test_stopband_comparison_q25_d4(self, capsys):
        code, out, _ = run_cli(capsys, "freqresp", "--window", "25", "--degree", "4",
                               "--weights", "constant,quadratic", "--points", "1024")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        omega = np.array([float(r[0]) for r in rows])
        const = np.array([float(r[1]) for r in rows])
        quad = np.array([float(r[2]) for r in rows])
        stop = omega >= 2.0 * np.pi / 3.0
        assert quad[stop].max() < const[stop].max()

    def test_points_validation(self, capsys):
        code, _, err = run_cli(capsys, "freqresp", "--window", "5", "--points", "1")
        assert code == 2

    def test_unknown_weight_kind(self, capsys):
        code, _, err = run_cli(capsys, "freqresp", "--window", "5", "--weights", "boxcar")
        assert code == 2

    def test_repeated_weight_kind_counts_once(self, capsys):
        argv = ("freqresp", "--window", "5", "--points", "4",
                "--weights", "quadratic,constant,quadratic")
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "omega,quadratic,constant"
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert list(json.loads(out)) == ["omega", "quadratic", "constant"]


def _run_into_closed_pipe(argv, unbuffered: bool):
    """Run the CLI in a child, close its stdout after one line: (line, exit code, stderr)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(wsavgol.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "wsavgol.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    return first, proc.returncode, err


# About 1 MB of CSV, far more than a pipe buffers, so the writer meets the closed pipe.
FREQRESP_CSV = ["freqresp", "--window", "25", "--points", "20000", "--format", "csv"]


def test_closed_output_pipe_exits_quietly():
    first, code, err = _run_into_closed_pipe(FREQRESP_CSV, unbuffered=False)
    assert first.startswith(b"omega,")
    assert err == b""
    assert code == 1


@pytest.mark.parametrize("command", ["freqresp", "smooth"])
def test_closed_unbuffered_pipe_exits_quietly(tmp_path, command):
    # Unbuffered stdout is a raw file: a write the closed pipe cuts short
    # must be retried, so that the next write raises BrokenPipeError.
    argv = FREQRESP_CSV
    if command == "smooth":
        src = tmp_path / "in.csv"
        _write_csv(src, ["t", "y"], [[i, repr(float(np.sin(i / 7.0)))] for i in range(40000)])
        argv = ["smooth", "--input", str(src), "--column", "y", "--window", "5"]
    first, code, err = _run_into_closed_pipe(argv, unbuffered=True)
    assert first.startswith(b"omega," if command == "freqresp" else b"t,y,y_smoothed")
    assert err == b""
    assert code == 1


class TestTableOutputRespectsNoColor:
    def test_verify_table_plain_when_not_tty(self, capsys, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        code, out, _ = run_cli(capsys, "verify", "--max-window", "3")
        assert code == 0
        assert "\x1b[" not in out

    def test_color_only_on_a_terminal_stdout(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("NO_COLOR", raising=False)
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
        argv = ("verify", "--max-window", "5", "--format", "table")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and "\x1b[32mPASS\x1b[0m" in out
        path = tmp_path / "v.txt"
        code, out, _ = run_cli(capsys, *argv, "--output", str(path))
        assert code == 0 and out == ""
        text = path.read_text()
        assert "PASS" in text and "\x1b" not in text


    def test_color_leaves_the_layout_alone(self, capsys, monkeypatch):
        argv = ("verify", "--max-window", "3")
        monkeypatch.setenv("NO_COLOR", "1")
        _, plain, _ = run_cli(capsys, *argv)
        monkeypatch.delenv("NO_COLOR")
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
        _, colored, _ = run_cli(capsys, *argv)
        assert "\x1b[32mPASS\x1b[0m" in colored
        assert re.sub(r"\x1b\[\d+m", "", colored) == plain

UNWRITABLE_OUTPUT_COMMANDS = {
    "design": ["design", "--window", "5"],
    "sweep": ["sweep", "--windows", "5"],
    "verify": ["verify", "--max-window", "3"],
    "freqresp": ["freqresp", "--window", "5"],
    "smooth": ["smooth", "--column", "y", "--window", "5"],
}


@pytest.mark.parametrize("command", sorted(UNWRITABLE_OUTPUT_COMMANDS))
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, command):
    argv = UNWRITABLE_OUTPUT_COMMANDS[command]
    if command == "smooth":
        src = tmp_path / "in.csv"
        _write_csv(src, ["y"], [float(i) for i in range(10)])
        argv = argv + ["--input", str(src)]
    path = tmp_path / "missing" / "o.txt"
    code, out, err = run_cli(capsys, *argv, "--output", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write output: ") and str(path) in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("message", ["Unable to allocate 14.9 GiB for an array", ""])
def test_out_of_memory_is_a_computation_failure(capsys, monkeypatch, message):
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "frequency_response", exhausted)
    code, out, err = run_cli(capsys, "freqresp", "--window", "401", "--points", "5000000")
    assert code == 1 and out == ""
    assert err == f"error: {message or 'MemoryError'}\n"
