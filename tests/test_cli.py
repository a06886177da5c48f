"""Command-line interface tests: wire formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gsgflow
from gsgflow import cli, solution
from gsgflow.cli import EXIT_INVALID_INPUT, EXIT_NON_CONVERGENCE, EXIT_OK, main


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main([argv[0], "--out", str(out), *argv[1:]])
    text = out.read_text() if out.exists() else ""
    return code, text


def count_kernel_builds(monkeypatch):
    """Wrap solution._mode_kernels and return the list its calls append
    (beta, times, stress, route tag) to."""
    calls = []
    original = solution._mode_kernels

    def counting(params, eigenvalues, t, controls, stress):
        kernels, tag = original(params, eigenvalues, t, controls, stress)
        calls.append((params.beta, np.asarray(t).tolist(), stress, tag))
        return kernels, tag

    monkeypatch.setattr(solution, "_mode_kernels", counting)
    return calls


def invalid_input(capsys, argv, name):
    """True when argv exits 3 with a message that names the input."""
    code = main(argv)
    err = capsys.readouterr().err
    return code == EXIT_INVALID_INPUT and name in err


def parse_csv(text):
    lines = [l for l in text.strip().split("\n") if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


class TestRoots:
    def test_default_table(self, tmp_path):
        code, text = run(tmp_path, "roots", "--n-max", "50", "--no-timestamp")
        assert code == EXIT_OK
        header, rows = parse_csv(text)
        assert header == ["n", "r_n", "residual"]
        assert len(rows) == 50
        assert float(rows[0][1]) == pytest.approx(math.pi / 3.0, rel=0.4)
        assert all(abs(float(r[2])) < 1e-10 for r in rows)

    def test_approx_roots_empty_residual_column(self, tmp_path):
        code, text = run(tmp_path, "roots", "--n-max", "4", "--approx-roots", "--no-timestamp")
        assert code == EXIT_OK
        _, rows = parse_csv(text)
        for n, row in enumerate(rows, start=1):
            assert float(row[1]) == n * math.pi / 3.0
            assert row[2] == ""

    def test_zero_n_max_rejected(self, tmp_path):
        code, text = run(tmp_path, "roots", "--n-max", "0", "--no-timestamp")
        assert code == EXIT_INVALID_INPUT
        assert text == ""

    def test_invalid_geometry_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("r1 = 4\nr2 = 1\n")
        code = main(["roots", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_INVALID_INPUT


class TestProfile:
    def test_curve_family_and_boundaries(self, tmp_path):
        code, text = run(tmp_path, "profile", "--t", "5", "--betas", "0.3,0.6,0.9",
                         "--r-steps", "9", "--modes", "30", "--no-timestamp")
        assert code == EXIT_OK
        header, rows = parse_csv(text)
        assert header == ["r", "beta", "omega"]
        betas = sorted({float(r[1]) for r in rows})
        # requested orders plus the second grade (1) and Newtonian (tag 0)
        assert betas == [0.0, 0.3, 0.6, 0.9, 1.0]
        for row in rows:
            r, beta, omega = map(float, row)
            if r == 1.0:
                assert omega == pytest.approx(3.0 * 5.0, abs=1e-7)
            if r == 4.0:
                assert omega == pytest.approx(6.0 * 5.0, abs=1e-7)

    def test_zero_time_column_is_zero(self, tmp_path):
        code, text = run(tmp_path, "profile", "--t", "0", "--betas", "0.5",
                         "--r-steps", "4", "--modes", "10", "--no-timestamp")
        assert code == EXIT_OK
        _, rows = parse_csv(text)
        assert all(float(r[2]) == 0.0 for r in rows)

    def test_beta_ordering_claim(self, tmp_path):
        code, text = run(tmp_path, "profile", "--t", "5", "--betas", "0.3,0.6,0.9",
                         "--r-steps", "9", "--modes", "40", "--no-timestamp")
        assert code == EXIT_OK
        _, rows = parse_csv(text)
        by_r = {}
        for row in rows:
            r, beta, omega = map(float, row)
            by_r.setdefault(r, {})[beta] = omega
        for r, curves in by_r.items():
            # near the mid-gap the field is still ~0 and the curves cross;
            # the ordering claim is about the developed region near walls
            if 1.75 < r < 3.25 or r in (1.0, 4.0):
                continue
            assert curves[0.3] > curves[0.6] > curves[0.9]

    def test_kernels_built_once_per_curve(self, tmp_path, monkeypatch):
        calls = count_kernel_builds(monkeypatch)
        code, text = run(tmp_path, "profile", "--t", "2", "--betas", "0.5", "--r-steps", "9",
                         "--modes", "10", "--no-timestamp")
        assert code == EXIT_OK
        assert len(parse_csv(text)[1]) == 9 * 3
        # the beta = 1 and Newtonian curves use the closed kernels
        assert calls == [(0.5, 2.0, False, "laplace"), (1.0, 2.0, False, "closed-sg"),
                         (1.0, 2.0, False, "closed-sg")]

    def test_non_finite_time_rejected(self, tmp_path, capsys):
        for t in ("nan", "inf"):
            assert invalid_input(capsys, ["profile", "--t", t, "--betas", "0.5",
                                          "--out", str(tmp_path / "x.csv")], "t must be")

    def test_json_format(self, tmp_path):
        out = tmp_path / "p.json"
        code = main(["profile", "--t", "2", "--betas", "0.5", "--r-steps", "3",
                     "--modes", "10", "--format", "json", "--no-timestamp", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["columns"] == ["r", "beta", "omega"]
        assert len(doc["rows"]) == 3 * 3


class TestHistory:
    def test_columns_and_t0_handling(self, tmp_path):
        code, text = run(tmp_path, "history", "--r-list", "1.3,3.8", "--t-max", "2",
                         "--t-steps", "4", "--betas", "0.5", "--modes", "10",
                         "--no-timestamp")
        assert code == EXIT_OK
        header, rows = parse_csv(text)
        assert header == ["t", "r", "beta", "omega"]
        t_vals = sorted({float(r[0]) for r in rows})
        assert t_vals[0] == 0.5  # starts at t_max / t_steps without the flag
        code, text = run(tmp_path, "history", "--r-list", "1.3", "--t-max", "2",
                         "--t-steps", "4", "--betas", "0.5", "--modes", "10",
                         "--include-t0", "--no-timestamp")
        _, rows = parse_csv(text)
        assert min(float(r[0]) for r in rows) == 0.0

    def test_nondecreasing_spin_up(self, tmp_path):
        code, text = run(tmp_path, "history", "--r-list", "1.3", "--t-max", "10",
                         "--t-steps", "10", "--betas", "0.5", "--modes", "40",
                         "--no-timestamp")
        assert code == EXIT_OK
        _, rows = parse_csv(text)
        series = [float(r[3]) for r in rows if float(r[2]) == 0.5]
        assert all(b >= a - 1e-12 for a, b in zip(series, series[1:]))

    def test_kernels_built_once_per_curve(self, tmp_path, monkeypatch):
        calls = count_kernel_builds(monkeypatch)
        code, _ = run(tmp_path, "history", "--r-list", "1.3,2.5,3.8", "--t-max", "2",
                      "--t-steps", "2", "--betas", "0.5", "--modes", "10", "--no-timestamp")
        assert code == EXIT_OK
        # one build per curve over the whole t column
        assert calls == [(0.5, [1.0, 2.0], False, "laplace"),
                         (1.0, [1.0, 2.0], False, "closed-sg"),
                         (1.0, [1.0, 2.0], False, "closed-sg")]

    def test_non_finite_t_max_rejected(self, tmp_path, capsys):
        assert invalid_input(capsys, ["history", "--t-max", "nan", "--betas", "0.5",
                                      "--out", str(tmp_path / "x.csv")], "t-max")

    def test_radius_outside_annulus(self, tmp_path):
        code = main(["history", "--r-list", "0.5", "--t-max", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_INVALID_INPUT


class TestStress:
    def test_r_sweep(self, tmp_path):
        code, text = run(tmp_path, "stress", "--t", "2", "--betas", "0.5",
                         "--r-steps", "5", "--modes", "15", "--no-timestamp")
        assert code == EXIT_OK
        header, rows = parse_csv(text)
        assert header == ["r", "t", "beta", "tau"]
        assert len(rows) == 5

    def test_equal_accelerations_zero_leading_term(self, tmp_path):
        cfg = tmp_path / "eq.cfg"
        cfg.write_text("omega1 = 2.0\nomega2 = 2.0\nbeta = 1.0\n")
        code, text = run(tmp_path, "stress", "--t", "3", "--betas", "1.0",
                         "--r-steps", "3", "--modes", "15", "--config", str(cfg),
                         "--no-timestamp")
        assert code == EXIT_OK

    def test_kernels_built_once_per_curve(self, tmp_path, monkeypatch):
        calls = count_kernel_builds(monkeypatch)
        code, _ = run(tmp_path, "stress", "--r-list", "1.3,2.5,3.8", "--t-max", "2",
                      "--t-steps", "2", "--betas", "0.5,0.7", "--modes", "10",
                      "--no-timestamp")
        assert code == EXIT_OK
        assert calls == [(0.5, [1.0, 2.0], True, "laplace"), (0.7, [1.0, 2.0], True, "laplace")]

    def test_non_finite_time_rejected(self, tmp_path, capsys):
        out = ["--betas", "0.5", "--out", str(tmp_path / "x.csv")]
        assert invalid_input(capsys, ["stress", "--t", "nan", *out], "t must be")
        assert invalid_input(capsys, ["stress", "--t", "inf", *out], "t must be")
        assert invalid_input(capsys, ["stress", "--t-max", "nan", *out], "t-max")
        assert invalid_input(capsys, ["stress", "--t-max", "-1", *out], "t-max")

    def test_beta1_series_refuses_cancellation(self, tmp_path):
        # with alpha1 = 0 the beta = 1 series at t = 10 cannot carry its
        # cancellation in double precision; it must not print a wrong tau
        cfg = tmp_path / "newtonian.cfg"
        cfg.write_text("alpha1 = 0\n")
        argv = ["stress", "--betas", "1", "--t", "10", "--config", str(cfg), "--no-timestamp"]
        assert run(tmp_path, *argv, "--strategy", "series")[0] == EXIT_NON_CONVERGENCE
        assert run(tmp_path, *argv, "--strategy", "laplace")[0] == EXIT_OK

    def test_zero_time_with_fractional_order_rejected(self, tmp_path):
        code = main(["stress", "--t", "0", "--betas", "0.5",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_INVALID_INPUT


class TestValidate:
    def test_fast_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["validate", "--level", "fast", "--no-timestamp", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert code == EXIT_OK
        assert doc["passed"] is True
        assert [c["name"] for c in doc["checks"]] == [
            "wronskian_identity", "g_function_single_term", "g_function_exponential",
            "gl_weights_beta1", "eigenvalue_residuals", "eigenvalue_spacing",
            "contour_ramp", "contour_exponential", "beta1_velocity_reduction",
            "beta1_stress_reduction", "boundary_conditions", "linearity",
            "gseries_refusal_beta095",
        ]
        for c in doc["checks"]:
            assert set(c) >= {"name", "discrepancy", "threshold", "passed"}

    def test_bad_config_rejected_before_compute(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("beta = 1.5\n")
        code = main(["validate", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert code == EXIT_INVALID_INPUT


class TestDeterminismAndConfig:
    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["profile", "--t", "1", "--betas", "0.5", "--r-steps", "4", "--modes", "10",
                "--no-timestamp"]
        assert main([*args, "--out", str(a)]) == EXIT_OK
        assert main([*args, "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_timestamp_header_line(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["roots", "--n-max", "2", "--out", str(out)])
        first = out.read_text().split("\n", 1)[0]
        assert first.startswith("# generated = ")

    def test_config_file_roundtrip(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# custom annulus\nr1 = 2.0\nr2 = 5.0  # wider\nomega1 = 1.0\n")
        out = tmp_path / "r.csv"
        code = main(["roots", "--n-max", "3", "--config", str(cfg), "--no-timestamp",
                     "--out", str(out)])
        assert code == EXIT_OK
        _, rows = parse_csv(out.read_text())
        assert float(rows[0][1]) == pytest.approx(math.pi / 3.0, rel=0.4)

    def test_zero_modes_override_rejected(self, tmp_path, capsys):
        assert invalid_input(capsys, ["profile", "--modes", "0", "--betas", "0.5",
                                      "--out", str(tmp_path / "x.csv")], "n_modes")

    def test_zero_tol_override_rejected(self, tmp_path, capsys):
        assert invalid_input(capsys, ["profile", "--tol", "0", "--betas", "0.5",
                                      "--out", str(tmp_path / "x.csv")], "tol_rel")

    def test_non_finite_config_values_rejected(self, tmp_path, capsys):
        for line, name in (("mu = nan", "mu"), ("rho = inf", "rho"), ("r2 = inf", "R2"),
                           ("omega1 = nan", "Omega1")):
            cfg = tmp_path / "c.cfg"
            cfg.write_text(line + "\n")
            assert invalid_input(capsys, ["roots", "--config", str(cfg),
                                          "--out", str(tmp_path / "x.csv")], name)

    def test_non_finite_grid_rejected(self, tmp_path, capsys):
        for line, name in (("dt = nan", "dt"), ("t_end = inf", "t_end")):
            cfg = tmp_path / "c.cfg"
            cfg.write_text(line + "\n")
            assert invalid_input(capsys, ["validate", "--level", "full", "--config", str(cfg),
                                          "--out", str(tmp_path / "r.json")], name)

    def test_missing_config_file_rejected(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.cfg")
        assert invalid_input(capsys, ["profile", "--config", missing,
                                      "--out", str(tmp_path / "x.csv")], missing)

    def test_config_path_that_is_a_directory_rejected(self, tmp_path, capsys):
        assert invalid_input(capsys, ["roots", "--config", str(tmp_path),
                                      "--out", str(tmp_path / "x.csv")], str(tmp_path))

    def test_unwritable_output_path_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "no_such_dir" / "x.csv")
        assert invalid_input(capsys, ["roots", "--n-max", "2", "--out", out], out)

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("viscosity = 2\n")
        assert main(["roots", "--config", str(cfg)]) == EXIT_INVALID_INPUT

    def test_seventeen_digit_serialization(self, tmp_path):
        code, text = run(tmp_path, "roots", "--n-max", "1", "--no-timestamp")
        _, rows = parse_csv(text)
        assert float(rows[0][1]) == float(format(float(rows[0][1]), ".17g"))

    def test_bad_usage_exit_code(self):
        assert main(["profile", "--bogus-flag"]) == EXIT_INVALID_INPUT
        assert main([]) == EXIT_INVALID_INPUT

    def test_usage_errors_name_the_problem(self, capsys):
        assert invalid_input(capsys, ["profile", "--bogus"],
                             "gsgflow: error: unrecognized arguments: --bogus")
        assert invalid_input(capsys, ["profile", "--format", "xml"],
                             "argument --format: invalid choice: 'xml'")


class TestParserReuse:
    def test_parser_built_once(self):
        assert cli.make_parser() is cli.make_parser()

    def test_reused_parser_keeps_no_state(self, capsys):
        # each argv in one process, after a refused one, writes what it writes
        # as the first command of a fresh interpreter
        argvs = [["fig1"], ["fig1", "--t", "0.5"], ["profile", "--t", "2", "--betas", "0.5"],
                 ["fig2"]]
        src = str(Path(gsgflow.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        codes = []
        for argv in argvs:
            argv = [*argv, "--no-timestamp"]
            codes.append(main(argv))
            in_process = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "gsgflow.cli", *argv], env=env,
                                   capture_output=True, text=True, timeout=120)
            assert (codes[-1], in_process.out, in_process.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr)
        assert codes == [EXIT_OK, EXIT_INVALID_INPUT, EXIT_OK, EXIT_OK]


class TestWriter:
    # the bytes of one value per column, as the writer has always formatted them
    VALUES = [-0.0, 5e-324, 1e308, 0.1, 1.0 / 3.0, *range(1, 51)]

    def _written(self, tmp_path, fmt, columns, table):
        out = tmp_path / f"table.{fmt}"
        cli._write_table(str(out), fmt, columns, table, timestamp=False)
        return out.read_text()

    def test_csv_seventeen_digits(self, tmp_path):
        rows = list(zip(self.VALUES, reversed(self.VALUES)))
        want = "a,b\n" + "".join(
            ",".join(format(float(v), ".17g") for v in row) + "\n" for row in rows)
        assert self._written(tmp_path, "csv", ["a", "b"], np.array(rows)) == want

    def test_json_floats(self, tmp_path):
        rows = list(zip(self.VALUES, reversed(self.VALUES)))
        doc = {"columns": ["a", "b"], "rows": [[float(v) for v in row] for row in rows]}
        want = json.dumps(doc, indent=2) + "\n"
        assert self._written(tmp_path, "json", ["a", "b"], np.array(rows)) == want

    def test_columns_beyond_the_table_written_empty(self, tmp_path):
        table = np.array([[1.0, 0.5], [2.0, 0.25]])
        assert self._written(tmp_path, "csv", ["n", "x", "y"], table) == "n,x,y\n1,0.5,\n2,0.25,\n"
        doc = json.loads(self._written(tmp_path, "json", ["n", "x", "y"], table))
        assert doc["rows"] == [[1.0, 0.5, None], [2.0, 0.25, None]]

    def test_approx_roots_json_null_residuals(self, tmp_path):
        code, text = run(tmp_path, "roots", "--n-max", "4", "--approx-roots", "--format", "json",
                         "--no-timestamp")
        assert code == EXIT_OK
        rows = json.loads(text)["rows"]
        assert [row[0] for row in rows] == [1.0, 2.0, 3.0, 4.0]
        assert all(row[2] is None for row in rows)


class TestFigurePresets:
    def test_fig1_five_curves(self, tmp_path):
        code, text = run(tmp_path, "fig1", "--modes", "20", "--no-timestamp")
        assert code == EXIT_OK
        header, rows = parse_csv(text)
        assert header == ["r", "beta", "omega"]
        r_count = len({row[0] for row in rows})
        assert r_count == 61
        assert len(rows) == r_count * 5

    def test_fig2_histories(self, tmp_path):
        code, text = run(tmp_path, "fig2", "--modes", "15", "--no-timestamp")
        assert code == EXIT_OK
        header, rows = parse_csv(text)
        assert header == ["t", "r", "beta", "omega"]
        rs = sorted({float(r[1]) for r in rows})
        assert rs == [1.3, 2.5, 3.8]
        assert min(float(r[0]) for r in rows) == 0.0

    @pytest.mark.parametrize("preset, argv", [
        ("fig1", ["profile", "--t", "5", "--betas", "0.3,0.6,0.9", "--r-steps", "61"]),
        ("fig2", ["history", "--r-list", "1.3,2.5,3.8", "--t-max", "10", "--t-steps", "50",
                  "--betas", "0.3,0.6,0.9", "--include-t0"]),
    ])
    def test_preset_equals_its_command_line(self, tmp_path, preset, argv):
        a, b = tmp_path / "preset.csv", tmp_path / "spelled.csv"
        assert main([preset, "--no-timestamp", "--out", str(a)]) == EXIT_OK
        assert main([*argv, "--no-timestamp", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv, name", [
    (["profile", "--r-steps", "1"], "r-steps"),
    (["stress", "--r-steps", "1"], "r-steps"),
    (["history", "--t-steps", "0"], "t-steps"),
    (["stress", "--t-max", "5", "--t-steps", "0"], "t-steps"),
    (["history", "--t-max", "inf"], "t-max"),
    (["stress", "--t-max", "inf"], "t-max"),
])
def test_grid_checks_refuse_for_every_command(tmp_path, capsys, argv, name):
    out = tmp_path / "x.csv"
    assert invalid_input(capsys, [*argv, "--betas", "0.5", "--out", str(out)], name)
    assert not out.exists()


@pytest.mark.parametrize("argv, name", [
    (["history", "--r-list", ","], "r list"),
    (["stress", "--t-max", "2", "--r-list", ","], "r list"),
    (["stress", "--betas", ",", "--t", "2"], "beta list"),
    (["profile", "--betas", ","], "beta list"),
])
def test_empty_list_refused(tmp_path, capsys, argv, name):
    out = tmp_path / "x.csv"
    assert invalid_input(capsys, [*argv, "--out", str(out)], name)
    assert not out.exists()


@pytest.mark.parametrize("argv, name", [
    # prefix matching would read these as --tol and --modes
    (["fig1", "--t", "0.5"], "--t 0.5"),
    (["fig2", "--t", "0.5", "--strategy", "series"], "--t 0.5"),
    (["profile", "--mod", "5"], "--mod 5"),
    # options a subcommand does not honour
    (["validate", "--approx-roots"], "--approx-roots"),
    (["validate", "--modes", "5"], "--modes"),
    (["validate", "--strategy", "series"], "--strategy"),
    (["validate", "--tol", "0.5"], "--tol"),
    (["validate", "--format", "json"], "--format"),
    (["roots", "--modes", "3"], "--modes"),
    (["roots", "--strategy", "series"], "--strategy"),
    (["roots", "--tol", "0.5"], "--tol"),
    (["fig1", "--approx-roots"], "--approx-roots"),
    (["profile", "--approx-roots"], "--approx-roots"),
])
def test_options_a_command_does_not_take_refused(tmp_path, capsys, argv, name):
    out = tmp_path / "x.csv"
    assert invalid_input(capsys, [*argv, "--out", str(out)],
                         f"unrecognized arguments: {name}")
    assert not out.exists()
