import json
import math
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

import circbeta
from circbeta import beta_even, cli, gap, rho2_even_beta, sff_bulk_term, spacing

try:
    from importlib.resources import files
    SCHEMA = json.loads(files("circbeta").joinpath("output_schema.json").read_text())
except Exception:  # pragma: no cover
    SCHEMA = None


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestCommands:
    def test_sff_single_cell(self, capsys):
        code, out = run(["sff", "--beta", "1", "--order", "0", "--tau", "0.5"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "tau,value"
        assert float(lines[1].split(",")[1]) == pytest.approx(1 - 0.5 * math.log(2.0))

    def test_gap_at_zero(self, capsys):
        code, out = run(["gap", "--beta", "2", "--xi", "0", "--s", "0.0"], capsys)
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[1]) == 1.0 and float(row[2]) == 0.0

    def test_rho2_limit_csv(self, capsys):
        code, out = run(["rho2", "--beta", "2", "--limit", "--x", "0.5"], capsys)
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(1 - (2 / np.pi) ** 2, rel=1e-12)

    def test_fig1_columns(self, capsys):
        code, out = run(["fig1", "--range", "0:3:4"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "s,exact_correction,surmise_correction"
        assert len(out.strip().splitlines()) == 5

    def test_spacing_json(self, capsys, tmp_path):
        path = tmp_path / "o.json"
        code, _ = run(["spacing", "--beta", "2", "--xi", "1.0", "--s", "1.0",
                       "--format", "json", "--out", str(path)], capsys)
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["columns"] == ["s", "P0", "P1"]
        if SCHEMA is not None:
            jsonschema.validate(doc, SCHEMA)

    def test_rho2_beta6_at_engine_default_order(self, capsys):
        code, out = run(["rho2", "--beta", "6", "--x", "0.7"], capsys)
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[1]) == rho2_even_beta(6, 0.7, None)

    @pytest.mark.parametrize("argv", [[], ["--N", "20"]])
    def test_rho2_beta6_grid_one_continuation(self, argv, capsys, monkeypatch):
        # the 30 default x share one continuation, and one more certifies them
        calls = []
        engine = beta_even._holonomic
        monkeypatch.setattr(beta_even, "_holonomic",
                            lambda *a: calls.append(a[1].size) or engine(*a))
        code, out = run(["rho2", "--beta", "6", *argv], capsys)
        assert code == 0 and len(out.strip().splitlines()) == 31
        assert calls == [30, 30]

    @pytest.mark.parametrize("beta, N", [(2, 0), (1, 1), (4, 1)])
    def test_rho2_small_N_exits_2(self, beta, N, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["rho2", "--beta", str(beta), "--N", str(N)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "N must be an integer >= 2" in captured.err

    def test_rho2_beta6_json_is_strict(self, capsys):
        # the limit has no closed-form rho1 at beta = 6: null, never a NaN token
        code, out = run(["rho2", "--beta", "6", "--x", "0.7", "--format", "json"], capsys)
        assert code == 0

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")
        doc = json.loads(out, parse_constant=refuse)
        assert doc["columns"] == ["x", "rho0", "rho1"]
        assert doc["rows"][0][2] is None
        if SCHEMA is not None:
            jsonschema.validate(doc, SCHEMA)

    @pytest.mark.parametrize("argv, most", [(["spacing", "--beta", "1"], 252),
                                            (["fig1"], 126)])
    def test_one_sweep_per_curve(self, argv, most, capsys, eigh_log):
        # one Chebyshev interval for the grid, both orders from each eigensolve
        gap._spectrum.cache_clear()
        spacing._p_samples.cache_clear()
        assert run(argv, capsys)[0] == 0
        assert eigh_log.matrices <= most

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sff_beta4_singular_point(self, fmt, capsys):
        # tau = 1 on the default grid: S_0, S_1, S_2 written as nan / null
        code = cli.main(["sff", "--beta", "4", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 0
        assert len(captured.err.splitlines()) == 1 and "tau = 1" in captured.err
        if fmt == "csv":
            lines = captured.out.strip().splitlines()
            rows = np.array([line.split(",") for line in lines[1:]], float)
        else:
            def refuse(token):
                raise ValueError(f"non-standard JSON constant {token}")
            doc = json.loads(captured.out, parse_constant=refuse)
            if SCHEMA is not None:
                jsonschema.validate(doc, SCHEMA)
            rows = np.array(doc["rows"], float)
        assert rows.shape == (41, 4)
        singular = rows[:, 0] == 1.0
        assert singular.sum() == 1 and np.all(np.isnan(rows[singular, 1:]))
        assert np.all(np.isfinite(rows[~singular]))

    def test_sff_exact_column(self, capsys):
        code, out = run(["sff", "--beta", "4", "--N", "40", "--range", "0.2:0.6:3"],
                        capsys)
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header == ["tau", "S0", "S1", "S2", "exact_scaled"]
        row = out.strip().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(sff_bulk_term(4, 0, 0.2), rel=1e-13)


class TestDeterminism:
    def test_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run(["gap", "--beta", "1", "--xi", "0.7", "--range", "0.2:1.4:7",
                 "--out", str(path)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_seventeen_digits(self, capsys):
        _, out = run(["rho2", "--beta", "2", "--limit", "--x", "0.5"], capsys)
        value = out.strip().splitlines()[1].split(",")[1]
        assert len(value.replace("-", "").replace(".", "").split("e")[0]) >= 16


class TestVerify:
    def test_single_identity_passes(self, capsys):
        code, out = run(["verify", "--identity", "e-corr-beta2"], capsys)
        assert code == 0
        assert "pass" in out

    def test_unknown_identity(self, capsys):
        code, _ = run(["verify", "--identity", "nope"], capsys)
        assert code == 2

    @pytest.mark.parametrize("name, beta", [("e-corr-beta2", 4), ("rho2-even-corr-beta6", 2),
                                            ("sff-symmetry", 2), ("sff-zeros-r4", 1)])
    def test_identity_beta_mismatch_exits_2(self, name, beta, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--identity", name, "--beta", str(beta)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "usage:" in captured.err and name in captured.err

    def test_identity_with_matching_beta_runs(self, capsys):
        code, out = run(["verify", "--identity", "sff-x6-beta4", "--beta", "4"], capsys)
        assert code == 0
        assert out.startswith("sff-x6-beta4") and out.rstrip().endswith("pass")

    def test_failing_row_exits_1(self, capsys, monkeypatch):
        registry = cli._identity_registry()
        registry["rho2-corr-beta2"] = (2, 1e-8, lambda: 1.0)
        monkeypatch.setattr(cli, "_identity_registry", lambda: registry)
        code, out = run(["verify", "--beta", "2"], capsys)
        assert code == 1
        status = {line.split()[0]: line.split()[-1] for line in out.strip().splitlines()}
        assert status.pop("rho2-corr-beta2") == "FAIL"
        assert status and set(status.values()) == {"pass"}

    def test_p_rows_reuse_the_e_rows_spectra(self, capsys):
        # one Chebyshev span: the p-rows differentiate the e-rows' e_bulk samples
        gap._spectrum.cache_clear()
        spacing._p_samples.cache_clear()
        for beta in (2, 1, 4):
            assert run(["verify", "--identity", f"e-corr-beta{beta}"], capsys)[0] == 0
        misses = gap._spectrum.cache_info().misses
        for beta in (2, 1, 4):
            assert run(["verify", "--identity", f"p-corr-beta{beta}"], capsys)[0] == 0
        assert gap._spectrum.cache_info().misses == misses

    def test_beta_filter_passes(self, capsys):
        code, out = run(["verify", "--beta", "4"], capsys)
        assert code == 0
        assert "FAIL" not in out

    def test_beta6_filter_runs_its_row(self, capsys):
        code, out = run(["verify", "--beta", "6"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("rho2-even-corr-beta6")
        assert lines[0].endswith("pass")

    def test_full_registry_passes(self, capsys, eigh_log):
        gap._spectrum.cache_clear()
        spacing._p_samples.cache_clear()
        code, out = run(["verify"], capsys)
        # e-corr-pm reuses the sweeps of e-corr-beta1, the p-rows those of the e-rows
        assert eigh_log.matrices <= 630
        assert code == 0
        assert "FAIL" not in out
        lines = out.strip().splitlines()
        assert len(lines) == len(cli._identity_registry()) == 21
        assert all(line.endswith("pass") for line in lines)

    @pytest.mark.parametrize("beta", [2, 4])
    def test_rho2_even_corr_wrong_factor_fails(self, beta, capsys, monkeypatch):
        # fitted through N = 32, 48, 64, 96 the rows resolve a 1% change of
        # -1/(6 beta)
        name = f"rho2-even-corr-beta{beta}"
        code, out = run(["verify", "--identity", name], capsys)
        assert code == 0 and out.rstrip().endswith("pass")
        monkeypatch.setattr(cli.numerics, "correction_factor", lambda b: -1 / (6.06 * b))
        code, out = run(["verify", "--identity", name], capsys)
        assert code == 1 and out.rstrip().endswith("FAIL")

    def test_rho2_even_corr_beta6(self, capsys, monkeypatch):
        # the paper's even-beta theorem at beta = 6; a 1% change of -1/(6 beta)
        # fails the row
        code, out = run(["verify", "--identity", "rho2-even-corr-beta6"], capsys)
        assert code == 0 and out.rstrip().endswith("pass")
        monkeypatch.setattr(cli.numerics, "correction_factor", lambda b: -1 / (6.06 * b))
        code, out = run(["verify", "--identity", "rho2-even-corr-beta6"], capsys)
        assert code == 1 and out.rstrip().endswith("FAIL")

    def test_known_r4_defect_reported(self, capsys):
        # the stored r2/r4 coefficients agree exactly with the CβE oracle
        code, out = run(["verify", "--identity", "sff-zeros-r4"], capsys)
        assert code == 0
        assert "pass" in out


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (["gap", "--xi", "1.5", "--s", "1"], "xi must lie in [0, 1]"),
        (["rho2", "--beta", "6", "--N", "5", "--x", "2.5"],
         "separation must stay within one period"),
    ])
    def test_library_value_error_exits_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["gap", "--quad", "64"], ["spacing", "--quad", "64"],
                                      ["sff", "--quad", "5"], ["verify", "--quad", "3"],
                                      ["fig1", "--quad", "2"]])
    def test_quad_unknown_off_rho2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --quad" in capsys.readouterr().err

    @pytest.mark.parametrize("quad", ["0", "5", "48"])
    def test_rho2_beta6_quad_out_of_range(self, quad, capsys):
        # rho2 takes no --quad either: the beta = 6 engine has no order to set
        with pytest.raises(SystemExit) as exc:
            cli.main(["rho2", "--beta", "6", "--quad", quad])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("error:") == 1 and "Traceback" not in err
        assert "unrecognized arguments: --quad" in err

    def test_bad_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gap", "--beta", "3"])
        assert exc.value.code == 2

    def test_bad_range_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gap", "--range", "nonsense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["rho2", "--range", "0.1:inf:3"], "bad range '0.1:inf:3'"),
        (["rho2", "--range", "nan:1:3"], "bad range 'nan:1:3'"),
        (["gap", "--range", "0:nan:3"], "bad range '0:nan:3'"),
        (["rho2", "--beta", "6", "--x", "nan"], "--x must be finite"),
        (["rho2", "--beta", "6", "--N", "16", "--x", "inf"], "--x must be finite"),
        (["rho2", "--beta", "2", "--x", "nan"], "--x must be finite, got nan"),
        (["rho2", "--beta", "4", "--N", "20", "--x", "inf"], "--x must be finite, got inf"),
        (["sff", "--beta", "1", "--tau", "nan"], "--tau must be finite, got nan"),
        (["sff", "--beta", "4", "--N", "20", "--tau=-inf"], "--tau must be finite"),
        (["gap", "--s", "inf"], "--s must be finite, got inf"),
        (["spacing", "--s", "nan"], "--s must be finite, got nan")])
    def test_non_finite_exits_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err and "Traceback" not in err

    def test_missing_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2


class TestImportCost:
    @staticmethod
    def _scipy_modules(code):
        src = os.path.dirname(os.path.dirname(circbeta.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = (f"{code}\nimport sys\nprint(sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.')))")
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        return out.strip().splitlines()[-1]

    @pytest.mark.parametrize("code", [
        "import circbeta",
        "import circbeta.cli; circbeta.cli.build_parser()"])
    def test_unused_scipy_subpackages_stay_unloaded(self, code):
        # scipy added about 0.3 s to every process start; the library needs none of it
        assert self._scipy_modules(code) == "[]"

    @pytest.mark.parametrize("argv", [
        ["verify", "--identity", "rho2-corr-beta1"],      # the sine integral
        ["sff", "--beta", "4", "--N", "20"],              # digamma
        ["rho2", "--beta", "6", "--x", "0.7"]])           # log-gamma, the holonomic engine
    def test_runs_load_no_scipy(self, argv):
        # no lazy import moves the cost into a run
        code = ("import contextlib, io; from circbeta import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()), "
                "contextlib.redirect_stderr(io.StringIO()):\n"
                f"    assert cli.main({argv!r}) == 0")
        assert self._scipy_modules(code) == "[]"
