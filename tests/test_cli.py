import json
import math

import jsonschema
import numpy as np
import pytest

from circbeta import cli, gap, rho2_even_beta, sff_bulk_term, spacing

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

    @pytest.mark.parametrize("argv, most", [(["spacing", "--beta", "1"], 252),
                                            (["fig1"], 126)])
    def test_one_sweep_per_curve(self, argv, most, capsys):
        # one Chebyshev interval for the grid, both orders from each eigensolve
        gap._spectrum.cache_clear()
        spacing._p_samples.cache_clear()
        assert run(argv, capsys)[0] == 0
        assert gap._spectrum.cache_info().misses <= most

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

    def test_tol_scale_can_force_failure(self, capsys):
        code, out = run(["verify", "--identity", "rho2-corr-beta2",
                         "--tol-scale", "1e-12"], capsys)
        assert code == 1
        assert "FAIL" in out

    def test_beta_filter_passes(self, capsys):
        code, out = run(["verify", "--beta", "4"], capsys)
        assert code == 0
        assert "FAIL" not in out

    def test_full_registry_passes(self, capsys):
        code, out = run(["verify"], capsys)
        assert code == 0
        assert "FAIL" not in out
        lines = out.strip().splitlines()
        assert len(lines) == len(cli._identity_registry()) == 20
        assert all(line.endswith("pass") for line in lines)

    def test_known_r4_defect_reported(self, capsys):
        # the stored r2/r4 coefficients agree exactly with the CβE oracle
        code, out = run(["verify", "--identity", "sff-zeros-r4"], capsys)
        assert code == 0
        assert "pass" in out


class TestUsageErrors:
    def test_bad_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gap", "--beta", "3"])
        assert exc.value.code == 2

    def test_bad_range_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gap", "--range", "nonsense"])
        assert exc.value.code == 2

    def test_missing_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2
