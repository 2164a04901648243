import ast
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import circbeta
from circbeta import beta_even, cli, gap, numerics, rho2_even_beta, sff, sff_bulk_term, spacing

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
        # without --N, rho2 writes the limit and its correction
        code, out = run(["rho2", "--beta", "2", "--x", "0.5"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "x,rho0,rho1"
        row = out.strip().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(1 - (2 / np.pi) ** 2, rel=1e-12)

    def test_gap_tiny_value_certified(self, capsys):
        # orders 16 and 32 agree here on 5.5e-14 and 3.0e-27; order-256 LU gives 1.0992e-9
        code, out = run(["gap", "--beta", "2", "--xi", "0.5", "--s", "30"], capsys)
        assert code == 0
        assert abs(float(out.strip().splitlines()[1].split(",")[1]) - 1.0992e-9) <= 1e-10

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
        # the 30 default x share one engine call, which certifies them too
        calls = []
        engine = beta_even._holonomic
        monkeypatch.setattr(beta_even, "_holonomic",
                            lambda *a: calls.append(a[1].size) or engine(*a))
        code, out = run(["rho2", "--beta", "6", *argv], capsys)
        assert code == 0 and len(out.strip().splitlines()) == 31
        assert calls == [30]

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_rho2_finite_grid_one_call(self, beta, capsys, monkeypatch):
        # the 30 default x go through rho2_bulk_finite in one call
        calls = []
        finite = cli.correlations.rho2_bulk_finite
        monkeypatch.setattr(cli.correlations, "rho2_bulk_finite",
                            lambda b, N, x: calls.append(np.size(x)) or finite(b, N, x))
        code, out = run(["rho2", "--beta", str(beta), "--N", "41"], capsys)
        assert code == 0 and len(out.strip().splitlines()) == 31
        assert calls == [30]

    def test_fig1_one_surmise_call(self, capsys, monkeypatch):
        calls = []
        surmise = spacing.surmise_correction
        monkeypatch.setattr(spacing, "surmise_correction",
                            lambda s: calls.append(np.size(s)) or surmise(s))
        assert run(["fig1"], capsys)[0] == 0
        assert calls == [61]

    def test_fig1_surmise_reads_the_correction_factor(self, capsys, monkeypatch):
        # the surmise column's -1/12 is correction_factor(2): doubling it
        # doubles that column alone
        def columns():
            out = run(["fig1", "--range", "0:3:7"], capsys)[1]
            return list(zip(*(map(float, r.split(",")) for r in out.strip().splitlines()[1:])))
        _, exact, surmise = columns()
        monkeypatch.setattr(spacing, "correction_factor",
                            lambda beta: 2 * numerics.correction_factor(beta))
        _, exact_moved, surmise_moved = columns()
        assert exact_moved == exact and any(surmise)
        assert surmise_moved == tuple(2 * v for v in surmise)

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

    @pytest.mark.parametrize("argv", [["spacing", "--beta", "1"], ["fig1"]],
                             ids=["spacing-beta1", "fig1"])
    def test_one_sweep_per_curve(self, argv, capsys, eigh_log):
        # one Chebyshev interval for the grid, both orders from each eigensolve
        # of the parity blocks: 252 blocks of order 8 and 12, work 282,240
        gap._spectrum.cache_clear()
        spacing._p_samples.cache_clear()
        assert run(argv, capsys)[0] == 0
        assert eigh_log.work <= 310_000

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


class TestParser:
    def test_built_once_and_commands_looked_up_by_name(self, capsys, monkeypatch):
        builds, ran = [], []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        monkeypatch.setattr(cli, "cmd_verify", lambda args: ran.append(args.identity) or 0)
        cli._parser.cache_clear()
        for _ in range(3):
            assert run(["verify", "--identity", "sff-symmetry"], capsys)[0] == 0
        assert run(["gap", "--s", "0.5"], capsys)[0] == 0
        assert builds == [1] and ran == ["sff-symmetry"] * 3


class TestDeterminism:
    def test_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run(["gap", "--beta", "1", "--xi", "0.7", "--range", "0.2:1.4:7",
                 "--out", str(path)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_seventeen_digits(self, capsys):
        _, out = run(["rho2", "--beta", "2", "--x", "0.5"], capsys)
        value = out.strip().splitlines()[1].split(",")[1]
        assert len(value.replace("-", "").replace(".", "").split("e")[0]) >= 16


# For each row, a relative change delta of its constant c = -1/(6 beta) that
# the row must report as FAIL. An entry may only be lowered.
SENSITIVITY = {"e-corr-beta2": 1e-9, "e-corr-beta1": 1e-9, "e-corr-beta4": 1e-9,
               "e-corr-pm": 1e-9, "sff-x6-beta1": 1e-14, "sff-x6-beta4": 1e-14,
               "p-series-beta2": 1e-12, "p-series-beta1": 1e-12,
               "rho2-corr-beta1": 1e-9, "rho2-corr-beta2": 1e-10, "rho2-corr-beta4": 1e-10,
               # these floors wait on ROADMAP items 1 and 3
               "p-corr-beta2": 1e-6, "p-corr-beta1": 1e-6, "p-corr-beta4": 1e-6,
               "rho2-even-corr-beta2": 1e-7, "rho2-even-corr-beta4": 1e-7,
               "rho2-even-corr-beta6": 1e-7}


def _scale_constant(monkeypatch, delta):
    # the constant a Chebyshev row hands to correction_residual
    residual = numerics.correction_residual
    monkeypatch.setattr(numerics, "correction_residual",
                        lambda q0, q1, c, *a: residual(q0, q1, c * (1.0 + delta), *a))


def _scale_p2_constant_term(monkeypatch, delta):
    p2 = sff.POLYNOMIALS["p2"]
    monkeypatch.setitem(sff.POLYNOMIALS, "p2", (p2[0] * (1 + Fraction(delta)), *p2[1:]))


def _scale_integral_of_u2(monkeypatch, delta):
    integral = beta_even.moment_integral
    monkeypatch.setattr(beta_even, "moment_integral", lambda beta, theta, expo=(): integral(
        beta, theta, expo) * (1.0 + delta if tuple(expo) == (2,) else 1.0))


def _scale_r4_middle_coefficient(monkeypatch, delta):
    pref, e, r4, kpow = sff._SERIES[2, 4]
    middle = len(r4) // 2
    r4 = r4[:middle] + (r4[middle] * (1 + Fraction(delta)),) + r4[middle + 1:]
    monkeypatch.setitem(sff._SERIES, (2, 4), (pref, e, r4, kpow))


# Rows without c: a relative change delta of one quantity each checks, which
# the row must report as FAIL. An entry may only be lowered.
OTHER_SENSITIVITY = {"rho2-second-beta2": (1e-9, _scale_constant),
                     "sff-symmetry": (1e-13, _scale_p2_constant_term),
                     "sff-zeros-r4": (1e-12, _scale_r4_middle_coefficient),
                     "moment-recurrence-beta2": (1e-11, _scale_integral_of_u2)}


class TestVerify:
    def test_every_row_has_one_sensitivity_entry(self):
        # a row in neither table is never shown to fail
        assert not set(SENSITIVITY) & set(OTHER_SENSITIVITY)
        assert set(SENSITIVITY) | set(OTHER_SENSITIVITY) == set(cli._identity_registry())

    @pytest.mark.parametrize("name, delta", SENSITIVITY.items())
    def test_row_sees_its_constant(self, name, delta, monkeypatch, capsys):
        exact = numerics.correction_factor
        # spacing and sff bind the constant at import
        for module in (numerics, spacing, sff):
            monkeypatch.setattr(module, "correction_factor",
                                lambda beta: exact(beta) * (1.0 + delta))
        code, out = run(["verify", "--identity", name], capsys)
        assert code == 1 and f"{name} " in out and out.rstrip().endswith("FAIL")

    @pytest.mark.parametrize("name", OTHER_SENSITIVITY)
    def test_row_sees_its_quantity(self, name, monkeypatch, capsys):
        delta, perturb = OTHER_SENSITIVITY[name]
        perturb(monkeypatch, delta)
        code, out = run(["verify", "--identity", name], capsys)
        assert code == 1 and f"{name} " in out and out.rstrip().endswith("FAIL")

    @pytest.mark.parametrize("name", ["sff-x6-beta1", "sff-x6-beta4"])
    def test_x6_row_sees_d(self, name, monkeypatch, capsys):
        # d(kappa) scaled by 1 + 1e-12 reads 1.9e-11 at beta = 1 and 3.6e-14
        # at beta = 4, against bounds of 3e-16 and 2e-15
        d = sff._d_coeff
        monkeypatch.setattr(sff, "_d_coeff", lambda kappa: d(kappa) * (1 + Fraction(1e-12)))
        code, out = run(["verify", "--identity", name], capsys)
        assert code == 1 and f"{name} " in out and out.rstrip().endswith("FAIL")

    @pytest.mark.parametrize("field", [1, 3], ids=["kappa-1-power", "kappa-power"])
    def test_symmetry_row_sees_a_corrupted_record(self, field, monkeypatch, capsys):
        record = list(sff._SERIES[1, 4])
        record[field] += 1
        monkeypatch.setitem(sff._SERIES, (1, 4), tuple(record))
        code, out = run(["verify", "--identity", "sff-symmetry"], capsys)
        assert code == 1 and out.rstrip().endswith("FAIL")

    def test_zeros_r4_row_sees_a_corrupted_coefficient(self, monkeypatch, capsys):
        pref, e, r4, kpow = sff._SERIES[2, 4]
        corrupted = r4[:2] + (r4[2] + Fraction(1, 42),) + r4[3:]
        monkeypatch.setitem(sff._SERIES, (2, 4), (pref, e, corrupted, kpow))
        code, out = run(["verify", "--identity", "sff-zeros-r4"], capsys)
        assert code == 1 and out.rstrip().endswith("FAIL")

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

    @pytest.mark.parametrize("beta", [1, 2, 4, 6])
    def test_beta_filter_selects_the_rows_named_for_it(self, beta, capsys, monkeypatch):
        # each row's residual stubbed: the selection alone is under test
        registry = {name: (b, tol, lambda: 0.0)
                    for name, (b, tol, _) in cli._identity_registry().items()}
        monkeypatch.setattr(cli, "_identity_registry", lambda: registry)
        code, out = run(["verify", "--beta", str(beta)], capsys)
        assert code == 0
        want = {name for name in registry if name.endswith(f"-beta{beta}")}
        assert {line.split()[0] for line in out.strip().splitlines()} == (
            want | {"e-corr-pm"} if beta == 1 else want)

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
        # e-corr-beta1 and e-corr-pm reuse the sweeps of e-corr-beta2, the
        # p-rows those of the e-rows: 504 blocks of order 8 to 16, work 765,184
        assert eigh_log.matrices <= 550 and eigh_log.work <= 840_000
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

    def test_even_engine_called_with_its_defaults(self, capsys, monkeypatch):
        # every row reaches rho2_even_beta through beta, x and N alone, so
        # each runs the default, certified engine of its beta
        calls = []
        engine = beta_even.rho2_even_beta
        monkeypatch.setattr(beta_even, "rho2_even_beta",
                            lambda *a, **k: calls.append((a, k)) or engine(*a, **k))
        code, out = run(["verify"], capsys)
        assert code == 0 and len(out.strip().splitlines()) == 21
        bound = [inspect.signature(engine).bind(*a, **k).arguments for a, k in calls]
        assert {b["beta"] for b in bound} == {2, 4, 6}
        assert all(set(b) <= {"beta", "x", "N"} for b in bound)

    def test_json_alone_on_stdout(self, capsys):
        # without --out the row lines go to stderr, so stdout parses
        code = cli.main(["verify", "--identity", "sff-x6-beta1", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(captured.out)
        if SCHEMA is not None:
            jsonschema.validate(doc, SCHEMA)
        assert doc["rows"][0][0] == "sff-x6-beta1" and doc["rows"][0][3] == "pass"
        assert captured.err.startswith("sff-x6-beta1") and captured.err.rstrip().endswith("pass")

    def test_known_r4_defect_reported(self, capsys):
        # the stored r2/r4 coefficients agree exactly with the CβE oracle
        code, out = run(["verify", "--identity", "sff-zeros-r4"], capsys)
        assert code == 0
        assert "pass" in out


class TestBenchmarkContract:
    """What bench/ uses of the library, loaded from its files; nothing is run."""

    @staticmethod
    def load(name):
        path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.mark.parametrize("name", ["workloads", "run"])
    def test_library_names_it_uses_exist(self, name):
        # every cb.<name> or circbeta.<name> attribute and every name imported
        # from circbeta, read from the syntax tree
        bench = Path(__file__).resolve().parents[1] / "bench"
        tree = ast.parse((bench / f"{name}.py").read_text())
        used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id in ("cb", "circbeta")}
        used |= {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "circbeta"
                 for alias in node.names}
        assert used and [n for n in sorted(used) if not hasattr(circbeta, n)] == []

    def test_identities_are_registry_rows(self):
        assert set(self.load("workloads").IDENTITIES) <= set(cli._identity_registry())

    def test_tracer_binds_the_even_engine(self):
        tracer = self.load("tracer")
        signature = inspect.signature(beta_even.rho2_even_beta)
        xs = np.linspace(0.2, 2.0, 7)
        groups = [tracer._engine(signature, (beta, xs, N), {})[0]
                  for beta in (2, 4, 6) for N in (None, 40)]
        assert groups[:4] == ["beta_even.hankel"] * 2 + ["beta_even.pfaffian"] * 2
        assert all(g.startswith("beta_even.") for g in groups[4:])


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (["gap", "--xi", "1.5", "--s", "1"], "xi must lie in [0, 1]"),
        (["rho2", "--beta", "6", "--N", "5", "--x", "2.5"],
         "separation must stay within one period"),
        # each cap and bound refuses before any work: N = 4097 and s = 1e9
        (["rho2", "--beta", "4", "--N", "4097"], "N must be at most 4096"),
        (["rho2", "--beta", "1", "--N", "4097", "--x", "0.5"], "N must be at most 4096"),
        (["gap", "--s", "1e9"], "s must lie in [0, 300]"),
        (["spacing", "--s", "1e9"], "s must lie in [0, 6]"),
        # past s = 6 the one 64-node span of p_bulk loses digits
        (["spacing", "--beta", "4", "--xi", "0.5", "--range", "0.1:20:30"],
         "s must lie in [0, 6]"),
        # fig1 refuses s < 0 as spacing does, instead of writing 0 there
        (["fig1", "--range=-1:0.5:4"], "s must lie in [0, 6]"),
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

    @pytest.mark.parametrize("argv", [["rho2", "--limit"], ["rho2", "--N", "41", "--limit"]])
    def test_rho2_limit_flag_gone(self, argv, capsys):
        # omitting --N gives the limit; there is no flag for it
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --limit" in err

    @pytest.mark.parametrize("argv, single", [
        (["gap", "--s", "1.0", "--range", "0.5:2:3"], "--s"),
        (["spacing", "--range", "0.5:2:3", "--s", "1.0"], "--s"),
        (["sff", "--tau", "0.5", "--range", "0.1:0.3:2"], "--tau"),
        (["rho2", "--x", "0.5", "--range", "0.1:0.3:2"], "--x")])
    def test_single_point_with_range_exits_2(self, argv, single, capsys):
        # the single point used to win silently: one row written, exit 0
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "not allowed with argument" in err and single in err

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
    def _loaded(code, package="scipy"):
        src = os.path.dirname(os.path.dirname(circbeta.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = (f"{code}\nimport sys\nprint(sorted(m for m in sys.modules "
                 f"if m == {package!r} or m.startswith({package + '.'!r})))")
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        return out.strip().splitlines()[-1]

    @pytest.mark.parametrize("code", [
        "import circbeta",
        "import circbeta.cli; circbeta.cli.build_parser()"])
    def test_unused_scipy_subpackages_stay_unloaded(self, code):
        # scipy added about 0.3 s to every process start; the library needs none of it
        assert self._loaded(code) == "[]"

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
        assert self._loaded(code) == "[]"

    @pytest.mark.parametrize("code", [
        "import circbeta; from circbeta import cli",
        "import contextlib, io; from circbeta import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', '--identity', 'e-corr-beta2']) == 0"],
        ids=["import", "verify-run"])
    def test_numpy_polynomial_stays_unloaded(self, code):
        # importing it cost about 3.3 ms; numerics builds its Gauss-Legendre rules itself
        assert self._loaded(code, "numpy.polynomial") == "[]"

    def test_runs_load_no_numpy_ma(self):
        # np.unique imports numpy.ma on its first call, about 8 ms a process
        code = ("import contextlib, io; from circbeta import cli, rho_n_cue\n"
                "with contextlib.redirect_stdout(io.StringIO()), "
                "contextlib.redirect_stderr(io.StringIO()):\n"
                "    for argv in (['gap'], ['spacing'], ['fig1'], ['sff'], ['rho2'],\n"
                "                 ['verify', '--identity', 'e-corr-beta4']):\n"
                "        assert cli.main(argv) == 0\n"
                "assert rho_n_cue(8, [0.1, 0.5, 0.1]) == 0.0 < rho_n_cue(8, [0.1, 0.5])")
        assert self._loaded(code, "numpy.ma") == "[]"
