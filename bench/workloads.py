"""Seeded inputs, operations and output checks for the benchmark workloads.

A workload is a list of operations. ``make_inputs(workload, seed)`` draws every
parameter from the seed and returns plain data, so the library only ever sees
generated values. ``run_op`` hands one operation to the library and returns its
output; ``check_op`` judges that output afterwards, outside the timed region.
An operation fails when it raises or when its check is outside its bound.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import re

import numpy as np

import circbeta as cb
from circbeta import cli

WORKLOADS = ("verify", "curves", "finite-n")

# The 20 entries of the `circbeta verify` registry, fixed here so that the
# benchmark does not change when the registry does.
IDENTITIES = (
    "e-corr-beta2", "e-corr-beta1", "e-corr-beta4", "e-corr-pm",
    "p-corr-beta2", "p-corr-beta1", "p-corr-beta4",
    "p-series-beta2", "p-series-beta1",
    "rho2-corr-beta1", "rho2-corr-beta2", "rho2-corr-beta4", "rho2-second-beta2",
    "sff-x6-beta1", "sff-x6-beta4", "sff-symmetry", "sff-zeros-r4",
    "rho2-even-corr-beta2", "rho2-even-corr-beta4", "moment-recurrence-beta2",
)

# Defects of the library that the workloads run into on purpose. Each counts
# as a failed operation; a run stays correct while every failure is one of these.
KNOWN_DEFECTS = {
    "verify:sff-zeros-r4": "the stored quartic r4 has zeros off the unit circle",
    "curves:sff-beta4": "the default tau grid holds tau = 1, where S_0 at beta = 4 raises",
    "finite-n:richardson-5": "extract_correction with five values of N raises a "
                             "broadcast error",
}

# Left out on time grounds: `rho2 --beta 6` forwards the CLI default --quad 64
# to the tensor engine, C(64, 6) ~ 7.5e7 node combinations, roughly a minute
# per point. finite-n runs the tensor engine at its own default order instead.
EXCLUDED = {
    "curves:rho2-beta6": "CLI --quad 64 reaches the beta = 6 tensor engine "
                         "(about a minute per grid point)",
}

CURVE_KINDS = ("gap", "spacing", "fig1", "sff", "rho2")
TOEPLITZ_N = (20, 40, 80, 160, 320)
# Work per pass must not depend on the seed: the ODE always runs to the end of
# the largest drawn s, and every structure-function sweep has as many points.
S_MAX = 2.0
ODE_T_MAX = math.pi * S_MAX + 0.2
SFF_POINTS = 400


# ---------------------------------------------------------------------------
# Seeded inputs

def make_inputs(workload: str, seed: int) -> list[dict]:
    """Operations of one pass, every parameter drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    draw = lambda lo, hi, digits=3: round(rng.uniform(lo, hi), digits)
    if workload == "verify":
        names = list(IDENTITIES)
        rng.shuffle(names)
        return [{"name": f"verify:{n}", "kind": "verify", "identity": n} for n in names]
    if workload == "curves":
        fmt = lambda: rng.choice(("csv", "json"))
        ops = []
        for cmd in ("gap", "spacing"):
            for beta in (1, 2, 4):
                ops.append({"name": f"curves:{cmd}-beta{beta}", "kind": cmd, "beta": beta,
                            "xi": draw(0.3, 1.0), "format": fmt()})
        ops.append({"name": "curves:fig1", "kind": "fig1", "format": fmt()})
        for beta in (1, 2, 4):
            ops.append({"name": f"curves:sff-beta{beta}", "kind": "sff", "beta": beta,
                        "N": 100, "format": fmt()})
        for beta in (1, 2, 4):
            ops.append({"name": f"curves:rho2-beta{beta}", "kind": "rho2", "beta": beta,
                        "N": rng.randint(24, 64), "format": fmt()})
        return ops
    if workload == "finite-n":
        ops = []
        for i in range(3):
            s, xi = draw(0.5, 1.5), draw(0.3, 1.0)
            ops.append({"name": f"finite-n:richardson-3-{i}", "kind": "richardson",
                        "N_list": [20, 40, 80], "s": s, "xi": xi})
            for N in TOEPLITZ_N:
                ops.append({"name": f"finite-n:toeplitz-{i}-N{N}", "kind": "toeplitz",
                            "N": N, "s": s, "xi": xi})
        ops.append({"name": "finite-n:richardson-5", "kind": "richardson",
                    "N_list": list(TOEPLITZ_N), "s": draw(0.5, 1.5), "xi": draw(0.3, 1.0)})
        for i in range(4):
            s_list = sorted(draw(0.3, S_MAX) for _ in range(3))
            ops.append({"name": f"finite-n:painleve-{i}", "kind": "painleve",
                        "xi": draw(0.25, 1.0), "s": s_list})
        for beta in (1, 4):
            ops.append({"name": f"finite-n:pfaffian-beta{beta}", "kind": "pfaffian",
                        "beta": beta, "N": rng.randint(40, 120),
                        "x": sorted(draw(0.2, 3.0) for _ in range(30))})
        for beta in (1, 4):
            N = rng.randint(50, 200)
            ops.append({"name": f"finite-n:sff-exact-beta{beta}", "kind": "sff_exact",
                        "beta": beta, "N": N, "k": [round(2 * N * j / SFF_POINTS)
                                                    for j in range(1, SFF_POINTS + 1)]})
        for beta, method, n_x in ((2, "hankel", 6), (4, "pfaffian", 6), (6, "tensor", 4)):
            N = rng.randint(16, 32) if beta == 6 else rng.randint(24, 64)
            ops.append({"name": f"finite-n:even-{method}", "kind": "even_beta", "beta": beta,
                        "N": N, "x": sorted(draw(0.3, 1.5) for _ in range(n_x))})
        return ops
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# Operations

def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _curve_argv(op):
    argv = [op["kind"]]
    if "beta" in op:
        argv += ["--beta", str(op["beta"])]
    if "xi" in op:
        argv += ["--xi", repr(op["xi"])]
    if "N" in op:
        argv += ["--N", str(op["N"])]
    return argv + ["--format", op["format"]]


def run_op(op):
    kind = op["kind"]
    if kind == "verify":
        return _cli(["verify", "--identity", op["identity"]])
    if kind in CURVE_KINDS:
        return _cli(_curve_argv(op))
    if kind == "richardson":
        return cb.extract_correction(op["N_list"], op["s"], op["xi"])
    if kind == "toeplitz":
        return cb.e_finite_cue(op["N"], 2.0 * math.pi * op["s"] / op["N"], op["xi"])
    if kind == "painleve":
        sol = cb.sigma1_from_sigma0(cb.solve_sigma0(op["xi"], ODE_T_MAX))
        return sol, [(cb.e_tau(sol, s, 0), cb.e_tau(sol, s, 1)) for s in op["s"]]
    if kind == "pfaffian":
        return [cb.rho2_bulk_finite(op["beta"], op["N"], x) for x in op["x"]]
    if kind == "sff_exact":
        return [cb.sff_exact(op["beta"], op["N"], k) for k in op["k"]]
    if kind == "even_beta":
        beta = op["beta"]
        return [(cb.rho2_even_beta(beta, x, None), cb.rho2_even_beta(beta, x, op["N"]))
                for x in op["x"]]
    raise ValueError(f"unknown operation kind {kind!r}")


# ---------------------------------------------------------------------------
# Checks: each returns None when the output is within its bound, else a reason

_VERIFY_LINE = re.compile(r"residual=\s*(\S+)\s+tol=\s*(\S+)\s+(pass|FAIL)")
_SINE, _LKER = cb.KernelSpec("sine"), cb.KernelSpec("l")


def _within(name, got, want, bound):
    err = float(np.max(np.abs(np.asarray(got, float) - np.asarray(want, float))))
    if not err <= bound:
        return f"{name}: deviation {err:.3e} exceeds {bound:.1e}"
    return None


def _rho2_expansion(beta, N, xs):
    """rho_0 + rho_1 / N^2 from the closed-form bulk terms."""
    return [cb.rho2_bulk_term(beta, 0, x) + cb.rho2_bulk_term(beta, 1, x) / N ** 2
            for x in xs]


def _table(text, fmt):
    if fmt == "csv":
        lines = list(csv.reader(io.StringIO(text)))
        return lines[0], np.array(lines[1:], float)
    doc = json.loads(text)
    return doc["columns"], np.array(doc["rows"], float)


def _check_curve(op, out):
    rc, text = out
    if rc != 0:
        return f"exit status {rc}"
    cols, t = _table(text, op["format"])
    if not np.all(np.isfinite(t)):
        return "non-finite value in output"
    col = {c: t[:, i] for i, c in enumerate(cols)}
    kind, beta = op["kind"], op.get("beta")
    if kind == "gap":
        s, e0 = col["s"], col["E0"]
        if t.shape[0] != 30 or np.any(np.diff(e0) > 1e-12) or e0.min() < -1e-12:
            return "E0 not a decreasing function in [0, 1] on 30 points"
        # E(s; xi) = 1 - xi s + O(s^(beta + 2)); the golden table for beta = 2
        if beta == 2:
            return _within("E0 vs small-s table", e0[0],
                           cb.E_CUE_SMALL_S(s[0], op["xi"]), 1e-10)
        return _within("E0 vs 1 - xi s", e0[0], 1.0 - op["xi"] * s[0], 1e-3)
    if kind == "spacing":
        s, p0 = col["s"], col["P0"]
        if t.shape[0] != 30 or p0.min() < -1e-6:
            return "P0 negative or grid not 30 points"
        table = {1: cb.P0_BETA1, 2: cb.P0_BETA2}.get(beta)
        if table is not None:
            return _within("P0 vs small-s table", p0[0], table(s[0], op["xi"]), 1e-6)
        return None
    if kind == "fig1":
        if t.shape[0] != 61:
            return "grid not 61 points"
        return _within("exact vs surmise correction", col["exact_correction"],
                       col["surmise_correction"], 0.02)
    if kind == "sff":
        N = op["N"]
        if t.shape[0] != 41:
            return "grid not 41 points"
        want = col["S0"] + col["S1"] / N ** 2 + col["S2"] / N ** 4
        return _within("exact vs bulk terms", col["exact_scaled"], want, 1e-6)
    if kind == "rho2":
        N = op["N"]
        return _within("finite N vs bulk terms", col["rho2"],
                       _rho2_expansion(beta, N, col["x"]), 20.0 / N ** 4)
    return f"no check for {kind!r}"


def _fredholm(s, xi):
    return cb.fredholm_det(_SINE, s, xi), cb.fredholm_trace_correction(_SINE, _LKER, s, xi)


def check_op(op, out):
    kind = op["kind"]
    if kind == "verify":
        rc, text = out
        m = _VERIFY_LINE.search(text)
        if m is None:
            return "no verify line in output"
        residual, tol = float(m.group(1)), float(m.group(2))
        if rc != 0 or not residual <= tol:
            return f"residual {residual:.3e} exceeds {tol:.1e}"
        return None
    if kind in CURVE_KINDS:
        return _check_curve(op, out)
    if kind == "richardson":
        e0, e1 = _fredholm(op["s"], op["xi"])
        if abs(out.residual_order - 4.0) > 0.3:
            return f"residual order {out.residual_order:.2f} not 4 +- 0.3"
        return (_within("E0 vs Nystrom", out.E0, e0, 1e-7)
                or _within("E1 vs Nystrom", out.E1, e1, 1e-4))
    if kind == "toeplitz":
        e0, e1 = _fredholm(op["s"], op["xi"])
        N = op["N"]
        return _within("Toeplitz vs E0 + E1/N^2", out, e0 + e1 / N ** 2, 1.0 / N ** 4)
    if kind == "painleve":
        sol, vals = out
        if sol.t_max < ODE_T_MAX - 1e-9:
            return "trajectory stops short"
        for s, (v0, v1) in zip(op["s"], vals):
            e0, e1 = _fredholm(s, op["xi"])
            bad = (_within(f"E0 at s={s}", v0, e0, 1e-8)
                   or _within(f"E1 at s={s}", v1, e1, 1e-7))
            if bad:
                return bad
        return None
    if kind == "pfaffian":
        N = op["N"]
        return _within("finite N vs bulk terms", out,
                       _rho2_expansion(op["beta"], N, op["x"]), 20.0 / N ** 4)
    if kind == "sff_exact":
        beta, N = op["beta"], op["N"]
        got, want = [], []
        for k, v in zip(op["k"], out):
            tau = k / N
            if beta == 4 and abs(tau - 1.0) < 0.2:
                continue   # logarithmic singularity of the bulk terms
            got.append(v * 2.0 * math.pi / N)
            want.append(sum(cb.sff_bulk_term(beta, o, tau) / N ** (2 * o) for o in range(3)))
        return _within("exact vs bulk terms", got, want, 1e-6)
    if kind == "even_beta":
        return _check_even(op, out)
    return f"no check for {kind!r}"


def _check_even(op, out):
    beta, N = op["beta"], op["N"]
    for x, (lim, fin) in zip(op["x"], out):
        if beta == 2:
            bad = (_within("limit vs closed form", lim, cb.rho2_bulk_term(2, 0, x), 1e-10)
                   or _within("finite N vs determinantal", fin, cb.rho2_bulk_finite(2, N, x),
                              1e-7))
        elif beta == 4:
            bad = (_within("limit vs closed form", lim, 4.0 * cb.rho2_bulk_term(4, 0, 2 * x),
                           1e-10)
                   or _within("finite N vs limit + correction", fin,
                              lim + cb.rho2_correction_limit(4, x) / N ** 2, 20.0 / N ** 4))
        elif not 0.0 < lim < 1.5:
            bad = f"limit {lim:.3e} outside (0, 1.5)"
        else:
            # the tensor quadrature is kink-limited at its default order; the
            # library's own tests hold it to 5e-2
            bad = _within("finite N vs limit", fin, lim, 5e-2)
        if bad:
            return f"x={x}: {bad}"
    return None
