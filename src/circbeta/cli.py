"""Command-line front end: curves, tables, and verification reports as
CSV or JSON for external plotting and CI."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import astuple
from fractions import Fraction

import numpy as np

from . import beta_even, correlations, gap, numerics, sff, spacing

FMT = "{:.17g}"


def _parse_range(text: str):
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}; want lo:hi:count") from exc
    if count < 1 or not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        raise argparse.ArgumentTypeError(f"bad range {text!r}; want finite lo <= hi, count >= 1")
    return np.linspace(lo, hi, count)


def _emit(args, command, params, columns, rows):
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([FMT.format(v) if isinstance(v, float) else v for v in row])
        text = buf.getvalue()
    else:
        # strict JSON: a non-finite value (such as rho1 at beta = 6) is null
        doc = {"command": command, "params": params, "columns": list(columns),
               "rows": [[None if isinstance(v, float) and not math.isfinite(v) else v
                         for v in row] for row in rows]}
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _grid(args, single, fallback):
    value = getattr(args, single)
    if value is not None:
        if not math.isfinite(value):
            raise ValueError(f"--{single} must be finite, got {value}")
        return np.array([value])
    if args.range is not None:
        return args.range
    return fallback


def cmd_gap(args):
    grid = _grid(args, "s", np.linspace(0.1, 3.0, 30))
    e0, e1 = (gap.e_bulk(args.beta, order, grid, args.xi) for order in (0, 1))
    rows = [[float(s), float(a), float(b)] for s, a, b in zip(grid, e0, e1)]
    return _emit(args, "gap", {"beta": args.beta, "xi": args.xi},
                 ["s", "E0", "E1"], rows)


def cmd_spacing(args):
    grid = _grid(args, "s", np.linspace(0.1, 3.0, 30))
    p0, p1 = (spacing.p_bulk(args.beta, order, grid, args.xi) for order in (0, 1))
    rows = [[float(s), float(a), float(b)] for s, a, b in zip(grid, p0, p1)]
    return _emit(args, "spacing", {"beta": args.beta, "xi": args.xi},
                 ["s", "P0", "P1"], rows)


def cmd_sff(args):
    grid = _grid(args, "tau", np.linspace(0.0, 2.0, 41))
    orders = [args.order] if args.order is not None else [0, 1, 2]
    columns = ["tau"] + [f"S{o}" for o in orders]
    if args.N is not None:
        columns.append("exact_scaled")
    rows, singular = [], []
    for tau in grid:
        if sff.bulk_term_singular(args.beta, tau):
            singular.append(float(tau))
            row = [float(tau)] + [float("nan")] * len(orders)
        else:
            row = [float(tau)] + [sff.sff_bulk_term(args.beta, o, float(tau)) for o in orders]
        if args.N is not None:
            row.append(sff.sff_bulk_scaled(args.beta, args.N, float(tau)))
        rows.append(row)
    if singular:
        print(f"sff: the bulk terms at beta = {args.beta} are singular at tau = "
              + ", ".join(FMT.format(t) for t in singular)
              + f"; written as {'nan' if args.format == 'csv' else 'null'}", file=sys.stderr)
    if args.order is not None:
        columns = ["tau", "value"] + (["exact_scaled"] if args.N is not None else [])
    return _emit(args, "sff", {"beta": args.beta, "N": args.N, "order": args.order},
                 columns, rows)


def cmd_rho2(args):
    grid = _grid(args, "x", np.linspace(0.1, 3.0, 30))
    limit = args.limit or args.N is None
    if args.beta == 6:
        # one holonomic continuation serves the grid; the limit has no rho1 (nan)
        values = beta_even.rho2_even_beta(6, grid, None if limit else args.N)
        rows = [[float(x), float(v)] + [float("nan")] * limit for x, v in zip(grid, values)]
    elif limit:
        rho0, rho1 = (correlations.rho2_bulk_term(args.beta, o, grid) for o in (0, 1))
        rows = [[float(x), float(a), float(b)] for x, a, b in zip(grid, rho0, rho1)]
    else:
        rows = [[float(x), correlations.rho2_bulk_finite(args.beta, args.N, float(x))]
                for x in grid]
    if limit:
        return _emit(args, "rho2", {"beta": args.beta, "N": None},
                     ["x", "rho0", "rho1"], rows)
    return _emit(args, "rho2", {"beta": args.beta, "N": args.N}, ["x", "rho2"], rows)


def cmd_fig1(args):
    grid = args.range if args.range is not None else np.linspace(0.0, 3.0, 61)
    exact = np.where(grid > 0, spacing.p_bulk(2, 1, np.maximum(grid, 0.0), 1.0), 0.0)
    rows = [[float(s), float(e), spacing.surmise_correction(float(s))]
            for s, e in zip(grid, exact)]
    return _emit(args, "fig1", {"xi": 1.0}, ["s", "exact_correction",
                                             "surmise_correction"], rows)


def _orders(f):
    """(Q0, Q1) samplers for numerics.correction_residual from f(order, xs)."""
    return (lambda xs: f(0, xs)), (lambda xs: f(1, xs))


def _cheb(beta, tol, c, powers, span, samplers):
    """Registry entry whose residual is the largest over the (Q0, Q1) samplers
    of Q1 - c x^outer (x^inner Q0)'', powers = (outer, inner), on span =
    (lo, hi, grid, n_cheb): a Chebyshev interval reaching past the grid."""
    return beta, tol, lambda: max(numerics.correction_residual(q0, q1, c, *span, *powers)
                                  for q0, q1 in samplers)


def _identity_registry():
    c = numerics.correction_factor
    gap_s = (0.0, 1.05 * 3.0, np.linspace(0.1, 3.0, 31), spacing.CHEB_NODES)
    # one span: the p-rows differentiate the e-rows' e_bulk samples
    spacing_s = (*gap_s[:2], np.linspace(0.2, 2.5, 24), spacing.CHEB_NODES)
    rho2_x = (0.1, 1.1 * 3.0, np.linspace(0.2, 3.0, 15), 96)
    even_x = (0.1, 1.1 * 2.0, np.linspace(0.2, 2.0, 7), 32)

    def e_bulk(beta):
        return [_orders(lambda o, xs, xi=xi: gap.e_bulk(beta, o, xs, xi)) for xi in (0.5, 1.0)]

    def p_bulk(beta):
        # the samples p_bulk interpolates, taken on the engine's own nodes
        return [_orders(lambda o, xs, xi=xi: spacing._p_samples(beta, xi, gap_s[1])[o])
                for xi in (0.5, 1.0)]

    def rho2(beta):
        return [_orders(lambda o, xs: correlations.rho2_bulk_term(beta, o, xs))]

    def rho2_even(beta):
        # Q0 from one certified holonomic continuation, Q1 from one per N
        return [(lambda xs: beta_even._rho2_even(beta, xs, None, None, "holonomic", True),
                 lambda xs: beta_even.rho2_correction_estimate(beta, xs))]

    e_pm = [_orders(lambda o, xs, sg=sg: gap.e_pm(sg, o, xs, 0.8)) for sg in (+1, -1)]
    rho2_second = [(lambda xs: correlations.rho2_bulk_term(2, 0, xs),
                    lambda xs: correlations.rho2_bulk_term(2, 2, xs))]
    entries = {
        "e-corr-beta2": _cheb(2, 1e-6, c(2), (2, 0), gap_s, e_bulk(2)),
        "e-corr-beta1": _cheb(1, 1e-5, c(1), (2, 0), gap_s, e_bulk(1)),
        "e-corr-beta4": _cheb(4, 1e-5, c(4), (2, 0), gap_s, e_bulk(4)),
        "e-corr-pm": _cheb(1, 1e-5, c(1), (2, 0), gap_s, e_pm),
        "p-corr-beta2": _cheb(2, 1e-7, c(2), (0, 2), spacing_s, p_bulk(2)),
        "p-corr-beta1": _cheb(1, 1e-7, c(1), (0, 2), spacing_s, p_bulk(1)),
        "p-corr-beta4": _cheb(4, 1e-7, c(4), (0, 2), spacing_s, p_bulk(4)),
        "p-series-beta2": (2, 0.5, lambda: 0.0
                           if spacing.spacing_series_identity_holds(2) else 1.0),
        "p-series-beta1": (1, 0.5, lambda: 0.0
                           if spacing.spacing_series_identity_holds(1) else 1.0),
        "rho2-corr-beta1": _cheb(1, 1e-7, c(1), (0, 2), rho2_x, rho2(1)),
        "rho2-corr-beta2": _cheb(2, 1e-8, c(2), (0, 2), rho2_x, rho2(2)),
        "rho2-corr-beta4": _cheb(4, 1e-7, c(4), (0, 2), rho2_x, rho2(4)),
        "rho2-second-beta2": _cheb(2, 1e-8, -np.pi ** 2 / 60, (2, 2), rho2_x, rho2_second),
        "sff-x6-beta1": (1, 1e-10, lambda: max(astuple(sff.verify_x6(1)))),
        "sff-x6-beta4": (4, 1e-10, lambda: max(astuple(sff.verify_x6(4)))),
        # r4's zeros are off the circle; sff-zeros-r4 checks it against the oracle
        "sff-symmetry": (None, 1e-10, lambda: 1.0 if not sff._series_antisymmetric() else
                         sff.root_modulus_deviation(("p2", "p4", "q2", "q4", "r2"))),
        "sff-zeros-r4": (None, 1e-10, _r4_oracle_residual),
        "rho2-even-corr-beta2": _cheb(2, 1e-8, c(2), (0, 2), even_x, rho2_even(2)),
        "rho2-even-corr-beta4": _cheb(4, 3e-8, c(4), (0, 2), even_x, rho2_even(4)),
        "rho2-even-corr-beta6": _cheb(6, 2e-8, c(6), (0, 2), even_x, rho2_even(6)),
        "moment-recurrence-beta2": (2, 1e-11,
                                    lambda: beta_even.verify_moment_recurrence(2)),
    }
    return entries


def _r4_oracle_residual():
    # r4's zeros lie off the unit circle, so the stored r2 (tau^3) and r4
    # (tau^4) second-correction coefficients are checked against the exact
    # CβE oracle instead
    worst = 0.0
    for kappa in (Fraction(3), Fraction(3, 2)):
        oracle = sff.oracle_series_coefficients(kappa)
        for m in (3, 4):
            worst = max(worst, abs(float(sff.series_coefficient(2, m, kappa)
                                         - oracle[2, m])))
    return worst


def cmd_verify(args):
    registry = _identity_registry()
    if args.identity:
        if args.identity not in registry:
            print(f"unknown identity {args.identity!r}; known: "
                  + ", ".join(sorted(registry)), file=sys.stderr)
            return 2
        if args.beta not in (None, registry[args.identity][0]):
            raise ValueError(f"identity {args.identity!r} is not a beta = {args.beta} row")
        names = [args.identity]
    else:
        names = [n for n, (b, _, _) in registry.items()
                 if args.beta is None or b == args.beta]
    rows = []
    failed = False
    for name in names:
        beta, tol, fn = registry[name]
        residual = float(fn())
        ok = residual <= tol
        failed |= not ok
        rows.append([name, residual, tol, "pass" if ok else "FAIL"])
        print(f"{name:28s} residual={residual:9.3e} tol={tol:8.1e} "
              f"{'pass' if ok else 'FAIL'}")
    if args.out or args.format == "json":
        _emit(args, "verify", {"identity": args.identity, "beta": args.beta},
              ["identity", "residual", "tolerance", "status"], rows)
    return 1 if failed else 0


def _add_common(p, with_range=True):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    if with_range:
        p.add_argument("--range", type=_parse_range, default=None,
                       help="grid as lo:hi:count")


def build_parser():
    ap = argparse.ArgumentParser(prog="circbeta",
                                 description="circular beta ensemble numerics")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gap", help="gap generating function terms E0, E1")
    p.add_argument("--beta", type=int, choices=(1, 2, 4), default=2)
    p.add_argument("--xi", type=float, default=1.0)
    p.add_argument("--s", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("spacing", help="spacing generating function terms P0, P1")
    p.add_argument("--beta", type=int, choices=(1, 2, 4), default=2)
    p.add_argument("--xi", type=float, default=1.0)
    p.add_argument("--s", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_spacing)

    p = sub.add_parser("sff", help="structure function terms and exact values")
    p.add_argument("--beta", type=int, choices=(1, 2, 4), default=2)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--order", type=int, choices=(0, 1, 2), default=None)
    p.add_argument("--tau", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_sff)

    p = sub.add_parser("rho2", help="two-point correlation, finite N or limit")
    p.add_argument("--beta", type=int, choices=(1, 2, 4, 6), default=2)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--limit", action="store_true")
    p.add_argument("--x", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_rho2)

    p = sub.add_parser("verify", help="run identity checks against tolerances")
    p.add_argument("--identity", default=None)
    p.add_argument("--beta", type=int, choices=(1, 2, 4, 6), default=None)
    _add_common(p, with_range=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fig1", help="exact spacing correction vs surmise-based")
    _add_common(p)
    p.set_defaults(func=cmd_fig1)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
