"""Command-line front end: curves, tables, and verification reports as
CSV or JSON for external plotting and CI."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from functools import lru_cache

import numpy as np

from . import beta_even, correlations, gap, numerics, sff, spacing

FMT = "{:.17g}"


def _parse_range(text: str):
    try:
        lo, hi, count = text.split(":")
        lo = numerics._real("lo", float(lo))
        hi, count = numerics._real("hi", float(hi), lo), numerics._whole("count", int(count), 1)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad range {text!r}; want lo:hi:count, finite lo <= hi, count >= 1") from exc
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
        return np.array([numerics._real(f"--{single}", value)])
    if args.range is not None:
        return args.range
    return fallback


def cmd_gap(args):
    """gap and spacing: orders 0 and 1 of E (e_bulk) or P (p_bulk) on the s grid."""
    f, name = (gap.e_bulk, "E") if args.command == "gap" else (spacing.p_bulk, "P")
    grid = _grid(args, "s", np.linspace(0.1, 3.0, 30))
    v0, v1 = (f(args.beta, order, grid, args.xi) for order in (0, 1))
    rows = [[float(s), float(a), float(b)] for s, a, b in zip(grid, v0, v1)]
    return _emit(args, args.command, {"beta": args.beta, "xi": args.xi},
                 ["s", f"{name}0", f"{name}1"], rows)


cmd_spacing = cmd_gap


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
    limit = args.N is None
    if args.beta == 6:
        # one holonomic continuation serves the grid; the limit has no rho1 (nan)
        columns = ([beta_even.rho2_even_beta(6, grid, args.N)]
                   + [np.full(grid.size, np.nan)] * limit)
    elif limit:
        columns = [correlations.rho2_bulk_term(args.beta, o, grid) for o in (0, 1)]
    else:
        columns = [correlations.rho2_bulk_finite(args.beta, args.N, grid)]
    rows = [[float(v) for v in row] for row in zip(grid, *columns)]
    return _emit(args, "rho2", {"beta": args.beta, "N": args.N},
                 ["x", "rho0", "rho1"] if limit else ["x", "rho2"], rows)


def cmd_fig1(args):
    grid = args.range if args.range is not None else np.linspace(0.0, 3.0, 61)
    exact = np.where(grid > 0, spacing.p_bulk(2, 1, grid, 1.0), 0.0)
    rows = [[float(v) for v in row] for row in zip(grid, exact, spacing.surmise_correction(grid))]
    return _emit(args, "fig1", {"xi": 1.0}, ["s", "exact_correction",
                                             "surmise_correction"], rows)


def _orders(f):
    """(Q0, Q1) samplers for numerics.correction_residual from f(order, xs)."""
    return (lambda xs: f(0, xs)), (lambda xs: f(1, xs))


def _row(beta, tol, residual):
    """Registry entry (beta, tol, thunk) whose residual is residual(beta): a
    row's beta is written once, and its label, constant and samplers read it."""
    return beta, tol, lambda: residual(beta)


def _cheb(beta, tol, powers, span, samplers, c=None):
    """Registry entry whose residual is the largest over the (Q0, Q1) pairs of
    samplers(beta) of Q1 - c x^outer (x^inner Q0)'', powers = (outer, inner), c
    = -1/(6 beta) unless given, on span = (lo, hi, grid, n_cheb): a Chebyshev
    interval reaching past the grid."""
    c = numerics.correction_factor(beta) if c is None else c
    return _row(beta, tol, lambda b: max(numerics.correction_residual(q0, q1, c, *span, *powers)
                                         for q0, q1 in samplers(b)))


def _identity_registry():
    # p_bulk's first interval: the e-rows, p-rows and default curves share its nodes
    gap_s = (0.0, spacing._SPANS[0], np.linspace(0.1, 3.0, 31), spacing.CHEB_NODES)
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
        # Q0 from one certified array call, Q1 from one per N
        return [(lambda xs: beta_even.rho2_even_beta(beta, xs),
                 lambda xs: beta_even.rho2_correction_estimate(beta, xs))]

    def e_pm(beta):
        # the +- kernels carry the beta = 1 constant
        return [_orders(lambda o, xs, sg=sg: gap.e_pm(sg, o, xs, 0.8)) for sg in (+1, -1)]

    def rho2_second(beta):
        # Q0 the limit, Q1 the second correction
        return [_orders(lambda o, xs: correlations.rho2_bulk_term(beta, 2 * o, xs))]

    entries = {
        "e-corr-beta2": _cheb(2, 2e-12, (2, 0), gap_s, e_bulk),
        "e-corr-beta1": _cheb(1, 2e-11, (2, 0), gap_s, e_bulk),
        "e-corr-beta4": _cheb(4, 1e-12, (2, 0), gap_s, e_bulk),
        "e-corr-pm": _cheb(1, 2e-11, (2, 0), gap_s, e_pm),
        "p-corr-beta2": _cheb(2, 1e-7, (0, 2), spacing_s, p_bulk),
        "p-corr-beta1": _cheb(1, 1e-7, (0, 2), spacing_s, p_bulk),
        "p-corr-beta4": _cheb(4, 1e-7, (0, 2), spacing_s, p_bulk),
        "p-series-beta2": _row(2, 1e-14, spacing.spacing_series_residual),
        "p-series-beta1": _row(1, 1e-14, spacing.spacing_series_residual),
        "rho2-corr-beta1": _cheb(1, 2e-10, (0, 2), rho2_x, rho2),
        "rho2-corr-beta2": _cheb(2, 2e-11, (0, 2), rho2_x, rho2),
        "rho2-corr-beta4": _cheb(4, 3e-12, (0, 2), rho2_x, rho2),
        "rho2-second-beta2": _cheb(2, 5e-10, (2, 2), rho2_x, rho2_second, -np.pi ** 2 / 60),
        "sff-x6-beta1": _row(1, 3e-16, lambda b: max(sff.verify_x6(b))),
        "sff-x6-beta4": _row(4, 2e-15, lambda b: max(sff.verify_x6(b))),
        "sff-symmetry": (None, 2e-14, sff._symmetry_residual),
        "sff-zeros-r4": (None, 1e-15, sff._r4_oracle_residual),
        "rho2-even-corr-beta2": _cheb(2, 1e-8, (0, 2), even_x, rho2_even),
        "rho2-even-corr-beta4": _cheb(4, 3e-8, (0, 2), even_x, rho2_even),
        "rho2-even-corr-beta6": _cheb(6, 2e-8, (0, 2), even_x, rho2_even),
        "moment-recurrence-beta2": _row(2, 1e-12, beta_even.verify_moment_recurrence),
    }
    return entries


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
    # the JSON document alone goes to stdout
    lines = sys.stderr if args.format == "json" and not args.out else sys.stdout
    for name in names:
        beta, tol, fn = registry[name]
        residual = float(fn())
        ok = residual <= tol
        failed |= not ok
        rows.append([name, residual, tol, "pass" if ok else "FAIL"])
        print(f"{name:28s} residual={residual:9.3e} tol={tol:8.1e} "
              f"{'pass' if ok else 'FAIL'}", file=lines)
    if args.out or args.format == "json":
        _emit(args, "verify", {"identity": args.identity, "beta": args.beta},
              ["identity", "residual", "tolerance", "status"], rows)
    return 1 if failed else 0


def _add_common(p, with_range=True, single=None):
    """--format and --out; with_range adds --range, mutually exclusive with the
    single-point option --<single> when single names one."""
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    if with_range:
        grid = p.add_mutually_exclusive_group()
        if single:
            grid.add_argument(f"--{single}", type=float, default=None)
        grid.add_argument("--range", type=_parse_range, default=None,
                          help="grid as lo:hi:count")


def build_parser():
    ap = argparse.ArgumentParser(prog="circbeta",
                                 description="circular beta ensemble numerics")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, what in (("gap", "gap generating function terms E0, E1"),
                       ("spacing", "spacing generating function terms P0, P1")):
        p = sub.add_parser(name, help=what)
        p.add_argument("--beta", type=int, choices=(1, 2, 4), default=2)
        p.add_argument("--xi", type=float, default=1.0)
        _add_common(p, single="s")

    p = sub.add_parser("sff", help="structure function terms and exact values")
    p.add_argument("--beta", type=int, choices=(1, 2, 4), default=2)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--order", type=int, choices=(0, 1, 2), default=None)
    _add_common(p, single="tau")

    p = sub.add_parser("rho2", help="two-point correlation, finite N or limit")
    p.add_argument("--beta", type=int, choices=(1, 2, 4, 6), default=2)
    p.add_argument("--N", type=int, default=None)
    _add_common(p, single="x")

    p = sub.add_parser("verify", help="run identity checks against tolerances")
    p.add_argument("--identity", default=None)
    p.add_argument("--beta", type=int, choices=(1, 2, 4, 6), default=None)
    _add_common(p, with_range=False)

    p = sub.add_parser("fig1", help="exact spacing correction vs surmise-based")
    _add_common(p)
    return ap


@lru_cache(maxsize=1)
def _parser():
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        # looked up at call time, so a rebound cmd_* function is the one run
        return globals()[f"cmd_{args.command}"](args)
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
