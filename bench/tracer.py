"""Per-layer spans recorded from outside the library.

``Tracer.install`` wraps every public function of each circbeta module and
rebinds the wrapper wherever the function is bound, in its own module, in the
modules that import it and in the package namespace, so that calls between
modules are seen. numpy and scipy are not wrapped. Spans stay in memory until
the pass ends. A span's self time is its duration minus that of its direct
child spans; the layer of a span is the module that defines the function.
"""

from __future__ import annotations

import inspect
import math
import statistics
from time import perf_counter

import numpy as np

import circbeta
from circbeta import (beta_even, cli, correlations, gap, kernels, numerics,
                      painleve, sff, spacing)

LAYERS = {m.__name__.rsplit(".", 1)[1]: m for m in (
    numerics, kernels, correlations, gap, painleve, spacing, sff, beta_even, cli)}

# Metric group of each wrapped function, by (layer, function). rho2_even_beta
# is grouped per call by the quadrature engine it runs (see _engine).
GROUPS = {
    ("kernels", "kernel_eval"): "kernels.eval",
    ("gap", "fredholm_det"): "gap.fredholm",
    ("gap", "fredholm_trace_correction"): "gap.fredholm",
    ("gap", "e_bulk"): "gap.e_bulk",
    ("gap", "e_pm"): "gap.e_bulk",
    ("gap", "gap_probabilities"): "gap.e_bulk",
    ("gap", "e_finite_cue"): "gap.toeplitz",
    ("gap", "extract_correction"): "gap.richardson",
    ("numerics", "chebyshev_points"): "numerics.cheb",
    ("numerics", "chebyshev_diff_matrix"): "numerics.cheb",
    ("numerics", "spectral_derivative"): "numerics.cheb",
    ("numerics", "chebyshev_interpolate"): "numerics.cheb",
    ("numerics", "gauss_legendre"): "numerics.rules",
    ("numerics", "gauss_jacobi"): "numerics.rules",
    ("numerics", "clenshaw_curtis"): "numerics.rules",
    ("numerics", "digamma"): "numerics.digamma",
    ("painleve", "solve_sigma0"): "painleve.ode",
    ("painleve", "e_tau"): "painleve.tau",
    ("spacing", "p_bulk"): "spacing.p_bulk",
    ("spacing", "verify_spacing_identity"): "spacing.verify",
    ("correlations", "rho_n_pfaffian"): "correlations.pfaffian",
    ("correlations", "pfaffian"): "correlations.pfaffian",
    ("correlations", "rho2_bulk_term"): "correlations.closed_form",
    ("correlations", "verify_rho2_identity"): "correlations.closed_form",
    ("sff", "sff_exact"): "sff.exact",
    ("sff", "sff_bulk_scaled"): "sff.exact",
    ("sff", "sff_series"): "sff.series",
    ("sff", "series_coefficient"): "sff.series",
    ("sff", "verify_x6"): "sff.series",
    ("sff", "check_functional_symmetry_and_zeros"): "sff.series",
    ("beta_even", "verify_moment_recurrence"): "beta_even.recurrence",
    ("beta_even", "recurrence_sides"): "beta_even.recurrence",
    ("beta_even", "moment_integral"): "beta_even.recurrence",
    ("cli", "main"): "cli.main",
}

_ENGINE_ORDER = {2: 64, 4: 48, 6: 24}    # rho2_even_beta default orders


def _engine(signature, args, kwargs):
    """Quadrature engine and node-combination count of one rho2_even_beta call."""
    params = signature.bind(*args, **kwargs)
    params.apply_defaults()
    a = params.arguments
    beta, method = a["beta"], a["method"]
    if method == "auto":
        method = {2: "hankel", 4: "pfaffian"}.get(beta, "tensor")
    if method != "tensor":
        return f"beta_even.{method}", 0
    n = a["quad_order"] or _ENGINE_ORDER[beta]
    check = a["check_convergence"]
    combos = math.comb(n, beta) + (math.comb(2 * n, beta) if check else 0)
    return "beta_even.tensor", combos


# Work counted per span, from the call's arguments and result.
_COUNTS = {
    ("kernels", "kernel_eval"): lambda args, kwargs, result: int(np.size(result)),
    ("gap", "e_finite_cue"): lambda args, kwargs, result: int(
        args[0] if args else kwargs["N"]) ** 3,
    ("painleve", "solve_sigma0"): lambda args, kwargs, result: int(result.grid.size),
}


class Tracer:
    """Span recorder; one per traced pass."""

    def __init__(self):
        # span: [layer, function, group, parent index, start, end, count]
        self.spans = []
        self._stack = []
        self.on = False

    def _wrap(self, layer, name, fn):
        key = (layer, name)
        group = GROUPS.get(key)
        count = _COUNTS.get(key)
        engine = key == ("beta_even", "rho2_even_beta")
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if engine else None

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            span = [layer, name, group, stack[-1] if stack else -1, 0.0, 0.0, 0]
            if engine:
                span[2], span[6] = _engine(signature, args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                stack.pop()
            if count:
                span[6] = count(args, kwargs, result)
            return result

        traced.__name__ = name
        return traced

    def install(self):
        """Wrap the public functions of every layer and rebind them everywhere."""
        wrapped = {}
        for layer, mod in LAYERS.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(layer, name, obj)
        for mod in (circbeta, *LAYERS.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
        self.on = True

    def stop(self):
        self.on = False

    def summary(self, t_start: float, t_end: float) -> dict:
        """Per-layer metrics of the pass that ran from t_start to t_end."""
        spans = self.spans
        dur = [s[5] - s[4] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        self_s = [d - c for d, c in zip(dur, child)]

        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = 0.0
        for group in (*sorted(set(GROUPS.values())), "beta_even.hankel",
                      "beta_even.pfaffian", "beta_even.tensor"):
            m[f"{group}.calls"] = 0
            m[f"{group}.busy_s"] = 0.0
            m[f"{group}.self_s"] = 0.0
            m[f"{group}.count"] = 0
        for i, s in enumerate(spans):
            m[f"{s[0]}.self_s"] += self_s[i]
            group = s[2]
            if group is None:
                continue
            m[f"{group}.self_s"] += self_s[i]
            m[f"{group}.count"] += s[6]
            p = s[3]
            while p >= 0 and spans[p][2] != group:
                p = spans[p][3]
            if p < 0:   # outermost span of its group
                m[f"{group}.calls"] += 1
                m[f"{group}.busy_s"] += dur[i]

        def children_in(group, parent_group):
            return sum(1 for s in spans if s[2] == group and s[3] >= 0
                       and spans[s[3]][2] == parent_group)

        calls = m["gap.fredholm.calls"]
        m["gap.fredholm.kernel_evals_per_call"] = \
            children_in("kernels.eval", "gap.fredholm") / calls if calls else 0.0
        calls = m["spacing.p_bulk.calls"]
        m["spacing.p_bulk.e_bulk_per_call"] = \
            children_in("gap.e_bulk", "spacing.p_bulk") / calls if calls else 0.0
        m["kernels.eval.entries"] = m["kernels.eval.count"]
        m["gap.toeplitz.n3_computed"] = m["gap.toeplitz.count"]
        m["painleve.ode.steps"] = m["painleve.ode.count"]
        m["beta_even.tensor.combos_computed"] = m["beta_even.tensor.count"]

        # glue: pass time outside every span, from the gaps between root spans
        glue, t = 0.0, t_start
        for s in spans:
            if s[3] < 0:
                glue += s[4] - t
                t = s[5]
        glue += t_end - t
        m["trace.glue_s"] = glue
        m["trace.unaccounted_s"] = (t_end - t_start) - glue - sum(
            m[f"{layer}.self_s"] for layer in LAYERS)
        m["trace.spans"] = len(spans)
        return m

    def records(self, t_start: float) -> list[dict]:
        return [{"layer": s[0], "function": s[1], "group": s[2], "parent": s[3],
                 "start_s": s[4] - t_start, "end_s": s[5] - t_start, "count": s[6]}
                for s in self.spans]


def median_metrics(summaries: list[dict]) -> dict:
    return {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}
