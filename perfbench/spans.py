"""Span tracing of selzeta's layers from outside the package.

`install()` replaces selected public functions of each selzeta module by
timing wrappers.  A wrapper is bound under every name that held the original
in any loaded selzeta module, so calls through module-level `from ... import`
bindings (transport's `selberg_component`, `integrate_sum`, `series_mul`, ...)
are traced too.  Spans nest: a layer's self time is the duration of its spans
minus the time their child spans cover.  Count hooks read the arguments and
return values at the same boundaries.  A traced name that the package no
longer has raises at install time, so a rename cannot read as a layer that
does no work.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# prefix of the stderr line in which cli_shim.py reports a traced CLI call
TRACE_MARK = "PERFBENCH_TRACE "

LAYERS = ("cli", "mzv", "ncalg", "graphs", "braid", "selberg", "transport")

TRACED = {
    "mzv": ("mzv_eval", "word_eval", "mzv_eval_nested", "stuffle_indices", "shuffle_regularize"),
    "ncalg": ("series_mul", "series_exp", "series_log", "series_inv", "shuffle_words", "grouplike_defect"),
    "graphs": ("wedge_chain", "principal_product", "omega_coefficient", "residue_expand", "omega_residue_direct"),
    "braid": ("build_tower", "pure_braid_defects", "eta_gamma_check", "matrix_generators", "stacked_column", "spectrum"),
    "selberg": ("integrate_graph", "integrate_sum", "selberg_component", "taylor_coefficients", "sum_relation_defect"),
    "transport": (
        "transport_ode",
        "transport_series",
        "regularized_limit",
        "connection_ladder",
        "regularized_connection_matrix",
        "associator_numeric",
        "associator_series",
        "associator_symbolic",
        "rho_apply",
        "projection_identity_check",
        "alpha_limit_check",
    ),
    "cli": ("main", "run_suite", "run_check"),
}

# the figures the count hooks below produce; each starts at 0, a true zero
# because every traced function is wrapped
COUNTS = (
    "selberg.integrals",
    "selberg.nodes",
    "selberg.unconverged",
    "selberg.d1_s",
    "selberg.d2_s",
    "selberg.d3_s",
    "braid.eta_gamma_tuples",
    "graphs.wedge_terms",
    "graphs.omega_calls",
    "transport.ode_solves",
    "mzv.evals",
    "ncalg.series_mul_calls",
)
MAXIMA = ("selberg.err_est_max", "braid.max_dim", "transport.ladder_err_max")


class Tracer:
    def __init__(self, default_tol=None):
        self.stack = []  # [start, time covered by children]
        self.self_s = defaultdict(float)
        self.counts = dict.fromkeys(COUNTS, 0.0)
        self.maxima = dict.fromkeys(MAXIMA, 0.0)
        self.check_s = {}
        # requested accuracy per free dimension when integrate_graph gets tol=None
        self.default_tol = default_tol

    def wrap(self, layer, name, fn):
        hook = getattr(self, f"_on_{name}", None)
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append([clock(), 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                start, covered = stack.pop()
                dur = clock() - start
                self.self_s[layer] += dur - covered
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(args, kwargs, result, dur)
            return result

        return traced

    # -- count hooks -------------------------------------------------------

    def _on_integrate_graph(self, args, kwargs, result, dur):
        g = args[0] if args else kwargs["g"]
        l = g.n - len(g.roots)
        self.counts["selberg.integrals"] += 1
        self.counts[f"selberg.d{l}_s"] = self.counts.get(f"selberg.d{l}_s", 0.0) + dur
        nodes = result.evaluations
        self.counts["selberg.nodes"] += nodes
        scaled = float(result.err_estimate) / max(1.0, abs(complex(result.value)))
        self.maxima["selberg.err_est_max"] = max(self.maxima["selberg.err_est_max"], scaled)
        tol = kwargs.get("tol", args[2] if len(args) > 2 else None)
        if tol is None:
            tol = self.default_tol[l]
        if l > 0 and nodes and scaled > tol:
            self.counts["selberg.unconverged"] += 1

    def _on_eta_gamma_check(self, args, kwargs, result, dur):
        self.counts["braid.eta_gamma_tuples"] += 1

    def _on_build_tower(self, args, kwargs, result, dur):
        for fam in result.values():
            self.maxima["braid.max_dim"] = max(self.maxima["braid.max_dim"], fam.dim)

    def _on_wedge_chain(self, args, kwargs, result, dur):
        self.counts["graphs.wedge_terms"] += len(result.terms)

    def _on_omega_coefficient(self, args, kwargs, result, dur):
        self.counts["graphs.omega_calls"] += 1

    def _on_transport_ode(self, args, kwargs, result, dur):
        self.counts["transport.ode_solves"] += 1

    _on_transport_series = _on_transport_ode

    def _on_regularized_limit(self, args, kwargs, result, dur):
        self.maxima["transport.ladder_err_max"] = max(self.maxima["transport.ladder_err_max"], float(result.err_estimate))

    def _on_mzv_eval(self, args, kwargs, result, dur):
        self.counts["mzv.evals"] += 1

    def _on_series_mul(self, args, kwargs, result, dur):
        self.counts["ncalg.series_mul_calls"] += 1

    def _on_run_check(self, args, kwargs, result, dur):
        self.check_s[result.check_id] = self.check_s.get(result.check_id, 0.0) + float(result.runtime)

    # -- summary -----------------------------------------------------------

    def raw(self):
        """Totals of this process, mergeable across processes by `merge`."""
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "check_s": dict(self.check_s),
        }


def merge(raws):
    """Sum self times, counts and check times; take the largest maxima."""
    out = Tracer().raw()
    for raw in raws:
        for part in ("self_s", "counts", "check_s"):
            for key, value in raw[part].items():
                out[part][key] = out[part].get(key, 0.0) + value
        for key, value in raw["maxima"].items():
            out["maxima"][key] = max(out["maxima"].get(key, 0.0), value)
    return out


def layer_metrics(raw, wall_s):
    """Per-layer figures of one traced pass whose timed section took wall_s."""
    self_s, counts = raw["self_s"], raw["counts"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        out[f"{layer}.self_share"] = self_s.get(layer, 0.0) / wall_s
    out["other.self_share"] = 1.0 - sum(self_s.get(layer, 0.0) for layer in LAYERS) / wall_s
    out.update(counts)
    out.update(raw["maxima"])
    tuples = counts.get("braid.eta_gamma_tuples", 0.0)
    out["braid.s_per_tuple"] = self_s.get("braid", 0.0) / tuples if tuples else 0.0
    sel_time = sum(counts.get(f"selberg.d{l}_s", 0.0) for l in (1, 2, 3))
    out["selberg.nodes_per_s"] = counts.get("selberg.nodes", 0.0) / sel_time if sel_time else 0.0
    # every registry check, 0 for those the workload does not run
    for check in importlib.import_module("selzeta.cli").REGISTRY:
        out[f"cli.check.{check.check_id}.s"] = raw["check_s"].get(check.check_id, 0.0)
    return out


def install():
    """Import every layer, wrap its traced functions everywhere, return the Tracer."""
    tracer = Tracer(dict(importlib.import_module("selzeta.selberg").DEFAULT_TOL))
    originals = {}
    for layer, names in TRACED.items():
        mod = importlib.import_module(f"selzeta.{layer}")
        for name in names:
            originals[id(getattr(mod, name))] = tracer.wrap(layer, name, getattr(mod, name))
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "selzeta" or mod_name.startswith("selzeta.")):
            continue
        for attr, value in list(vars(mod).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
    return tracer
