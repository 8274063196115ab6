"""Per-layer tracing from outside the program: span wrappers and self time.

``install`` wraps each function in ``LAYERS`` and rebinds every module
attribute and class attribute that held the original (``from .poly import
reduce_poly`` copies the name into the importing module, and ``__rmul__ =
__mul__`` copies it inside a class).  Each call records a span -- name,
start, end, parent -- in flat arrays owned by a ``Recorder``; every span of
a worker process belongs to the recorder's pass id.  A layer's self time is
its span's duration minus the part of that interval its child spans cover.

Nothing here is imported by an untraced pass.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import namedtuple

from workloads import WORKLOADS

Layer = namedtuple("Layer", "metric module path fires moves")


# metric prefix, module, attribute, workloads on which a call is required
# (a traced run of such a workload fails if the layer records none), and
# the end-to-end metric and workload the layer's numbers should move.
LAYERS = (
    Layer("exact.cyclo_mul", "mckaydeform.exact", "Cyclo.__mul__",
          ("ideal_scan", "smoke_mix"),
          "verdict_s on smoke_mix and ideal_scan; about 0 on e6_dense"),
    Layer("exact.cyclo_inverse", "mckaydeform.exact", "Cyclo.inverse",
          ("smoke_mix",),
          "verdict_s on smoke_mix and ideal_scan; about 0 on e6_dense"),
    Layer("poly.mul", "mckaydeform.poly", "MPoly.__mul__", WORKLOADS,
          "verdict_s and peak_rss_mb on e6_dense; item_ms_p50 on "
          "smoke_mix"),
    Layer("poly.add", "mckaydeform.poly", "MPoly.__add__", WORKLOADS,
          "verdict_s and peak_rss_mb on e6_dense; item_ms_p50 on "
          "smoke_mix"),
    Layer("poly.substitute", "mckaydeform.poly", "MPoly.substitute", WORKLOADS,
          "verdict_s and peak_rss_mb on e6_dense; item_ms_p50 on "
          "smoke_mix"),
    Layer("poly.buchberger", "mckaydeform.poly", "buchberger",
          ("ideal_scan", "smoke_mix"),
          "verdict_s and item_ms_p90 on ideal_scan; 0 on e6_dense"),
    Layer("poly.reduce_poly", "mckaydeform.poly", "reduce_poly",
          ("ideal_scan", "smoke_mix"),
          "verdict_s and item_ms_p90 on ideal_scan; 0 on e6_dense"),
    Layer("poly.Ideal.quotient_dimension", "mckaydeform.poly",
          "Ideal.quotient_dimension", ("ideal_scan",),
          "verdict_s and item_ms_p90 on ideal_scan; 0 on e6_dense"),
    Layer("flat.flat_coords_E6", "mckaydeform.flat", "flat_coords_E6",
          ("e6_dense",), "verdict_s on e6_dense"),
    Layer("flat.psi_E6_in_xy", "mckaydeform.flat", "psi_E6_in_xy",
          ("e6_dense",), "verdict_s on e6_dense"),
    Layer("flat.psi_E6_of_mu", "mckaydeform.flat", "psi_E6_of_mu",
          ("e6_dense",), "verdict_s on e6_dense"),
    Layer("flat.verify_w_invariance", "mckaydeform.flat",
          "verify_w_invariance", ("e6_dense",), "verdict_s on e6_dense"),
    Layer("deform.family", "mckaydeform.deform", "family",
          ("ideal_scan", "smoke_mix"),
          "verdict_s on smoke_mix; setup_s if the work moves to import"),
    Layer("deform.e6_mu_coefficients", "mckaydeform.deform",
          "e6_mu_coefficients", ("e6_dense",), "verdict_s on e6_dense"),
    Layer("deform.verify_e6_coefficients", "mckaydeform.deform",
          "verify_e6_coefficients", ("e6_dense",), "verdict_s on e6_dense"),
    Layer("deform.analyze_hypersurface", "mckaydeform.deform",
          "analyze_hypersurface", ("ideal_scan",),
          "exact_point_ratio and verdict_s on ideal_scan"),
    Layer("quotient.quotient_family", "mckaydeform.quotient",
          "quotient_family", ("ideal_scan", "smoke_mix"),
          "verdict_s on smoke_mix"),
    Layer("quotient.verify_quotient_pullback", "mckaydeform.quotient",
          "verify_quotient_pullback", ("smoke_mix",),
          "verdict_s on smoke_mix"),
    Layer("quotient.verify_singular_locus", "mckaydeform.quotient",
          "verify_singular_locus", ("smoke_mix",), "verdict_s on smoke_mix"),
    Layer("klein.klein_data", "mckaydeform.klein", "klein_data",
          ("smoke_mix",), "verdict_s on smoke_mix"),
    Layer("klein.verify_invariance", "mckaydeform.klein",
          "verify_invariance", ("smoke_mix",), "verdict_s on smoke_mix"),
    Layer("klein.verify_omega_action", "mckaydeform.klein",
          "verify_omega_action", ("smoke_mix",), "verdict_s on smoke_mix"),
    Layer("quiver.verify_symplectic_action", "mckaydeform.quiver",
          "verify_symplectic_action", ("smoke_mix",),
          "verdict_s on smoke_mix"),
    Layer("quiver.sample_moment_fibre", "mckaydeform.quiver",
          "sample_moment_fibre", ("smoke_mix",), "verdict_s on smoke_mix"),
    Layer("quiver.verify_moment_equivariance_numeric", "mckaydeform.quiver",
          "verify_moment_equivariance_numeric", ("smoke_mix",),
          "verdict_s on smoke_mix"),
)

UNIT = len(LAYERS)       # name index of the span around one benchmark unit


class Recorder:
    """Spans of one pass, kept in memory as parallel arrays."""

    def __init__(self, pass_id):
        self.pass_id = pass_id
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = []
        self.counts = {}
        self.installed = []     # (holder, attribute, original) to restore

    def open(self, name):
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def self_times(self):
        """(calls, self seconds) per name index.

        Spans are numbered in start order, so each parent's children arrive
        sorted by start and their union is one forward sweep.
        """
        n = len(LAYERS) + 1
        calls, total = [0] * n, [0.0] * n
        covered = [0.0] * len(self.name)
        reach = {}
        for i in range(len(self.name)):
            s, e, p = self.start[i], self.end[i], self.parent[i]
            calls[self.name[i]] += 1
            total[self.name[i]] += e - s
            if p >= 0:
                lo = max(s, reach.get(p, s))
                if e > lo:
                    covered[p] += e - lo
                    reach[p] = e
        for i in range(len(self.name)):
            total[self.name[i]] -= covered[i]
        return calls, total

    def metrics(self, workload):
        """Per-layer metrics of this pass, plus the layers that never fired."""
        calls, self_s = self.self_times()
        c = self.counts
        out = {}
        for k, layer in enumerate(LAYERS):
            out[f"{layer.metric}.calls"] = calls[k]
            out[f"{layer.metric}.self_s"] = self_s[k]
        n_mul = calls[_index("poly.mul")]
        n_red = calls[_index("poly.reduce_poly")]
        out["poly.mul.coeff_products"] = c.get("mul.products", 0)
        out["poly.mul.rational_share"] = (
            c.get("mul.rational", 0) / n_mul if n_mul else 0.0)
        out["poly.mul.peak_out_terms"] = c.get("mul.peak", 0)
        out["poly.substitute.in_terms"] = c.get("substitute.in_terms", 0)
        out["poly.buchberger.basis_len"] = c.get("buchberger.basis", 0)
        out["poly.reduce_poly.steps"] = c.get("reduce.steps", 0)
        out["poly.reduce_poly.zero_ratio"] = (
            c.get("reduce.zero", 0) / n_red if n_red else 0.0)
        out["deform.analyze_hypersurface.points"] = c.get("analyze.points", 0)
        out["deform.analyze_hypersurface.exact_points"] = c.get(
            "analyze.exact", 0)
        silent = [layer.metric for k, layer in enumerate(LAYERS)
                  if workload in layer.fires and not calls[k]]
        return {"metrics": out, "silent": silent, "spans": len(self.name),
                "pass_id": self.pass_id}


def _index(metric):
    return next(k for k, layer in enumerate(LAYERS) if layer.metric == metric)


# -- counters taken at the layer boundary -------------------------------------

def _after_mul(rec, args, result):
    from mckaydeform.exact import is_rat
    a, b = args[0], args[1]
    b_terms = getattr(b, "terms", None)
    rec.add("mul.products", len(a.terms) * (len(b_terms) if b_terms is not
                                             None else 1))
    coeffs = list(a.terms.values())
    coeffs += list(b_terms.values()) if b_terms is not None else [b]
    if all(is_rat(x) for x in coeffs):
        rec.add("mul.rational", 1)
    if len(result.terms) > rec.counts.get("mul.peak", 0):
        rec.counts["mul.peak"] = len(result.terms)


def _after_substitute(rec, args, result):
    rec.add("substitute.in_terms", len(args[0].terms))


def _after_buchberger(rec, args, result):
    rec.add("buchberger.basis", len(result))


def _after_analyze(rec, args, result):
    rec.add("analyze.points", len(result.singular_points))
    rec.add("analyze.exact", sum(p.exact for p in result.singular_points))


AFTER = {"poly.mul": _after_mul, "poly.substitute": _after_substitute,
         "poly.buchberger": _after_buchberger,
         "deform.analyze_hypersurface": _after_analyze}


def _wrap(orig, rec, k, after):
    @functools.wraps(orig)
    def traced(*args, **kwargs):
        i = rec.open(k)
        try:
            result = orig(*args, **kwargs)
        finally:
            rec.close(i)
        if after is not None:
            after(rec, args, result)
        return result
    return traced


def _wrap_reduce(orig, rec, k):
    """reduce_poly, with an explicit budget so its steps can be read.

    ``reduce_poly`` builds ``_Budget(DEFAULT_BUDGET)`` itself when given
    none; passing the same object in changes nothing but its visibility.
    """
    from mckaydeform import poly

    @functools.wraps(orig)
    def traced(p, basis, key, budget=None):
        budget = budget or poly._Budget(poly.DEFAULT_BUDGET)
        left = budget.left
        i = rec.open(k)
        try:
            result = orig(p, basis, key, budget)
        finally:
            rec.close(i)
            rec.add("reduce.steps", left - budget.left)
        if not result:
            rec.add("reduce.zero", 1)
        return result
    return traced


def install(rec):
    """Wrap every layer in LAYERS, rebinding each copy of the function."""
    for k, layer in enumerate(LAYERS):
        module = importlib.import_module(layer.module)
        *owner_path, attr = layer.path.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part)
        orig = owner.__dict__[attr] if owner_path else getattr(owner, attr)
        if layer.metric == "poly.reduce_poly":
            wrapped = _wrap_reduce(orig, rec, k)
        else:
            wrapped = _wrap(orig, rec, k, AFTER.get(layer.metric))
        if owner_path:
            holders = [owner]
        else:
            holders = [m for name, m in list(sys.modules.items())
                       if name.split(".")[0] == "mckaydeform"]
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is orig:
                    setattr(holder, name, wrapped)
                    rec.installed.append((holder, name, orig))


def uninstall(rec):
    while rec.installed:
        holder, name, orig = rec.installed.pop()
        setattr(holder, name, orig)
