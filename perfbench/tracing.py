"""Per-layer tracing from outside the mdtk package.

`Tracer.install` wraps the public functions of each layer.  A name is
patched in the module that defines it and in every mdtk module that
imported it (for example `galois` imports `verify`, and `catalog_cli`
imports most of the API), so calls between layers are seen too.

The coarse layers (construct, modular, galois, bounds, catalog_cli) record
one span per call: name, item, parent span, start and end.  Spans stay in
memory until `summary` computes self times and per-layer totals.  `Cyc`
operations run millions of times per pass, so they record only a call
count and an inclusive time per operation.
"""

from __future__ import annotations

import functools
import os
import time

LAYER_FUNCS = {
    "construct": (
        "pointed", "double_abelian", "ising", "fibonacci", "so5_level9",
        "deligne_product", "fsexp_vec_g_omega",
    ),
    "modular": (
        "dims", "global_dim", "fs_exponent", "gauss_sum", "ndim", "anomaly",
        "verlinde_fusion", "verify", "normalized_t_order",
        "fpdim_pseudounitary", "invertibles", "subcategory_generated",
        "centralizes", "symmetric_center", "data_equal",
    ),
    "galois": (
        "working_conductor", "galois_permutation", "orbit", "orbit_t",
        "conjugate_category", "bar_category", "verify_galois_identities",
    ),
    "bounds": (
        "prime_power", "bound_check", "lemma_orbit_bound", "key_object",
        "siegel_check", "extremal_classify",
    ),
    "catalog_cli": (
        "to_dict", "save", "from_dict", "load", "builtin", "catalog_entries",
        "catalog_sweep", "main",
    ),
}

CYC_OPS = {
    "mul": ("__mul__", "__rmul__"),
    "add": ("__add__", "__radd__"),
    "lift": ("lift",),
    "eq": ("__eq__",),
    "galois": ("galois",),
    "inverse": ("inverse",),
    "embed": ("embed",),
}

# per-layer time metrics: the inclusive time of the outermost spans among
# the named functions, so nested calls inside the set are not counted twice
SPAN_TIMES = {
    "modular.verify_s": ("modular.verify",),
    "modular.verlinde_fusion_s": ("modular.verlinde_fusion",),
    "modular.normalized_t_order_s": ("modular.normalized_t_order",),
    "modular.invariants_s": (
        "modular.dims", "modular.global_dim", "modular.fs_exponent",
        "modular.gauss_sum", "modular.ndim", "modular.anomaly",
    ),
    "modular.fpdim_s": ("modular.fpdim_pseudounitary",),
    "galois.identities_s": ("galois.verify_galois_identities",),
    "galois.permutation_s": ("galois.galois_permutation",),
    "galois.orbit_s": ("galois.orbit", "galois.orbit_t"),
    "galois.conjugate_s": ("galois.conjugate_category", "galois.bar_category"),
    "bounds.bound_check_s": ("bounds.bound_check",),
    "bounds.extremal_classify_s": ("bounds.extremal_classify",),
    "bounds.lemma_s": ("bounds.lemma_orbit_bound", "bounds.siegel_check"),
    "bounds.key_object_s": ("bounds.key_object",),
    "construct.pointed_s": ("construct.pointed", "construct.double_abelian"),
    "construct.deligne_product_s": ("construct.deligne_product",),
    "construct.family_s": ("construct.ising", "construct.fibonacci", "construct.so5_level9"),
    "catalog_cli.save_s": ("catalog_cli.save",),
    "catalog_cli.load_s": ("catalog_cli.load",),
    "catalog_cli.sweep_s": ("catalog_cli.catalog_sweep",),
    "catalog_cli.main_s": ("catalog_cli.main",),
}
SPAN_COUNTS = {
    "modular.verify_calls": "modular.verify",
    "galois.permutation_calls": "galois.galois_permutation",
}


class Tracer:
    """Span and counter store for one process.  Wrappers record only while
    `active` is true, so the benchmark's own checks are not traced."""

    def __init__(self):
        self.active = False
        self.item = -1
        self.spans: list[list] = []  # [name, item, parent, start, end]
        self.stack: list[int] = []
        self.ops = {op: [0, 0.0] for op in CYC_OPS}
        self.counts = {
            "cyclo.embed_raised_calls": 0,
            "cyclo.max_conductor": 0,
            "catalog_cli.bytes_written": 0,
            "catalog_cli.bytes_read": 0,
        }
        self.permutations: set = set()

    # -- installation

    def install(self) -> None:
        import importlib

        import mdtk

        mods = [mdtk] + [
            importlib.import_module(f"mdtk.{name}")
            for name in ("cyclo", *LAYER_FUNCS)
        ]
        for layer, names in LAYER_FUNCS.items():
            home = importlib.import_module(f"mdtk.{layer}")
            for name in names:
                orig = getattr(home, name)
                wrapped = self._span(f"{layer}.{name}", orig)
                for mod in mods:
                    if getattr(mod, name, None) is orig:
                        setattr(mod, name, wrapped)
        cyc = mods[1].Cyc
        for op, attrs in CYC_OPS.items():
            for attr in attrs:
                setattr(cyc, attr, self._op(op, getattr(cyc, attr)))

    def _span(self, name, fn):
        tr = self
        perf = time.perf_counter
        before = after = None
        if name == "galois.galois_permutation":
            def before(args):
                tr.permutations.add((tr.item, id(args[0]), args[1]))
        elif name == "catalog_cli.load":
            def before(args):
                tr.counts["catalog_cli.bytes_read"] += os.path.getsize(args[0])
        elif name == "catalog_cli.save":
            def after(args):
                tr.counts["catalog_cli.bytes_written"] += os.path.getsize(args[1])

        @functools.wraps(fn)
        def wrapped(*args, **kw):
            if not tr.active:
                return fn(*args, **kw)
            if before is not None:
                before(args)
            rec = [name, tr.item, tr.stack[-1] if tr.stack else -1, perf(), 0.0]
            tr.stack.append(len(tr.spans))
            tr.spans.append(rec)
            try:
                out = fn(*args, **kw)
            finally:
                rec[4] = perf()
                tr.stack.pop()
            if after is not None:
                after(args)
            return out

        return wrapped

    def _op(self, op, fn):
        tr = self
        cell = self.ops[op]
        counts = self.counts
        perf = time.perf_counter
        if op == "mul":
            def wrapped(*args):
                if not tr.active:
                    return fn(*args)
                t0 = perf()
                out = fn(*args)
                cell[1] += perf() - t0
                cell[0] += 1
                if out is not NotImplemented and out.conductor > counts["cyclo.max_conductor"]:
                    counts["cyclo.max_conductor"] = out.conductor
                return out
        elif op == "embed":
            def wrapped(x, precision=53):
                if not tr.active:
                    return fn(x, precision)
                t0 = perf()
                out = fn(x, precision)
                cell[1] += perf() - t0
                cell[0] += 1
                if precision > 64:
                    counts["cyclo.embed_raised_calls"] += 1
                return out
        else:
            def wrapped(*args):
                if not tr.active:
                    return fn(*args)
                t0 = perf()
                out = fn(*args)
                cell[1] += perf() - t0
                cell[0] += 1
                return out
        return functools.wraps(fn)(wrapped)

    # -- results

    def summary(self) -> tuple[dict, list]:
        """Per-layer totals, and the spans as rows
        [name, item, parent, start, end, self_seconds]."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, _, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        rows = [s + [s[4] - s[3] - c] for s, c in zip(spans, child)]
        totals = dict(self.counts)
        for metric, names in SPAN_TIMES.items():
            names = set(names)
            # spans are appended at call start, so a parent precedes its children
            inside = [False] * len(spans)
            total = 0.0
            for i, (name, _, parent, start, end) in enumerate(spans):
                covered = parent >= 0 and (inside[parent] or spans[parent][0] in names)
                inside[i] = covered
                if name in names and not covered:
                    total += end - start
            totals[metric] = total
        for metric, name in SPAN_COUNTS.items():
            totals[metric] = sum(1 for s in spans if s[0] == name)
        totals["modular.verify_self_s"] = sum(r[5] for r in rows if r[0] == "modular.verify")
        totals["galois.units_swept"] = len(self.permutations)
        for op, (calls, seconds) in self.ops.items():
            totals[f"cyclo.{op}_calls"] = calls
            totals[f"cyclo.{op}_s"] = seconds
        return totals, rows


def merge(a: dict, b: dict) -> dict:
    """Add two totals dicts; the largest conductor is a maximum."""
    out = dict(a)
    for k, v in b.items():
        if k == "cyclo.max_conductor":
            out[k] = max(out.get(k, 0), v)
        else:
            out[k] = out.get(k, 0) + v
    return out
