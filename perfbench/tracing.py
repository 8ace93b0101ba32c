"""Span tracing for the benchmark's traced run.

The benchmark never edits pcsq.  For a traced run it replaces, for the
duration of a ``with Tracer().installed():`` block, each probed function
at every name callers look it up by (module globals such as
``pcsq.engine.signed_logsumexp`` as well as ``pcsq.slog.signed_logsumexp``,
and class attributes for methods) with a wrapper that records a span.
Leaving the block puts every original object back.

A span is ``[name, start, end, parent, op_id]``; ``parent`` is the index
of the enclosing span (-1 at top level) and ``op_id`` the benchmark
operation that was running.  Spans stay in memory and are written out by
the caller when the run ends.  Self time is a span's duration minus the
part of it covered by its children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

NAME, START, END, PARENT, OP = range(5)

# Op kinds whose spans are excluded from the per-layer aggregates.
EXCLUDED_OPS = frozenset({"warmup"})


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# --- span names and computed counts per probe -------------------------------


def _forward_name(args, kwargs):
    circuit = args[0]
    if _arg(args, kwargs, 3, "space", "slog") == "linear":
        return "engine.forward.linear"
    marg = _arg(args, kwargs, 2, "marginalized", ()) or ()
    if len(marg) == 0:
        return "engine.forward.data"
    if len(marg) == circuit.variable_count:
        return "engine.forward.z"
    return "engine.forward.marg"


def _forward_counts(args, kwargs, out, pre):
    x = _arg(args, kwargs, 1, "x")
    return {"rows": 1 if x is None else int(np.shape(np.atleast_2d(x))[0])}


def _product_name(args, kwargs):
    return "slog.signed_product." + str(_arg(args, kwargs, 1, "kind", "hadamard"))


def _matmul_counts(args, kwargs, out, pre):
    weights, log_mag = args[0], args[1]
    m, k = log_mag.shape
    s = weights.shape[0]
    return {"flops": 2 * m * k * s, "bytes": 8 * (s * k + 2 * m * k + 2 * m * s)}


def _pair_accum_counts(args, kwargs, out, pre):
    a_log, b_log = args[0], args[2]
    m, s = a_log.shape
    k = b_log.shape[1]
    return {"exps": m * s * k, "bytes": 8 * (2 * m * s + 2 * m * k + 2 * s * k)}


def _z_before(args, kwargs):
    return importlib.import_module("pcsq.inference").z_eval_count(args[0])


def _z_counts(args, kwargs, out, pre):
    after = importlib.import_module("pcsq.inference").z_eval_count(args[0])
    return {"fresh": after - pre}


def _sample_name(args, kwargs):
    model = args[0]
    graph = getattr(model, "source", model)
    states = graph.states_per_variable().values()
    discrete = all(s is not None for s in states)
    return "inference.sample." + ("disc" if discrete else "cont")


def _sample_counts(args, kwargs, out, pre):
    return {"samples": int(_arg(args, kwargs, 1, "n"))}


def _design_counts(args, kwargs, out, pre):
    return {"rows": int(np.atleast_1d(args[1]).shape[0])}


# (module, attribute, span name or namer, counts, before)
FUNCTION_PROBES = [
    ("pcsq.learning", "train", "learning.train", None, None),
    ("pcsq.learning", "_accumulate_gradients", "learning.gradients", None, None),
    ("pcsq.learning", "init_parameters", "learning.init_parameters", None, None),
    ("pcsq.inference", "partition_function", "inference.partition_function", _z_counts, _z_before),
    ("pcsq.inference", "log_density", "inference.log_density", None, None),
    ("pcsq.inference", "marginal_batch", "inference.marginal_batch", None, None),
    ("pcsq.inference", "sample", _sample_name, _sample_counts, None),
    ("pcsq.engine", "forward", _forward_name, _forward_counts, None),
    ("pcsq.engine", "backward", "engine.backward", None, None),
    ("pcsq.slog", "signed_logsumexp", "slog.signed_logsumexp", None, None),
    ("pcsq.slog", "signed_product", _product_name, None, None),
    ("pcsq.slog", "signed_outer", "slog.signed_outer", None, None),
    ("pcsq.slog", "signed_sum", "slog.signed_sum", None, None),
    ("pcsq.slog", "signed_mul", "slog.signed_mul", None, None),
    ("pcsq.kernels", "slse_matmul", "kernels.slse_matmul", _matmul_counts, None),
    ("pcsq.kernels", "slse_pair_accum", "kernels.slse_pair_accum", _pair_accum_counts, None),
    ("pcsq.regions", "build_binary_tree", "regions.build", None, None),
    ("pcsq.regions", "build_linear_tree", "regions.build", None, None),
    ("pcsq.circuits", "from_region_graph", "circuits.from_region_graph", None, None),
    ("pcsq.squaring", "square", "squaring.square", None, None),
    ("pcsq.data", "generate_synthetic", "data.generate_synthetic", None, None),
    ("pcsq.cli", "main", "cli.main", None, None),
    ("pcsq.modeldoc", "save_model", "modeldoc.save_model", None, None),
]

FAMILIES = (("GaussianFamily", "gaussian"), ("SplineFamily", "spline"), ("CategoricalFamily", "categorical"))
FAMILY_METHODS = ("log_eval", "log_eval_vjp", "integral_matrix", "integral_matrix_vjp")

# (module, class, method, span name, counts)
METHOD_PROBES = [
    ("pcsq.learning", "_Adam", "step", "learning.update", None),
    ("pcsq.learning", "_Sgd", "step", "learning.update", None),
    ("pcsq.mixtures", "CircuitMixture", "component_log_values", "mixtures.component_log_values", None),
    ("pcsq.mixtures", "CircuitMixture", "partition", "mixtures.partition", None),
    ("pcsq.splines", "BSplineBasis", "design_matrix", "splines.design_matrix", _design_counts),
] + [
    ("pcsq.families", cls, method, f"families.{kind}.{method}", None)
    for cls, kind in FAMILIES
    for method in FAMILY_METHODS
]


class Tracer:
    """In-memory span recorder plus the probe installer."""

    def __init__(self):
        self.spans = []
        self.counts = {}  # span index -> computed counts
        self.errors = defaultdict(int)  # layer -> exceptions raised through probes
        self.op_kinds = {}
        self.op_id = -1
        self.active = True
        self._stack = []
        self._restore = []

    # --- recording ---------------------------------------------------------

    def begin_op(self, op_id, kind):
        self.op_id = op_id
        self.op_kinds[op_id] = kind

    @contextmanager
    def paused(self):
        """Call through probes without recording (used for output checks)."""
        previous, self.active = self.active, False
        try:
            yield
        finally:
            self.active = previous

    def _wrap(self, fn, layer, name, counts=None, before=None):
        tracer = self

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            pre = before(args, kwargs) if before is not None else None
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            label = name(args, kwargs) if callable(name) else name
            span = [label, time.perf_counter(), None, parent, tracer.op_id]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()
            if counts is not None:
                tracer.counts[idx] = counts(args, kwargs, out, pre)
            return out

        return probe

    # --- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        """Install every probe; restore the original objects on exit."""
        try:
            self._install()
            yield self
        finally:
            self.uninstall()

    def _install(self):
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "pcsq" or n.startswith("pcsq.")]
        for module_name, attr, name, counts, before in FUNCTION_PROBES:
            original = getattr(importlib.import_module(module_name), attr)
            layer = module_name.split(".")[1]
            probe = self._wrap(original, layer, name, counts, before)
            for module in namespaces:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original, True))
                        setattr(module, key, probe)
        for module_name, cls_name, method, name, counts in METHOD_PROBES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = getattr(cls, method)
            own = method in vars(cls)
            layer = module_name.split(".")[1]
            self._restore.append((cls, method, original, own))
            setattr(cls, method, self._wrap(original, layer, name, counts))

    def uninstall(self):
        while self._restore:
            owner, key, original, own = self._restore.pop()
            if own:
                setattr(owner, key, original)
            else:
                delattr(owner, key)

    # --- export ------------------------------------------------------------

    def to_json(self):
        return {
            "fields": ["name", "start", "end", "parent", "op_id"],
            "spans": self.spans,
            "counts": {str(i): c for i, c in self.counts.items()},
            "op_kinds": {str(i): k for i, k in self.op_kinds.items()},
        }


def self_times(spans):
    """Per span: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for c in sorted(children.get(i, ()), key=lambda j: spans[j][START]):
            lo = max(spans[c][START], cursor)
            hi = min(spans[c][END], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def _nearest_ancestor(spans, idx, prefix):
    parent = spans[idx][PARENT]
    while parent >= 0:
        if spans[parent][NAME].startswith(prefix):
            return parent
        parent = spans[parent][PARENT]
    return -1


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


PER_LAYER_UNITS = {
    "learning.steps": "count",
    "learning.step_s_p50": "s",
    "learning.step_s_p90": "s",
    "learning.self_s": "s",
    "mixtures.component_log_values.calls": "count",
    "mixtures.component_log_values.s": "s",
    "mixtures.partition.calls": "count",
    "mixtures.partition.s": "s",
    "inference.partition_function.calls": "count",
    "inference.partition_function.fresh": "count",
    "inference.partition_function.hit_ratio": "ratio",
    "inference.partition_function.s": "s",
    "inference.log_density.s": "s",
    "inference.marginal_batch.s": "s",
    "inference.sample.cont.s": "s",
    "inference.sample.cont.forward_calls_per_sample": "calls/sample",
    "inference.sample.cont.points_per_sample": "rows/sample",
    "inference.sample.disc.s": "s",
    "inference.sample.disc.forward_calls_per_sample": "calls/sample",
    "inference.sample.disc.points_per_sample": "rows/sample",
    "engine.forward.data.calls": "count",
    "engine.forward.data.s": "s",
    "engine.forward.data.rows": "rows",
    "engine.forward.marg.calls": "count",
    "engine.forward.marg.s": "s",
    "engine.forward.marg.rows": "rows",
    "engine.forward.z.calls": "count",
    "engine.forward.z.s": "s",
    "engine.backward.calls": "count",
    "engine.backward.s": "s",
    "engine.self_s": "s",
    "slog.signed_logsumexp.calls": "count",
    "slog.signed_logsumexp.s": "s",
    "slog.signed_product.hadamard.s": "s",
    "slog.signed_product.kronecker.s": "s",
    "slog.signed_outer.s": "s",
    "slog.signed_sum.s": "s",
    "slog.signed_mul.s": "s",
    "kernels.slse_matmul.calls": "count",
    "kernels.slse_matmul.s": "s",
    "kernels.slse_matmul.fwd_s": "s",
    "kernels.slse_matmul.bwd_s": "s",
    "kernels.slse_matmul.flops": "flop",
    "kernels.slse_matmul.bytes": "B",
    "kernels.slse_pair_accum.calls": "count",
    "kernels.slse_pair_accum.s": "s",
    "kernels.slse_pair_accum.exps": "count",
    "kernels.slse_pair_accum.bytes": "B",
    **{
        f"families.{kind}.{method}.s": "s"
        for _, kind in FAMILIES
        for method in FAMILY_METHODS
    },
    "splines.design_matrix.calls": "count",
    "splines.design_matrix.s": "s",
    "splines.design_matrix.rows": "rows",
    "regions.build.s": "s",
    "circuits.from_region_graph.s": "s",
    "squaring.square.s": "s",
    "data.generate_synthetic.s": "s",
    "learning.init_parameters.s": "s",
    "cli.main.s": "s",
    "modeldoc.save_model.s": "s",
    **{
        f"{layer}.errors": "count"
        for layer in (
            "learning", "mixtures", "inference", "engine", "slog", "kernels", "families",
            "splines", "regions", "circuits", "squaring", "data", "cli", "modeldoc",
        )
    },
}


def layer_metrics(tracer):
    """Aggregate the recorded spans into the per-layer metrics (values only).

    Spans of warm-up operations are left out.  Names ending in ``.s`` are
    self times; ``.calls``, ``.rows``, ``.flops``, ``.bytes`` and ``.exps``
    are computed from argument shapes.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    keep = [tracer.op_kinds.get(s[OP], "setup") not in EXCLUDED_OPS for s in spans]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    totals = defaultdict(float)
    for i, span in enumerate(spans):
        if not keep[i]:
            continue
        name = span[NAME]
        calls[name] += 1
        self_s[name] += selfs[i]
        for key, value in tracer.counts.get(i, {}).items():
            totals[f"{name}.{key}"] += value

    m = {name: 0.0 for name in PER_LAYER_UNITS}

    def prefixed(prefix, exclude=()):
        return sum(v for k, v in self_s.items() if k.startswith(prefix) and k not in exclude)

    # learning: a step is one gradient accumulation plus the optimizer update after it
    grads = [i for i, s in enumerate(spans) if keep[i] and s[NAME] == "learning.gradients"]
    updates = [i for i, s in enumerate(spans) if keep[i] and s[NAME] == "learning.update"]
    steps = [
        (spans[g][END] - spans[g][START]) + (spans[u][END] - spans[u][START])
        for g, u in zip(grads, updates)
    ]
    m["learning.steps"] = len(steps)
    m["learning.step_s_p50"] = _percentile(steps, 50)
    m["learning.step_s_p90"] = _percentile(steps, 90)
    m["learning.self_s"] = prefixed("learning.", exclude=("learning.init_parameters",))

    for name in ("mixtures.component_log_values", "mixtures.partition"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = self_s[name]

    z = "inference.partition_function"
    m[f"{z}.calls"] = calls[z]
    m[f"{z}.fresh"] = totals[f"{z}.fresh"]
    m[f"{z}.hit_ratio"] = 1.0 - totals[f"{z}.fresh"] / calls[z] if calls[z] else 0.0
    m[f"{z}.s"] = self_s[z]
    m["inference.log_density.s"] = self_s["inference.log_density"]
    m["inference.marginal_batch.s"] = self_s["inference.marginal_batch"]

    # forward passes issued while sampling, attributed to the sampling call
    sample_forwards = defaultdict(int)
    sample_points = defaultdict(float)
    for i, span in enumerate(spans):
        if keep[i] and span[NAME].startswith("engine.forward."):
            owner = _nearest_ancestor(spans, i, "inference.sample.")
            if owner >= 0:
                sample_forwards[spans[owner][NAME]] += 1
                sample_points[spans[owner][NAME]] += tracer.counts.get(i, {}).get("rows", 0)
    for kind in ("cont", "disc"):
        name = f"inference.sample.{kind}"
        samples = totals[f"{name}.samples"]
        m[f"{name}.s"] = self_s[name]
        if samples:
            m[f"{name}.forward_calls_per_sample"] = sample_forwards[name] / samples
            m[f"{name}.points_per_sample"] = sample_points[name] / samples

    for kind in ("data", "marg", "z"):
        name = f"engine.forward.{kind}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = self_s[name]
        if kind != "z":
            m[f"{name}.rows"] = totals[f"{name}.rows"]
    m["engine.backward.calls"] = calls["engine.backward"]
    m["engine.backward.s"] = self_s["engine.backward"]
    m["engine.self_s"] = prefixed("engine.", exclude=("engine.forward.linear",))

    m["slog.signed_logsumexp.calls"] = calls["slog.signed_logsumexp"]
    for name in (
        "slog.signed_logsumexp",
        "slog.signed_product.hadamard",
        "slog.signed_product.kronecker",
        "slog.signed_outer",
        "slog.signed_sum",
        "slog.signed_mul",
    ):
        m[f"{name}.s"] = self_s[name]

    mm = "kernels.slse_matmul"
    fwd = bwd = 0.0
    for i, span in enumerate(spans):
        if keep[i] and span[NAME] == mm:
            if _nearest_ancestor(spans, i, "engine.backward") >= 0:
                bwd += selfs[i]
            else:
                fwd += selfs[i]
    m[f"{mm}.calls"] = calls[mm]
    m[f"{mm}.s"] = self_s[mm]
    m[f"{mm}.fwd_s"] = fwd
    m[f"{mm}.bwd_s"] = bwd
    m[f"{mm}.flops"] = totals[f"{mm}.flops"]
    m[f"{mm}.bytes"] = totals[f"{mm}.bytes"]
    pa = "kernels.slse_pair_accum"
    m[f"{pa}.calls"] = calls[pa]
    m[f"{pa}.s"] = self_s[pa]
    m[f"{pa}.exps"] = totals[f"{pa}.exps"]
    m[f"{pa}.bytes"] = totals[f"{pa}.bytes"]

    for _, kind in FAMILIES:
        for method in FAMILY_METHODS:
            m[f"families.{kind}.{method}.s"] = self_s[f"families.{kind}.{method}"]

    dm = "splines.design_matrix"
    m[f"{dm}.calls"] = calls[dm]
    m[f"{dm}.s"] = self_s[dm]
    m[f"{dm}.rows"] = totals[f"{dm}.rows"]

    for name in (
        "regions.build",
        "circuits.from_region_graph",
        "squaring.square",
        "data.generate_synthetic",
        "learning.init_parameters",
        "cli.main",
        "modeldoc.save_model",
    ):
        m[f"{name}.s"] = self_s[name]

    for layer, count in tracer.errors.items():
        m[f"{layer}.errors"] = count
    return m
