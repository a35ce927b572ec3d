"""Spans and counts around the public functions of every hoitg module.

The tracer patches module attributes (and the public methods of
``model.HoiReconstructor``) from outside the package, so the program itself
is unchanged. Each span records its name, start, end and parent; counts are
recorded as timestamped events. Everything stays in memory until the run
ends, when :func:`layer_metrics` turns it into the per-layer table and
:meth:`Tracer.dump` writes the raw spans.

Attribution rules (see README.md):

* ``/unit`` metrics count only spans and events that start inside a unit
  window, so work done in set-up or at epoch ends is not spread over units.
* ``/call`` and ``/epoch`` metrics count everything in the traced phase and
  divide by the number of entry calls or epochs.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time

import numpy as np

MODULES = ("harness", "model", "losses", "diffcore", "kernels", "metrics", "meshkit", "scenegen")
MODEL_METHODS = ("init_head", "build_queries", "encoder_block", "forward")
OPS = ("matmul", "multi_head_attention", "gelu", "layer_norm", "add_bias", "conv2d", "grid_sample")
OP_GROUPS = OPS + ("other",)
# diffcore functions that are not graph ops
DIFFCORE_NON_OPS = {"tensor", "backward", "zero_grads", "adam_step", "save_params", "load_params", "gradcheck"}
KERNELS = (
    "nn_mean_distance", "min_distances", "pairwise_distances", "im2col", "col2im",
    "bilinear_forward", "bilinear_backward", "gelu_forward", "gelu_grad", "splat", "fps",
)
# kernels that materialize an (n, m) distance matrix from an (n, 3) and an (m, 3) set
NN_KERNELS = ("nn_mean_distance", "min_distances", "pairwise_distances")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def public_functions(module):
    """(name, function) for each public function defined in ``module``."""
    return [
        (name, fn) for name, fn in vars(module).items()
        if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == module.__name__
    ]


class Tracer:
    """In-memory span and event recorder."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.events = []  # (time, key, value)
        self._stack = []
        self._param_uids = frozenset()

    def wrap(self, fn, name, after=None):
        """Return ``fn`` recording a span; ``after(out, args)`` runs once the span ends."""
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        clock = time.perf_counter
        dynamic = callable(name)

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name(args, kwargs) if dynamic else name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(out, args)
            return out

        return traced

    def count(self, key, value):
        self.events.append((time.perf_counter(), key, value))

    # -- installation ---------------------------------------------------------

    def install(self, patches: Patches):
        """Wrap every public function of the hoitg modules."""
        for modname in MODULES:
            mod = importlib.import_module(f"hoitg.{modname}")
            for attr, fn in public_functions(mod):
                patches.set(mod, attr, self._wrapper(modname, attr, fn))
        from hoitg import model

        for meth in MODEL_METHODS:
            fn = vars(model.HoiReconstructor)[meth]
            if meth == "encoder_block":
                name = _encoder_block_name
            else:
                name = f"model.{meth}"
            patches.set(model.HoiReconstructor, meth, self.wrap(fn, name))

    def _wrapper(self, modname, attr, fn):
        name = f"{modname}.{attr}"
        if modname == "diffcore":
            if attr not in DIFFCORE_NON_OPS:
                return self._op(fn, attr if attr in OPS else "other")
            if attr == "zero_grads":
                return self.wrap(fn, name, after=self._capture_params)
            if attr == "backward":
                return self.wrap(fn, name, after=self._walk_tape)
            if attr == "save_params":
                return self.wrap(fn, name, after=self._checkpoint_size)
        if modname == "kernels" and attr in NN_KERNELS:
            return self.wrap(fn, name, after=self._nn_counts)
        if modname == "scenegen" and attr == "generate_dataset":
            return self.wrap(fn, name, after=self._dataset_size)
        return self.wrap(fn, name)

    def _op(self, fn, group):
        bwd_name = f"diffcore.bwd.{group}"

        def wrap_bwd(out, args):
            t = out[0] if isinstance(out, tuple) else out
            if t._bwd is not None:
                t._bwd = self.wrap(t._bwd, bwd_name)

        return self.wrap(fn, f"diffcore.fwd.{group}", after=wrap_bwd)

    # -- counters -------------------------------------------------------------

    def _capture_params(self, out, args):
        params = args[0]
        values = params.values() if isinstance(params, dict) else params
        self._param_uids = frozenset(p.uid for p in values)

    def _walk_tape(self, out, args):
        """Exact tape statistics of one backward pass, recorded in a span of its own."""
        self.wrap(self._tape_counts, "trace.tape_walk")(args[0])

    def _tape_counts(self, loss):
        order, seen, stack = [], set(), [(loss, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node.uid in seen:
                continue
            seen.add(node.uid)
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if p.uid not in seen)
        depends = {}
        grad_bytes = useful = 0
        for node in order:  # parents come before children
            dep = node.uid in self._param_uids or any(depends[p.uid] for p in node._parents)
            depends[node.uid] = dep
            if node.grad is not None:
                grad_bytes += node.grad.nbytes
                if dep:
                    useful += node.grad.nbytes
        self.count("diffcore.tape_nodes", len(order))
        self.count("diffcore.grad_bytes", grad_bytes)
        self.count("diffcore.useful_grad_bytes", useful)

    def _nn_counts(self, out, args):
        a, b = args[0], args[1]
        pairs = len(a) * len(b)
        self.count("kernels.nn_pairs", pairs)
        # the (n, m, 3) difference array plus the (n, m) distance matrix
        self.count("kernels.nn_bytes_computed", 4 * pairs * np.asarray(a).itemsize)

    def _checkpoint_size(self, out, args):
        self.count("diffcore.checkpoint_bytes", os.path.getsize(args[0]))

    def _dataset_size(self, out, args):
        out_dir = args[0]
        self.count("scenegen.bytes_written", sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file()))

    def dump(self, path):
        """Write the raw spans as JSON: a name table plus [name, start, end, parent] rows."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        rows = [
            [index[n], round(s - t0, 7), round(e - t0, 7), p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": table, "columns": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)


def _encoder_block_name(args, kwargs):
    block = args[2] if len(args) > 2 else kwargs["block_index"]
    return f"model.encoder_block{block}"


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ms(name, per="unit", better="lower"):
    return (name, f"ms/{per}", better)


def _count(name, per="unit", unit="count", better="lower"):
    return (name, f"{unit}/{per}", better)


# (metric name, unit, better); the order is the order of BENCHMARK.json
PER_LAYER = (
    [_ms("harness.epoch_end_ms", "epoch"), _ms("harness.load_checkpoint_ms", "call")]
    + [_ms(f"diffcore.fwd_ms.{g}") for g in OP_GROUPS]
    + [_ms(f"diffcore.bwd_ms.{g}") for g in OP_GROUPS]
    + [_count(f"diffcore.calls.{g}") for g in OP_GROUPS]
    + [_ms("diffcore.backward_ms"), _ms("diffcore.adam_step_ms"), _ms("diffcore.zero_grads_ms")]
    + [_count("diffcore.tape_nodes"), _count("diffcore.grad_bytes", unit="B"),
       ("diffcore.useful_grad_fraction", "share", "higher")]
    + [_ms("diffcore.save_params_ms", "epoch"), _ms("diffcore.load_params_ms", "call"),
       _count("diffcore.checkpoint_bytes", "epoch", unit="B")]
    + [_ms(f"model.{m}") for m in (
        "init_head_ms", "build_queries_ms", "encoder_block0_ms", "encoder_block1_ms",
        "encoder_block2_ms", "forward_self_ms")]
    + [_ms("losses.scene_loss_ms")]
    + [_ms("metrics.chamfer_ms"), _count("metrics.chamfer_calls"), _ms("metrics.contact_pr_ms")]
    + [m for k in KERNELS for m in (_ms(f"kernels.{k}_ms"), _count(f"kernels.{k}_calls"))]
    + [_count("kernels.nn_pairs"), _count("kernels.nn_bytes_computed", unit="B")]
    + [_ms("meshkit.rigid_fit_ms"), _ms("meshkit.build_sampling_operators_ms", "call"),
       _ms("meshkit.coarsen_edge_graph_ms", "call"), _ms("meshkit.knn_adjacency_ms", "call")]
    + [_ms("scenegen.build_assets_ms", "call"), _count("scenegen.build_assets_calls", "call"),
       _ms("scenegen.load_sample_ms", "call"), _ms("scenegen.sample_scene_ms"),
       _ms("scenegen.body_forward_ms"), _ms("scenegen.render_channels_ms"),
       _ms("scenegen.contact_map_gt_ms"), _ms("scenegen.record_write_ms"),
       _count("scenegen.bytes_written", unit="B")]
    + [_ms("trace.overhead_ms"), ("trace.overhead_share", "share", "lower"),
       ("trace.unit_coverage", "share", "higher"), _count("trace.spans")]
)

def _window_index(times, wstarts, wends):
    """Index of the unit window each time falls in, or -1."""
    k = np.searchsorted(wstarts, times, side="right") - 1
    inside = (k >= 0) & (times < wends[np.maximum(k, 0)])
    return np.where(inside, k, -1)


def layer_metrics(tracer: Tracer, windows, calls: int, epoch_end_s, overhead_ms, overhead_share):
    """The per-layer table {name: (value, unit)} of one traced phase.

    ``windows`` is the (start, end) of every completed unit, in time order;
    ``epoch_end_s`` the gap at the end of every epoch, from unit timestamps.
    """
    epochs = len(epoch_end_s)
    table = sorted(set(tracer.names))
    ids = {n: i for i, n in enumerate(table)}
    name_id = np.array([ids[n] for n in tracer.names], dtype=np.int64)
    starts = np.asarray(tracer.starts, dtype=np.float64)
    dur = np.asarray(tracer.ends, dtype=np.float64) - starts
    parents = np.asarray(tracer.parents, dtype=np.int64)
    wstarts = np.array([w[0] for w in windows], dtype=np.float64)
    wends = np.array([w[1] for w in windows], dtype=np.float64)
    units = len(windows)
    win = _window_index(starts, wstarts, wends) if units else np.full(len(starts), -1)
    in_unit = win >= 0
    has_parent = parents >= 0
    parent_win = np.where(has_parent, win[np.maximum(parents, 0)], -1)
    # outermost spans of each unit window; their durations sum the self times
    # of every span inside the window
    outer = in_unit & (parent_win != win)
    unit_wall = float((wends - wstarts).sum())
    covered = float(dur[outer].sum())

    n = len(table)
    span_all = np.bincount(name_id, weights=dur, minlength=n)
    span_unit = np.bincount(name_id[in_unit], weights=dur[in_unit], minlength=n)
    calls_all = np.bincount(name_id, minlength=n)
    calls_unit = np.bincount(name_id[in_unit], minlength=n)
    is_model = np.array([nm.startswith("model.") for nm in table], dtype=bool)
    model_child = np.zeros(len(starts))
    sel = has_parent & is_model[name_id]
    np.add.at(model_child, parents[sel], dur[sel])

    ev_keys = [e[1] for e in tracer.events]
    ev_t = np.array([e[0] for e in tracer.events], dtype=np.float64)
    ev_v = np.array([e[2] for e in tracer.events], dtype=np.float64)
    ev_in = (_window_index(ev_t, wstarts, wends) >= 0) if units and len(ev_t) else np.zeros(len(ev_t), bool)

    def event_sum(key, unit_only):
        mask = np.array([k == key for k in ev_keys], dtype=bool)
        if unit_only:
            mask &= ev_in
        return float(ev_v[mask].sum())

    def per(value, denom):
        return value / denom if denom else 0.0

    def span_total(span, unit_only):
        i = ids.get(span)
        return 0.0 if i is None else float((span_unit if unit_only else span_all)[i])

    def call_total(span, unit_only):
        i = ids.get(span)
        return 0 if i is None else int((calls_unit if unit_only else calls_all)[i])

    fwd = ids.get("model.forward")
    mask = in_unit & (name_id == fwd) if fwd is not None else np.zeros(len(starts), bool)
    forward_self = float((dur[mask] - model_child[mask]).sum())
    # inside a gen unit everything not under a child span is generate_dataset's own work
    record_write = unit_wall - covered if "scenegen.generate_dataset" in ids else 0.0
    out = {
        "harness.epoch_end_ms": (per(1e3 * sum(epoch_end_s), epochs), "ms/epoch"),
        "diffcore.useful_grad_fraction": (
            per(event_sum("diffcore.useful_grad_bytes", True), event_sum("diffcore.grad_bytes", True)), "share"),
        "model.forward_self_ms": (per(1e3 * forward_self, units), "ms/unit"),
        "scenegen.record_write_ms": (per(1e3 * record_write, units), "ms/unit"),
        # written when generate_dataset returns, after its last unit; all of it is per-scene work
        "scenegen.bytes_written": (per(event_sum("scenegen.bytes_written", False), units), "B/unit"),
        "trace.overhead_ms": (overhead_ms, "ms/unit"),
        "trace.overhead_share": (overhead_share, "share"),
        "trace.unit_coverage": (per(covered, unit_wall), "share"),
        "trace.spans": (per(int(in_unit.sum()), units), "count/unit"),
    }
    # the rest follow from their names: "<span>_ms" sums a span's time,
    # "<span>_calls" and "diffcore.calls.<op>" count its calls, anything
    # else sums the counter of that name
    denoms = {"unit": units, "call": calls, "epoch": epochs}
    for name, unit, _ in PER_LAYER:
        if name in out:
            continue
        denom = unit.rsplit("/", 1)[-1]
        unit_only = denom == "unit"
        if "_ms" in name:
            total = 1e3 * span_total(name.replace("_ms", ""), unit_only)
        elif name.startswith("diffcore.calls."):
            total = call_total(name.replace("calls", "fwd"), unit_only)
        elif name.endswith("_calls"):
            total = call_total(name[: -len("_calls")], unit_only)
        else:
            total = event_sum(name, unit_only)
        out[name] = (per(total, denoms[denom]), unit)
    return {name: out[name] for name, _, _ in PER_LAYER}
