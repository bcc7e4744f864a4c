"""Span tracing of the package's layers from outside the package.

``Tracer.install`` replaces public functions with timing wrappers on the
module where each caller looks the name up (``from x import f`` binds ``f``
in the importing module at import time, so ``cli.read_model`` and
``analysis.bp_matrix`` are wrapped there, not on their home modules).
Spans nest, live in memory, and are reduced once at the end: a span's self
time is its duration minus the durations of its direct children.

A wrapped name that the package no longer has is listed in ``absent`` and
the run goes on without it.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

# Span names are "<module>.<part>" or "<module>.<part>:<function>"; the part
# before ":" is the per-layer metric the self time counts towards, the part
# before the first "." is the layer whose share of a command is reported.
_KIND_SPANS = {
    "Dense": "engine.dense",
    "Conv2D": "engine.conv",
    "Pool2D": "engine.pool",
    "LRN": "engine.lrn",
    "BatchNorm": "engine.batchnorm",
    "Activation": "engine.activation",
}

# Counts that are computed from shapes and arguments, not timed; they must
# repeat exactly from one pass of a workload to the next.
COMPUTED = (
    "engine.sample_passes",
    "engine.layer_evals",
    "engine.useful_evals",
    "engine.dense_flops",
    "engine.conv_flops",
    "ranking.graphs",
    "ranking.max_features",
    "propagation.bp_matrix_bytes",
    "analysis.trials",
    "trainer.steps",
    "io.bytes_read",
    "io.bytes_written",
)


def layer_flops(layer) -> int:
    """FLOPs of one weighted layer on one sample, by ``analysis.count_cost``'s formulas."""
    if layer.kind == "Dense":
        out_dim, in_dim = layer.weights.shape
        return 2 * out_dim * in_dim
    if layer.kind == "Conv2D":
        g = layer.geometry
        return 2 * g.k * g.k * g.c_in * g.c_out * g.y * g.y
    return 0


def bp_matrix_bytes(layer) -> int:
    """rows x cols x 8 of ``propagation.bp_matrix(layer)``, from the layer's shape."""
    g = layer.geometry
    if layer.kind == "Dense":
        rows, cols = layer.weights.shape
    elif layer.kind == "LRN":
        rows = cols = g.c_in * g.x * g.x
    else:
        rows, cols = g.c_out * g.y * g.y, g.c_in * g.x * g.x
    return rows * cols * 8


def _file_size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


class Tracer:
    def __init__(self):
        self.spans = []    # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.absent = set()
        self._stack = []
        self._patched = []

    # -- recording -----------------------------------------------------------

    def _run(self, name, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1]
        spans.append(span)
        stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span; used for the benchmark's own root spans."""
        return self._run(name, fn, args, kwargs)

    def _wrap(self, module, attr, name, count=None):
        orig = getattr(module, attr, None)
        if orig is None:
            self.absent.add("%s.%s" % (module.__name__, attr))
            return
        tracer = self
        namer = name if callable(name) else None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(tracer, *args, **kwargs)
            return tracer._run(namer(*args) if namer else name, orig, args, kwargs)

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, orig))

    def uninstall(self):
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def install(self):
        from nisprune import analysis, cli, engine, propagation, ranking, surgery, trainer

        c = self.counts

        def on_layer(t, layer, x):
            c["engine.layer_evals"] += 1
            if layer.kind == "Dense":
                c["engine.dense_flops"] += layer_flops(layer)
            elif layer.kind == "Conv2D":
                c["engine.conv_flops"] += layer_flops(layer)

        def on_forward(t, net, x):
            c["engine.sample_passes"] += 1
            if not t._inside("engine.glue:batch_responses"):
                c["engine.useful_evals"] += len(net.layers)

        def on_forward_sub(t, sub, x):
            c["engine.sample_passes"] += 1
            c["engine.useful_evals"] += sub.end - sub.start + 1

        def on_batch(t, net, inputs, layer_id):
            c["engine.useful_evals"] += len(inputs) * (layer_id + 1)

        def on_affinity(t, responses, alpha=0.5):
            c["ranking.graphs"] += 1
            t.maxima["ranking.max_features"] = max(t.maxima["ranking.max_features"], responses.shape[1])

        def on_bp_matrix(t, layer):
            c["propagation.bp_matrix_bytes"] += bp_matrix_bytes(layer)

        def on_trial(t, *args, **kwargs):
            c["analysis.trials"] += 1

        def on_train(t, net, data, cfg):
            batches = -(-len(data.inputs) // cfg.batch_size)
            c["trainer.steps"] += cfg.epochs * batches

        def on_read_model(t, path):
            c["io.bytes_read"] += _file_size(path)

        def on_load_dataset(t, path):
            from nisprune.datasets import manifest_path_for
            c["io.bytes_read"] += _file_size(path) + _file_size(manifest_path_for(path))

        def on_write(t, path, data):
            c["io.bytes_written"] += len(data.encode("utf-8") if isinstance(data, str) else data)

        self._wrap(engine, "layer_forward", lambda layer, x: _KIND_SPANS.get(layer.kind, "engine.other"), on_layer)
        self._wrap(engine, "apply_activation", "engine.activation")
        self._wrap(engine, "forward", "engine.glue:forward", on_forward)
        self._wrap(engine, "forward_sub", "engine.glue:forward_sub", on_forward_sub)
        self._wrap(engine, "batch_responses", "engine.glue:batch_responses", on_batch)
        for attr in ("predict", "accuracy", "top1_agreement"):
            self._wrap(engine, attr, "engine.glue:" + attr)

        self._wrap(ranking, "build_affinity", "ranking.affinity", on_affinity)
        self._wrap(ranking, "spectral_radius", "ranking.spectral_radius")
        self._wrap(ranking, "inffs_scores", "ranking.solve")
        for attr in ("per_layer_scores", "magnitude_scores"):
            self._wrap(ranking, attr, "ranking.other:" + attr)

        self._wrap(surgery, "nisp_backward", "propagation.backward")
        for kind in ("dense", "conv", "pool", "lrn"):
            self._wrap(propagation, "propagate_" + kind, "propagation." + kind)
        self._wrap(analysis, "bp_matrix", "propagation.bp_matrix", on_bp_matrix)

        for attr in ("nisp_plan", "lbl_plan", "magnitude_plan", "random_plan"):
            self._wrap(surgery, attr, "surgery.plan:" + attr)
        self._wrap(surgery, "apply_plan", "surgery.apply")

        self._wrap(analysis, "verify_bound", "analysis.verify", on_trial)
        self._wrap(analysis, "ware", "analysis.ware")
        self._wrap(analysis, "count_cost", "analysis.cost")
        self._wrap(analysis, "pca_energy", "analysis.other:pca_energy")

        self._wrap(trainer, "train", "trainer.train", on_train)
        for attr in ("finetune", "reinit", "check_trainable"):
            self._wrap(trainer, attr, "trainer.train:" + attr)

        self._wrap(cli, "read_model", "model.read", on_read_model)
        self._wrap(cli, "load_dataset", "datasets.load", on_load_dataset)
        for attr in ("save_model", "plan_to_json"):
            self._wrap(cli, attr, "model.write:" + attr)
        for attr in ("atomic_write_bytes", "atomic_write_text"):
            self._wrap(cli, attr, "model.write:" + attr, on_write)

    def _inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    # -- reduction -----------------------------------------------------------

    def take_counts(self) -> dict:
        """Counts and maxima recorded since the last call, which resets them."""
        taken = dict(self.counts, **self.maxima)
        self.counts.clear()
        self.maxima.clear()
        return taken

    def self_times(self, lo: int, hi: int) -> dict:
        """Self time per metric name over spans[lo:hi], which must hold whole trees."""
        spans = self.spans[lo:hi]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= lo:
                child[parent - lo] += end - start
        totals = defaultdict(float)
        for (name, start, end, _), inner in zip(spans, child):
            totals[name.split(":")[0]] += (end - start) - inner
        return dict(totals)

    def passes_under(self, lo: int, hi: int, ancestor: str) -> int:
        """Sample passes (forward or forward_sub spans) nested in ``ancestor`` spans."""
        n = 0
        for name, _, _, parent in self.spans[lo:hi]:
            if name not in ("engine.glue:forward", "engine.glue:forward_sub"):
                continue
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    n += 1
                    break
                parent = self.spans[parent][3]
        return n
