"""Applying pruning plans and generating baseline plans.

``apply_plan`` turns keep masks into actual structure: dropped dense neurons
lose their weight rows, biases, and the matching columns of whatever consumes
them; dropped conv channels lose their kernel slices and the next layer's
input slices. Pool, LRN, batch-norm, and activation layers own no neurons,
so their shapes just follow whatever survives below them.

Removed units contribute nothing to the survivors (their outgoing columns go
with them, and biases of downstream neurons stay), so the pruned network
computes exactly what the original computes with the masked activations
forced to zero. LRN is the exception: it normalises each channel over its
neighbouring channels, and after surgery those are the nearest kept ones.
When the kept channels below an LRN layer are not contiguous, the pruned
network computes the original with the dropped channels removed before the
LRN, which is not the same as zeroing them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import (
    Network,
    layer_params,
    output_shapes,
    prunable_layer_ids,
    require_valid,
    shape_size,
)
from .propagation import (
    ImportancePlan,
    PlanEntry,
    PruneConfig,
    channel_mask,
    effective_masks,
    nisp_backward,
    plan_from_layer_scores,
)
from . import ranking


@dataclass
class SurgeryReport:
    """Per-layer kept/removed neuron counts and parameter totals."""

    rows: list  # (layer_id, kept, removed, params_before, params_after)
    params_before: int
    params_after: int

    def to_csv(self) -> str:
        lines = ["layer_id,kept,removed,params_before,params_after"]
        for row in self.rows:
            lines.append("%d,%d,%d,%d,%d" % row)
        return "\n".join(lines) + "\n"


def apply_plan(net: Network, plan: ImportancePlan):
    """Build the pruned network plus a SurgeryReport.

    Returns (pruned_net, report). The pruned net validates, keeps the same
    layer count and skip edges, and agrees with masked evaluation of the
    original bit for bit, except past an LRN layer whose kept channels are
    not contiguous (see the module docstring).
    """
    masks = effective_masks(net, plan)
    new_layers = []
    rows = []
    for i, layer in enumerate(net.layers):
        in_mask = masks[i - 1] if i > 0 else None
        own = masks[i]
        if layer.kind == "Dense":
            keep_out = np.flatnonzero(own)
            w, b = layer.weights, layer.bias
            if in_mask is not None:
                w = w[:, np.flatnonzero(in_mask)]
            new = replace(layer, weights=w[keep_out].copy(), bias=b[keep_out].copy())
        elif layer.kind == "Conv2D":
            g = layer.geometry
            ch_out = np.flatnonzero(channel_mask(own, g.c_out))
            kernel = layer.weights
            c_in = g.c_in
            if in_mask is not None:
                ch_in = np.flatnonzero(channel_mask(in_mask, g.c_in))
                kernel = kernel[:, :, ch_in, :]
                c_in = len(ch_in)
            new = replace(
                layer,
                weights=kernel[:, :, :, ch_out].copy(),
                bias=layer.bias[ch_out].copy(),
                geometry=replace(g, c_in=c_in, c_out=len(ch_out)),
            )
        elif layer.kind in ("Pool2D", "LRN"):
            g = layer.geometry
            ch = int(channel_mask(own, g.c_out).sum())
            new = replace(layer, geometry=replace(g, c_in=ch, c_out=ch))
        elif layer.kind == "BatchNorm":  # never first: no input shape can be read off one
            ch = np.flatnonzero(channel_mask(in_mask, len(layer.weights)))
            new = replace(layer, weights=layer.weights[ch].copy(), bias=layer.bias[ch].copy())
        else:  # Activation; effective_masks above rejects unknown kinds
            new = layer

        new_layers.append(new)
        kept = int(own.sum())
        rows.append((i, kept, len(own) - kept, layer_params(layer), layer_params(new)))

    pruned = Network(layers=tuple(new_layers), frl_index=net.frl_index, skip_edges=net.skip_edges)
    require_valid(pruned, "surgery produced an inconsistent network")
    summary = SurgeryReport(
        rows=rows,
        params_before=sum(r[3] for r in rows),
        params_after=sum(r[4] for r in rows),
    )
    return pruned, summary


# ---------------------------------------------------------------------------
# plan builders

def nisp_plan(net: Network, trace, cfg: PruneConfig, alpha: float = 0.5) -> ImportancePlan:
    """Affinity-rank the final responses in ``trace`` (see ``ranking.layer_scores``),
    then propagate backward."""
    return nisp_backward(net, ranking.layer_scores(trace, net.frl_index, alpha), cfg)


def magnitude_plan(net: Network, cfg: PruneConfig) -> ImportancePlan:
    """Rank the final responses by absolute weight mass, then propagate."""
    s_n = ranking.magnitude_scores(net, net.frl_index)
    return nisp_backward(net, s_n, cfg)


def lbl_plan(net: Network, trace, cfg: PruneConfig, alpha: float = 0.5) -> ImportancePlan:
    """Rank every prunable layer independently on ``trace``; nothing propagates."""
    return plan_from_layer_scores(net, cfg, ranking.per_layer_scores(net, trace, alpha))


def random_plan(net: Network, cfg: PruneConfig, seed: int) -> ImportancePlan:
    """Uniformly random keep-sets of the configured sizes.

    Drawing iid uniform scores and keeping the top N picks a uniformly
    random N-subset; the recorded importance vectors are the masks
    themselves, as a reminder that no ranking happened.
    """
    rng = np.random.default_rng(seed)
    shapes = output_shapes(net)
    scores = {}
    for layer_id in prunable_layer_ids(net):
        layer = net.layers[layer_id]
        if layer.kind == "Conv2D":
            g = layer.geometry
            scores[layer_id] = np.repeat(rng.random(g.c_out), g.y * g.y)
        else:
            scores[layer_id] = rng.random(shape_size(shapes[layer_id]))
    plan = plan_from_layer_scores(net, cfg, scores)
    entries = {}
    for layer_id, entry in plan.entries.items():
        ch = None
        if entry.channel_scores is not None:
            g = net.layers[layer_id].geometry
            ch = channel_mask(entry.mask, g.c_out).astype(float)
        entries[layer_id] = PlanEntry(layer_id, entry.mask.astype(float), entry.mask, ch)
    return ImportancePlan(entries=entries)
