"""Backward importance propagation and pruning plans.

Importance lives on layer responses. Given the importance s of a layer's
output, the importance of its input is pulled back through the layer's
absolute connection strengths:

  dense        s_in = |w|^T s_out
  conv         each output position scatters |kernel| into its input window
  pooling      every input position inside a window receives the window's
               importance divided by k*k (max and average pool alike)
  LRN          each channel collects the importance of the channels whose
               normalization window covers it, divided by the local size
  batch-norm   each channel's importance times |scale| of that channel
  activation   unchanged

Signs, biases, and activations never matter here; only how strongly a unit
feeds the units above it. ``masked_importance`` is the one backward pass:
it walks from the final response layer down to a stop layer, and a mask
policy may zero the importance of dropped neurons at each layer before it
propagates, so discarded units pass nothing further down. When several
layers consume one response (a skip edge), their contributions sum.
``nisp_backward`` walks to layer 0 with NISP's keep masks.

With every neuron kept, layer k receives |w^(k+1)|^T ... |w^(n)|^T s_n,
where a batch-norm layer, the map diag(scale) plus a shift, counts as
|diag(scale)|. That is the vector r of ``analysis.BoundContext``'s bound at
layer k, which walks with no masks and stops at k. The conv and pool rules
read ``model.window_index``; tests/oracles.py checks them by enumerating
receptive fields and by explicit propagation matrices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ModelFormatError, ShapeError
from .model import (
    Geometry,
    Layer,
    Network,
    PRUNABLE_KINDS,
    canonical_json,
    output_shapes,
    prunable_layer_ids,
    shape_size,
    window_index,
)


@dataclass(frozen=True)
class PruneConfig:
    """Keep fractions per prunable layer id; unlisted layers keep everything.

    Fractions live in (0, 1]. The kept count is max(1, round(fraction *
    width)) with halves rounding up, counted in neurons for dense layers and
    in channels for conv layers.
    """

    ratios: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class PlanEntry:
    layer_id: int
    scores: np.ndarray  # flattened per-neuron importance
    mask: np.ndarray    # uint8 keep mask, same length as scores
    channel_scores: np.ndarray | None = None  # conv layers only


@dataclass(eq=False)
class ImportancePlan:
    """Per-layer importance and keep decisions for layers 0..frl_index."""

    entries: dict  # layer_id -> PlanEntry, ascending insertion order

    def mask(self, layer_id: int) -> np.ndarray:
        return self.entries[layer_id].mask

    def scores(self, layer_id: int) -> np.ndarray:
        return self.entries[layer_id].scores


def keep_count(width: int, fraction: float) -> int:
    """max(1, round(fraction * width)), halves up, never above width."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigError("keep fraction must lie in (0, 1], got %r" % (fraction,))
    if width < 1:
        raise ConfigError("width must be positive, got %d" % width)
    return min(width, max(1, int(math.floor(fraction * width + 0.5))))


def prune_indicator(scores: np.ndarray, keep: int) -> np.ndarray:
    """Binary mask keeping the ``keep`` highest scores, lowest index on ties."""
    scores = np.asarray(scores, dtype=float)
    if not 1 <= keep <= scores.shape[0]:
        raise ConfigError("cannot keep %d of %d neurons" % (keep, scores.shape[0]))
    order = np.argsort(-scores, kind="stable")
    mask = np.zeros(scores.shape[0], dtype=np.uint8)
    mask[order[:keep]] = 1
    return mask


def channel_scores(importance: np.ndarray) -> np.ndarray:
    """Per-channel sums of a (c, x, x) importance tensor."""
    t = np.asarray(importance, dtype=float)
    if t.ndim != 3:
        raise ShapeError("channel scores need a (c, x, x) tensor, got %r" % (t.shape,))
    return t.reshape(t.shape[0], -1).sum(axis=1)


# ---------------------------------------------------------------------------
# loop-rule propagation

def propagate_dense(weights: np.ndarray, s_out: np.ndarray) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    s = np.asarray(s_out, dtype=float)
    if w.ndim != 2 or s.shape != (w.shape[0],):
        raise ShapeError("dense propagation needs (out, in) weights and a length-out vector")
    return np.abs(w).T @ s


def _scatter_windows(g: Geometry, contrib: np.ndarray) -> np.ndarray:
    """Sum (y*y, c, k*k) window contributions into a (c, x, x) input grid.

    Every input position adds its contributions window by window in
    window_index order, starting from zero; those landing in the padding
    are dropped.
    """
    acc = np.zeros((g.x * g.x + 1, contrib.shape[1]))
    np.add.at(acc, window_index(g), contrib.transpose(0, 2, 1))
    return acc[:-1].T.reshape(-1, g.x, g.x)


def propagate_conv(kernel: np.ndarray, geometry: Geometry, s_out: np.ndarray) -> np.ndarray:
    """Scatter each output position's importance into its receptive field.

    Contributions that land on padded positions fall outside the input grid
    and are dropped.
    """
    g = geometry
    s = np.asarray(s_out, dtype=float)
    if s.shape != (g.c_out, g.y, g.y):
        raise ShapeError("conv propagation expects %r, got %r" % ((g.c_out, g.y, g.y), s.shape))
    absk = np.abs(np.asarray(kernel, dtype=float))  # (k, k, c_in, c_out)
    # Sums over f in the same order as a per-window einsum("abnf,f->nab");
    # a matmul or a transposed operand would change the bits.
    contrib = np.einsum("abnf,fp->pnab", absk, s.reshape(g.c_out, g.y * g.y))
    return _scatter_windows(g, contrib.reshape(g.y * g.y, g.c_in, g.k * g.k))


def propagate_pool(geometry: Geometry, s_out: np.ndarray) -> np.ndarray:
    """Every input position in a window gets the window's share s / (k*k)."""
    g = geometry
    s = np.asarray(s_out, dtype=float)
    if s.shape != (g.c_out, g.y, g.y):
        raise ShapeError("pool propagation expects %r, got %r" % ((g.c_out, g.y, g.y), s.shape))
    share = s.reshape(g.c_out, g.y * g.y).T / float(g.k * g.k)
    return _scatter_windows(g, np.broadcast_to(share[:, :, None], (g.y * g.y, g.c_out, g.k * g.k)))


def propagate_lrn(local_size: int, s_out: np.ndarray) -> np.ndarray:
    """Channel c collects s from channels within (local_size - 1) / 2 of it.

    The divisor stays local_size even where the window is clipped at the
    channel borders, so border channels receive less than interior ones.
    """
    s = np.asarray(s_out, dtype=float)
    if s.ndim != 3:
        raise ShapeError("LRN propagation needs a (c, x, x) tensor, got %r" % (s.shape,))
    if local_size < 1 or local_size % 2 == 0:
        raise ConfigError("LRN local size must be odd and positive, got %d" % local_size)
    channels = s.shape[0]
    half = (local_size - 1) // 2
    out = np.empty_like(s)
    for c in range(channels):
        lo, hi = max(0, c - half), min(channels, c + half + 1)
        out[c] = s[lo:hi].sum(axis=0) / float(local_size)
    return out


# ---------------------------------------------------------------------------
# the backward pass

def _propagate_through(layer: Layer, s_flat: np.ndarray) -> np.ndarray:
    """Pull a flattened response importance back through one layer."""
    if layer.kind == "Dense":
        return propagate_dense(layer.weights, s_flat)
    if layer.kind == "Conv2D":
        g = layer.geometry
        return propagate_conv(layer.weights, g, s_flat.reshape(g.c_out, g.y, g.y)).ravel()
    if layer.kind == "Pool2D":
        g = layer.geometry
        return propagate_pool(g, s_flat.reshape(g.c_out, g.y, g.y)).ravel()
    if layer.kind == "LRN":
        g = layer.geometry
        return propagate_lrn(layer.lrn_local_size, s_flat.reshape(g.c_in, g.x, g.x)).ravel()
    if layer.kind == "BatchNorm":
        # One scale entry per channel, repeated over its positions.
        return np.repeat(np.abs(layer.weights), len(s_flat) // len(layer.weights)) * s_flat
    return np.array(s_flat, dtype=float, copy=True)  # Activation; output_shapes rejects the rest


def channel_mask(flat_mask: np.ndarray, channels: int) -> np.ndarray:
    """Collapse a channel-constant neuron mask to one value per channel."""
    per = flat_mask.reshape(channels, -1)
    if not (per == per[:, :1]).all():
        raise ShapeError("conv mask must keep or drop whole channels")
    return per[:, 0]


def effective_masks(net: Network, plan: ImportancePlan) -> list:
    """Flat keep mask over every layer's response.

    Prunable layers up to the FRL take their plan mask; everything else
    inherits from the layer below it (channel-wise across pooling). Layers
    past the FRL always keep their own outputs. Raises ConfigError when the
    two ends of a skip edge keep different units.
    """
    shapes = output_shapes(net)
    prunable = set(prunable_layer_ids(net))
    for layer_id, entry in plan.entries.items():
        if not 0 <= layer_id <= net.frl_index:
            raise ShapeError("plan entry for layer %d is outside the prunable range" % layer_id)
        if entry.mask.shape[0] != shape_size(shapes[layer_id]):
            raise ShapeError(
                "plan mask for layer %d has %d entries, expected %d"
                % (layer_id, entry.mask.shape[0], shape_size(shapes[layer_id]))
            )
    missing = [i for i in prunable if i not in plan.entries]
    if missing:
        raise ShapeError("plan is missing prunable layers %r" % (missing,))

    masks = []
    for i, layer in enumerate(net.layers):
        if i in prunable:
            masks.append(plan.entries[i].mask.astype(np.uint8))
            continue
        below = masks[i - 1] if i > 0 else None
        if below is None:
            # A shape-preserving first layer reads the raw input, which is
            # never pruned.
            masks.append(np.ones(shape_size(shapes[i]), dtype=np.uint8))
        elif layer.kind in ("Activation", "BatchNorm", "LRN"):
            masks.append(below.copy())
        elif layer.kind == "Pool2D":
            g = layer.geometry
            ch = channel_mask(below, g.c_in)
            masks.append(np.repeat(ch, g.y * g.y))
        else:  # Dense or Conv2D past the FRL: the classifier head keeps all
            masks.append(np.ones(shape_size(shapes[i]), dtype=np.uint8))
    for src, dst in net.skip_edges:
        if not np.array_equal(masks[src], masks[dst]):
            raise ConfigError(
                "skip edge (%d, %d) would join responses keeping different units (%d and %d kept); "
                "a layer that owns no neurons keeps the units kept below it"
                % (src, dst, masks[src].sum(), masks[dst].sum())
            )
    return masks


def check_ratios(net: Network, cfg: PruneConfig) -> None:
    """Reject ratios naming non-prunable layers, bad fractions, or skip sources."""
    prunable = set(prunable_layer_ids(net))
    for layer_id, fraction in cfg.ratios.items():
        if layer_id not in prunable:
            raise ConfigError(
                "layer %r is not prunable (dense or conv at or before the final response layer)"
                % (layer_id,)
            )
        if not 0.0 < fraction <= 1.0:
            raise ConfigError("keep fraction for layer %d must lie in (0, 1], got %r" % (layer_id, fraction))
    for src, dst in net.skip_edges:
        if cfg.ratios.get(src, 1.0) == 1.0:
            continue
        if dst <= net.frl_index:
            raise ConfigError(
                "layer %d is a skip source and inherits its mask from merge layer %d; "
                "set the ratio there instead" % (src, dst)
            )
        raise ConfigError(
            "layer %d feeds a merge inside the classifier head and cannot be pruned" % src
        )


class _MaskPicker:
    """The keep-mask policy of every plan builder, one layer at a time.

    Layers are picked from the final response layer downward, so a merge
    layer's mask is fixed before its skip sources need one. Both ends of a
    skip edge must keep the same neuron set for surgery to stay
    shape-consistent, so each prunable merge forces its mask onto its
    sources. Edges that touch the classifier head play no part.
    """

    def __init__(self, net: Network, cfg: PruneConfig):
        check_ratios(net, cfg)
        self.net = net
        self.cfg = cfg
        self.forced = {}
        self.entries = {}

    def pick(self, layer_id: int, s: np.ndarray) -> PlanEntry:
        """Keep mask of one layer given its flattened importance ``s``.

        A mask forced by a merge above wins. Otherwise a conv layer keeps
        whole channels ranked by their summed importance, a dense layer keeps
        its top scores, and any other layer keeps everything.
        """
        layer = self.net.layers[layer_id]
        fraction = self.cfg.ratios.get(layer_id, 1.0)
        ch = None
        if layer.kind == "Conv2D":
            g = layer.geometry
            ch = channel_scores(s.reshape(g.c_out, g.y, g.y))
        if layer.kind not in PRUNABLE_KINDS:
            mask = np.ones(s.shape[0], dtype=np.uint8)
        elif layer_id in self.forced:
            mask = self.forced[layer_id]
        elif layer.kind == "Conv2D":
            mask = np.repeat(prune_indicator(ch, keep_count(g.c_out, fraction)), g.y * g.y)
        else:
            mask = prune_indicator(s, keep_count(s.shape[0], fraction))

        # Any other merge keeps all here but inherits the mask below in surgery.
        forces = layer.kind in PRUNABLE_KINDS
        for src in [src for src, dst in self.net.skip_edges if forces and dst == layer_id]:
            if self.net.layers[src].kind not in PRUNABLE_KINDS:
                if not mask.all():
                    raise ConfigError(
                        "skip edge (%d, %d): pruning the merge needs a prunable source layer"
                        % (src, layer_id)
                    )
                continue
            if src in self.forced and not np.array_equal(self.forced[src], mask):
                raise ConfigError("layer %d sits on two skip edges that demand different masks" % src)
            self.forced[src] = mask

        entry = PlanEntry(layer_id, s, mask, ch)
        self.entries[layer_id] = entry
        return entry

    def plan(self) -> ImportancePlan:
        """The picked entries, once ``effective_masks`` accepts them: an edge
        ending or starting at a layer that owns no neurons can still join a
        pruned response to a whole one after the forcing above."""
        plan = ImportancePlan(entries={lid: self.entries[lid] for lid in sorted(self.entries)})
        effective_masks(self.net, plan)
        return plan


def final_importance(net: Network, shapes: list, s_n) -> np.ndarray:
    """``s_n`` flattened; raises ShapeError unless it holds one finite,
    nonnegative entry per final response. ``shapes`` is ``output_shapes(net)``."""
    s_n = np.asarray(s_n, dtype=float).ravel()
    size = shape_size(shapes[net.frl_index])
    if s_n.shape[0] != size:
        raise ShapeError("importance length %d does not match the final response size %d" % (s_n.shape[0], size))
    if not np.isfinite(s_n).all() or (s_n < 0).any():
        raise ShapeError("importance scores must be finite and nonnegative")
    return s_n


def masked_importance(net: Network, s_n, stop: int = 0, pick=None) -> dict:
    """{layer id: importance of its response, before its own mask} from the
    final response layer down to ``stop``: the one backward pass.

    ``pick(layer_id, s)``, when given, returns the layer's keep mask, and only
    kept importance passes on: to skip sources in ``net.skip_edges`` order,
    then through the layer to the one below. Raises ShapeError for an invalid
    net or ``s_n``.
    """
    shapes = output_shapes(net)
    incoming = {net.frl_index: final_importance(net, shapes, s_n).copy()}
    importance = {}
    for layer_id in range(net.frl_index, stop - 1, -1):
        s = importance[layer_id] = incoming.pop(layer_id)
        if pick is not None:
            s = s * pick(layer_id, s)
        if layer_id == stop:
            break
        receivers = [(src, s) for src, dst in net.skip_edges if dst == layer_id]
        receivers.append((layer_id - 1, _propagate_through(net.layers[layer_id], s)))
        for below, contribution in receivers:
            incoming[below] = incoming[below] + contribution if below in incoming else contribution
    return importance


def nisp_backward(net: Network, s_n: np.ndarray, cfg: PruneConfig) -> ImportancePlan:
    """NISP's plan: ``masked_importance`` down to layer 0, each layer's keep
    mask picked by ``_MaskPicker`` from the importance that reaches it."""
    picker = _MaskPicker(net, cfg)
    masked_importance(net, s_n, 0, lambda layer_id, s: picker.pick(layer_id, s).mask)
    return picker.plan()


def plan_from_layer_scores(net: Network, cfg: PruneConfig, scores_by_layer: dict) -> ImportancePlan:
    """Keep masks from independent per-layer scores; nothing propagates.

    The layer-local baselines pick their masks by the same policy and skip
    sharing as nisp_backward, from the highest listed layer downward.
    """
    picker = _MaskPicker(net, cfg)
    shapes = output_shapes(net)
    for layer_id in sorted(scores_by_layer, reverse=True):
        scores = np.asarray(scores_by_layer[layer_id], dtype=float).ravel()
        if scores.shape[0] != shape_size(shapes[layer_id]):
            raise ShapeError(
                "scores for layer %d have %d entries, expected %d"
                % (layer_id, scores.shape[0], shape_size(shapes[layer_id]))
            )
        picker.pick(layer_id, scores)
    return picker.plan()


# ---------------------------------------------------------------------------
# plan serialization

def plan_to_json(plan: ImportancePlan) -> bytes:
    doc = {"layers": []}
    for layer_id in sorted(plan.entries):
        entry = plan.entries[layer_id]
        item = {
            "layer_id": int(layer_id),
            "scores": [float(v) for v in entry.scores],
            "mask": [int(v) for v in entry.mask],
        }
        if entry.channel_scores is not None:
            item["channel_scores"] = [float(v) for v in entry.channel_scores]
        doc["layers"].append(item)
    return canonical_json(doc)


def plan_from_json(data) -> ImportancePlan:
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as e:  # UnicodeDecodeError included
        raise ModelFormatError("plan document is not valid JSON: %s" % e) from e
    if not isinstance(doc, dict) or not isinstance(doc.get("layers"), list):
        raise ModelFormatError("plan document needs a layers list")
    entries = {}
    for item in doc["layers"]:
        if not isinstance(item, dict) or "layer_id" not in item:
            raise ModelFormatError("plan entry %r is missing layer_id" % (item,))
        layer_id = item["layer_id"]
        if not isinstance(layer_id, int) or layer_id in entries:
            raise ModelFormatError("plan entry has a bad or duplicate layer id %r" % (layer_id,))
        try:
            scores = np.asarray(item["scores"], dtype=float)
            mask = item["mask"]
        except (KeyError, TypeError, ValueError) as e:
            raise ModelFormatError("plan entry %d is malformed: %s" % (layer_id, e)) from e
        if not isinstance(mask, list) or not all(v in (0, 1) for v in mask):
            raise ModelFormatError("plan entry %d mask must be a list of 0 and 1" % layer_id)
        mask = np.asarray(mask, dtype=np.uint8)
        ch = item.get("channel_scores")
        channel = np.asarray(ch, dtype=float) if ch is not None else None
        if scores.ndim != 1 or mask.shape != scores.shape:
            raise ModelFormatError("plan entry %d has mismatched scores and mask" % layer_id)
        entries[layer_id] = PlanEntry(layer_id, scores, mask, channel)
    ordered = {lid: entries[lid] for lid in sorted(entries)}
    return ImportancePlan(entries=ordered)
