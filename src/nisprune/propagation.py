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
  batch-norm   unchanged (no reweighting by scale)
  activation   unchanged

Signs, biases, and activations never matter here; only how strongly a unit
feeds the units above it. A single backward pass walks from the final
response layer down to layer 0; at each prunable layer it selects the keep
mask, zeroes the importance of dropped neurons, and only then keeps
propagating, so discarded units pass nothing further down. When several
layers consume one response (a skip edge), their propagated contributions
sum.

Every rule also exists as an explicit matrix: ``bp_matrix`` builds the
(out_size x in_size) nonnegative matrix BP with s_in = s_out @ BP, assembled
directly from layer geometry rather than from the loop rules above.
``importance_closed_form`` chains those matrices, which is the product
|w^(k+1)|^T ... |w^(n)|^T s_n written out explicitly; it serves as an
independent route to the same numbers as the backward pass.
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
    output_shapes,
    prunable_layer_ids,
    shape_size,
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
    acc = np.zeros((g.c_in, g.x + 2 * g.p, g.x + 2 * g.p))
    for yr in range(g.y):
        for yc in range(g.y):
            contrib = np.einsum("abnf,f->nab", absk, s[:, yr, yc])
            acc[:, yr * g.s : yr * g.s + g.k, yc * g.s : yc * g.s + g.k] += contrib
    return acc[:, g.p : g.p + g.x, g.p : g.p + g.x]


def propagate_pool(geometry: Geometry, s_out: np.ndarray) -> np.ndarray:
    """Every input position in a window gets the window's share s / (k*k)."""
    g = geometry
    s = np.asarray(s_out, dtype=float)
    if s.shape != (g.c_out, g.y, g.y):
        raise ShapeError("pool propagation expects %r, got %r" % ((g.c_out, g.y, g.y), s.shape))
    share = s / float(g.k * g.k)
    acc = np.zeros((g.c_in, g.x + 2 * g.p, g.x + 2 * g.p))
    for yr in range(g.y):
        for yc in range(g.y):
            acc[:, yr * g.s : yr * g.s + g.k, yc * g.s : yc * g.s + g.k] += share[
                :, yr : yr + 1, yc : yc + 1
            ]
    return acc[:, g.p : g.p + g.x, g.p : g.p + g.x]


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


def propagate_identity(s_out: np.ndarray) -> np.ndarray:
    return np.array(s_out, dtype=float, copy=True)


# ---------------------------------------------------------------------------
# explicit propagation matrices

def bp_dense_matrix(weights: np.ndarray) -> np.ndarray:
    return np.abs(np.asarray(weights, dtype=float))


def bp_conv_matrix(kernel: np.ndarray, geometry: Geometry) -> np.ndarray:
    """(c_out*y*y, c_in*x*x) matrix with s_in = s_out @ BP.

    Row (f, yr, yc), column (n, xr, xc) holds |kernel[a, b, n, f]| where
    a = xr - yr*s + p and b = xc - yc*s + p, whenever those land inside the
    kernel and (xr, xc) inside the unpadded input. Built position by position
    from the geometry, independently of the scatter rule above.
    """
    g = geometry
    kernel = np.asarray(kernel, dtype=float)
    y2, x2 = g.y * g.y, g.x * g.x
    bp = np.zeros((g.c_out * y2, g.c_in * x2))
    cols = np.arange(g.c_in) * x2
    for f in range(g.c_out):
        for yr in range(g.y):
            for yc in range(g.y):
                row = f * y2 + yr * g.y + yc
                for a in range(g.k):
                    xr = yr * g.s + a - g.p
                    if not 0 <= xr < g.x:
                        continue
                    for b in range(g.k):
                        xc = yc * g.s + b - g.p
                        if not 0 <= xc < g.x:
                            continue
                        bp[row, cols + xr * g.x + xc] = np.abs(kernel[a, b, :, f])
    return bp


def bp_pool_matrix(geometry: Geometry) -> np.ndarray:
    """Block-diagonal over channels; windows carry 1/(k*k) at each position."""
    g = geometry
    y2, x2 = g.y * g.y, g.x * g.x
    bp = np.zeros((g.c_out * y2, g.c_in * x2))
    share = 1.0 / float(g.k * g.k)
    for c in range(g.c_out):
        for yr in range(g.y):
            for yc in range(g.y):
                row = c * y2 + yr * g.y + yc
                for a in range(g.k):
                    xr = yr * g.s + a - g.p
                    if not 0 <= xr < g.x:
                        continue
                    for b in range(g.k):
                        xc = yc * g.s + b - g.p
                        if not 0 <= xc < g.x:
                            continue
                        bp[row, c * x2 + xr * g.x + xc] = share
    return bp


def bp_lrn_matrix(local_size: int, geometry: Geometry) -> np.ndarray:
    """Band over channels at each spatial position, every entry 1/local_size."""
    g = geometry
    x2 = g.x * g.x
    half = (local_size - 1) // 2
    bp = np.zeros((g.c_out * x2, g.c_in * x2))
    for c_out_idx in range(g.c_out):
        for c_in_idx in range(g.c_in):
            if abs(c_out_idx - c_in_idx) <= half:
                idx = np.arange(x2)
                bp[c_out_idx * x2 + idx, c_in_idx * x2 + idx] = 1.0 / float(local_size)
    return bp


def bp_matrix(layer: Layer) -> np.ndarray:
    """Explicit propagation matrix of a weighted or spatial layer."""
    if layer.kind == "Dense":
        return bp_dense_matrix(layer.weights)
    if layer.kind == "Conv2D":
        return bp_conv_matrix(layer.weights, layer.geometry)
    if layer.kind == "Pool2D":
        return bp_pool_matrix(layer.geometry)
    if layer.kind == "LRN":
        return bp_lrn_matrix(layer.lrn_local_size, layer.geometry)
    raise ConfigError("no propagation matrix for a %s layer" % layer.kind)


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
    if layer.kind in ("BatchNorm", "Activation"):
        return propagate_identity(s_flat)
    raise ShapeError("unknown layer kind %r" % (layer.kind,))


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


def _conv_mask_from_channels(ch_mask: np.ndarray, positions: int) -> np.ndarray:
    return np.repeat(ch_mask.astype(np.uint8), positions)


def _entry_for_layer(net, layer_id, s, cfg, forced_masks):
    """Mask selection for one layer during the backward pass."""
    layer = net.layers[layer_id]
    if layer.kind not in PRUNABLE_KINDS:
        return PlanEntry(layer_id, s, np.ones(s.shape[0], dtype=np.uint8), None)

    if layer.kind == "Conv2D":
        g = layer.geometry
        ch = channel_scores(s.reshape(g.c_out, g.y, g.y))
        if layer_id in forced_masks:
            mask = forced_masks[layer_id]
        else:
            fraction = cfg.ratios.get(layer_id, 1.0)
            ch_mask = prune_indicator(ch, keep_count(g.c_out, fraction))
            mask = _conv_mask_from_channels(ch_mask, g.y * g.y)
        return PlanEntry(layer_id, s, mask, ch)

    if layer_id in forced_masks:
        mask = forced_masks[layer_id]
    else:
        fraction = cfg.ratios.get(layer_id, 1.0)
        mask = prune_indicator(s, keep_count(s.shape[0], fraction))
    return PlanEntry(layer_id, s, mask, None)


def nisp_backward(net: Network, s_n: np.ndarray, cfg: PruneConfig) -> ImportancePlan:
    """One backward pass from the final response layer down to layer 0.

    At each layer: collect the importance of its response (summing over all
    consumers), pick the keep mask, zero the importance of dropped neurons,
    and propagate what remains one layer down. All neurons of a conv channel
    share the channel's decision, scored by the channel's summed importance.

    A skip edge makes the merge layer's response feed the source layer
    directly, so the source receives the merge's masked importance on top of
    the usual chain contribution, and both ends must keep the same neuron
    set for surgery to stay shape-consistent: the merge's mask is forced
    onto the source. Edges that touch the classifier head play no part.
    """
    check_ratios(net, cfg)
    shapes = output_shapes(net)
    frl = net.frl_index

    s_n = np.asarray(s_n, dtype=float).ravel()
    if s_n.shape[0] != shape_size(shapes[frl]):
        raise ShapeError(
            "importance length %d does not match the final response size %d"
            % (s_n.shape[0], shape_size(shapes[frl]))
        )
    if not np.isfinite(s_n).all() or (s_n < 0).any():
        raise ShapeError("importance scores must be finite and nonnegative")

    skip_sources = {}
    for src, dst in net.skip_edges:
        if dst <= frl:
            skip_sources.setdefault(dst, []).append(src)

    incoming = {frl: s_n.copy()}
    forced_masks = {}
    entries = {}
    for layer_id in range(frl, -1, -1):
        s = incoming.pop(layer_id, None)
        if s is None:
            s = np.zeros(shape_size(shapes[layer_id]))
        entry = _entry_for_layer(net, layer_id, s, cfg, forced_masks)
        entries[layer_id] = entry
        s_kept = s * entry.mask

        for src in skip_sources.get(layer_id, ()):
            if src in incoming:
                incoming[src] = incoming[src] + s_kept
            else:
                incoming[src] = s_kept.copy()
            if not entry.mask.all():
                if net.layers[src].kind not in PRUNABLE_KINDS:
                    raise ConfigError(
                        "skip edge (%d, %d): pruning the merge needs a prunable source layer"
                        % (src, layer_id)
                    )
                if src in forced_masks and not np.array_equal(forced_masks[src], entry.mask):
                    raise ConfigError(
                        "layer %d sits on two skip edges that demand different masks" % src
                    )
                forced_masks[src] = entry.mask

        if layer_id > 0:
            down = _propagate_through(net.layers[layer_id], s_kept)
            if layer_id - 1 in incoming:
                incoming[layer_id - 1] = incoming[layer_id - 1] + down
            else:
                incoming[layer_id - 1] = down

    ordered = {lid: entries[lid] for lid in sorted(entries)}
    return ImportancePlan(entries=ordered)


def importance_closed_form(net: Network, s_n: np.ndarray, layer_id: int) -> np.ndarray:
    """Importance of layer_id's response as one explicit matrix product.

    Chains the bp_matrix of every layer between the final response layer and
    layer_id, skipping batch-norm and activation layers, which propagate
    unchanged. Defined for chain networks only (no skip edges) and without
    any pruning along the way.
    """
    if net.skip_edges:
        raise ConfigError("the closed form is defined for chain networks only")
    shapes = output_shapes(net)
    frl = net.frl_index
    if not 0 <= layer_id <= frl:
        raise ConfigError("layer id %d outside 0..%d" % (layer_id, frl))
    s = np.asarray(s_n, dtype=float).ravel()
    if s.shape[0] != shape_size(shapes[frl]):
        raise ShapeError(
            "importance length %d does not match the final response size %d"
            % (s.shape[0], shape_size(shapes[frl]))
        )
    for i in range(frl, layer_id, -1):
        layer = net.layers[i]
        if layer.kind in ("BatchNorm", "Activation"):
            continue
        s = s @ bp_matrix(layer)
    return s


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
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def plan_from_json(data) -> ImportancePlan:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except ValueError as e:
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
