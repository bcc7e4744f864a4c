"""Forward evaluation, response extraction, and simple prediction metrics."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .model import Layer, Network, window_index

# Local response normalization runs with fixed constants; importance
# propagation never looks at them.
LRN_BIAS = 1.0
LRN_ALPHA = 1e-4
LRN_BETA = 0.75

_LIPSCHITZ = {"Identity": 1.0, "ReLU": 1.0, "Tanh": 1.0, "Sigmoid": 0.25}


def apply_activation(kind: str, z: np.ndarray) -> np.ndarray:
    if kind == "Identity":
        return z
    if kind == "ReLU":
        return np.maximum(z, 0.0)
    if kind == "Tanh":
        return np.tanh(z)
    if kind == "Sigmoid":
        # Split by sign so exp never overflows.
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    raise ConfigError("unknown activation %r" % (kind,))


def activation_lipschitz(kind: str) -> float:
    """Smallest constant C with |sigma(a) - sigma(b)| <= C |a - b|."""
    try:
        return _LIPSCHITZ[kind]
    except KeyError:
        raise ConfigError("unknown activation %r" % (kind,)) from None


# Samples per call of the dense and conv summing loops: enough to amortise the
# Python loop over terms, few enough that a block's accumulator stays in cache.
SAMPLE_BLOCK = 64


def _ordered_sum(products) -> np.ndarray:
    # Sum of the arrays ``products`` yields, strictly first to last. Zero
    # contributions then leave every partial sum untouched, so a pruned
    # network and the original network with masked activations produce
    # bit-identical responses. Starting from zero instead of the first
    # product would turn a -0.0 first term into 0.0. The first is copied
    # because the kernels yield every product in one reused buffer.
    products = iter(products)
    acc = next(products).copy()
    for term in products:
        acc += term
    return acc


def _by_blocks(kernel, x: np.ndarray) -> np.ndarray:
    return np.concatenate([kernel(x[lo : lo + SAMPLE_BLOCK]) for lo in range(0, len(x), SAMPLE_BLOCK)])


def _dense_forward(layer: Layer, x: np.ndarray) -> np.ndarray:
    v = x.reshape(len(x), -1)
    w = layer.weights
    if v.shape[1] != w.shape[1]:
        raise ShapeError("dense layer expects %d inputs, got %d" % (w.shape[1], v.shape[1]))
    # Loop over the input index, vectorised over (samples x outputs).
    w_rows = np.ascontiguousarray(w.T)[:, None, :]

    def block(vb):
        cols = np.ascontiguousarray(vb.T)[:, :, None]
        # A block of at most SAMPLE_BLOCK // 2 samples multiplies `step`
        # consecutive input terms per call, so that a call does about as much
        # work as one on a full block; the adds stay one per term.
        step = max(1, SAMPLE_BLOCK // len(vb))
        terms = np.empty((step, len(vb), len(w)))
        if step == 1:
            return _ordered_sum(np.multiply(c, r, out=terms[0]) for c, r in zip(cols, w_rows))
        chunks = (np.multiply(cols[j : j + step], w_rows[j : j + step], out=terms[: min(step, len(cols) - j)])
                  for j in range(0, len(cols), step))
        return _ordered_sum(term for chunk in chunks for term in chunk)

    return apply_activation(layer.activation, _by_blocks(block, v) + layer.bias)


def _check_spatial(layer: Layer, x: np.ndarray, what: str) -> None:
    g = layer.geometry
    if x.shape[1:] != (g.c_in, g.x, g.x):
        raise ShapeError("%s layer expects %r, got %r" % (what, (g.c_in, g.x, g.x), x.shape[1:]))


def _conv_forward(layer: Layer, x: np.ndarray) -> np.ndarray:
    _check_spatial(layer, x, "conv")
    g = layer.geometry
    span = g.s * (g.y - 1) + 1
    # Terms in the channel-major (c_in, k, k) order of kern_cm; see
    # _ordered_sum. Each term copies its window slice into one flat row of
    # samples x y x y values and multiplies it by the term's c_out weights: a
    # broadcast product pays per inner row, so the rows are made long.
    kern_cm = np.ascontiguousarray(layer.weights.transpose(2, 0, 1, 3)).reshape(-1, g.c_out, 1)

    def block(xb):
        xp = np.pad(xb, ((0, 0), (0, 0), (g.p, g.p), (g.p, g.p)))
        window = np.empty((len(xb), g.y, g.y))
        term = np.empty((g.c_out, window.size))

        def products():
            for (c, di, dj), kern in zip(np.ndindex(g.c_in, g.k, g.k), kern_cm):
                np.copyto(window, xp[:, c, di : di + span : g.s, dj : dj + span : g.s])
                yield np.multiply(window.reshape(1, -1), kern, out=term)

        acc = _ordered_sum(products()).reshape(g.c_out, len(xb), g.y, g.y)
        return acc.transpose(1, 0, 2, 3)

    out = _by_blocks(block, x) + layer.bias[:, None, None]
    return apply_activation(layer.activation, out)


def _pool_forward(layer: Layer, x: np.ndarray) -> np.ndarray:
    _check_spatial(layer, x, "pool")
    g = layer.geometry
    # A zero slot past the grid stands for the padding. The windows are
    # gathered position-major and contiguous so each window reduces its k*k
    # values in the same order as a (k, k) slice of the padded input; other
    # layouts change the bits of average pooling.
    xp = np.pad(x.reshape(len(x), g.c_in, g.x * g.x), ((0, 0), (0, 0), (0, 1)))
    windows = np.ascontiguousarray(xp[:, :, window_index(g)].transpose(2, 0, 1, 3))
    reduce = np.max if layer.pool_mode == "max" else np.mean
    out = reduce(windows, axis=-1)  # (y*y, n, c)
    return out.transpose(1, 2, 0).reshape(len(x), g.c_out, g.y, g.y)


def _lrn_forward(layer: Layer, x: np.ndarray) -> np.ndarray:
    _check_spatial(layer, x, "LRN")
    g = layer.geometry
    half = (layer.lrn_local_size - 1) // 2
    sq = x * x
    out = np.empty_like(x)
    for c in range(g.c_in):
        lo, hi = max(0, c - half), min(g.c_in, c + half + 1)
        out[:, c] = x[:, c] / (LRN_BIAS + LRN_ALPHA * sq[:, lo:hi].sum(axis=1)) ** LRN_BETA
    return out


def _batchnorm_forward(layer: Layer, x: np.ndarray) -> np.ndarray:
    # A vector is the channels of one position; a tensor repeats each
    # channel's scale and shift over its positions.
    scale, shift = layer.weights, layer.bias
    if x.ndim not in (2, 4) or x.shape[1] != scale.shape[0]:
        raise ShapeError("batch-norm over %d entries cannot consume %r" % (scale.shape[0], x.shape[1:]))
    per_channel = (-1,) + (1,) * (x.ndim - 2)
    return scale.reshape(per_channel) * x + shift.reshape(per_channel)


_KERNELS = {
    "Dense": _dense_forward,
    "Conv2D": _conv_forward,
    "Pool2D": _pool_forward,
    "LRN": _lrn_forward,
    "BatchNorm": _batchnorm_forward,
    "Activation": lambda layer, x: apply_activation(layer.activation, x),
}


def _layer_batch(layer: Layer, x: np.ndarray) -> np.ndarray:
    if layer.kind not in _KERNELS:
        raise ShapeError("unknown layer kind %r" % (layer.kind,))
    return _KERNELS[layer.kind](layer, x)


def batch_forward(net: Network, inputs, start: int = 0, end: int = None) -> list:
    """Trace [inputs, response_start, ..., response_end] over a batch.

    ``inputs`` stacks one input to layer ``start`` per sample on a leading
    axis, which every response keeps. A skip edge (src, dst) adds the stored
    response of layer src to the output of layer dst after dst's own
    activation; an edge that merges inside the range but starts before it is
    rejected. A sample's responses are bit-identical in any batch.
    """
    n = len(net.layers)
    end = n - 1 if end is None else end
    if not 0 <= start <= end <= n - 1:
        raise ConfigError("layer range [%d, %d] outside 0..%d" % (start, end, n - 1))
    merges = {}
    for src, dst in net.skip_edges:
        if start <= dst <= end:
            if src < start:
                raise ConfigError("skip edge (%d, %d) crosses the start of layers %d..%d" % (src, dst, start, end))
            merges.setdefault(dst, []).append(src)
    trace = [np.asarray(inputs, dtype=float)]
    if len(trace[0]) == 0:
        raise DataError("no samples to evaluate")
    for i in range(start, end + 1):
        value = _layer_batch(net.layers[i], trace[-1])
        for src in merges.get(i, ()):
            stored = trace[src - start + 1]
            if stored.shape != value.shape:
                raise ShapeError("skip edge (%d, %d) joins shapes %r and %r"
                                 % (src, i, stored.shape[1:], value.shape[1:]))
            value = value + stored
        trace.append(value)
    return trace


def layer_forward(layer: Layer, x: np.ndarray) -> np.ndarray:
    """One layer on one sample."""
    return _layer_batch(layer, np.asarray(x, dtype=float)[None])[0]


def forward(net: Network, x) -> list:
    """Full activation trace of one sample: [input, response_0, ..., response_last]."""
    return [value[0] for value in batch_forward(net, np.asarray(x, dtype=float)[None])]


def flatten_responses(batch: np.ndarray) -> np.ndarray:
    """One flattened response per row: channel-major, then row-major."""
    return batch.reshape(len(batch), -1)


def batch_responses(net: Network, inputs, layer_id: int) -> np.ndarray:
    """Rows of flattened responses of one layer, one row per sample."""
    return flatten_responses(batch_forward(net, inputs, 0, layer_id)[-1])


def output_accuracy(outputs: np.ndarray, labels) -> float:
    """Share of rows of a (samples x classes) output matrix whose top-1 class
    is the label."""
    labels = np.asarray(labels)
    if len(labels) != len(outputs):
        raise DataError("%d samples but %d labels" % (len(outputs), len(labels)))
    if len(labels) == 0:
        raise DataError("no samples to evaluate")
    if labels.max() >= outputs.shape[1] or labels.min() < 0:
        raise DataError("labels outside the network's %d outputs" % outputs.shape[1])
    return float(np.mean(np.argmax(outputs, axis=1) == labels))


def accuracy(net: Network, inputs, labels) -> float:
    """``output_accuracy`` of the network's outputs on ``inputs``."""
    return output_accuracy(batch_responses(net, inputs, len(net.layers) - 1), labels)


def output_agreement(outputs_a: np.ndarray, outputs_b: np.ndarray) -> float:
    """Fraction of rows where two (samples x classes) output matrices pick the
    same top-1 class."""
    if len(outputs_a) == 0:
        raise DataError("no samples to evaluate")
    if len(outputs_a) != len(outputs_b):
        raise ShapeError("%d rows of outputs against %d" % (len(outputs_a), len(outputs_b)))
    return float(np.mean(np.argmax(outputs_a, axis=1) == np.argmax(outputs_b, axis=1)))


def top1_agreement(net_a: Network, net_b: Network, inputs) -> float:
    """Fraction of samples where two networks pick the same class."""
    last_a, last_b = len(net_a.layers) - 1, len(net_b.layers) - 1
    return output_agreement(batch_responses(net_a, inputs, last_a), batch_responses(net_b, inputs, last_b))
