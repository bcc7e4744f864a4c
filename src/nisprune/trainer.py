"""Plain SGD on dense stacks, plus the synthetic datasets the experiments use.

This exists to train the small models the pruning comparisons need, nothing
more: softmax cross-entropy, mini-batches, a fixed learning rate. Only chains
of dense and activation layers are supported.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import engine
from .datasets import Dataset
from .errors import ConfigError, DataError
from .model import Layer, Network, output_shapes


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int
    seed: int


@dataclass(frozen=True)
class SynthSpec:
    n_classes: int
    dim: int
    samples_per_class: int
    cluster_spread: float
    seed: int
    center_scale: float = 3.0


def synth_dataset(spec: SynthSpec) -> Dataset:
    """Gaussian blobs around scaled one-hot centers, one blob per class.

    Class c sits at center_scale * e_c, so centers are pairwise equidistant;
    cluster_spread is the per-coordinate standard deviation. Rows come out
    shuffled (deterministically, from the spec's seed).
    """
    if spec.n_classes < 1 or spec.samples_per_class < 1:
        raise ConfigError("need at least one class and one sample per class")
    if spec.dim < spec.n_classes:
        raise ConfigError(
            "need dim >= n_classes to place one-hot centers, got dim=%d classes=%d"
            % (spec.dim, spec.n_classes)
        )
    if spec.cluster_spread < 0:
        raise ConfigError("cluster_spread must be non-negative")
    rng = np.random.default_rng(spec.seed)
    rows, labels = [], []
    for c in range(spec.n_classes):
        center = np.zeros(spec.dim)
        center[c] = spec.center_scale
        rows.append(center + spec.cluster_spread * rng.standard_normal((spec.samples_per_class, spec.dim)))
        labels.append(np.full(spec.samples_per_class, c, dtype=int))
    inputs = np.concatenate(rows, axis=0)
    labels = np.concatenate(labels)
    order = rng.permutation(inputs.shape[0])
    return Dataset(inputs=inputs[order], labels=labels[order])


def make_mlp(dims, seed: int, hidden_activation: str = "ReLU", out_activation: str = "Identity") -> Network:
    """Dense stack with the given widths; the last hidden response is the FRL."""
    dims = [int(d) for d in dims]
    if len(dims) < 2:
        raise ConfigError("need an input width and at least one layer width")
    # reinit draws every weight; these arrays only carry the shapes.
    layers = tuple(
        Layer(kind="Dense", weights=np.empty((dims[i + 1], dims[i])),
              activation=out_activation if i == len(dims) - 2 else hidden_activation)
        for i in range(len(dims) - 1)
    )
    return reinit(Network(layers=layers, frl_index=max(len(layers) - 2, 0)), seed)


def reinit(net: Network, seed: int) -> Network:
    """Same architecture, fresh dense weights, zero biases.

    Each dense layer draws its weights, in order, uniformly from
    +-sqrt(6 / (in + out)).
    """
    rng = np.random.default_rng(seed)
    layers = []
    for layer in net.layers:
        if layer.kind == "Dense":
            out_dim, in_dim = layer.weights.shape
            limit = np.sqrt(6.0 / (in_dim + out_dim))
            weights = rng.uniform(-limit, limit, size=(out_dim, in_dim))
            layers.append(replace(layer, weights=weights, bias=np.zeros(out_dim)))
        else:
            layers.append(layer)
    return Network(layers=tuple(layers), frl_index=net.frl_index, skip_edges=net.skip_edges)


def check_trainable(net: Network) -> list:
    """Every layer's response shape, or ConfigError for a net SGD cannot train."""
    if net.skip_edges:
        raise ConfigError("training supports chains only, drop the skip edges")
    for i, layer in enumerate(net.layers):
        if layer.kind not in ("Dense", "Activation"):
            raise ConfigError("layer %d: only dense stacks are trainable, found %s" % (i, layer.kind))
    return output_shapes(net)


def _act_grad(kind: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if kind == "Identity":
        return np.ones_like(z)
    if kind == "ReLU":
        return (z > 0).astype(z.dtype)
    if kind == "Sigmoid":
        return a * (1.0 - a)
    return 1.0 - a * a  # Tanh, the last of model.ACTIVATION_KINDS


def _unpack(net: Network):
    """Each layer's activation, and its (weights, bias), or None for an activation layer."""
    acts = [layer.activation for layer in net.layers]
    params = [(layer.weights, layer.bias) if layer.kind == "Dense" else None for layer in net.layers]
    return acts, params


def _forward(acts, params, x):
    """Returns the output plus the (input, pre-activation, activation) records."""
    a, records = x, []
    for act, p in zip(acts, params):
        z = a if p is None else a @ p[0].T + p[1]
        a_new = engine.apply_activation(act, z)
        records.append((a, z, a_new))
        a = a_new
    return a, records


def loss_and_grads(net: Network, inputs: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch and gradients for every dense layer.

    Returns (loss, grads) with grads[layer_id] = (dW, db). Softmax applies to
    the network's final response, after whatever activation it carries.
    """
    check_trainable(net)
    return _loss_and_grads(*_unpack(net), np.asarray(inputs, dtype=float), np.asarray(labels))


def _loss_and_grads(acts, params, x, y):
    logits, records = _forward(acts, params, x)
    m = x.shape[0]
    # Softmax, shifted by each row's maximum so that exp cannot overflow.
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    loss = float(-np.log(np.maximum(probs[np.arange(m), y], 1e-300)).mean())

    d_a = probs.copy()
    d_a[np.arange(m), y] -= 1.0
    d_a /= m

    grads = {}
    for i in reversed(range(len(params))):
        a_in, z, a_out = records[i]
        d_z = d_a * _act_grad(acts[i], z, a_out)
        if params[i] is None:
            d_a = d_z
        else:
            grads[i] = (d_z.T @ a_in, d_z.sum(axis=0))
            d_a = d_z @ params[i][0]
    return loss, grads


def train(net: Network, data: Dataset, cfg: TrainConfig):
    """Mini-batch SGD; returns (trained_net, per-epoch losses).

    An epoch's loss is the sample-weighted mean of its batch losses, measured
    on the evolving weights. Zero epochs returns the network unchanged and no
    losses; a zero learning rate leaves the weights where they started.
    Training stops at the first epoch whose loss is not finite, and raises
    ConfigError then or when it ends on non-finite weights.
    """
    if data.labels is None:
        raise DataError("training needs labeled data")
    if cfg.epochs < 0:
        raise ConfigError("epochs must be non-negative")
    if cfg.batch_size < 1:
        raise ConfigError("batch_size must be at least 1")
    if not 0 <= cfg.learning_rate < np.inf:
        raise ConfigError("learning_rate must be finite and non-negative")
    out_dim = check_trainable(net)[-1][0]

    x = np.asarray(data.inputs, dtype=float)
    y = np.asarray(data.labels)
    if x.ndim != 2:
        raise DataError("dense training needs flat inputs")
    n = x.shape[0]
    if n == 0:
        raise DataError("training set is empty")
    if y.min() < 0 or y.max() >= out_dim:
        raise DataError("labels must lie in [0, %d)" % out_dim)

    acts, params = _unpack(net)

    rng = np.random.default_rng(cfg.seed)
    losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, grads = _loss_and_grads(acts, params, x[batch], y[batch])
            epoch_loss += loss * batch.size
            for i, (d_w, d_b) in grads.items():
                w, b = params[i]
                params[i] = (w - cfg.learning_rate * d_w, b - cfg.learning_rate * d_b)
        losses.append(epoch_loss / n)
        if not np.isfinite(epoch_loss):
            break  # a NaN probability has made the last dense bias NaN too

    if not all(np.isfinite(w).all() and np.isfinite(b).all() for w, b in filter(None, params)):
        raise ConfigError("training diverged to non-finite weights; lower the learning rate")
    layers = tuple(layer if p is None else replace(layer, weights=p[0], bias=p[1])
                   for layer, p in zip(net.layers, params))
    trained = Network(layers=layers, frl_index=net.frl_index, skip_edges=net.skip_edges)
    return trained, losses


def finetune(net: Network, data: Dataset, cfg: TrainConfig):
    """Training at a tenth of the configured learning rate."""
    return train(net, data, replace(cfg, learning_rate=cfg.learning_rate / 10.0))
