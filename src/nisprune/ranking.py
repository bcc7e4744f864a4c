"""Feature scoring over response matrices.

The affinity graph treats each neuron of a response layer as a graph node
and weighs edges by a blend of spread and decorrelation:

    A[i, j] = alpha * max(sig_i, sig_j) + (1 - alpha) * (1 - |rho_ij|)

with zero diagonal, where sig is the per-feature standard deviation rescaled
by the largest one in the matrix and rho is the Pearson correlation (taken as
0 whenever a feature is constant). Scoring then sums weighted walks of every
length through the graph: with damping r chosen as 0.9 / spectral_radius(A),
the series sum_{l>=1} (rA)^l converges to (I - rA)^{-1} - I, and a neuron's
score is its row sum in that matrix. Scores are nonnegative because every
term of the series is.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError
from .model import Network, prunable_layer_ids
from . import engine

from dataclasses import dataclass

MAX_GRAPH_FEATURES = 8192  # widest response ranked: each n x n float array is then 512 MiB


def _graph_size(n: int) -> str:
    return "%d features need a %d-byte affinity graph, over the cap of %d" % (n, 8 * n * n, MAX_GRAPH_FEATURES)


@dataclass(frozen=True, eq=False)
class AffinityGraph:
    a: np.ndarray  # symmetric, nonnegative, zero diagonal
    r: float       # damping, r * spectral_radius(a) < 1
    alpha: float


def spectral_radius(a: np.ndarray) -> float:
    """Dominant eigenvalue magnitude of a symmetric nonnegative matrix.

    Plain power iteration can stall when eigenvalues come in near (+v, -v)
    pairs, so iterate on a + shift*I with shift = max absolute row sum. That
    keeps the spectrum nonnegative, making the largest eigenvalue dominant,
    and the shift subtracts back out at the end. Iteration stops once two
    estimates agree to 1e-13 relative, or after 10000 steps.
    """
    # b takes a's layout, and b @ v must see a C-ordered matrix.
    a = np.ascontiguousarray(a, dtype=float)
    n = a.shape[0]
    b = np.abs(a)
    shift = b.sum(axis=1).max()
    if shift == 0.0:
        return 0.0
    # b = a + shift * I in b's memory, entry for entry: adding shift * 0.0
    # off the diagonal also turns a -0.0 into 0.0.
    np.add(a, shift * 0.0, out=b)
    np.fill_diagonal(b, a.diagonal() + shift)
    v = np.full(n, 1.0 / np.sqrt(n))
    w = b @ v
    prev = np.inf
    for _ in range(10000):
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        w = b @ v  # the estimate's product is the next step's w
        lam = float(v @ w)
        if abs(lam - prev) <= 1e-13 * max(1.0, abs(lam)):
            break
        prev = lam
    return max(lam - shift, 0.0)


def _correlation(resp: np.ndarray, std: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Pearson correlation of the columns, clipped to [-1, 1] and 0 wherever
    a column is constant; ``scratch`` (n x n) holds the denominator."""
    varying = std > 0
    k = int(np.count_nonzero(varying))
    if k == 0:
        return np.zeros(scratch.shape)
    sub = (resp - resp.mean(axis=0))[:, varying]
    denom = np.outer(std[varying], std[varying], out=scratch[:k, :k])
    denom *= len(resp)
    rho = sub.T @ sub
    np.divide(rho, denom, out=rho)
    np.clip(rho, -1.0, 1.0, out=rho)
    if k == len(std):
        return rho
    full = np.zeros(scratch.shape)
    full[np.ix_(varying, varying)] = rho
    return full


def build_affinity(responses: np.ndarray, alpha: float = 0.5) -> AffinityGraph:
    """Affinity graph over the columns of a (samples x features) matrix."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError("alpha must lie in [0, 1], got %r" % (alpha,))
    resp = np.asarray(responses, dtype=float)
    if resp.ndim != 2:
        raise DataError("responses must be a 2-d samples-by-features matrix")
    m, n = resp.shape
    if m < 2:
        raise DataError("need at least 2 samples, got %d" % m)
    if n < 2:
        raise DataError("need at least 2 features, got %d" % n)
    if n > MAX_GRAPH_FEATURES:
        raise DataError("responses are too wide to rank: " + _graph_size(n))
    if not np.isfinite(resp).all():
        raise DataError("responses contain non-finite values")

    std = resp.std(axis=0)
    top = std.max()
    sig = std / top if top > 0 else np.zeros(n)

    # Each n x n array is allocated once and worked on in place, rounding
    # every entry as the plain expressions in the module docstring would:
    # (1 - alpha) * (1 - |rho|) in rho's memory, alpha * max(sig_i, sig_j) in a's.
    a = np.empty((n, n))
    rho = _correlation(resp, std, a)
    np.abs(rho, out=rho)
    np.subtract(1.0, rho, out=rho)
    rho *= 1.0 - alpha
    np.maximum.outer(sig, sig, out=a)
    a *= alpha
    a += rho
    del rho  # freed before spectral_radius allocates its own n x n array
    np.fill_diagonal(a, 0.0)
    if not np.isfinite(a).all():
        raise DataError("responses are too large to rank: their affinity graph overflows")

    radius = spectral_radius(a)
    r = 0.9 / radius if radius > 0 else 0.9
    return AffinityGraph(a=a, r=r, alpha=alpha)


def inffs_scores(graph: AffinityGraph) -> np.ndarray:
    """Row sums of (I - rA)^{-1} - I, one nonnegative score per feature."""
    n = graph.a.shape[0]
    # I - rA entry for entry: 0.0 - r * a_ij off the diagonal, 1.0 - r * a_ii
    # on it. Negating r * a instead would turn a 0.0 into -0.0.
    system = np.multiply(graph.r, graph.a)
    np.subtract(0.0, system, out=system)
    np.fill_diagonal(system, 1.0 - graph.r * graph.a.diagonal())
    try:
        walks = np.linalg.solve(system, np.ones(n)) - 1.0
    except np.linalg.LinAlgError as e:
        raise ConfigError("damping failed to make I - rA invertible: %s" % e) from e
    # The series is nonnegative term by term; clamp only the solver's rounding.
    if walks.min() < -1e-9 * max(1.0, walks.max()):
        raise DataError("Inf-FS solve returned a negative score %r" % float(walks.min()))
    return np.maximum(walks, 0.0)


def magnitude_scores(net: Network, layer_id: int) -> np.ndarray:
    """Absolute-weight mass feeding each neuron of a weighted layer.

    Dense neurons score the absolute sum of their incoming row. Conv channels
    score the absolute sum of their kernel slice, repeated across the
    channel's spatial positions.
    """
    if not 0 <= layer_id < len(net.layers):
        raise ConfigError("layer id %d outside 0..%d" % (layer_id, len(net.layers) - 1))
    layer = net.layers[layer_id]
    if layer.kind == "Dense":
        return np.abs(layer.weights).sum(axis=1)
    if layer.kind == "Conv2D":
        g = layer.geometry
        per_channel = np.abs(layer.weights).sum(axis=(0, 1, 2))
        return np.repeat(per_channel, g.y * g.y)
    raise ConfigError("layer %d (%s) has no weights to rank" % (layer_id, layer.kind))


def layer_scores(trace, layer_id: int, alpha: float = 0.5) -> np.ndarray:
    """Affinity scores of one layer's responses in ``trace``, which is
    ``engine.batch_forward(net, inputs, 0, end)`` with end >= layer_id; the
    plan builders, the bound and the CLI all rank a trace to the FRL."""
    return inffs_scores(build_affinity(engine.flatten_responses(trace[layer_id + 1]), alpha))


def per_layer_scores(net: Network, trace, alpha: float = 0.5) -> dict:
    """Independent affinity scores for every prunable layer's own responses.

    This deliberately ignores how a layer feeds later ones; it exists as the
    layer-by-layer baseline against backward propagation. ``trace`` must
    reach the final response layer (see ``layer_scores``). Every layer below
    it is checked against ``MAX_GRAPH_FEATURES`` before any is ranked.
    """
    for layer_id in prunable_layer_ids(net):
        n = engine.flatten_responses(trace[layer_id + 1]).shape[1]
        if layer_id < net.frl_index and n > MAX_GRAPH_FEATURES:
            raise ConfigError("layer %d: %s; use --strategy nisp" % (layer_id, _graph_size(n)))
    return {layer_id: layer_scores(trace, layer_id, alpha) for layer_id in prunable_layer_ids(net)}
