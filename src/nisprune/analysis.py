"""Measures of what pruning did to a network.

Four views: weighted response error at the final response layer (how much the
retained outputs moved, weighted by their importance), an upper bound on that
error derived from operator norms of the tail layers, operation and parameter
counts, and the PCA energy of a response matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import engine
from .errors import ConfigError, DataError, ShapeError
from .model import Network, layer_params, output_shapes, shape_size
from .propagation import masked_importance

_EPS = 1e-12


def ware_of_responses(orig_resp, pruned_resp, s_n, kept_mask) -> float:
    """Importance-weighted mean relative error of the retained final responses.

    ``orig_resp`` and ``pruned_resp`` hold one flattened final response per
    sample (rows of ``engine.batch_responses``) of the original and the pruned
    network on the same inputs. For each sample and each retained neuron i
    the error is s_n[i] * |y_pruned - y_orig| / max(|y_orig|, 1e-12), averaged
    over samples and retained neurons. The pruned responses are matched to
    the original's either positionally (same width) or by the kept index set
    (width equal to the number of kept neurons).
    """
    s_n = np.asarray(s_n, dtype=float).ravel()
    kept_mask = np.asarray(kept_mask).ravel()
    if s_n.shape[0] != orig_resp.shape[1] or kept_mask.shape[0] != orig_resp.shape[1]:
        raise ShapeError(
            "importance and mask must cover the %d final responses" % orig_resp.shape[1]
        )
    kept = np.flatnonzero(kept_mask)
    if kept.size == 0:
        raise ConfigError("mask keeps no neurons at the final response layer")
    if pruned_resp.shape[0] != orig_resp.shape[0]:
        raise ShapeError("%d pruned response rows against %d original ones"
                         % (pruned_resp.shape[0], orig_resp.shape[0]))

    if pruned_resp.shape[1] == orig_resp.shape[1]:
        matched = pruned_resp[:, kept]
    elif pruned_resp.shape[1] == kept.size:
        matched = pruned_resp
    else:
        raise ShapeError(
            "pruned final response width %d matches neither the original width %d "
            "nor the kept count %d" % (pruned_resp.shape[1], orig_resp.shape[1], kept.size)
        )

    ref = orig_resp[:, kept]
    rel = np.abs(matched - ref) / np.maximum(np.abs(ref), _EPS)
    return float((rel * s_n[kept]).sum() / (rel.shape[0] * kept.size))


def ware(orig: Network, pruned: Network, inputs, s_n, kept_mask) -> float:
    """``ware_of_responses`` of both networks' final responses on ``inputs``."""
    return ware_of_responses(
        engine.batch_responses(orig, inputs, orig.frl_index),
        engine.batch_responses(pruned, inputs, pruned.frl_index),
        s_n,
        kept_mask,
    )


@dataclass
class BoundReport:
    layer_id: int
    lhs: float
    rhs: float
    c_sigma_product: float
    c_x: float
    r_vector: np.ndarray
    holds: bool


class BoundContext:
    """The mask-independent half of the pruning error bound at one layer.

    Writing G for the subnetwork from layer_id+1 to the final response layer,
    the accumulated weighted error sum_m <s_n, |G(x_m) - G(s* . x_m)|> is
    bounded by C_sigma * C_x * sum_i r_i (1 - s*_i), where r is NISP's
    importance of the layer with every unit kept (``masked_importance``
    stopped at the layer), C_sigma multiplies the activation Lipschitz
    constants, and C_x = max_i sum_m |x_m[i]| over the layer's responses x_m.
    Keeping the top entries of r therefore minimises the right side over keep
    sets of one size.

    ``trace`` is ``engine.batch_forward(net, inputs, 0, end)`` for some end
    at or above the final response layer. Building the context checks the
    tail and computes r, C_sigma and C_x; ``check`` then costs one pass of
    the masked tail per keep mask.

    The tail must be a chain of dense, conv, average-pool, batch-norm, and
    activation layers; max-pooling and LRN have no linear envelope of this
    form and are rejected, as are skip edges meeting the tail.
    """

    def __init__(self, net: Network, trace, s_n, layer_id: int):
        if not 0 <= layer_id < net.frl_index:
            raise ConfigError(
                "bound needs a layer strictly below the final response layer, got %d" % layer_id
            )
        for src, dst in net.skip_edges:
            if layer_id + 1 <= dst <= net.frl_index or layer_id + 1 <= src < net.frl_index:
                raise ConfigError("skip edge (%d, %d) meets the tail; the bound needs a chain" % (src, dst))
        for i in range(layer_id + 1, net.frl_index + 1):
            layer = net.layers[i]
            if layer.kind == "LRN":
                raise ConfigError("layer %d: LRN in the tail has no absolute-weight envelope" % i)
            if layer.kind == "Pool2D" and layer.pool_mode != "avg":
                raise ConfigError("layer %d: max-pooling in the tail is not linear" % i)

        importance = masked_importance(net, s_n, layer_id)
        if len(trace) < net.frl_index + 2:
            raise ConfigError("trace stops below the final response layer")

        self.net = net
        self.layer_id = layer_id
        self.s_n = importance[net.frl_index]
        self.r = importance[layer_id]
        self.width = len(self.r)
        # Pool2D and BatchNorm layers load as Identity, so every tail layer counts.
        self.c_sigma = math.prod(engine.activation_lipschitz(net.layers[i].activation)
                                 for i in range(net.frl_index, layer_id, -1))
        self.responses = trace[layer_id + 1]
        self.frl = trace[net.frl_index + 1]
        self.c_x = float(np.abs(engine.flatten_responses(self.responses)).sum(axis=0).max())
        first = net.layers[layer_id + 1]
        # A masked input's products are exact zeros only when it and its
        # weights are finite; see _masked_tail.
        self._drops_inputs = (
            first.kind == "Dense"
            and bool(np.isfinite(self.responses).all())
            and bool(np.isfinite(first.weights).all())
        )

    def check(self, keep_mask) -> BoundReport:
        """Both sides of the bound for one keep mask over the layer's responses."""
        keep_mask = np.asarray(keep_mask, dtype=float).ravel()
        if keep_mask.shape[0] != self.width:
            raise ShapeError("mask length %d does not match layer %d width %d"
                             % (keep_mask.shape[0], self.layer_id, self.width))
        masked = self._masked_tail(keep_mask)
        lhs = 0.0
        for diff in engine.flatten_responses(np.abs(self.frl - masked)):
            lhs += float(self.s_n @ diff)
        rhs = self.c_sigma * self.c_x * float(self.r @ (1.0 - keep_mask))
        return BoundReport(
            layer_id=self.layer_id,
            lhs=lhs,
            rhs=rhs,
            c_sigma_product=self.c_sigma,
            c_x=self.c_x,
            r_vector=self.r,
            holds=bool(lhs <= rhs * (1.0 + 1e-9)),
        )

    def _masked_tail(self, keep_mask: np.ndarray) -> np.ndarray:
        # The final responses of every sample with the layer masked. Where
        # the first tail layer is dense, its dropped inputs are left out
        # instead of multiplied by zero: the ordered sums then skip only zero
        # terms, so responses differ at most in the sign of a zero and
        # |FRL - masked| is bit-identical. A mask keeping nothing leaves no
        # term to start a sum from and takes the masked path.
        net, first = self.net, self.layer_id + 1
        kept = np.flatnonzero(keep_mask)
        binary = bool(np.all((keep_mask == 0.0) | (keep_mask == 1.0)))
        if self._drops_inputs and binary and kept.size:
            layers = list(net.layers)
            layers[first] = replace(layers[first], weights=layers[first].weights[:, kept])
            inputs = engine.flatten_responses(self.responses)[:, kept]
            return engine.batch_forward(replace(net, layers=tuple(layers)), inputs, first, net.frl_index)[-1]
        masked_in = self.responses * keep_mask.reshape(self.responses.shape[1:])
        return engine.batch_forward(net, masked_in, first, net.frl_index)[-1]


def verify_bound(net: Network, inputs, s_n, keep_mask, layer_id: int) -> BoundReport:
    """Check the importance-weighted error bound for pruning at one layer.

    One ``BoundContext.check`` on a forward of ``inputs``; see ``BoundContext``
    for the bound and the tails it accepts. To check many masks at one layer,
    build the context once and call ``check`` per mask.
    """
    trace = engine.batch_forward(net, inputs, 0, net.frl_index)
    return BoundContext(net, trace, s_n, layer_id).check(keep_mask)


@dataclass
class CostReport:
    """Operation and parameter counts, optionally against a reference net."""

    flops: list
    params: list
    total_flops: int
    total_params: int
    flops_reduction_pct: float
    params_reduction_pct: float


def _layer_flops(layer, out_shape) -> int:
    if layer.kind == "Dense":
        out, inp = layer.weights.shape
        return 2 * out * inp
    if layer.kind == "Conv2D":
        g = layer.geometry
        return 2 * g.k * g.k * g.c_in * g.c_out * g.y * g.y
    if layer.kind == "BatchNorm":
        # one multiply and one add per element
        return 2 * shape_size(out_shape)
    # pooling, LRN, and activations: one op per output element
    return shape_size(out_shape)


def count_cost(net: Network, reference: Network = None) -> CostReport:
    """Multiply-accumulates count as two operations; params count every weight
    and bias. Reductions compare totals against ``reference`` (an unpruned
    version of the same model, typically); with no reference the reduction is
    measured against the network itself and comes out zero.
    """
    shapes = output_shapes(net)
    flops = [_layer_flops(layer, shapes[i]) for i, layer in enumerate(net.layers)]
    params = [layer_params(layer) for layer in net.layers]
    total_flops = sum(flops)
    total_params = sum(params)
    if reference is None:
        ref_flops, ref_params = total_flops, total_params
    else:
        ref = count_cost(reference)
        ref_flops, ref_params = ref.total_flops, ref.total_params
    return CostReport(
        flops=flops,
        params=params,
        total_flops=total_flops,
        total_params=total_params,
        flops_reduction_pct=100.0 * (1.0 - total_flops / ref_flops) if ref_flops else 0.0,
        params_reduction_pct=100.0 * (1.0 - total_params / ref_params) if ref_params else 0.0,
    )


@dataclass
class PcaEnergy:
    n_components: int
    degenerate: bool


def pca_energy(responses, threshold: float) -> PcaEnergy:
    """Number of principal components needed to reach the energy threshold.

    Energy is the cumulative fraction of summed covariance eigenvalues
    (responses centered per feature). An all-constant response matrix has no
    variance anywhere; that case is flagged degenerate with zero components.
    """
    if not 0.0 < threshold <= 1.0:
        raise ConfigError("threshold must lie in (0, 1], got %r" % (threshold,))
    resp = np.asarray(responses, dtype=float)
    if resp.ndim != 2 or resp.shape[0] < 2:
        raise DataError("need a 2-d response matrix with at least two samples")
    if not np.isfinite(resp).all():
        raise DataError("responses contain non-finite values")

    centered = resp - resp.mean(axis=0)
    cov = centered.T @ centered / (resp.shape[0] - 1)
    eig = np.linalg.eigvalsh(cov)[::-1]
    eig = np.clip(eig, 0.0, None)
    total = eig.sum()
    if total == 0.0:
        return PcaEnergy(n_components=0, degenerate=True)
    ratios = np.cumsum(eig) / total
    k = int(np.searchsorted(ratios, threshold - 1e-12) + 1)
    return PcaEnergy(n_components=min(k, eig.size), degenerate=False)
