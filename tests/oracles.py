"""Independent re-derivations used as test oracles.

Everything here recomputes a result by a different route than the library:
receptive fields are enumerated from the input side, series are summed term
by term, gradients come from finite differences, PCA goes through an SVD.
If the library and an oracle agree, agreement is meaningful.
"""

import csv
import json
import os

import numpy as np

from nisprune import engine
from nisprune.analysis import BoundReport
from nisprune.datasets import Dataset, manifest_path_for
from nisprune.errors import ConfigError, DataError
from nisprune.model import output_shapes
from nisprune.propagation import final_importance


def conv_importance_brute(kernel, geometry, s_out):
    """Input-centric: each input neuron collects |w|*importance from every
    output whose receptive field covers it."""
    g = geometry
    acc = np.zeros((g.c_in, g.x, g.x))
    for xr in range(g.x):
        for xc in range(g.x):
            for yr in range(g.y):
                for yc in range(g.y):
                    a = xr - (yr * g.s - g.p)
                    b = xc - (yc * g.s - g.p)
                    if 0 <= a < g.k and 0 <= b < g.k:
                        acc[:, xr, xc] += np.abs(kernel[a, b, :, :]) @ s_out[:, yr, yc]
    return acc


def pool_importance_brute(geometry, s_out):
    g = geometry
    acc = np.zeros((g.c_in, g.x, g.x))
    share = 1.0 / (g.k * g.k)
    for xr in range(g.x):
        for xc in range(g.x):
            for yr in range(g.y):
                for yc in range(g.y):
                    a = xr - (yr * g.s - g.p)
                    b = xc - (yc * g.s - g.p)
                    if 0 <= a < g.k and 0 <= b < g.k:
                        acc[:, xr, xc] += s_out[:, yr, yc] * share
    return acc


def lrn_importance_brute(local_size, s_out):
    c, x, _ = s_out.shape
    half = (local_size - 1) // 2
    acc = np.zeros_like(s_out)
    for cin in range(c):
        for cout in range(c):
            if abs(cin - cout) <= half:
                acc[cin] += s_out[cout] / local_size
    return acc


def bp_lrn_matrix_loop(local_size, geometry):
    """(c*x*x, c*x*x) LRN propagation matrix, filled entry by entry over channel pairs."""
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


def conv_forward_brute(layer, x):
    """Direct quintuple-loop convolution."""
    g = layer.geometry
    padded = np.zeros((g.c_in, g.x + 2 * g.p, g.x + 2 * g.p))
    padded[:, g.p : g.p + g.x, g.p : g.p + g.x] = x
    out = np.zeros((g.c_out, g.y, g.y))
    for f in range(g.c_out):
        for yr in range(g.y):
            for yc in range(g.y):
                total = layer.bias[f]
                for a in range(g.k):
                    for b in range(g.k):
                        for n in range(g.c_in):
                            total += layer.weights[a, b, n, f] * padded[n, yr * g.s + a, yc * g.s + b]
                out[f, yr, yc] = total
    return engine.apply_activation(layer.activation, out)


def dense_forward_loop(layer, x):
    """Dense layer over a batch with one (samples x outputs) product per input
    index, added first to last; the first product seeds the sum. This is the
    summation order the engine's dense kernel must reproduce byte for byte."""
    v = np.asarray(x, dtype=float).reshape(len(x), -1)
    w_rows = np.ascontiguousarray(layer.weights.T)
    acc = v[:, 0][:, None] * w_rows[0]
    for j in range(1, len(w_rows)):
        acc += v[:, j][:, None] * w_rows[j]
    return engine.apply_activation(layer.activation, acc + layer.bias)


def conv_forward_loop(layer, x):
    """Conv layer over a (n, c_in, x, x) batch with one (n, c_out, y, y)
    product per kernel tap, taken channel-major over (c_in, k, k) and added
    first to last; the first product seeds the sum. This is the summation
    order the engine's conv kernel must reproduce byte for byte, whatever
    layout its products take."""
    g = layer.geometry
    span = g.s * (g.y - 1) + 1
    xp = np.pad(np.asarray(x, dtype=float), ((0, 0), (0, 0), (g.p, g.p), (g.p, g.p)))
    acc = None
    for c, di, dj in np.ndindex(g.c_in, g.k, g.k):
        term = xp[:, c, None, di : di + span : g.s, dj : dj + span : g.s] * layer.weights[di, dj, c][:, None, None]
        acc = term if acc is None else acc + term
    return engine.apply_activation(layer.activation, acc + layer.bias[:, None, None])


# The window loops the library used before its window_index table, kept as
# references for the exact summation order: the table-based kernels must
# match them byte for byte, not just to a tolerance.

def pool_forward_loop(layer, x):
    """Pooling over a (n, c, x, x) batch, one output position at a time."""
    g = layer.geometry
    xp = np.pad(x, ((0, 0), (0, 0), (g.p, g.p), (g.p, g.p)))
    reduce = np.max if layer.pool_mode == "max" else np.mean
    out = np.empty((len(x), g.c_out, g.y, g.y))
    for i in range(g.y):
        for j in range(g.y):
            out[:, :, i, j] = reduce(xp[:, :, i * g.s : i * g.s + g.k, j * g.s : j * g.s + g.k], axis=(2, 3))
    return out


def propagate_conv_loop(kernel, g, s_out):
    absk = np.abs(np.asarray(kernel, dtype=float))
    acc = np.zeros((g.c_in, g.x + 2 * g.p, g.x + 2 * g.p))
    for yr in range(g.y):
        for yc in range(g.y):
            contrib = np.einsum("abnf,f->nab", absk, s_out[:, yr, yc])
            acc[:, yr * g.s : yr * g.s + g.k, yc * g.s : yc * g.s + g.k] += contrib
    return acc[:, g.p : g.p + g.x, g.p : g.p + g.x]


def propagate_pool_loop(g, s_out):
    share = s_out / float(g.k * g.k)
    acc = np.zeros((g.c_in, g.x + 2 * g.p, g.x + 2 * g.p))
    for yr in range(g.y):
        for yc in range(g.y):
            acc[:, yr * g.s : yr * g.s + g.k, yc * g.s : yc * g.s + g.k] += share[:, yr : yr + 1, yc : yc + 1]
    return acc[:, g.p : g.p + g.x, g.p : g.p + g.x]


def _window_cells(g):
    """(output position, a, b, flat input index) of every window cell inside the grid."""
    for yr in range(g.y):
        for yc in range(g.y):
            for a in range(g.k):
                xr = yr * g.s + a - g.p
                if not 0 <= xr < g.x:
                    continue
                for b in range(g.k):
                    xc = yc * g.s + b - g.p
                    if 0 <= xc < g.x:
                        yield yr * g.y + yc, a, b, xr * g.x + xc


def bp_conv_matrix_loop(kernel, g):
    kernel = np.asarray(kernel, dtype=float)
    y2, x2 = g.y * g.y, g.x * g.x
    bp = np.zeros((g.c_out * y2, g.c_in * x2))
    cols = np.arange(g.c_in) * x2
    for f in range(g.c_out):
        for pos, a, b, flat in _window_cells(g):
            bp[f * y2 + pos, cols + flat] = np.abs(kernel[a, b, :, f])
    return bp


def bp_pool_matrix_loop(g):
    y2, x2 = g.y * g.y, g.x * g.x
    bp = np.zeros((g.c_out * y2, g.c_in * x2))
    for c in range(g.c_out):
        for pos, _, _, flat in _window_cells(g):
            bp[c * y2 + pos, c * x2 + flat] = 1.0 / float(g.k * g.k)
    return bp


def bp_matrix_loop(layer):
    """Explicit propagation matrix BP of a weighted or spatial layer, s_in = s_out @ BP."""
    if layer.kind == "Dense":
        return np.abs(np.asarray(layer.weights, dtype=float))
    if layer.kind == "Conv2D":
        return bp_conv_matrix_loop(layer.weights, layer.geometry)
    if layer.kind == "Pool2D":
        return bp_pool_matrix_loop(layer.geometry)
    return bp_lrn_matrix_loop(layer.lrn_local_size, layer.geometry)


def importance_closed_form(net, s_n, layer_id):
    """Importance of layer_id's response as |w^(k+1)|^T ... |w^(n)|^T s_n.

    Chains the explicit matrix of every layer between the final response
    layer and layer_id; a batch-norm layer multiplies each channel by its
    |scale| and an activation layer passes importance unchanged. Chain
    networks only, with nothing pruned along the way.
    """
    if net.skip_edges:
        raise ConfigError("the closed form is defined for chain networks only")
    if not 0 <= layer_id <= net.frl_index:
        raise ConfigError("layer id %d outside 0..%d" % (layer_id, net.frl_index))
    s = final_importance(net, output_shapes(net), s_n)
    for layer in net.layers[net.frl_index : layer_id : -1]:
        if layer.kind == "BatchNorm":
            s = s * np.repeat(np.abs(layer.weights), s.size // layer.weights.size)
        elif layer.kind != "Activation":
            s = s @ bp_matrix_loop(layer)
    return s


def series_scores(a, r, terms=200):
    """Row sums of sum_{l=1..terms} (rA)^l, the truncated path-weight series."""
    n = a.shape[0]
    ra = r * a
    power = np.eye(n)
    total = np.zeros((n, n))
    for _ in range(terms):
        power = power @ ra
        total += power
    return total.sum(axis=1)


def affinity_brute(resp, alpha):
    """Entry-by-entry rebuild of the affinity matrix from its definition."""
    m, n = resp.shape
    std = resp.std(axis=0)
    sig = std / std.max() if std.max() > 0 else np.zeros(n)
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            xi, xj = resp[:, i], resp[:, j]
            if std[i] == 0 or std[j] == 0:
                rho = 0.0
            else:
                rho = float(np.corrcoef(xi, xj)[0, 1])
                rho = max(-1.0, min(1.0, rho))
            a[i, j] = alpha * max(sig[i], sig[j]) + (1 - alpha) * (1 - abs(rho))
    return a


# The ranking's plain expressions as they were before the library built its
# n x n arrays in place, kept as references for the exact bits: the graph,
# its damping and the scores must match them byte for byte.

def spectral_radius_expr(a):
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    shift = np.abs(a).sum(axis=1).max()
    if shift == 0.0:
        return 0.0
    b = a + shift * np.eye(n)
    v = np.full(n, 1.0 / np.sqrt(n))
    w = b @ v
    prev = np.inf
    for _ in range(10000):
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        w = b @ v
        lam = float(v @ w)
        if abs(lam - prev) <= 1e-13 * max(1.0, abs(lam)):
            break
        prev = lam
    return max(lam - shift, 0.0)


def affinity_expr(resp, alpha):
    """(a, r) of the affinity graph of a (samples x features) matrix."""
    m, n = resp.shape
    std = resp.std(axis=0)
    top = std.max()
    sig = std / top if top > 0 else np.zeros(n)
    centered = resp - resp.mean(axis=0)
    rho = np.zeros((n, n))
    varying = std > 0
    if varying.any():
        sub = centered[:, varying]
        denom = m * np.outer(std[varying], std[varying])
        rho[np.ix_(varying, varying)] = np.clip((sub.T @ sub) / denom, -1.0, 1.0)
    a = alpha * np.maximum.outer(sig, sig) + (1.0 - alpha) * (1.0 - np.abs(rho))
    np.fill_diagonal(a, 0.0)
    radius = spectral_radius_expr(a)
    return a, (0.9 / radius if radius > 0 else 0.9)


def inffs_expr(a, r):
    n = a.shape[0]
    walks = np.linalg.solve(np.eye(n) - r * a, np.ones(n)) - 1.0
    return np.maximum(walks, 0.0)


def masked_forward(net, x, masks):
    """Original-network evaluation with each layer's dropped units zeroed.

    Uses the engine's own layer kernels, so any agreement with the pruned
    network tests only the claim that removed units contribute nothing.
    """
    trace = [np.asarray(x, dtype=float)]
    for i, layer in enumerate(net.layers):
        out = engine.layer_forward(layer, trace[-1])
        out = (out.ravel() * masks[i]).reshape(out.shape)
        for src, dst in net.skip_edges:
            if dst == i:
                out = out + trace[src + 1]
        trace.append(out)
    return trace


def verify_bound_reference(net, inputs, s_n, keep_mask, layer_id):
    """Both sides of the pruning bound, recomputed from scratch for one mask.

    The full forward to the final response layer, r chained through |w| and
    the window loops above, and the tail run over the masked responses
    multiplied by zero, with no context shared between calls. Expects a tail
    that the library accepts.
    """
    shapes = output_shapes(net)
    s_n = np.asarray(s_n, dtype=float).ravel()
    keep_mask = np.asarray(keep_mask, dtype=float).ravel()
    trace = engine.batch_forward(net, inputs, 0, net.frl_index)

    r = s_n.copy()
    c_sigma = 1.0
    for i in range(net.frl_index, layer_id, -1):
        layer = net.layers[i]
        if layer.kind == "Activation":
            c_sigma *= engine.activation_lipschitz(layer.activation)
            continue
        if layer.kind == "BatchNorm":
            scale = np.abs(layer.weights)
            if len(shapes[i - 1]) == 3:
                scale = np.repeat(scale, shapes[i - 1][1] * shapes[i - 1][2])
            r = scale * r
            continue
        if layer.kind in ("Dense", "Conv2D"):
            c_sigma *= engine.activation_lipschitz(layer.activation)
        g = layer.geometry
        if layer.kind == "Dense":
            r = r @ np.abs(layer.weights)
        elif layer.kind == "Conv2D":
            r = propagate_conv_loop(layer.weights, g, r.reshape(g.c_out, g.y, g.y)).ravel()
        else:
            r = propagate_pool_loop(g, r.reshape(g.c_out, g.y, g.y)).ravel()

    masked_in = trace[layer_id + 1] * keep_mask.reshape(shapes[layer_id])
    masked = engine.batch_forward(net, masked_in, layer_id + 1, net.frl_index)[-1]
    lhs = 0.0
    for diff in engine.flatten_responses(np.abs(trace[-1] - masked)):
        lhs += float(s_n @ diff)

    c_x = float(np.abs(engine.flatten_responses(trace[layer_id + 1])).sum(axis=0).max())
    rhs = c_sigma * c_x * float(r @ (1.0 - keep_mask))
    return BoundReport(
        layer_id=layer_id,
        lhs=lhs,
        rhs=rhs,
        c_sigma_product=c_sigma,
        c_x=c_x,
        r_vector=r,
        holds=bool(lhs <= rhs * (1.0 + 1e-9)),
    )


def finite_diff_grads(net, inputs, labels, step=1e-5):
    """Central-difference gradients of the trainer's loss for every dense layer."""
    from dataclasses import replace

    from nisprune.model import Network
    from nisprune.trainer import loss_and_grads

    def loss_with(layer_id, field, index, value):
        layer = net.layers[layer_id]
        arr = getattr(layer, field).copy()
        arr[index] = value
        layers = list(net.layers)
        layers[layer_id] = replace(layer, **{field: arr})
        patched = Network(layers=tuple(layers), frl_index=net.frl_index, skip_edges=net.skip_edges)
        return loss_and_grads(patched, inputs, labels)[0]

    grads = {}
    for layer_id, layer in enumerate(net.layers):
        if layer.kind != "Dense":
            continue
        d_w = np.zeros_like(layer.weights)
        for index in np.ndindex(layer.weights.shape):
            base = layer.weights[index]
            up = loss_with(layer_id, "weights", index, base + step)
            down = loss_with(layer_id, "weights", index, base - step)
            d_w[index] = (up - down) / (2 * step)
        d_b = np.zeros_like(layer.bias)
        for index in np.ndindex(layer.bias.shape):
            base = layer.bias[index]
            up = loss_with(layer_id, "bias", index, base + step)
            down = loss_with(layer_id, "bias", index, base - step)
            d_b[index] = (up - down) / (2 * step)
        grads[layer_id] = (d_w, d_b)
    return grads


def svd_components(resp, threshold):
    """PCA component count through the SVD route."""
    centered = resp - resp.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    energy = sv * sv
    total = energy.sum()
    if total == 0:
        return 0
    ratios = np.cumsum(energy) / total
    return int(np.searchsorted(ratios, threshold - 1e-12) + 1)


def compare_csv_reference(cfg):
    """comparison.csv text of ``nisprune compare`` built row by row.

    Every row builds its own plan, seed-independent or not, and every metric
    runs its own forwards through ``engine.accuracy``, ``analysis.ware`` and
    ``engine.top1_agreement``. ``cfg`` is the command's parsed namespace as
    ``cli._config_from_args`` finishes it.
    """
    from nisprune import analysis, cli, surgery, trainer
    from nisprune.datasets import load_dataset
    from nisprune.errors import DataError
    from nisprune.model import read_model

    net, data = read_model(cfg.model), load_dataset(cfg.data)
    if data.labels is None:
        raise DataError("compare needs labeled data")
    trainer.check_trainable(net)
    pc = cli._prune_config(net, cfg)
    frl = net.frl_index

    rows = []
    for strategy in cfg.strategies:
        for seed in cfg.seeds:
            train_cfg = trainer.TrainConfig(
                learning_rate=cfg.learning_rate, epochs=cfg.epochs,
                batch_size=cli._BATCH_SIZE, seed=seed,
            )
            if strategy == "scratch":
                plan = surgery.random_plan(net, pc, seed)
                skeleton, _ = surgery.apply_plan(net, plan)
                pruned = trainer.reinit(skeleton, seed)
                tuned, _ = trainer.train(pruned, data, train_cfg)
            else:
                trace = engine.batch_forward(net, data.inputs, 0, frl)
                plan = cli._build_plan(net, trace, pc, strategy, cfg.alpha, seed)
                pruned, _ = surgery.apply_plan(net, plan)
                tuned, _ = trainer.finetune(pruned, data, train_cfg)
            rows.append((
                strategy,
                seed,
                engine.accuracy(pruned, data.inputs, data.labels),
                engine.accuracy(tuned, data.inputs, data.labels),
                analysis.ware(net, pruned, data.inputs, plan.scores(frl), plan.mask(frl)),
                analysis.count_cost(pruned, reference=net).flops_reduction_pct,
                engine.top1_agreement(net, tuned, data.inputs),
            ))

    rows.sort(key=lambda row: (row[0], row[1]))
    lines = ["strategy,seed,pre_finetune_accuracy,post_finetune_accuracy,ware,flops_reduction_pct,top1_agreement"]
    for strategy, seed, pre, post, ware_val, flops, agree in rows:
        lines.append("%s,%d,%s,%s,%s,%s,%s" % (
            strategy, seed, repr(float(pre)), repr(float(post)),
            repr(float(ware_val)), repr(float(flops)), repr(float(agree)),
        ))
    return "\n".join(lines) + "\n"


def load_dataset_reference(csv_path):
    """``datasets.load_dataset`` as it was before its streaming read: every
    file goes through ``csv.reader`` and is held whole before parsing."""
    try:
        with open(csv_path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError("%s is empty" % csv_path) from None
            rows = list(reader)
    except OSError as e:
        raise DataError("cannot read %s: %s" % (csv_path, e)) from e

    has_label = bool(header) and header[-1] == "label"
    d = len(header) - 1 if has_label else len(header)
    expected = ["x%d" % j for j in range(d)]
    if header[:d] != expected:
        raise DataError("%s header must be x0..x%d[,label]" % (csv_path, d - 1))
    if not rows:
        raise DataError("%s has no data rows" % csv_path)

    values = np.empty((len(rows), d))
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError("%s row %d has %d fields, expected %d" % (csv_path, i + 2, len(row), len(header)))
        try:
            values[i] = [float(v) for v in row[:d]]
        except ValueError as e:
            raise DataError("%s row %d: %s" % (csv_path, i + 2, e)) from e

    texts = [row[d] for row in rows] if has_label else []
    labels = None
    if any(texts):
        labels = np.empty(len(rows), dtype=int)
        for i, text in enumerate(texts):
            try:
                labels[i] = int(text)
            except (ValueError, OverflowError) as e:
                raise DataError("%s row %d: label %r is not an integer; label every row or none"
                                % (csv_path, i + 2, text)) from e
    if not np.isfinite(values).all():
        raise DataError("%s contains non-finite values" % csv_path)

    shape = None
    mpath = manifest_path_for(csv_path)
    if os.path.exists(mpath):
        try:
            with open(mpath) as fh:
                manifest = json.load(fh)
            shape = manifest["input_shape"]
        except (OSError, ValueError, KeyError, TypeError) as e:
            raise DataError("bad manifest %s: %s" % (mpath, e)) from e
        if not (isinstance(shape, list) and len(shape) in (1, 3)
                and all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in shape)):
            raise DataError("bad manifest %s: input_shape must be a list of 1 or 3 positive integers, got %r"
                            % (mpath, shape))
        shape = tuple(shape)
    if shape is not None and int(np.prod(shape)) != d:
        raise DataError("manifest shape %r does not hold %d values" % (shape, d))
    if shape is not None and len(shape) == 3:
        values = values.reshape((len(rows),) + shape)

    return Dataset(inputs=values, labels=labels)
