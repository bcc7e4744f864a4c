"""Benchmark workloads: input generation and the CLI command sequence of each.

Inputs are generated from the seed with the benchmark's own numpy code and
written in the documented model JSON and dataset CSV formats, so a change to
the package cannot change what the benchmark feeds it.

Run as a script, this writes one workload's model and dataset:

    python3 bench/workloads.py --workload lenet --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

RATIO = "0.5"

# One sentence per workload on why it is in the benchmark; BENCHMARK.json
# carries the same text as each workload's "why".
WHY = {
    "lenet": "Dense 784-300-100-10 on 1000 samples (LeNet-300-100): the per-sample dense forward does most of the work "
             "and the big CSV makes setup real; ranking sees only n<=300 features.",
    "conv16": "3x16x16 conv net with LRN, pooling and batch-norm on 100 samples: the only spatial kernels and "
              "bp_conv_matrix, and lbl ranks 2048 features so ranking is about a third of that command.",
    "blobs": "Dense 64-256-128-8 on 200 samples running the verify and compare experiment loop: the only workload "
             "where the trainer runs, and verify repeats its mask-independent work on every trial.",
}

# (label, arguments after --model/--data/--out), run in this order once per
# pass. The labels name the per-command medians in the run's info line.
COMMANDS = {
    "lenet": [
        ("rank", ["rank"]),
        ("prune", ["prune", "--ratio-all", RATIO]),
        ("prune_lbl", ["prune", "--ratio-all", RATIO, "--strategy", "lbl"]),
    ],
    "conv16": [
        ("rank", ["rank"]),
        ("prune", ["prune", "--ratio-all", RATIO]),
        ("prune_lbl", ["prune", "--ratio-all", RATIO, "--strategy", "lbl"]),
        ("verify", ["verify", "--ratio-all", RATIO, "--layer", "2", "--trials", "5"]),
    ],
    "blobs": [
        ("verify", ["verify", "--ratio-all", RATIO, "--layer", "0", "--trials", "20"]),
        ("compare", ["compare", "--ratio-all", RATIO, "--seed", "0", "--epochs", "40"]),
    ],
}

WORKLOADS = tuple(COMMANDS)


# ---------------------------------------------------------------------------
# generators

def _uniform_init(rng, out_dim, in_dim):
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


def _blobs(rng, n_classes, dim, per_class, spread, center_scale=3.0):
    """Gaussian clusters around scaled one-hot centres, rows shuffled."""
    x = np.concatenate([
        center_scale * np.eye(dim)[c] + spread * rng.standard_normal((per_class, dim))
        for c in range(n_classes)
    ])
    y = np.repeat(np.arange(n_classes), per_class)
    order = rng.permutation(len(y))
    return x[order], y[order]


def _train_mlp(rng, dims, x, y, epochs, lr=0.1, batch=32):
    """Mini-batch SGD on softmax cross-entropy; ReLU hidden layers."""
    params = [(_uniform_init(rng, dims[i + 1], dims[i]), np.zeros(dims[i + 1])) for i in range(len(dims) - 1)]
    for _ in range(epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), batch):
            idx = order[start:start + batch]
            acts = [x[idx]]
            for i, (w, b) in enumerate(params):
                z = acts[-1] @ w.T + b
                acts.append(z if i == len(params) - 1 else np.maximum(z, 0.0))
            logits = acts[-1] - acts[-1].max(axis=1, keepdims=True)
            grad = np.exp(logits)
            grad /= grad.sum(axis=1, keepdims=True)
            grad[np.arange(len(idx)), y[idx]] -= 1.0
            grad /= len(idx)
            for i in range(len(params) - 1, -1, -1):
                w, b = params[i]
                d_w, d_b = grad.T @ acts[i], grad.sum(axis=0)
                grad = (grad @ w) * (acts[i] > 0)
                params[i] = (w - lr * d_w, b - lr * d_b)
    return params


def _dense_docs(params):
    return [
        {"kind": "Dense", "activation": "Identity" if i == len(params) - 1 else "ReLU",
         "weights": w.tolist(), "bias": b.tolist()}
        for i, (w, b) in enumerate(params)
    ]


def _geometry(x, y, k, s, p, c_in, c_out):
    return {"x": x, "y": y, "k": k, "s": s, "p": p, "c_in": c_in, "c_out": c_out}


def _conv16_layers(rng):
    def conv(c_in, c_out, x):
        limit = np.sqrt(6.0 / (9 * (c_in + c_out)))
        return {"kind": "Conv2D", "activation": "ReLU",
                "weights": rng.uniform(-limit, limit, (3, 3, c_in, c_out)).tolist(),
                "bias": rng.uniform(-0.1, 0.1, c_out).tolist(),
                "geometry": _geometry(x, x, 3, 1, 1, c_in, c_out)}

    def dense(n_in, n_out, activation):
        return {"kind": "Dense", "activation": activation,
                "weights": _uniform_init(rng, n_out, n_in).tolist(),
                "bias": rng.uniform(-0.1, 0.1, n_out).tolist()}

    return [
        conv(3, 8, 16),
        {"kind": "LRN", "lrn_local_size": 3, "geometry": _geometry(16, 16, 1, 1, 0, 8, 8)},
        {"kind": "Pool2D", "pool_mode": "max", "geometry": _geometry(16, 8, 2, 2, 0, 8, 8)},
        conv(8, 16, 8),
        {"kind": "BatchNorm", "weights": rng.uniform(0.5, 1.5, 16).tolist(),
         "bias": rng.uniform(-0.1, 0.1, 16).tolist()},
        {"kind": "Pool2D", "pool_mode": "avg", "geometry": _geometry(8, 4, 2, 2, 0, 16, 16)},
        dense(256, 64, "ReLU"),
        dense(64, 10, "Identity"),
    ]


def _write_model(path, layers, frl_index):
    doc = {"frl_index": frl_index, "skip_edges": [], "layers": layers}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _write_dataset(path, x, y):
    flat = x.reshape(len(x), -1)
    lines = [",".join(["x%d" % j for j in range(flat.shape[1])] + ["label"])]
    for row, label in zip(flat.tolist(), y.tolist()):
        lines.append(",".join(map(repr, row)) + ",%d" % label)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    if x.ndim == 4:
        with open(path[:-4] + ".manifest.json", "w") as fh:
            json.dump({"input_shape": list(x.shape[1:])}, fh)


def generate(workload: str, seed: int, out_dir: str):
    """Write model.json and data.csv for one workload; return their paths."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "lenet":
        x, y = _blobs(rng, 10, 784, 100, spread=1.0)
        layers, frl = _dense_docs(_train_mlp(rng, [784, 300, 100, 10], x, y, epochs=2)), 1
    elif workload == "blobs":
        x, y = _blobs(rng, 8, 64, 25, spread=3.0)
        layers, frl = _dense_docs(_train_mlp(rng, [64, 256, 128, 8], x, y, epochs=5)), 1
    elif workload == "conv16":
        layers, frl = _conv16_layers(rng), 6
        x, y = rng.standard_normal((100, 3, 16, 16)), rng.integers(0, 10, 100)
    else:
        raise ValueError("unknown workload %r" % (workload,))
    model_path = os.path.join(out_dir, "model.json")
    data_path = os.path.join(out_dir, "data.csv")
    _write_model(model_path, layers, frl)
    _write_dataset(data_path, x, y)
    return model_path, data_path


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write one benchmark workload's inputs.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)
