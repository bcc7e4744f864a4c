#!/usr/bin/env python3
"""Accuracy of pruning strategies on a synthetic blob classifier.

For each seed: train an MLP on Gaussian blobs, prune half of each hidden
layer with every strategy, fine-tune, and record accuracy before and after.
Prints per-strategy win rates against the random baseline and optionally
writes the raw rows as CSV. ``nisp-var`` is ``nisp`` with the variance-only
affinity (alpha = 1); ``nisp-mag`` is the CLI's strategy of that name.
"""

import argparse
import csv
import sys

from nisprune import engine
from nisprune.propagation import PruneConfig
from nisprune.surgery import apply_plan, lbl_plan, magnitude_plan, nisp_plan, random_plan
from nisprune.trainer import SynthSpec, TrainConfig, finetune, make_mlp, synth_dataset, train


def build_plan(strategy, net, trace, cfg, alpha, seed):
    if strategy == "nisp":
        return nisp_plan(net, trace, cfg, alpha=alpha)
    if strategy == "nisp-var":
        return nisp_plan(net, trace, cfg, alpha=1.0)
    if strategy == "lbl":
        return lbl_plan(net, trace, cfg, alpha=alpha)
    if strategy == "nisp-mag":
        return magnitude_plan(net, cfg)
    return random_plan(net, cfg, seed=seed)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=20, help="number of independent runs")
    ap.add_argument("--classes", type=int, default=4)
    ap.add_argument("--dim", type=int, default=8)
    ap.add_argument("--samples", type=int, default=200, help="per class")
    ap.add_argument("--spread", type=float, default=1.0)
    ap.add_argument("--hidden", type=int, nargs="+", default=[64, 32])
    ap.add_argument("--keep", type=float, default=0.5, help="keep fraction per hidden layer")
    ap.add_argument("--alpha", type=float, default=0.5)
    ap.add_argument("--lr", type=float, default=0.1)
    ap.add_argument("--epochs", type=int, default=20)
    ap.add_argument("--batch", type=int, default=32)
    ap.add_argument("--out", default=None, help="write raw rows to this CSV")
    args = ap.parse_args(argv)

    strategies = ["nisp", "nisp-var", "lbl", "nisp-mag", "random"]
    cfg = PruneConfig(ratios={i: args.keep for i in range(len(args.hidden))})
    rows = []
    for seed in range(args.seeds):
        data = synth_dataset(SynthSpec(
            n_classes=args.classes, dim=args.dim, samples_per_class=args.samples,
            cluster_spread=args.spread, seed=seed,
        ))
        net = make_mlp([args.dim] + args.hidden + [args.classes], seed=seed)
        tc = TrainConfig(learning_rate=args.lr, epochs=args.epochs, batch_size=args.batch, seed=seed)
        trained, _ = train(net, data, tc)
        base_acc = engine.accuracy(trained, data.inputs, data.labels)
        trace = engine.batch_forward(trained, data.inputs, 0, trained.frl_index)
        for strategy in strategies:
            plan = build_plan(strategy, trained, trace, cfg, args.alpha, seed)
            pruned, _ = apply_plan(trained, plan)
            pre = engine.accuracy(pruned, data.inputs, data.labels)
            tuned, _ = finetune(pruned, data, tc)
            post = engine.accuracy(tuned, data.inputs, data.labels)
            rows.append({
                "strategy": strategy, "seed": seed, "trained_accuracy": base_acc,
                "pre_finetune_accuracy": pre, "post_finetune_accuracy": post,
            })

    by_strategy = {s: [r for r in rows if r["strategy"] == s] for s in strategies}
    random_pre = {r["seed"]: r["pre_finetune_accuracy"] for r in by_strategy["random"]}
    random_post = {r["seed"]: r["post_finetune_accuracy"] for r in by_strategy["random"]}
    print("strategy    mean pre  mean post  pre wins vs random  post wins")
    for s in strategies:
        rs = by_strategy[s]
        pre = sum(r["pre_finetune_accuracy"] for r in rs) / len(rs)
        post = sum(r["post_finetune_accuracy"] for r in rs) / len(rs)
        pw = sum(r["pre_finetune_accuracy"] >= random_pre[r["seed"]] for r in rs)
        qw = sum(r["post_finetune_accuracy"] >= random_post[r["seed"]] for r in rs)
        print("%-10s  %8.4f  %9.4f  %13d/%d  %8d/%d"
              % (s, pre, post, pw, len(rs), qw, len(rs)))

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print("wrote %d rows to %s" % (len(rows), args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
