#!/usr/bin/env python3
"""Reconstruction error of propagated vs layer-local pruning across depths.

Builds dense nets whose units have strongly uneven outgoing gains, prunes
every hidden layer with both strategies, and measures the weighted relative
reconstruction error at the final response layer. Layer-local ranking never
sees which units downstream layers read, so its error should pull further
ahead of the propagated plan as the nets get deeper.
"""

import argparse
import csv
import sys

import numpy as np

from nisprune import engine
from nisprune.model import Layer, Network
from nisprune.propagation import PruneConfig, nisp_backward
from nisprune.ranking import build_affinity, inffs_scores
from nisprune.surgery import apply_plan, lbl_plan
from nisprune.analysis import ware_of_responses


def uneven_layer(rng, out_dim, in_dim, activation, sigma, scale=1.0, shift=0.0):
    # every unit reads three random inputs through a log-normal gain; a few
    # units end up carrying most of the outgoing signal
    w = np.zeros((out_dim, in_dim))
    for u in range(out_dim):
        gain = np.exp(sigma * rng.standard_normal())
        cols = rng.choice(in_dim, size=min(3, in_dim), replace=False)
        w[u, cols] = scale * gain * rng.standard_normal(len(cols)) / np.sqrt(len(cols))
    return Layer(kind="Dense", weights=w,
                 bias=shift + 0.1 * rng.standard_normal(out_dim), activation=activation)


def uneven_net(rng, depth, width, dim, n_out, sigma):
    widths = [dim] + [width] * depth + [n_out]
    layers = []
    for i in range(len(widths) - 1):
        if i == len(widths) - 2:
            layers.append(uneven_layer(rng, widths[i + 1], widths[i], "Identity", 0.3))
        elif i == len(widths) - 3:
            # positive bias keeps sigmoid responses away from zero so the
            # relative error is not dominated by a single tiny denominator
            layers.append(uneven_layer(rng, widths[i + 1], widths[i], "Sigmoid", 0.8, 1.0, 1.0))
        else:
            layers.append(uneven_layer(rng, widths[i + 1], widths[i], "Tanh", sigma))
    return Network(layers=tuple(layers), frl_index=len(layers) - 2)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depths", type=int, nargs="+", default=[2, 4, 6])
    ap.add_argument("--keeps", type=float, nargs="+", default=[0.25, 0.5])
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--width", type=int, default=16)
    ap.add_argument("--dim", type=int, default=10)
    ap.add_argument("--outputs", type=int, default=4)
    ap.add_argument("--sigma", type=float, default=1.0, help="log-normal gain spread")
    ap.add_argument("--samples", type=int, default=60)
    ap.add_argument("--alpha", type=float, default=0.5)
    ap.add_argument("--seed-base", type=int, default=7777)
    ap.add_argument("--out", default=None, help="write raw rows to this CSV")
    args = ap.parse_args(argv)

    # One forward and one ranking of each (depth, seed) net serve every keep
    # fraction.
    cases = {}
    for depth in args.depths:
        for seed in range(args.seeds):
            rng = np.random.default_rng(args.seed_base * depth + seed)
            net = uneven_net(rng, depth, args.width, args.dim, args.outputs, args.sigma)
            xs = rng.standard_normal((args.samples, args.dim))
            trace = engine.batch_forward(net, xs, 0, net.frl_index)
            resp = engine.flatten_responses(trace[-1])
            cases[depth, seed] = net, xs, trace, resp, inffs_scores(build_affinity(resp, args.alpha))

    rows = []
    for keep in args.keeps:
        print("keep fraction %.2f" % keep)
        for depth in args.depths:
            wins = 0
            gap_sum = 0.0
            for seed in range(args.seeds):
                net, xs, trace, resp, s_n = cases[depth, seed]
                cfg = PruneConfig(ratios={i: keep for i in range(depth)})
                guided = nisp_backward(net, s_n, cfg)
                local = lbl_plan(net, trace, cfg, alpha=args.alpha)
                w_g, w_l = [
                    ware_of_responses(resp, engine.batch_responses(apply_plan(net, plan)[0], xs, net.frl_index),
                                      s_n, plan.mask(net.frl_index))
                    for plan in (guided, local)
                ]
                wins += w_g <= w_l
                gap_sum += w_l - w_g
                rows.append({"keep": keep, "depth": depth, "seed": seed,
                             "ware_propagated": w_g, "ware_layer_local": w_l})
            print("  depth %d: propagated wins %d/%d, mean gap %.4f"
                  % (depth, wins, args.seeds, gap_sum / args.seeds))

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print("wrote %d rows to %s" % (len(rows), args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
