"""Command-line wiring: rank, prune, compare, verify.

Every command reads a model JSON plus a dataset CSV, computes everything it
needs up front, then writes its outputs through atomic renames, so a failed
run never leaves partial files behind. Outputs land in the directory given
by --out.

Exit codes: 0 success, 2 usage or configuration error, 3 unreadable or
inconsistent model/data files, 4 anything else.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import analysis, engine, ranking, surgery, trainer
from .datasets import load_dataset
from .errors import ConfigError, DataError, ModelFormatError, ShapeError
from .model import (
    Network,
    atomic_write_bytes,
    atomic_write_text,
    canonical_json,
    prunable_layer_ids,
    read_model,
    save_model,
)
from .propagation import ImportancePlan, PruneConfig, keep_count, plan_to_json

STRATEGIES = ("nisp", "nisp-mag", "lbl", "random", "scratch")
_BATCH_SIZE = 32


def _parse_ratio(text: str):
    try:
        layer_text, frac_text = text.split("=", 1)
        return int(layer_text), float(frac_text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected layerid=fraction, got %r" % text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nisprune",
        description="Importance-propagated pruning of small feed-forward networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=True):
        p.add_argument("--model", required=True, help="model JSON path")
        p.add_argument("--data", required=True, help="dataset CSV path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--alpha", type=float, default=0.5, help="affinity mixing weight")
        if seeded:
            p.add_argument("--seed", type=int, action="append", dest="seeds",
                           help="rng seed (repeatable for compare)")

    p_rank = sub.add_parser("rank", help="score the final response layer")
    common(p_rank, seeded=False)
    p_rank.add_argument("--pca-threshold", type=float, default=None,
                        help="also print per-layer component counts at this energy level")
    p_rank.set_defaults(func=cmd_rank)

    def ratio_flags(p):
        p.add_argument("--ratio-all", type=float, default=None,
                       help="keep fraction for every prunable layer (skip sources inherit)")
        p.add_argument("--ratio", type=_parse_ratio, action="append", default=None,
                       metavar="LAYER=FRAC", help="keep fraction for one layer (repeatable)")

    p_prune = sub.add_parser("prune", help="build a plan and apply it")
    common(p_prune)
    ratio_flags(p_prune)
    p_prune.add_argument("--strategy", choices=STRATEGIES, default="nisp")
    p_prune.set_defaults(func=cmd_prune)

    p_cmp = sub.add_parser("compare", help="prune with several strategies and fine-tune")
    common(p_cmp)
    ratio_flags(p_cmp)
    p_cmp.add_argument("--strategy", choices=STRATEGIES, action="append", dest="strategies",
                       help="strategy to include (repeatable; default: all)")
    p_cmp.add_argument("--epochs", type=int, default=10)
    p_cmp.add_argument("--lr", type=float, default=0.1, dest="learning_rate",
                       help="full learning rate; fine-tuning uses a tenth")
    p_cmp.set_defaults(func=cmd_compare)

    p_ver = sub.add_parser("verify", help="fuzz the pruning error bound at one layer")
    common(p_ver)
    p_ver.add_argument("--layer", type=int, required=True)
    p_ver.add_argument("--ratio-all", type=float, default=0.5, help="keep fraction for the trial masks")
    p_ver.add_argument("--trials", type=int, default=100)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def _config_from_args(args):
    """Finish the parsed namespace, which is every command's config, with the
    checks and defaults argparse cannot express; raises ConfigError."""
    seeds = getattr(args, "seeds", None) or []
    if args.command in ("prune", "verify") and len(seeds) > 1:
        raise ConfigError("%s takes one --seed, got %d" % (args.command, len(seeds)))
    layers = [layer_id for layer_id, _ in getattr(args, "ratio", None) or ()]
    for flag, values in (("--seed", seeds), ("--ratio", layers)):
        repeated = [v for v in values if values.count(v) > 1]
        if repeated:
            raise ConfigError("%s %d is given more than once" % (flag, repeated[0]))
    if any(seed < 0 for seed in seeds):
        raise ConfigError("--seed must be non-negative, got %d" % min(seeds))
    args.seeds = tuple(seeds) or (0,)
    if args.command == "compare":
        args.strategies = tuple(dict.fromkeys(args.strategies or STRATEGIES))
    return args


def _prune_config(net: Network, args) -> PruneConfig:
    """Expand --ratio-all over the prunable layers, minus skip sources."""
    sources = {src for src, _ in net.skip_edges}
    ratios = {}
    if args.ratio_all is not None:
        ratios = {i: args.ratio_all for i in prunable_layer_ids(net) if i not in sources}
    for layer_id, frac in args.ratio or ():
        ratios[layer_id] = frac
    return PruneConfig(ratios=ratios)


def _build_plan(net, trace, pc, strategy, alpha, seed) -> ImportancePlan:
    """``trace`` reaches the FRL (see ``ranking.layer_scores``); only nisp and lbl read it."""
    if strategy == "nisp":
        return surgery.nisp_plan(net, trace, pc, alpha)
    if strategy == "nisp-mag":
        return surgery.magnitude_plan(net, pc)
    if strategy == "lbl":
        return surgery.lbl_plan(net, trace, pc, alpha)
    if strategy == "random":
        return surgery.random_plan(net, pc, seed)
    raise ConfigError("strategy %r does not produce a pruning plan" % strategy)


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def cmd_rank(args) -> None:
    net, data = read_model(args.model), load_dataset(args.data)
    # One forward serves the FRL ranking and the per-layer PCA.
    trace = engine.batch_forward(net, data.inputs, 0, net.frl_index)
    scores = ranking.layer_scores(trace, net.frl_index, args.alpha)
    lines = ["neuron_index,score"]
    for i in np.argsort(-scores, kind="stable"):
        lines.append("%d,%s" % (i, repr(float(scores[i]))))
    if args.pca_threshold is not None:
        for layer_id in range(net.frl_index + 1):
            resp = engine.flatten_responses(trace[layer_id + 1])
            energy = analysis.pca_energy(resp, args.pca_threshold)
            note = " (degenerate)" if energy.degenerate else ""
            print("layer %d: %d of %d components reach %g energy%s"
                  % (layer_id, energy.n_components, resp.shape[1], args.pca_threshold, note))
    atomic_write_text(_out_path(args, "ranking.csv"), "\n".join(lines) + "\n")


def cmd_prune(args) -> None:
    net, data = read_model(args.model), load_dataset(args.data)
    if args.strategy == "scratch":
        raise ConfigError("scratch training has no pruning plan; use it with compare")
    pc = _prune_config(net, args)
    trace = None
    if args.strategy in ("nisp", "lbl"):
        trace = engine.batch_forward(net, data.inputs, 0, net.frl_index)
    plan = _build_plan(net, trace, pc, args.strategy, args.alpha, args.seeds[0])
    del trace
    pruned, report = surgery.apply_plan(net, plan)
    model_bytes = save_model(pruned)
    plan_bytes = plan_to_json(plan)
    report_text = report.to_csv()
    atomic_write_bytes(_out_path(args, "pruned_model.json"), model_bytes)
    atomic_write_bytes(_out_path(args, "plan.json"), plan_bytes)
    atomic_write_text(_out_path(args, "surgery.csv"), report_text)


def cmd_compare(args) -> None:
    net, data = read_model(args.model), load_dataset(args.data)
    if data.labels is None:
        raise DataError("compare needs labeled data")
    trainer.check_trainable(net)
    pc = _prune_config(net, args)
    frl = net.frl_index
    # One trace of the original net feeds the nisp and lbl rankings, every
    # row's ware and every row's top-1 agreement.
    trace = engine.batch_forward(net, data.inputs)
    orig_frl = engine.flatten_responses(trace[frl + 1])
    orig_out = engine.flatten_responses(trace[-1])

    rows = []
    for strategy in args.strategies:
        # Only random and scratch draw from the seed; the other plans are
        # built once for every seed.
        shared = None
        if strategy not in ("random", "scratch"):
            shared = _build_plan(net, trace, pc, strategy, args.alpha, None)
        for seed in args.seeds:
            train_cfg = trainer.TrainConfig(
                learning_rate=args.learning_rate, epochs=args.epochs,
                batch_size=_BATCH_SIZE, seed=seed,
            )
            if strategy == "scratch":
                plan = surgery.random_plan(net, pc, seed)
                skeleton, _ = surgery.apply_plan(net, plan)
                pruned = trainer.reinit(skeleton, seed)
                tuned, _ = trainer.train(pruned, data, train_cfg)
            else:
                plan = shared or _build_plan(net, trace, pc, strategy, args.alpha, seed)
                pruned, _ = surgery.apply_plan(net, plan)
                tuned, _ = trainer.finetune(pruned, data, train_cfg)
            # One forward per net serves every metric of the row.
            pruned_trace = engine.batch_forward(pruned, data.inputs)
            tuned_out = engine.batch_responses(tuned, data.inputs, len(tuned.layers) - 1)
            rows.append((
                strategy,
                seed,
                engine.output_accuracy(engine.flatten_responses(pruned_trace[-1]), data.labels),
                engine.output_accuracy(tuned_out, data.labels),
                analysis.ware_of_responses(orig_frl, engine.flatten_responses(pruned_trace[frl + 1]),
                                           plan.scores(frl), plan.mask(frl)),
                analysis.count_cost(pruned, reference=net).flops_reduction_pct,
                engine.output_agreement(orig_out, tuned_out),
            ))
            del pruned_trace, tuned_out

    rows.sort(key=lambda row: (row[0], row[1]))
    lines = ["strategy,seed,pre_finetune_accuracy,post_finetune_accuracy,ware,flops_reduction_pct,top1_agreement"]
    for strategy, seed, pre, post, ware_val, flops, agree in rows:
        lines.append("%s,%d,%s,%s,%s,%s,%s" % (
            strategy, seed, repr(float(pre)), repr(float(post)),
            repr(float(ware_val)), repr(float(flops)), repr(float(agree)),
        ))
    atomic_write_text(_out_path(args, "comparison.csv"), "\n".join(lines) + "\n")


def cmd_verify(args) -> None:
    net, data = read_model(args.model), load_dataset(args.data)
    if args.trials < 0:
        raise ConfigError("trials must be non-negative")
    fraction = args.ratio_all
    # One forward serves the FRL ranking and the bound context, which checks
    # the layer and pays the mask-independent work once for every trial.
    trace = engine.batch_forward(net, data.inputs, 0, net.frl_index)
    s_n = ranking.layer_scores(trace, net.frl_index, args.alpha)
    bound = analysis.BoundContext(net, trace, s_n, args.layer)
    del trace
    width = bound.width
    keep = keep_count(width, fraction)

    rng = np.random.default_rng(args.seeds[0])
    results = []
    violations = 0
    ratios = []
    for trial in range(args.trials):
        mask = np.zeros(width)
        mask[rng.permutation(width)[:keep]] = 1.0
        report = bound.check(mask)
        slack = report.rhs / report.lhs if report.lhs > 0 else None
        if slack is not None:
            ratios.append(slack)
        if not report.holds:
            violations += 1
        results.append({
            "trial": trial,
            "lhs": report.lhs,
            "rhs": report.rhs,
            "holds": report.holds,
            "slack_ratio": slack,
        })

    doc = {
        "layer_id": args.layer,
        "trials": args.trials,
        "keep_fraction": fraction,
        "violations": violations,
        "slack_ratio_min": min(ratios) if ratios else None,
        "slack_ratio_median": float(np.median(ratios)) if ratios else None,
        "slack_ratio_max": max(ratios) if ratios else None,
        "results": results,
    }
    atomic_write_bytes(_out_path(args, "bound_report.json"), canonical_json(doc))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_info:
        return int(exit_info.code or 0)
    try:
        # Overflow and invalid values surface as each command's own error.
        with np.errstate(all="ignore"):
            args.func(_config_from_args(args))
    except ConfigError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except (ModelFormatError, ShapeError, DataError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 3
    except Exception as err:  # noqa: BLE001 - last-resort mapping to an exit code
        print("internal error: %s" % err, file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
