"""Output checks for each benchmark command; run outside the timed sections.

Each check raises ``CheckFailed`` with a reason, or returns a dict of facts
worth reporting: for ``compare`` the quality figures of the nisp row, for
``prune`` on how many samples the pruned FRL differs from the original with
its dropped units zeroed rather than removed (see ``_masked_trace``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import replace

import numpy as np

from nisprune import engine, model, surgery
from nisprune.propagation import keep_count, plan_from_json

KEEP = 0.5
STRATEGIES = ("nisp", "nisp-mag", "lbl", "random", "scratch")


class CheckFailed(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def sha256_files(out_dir: str) -> dict:
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _frl_width(net) -> int:
    return model.shape_size(model.output_shapes(net)[net.frl_index])


def check_rank(out_dir, net, data, argv):
    with open(os.path.join(out_dir, "ranking.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == ["neuron_index", "score"], "ranking.csv has a wrong header")
    indices = [int(r[0]) for r in rows[1:]]
    scores = [float(r[1]) for r in rows[1:]]
    _require(sorted(indices) == list(range(_frl_width(net))), "ranking.csv is not a permutation of the FRL")
    _require(all(math.isfinite(s) and s >= 0.0 for s in scores), "ranking.csv has a negative or non-finite score")
    _require(all(a >= b for a, b in zip(scores, scores[1:])), "ranking.csv scores are not descending")
    return {}


def _masked_trace(net, masks, x, remove_lrn_channels):
    """Original net up to the FRL with every layer's dropped units zeroed.

    With ``remove_lrn_channels`` an LRN layer normalises each kept channel
    over its kept neighbours only, as it does once surgery has removed the
    dropped channels. Zeroing a channel is not the same as removing it when
    the LRN window spans the gap it leaves; the package's own masked-forward
    tests leave LRN out for that reason.
    """
    trace, value = [], x
    for layer, mask in zip(net.layers[: net.frl_index + 1], masks):
        if layer.kind == "LRN" and remove_lrn_channels:
            kept = np.flatnonzero(mask.reshape(value.shape[0], -1).any(axis=1))
            geometry = replace(layer.geometry, c_in=len(kept), c_out=len(kept))
            out = np.zeros_like(value)
            out[kept] = engine.layer_forward(replace(layer, geometry=geometry), value[kept])
        else:
            out = engine.layer_forward(layer, value)
        value = (out.ravel() * mask).reshape(out.shape)
        trace.append(value.ravel())
    return trace


def _plain_trace(net, x):
    trace, value = [], x
    for layer in net.layers[: net.frl_index + 1]:
        value = engine.layer_forward(layer, value)
        trace.append(value.ravel())
    return trace


def check_prune(out_dir, net, data, argv):
    pruned = model.read_model(os.path.join(out_dir, "pruned_model.json"))
    report = model.validate(pruned)
    _require(report.ok, "pruned model fails validation: %r" % (report.violations,))
    for layer_id in model.prunable_layer_ids(net):
        layer, new = net.layers[layer_id], pruned.layers[layer_id]
        if layer.kind == "Conv2D":
            width, kept = layer.geometry.c_out, new.geometry.c_out
        else:
            width, kept = layer.weights.shape[0], new.weights.shape[0]
        _require(kept == keep_count(width, KEEP),
                 "layer %d keeps %d of %d, expected %d" % (layer_id, kept, width, keep_count(width, KEEP)))

    with open(os.path.join(out_dir, "plan.json"), "rb") as fh:
        plan = plan_from_json(fh.read())
    masks = surgery.effective_masks(net, plan)
    kept = [np.flatnonzero(m) for m in masks]
    frl = net.frl_index
    has_lrn = any(layer.kind == "LRN" for layer in net.layers[: frl + 1])
    mismatched, first_layer, zeroed_differs = 0, None, 0
    for x in data.inputs:
        got, zeroed = _plain_trace(pruned, x), _masked_trace(net, masks, x, False)
        want = _masked_trace(net, masks, x, True) if has_lrn else zeroed
        if not np.array_equal(want[frl][kept[frl]], got[frl]):
            mismatched += 1
            if first_layer is None:
                first_layer = next(i for i in range(frl + 1) if not np.array_equal(want[i][kept[i]], got[i]))
        zeroed_differs += not np.array_equal(zeroed[frl][kept[frl]], got[frl])
    if mismatched:
        raise CheckFailed("pruned FRL differs from the original with the dropped units removed on %d of %d "
                          "samples; the first layer to differ is %d (%s)"
                          % (mismatched, len(data.inputs), first_layer, net.layers[first_layer].kind))
    strategy = argv[argv.index("--strategy") + 1] if "--strategy" in argv else "nisp"
    return {"frl_differs_from_zeroed_%s" % strategy: "%d/%d" % (zeroed_differs, len(data.inputs))}


def check_verify(out_dir, net, data, argv):
    with open(os.path.join(out_dir, "bound_report.json")) as fh:
        doc = json.load(fh)
    trials = int(argv[argv.index("--trials") + 1])
    _require(doc["trials"] == trials and len(doc["results"]) == trials, "bound_report.json lost trials")
    _require(doc["violations"] == 0, "bound violated in %d trials" % doc["violations"])
    return {}


def check_compare(out_dir, net, data, argv):
    with open(os.path.join(out_dir, "comparison.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    seeds = [int(argv[i + 1]) for i, a in enumerate(argv) if a == "--seed"]
    want = sorted((s, seed) for s in STRATEGIES for seed in seeds)
    _require(sorted((r["strategy"], int(r["seed"])) for r in rows) == want,
             "comparison.csv does not hold one row per strategy and seed")
    nisp = [r for r in rows if r["strategy"] == "nisp"]
    return {
        "ware_nisp": float(np.median([float(r["ware"]) for r in nisp])),
        "acc_post_nisp": float(np.median([float(r["post_finetune_accuracy"]) for r in nisp])),
    }


CHECKS = {
    "rank": check_rank,
    "prune": check_prune,
    "prune_lbl": check_prune,
    "verify": check_verify,
    "compare": check_compare,
}
