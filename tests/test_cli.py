import copy
import csv
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import factories
import oracles
from nisprune import cli, engine, ranking
from nisprune.analysis import verify_bound
from nisprune.datasets import Dataset, manifest_path_for, save_dataset
from nisprune.errors import ConfigError
from nisprune.model import (
    ACTIVATION_KINDS,
    KINDS,
    POOL_MODES,
    Geometry,
    Layer,
    Network,
    load_model,
    prunable_layer_ids,
    read_model,
    save_model,
    write_model,
)
from nisprune.propagation import PruneConfig, keep_count, plan_from_json
from nisprune.surgery import nisp_plan
from nisprune.trainer import SynthSpec, TrainConfig, make_mlp, synth_dataset, train


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(123)
    net = make_mlp([4, 8, 6, 3], seed=7)
    data = synth_dataset(SynthSpec(n_classes=3, dim=4, samples_per_class=20, cluster_spread=0.4, seed=5))
    model_path = str(tmp_path / "model.json")
    data_path = str(tmp_path / "data.csv")
    write_model(net, model_path)
    save_dataset(data, data_path)
    out = str(tmp_path / "out")
    return {"net": net, "data": data, "model": model_path, "csv": data_path, "out": out, "tmp": tmp_path}


def run(args):
    return cli.main(args)


# --- rank ------------------------------------------------------------------------

def test_rank_writes_sorted_csv(workspace):
    code = run(["rank", "--model", workspace["model"], "--data", workspace["csv"], "--out", workspace["out"]])
    assert code == 0
    path = os.path.join(workspace["out"], "ranking.csv")
    with open(path) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "neuron_index,score"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6  # frl width
    scores = [float(r[1]) for r in rows]
    assert scores == sorted(scores, reverse=True)
    indices = sorted(int(r[0]) for r in rows)
    assert indices == list(range(6))


def test_rank_missing_file_exits_3_without_output(workspace):
    code = run(["rank", "--model", str(workspace["tmp"] / "nope.json"), "--data", workspace["csv"],
                "--out", workspace["out"]])
    assert code == 3
    assert not os.path.exists(os.path.join(workspace["out"], "ranking.csv"))


def test_rank_alpha_out_of_range_exits_2(workspace):
    code = run(["rank", "--model", workspace["model"], "--data", workspace["csv"],
                "--out", workspace["out"], "--alpha", "1.5"])
    assert code == 2


def test_rank_pca_guidance_prints(workspace, capsys):
    code = run(["rank", "--model", workspace["model"], "--data", workspace["csv"],
                "--out", workspace["out"], "--pca-threshold", "0.9"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "components" in printed
    assert printed.count("layer") >= 2


def test_rank_pca_threshold_runs_one_forward(workspace, monkeypatch):
    calls = []
    real = engine.batch_forward

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "batch_forward", counting)
    code = run(["rank", "--model", workspace["model"], "--data", workspace["csv"],
                "--out", workspace["out"], "--pca-threshold", "0.9"])
    assert code == 0
    assert len(calls) == 1


# --- prune -----------------------------------------------------------------------

def test_prune_keep_all_reproduces_the_model(workspace):
    code = run(["prune", "--model", workspace["model"], "--data", workspace["csv"],
                "--out", workspace["out"], "--ratio-all", "1.0"])
    assert code == 0
    with open(workspace["model"], "rb") as fh:
        original = fh.read()
    with open(os.path.join(workspace["out"], "pruned_model.json"), "rb") as fh:
        pruned = fh.read()
    assert pruned == original


def test_prune_outputs_parse_and_report_matches(workspace):
    code = run(["prune", "--model", workspace["model"], "--data", workspace["csv"],
                "--out", workspace["out"], "--ratio", "0=0.5", "--ratio", "1=0.5"])
    assert code == 0
    pruned = read_model(os.path.join(workspace["out"], "pruned_model.json"))
    assert pruned.layers[0].weights.shape[0] == 4
    assert pruned.layers[1].weights.shape[0] == 3

    with open(os.path.join(workspace["out"], "plan.json"), "rb") as fh:
        plan = plan_from_json(fh.read())
    assert sorted(plan.entries) == [0, 1]
    assert plan.mask(0).sum() == 4
    assert plan.mask(1).sum() == 3

    with open(os.path.join(workspace["out"], "surgery.csv")) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "layer_id,kept,removed,params_before,params_after"
    assert len(lines) == 4


def test_prune_nisp_matches_library_plan(workspace):
    code = run(["prune", "--model", workspace["model"], "--data", workspace["csv"],
                "--out", workspace["out"], "--strategy", "nisp", "--ratio-all", "0.5"])
    assert code == 0
    with open(os.path.join(workspace["out"], "plan.json"), "rb") as fh:
        got = plan_from_json(fh.read())
    net = workspace["net"]
    trace = engine.batch_forward(net, workspace["data"].inputs, 0, net.frl_index)
    want = nisp_plan(net, trace, PruneConfig(ratios={0: 0.5, 1: 0.5}))
    for layer_id in want.entries:
        assert np.array_equal(got.mask(layer_id), want.mask(layer_id))
        assert got.scores(layer_id) == pytest.approx(want.scores(layer_id))


def test_prune_random_is_seed_deterministic(workspace):
    out_a = str(workspace["tmp"] / "a")
    out_b = str(workspace["tmp"] / "b")
    for out in (out_a, out_b):
        code = run(["prune", "--model", workspace["model"], "--data", workspace["csv"],
                    "--out", out, "--strategy", "random", "--ratio-all", "0.5", "--seed", "42"])
        assert code == 0
    for name in ("pruned_model.json", "plan.json", "surgery.csv"):
        with open(os.path.join(out_a, name), "rb") as fh:
            a = fh.read()
        with open(os.path.join(out_b, name), "rb") as fh:
            b = fh.read()
        assert a == b


def test_prune_rejects_scratch_and_bad_ratios(workspace):
    code = run(["prune", "--model", workspace["model"], "--data", workspace["csv"],
                "--out", workspace["out"], "--strategy", "scratch"])
    assert code == 2
    code = run(["prune", "--model", workspace["model"], "--data", workspace["csv"],
                "--out", workspace["out"], "--ratio", "0=1.5"])
    assert code == 2
    code = run(["prune", "--model", workspace["model"], "--data", workspace["csv"],
                "--out", workspace["out"], "--ratio", "banana"])
    assert code == 2


def test_prune_ratio_overrides_global(workspace):
    code = run(["prune", "--model", workspace["model"], "--data", workspace["csv"],
                "--out", workspace["out"], "--ratio-all", "1.0", "--ratio", "0=0.25"])
    assert code == 0
    pruned = read_model(os.path.join(workspace["out"], "pruned_model.json"))
    assert pruned.layers[0].weights.shape[0] == 2
    assert pruned.layers[1].weights.shape[0] == 6


@pytest.mark.parametrize("strategy", ["nisp", "lbl", "random"])
def test_prune_skip_source_with_conflicting_merges_exits_2(tmp_path, strategy):
    # Layer 0 feeds merges 2 and 3; pruning only 2 asks layer 0 for two
    # different masks, which every strategy rejects as a config error.
    rng = np.random.default_rng(31)
    layers = tuple(factories.dense_layer(rng, 4, 4, activation="ReLU") for _ in range(4))
    net = Network(layers=layers + (factories.dense_layer(rng, 3, 4),), frl_index=3, skip_edges=((0, 2), (0, 3)))
    model_path = str(tmp_path / "skip.json")
    write_model(net, model_path)
    data_path = str(tmp_path / "skip.csv")
    save_dataset(Dataset(inputs=rng.standard_normal((12, 4))), data_path)
    out = str(tmp_path / "out")
    code = run(["prune", "--model", model_path, "--data", data_path, "--out", out,
                "--strategy", strategy, "--ratio", "2=0.5"])
    assert code == 2
    assert not os.path.exists(out) or os.listdir(out) == []


@pytest.mark.parametrize("strategy", ["nisp", "lbl", "random"])
def test_prune_skip_source_under_activation_merge_takes_dense_mask(tmp_path, strategy):
    # Layer 0 feeds a dense merge (2) and an activation merge (3). Only the
    # dense merge forces its mask; the activation inherits that same mask
    # in surgery, so the plan is consistent and the prune succeeds.
    rng = np.random.default_rng(37)
    layers = tuple(factories.dense_layer(rng, 4, 4, activation="ReLU") for _ in range(3))
    layers += (Layer(kind="Activation", activation="Tanh"), factories.dense_layer(rng, 4, 4),
               factories.dense_layer(rng, 3, 4))
    net = Network(layers=layers, frl_index=4, skip_edges=((0, 2), (0, 3)))
    model_path = str(tmp_path / "skip.json")
    write_model(net, model_path)
    data_path = str(tmp_path / "skip.csv")
    save_dataset(Dataset(inputs=rng.standard_normal((12, 4))), data_path)
    out = str(tmp_path / "out")
    code = run(["prune", "--model", model_path, "--data", data_path, "--out", out,
                "--strategy", strategy, "--ratio", "2=0.5"])
    assert code == 0
    with open(os.path.join(out, "plan.json"), "rb") as fh:
        plan = plan_from_json(fh.read())
    assert plan.entries[2].mask.sum() == 2
    assert np.array_equal(plan.entries[0].mask, plan.entries[2].mask)
    pruned = read_model(os.path.join(out, "pruned_model.json"))
    assert pruned.layers[0].weights.shape[0] == 2
    assert pruned.layers[2].weights.shape[0] == 2


@pytest.mark.parametrize("strategy", ["nisp", "lbl", "random"])
def test_prune_pruned_layer_under_shape_preserving_merge_exits_2(tmp_path, strategy):
    # Layer 2 owns no neurons and takes layer 1's mask in surgery, while its
    # skip source, layer 0, keeps everything. Pruning layer 1 would join a
    # 2-unit response to a 4-unit one, which planning rejects; keeping all of
    # layer 1 stays accepted.
    rng = np.random.default_rng(41)
    data_path = str(tmp_path / "skip.csv")
    save_dataset(Dataset(inputs=rng.standard_normal((12, 4))), data_path)
    for merge in (Layer(kind="Activation", activation="Tanh"), factories.batchnorm_layer(rng, 4)):
        layers = (factories.dense_layer(rng, 4, 4, activation="ReLU"),
                  factories.dense_layer(rng, 4, 4, activation="ReLU"), merge,
                  factories.dense_layer(rng, 4, 4), factories.dense_layer(rng, 3, 4))
        net = Network(layers=layers, frl_index=3, skip_edges=((0, 2),))
        model_path = str(tmp_path / ("skip_%s.json" % merge.kind))
        write_model(net, model_path)
        out = str(tmp_path / ("out_%s" % merge.kind))
        args = ["prune", "--model", model_path, "--data", data_path, "--strategy", strategy]
        assert run(args + ["--out", out, "--ratio", "1=0.5"]) == 2
        assert not os.path.exists(out) or os.listdir(out) == []
        assert run(args + ["--out", out, "--ratio", "1=1.0"]) == 0


@pytest.mark.parametrize("command", [
    ["prune", "--strategy", "random", "--ratio-all", "0.5"],
    ["verify", "--layer", "0", "--trials", "2"],
], ids=["prune", "verify"])
def test_repeated_seed_exits_2_without_output(workspace, command):
    code = run(command + ["--model", workspace["model"], "--data", workspace["csv"],
                          "--out", workspace["out"], "--seed", "1", "--seed", "2"])
    assert code == 2
    assert not os.path.exists(workspace["out"])
    assert run(command + ["--model", workspace["model"], "--data", workspace["csv"],
                          "--out", workspace["out"], "--seed", "1"]) == 0


def test_rank_rejects_any_seed(workspace):
    base = ["rank", "--model", workspace["model"], "--data", workspace["csv"], "--out", workspace["out"]]
    for seeds in (["--seed", "1"], ["--seed", "1", "--seed", "2"]):
        assert run(base + seeds) == 2
        assert not os.path.exists(workspace["out"])
    assert run(base) == 0


def test_compare_rejects_a_repeated_seed(workspace):
    base = ["compare", "--model", workspace["model"], "--data", workspace["csv"], "--out", workspace["out"],
            "--strategy", "random", "--epochs", "0"]
    assert run(base + ["--seed", "1", "--seed", "2", "--seed", "1"]) == 2
    assert not os.path.exists(workspace["out"])
    assert run(base + ["--seed", "1", "--seed", "2"]) == 0


@pytest.mark.parametrize("command", [
    ["prune", "--strategy", "random", "--seed", "-5"],
    ["prune", "--seed", "-1"],
    ["verify", "--layer", "0", "--trials", "2", "--seed", "-5"],
    ["compare", "--strategy", "random", "--epochs", "0", "--seed", "1", "--seed", "-1"],
], ids=["prune-random", "prune-nisp", "verify", "compare"])
def test_negative_seed_exits_2_without_output(workspace, capsys, command):
    code = run(command + ["--model", workspace["model"], "--data", workspace["csv"], "--out", workspace["out"]])
    assert code == 2
    assert "--seed must be non-negative" in capsys.readouterr().err
    assert not os.path.exists(workspace["out"])


def test_prune_rejects_a_repeated_ratio_layer(workspace, capsys):
    base = ["prune", "--model", workspace["model"], "--data", workspace["csv"], "--out", workspace["out"]]
    assert run(base + ["--ratio", "0=0.5", "--ratio", "0=0.25"]) == 2
    assert "--ratio 0 is given more than once" in capsys.readouterr().err
    assert not os.path.exists(workspace["out"])
    # --ratio after --ratio-all still overrides it for one layer.
    assert run(base + ["--ratio-all", "0.25", "--ratio", "0=0.5"]) == 0
    pruned = read_model(os.path.join(workspace["out"], "pruned_model.json"))
    assert [layer.weights.shape[0] for layer in pruned.layers] == [4, 2, 3]


@pytest.mark.parametrize("lr", ["nan", "inf", "1e308"])
def test_compare_rejects_a_non_finite_or_diverging_learning_rate(workspace, capsys, lr):
    code = run(["compare", "--model", workspace["model"], "--data", workspace["csv"], "--out", workspace["out"],
                "--strategy", "nisp", "--epochs", "1", "--seed", "0", "--lr", lr])
    assert code == 2
    assert "learning" in capsys.readouterr().err
    assert not os.path.exists(workspace["out"])


def _cli_process(argv):
    """``nisprune.cli`` in its own interpreter: in process, pytest would
    catch numpy's warnings before they reach stderr."""
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "nisprune.cli"] + argv, env=env, capture_output=True, text=True)


def test_overflow_prints_only_the_error_line(workspace):
    base = ["--data", workspace["csv"], "--out", workspace["out"]]
    done = _cli_process(["compare", "--model", workspace["model"], "--strategy", "nisp",
                         "--epochs", "1", "--lr", "1e308"] + base)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: training diverged to non-finite weights; lower the learning rate\n"

    # Responses near 1e300 overflow the affinity graph's products.
    huge = np.array([[1e300, 2e299, -3e299, 1e299], [3e299, -1e300, 2e299, 1e300], [1e299, 1e300, 1e300, -2e299]])
    net = Network(layers=(Layer(kind="Dense", weights=huge, bias=np.zeros(3)),
                          factories.dense_layer(np.random.default_rng(0), 2, 3)), frl_index=0)
    model_path = str(workspace["tmp"] / "huge.json")
    write_model(net, model_path)
    done = _cli_process(["rank", "--model", model_path] + base)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == "error: responses are too large to rank: their affinity graph overflows\n"
    assert not os.path.exists(workspace["out"])


def test_verify_on_a_wide_conv_tail(tmp_path):
    # As an explicit matrix, the propagation of r through layer 1 would take 34 GB.
    rng = np.random.default_rng(97)
    model, data, out = str(tmp_path / "model.json"), str(tmp_path / "data.csv"), str(tmp_path / "out")
    write_model(factories.wide_conv_net(rng), model)
    save_dataset(Dataset(inputs=rng.standard_normal((2, 1, 32, 32)), labels=None), data)
    assert run(["verify", "--model", model, "--data", data, "--out", out, "--layer", "0", "--trials", "2"]) == 0
    with open(os.path.join(out, "bound_report.json")) as fh:
        report = json.load(fh)
    assert (report["trials"], report["violations"]) == (2, 0)


def test_lbl_on_a_layer_over_the_graph_cap_exits_2(tmp_path, capsys):
    # lbl would rank layer 0's 64 x 32 x 32 features in a 32 GiB graph.
    rng = np.random.default_rng(97)
    model, data, out = str(tmp_path / "model.json"), str(tmp_path / "data.csv"), str(tmp_path / "out")
    write_model(factories.wide_conv_net(rng), model)
    save_dataset(Dataset(inputs=rng.standard_normal((2, 1, 32, 32)), labels=None), data)
    capsys.readouterr()
    argv = ["prune", "--model", model, "--data", data, "--out", out, "--ratio-all", "0.5"]
    assert run(argv + ["--strategy", "lbl"]) == 2
    assert capsys.readouterr().err == (
        "error: layer 0: 65536 features need a 34359738368-byte affinity graph, over the cap of %d; "
        "use --strategy nisp\n" % ranking.MAX_GRAPH_FEATURES)
    assert not os.path.exists(out)
    assert run(argv + ["--strategy", "nisp"]) == 0


def test_rank_of_a_final_response_layer_over_the_graph_cap_exits_3(workspace, capsys):
    rng = np.random.default_rng(5)
    width = ranking.MAX_GRAPH_FEATURES + 1
    net = Network(layers=(factories.dense_layer(rng, width, 4), factories.dense_layer(rng, 2, width)), frl_index=0)
    model_path = str(workspace["tmp"] / "wide.json")
    write_model(net, model_path)
    assert run(["rank", "--model", model_path, "--data", workspace["csv"], "--out", workspace["out"]]) == 3
    assert "error: responses are too wide to rank: %d features" % width in capsys.readouterr().err
    assert not os.path.exists(workspace["out"])


# --- compare -----------------------------------------------------------------------

def test_compare_single_strategy_single_seed(workspace):
    code = run(["compare", "--model", workspace["model"], "--data", workspace["csv"],
                "--out", workspace["out"], "--strategy", "nisp", "--ratio-all", "0.5",
                "--epochs", "2", "--seed", "0"])
    assert code == 0
    with open(os.path.join(workspace["out"], "comparison.csv")) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == ("strategy,seed,pre_finetune_accuracy,post_finetune_accuracy,"
                        "ware,flops_reduction_pct,top1_agreement")
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[0] == "nisp"
    assert row[1] == "0"
    for value in row[2:]:
        assert np.isfinite(float(value))


def test_compare_full_grid_row_count(workspace):
    code = run(["compare", "--model", workspace["model"], "--data", workspace["csv"],
                "--out", workspace["out"], "--ratio-all", "0.5", "--epochs", "1",
                "--seed", "0", "--seed", "1"])
    assert code == 0
    with open(os.path.join(workspace["out"], "comparison.csv")) as fh:
        lines = fh.read().strip().split("\n")
    assert len(lines) == 1 + len(cli.STRATEGIES) * 2
    seen = [tuple(line.split(",")[:2]) for line in lines[1:]]
    assert seen == sorted(seen)
    for line in lines[1:]:
        for value in line.split(",")[2:]:
            assert np.isfinite(float(value))


def test_compare_rejects_conv_models(tmp_path, workspace):
    rng = np.random.default_rng(3)
    conv_net = factories.random_mixed_net(rng, with_lrn=False)
    model_path = str(tmp_path / "conv.json")
    write_model(conv_net, model_path)
    shape = conv_net.layers[0].geometry
    xs = rng.standard_normal((6, shape.c_in, shape.x, shape.x))
    data_path = str(tmp_path / "conv.csv")
    save_dataset(Dataset(inputs=xs, labels=np.zeros(6, dtype=int)), data_path)
    code = run(["compare", "--model", model_path, "--data", data_path,
                "--out", str(tmp_path / "out"), "--epochs", "1"])
    assert code == 2
    assert not os.path.exists(os.path.join(str(tmp_path / "out"), "comparison.csv"))


def test_compare_requires_labels(workspace):
    unlabeled = str(workspace["tmp"] / "unlabeled.csv")
    save_dataset(Dataset(inputs=workspace["data"].inputs), unlabeled)
    code = run(["compare", "--model", workspace["model"], "--data", unlabeled,
                "--out", workspace["out"], "--epochs", "1"])
    assert code == 3


def _trained_model(tmp_path, dims, hidden_activation, seed, tail=None):
    data = synth_dataset(SynthSpec(n_classes=dims[-1], dim=dims[0], samples_per_class=15,
                                   cluster_spread=0.6, seed=seed))
    net, _ = train(make_mlp(dims, seed=seed, hidden_activation=hidden_activation), data,
                   TrainConfig(learning_rate=0.1, epochs=5, batch_size=16, seed=seed))
    if tail is not None:
        net = Network(layers=net.layers + (Layer(kind="Activation", activation=tail),), frl_index=net.frl_index)
    model_path = str(tmp_path / ("model%d.json" % seed))
    data_path = str(tmp_path / ("data%d.csv" % seed))
    write_model(net, model_path)
    save_dataset(data, data_path)
    return model_path, data_path


@pytest.mark.parametrize("dims, hidden_activation, seed, tail", [
    ([4, 8, 6, 3], "ReLU", 11, None),
    ([5, 10, 8, 6, 4], "Tanh", 12, None),
    ([4, 5, 3], "ReLU", 13, "Sigmoid"),
], ids=["relu-3-layer", "tanh-4-layer", "ends-in-activation-layer"])
def test_compare_csv_matches_per_row_reference(tmp_path, dims, hidden_activation, seed, tail):
    # The last case's output width comes from a dense layer below the last one.
    model_path, data_path = _trained_model(tmp_path, dims, hidden_activation, seed, tail)
    argv = ["compare", "--model", model_path, "--data", data_path, "--out", str(tmp_path / "out"),
            "--ratio-all", "0.5", "--epochs", "2", "--seed", "3", "--seed", "4"]
    assert run(argv) == 0
    with open(os.path.join(str(tmp_path / "out"), "comparison.csv")) as fh:
        got = fh.read()
    want = oracles.compare_csv_reference(cli._config_from_args(cli.build_parser().parse_args(argv)))
    assert got.count("\n") == 1 + len(cli.STRATEGIES) * 2
    assert got == want


def test_compare_rejects_skip_edges_like_the_reference(tmp_path):
    rng = np.random.default_rng(43)
    net = factories.skip_dense_net(rng)
    model_path = str(tmp_path / "skip.json")
    write_model(net, model_path)
    data_path = str(tmp_path / "skip.csv")
    save_dataset(Dataset(inputs=rng.standard_normal((12, 6)), labels=rng.integers(0, 3, 12)), data_path)
    out = str(tmp_path / "out")
    argv = ["compare", "--model", model_path, "--data", data_path, "--out", out, "--epochs", "1",
            "--seed", "0", "--seed", "1"]
    with pytest.raises(ConfigError, match="skip edges"):
        oracles.compare_csv_reference(cli._config_from_args(cli.build_parser().parse_args(argv)))
    assert run(argv) == 2
    assert not os.path.exists(out)


@pytest.mark.parametrize("seeds", [["0"], ["0", "1"]], ids=["one-seed", "two-seeds"])
def test_compare_forwards_each_net_once_and_ranks_once(workspace, monkeypatch, seeds):
    forwards, affinities = [], []
    real_forward, real_affinity = engine.batch_forward, ranking.build_affinity

    def counting_forward(*args, **kwargs):
        forwards.append(args)
        return real_forward(*args, **kwargs)

    def counting_affinity(*args, **kwargs):
        affinities.append(args)
        return real_affinity(*args, **kwargs)

    monkeypatch.setattr(engine, "batch_forward", counting_forward)
    monkeypatch.setattr(ranking, "build_affinity", counting_affinity)
    argv = ["compare", "--model", workspace["model"], "--data", workspace["csv"],
            "--out", workspace["out"], "--ratio-all", "0.5", "--epochs", "1"]
    for seed in seeds:
        argv += ["--seed", seed]
    assert run(argv) == 0
    rows = len(cli.STRATEGIES) * len(seeds)
    # The original net once, then one forward per pruned and per tuned net.
    assert len(forwards) == 1 + 2 * rows
    # nisp ranks the final responses once, lbl every prunable layer once.
    assert len(affinities) == 1 + len(prunable_layer_ids(workspace["net"]))


# --- verify ------------------------------------------------------------------------

def test_verify_zero_trials_empty_report(workspace):
    code = run(["verify", "--model", workspace["model"], "--data", workspace["csv"],
                "--out", workspace["out"], "--layer", "0", "--trials", "0"])
    assert code == 0
    with open(os.path.join(workspace["out"], "bound_report.json")) as fh:
        doc = json.load(fh)
    assert doc["trials"] == 0
    assert doc["results"] == []
    assert doc["violations"] == 0


def test_verify_keep_all_trial_records_zeroes(workspace):
    code = run(["verify", "--model", workspace["model"], "--data", workspace["csv"],
                "--out", workspace["out"], "--layer", "0", "--trials", "3",
                "--ratio-all", "1.0", "--seed", "5"])
    assert code == 0
    with open(os.path.join(workspace["out"], "bound_report.json")) as fh:
        doc = json.load(fh)
    assert doc["violations"] == 0
    for result in doc["results"]:
        assert result["lhs"] == 0.0
        assert result["rhs"] == 0.0
        assert result["holds"]


def test_verify_hundred_trials_no_violations(workspace):
    code = run(["verify", "--model", workspace["model"], "--data", workspace["csv"],
                "--out", workspace["out"], "--layer", "0", "--trials", "100", "--seed", "3"])
    assert code == 0
    with open(os.path.join(workspace["out"], "bound_report.json")) as fh:
        doc = json.load(fh)
    assert doc["trials"] == 100
    assert doc["violations"] == 0
    assert len(doc["results"]) == 100
    assert doc["layer_id"] == 0
    slacks = [r["slack_ratio"] for r in doc["results"] if r["slack_ratio"] is not None]
    if slacks:
        assert doc["slack_ratio_min"] == pytest.approx(min(slacks))
        assert doc["slack_ratio_max"] == pytest.approx(max(slacks))


def test_verify_bad_layer_exits_2(workspace):
    code = run(["verify", "--model", workspace["model"], "--data", workspace["csv"],
                "--out", workspace["out"], "--layer", "5", "--trials", "2"])
    assert code == 2


def test_verify_trials_match_direct_bound_calls(workspace):
    code = run(["verify", "--model", workspace["model"], "--data", workspace["csv"],
                "--out", workspace["out"], "--layer", "0", "--trials", "6", "--seed", "9"])
    assert code == 0
    with open(os.path.join(workspace["out"], "bound_report.json")) as fh:
        doc = json.load(fh)
    net, inputs = workspace["net"], workspace["data"].inputs
    s_n = ranking.inffs_scores(ranking.build_affinity(engine.batch_responses(net, inputs, net.frl_index), 0.5))
    width = net.layers[0].weights.shape[0]
    rng = np.random.default_rng(9)
    for result in doc["results"]:
        mask = np.zeros(width)
        mask[rng.permutation(width)[: keep_count(width, 0.5)]] = 1.0
        report = verify_bound(net, inputs, s_n, mask, 0)
        assert result["lhs"] == report.lhs
        assert result["rhs"] == report.rhs
        assert result["holds"] == report.holds


@pytest.fixture
def conv_workspace(tmp_path):
    # conv -> LRN -> max-pool -> dense FRL -> classifier
    rng = np.random.default_rng(17)
    g = Geometry(x=6, y=6, k=3, s=1, p=1, c_in=2, c_out=4)
    layers = (
        factories.conv_layer(rng, g, activation="ReLU"),
        factories.lrn_layer(rng, 4, 6),
        Layer(kind="Pool2D", geometry=Geometry(x=6, y=3, k=2, s=2, p=0, c_in=4, c_out=4), pool_mode="max"),
        factories.dense_layer(rng, 5, 36, activation="ReLU"),
        factories.dense_layer(rng, 3, 5),
    )
    model_path = str(tmp_path / "conv.json")
    write_model(Network(layers=layers, frl_index=3), model_path)
    data_path = str(tmp_path / "conv.csv")
    save_dataset(Dataset(inputs=rng.standard_normal((8, 2, 6, 6))), data_path)
    return {"model": model_path, "csv": data_path, "out": str(tmp_path / "out")}


@pytest.mark.parametrize("layer", [3, 4, 0, 1], ids=["at-frl", "above-frl", "lrn-tail", "maxpool-tail"])
def test_verify_rejects_bad_layer_even_without_trials(conv_workspace, layer):
    code = run(["verify", "--model", conv_workspace["model"], "--data", conv_workspace["csv"],
                "--out", conv_workspace["out"], "--layer", str(layer), "--trials", "0"])
    assert code == 2
    assert not os.path.exists(os.path.join(conv_workspace["out"], "bound_report.json"))


def test_prune_leaving_fewer_channels_than_the_lrn_window_exits_0(tmp_path):
    # Keeping 2 of 4 conv channels under an LRN of local size 3 leaves a
    # window wider than the channels, which every LRN rule clips.
    rng = np.random.default_rng(71)
    lrn = Layer(kind="LRN", geometry=Geometry(x=4, y=4, k=1, s=1, p=0, c_in=4, c_out=4), lrn_local_size=3)
    net = Network(
        layers=(factories.conv_layer(rng, Geometry(x=4, y=4, k=3, s=1, p=1, c_in=2, c_out=4), "ReLU"), lrn,
                factories.dense_layer(rng, 5, 64, "ReLU"), factories.dense_layer(rng, 3, 5)),
        frl_index=2,
    )
    model_path, data_path, out = str(tmp_path / "m.json"), str(tmp_path / "d.csv"), str(tmp_path / "out")
    write_model(net, model_path)
    save_dataset(Dataset(inputs=rng.standard_normal((8, 2, 4, 4))), data_path)
    code = run(["prune", "--model", model_path, "--data", data_path, "--out", out, "--ratio", "0=0.5"])
    assert code == 0
    pruned = read_model(os.path.join(out, "pruned_model.json"))
    assert pruned.layers[1].geometry.c_in == 2
    assert pruned.layers[1].lrn_local_size == 3


# --- shared behaviour ----------------------------------------------------------------

def test_unknown_command_and_missing_flags_exit_2(workspace, capsys):
    assert run(["shred"]) == 2
    assert run(["rank", "--model", workspace["model"]]) == 2
    capsys.readouterr()


def _edit_line(data, number, edit):
    lines = data.split(b"\n")
    lines[number - 1] = edit(lines[number - 1])
    return b"\n".join(lines)


# Deeper than the json decoder's recursion limit.
DEEP_JSON = b"[" * 200000

# Each is no list of edges, so none may be read as one.
SKIP_EDGES_NOT_A_LIST = {"int": b"1", "float": b"0.5", "bool": b"true", "null": b"null",
                         "string": b'"ab"', "object": b'{"0": 1}'}


@pytest.mark.parametrize("which, corrupt", [
    ("model", lambda good: b"{ not json"),
    ("model", lambda good: b"\xff" + good),
    ("csv", lambda good: _edit_line(good, 3, lambda line: b"\xff" + line)),
    ("csv", lambda good: _edit_line(
        good, 2, lambda line: b"0" * csv.field_size_limit() + b"1" + line[line.index(b","):])),
    ("model", lambda good: good.replace(b'"activation"', b'"activaton"', 1)),
    ("model", lambda good: DEEP_JSON),
] + [
    ("model", lambda good, value=value: good.replace(b'"skip_edges": []', b'"skip_edges": ' + value))
    for value in SKIP_EDGES_NOT_A_LIST.values()
], ids=["non-json-model", "model-0xff", "csv-0xff-row-3", "csv-over-limit-field", "model-misspelt-key",
        "model-deeply-nested"]
    + ["skip-edges-%s" % name for name in SKIP_EDGES_NOT_A_LIST])
def test_corrupt_input_exits_3(workspace, which, corrupt):
    paths = {"model": workspace["model"], "csv": workspace["csv"]}
    with open(paths[which], "rb") as fh:
        bad = corrupt(fh.read())
    paths[which] = str(workspace["tmp"] / "bad")
    with open(paths[which], "wb") as fh:
        fh.write(bad)
    code = run(["rank", "--model", paths["model"], "--data", paths["csv"], "--out", workspace["out"]])
    assert code == 3
    assert not os.path.exists(workspace["out"])


# Each loads a 4-column CSV as something other than what it says, or as
# nothing a sample can be.
BAD_INPUT_SHAPES = ["[2, 2]", "[-2, -2]", "[4.7]", "[true, 4]", '["4"]', "[1, 1, 2, 2]",
                    pytest.param(DEEP_JSON.decode(), id="deeply-nested")]


@pytest.mark.parametrize("shape", BAD_INPUT_SHAPES)
def test_bad_manifest_input_shape_exits_3(workspace, shape):
    args = ["rank", "--model", workspace["model"], "--data", workspace["csv"], "--out", workspace["out"]]
    with open(manifest_path_for(workspace["csv"]), "w") as fh:
        fh.write('{"input_shape": %s}' % shape)
    assert run(args) == 3
    assert not os.path.exists(workspace["out"])
    with open(manifest_path_for(workspace["csv"]), "w") as fh:
        fh.write('{"input_shape": [4]}')
    assert run(args) == 0


def test_failure_leaves_no_partial_outputs(workspace):
    # labels are required for compare; the failure must not leave stray files
    unlabeled = str(workspace["tmp"] / "unlabeled.csv")
    save_dataset(Dataset(inputs=workspace["data"].inputs), unlabeled)
    out = str(workspace["tmp"] / "fresh-out")
    code = run(["compare", "--model", workspace["model"], "--data", unlabeled,
                "--out", out, "--epochs", "1"])
    assert code == 3
    assert not os.path.exists(os.path.join(out, "comparison.csv"))


def test_scratch_rows_ignore_pretrained_weights(workspace):
    # scratch reinitializes, so its pre-finetune accuracy is chance-level
    # while nisp keeps most of the trained structure
    code = run(["compare", "--model", workspace["model"], "--data", workspace["csv"],
                "--out", workspace["out"], "--strategy", "scratch", "--strategy", "nisp",
                "--ratio-all", "0.5", "--epochs", "0", "--seed", "0"])
    assert code == 0
    with open(os.path.join(workspace["out"], "comparison.csv")) as fh:
        lines = fh.read().strip().split("\n")
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert set(rows) == {"scratch", "nisp"}
    # with zero epochs post == pre for both
    for row in rows.values():
        assert float(row[2]) == float(row[3])


# --- model document fuzzing ----------------------------------------------------------

def _fuzz_inputs():
    """A model document with every layer kind and a skip edge, and data it reads."""
    rng = np.random.default_rng(5)
    layers = (
        factories.conv_layer(rng, Geometry(x=3, y=2, k=2, s=1, p=0, c_in=1, c_out=2), "ReLU"),
        Layer(kind="LRN", geometry=Geometry(x=2, y=2, k=1, s=1, p=0, c_in=2, c_out=2), lrn_local_size=3),
        factories.batchnorm_layer(rng, 2),
        Layer(kind="Pool2D", geometry=Geometry(x=2, y=1, k=2, s=2, p=0, c_in=2, c_out=2), pool_mode="avg"),
        Layer(kind="Activation", activation="Tanh"),
        factories.dense_layer(rng, 3, 2, "ReLU"),
        factories.dense_layer(rng, 2, 3),
    )
    net = Network(layers=layers, frl_index=5, skip_edges=((1, 2),))
    return json.loads(save_model(net)), Dataset(inputs=rng.standard_normal((6, 1, 3, 3)))


def _paths(value, path=()):
    """Every path to a value inside ``value``, each container before its items."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield path + (key,)
        yield from _paths(item, path + (key,))


FUZZ_DOC, FUZZ_DATA = _fuzz_inputs()
# Every integer is small, so that no mutated geometry asks for a large array.
FUZZ_VALUES = (-1, 0, 1, 2, 3, 5, 0.5, "x", None, [], {}, True, [[1.0]]) + KINDS + ACTIVATION_KINDS + POOL_MODES


@given(st.lists(st.tuples(st.sampled_from(list(_paths(FUZZ_DOC))), st.sampled_from(FUZZ_VALUES)),
                min_size=1, max_size=2))
@example([])
@settings(max_examples=150, deadline=None)
def test_mutated_model_document_exits_0_2_or_3_and_fails_without_files(edits):
    doc = copy.deepcopy(FUZZ_DOC)
    for path, value in edits:
        try:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed the path
    with tempfile.TemporaryDirectory() as tmp:
        model_path, data_path = os.path.join(tmp, "model.json"), os.path.join(tmp, "data.csv")
        with open(model_path, "w") as fh:
            json.dump(doc, fh)
        save_dataset(FUZZ_DATA, data_path)
        for command in (["rank"], ["prune", "--ratio-all", "0.5"]):
            out = os.path.join(tmp, command[0])
            code = run([command[0], "--model", model_path, "--data", data_path, "--out", out] + command[1:])
            assert code in ((0,) if not edits else (0, 2, 3))
            if code:
                assert not os.path.exists(out) or not os.listdir(out)


# --- dataset fuzzing -----------------------------------------------------------------

# Manifests for the fuzzed 4-column CSV; "%d" stands for its width.
DATA_FUZZ_MANIFESTS = [None, None, '{"input_shape": [%d]}', '{"input_shape": [1, 2, 2]}', '{"input_shape": [2, 2]}',
                       '{"input_shape": [%d], "extra": 1}', '{"input_shape": null}', '{"shape": [1]}', "[]", "",
                       "not json", DEEP_JSON.decode()]


@given(factories.mutated_csv(widths=st.just(4), manifests=DATA_FUZZ_MANIFESTS))
@settings(max_examples=150, deadline=None)
def test_mutated_dataset_exits_0_2_or_3_and_fails_without_files(case):
    data, manifest = case
    with tempfile.TemporaryDirectory() as tmp:
        model_path, data_path = os.path.join(tmp, "model.json"), os.path.join(tmp, "data.csv")
        write_model(make_mlp([4, 6, 5, 3], seed=3), model_path)
        with open(data_path, "wb") as fh:
            fh.write(data)
        if manifest is not None:
            with open(manifest_path_for(data_path), "w") as fh:
                fh.write(manifest)
        for command in (["rank"], ["prune", "--ratio-all", "0.5"]):
            out = os.path.join(tmp, command[0])
            code = run([command[0], "--model", model_path, "--data", data_path, "--out", out] + command[1:])
            assert code in (0, 2, 3)
            if code:
                assert not os.path.exists(out) or not os.listdir(out)
