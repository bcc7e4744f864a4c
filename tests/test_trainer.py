import numpy as np
import pytest

import factories
import oracles
from nisprune import engine, trainer
from nisprune.datasets import Dataset
from nisprune.errors import ConfigError, DataError
from nisprune.model import Layer, Network, save_model
from nisprune.propagation import PruneConfig
from nisprune.surgery import apply_plan, nisp_plan
from nisprune.trainer import (
    SynthSpec,
    TrainConfig,
    check_trainable,
    finetune,
    loss_and_grads,
    make_mlp,
    reinit,
    synth_dataset,
    train,
)


def blob_data(seed=0, classes=2, dim=4, spread=0.3, per_class=40):
    return synth_dataset(
        SynthSpec(n_classes=classes, dim=dim, samples_per_class=per_class, cluster_spread=spread, seed=seed)
    )


# --- gradients -----------------------------------------------------------------

def random_biases(rng, net):
    # fresh mlps carry zero biases; dead relu inputs would then sit exactly on
    # the kink, where finite differences disagree with any one-sided gradient
    from dataclasses import replace

    from nisprune.model import Network

    layers = tuple(
        replace(l, bias=0.1 + 0.1 * rng.random(l.bias.shape[0])) for l in net.layers
    )
    return Network(layers=layers, frl_index=net.frl_index, skip_edges=net.skip_edges)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    for trial in range(8):
        dims = [int(v) for v in rng.integers(2, 7, size=4)]
        act = ["ReLU", "Tanh", "Sigmoid"][trial % 3]
        net = random_biases(rng, make_mlp(dims, seed=trial, hidden_activation=act))
        xs = rng.standard_normal((6, dims[0]))
        ys = rng.integers(0, dims[-1], size=6)
        _, grads = loss_and_grads(net, xs, ys)
        numeric = oracles.finite_diff_grads(net, xs, ys)
        for layer_id, (dw, db) in grads.items():
            nw, nb = numeric[layer_id]
            scale = max(np.max(np.abs(nw)), 1e-8)
            assert np.max(np.abs(dw - nw)) / scale <= 1e-4
            scale = max(np.max(np.abs(nb)), 1e-8)
            assert np.max(np.abs(db - nb)) / scale <= 1e-4


def test_loss_and_grads_reports_mean_cross_entropy():
    net = make_mlp([2, 3, 2], seed=1)
    xs = np.zeros((4, 2))
    ys = np.array([0, 1, 0, 1])
    loss, _ = loss_and_grads(net, xs, ys)
    # zero inputs leave only the bias, which init sets to zero: uniform softmax
    assert loss == pytest.approx(np.log(2.0))


# --- SGD loop ------------------------------------------------------------------

def test_zero_learning_rate_keeps_weights_and_flattens_curve():
    net = make_mlp([4, 6, 2], seed=5)
    data = blob_data()
    trained, losses = train(net, data, TrainConfig(learning_rate=0.0, epochs=3, batch_size=8, seed=0))
    assert save_model(trained) == save_model(net)
    assert len(losses) == 3
    assert losses[0] == losses[1] == losses[2]


def test_train_leaves_the_input_net_unchanged():
    # train reads the input's arrays without copying them, so no update may
    # write into them.
    rng = np.random.default_rng(6)
    net = Network(
        layers=(factories.dense_layer(rng, 6, 4), Layer(kind="Activation", activation="Tanh"),
                factories.dense_layer(rng, 2, 6)),
        frl_index=1,
    )
    before = save_model(net)
    trained, _ = train(net, blob_data(), TrainConfig(learning_rate=0.5, epochs=3, batch_size=8, seed=0))
    assert save_model(net) == before
    assert save_model(trained) != before


def test_zero_epochs_is_identity():
    net = make_mlp([4, 6, 2], seed=7)
    data = blob_data()
    trained, losses = train(net, data, TrainConfig(learning_rate=0.1, epochs=0, batch_size=8, seed=0))
    assert save_model(trained) == save_model(net)
    assert losses == []


def test_training_is_deterministic():
    data = blob_data(seed=2)
    cfg = TrainConfig(learning_rate=0.05, epochs=4, batch_size=16, seed=11)
    a, losses_a = train(make_mlp([4, 8, 2], seed=9), data, cfg)
    b, losses_b = train(make_mlp([4, 8, 2], seed=9), data, cfg)
    assert save_model(a) == save_model(b)
    assert losses_a == losses_b


def test_shuffle_seed_changes_the_path():
    data = blob_data(seed=2)
    net = make_mlp([4, 8, 2], seed=9)
    a, _ = train(net, data, TrainConfig(learning_rate=0.05, epochs=2, batch_size=4, seed=1))
    b, _ = train(net, data, TrainConfig(learning_rate=0.05, epochs=2, batch_size=4, seed=2))
    assert save_model(a) != save_model(b)


def test_separable_blobs_train_to_high_accuracy():
    data = blob_data(seed=4, classes=2, dim=4, spread=0.3, per_class=50)
    net = make_mlp([4, 8, 2], seed=0)
    trained, losses = train(net, data, TrainConfig(learning_rate=0.1, epochs=50, batch_size=16, seed=0))
    assert engine.accuracy(trained, data.inputs, data.labels) >= 0.95
    assert losses[-1] < losses[0]


def test_finetune_is_train_at_a_tenth():
    data = blob_data(seed=6)
    net = make_mlp([4, 6, 2], seed=3)
    tuned, tuned_losses = finetune(net, data, TrainConfig(learning_rate=0.5, epochs=3, batch_size=8, seed=2))
    slow, slow_losses = train(net, data, TrainConfig(learning_rate=0.05, epochs=3, batch_size=8, seed=2))
    assert save_model(tuned) == save_model(slow)
    assert tuned_losses == slow_losses


def test_finetune_recovers_pruned_accuracy():
    data = blob_data(seed=8, classes=3, dim=6, spread=0.4, per_class=60)
    net = make_mlp([6, 16, 3], seed=1)
    cfg = TrainConfig(learning_rate=0.1, epochs=40, batch_size=16, seed=0)
    trained, _ = train(net, data, cfg)
    before = engine.accuracy(trained, data.inputs, data.labels)

    trace = engine.batch_forward(trained, data.inputs, 0, trained.frl_index)
    plan = nisp_plan(trained, trace, PruneConfig(ratios={0: 0.5}))
    pruned, _ = apply_plan(trained, plan)
    tuned, _ = finetune(pruned, data, cfg)
    after = engine.accuracy(tuned, data.inputs, data.labels)
    assert after >= before - 0.05


def _counting(monkeypatch, name):
    """Count the calls to trainer.<name>; returns the one-item list that holds the count."""
    calls, inner = [0], getattr(trainer, name)

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(trainer, name, counted)
    return calls


@pytest.mark.parametrize("n, batch_size, epochs", [(80, 8, 3), (100, 16, 4), (7, 32, 2), (60, 1, 1)])
def test_train_runs_one_forward_per_step(monkeypatch, n, batch_size, epochs):
    data = blob_data(seed=3, per_class=-(-n // 2))
    data = Dataset(inputs=data.inputs[:n], labels=data.labels[:n])
    forwards = _counting(monkeypatch, "_forward")
    _, losses = train(make_mlp([4, 6, 2], seed=1), data, TrainConfig(0.1, epochs, batch_size, 0))
    assert forwards[0] == epochs * -(-n // batch_size)
    assert len(losses) == epochs


def test_diverging_training_stops_after_its_first_non_finite_epoch(monkeypatch):
    data = blob_data(seed=1, classes=8, dim=64, spread=1.0, per_class=25)
    steps = _counting(monkeypatch, "_loss_and_grads")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConfigError, match="diverged"):
        train(make_mlp([64, 256, 128, 8], seed=0), data, TrainConfig(1e308, 40, 32, 0))
    assert 0 < steps[0] <= 7  # one epoch of ceil(200 / 32) steps, not 40


def test_train_validation_errors():
    net = make_mlp([4, 6, 2], seed=0)
    data = blob_data()
    with pytest.raises(DataError):
        train(net, Dataset(inputs=data.inputs, labels=None), TrainConfig(0.1, 1, 8, 0))
    with pytest.raises(DataError):
        train(net, Dataset(inputs=data.inputs, labels=np.full(data.inputs.shape[0], 7)), TrainConfig(0.1, 1, 8, 0))
    with pytest.raises(DataError):
        train(net, Dataset(inputs=np.zeros((0, 4)), labels=np.zeros(0, dtype=int)), TrainConfig(0.1, 1, 8, 0))
    for learning_rate in (-0.1, np.nan, np.inf):
        with pytest.raises(ConfigError, match="finite and non-negative"):
            train(net, data, TrainConfig(learning_rate=learning_rate, epochs=1, batch_size=8, seed=0))
    with pytest.raises(ConfigError):
        train(net, data, TrainConfig(learning_rate=0.1, epochs=-1, batch_size=8, seed=0))
    with pytest.raises(ConfigError):
        train(net, data, TrainConfig(learning_rate=0.1, epochs=1, batch_size=0, seed=0))


def test_check_trainable_rejects_structure():
    rng = np.random.default_rng(13)
    conv_net = factories.random_mixed_net(rng)
    with pytest.raises(ConfigError):
        check_trainable(conv_net)
    skip_net = factories.skip_dense_net(rng)
    with pytest.raises(ConfigError):
        check_trainable(skip_net)
    check_trainable(make_mlp([3, 5, 2], seed=0))

    data = blob_data()
    with pytest.raises(ConfigError):
        train(skip_net, Dataset(inputs=np.zeros((4, 6)), labels=np.zeros(4, dtype=int)), TrainConfig(0.1, 1, 2, 0))


# --- network construction --------------------------------------------------------

def test_make_mlp_shapes_and_bounds():
    net = make_mlp([5, 9, 7, 3], seed=21)
    assert [l.weights.shape for l in net.layers] == [(9, 5), (7, 9), (3, 7)]
    assert net.frl_index == 1
    assert net.layers[0].activation == "ReLU"
    assert net.layers[-1].activation == "Identity"
    for layer in net.layers:
        limit = np.sqrt(6.0 / sum(layer.weights.shape))
        assert np.all(np.abs(layer.weights) <= limit)
        assert np.all(layer.bias == 0.0)

    two = make_mlp([4, 6, 2], seed=0)
    assert two.frl_index == 0
    with pytest.raises(ConfigError):
        make_mlp([4], seed=0)


def test_reinit_reseeds_weights():
    net = make_mlp([4, 6, 2], seed=17)
    same = reinit(net, seed=17)
    assert save_model(same) == save_model(net)
    other = reinit(net, seed=18)
    assert save_model(other) != save_model(net)
    assert [l.weights.shape for l in other.layers] == [l.weights.shape for l in net.layers]


# --- synthetic data ---------------------------------------------------------------

def test_synth_dataset_centers_and_determinism():
    spec = SynthSpec(n_classes=3, dim=5, samples_per_class=4, cluster_spread=0.0, seed=9)
    data = synth_dataset(spec)
    assert data.inputs.shape == (12, 5)
    for x, label in zip(data.inputs, data.labels):
        center = np.zeros(5)
        center[label] = 3.0
        assert np.array_equal(x, center)
    counts = np.bincount(data.labels, minlength=3)
    assert counts.tolist() == [4, 4, 4]

    again = synth_dataset(spec)
    assert np.array_equal(again.inputs, data.inputs)
    assert np.array_equal(again.labels, data.labels)


def test_synth_dataset_nearest_center_is_perfect_at_low_spread():
    spec = SynthSpec(n_classes=2, dim=3, samples_per_class=50, cluster_spread=0.1, seed=31)
    data = synth_dataset(spec)
    centers = np.zeros((2, 3))
    centers[0, 0] = centers[1, 1] = 3.0
    guesses = np.array([np.argmin([np.linalg.norm(x - c) for c in centers]) for x in data.inputs])
    assert np.array_equal(guesses, data.labels)


def test_synth_dataset_validation():
    with pytest.raises(ConfigError):
        synth_dataset(SynthSpec(n_classes=4, dim=3, samples_per_class=5, cluster_spread=0.1, seed=0))
    with pytest.raises(ConfigError):
        synth_dataset(SynthSpec(n_classes=0, dim=3, samples_per_class=5, cluster_spread=0.1, seed=0))
    with pytest.raises(ConfigError):
        synth_dataset(SynthSpec(n_classes=2, dim=3, samples_per_class=5, cluster_spread=-1.0, seed=0))
