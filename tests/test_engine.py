import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import factories
import oracles
from nisprune import engine
from nisprune.errors import ConfigError, DataError, ShapeError
from nisprune.model import Geometry, Layer, Network, input_shape


def test_identity_dense_forward():
    layer = Layer(kind="Dense", weights=np.eye(2), bias=np.zeros(2))
    net = Network(layers=(layer,), frl_index=0)
    trace = engine.forward(net, np.array([3.0, -1.0]))
    assert np.array_equal(trace[-1], [3.0, -1.0])
    assert len(trace) == 2


def test_relu_dense_hand_value():
    layer = Layer(
        kind="Dense",
        weights=np.array([[1.0, -2.0], [3.0, 4.0]]),
        bias=np.zeros(2),
        activation="ReLU",
    )
    out = engine.layer_forward(layer, np.array([1.0, 1.0]))
    assert np.array_equal(out, [0.0, 7.0])


def test_max_pool_constant_map():
    g = Geometry(x=4, y=2, k=2, s=2, p=0, c_in=1, c_out=1)
    layer = Layer(kind="Pool2D", geometry=g, pool_mode="max")
    out = engine.layer_forward(layer, np.full((1, 4, 4), 5.0))
    assert np.array_equal(out, np.full((1, 2, 2), 5.0))


def test_avg_pool_hand_value():
    g = Geometry(x=2, y=1, k=2, s=2, p=0, c_in=1, c_out=1)
    layer = Layer(kind="Pool2D", geometry=g, pool_mode="avg")
    out = engine.layer_forward(layer, np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    assert np.allclose(out, [[[2.5]]])


def test_conv_forward_matches_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(30):
        g = factories.random_conv_geometry(rng)
        layer = factories.conv_layer(rng, g, activation=str(rng.choice(factories.ACTS)))
        x = rng.standard_normal((g.c_in, g.x, g.x))
        got = engine.layer_forward(layer, x)
        want = oracles.conv_forward_brute(layer, x)
        assert np.max(np.abs(got - want)) < 1e-12


def test_pool_forward_padding_cases():
    # k=2, s=1, p=1 on a 2x2 map: padded zeros participate in the windows
    g = Geometry(x=2, y=3, k=2, s=1, p=1, c_in=1, c_out=1)
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    mx = engine.layer_forward(Layer(kind="Pool2D", geometry=g, pool_mode="max"), x)
    assert np.array_equal(mx[0], [[1, 2, 2], [3, 4, 4], [3, 4, 4]])
    avg = engine.layer_forward(Layer(kind="Pool2D", geometry=g, pool_mode="avg"), x)
    assert np.allclose(avg[0], np.array([[1, 3, 2], [4, 10, 6], [3, 7, 4]]) / 4.0)


def test_lrn_forward_formula():
    layer = Layer(
        kind="LRN",
        geometry=Geometry(x=1, y=1, k=1, s=1, p=0, c_in=3, c_out=3),
        lrn_local_size=3,
    )
    x = np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1)
    out = engine.layer_forward(layer, x)
    # denominator (1 + 1e-4 * window_sum_of_squares) ** 0.75 per channel
    sums = np.array([1 + 4, 1 + 4 + 9, 4 + 9], dtype=float)
    want = x.ravel() / (1.0 + 1e-4 * sums) ** 0.75
    assert np.allclose(out.ravel(), want, rtol=0, atol=1e-15)


def test_batchnorm_vector_and_channel():
    bn = Layer(kind="BatchNorm", weights=np.array([2.0, -1.0]), bias=np.array([1.0, 0.5]))
    out = engine.layer_forward(bn, np.array([3.0, 4.0]))
    assert np.array_equal(out, [7.0, -3.5])

    bn3 = Layer(kind="BatchNorm", weights=np.array([2.0]), bias=np.array([-1.0]))
    out3 = engine.layer_forward(bn3, np.ones((1, 2, 2)))
    assert np.array_equal(out3, np.full((1, 2, 2), 1.0))


def test_skip_edge_adds_source_response():
    rng = np.random.default_rng(2)
    net = factories.skip_dense_net(rng, width=4)
    x = rng.standard_normal(4)
    trace = engine.forward(net, x)
    plain = Network(layers=net.layers, frl_index=net.frl_index)
    base = engine.forward(plain, x)
    assert np.array_equal(trace[2], base[2] + trace[1])


def test_forward_rejects_bad_input_shape():
    net = Network(layers=(Layer(kind="Dense", weights=np.eye(3), bias=np.zeros(3)),), frl_index=0)
    with pytest.raises(ShapeError):
        engine.forward(net, np.zeros(4))


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, engine.SAMPLE_BLOCK, engine.SAMPLE_BLOCK + 1]))
@settings(max_examples=25, deadline=None)
def test_batch_responses_rows_match_traces(seed, batch):
    # A sample's responses must not depend on the batch it runs in, down to
    # the sign of a zero: every layer kind, skip edges, and batches that fill
    # one sample block exactly or spill one sample into the next.
    rng = np.random.default_rng(seed)
    net = factories.random_mixed_net(rng, with_skip=True)
    xs = rng.standard_normal((batch,) + input_shape(net))
    xs[rng.random(xs.shape) < 0.2] = -0.0
    xs[rng.random(xs.shape) < 0.2] = 0.0
    for layer_id in range(len(net.layers)):
        resp = engine.batch_responses(net, xs, layer_id)
        for m in range(batch):
            alone = engine.batch_responses(net, xs[m : m + 1], layer_id)[0]
            traced = engine.forward(net, xs[m])[layer_id + 1].ravel()
            assert resp[m].tobytes() == alone.tobytes() == traced.tobytes()


def test_batch_responses_errors():
    net = Network(layers=(Layer(kind="Dense", weights=np.eye(2), bias=np.zeros(2)),), frl_index=0)
    with pytest.raises(DataError):
        engine.batch_responses(net, np.zeros((0, 2)), 0)
    with pytest.raises(ConfigError):
        engine.batch_responses(net, np.zeros((1, 2)), 3)


def test_lipschitz_table():
    assert engine.activation_lipschitz("ReLU") == 1.0
    assert engine.activation_lipschitz("Identity") == 1.0
    assert engine.activation_lipschitz("Tanh") == 1.0
    assert engine.activation_lipschitz("Sigmoid") == 0.25
    with pytest.raises(ConfigError):
        engine.activation_lipschitz("Softplus")


def test_lipschitz_inequality_sampled():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(10_000) * 5
    y = rng.standard_normal(10_000) * 5
    for kind in ("Identity", "ReLU", "Sigmoid", "Tanh"):
        c = engine.activation_lipschitz(kind)
        fx = engine.apply_activation(kind, x)
        fy = engine.apply_activation(kind, y)
        assert np.all(np.abs(fx - fy) <= c * np.abs(x - y) + 1e-12)


def test_accuracy_tie_breaks_low_index():
    w = np.zeros((3, 2))
    net = Network(
        layers=(Layer(kind="Dense", weights=w, bias=np.array([1.0, 1.0, 0.0])),),
        frl_index=0,
    )
    # Outputs 0 and 1 tie; the top-1 class is the lower index.
    assert engine.accuracy(net, np.zeros((1, 2)), np.array([0])) == 1.0
    assert engine.accuracy(net, np.zeros((1, 2)), np.array([1])) == 0.0


def test_accuracy_and_agreement():
    net = Network(layers=(Layer(kind="Dense", weights=np.eye(2), bias=np.zeros(2)),), frl_index=0)
    xs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    assert engine.accuracy(net, xs, np.array([0, 1, 0])) == 1.0
    assert engine.accuracy(net, xs, np.array([1, 1, 0])) == pytest.approx(2 / 3)
    assert engine.top1_agreement(net, net, xs) == 1.0

    flipped = Network(
        layers=(Layer(kind="Dense", weights=np.array([[0.0, 1.0], [1.0, 0.0]]), bias=np.zeros(2)),),
        frl_index=0,
    )
    assert engine.top1_agreement(net, flipped, xs) == 0.0
    outputs = engine.batch_responses(net, xs, 0)
    assert engine.output_accuracy(outputs, np.array([1, 1, 0])) == pytest.approx(2 / 3)
    assert engine.output_agreement(outputs, engine.batch_responses(flipped, xs, 0)) == 0.0
    with pytest.raises(ShapeError):
        engine.output_agreement(outputs, outputs[:2])


def test_accuracy_label_validation():
    net = Network(layers=(Layer(kind="Dense", weights=np.eye(2), bias=np.zeros(2)),), frl_index=0)
    xs = np.zeros((2, 2))
    with pytest.raises(DataError):
        engine.accuracy(net, xs, np.array([0, 2]))
    with pytest.raises(DataError):
        engine.accuracy(net, xs, np.array([-1, 0]))


def test_flatten_is_channel_major():
    t = np.arange(16.0).reshape(2, 2, 2, 2)
    # one row per sample; channel 0 spatial block first, row-major inside
    assert np.array_equal(engine.flatten_responses(t), np.arange(16.0).reshape(2, 8))


def test_forward_determinism():
    rng = np.random.default_rng(14)
    net = factories.random_mixed_net(rng)
    x = factories.random_input(rng, net)
    a = engine.forward(net, x)
    b = engine.forward(net, x)
    for u, v in zip(a, b):
        assert np.array_equal(u, v)


@pytest.mark.parametrize("rows", [1, 2, 32, 33, 64, 65])
def test_dense_forward_matches_one_term_loop_bytewise(rows):
    # Small blocks multiply several input terms per call; the sum must still
    # run first to last, down to the sign of a zero. The widths put the term
    # chunks' ends on, before and after a chunk boundary.
    rng = np.random.default_rng(rows)
    for n_in, n_out in ((1, 3), (31, 5), (64, 4), (65, 7), (300, 100)):
        w = rng.standard_normal((n_out, n_in)) * np.exp(rng.uniform(-30, 30, (n_out, n_in)))
        w[rng.random(w.shape) < 0.2] = 0.0
        w[rng.random(w.shape) < 0.2] = -0.0
        x = rng.standard_normal((rows, n_in))
        x[rng.random(x.shape) < 0.2] = 0.0
        x[rng.random(x.shape) < 0.2] = -0.0
        layer = Layer(kind="Dense", weights=w, bias=rng.standard_normal(n_out), activation="Tanh")
        got = engine.batch_forward(Network(layers=(layer,), frl_index=0), x)[-1]
        assert got.tobytes() == oracles.dense_forward_loop(layer, x).tobytes()


@given(
    st.integers(1, 3),
    st.integers(1, 2),
    st.data(),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, engine.SAMPLE_BLOCK, engine.SAMPLE_BLOCK + 1, 2 * engine.SAMPLE_BLOCK + 2]),
    st.sampled_from(factories.ACTS),
)
@settings(max_examples=60, deadline=None)
def test_conv_forward_matches_tap_loop_bytewise(k, s, data, seed, batch, activation):
    # The conv kernel lays its products out as (c_out, samples x y x y) rows;
    # every output must still be the same products added in the same order,
    # down to the sign of a zero, in any sample block.
    p = data.draw(st.integers(0, k - 1))
    x = data.draw(st.integers(max(1, k - 2 * p), 7))
    c_in, c_out = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    g = Geometry(x=x, y=(x + 2 * p - k) // s + 1, k=k, s=s, p=p, c_in=c_in, c_out=c_out)
    rng = np.random.default_rng(seed)

    def signed_zeros(shape):
        v = rng.standard_normal(shape) * np.exp(rng.uniform(-30.0, 30.0, shape))
        u = rng.random(shape)
        v[u < 0.15] = 0.0
        v[u > 0.85] = -0.0
        return v

    layer = Layer(kind="Conv2D", weights=signed_zeros((k, k, c_in, c_out)), bias=signed_zeros(c_out),
                  geometry=g, activation=activation)
    xs = signed_zeros((batch, c_in, x, x))
    got = engine.batch_forward(Network(layers=(layer,), frl_index=0), xs)[-1]
    want = oracles.conv_forward_loop(layer, xs)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
