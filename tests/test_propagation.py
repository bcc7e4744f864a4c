import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import factories
import oracles
from nisprune import engine
from nisprune.errors import ConfigError, ModelFormatError, ShapeError
from nisprune.model import Geometry, Layer, Network, output_shapes, shape_size
from nisprune.propagation import (
    ImportancePlan,
    PruneConfig,
    channel_scores,
    check_ratios,
    keep_count,
    masked_importance,
    nisp_backward,
    plan_from_json,
    plan_to_json,
    propagate_conv,
    propagate_dense,
    propagate_lrn,
    propagate_pool,
    prune_indicator,
)


def identity_dense(n, activation="Identity"):
    return Layer(kind="Dense", weights=np.eye(n), bias=np.zeros(n), activation=activation)


# --- single-layer rules -----------------------------------------------------

def test_propagate_dense_hand_value():
    w = np.array([[1.0, -2.0], [3.0, 4.0]])
    s = propagate_dense(w, np.array([1.0, 2.0]))
    assert np.array_equal(s, [7.0, 10.0])
    assert np.array_equal(propagate_dense(w, np.zeros(2)), np.zeros(2))
    assert np.array_equal(propagate_dense(np.eye(3), np.array([5.0, 1.0, 2.0])), [5, 1, 2])


def test_propagate_conv_one_by_one_identity():
    g = Geometry(x=3, y=3, k=1, s=1, p=0, c_in=1, c_out=1)
    kernel = np.ones((1, 1, 1, 1))
    s_out = np.arange(9.0).reshape(1, 3, 3)
    assert np.array_equal(propagate_conv(kernel, g, s_out), s_out)


def test_propagate_conv_receptive_field_counts():
    # X=4, Y=2, k=3, s=1: corners sit under one window, the center under all 4
    g = Geometry(x=4, y=2, k=3, s=1, p=0, c_in=1, c_out=1)
    kernel = np.ones((3, 3, 1, 1))
    got = propagate_conv(kernel, g, np.ones((1, 2, 2)))
    want = np.array([[1, 2, 2, 1], [2, 4, 4, 2], [2, 4, 4, 2], [1, 2, 2, 1]], dtype=float)
    assert np.array_equal(got[0], want)


def test_propagate_conv_uses_absolute_weights():
    g = Geometry(x=2, y=2, k=1, s=1, p=0, c_in=1, c_out=1)
    kernel = np.full((1, 1, 1, 1), -2.0)
    got = propagate_conv(kernel, g, np.ones((1, 2, 2)))
    assert np.array_equal(got, np.full((1, 2, 2), 2.0))


def test_propagate_pool_hand_values():
    g = Geometry(x=4, y=2, k=2, s=2, p=0, c_in=1, c_out=1)
    got = propagate_pool(g, np.ones((1, 2, 2)))
    assert np.array_equal(got, np.full((1, 4, 4), 0.25))

    whole = Geometry(x=3, y=1, k=3, s=3, p=0, c_in=1, c_out=1)
    got = propagate_pool(whole, np.full((1, 1, 1), 18.0))
    assert np.array_equal(got, np.full((1, 3, 3), 2.0))


def test_propagate_pool_overlapping_windows_sum():
    # k=2, s=1 on X=3: the center input is covered by all four windows
    g = Geometry(x=3, y=2, k=2, s=1, p=0, c_in=1, c_out=1)
    got = propagate_pool(g, np.ones((1, 2, 2)))
    want = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]], dtype=float) / 4.0
    assert np.array_equal(got[0], want)


def test_propagate_lrn_hand_values():
    s_out = np.ones((5, 2, 2))
    got = propagate_lrn(3, s_out)
    per_channel = np.array([2 / 3, 1.0, 1.0, 1.0, 2 / 3])
    assert got == pytest.approx(np.broadcast_to(per_channel[:, None, None], (5, 2, 2)))
    assert np.array_equal(propagate_lrn(1, s_out), s_out)


def test_spatial_rules_match_matrices_and_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(20):
        g = factories.random_conv_geometry(rng)
        kernel = rng.standard_normal((g.k, g.k, g.c_in, g.c_out))
        s_out = np.abs(rng.standard_normal((g.c_out, g.y, g.y)))
        got = propagate_conv(kernel, g, s_out)
        via_matrix = (s_out.ravel() @ oracles.bp_conv_matrix_loop(kernel, g)).reshape(g.c_in, g.x, g.x)
        brute = oracles.conv_importance_brute(kernel, g, s_out)
        assert np.max(np.abs(got - via_matrix)) <= 1e-12
        assert np.max(np.abs(got - brute)) <= 1e-12

        pg = factories.random_pool_geometry(rng, g.c_in)
        s_out = np.abs(rng.standard_normal((pg.c_out, pg.y, pg.y)))
        got = propagate_pool(pg, s_out)
        via_matrix = (s_out.ravel() @ oracles.bp_pool_matrix_loop(pg)).reshape(pg.c_in, pg.x, pg.x)
        assert np.max(np.abs(got - via_matrix)) <= 1e-12
        assert np.max(np.abs(got - oracles.pool_importance_brute(pg, s_out))) <= 1e-12

    for local_size, channels in ((1, 1), (3, 5), (5, 5), (3, 3)):
        lg = Geometry(x=2, y=2, k=1, s=1, p=0, c_in=channels, c_out=channels)
        s_out = np.abs(rng.standard_normal((channels, 2, 2)))
        got = propagate_lrn(local_size, s_out)
        matrix = oracles.bp_lrn_matrix_loop(local_size, lg)
        via_matrix = (s_out.ravel() @ matrix).reshape(channels, 2, 2)
        assert np.max(np.abs(got - via_matrix)) <= 1e-12
        assert np.max(np.abs(got - oracles.lrn_importance_brute(local_size, s_out))) <= 1e-12


def _wide_values(rng, shape):
    # Both signs over exponents e-30..e30, with zeros of both signs.
    v = rng.standard_normal(shape) * np.exp(rng.uniform(-30.0, 30.0, shape))
    u = rng.random(shape)
    v[u < 0.15] = 0.0
    v[u > 0.85] = -0.0
    return v


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _check_window_kernels(k, s, p, x, c_in, c_out, seed, batch):
    y = (x + 2 * p - k) // s + 1
    rng = np.random.default_rng(seed)
    g = Geometry(x=x, y=y, k=k, s=s, p=p, c_in=c_in, c_out=c_out)
    pg = Geometry(x=x, y=y, k=k, s=s, p=p, c_in=c_in, c_out=c_in)

    kernel = _wide_values(rng, (k, k, c_in, c_out))
    s_conv = np.abs(_wide_values(rng, (c_out, y, y)))
    s_pool = np.abs(_wide_values(rng, (c_in, y, y)))
    s_conv[rng.random(s_conv.shape) < 0.1] = -0.0
    s_pool[rng.random(s_pool.shape) < 0.1] = -0.0
    assert _same_bytes(propagate_conv(kernel, g, s_conv), oracles.propagate_conv_loop(kernel, g, s_conv))
    assert _same_bytes(propagate_pool(pg, s_pool), oracles.propagate_pool_loop(pg, s_pool))

    xs = _wide_values(rng, (batch, c_in, x, x))
    for mode in ("max", "avg"):
        layer = Layer(kind="Pool2D", geometry=pg, pool_mode=mode)
        got = engine.batch_forward(Network(layers=(layer,), frl_index=0), xs)[-1]
        assert _same_bytes(got, oracles.pool_forward_loop(layer, xs))


@given(
    st.integers(1, 5),
    st.integers(1, 3),
    st.data(),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, engine.SAMPLE_BLOCK, engine.SAMPLE_BLOCK + 1]),
)
@settings(max_examples=60, deadline=None)
def test_window_kernels_match_loop_references_bytewise(k, s, data, seed, batch):
    # The window_index kernels must sum in the loops' order, down to the
    # last bit and the sign of a zero: CLI outputs depend on it. Channel
    # counts reach past 8, where numpy's reductions switch to unrolled and
    # SIMD kernels.
    p = data.draw(st.integers(0, k - 1))
    x = data.draw(st.integers(max(1, k - 2 * p), 7))
    c_in = data.draw(st.integers(1, 17))
    c_out = data.draw(st.integers(1, 17))
    _check_window_kernels(k, s, p, x, c_in, c_out, seed, batch)


@pytest.mark.parametrize("k,s,p,x,c_in,c_out", [
    (3, 1, 1, 1, 8, 16),   # one output position, reductions of 8 and 16
    (5, 2, 0, 5, 16, 50),  # one output position, the widest bench channels
    (3, 1, 1, 6, 16, 32),
    (2, 2, 0, 8, 50, 9),
])
def test_window_kernels_match_loop_references_at_bench_widths(k, s, p, x, c_in, c_out):
    _check_window_kernels(k, s, p, x, c_in, c_out, seed=7, batch=engine.SAMPLE_BLOCK + 1)


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 4.0), st.floats(0.0, 4.0))
@settings(max_examples=25, deadline=None)
def test_propagation_linearity(seed, a, b):
    rng = np.random.default_rng(seed)
    g = factories.random_conv_geometry(rng)
    kernel = rng.standard_normal((g.k, g.k, g.c_in, g.c_out))
    u = np.abs(rng.standard_normal((g.c_out, g.y, g.y)))
    v = np.abs(rng.standard_normal((g.c_out, g.y, g.y)))
    combined = propagate_conv(kernel, g, a * u + b * v)
    split = a * propagate_conv(kernel, g, u) + b * propagate_conv(kernel, g, v)
    assert combined == pytest.approx(split, abs=1e-9)
    assert np.all(combined >= 0)

    w = rng.standard_normal((4, 3))
    du, dv = np.abs(rng.standard_normal(4)), np.abs(rng.standard_normal(4))
    combined = propagate_dense(w, a * du + b * dv)
    assert combined == pytest.approx(a * propagate_dense(w, du) + b * propagate_dense(w, dv), abs=1e-9)


# --- selection helpers --------------------------------------------------------

def test_keep_count_rounding():
    assert keep_count(10, 1.0) == 10
    assert keep_count(10, 0.5) == 5
    assert keep_count(5, 0.5) == 3  # 2.5 rounds up
    assert keep_count(2, 0.25) == 1
    assert keep_count(7, 0.01) == 1  # never empty
    assert keep_count(4, 0.124) == 1
    assert keep_count(4, 0.126) == 1
    assert keep_count(4, 0.375) == 2  # 1.5 rounds up
    with pytest.raises(ConfigError):
        keep_count(10, 0.0)
    with pytest.raises(ConfigError):
        keep_count(10, 1.2)
    with pytest.raises(ConfigError):
        keep_count(0, 0.5)


def test_prune_indicator_hand_values():
    assert np.array_equal(prune_indicator(np.array([0.5, 0.9, 0.1]), 2), [1, 1, 0])
    assert np.array_equal(prune_indicator(np.array([0.5, 0.5, 0.1]), 1), [1, 0, 0])
    assert np.array_equal(prune_indicator(np.array([1.0, 1.0, 1.0]), 2), [1, 1, 0])


def test_prune_indicator_matches_sort_oracle():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(1, 20))
        scores = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], size=n)  # force ties
        keep = int(rng.integers(1, n + 1))
        mask = prune_indicator(scores, keep)
        assert mask.sum() == keep
        # kept scores dominate dropped ones; equal boundary scores keep lower indices
        cut = np.sort(scores)[::-1][keep - 1]
        assert np.all(scores[mask == 1] >= cut)
        boundary = np.flatnonzero(scores == cut)
        kept_boundary = boundary[mask[boundary] == 1]
        dropped_boundary = boundary[mask[boundary] == 0]
        if kept_boundary.size and dropped_boundary.size:
            assert kept_boundary.max() < dropped_boundary.min()


def test_prune_indicator_range_errors():
    with pytest.raises(ConfigError):
        prune_indicator(np.array([1.0, 2.0]), 0)
    with pytest.raises(ConfigError):
        prune_indicator(np.array([1.0, 2.0]), 3)


def test_channel_scores_values():
    t = np.zeros((2, 2, 2))
    t[0] = [[1.0, 2.0], [3.0, 0.0]]
    assert np.array_equal(channel_scores(t), [6.0, 0.0])
    uniform = np.full((3, 4, 4), 0.5)
    assert np.array_equal(channel_scores(uniform), [8.0, 8.0, 8.0])

    rng = np.random.default_rng(37)
    t = rng.standard_normal((3, 5, 5))
    want = np.array([sum(t[c, i, j] for i in range(5) for j in range(5)) for c in range(3)])
    assert channel_scores(t) == pytest.approx(want)
    with pytest.raises(ShapeError):
        channel_scores(np.zeros((2, 2)))


# --- backward pass -------------------------------------------------------------

def test_backward_keep_all_matches_closed_form():
    rng = np.random.default_rng(41)
    for _ in range(25):
        net = factories.random_dense_net(rng)
        s_n = np.abs(rng.standard_normal(net.layers[net.frl_index].weights.shape[0]))
        plan = nisp_backward(net, s_n, PruneConfig())
        for layer_id in range(net.frl_index + 1):
            want = oracles.importance_closed_form(net, s_n, layer_id)
            got = plan.scores(layer_id)
            scale = max(np.max(np.abs(want)), 1.0)
            assert np.max(np.abs(got - want)) / scale <= 1e-9
            assert plan.mask(layer_id).all()


def test_walk_without_masks_is_the_keep_all_plan_on_skip_nets():
    # A skip source sums the merge's importance and the chain's in the same
    # order with or without a picker, and stopping early changes no entry.
    rng = np.random.default_rng(43)
    nets = [factories.random_mixed_net(rng, with_skip=True) for _ in range(20)]
    nets += [factories.skip_dense_net(rng, width=int(rng.integers(2, 9))) for _ in range(5)]
    for net in nets:
        s_n = np.abs(rng.standard_normal(shape_size(output_shapes(net)[net.frl_index])))
        plan = nisp_backward(net, s_n, PruneConfig())
        walk = masked_importance(net, s_n)
        assert list(walk) == list(range(net.frl_index, -1, -1))
        for layer_id, s in walk.items():
            assert s.tobytes() == plan.scores(layer_id).tobytes()
        for stop in range(net.frl_index + 1):
            tail = masked_importance(net, s_n, stop)
            assert list(tail) == list(range(net.frl_index, stop - 1, -1))
            assert all(s.tobytes() == walk[layer_id].tobytes() for layer_id, s in tail.items())


def test_backward_identity_chain_passes_scores_through():
    layers = tuple(identity_dense(4) for _ in range(4))
    net = Network(layers=layers, frl_index=2)
    s_n = np.array([4.0, 0.5, 2.0, 1.0])
    plan = nisp_backward(net, s_n, PruneConfig())
    for layer_id in range(3):
        assert np.array_equal(plan.scores(layer_id), s_n)


def test_backward_masking_zeroes_before_next_layer():
    w0 = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    w1 = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    w2 = np.ones((2, 3))
    net = Network(
        layers=(
            Layer(kind="Dense", weights=w0, bias=np.zeros(3)),
            Layer(kind="Dense", weights=w1, bias=np.zeros(3)),
            Layer(kind="Dense", weights=w2, bias=np.zeros(2)),
        ),
        frl_index=1,
    )
    s_n = np.array([3.0, 1.0, 2.0])
    plan = nisp_backward(net, s_n, PruneConfig(ratios={1: 2 / 3}))
    # indicator at layer 1 is chosen on the unzeroed scores [3, 1, 2]
    assert np.array_equal(plan.mask(1), [1, 0, 1])
    assert np.array_equal(plan.scores(1), s_n)
    # layer 0 sees |w1|^T @ [3, 0, 2]: the dropped middle neuron stops contributing
    assert np.array_equal(plan.scores(0), [6.0, 0.0, 2.0])
    assert np.array_equal(plan.mask(0), [1, 1, 1])


def test_backward_conv_channels_share_indicator():
    rng = np.random.default_rng(43)
    g = Geometry(x=3, y=3, k=1, s=1, p=0, c_in=2, c_out=3)
    conv = factories.conv_layer(rng, g)
    frl = factories.dense_layer(rng, 5, 27)
    head = factories.dense_layer(rng, 2, 5)
    net = Network(layers=(conv, frl, head), frl_index=1)
    s_n = np.abs(rng.standard_normal(5))
    plan = nisp_backward(net, s_n, PruneConfig(ratios={0: 1 / 3}))
    entry = plan.entries[0]
    mask = entry.mask.reshape(3, 9)
    assert np.array_equal(mask, np.repeat(mask[:, :1], 9, axis=1))
    assert mask.sum() == 9
    want_ch = channel_scores(entry.scores.reshape(3, 3, 3))
    assert entry.channel_scores == pytest.approx(want_ch)
    kept_channel = int(np.flatnonzero(mask[:, 0])[0])
    assert kept_channel == int(np.argmax(want_ch))


def test_backward_skip_identity_branches_double_importance():
    layers = (identity_dense(4), identity_dense(4), factories.dense_layer(np.random.default_rng(0), 2, 4))
    net = Network(layers=layers, frl_index=1, skip_edges=((0, 1),))
    s_n = np.array([1.0, 3.0, 2.0, 0.5])
    plan = nisp_backward(net, s_n, PruneConfig())
    assert np.array_equal(plan.scores(1), s_n)
    assert np.array_equal(plan.scores(0), 2.0 * s_n)


def test_backward_skip_merge_mask_is_forced_onto_source():
    rng = np.random.default_rng(47)
    # source ranking alone would keep different neurons than the merge's mask
    w1 = np.array([[0.1, 5.0, 0.1, 0.1]] * 4).T + np.eye(4)
    layers = (
        identity_dense(4),
        Layer(kind="Dense", weights=w1, bias=np.zeros(4)),
        factories.dense_layer(rng, 2, 4),
    )
    net = Network(layers=layers, frl_index=1, skip_edges=((0, 1),))
    s_n = np.array([4.0, 1.0, 2.0, 3.0])
    plan = nisp_backward(net, s_n, PruneConfig(ratios={1: 0.5}))
    assert np.array_equal(plan.mask(0), plan.mask(1))
    assert plan.mask(0).sum() == 2


def test_backward_skip_source_receives_sum_of_consumers():
    rng = np.random.default_rng(53)
    net = factories.skip_dense_net(rng)
    s_n = np.abs(rng.standard_normal(6))
    plan = nisp_backward(net, s_n, PruneConfig())
    chain = propagate_dense(net.layers[1].weights, s_n)
    assert plan.scores(0) == pytest.approx(chain + s_n)


def test_backward_conflicting_skip_masks_rejected():
    w2 = np.array([[0.1, 5.0], [5.0, 0.1]])
    layers = (
        identity_dense(2),
        identity_dense(2),
        Layer(kind="Dense", weights=w2, bias=np.zeros(2)),
        factories.dense_layer(np.random.default_rng(0), 2, 2),
    )
    net = Network(layers=layers, frl_index=2, skip_edges=((0, 1), (0, 2)))
    with pytest.raises(ConfigError, match="different masks"):
        nisp_backward(net, np.array([4.0, 1.0]), PruneConfig(ratios={1: 0.5, 2: 0.5}))


def test_backward_nonprunable_skip_source_rejected():
    rng = np.random.default_rng(1)
    layers = (
        identity_dense(3),
        factories.batchnorm_layer(rng, 3),
        identity_dense(3),
        factories.dense_layer(rng, 2, 3),
    )
    net = Network(layers=layers, frl_index=2, skip_edges=((1, 2),))
    with pytest.raises(ConfigError, match="prunable source"):
        nisp_backward(net, np.array([3.0, 1.0, 2.0]), PruneConfig(ratios={2: 2 / 3}))


def test_check_ratios_rejections():
    rng = np.random.default_rng(59)
    net = factories.dense_chain(rng, [4, 6, 5, 3])
    with pytest.raises(ConfigError):
        check_ratios(net, PruneConfig(ratios={2: 0.5}))  # classifier head
    with pytest.raises(ConfigError):
        check_ratios(net, PruneConfig(ratios={9: 0.5}))
    with pytest.raises(ConfigError):
        check_ratios(net, PruneConfig(ratios={0: 0.0}))
    with pytest.raises(ConfigError):
        check_ratios(net, PruneConfig(ratios={0: 1.5}))
    check_ratios(net, PruneConfig(ratios={0: 0.5, 1: 1.0}))


def test_check_ratios_skip_sources():
    rng = np.random.default_rng(61)
    net = factories.skip_dense_net(rng)
    with pytest.raises(ConfigError, match="set the ratio there instead"):
        check_ratios(net, PruneConfig(ratios={0: 0.5}))

    layers = (
        identity_dense(3),
        identity_dense(3),
        identity_dense(3),
        factories.dense_layer(rng, 3, 3),
    )
    head_skip = Network(layers=layers, frl_index=1, skip_edges=((0, 3),))
    with pytest.raises(ConfigError, match="classifier head"):
        check_ratios(head_skip, PruneConfig(ratios={0: 0.5}))


def test_backward_input_validation():
    rng = np.random.default_rng(67)
    net = factories.dense_chain(rng, [4, 6, 3])
    with pytest.raises(ShapeError):
        nisp_backward(net, np.ones(5), PruneConfig())
    with pytest.raises(ShapeError):
        nisp_backward(net, np.array([1.0, -2.0, 1.0, 1.0, 1.0, 1.0]), PruneConfig())
    with pytest.raises(ShapeError):
        nisp_backward(net, np.array([1.0, np.nan, 1.0, 1.0, 1.0, 1.0]), PruneConfig())


def test_closed_form_validation():
    rng = np.random.default_rng(71)
    net = factories.skip_dense_net(rng)
    with pytest.raises(ConfigError):
        oracles.importance_closed_form(net, np.ones(6), 0)
    chain = factories.dense_chain(rng, [4, 6, 6, 3])
    with pytest.raises(ConfigError):
        oracles.importance_closed_form(chain, np.ones(6), 2)
    with pytest.raises(ShapeError):
        oracles.importance_closed_form(chain, np.ones(5), 0)
    with pytest.raises(ShapeError, match="finite and nonnegative"):
        oracles.importance_closed_form(chain, np.array([1.0, np.nan, 1.0, 1.0, 1.0, 1.0]), 0)
    with pytest.raises(ShapeError, match="finite and nonnegative"):
        oracles.importance_closed_form(chain, np.array([1.0, -2.0, 1.0, 1.0, 1.0, 1.0]), 0)
    assert np.array_equal(oracles.importance_closed_form(chain, np.ones(6), 1), np.ones(6))


def test_closed_form_scales_by_batchnorm_and_skips_activation():
    # Batch-norm is diag(scale) plus a shift, so its |W|^T is |diag(scale)|:
    # importance reaching it is multiplied by |scale| per channel.
    rng = np.random.default_rng(73)
    dense = factories.dense_layer(rng, 4, 4)
    norm = factories.batchnorm_layer(rng, 4)
    net = Network(
        layers=(
            identity_dense(4),
            norm,
            Layer(kind="Activation", activation="Tanh"),
            dense,
            factories.dense_layer(rng, 2, 4),
        ),
        frl_index=3,
    )
    s_n = np.abs(rng.standard_normal(4))
    above = propagate_dense(dense.weights, s_n)
    assert oracles.importance_closed_form(net, s_n, 1) == pytest.approx(above)
    want = np.abs(norm.weights) * above
    assert not np.allclose(want, above)
    assert oracles.importance_closed_form(net, s_n, 0) == pytest.approx(want)
    assert nisp_backward(net, s_n, PruneConfig()).scores(0) == pytest.approx(want)

    # A conv response: one scale per channel, over all its positions.
    g = Geometry(x=3, y=3, k=1, s=1, p=0, c_in=2, c_out=2)
    norm = factories.batchnorm_layer(rng, 2)
    net = Network(
        layers=(factories.conv_layer(rng, g), norm, factories.dense_layer(rng, 3, 18),
                factories.dense_layer(rng, 2, 3)),
        frl_index=2,
    )
    s_n = np.abs(rng.standard_normal(3))
    above = propagate_dense(net.layers[2].weights, s_n)
    want = np.repeat(np.abs(norm.weights), 9) * above
    assert oracles.importance_closed_form(net, s_n, 0) == pytest.approx(want)
    assert nisp_backward(net, s_n, PruneConfig()).scores(0) == pytest.approx(want)


def test_backward_through_mixed_net_matches_manual_chain():
    rng = np.random.default_rng(79)
    for _ in range(10):
        net = factories.random_mixed_net(rng)
        s_n = np.abs(rng.standard_normal(net.layers[net.frl_index].weights.shape[0]))
        plan = nisp_backward(net, s_n, PruneConfig())
        s = s_n.copy()
        for layer_id in range(net.frl_index, -1, -1):
            assert plan.scores(layer_id) == pytest.approx(s, abs=1e-12)
            layer = net.layers[layer_id]
            if layer.kind == "Activation" or layer_id == 0:
                continue
            if layer.kind == "BatchNorm":
                s = s * np.repeat(np.abs(layer.weights), s.size // layer.weights.size)
            else:
                s = s @ oracles.bp_matrix_loop(layer)


def test_positive_scaling_leaves_masks_unchanged():
    rng = np.random.default_rng(83)
    for _ in range(10):
        net = factories.random_dense_net(rng)
        width = net.layers[net.frl_index].weights.shape[0]
        s_n = np.abs(rng.standard_normal(width))
        ratios = {0: float(rng.uniform(0.3, 0.9))}
        base = nisp_backward(net, s_n, PruneConfig(ratios=ratios))
        scaled = nisp_backward(net, s_n * 10.0, PruneConfig(ratios=ratios))
        for layer_id in base.entries:
            assert np.array_equal(base.mask(layer_id), scaled.mask(layer_id))
            assert scaled.scores(layer_id) == pytest.approx(10.0 * base.scores(layer_id), rel=1e-12)


def test_plan_json_roundtrip():
    rng = np.random.default_rng(89)
    net = factories.random_mixed_net(rng)
    s_n = np.abs(rng.standard_normal(net.layers[net.frl_index].weights.shape[0]))
    plan = nisp_backward(net, s_n, PruneConfig(ratios={0: 0.5}))
    blob = plan_to_json(plan)
    assert isinstance(blob, bytes)
    back = plan_from_json(blob)
    assert sorted(back.entries) == sorted(plan.entries)
    for layer_id, entry in plan.entries.items():
        other = back.entries[layer_id]
        assert np.array_equal(entry.scores, other.scores)
        assert np.array_equal(entry.mask, other.mask)
        if entry.channel_scores is None:
            assert other.channel_scores is None
        else:
            assert np.array_equal(entry.channel_scores, other.channel_scores)
    assert plan_to_json(back) == blob


def test_plan_json_rejects_malformed_documents():
    with pytest.raises(ModelFormatError):
        plan_from_json(b"not json {")
    with pytest.raises(ModelFormatError):
        plan_from_json(b"{}")
    with pytest.raises(ModelFormatError):
        plan_from_json(b'{"layers": [{"scores": [1.0]}]}')
    dup = b'{"layers": [{"layer_id": 0, "scores": [1.0], "mask": [1]}, {"layer_id": 0, "scores": [1.0], "mask": [1]}]}'
    with pytest.raises(ModelFormatError):
        plan_from_json(dup)
    with pytest.raises(ModelFormatError, match="not valid JSON"):
        plan_from_json(b"[" * 200000)  # deeper than the decoder's recursion limit


@pytest.mark.parametrize("value", [-1, 2, 0.5, "1", [1]])
def test_plan_json_rejects_mask_values_other_than_0_and_1(value):
    doc = '{"layers": [{"layer_id": 0, "scores": [1.0, 2.0], "mask": [1, %s]}]}' % json.dumps(value)
    with pytest.raises(ModelFormatError, match="mask"):
        plan_from_json(doc.encode("utf-8"))
