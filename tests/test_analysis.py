import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import factories
from nisprune import engine
from nisprune.analysis import BoundContext, count_cost, pca_energy, verify_bound, ware, ware_of_responses
from nisprune.errors import ConfigError, DataError, ShapeError
from nisprune.model import Geometry, Layer, Network, input_shape, output_shapes, shape_size, validate
from nisprune.propagation import PruneConfig, nisp_backward
from nisprune.surgery import apply_plan, random_plan
from nisprune.trainer import make_mlp

import oracles


def one_dense(w, activation="Identity"):
    w = np.asarray(w, dtype=float)
    return Network(
        layers=(Layer(kind="Dense", weights=w, bias=np.zeros(w.shape[0]), activation=activation),),
        frl_index=0,
    )


# --- weighted average reconstruction error -------------------------------------

def test_ware_hand_value():
    orig = one_dense([[2.0]])
    pruned = one_dense([[1.0]])
    got = ware(orig, pruned, np.array([[1.0]]), s_n=[2.0], kept_mask=[1])
    assert got == pytest.approx(1.0)


def test_ware_of_identical_nets_is_zero():
    rng = np.random.default_rng(3)
    net = factories.random_dense_net(rng)
    xs = rng.standard_normal((8, net.layers[0].weights.shape[1]))
    width = net.layers[net.frl_index].weights.shape[0]
    s_n = np.abs(rng.standard_normal(width))
    assert ware(net, net, xs, s_n, np.ones(width)) == 0.0


def test_ware_matches_double_loop_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        net = factories.dense_chain(rng, [4, 8, 6, 3], activations=["Tanh", "Sigmoid", "Identity"])
        xs = rng.standard_normal((7, 4))
        s_n = np.abs(rng.standard_normal(6))
        plan = random_plan(net, PruneConfig(ratios={0: 0.5, 1: 0.5}), seed=int(rng.integers(1 << 30)))
        pruned, _ = apply_plan(net, plan)
        mask = plan.mask(net.frl_index)
        got = ware(net, pruned, xs, s_n, mask)

        kept = np.flatnonzero(mask)
        y = engine.batch_responses(net, xs, net.frl_index)
        yhat = engine.batch_responses(pruned, xs, pruned.frl_index)
        total = 0.0
        for m in range(xs.shape[0]):
            for pos, i in enumerate(kept):
                ref = y[m, i]
                est = yhat[m, i] if yhat.shape[1] == y.shape[1] else yhat[m, pos]
                total += s_n[i] * abs(est - ref) / max(abs(ref), 1e-12)
        want = total / (xs.shape[0] * kept.size)
        assert got == pytest.approx(want, rel=1e-12)


def test_ware_positional_alignment_same_width():
    rng = np.random.default_rng(7)
    orig = factories.dense_chain(rng, [3, 5, 2])
    other = factories.dense_chain(rng, [3, 5, 2])
    xs = rng.standard_normal((6, 3))
    s_n = np.ones(5)
    mask = np.array([1, 0, 1, 0, 1])
    got = ware(orig, other, xs, s_n, mask)
    y = engine.batch_responses(orig, xs, 0)[:, [0, 2, 4]]
    yhat = engine.batch_responses(other, xs, 0)[:, [0, 2, 4]]
    want = (np.abs(yhat - y) / np.maximum(np.abs(y), 1e-12)).sum() / (6 * 3)
    assert got == pytest.approx(want)


def test_ware_validation_errors():
    rng = np.random.default_rng(9)
    net = factories.dense_chain(rng, [3, 4, 2])
    xs = rng.standard_normal((5, 3))
    with pytest.raises(ConfigError):
        ware(net, net, xs, np.ones(4), np.zeros(4))
    with pytest.raises(ShapeError):
        ware(net, net, xs, np.ones(3), np.ones(4))
    shrunk = factories.dense_chain(rng, [3, 3, 2])
    with pytest.raises(ShapeError):
        ware(net, shrunk, xs, np.ones(4), np.ones(4))  # 3 responses, 4 kept
    with pytest.raises(DataError):
        ware(net, net, np.zeros((0, 3)), np.ones(4), np.ones(4))
    resp = engine.batch_responses(net, xs, net.frl_index)
    assert ware_of_responses(resp, resp, np.ones(4), np.ones(4)) == 0.0
    with pytest.raises(ShapeError):
        ware_of_responses(resp, resp[:4], np.ones(4), np.ones(4))


# --- pruning error bound --------------------------------------------------------

def test_bound_keep_all_is_exactly_zero():
    rng = np.random.default_rng(11)
    net = factories.dense_chain(rng, [4, 6, 5, 3], activations=["ReLU", "ReLU", "Identity"])
    xs = rng.standard_normal((10, 4))
    report = verify_bound(net, xs, np.abs(rng.standard_normal(5)), np.ones(6), 0)
    assert report.lhs == 0.0
    assert report.rhs == 0.0
    assert report.holds


def test_bound_zero_importance_is_zero():
    rng = np.random.default_rng(13)
    net = factories.dense_chain(rng, [4, 6, 5, 3], activations=["ReLU", "ReLU", "Identity"])
    xs = rng.standard_normal((10, 4))
    report = verify_bound(net, xs, np.zeros(5), np.array([1, 0, 1, 0, 1, 0]), 0)
    assert report.lhs == 0.0
    assert report.rhs == 0.0
    assert report.holds


def test_bound_holds_on_random_relu_chains():
    rng = np.random.default_rng(17)
    for _ in range(25):
        widths = [int(v) for v in rng.integers(2, 9, size=int(rng.integers(4, 7)))]
        net = factories.dense_chain(rng, widths, activations=["ReLU"] * (len(widths) - 2) + ["Identity"])
        frl_width = widths[-2]
        xs = rng.standard_normal((10, widths[0]))
        s_n = np.abs(rng.standard_normal(frl_width))
        layer_id = int(rng.integers(0, net.frl_index))
        width = widths[layer_id + 1]
        mask = (rng.random(width) < 0.6).astype(float)
        report = verify_bound(net, xs, s_n, mask, layer_id)
        assert report.holds
        assert report.lhs >= 0.0
        assert report.rhs >= 0.0


def test_bound_holds_through_conv_avgpool_tail():
    rng = np.random.default_rng(19)
    g = Geometry(x=4, y=4, k=3, s=1, p=1, c_in=2, c_out=3)
    conv = factories.conv_layer(rng, g, activation="ReLU")
    pg = Geometry(x=4, y=2, k=2, s=2, p=0, c_in=3, c_out=3)
    pool = Layer(kind="Pool2D", geometry=pg, pool_mode="avg")
    frl = factories.dense_layer(rng, 5, 12, activation="Sigmoid")
    head = factories.dense_layer(rng, 3, 5)
    net = Network(layers=(conv, pool, frl, head), frl_index=2)
    xs = rng.standard_normal((8, 2, 4, 4))
    s_n = np.abs(rng.standard_normal(5))
    for layer_id, width in ((0, 48), (1, 12)):
        mask = (rng.random(width) < 0.5).astype(float)
        report = verify_bound(net, xs, s_n, mask, layer_id)
        assert report.holds


def test_bound_rhs_assembly_on_two_layer_tail():
    # single tail layer with tanh head: r = |W|^T s_n, C_sigma = 1 (identity
    # FRL activation), C_x from the hidden responses
    rng = np.random.default_rng(23)
    net = factories.dense_chain(rng, [3, 4, 2], activations=["Tanh", "Identity"])
    # widths: input 3, hidden 4 (frl), classifier 2 -- prune below the frl
    net = factories.dense_chain(rng, [3, 4, 4, 2], activations=["Tanh", "Identity", "Identity"])
    xs = rng.standard_normal((6, 3))
    s_n = np.abs(rng.standard_normal(4))
    mask = np.array([1.0, 0.0, 1.0, 0.0])
    report = verify_bound(net, xs, s_n, mask, 0)
    w = np.abs(net.layers[1].weights)
    r = w.T @ s_n
    assert report.r_vector == pytest.approx(r)
    resp = engine.batch_responses(net, xs, 0)
    c_x = np.abs(resp).sum(axis=0).max()
    assert report.c_x == pytest.approx(c_x)
    assert report.c_sigma_product == 1.0
    assert report.rhs == pytest.approx(c_x * float(r @ (1.0 - mask)))


def test_bound_rejects_nonchain_tails():
    rng = np.random.default_rng(29)
    g = Geometry(x=4, y=4, k=3, s=1, p=1, c_in=2, c_out=2)
    conv = factories.conv_layer(rng, g, activation="ReLU")
    pg = Geometry(x=4, y=2, k=2, s=2, p=0, c_in=2, c_out=2)
    maxpool = Layer(kind="Pool2D", geometry=pg, pool_mode="max")
    frl = factories.dense_layer(rng, 4, 8)
    net = Network(layers=(conv, maxpool, frl, factories.dense_layer(rng, 2, 4)), frl_index=2)
    xs = rng.standard_normal((4, 2, 4, 4))
    with pytest.raises(ConfigError, match="max-pooling"):
        verify_bound(net, xs, np.ones(4), np.ones(32), 0)

    lrn = factories.lrn_layer(rng, 2, 4)
    lnet = Network(
        layers=(conv, lrn, factories.dense_layer(rng, 4, 32), factories.dense_layer(rng, 2, 4)),
        frl_index=2,
    )
    with pytest.raises(ConfigError, match="LRN"):
        verify_bound(lnet, xs, np.ones(4), np.ones(32), 0)


def test_bound_rejects_skip_edges_in_tail():
    rng = np.random.default_rng(31)
    net = factories.skip_dense_net(rng)
    xs = rng.standard_normal((4, 6))
    with pytest.raises(ConfigError, match="skip edge"):
        verify_bound(net, xs, np.ones(6), np.ones(6), 0)


def test_bound_layer_range_and_shape_errors():
    rng = np.random.default_rng(37)
    net = factories.dense_chain(rng, [3, 5, 4, 2], activations=["ReLU", "ReLU", "Identity"])
    xs = rng.standard_normal((4, 3))
    with pytest.raises(ConfigError):
        verify_bound(net, xs, np.ones(4), np.ones(4), 2)  # the frl itself
    with pytest.raises(ConfigError):
        verify_bound(net, xs, np.ones(4), np.ones(5), -1)
    with pytest.raises(ShapeError):
        verify_bound(net, xs, np.ones(3), np.ones(5), 0)
    with pytest.raises(ShapeError):
        verify_bound(net, xs, np.ones(4), np.ones(4), 0)
    with pytest.raises(ShapeError):
        verify_bound(net, xs, -np.ones(4), np.ones(5), 0)
    with pytest.raises(ShapeError, match="finite and nonnegative"):
        verify_bound(net, xs, np.array([1.0, np.nan, 1.0, 1.0]), np.ones(5), 0)
    with pytest.raises(ConfigError, match="trace"):
        BoundContext(net, engine.batch_forward(net, xs, 0, 0), np.ones(4), 0)


def _geometry_on(rng, c_in, x, c_out):
    while True:
        k, s, p = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(0, 2))
        if x + 2 * p >= k:
            return Geometry(x=x, y=(x + 2 * p - k) // s + 1, k=k, s=s, p=p, c_in=c_in, c_out=c_out)


def _bound_chain(rng, first_tail):
    """Layer 0, a first tail layer of kind ``first_tail``, maybe an activation,
    then a dense FRL and a classifier; the bound is taken at layer 0."""

    def act():
        return str(rng.choice(factories.ACTS))

    if first_tail in ("Conv2D", "Pool2D") or rng.random() < 0.5:
        g = factories.random_conv_geometry(rng)
        layers = [factories.conv_layer(rng, g, act())]
        c, x = g.c_out, g.y
    else:
        c, x = int(rng.integers(2, 12)), 1
        layers = [factories.dense_layer(rng, c, int(rng.integers(2, 9)), act())]
    flat = c * x * x
    if first_tail == "Dense":
        first = factories.dense_layer(rng, int(rng.integers(2, 9)), flat, act())
        signed_zeros = rng.random(first.weights.shape) < 0.2
        first.weights[signed_zeros] = rng.choice([0.0, -0.0], size=int(signed_zeros.sum()))
        flat = first.weights.shape[0]
    elif first_tail in ("Conv2D", "Pool2D"):
        c_out = int(rng.integers(1, 4)) if first_tail == "Conv2D" else c
        g = _geometry_on(rng, c, x, c_out)
        if first_tail == "Conv2D":
            first = factories.conv_layer(rng, g, act())
        else:
            first = Layer(kind="Pool2D", geometry=g, pool_mode="avg")
        flat = c_out * g.y * g.y
    elif first_tail == "BatchNorm":
        first = factories.batchnorm_layer(rng, c)
    else:
        first = factories.activation_layer(rng)
    layers.append(first)
    if rng.random() < 0.5:
        layers.append(factories.activation_layer(rng))
    hidden = int(rng.integers(2, 7))
    layers += [factories.dense_layer(rng, hidden, flat, act()), factories.dense_layer(rng, 2, hidden)]
    net = Network(layers=tuple(layers), frl_index=len(layers) - 2)
    assert validate(net).ok
    return net


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["Dense", "Conv2D", "Pool2D", "BatchNorm", "Activation"]),
    st.sampled_from([1, 5, 70]),
)
@settings(max_examples=60, deadline=None)
def test_bound_context_matches_reference(seed, first_tail, samples):
    # Contexts with their own forward and with a given trace check masks that
    # keep nothing, everything and a random subset; every number must equal
    # the from-scratch reference exactly, with signed zeros in the inputs and
    # in a dense tail's weights.
    rng = np.random.default_rng(seed)
    net = _bound_chain(rng, first_tail)
    xs = rng.standard_normal((samples,) + input_shape(net))
    xs[rng.random(xs.shape) < 0.2] = -0.0
    xs[rng.random(xs.shape) < 0.2] = 0.0
    s_n = np.abs(rng.standard_normal(shape_size(output_shapes(net)[net.frl_index])))
    s_n[rng.random(s_n.shape) < 0.2] = 0.0
    width = shape_size(output_shapes(net)[0])
    own = BoundContext(net, engine.batch_forward(net, xs, 0, net.frl_index), s_n, 0)
    given_trace = BoundContext(net, engine.batch_forward(net, xs), s_n, 0)
    for mask in (np.zeros(width), np.ones(width), (rng.random(width) < 0.5).astype(float)):
        want = oracles.verify_bound_reference(net, xs, s_n, mask, 0)
        for got in (own.check(mask), given_trace.check(mask), verify_bound(net, xs, s_n, mask, 0)):
            assert got.lhs == want.lhs
            assert got.rhs == want.rhs
            assert got.c_x == want.c_x
            assert got.c_sigma_product == want.c_sigma_product
            assert np.array_equal(got.r_vector, want.r_vector)
            assert got.holds == want.holds


@given(st.integers(0, 2**32 - 1), st.sampled_from(["Conv2D", "Pool2D"]))
@settings(max_examples=60, deadline=None)
def test_bound_r_matches_the_explicit_matrix_chain(seed, first_tail):
    # The loop rules sum in another order than s @ BP, so r agrees with the
    # chain of explicit matrices to rounding, not bit for bit.
    rng = np.random.default_rng(seed)
    net = _bound_chain(rng, first_tail)
    xs = rng.standard_normal((3,) + input_shape(net))
    s_n = np.abs(rng.standard_normal(shape_size(output_shapes(net)[net.frl_index])))
    ctx = BoundContext(net, engine.batch_forward(net, xs, 0, net.frl_index), s_n, 0)
    want = s_n
    for layer in net.layers[net.frl_index : 0 : -1]:
        if layer.kind != "Activation":
            want = want @ oracles.bp_matrix_loop(layer)
    np.testing.assert_allclose(ctx.r, want, rtol=1e-12, atol=0.0)


def _prunable_chain(rng):
    """A random chain of dense, conv, average-pool, batch-norm and activation
    layers, then a dense FRL and a classifier."""

    def act():
        return str(rng.choice(factories.ACTS))

    spatial = rng.random() < 0.7
    if spatial:
        g = factories.random_conv_geometry(rng)
        layers = [factories.conv_layer(rng, g, act())]
        c, x = g.c_out, g.y
    else:
        c, x = int(rng.integers(2, 9)), 1
        layers = [factories.dense_layer(rng, c, int(rng.integers(2, 9)), act())]
    for _ in range(int(rng.integers(1, 5))):
        kind = rng.choice(["Dense", "BatchNorm", "Activation"] + (["Conv2D", "Pool2D"] if spatial else []))
        if kind == "Dense":
            layers.append(factories.dense_layer(rng, int(rng.integers(2, 9)), c * x * x, act()))
            c, x, spatial = layers[-1].weights.shape[0], 1, False
        elif kind in ("Conv2D", "Pool2D"):
            g = _geometry_on(rng, c, x, int(rng.integers(1, 5)) if kind == "Conv2D" else c)
            if kind == "Conv2D":
                layers.append(factories.conv_layer(rng, g, act()))
            else:
                layers.append(Layer(kind="Pool2D", geometry=g, pool_mode="avg"))
            c, x = g.c_out, g.y
        elif kind == "BatchNorm":
            layers.append(factories.batchnorm_layer(rng, c))
        else:
            layers.append(factories.activation_layer(rng))
    hidden = int(rng.integers(2, 7))
    layers += [factories.dense_layer(rng, hidden, c * x * x, act()), factories.dense_layer(rng, 2, hidden)]
    net = Network(layers=tuple(layers), frl_index=len(layers) - 2)
    assert validate(net).ok
    return net


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_nisp_mask_minimises_the_bound_it_verifies(seed):
    # The bound's right side sums r over the dropped units, and r is NISP's
    # importance with every unit kept, so NISP's keep set has the least right
    # side of all keep sets of its size: the top of r, or for a conv layer
    # the channels with the largest sums of r.
    rng = np.random.default_rng(seed)
    net = _prunable_chain(rng)
    layer_id = int(rng.choice([i for i in range(net.frl_index) if net.layers[i].kind in ("Dense", "Conv2D")]))
    xs = rng.standard_normal((3,) + input_shape(net))
    s_n = np.abs(rng.standard_normal(shape_size(output_shapes(net)[net.frl_index])))
    plan = nisp_backward(net, s_n, PruneConfig(ratios={layer_id: float(rng.uniform(0.1, 0.9))}))
    ctx = BoundContext(net, engine.batch_forward(net, xs, 0, net.frl_index), s_n, layer_id)
    nisp = plan.mask(layer_id).astype(float)
    layer = net.layers[layer_id]
    if layer.kind == "Conv2D":
        g = layer.geometry
        per_channel = ctx.r.reshape(g.c_out, -1).sum(axis=1)
        best = np.zeros(g.c_out)
        best[np.argsort(-per_channel, kind="stable")[: int(nisp.sum()) // (g.y * g.y)]] = 1.0
        best = np.repeat(best, g.y * g.y)
    else:
        best = np.zeros(ctx.width)
        best[np.argsort(-ctx.r, kind="stable")[: int(nisp.sum())]] = 1.0
    assert ctx.check(nisp).rhs <= ctx.check(best).rhs * (1.0 + 1e-12)


def test_bound_context_on_a_wide_conv_tail_stays_small():
    # As an explicit matrix, the 64->64 conv's propagation would take 34 GB.
    rng = np.random.default_rng(89)
    net = factories.wide_conv_net(rng)
    trace = engine.batch_forward(net, rng.standard_normal((2, 1, 32, 32)), 0, net.frl_index)
    s_n = np.abs(rng.standard_normal(3))
    tracemalloc.start()
    try:
        ctx = BoundContext(net, trace, s_n, 0)
        report = ctx.check(np.repeat((rng.random(64) < 0.5).astype(float), 32 * 32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert report.holds and report.lhs > 0.0


# --- operation and parameter counts ---------------------------------------------

def test_cost_dense_example():
    net = one_dense(np.ones((5, 10)))
    report = count_cost(net)
    assert report.flops == [100]
    assert report.params == [55]
    assert report.total_flops == 100
    assert report.total_params == 55


def test_cost_conv_channel_halving_is_exactly_4x():
    rng = np.random.default_rng(41)
    g = Geometry(x=6, y=6, k=3, s=1, p=1, c_in=4, c_out=8)
    conv = factories.conv_layer(rng, g)
    dense = factories.dense_layer(rng, 2, 8 * 36)
    net = Network(layers=(conv, dense), frl_index=0)
    report = count_cost(net)
    assert report.flops[0] == 2 * 9 * 4 * 8 * 36

    half_g = Geometry(x=6, y=6, k=3, s=1, p=1, c_in=2, c_out=4)
    half = Network(
        layers=(factories.conv_layer(rng, half_g), factories.dense_layer(rng, 2, 4 * 36)),
        frl_index=0,
    )
    half_report = count_cost(half)
    assert report.flops[0] == 4 * half_report.flops[0]
    assert report.flops[0] % half_report.flops[0] == 0


def test_cost_reductions_against_reference():
    rng = np.random.default_rng(43)
    net = factories.dense_chain(rng, [4, 10, 3])
    self_report = count_cost(net, reference=net)
    assert self_report.flops_reduction_pct == 0.0
    assert self_report.params_reduction_pct == 0.0

    plan = random_plan(net, PruneConfig(ratios={0: 0.5}), seed=1)
    pruned, _ = apply_plan(net, plan)
    report = count_cost(pruned, reference=net)
    assert report.flops_reduction_pct > 0.0
    assert report.params_reduction_pct > 0.0
    want = 100.0 * (1.0 - report.total_flops / count_cost(net).total_flops)
    assert report.flops_reduction_pct == pytest.approx(want)


def test_cost_per_element_kinds():
    rng = np.random.default_rng(47)
    g = Geometry(x=4, y=4, k=3, s=1, p=1, c_in=2, c_out=3)
    conv = factories.conv_layer(rng, g, activation="ReLU")
    bn = factories.batchnorm_layer(rng, 3)
    pg = Geometry(x=4, y=2, k=2, s=2, p=0, c_in=3, c_out=3)
    pool = Layer(kind="Pool2D", geometry=pg, pool_mode="max")
    act = Layer(kind="Activation", activation="Tanh")
    frl = factories.dense_layer(rng, 5, 12)
    net = Network(layers=(conv, bn, pool, act, frl, factories.dense_layer(rng, 2, 5)), frl_index=4)
    report = count_cost(net)
    assert report.flops[1] == 2 * 48  # batch-norm: scale and shift per element
    assert report.flops[2] == 12     # pooling: one op per output element
    assert report.flops[3] == 12     # activation likewise
    assert report.params[1] == 6
    assert report.params[2] == 0
    assert report.total_flops == sum(report.flops)


def test_cost_lrn_counts_outputs():
    rng = np.random.default_rng(53)
    g = Geometry(x=3, y=3, k=3, s=1, p=1, c_in=2, c_out=2)
    conv = factories.conv_layer(rng, g)
    lrn = factories.lrn_layer(rng, 2, 3)
    frl = factories.dense_layer(rng, 4, 18)
    net = Network(layers=(conv, lrn, frl, factories.dense_layer(rng, 2, 4)), frl_index=2)
    assert count_cost(net).flops[1] == 18


# --- principal component energy -------------------------------------------------

def test_pca_single_direction():
    rng = np.random.default_rng(59)
    direction = np.array([1.0, 2.0, -1.0])
    resp = np.outer(rng.standard_normal(30), direction)
    result = pca_energy(resp, 0.95)
    assert result.n_components == 1
    assert not result.degenerate


def test_pca_isotropic_two_features():
    resp = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    result = pca_energy(resp, 0.95)
    assert result.n_components == 2
    assert pca_energy(resp, 0.5).n_components == 1


def test_pca_matches_svd_oracle():
    rng = np.random.default_rng(61)
    for _ in range(20):
        m = int(rng.integers(3, 30))
        n = int(rng.integers(2, 10))
        resp = rng.standard_normal((m, n)) * rng.uniform(0.1, 5.0, size=n)
        for threshold in (0.25, 0.5, 0.9, 0.99, 1.0):
            got = pca_energy(resp, threshold)
            assert got.n_components == oracles.svd_components(resp, threshold)
            assert not got.degenerate


def test_pca_monotone_in_threshold():
    rng = np.random.default_rng(67)
    resp = rng.standard_normal((40, 8))
    counts = [pca_energy(resp, t).n_components for t in (0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1.0)]
    assert counts == sorted(counts)


def test_pca_degenerate_and_validation():
    constant = np.full((5, 3), 2.5)
    result = pca_energy(constant, 0.95)
    assert result.n_components == 0
    assert result.degenerate

    with pytest.raises(ConfigError):
        pca_energy(np.zeros((5, 3)), 0.0)
    with pytest.raises(ConfigError):
        pca_energy(np.zeros((5, 3)), 1.5)
    with pytest.raises(DataError):
        pca_energy(np.zeros((1, 3)), 0.5)
    with pytest.raises(DataError):
        pca_energy(np.zeros(5), 0.5)
    with pytest.raises(DataError):
        pca_energy(np.array([[np.inf, 1.0], [0.0, 1.0]]), 0.5)


def test_pca_on_trained_style_responses():
    rng = np.random.default_rng(71)
    net = make_mlp([6, 12, 4], seed=3)
    xs = rng.standard_normal((50, 6))
    resp = engine.batch_responses(net, xs, net.frl_index)
    full = pca_energy(resp, 1.0)
    assert 1 <= full.n_components <= 12
