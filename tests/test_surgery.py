from dataclasses import replace

import numpy as np
import pytest

import factories
import oracles
from nisprune import engine
from nisprune.errors import ConfigError, DataError, ShapeError
from nisprune.model import (
    Geometry,
    Layer,
    Network,
    input_shape,
    layer_params,
    prunable_layer_ids,
    save_model,
    validate,
)
from nisprune.propagation import ImportancePlan, PlanEntry, PruneConfig, nisp_backward, plan_to_json
from nisprune.ranking import magnitude_scores
from nisprune.surgery import (
    apply_plan,
    effective_masks,
    lbl_plan,
    magnitude_plan,
    nisp_plan,
    random_plan,
)


def keep_all_plan(net):
    width = net.layers[net.frl_index].weights.shape[0]
    return nisp_backward(net, np.ones(width), PruneConfig())


def manual_plan(entries):
    return ImportancePlan(entries={e.layer_id: e for e in entries})


# --- structural surgery -------------------------------------------------------

def test_keep_all_plan_is_serialized_identity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        net = factories.random_mixed_net(rng)
        pruned, report = apply_plan(net, keep_all_plan(net))
        assert save_model(pruned) == save_model(net)
        assert report.params_before == report.params_after
        for _, kept, removed, _, _ in report.rows:
            assert removed == 0


def test_two_wide_dense_mask_drops_a_unit():
    rng = np.random.default_rng(5)
    net = factories.dense_chain(rng, [3, 2, 2], activations=["ReLU", "Identity"])
    plan = manual_plan([PlanEntry(0, np.array([2.0, 1.0]), np.array([1, 0], dtype=np.uint8))])
    pruned, report = apply_plan(net, plan)
    assert pruned.layers[0].weights.shape == (1, 3)
    assert pruned.layers[1].weights.shape == (2, 1)
    assert report.rows[0][1:3] == (1, 1)

    x = rng.standard_normal(3)
    masks = effective_masks(net, plan)
    want = oracles.masked_forward(net, x, masks)[-1]
    assert np.array_equal(engine.forward(pruned, x)[-1], want)


def test_conv_channel_shrink_bookkeeping():
    rng = np.random.default_rng(7)
    g = factories.random_conv_geometry(rng)
    g = Geometry(x=g.x, y=g.y, k=g.k, s=g.s, p=g.p, c_in=g.c_in, c_out=4)
    conv = factories.conv_layer(rng, g, activation="ReLU")
    flat = 4 * g.y * g.y
    frl = factories.dense_layer(rng, 5, flat)
    net = Network(layers=(conv, frl, factories.dense_layer(rng, 3, 5)), frl_index=1)

    mask = np.repeat(np.array([1, 0, 1, 0], dtype=np.uint8), g.y * g.y)
    plan = manual_plan(
        [
            PlanEntry(0, mask.astype(float), mask, channel_scores=np.array([3.0, 0.0, 2.0, 0.0])),
            PlanEntry(1, np.ones(5), np.ones(5, dtype=np.uint8)),
        ]
    )
    pruned, _ = apply_plan(net, plan)
    assert pruned.layers[0].geometry.c_out == 2
    assert pruned.layers[0].weights.shape == (g.k, g.k, g.c_in, 2)
    assert pruned.layers[1].weights.shape == (5, 2 * g.y * g.y)
    assert validate(pruned).ok

    x = rng.standard_normal((g.c_in, g.x, g.x))
    want = oracles.masked_forward(net, x, effective_masks(net, plan))[-1]
    assert np.array_equal(engine.forward(pruned, x)[-1], want)


def test_masked_forward_equality_on_random_nets():
    rng = np.random.default_rng(11)
    for _ in range(15):
        net = factories.random_mixed_net(rng, with_lrn=False)
        cfg = PruneConfig(ratios={i: 0.5 for i in (0, net.frl_index)})
        plan = random_plan(net, cfg, seed=int(rng.integers(1 << 30)))
        pruned, _ = apply_plan(net, plan)
        masks = effective_masks(net, plan)
        for _ in range(5):
            x = factories.random_input(rng, net)
            want = oracles.masked_forward(net, x, masks)[-1]
            assert np.array_equal(engine.forward(pruned, x)[-1], want)


def test_skip_net_surgery_keeps_shared_mask_and_equality():
    rng = np.random.default_rng(13)
    net = factories.skip_dense_net(rng)
    xs = rng.standard_normal((20, 6))
    plan = nisp_plan(net, engine.batch_forward(net, xs, 0, net.frl_index), PruneConfig(ratios={1: 0.5}))
    assert np.array_equal(plan.mask(0), plan.mask(1))
    pruned, _ = apply_plan(net, plan)
    assert pruned.layers[0].weights.shape[0] == 3
    masks = effective_masks(net, plan)
    for _ in range(5):
        x = rng.standard_normal(6)
        want = oracles.masked_forward(net, x, masks)[-1]
        assert np.array_equal(engine.forward(pruned, x)[-1], want)


def test_lrn_over_gapped_channels_matches_removal_not_zeroing():
    # Dropping conv channels 1 and 3 of 0..4 makes 0, 2 and 4 LRN neighbours
    # in the pruned net, so its FRL is the original's with channels 1 and 3
    # removed before the LRN, not merely zeroed.
    rng = np.random.default_rng(61)
    g = Geometry(x=4, y=4, k=3, s=1, p=1, c_in=2, c_out=5)
    lrn = Layer(kind="LRN", geometry=Geometry(x=4, y=4, k=1, s=1, p=0, c_in=5, c_out=5), lrn_local_size=3)
    net = Network(
        layers=(factories.conv_layer(rng, g, "Tanh"), lrn, factories.dense_layer(rng, 6, 80, "ReLU"),
                factories.dense_layer(rng, 3, 6)),
        frl_index=2,
    )
    kept = np.array([0, 2, 4])
    conv_mask = np.repeat(np.isin(np.arange(5), kept), 16).astype(np.uint8)
    plan = manual_plan([
        PlanEntry(0, conv_mask.astype(float), conv_mask, np.isin(np.arange(5), kept).astype(float)),
        PlanEntry(2, np.ones(6), np.ones(6, dtype=np.uint8)),
    ])
    pruned, _ = apply_plan(net, plan)

    lrn_kept = replace(lrn, geometry=replace(lrn.geometry, c_in=3, c_out=3))
    kept_cols = np.flatnonzero(conv_mask)
    zeroed_differs = 0
    for _ in range(20):
        x = rng.standard_normal((2, 4, 4))
        conv_out = engine.layer_forward(net.layers[0], x)
        removed = engine.layer_forward(lrn_kept, conv_out[kept])
        frl = replace(net.layers[2], weights=net.layers[2].weights[:, kept_cols])
        want = engine.layer_forward(frl, removed)
        got = engine.forward(pruned, x)[3]
        assert got.tobytes() == want.tobytes()
        zeroed = oracles.masked_forward(net, x, effective_masks(net, plan))[3]
        zeroed_differs += not np.array_equal(got, zeroed)
    assert zeroed_differs > 0


def test_skip_edge_mask_mismatch_is_rejected():
    rng = np.random.default_rng(17)
    net = factories.skip_dense_net(rng)
    plan = manual_plan(
        [
            PlanEntry(0, np.ones(6), np.array([1, 1, 1, 0, 0, 0], dtype=np.uint8)),
            PlanEntry(1, np.ones(6), np.array([0, 0, 0, 1, 1, 1], dtype=np.uint8)),
        ]
    )
    with pytest.raises(ConfigError, match="keeping different units"):
        apply_plan(net, plan)


def test_report_row_arithmetic():
    rng = np.random.default_rng(19)
    net = factories.dense_chain(rng, [6, 10, 8, 4], activations=["ReLU", "ReLU", "Identity"])
    plan = nisp_backward(net, np.abs(rng.standard_normal(8)), PruneConfig(ratios={0: 0.5, 1: 0.5}))
    pruned, report = apply_plan(net, plan)

    assert [r[0] for r in report.rows] == [0, 1, 2]
    for i, (layer_id, kept, removed, before, after) in enumerate(report.rows):
        assert before == layer_params(net.layers[i])
        assert after == layer_params(pruned.layers[i])
    # dense params drop from out*in+out to kept_out*kept_in+kept_out
    assert report.rows[0][3:] == (10 * 6 + 10, 5 * 6 + 5)
    assert report.rows[1][3:] == (8 * 10 + 8, 4 * 5 + 4)
    assert report.rows[2][3:] == (4 * 8 + 4, 4 * 4 + 4)
    assert report.params_before == sum(r[3] for r in report.rows)
    assert report.params_after == sum(r[4] for r in report.rows)

    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "layer_id,kept,removed,params_before,params_after"
    assert lines[1] == "0,5,5,70,35"
    assert len(lines) == 4


def test_plan_validation_errors():
    rng = np.random.default_rng(23)
    net = factories.dense_chain(rng, [4, 6, 5, 3], activations=["ReLU", "ReLU", "Identity"])
    with pytest.raises(ShapeError, match="missing"):
        apply_plan(net, manual_plan([PlanEntry(0, np.ones(6), np.ones(6, dtype=np.uint8))]))
    bad_len = manual_plan(
        [
            PlanEntry(0, np.ones(4), np.ones(4, dtype=np.uint8)),
            PlanEntry(1, np.ones(5), np.ones(5, dtype=np.uint8)),
        ]
    )
    with pytest.raises(ShapeError, match="mask for layer 0"):
        apply_plan(net, bad_len)
    outside = manual_plan(
        [
            PlanEntry(0, np.ones(6), np.ones(6, dtype=np.uint8)),
            PlanEntry(1, np.ones(5), np.ones(5, dtype=np.uint8)),
            PlanEntry(2, np.ones(3), np.ones(3, dtype=np.uint8)),
        ]
    )
    with pytest.raises(ShapeError, match="outside the prunable range"):
        apply_plan(net, outside)


def test_unknown_layer_kind_is_a_shape_error():
    # Both walks take the network's shapes first, which rejects the kind
    # before any per-kind rule could meet it.
    rng = np.random.default_rng(31)
    net = Network(
        layers=(factories.dense_layer(rng, 5, 4), Layer(kind="Softmax"), factories.dense_layer(rng, 3, 5)),
        frl_index=0,
    )
    plan = manual_plan([PlanEntry(0, np.ones(5), np.ones(5, dtype=np.uint8))])
    with pytest.raises(ShapeError, match="unknown layer kind 'Softmax'"):
        apply_plan(net, plan)
    with pytest.raises(ShapeError, match="unknown layer kind 'Softmax'"):
        nisp_backward(net, np.ones(5), PruneConfig())


def test_conv_mask_must_be_channel_constant():
    rng = np.random.default_rng(29)
    g = Geometry(x=2, y=2, k=1, s=1, p=0, c_in=1, c_out=2)
    conv = factories.conv_layer(rng, g)
    net = Network(layers=(conv, factories.dense_layer(rng, 2, 8)), frl_index=0)
    ragged = np.array([1, 1, 1, 0, 1, 1, 1, 1], dtype=np.uint8)
    plan = manual_plan([PlanEntry(0, ragged.astype(float), ragged)])
    with pytest.raises(ShapeError, match="whole channels"):
        apply_plan(net, plan)


def test_effective_masks_inheritance():
    rng = np.random.default_rng(31)
    g = Geometry(x=4, y=4, k=3, s=1, p=1, c_in=2, c_out=3)
    conv = factories.conv_layer(rng, g, activation="ReLU")
    pool_g = Geometry(x=4, y=2, k=2, s=2, p=0, c_in=3, c_out=3)
    pool = Layer(kind="Pool2D", geometry=pool_g, pool_mode="max")
    bn = factories.batchnorm_layer(rng, 3)
    frl = factories.dense_layer(rng, 6, 12, activation="Tanh")
    head = factories.dense_layer(rng, 3, 6)
    net = Network(layers=(conv, bn, pool, frl, head), frl_index=3)

    ch_mask = np.array([1, 0, 1], dtype=np.uint8)
    conv_mask = np.repeat(ch_mask, 16)
    frl_mask = np.array([1, 1, 0, 0, 1, 1], dtype=np.uint8)
    plan = manual_plan(
        [
            PlanEntry(0, conv_mask.astype(float), conv_mask, channel_scores=ch_mask.astype(float)),
            PlanEntry(3, frl_mask.astype(float), frl_mask),
        ]
    )
    masks = effective_masks(net, plan)
    assert np.array_equal(masks[0], conv_mask)
    assert np.array_equal(masks[1], conv_mask)  # batch-norm follows its input
    assert np.array_equal(masks[2], np.repeat(ch_mask, 4))  # pooled map keeps channels
    assert np.array_equal(masks[3], frl_mask)
    assert np.array_equal(masks[4], np.ones(3, dtype=np.uint8))  # classifier untouched


# --- plan builders -------------------------------------------------------------

def test_random_plan_determinism_and_recorded_vectors():
    rng = np.random.default_rng(37)
    net = factories.dense_chain(rng, [4, 10, 3])
    cfg = PruneConfig(ratios={0: 0.5})
    a = random_plan(net, cfg, seed=99)
    b = random_plan(net, cfg, seed=99)
    assert np.array_equal(a.mask(0), b.mask(0))
    assert a.mask(0).sum() == 5
    assert np.array_equal(a.scores(0), a.mask(0).astype(float))

    c = random_plan(net, PruneConfig(), seed=4)
    assert c.mask(0).all()


def test_random_plan_conv_mask_and_channel_scores():
    rng = np.random.default_rng(41)
    g = Geometry(x=3, y=3, k=1, s=1, p=0, c_in=1, c_out=4)
    conv = factories.conv_layer(rng, g)
    net = Network(layers=(conv, factories.dense_layer(rng, 2, 36)), frl_index=0)
    plan = random_plan(net, PruneConfig(ratios={0: 0.5}), seed=8)
    entry = plan.entries[0]
    per = entry.mask.reshape(4, 9)
    assert (per == per[:, :1]).all()
    assert per[:, 0].sum() == 2
    assert np.array_equal(entry.channel_scores, per[:, 0].astype(float))
    pruned, _ = apply_plan(net, plan)
    assert pruned.layers[0].geometry.c_out == 2


def test_random_plan_keep_sets_are_uniform():
    rng = np.random.default_rng(43)
    net = factories.dense_chain(rng, [4, 10, 3])
    cfg = PruneConfig(ratios={0: 0.5})
    counts = np.zeros(10)
    trials = 10_000
    for seed in range(trials):
        counts += random_plan(net, cfg, seed).mask(0)
    freq = counts / trials
    assert np.all(np.abs(freq - 0.5) <= 0.02)


def test_magnitude_plan_is_backward_pass_over_weight_mass():
    rng = np.random.default_rng(47)
    net = factories.dense_chain(rng, [5, 9, 7, 3], activations=["ReLU", "ReLU", "Identity"])
    cfg = PruneConfig(ratios={0: 0.5, 1: 0.5})
    plan = magnitude_plan(net, cfg)
    want = nisp_backward(net, magnitude_scores(net, net.frl_index), cfg)
    for layer_id in want.entries:
        assert np.array_equal(plan.mask(layer_id), want.mask(layer_id))
        assert np.array_equal(plan.scores(layer_id), want.scores(layer_id))


def test_magnitude_keeps_dead_heavy_neuron_that_inffs_drops():
    rng = np.random.default_rng(53)
    w0 = rng.standard_normal((4, 3))
    w0[0] = [50.0, 50.0, 50.0]
    b0 = np.zeros(4)
    b0[0] = -1e4  # relu never fires: constant zero response with huge weights
    layers = (
        Layer(kind="Dense", weights=w0, bias=b0, activation="ReLU"),
        factories.dense_layer(rng, 2, 4),
    )
    net = Network(layers=layers, frl_index=0)
    data = rng.standard_normal((40, 3))
    cfg = PruneConfig(ratios={0: 0.5})

    mag = magnitude_plan(net, cfg)
    # alpha=1 ranks on response spread alone; a frozen unit has none
    inffs = nisp_plan(net, engine.batch_forward(net, data, 0, net.frl_index), cfg, alpha=1.0)
    assert mag.mask(0)[0] == 1
    assert inffs.mask(0)[0] == 0
    assert not np.array_equal(mag.mask(0), inffs.mask(0))


def test_lbl_equals_nisp_when_only_the_frl_is_prunable():
    rng = np.random.default_rng(59)
    net = factories.dense_chain(rng, [4, 8, 3], activations=["Tanh", "Identity"])
    data = rng.standard_normal((30, 4))
    cfg = PruneConfig(ratios={0: 0.5})
    trace = engine.batch_forward(net, data, 0, net.frl_index)
    a = lbl_plan(net, trace, cfg)
    b = nisp_plan(net, trace, cfg)
    assert np.array_equal(a.mask(0), b.mask(0))
    assert a.scores(0) == pytest.approx(b.scores(0))


def test_lbl_differs_from_nisp_on_a_deep_net():
    rng = np.random.default_rng(61)
    net = factories.dense_chain(rng, [5, 12, 10, 8, 4], activations=["Tanh", "Tanh", "Tanh", "Identity"])
    data = rng.standard_normal((60, 5))
    cfg = PruneConfig(ratios={0: 0.5, 1: 0.5, 2: 0.5})
    trace = engine.batch_forward(net, data, 0, net.frl_index)
    a = lbl_plan(net, trace, cfg)
    b = nisp_plan(net, trace, cfg)
    assert any(not np.array_equal(a.mask(i), b.mask(i)) for i in (0, 1, 2))


def test_lbl_keep_all_masks_are_ones():
    rng = np.random.default_rng(67)
    net = factories.dense_chain(rng, [4, 7, 5, 3])
    plan = lbl_plan(net, engine.batch_forward(net, rng.standard_normal((25, 4)), 0, net.frl_index), PruneConfig())
    assert all(plan.mask(i).all() for i in plan.entries)


def test_plan_builders_respect_ratio_validation():
    rng = np.random.default_rng(71)
    net = factories.dense_chain(rng, [4, 7, 3])
    trace = engine.batch_forward(net, rng.standard_normal((10, 4)), 0, net.frl_index)
    for build in (
        lambda: nisp_plan(net, trace, PruneConfig(ratios={5: 0.5})),
        lambda: magnitude_plan(net, PruneConfig(ratios={0: 2.0})),
        lambda: lbl_plan(net, trace, PruneConfig(ratios={1: 0.5})),
        lambda: random_plan(net, PruneConfig(ratios={-1: 0.5}), seed=0),
    ):
        with pytest.raises(ConfigError):
            build()


def test_plans_from_a_given_trace_match_their_own_forward():
    # A full trace past the FRL, as compare shares it, must give nisp and lbl
    # the same plan bytes or the same error as a trace that stops at the FRL.
    def outcome(build):
        try:
            return plan_to_json(build())
        except (ConfigError, DataError, ShapeError) as err:
            return type(err), str(err)

    rng = np.random.default_rng(73)
    nets = [factories.skip_dense_net(rng), factories.dense_chain(rng, [5, 9, 7, 3])]
    nets += [factories.random_mixed_net(rng, with_skip=True) for _ in range(8)]
    for net in nets:
        xs = rng.standard_normal((12,) + input_shape(net))
        sources = {src for src, _ in net.skip_edges}
        cfg = PruneConfig(ratios={i: 0.5 for i in prunable_layer_ids(net) if i not in sources})
        to_frl, full = engine.batch_forward(net, xs, 0, net.frl_index), engine.batch_forward(net, xs)
        for build in (nisp_plan, lbl_plan):
            want = outcome(lambda: build(net, to_frl, cfg))
            assert outcome(lambda: build(net, full, cfg)) == want
