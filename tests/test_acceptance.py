"""Headline checks for the whole toolkit.

Each test here covers one end-to-end claim: the closed form matches the
backward pass, the spatial rules agree with explicit matrices and brute
enumeration, the pruning bound never breaks under fuzzing, and the two
desk-scale experiments show guided pruning ahead of its baselines. Every
test appends a verdict to RESULTS so the run summary prints one line per
check (see conftest.py).
"""

import functools
import time
from dataclasses import replace

import numpy as np

import factories
import oracles
from nisprune import engine
from nisprune.model import Geometry, Layer, Network
from nisprune.propagation import (
    PruneConfig,
    nisp_backward,
    propagate_conv,
    propagate_lrn,
    propagate_pool,
)
from nisprune.ranking import AffinityGraph, build_affinity, inffs_scores, spectral_radius
from nisprune.surgery import apply_plan, effective_masks, lbl_plan, nisp_plan, random_plan
from nisprune.analysis import count_cost, verify_bound, ware
from nisprune.trainer import (
    SynthSpec,
    TrainConfig,
    finetune,
    loss_and_grads,
    make_mlp,
    synth_dataset,
    train,
)

RESULTS = []


def criterion(name):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                ok, detail = fn()
            except BaseException as e:
                RESULTS.append((name, False, "crashed: %r" % (e,)))
                raise
            RESULTS.append((name, bool(ok), detail))
            assert ok, "%s: %s" % (name, detail)

        return run

    return wrap


@criterion("closed-form equivalence")
def test_keep_all_backward_matches_closed_form():
    """100 random dense nets: per-layer backward scores equal the closed form."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        net = factories.random_dense_net(rng)
        s_n = np.abs(rng.standard_normal(net.layers[net.frl_index].weights.shape[0]))
        plan = nisp_backward(net, s_n, PruneConfig())
        for layer_id in range(net.frl_index + 1):
            want = oracles.importance_closed_form(net, s_n, layer_id)
            got = plan.scores(layer_id)
            scale = max(np.max(np.abs(want)), 1.0)
            worst = max(worst, np.max(np.abs(got - want)) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    return ok, "max rel diff %.2e over 100 nets, %.1fs" % (worst, elapsed)


@criterion("spatial rule triple agreement")
def test_spatial_rules_agree_with_matrices_and_enumeration():
    """Conv, pool, and LRN rules vs their explicit matrices and brute force."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        g = factories.random_conv_geometry(rng)
        kernel = rng.standard_normal((g.k, g.k, g.c_in, g.c_out))
        s_out = np.abs(rng.standard_normal((g.c_out, g.y, g.y)))
        got = propagate_conv(kernel, g, s_out)
        via = (s_out.ravel() @ oracles.bp_conv_matrix_loop(kernel, g)).reshape(g.c_in, g.x, g.x)
        brute = oracles.conv_importance_brute(kernel, g, s_out)
        worst = max(worst, np.max(np.abs(got - via)), np.max(np.abs(got - brute)))

        pg = factories.random_pool_geometry(rng, g.c_in)
        s_out = np.abs(rng.standard_normal((pg.c_out, pg.y, pg.y)))
        got = propagate_pool(pg, s_out)
        via = (s_out.ravel() @ oracles.bp_pool_matrix_loop(pg)).reshape(pg.c_in, pg.x, pg.x)
        brute = oracles.pool_importance_brute(pg, s_out)
        worst = max(worst, np.max(np.abs(got - via)), np.max(np.abs(got - brute)))

        channels = int(rng.integers(1, 4))
        local = int(rng.choice([1, 3]))
        x = int(rng.integers(1, 4))
        lg = Geometry(x=x, y=x, k=1, s=1, p=0, c_in=channels, c_out=channels)
        s_out = np.abs(rng.standard_normal((channels, x, x)))
        got = propagate_lrn(local, s_out)
        via = (s_out.ravel() @ oracles.bp_lrn_matrix_loop(local, lg)).reshape(channels, x, x)
        brute = oracles.lrn_importance_brute(local, s_out)
        worst = max(worst, np.max(np.abs(got - via)), np.max(np.abs(got - brute)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    return ok, "max abs diff %.2e over 50 geometries, %.1fs" % (worst, elapsed)


@criterion("bound soundness fuzz")
def test_bound_holds_under_mask_fuzz():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    acts = ["ReLU", "Sigmoid", "Tanh"]
    held = 0
    trials = 0
    for _ in range(100):
        widths = [int(v) for v in rng.integers(2, 9, size=int(rng.integers(4, 7)))]
        hidden = [str(rng.choice(acts)) for _ in range(len(widths) - 2)]
        net = factories.dense_chain(rng, widths, activations=hidden + ["Identity"])
        xs = rng.standard_normal((20, widths[0]))
        s_n = np.abs(rng.standard_normal(widths[-2]))
        for _ in range(10):
            layer_id = int(rng.integers(0, net.frl_index))
            mask = (rng.random(widths[layer_id + 1]) < 0.6).astype(float)
            report = verify_bound(net, xs, s_n, mask, layer_id)
            trials += 1
            held += bool(report.holds)
    elapsed = time.perf_counter() - t0
    ok = held == trials == 1000 and elapsed < 30.0
    return ok, "%d/%d trials held, %.1fs" % (held, trials, elapsed)


@criterion("gradient check")
def test_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(109)
    worst = 0.0
    for trial in range(20):
        dims = [int(v) for v in rng.integers(2, 7, size=4)]
        act = ["ReLU", "Tanh", "Sigmoid"][trial % 3]
        net = make_mlp(dims, seed=trial, hidden_activation=act)
        # fresh mlps carry zero biases; dead relu inputs would then sit exactly
        # on the kink, where central differences disagree with any one-sided
        # gradient, so give every unit a small positive bias first
        layers = tuple(
            replace(l, bias=0.1 + 0.1 * rng.random(l.bias.shape[0])) for l in net.layers
        )
        net = Network(layers=layers, frl_index=net.frl_index)
        xs = rng.standard_normal((6, dims[0]))
        ys = rng.integers(0, dims[-1], size=6)
        _, grads = loss_and_grads(net, xs, ys)
        numeric = oracles.finite_diff_grads(net, xs, ys)
        for layer_id, (dw, db) in grads.items():
            nw, nb = numeric[layer_id]
            worst = max(worst, np.max(np.abs(dw - nw)) / max(np.max(np.abs(nw)), 1e-8))
            worst = max(worst, np.max(np.abs(db - nb)) / max(np.max(np.abs(nb)), 1e-8))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 5.0
    return ok, "max rel err %.2e over 20 nets, %.1fs" % (worst, elapsed)


@criterion("ranking series identity")
def test_scores_match_truncated_walk_series():
    """Solver scores match 200 summed powers of the damped affinity matrix."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(113)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a = np.abs(rng.standard_normal((n, n)))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        r = 0.9 / spectral_radius(a)
        got = inffs_scores(AffinityGraph(a=a, r=r, alpha=0.5))
        want = oracles.series_scores(a, r)
        worst = max(worst, np.max(np.abs(got - want)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 2.0
    return ok, "max abs diff %.2e over 50 graphs, %.1fs" % (worst, elapsed)


@criterion("accuracy vs random pruning")
def test_guided_pruning_beats_random_on_blobs():
    """Trained blob classifiers keep more accuracy under guided pruning.

    Twenty seeded runs of the same experiment: train a two-hidden-layer mlp,
    prune half of each hidden layer either by propagated importance or at
    random, then fine-tune both. Guided pruning must win the pre-fine-tune
    comparison in at least 16 runs and the post-fine-tune one in at least 14
    (ties count for it: equal accuracy is not a loss).
    """
    t0 = time.perf_counter()
    pre_wins = 0
    post_wins = 0
    for seed in range(20):
        data = synth_dataset(
            SynthSpec(n_classes=4, dim=8, samples_per_class=200, cluster_spread=1.0, seed=seed)
        )
        net = make_mlp([8, 64, 32, 4], seed=seed)
        cfg = TrainConfig(learning_rate=0.1, epochs=20, batch_size=32, seed=seed)
        trained, _ = train(net, data, cfg)
        ratios = PruneConfig(ratios={0: 0.5, 1: 0.5})
        trace = engine.batch_forward(trained, data.inputs, 0, trained.frl_index)
        guided, _ = apply_plan(trained, nisp_plan(trained, trace, ratios))
        blind, _ = apply_plan(trained, random_plan(trained, ratios, seed=seed))
        pre_g = engine.accuracy(guided, data.inputs, data.labels)
        pre_b = engine.accuracy(blind, data.inputs, data.labels)
        pre_wins += pre_g >= pre_b
        tuned_g, _ = finetune(guided, data, cfg)
        tuned_b, _ = finetune(blind, data, cfg)
        post_wins += engine.accuracy(tuned_g, data.inputs, data.labels) >= engine.accuracy(
            tuned_b, data.inputs, data.labels
        )
    elapsed = time.perf_counter() - t0
    ok = pre_wins >= 16 and post_wins >= 14 and elapsed < 180.0
    return ok, "pre %d/20, post %d/20, %.1fs" % (pre_wins, post_wins, elapsed)


def _uneven_layer(rng, out_dim, in_dim, activation, sigma, scale=1.0, shift=0.0):
    # each unit reads three random inputs through a log-normal gain, so a few
    # units carry most of the outgoing signal at every layer
    w = np.zeros((out_dim, in_dim))
    for u in range(out_dim):
        gain = np.exp(sigma * rng.standard_normal())
        cols = rng.choice(in_dim, size=min(3, in_dim), replace=False)
        w[u, cols] = scale * gain * rng.standard_normal(len(cols)) / np.sqrt(len(cols))
    return Layer(
        kind="Dense",
        weights=w,
        bias=shift + 0.1 * rng.standard_normal(out_dim),
        activation=activation,
    )


def _uneven_net(rng, depth):
    widths = [10] + [16] * depth + [4]
    layers = []
    for i in range(len(widths) - 1):
        if i == len(widths) - 2:
            layers.append(_uneven_layer(rng, widths[i + 1], widths[i], "Identity", 0.3))
        elif i == len(widths) - 3:
            # positive bias keeps the sigmoid responses away from zero, where
            # the relative reconstruction error would be dominated by one unit
            layers.append(_uneven_layer(rng, widths[i + 1], widths[i], "Sigmoid", 0.8, 1.0, 1.0))
        else:
            layers.append(_uneven_layer(rng, widths[i + 1], widths[i], "Tanh", 1.0))
    return Network(layers=tuple(layers), frl_index=len(layers) - 2)


@criterion("reconstruction error vs layer-local pruning")
def test_propagated_ware_beats_layer_local_with_depth():
    """Propagated masks reconstruct better than layer-local ones, more so deeper.

    Layer-local ranking scores each layer by its own response spread and never
    sees which units downstream layers actually read. On nets whose units have
    strongly uneven outgoing gains that blind spot compounds with depth, so the
    reconstruction-error gap should be non-decreasing from 2 to 4 to 6 pruned
    layers, with the propagated plan winning at least 16 of 20 seeds per
    depth/ratio cell.
    """
    t0 = time.perf_counter()
    ok = True
    parts = []
    for ratio in (0.25, 0.5):
        gaps = []
        for depth in (2, 4, 6):
            wins = 0
            gap_sum = 0.0
            for seed in range(20):
                rng = np.random.default_rng(7777 * depth + seed)
                net = _uneven_net(rng, depth)
                xs = rng.standard_normal((60, 10))
                resp = engine.batch_responses(net, xs, net.frl_index)
                s_n = inffs_scores(build_affinity(resp, 0.5))
                cfg = PruneConfig(ratios={i: ratio for i in range(depth)})
                guided = nisp_backward(net, s_n, cfg)
                local = lbl_plan(net, engine.batch_forward(net, xs, 0, net.frl_index), cfg)
                g_net, _ = apply_plan(net, guided)
                l_net, _ = apply_plan(net, local)
                w_g = ware(net, g_net, xs, s_n, guided.mask(net.frl_index))
                w_l = ware(net, l_net, xs, s_n, local.mask(net.frl_index))
                wins += w_g <= w_l
                gap_sum += w_l - w_g
            if wins < 16:
                ok = False
            gaps.append(gap_sum / 20)
            parts.append("%d%% d%d %d/20 gap %.1f" % (100 * ratio, depth, wins, gaps[-1]))
        if not all(gaps[i] <= gaps[i + 1] for i in range(len(gaps) - 1)):
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 180.0
    return ok, "; ".join(parts) + ", %.1fs" % elapsed


@criterion("conv FLOPs quartering")
def test_conv_flops_quarter_when_channels_halve():
    """Halving both channel counts of an interior conv quarters its FLOPs."""
    rng = np.random.default_rng(127)

    def conv_net(c0, c1, c2):
        g0 = Geometry(x=8, y=8, k=3, s=1, p=1, c_in=3, c_out=c0)
        g1 = Geometry(x=8, y=8, k=3, s=1, p=1, c_in=c0, c_out=c1)
        g2 = Geometry(x=8, y=8, k=3, s=1, p=1, c_in=c1, c_out=c2)
        layers = [
            factories.conv_layer(rng, g0, activation="ReLU"),
            factories.conv_layer(rng, g1, activation="ReLU"),
            factories.conv_layer(rng, g2, activation="ReLU"),
            factories.dense_layer(rng, 6, c2 * 64, activation="ReLU"),
            factories.dense_layer(rng, 3, 6),
        ]
        return Network(layers=tuple(layers), frl_index=3)

    full = count_cost(conv_net(4, 8, 2)).flops[1]
    halved = count_cost(conv_net(2, 4, 2)).flops[1]
    ok = (
        isinstance(full, int)
        and isinstance(halved, int)
        and halved > 0
        and full == 4 * halved
    )
    return ok, "%d = 4 x %d" % (full, halved)


@criterion("masked-forward equality")
def test_surgery_output_equals_zeroed_forward():
    """Pruned nets reproduce the zeroed-activation forward pass bit for bit."""
    rng = np.random.default_rng(131)
    exact = 0
    total = 0
    for _ in range(50):
        net = factories.random_mixed_net(rng, with_lrn=False)
        cfg = PruneConfig(ratios={i: 0.5 for i in (0, net.frl_index)})
        plan = random_plan(net, cfg, seed=int(rng.integers(1 << 30)))
        pruned, _ = apply_plan(net, plan)
        masks = effective_masks(net, plan)
        for _ in range(20):
            x = factories.random_input(rng, net)
            want = oracles.masked_forward(net, x, masks)[-1]
            total += 1
            exact += np.array_equal(engine.forward(pruned, x)[-1], want)
    ok = exact == total == 1000
    return ok, "%d/%d samples bit-identical" % (exact, total)


@criterion("indicator scale invariance")
def test_indicators_unchanged_by_score_scaling():
    rng = np.random.default_rng(137)
    same = 0
    for i in range(50):
        if i % 2:
            net = factories.random_mixed_net(rng)
            cfg = PruneConfig(ratios={j: 0.5 for j in (0, net.frl_index)})
        else:
            net = factories.random_dense_net(rng)
            cfg = PruneConfig(ratios={j: 0.5 for j in range(net.frl_index + 1)})
        s_n = np.abs(rng.standard_normal(net.layers[net.frl_index].weights.shape[0]))
        base = nisp_backward(net, s_n, cfg)
        scaled = nisp_backward(net, 10.0 * s_n, cfg)
        same += all(
            np.array_equal(base.mask(layer_id), scaled.mask(layer_id))
            for layer_id in base.entries
        )
    ok = same == 50
    return ok, "%d/50 nets kept identical masks" % same
