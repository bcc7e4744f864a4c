import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import factories
import oracles
from nisprune import engine
from nisprune.errors import ConfigError, DataError
from nisprune.model import Geometry, Layer, Network
from nisprune.ranking import (
    MAX_GRAPH_FEATURES,
    AffinityGraph,
    build_affinity,
    inffs_scores,
    magnitude_scores,
    per_layer_scores,
    spectral_radius,
)


def test_spectral_radius_against_eigvals():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        a = np.abs(rng.standard_normal((n, n)))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        want = float(np.max(np.abs(np.linalg.eigvals(a))))
        got = spectral_radius(a)
        assert got == pytest.approx(want, abs=1e-9, rel=1e-9)


def test_spectral_radius_zero_matrix():
    assert spectral_radius(np.zeros((3, 3))) == 0.0


def test_spectral_radius_raises_at_its_iteration_cap():
    # A NaN entry keeps every estimate NaN, so no two estimates ever agree.
    a = np.ones((3, 3))
    a[0, 1] = a[1, 0] = np.nan
    with pytest.raises(DataError, match="did not converge in 10000"):
        spectral_radius(a)


def test_perfectly_correlated_features_alpha_zero():
    # identical columns: |rho| = 1, so the correlation term vanishes
    x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    graph = build_affinity(x, alpha=0.0)
    assert np.array_equal(graph.a, np.zeros((2, 2)))


def test_independent_unit_sigma_features_alpha_one():
    # orthogonal sign patterns: rho = 0; equal stds rescale to sigma-hat 1
    x = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
    graph = build_affinity(x, alpha=1.0)
    assert graph.a[0, 1] == 1.0
    assert graph.a[1, 0] == 1.0
    assert graph.a[0, 0] == 0.0


def test_affinity_matches_brute_force_formula():
    rng = np.random.default_rng(5)
    resp = rng.standard_normal((12, 4))
    resp[:, 2] = 7.0  # one constant feature exercises the rho=0 rule
    for alpha in (0.0, 0.3, 1.0):
        graph = build_affinity(resp, alpha=alpha)
        want = oracles.affinity_brute(resp, alpha)
        assert np.max(np.abs(graph.a - want)) < 1e-12
        assert np.array_equal(graph.a, graph.a.T)
        assert np.all(np.diag(graph.a) == 0)


def test_affinity_damping_rule():
    rng = np.random.default_rng(6)
    resp = rng.standard_normal((20, 5))
    graph = build_affinity(resp, alpha=0.5)
    rho = spectral_radius(graph.a)
    assert graph.r == pytest.approx(0.9 / rho)

    constant = np.full((5, 3), 2.0)
    degenerate = build_affinity(constant, alpha=1.0)
    assert np.array_equal(degenerate.a, np.zeros((3, 3)))
    assert degenerate.r == 0.9


def test_affinity_input_validation():
    with pytest.raises(ConfigError):
        build_affinity(np.zeros((3, 3)), alpha=1.5)
    with pytest.raises(DataError):
        build_affinity(np.zeros((1, 3)), alpha=0.5)
    with pytest.raises(DataError):
        build_affinity(np.zeros((3, 1)), alpha=0.5)
    with pytest.raises(DataError):
        build_affinity(np.array([[np.nan, 1.0], [0.0, 1.0]]), alpha=0.5)
    # Finite responses whose spread overflows used to rank as NaN scores
    # after the power iteration ran to its step cap.
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DataError, match="overflows"):
        build_affinity(np.array([[1e300, 0.0, 1.0], [-1e300, 1.0, 0.0]]), alpha=0.5)


def test_inffs_hand_example():
    # A = [[0,1],[1,0]], r = 1/2: (I - A/2)^{-1} - I = [[1/3, 2/3], [2/3, 1/3]]
    graph = AffinityGraph(a=np.array([[0.0, 1.0], [1.0, 0.0]]), r=0.5, alpha=0.5)
    scores = inffs_scores(graph)
    assert scores == pytest.approx([1.0, 1.0], abs=1e-12)


def test_inffs_zero_graph():
    graph = AffinityGraph(a=np.zeros((4, 4)), r=0.9, alpha=0.5)
    assert np.array_equal(inffs_scores(graph), np.zeros(4))


def test_inffs_matches_truncated_series():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a = np.abs(rng.standard_normal((n, n)))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        r = 0.9 / spectral_radius(a)
        graph = AffinityGraph(a=a, r=r, alpha=0.5)
        got = inffs_scores(graph)
        want = oracles.series_scores(a, r)
        assert np.max(np.abs(got - want)) <= 1e-8


def test_inffs_singular_graph_rejected():
    # r * rho(A) = 1 exactly: I - rA = [[1,-1],[-1,1]] is singular
    graph = AffinityGraph(a=np.array([[0.0, 1.0], [1.0, 0.0]]), r=1.0, alpha=0.5)
    with pytest.raises(ConfigError):
        inffs_scores(graph)


def test_inffs_rejects_a_negative_score_beyond_rounding(monkeypatch):
    graph = AffinityGraph(a=np.array([[0.0, 1.0], [1.0, 0.0]]), r=0.5, alpha=0.5)
    # The solve returns 1 + walks; the first feature's walks read 1.0.
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: b + np.array([1.0, -0.5]))
    with pytest.raises(DataError, match="negative score -0.5"):
        inffs_scores(graph)
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: b + np.array([1.0, -1e-14]))
    assert inffs_scores(graph).tolist() == [1.0, 0.0]


def test_affinity_checks_the_width_before_allocating():
    resp = np.zeros((2, MAX_GRAPH_FEATURES + 1))
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="%d features need a %d-byte" % (resp.shape[1], 8 * resp.shape[1] ** 2)):
            build_affinity(resp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_scores_nonnegative_property():
    rng = np.random.default_rng(11)
    for _ in range(30):
        resp = rng.standard_normal((int(rng.integers(2, 20)), int(rng.integers(2, 10))))
        graph = build_affinity(resp, alpha=float(rng.random()))
        assert np.all(inffs_scores(graph) >= 0)


def test_scale_insensitivity_alpha_zero():
    rng = np.random.default_rng(13)
    resp = rng.standard_normal((30, 6))
    base = inffs_scores(build_affinity(resp, alpha=0.0))
    scaled = resp.copy()
    scaled[:, 2] *= 37.0
    after = inffs_scores(build_affinity(scaled, alpha=0.0))
    assert np.argsort(-base, kind="stable").tolist() == np.argsort(-after, kind="stable").tolist()


def test_permutation_equivariance():
    rng = np.random.default_rng(17)
    resp = rng.standard_normal((25, 7))
    perm = rng.permutation(7)
    base = inffs_scores(build_affinity(resp, alpha=0.4))
    shuffled = inffs_scores(build_affinity(resp[:, perm], alpha=0.4))
    assert shuffled == pytest.approx(base[perm], rel=1e-9)


def test_magnitude_scores_hand_values():
    ident = Network(layers=(Layer(kind="Dense", weights=np.eye(3), bias=np.zeros(3)),), frl_index=0)
    assert np.array_equal(magnitude_scores(ident, 0), np.ones(3))

    w = np.array([[1.0, -2.0], [3.0, 4.0]])
    net = Network(layers=(Layer(kind="Dense", weights=w, bias=np.zeros(2)),), frl_index=0)
    assert np.array_equal(magnitude_scores(net, 0), [3.0, 7.0])

    zero = Network(layers=(Layer(kind="Dense", weights=np.zeros((2, 2)), bias=np.zeros(2)),), frl_index=0)
    assert np.array_equal(magnitude_scores(zero, 0), np.zeros(2))


def test_magnitude_scores_conv_channels():
    g = Geometry(x=2, y=2, k=1, s=1, p=0, c_in=1, c_out=2)
    kernel = np.zeros((1, 1, 1, 2))
    kernel[0, 0, 0, 0] = -3.0
    kernel[0, 0, 0, 1] = 2.0
    conv = Layer(kind="Conv2D", weights=kernel, bias=np.zeros(2), geometry=g)
    net = Network(layers=(conv, Layer(kind="Dense", weights=np.zeros((2, 8)), bias=np.zeros(2))), frl_index=0)
    scores = magnitude_scores(net, 0)
    assert np.array_equal(scores, [3, 3, 3, 3, 2, 2, 2, 2])


def test_magnitude_scores_rejects_weightless_layer():
    g = Geometry(x=2, y=1, k=2, s=2, p=0, c_in=1, c_out=1)
    net = Network(
        layers=(Layer(kind="Pool2D", geometry=g), Layer(kind="Dense", weights=np.zeros((1, 1)), bias=np.zeros(1))),
        frl_index=0,
    )
    with pytest.raises(ConfigError):
        magnitude_scores(net, 0)


def test_per_layer_scores_match_independent_ranking():
    rng = np.random.default_rng(19)
    net = factories.dense_chain(rng, [5, 8, 6, 3], activations=["Tanh", "Tanh", "Identity"])
    xs = rng.standard_normal((30, 5))
    result = per_layer_scores(net, engine.batch_forward(net, xs, 0, net.frl_index), alpha=0.5)
    assert sorted(result) == [0, 1]
    for layer_id in (0, 1):
        resp = engine.batch_responses(net, xs, layer_id)
        want = inffs_scores(build_affinity(resp, alpha=0.5))
        assert result[layer_id] == pytest.approx(want, rel=1e-12)


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_affinity_entries_bounded(seed, alpha):
    rng = np.random.default_rng(seed)
    resp = rng.standard_normal((8, 5))
    graph = build_affinity(resp, alpha=alpha)
    assert np.all(graph.a >= 0)
    assert np.all(graph.a <= 1.0 + 1e-12)


def _signed_zero_responses(rng, m, n, constant):
    resp = rng.standard_normal((m, n))
    u = rng.random((m, n))
    resp[u < 0.1] = 0.0
    resp[u > 0.9] = -0.0
    # Copied and scaled columns put |rho| at 1, where the clip decides.
    resp[:, 3] = resp[:, 1]
    resp[:, 4] = -3.0 * resp[:, 1]
    for j in constant:
        resp[:, j] = (0.0, -0.0, 7.0)[j % 3]
    return resp


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n,constant", [
    (5, ()), (70, ()),                              # every column varies
    (5, (2,)), (70, (0, 1, 33, 34, 35, 69)),        # some columns are constant
    (5, range(5)), (70, range(70)),                 # every column is constant
])
def test_ranking_matches_plain_expressions_bytewise(n, constant, alpha):
    # The graph is built in place; every entry, the damping and the scores
    # must keep the plain expressions' rounding, down to the sign of a zero.
    rng = np.random.default_rng(n + len(constant))
    resp = _signed_zero_responses(rng, 30, n, constant)
    graph = build_affinity(resp, alpha=alpha)
    want_a, want_r = oracles.affinity_expr(resp, alpha)
    assert graph.a.tobytes() == want_a.tobytes()
    assert np.float64(graph.r).tobytes() == np.float64(want_r).tobytes()
    assert inffs_scores(graph).tobytes() == oracles.inffs_expr(want_a, want_r).tobytes()


@pytest.mark.parametrize("n", [2, 7, 70])
def test_radius_and_scores_match_plain_expressions_on_any_symmetric_matrix(n):
    # Both functions are public and take more than a built graph: a nonzero
    # diagonal and entries of -0.0 must round as the plain expressions do.
    rng = np.random.default_rng(n)
    a = np.abs(rng.standard_normal((n, n)))
    a = (a + a.T) / 2
    zero = np.triu(rng.random((n, n)) < 0.3, 1)
    a[zero | zero.T] = -0.0
    every_other = np.arange(0, n, 2)
    a[every_other, every_other] = -0.0
    radius = spectral_radius(a)
    assert np.float64(radius).tobytes() == np.float64(oracles.spectral_radius_expr(a)).tobytes()
    got = inffs_scores(AffinityGraph(a=a, r=0.9 / radius, alpha=0.5))
    assert got.tobytes() == oracles.inffs_expr(a, 0.9 / radius).tobytes()
    # A negative damping makes the walks of length one negative, far beyond
    # rounding, so the scores are refused instead of clamped to zero.
    with pytest.raises(DataError, match="negative score"):
        inffs_scores(AffinityGraph(a=a, r=-0.5 / radius, alpha=0.5))


def test_wide_graph_holds_few_feature_by_feature_arrays():
    # A 2048-feature conv layer makes 32 MB per n x n array, so the graph is
    # built in at most three of them and the scores add at most one more.
    n = 512
    resp = np.random.default_rng(3).standard_normal((64, n))
    matrix = n * n * 8
    tracemalloc.start()
    try:
        graph = build_affinity(resp)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        inffs_scores(graph)
        scores_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert build_peak <= 3 * matrix, build_peak / matrix
    assert scores_peak <= 1.5 * matrix, scores_peak / matrix
