import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import factories
from nisprune.errors import ConfigError, ModelFormatError, ShapeError
from nisprune.model import (
    LAYER_KEYS,
    Geometry,
    Layer,
    Network,
    atomic_write_bytes,
    canonical_json,
    input_shape,
    layer_params,
    load_model,
    output_shapes,
    prunable_layer_ids,
    save_model,
    validate,
    window_index,
)
from nisprune import engine, propagation


def identity_dense(n, activation="Identity"):
    return Layer(kind="Dense", weights=np.eye(n), bias=np.zeros(n), activation=activation)


def test_single_identity_layer_roundtrip():
    net = Network(layers=(identity_dense(2),), frl_index=0)
    assert validate(net).ok
    loaded = load_model(save_model(net))
    assert loaded.frl_index == 0
    assert len(loaded.layers) == 1
    assert np.array_equal(loaded.layers[0].weights, np.eye(2))


def test_adjacent_shape_mismatch_reported():
    bad = Network(
        layers=(
            Layer(kind="Dense", weights=np.ones((2, 3)), bias=np.zeros(2)),
            Layer(kind="Dense", weights=np.ones((1, 3)), bias=np.zeros(1)),
        ),
        frl_index=0,
    )
    report = validate(bad)
    assert not report.ok
    assert any(layer_id == 1 for layer_id, _ in report.violations)


def test_validate_collects_geometry_violation():
    g = Geometry(x=4, y=3, k=2, s=2, p=0, c_in=1, c_out=1)  # true y is 2
    net = Network(
        layers=(Layer(kind="Pool2D", geometry=g), identity_dense(9)),
        frl_index=0,
    )
    report = validate(net)
    assert not report.ok
    assert any("does not match" in msg for _, msg in report.violations)


def test_window_index_hand_values():
    # 3x3 input, 2x2 windows at stride 2 with one ring of padding: 9 marks
    # a padded position.
    g = Geometry(x=3, y=2, k=2, s=2, p=1, c_in=1, c_out=1)
    assert window_index(g).tolist() == [[9, 9, 9, 0], [9, 9, 1, 2], [9, 3, 9, 6], [4, 5, 7, 8]]
    whole = Geometry(x=2, y=1, k=2, s=1, p=0, c_in=1, c_out=1)
    assert window_index(whole).tolist() == [[0, 1, 2, 3]]


def test_validate_rejects_nan_and_even_lrn_and_bad_bn():
    nan_net = Network(
        layers=(Layer(kind="Dense", weights=np.array([[np.nan]]), bias=np.zeros(1)),),
        frl_index=0,
    )
    assert not validate(nan_net).ok

    lrn = Layer(
        kind="LRN",
        geometry=Geometry(x=2, y=2, k=1, s=1, p=0, c_in=4, c_out=4),
        lrn_local_size=2,
    )
    assert not validate(Network(layers=(lrn, identity_dense(16)), frl_index=0)).ok

    bn = Layer(kind="BatchNorm", weights=np.ones(3), bias=np.zeros(4))
    assert not validate(Network(layers=(identity_dense(3), bn), frl_index=0)).ok


def test_validate_skip_edge_rules():
    layers = (identity_dense(3), identity_dense(3), identity_dense(3))
    ok = Network(layers=layers, frl_index=1, skip_edges=((0, 1),))
    assert validate(ok).ok

    backwards = Network(layers=layers, frl_index=1, skip_edges=((1, 0),))
    assert not validate(backwards).ok

    mismatch = Network(
        layers=(identity_dense(3), Layer(kind="Dense", weights=np.ones((2, 3)), bias=np.zeros(2)),
                Layer(kind="Dense", weights=np.ones((3, 2)), bias=np.zeros(3))),
        frl_index=1,
        skip_edges=((0, 1),),
    )
    assert not validate(mismatch).ok


def test_frl_index_bounds():
    layers = (identity_dense(2), identity_dense(2))
    assert validate(Network(layers=layers, frl_index=2)).ok is False
    assert validate(Network(layers=layers, frl_index=-1)).ok is False


def test_save_rejects_invalid_net():
    bad = Network(
        layers=(Layer(kind="Dense", weights=np.array([[np.inf, 0.0]]), bias=np.zeros(1)),),
        frl_index=0,
    )
    with pytest.raises(ShapeError):
        save_model(bad)


def test_save_is_deterministic_and_fixed_point():
    rng = np.random.default_rng(11)
    for _ in range(25):
        net = factories.random_dense_net(rng)
        first = save_model(net)
        assert first == save_model(net)
        reloaded = load_model(first)
        assert save_model(reloaded) == first
        for a, b in zip(net.layers, reloaded.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)


def test_roundtrip_preserves_extreme_floats():
    w = np.array([[1e-308, -1.2345678901234567e16], [3.14159, -0.0]])
    net = Network(layers=(Layer(kind="Dense", weights=w, bias=np.array([5e-324, 1.0])),), frl_index=0)
    loaded = load_model(save_model(net))
    assert np.array_equal(loaded.layers[0].weights, w)
    assert np.array_equal(loaded.layers[0].bias, net.layers[0].bias)


def test_mixed_net_roundtrip_and_shapes():
    rng = np.random.default_rng(3)
    for _ in range(20):
        net = factories.random_mixed_net(rng)
        loaded = load_model(save_model(net))
        assert output_shapes(loaded) == output_shapes(net)
        x = factories.random_input(rng, net)
        a = engine.forward(net, x)[-1]
        b = engine.forward(loaded, x)[-1]
        assert np.array_equal(a, b)


def test_load_model_parse_errors():
    with pytest.raises(ModelFormatError):
        load_model(b"not json")
    with pytest.raises(ModelFormatError):
        load_model(b"{}")
    with pytest.raises(ModelFormatError):
        load_model(b'{"layers": [{"kind": "Nope"}], "frl_index": 0}')


def test_saved_layers_hold_exactly_their_kinds_keys():
    rng = np.random.default_rng(11)
    for _ in range(10):
        doc = json.loads(save_model(factories.random_mixed_net(rng, with_skip=True)))
        assert sorted(doc) == ["frl_index", "layers", "skip_edges"]
        for layer in doc["layers"]:
            assert set(layer) == {"kind", *LAYER_KEYS[layer["kind"]]}


def _conv_pool_doc():
    rng = np.random.default_rng(4)
    g = Geometry(x=4, y=4, k=3, s=1, p=1, c_in=1, c_out=2)
    net = Network(
        layers=(
            factories.conv_layer(rng, g, "ReLU"),
            Layer(kind="Pool2D", geometry=Geometry(x=4, y=2, k=2, s=2, p=0, c_in=2, c_out=2)),
            factories.dense_layer(rng, 3, 8, "ReLU"),
            factories.dense_layer(rng, 2, 3),
        ),
        frl_index=2,
    )
    return json.loads(save_model(net))


@pytest.mark.parametrize("edit, where", [
    (lambda doc: doc["layers"][2].update(activaton=doc["layers"][2].pop("activation")), "layer 2 (Dense)"),
    (lambda doc: doc["layers"][1].update(activation="ReLU"), "layer 1 (Pool2D)"),
    (lambda doc: doc["layers"][0]["geometry"].update(pad=1), "layer 0 geometry"),
    (lambda doc: doc.update(frl=2), "model document"),
], ids=["misspelt-activation", "key-of-another-kind", "geometry-key", "top-level-key"])
def test_load_model_rejects_unknown_keys(edit, where):
    doc = _conv_pool_doc()
    load_model(json.dumps(doc))
    edit(doc)
    with pytest.raises(ModelFormatError, match=r"^%s has unknown keys" % re.escape(where)):
        load_model(json.dumps(doc))


def test_lrn_window_wider_than_its_channels_loads():
    # Every LRN rule clips its window at the channel borders, and surgery can
    # leave fewer channels than the local size, so such a layer is valid.
    lrn = Layer(kind="LRN", geometry=Geometry(x=2, y=2, k=1, s=1, p=0, c_in=3, c_out=3), lrn_local_size=5)
    loaded = load_model(save_model(Network(layers=(lrn, identity_dense(12)), frl_index=0)))
    assert loaded.layers[0].lrn_local_size == 5
    # A window of 5 around any of 3 channels covers all of them.
    x = np.random.default_rng(2).standard_normal((3, 2, 2))
    want = x / (engine.LRN_BIAS + engine.LRN_ALPHA * (x * x).sum(axis=0)) ** engine.LRN_BETA
    np.testing.assert_allclose(engine.forward(loaded, x)[1], want, rtol=1e-15, atol=0)
    s = np.arange(12.0).reshape(3, 2, 2)
    np.testing.assert_allclose(propagation.propagate_lrn(5, s), np.broadcast_to(s.sum(axis=0) / 5, s.shape))


def test_load_model_shape_errors_surface():
    doc = (
        b'{"layers": [{"kind": "Dense", "weights": [[1.0, 0.0]], "bias": [0.0],'
        b' "activation": "Identity"}], "frl_index": 5}'
    )
    with pytest.raises(ShapeError):
        load_model(doc)


@pytest.mark.parametrize("edges", [1, 0.5, True, None, "ab", {"0": 1}],
                         ids=["int", "float", "bool", "null", "string", "object"])
def test_skip_edges_must_be_a_list(edges):
    doc = json.loads(save_model(Network(layers=(identity_dense(2), identity_dense(2)), frl_index=0)))
    doc["skip_edges"] = edges
    with pytest.raises(ModelFormatError, match="skip_edges must be a list"):
        load_model(json.dumps(doc))


# One broken form of each kind, and the one violation it has on its own.
BROKEN_LAYERS = {
    "dense-no-weights": (Layer(kind="Dense", bias=np.zeros(3)), "dense layer needs a 2-d weight matrix and 1-d bias"),
    "dense-1d-weights": (Layer(kind="Dense", weights=np.ones(3), bias=np.zeros(3)),
                         "dense layer needs a 2-d weight matrix and 1-d bias"),
    "conv-no-geometry": (Layer(kind="Conv2D", weights=np.ones((1, 1, 1, 1)), bias=np.zeros(1)),
                         "conv layer needs geometry, kernel, and bias"),
    "pool-no-geometry": (Layer(kind="Pool2D"), "pool layer needs geometry"),
    "lrn-no-geometry": (Layer(kind="LRN", lrn_local_size=3), "LRN layer needs geometry"),
    "batchnorm-2d-scale": (Layer(kind="BatchNorm", weights=np.ones((3, 1)), bias=np.zeros(3)),
                           "batch-norm needs matching 1-d scale and shift"),
    "unknown-kind": (Layer(kind="Softmax"), "unknown layer kind 'Softmax'"),
}


@pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("form", list(BROKEN_LAYERS))
def test_validate_reports_a_broken_layer_once(form, position):
    broken, message = BROKEN_LAYERS[form]
    layers = [identity_dense(3)] * 3
    layers[position] = broken
    net = Network(layers=tuple(layers), frl_index=1)
    report = validate(net)
    assert not report.ok
    assert report.violations == [(position, message)]
    assert report.shapes == [(3,)] * position + [None] * (3 - position)
    with pytest.raises(ShapeError, match="^network fails validation: layer %d: %s$" % (position, re.escape(message))):
        output_shapes(net)


def test_input_and_output_shapes():
    g = Geometry(x=4, y=2, k=3, s=1, p=0, c_in=2, c_out=3)
    net = Network(
        layers=(
            Layer(kind="Conv2D", weights=np.zeros((3, 3, 2, 3)), bias=np.zeros(3), geometry=g),
            Layer(kind="Dense", weights=np.zeros((5, 12)), bias=np.zeros(5)),
            Layer(kind="Dense", weights=np.zeros((2, 5)), bias=np.zeros(2)),
        ),
        frl_index=1,
    )
    assert validate(net).ok
    assert input_shape(net) == (2, 4, 4)
    assert output_shapes(net) == validate(net).shapes == [(3, 2, 2), (5,), (2,)]
    assert prunable_layer_ids(net) == [0, 1]
    assert layer_params(net.layers[0]) == 3 * 3 * 2 * 3 + 3


def test_geometry_example_from_pool_arithmetic():
    # X=6, k=3, s=2, p=1 -> Y = floor((6+2-3)/2)+1 = 3
    g = Geometry(x=6, y=3, k=3, s=2, p=1, c_in=1, c_out=1)
    net = Network(layers=(Layer(kind="Pool2D", geometry=g), identity_dense(9)), frl_index=0)
    assert validate(net).ok


def _range_out(net, x, start, end):
    """Output of layers start..end on one sample, through the batch forward."""
    return engine.batch_forward(net, x[None], start, end)[-1][0]


def test_slice_matches_full_trace():
    rng = np.random.default_rng(7)
    net = factories.dense_chain(rng, [4, 5, 6, 3, 2])
    x = rng.standard_normal(4)
    trace = engine.forward(net, x)

    assert np.array_equal(_range_out(net, x, 0, len(net.layers) - 1), trace[-1])
    assert np.array_equal(_range_out(net, trace[2], 2, 2), trace[3])
    assert np.array_equal(_range_out(net, trace[2], 2, 3), trace[4])


def test_slice_composition():
    rng = np.random.default_rng(9)
    net = factories.dense_chain(rng, [3, 4, 4, 4, 2])
    x = rng.standard_normal(3)
    left = _range_out(net, x, 0, 1)
    right = _range_out(net, left, 2, 3)
    assert np.array_equal(right, _range_out(net, x, 0, 3))


def test_slice_bounds_and_skip_crossing():
    rng = np.random.default_rng(5)
    net = factories.dense_chain(rng, [3, 3, 3])
    with pytest.raises(ConfigError):
        _range_out(net, np.zeros(3), 1, 5)
    with pytest.raises(ConfigError):
        _range_out(net, np.zeros(3), -1, 1)

    skipnet = factories.skip_dense_net(rng)
    with pytest.raises(ConfigError):
        _range_out(skipnet, np.zeros(6), 1, 2)  # edge (0,1) crosses the start of the range
    # The same edge inside the range is evaluated, as in the full forward.
    x = rng.standard_normal(6)
    assert np.array_equal(_range_out(skipnet, x, 0, 2), engine.forward(skipnet, x)[-1])


def test_atomic_write_replaces_content(tmp_path):
    target = tmp_path / "f.bin"
    atomic_write_bytes(str(target), b"one")
    atomic_write_bytes(str(target), b"two")
    assert target.read_bytes() == b"two"
    leftovers = [p for p in tmp_path.iterdir() if p.name != "f.bin"]
    assert leftovers == []


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.text(max_size=6),
    st.floats(), st.floats().map(np.float64),
)
_DOCS = st.recursive(
    _SCALARS,
    lambda kids: st.one_of(st.lists(kids, max_size=5), st.dictionaries(st.text(max_size=5), kids, max_size=5)),
    max_leaves=12,
)


def _encoded(encode):
    try:
        return encode()
    except (TypeError, ValueError) as err:
        return type(err), str(err)


@given(_DOCS, st.booleans())
@settings(max_examples=60, deadline=None)
def test_canonical_json_matches_indented_json_dumps(doc, allow_nan):
    # Empty, nested and mixed lists and dicts, NaN and infinities under both
    # allow_nan settings, and non-ASCII strings: the same bytes, or the same
    # error as json's own indenting encoder.
    want = _encoded(lambda: (json.dumps(doc, indent=2, sort_keys=True, allow_nan=allow_nan) + "\n").encode("utf-8"))
    assert _encoded(lambda: canonical_json(doc, allow_nan=allow_nan)) == want


def test_canonical_json_hand_cases():
    doc = {"b": [[], {}, [1.5, -0.0, "\u00e9"], [[2]]], "a": {"z": None, "y": [True, float("nan")]}}
    want = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    assert canonical_json(doc) == want
    with pytest.raises(ValueError, match="not JSON compliant: nan"):
        canonical_json(doc, allow_nan=False)
    with pytest.raises(TypeError, match="keys must be str"):
        canonical_json({1: 2})
