"""Random networks and mutated data files shared across the test modules."""

import numpy as np
from hypothesis import strategies as st

from nisprune.model import Geometry, Layer, Network, validate

ACTS = ("Identity", "ReLU", "Sigmoid", "Tanh")


def dense_layer(rng, out_dim, in_dim, activation="Identity", scale=1.0):
    return Layer(
        kind="Dense",
        weights=scale * rng.standard_normal((out_dim, in_dim)),
        bias=scale * rng.standard_normal(out_dim),
        activation=activation,
    )


def dense_chain(rng, widths, activations=None, frl_index=None):
    """Dense net over the given widths; widths[0] is the input dimension."""
    layers = []
    for i in range(len(widths) - 1):
        act = activations[i] if activations else str(rng.choice(ACTS))
        layers.append(dense_layer(rng, widths[i + 1], widths[i], act))
    if frl_index is None:
        frl_index = max(len(layers) - 2, 0)
    net = Network(layers=tuple(layers), frl_index=frl_index)
    assert validate(net).ok
    return net


def random_dense_net(rng, min_layers=2, max_layers=5, min_width=2, max_width=16):
    depth = int(rng.integers(min_layers, max_layers + 1))
    widths = [int(rng.integers(min_width, max_width + 1)) for _ in range(depth + 1)]
    return dense_chain(rng, widths)


def random_conv_geometry(rng, max_x=6, max_k=3, max_channels=3):
    while True:
        x = int(rng.integers(1, max_x + 1))
        k = int(rng.integers(1, max_k + 1))
        s = int(rng.integers(1, 3))
        p = int(rng.integers(0, 2))
        if x + 2 * p < k:
            continue
        y = (x + 2 * p - k) // s + 1
        c_in = int(rng.integers(1, max_channels + 1))
        c_out = int(rng.integers(1, max_channels + 1))
        return Geometry(x=x, y=y, k=k, s=s, p=p, c_in=c_in, c_out=c_out)


def conv_layer(rng, geometry, activation="Identity"):
    g = geometry
    return Layer(
        kind="Conv2D",
        weights=rng.standard_normal((g.k, g.k, g.c_in, g.c_out)),
        bias=rng.standard_normal(g.c_out),
        geometry=g,
        activation=activation,
    )


def random_pool_geometry(rng, c, max_x=6):
    while True:
        x = int(rng.integers(1, max_x + 1))
        k = int(rng.integers(1, min(x, 3) + 1))
        s = int(rng.integers(1, 3))
        p = int(rng.integers(0, 2))
        if x + 2 * p < k:
            continue
        y = (x + 2 * p - k) // s + 1
        return Geometry(x=x, y=y, k=k, s=s, p=p, c_in=c, c_out=c)


def pool_layer(rng, geometry, mode=None):
    mode = mode or ("max" if rng.random() < 0.5 else "avg")
    return Layer(kind="Pool2D", geometry=geometry, pool_mode=mode)


def lrn_layer(rng, c, x):
    # Windows may be wider than the channels, as surgery leaves them.
    size = int(rng.choice((1, 3, 5)))
    return Layer(
        kind="LRN",
        geometry=Geometry(x=x, y=x, k=1, s=1, p=0, c_in=c, c_out=c),
        lrn_local_size=size,
    )


def batchnorm_layer(rng, width):
    scale = rng.standard_normal(width) + 2.0
    shift = rng.standard_normal(width)
    return Layer(kind="BatchNorm", weights=scale, bias=shift)


def activation_layer(rng):
    return Layer(kind="Activation", activation=str(rng.choice(ACTS)))


def random_mixed_net(rng, with_lrn=True, with_skip=False):
    """Conv stack with optional pool/LRN/batch-norm, then a dense head.

    The last dense hidden layer is the FRL, followed by a dense classifier.
    With ``with_skip`` an activation layer after the conv stack merges the
    first conv's response, and the FRL merges a dense layer of its own width.
    """
    g1 = random_conv_geometry(rng, max_x=6, max_k=3, max_channels=3)
    layers = [conv_layer(rng, g1, activation=str(rng.choice(ACTS)))]
    c, x = g1.c_out, g1.y

    if with_lrn and x > 0 and rng.random() < 0.5:
        layers.append(lrn_layer(rng, c, x))
    if rng.random() < 0.5:
        layers.append(batchnorm_layer(rng, c))
    skip_edges = []
    if with_skip:
        layers.append(activation_layer(rng))
        skip_edges.append((0, len(layers) - 1))
    if x >= 2 and rng.random() < 0.7:
        gp = None
        for k in (2,):
            if x >= k:
                y = (x - k) // k + 1
                gp = Geometry(x=x, y=y, k=k, s=k, p=0, c_in=c, c_out=c)
        if gp is not None:
            layers.append(pool_layer(rng, gp))
            x = gp.y
    if rng.random() < 0.4:
        layers.append(activation_layer(rng))

    flat = c * x * x
    hidden = int(rng.integers(2, 9))
    n_classes = int(rng.integers(2, 5))
    if with_skip:
        layers.append(dense_layer(rng, hidden, flat, activation=str(rng.choice(ACTS))))
        skip_edges.append((len(layers) - 1, len(layers)))
        flat = hidden
    layers.append(dense_layer(rng, hidden, flat, activation=str(rng.choice(ACTS))))
    frl_index = len(layers) - 1
    layers.append(dense_layer(rng, n_classes, hidden, activation="Identity"))

    net = Network(layers=tuple(layers), frl_index=frl_index, skip_edges=tuple(skip_edges))
    report = validate(net)
    assert report.ok, report.violations
    return net


def skip_dense_net(rng, width=6, n_classes=3, activations=("ReLU", "Identity")):
    """in -> dense(w) -> dense(w) [skip from layer 0] -> classifier."""
    layers = (
        dense_layer(rng, width, width, activations[0]),
        dense_layer(rng, width, width, activations[1]),
        dense_layer(rng, n_classes, width, "Identity"),
    )
    net = Network(layers=layers, frl_index=1, skip_edges=((0, 1),))
    assert validate(net).ok
    return net


def wide_conv_net(rng):
    """Conv 1->64, then Conv 64->64 (3x3, p=1) on a 32x32 grid, a dense FRL of
    3 and a classifier of 2. Above layer 0, the explicit propagation matrix of
    the 64->64 conv would hold 65536 x 65536 floats, 34 GB."""
    g0 = Geometry(x=32, y=32, k=3, s=1, p=1, c_in=1, c_out=64)
    g1 = Geometry(x=32, y=32, k=3, s=1, p=1, c_in=64, c_out=64)
    layers = (conv_layer(rng, g0, "ReLU"), conv_layer(rng, g1, "ReLU"),
              dense_layer(rng, 3, 64 * 32 * 32, "ReLU"), dense_layer(rng, 2, 3))
    return Network(layers=layers, frl_index=2)


def random_input(rng, net):
    from nisprune.model import input_shape

    return rng.standard_normal(input_shape(net))


# Field and label texts that float(), int() or csv.reader treat in some
# special way, for the differential test against the csv.reader loop.
ODD_FIELDS = ["1_0", "\u0661\u0662", " 2.5", "2.5 ", "nan", "-inf", "1e400", "1#2", "", "abc", "0x10",
              "-0.0", "+7", '"3.5"', '"1,5"', '"a""b"', "\u2028", "4\x0c", "5\x85", "6\x00", "\u00a03"]
ODD_LABELS = ["", " 2", "1.0", "\u0663", "+1", "-1", "1_0", "99999999999999999999", "x", '"1"']
NEWLINES = ["\n", "\r\n", "\r"]
MANIFESTS = [None, None, None, '{"input_shape": [1, 1, %d]}', '{"input_shape": [%d]}', '{"input_shape": [2, %d]}',
             '{"input_shape": [7]}', '{"shape": [1]}', "not json"]


@st.composite
def mutated_csv(draw, widths=st.integers(1, 4), manifests=MANIFESTS):
    """(bytes of a CSV file, manifest text or None): a valid file with a few
    of the mutations the loader must treat exactly as csv.reader does.

    The file has one of ``widths`` input columns; a ``%d`` in the manifest
    drawn from ``manifests`` stands for that width.
    """
    d = draw(widths)
    n = draw(st.integers(1, 4))
    labeled = draw(st.booleans())
    floats = st.floats(allow_nan=False, allow_infinity=False)
    lines = [["x%d" % j for j in range(d)] + (["label"] if labeled else [])]
    for _ in range(n):
        lines.append([repr(draw(floats)) for _ in range(d)] + ([str(draw(st.integers(0, 9)))] if labeled else []))
    newline, trailing = "\n", True
    for kind in draw(st.lists(st.sampled_from(["field", "label", "blank", "short", "extra", "header",
                                                "newline", "no_trailing", "unlabel_all"]), max_size=3)):
        fields = lines[draw(st.integers(1, len(lines) - 1))]
        if kind == "field" and fields:
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(ODD_FIELDS))
        elif kind == "label" and fields:
            fields[-1] = draw(st.sampled_from(ODD_LABELS))
        elif kind == "blank":
            lines.insert(draw(st.integers(1, len(lines))), [])
        elif kind == "short":
            del fields[-1:]
        elif kind == "extra":
            fields.append("0")
        elif kind == "header":
            lines[0][draw(st.integers(0, len(lines[0]) - 1))] = draw(st.sampled_from(["x9", "y", "label ", '"x0"']))
        elif kind == "newline":
            newline = draw(st.sampled_from(NEWLINES))
        elif kind == "no_trailing":
            trailing = False
        elif kind == "unlabel_all" and labeled:
            for fields in lines[1:]:
                fields[-1:] = [""]
    cut = draw(st.sampled_from([None, None, None, 0, 1]))  # empty file, header only
    text = newline.join(",".join(fields) for fields in lines[:cut]) + (newline if trailing and cut != 0 else "")
    manifest = draw(st.sampled_from(manifests))
    return text.encode("utf-8"), (manifest % d if manifest and "%d" in manifest else manifest)
