"""Network description, structural validation, and JSON serialization.

A network is a flat stack of layers plus optional skip edges. Layer ids are
positions in the stack. The response of layer i is the value produced by
``layers[i]``; ``frl_index`` names the layer whose response is the final
response used for ranking, and every layer after it belongs to the classifier
head, which ranking and pruning never touch.

Shapes come in two forms: a vector ``(n,)`` or a channel-major tensor
``(c, x, x)``. Flattening a tensor walks channels first, then rows, which is
exactly numpy's C-order ravel of a ``(c, x, x)`` array.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import ModelFormatError, ShapeError

# The keys of each kind's JSON object besides "kind"; each names the Layer
# field it holds. save_model writes exactly these, and load_model rejects any
# other key, so that a misspelt key cannot load as its field's default.
LAYER_KEYS = {
    "Dense": ("activation", "weights", "bias"),
    "Conv2D": ("activation", "weights", "bias", "geometry"),
    "Pool2D": ("geometry", "pool_mode"),
    "LRN": ("geometry", "lrn_local_size"),
    "BatchNorm": ("weights", "bias"),
    "Activation": ("activation",),
}
KINDS = tuple(LAYER_KEYS)
MODEL_KEYS = ("frl_index", "skip_edges", "layers")
GEOMETRY_KEYS = ("x", "y", "k", "s", "p", "c_in", "c_out")
ACTIVATION_KINDS = ("Identity", "ReLU", "Sigmoid", "Tanh")
POOL_MODES = ("max", "avg")

# Kinds that own prunable output neurons. Everything else only reshapes or
# rescales what an earlier layer produced.
PRUNABLE_KINDS = ("Dense", "Conv2D")


@dataclass(frozen=True)
class Geometry:
    """Spatial bookkeeping for conv, pool, and LRN layers.

    The output size must satisfy y = (x + 2p - k) // s + 1. LRN layers keep
    the spatial grid, so they carry x == y and k = s = 1, p = 0.
    """

    x: int
    y: int
    k: int
    s: int
    p: int
    c_in: int
    c_out: int


def window_index(g: Geometry) -> np.ndarray:
    """(y*y, k*k) table of the flat input index read by each window position.

    Row yr*y + yc, column a*k + b holds xr*x + xc for the input position
    (xr, xc) = (yr*s + a - p, yc*s + b - p). A position in the zero padding
    holds x*x, one slot past the flattened grid.
    """
    pos = (np.arange(g.y) * g.s)[:, None] + np.arange(g.k) - g.p  # (y, k)
    inside = (pos >= 0) & (pos < g.x)
    flat = pos[:, None, :, None] * g.x + pos[None, :, None, :]
    valid = inside[:, None, :, None] & inside[None, :, None, :]
    return np.where(valid, flat, g.x * g.x).reshape(g.y * g.y, g.k * g.k)


@dataclass(frozen=True, eq=False)
class Layer:
    kind: str
    weights: np.ndarray | None = None
    bias: np.ndarray | None = None
    geometry: Geometry | None = None
    activation: str = "Identity"
    pool_mode: str = "max"
    lrn_local_size: int = 0


@dataclass(frozen=True, eq=False)
class Network:
    """An immutable feed-forward stack.

    Treat values as frozen: surgery and training hand back new networks
    rather than editing arrays in place. ``skip_edges`` holds
    (source_layer_id, merge_layer_id) pairs; the merge layer's output is its
    own result plus the stored response of the source layer, so both must
    produce identical shapes.
    """

    layers: tuple[Layer, ...]
    frl_index: int
    skip_edges: tuple[tuple[int, int], ...] = ()


@dataclass
class ValidationReport:
    ok: bool
    violations: list  # (layer_id, message), layer_id -1 for network-level
    shapes: list  # response shape per layer, None from the first that cannot be formed


def shape_size(shape) -> int:
    return math.prod(map(int, shape))


def _geometry_messages(g: Geometry) -> list:
    msgs = []
    if g.x < 1 or g.k < 1 or g.s < 1 or g.p < 0 or g.c_in < 1 or g.c_out < 1:
        msgs.append("geometry fields out of range: %r" % (g,))
        return msgs
    if g.x + 2 * g.p < g.k:
        msgs.append("kernel %d larger than padded input %d" % (g.k, g.x + 2 * g.p))
    elif g.y != (g.x + 2 * g.p - g.k) // g.s + 1:
        msgs.append(
            "output size %d does not match (x + 2p - k) // s + 1 = %d"
            % (g.y, (g.x + 2 * g.p - g.k) // g.s + 1)
        )
    return msgs


def _finite(a: np.ndarray) -> bool:
    return bool(np.isfinite(a).all())


def _layer_messages(layer: Layer) -> list:
    """Structural problems with one layer, ignoring its neighbours."""
    msgs = []
    if layer.kind not in KINDS:
        return ["unknown layer kind %r" % (layer.kind,)]
    if layer.kind in ("Dense", "Conv2D", "Activation") and layer.activation not in ACTIVATION_KINDS:
        msgs.append("unknown activation %r" % (layer.activation,))

    if layer.kind == "Dense":
        w, b = layer.weights, layer.bias
        if w is None or b is None or w.ndim != 2 or b.ndim != 1:
            msgs.append("dense layer needs a 2-d weight matrix and 1-d bias")
        elif b.shape[0] != w.shape[0]:
            msgs.append("bias length %d != output width %d" % (b.shape[0], w.shape[0]))
        elif not (_finite(w) and _finite(b)):
            msgs.append("non-finite dense parameters")
    elif layer.kind == "Conv2D":
        g, w, b = layer.geometry, layer.weights, layer.bias
        if g is None or w is None or b is None:
            msgs.append("conv layer needs geometry, kernel, and bias")
        else:
            msgs.extend(_geometry_messages(g))
            if w.ndim != 4 or w.shape != (g.k, g.k, g.c_in, g.c_out):
                msgs.append(
                    "kernel shape %r != (k, k, c_in, c_out) = %r"
                    % (None if w.ndim != 4 else w.shape, (g.k, g.k, g.c_in, g.c_out))
                )
            elif b.ndim != 1 or b.shape[0] != g.c_out:
                msgs.append("conv bias must have one entry per output channel")
            elif not (_finite(w) and _finite(b)):
                msgs.append("non-finite conv parameters")
    elif layer.kind == "Pool2D":
        g = layer.geometry
        if g is None:
            msgs.append("pool layer needs geometry")
        else:
            msgs.extend(_geometry_messages(g))
            if g.c_in != g.c_out:
                msgs.append("pooling preserves channels but c_in != c_out")
        if layer.pool_mode not in POOL_MODES:
            msgs.append("unknown pool mode %r" % (layer.pool_mode,))
    elif layer.kind == "LRN":
        g, n = layer.geometry, layer.lrn_local_size
        if g is None:
            msgs.append("LRN layer needs geometry")
        else:
            if g.c_in != g.c_out or g.x != g.y:
                msgs.append("LRN preserves shape but geometry says otherwise")
            # A window wider than the channels is clipped, as by every LRN rule.
            if n < 1 or n % 2 == 0:
                msgs.append("LRN local size must be odd and positive, got %d" % n)
    elif layer.kind == "BatchNorm":
        w, b = layer.weights, layer.bias
        if w is None or b is None or w.ndim != 1 or b.ndim != 1 or w.shape != b.shape:
            msgs.append("batch-norm needs matching 1-d scale and shift")
        elif not (_finite(w) and _finite(b)):
            msgs.append("non-finite batch-norm parameters")
    return msgs


def input_shape(net: Network):
    """Shape the network consumes, inferred from its first layer, which must
    pass ``_layer_messages``."""
    first = net.layers[0]
    if first.kind == "Dense":
        return (first.weights.shape[1],)
    if first.kind in ("Conv2D", "Pool2D", "LRN"):
        g = first.geometry
        return (g.c_in, g.x, g.x)
    raise ShapeError("cannot infer the input shape from a %s first layer" % first.kind)


def layer_out_shape(layer: Layer, in_shape):
    """Shape produced by ``layer``, which must pass ``_layer_messages``, given
    ``in_shape``; raises ShapeError."""
    if layer.kind == "Dense":
        w = layer.weights
        if shape_size(in_shape) != w.shape[1]:
            raise ShapeError(
                "dense layer expects %d inputs, got shape %r" % (w.shape[1], (in_shape,))
            )
        return (w.shape[0],)
    if layer.kind in ("Conv2D", "Pool2D", "LRN"):
        g = layer.geometry
        if in_shape != (g.c_in, g.x, g.x):
            raise ShapeError(
                "%s layer expects a (%d, %d, %d) tensor, got %r"
                % (layer.kind, g.c_in, g.x, g.x, (in_shape,))
            )
        if layer.kind == "LRN":
            return in_shape
        return (g.c_out, g.y, g.y)
    if layer.kind == "BatchNorm":
        # A scale vector holds one entry per channel of one position.
        width = layer.weights.shape[0]
        if len(in_shape) not in (1, 3) or in_shape[0] != width:
            raise ShapeError(
                "batch-norm over %d entries cannot consume shape %r" % (width, (in_shape,))
            )
    return in_shape  # BatchNorm or Activation


def output_shapes(net: Network) -> list:
    """Response shape of every layer, in order, as ``validate`` finds them;
    raises ShapeError for a network that fails validation."""
    return require_valid(net, "network fails validation").shapes


def validate(net: Network) -> ValidationReport:
    """Collect every structural violation instead of stopping at the first."""
    violations = []
    n = len(net.layers)
    if n == 0:
        return ValidationReport(False, [(-1, "network has no layers")], [])
    # A one-layer net is its own final response layer; anything deeper keeps
    # the classifier after the FRL.
    frl_max = n - 2 if n > 1 else 0
    if not 0 <= net.frl_index <= frl_max:
        violations.append(
            (-1, "frl_index %d must point before the classifier (0..%d)" % (net.frl_index, frl_max))
        )

    for i, layer in enumerate(net.layers):
        for msg in _layer_messages(layer):
            violations.append((i, msg))
    broken = {i for i, _ in violations}

    # Walk shapes only while they remain well defined; one broken layer or
    # junction makes everything downstream unknowable.
    shapes = [None] * n
    for i, layer in enumerate(net.layers):
        if i in broken:
            break
        try:
            shapes[i] = layer_out_shape(layer, shapes[i - 1] if i else input_shape(net))
        except ShapeError as e:
            violations.append((i, str(e)))
            break

    for edge in net.skip_edges:
        if not (isinstance(edge, tuple) or isinstance(edge, list)) or len(edge) != 2:
            violations.append((-1, "skip edge %r is not a (source, merge) pair" % (edge,)))
            continue
        src, dst = edge
        if not (0 <= src < dst <= n - 1):
            violations.append((-1, "skip edge (%r, %r) out of order or range" % (src, dst)))
            continue
        if shapes[src] is not None and shapes[dst] is not None and shapes[src] != shapes[dst]:
            violations.append(
                (dst, "skip edge (%d, %d) joins shapes %r and %r" % (src, dst, shapes[src], shapes[dst]))
            )

    return ValidationReport(len(violations) == 0, violations, shapes)


def require_valid(net: Network, problem: str) -> ValidationReport:
    """``validate(net)``, or raise ShapeError naming ``problem`` and every violation."""
    report = validate(net)
    if not report.ok:
        raise ShapeError(problem + ": " + "; ".join("layer %d: %s" % v for v in report.violations))
    return report


def layer_params(layer: Layer) -> int:
    """Parameter count: weights plus biases (scale and shift for batch-norm)."""
    return sum(int(a.size) for a in (layer.weights, layer.bias) if a is not None)


def prunable_layer_ids(net: Network) -> list:
    """Layers that own output neurons, up to and including the FRL."""
    return [
        i
        for i in range(net.frl_index + 1)
        if net.layers[i].kind in PRUNABLE_KINDS
    ]


# ---------------------------------------------------------------------------
# serialization

def canonical_json(doc, allow_nan: bool = True) -> bytes:
    """UTF-8 bytes of ``json.dumps(doc, indent=2, sort_keys=True,
    allow_nan=allow_nan)`` and a newline, for a document whose keys are str.

    json indents in pure Python, one call per value. Here dicts and lists of
    containers are walked in Python, but every list of scalars goes to json's
    C encoder in one call, with the newline and indent as item separator.
    """
    parts = []

    def encode(value, separators=None):
        try:
            return json.dumps(value, allow_nan=allow_nan, separators=separators)
        except ValueError:
            # json's C encoder leaves the value out of some messages (an
            # out-of-range float on Python 3.11); raise the indenting
            # encoder's message for the same value instead.
            json.dumps(value, allow_nan=allow_nan, indent=2)
            raise

    def put(value, indent):
        inner = indent + "  "
        if isinstance(value, dict):
            if not value:
                parts.append("{}")
                return
            sep = "{" + inner
            for key in sorted(value):
                if not isinstance(key, str):
                    raise TypeError("keys must be str, not %s" % type(key).__name__)
                parts.append(sep + encode(key) + ": ")
                put(value[key], inner)
                sep = "," + inner
            parts.append(indent + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                parts.append("[]")
                return
            if any(issubclass(t, (list, tuple, dict)) for t in set(map(type, value))):
                sep = "[" + inner
                for item in value:
                    parts.append(sep)
                    put(item, inner)
                    sep = "," + inner
            else:
                parts.append("[" + inner + encode(value, ("," + inner, ": "))[1:-1])
            parts.append(indent + "]")
        else:
            parts.append(encode(value))

    put(doc, "\n")
    parts.append("\n")
    return "".join(parts).encode("utf-8")


def _layer_doc(layer: Layer) -> dict:
    doc = {"kind": layer.kind}
    for key in LAYER_KEYS[layer.kind]:
        value = getattr(layer, key)
        if key == "geometry":
            value = {name: getattr(value, name) for name in GEOMETRY_KEYS}
        doc[key] = value.tolist() if isinstance(value, np.ndarray) else value
    return doc


def save_model(net: Network) -> bytes:
    """Serialize to canonical JSON bytes.

    Floats are written with Python's shortest round-trip representation, so
    load(save(net)) reproduces every weight bit for bit and equal networks
    serialize to equal bytes.
    """
    require_valid(net, "refusing to save an invalid network")
    doc = {
        "frl_index": int(net.frl_index),
        "skip_edges": [[int(s), int(d)] for s, d in net.skip_edges],
        "layers": [_layer_doc(layer) for layer in net.layers],
    }
    return canonical_json(doc, allow_nan=False)


def _as_float_array(value, what: str, ndim: int) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as e:
        raise ModelFormatError("%s is not a numeric array: %s" % (what, e)) from e
    if arr.ndim != ndim:
        raise ModelFormatError("%s must have %d dimensions, got %d" % (what, ndim, arr.ndim))
    return arr


def _as_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelFormatError("%s must be an integer, got %r" % (what, value))
    return value


_WEIGHT_NDIM = {"Dense": 2, "Conv2D": 4, "BatchNorm": 1}


def _reject_unknown_keys(doc: dict, allowed, where: str) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ModelFormatError("%s has unknown keys %s; allowed are %s" % (where, unknown, sorted(allowed)))


def _layer_from_doc(doc, idx: int) -> Layer:
    if not isinstance(doc, dict):
        raise ModelFormatError("layer %d is not an object" % idx)
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ModelFormatError("layer %d has unknown kind %r" % (idx, kind))
    _reject_unknown_keys(doc, ("kind",) + LAYER_KEYS[kind], "layer %d (%s)" % (idx, kind))

    weights = bias = None
    if kind in _WEIGHT_NDIM:
        if "weights" not in doc or "bias" not in doc:
            raise ModelFormatError("layer %d (%s) needs weights and bias" % (idx, kind))
        weights = _as_float_array(doc["weights"], "layer %d weights" % idx, _WEIGHT_NDIM[kind])
        bias = _as_float_array(doc["bias"], "layer %d bias" % idx, 1)

    geometry = None
    if "geometry" in LAYER_KEYS[kind]:
        gdoc = doc.get("geometry")
        if not isinstance(gdoc, dict):
            raise ModelFormatError("layer %d (%s) needs a geometry object" % (idx, kind))
        _reject_unknown_keys(gdoc, GEOMETRY_KEYS, "layer %d geometry" % idx)
        try:
            geometry = Geometry(**{k: _as_int(gdoc[k], "geometry.%s" % k) for k in GEOMETRY_KEYS})
        except KeyError as e:
            raise ModelFormatError("layer %d geometry is missing %s" % (idx, e)) from e

    activation = doc.get("activation", "Identity")
    if not isinstance(activation, str):
        raise ModelFormatError("layer %d activation must be a string" % idx)

    pool_mode = doc.get("pool_mode", "max")
    lrn_local_size = doc.get("lrn_local_size", 0)
    if kind == "LRN":
        lrn_local_size = _as_int(lrn_local_size, "layer %d lrn_local_size" % idx)

    return Layer(
        kind=kind,
        weights=weights,
        bias=bias,
        geometry=geometry,
        activation=activation,
        pool_mode=pool_mode,
        lrn_local_size=lrn_local_size,
    )


def load_model(data) -> Network:
    """Parse canonical JSON into a Network, rejecting anything inconsistent."""
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as e:  # UnicodeDecodeError included
        raise ModelFormatError("model document is not valid JSON: %s" % e) from e
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    _reject_unknown_keys(doc, MODEL_KEYS, "model document")
    layer_docs = doc.get("layers")
    if not isinstance(layer_docs, list) or not layer_docs:
        raise ModelFormatError("model document needs a non-empty layers list")

    layers = tuple(_layer_from_doc(ld, i) for i, ld in enumerate(layer_docs))
    frl_index = _as_int(doc.get("frl_index"), "frl_index") if "frl_index" in doc else None
    if frl_index is None:
        raise ModelFormatError("model document needs frl_index")

    edge_docs = doc.get("skip_edges", [])
    if not isinstance(edge_docs, list):
        raise ModelFormatError("skip_edges must be a list of [source, merge] pairs, got %r" % (edge_docs,))
    edges = []
    for e in edge_docs:
        if not isinstance(e, list) or len(e) != 2:
            raise ModelFormatError("skip edge %r is not a [source, merge] pair" % (e,))
        edges.append((_as_int(e[0], "skip edge source"), _as_int(e[1], "skip edge merge")))

    net = Network(layers=layers, frl_index=frl_index, skip_edges=tuple(edges))
    require_valid(net, "model document describes an inconsistent network")
    return net


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def read_model(path: str) -> Network:
    with open(path, "rb") as fh:
        return load_model(fh.read())


def write_model(net: Network, path: str) -> None:
    atomic_write_bytes(path, save_model(net))
