"""Dataset container and the CSV + manifest interchange format.

Rows are flattened samples under a header ``x0,...,x{d-1},label``. Tensor
datasets flatten channel-major and declare their per-sample shape in a
sidecar manifest (``foo.csv`` pairs with ``foo.manifest.json``).
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .model import atomic_write_bytes, atomic_write_text


@dataclass
class Dataset:
    inputs: np.ndarray  # (m, d) vectors or (m, c, x, x) tensors
    labels: np.ndarray | None = None  # (m,) integer classes


def manifest_path_for(csv_path: str) -> str:
    base = csv_path[:-4] if csv_path.endswith(".csv") else csv_path
    return base + ".manifest.json"


def save_dataset(ds: Dataset, csv_path: str) -> None:
    inputs = np.asarray(ds.inputs, dtype=float)
    if inputs.ndim not in (2, 4):
        raise DataError("inputs must be (m, d) or (m, c, x, x), got %r" % (inputs.shape,))
    flat = inputs.reshape(inputs.shape[0], -1)
    labels = ds.labels
    if labels is not None and len(labels) != flat.shape[0]:
        raise DataError("%d rows but %d labels" % (flat.shape[0], len(labels)))

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["x%d" % j for j in range(flat.shape[1])] + ["label"])
    for i, row in enumerate(flat):
        label = "" if labels is None else str(int(labels[i]))
        writer.writerow([repr(float(v)) for v in row] + [label])
    atomic_write_text(csv_path, buf.getvalue())

    manifest = {"input_shape": [int(d) for d in inputs.shape[1:]]}
    atomic_write_bytes(
        manifest_path_for(csv_path),
        (json.dumps(manifest, sort_keys=True) + "\n").encode("utf-8"),
    )


def _read_plain(fh):
    r"""(values, labels) of a CSV that needs none of csv's quoting, or None.

    Read with ``newline=""``, a line holds one line end, "\n", "\r" or
    "\r\n", at its end. Without it, a line that holds no quote and no NUL
    splits at every comma under csv's default dialect, so ``str.split`` hands
    ``float()`` and ``int()`` the very strings ``csv.reader`` would. Any other
    line, and any error, returns None, and ``_read_rows`` reads the whole
    file again, so every message stays its own. Rows are parsed as they
    stream by, without holding the text or its field strings.
    """
    limit = csv.field_size_limit()

    def fields_of(line):
        line = line.rstrip("\r\n")
        if not line or '"' in line or "\0" in line:
            return None
        fields = line.split(",")
        if len(line) > limit and max(map(len, fields)) > limit:
            return None  # csv.reader raises on a field over its size limit
        return fields

    header = fields_of(fh.readline())
    if header is None:
        return None
    has_label = header[-1] == "label"
    d = len(header) - 1 if has_label else len(header)
    if header[:d] != ["x%d" % j for j in range(d)]:
        return None
    rows, texts = [], []
    try:
        for line in fh:
            fields = fields_of(line)
            if fields is None or len(fields) != len(header):
                return None
            rows.append(np.fromiter(map(float, fields[:d]), float, d))
            if has_label:
                texts.append(fields[d])
        labels = np.array([int(text) for text in texts], dtype=int) if any(texts) else None
    except (ValueError, OverflowError):
        return None
    if not rows:
        return None
    return np.array(rows), labels


def _read_rows(csv_path: str):
    """(values, labels) of any CSV through ``csv.reader``; raises DataError."""
    try:
        with open(csv_path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError("%s is empty" % csv_path) from None
            rows = list(reader)
    except OSError as e:
        raise DataError("cannot read %s: %s" % (csv_path, e)) from e

    has_label = bool(header) and header[-1] == "label"
    d = len(header) - 1 if has_label else len(header)
    expected = ["x%d" % j for j in range(d)]
    if header[:d] != expected:
        raise DataError("%s header must be x0..x%d[,label]" % (csv_path, d - 1))
    if not rows:
        raise DataError("%s has no data rows" % csv_path)

    values = np.empty((len(rows), d))
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError("%s row %d has %d fields, expected %d" % (csv_path, i + 2, len(row), len(header)))
        try:
            values[i] = [float(v) for v in row[:d]]
        except ValueError as e:
            raise DataError("%s row %d: %s" % (csv_path, i + 2, e)) from e

    # An all-empty label column is how unlabeled data is saved; a column
    # that is empty on only some rows is an error, not unlabeled data.
    texts = [row[d] for row in rows] if has_label else []
    labels = None
    if any(texts):
        labels = np.empty(len(rows), dtype=int)
        for i, text in enumerate(texts):
            try:
                labels[i] = int(text)
            except (ValueError, OverflowError) as e:
                raise DataError("%s row %d: label %r is not an integer; label every row or none"
                                % (csv_path, i + 2, text)) from e
    return values, labels


def load_dataset(csv_path: str) -> Dataset:
    try:
        with open(csv_path, newline="") as fh:
            parsed = _read_plain(fh)
    except OSError as e:
        raise DataError("cannot read %s: %s" % (csv_path, e)) from e
    values, labels = parsed or _read_rows(csv_path)
    if not np.isfinite(values).all():
        raise DataError("%s contains non-finite values" % csv_path)

    shape = None
    mpath = manifest_path_for(csv_path)
    if os.path.exists(mpath):
        try:
            with open(mpath) as fh:
                manifest = json.load(fh)
            shape = tuple(int(v) for v in manifest["input_shape"])
        except (OSError, ValueError, KeyError, TypeError) as e:
            raise DataError("bad manifest %s: %s" % (mpath, e)) from e
    if shape is not None and int(np.prod(shape)) != values.shape[1]:
        raise DataError("manifest shape %r does not hold %d values" % (shape, values.shape[1]))
    if shape is not None and len(shape) == 3:
        values = values.reshape((len(values),) + shape)

    return Dataset(inputs=values, labels=labels)
