"""Dataset container and the CSV + manifest interchange format.

Rows are flattened samples under a header ``x0,...,x{d-1},label``. Tensor
datasets flatten channel-major and declare their per-sample shape in a
sidecar manifest (``foo.csv`` pairs with ``foo.manifest.json``).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .model import atomic_write_bytes, atomic_write_text, shape_size


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


def _rows(fh):
    r"""Yield the rows ``csv.reader(fh)`` would, splitting plain lines itself.

    Read with ``newline=""``, a line holds one line end, "\n", "\r" or
    "\r\n", at its end. Without it, a line that holds no quote and no NUL
    splits at every comma under csv's default dialect, so ``str.split`` gives
    ``float()`` and ``int()`` the very strings ``csv.reader`` would. From the
    first line that needs csv's quoting, or holds a field over csv's size
    limit, ``csv.reader`` reads the rest of the stream, that line included.
    """
    limit = csv.field_size_limit()
    for line in fh:
        text = line.rstrip("\r\n")
        if '"' in text or "\0" in text:
            break
        fields = text.split(",") if text else []
        if len(text) > limit and max(map(len, fields)) > limit:
            break  # csv.reader raises on a field over its size limit
        yield fields
    else:
        return
    yield from csv.reader(itertools.chain([line], fh))


def load_dataset(csv_path: str) -> Dataset:
    """Read a CSV (and its manifest) in one pass; any bad input raises DataError.

    Rows are parsed as they stream by, without holding the text or its field
    strings. Labels are parsed after every value, so a bad value reports
    before a bad label on any row.
    """
    try:
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = _rows(fh)
            header = next(rows, None)
            if header is None:
                raise DataError("%s is empty" % csv_path)
            has_label = bool(header) and header[-1] == "label"
            d = len(header) - 1 if has_label else len(header)
            if header[:d] != ["x%d" % j for j in range(d)]:
                raise DataError("%s header must be x0..x%d[,label]" % (csv_path, d - 1))
            values, texts = [], []
            for i, row in enumerate(rows, 2):
                if len(row) != len(header):
                    raise DataError("%s row %d has %d fields, expected %d" % (csv_path, i, len(row), len(header)))
                try:
                    values.append(np.fromiter(map(float, row[:d]), float, d))
                except ValueError as e:
                    raise DataError("%s row %d: %s" % (csv_path, i, e)) from e
                if has_label:
                    texts.append(row[d])
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise DataError("cannot read %s: %s" % (csv_path, e)) from e
    if not values:
        raise DataError("%s has no data rows" % csv_path)
    values = np.array(values)

    # An all-empty label column is how unlabeled data is saved; a column
    # that is empty on only some rows is an error, not unlabeled data.
    labels = None
    if any(texts):
        labels = np.empty(len(texts), dtype=int)
        for i, text in enumerate(texts):
            try:
                labels[i] = int(text)
            except (ValueError, OverflowError) as e:
                raise DataError("%s row %d: label %r is not an integer; label every row or none"
                                % (csv_path, i + 2, text)) from e
    if not np.isfinite(values).all():
        raise DataError("%s contains non-finite values" % csv_path)

    shape = None
    mpath = manifest_path_for(csv_path)
    if os.path.exists(mpath):
        try:
            with open(mpath, encoding="utf-8") as fh:
                manifest = json.load(fh)
            shape = manifest["input_shape"]
        except (OSError, ValueError, KeyError, TypeError, RecursionError) as e:
            raise DataError("bad manifest %s: %s" % (mpath, e)) from e
        # bool is an int subclass, and JSON's true is no width.
        if not (type(shape) is list and len(shape) in (1, 3) and all(type(v) is int and v > 0 for v in shape)):
            raise DataError("bad manifest %s: input_shape must be a list of 1 or 3 positive integers, got %r"
                            % (mpath, shape))
        shape = tuple(shape)
    if shape is not None and shape_size(shape) != values.shape[1]:
        raise DataError("manifest shape %r does not hold %d values" % (shape, values.shape[1]))
    if shape is not None and len(shape) == 3:
        values = values.reshape((len(values),) + shape)

    return Dataset(inputs=values, labels=labels)
