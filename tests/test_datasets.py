import csv
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings

import factories
import oracles
from nisprune import datasets
from nisprune.datasets import Dataset, load_dataset, manifest_path_for, save_dataset
from nisprune.errors import DataError


def test_roundtrip_labeled(tmp_path):
    path = str(tmp_path / "d.csv")
    ds = Dataset(inputs=np.array([[1.5, -2.0], [0.1, 1e-12]]), labels=np.array([0, 1]))
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.inputs, ds.inputs)
    assert np.array_equal(back.labels, ds.labels)


def test_load_decodes_utf8_under_an_ascii_locale(tmp_path):
    # The CSV is UTF-8 whatever the locale; float() reads the Arabic-Indic
    # digit one as 1.
    path = tmp_path / "d.csv"
    path.write_bytes("x0,label\n\u0661.5,0\n2.0,1\n".encode("utf-8"))
    package_root = os.path.dirname(os.path.dirname(datasets.__file__))
    env = dict(os.environ, PYTHONUTF8="0", LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    code = "import sys; from nisprune.datasets import load_dataset; print(load_dataset(sys.argv[1]).inputs.tolist())"
    done = subprocess.run([sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[[1.5], [2.0]]\n", "")


def test_roundtrip_unlabeled(tmp_path):
    path = str(tmp_path / "d.csv")
    ds = Dataset(inputs=np.array([[0.25, 3.0, -1.0]]), labels=None)
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.labels is None
    assert np.array_equal(back.inputs, ds.inputs)


def test_roundtrip_tensor_shape_via_manifest(tmp_path):
    path = str(tmp_path / "t.csv")
    rng = np.random.default_rng(0)
    ds = Dataset(inputs=rng.standard_normal((4, 2, 3, 3)), labels=np.array([0, 1, 0, 1]))
    save_dataset(ds, path)
    assert (tmp_path / "t.manifest.json").exists()
    back = load_dataset(path)
    assert back.inputs.shape == (4, 2, 3, 3)
    assert np.array_equal(back.inputs, ds.inputs)


def test_manifest_path_for():
    assert manifest_path_for("a/b/data.csv") == "a/b/data.manifest.json"
    assert manifest_path_for("plain") == "plain.manifest.json"


def test_header_and_parse_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b,label\n1,2,0\n")
    with pytest.raises(DataError):
        load_dataset(str(bad_header))

    bad_value = tmp_path / "v.csv"
    bad_value.write_text("x0,x1,label\n1.0,oops,0\n")
    with pytest.raises(DataError) as err:
        load_dataset(str(bad_value))
    assert "2" in str(err.value)  # failing row is identified

    non_finite = tmp_path / "n.csv"
    non_finite.write_text("x0,label\ninf,0\n")
    with pytest.raises(DataError):
        load_dataset(str(non_finite))


def test_empty_dataset_rejected(tmp_path):
    empty = tmp_path / "e.csv"
    empty.write_text("x0,x1,label\n")
    with pytest.raises(DataError):
        load_dataset(str(empty))


def test_partly_labeled_rows_are_rejected(tmp_path):
    partly = tmp_path / "partly.csv"
    partly.write_text("x0,label\n1.0,0\n2.0,\n3.0,1\n")
    with pytest.raises(DataError, match="row 3"):
        load_dataset(str(partly))
    huge = tmp_path / "huge.csv"
    huge.write_text("x0,label\n1.0,99999999999999999999\n")
    with pytest.raises(DataError):
        load_dataset(str(huge))


def test_all_empty_label_column_loads_unlabeled(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text("x0,x1,label\n1.0,2.0,\n3.0,4.0,\n")
    back = load_dataset(str(path))
    assert back.labels is None
    assert np.array_equal(back.inputs, [[1.0, 2.0], [3.0, 4.0]])


def test_float_precision_survives(tmp_path):
    path = str(tmp_path / "p.csv")
    vals = np.array([[np.pi, np.e, 1e-300, -1.2345678901234567]])
    save_dataset(Dataset(inputs=vals, labels=None), path)
    assert np.array_equal(load_dataset(path).inputs, vals)


def _outcome(load, path):
    try:
        ds = load(path)
    except Exception as err:  # noqa: BLE001 - the exception itself is compared
        return ("error", type(err), str(err))
    labels = None if ds.labels is None else (ds.labels.dtype, ds.labels.tobytes())
    return ("ok", ds.inputs.shape, ds.inputs.dtype, ds.inputs.tobytes(), labels)


@given(factories.mutated_csv())
@settings(max_examples=100, deadline=None)
def test_load_matches_csv_reader_loop(case):
    # Same input bytes and labels, or the same exception type and message.
    data, manifest = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        if manifest is not None:
            with open(manifest_path_for(path), "w") as fh:
                fh.write(manifest)
        assert _outcome(load_dataset, path) == _outcome(oracles.load_dataset_reference, path)


def test_load_matches_csv_reader_loop_on_undecodable_bytes_and_long_fields(tmp_path):
    # Where the csv.reader loop lets UnicodeDecodeError or csv.Error escape,
    # load_dataset raises DataError with the same text after the file name.
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"x0,label\n1.0,0\n\xff,1\n")
    want = _outcome(oracles.load_dataset_reference, str(bad))
    assert want[:2] == ("error", UnicodeDecodeError)
    assert _outcome(load_dataset, str(bad)) == ("error", DataError, "cannot read %s: %s" % (bad, want[2]))
    # csv.reader refuses a field longer than its size limit even where
    # float() would take it.
    long = tmp_path / "long.csv"
    long.write_text("x0,x1\n1.5,%s\n" % ("0" * 40 + "1.5"))
    # Rows are parsed as they stream by, so a bad value on row 2 reports
    # before the over-limit field on row 3 that the old loop met first.
    late = tmp_path / "late.csv"
    late.write_text("x0,x1\n1.5,abc\n1.5,%s\n" % ("0" * 40 + "1.5"))
    old = csv.field_size_limit(32)
    try:
        want = _outcome(oracles.load_dataset_reference, str(long))
        assert want[:2] == ("error", csv.Error)
        assert _outcome(load_dataset, str(long)) == ("error", DataError, "cannot read %s: %s" % (long, want[2]))
        assert _outcome(oracles.load_dataset_reference, str(late))[:2] == ("error", csv.Error)
        assert _outcome(load_dataset, str(late)) == (
            "error", DataError, "%s row 2: could not convert string to float: 'abc'" % late)
    finally:
        csv.field_size_limit(old)
    assert np.array_equal(load_dataset(str(long)).inputs, [[1.5, 1.5]])


def test_plain_csv_is_read_without_csv_reader(tmp_path, monkeypatch):
    path = str(tmp_path / "d.csv")
    rng = np.random.default_rng(3)
    save_dataset(Dataset(inputs=rng.standard_normal((5, 2, 2, 2)), labels=np.arange(5)), path)
    want = oracles.load_dataset_reference(path)
    calls, reader = [], datasets.csv.reader
    monkeypatch.setattr(datasets.csv, "reader", lambda lines: calls.append(lines) or reader(lines))
    got = load_dataset(path)
    assert calls == []
    assert got.inputs.tobytes() == want.inputs.tobytes() and got.inputs.shape == (5, 2, 2, 2)
    assert np.array_equal(got.labels, want.labels)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace("x1", '"x1"'))
    load_dataset(path)
    assert len(calls) == 1
