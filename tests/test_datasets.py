import numpy as np
import pytest

from nisprune.datasets import Dataset, load_dataset, manifest_path_for, save_dataset
from nisprune.errors import DataError


def test_roundtrip_labeled(tmp_path):
    path = str(tmp_path / "d.csv")
    ds = Dataset(inputs=np.array([[1.5, -2.0], [0.1, 1e-12]]), labels=np.array([0, 1]))
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.inputs, ds.inputs)
    assert np.array_equal(back.labels, ds.labels)


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
