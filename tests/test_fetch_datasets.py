"""scripts/fetch_datasets.py writes feature files that load back bit for bit,
and refuses values its unquoted CSV fields cannot hold."""

import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from zen import hypergraph, load_features

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fetch_datasets.py"


@pytest.fixture(scope="module")
def fetch_datasets():
    spec = importlib.util.spec_from_file_location("fetch_datasets", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


EDGES = [[0, 1], [1, 2, 3], [3, 4]]
LABELS = ["a", "b", "a", "b", "a"]
BINARY = [[0, 1, 0], [1, 0, 0], [0, 0, 1], [1, 1, 0], [0, 0, 0]]
MIXED = [[0.0, -0.0, 3.0], [0.5, -2.0, 1e-310], [1e15, 1e16, -1e300],
         [0.1, 2.5e-8, 7.0], [1.0, 9.0, 10.0]]


def convert(fetch_datasets, tmp_path, **payload):
    src = tmp_path / "dump.json"
    src.write_text(json.dumps({"edges": EDGES, "labels": LABELS, **payload}))
    fetch_datasets.convert(str(src), str(tmp_path / "out"))
    return tmp_path / "out" / "features.csv"


@pytest.mark.parametrize("names", [None, ["x", "y", "z"]])
@pytest.mark.parametrize("features", [BINARY, MIXED], ids=["binary", "mixed"])
def test_converted_features_load_bit_for_bit(fetch_datasets, tmp_path, features, names):
    extra = {} if names is None else {"feature_names": names}
    path = convert(fetch_datasets, tmp_path, features=features, **extra)
    X, got_names = load_features(path)
    assert got_names == (None if names is None else tuple(names))
    npt.assert_array_equal(X.view(np.int64), np.array(features, dtype=np.float64).view(np.int64))


def test_integral_values_are_written_as_integers(fetch_datasets, tmp_path):
    path = convert(fetch_datasets, tmp_path, features=MIXED)
    assert path.read_text().splitlines()[0] == "0,-0.0,3"
    assert path.read_text().splitlines()[2] == "1000000000000000,1e+16,-1e+300"


@pytest.mark.parametrize("payload", [{"features": BINARY}, {}], ids=["binary", "featureless"])
def test_binary_and_identity_features_load_as_a_digit_grid(fetch_datasets, tmp_path,
                                                          monkeypatch, payload):
    path = convert(fetch_datasets, tmp_path, **payload)

    def refuse(*args, **kwargs):
        raise AssertionError("loadtxt called")

    monkeypatch.setattr(hypergraph.np, "loadtxt", refuse)
    X, names = load_features(path)
    assert names is None
    npt.assert_array_equal(X, payload.get("features", np.eye(len(LABELS))))


@pytest.mark.parametrize("name", ["x,y", "x\ny", "x\ry"])
def test_feature_names_that_would_split_a_field_are_refused(fetch_datasets, tmp_path, name):
    with pytest.raises(SystemExit, match=re.escape(f"feature name {name!r} holds")):
        convert(fetch_datasets, tmp_path, features=BINARY, feature_names=[name, "z", "w"])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("label", ["a,b", "a\nb", "a\rb"])
def test_labels_that_would_split_a_field_are_refused(fetch_datasets, tmp_path, label):
    with pytest.raises(SystemExit, match=re.escape(f"label {label!r} holds")):
        convert(fetch_datasets, tmp_path, features=BINARY, labels=[label, *LABELS[1:]])
    assert not (tmp_path / "out").exists()
