"""Model file round-trips and format error handling."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranguard.ml import (
    AdaBoost,
    DecisionTree,
    KnnClassifier,
    ModelFormatError,
    RandomForest,
    TreeConfig,
    load_model,
    save_model,
)
from ranguard.pipeline import load_online_model
from file_oracle import save_model_whole, traced_peak, whole_payload

LABELS = ["web", "voip", "ddos_ripper", "dos_hulk", "slowloris"]


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(55)
    X = rng.normal(size=(300, 6)) + rng.integers(0, 5, size=(300, 1)) * 2.0
    y = rng.integers(0, 5, size=300)
    return X, y


@pytest.fixture(scope="module")
def models(dataset):
    X, y = dataset
    return {
        "dt": DecisionTree.train(X, y, 5, TreeConfig(6, 4, 2)),
        "rf": RandomForest.train(X, y, 5, TreeConfig(max_depth=5), n_trees=5, seed=1),
        "knn": KnnClassifier.train(X, y, 5, 3),
        "ada": AdaBoost.train(X, y, 5, rounds=6),
    }


@pytest.mark.parametrize("name", ["dt", "rf", "knn", "ada"])
def test_round_trip_predicts_identically(models, name, tmp_path):
    model = models[name]
    path = tmp_path / f"{name}.json"
    save_model(model, path, LABELS)
    loaded = load_model(path)
    assert loaded.class_labels == tuple(LABELS)
    rng = np.random.default_rng(99)
    queries = rng.normal(size=(1000, model.n_features)) * 5.0
    assert (loaded.model.predict_batch(queries) == model.predict_batch(queries)).all()


@pytest.mark.parametrize("name", ["dt", "rf", "knn", "ada"])
def test_loaded_model_saves_back_to_the_same_bytes(models, name, tmp_path):
    save_model(models[name], tmp_path / "first.json", LABELS)
    save_model(load_model(tmp_path / "first.json").model, tmp_path / "again.json", LABELS)
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "first.json").read_bytes()


def test_label_count_must_match(models, tmp_path):
    with pytest.raises(ValueError, match="labels"):
        save_model(models["dt"], tmp_path / "x.json", ["a", "b"])


def test_load_missing_file(tmp_path):
    with pytest.raises(ModelFormatError, match="not found"):
        load_model(tmp_path / "ghost.json")


def test_empty_path_rejected(models):
    with pytest.raises(ValueError, match="empty"):
        save_model(models["dt"], "", LABELS)
    with pytest.raises(ModelFormatError, match="empty"):
        load_model("")


def test_truncated_file_rejected(models, tmp_path):
    path = tmp_path / "m.json"
    save_model(models["dt"], path, LABELS)
    raw = path.read_text()
    path.write_text(raw[: len(raw) // 2])
    with pytest.raises(ModelFormatError, match="not a valid"):
        load_model(path)


def test_deeply_nested_file_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[" * 200_000)
    with pytest.raises(ModelFormatError, match="not a valid"):
        load_model(path)


def test_wrong_format_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(ModelFormatError, match="not a"):
        load_model(path)


def test_version_mismatch_rejected(models, tmp_path):
    path = tmp_path / "m.json"
    save_model(models["dt"], path, LABELS)
    doc = json.loads(path.read_text())
    doc["version"] = 999
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path)


def test_unknown_algo_rejected(models, tmp_path):
    path = tmp_path / "m.json"
    save_model(models["dt"], path, LABELS)
    doc = json.loads(path.read_text())
    doc["algo"] = "svm"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="algorithm"):
        load_model(path)


def test_malformed_payload_rejected(models, tmp_path):
    path = tmp_path / "m.json"
    save_model(models["dt"], path, LABELS)
    doc = json.loads(path.read_text())
    del doc["payload"]["threshold"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="payload"):
        load_model(path)


def test_label_model_mismatch_rejected(models, tmp_path):
    path = tmp_path / "m.json"
    save_model(models["dt"], path, LABELS)
    doc = json.loads(path.read_text())
    doc["class_labels"] = ["a", "b"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="labels"):
        load_model(path)


def test_thresholds_round_trip_exactly(models, tmp_path):
    model = models["dt"]
    path = tmp_path / "m.json"
    save_model(model, path, LABELS)
    loaded = load_model(path).model
    assert loaded.threshold.tolist() == model.threshold.tolist()
    assert loaded.counts.tolist() == model.counts.tolist()


@settings(max_examples=40, deadline=None)
@given(
    algo=st.sampled_from(["dt", "rf", "ada", "knn"]),
    trees=st.integers(1, 5),
    seed=st.integers(0, 2**16),
    n=st.integers(12, 120),
    labels=st.lists(st.text(max_size=4), min_size=3, max_size=3),
)
def test_saved_file_equals_one_dumps_of_the_envelope(tmp_path_factory, algo, trees, seed, n, labels):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-6, 7, size=4)
    y = (X[:, 0] > 0) + (X[:, 1] > 0) * (rng.random(n) < 0.8)  # learnable, with noise
    if algo == "dt":
        model = DecisionTree.train(X, y, 3, TreeConfig(6, 2, 1))
    elif algo == "rf":
        model = RandomForest.train(X, y, 3, TreeConfig(max_depth=6), n_trees=trees, seed=seed)
    elif algo == "ada":
        model = AdaBoost.train(X, y, 3, rounds=trees)
    else:
        model = KnnClassifier.train(X, y, 3, 3)
    folder = tmp_path_factory.mktemp("save")
    save_model(model, folder / "streamed.json", labels)
    save_model_whole(model, folder / "whole.json", labels)
    assert (folder / "streamed.json").read_bytes() == (folder / "whole.json").read_bytes()


def test_failed_save_keeps_the_existing_model(models, tmp_path, monkeypatch):
    path = tmp_path / "m.json"
    save_model(models["dt"], path, LABELS)
    before = path.read_bytes()
    real = DecisionTree.to_dict
    made = []

    def third_tree_fails(tree):
        made.append(tree)
        if len(made) == 3:
            raise RuntimeError("disk on fire")
        return real(tree)

    monkeypatch.setattr(DecisionTree, "to_dict", third_tree_fails)
    with pytest.raises(RuntimeError, match="disk on fire"):
        save_model(models["rf"], path, LABELS)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # no temporary file left


def test_save_memory_does_not_grow_with_the_trees(tmp_path):
    # one dumps of the whole envelope peaked at 1.2 MB for 10 trees and 4.4 MB for 40
    rng = np.random.default_rng(7)
    X = rng.normal(size=(2000, 6))
    forest = RandomForest.train(X, rng.integers(0, 5, size=2000), 5, TreeConfig(15), n_trees=10, seed=0)

    def peak(copies: int) -> int:
        model = RandomForest(forest.trees * copies, forest.n_features, forest.n_classes)
        return traced_peak(lambda: save_model(model, tmp_path / f"{copies}.json", LABELS))

    assert peak(4) - peak(1) < 500_000


def save_mutated(model, path, mutate) -> None:
    """Save model, then apply mutate to the payload dict in the file."""
    save_model(model, path, LABELS[: model.n_classes])
    doc = json.loads(path.read_text())
    mutate(doc["payload"])
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "name, mutate",
    [
        ("dt", lambda p: p["left"].__setitem__(0, 0)),  # predict would loop forever
        ("dt", lambda p: p["feature"].__setitem__(0, p["n_features"])),  # failed only when served
        ("dt", lambda p: p["right"].__setitem__(0, 2**40)),  # does not fit the index arrays
        ("rf", lambda p: p["trees"][1].__setitem__("n_features", p["n_features"] + 1)),
        ("ada", lambda p: p["alphas"].__setitem__(0, float("inf"))),
        ("knn", lambda p: p["y"].__setitem__(0, 7)),  # an IndexError when served
        ("knn", lambda p: p.__setitem__("n_features", p["n_features"] + 1)),
        ("knn", lambda p: p["mins"].pop()),
        ("knn", lambda p: p["ranges"].__setitem__(0, 0.0)),
        ("knn", lambda p: p["X_scaled"][0].__setitem__(0, None)),  # NaN
        ("knn", lambda p: p.__setitem__("k", len(p["y"]) + 1)),
    ],
)
def test_structurally_broken_model_rejected_at_load(models, name, mutate, tmp_path):
    path = tmp_path / "m.json"
    save_mutated(models[name], path, mutate)
    with pytest.raises(ModelFormatError, match="malformed"):
        load_model(path)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_load_rejects_or_serves_any_index_corruption(tmp_path_factory, data):
    # one corrupted child or feature index: the load fails cleanly or predict terminates
    X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0], [4.0, 0.0], [5.0, 2.0]])
    tree = DecisionTree.train(X, np.array([0, 1, 2, 0, 1, 2]), 3, TreeConfig(4, 2, 1))
    key = data.draw(st.sampled_from(["feature", "left", "right"]))
    node = data.draw(st.integers(0, len(tree.feature) - 1))
    value = data.draw(st.integers(-3, len(tree.feature) + 2))
    path = tmp_path_factory.mktemp("fuzz") / "m.json"
    save_mutated(tree, path, lambda p: p[key].__setitem__(node, value))
    try:
        model = load_model(path).model
    except ModelFormatError:
        return
    x = data.draw(st.lists(st.floats(-3, 3), min_size=2, max_size=2))
    assert 0 <= model.predict(x) < 3


@pytest.fixture(scope="module")
def served_models():
    """A small model of each family on the 10 features of a measurement, with 5 classes."""
    rng = np.random.default_rng(8)
    X = rng.normal(size=(24, 10)) + rng.integers(0, 5, size=(24, 1))
    y = rng.integers(0, 5, size=24)
    return [
        DecisionTree.train(X, y, 5, TreeConfig(3, 2, 1)),
        RandomForest.train(X, y, 5, TreeConfig(3, 2, 1), n_trees=2, seed=0),
        AdaBoost.train(X, y, 5, rounds=3),
        KnnClassifier.train(X, y, 5, 3),
    ]


EDIT_VALUES = st.one_of(
    st.integers(-3, 12),  # an index or a count near its range
    st.just(2**63),  # past every index type
    st.floats(),
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(0, 4), max_size=3),
    st.just({}),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_served_model_file_with_one_edit_is_refused_or_predicts_in_range(
    tmp_path_factory, served_models, data
):
    # one value of the payload replaced or deleted: the load fails cleanly, or every prediction is a class
    model = data.draw(st.sampled_from(served_models))
    keys, node = [], whole_payload(model)
    while True:  # down from the payload, at each level to one key or element
        keys.append(data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node)))))
        node = node[keys[-1]]
        if not isinstance(node, (dict, list)) or not node or data.draw(st.booleans()):
            break
    delete = data.draw(st.booleans())
    value = None if delete else data.draw(EDIT_VALUES)

    def edit(payload: dict) -> None:
        for key in keys[:-1]:
            payload = payload[key]
        if delete:
            del payload[keys[-1]]
        else:
            payload[keys[-1]] = value

    path = tmp_path_factory.mktemp("edit") / "m.json"
    save_mutated(model, path, edit)
    try:
        served, _ = load_online_model(path)
    except ModelFormatError:
        return
    rows = np.random.default_rng(data.draw(st.integers(0, 2**16))).normal(size=(8, 10)) * 10.0
    assert all(0 <= served.predict(row) < 5 for row in rows)
