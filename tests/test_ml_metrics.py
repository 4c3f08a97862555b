"""Confusion matrix and metric formula oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranguard.ml.metrics import ConfusionMatrix


def test_hand_computed_binary_metrics():
    cm = ConfusionMatrix(["benign", "attack"])
    cm.add("benign", "benign", 50)
    cm.add("benign", "attack", 10)
    cm.add("attack", "benign", 5)
    cm.add("attack", "attack", 35)
    assert cm.accuracy() == pytest.approx(85 / 100)
    assert cm.precision("attack") == pytest.approx(35 / 45)
    assert cm.recall("attack") == pytest.approx(35 / 40)
    p, r = 35 / 45, 35 / 40
    assert cm.f1("attack") == pytest.approx(2 * p * r / (p + r))


def test_f1_identity_case():
    cm = ConfusionMatrix(["a", "b"])
    cm.add("a", "a", 10)
    cm.add("b", "b", 10)
    assert cm.f1("a") == 1.0 and cm.precision("a") == 1.0 and cm.recall("a") == 1.0


def test_f1_direct_formula_point():
    # P=0.5, R=1.0 -> 2*0.5*1/1.5
    cm = ConfusionMatrix(["a", "b"])
    cm.add("a", "a", 5)
    cm.add("b", "a", 5)
    cm.add("b", "b", 5)
    assert cm.precision("a") == 0.5
    assert cm.recall("a") == 1.0
    assert cm.f1("a") == pytest.approx(2 * 0.5 * 1.0 / 1.5)


def test_symmetric_rates_give_matching_f1():
    # P == R -> F1 equals them both
    cm = ConfusionMatrix(["benign", "attack"])
    cm.add("attack", "attack", 96)
    cm.add("attack", "benign", 4)
    cm.add("benign", "attack", 4)
    cm.add("benign", "benign", 96)
    assert cm.precision("attack") == pytest.approx(0.96)
    assert cm.recall("attack") == pytest.approx(0.96)
    assert cm.f1("attack") == pytest.approx(0.96)


def test_zero_denominator_conventions():
    cm = ConfusionMatrix(["a", "b", "c"])
    cm.add("a", "a", 3)
    cm.add("b", "a", 2)
    # "c" never appears as truth or prediction; "b" never predicted
    assert cm.precision("c") == 0.0
    assert cm.recall("c") == 0.0
    assert cm.f1("c") == 0.0
    assert cm.precision("b") == 0.0
    assert cm.f1("b") == 0.0


def test_accuracy_requires_samples():
    with pytest.raises(ValueError, match="no samples"):
        ConfusionMatrix(["a", "b"]).accuracy()


def test_from_pairs_equals_manual_adds():
    pairs = [("a", "a"), ("a", "b"), ("b", "b"), ("b", "b")]
    cm1 = ConfusionMatrix.from_pairs(["a", "b"], pairs)
    cm2 = ConfusionMatrix(["a", "b"])
    for t, p in pairs:
        cm2.add(t, p)
    assert (cm1.counts == cm2.counts).all()


def test_metrics_match_per_sample_counting():
    rng = np.random.default_rng(17)
    labels = ["w", "x", "y", "z"]
    true = rng.integers(0, 4, size=300)
    pred = rng.integers(0, 4, size=300)
    cm = ConfusionMatrix.from_pairs(labels, [(labels[t], labels[p]) for t, p in zip(true, pred)])
    for i, label in enumerate(labels):
        tp = int(((true == i) & (pred == i)).sum())
        fp = int(((true != i) & (pred == i)).sum())
        fn = int(((true == i) & (pred != i)).sum())
        assert cm.precision(label) == (tp / (tp + fp) if tp + fp else 0.0)
        assert cm.recall(label) == (tp / (tp + fn) if tp + fn else 0.0)
    assert cm.accuracy() == (true == pred).mean()


def test_collapse_sums_blocks():
    cm = ConfusionMatrix(["web", "voip", "hulk"])
    cm.add("web", "voip", 3)
    cm.add("web", "hulk", 2)
    cm.add("voip", "web", 4)
    cm.add("hulk", "hulk", 7)
    cm.add("hulk", "web", 1)
    grouping = {"web": "benign", "voip": "benign", "hulk": "attack"}
    two = cm.collapse(grouping)
    assert two.labels == ("benign", "attack")
    assert two.counts.tolist() == [[7, 2], [1, 7]]
    assert two.total == cm.total


def test_collapse_requires_total_grouping():
    cm = ConfusionMatrix(["a", "b"])
    with pytest.raises(ValueError, match="cover"):
        cm.collapse({"a": "x"})


def test_unknown_label_rejected():
    cm = ConfusionMatrix(["a", "b"])
    with pytest.raises(ValueError, match="'q'"):
        cm.add("q", "a")


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        ConfusionMatrix(["a", "a"])


def test_empty_label_set_rejected():
    with pytest.raises(ValueError, match="empty"):
        ConfusionMatrix([])


def test_render_contains_all_cells():
    cm = ConfusionMatrix(["a", "b"])
    cm.add("a", "b", 12)
    text = str(cm)
    assert "12" in text and "a" in text and "b" in text


@given(
    counts=st.lists(
        st.lists(st.integers(min_value=0, max_value=50), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
@settings(max_examples=60, deadline=None)
def test_metric_ranges_property(counts):
    cm = ConfusionMatrix(["a", "b", "c"])
    cm.counts = np.array(counts, dtype=np.int64)
    if cm.total == 0:
        return
    assert 0.0 <= cm.accuracy() <= 1.0
    for label in cm.labels:
        assert 0.0 <= cm.precision(label) <= 1.0
        assert 0.0 <= cm.recall(label) <= 1.0
        assert 0.0 <= cm.f1(label) <= 1.0
