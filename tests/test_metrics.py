"""Metric tests: pinned examples plus brute-force random-case agreement."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lusoforge.errors import DataError
from lusoforge.metrics import accuracy, f1_binary, pearson


# ----------------------------------------------------------------- pearson

def test_pearson_perfect_linear():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)


def test_pearson_perfect_antilinear():
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)


def test_pearson_pinned_example():
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)


def test_pearson_constant_input_error():
    with pytest.raises(DataError, match="undefined correlation"):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(DataError, match="undefined correlation"):
        pearson([1, 2, 3], [5, 5, 5])


def test_pearson_length_mismatch():
    with pytest.raises(DataError):
        pearson([1, 2], [1, 2, 3])


def test_pearson_needs_two_points():
    with pytest.raises(DataError):
        pearson([1], [1])


def test_pearson_matches_numpy_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 50))
        pred = rng.normal(size=n)
        gold = rng.normal(size=n)
        want = np.corrcoef(pred, gold)[0, 1]
        assert pearson(pred.tolist(), gold.tolist()) == pytest.approx(want, abs=1e-9)


def test_pearson_symmetry_and_bounds():
    rng = np.random.default_rng(1)
    pred = rng.normal(size=20)
    gold = rng.normal(size=20)
    a = pearson(pred.tolist(), gold.tolist())
    b = pearson(gold.tolist(), pred.tolist())
    assert a == pytest.approx(b, abs=1e-12)
    assert -1.0 <= a <= 1.0


# ----------------------------------------------------------------- accuracy

def test_accuracy_all_correct():
    assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0


def test_accuracy_half():
    assert accuracy([1, 0, 1, 0], [1, 1, 1, 1]) == 0.5


def test_accuracy_empty_error():
    with pytest.raises(DataError):
        accuracy([], [])


def test_accuracy_length_mismatch():
    with pytest.raises(DataError):
        accuracy([1], [1, 0])


# ----------------------------------------------------------------- f1

def test_f1_all_correct():
    assert f1_binary([1, 1, 0], [1, 1, 0]) == 1.0


def test_f1_pinned_confusion():
    # TP=1 (pred 1 / gold 1), FP=1 (pred 1 / gold 0), FN=1 (pred 0 / gold 1)
    pred = [1, 1, 0]
    gold = [1, 0, 1]
    assert f1_binary(pred, gold) == pytest.approx(0.5, abs=1e-12)


def test_f1_degenerate_zero_convention():
    assert f1_binary([0, 0], [0, 0]) == 0.0


def test_f1_no_true_positives():
    assert f1_binary([1, 1], [0, 0]) == 0.0
    assert f1_binary([0, 0], [1, 1]) == 0.0


def brute_f1(pred, gold, positive=1):
    tp = sum(p == positive and g == positive for p, g in zip(pred, gold))
    fp = sum(p == positive and g != positive for p, g in zip(pred, gold))
    fn = sum(p != positive and g == positive for p, g in zip(pred, gold))
    if tp + fp == 0 or tp + fn == 0 or tp == 0:
        return 0.0
    prec, rec = tp / (tp + fp), tp / (tp + fn)
    return 2 * prec * rec / (prec + rec)


def test_f1_matches_brute_force_oracle():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        pred = rng.integers(0, 2, size=n).tolist()
        gold = rng.integers(0, 2, size=n).tolist()
        assert f1_binary(pred, gold) == pytest.approx(brute_f1(pred, gold), abs=1e-12)


# ----------------------------------------------------------------- properties

@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=30),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_accuracy_and_f1_bounded(gold, seed):
    rng = np.random.default_rng(seed)
    pred = rng.integers(0, 2, size=len(gold)).tolist()
    a = accuracy(pred, gold)
    f = f1_binary(pred, gold)
    assert 0.0 <= a <= 1.0
    assert 0.0 <= f <= 1.0
    assert f == pytest.approx(brute_f1(pred, gold), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**31 - 1))
def test_pearson_affine_invariance(n, seed):
    rng = np.random.default_rng(seed)
    pred = rng.normal(size=n)
    gold = rng.normal(size=n)
    if np.ptp(pred) == 0 or np.ptp(gold) == 0:
        return
    base = pearson(pred.tolist(), gold.tolist())
    scaled = pearson((3.0 * pred + 7.0).tolist(), gold.tolist())
    assert scaled == pytest.approx(base, abs=1e-9)
