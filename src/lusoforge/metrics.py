"""Evaluation metrics: Pearson correlation, accuracy, binary F1.

Kept dependency-light and written from the definitions so tests can pit
them against brute-force oracles.
"""

from __future__ import annotations

import math
from typing import Sequence

from lusoforge.errors import DataError


def pearson(pred: Sequence[float], gold: Sequence[float]) -> float:
    """Product-moment correlation. Defined only when both sides vary."""
    if len(pred) != len(gold):
        raise DataError(f"pearson: length mismatch {len(pred)} vs {len(gold)}")
    n = len(pred)
    if n < 2:
        raise DataError("pearson: need at least 2 points")
    mp = sum(pred) / n
    mg = sum(gold) / n
    dp = [p - mp for p in pred]
    dg = [g - mg for g in gold]
    vp = sum(d * d for d in dp)
    vg = sum(d * d for d in dg)
    if vp == 0.0 or vg == 0.0:
        raise DataError("pearson: undefined correlation on constant input")
    return sum(a * b for a, b in zip(dp, dg)) / math.sqrt(vp * vg)


def accuracy(pred: Sequence[int], gold: Sequence[int]) -> float:
    if len(pred) != len(gold):
        raise DataError(f"accuracy: length mismatch {len(pred)} vs {len(gold)}")
    if not pred:
        raise DataError("accuracy: empty input")
    return sum(1 for p, g in zip(pred, gold) if p == g) / len(pred)


def f1_binary(pred: Sequence[int], gold: Sequence[int]) -> float:
    """F1 of class 1: 2PR/(P+R), with the usual convention F1 = 0 when P+R = 0."""
    if len(pred) != len(gold):
        raise DataError(f"f1: length mismatch {len(pred)} vs {len(gold)}")
    if not pred:
        raise DataError("f1: empty input")
    tp = sum(1 for p, g in zip(pred, gold) if p == 1 and g == 1)
    fp = sum(1 for p, g in zip(pred, gold) if p == 1 and g != 1)
    fn = sum(1 for p, g in zip(pred, gold) if p != 1 and g == 1)
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)
