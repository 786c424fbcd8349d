"""Reference implementations kept as test oracles.

These are the straightforward versions of two algorithms that `src/` runs in
a faster, exact form: greedy BPE training that recounts every pair of every
word before each merge, and the near-duplicate scan that compares each
document with every kept one. Tests require equal results from both.
"""

from __future__ import annotations

from collections import Counter

from lusoforge.corpus import _shingles
from lusoforge.errors import DataError
from lusoforge.tokenizer import SPECIAL_TOKENS, _marked_words


def train_bpe_reference(texts, vocab_size: int) -> tuple[list[tuple[str, str]], dict[str, int]]:
    """(merges, vocab) of greedy BPE with a full recount per merge."""
    word_freq: Counter[str] = Counter()
    for text in texts:
        for w in _marked_words(text):
            word_freq[w] += 1
    if not word_freq:
        raise DataError("cannot train tokenizer on an empty corpus")
    base = sorted({ch for w in word_freq for ch in w})
    if vocab_size < len(SPECIAL_TOKENS) + len(base) + 1:
        raise DataError(f"vocab_size {vocab_size} too small")

    vocab: dict[str, int] = {t: i for i, t in enumerate(SPECIAL_TOKENS)}
    for ch in base:
        vocab[ch] = len(vocab)
    words: dict[tuple[str, ...], int] = {tuple(w): f for w, f in word_freq.items()}
    merges: list[tuple[str, str]] = []
    while len(vocab) < vocab_size:
        pair_freq: Counter[tuple[str, str]] = Counter()
        for syms, f in words.items():
            for a, b in zip(syms, syms[1:]):
                pair_freq[(a, b)] += f
        if not pair_freq:
            break
        best_count = max(pair_freq.values())
        best = min(p for p, c in pair_freq.items() if c == best_count)
        merged = best[0] + best[1]
        merges.append(best)
        vocab[merged] = len(vocab)
        new_words: dict[tuple[str, ...], int] = {}
        for syms, f in words.items():
            out: list[str] = []
            i = 0
            while i < len(syms):
                if i + 1 < len(syms) and (syms[i], syms[i + 1]) == best:
                    out.append(merged)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            new_words[tuple(out)] = new_words.get(tuple(out), 0) + f
        words = new_words
    return merges, vocab


def near_dup_reference(docs, n: int, t: float) -> list:
    """Documents kept by comparing each one with every kept document."""
    kept = []
    kept_shingles: list[frozenset[int]] = []
    for d in docs:
        sh = _shingles(d.text, n)
        dup = False
        for other in kept_shingles:
            inter = len(sh & other)
            union = len(sh | other)
            if union and inter / union >= t:
                dup = True
                break
        if not dup:
            kept.append(d)
            kept_shingles.append(sh)
    return kept
