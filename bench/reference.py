"""The benchmark's own statements of what the program must compute.

These are written from the documented behaviour (thresholds, formats,
formulas), not imported from the program, so the output checks compare the
program against a second computation.
"""

from __future__ import annotations

import math
import re
import unicodedata
from collections import Counter

MARKER = "▁"
QUALITY_REASONS = ("min-length", "min-words", "word-repetition", "char-repetition",
                   "non-alphabetic", "url-ratio")
_URL = re.compile(r"https?://|www\.", re.IGNORECASE)


def quality_reason(text: str) -> str | None:
    """First failing quality check under the default thresholds, or None."""
    if len(text) < 200:
        return "min-length"
    words = text.split()
    if len(words) < 40:
        return "min-words"
    grams = Counter(tuple(words[i:i + 5]) for i in range(len(words) - 4))
    if sum(v for v in grams.values() if v >= 2) / sum(grams.values()) > 0.19:
        return "word-repetition"
    freqs = sorted(Counter(text[i:i + 10] for i in range(len(text) - 9)).values(), reverse=True)
    top = min(math.isqrt(len(freqs)), len(freqs) - sum(1 for v in freqs if v == 1))
    if sum(freqs[:top]) / sum(freqs) > 0.106:
        return "char-repetition"
    if sum(1 for c in text if not c.isalpha()) / len(text) > 0.4:
        return "non-alphabetic"
    if sum(1 for t in words if _URL.search(t)) / len(words) > 0.2:
        return "url-ratio"
    return None


def normalize(text: str) -> str:
    return " ".join(unicodedata.normalize("NFC", text).split())


class BPE:
    """Greedy lowest-rank-first merge application over marker-led words."""

    def __init__(self, vocab: dict[str, int], merges: list):
        self.vocab = vocab
        self.ranks = {tuple(m): i for i, m in enumerate(merges)}
        self.tokens = {i: t for t, i in vocab.items()}
        self._cache: dict[str, list[str]] = {}

    def pieces(self, word: str) -> list[str]:
        if word in self._cache:
            return self._cache[word]
        syms = list(word)
        while len(syms) > 1:
            ranked = [(self.ranks.get((a, b), math.inf), i) for i, (a, b) in enumerate(zip(syms, syms[1:]))]
            rank, i = min(ranked)
            if rank == math.inf:
                break
            syms[i:i + 2] = [syms[i] + syms[i + 1]]
        self._cache[word] = syms
        return syms

    def encode(self, text: str) -> list[int]:
        norm = normalize(text)
        words = [MARKER + w for w in norm.split(" ")] if norm else []
        return [self.vocab[p] for w in words for p in self.pieces(w)]

    def decode(self, ids) -> str:
        return "".join(self.tokens[i] for i in ids).replace(MARKER, " ").lstrip(" ")


def lr_at(step: int, warmup: int, total: int, peak: float) -> float:
    """Linear warmup from 0 to peak over `warmup` steps, then linear decay to 0 at `total`."""
    if step <= warmup:
        return peak * (step / warmup)
    return peak * ((total - step) / (total - warmup))


def dev_size(n_train_file: int, fraction: float = 0.1) -> int:
    """Size of the dev split the CLI carves from a train file of n examples."""
    return max(1, int(n_train_file * fraction))
