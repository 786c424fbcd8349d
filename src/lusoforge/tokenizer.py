"""Byte-pair-encoding subword tokenizer over boundary-marked text.

Words are marked with a leading "▁" glyph before merging, so word boundaries
survive in the learned pieces. Training is greedy (Sennrich et al. 2016):
repeatedly merge the most frequent adjacent symbol pair, ties broken by
lexicographically smallest pair, until the vocabulary budget is spent or no
pairs remain. Pair counts are taken once and then updated incrementally: a
merge rewrites only the words that contain the merged pair, and a heap yields
the next best pair. No randomness is involved.

The special ids and the marker are the program's, not a file's: PAD=0,
UNK=1, CLS=2, SEP=3, MASK=4, never produced by text encoding. A saved file
records them, and `load_tokenizer` refuses one that records others.
"""

from __future__ import annotations

import heapq
import json
import unicodedata
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from lusoforge.errors import DataError, UsageError

MARKER = "▁"
SPECIAL_TOKENS = ("<pad>", "<unk>", "<cls>", "<sep>", "<mask>")
PAD, UNK, CLS, SEP, MASK = range(5)
SPECIALS = {"PAD": PAD, "UNK": UNK, "CLS": CLS, "SEP": SEP, "MASK": MASK}
FORMAT_VERSION = 1


@dataclass(frozen=True)
class TokenSequence:
    ids: list[int]
    segments: list[int]

    def __len__(self):
        return len(self.ids)


@dataclass
class TokenizerModel:
    """A vocabulary and its merges in rank order, with the merge ranks and
    each encoded word's ids derived from them. The special tokens and the marker
    are this module's constants. Immutable after training; encode is safe to
    call concurrently."""

    vocab: dict[str, int]
    merges: list[tuple[str, str]]
    _ranks: dict[tuple[str, str], int] = field(default_factory=dict, repr=False)
    _cache: dict[str, list[int]] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self._ranks:
            self._ranks = {pair: i for i, pair in enumerate(self.merges)}

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)


def normal_words(text: str) -> list[str]:
    """The NFC form of `text` split at whitespace runs; no case folding."""
    return unicodedata.normalize("NFC", text).split()


def train_tokenizer(corpus: Iterable, vocab_size: int) -> TokenizerModel:
    """Learn a BPE vocabulary from an iterable of strings or Documents.

    Each merge takes the pair with the highest frequency-weighted count, the
    lexicographically smallest pair among equal counts, and replaces it left
    to right in every word. Words are lists of integer symbol ids, one id per
    symbol string; a `pair -> words` index lets each merge rewrite only the
    words that hold the pair and update only the pair counts it changes. A
    heap keyed (-count, left, right) on the symbol strings gets an entry when
    a pair's count rises, so every pair has an entry at or above its count: a
    popped entry equal to its count is the best pair, one above it goes back
    at the current count, and one of a gone pair is dropped. The merges equal
    those of recounting every pair of every word before each merge.

    Deterministic in corpus order: greedy BPE draws no randomness. Raises
    DataError on an empty corpus or a vocab_size with no room for the base
    alphabet.
    """
    word_freq: Counter[str] = Counter()
    for doc in corpus:
        text = doc if isinstance(doc, str) else getattr(doc, "text", "")
        word_freq.update(normal_words(text))
    if not word_freq:
        raise DataError("cannot train tokenizer on an empty corpus")

    syms = sorted(set(MARKER).union(*word_freq))  # symbol id -> string
    minimum = len(SPECIAL_TOKENS) + len(syms) + 1
    if vocab_size < minimum:
        raise DataError(
            f"vocab_size {vocab_size} too small: need at least {minimum} "
            f"({len(SPECIAL_TOKENS)} specials + {len(syms)} base symbols + 1)"
        )

    vocab = {t: i for i, t in enumerate((*SPECIAL_TOKENS, *syms))}
    sym_id = {ch: i for i, ch in enumerate(syms)}

    # distinct marked words as symbol-id lists; pair counts are weighted by
    # word frequency and kept current merge by merge
    words = [[sym_id[MARKER], *map(sym_id.__getitem__, w)] for w in word_freq]
    freqs = list(word_freq.values())
    counts: dict[tuple[int, int], int] = {}
    where: dict[tuple[int, int], set[int]] = defaultdict(set)
    for wi, w in enumerate(words):
        f = freqs[wi]
        for pair in zip(w, w[1:]):
            counts[pair] = counts.get(pair, 0) + f
            where[pair].add(wi)
    heap = [(-c, syms[a], syms[b], a, b) for (a, b), c in counts.items()]
    heapq.heapify(heap)
    merges: list[tuple[str, str]] = []

    while len(vocab) < vocab_size and heap:
        neg, left, right, a, b = heapq.heappop(heap)
        count = counts.get((a, b), 0)
        if count != -neg:
            if count:
                heapq.heappush(heap, (-count, left, right, a, b))
            continue
        merged = left + right
        merges.append((left, right))
        vocab[merged] = len(vocab)
        m = sym_id.setdefault(merged, len(syms))
        if m == len(syms):
            syms.append(merged)
        delta: defaultdict[tuple[int, int], int] = defaultdict(int)
        for wi in where.pop((a, b)):
            w = words[wi]
            out: list[int] = []
            i, n, first = 0, len(w), -1
            while i < n:
                if w[i] == a and i + 1 < n and w[i + 1] == b:
                    first, last = i if first < 0 else first, i
                    out.append(m)
                    i += 2
                else:
                    out.append(w[i])
                    i += 1
            if first < 0:
                continue  # the index entry outlived the pair in this word
            # the old and new words differ only from the symbol before the
            # first merge to the one after the last, each merge one shorter
            lo, f = max(first - 1, 0), freqs[wi]
            old, new = w[lo : last + 3], out[lo : last + 3 - n + len(out)]
            for pair in zip(old, old[1:]):
                delta[pair] -= f
            for pair in zip(new, new[1:]):
                delta[pair] += f
                where[pair].add(wi)
            words[wi] = out
        for pair, d in delta.items():
            count = counts.pop(pair, 0) + d
            if count:
                counts[pair] = count
            if d > 0:
                heapq.heappush(heap, (-count, syms[pair[0]], syms[pair[1]], *pair))

    return TokenizerModel(vocab=vocab, merges=merges)


def _bpe(model: TokenizerModel, word: str) -> tuple[str, ...]:
    syms = tuple(word)
    ranks = model._ranks
    while len(syms) > 1:
        best_rank = None
        best_i = -1
        for i in range(len(syms) - 1):
            r = ranks.get((syms[i], syms[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank = r
                best_i = i
        if best_rank is None:
            break
        syms = syms[:best_i] + (syms[best_i] + syms[best_i + 1],) + syms[best_i + 2 :]
    return syms


def _text_to_ids(model: TokenizerModel, text: str) -> list[int]:
    ids: list[int] = []
    cache = model._cache
    for word in normal_words(text):
        word_ids = cache.get(word)
        if word_ids is None:
            word_ids = cache[word] = [model.vocab.get(piece, UNK)
                                      for piece in _bpe(model, MARKER + word)]
        ids += word_ids
    return ids


def encode(model: TokenizerModel, text: str, max_len: int = 128, add_specials: bool = True) -> TokenSequence:
    """Tokenize one text. With add_specials the result is [CLS] ... [SEP],
    truncated so the total length never exceeds max_len and SEP stays last."""
    if add_specials and max_len < 2:
        raise UsageError(f"max_len {max_len} leaves no room for CLS/SEP")
    ids = _text_to_ids(model, text)
    if add_specials:
        ids = [CLS] + ids[: max_len - 2] + [SEP]
    else:
        ids = ids[:max_len]
    return TokenSequence(ids=ids, segments=[0] * len(ids))


def encode_pair(model: TokenizerModel, text_a: str, text_b: str, max_len: int = 128) -> TokenSequence:
    """[CLS] a [SEP] b [SEP] with longest-first truncation into the budget.

    Segment ids are 0 through the first SEP and 1 afterwards.
    """
    if max_len < 3:
        raise UsageError(f"max_len {max_len} leaves no room for CLS/SEP/SEP")
    a = _text_to_ids(model, text_a)
    b = _text_to_ids(model, text_b)
    budget = max_len - 3
    while len(a) + len(b) > budget:
        if len(a) >= len(b):
            a.pop()
        else:
            b.pop()
    ids = [CLS] + a + [SEP] + b + [SEP]
    segments = [0] * (len(a) + 2) + [1] * (len(b) + 1)
    return TokenSequence(ids=ids, segments=segments)


def save_tokenizer(model: TokenizerModel, path: str | Path):
    """Canonical JSON: sorted keys, 2-space indent, UTF-8, trailing newline.
    Identical models serialize to identical bytes."""
    payload = {
        "version": FORMAT_VERSION,
        "vocab": model.vocab,
        "merges": [list(p) for p in model.merges],
        "specials": SPECIALS,
        "marker": MARKER,
    }
    text = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def load_tokenizer(path: str | Path) -> TokenizerModel:
    """The tokenizer saved at `path`. Any fault of the file is one DataError
    naming it: a missing field, an id outside the vocabulary, a merge that is
    not a pair of strings, or specials, a marker or special-token ids other
    than this module's."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"cannot read tokenizer file {path}: {e}") from e
    if not isinstance(payload, dict) or payload.get("version") != FORMAT_VERSION:
        raise DataError(f"tokenizer file {path} is not a JSON object of format version "
                        f"{FORMAT_VERSION}")
    vocab, merges = payload.get("vocab"), payload.get("merges")
    n = len(vocab) if isinstance(vocab, dict) else 0
    if not (isinstance(vocab, dict) and all(type(i) is int and 0 <= i < n for i in vocab.values())):
        raise DataError(f"tokenizer file {path}: vocab must map tokens to integer ids "
                        f"below the vocabulary size {n}")
    for key, fixed in (("specials", SPECIALS), ("marker", MARKER)):
        if payload.get(key) != fixed:
            raise DataError(f"tokenizer file {path}: {key} must be {fixed!r}, "
                            f"got {payload.get(key)!r}")
    for i, token in enumerate(SPECIAL_TOKENS):
        if vocab.get(token) != i:
            raise DataError(f"tokenizer file {path}: vocab must hold {token} at id {i}, "
                            f"got {vocab.get(token)!r}")
    for pair in merges if isinstance(merges, list) else [merges]:
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(t, str) for t in pair)):
            raise DataError(f"tokenizer file {path}: merges must be a list of string pairs")
        if "".join(pair) not in vocab:
            raise DataError(f"tokenizer file {path}: merge {pair} makes no vocab entry")
    return TokenizerModel(vocab=vocab, merges=[tuple(p) for p in merges])
