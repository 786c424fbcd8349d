"""Web-corpus curation: TLD filtering, deduplication, quality filtering, stats.

Stages are chained in a fixed order (TLD -> exact dedup -> optional near-dup
-> quality). Every rejected document gets exactly one reason, the first
stage that fails it; kept documents come out in input order. PipelineConfig
validates its options when it is built, before any input is read.

The near-dup stage drops a document whose word-shingle Jaccard similarity
with an earlier kept document reaches the threshold. It runs as an exact
prefix-filtered join (`near_deduplicate`): each kept document is indexed by
the first few of its sorted shingle hashes, and only documents sharing one
are compared, which makes the same decisions as comparing every pair.

The quality chain evaluates word-repetition before character-repetition:
heavy word-level repetition trips both ratios, and the word-level reason is
the informative one.

The per-document kernels count exactly: character n-grams as sorted integer
keys in numpy, one 64-bit word per key for alphabets of up to 84 characters
at n = 10 and as many words as a larger alphabet needs (`char_repetition_ratio`),
and word shingles by hashing each gram once, as a slice of the page's joined
words (`_shingles`).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import struct
from collections import Counter, defaultdict
from dataclasses import dataclass, field, asdict
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Sequence
from urllib.parse import urlsplit

import numpy as np

from lusoforge.errors import DataError, UsageError

SOURCES = ("OSCAR", "DCEP", "Europarl", "ParlamentoPT", "OTHER")
_URL_TOKEN = re.compile(r"https?://|www\.", re.IGNORECASE)


@dataclass
class Document:
    id: str
    text: str
    source: str = "OTHER"
    url: str | None = None
    tld: str | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.text is None:
            raise DataError(f"document {self.id!r} has null text")
        if self.source not in SOURCES:
            self.source = "OTHER"


@dataclass
class QualityThresholds:
    min_chars: int = 200
    min_words: int = 40
    max_word_repetition: float = 0.19
    word_ngram: int = 5
    max_char_repetition: float = 0.106
    char_ngram: int = 10
    max_nonalpha: float = 0.4
    max_url_ratio: float = 0.2

    def __post_init__(self):
        for name in ("word_ngram", "char_ngram"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name} must be at least 1, got {getattr(self, name)!r}")


@dataclass
class PipelineConfig:
    country_code: str | None = None
    deduplicate: bool = True
    near_duplicates: bool = False
    near_dup_jaccard: float = 0.8
    near_dup_ngram: int = 5
    thresholds: QualityThresholds = field(default_factory=QualityThresholds)

    def __post_init__(self):
        cc = self.country_code
        if cc and (len(cc) != 2 or not cc.isalpha()):
            raise UsageError(f"country code must be two letters, got {cc!r}")
        if not 0 < self.near_dup_jaccard <= 1:
            raise UsageError(f"near_dup_jaccard must be in (0, 1], got {self.near_dup_jaccard!r}")
        if self.near_dup_ngram < 1:
            raise UsageError(f"near_dup_ngram must be at least 1, got {self.near_dup_ngram!r}")


@dataclass
class StageReport:
    name: str
    input: int
    kept: int
    rejected: dict[str, int] = field(default_factory=dict)

    def check(self):
        if self.kept + sum(self.rejected.values()) != self.input:
            raise AssertionError(f"stage {self.name}: kept+rejected != input")


@dataclass
class FilterReport:
    input_count: int = 0
    kept_count: int = 0
    stages: list[StageReport] = field(default_factory=list)
    sources: dict[str, dict] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), ensure_ascii=False, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# JSON Lines IO


def _string_field(obj: dict, name: str, required: bool, path, lineno: int) -> str | None:
    """Pop `name` from a record: a string or, when not `required`, null or
    absent."""
    value = obj.pop(name, None)
    if value is None and not required:
        return None
    if not isinstance(value, str):
        kind = "a string" if required else "a string or null"
        raise DataError(f"{path}:{lineno}: '{name}' must be {kind}, got {json.dumps(value)[:40]}")
    return value


def read_jsonl(path: str | Path) -> list[Document]:
    """One Document per line; fields beyond the known ones are preserved in
    `extra` and written back out verbatim. A line must be UTF-8 and hold a
    JSON object whose `text` is a string, whose `url`, if any, is a string or
    null, and whose strings, keys included, encode as UTF-8 again (no lone
    surrogate escapes). Duplicate ids are a data error."""
    docs: list[Document] = []
    seen: set[str] = set()
    try:
        handle = open(path, "rb")
    except OSError as e:
        raise DataError(f"cannot read corpus file {path}: {e}") from e
    with handle as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as e:
                raise DataError(f"{path}:{lineno}: not UTF-8: {e.reason} at byte {e.start}") from e
            if not line:
                continue
            try:
                obj = json.loads(line)
                # a lone surrogate can only come from a \u escape in the line
                if "\\u" in line:
                    json.dumps(obj, ensure_ascii=False).encode("utf-8")
            except json.JSONDecodeError as e:
                raise DataError(f"{path}:{lineno}: invalid JSON: {e}") from e
            except UnicodeEncodeError as e:
                raise DataError(f"{path}:{lineno}: a string is not UTF-8 text: {e.reason}") from e
            if not isinstance(obj, dict):
                raise DataError(f"{path}:{lineno}: a document must be a JSON object, "
                                f"got {line[:40]}")
            if "id" not in obj or "text" not in obj:
                raise DataError(f"{path}:{lineno}: document needs 'id' and 'text'")
            doc = Document(
                id=str(obj.pop("id")),
                text=_string_field(obj, "text", True, path, lineno),
                source=obj.pop("source", "OTHER"),
                url=_string_field(obj, "url", False, path, lineno),
                tld=obj.pop("tld", None),
                extra=obj,
            )
            if doc.id in seen:
                raise DataError(f"{path}:{lineno}: duplicate document id {doc.id!r}")
            seen.add(doc.id)
            docs.append(doc)
    return docs


def write_jsonl(docs: Iterable[Document], path: str | Path):
    with open(path, "w", encoding="utf-8") as f:
        for doc in docs:
            obj = {"id": doc.id, "text": doc.text, "source": doc.source}
            if doc.url is not None:
                obj["url"] = doc.url
            if doc.tld is not None:
                obj["tld"] = doc.tld
            obj.update(doc.extra)
            f.write(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# stages


def tld_reason(doc: Document, country_code: str) -> str | None:
    """None to keep; otherwise 'no-url' or 'tld'. A document whose url lacks
    a parseable hostname counts as having no url."""
    if not doc.url:
        return "no-url"
    try:
        host = urlsplit(doc.url).hostname
    except ValueError:
        host = None
    if not host:
        return "no-url"
    return None if host.lower().endswith("." + country_code.lower()) else "tld"


def content_hash(text: str) -> int:
    """64-bit digest of whitespace-collapsed text."""
    norm = " ".join(text.split())
    return int.from_bytes(hashlib.blake2b(norm.encode("utf-8"), digest_size=8).digest(), "little")


def deduplicate(docs: Sequence[Document]) -> list[Document]:
    seen: set[int] = set()
    out: list[Document] = []
    for d in docs:
        h = content_hash(d.text)
        if h not in seen:
            seen.add(h)
            out.append(d)
    return out


def _shingles(text: str, n: int) -> frozenset[int]:
    """`content_hash` of each word n-gram, or of the whole text when it has at
    most n words; stable across processes, unlike builtin hash().

    The words of `text.split()` hold no whitespace, so each gram's collapsed
    form is a slice of the joined words, hashed without a second split. In
    the UTF-8 bytes of the joined words, the separating spaces are the only
    0x20 bytes, so splitting the bytes there gives each word's byte length.
    """
    words = text.split()
    if len(words) <= n:
        return frozenset((content_hash(text),))
    data = " ".join(words).encode("utf-8")
    starts = [0, *accumulate(len(w) + 1 for w in data.split(b" "))]
    digests = b"".join([hashlib.blake2b(data[a : b - 1], digest_size=8).digest()
                        for a, b in zip(starts, starts[n:])])
    return frozenset(struct.unpack(f"<{len(digests) // 8}Q", digests))


def _min_overlap(size: int, t: float) -> int:
    """Fewest shared shingles with which a set of `size` can pass the
    `inter / union >= t` test, for 0 < t <= 1.

    The union is at least `size`, and float division is monotone, so the
    bound is the least o with o / size >= t as the test computes it; the
    loops correct any rounding in ceil(t * size).
    """
    o = math.ceil(t * size)
    while o > 1 and (o - 1) / size >= t:
        o -= 1
    while o / size < t:
        o += 1
    return o


def _jaccard_reaches(a: frozenset[int], b: frozenset[int], t: float) -> bool:
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter) >= t


def near_deduplicate(docs: Sequence[Document], n: int, t: float) -> list[Document]:
    """Drop each document whose word n-gram shingles have Jaccard similarity
    >= t with an earlier kept document, for 0 < t <= 1.

    An exact prefix-filtered set-similarity join (PPJoin, Xiao et al. 2008):
    with each shingle set sorted by hash, two sets can reach the threshold
    only if their prefixes of `len - _min_overlap(len, t) + 1` hashes share
    one, because the smallest shared hash lies inside both. Only kept
    documents are indexed, by their prefix hashes; the candidates a document's
    prefix finds are verified with the full test in kept order. The decisions
    equal those of comparing each document with every kept one.
    """
    kept: list[Document] = []
    kept_shingles: list[frozenset[int]] = []
    index: dict[int, list[int]] = defaultdict(list)
    for d in docs:
        sh = _shingles(d.text, n)
        prefix = sorted(sh)[: len(sh) - _min_overlap(len(sh), t) + 1]
        candidates = sorted({k for h in prefix for k in index.get(h, ())})
        if any(_jaccard_reaches(sh, kept_shingles[k], t) for k in candidates):
            continue
        for h in prefix:
            index[h].append(len(kept))
        kept.append(d)
        kept_shingles.append(sh)
    return kept


def _window_keys(text: str, n: int) -> list[np.ndarray]:
    """Each character n-window of `text` as a tuple of 64-bit words, one array
    per word: equal windows get equal tuples and different windows different
    ones.

    Each character becomes its rank in the page's sorted alphabet of k
    characters, and a word holds the base-k number of the ranks of w
    consecutive characters, w as large as k**w <= 2**64 allows (all ten at
    n = 10 for k <= 84, nine for k <= 138, never fewer than three).
    """
    m = len(text) - n + 1
    alphabet = sorted(set(text))
    k = len(alphabet)
    ranks = text.translate(dict(zip(map(ord, alphabet), range(k))))
    ids = np.frombuffer(ranks.encode("utf-32-le", "surrogatepass"), np.uint32).astype(np.uint64)
    w = n
    while k ** w > 1 << 64:
        w -= 1
    base = np.uint64(k)
    words = []
    for start in range(0, n, w):
        word = ids[start : start + m].copy()
        for j in range(start + 1, min(start + w, n)):
            word *= base
            word += ids[j : j + m]
        words.append(word)
    return words


def char_repetition_ratio(text: str, n: int) -> float:
    """Mass of the most frequent character n-grams over all n-gram mass.

    'Most frequent' means the top sqrt(#distinct) grams, excluding singleton
    grams from that budget, so short diverse texts score near zero while
    periodic texts score near one.

    The grams are counted exactly as sorted integer keys (`_window_keys`):
    the run lengths of equal keys are the counts. A one-word key is sorted in
    place, a longer one with `np.lexsort`.
    """
    m = len(text) - n + 1
    if m < 1:
        return 0.0
    words = _window_keys(text, n)
    if len(words) == 1:
        words[0].sort()
    else:
        order = np.lexsort(words)
        words = [word[order] for word in words]
    # a run of equal keys ends where any word differs from the next key's
    last = words[0][1:] != words[0][:-1]
    for word in words[1:]:
        last |= word[1:] != word[:-1]
    # the last index of each run, after a virtual one at -1
    ends = np.concatenate(([-1], np.flatnonzero(last), [m - 1]))
    counts = ends[1:] - ends[:-1]
    counts.sort()
    distinct = counts.size
    singletons = int(np.searchsorted(counts, 2))
    top = min(math.isqrt(distinct), distinct - singletons)
    return int(counts[distinct - top:].sum()) / m


def word_repetition_ratio(text: str, n: int) -> float:
    """Mass of repeated word n-grams over all word n-gram mass."""
    words = text.split()
    if len(words) < n:
        return 0.0
    counts = Counter(zip(*(words[i:] for i in range(n))))
    return sum(v for v in counts.values() if v >= 2) / (len(words) - n + 1)


def nonalpha_ratio(text: str) -> float:
    if not text:
        return 1.0
    return sum(text.count(c) for c in set(text) if not c.isalpha()) / len(text)


def url_token_ratio(text: str) -> float:
    # the pattern holds no whitespace, so a page without a match has no URL token
    if not _URL_TOKEN.search(text):
        return 0.0
    tokens = text.split()
    return sum(1 for t in tokens if _URL_TOKEN.search(t)) / len(tokens)


def quality_reason(doc: Document, t: QualityThresholds) -> str | None:
    """First failing check's name, or None when the document passes all."""
    text = doc.text
    if len(text) < t.min_chars:
        return "min-length"
    if len(text.split()) < t.min_words:
        return "min-words"
    if word_repetition_ratio(text, t.word_ngram) > t.max_word_repetition:
        return "word-repetition"
    if char_repetition_ratio(text, t.char_ngram) > t.max_char_repetition:
        return "char-repetition"
    if nonalpha_ratio(text) > t.max_nonalpha:
        return "non-alphabetic"
    if url_token_ratio(text) > t.max_url_ratio:
        return "url-ratio"
    return None


# ---------------------------------------------------------------------------
# pipeline and stats


def _apply_stage(docs: list[Document], name: str, reason_fn,
                 report: FilterReport) -> list[Document]:
    reasons = [reason_fn(d) for d in docs]
    stage = StageReport(name=name, input=len(docs), kept=0)
    kept: list[Document] = []
    for doc, reason in zip(docs, reasons):
        if reason is None:
            kept.append(doc)
        else:
            stage.rejected[reason] = stage.rejected.get(reason, 0) + 1
    stage.kept = len(kept)
    stage.check()
    report.stages.append(stage)
    return kept


def _count_stage(docs: list[Document], kept: list[Document], name: str, reason: str,
                 report: FilterReport) -> list[Document]:
    """Report a stage that drops documents for one reason; returns `kept`."""
    stage = StageReport(name=name, input=len(docs), kept=len(kept))
    if stage.input != stage.kept:
        stage.rejected[reason] = stage.input - stage.kept
    stage.check()
    report.stages.append(stage)
    return kept


def run_pipeline(docs: Sequence[Document],
                 config: PipelineConfig | None = None) -> tuple[list[Document], FilterReport]:
    """Full curation chain. Returns (kept documents, report). Output order
    follows input order; running the chain on its own output is a no-op."""
    config = config or PipelineConfig()
    report = FilterReport(input_count=len(docs))
    current = list(docs)

    if config.country_code:
        cc = config.country_code
        current = _apply_stage(current, "tld", lambda d: tld_reason(d, cc), report)

    if config.deduplicate:
        current = _count_stage(current, deduplicate(current), "dedup", "duplicate", report)

    if config.near_duplicates:
        distinct = near_deduplicate(current, config.near_dup_ngram, config.near_dup_jaccard)
        current = _count_stage(current, distinct, "near-dup", "near-duplicate", report)

    current = _apply_stage(current, "quality",
                           lambda d: quality_reason(d, config.thresholds), report)

    report.kept_count = len(current)
    report.sources = source_stats(current)
    return current, report


def source_stats(docs: Sequence[Document], tokenizer=None) -> dict[str, dict]:
    """Per-source document/token counts and proportions. Token counts are
    whitespace tokens, or subword counts when a tokenizer is supplied."""
    from lusoforge import tokenizer as tok_mod

    doc_counts: Counter[str] = Counter()
    token_counts: Counter[str] = Counter()
    for d in docs:
        doc_counts[d.source] += 1
        if tokenizer is not None:
            n = len(tok_mod.encode(tokenizer, d.text, max_len=10**9, add_specials=False))
        else:
            n = len(d.text.split())
        token_counts[d.source] += n
    total_docs = sum(doc_counts.values())
    total_tokens = sum(token_counts.values())
    out: dict[str, dict] = {}
    for src in sorted(doc_counts):
        out[src] = {
            "documents": doc_counts[src],
            "tokens": token_counts[src],
            "doc_proportion": doc_counts[src] / total_docs if total_docs else 0.0,
            "token_proportion": token_counts[src] / total_tokens if total_tokens else 0.0,
        }
    return out


def corpus_stats(docs: Sequence[Document], tokenizer) -> FilterReport:
    """Statistics-only report: no filtering, just composition."""
    report = FilterReport(input_count=len(docs), kept_count=len(docs))
    report.sources = source_stats(docs, tokenizer)
    return report
