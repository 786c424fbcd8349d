"""Seeded input generators for the three benchmark workloads.

Everything here is independent of the program under test: the vocabularies
are written in the documented tokenizer JSON format, the corpora in the
documented JSONL/TSV formats, and the planted curation rejects are decided by
the reference rules in `reference.py`. The same seed gives the same bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

SPECIAL_TOKENS = ("<pad>", "<unk>", "<cls>", "<sep>", "<mask>")
SPECIAL_IDS = {"PAD": 0, "UNK": 1, "CLS": 2, "SEP": 3, "MASK": 4}
LETTERS = "abcdefghijklmnopqrstuvwxyz"
ALPHABET = (ref.MARKER,) + tuple(LETTERS)


def random_word(rng: np.random.Generator, lo: int, hi: int, letters: str = LETTERS) -> str:
    return "".join(letters[int(i)] for i in rng.integers(0, len(letters), size=int(rng.integers(lo, hi + 1))))


def distinct_words(rng: np.random.Generator, n: int, lo: int, hi: int, avoid=()) -> list[str]:
    seen = set(avoid)
    out: list[str] = []
    while len(out) < n:
        w = random_word(rng, lo, hi)
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


# ---------------------------------------------------------------------------
# constructed BPE vocabularies


def build_vocab(words: list[str], size: int, rng: np.random.Generator) -> dict:
    """A valid BPE model of exactly `size` entries, constructed, not trained.

    The base symbols are the marker and a-z; every merge extends a
    marker-led prefix by one letter, so each listed word encodes to exactly
    one token. Random filler words spend whatever budget `words` leaves.
    """
    vocab = {t: i for i, t in enumerate(SPECIAL_TOKENS)}
    for ch in ALPHABET:
        vocab[ch] = len(vocab)
    merges: list[list[str]] = []

    def spell(word: str) -> bool:
        prefix = ref.MARKER
        for ch in word:
            nxt = prefix + ch
            if nxt not in vocab:
                if len(vocab) == size:
                    return False
                merges.append([prefix, ch])
                vocab[nxt] = len(vocab)
            prefix = nxt
        return True

    for w in words:
        if not spell(w):
            raise ValueError(f"{len(words)} words do not fit a vocabulary of {size}")
    while len(vocab) < size:
        spell(random_word(rng, 3, 9))
    return {"version": 1, "vocab": vocab, "merges": merges,
            "specials": dict(SPECIAL_IDS), "marker": ref.MARKER}


def write_vocab(model: dict, path: Path):
    path.write_text(json.dumps(model, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def write_jsonl(rows: list[dict], path: Path):
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# pretrain-v8k


PRETRAIN_VOCAB = 8192
PRETRAIN_DOCS = 48                # three 2x8 windows per epoch
PRETRAIN_WORDS = (70, 100)      # words per document; every word is one token


def pretrain_inputs(seed: int, out: Path) -> dict:
    """An 8192-entry vocabulary and a corpus whose every document is longer
    than seq 64 in tokens, so every micro-batch has full width."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    lexicon = distinct_words(rng, 1200, 4, 9)
    model = build_vocab(lexicon, PRETRAIN_VOCAB, rng)
    # Zipf-like frequencies give the masked-token objective something to learn
    weights = 1.0 / np.arange(1, len(lexicon) + 1) ** 1.1
    weights /= weights.sum()
    rows = []
    for k in range(PRETRAIN_DOCS):
        n = int(rng.integers(PRETRAIN_WORDS[0], PRETRAIN_WORDS[1] + 1))
        words = [lexicon[int(i)] for i in rng.choice(len(lexicon), size=n, p=weights)]
        rows.append({"id": f"pt-{k:04d}", "text": " ".join(words), "source": "OSCAR",
                     "url": f"https://corpus{k % 7}.pt/{k}"})
    write_vocab(model, out / "vocab.json")
    write_jsonl(rows, out / "corpus.jsonl")
    return {"vocab": out / "vocab.json", "corpus": out / "corpus.jsonl",
            "docs": [r["text"] for r in rows]}


# ---------------------------------------------------------------------------
# sweep-grid


SWEEP_VOCAB = 256
SWEEP_TRAIN = 35                # 32 train (two full batches) + 3 dev after the CLI split
SWEEP_TEST = 64


def task_examples(rng: np.random.Generator, n: int, words: list[str]) -> list[tuple[str, str, int]]:
    """Marker-word entailment: label 1 iff sentence_a contains "sim"."""
    out = []
    for _ in range(n):
        a = [words[int(i)] for i in rng.integers(0, len(words), size=6)]
        label = int(rng.random() < 0.5)
        if label:
            a[int(rng.integers(0, len(a)))] = "sim"
        b = [words[int(i)] for i in rng.integers(0, len(words), size=6)]
        out.append((" ".join(a), " ".join(b), label))
    return out


def write_task(rows, path: Path):
    with open(path, "w", encoding="utf-8") as f:
        f.write("sentence_a\tsentence_b\tlabel\n")
        for a, b, label in rows:
            f.write(f"{a}\t{b}\t{label}\n")


def sweep_inputs(seed: int, out: Path, lf) -> dict:
    """A 256-entry vocabulary, a micro-preset checkpoint written through the
    program's own initialiser and checkpoint writer, and task TSVs."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    words = distinct_words(rng, 30, 3, 6, avoid=("sim",))
    model = build_vocab(words + ["sim"], SWEEP_VOCAB, rng)
    write_vocab(model, out / "vocab.json")
    write_task(task_examples(rng, SWEEP_TRAIN, words), out / "train.tsv")
    write_task(task_examples(rng, SWEEP_TEST, words), out / "test.tsv")
    config = lf.encoder.preset("micro", vocab_size=SWEEP_VOCAB)
    params = lf.encoder.init_params(config, np.random.default_rng(np.random.SeedSequence([seed, 3])))
    lf.checkpoint.save_checkpoint(out / "init.ckpt", config, params, meta={"step": 0})
    return {"vocab": out / "vocab.json", "checkpoint": out / "init.ckpt",
            "train": out / "train.tsv", "test": out / "test.tsv"}


# ---------------------------------------------------------------------------
# curate


SOURCES = ("OSCAR", "DCEP", "Europarl", "ParlamentoPT")
CURATE_CLEAN = 360
# planted rejects per stage and reason; the chain is tld -> dedup -> near-dup -> quality
PLANTED = {
    "tld": {"tld": 30, "no-url": 10},
    "dedup": {"duplicate": 24},
    "near-dup": {"near-duplicate": 24},
    "quality": {reason: 10 for reason in ref.QUALITY_REASONS},
}
CURATE_LETTERS = "abcdefghijklmnopqrstuvwxyzáãçéêíóõú"
SYLLABLES = [c + v for c in "bcdfglmnprstvz" for v in "aeiouãéó"]


@dataclass
class CurateCorpus:
    rows: list[dict]
    kept_ids: list[str]
    rejects: dict[str, dict[str, int]]
    kept_per_source: dict[str, int]


def _lexicon(rng: np.random.Generator, per_length: int) -> list[str]:
    """`per_length` distinct words of each of 2, 3 and 4 syllables, so the
    BPE trainer meets the same mix of word lengths under every seed."""
    seen: set[str] = set()
    out: list[str] = []
    for syllables in (2, 3, 4):
        n = 0
        while n < per_length:
            w = "".join(SYLLABLES[int(i)] for i in rng.integers(0, len(SYLLABLES), size=syllables))
            if w not in seen:
                seen.add(w)
                out.append(w)
                n += 1
    return out


def _clean_text(rng, lexicon, n_words: int) -> str:
    while True:
        text = " ".join(lexicon[int(i)] for i in rng.integers(0, len(lexicon), size=n_words))
        if ref.quality_reason(text) is None:
            return text


def _reject_text(rng, lexicon, reason: str) -> str:
    """A text whose first failing quality check is `reason`."""
    def words(n):
        return [lexicon[int(i)] for i in rng.integers(0, len(lexicon), size=n)]

    for _ in range(100):
        if reason == "min-length":
            text = " ".join(words(int(rng.integers(8, 20))))[:190]
        elif reason == "min-words":
            text = " ".join(random_word(rng, 9, 14, CURATE_LETTERS) for _ in range(int(rng.integers(22, 36))))
        elif reason == "word-repetition":
            phrase = words(8)
            body = words(int(rng.integers(20, 30)))
            text = " ".join(body[:10] + phrase * 4 + body[10:])
        elif reason == "char-repetition":
            stem = random_word(rng, 10, 10)
            text = " ".join(stem + random_word(rng, 2, 3) for _ in range(int(rng.integers(45, 60))))
        elif reason == "non-alphabetic":
            text = " ".join(w if rng.random() < 0.3 else str(int(rng.integers(10**4, 10**8)))
                            for w in words(int(rng.integers(50, 70))))
        elif reason == "url-ratio":
            text = " ".join(w if rng.random() < 0.6 else f"www.{w}{random_word(rng, 3, 6)}"
                            for w in words(int(rng.integers(50, 70))))
        else:
            raise ValueError(reason)
        if ref.quality_reason(text) == reason:
            return text
    raise RuntimeError(f"could not plant a {reason!r} reject")


def _near_copy(rng, text: str, lexicon) -> str:
    words = text.split()
    i = int(rng.integers(5, len(words) - 5))
    replacement = lexicon[int(rng.integers(0, len(lexicon)))]
    while replacement == words[i]:
        replacement = lexicon[int(rng.integers(0, len(lexicon)))]
    words[i] = replacement
    return " ".join(words)


def curate_corpus(seed: int) -> CurateCorpus:
    """Clean PT-PT pages plus planted rejects for every stage and reason.

    Exact and near duplicates are inserted after the page they copy, so the
    first occurrence survives. Expected survivors and reject counts follow
    from the construction alone.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    lexicon = _lexicon(rng, 500)
    kinds: list[tuple[str, str]] = [("clean", "")] * CURATE_CLEAN
    for reason, n in PLANTED["tld"].items():
        kinds += [("tld", reason)] * n
    # clean page lengths are a fixed multiset, 70..109 words, in seeded order
    lengths = iter(rng.permutation([70 + i % 40 for i in range(len(kinds))]))
    for reason, n in PLANTED["quality"].items():
        kinds += [("quality", reason)] * n
    order = rng.permutation(len(kinds))
    base: list[dict] = []
    for k in order:
        kind, reason = kinds[int(k)]
        source = SOURCES[int(rng.integers(0, len(SOURCES)))]
        host = f"site{int(rng.integers(0, 50))}"
        url = f"https://{host}.pt/p{len(base)}"
        if kind == "quality":
            text = _reject_text(rng, lexicon, reason)
        else:
            text = _clean_text(rng, lexicon, int(next(lengths)))
            if reason == "tld":
                url = f"https://{host}.com.br/p{len(base)}"
            elif reason == "no-url":
                url = None
        base.append({"text": text, "source": source, "url": url, "kind": kind, "reason": reason})

    clean_at = [i for i, r in enumerate(base) if r["kind"] == "clean"]
    copies: list[tuple[int, dict]] = []
    for reason, n in (("duplicate", PLANTED["dedup"]["duplicate"]),
                      ("near-duplicate", PLANTED["near-dup"]["near-duplicate"])):
        for src in rng.choice(clean_at, size=n, replace=False):
            orig = base[int(src)]
            if reason == "duplicate":
                text = "  ".join(orig["text"].split(" ")) + "\n"  # same text after whitespace collapse
            else:
                text = _near_copy(rng, orig["text"], lexicon)
            after = int(rng.integers(int(src) + 1, len(base) + 1))
            copies.append((after, {"text": text, "source": orig["source"],
                                   "url": f"https://mirror{int(rng.integers(0, 9))}.pt/c{len(copies)}",
                                   "kind": reason, "reason": reason}))
    rows: list[dict] = []
    by_slot: dict[int, list[dict]] = {}
    for after, row in copies:
        by_slot.setdefault(after, []).append(row)
    for i in range(len(base) + 1):
        rows.extend(by_slot.get(i, []))
        if i < len(base):
            rows.append(base[i])

    kept_ids: list[str] = []
    kept_per_source = {s: 0 for s in SOURCES}
    out_rows = []
    for n, row in enumerate(rows):
        doc_id = f"cu-{n:05d}"
        obj = {"id": doc_id, "text": row["text"], "source": row["source"]}
        if row["url"] is not None:
            obj["url"] = row["url"]
        out_rows.append(obj)
        if row["kind"] == "clean" and row["reason"] == "":
            kept_ids.append(doc_id)
            kept_per_source[row["source"]] += 1
    rejects = {stage: dict(reasons) for stage, reasons in PLANTED.items()}
    return CurateCorpus(out_rows, kept_ids, rejects,
                        {s: n for s, n in kept_per_source.items() if n})


def curate_inputs(seed: int, out: Path) -> dict:
    corpus = curate_corpus(seed)
    write_jsonl(corpus.rows, out / "corpus.jsonl")
    return {"corpus": out / "corpus.jsonl", "expected": corpus}
