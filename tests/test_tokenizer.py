"""Tokenizer tests: training order, encode/decode contracts, pair packing,
serialization determinism, and round-trip properties."""

from __future__ import annotations

import heapq
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lusoforge import tokenizer as tokenizer_module
from lusoforge.errors import DataError
from lusoforge.tokenizer import (
    CLS,
    MARKER,
    MASK,
    PAD,
    SEP,
    SPECIAL_TOKENS,
    TokenizerModel,
    UNK,
    encode,
    encode_pair,
    load_tokenizer,
    normal_words,
    save_tokenizer,
    train_tokenizer,
)

from oracles import decode, normalize, train_bpe_reference


# ----------------------------------------------------------------- training

def test_special_ids_are_pinned():
    assert (PAD, UNK, CLS, SEP, MASK) == (0, 1, 2, 3, 4)
    model = train_tokenizer(["a b"], vocab_size=64)
    for tok, want in zip(SPECIAL_TOKENS, range(5)):
        assert model.vocab[tok] == want


def test_first_merge_is_most_frequent_pair():
    # "ab" appears three times per word; pair (a, b) dominates
    model = train_tokenizer(["ababab ababab"], vocab_size=64)
    assert model.merges[0] == ("a", "b")


def test_merge_tie_breaks_lexicographically():
    # "xy" and "ab" each occur twice; (a, b) sorts first
    model = train_tokenizer(["ab xy ab xy"], vocab_size=64)
    assert model.merges[0][0] <= model.merges[0][1] or True  # order within pair is positional
    assert model.merges[0] == ("a", "b")


def test_empty_corpus_raises():
    with pytest.raises(DataError):
        train_tokenizer([], vocab_size=64)


def test_whitespace_only_corpus_raises():
    with pytest.raises(DataError):
        train_tokenizer(["   ", "\n\t"], vocab_size=64)


def test_vocab_size_budget_respected():
    model = train_tokenizer(["abcdef " * 50], vocab_size=16)
    assert model.vocab_size <= 16


def test_vocab_size_too_small_raises_with_minimum():
    with pytest.raises(DataError) as exc:
        train_tokenizer(["abc def"], vocab_size=3)
    assert any(ch.isdigit() for ch in str(exc.value))


def test_training_accepts_document_objects():
    class Doc:
        def __init__(self, text):
            self.text = text

    model_str = train_tokenizer(["ola mundo"], vocab_size=64)
    model_doc = train_tokenizer([Doc("ola mundo")], vocab_size=64)
    assert model_str.vocab == model_doc.vocab
    assert model_str.merges == model_doc.merges


def test_training_is_deterministic(toy_sentences):
    a = train_tokenizer(toy_sentences, vocab_size=128)
    b = train_tokenizer(toy_sentences, vocab_size=128)
    assert a.vocab == b.vocab
    assert a.merges == b.merges


# ----------------------------------------------------------------- normalize

def test_normalize_collapses_whitespace():
    assert normal_words("  ola \t mundo \n ") == ["ola", "mundo"]


def test_normalize_applies_nfc():
    decomposed = "é"  # e + combining acute
    composed = "é"
    assert normal_words(decomposed) == [composed]


# ----------------------------------------------------------------- encoding

def test_encode_wraps_with_cls_sep(toy_tokenizer):
    seq = encode(toy_tokenizer, "w01 w02")
    assert seq.ids[0] == CLS
    assert seq.ids[-1] == SEP
    assert all(s == 0 for s in seq.segments)
    assert len(seq.ids) == len(seq.segments)


def test_encode_empty_text(toy_tokenizer):
    seq = encode(toy_tokenizer, "")
    assert seq.ids == [CLS, SEP]


def test_encode_truncates_to_max_len(toy_tokenizer):
    seq = encode(toy_tokenizer, "w01 w02 w03 w04 w05 w06 w07", max_len=4)
    assert len(seq.ids) == 4
    assert seq.ids[0] == CLS and seq.ids[-1] == SEP


def test_encode_max_len_too_small(toy_tokenizer):
    with pytest.raises(ValueError):
        encode(toy_tokenizer, "w01", max_len=1)


def test_encode_without_specials(toy_tokenizer):
    plain = encode(toy_tokenizer, "w01 w02", add_specials=False)
    assert CLS not in plain.ids and SEP not in plain.ids


def test_unknown_character_maps_to_unk(toy_tokenizer):
    # the word-boundary marker is itself a known symbol; every unseen
    # character after it must come out as UNK
    seq = encode(toy_tokenizer, "世界", add_specials=False)
    marker_id = toy_tokenizer.vocab[MARKER]
    assert seq.ids[0] == marker_id
    assert seq.ids[1:] == [UNK, UNK]


def test_encode_ids_below_vocab_size(toy_tokenizer):
    seq = encode(toy_tokenizer, "w00 w63 w12 junk")
    assert max(seq.ids) < toy_tokenizer.vocab_size


# ----------------------------------------------------------------- pairs

def test_encode_pair_layout(toy_tokenizer):
    seq = encode_pair(toy_tokenizer, "w01", "w02")
    assert seq.ids[0] == CLS
    assert seq.ids.count(SEP) == 2
    sep1 = seq.ids.index(SEP)
    assert all(s == 0 for s in seq.segments[: sep1 + 1])
    assert all(s == 1 for s in seq.segments[sep1 + 1 :])


def test_encode_pair_of_empties(toy_tokenizer):
    seq = encode_pair(toy_tokenizer, "", "")
    assert seq.ids == [CLS, SEP, SEP]
    assert seq.segments == [0, 0, 1]


def test_encode_pair_longest_first_truncation(toy_tokenizer):
    # 10-piece side vs 2-piece side with budget 9 leaves 7+2: the long side
    # pops until it reaches 7; ties pop from side a
    base = decode(toy_tokenizer, [10])
    a = " ".join(["w01"] * 10)
    b = " ".join(["w02"] * 2)
    len_a = len(encode(toy_tokenizer, a, add_specials=False).ids)
    len_b = len(encode(toy_tokenizer, b, add_specials=False).ids)
    assert (len_a, len_b) == (10, 2), (len_a, len_b, base)
    seq = encode_pair(toy_tokenizer, a, b, max_len=12)  # budget 9
    sep1 = seq.ids.index(SEP)
    kept_a = sep1 - 1
    kept_b = len(seq.ids) - sep1 - 2
    assert (kept_a, kept_b) == (7, 2)
    assert len(seq.ids) == 12


def test_encode_pair_symmetric_truncation(toy_tokenizer):
    a = " ".join(["w01"] * 10)
    b = " ".join(["w02"] * 10)
    seq = encode_pair(toy_tokenizer, a, b, max_len=9)  # budget 6 -> 3 + 3
    sep1 = seq.ids.index(SEP)
    assert sep1 - 1 == 3
    assert len(seq.ids) - sep1 - 2 == 3


def test_encode_pair_respects_max_len(toy_tokenizer):
    seq = encode_pair(toy_tokenizer, "w01 " * 40, "w02 " * 40, max_len=16)
    assert len(seq.ids) == 16


# ----------------------------------------------------------------- decoding

def test_decode_empty():
    model = train_tokenizer(["a b"], vocab_size=64)
    assert decode(model, []) == ""


def test_decode_specials_only(toy_tokenizer):
    assert decode(toy_tokenizer, [CLS, SEP]) == ""
    assert decode(toy_tokenizer, [PAD, MASK]) == ""


def test_decode_out_of_range_raises(toy_tokenizer):
    with pytest.raises(DataError):
        decode(toy_tokenizer, [toy_tokenizer.vocab_size + 5])


def test_round_trip_simple():
    model = train_tokenizer(["a b ab ba"], vocab_size=64)
    for text in ("a b ab", "ab ab a", "b"):
        seq = encode(model, text, max_len=32)
        assert decode(model, seq.ids) == text


def test_round_trip_toy_corpus(toy_tokenizer, toy_sentences):
    for text in toy_sentences[:8]:
        seq = encode(toy_tokenizer, text, max_len=512)
        assert decode(toy_tokenizer, seq.ids) == normalize(text)


# ----------------------------------------------------------------- storage

def test_save_produces_canonical_json(tmp_path, toy_tokenizer):
    p = tmp_path / "vocab.json"
    save_tokenizer(toy_tokenizer, p)
    raw = p.read_text(encoding="utf-8")
    assert raw.endswith("\n")
    doc = json.loads(raw)
    assert doc["version"] == 1
    assert set(doc) >= {"vocab", "merges", "specials", "marker"}
    # keys sorted at every level
    assert list(doc) == sorted(doc)
    assert list(doc["vocab"]) == sorted(doc["vocab"])


def test_save_is_byte_deterministic(tmp_path, toy_sentences):
    p1 = tmp_path / "v1.json"
    p2 = tmp_path / "v2.json"
    save_tokenizer(train_tokenizer(toy_sentences, vocab_size=128), p1)
    save_tokenizer(train_tokenizer(toy_sentences, vocab_size=128), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_round_trip(tmp_path, toy_tokenizer):
    p = tmp_path / "vocab.json"
    save_tokenizer(toy_tokenizer, p)
    loaded = load_tokenizer(p)
    assert loaded.vocab == toy_tokenizer.vocab
    assert loaded.merges == toy_tokenizer.merges
    text = "w01 w02 w03"
    assert encode(loaded, text).ids == encode(toy_tokenizer, text).ids


def test_load_rejects_bad_version(tmp_path, toy_tokenizer):
    p = tmp_path / "vocab.json"
    save_tokenizer(toy_tokenizer, p)
    doc = json.loads(p.read_text())
    doc["version"] = 999
    p.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        load_tokenizer(p)


def test_load_rejects_inconsistent_merges(tmp_path, toy_tokenizer):
    p = tmp_path / "vocab.json"
    save_tokenizer(toy_tokenizer, p)
    doc = json.loads(p.read_text())
    doc["merges"].append(["zz", "qq"])  # output "zzqq" not in vocab
    p.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        load_tokenizer(p)


def test_load_missing_file_raises_data_error(tmp_path):
    with pytest.raises(DataError):
        load_tokenizer(tmp_path / "absent.json")


# ----------------------------------------------------------------- properties

_word = st.text(alphabet="abcdef", min_size=1, max_size=6)
_sentence = st.lists(_word, min_size=1, max_size=12).map(" ".join)


@settings(max_examples=100, deadline=None)
@given(_sentence)
def test_round_trip_property(text):
    model = _ROUND_TRIP_MODEL
    seq = encode(model, text, max_len=256)
    assert decode(model, seq.ids) == normalize(text)


@settings(max_examples=100, deadline=None)
@given(_sentence, st.integers(min_value=2, max_value=64))
def test_encode_length_bounded(text, max_len):
    seq = encode(_ROUND_TRIP_MODEL, text, max_len=max_len)
    assert 2 <= len(seq.ids) <= max_len
    assert all(0 <= i < _ROUND_TRIP_MODEL.vocab_size for i in seq.ids)


_ROUND_TRIP_MODEL = train_tokenizer(
    ["abc def abcdef fed cba " * 4, "ab cd ef fe dc ba", "a b c d e f"],
    vocab_size=96,
)


# ------------------------------------------------ training against the oracle
# The trainer updates pair counts incrementally; the oracle recounts every
# pair of every word before each merge. Merges and vocabulary order must agree.

_tie_text = st.text(alphabet="ab ", max_size=40)
# precomposed and decomposed forms (NFC folds "a\u0303" into "\u00e3"),
# two-, three- and four-byte UTF-8 characters
_unicode_text = st.lists(
    st.sampled_from(["a", "c", " ", "\u00e3", "a\u0303", "\u00e7", "c\u0327",
                     "\u20ac", "\U0001d11e"]),
    max_size=30,
).map("".join)


def _assert_matches_oracle(texts, vocab_size):
    try:
        want_merges, want_vocab = train_bpe_reference(texts, vocab_size)
    except DataError:
        with pytest.raises(DataError):
            train_tokenizer(texts, vocab_size)
        return
    model = train_tokenizer(texts, vocab_size)
    assert model.merges == want_merges
    assert list(model.vocab.items()) == list(want_vocab.items())


@settings(max_examples=300, deadline=None)
@given(st.lists(_tie_text | _unicode_text, min_size=1, max_size=8),
       st.integers(min_value=6, max_value=120))
def test_training_matches_recount_oracle(texts, vocab_size):
    _assert_matches_oracle(texts, vocab_size)


def test_training_matches_recount_oracle_on_toy_corpus(toy_sentences):
    _assert_matches_oracle(toy_sentences, 256)


def test_training_stops_when_pairs_run_out():
    # "▁aaaa ▁abab" has far fewer possible merges than the budget allows
    model = train_tokenizer(["aaaa abab aaaa"], vocab_size=200)
    assert model.vocab_size < 200
    _assert_matches_oracle(["aaaa abab aaaa"], 200)


def _zipf_texts(seed: int) -> list[str]:
    """About 300 distinct words over "abcd", many of them letter runs and
    alternations ("aaaa", "abab", "cdcdc"), each used ceil(40 / rank**1.1)
    times, shuffled into lines of 12 words."""
    rng = random.Random(seed)
    words: dict[str, None] = {}
    while len(words) < 300:
        unit = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 2)))
        stretch = unit * rng.randint(1, 5)
        extra = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 3)))
        words[(extra + stretch if rng.random() < 0.5 else stretch + extra)[:10]] = None
    used = [w for rank, w in enumerate(words, start=1) for _ in range(math.ceil(40 / rank**1.1))]
    rng.shuffle(used)
    return [" ".join(used[i : i + 12]) for i in range(0, len(used), 12)]


class _HeapSpy:
    """`heapq` as the trainer calls it, counting re-queued entries: an entry
    pushed for the pair whose entry was just popped stale."""

    def __init__(self):
        self.requeued = 0
        self.popped = None
        self.heapify = heapq.heapify

    def heappop(self, heap):
        entry = heapq.heappop(heap)
        self.popped = entry[1:]
        return entry

    def heappush(self, heap, entry):
        self.requeued += entry[1:] == self.popped
        heapq.heappush(heap, entry)


def test_training_matches_recount_oracle_on_zipf_runs(monkeypatch):
    texts = _zipf_texts(seed=7)
    spy = _HeapSpy()
    monkeypatch.setattr(tokenizer_module, "heapq", spy)
    # the specials, the letters and the marker: the merges start at this size
    base = len(SPECIAL_TOKENS) + len(set("".join(texts)) - {" "}) + 1
    for vocab_size in (base + 1, base + 20, base + 150, 10**6):
        _assert_matches_oracle(texts, vocab_size)
    # the budget of 10**6 ran the merges until no pair was left
    assert len(train_tokenizer(texts, 10**6).vocab) < 10**6
    # a pair's count fell below its queued entry, and the entry went back at the new count
    assert spy.requeued > 0


def test_a_warm_model_encodes_as_a_fresh_one(toy_tokenizer, toy_sentences):
    # unseen characters, a marker inside a word, NFC-equivalent forms (e-acute
    # and c-cedilla precomposed and decomposed) and a combining tilde
    texts = [*toy_sentences, "w01 w01 w02", "\u4e16\u754c w01\u4e16 \u2581w01",
             "\u00e9 e\u0301 \u00e7 c\u0327", "w0\u0303 \U0001d11e", " \t ", ""]
    warm = TokenizerModel(vocab=toy_tokenizer.vocab, merges=toy_tokenizer.merges)
    for text in texts + texts:  # the second pass reads every word from the cache
        warm_ids = encode(warm, text, max_len=10**6, add_specials=False).ids
        fresh = TokenizerModel(vocab=toy_tokenizer.vocab, merges=toy_tokenizer.merges)
        assert warm_ids == encode(fresh, text, max_len=10**6, add_specials=False).ids
        # encoding never changes what the cache holds
        assert encode(warm, text, max_len=10**6, add_specials=False).ids == warm_ids
    assert encode(warm, "\u00e9").ids == encode(warm, "e\u0301").ids
    assert UNK in encode(warm, "\u4e16\u754c").ids
