"""The generators are seed-determined and plant exactly what they claim."""

import json
from urllib.parse import urlsplit

import numpy as np
import pytest

import gen
import reference as ref


def reference_pipeline(rows):
    """TLD -> exact dedup -> near-dup (Jaccard of word 5-grams >= 0.8) -> quality,
    written from the documented rules, returning (kept ids, rejects per stage)."""
    rejects = {stage: {} for stage in gen.PLANTED}

    def reject(stage, reason):
        rejects[stage][reason] = rejects[stage].get(reason, 0) + 1

    after_tld = []
    for r in rows:
        host = urlsplit(r["url"]).hostname if r.get("url") else None
        if not host:
            reject("tld", "no-url")
        elif not host.endswith(".pt"):
            reject("tld", "tld")
        else:
            after_tld.append(r)
    seen, after_dedup = set(), []
    for r in after_tld:
        key = " ".join(r["text"].split())
        if key in seen:
            reject("dedup", "duplicate")
        else:
            seen.add(key)
            after_dedup.append(r)
    kept_shingles, after_near = [], []
    for r in after_dedup:
        words = r["text"].split()
        sh = {tuple(words[i:i + 5]) for i in range(max(1, len(words) - 4))}
        if any(len(sh & o) / len(sh | o) >= 0.8 for o in kept_shingles):
            reject("near-dup", "near-duplicate")
        else:
            kept_shingles.append(sh)
            after_near.append(r)
    kept = []
    for r in after_near:
        reason = ref.quality_reason(r["text"])
        if reason:
            reject("quality", reason)
        else:
            kept.append(r["id"])
    return kept, rejects


@pytest.mark.parametrize("seed", [1, 2])
def test_curate_plants_what_it_claims(seed):
    corpus = gen.curate_corpus(seed)
    kept, rejects = reference_pipeline(corpus.rows)
    assert kept == corpus.kept_ids
    assert rejects == corpus.rejects
    per_source = {}
    by_id = {r["id"]: r for r in corpus.rows}
    for i in kept:
        per_source[by_id[i]["source"]] = per_source.get(by_id[i]["source"], 0) + 1
    assert per_source == corpus.kept_per_source


def test_same_seed_same_bytes(tmp_path):
    for seed, name in ((5, "a"), (5, "b"), (6, "c")):
        (tmp_path / name).mkdir()
        gen.pretrain_inputs(seed, tmp_path / name)
    read = lambda d, f: (tmp_path / d / f).read_bytes()  # noqa: E731
    for f in ("vocab.json", "corpus.jsonl"):
        assert read("a", f) == read("b", f)
        assert read("a", f) != read("c", f)
    assert gen.curate_corpus(5).rows == gen.curate_corpus(5).rows
    assert gen.curate_corpus(5).rows != gen.curate_corpus(6).rows


def test_constructed_vocab_spells_each_word_as_one_token():
    rng = np.random.default_rng(0)
    words = gen.distinct_words(rng, 300, 3, 8)
    model = gen.build_vocab(words, 2048, rng)
    vocab = model["vocab"]
    assert len(vocab) == 2048 and sorted(vocab.values()) == list(range(2048))
    assert all(a + b in vocab for a, b in model["merges"])
    bpe = ref.BPE(vocab, model["merges"])
    assert all(len(bpe.encode(w)) == 1 for w in words)
    with pytest.raises(ValueError):
        gen.build_vocab(words, 64, rng)


def test_pretrain_documents_fill_every_sequence(tmp_path):
    inputs = gen.pretrain_inputs(3, tmp_path)
    model = json.loads(inputs["vocab"].read_text(encoding="utf-8"))
    assert len(model["vocab"]) == gen.PRETRAIN_VOCAB
    bpe = ref.BPE(model["vocab"], model["merges"])
    assert min(len(bpe.encode(t)) for t in inputs["docs"]) + 2 > 64
