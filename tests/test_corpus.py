"""Corpus pipeline tests: TLD gate, dedup, quality filters with
direct-counting oracles, stats, and the chain invariants."""

from __future__ import annotations

import json
import random
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lusoforge.corpus import (
    Document,
    PipelineConfig,
    QualityThresholds,
    char_repetition_ratio,
    content_hash,
    corpus_stats,
    _min_overlap,
    _shingles,
    _window_keys,
    deduplicate,
    near_deduplicate,
    nonalpha_ratio,
    quality_reason,
    read_jsonl,
    run_pipeline,
    source_stats,
    tld_reason,
    url_token_ratio,
    word_repetition_ratio,
    write_jsonl,
)
from lusoforge.errors import DataError, UsageError

from conftest import make_documents, random_words
from oracles import (
    brute_char_rep,
    brute_word_rep,
    near_dup_reference,
    nonalpha_reference,
    shingles_reference,
    url_token_reference,
)

NATURAL_PARAGRAPH = (
    "A vila acordava devagar, com o cheiro do pão quente a escapar das "
    "padarias e os primeiros elétricos a rangerem nas calçadas ainda húmidas. "
    "Do alto do miradouro via-se o rio abrir caminho entre telhados de barro, "
    "enquanto as gaivotas desenhavam círculos preguiçosos sobre o mercado. "
    "Os vendedores montavam as bancas com gestos certos, empilhando laranjas, "
    "couves e sardinhas frescas, discutindo o tempo e a política com a mesma "
    "convicção serena. Mais abaixo, junto ao cais, os pescadores remendavam "
    "redes antigas e contavam histórias que mudavam a cada maré, sempre com "
    "um fundo de verdade e uma margem generosa de exagero. As crianças "
    "atravessavam a praça a correr para a escola, mochilas aos saltos, e o "
    "sino da igreja marcava as horas sem pressa, como quem sabe que o dia "
    "cabe inteiro dentro de si. Nas janelas, a roupa estendida balançava como "
    "bandeiras domésticas, e os velhos do café da esquina liam o jornal em "
    "voz alta para quem quisesse ouvir. Havia qualquer coisa de teimoso "
    "naquela rotina, uma recusa tranquila em deixar que o mundo apressado "
    "mudasse o essencial: o cumprimento demorado, a conversa à porta, o "
    "copo de vinho partilhado ao fim da tarde. Quando o sol finalmente "
    "subia acima dos telhados, a vila já estava inteira em movimento, e o "
    "rio, indiferente e constante, seguia o seu caminho para o mar levando "
    "consigo um pouco de cada manhã."
)


def doc(text, id="d0", **kw):
    return Document(id=id, text=text, **kw)


# ----------------------------------------------------------------- documents

def test_null_text_rejected():
    with pytest.raises(DataError):
        Document(id="x", text=None)


def test_unknown_source_coerced_to_other():
    d = Document(id="x", text="abc", source="wikipedia")
    assert d.source == "OTHER"


# ----------------------------------------------------------------- jsonl io

def test_jsonl_round_trip_preserves_unknown_fields(tmp_path):
    p = tmp_path / "docs.jsonl"
    docs = [
        Document(id="a", text="um dois", source="OSCAR", url="https://x.pt/1",
                 extra={"crawl_date": "2020-01-01"}),
        Document(id="b", text="tres quatro"),
    ]
    write_jsonl(docs, p)
    back = read_jsonl(p)
    assert back[0].extra == {"crawl_date": "2020-01-01"}
    assert back[0].url == "https://x.pt/1"
    assert [d.id for d in back] == ["a", "b"]
    # writing again is byte-stable
    p2 = tmp_path / "again.jsonl"
    write_jsonl(back, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_jsonl_duplicate_ids_rejected(tmp_path):
    p = tmp_path / "docs.jsonl"
    p.write_text('{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n')
    with pytest.raises(DataError):
        read_jsonl(p)


def test_jsonl_invalid_json_names_line(tmp_path):
    p = tmp_path / "docs.jsonl"
    p.write_text('{"id": "a", "text": "x"}\nnot json\n')
    with pytest.raises(DataError) as exc:
        read_jsonl(p)
    assert ":2" in str(exc.value)


def test_jsonl_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError):
        read_jsonl(tmp_path / "absent.jsonl")


def test_jsonl_missing_required_field(tmp_path):
    p = tmp_path / "docs.jsonl"
    p.write_text('{"id": "a"}\n')
    with pytest.raises(DataError):
        read_jsonl(p)


# ----------------------------------------------------------------- tld gate

TLD_FIXTURE = [
    ("https://example.pt/a", "pt", None),
    ("https://example.com.br/a", "br", None),
    ("https://example.com.br/a", "pt", "tld"),
    ("https://noticias.sapo.pt/x?y=1", "pt", None),
    ("http://WWW.CAMARA.PT/q", "pt", None),          # case-insensitive host
    ("https://example.com/a", "pt", "tld"),
    ("https://pt.wikipedia.org/wiki", "pt", "tld"),  # prefix, not suffix
    ("https://example.pt.com/a", "pt", "tld"),
    ("https://example.br/a", "br", None),
    (None, "pt", "no-url"),
]


def test_tld_reason_over_url_fixture():
    for url, cc, want in TLD_FIXTURE:
        d = doc("texto", url=url)
        assert tld_reason(d, cc) == want, (url, cc)


def test_filter_by_tld_keeps_matching():
    docs = [doc(f"texto {i}", id=str(i), url=u)
            for i, (u, cc, r) in enumerate(TLD_FIXTURE) if cc == "pt"]
    cfg = PipelineConfig(country_code="pt",
                         thresholds=QualityThresholds(min_chars=1, min_words=1))
    kept, report = run_pipeline(docs, cfg)
    want = [d.id for d in docs if tld_reason(d, "pt") is None]
    assert want and len(want) < len(docs)
    assert [d.id for d in kept] == want
    assert report.stages[0].name == "tld"
    assert report.stages[0].kept == len(want)


def test_filter_by_tld_validates_country_code():
    for cc in ("por", "p1"):
        with pytest.raises(UsageError, match="two letters"):
            run_pipeline([], PipelineConfig(country_code=cc))


def test_country_code_checked_when_config_is_built():
    with pytest.raises(UsageError, match="two letters"):
        PipelineConfig(country_code="por")


# ----------------------------------------------------------------- dedup

def test_dedup_exact_duplicates():
    docs = [doc("mesmo texto", id="a"), doc("mesmo texto", id="b")]
    kept = deduplicate(docs)
    assert [d.id for d in kept] == ["a"]  # first wins


def test_dedup_whitespace_runs_are_equal():
    docs = [doc("um  dois\ttres", id="a"), doc("um dois tres", id="b")]
    assert [d.id for d in deduplicate(docs)] == ["a"]


def test_dedup_distinct_corpus_unchanged():
    docs = [doc(f"texto {i}", id=str(i)) for i in range(5)]
    assert deduplicate(docs) == docs


def test_content_hash_is_64_bit_and_stable():
    h = content_hash("ola mundo")
    assert 0 <= h < 2**64
    assert h == content_hash("ola  mundo")
    assert h == content_hash("ola mundo")  # same process or not: pure digest
    assert content_hash("outro") != h


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="abc ", min_size=1, max_size=20), min_size=0, max_size=10))
def test_dedup_idempotent(texts):
    docs = [doc(t, id=str(i)) for i, t in enumerate(texts)]
    once = deduplicate(docs)
    twice = deduplicate(once)
    assert once == twice


# ----------------------------------------------------------------- quality

def test_empty_text_rejected_min_length():
    assert quality_reason(doc(""), QualityThresholds()) == "min-length"


def test_short_text_rejected_min_length():
    assert quality_reason(doc("curto demais"), QualityThresholds()) == "min-length"


def test_min_words_fires_after_min_length():
    text = "a" * 250  # long enough in chars, one word
    assert quality_reason(doc(text), QualityThresholds()) == "min-words"


def test_word_repeated_500_times_rejected():
    text = "word " * 500
    r = brute_word_rep(text, 5)
    assert r > 0.19  # direct-counting oracle agrees the threshold is crossed
    assert quality_reason(doc(text), QualityThresholds()) == "word-repetition"


def test_natural_paragraph_kept():
    d = doc(NATURAL_PARAGRAPH)
    t = QualityThresholds()
    assert len(NATURAL_PARAGRAPH) >= t.min_chars
    assert len(NATURAL_PARAGRAPH.split()) >= 150
    assert brute_word_rep(NATURAL_PARAGRAPH, t.word_ngram) <= t.max_word_repetition
    assert brute_char_rep(NATURAL_PARAGRAPH, t.char_ngram) <= t.max_char_repetition
    assert nonalpha_ratio(NATURAL_PARAGRAPH) <= t.max_nonalpha
    assert url_token_ratio(NATURAL_PARAGRAPH, NATURAL_PARAGRAPH.split()) <= t.max_url_ratio
    assert quality_reason(d, t) is None


def test_word_repetition_matches_oracle():
    samples = [
        "um dois tres quatro cinco " * 12,
        NATURAL_PARAGRAPH,
        "a b c d e f g h i j " * 10,
    ]
    for text in samples:
        assert word_repetition_ratio(text.split(), 5) == brute_word_rep(text, 5)


def test_char_repetition_matches_oracle():
    samples = ["abcdefghij" * 40, NATURAL_PARAGRAPH, "x" * 300]
    for text in samples:
        assert char_repetition_ratio(text, 10) == brute_char_rep(text, 10)


def test_nonalpha_ratio_values():
    assert nonalpha_ratio("abcd") == 0.0
    assert nonalpha_ratio("ab12") == 0.5
    assert nonalpha_ratio("") == 1.0


def test_nonalpha_rejection():
    # distinct numeric tokens, so the repetition filters stay quiet and
    # only the non-alphabetic check can fire
    from conftest import random_words

    nums = [str(10007 + i * 13) for i in range(90)]
    words = random_words(50, seed=77)
    parts = []
    for i in range(90):
        parts.append(nums[i])
        if i < 50:
            parts.append(words[i])
    text = " ".join(parts)
    assert nonalpha_ratio(text) > 0.4
    assert word_repetition_ratio(text.split(), 5) <= 0.19
    assert char_repetition_ratio(text, 10) <= 0.106
    assert quality_reason(doc(text), QualityThresholds()) == "non-alphabetic"


def test_url_ratio_rejection():
    from conftest import random_words

    words = random_words(150, seed=78)
    urls = ["www.%s.pt" % w for w in random_words(45, seed=79)]
    parts = []
    wi = iter(words)
    for u in urls:
        parts.extend([next(wi), next(wi), next(wi), u])
    text = " ".join(parts)
    assert url_token_ratio(text, text.split()) > 0.2
    assert quality_reason(doc(text), QualityThresholds()) == "url-ratio"


def test_url_token_ratio_counts_schemes_and_www():
    text = "veja https://a.pt e www.b.pt mais texto comum aqui"
    assert url_token_ratio(text, text.split()) == pytest.approx(2 / 8)


def test_thresholds_overridable():
    lenient = QualityThresholds(min_chars=1, min_words=1)
    assert quality_reason(doc("curto"), lenient) is None


# ----------------------------------------------------------------- kernels
# The counting kernels must give exactly what their oracles give, which count
# one gram or token at a time. A character gram's key is one 64-bit word up to
# 84 distinct characters at n = 10 and two or more words past that.

# astral-plane characters and whitespace first, so the 84-character pages hold them
_POOL = "".join(dict.fromkeys(
    "\U0001d538\U0001f600\U0001f1f5\U00010348 \t\n" + string.ascii_letters + string.digits
    + "áàâãçéêíóôõúüÁÇÉÕ" + ".,;:!?-'\"()[]/{}<>@#"))
_INSERTS = ["https://sapo.pt/a", "www.camara.pt", "HTTP://X.PT", "  ", "\t\t", "\n\n", " \t \n "]


@st.composite
def _pages(draw):
    """Pages over an alphabet of k characters, all of them present, with a
    repeated stretch, and URLs and whitespace runs mixed into the rest."""
    k = draw(st.sampled_from([1, 2, 10, 40, 84, 85, 101]))
    chars = draw(st.permutations(_POOL))[:k]
    unit = draw(st.lists(st.sampled_from(chars), min_size=1, max_size=20))
    rest = draw(st.lists(st.one_of(st.sampled_from(chars), st.sampled_from(_INSERTS)), max_size=40))
    parts = list(chars) + unit * draw(st.integers(0, 10)) + rest
    if draw(st.booleans()):
        parts = draw(st.permutations(parts))
    return "".join(parts)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(alphabet=_POOL, max_size=12), _pages()))
@example("")
@example("abcdefghi")
@example("abcdefghij")
@example(_POOL[:84] * 3)
@example(_POOL[:85] * 3)
def test_kernels_equal_their_oracles(text):
    for n in (1, 2, 5, 10):
        assert char_repetition_ratio(text, n) == brute_char_rep(text, n)
        assert word_repetition_ratio(text.split(), n) == brute_word_rep(text, n)
    assert nonalpha_ratio(text) == nonalpha_reference(text)
    assert url_token_ratio(text, text.split()) == url_token_reference(text)


# words drawn from a few, so that two pages share grams; "\u00e9" and "e\u0301"
# are different words to the shingles, as they are to the reference
_FEW_WORDS = st.lists(st.sampled_from(["ola", "mundo", "a", "\u00e9", "e\u0301"]),
                      max_size=14).map(" ".join)
_SHINGLE_TEXTS = st.one_of(_FEW_WORDS, st.text(alphabet=_POOL, max_size=12), _pages())


@settings(max_examples=300, deadline=None)
@given(_SHINGLE_TEXTS, _SHINGLE_TEXTS)
@example("", " \t ")
@example("ola mundo a", "ola  mundo\ta")
def test_shingle_keys_give_the_reference_sizes_and_overlap(a, b):
    for n in (1, 2, 5, 10):
        word_ids: dict[str, int] = {}
        keys_a, keys_b = _shingles(a.split(), n, word_ids), _shingles(b.split(), n, word_ids)
        want_a, want_b = shingles_reference(a, n), shingles_reference(b, n)
        assert (len(keys_a), len(keys_b), len(keys_a & keys_b)) == (
            len(want_a), len(want_b), len(want_a & want_b))


@pytest.mark.parametrize("k, words", [(84, 1), (85, 2), (7131, 2), (7132, 3), (65536, 3),
                                      (65537, 4)])
def test_char_keys_take_as_many_words_as_the_alphabet_needs(k, words):
    # astral-plane characters, so the ranks differ from the code points
    chars = "".join(map(chr, range(0x10000, 0x10000 + k)))
    text = chars + chars[: k // 2]
    keys = _window_keys(text, 10)
    assert len(keys) == words
    windows = [text[i : i + 10] for i in range(len(text) - 9)]
    tuples = list(zip(*(key.tolist() for key in keys)))
    # equal windows get equal keys, and different windows different ones
    assert len(set(windows)) == len(set(tuples)) == len(set(zip(windows, tuples)))
    assert char_repetition_ratio(text, 10) == brute_char_rep(text, 10)


# ----------------------------------------------------------------- pipeline

def test_pipeline_counts_and_order(golden_documents):
    kept, report = run_pipeline(golden_documents)
    assert report.input_count == 100
    assert report.kept_count == len(kept)
    # order-stable: kept ids appear in input order
    input_ids = [d.id for d in golden_documents]
    kept_ids = [d.id for d in kept]
    assert kept_ids == [i for i in input_ids if i in set(kept_ids)]


def test_pipeline_stage_balance(golden_documents):
    noisy = golden_documents + [doc("", id="empty"), doc(golden_documents[0].text, id="dup")]
    kept, report = run_pipeline(noisy)
    for stage in report.stages:
        assert stage.kept + sum(stage.rejected.values()) == stage.input
    total_rejected = sum(sum(s.rejected.values()) for s in report.stages)
    assert report.kept_count + total_rejected == report.input_count


def test_pipeline_idempotent(golden_documents):
    noisy = golden_documents + [doc(golden_documents[3].text, id="dup2"), doc("x", id="tiny")]
    once, _ = run_pipeline(noisy)
    twice, _ = run_pipeline(once)
    assert once == twice


def test_pipeline_tld_stage_optional(golden_documents):
    cfg = PipelineConfig(country_code="pt")
    kept, report = run_pipeline(golden_documents, cfg)
    assert report.stages[0].name == "tld"
    assert len(kept) == 100  # fixture urls are all .pt


def test_pipeline_near_dup_stage():
    from conftest import random_words

    words = random_words(60, seed=31)
    base = " ".join(words)
    nearly = " ".join(words[:30] + ["intruso"] + words[31:])  # one-word edit
    docs = [doc(base, id="a"), doc(nearly, id="b")]
    cfg = PipelineConfig(near_duplicates=True, thresholds=QualityThresholds(min_chars=1, min_words=1))
    kept, report = run_pipeline(docs, cfg)
    names = [s.name for s in report.stages]
    assert "near-dup" in names
    assert [d.id for d in kept] == ["a"]


# ----------------------------------------------------------------- near-dup
# The prefix-filtered join must keep exactly what the all-pairs oracle keeps.

_NEAR_VOCAB = ["alfa", "bravo", "charlie", "delta", "eco", "foxtrote", "golfe", "hotel"]


@st.composite
def _edited_pages(draw):
    """A few base pages plus copies with one random word edit each, in a
    random order; many pages are shorter than the shingle width."""
    pages = draw(st.lists(st.lists(st.sampled_from(_NEAR_VOCAB), max_size=24),
                          min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 8))):
        words = list(draw(st.sampled_from(pages)))
        i = draw(st.integers(0, len(words)))
        word = draw(st.sampled_from(_NEAR_VOCAB + ["intruso"]))
        op = draw(st.sampled_from(("substitute", "insert", "delete")))
        if op == "insert":
            words.insert(i, word)
        elif i < len(words):
            if op == "substitute":
                words[i] = word
            else:
                del words[i]
        pages.append(words)
    return draw(st.permutations(pages))


@settings(max_examples=300, deadline=None)
@given(_edited_pages(), st.sampled_from([0.5, 0.8, 1.0]), st.sampled_from([1, 3, 5]))
def test_near_dup_join_matches_all_pairs_oracle(pages, t, n):
    docs = [doc(" ".join(p), id=str(i)) for i, p in enumerate(pages)]
    got = near_deduplicate(docs, n, t)
    assert [d.id for d in got] == [d.id for d in near_dup_reference(docs, n, t)]


def test_near_dup_join_matches_oracle_on_long_edited_pages():
    rng = random.Random(5)
    bases = [random_words(80, seed=s) for s in range(6)]
    pages = [list(b) for b in bases]
    for _ in range(60):
        words = list(rng.choice(pages))
        words[rng.randrange(len(words))] = rng.choice(bases[0])
        pages.append(words)
    rng.shuffle(pages)
    docs = [doc(" ".join(p), id=str(i)) for i, p in enumerate(pages)]
    for t in (0.5, 0.8, 1.0):
        for n in (1, 3, 5):
            want = [d.id for d in near_dup_reference(docs, n, t)]
            assert [d.id for d in near_deduplicate(docs, n, t)] == want


def test_near_dup_threshold_is_inclusive():
    # unigram shingles: 4 shared of 5 in the union, J = 0.8 exactly
    a = doc("alfa bravo charlie delta eco", id="a")
    b = doc("alfa bravo charlie delta", id="b")
    assert [d.id for d in near_deduplicate([a, b], 1, 0.8)] == ["a"]
    assert [d.id for d in near_deduplicate([a, b], 1, 0.81)] == ["a", "b"]
    assert [d.id for d in near_dup_reference([a, b], 1, 0.8)] == ["a"]


def test_min_overlap_is_least_passing_overlap():
    for t in (0.1, 0.3, 1 / 3, 0.5, 0.7, 0.8, 0.9, 0.95, 1.0):
        for size in range(1, 80):
            want = min(o for o in range(1, size + 1) if o / size >= t)
            assert _min_overlap(size, t) == want, (t, size)


@pytest.mark.parametrize("kwargs", [
    {"near_dup_jaccard": 0.0}, {"near_dup_jaccard": -0.5}, {"near_dup_jaccard": 1.5},
    {"near_dup_jaccard": float("nan")}, {"near_dup_ngram": 0}, {"near_dup_ngram": -2},
])
def test_pipeline_config_rejects_bad_near_dup_settings(kwargs):
    with pytest.raises(UsageError, match="near_dup"):
        PipelineConfig(near_duplicates=True, **kwargs)


def test_pipeline_config_accepts_near_dup_bounds():
    PipelineConfig(near_duplicates=True, near_dup_jaccard=1.0, near_dup_ngram=1)


def test_report_json_shape(golden_documents):
    _, report = run_pipeline(golden_documents)
    decoded = json.loads(report.to_json())
    assert decoded["input_count"] == 100
    assert "sources" in decoded and "stages" in decoded


# ----------------------------------------------------------------- stats

def test_four_docs_one_per_source_quarters():
    docs = [
        Document(id="1", text="um dois tres", source="OSCAR"),
        Document(id="2", text="um dois tres", source="DCEP"),
        Document(id="3", text="um dois tres", source="Europarl"),
        Document(id="4", text="um dois tres", source="ParlamentoPT"),
    ]
    stats = source_stats(docs)
    for src in ("OSCAR", "DCEP", "Europarl", "ParlamentoPT"):
        assert stats[src]["doc_proportion"] == 0.25
        assert stats[src]["documents"] == 1
        assert stats[src]["tokens"] == 3


def test_golden_proportions(golden_documents):
    stats = source_stats(golden_documents)
    assert stats["OSCAR"]["doc_proportion"] == 0.15
    assert stats["DCEP"]["doc_proportion"] == 0.20
    assert stats["Europarl"]["doc_proportion"] == 0.31
    assert stats["ParlamentoPT"]["doc_proportion"] == 0.34


def test_empty_corpus_stats_no_division_error():
    report = corpus_stats([], None)
    assert report.input_count == 0
    assert report.kept_count == 0
    assert report.sources == {}


def test_stats_with_tokenizer_counts_subwords(toy_tokenizer, golden_documents):
    with_tok = source_stats(golden_documents[:4], toy_tokenizer)
    without = source_stats(golden_documents[:4])
    src = golden_documents[0].source
    assert with_tok[src]["tokens"] >= without[src]["tokens"]


def test_proportions_sum_to_one(golden_documents):
    stats = source_stats(golden_documents)
    assert sum(v["doc_proportion"] for v in stats.values()) == pytest.approx(1.0)
    assert sum(v["token_proportion"] for v in stats.values()) == pytest.approx(1.0)


# ----------------------------------------------------------------- property

@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(["OSCAR", "DCEP", "Europarl", "ParlamentoPT"]),
                min_size=1, max_size=30))
def test_doc_proportions_always_normalized(sources):
    docs = [Document(id=str(i), text="um dois", source=s) for i, s in enumerate(sources)]
    stats = source_stats(docs)
    assert sum(v["documents"] for v in stats.values()) == len(docs)
    assert sum(v["doc_proportion"] for v in stats.values()) == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(alphabet="ab c", min_size=0, max_size=30), min_size=0, max_size=12))
def test_rejections_partition_input(texts):
    docs = [doc(t, id=str(i)) for i, t in enumerate(texts)]
    kept, report = run_pipeline(docs)
    total_rejected = sum(sum(s.rejected.values()) for s in report.stages)
    assert len(kept) + total_rejected == len(docs)
