"""Reference implementations kept as test oracles.

These are the straightforward versions of algorithms that `src/` runs in a
faster, exact form: greedy BPE training that recounts every pair of every
word before each merge, the near-duplicate scan that compares each document
with every kept one, the masked-token decoder run over every position, and
the relative-position bucket of one (query, key) pair, and the corpus
quality ratios and word shingles counted one gram or token at a time.
Tests require equal results from both. A plain-numpy enhanced mask decoder
in the form of He et al. (2021, §3.2) checks the decoder for any layer count,
and the task head read off the full encoder graph, its last layer computed
at every position, checks the task model's pruned last layer.
The kernels' first forms are kept too: the broadcast `take_along_axis`
gather and its `np.add.at` scatter, the embedding backward that scatters
into a zeroed table, and the Adam step built from whole-array temporaries.
`decode`, the inverse of tokenizer encoding, lives here because only tests
read ids back as text, and so do `normalize`, the text `decode` gives back,
and `_marked_words`, the words the reference trainer counts.
"""

from __future__ import annotations

import math
import re
import unicodedata
from collections import Counter

import numpy as np
from scipy.special import erf

from lusoforge import autodiff as ad
from lusoforge.corpus import content_hash
from lusoforge.encoder import (
    NEG_BIAS,
    _ffn_sublayer,
    _finish_attn_sublayer,
    encoder_forward,
    standard_attention,
)
from lusoforge.errors import DataError, NumericalError
from lusoforge.optim import BETA1, BETA2, EPS, Adam
from lusoforge.tokenizer import MARKER, SPECIAL_TOKENS, TokenizerModel


def normalize(text: str) -> str:
    """NFC plus whitespace-run collapse; no case folding."""
    return " ".join(unicodedata.normalize("NFC", text).split())


def _marked_words(text: str) -> list[str]:
    norm = normalize(text)
    if not norm:
        return []
    return [MARKER + w for w in norm.split(" ")]


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


def decode(model: TokenizerModel, ids) -> str:
    """Inverse of encode on UNK-free input: drop specials, markers -> spaces."""
    id_to_token = {i: t for t, i in model.vocab.items()}
    pieces: list[str] = []
    for i in map(int, ids):
        if i not in id_to_token:
            raise DataError(f"token id {i} outside vocabulary of size {model.vocab_size}")
        if i >= len(SPECIAL_TOKENS):
            pieces.append(id_to_token[i])
    return "".join(pieces).replace(MARKER, " ").lstrip(" ")


def brute_word_rep(text: str, n: int) -> float:
    """Share of word n-grams that occur at least twice."""
    words = text.split()
    if len(words) < n:
        return 0.0
    grams = [tuple(words[i:i + n]) for i in range(len(words) - n + 1)]
    c = Counter(grams)
    return sum(v for v in c.values() if v >= 2) / len(grams)


def brute_char_rep(text: str, n: int) -> float:
    """Share of character n-grams held by the top sqrt(#distinct) repeated grams."""
    if len(text) < n:
        return 0.0
    grams = [text[i:i + n] for i in range(len(text) - n + 1)]
    c = Counter(grams)
    freqs = sorted(c.values(), reverse=True)
    budget = min(int(math.isqrt(len(freqs))), sum(1 for v in freqs if v > 1))
    return sum(freqs[:budget]) / len(grams)


def nonalpha_reference(text: str) -> float:
    """Share of characters that are not letters; 1.0 for the empty text."""
    if not text:
        return 1.0
    return sum(1 for c in text if not c.isalpha()) / len(text)


def url_token_reference(text: str) -> float:
    """Share of whitespace tokens that hold a URL scheme or a `www.`."""
    tokens = text.split()
    if not tokens:
        return 0.0
    url = re.compile(r"https?://|www\.", re.IGNORECASE)
    return sum(1 for t in tokens if url.search(t)) / len(tokens)


def shingles_reference(text: str, n: int) -> frozenset[int]:
    """`content_hash` of each word n-gram joined by one space, or of all the
    words when there are fewer than n."""
    words = text.split()
    grams = [words] if len(words) < n else [words[i:i + n] for i in range(len(words) - n + 1)]
    return frozenset(content_hash(" ".join(g)) for g in grams)


def near_dup_reference(docs, n: int, t: float) -> list:
    """Documents kept by comparing each one with every kept document."""
    kept = []
    kept_shingles: list[frozenset[int]] = []
    for d in docs:
        sh = shingles_reference(d.text, n)
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


def relative_bucket(i: int, j: int, k: int) -> int:
    """Bucket index in [0, 2k) for query position i attending key position j."""
    d = i - j
    if d <= -k:
        return 0
    if d >= k:
        return 2 * k - 1
    return d + k


def mlm_logits_reference(params, config, ids, segments=None, attn_mask=None, rng=None):
    """MLM logits [B, S, V] with the decoder run over every position, each
    decoding layer taking its keys and values from the previous layer's output."""
    all_hidden = encoder_forward(params, config, ids, segments, attn_mask, rng)
    h = all_hidden[-1]
    b, s, _ = h.shape
    if attn_mask is None:
        attn_mask = np.ones((b, s), dtype=np.float32)
    drop = config.dropout_rate
    pos = ad.narrow(params["abspos.table"], 0, 0, s)
    for j in range(config.emd_layers):
        prefix = f"emd{j}"
        q_in = ad.add(h, pos)
        raw = standard_attention(q_in, h, attn_mask, params, prefix,
                                 config.num_heads, drop, rng)
        h = _finish_attn_sublayer(h, raw, params, prefix, config.layer_norm_eps, drop, rng)
        h = _ffn_sublayer(h, params, prefix, config.layer_norm_eps, drop, rng)
    # tied output projection: literally the embedding table, transposed in-graph
    return ad.matmul(h, ad.swap_last2(ad.reshape(params["embed.tokens"],
                                                 (1,) + params["embed.tokens"].shape)))


def task_forward_reference(model, ids, segments, attn_mask, rng=None):
    """`TaskModel.forward` over the full encoder graph: the last layer at every
    position, then its CLS row, the pooled dropout and the linear head."""
    hidden = encoder_forward(model.params, model.config, ids, segments, attn_mask, rng)
    pooled = ad.dropout(ad.take(hidden[-1], 0, axis=1), model.config.dropout_rate, rng)
    return ad.add(ad.matmul(pooled, model.params["head.w"]), model.params["head.b"])


def emd_paper_reference(params, config, H, attn_mask) -> np.ndarray:
    """Logits [B, S, V] of the enhanced mask decoder in plain numpy, without
    dropout: the query stream I starts at the encoder output H and is the only
    state a layer updates; every layer's query is I plus the absolute position
    embeddings, and its keys and values are projections of H."""
    w = lambda name: params[name].data  # noqa: E731
    b, s, h = H.shape
    nh = config.num_heads
    dh = h // nh
    pos = w("abspos.table")[:s]
    keep = np.asarray(attn_mask)[:, None, None, :] > 0

    def heads(x):
        return x.reshape(b, s, nh, dh).transpose(0, 2, 1, 3)

    def norm(x, name):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + config.layer_norm_eps) * w(f"{name}.gain") + w(f"{name}.bias")

    I = H
    for j in range(config.emd_layers):
        p = f"emd{j}"
        Q = heads((I + pos) @ w(f"{p}.attn.wq") + w(f"{p}.attn.bq"))
        K = heads(H @ w(f"{p}.attn.wk") + w(f"{p}.attn.bk"))
        V = heads(H @ w(f"{p}.attn.wv") + w(f"{p}.attn.bv"))
        scores = np.where(keep, Q @ K.transpose(0, 1, 3, 2) / np.sqrt(dh), NEG_BIAS)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        ctx = (e / e.sum(axis=-1, keepdims=True)) @ V
        ctx = ctx.transpose(0, 2, 1, 3).reshape(b, s, h)
        I = norm(I + ctx @ w(f"{p}.attn.wo") + w(f"{p}.attn.bo"), f"{p}.attn.ln")
        inner = I @ w(f"{p}.ffn.w1") + w(f"{p}.ffn.b1")
        inner = 0.5 * inner * (1.0 + erf(inner / np.sqrt(2.0)))
        I = norm(I + inner @ w(f"{p}.ffn.w2") + w(f"{p}.ffn.b2"), f"{p}.ffn.ln")
    return I @ w("embed.tokens").T


def gather_last_reference(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    """out[..., i, j] = a[..., i, index[i, j]] by a broadcast take_along_axis."""
    idx = np.broadcast_to(index, a.shape[:-1] + (index.shape[1],))
    return np.take_along_axis(a, idx, axis=-1)


def gather_last_grad_reference(a_shape, index: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of gather_last for upstream g: np.add.at into a zeroed array."""
    q, w = a_shape[-2], a_shape[-1]
    ga = np.zeros(a_shape, dtype=g.dtype)
    flat = ga.reshape(-1, q, w)
    gflat = g.reshape(-1, q, index.shape[1])
    batch = np.arange(flat.shape[0])[:, None, None]
    rows = np.arange(q)[None, :, None]
    np.add.at(flat, (batch, rows, index[None, :, :]), gflat)
    return ga


def embedding_grad_reference(table_shape, ids: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of an embedding lookup: np.add.at of g's rows into a zeroed table."""
    gt = np.zeros(table_shape, dtype=g.dtype)
    np.add.at(gt, np.asarray(ids).reshape(-1), g.reshape(-1, table_shape[-1]))
    return gt


class AdamReference(Adam):
    """Adam whose step builds every intermediate as a fresh array and
    replaces each parameter's array with a new one."""

    def step(self):
        for name, p in self.params.items():
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise NumericalError(f"non-finite gradient in parameter '{name}'")
        self.t += 1
        b1, b2 = BETA1, BETA2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name] = self.m[name] * b1 + (1.0 - b1) * g
            v = self.v[name] = self.v[name] * b2 + (1.0 - b2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            if self.weight_decay and self._decays(name):
                update = update + self.weight_decay * p.data
            p.data = (p.data - self.lr * update).astype(p.data.dtype, copy=False)
