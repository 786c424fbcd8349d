"""Encoder tests.

The attention math is checked against brute-force per-(i, j) loop oracles
written in plain numpy here in the test file, so a shared bug in the
library's vectorized path cannot hide.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from gradcheck import check_gradients
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import emd_paper_reference, mlm_logits_reference, relative_bucket

from lusoforge import autodiff as ad
from lusoforge.autodiff import Tensor
from lusoforge.encoder import (
    NEG_BIAS,
    DisentangledEncoder,
    EncoderConfig,
    bucket_matrix,
    conv1d_same,
    disentangled_attention,
    disentangled_scores,
    encoder_forward,
    enhanced_mask_decode,
    init_params,
    param_shapes,
    preset,
    standard_attention,
)
from lusoforge.errors import EmptyLossError, ShapeError


def small_config(**overrides) -> EncoderConfig:
    base = dict(
        num_layers=2,
        hidden_size=8,
        num_heads=2,
        ffn_size=16,
        vocab_size=23,
        max_seq_len=10,
        relative_window=3,
        dropout_rate=0.0,
        emd_layers=1,
        conv_kernel_size=3,
    )
    base.update(overrides)
    return EncoderConfig(**base)


def params64(config, seed=0):
    return init_params(config, np.random.default_rng(seed), dtype=np.float64)


# ----------------------------------------------------------------- buckets

def test_relative_bucket_examples():
    k = 32
    assert relative_bucket(5, 5, k) == 32     # zero offset lands mid-table
    assert relative_bucket(0, 40, k) == 0     # clipped below
    assert relative_bucket(40, 5, k) == 63    # clipped above
    assert relative_bucket(3, 1, k) == 34
    assert relative_bucket(1, 3, k) == 30


def test_bucket_matrix_matches_scalar():
    s, k = 7, 3
    m = bucket_matrix(s, k)
    assert m.shape == (s, s)
    for i in range(s):
        for j in range(s):
            assert m[i, j] == relative_bucket(i, j, k)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=1, max_value=64),
)
def test_relative_bucket_in_range(i, j, k):
    b = relative_bucket(i, j, k)
    assert 0 <= b < 2 * k


# --------------------------------------------------------------- score oracle

def naive_three_terms(H, P, wq, bq, wk, bk, num_heads, k):
    """Explicit loop implementation of the three disentangled score terms."""
    b, s, h = H.shape
    dh = h // num_heads
    two_k = 2 * k
    Q = (H @ wq + bq).reshape(b, s, num_heads, dh).transpose(0, 2, 1, 3)
    K = (H @ wk + bk).reshape(b, s, num_heads, dh).transpose(0, 2, 1, 3)
    Qr = (P @ wq).reshape(two_k, num_heads, dh).transpose(1, 0, 2)
    Kr = (P @ wk).reshape(two_k, num_heads, dh).transpose(1, 0, 2)
    c2c = np.zeros((b, num_heads, s, s))
    c2p = np.zeros_like(c2c)
    p2c = np.zeros_like(c2c)
    for bi in range(b):
        for hi in range(num_heads):
            for i in range(s):
                for j in range(s):
                    c2c[bi, hi, i, j] = Q[bi, hi, i] @ K[bi, hi, j]
                    c2p[bi, hi, i, j] = Q[bi, hi, i] @ Kr[hi, relative_bucket(i, j, k)]
                    p2c[bi, hi, i, j] = K[bi, hi, j] @ Qr[hi, relative_bucket(j, i, k)]
    return c2c, c2p, p2c


def test_disentangled_scores_match_loop_oracle():
    cfg = small_config()
    params = params64(cfg)
    rng = np.random.default_rng(1)
    H = Tensor(rng.normal(size=(2, 5, cfg.hidden_size)))
    got = disentangled_scores(H, params["relpos.table"], params, "layer0", cfg.num_heads)
    want = naive_three_terms(
        H.data,
        params["relpos.table"].data,
        params["layer0.attn.wq"].data,
        params["layer0.attn.bq"].data,
        params["layer0.attn.wk"].data,
        params["layer0.attn.bk"].data,
        cfg.num_heads,
        cfg.relative_window,
    )
    for got_t, want_a in zip(got, want):
        np.testing.assert_allclose(got_t.data, want_a, rtol=1e-12, atol=1e-12)


def test_position_path_takes_no_bias():
    cfg = small_config()
    params = params64(cfg)
    rng = np.random.default_rng(2)
    H = Tensor(rng.normal(size=(1, 4, cfg.hidden_size)))
    before = disentangled_scores(H, params["relpos.table"], params, "layer0", cfg.num_heads)
    params["layer0.attn.bq"].data += 3.0
    params["layer0.attn.bk"].data -= 2.0
    after = disentangled_scores(H, params["relpos.table"], params, "layer0", cfg.num_heads)
    # c2p and p2c involve Kr/Qr built without bias; only the content-side
    # projections Q and K shift, which does change c2p/p2c through Q and K,
    # so instead check directly: zero H makes Q rows equal bq and c2p becomes
    # bias . Kr, while Kr itself is bias-free
    H0 = Tensor(np.zeros((1, 4, cfg.hidden_size)))
    c2c, c2p, p2c = disentangled_scores(H0, params["relpos.table"], params, "layer0", cfg.num_heads)
    P = params["relpos.table"].data
    wk = params["layer0.attn.wk"].data
    bq = params["layer0.attn.bq"].data
    nh, dh = cfg.num_heads, cfg.hidden_size // cfg.num_heads
    Kr = (P @ wk).reshape(2 * cfg.relative_window, nh, dh).transpose(1, 0, 2)
    for i in range(4):
        for j in range(4):
            bkt = relative_bucket(i, j, cfg.relative_window)
            for hi in range(nh):
                want = bq.reshape(nh, dh)[hi] @ Kr[hi, bkt]
                np.testing.assert_allclose(c2p.data[0, hi, i, j], want, rtol=1e-12)
    del before, after


def test_zeroed_position_table_reduces_to_standard_attention():
    """With the relative-position table zeroed, the three-term scores
    collapse to content-only attention at temperature sqrt(3 * head_dim)."""
    cfg = small_config()
    params = params64(cfg, seed=3)
    params["relpos.table"].data[:] = 0.0
    rng = np.random.default_rng(4)
    H = Tensor(rng.normal(size=(2, 6, cfg.hidden_size)))
    mask = np.ones((2, 6), dtype=np.float64)
    ctx, A = disentangled_attention(H, params["relpos.table"], mask, params,
                                    "layer0", cfg.num_heads)

    # oracle: plain softmax(QK^T / sqrt(3 dh)) V with loops
    b, s, h = H.data.shape
    nh, dh = cfg.num_heads, cfg.hidden_size // cfg.num_heads
    Q = (H.data @ params["layer0.attn.wq"].data + params["layer0.attn.bq"].data)
    K = (H.data @ params["layer0.attn.wk"].data + params["layer0.attn.bk"].data)
    V = (H.data @ params["layer0.attn.wv"].data + params["layer0.attn.bv"].data)
    Q = Q.reshape(b, s, nh, dh).transpose(0, 2, 1, 3)
    K = K.reshape(b, s, nh, dh).transpose(0, 2, 1, 3)
    V = V.reshape(b, s, nh, dh).transpose(0, 2, 1, 3)
    out = np.zeros((b, nh, s, dh))
    for bi in range(b):
        for hi in range(nh):
            scores = Q[bi, hi] @ K[bi, hi].T / np.sqrt(3.0 * dh)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            probs = e / e.sum(axis=1, keepdims=True)
            out[bi, hi] = probs @ V[bi, hi]
    merged = out.transpose(0, 2, 1, 3).reshape(b, s, h)
    np.testing.assert_allclose(ctx.data, merged, rtol=1e-10, atol=1e-12)


def test_attention_mask_bias_applied():
    cfg = small_config()
    params = params64(cfg, seed=5)
    H = Tensor(np.random.default_rng(6).normal(size=(1, 4, cfg.hidden_size)))
    mask = np.array([[1, 1, 0, 0]], dtype=np.float64)
    ctx, A = disentangled_attention(H, params["relpos.table"], mask, params,
                                    "layer0", cfg.num_heads)
    assert np.all(A.data[..., 2:] <= NEG_BIAS / 2)
    probs = ad.softmax(A, axis=-1).data
    np.testing.assert_allclose(probs[..., 2:], 0.0, atol=1e-30)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-12)


def test_fully_masked_rows_fall_back_to_uniform():
    cfg = small_config()
    params = params64(cfg, seed=7)
    H = Tensor(np.random.default_rng(8).normal(size=(1, 3, cfg.hidden_size)))
    mask = np.zeros((1, 3), dtype=np.float64)
    ctx, A = disentangled_attention(H, params["relpos.table"], mask, params,
                                    "layer0", cfg.num_heads)
    probs = ad.softmax(A, axis=-1).data
    np.testing.assert_allclose(probs, 1.0 / 3.0, rtol=1e-9)
    assert np.all(np.isfinite(ctx.data))


# ------------------------------------------------------------------ conv

def naive_conv(x, mask, kernel, bias):
    b, s, h = x.shape
    ksize = kernel.shape[0]
    center = ksize // 2
    xm = x * mask[:, :, None]
    out = np.zeros_like(x)
    for bi in range(b):
        for i in range(s):
            acc = bias.copy()
            for j in range(ksize):
                src = i + j - center
                if 0 <= src < s:
                    acc = acc + xm[bi, src] @ kernel[j]
            out[bi, i] = acc
    return out


def test_conv1d_same_matches_loop_oracle():
    rng = np.random.default_rng(9)
    b, s, h, ksize = 2, 6, 4, 3
    x = rng.normal(size=(b, s, h))
    mask = np.ones((b, s))
    mask[1, 4:] = 0
    kernel = rng.normal(size=(ksize, h, h))
    bias = rng.normal(size=(h,))
    got = conv1d_same(Tensor(x), mask, Tensor(kernel), Tensor(bias))
    np.testing.assert_allclose(got.data, naive_conv(x, mask, kernel, bias), rtol=1e-12)


def test_conv_padding_positions_do_not_leak():
    rng = np.random.default_rng(10)
    h, ksize = 4, 3
    kernel = Tensor(rng.normal(size=(ksize, h, h)))
    bias = Tensor(rng.normal(size=(h,)))
    x_real = rng.normal(size=(1, 5, h))
    x_padded = np.concatenate([x_real, rng.normal(size=(1, 3, h)) * 100], axis=1)
    mask = np.concatenate([np.ones((1, 5)), np.zeros((1, 3))], axis=1)
    out_plain = conv1d_same(Tensor(x_real.copy()), np.ones((1, 5)), kernel, bias)
    out_padded = conv1d_same(Tensor(x_padded), mask, kernel, bias)
    np.testing.assert_allclose(out_padded.data[:, :5], out_plain.data, rtol=1e-12)


# ----------------------------------------------------------------- forward

def test_forward_returns_all_hidden_states():
    cfg = small_config()
    enc = DisentangledEncoder(cfg, params64(cfg, 11))
    ids = np.array([[5, 6, 7, 8]])
    hidden = enc.forward(ids)
    assert len(hidden) == cfg.num_layers + 1
    for hs in hidden:
        assert hs.data.shape == (1, 4, cfg.hidden_size)


def test_forward_rejects_bad_shapes():
    cfg = small_config()
    enc = DisentangledEncoder(cfg, params64(cfg, 12))
    with pytest.raises(ShapeError):
        enc.forward(np.array([5, 6, 7]))
    with pytest.raises(ShapeError):
        enc.forward(np.zeros((1, cfg.max_seq_len + 1), dtype=np.int64))


def test_forward_deterministic_without_rng():
    cfg = small_config()
    enc = DisentangledEncoder(cfg, params64(cfg, 13))
    ids = np.array([[1, 2, 3, 4, 5]])
    a = enc.forward(ids)[-1].data
    b = enc.forward(ids)[-1].data
    np.testing.assert_array_equal(a, b)


def test_dropout_changes_activations_under_rng():
    cfg = small_config(dropout_rate=0.5)
    enc = DisentangledEncoder(cfg, params64(cfg, 14))
    ids = np.array([[1, 2, 3, 4, 5]])
    a = enc.forward(ids, rng=np.random.default_rng(0))[-1].data
    b = enc.forward(ids, rng=np.random.default_rng(1))[-1].data
    assert not np.allclose(a, b)


def test_same_dropout_seed_reproduces():
    cfg = small_config(dropout_rate=0.3)
    enc = DisentangledEncoder(cfg, params64(cfg, 15))
    ids = np.array([[1, 2, 3]])
    a = enc.forward(ids, rng=np.random.default_rng(42))[-1].data
    b = enc.forward(ids, rng=np.random.default_rng(42))[-1].data
    np.testing.assert_array_equal(a, b)


def test_segment_embeddings_enter_the_sum():
    cfg = small_config()
    enc = DisentangledEncoder(cfg, params64(cfg, 16))
    ids = np.array([[1, 2, 3, 4]])
    seg0 = enc.forward(ids, segments=np.zeros((1, 4), dtype=np.int64))[-1].data
    seg1 = enc.forward(ids, segments=np.array([[0, 0, 1, 1]]))[-1].data
    assert not np.allclose(seg0, seg1)


def test_padding_invariance_of_real_positions():
    cfg = small_config()
    enc = DisentangledEncoder(cfg, params64(cfg, 17))
    ids = np.array([[5, 6, 7]])
    plain = enc.forward(ids)[-1].data
    padded_ids = np.array([[5, 6, 7, 0, 0]])
    mask = np.array([[1, 1, 1, 0, 0]], dtype=np.float64)
    padded = enc.forward(padded_ids, attn_mask=mask)[-1].data
    np.testing.assert_allclose(padded[:, :3], plain, rtol=1e-9, atol=1e-11)


def test_batch_permutation_equivariance():
    cfg = small_config()
    enc = DisentangledEncoder(cfg, params64(cfg, 18))
    rng = np.random.default_rng(19)
    ids = rng.integers(5, cfg.vocab_size, size=(4, 6))
    perm = np.array([2, 0, 3, 1])
    out = enc.forward(ids)[-1].data
    out_perm = enc.forward(ids[perm])[-1].data
    np.testing.assert_allclose(out_perm, out[perm], rtol=1e-9, atol=1e-11)


def test_zero_conv_kernel_makes_first_layer_standard():
    cfg = small_config()
    params = params64(cfg, 20)
    params["conv.kernel"].data[:] = 0.0
    params["conv.bias"].data[:] = 0.0
    ids = np.array([[3, 4, 5, 6]])
    hidden = encoder_forward(params, cfg, ids)

    # expected: the embedding hidden put through the plain attention+ffn
    # sublayers, no conv term
    emb = hidden[0]
    mask = np.ones((1, 4), dtype=np.float64)
    ctx, _ = disentangled_attention(emb, params["relpos.table"], mask, params,
                                    "layer0", cfg.num_heads)
    att = ad.add(ad.matmul(ctx, params["layer0.attn.wo"]), params["layer0.attn.bo"])
    h = ad.layer_norm(ad.add(emb, att), params["layer0.attn.ln.gain"],
                      params["layer0.attn.ln.bias"], cfg.layer_norm_eps)
    inner = ad.gelu(ad.add(ad.matmul(h, params["layer0.ffn.w1"]), params["layer0.ffn.b1"]))
    out = ad.add(ad.matmul(inner, params["layer0.ffn.w2"]), params["layer0.ffn.b2"])
    h = ad.layer_norm(ad.add(h, out), params["layer0.ffn.ln.gain"],
                      params["layer0.ffn.ln.bias"], cfg.layer_norm_eps)
    np.testing.assert_allclose(hidden[1].data, h.data, rtol=1e-9, atol=1e-11)


def test_nonzero_conv_kernel_changes_first_layer():
    cfg = small_config()
    p0 = params64(cfg, 21)
    p1 = params64(cfg, 21)
    p1["conv.kernel"].data[:] = 0.0
    ids = np.array([[3, 4, 5, 6]])
    a = encoder_forward(p0, cfg, ids)[1].data
    b = encoder_forward(p1, cfg, ids)[1].data
    assert not np.allclose(a, b)


# -------------------------------------------------------------------- EMD

def test_mlm_logits_shape():
    cfg = small_config()
    enc = DisentangledEncoder(cfg, params64(cfg, 22))
    ids = np.array([[1, 2, 3, 4, 5]])
    logits = enc.mlm_logits(ids)
    assert logits.data.shape == (1, 5, cfg.vocab_size)


def test_output_projection_is_tied_to_embeddings():
    cfg = small_config()
    params = params64(cfg, 23)
    enc = DisentangledEncoder(cfg, params)
    ids = np.array([[1, 2, 3]])
    before = enc.mlm_logits(ids).data.copy()
    # perturb one component of one embedding row: the corresponding logit
    # column must move because the projection is the same storage (a uniform
    # row shift would cancel against the zero-mean layer-normed hidden state,
    # so nudge a single coordinate instead)
    params["embed.tokens"].data[9, 0] += 0.5
    after = enc.mlm_logits(ids).data
    assert not np.allclose(before[..., 9], after[..., 9])
    # token 9 never occurs in the input, so no other column may move
    np.testing.assert_allclose(np.delete(after, 9, axis=-1),
                               np.delete(before, 9, axis=-1), rtol=1e-12)


def test_emd_query_carries_absolute_positions():
    cfg = small_config()
    params = params64(cfg, 24)
    # at init scale (0.02) the position signal is ~1e-8 in the logits, so
    # inflate the table to make the wiring unmistakable
    params["abspos.table"].data[:] = np.random.default_rng(99).normal(size=params["abspos.table"].shape)
    enc = DisentangledEncoder(cfg, params)
    ids = np.array([[1, 2, 3, 4]])
    with_pos = enc.mlm_logits(ids).data.copy()
    params["abspos.table"].data[:] = 0.0
    without_pos = enc.mlm_logits(ids).data
    assert not np.allclose(with_pos, without_pos)


def test_emd_reduces_to_standard_attention_when_abspos_zero():
    cfg = small_config(emd_layers=1)
    params = params64(cfg, 25)
    params["abspos.table"].data[:] = 0.0
    ids = np.array([[2, 3, 4]])
    hidden = encoder_forward(params, cfg, ids)
    logits = enhanced_mask_decode(params, cfg, hidden)

    h = hidden[-1]
    mask = np.ones((1, 3), dtype=np.float64)
    raw = standard_attention(h, h, mask, params, "emd0", cfg.num_heads)
    out = ad.add(ad.matmul(raw, params["emd0.attn.wo"]), params["emd0.attn.bo"])
    h2 = ad.layer_norm(ad.add(h, out), params["emd0.attn.ln.gain"],
                       params["emd0.attn.ln.bias"], cfg.layer_norm_eps)
    inner = ad.gelu(ad.add(ad.matmul(h2, params["emd0.ffn.w1"]), params["emd0.ffn.b1"]))
    ffn = ad.add(ad.matmul(inner, params["emd0.ffn.w2"]), params["emd0.ffn.b2"])
    h2 = ad.layer_norm(ad.add(h2, ffn), params["emd0.ffn.ln.gain"],
                       params["emd0.ffn.ln.bias"], cfg.layer_norm_eps)
    expected = h2.data @ params["embed.tokens"].data.T
    np.testing.assert_allclose(logits.data, expected, rtol=1e-9, atol=1e-11)


def test_emd_layer_count_respected():
    cfg2 = small_config(emd_layers=2)
    params = params64(cfg2, 26)
    assert "emd1.attn.wq" in params
    enc = DisentangledEncoder(cfg2, params)
    logits = enc.mlm_logits(np.array([[1, 2]]))
    assert logits.data.shape == (1, 2, cfg2.vocab_size)
    # the second layer runs: it moves the logits, and they match the paper form
    H = encoder_forward(params, cfg2, np.array([[1, 2]]))[-1].data
    one_layer = emd_paper_reference(params, small_config(emd_layers=1), H, np.ones((1, 2)))
    assert not np.allclose(logits.data, one_layer)
    np.testing.assert_allclose(logits.data, emd_paper_reference(params, cfg2, H, np.ones((1, 2))),
                               rtol=1e-9, atol=1e-12)


# ------------------------------------------------- masked-only decoding

def selected_logits_and_oracle(cfg, params, ids, mask, select):
    """Selected-rows logits and the full-sequence oracle's rows at select."""
    enc = DisentangledEncoder(cfg, params)
    got = enc.mlm_logits(ids, attn_mask=mask, rng=None, select=select).data
    want = mlm_logits_reference(params, cfg, ids, attn_mask=mask).data[select]
    return got, want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_selected_rows_match_full_decoder_oracle(data):
    b = data.draw(st.integers(1, 3), label="batch")
    s = data.draw(st.integers(1, 10), label="seq")
    lengths = data.draw(st.lists(st.integers(1, s), min_size=b, max_size=b), label="lengths")
    select = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=s, max_size=s),
                                         min_size=b, max_size=b), label="select"), dtype=bool)
    if not select.any():
        select[data.draw(st.integers(0, b - 1)), data.draw(st.integers(0, s - 1))] = True
    seed = data.draw(st.integers(0, 2**16), label="seed")
    cfg = small_config()
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, cfg.vocab_size, size=(b, s))
    mask = (np.arange(s)[None, :] < np.array(lengths)[:, None]).astype(np.float64)
    got, want = selected_logits_and_oracle(cfg, params64(cfg, seed), ids, mask, select)
    assert got.shape == (int(select.sum()), cfg.vocab_size)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_selected_rows_cover_empty_full_single_and_padded_rows():
    cfg = small_config()
    ids = np.random.default_rng(5).integers(0, cfg.vocab_size, size=(4, 7))
    mask = np.ones((4, 7))
    mask[3, 4:] = 0.0                          # padded keys
    select = np.zeros((4, 7), dtype=bool)      # row 0 selects nothing
    select[1] = True                           # fully selected row
    select[2, 5] = True                        # a single selected position
    select[3, [0, 3]] = True
    got, want = selected_logits_and_oracle(cfg, params64(cfg, 31), ids, mask, select)
    assert got.shape == (10, cfg.vocab_size)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_select_none_decodes_every_position():
    cfg = small_config()
    params = params64(cfg, 32)
    ids = np.array([[3, 4, 5, 6], [7, 8, 9, 10]])
    mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0]], dtype=np.float64)
    got = DisentangledEncoder(cfg, params).mlm_logits(ids, attn_mask=mask).data
    want = mlm_logits_reference(params, cfg, ids, attn_mask=mask).data
    assert got.shape == (2, 4, cfg.vocab_size)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("select", [
    np.ones((1, 3), dtype=bool),               # too few positions
    np.ones((2, 4), dtype=bool),               # too many rows
    np.ones((1, 4), dtype=np.int64),           # not bool
    np.ones((1, 4), dtype=np.float64),
])
def test_select_of_wrong_shape_or_dtype_is_shape_error(select):
    cfg = small_config()
    enc = DisentangledEncoder(cfg, params64(cfg, 33))
    with pytest.raises(ShapeError):
        enc.mlm_logits(np.array([[1, 2, 3, 4]]), select=select)


def test_all_false_select_is_empty_loss_error():
    cfg = small_config()
    enc = DisentangledEncoder(cfg, params64(cfg, 34))
    with pytest.raises(EmptyLossError):
        enc.mlm_logits(np.array([[1, 2, 3, 4]]), select=np.zeros((1, 4), dtype=bool))


def test_two_layer_decoder_keeps_keys_and_values_at_encoder_output():
    cfg = small_config(emd_layers=2)
    params = params64(cfg, 35)
    rng = np.random.default_rng(6)
    ids = rng.integers(0, cfg.vocab_size, size=(3, 8))
    mask = np.ones((3, 8))
    mask[1, 5:] = 0.0
    select = rng.random((3, 8)) < 0.5
    select[0] = False
    select[2, 2] = True
    enc = DisentangledEncoder(cfg, params)
    got = enc.mlm_logits(ids, attn_mask=mask, select=select).data
    H = encoder_forward(params, cfg, ids, attn_mask=mask)[-1].data
    np.testing.assert_allclose(got, emd_paper_reference(params, cfg, H, mask)[select],
                               rtol=1e-9, atol=1e-12)


def test_selected_path_gradients_at_two_decoder_layers():
    cfg = small_config(emd_layers=2)
    params = params64(cfg, 36)
    enc = DisentangledEncoder(cfg, params)
    rng = np.random.default_rng(7)
    ids = rng.integers(5, cfg.vocab_size, size=(2, 6))
    mask = np.ones((2, 6))
    mask[1, 4:] = 0.0                          # padded keys in the checked graph
    select = np.zeros((2, 6), dtype=bool)
    select[0, [1, 4]] = True
    select[1, 2] = True
    labels = rng.integers(5, cfg.vocab_size, size=(2, 6))[select]

    def loss_fn():
        logits = enc.mlm_logits(ids, attn_mask=mask, rng=None, select=select)
        return ad.cross_entropy(logits, labels)

    res = check_gradients(loss_fn, params, rtol=1e-2, atol=1e-6)
    assert res.passed, res.summary()


# ----------------------------------------------------------------- pruned last layer

def padded_batch(cfg, s, seed=3):
    """ids [3, s] and a mask whose second row is padded after position 0 and
    whose third row is padded after position s // 2."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(5, cfg.vocab_size, size=(3, s))
    mask = np.ones((3, s), dtype=np.float32)
    mask[1, 1:] = 0.0
    mask[2, s // 2 + 1:] = 0.0
    return ids, mask


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
@pytest.mark.parametrize("num_layers", [1, 2])   # at 1 the conv addend is narrowed too
@pytest.mark.parametrize("s", [1, 2, 17])
@pytest.mark.parametrize("rows", [1, 3])
def test_last_rows_match_the_full_last_layer(dtype, tol, num_layers, s, rows):
    cfg = small_config(num_layers=num_layers, max_seq_len=20)
    params = init_params(cfg, np.random.default_rng(5), dtype=dtype)
    ids, mask = padded_batch(cfg, s)
    full = encoder_forward(params, cfg, ids, attn_mask=mask)
    pruned = encoder_forward(params, cfg, ids, attn_mask=mask, last_rows=rows)
    m = min(rows, s)
    assert pruned[-1].shape == (3, m, cfg.hidden_size)
    for a, b in zip(full[:-1], pruned[:-1]):        # earlier layers are untouched
        np.testing.assert_array_equal(a.data, b.data)
    want = full[-1].data[:, :m]
    assert np.abs(pruned[-1].data - want).max() <= tol * np.abs(want).max()


@pytest.mark.parametrize("num_layers", [1, 2])
def test_last_rows_draw_dropout_as_the_full_layer(num_layers):
    cfg = small_config(num_layers=num_layers, max_seq_len=20, dropout_rate=0.1)
    params = params64(cfg, 8)
    ids, mask = padded_batch(cfg, 17)
    full_rng, pruned_rng = np.random.default_rng(4), np.random.default_rng(4)
    full = encoder_forward(params, cfg, ids, attn_mask=mask, rng=full_rng)[-1].data[:, 0]
    pruned = encoder_forward(params, cfg, ids, attn_mask=mask, rng=pruned_rng,
                             last_rows=1)[-1].data[:, 0]
    assert pruned_rng.bit_generator.state == full_rng.bit_generator.state
    # the CLS row keeps the full layer's dropout masks
    assert np.abs(pruned - full).max() <= 1e-12 * np.abs(full).max()


@pytest.mark.parametrize("num_layers", [1, 2])
def test_task_head_gradients_through_the_pruned_last_layer(num_layers):
    cfg = small_config(num_layers=num_layers)
    params = params64(cfg, 9)
    params["head.w"] = Tensor(np.random.default_rng(1).normal(0, 0.5, (cfg.hidden_size, 2)),
                              requires_grad=True, dtype=np.float64)
    ids, mask = padded_batch(cfg, 6)
    labels = np.array([0, 1, 1])

    def loss_fn():
        hidden = encoder_forward(params, cfg, ids, attn_mask=mask, last_rows=1)
        cls = ad.take(hidden[-1], 0, axis=1)
        return ad.cross_entropy(ad.matmul(cls, params["head.w"]), labels)

    res = check_gradients(loss_fn, params, rtol=1e-2, atol=1e-6)
    assert res.passed, res.summary()


# ----------------------------------------------------------------- presets

def test_presets_exist_with_expected_scale():
    micro = preset("micro")
    tiny = preset("tiny")
    assert micro.num_layers < tiny.num_layers
    assert micro.hidden_size < tiny.hidden_size
    xl = preset("xlarge")
    assert xl.num_layers == 24
    assert xl.hidden_size == 1536


def test_preset_overrides():
    cfg = preset("micro", vocab_size=999, dropout_rate=0.0)
    assert cfg.vocab_size == 999
    assert cfg.dropout_rate == 0.0


def test_unknown_preset_raises():
    with pytest.raises(KeyError):
        preset("gigantic")


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(hidden_size=7)  # not divisible by heads
    with pytest.raises(ValueError):
        small_config(conv_kernel_size=4)  # must be odd
    with pytest.raises(ValueError):
        small_config(dropout_rate=1.5)


def test_num_parameters_counts_everything():
    cfg = small_config()
    h, f = cfg.hidden_size, cfg.ffn_size
    block = 4 * h * h + 4 * h + 2 * h + h * f + f + f * h + h + 2 * h
    want = (cfg.vocab_size * h + cfg.num_segments * h + 2 * h + 2 * cfg.relative_window * h
            + cfg.max_seq_len * h + cfg.conv_kernel_size * h * h + h
            + (cfg.num_layers + cfg.emd_layers) * block)
    assert sum(p.data.size for p in params64(cfg, 27).values()) == want


def test_init_params_deterministic_per_seed():
    cfg = small_config()
    a = init_params(cfg, np.random.default_rng(np.random.SeedSequence(5)))
    b = init_params(cfg, np.random.default_rng(np.random.SeedSequence(5)))
    for k in a:
        np.testing.assert_array_equal(a[k].data, b[k].data)


@pytest.mark.parametrize("name, tensors, entries, digest", [
    ("micro", 56, 185_088, "094ecbada0b5e27e27af611a424efce146bc8011f250bcc8669cf2b44d0cdf6b"),
    ("tiny", 88, 2_114_304, "a8bad5257d43d4dc0a81a9cbf6d33d153a162dbd1ef51d46db051a5e1fd7afeb"),
])
def test_fresh_parameters_keep_their_bytes(name, tensors, entries, digest):
    # the benchmark's sweep checkpoint comes from init_params, so a change to
    # the schema's order or to a draw must change these values on purpose
    params = init_params(preset(name), np.random.default_rng(0))
    h = hashlib.sha256()
    for key, p in params.items():
        h.update(key.encode())
        h.update(repr(tuple(p.shape)).encode())
        h.update(p.data.tobytes())
    assert (len(params), sum(p.data.size for p in params.values())) == (tensors, entries)
    assert h.hexdigest() == digest


@pytest.mark.parametrize("head_type, width", [("regression", 1), ("binary_classification", 2)])
def test_a_task_model_is_the_encoder_and_a_head(head_type, width):
    cfg = small_config()
    pretraining = param_shapes(cfg)
    shapes = param_shapes(cfg, head_type)
    assert list(shapes) == [k for k in pretraining if not k.startswith(("abspos.", "emd"))] + [
        "head.w", "head.b"]
    assert shapes["head.w"] == (cfg.hidden_size, width) and shapes["head.b"] == (width,)
