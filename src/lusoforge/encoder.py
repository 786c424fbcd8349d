"""Transformer encoder with disentangled content/position attention.

Attention scores are the sum of three per-head terms,

    A[i,j] = Qc_i · Kc_j  +  Qc_i · Kr_{bucket(i,j)}  +  Kc_j · Qr_{bucket(j,i)}

scaled by 1/sqrt(3 * d_head) because three dot products contribute. Qr and
Kr come from projecting a shared relative-position table P through the SAME
Wq/Wk used for content (no bias on the position path, so a zeroed table
contributes exactly nothing and the layer degrades to standard attention).

The first layer adds a 1-D convolution over the input embeddings to its
attention output before the residual. A caller that reads only the first m
positions of the output (a task head reads the CLS state, m = 1) passes
`last_rows`: the last layer then takes its queries, residual and FFN from
those rows alone, while its keys, values and position terms span every
position. Masked-token prediction runs the
enhanced mask decoder (He et al. 2021, §3.2) on the selected positions only:
their query stream starts at the encoder output H plus absolute position
embeddings, every decoding layer attends over all of H as fixed keys and
values and updates only that stream, and the result is projected onto the
(tied) input embedding table.

`param_shapes` declares the tensors of the pre-training and task models once:
`init_params` draws in its order, `finetune.TaskModel` takes its tensors from
it, and `checkpoint.load_checkpoint` refuses a checkpoint that disagrees.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from lusoforge import autodiff as ad
from lusoforge.autodiff import Tensor
from lusoforge.errors import EmptyLossError, ShapeError, UsageError

NEG_BIAS = -1e9  # finite stand-in for -inf; keeps softmax NaN-free


@dataclass(frozen=True)
class EncoderConfig:
    num_layers: int = 4
    hidden_size: int = 128
    num_heads: int = 4
    ffn_size: int = 512
    vocab_size: int = 8192
    max_seq_len: int = 128
    relative_window: int = 32
    dropout_rate: float = 0.1
    emd_layers: int = 1
    conv_kernel_size: int = 3
    num_segments: int = 2
    layer_norm_eps: float = 1e-7

    def __post_init__(self):
        for f in fields(self):  # a checkpoint's config comes from outside the program
            value = getattr(self, f.name)
            if f.type == "int" and not (type(value) is int and value >= 1):
                raise UsageError(f"{f.name} must be an integer >= 1, got {value!r}")
            if f.type == "float" and type(value) not in (int, float):
                raise UsageError(f"{f.name} must be a number, got {value!r}")
        if self.hidden_size % self.num_heads != 0:
            raise ShapeError(
                f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}"
            )
        if self.conv_kernel_size % 2 != 1:
            raise UsageError("conv_kernel_size must be odd")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise UsageError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")


PRESETS: dict[str, EncoderConfig] = {
    "micro": EncoderConfig(
        num_layers=2, hidden_size=64, num_heads=4, ffn_size=256,
        vocab_size=256, max_seq_len=64, relative_window=16,
    ),
    "tiny": EncoderConfig(
        num_layers=4, hidden_size=128, num_heads=4, ffn_size=512,
        vocab_size=8192, max_seq_len=128, relative_window=32,
    ),
    # construction-only documentation of the reference scale; never trained here
    "xlarge": EncoderConfig(
        num_layers=24, hidden_size=1536, num_heads=24, ffn_size=6144,
        vocab_size=128000, max_seq_len=512, relative_window=256,
    ),
}


def preset(name: str, **overrides) -> EncoderConfig:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    cfg = PRESETS[name]
    return replace(cfg, **overrides) if overrides else cfg


def bucket_matrix(seq_len: int, k: int) -> np.ndarray:
    """Relative-position buckets in [0, 2k): [i, j] = clip(i - j, -k, k - 1) + k."""
    d = np.arange(seq_len)[:, None] - np.arange(seq_len)[None, :]
    return (np.clip(d, -k, k - 1) + k).astype(np.int64)


# ---------------------------------------------------------------------------
# parameters


HEAD_WIDTHS = {"regression": 1, "binary_classification": 2}


def param_shapes(config: EncoderConfig, head_type: str | None = None) -> dict[str, tuple]:
    """The ordered {name: shape} of a model. With no head type it is the
    pre-training model: the encoder, `abspos.table` and the decoder layers
    `emd{j}`. With one, it is the task model: the encoder and a linear head,
    `head.w` [h, width] and `head.b` [width], its width from HEAD_WIDTHS."""
    h, f, task = config.hidden_size, config.ffn_size, head_type is not None
    shapes = {"embed.tokens": (config.vocab_size, h), "embed.segments": (config.num_segments, h),
              "embed.ln.gain": (h,), "embed.ln.bias": (h,),
              "relpos.table": (2 * config.relative_window, h),
              **({} if task else {"abspos.table": (config.max_seq_len, h)}),
              "conv.kernel": (config.conv_kernel_size, h, h), "conv.bias": (h,)}
    blocks = [f"layer{i}" for i in range(config.num_layers)]
    if not task:
        blocks += [f"emd{j}" for j in range(config.emd_layers)]
    for prefix in blocks:
        for name in ("wq", "wk", "wv", "wo"):
            shapes[f"{prefix}.attn.{name}"] = (h, h)
        for name in ("bq", "bk", "bv", "bo", "ln.gain", "ln.bias"):
            shapes[f"{prefix}.attn.{name}"] = (h,)
        for name, shape in (("w1", (h, f)), ("b1", (f,)), ("w2", (f, h)), ("b2", (h,)),
                            ("ln.gain", (h,)), ("ln.bias", (h,))):
            shapes[f"{prefix}.ffn.{name}"] = shape
    if task:
        shapes.update({"head.w": (h, HEAD_WIDTHS[head_type]), "head.b": (HEAD_WIDTHS[head_type],)})
    return shapes


def init_tensor(name: str, shape: tuple, rng: np.random.Generator, dtype) -> Tensor:
    """A fresh trainable tensor: normal(0, 0.02), drawn in float64 blocks, with
    two or more dimensions, else ones for a gain and zeros for any other vector."""
    data = np.ones(shape, dtype) if name.endswith("gain") else np.zeros(shape, dtype)
    if len(shape) > 1:
        for block in np.split(data.reshape(-1), range(1 << 16, data.size, 1 << 16)):
            block[...] = rng.normal(0.0, 0.02, size=block.size)
    return Tensor(data, requires_grad=True)


def init_params(config: EncoderConfig, rng: np.random.Generator, dtype=np.float32) -> dict[str, Tensor]:
    """Fresh pre-training parameters, drawn in `param_shapes` order."""
    return {name: init_tensor(name, shape, rng, dtype)
            for name, shape in param_shapes(config).items()}


# ---------------------------------------------------------------------------
# attention


def _split_heads(x: Tensor, num_heads: int) -> Tensor:
    """[..., s, h] -> [..., heads, s, h / heads]."""
    *lead, s, h = x.shape
    n = len(lead)
    return ad.transpose(ad.reshape(x, (*lead, s, num_heads, h // num_heads)),
                        (*range(n), n + 1, n, n + 2))


def _merge_heads(x: Tensor) -> Tensor:
    *lead, nh, s, dh = x.shape
    n = len(lead)
    return ad.reshape(ad.transpose(x, (*range(n), n + 1, n, n + 2)), (*lead, s, nh * dh))


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    """x + bias [n]; a stack of G biases [G, n] adds slice g to x[g]."""
    if bias.ndim > 1:
        bias = ad.reshape(bias, bias.shape[:1] + (1,) * (x.ndim - 2) + bias.shape[1:])
    return ad.add(x, bias)


def _apply_mask(scores: Tensor, attn_mask: np.ndarray) -> Tensor:
    """Replace masked-column scores with NEG_BIAS instead of adding it:
    softmax is shift-invariant, so a purely additive bias would leave a
    fully-masked row attending by its raw content scores. Replacement makes
    that degenerate row exactly uniform (the documented fallback) and zeroes
    gradient flow into masked columns."""
    dtype = scores.data.dtype
    keep = attn_mask[:, None, None, :].astype(dtype)
    bias = ((1.0 - attn_mask[:, None, None, :]) * NEG_BIAS).astype(dtype)
    return ad.add(ad.mul(scores, Tensor(keep)), Tensor(bias))


def disentangled_scores(
    H: Tensor,
    P: Tensor,
    params: dict[str, Tensor],
    prefix: str,
    num_heads: int,
    query: Tensor | None = None,
) -> tuple[Tensor, Tensor, Tensor]:
    """The three per-head score terms (c2c, c2p, p2c), unscaled.

    Shapes: H [B,S,h], P [2k,h]; `query` [B,m,h] holds the states of query
    positions 0..m-1 (default H, m = S). Each returned term is
    [B,heads,m,S]: the queries come from `query`, the keys from all of H.
    With parameters stacked [G, ...], every shape here gains that leading G.
    """
    s = H.shape[-2]
    query = H if query is None else query
    m = query.shape[-2]
    k = P.shape[-2] // 2
    wq, bq = params[f"{prefix}.attn.wq"], params[f"{prefix}.attn.bq"]
    wk, bk = params[f"{prefix}.attn.wk"], params[f"{prefix}.attn.bk"]

    Q = _split_heads(add_bias(ad.matmul(query, wq), bq), num_heads)   # [B,nh,m,dh]
    K = _split_heads(add_bias(ad.matmul(H, wk), bk), num_heads)
    # position path shares Wq/Wk but takes no bias
    Qr = _split_heads(ad.matmul(P, wq), num_heads)  # [nh,2k,dh]
    Kr = _split_heads(ad.matmul(P, wk), num_heads)

    buckets = bucket_matrix(s, k)

    c2c = ad.matmul(Q, ad.swap_last2(K))                        # [B,nh,m,S]
    # c2p: score[i,j] = Q_i . Kr_{bucket(i,j)}, from qkr [B,nh,m,2k]
    qkr = ad.matmul(Q, ad.swap_last2(ad.reshape(Kr, Kr.shape[:-3] + (1,) + Kr.shape[-3:])))
    c2p = ad.gather_last(qkr, buckets[:m])
    # p2c: score[i,j] = K_j . Qr_{bucket(j,i)}, from kqr [B,nh,S,2k]; gather per key row then flip
    kqr = ad.matmul(K, ad.swap_last2(ad.reshape(Qr, Qr.shape[:-3] + (1,) + Qr.shape[-3:])))
    p2c = ad.swap_last2(ad.gather_last(kqr, buckets[:, :m]))
    return c2c, c2p, p2c


def disentangled_attention(
    H: Tensor,
    P: Tensor,
    attn_mask: np.ndarray,
    params: dict[str, Tensor],
    prefix: str,
    num_heads: int,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    query: Tensor | None = None,
) -> tuple[Tensor, Tensor]:
    """Multi-head disentangled attention.

    Returns (context [B,m,h] with heads merged, A [B,heads,m,S]) where A is
    the masked pre-softmax score tensor and m the rows of `query` (see
    `disentangled_scores`). Rows whose every key is masked fall
    back to a uniform average of V (every score replaced by the same finite
    floor), which is the documented degenerate behavior rather than an error.
    """
    dh = H.shape[-1] // num_heads
    c2c, c2p, p2c = disentangled_scores(H, P, params, prefix, num_heads, query)
    scores = ad.scale(ad.add(ad.add(c2c, c2p), p2c), 1.0 / np.sqrt(3.0 * dh))
    A = _apply_mask(scores, attn_mask)
    probs = ad.softmax(A, axis=-1)
    probs = ad.dropout(probs, dropout_rate, rng)
    wv, bv = params[f"{prefix}.attn.wv"], params[f"{prefix}.attn.bv"]
    V = _split_heads(add_bias(ad.matmul(H, wv), bv), num_heads)
    ctx = _merge_heads(ad.matmul(probs, V))
    return ctx, A


def standard_attention(
    q_input: Tensor,
    kv_input: Tensor,
    attn_mask: np.ndarray,
    params: dict[str, Tensor],
    prefix: str,
    num_heads: int,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Content-only attention at temperature sqrt(d_head); query and key/value
    streams may differ (the decoding layers feed position-augmented queries)."""
    b, s, h = kv_input.shape
    dh = h // num_heads
    wq, bq = params[f"{prefix}.attn.wq"], params[f"{prefix}.attn.bq"]
    wk, bk = params[f"{prefix}.attn.wk"], params[f"{prefix}.attn.bk"]
    wv, bv = params[f"{prefix}.attn.wv"], params[f"{prefix}.attn.bv"]
    Q = _split_heads(ad.add(ad.matmul(q_input, wq), bq), num_heads)
    K = _split_heads(ad.add(ad.matmul(kv_input, wk), bk), num_heads)
    V = _split_heads(ad.add(ad.matmul(kv_input, wv), bv), num_heads)
    A = _apply_mask(ad.scale(ad.matmul(Q, ad.swap_last2(K)), 1.0 / np.sqrt(dh)), attn_mask)
    probs = ad.dropout(ad.softmax(A, axis=-1), dropout_rate, rng)
    return _merge_heads(ad.matmul(probs, V))


# ---------------------------------------------------------------------------
# blocks


def _ffn_sublayer(x: Tensor, params, prefix, eps, dropout_rate, rng) -> Tensor:
    inner = ad.gelu(add_bias(ad.matmul(x, params[f"{prefix}.ffn.w1"]), params[f"{prefix}.ffn.b1"]))
    out = add_bias(ad.matmul(inner, params[f"{prefix}.ffn.w2"]), params[f"{prefix}.ffn.b2"])
    out = ad.dropout(out, dropout_rate, rng)
    return ad.layer_norm(ad.add(x, out),
                         params[f"{prefix}.ffn.ln.gain"], params[f"{prefix}.ffn.ln.bias"], eps)


def _finish_attn_sublayer(residual: Tensor, raw: Tensor, params, prefix, eps, dropout_rate, rng,
                          addend: Tensor | None = None) -> Tensor:
    """Output projection, then `addend` (layer 0's conv branch, which wo does
    not project), dropout, residual and layer norm."""
    out = add_bias(ad.matmul(raw, params[f"{prefix}.attn.wo"]), params[f"{prefix}.attn.bo"])
    if addend is not None:
        out = ad.add(out, addend)
    out = ad.dropout(out, dropout_rate, rng)
    return ad.layer_norm(ad.add(residual, out),
                         params[f"{prefix}.attn.ln.gain"], params[f"{prefix}.attn.ln.bias"], eps)


def conv1d_same(x: Tensor, attn_mask: np.ndarray, kernel: Tensor, bias: Tensor) -> Tensor:
    """'Same'-padded 1-D convolution over the sequence axis.

    Padding positions are zeroed on the input so that a padded batch and its
    unpadded counterpart produce identical outputs at real positions.
    """
    ksize = kernel.shape[-3]
    center = ksize // 2
    masked = ad.mul(x, Tensor(attn_mask[:, :, None].astype(x.data.dtype)))
    acc = None
    for j in range(ksize):
        term = ad.matmul(ad.shift_seq(masked, center - j), ad.take(kernel, j, -3))
        acc = term if acc is None else ad.add(acc, term)
    return add_bias(acc, bias)


class _LeadingRows:
    """The generator of a layer that computes only the first rows of its
    output: each dropout mask is drawn at the full layer's shape (S on axis
    -2) and cut to the leading rows, so the stream advances, and the kept
    rows are masked, exactly as in the full layer."""

    def __init__(self, rng: np.random.Generator, seq_len: int):
        self.rng, self.seq_len = rng, seq_len

    def random(self, shape: tuple[int, ...]) -> np.ndarray:
        full = self.rng.random(shape[:-2] + (self.seq_len,) + shape[-1:])
        return full[..., : shape[-2], :]


def encoder_forward(
    params: dict[str, Tensor],
    config: EncoderConfig,
    ids: np.ndarray,
    segments: np.ndarray | None = None,
    attn_mask: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    last_rows: int | None = None,
) -> list[Tensor]:
    """Run the full encoder stack; rng=None disables every dropout.

    Returns the list of hidden states: [embeddings, layer 1, ..., layer L],
    all shaped [B, S, hidden]. The last entry is the encoder output.
    `last_rows` = m < S makes the last layer output only positions 0..m-1,
    [B, m, hidden]: its queries, residual, conv addend and FFN take those
    rows, and its keys, values and position terms all S positions.
    Parameters stacked [G, ...] (a group of fine-tuning runs) run G models
    over the same batch, each hidden state [G, B, S, hidden].
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ShapeError(f"ids must be [batch, seq], got {ids.shape}")
    b, s = ids.shape
    if s > config.max_seq_len:
        raise ShapeError(f"sequence length {s} exceeds max_seq_len {config.max_seq_len}")
    if segments is None:
        segments = np.zeros_like(ids)
    if attn_mask is None:
        attn_mask = np.ones((b, s), dtype=np.float32)
    attn_mask = np.asarray(attn_mask, dtype=np.float32)

    drop = config.dropout_rate
    emb = ad.add(ad.embedding(params["embed.tokens"], ids),
                 ad.embedding(params["embed.segments"], np.asarray(segments, dtype=np.int64)))
    emb = ad.layer_norm(emb, params["embed.ln.gain"], params["embed.ln.bias"], config.layer_norm_eps)
    emb = ad.dropout(emb, drop, rng)

    hidden = [emb]
    P = params["relpos.table"]
    h = emb
    for i in range(config.num_layers):
        prefix = f"layer{i}"
        m = s if last_rows is None or i < config.num_layers - 1 else min(last_rows, s)
        q = h if m == s else ad.narrow(h, -2, 0, m)
        layer_rng = rng if m == s or rng is None else _LeadingRows(rng, s)
        ctx, _ = disentangled_attention(h, P, attn_mask, params, prefix,
                                        config.num_heads, drop, layer_rng, query=q)
        conv = (conv1d_same(h, attn_mask, params["conv.kernel"], params["conv.bias"])
                if i == 0 else None)
        if conv is not None and m < s:
            conv = ad.narrow(conv, -2, 0, m)
        h = _finish_attn_sublayer(q, ctx, params, prefix, config.layer_norm_eps, drop,
                                  layer_rng, addend=conv)
        h = _ffn_sublayer(h, params, prefix, config.layer_norm_eps, drop, layer_rng)
        hidden.append(h)
    return hidden


def enhanced_mask_decode(
    params: dict[str, Tensor],
    config: EncoderConfig,
    all_hidden: Sequence[Tensor],
    attn_mask: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    select: np.ndarray | None = None,
) -> Tensor:
    """Decoding layers over the positions where `select` [B, S] is True, then
    a vocabulary projection tied to the input embedding table.

    Each row's selected positions are packed, in order, into a [B, m] query
    stream (m the largest count in a row; spare slots repeat position 0). The
    stream starts at the encoder output H and gains the absolute position
    embeddings in every layer's query; keys and values stay fixed at H across
    layers, with padded keys masked by attn_mask. Spare slots are dropped
    before the projection.

    Returns logits [N, vocab_size] for the N selected positions in row-major
    order, which is the order of labels[select]. select=None decodes every
    position and returns [B, S, vocab_size].
    """
    H = all_hidden[-1]
    b, s, h = H.shape
    if attn_mask is None:
        attn_mask = np.ones((b, s), dtype=np.float32)
    every = select is None
    if every:
        select = np.ones((b, s), dtype=bool)
    select = np.asarray(select)
    if select.dtype != np.bool_ or select.shape != (b, s):
        raise ShapeError(f"select must be a bool array of shape {(b, s)}, "
                         f"got {select.dtype} {select.shape}")
    rows, cols = np.nonzero(select)
    if rows.size == 0:
        raise EmptyLossError("enhanced_mask_decode: select is all false; nothing to decode")
    rank = np.cumsum(select, axis=1) - 1       # slot of each selected position in its row
    m = int(rank[:, -1].max()) + 1
    slots = rank[rows, cols]
    positions = np.zeros((b, m), dtype=np.int64)
    positions[rows, slots] = cols

    drop = config.dropout_rate
    stream = ad.embedding(ad.reshape(H, (b * s, h)), positions + s * np.arange(b)[:, None])  # [B,m,h]
    pos = ad.embedding(params["abspos.table"], positions)
    for j in range(config.emd_layers):
        prefix = f"emd{j}"
        raw = standard_attention(ad.add(stream, pos), H, attn_mask, params, prefix,
                                 config.num_heads, drop, rng)
        stream = _finish_attn_sublayer(stream, raw, params, prefix, config.layer_norm_eps, drop, rng)
        stream = _ffn_sublayer(stream, params, prefix, config.layer_norm_eps, drop, rng)
    picked = ad.embedding(ad.reshape(stream, (b * m, h)), rows * m + slots)  # [N,h]
    # tied output projection: literally the embedding table, transposed in-graph
    logits = ad.matmul(picked, ad.swap_last2(params["embed.tokens"]))
    return ad.reshape(logits, (b, s, config.vocab_size)) if every else logits


class DisentangledEncoder:
    """Config + parameters + the two forward entry points, bundled."""

    def __init__(self, config: EncoderConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    def forward(self, ids, segments=None, attn_mask=None, rng=None,
                last_rows=None) -> list[Tensor]:
        return encoder_forward(self.params, self.config, ids, segments, attn_mask, rng,
                               last_rows)

    def mlm_logits(self, ids, attn_mask=None, rng=None, select=None) -> Tensor:
        hidden = self.forward(ids, None, attn_mask, rng)
        return enhanced_mask_decode(self.params, self.config, hidden, attn_mask, rng, select)
