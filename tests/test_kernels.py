"""The hot kernels against their first forms in `oracles.py`, in float32 and
float64: the flat-index gather and its sparse scatter, the embedding
backward that sums each id's rows once, the in-place Adam step, the 2-D
weight GEMM, and the rational float32 erf behind GELU."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    AdamReference,
    embedding_grad_reference,
    gather_last_grad_reference,
    gather_last_reference,
)
from scipy.special import erf
from test_autodiff import assert_grad_matches, t64

from lusoforge import autodiff as ad
from lusoforge import optim
from lusoforge.autodiff import Tensor, backward
from lusoforge.encoder import bucket_matrix
from lusoforge.errors import NumericalError, ShapeError
from lusoforge.optim import Adam

DTYPES = (np.float32, np.float64)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def grad_of(build, leaf: Tensor, w: np.ndarray) -> np.ndarray:
    """leaf's gradient of sum(build() * w), so w is the upstream gradient."""
    leaf.grad = None
    backward(ad.tensor_sum(ad.mul(build(), Tensor(w))))
    return leaf.grad


# ---------------------------------------------------------------------------
# gather_last


def check_gather(a_np: np.ndarray, index: np.ndarray, rng):
    a = Tensor(a_np, requires_grad=True)
    out = ad.gather_last(a, index)
    assert out.dtype == a_np.dtype
    np.testing.assert_array_equal(out.data, gather_last_reference(a_np, index))
    w = rng.normal(size=out.shape).astype(out.dtype)
    got = grad_of(lambda: ad.gather_last(a, index), a, w)
    assert got.dtype == a_np.dtype
    # both add a position's entries in ascending order from zero
    np.testing.assert_array_equal(got, gather_last_grad_reference(a_np.shape, index, w))


@pytest.mark.parametrize("s, k", [(5, 4), (8, 4), (11, 4), (1, 1), (3, 1)])
@pytest.mark.parametrize("dtype", DTYPES)
def test_gather_last_buckets_match_oracle(s, k, dtype):
    # S < 2k, S = 2k and S > 2k: clipped buckets repeat along each row
    rng = np.random.default_rng(s * 10 + k)
    a_np = rng.normal(size=(2, 3, s, 2 * k)).astype(dtype)
    check_gather(a_np, bucket_matrix(s, k), rng)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=7),
    st.lists(st.integers(min_value=1, max_value=3), max_size=2),
    st.sampled_from(DTYPES),
    seeds,
)
def test_gather_last_random_index_matches_oracle(q, m, width, lead, dtype, seed):
    rng = np.random.default_rng(seed)
    index = rng.integers(0, width, size=(q, m))  # repeats whenever m > 1
    a_np = rng.normal(size=tuple(lead) + (q, width)).astype(dtype)
    check_gather(a_np, index, rng)


def test_gather_last_rejects_out_of_range_index():
    a = t64(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError, match="outside"):
        ad.gather_last(a, np.array([[0, 4], [1, 1], [2, 2]]))
    with pytest.raises(ShapeError, match="outside"):
        ad.gather_last(a, np.array([[0, -1], [1, 1], [2, 2]]))


# ---------------------------------------------------------------------------
# embedding backward


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=5),
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=2),
    st.sampled_from(DTYPES),
    seeds,
)
def test_embedding_backward_matches_oracle(vocab, h, id_shape, dtype, seed):
    rng = np.random.default_rng(seed)
    table = Tensor(rng.normal(size=(vocab, h)).astype(dtype), requires_grad=True)
    ids = rng.integers(0, vocab, size=tuple(id_shape))  # duplicates whenever ids outnumber rows
    w = rng.normal(size=tuple(id_shape) + (h,)).astype(dtype)
    got = grad_of(lambda: ad.embedding(table, ids), table, w)
    assert got.dtype == dtype
    tol = 1e-5 if dtype == np.float32 else 1e-12  # the sums of an id's rows may be reordered
    np.testing.assert_allclose(got, embedding_grad_reference(table.shape, ids, w),
                               rtol=tol, atol=tol)


@pytest.mark.parametrize("dtype", DTYPES)
def test_embedding_backward_adds_into_a_tied_gradient(dtype):
    # the tied table also gets a dense gradient from a projection; the lookup adds only its rows
    rng = np.random.default_rng(4)
    table = Tensor(rng.normal(size=(7, 3)).astype(dtype), requires_grad=True)
    x = Tensor(rng.normal(size=(4, 3)).astype(dtype))
    ids = np.array([[1, 5, 1], [6, 1, 0]])
    w_emb = rng.normal(size=(2, 3, 3)).astype(dtype)
    w_proj = rng.normal(size=(4, 7)).astype(dtype)
    loss = ad.add(ad.tensor_sum(ad.mul(ad.embedding(table, ids), Tensor(w_emb))),
                  ad.tensor_sum(ad.mul(ad.matmul(x, ad.swap_last2(table)), Tensor(w_proj))))
    backward(loss)
    expected = (w_proj.T @ x.data) + embedding_grad_reference(table.shape, ids, w_emb)
    tol = 1e-6 if dtype == np.float32 else 1e-12
    np.testing.assert_allclose(table.grad, expected, rtol=tol, atol=tol)
    assert table.grad.dtype == dtype


def test_embedding_backward_gradcheck_with_repeats():
    rng = np.random.default_rng(5)
    table = t64(rng.normal(size=(6, 3)))
    ids = np.array([[2, 2, 0], [5, 2, 0]])
    w = rng.normal(size=(2, 3, 3))
    assert_grad_matches(lambda: ad.tensor_sum(ad.mul(ad.embedding(table, ids), Tensor(w))), table)


# ---------------------------------------------------------------------------
# 2-D weight products


@pytest.mark.parametrize("a_shape", [(2, 3, 4), (2, 2, 3, 4)])
def test_weight_matmul_gradcheck(a_shape):
    rng = np.random.default_rng(len(a_shape))
    x = t64(rng.normal(size=a_shape))
    w = t64(rng.normal(size=(4, 5)))
    u = rng.normal(size=a_shape[:-1] + (5,))
    out = ad.matmul(x, w)
    np.testing.assert_allclose(out.data, np.matmul(x.data, w.data), rtol=1e-12)

    def loss():
        return ad.tensor_sum(ad.mul(ad.matmul(x, w), Tensor(u)))

    assert_grad_matches(loss, x)
    assert_grad_matches(loss, w)


def test_weight_matmul_gradient_of_shared_weight_sums_uses():
    rng = np.random.default_rng(8)
    x = t64(rng.normal(size=(2, 3, 4)))
    y = t64(rng.normal(size=(5, 4)))
    w = t64(rng.normal(size=(4, 2)))
    assert_grad_matches(lambda: ad.tensor_sum(ad.add(
        ad.tensor_sum(ad.mul(ad.matmul(x, w), ad.matmul(x, w))),
        ad.tensor_sum(ad.matmul(y, w)))), w)


# ---------------------------------------------------------------------------
# rational float32 erf and GELU


def test_erf32_within_5e7_of_erf():
    x = np.linspace(-6.0, 6.0, 2_000_001, dtype=np.float32)
    err = np.abs(ad._erf32(x).astype(np.float64) - erf(x.astype(np.float64)))
    assert err.max() <= 5e-7
    assert ad._erf32(x).dtype == np.float32


def test_erf32_special_values_follow_scipy():
    x = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e30, -1e30], dtype=np.float32)
    got = ad._erf32(x)
    want = erf(x)
    np.testing.assert_array_equal(got, want)  # NaN compares equal to NaN here
    assert np.signbit(got[4])


def test_gelu_float32_tracks_float64():
    rng = np.random.default_rng(9)
    x64 = rng.normal(size=(3, 70_000)) * 3.0
    y32 = ad.gelu(Tensor(x64.astype(np.float32))).data
    y64 = ad.gelu(Tensor(x64)).data
    assert y32.dtype == np.float32
    np.testing.assert_allclose(y32, y64, rtol=0, atol=2e-6)


# ---------------------------------------------------------------------------
# in-place Adam


def param_pair(shapes, dtype, seed):
    rng = np.random.default_rng(seed)
    arrays = {name: rng.normal(size=shape).astype(dtype) for name, shape in shapes.items()}
    return ({k: Tensor(v.copy(), requires_grad=True) for k, v in arrays.items()},
            {k: Tensor(v.copy(), requires_grad=True) for k, v in arrays.items()})


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(DTYPES), st.integers(min_value=1, max_value=4),
       st.sampled_from([0.0, 0.01, 0.3]), st.sampled_from([1e-3, 0.5]), seeds)
def test_adam_in_place_matches_oracle(dtype, steps, weight_decay, lr, seed):
    shapes = {"w": (3, 4), "layer.b": (4,), "idle": (2, 2)}
    new_params, ref_params = param_pair(shapes, dtype, seed)
    new = Adam(new_params, lr=lr, weight_decay=weight_decay)
    ref = AdamReference(ref_params, lr=lr, weight_decay=weight_decay)
    rng = np.random.default_rng(seed + 1)
    idle = new_params["idle"].data.copy()
    tol = 1e-6 if dtype == np.float32 else 1e-13
    for _ in range(steps):
        for name in ("w", "layer.b"):  # "idle" never gets a gradient
            g = rng.normal(size=shapes[name]).astype(dtype)
            new_params[name].grad = g.copy()
            ref_params[name].grad = g.copy()
        new.step()
        ref.step()
        for name in shapes:
            assert new_params[name].data.dtype == dtype
            np.testing.assert_allclose(new_params[name].data, ref_params[name].data,
                                       rtol=tol, atol=tol)
            np.testing.assert_array_equal(new.m[name], ref.m[name])
            np.testing.assert_array_equal(new.v[name], ref.v[name])
    np.testing.assert_array_equal(new_params["idle"].data, idle)
    assert not new.m["idle"].any() and not new.v["idle"].any()


def test_adam_updates_each_array_in_place():
    params, _ = param_pair({"w": (2, 3)}, np.float32, 0)
    data = params["w"].data
    opt = Adam(params, lr=1e-2)
    m, v = opt.m["w"], opt.v["w"]
    params["w"].grad = np.ones((2, 3), dtype=np.float32)
    opt.step()
    assert params["w"].data is data
    assert opt.m["w"] is m and opt.v["w"] is v


def adam_run(monkeypatch, block, lr, weight_decay, shapes, poison=None):
    """(errors of each step, final params, m and v) of three Adam steps at
    the module's block size `block`; `poison(step, grads)` edits the grads."""
    monkeypatch.setattr(optim, "_BLOCK", block)
    params, _ = param_pair(shapes, np.float32, 4)
    opt = Adam(params, lr=lr, weight_decay=weight_decay)
    rng = np.random.default_rng(5)
    errors = []
    for step in range(3):
        for name, shape in shapes.items():
            params[name].grad = rng.normal(size=shape).astype(np.float32)
        if poison is not None:
            poison(step, params)
        errors.append([str(e) for e in opt.step() if e is not None] if np.ndim(lr) else [])
    return errors, [{k: a.tobytes() for k, a in d.items()}
                    for d in ({k: p.data for k, p in params.items()}, opt.m, opt.v)]


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adam_bits_do_not_depend_on_the_block(monkeypatch, weight_decay):
    shapes = {"w": (5, 8), "layer.b": (8,), "one": (1,)}  # w is 2.5 blocks of 16
    runs = [adam_run(monkeypatch, block, 3e-3, weight_decay, shapes) for block in (16, 1, 1 << 30)]
    assert runs[0] == runs[1] == runs[2]


def test_adam_bits_of_a_stacked_group_do_not_depend_on_the_block(monkeypatch):
    # three slices at their own rates; at its second step slice 1 meets a
    # non-finite gradient in the third block of w, and that slice alone stays
    shapes = {"w": (3, 5, 8), "layer.b": (3, 8)}  # w is 2.5 blocks of 48, 16 columns each

    def poison(step, params):
        if step == 1:
            params["w"].grad[1].flat[37] = np.inf

    runs = [adam_run(monkeypatch, block, [1e-3, 3e-3, 0.5], 0.01, shapes, poison)
            for block in (48, 1, 1 << 30)]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][0] == [[], ["non-finite gradient in parameter 'w'"], []]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_non_finite_gradient_leaves_state_unchanged(bad):
    params, _ = param_pair({"a": (3,), "b": (2, 2), "c": (4,)}, np.float32, 1)
    opt = Adam(params, lr=1e-2)
    for name, p in params.items():
        p.grad = np.ones(p.shape, dtype=np.float32)
    opt.step()  # non-zero moments, so an unwanted decay would show
    before = {k: (p.data.copy(), opt.m[k].copy(), opt.v[k].copy()) for k, p in params.items()}
    params["b"].grad = np.ones((2, 2), dtype=np.float32)
    params["b"].grad[1, 0] = bad  # "a" precedes and "c" follows the poisoned parameter
    with pytest.raises(NumericalError, match="'b'"):
        opt.step()
    assert opt.t == 1
    for k, p in params.items():
        data, m, v = before[k]
        np.testing.assert_array_equal(p.data, data)
        np.testing.assert_array_equal(opt.m[k], m)
        np.testing.assert_array_equal(opt.v[k], v)
