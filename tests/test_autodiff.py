"""Autodiff unit tests: every op against central differences, plus the
graph lifecycle contract (single-use backward that releases the graph,
reset, gradient ownership, no_grad, broadcasting)."""

from __future__ import annotations

import numpy as np
import pytest
from gradcheck import check_gradients
from hypothesis import given, settings
from hypothesis import strategies as st

from lusoforge import autodiff as ad
from lusoforge.autodiff import Tensor, backward
from lusoforge.errors import ContractError, EmptyLossError, ShapeError


def t64(arr, requires_grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


def numeric_grad(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = fn()
        x[idx] = orig - h
        fm = fn()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
    return g


def assert_grad_matches(build_loss, x: Tensor, rtol=1e-5, atol=1e-8):
    x.grad = None  # discard accumulation from any earlier check
    loss = build_loss()
    backward(loss)
    analytic = x.grad.copy()
    x.grad = None

    numeric = numeric_grad(lambda: float(build_loss().data), x.data)
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


# ---------------------------------------------------------------- basic ops

def test_add_backward():
    rng = np.random.default_rng(0)
    x = t64(rng.normal(size=(3, 4)))
    y = t64(rng.normal(size=(3, 4)))
    assert_grad_matches(lambda: ad.tensor_sum(ad.mul(ad.add(x, y), y)), x)


def test_add_broadcast_bias():
    rng = np.random.default_rng(1)
    x = t64(rng.normal(size=(5, 3)))
    b = t64(rng.normal(size=(3,)))
    loss = ad.tensor_sum(ad.mul(ad.add(x, b), ad.add(x, b)))
    backward(loss)
    assert b.grad.shape == (3,)
    expected = (2 * (x.data + b.data)).sum(axis=0)
    np.testing.assert_allclose(b.grad, expected, rtol=1e-12)


def test_mul_backward():
    rng = np.random.default_rng(2)
    x = t64(rng.normal(size=(4, 2)))
    y = t64(rng.normal(size=(4, 2)))
    assert_grad_matches(lambda: ad.tensor_sum(ad.mul(x, y)), x)
    loss = ad.tensor_sum(ad.mul(x, y))
    backward(loss)
    np.testing.assert_allclose(x.grad, y.data)


def test_matmul_backward():
    rng = np.random.default_rng(3)
    a = t64(rng.normal(size=(3, 4)))
    b = t64(rng.normal(size=(4, 5)))
    assert_grad_matches(lambda: ad.tensor_sum(ad.matmul(a, b)), a)
    assert_grad_matches(lambda: ad.tensor_sum(ad.matmul(a, b)), b)


def test_matmul_batched_backward():
    rng = np.random.default_rng(4)
    a = t64(rng.normal(size=(2, 3, 4)))
    b = t64(rng.normal(size=(2, 4, 5)))
    assert_grad_matches(lambda: ad.tensor_sum(ad.matmul(a, b)), a, rtol=1e-4)


def test_matmul_shape_error_names_both_shapes():
    a = t64(np.zeros((2, 3)))
    b = t64(np.zeros((4, 5)))
    with pytest.raises(ShapeError) as exc:
        ad.matmul(a, b)
    msg = str(exc.value)
    assert "(2, 3)" in msg and "(4, 5)" in msg


def test_transpose_reshape_narrow():
    rng = np.random.default_rng(5)
    x = t64(rng.normal(size=(2, 3, 4)))
    y = ad.transpose(x, (2, 0, 1))
    assert y.data.shape == (4, 2, 3)
    assert_grad_matches(lambda: ad.tensor_sum(ad.mul(ad.transpose(x, (2, 0, 1)), ad.transpose(x, (2, 0, 1)))), x)
    assert_grad_matches(lambda: ad.tensor_sum(ad.mul(ad.reshape(x, (6, 4)), ad.reshape(x, (6, 4)))), x)
    assert_grad_matches(lambda: ad.tensor_sum(ad.mul(ad.narrow(x, 1, 1, 2), ad.narrow(x, 1, 1, 2))), x)


def test_narrow_grad_zero_outside_slice():
    x = t64(np.arange(12, dtype=np.float64).reshape(3, 4))
    loss = ad.tensor_sum(ad.narrow(x, 1, 0, 2))
    backward(loss)
    assert np.all(x.grad[:, :2] == 1.0)
    assert np.all(x.grad[:, 2:] == 0.0)


def test_shift_seq_forward_and_backward():
    x = t64(np.arange(8, dtype=np.float64).reshape(1, 4, 2))
    shifted = ad.shift_seq(x, 1)
    assert np.all(shifted.data[0, 0] == 0.0)
    np.testing.assert_array_equal(shifted.data[0, 1:], x.data[0, :-1])
    assert_grad_matches(lambda: ad.tensor_sum(ad.mul(ad.shift_seq(x, 1), ad.shift_seq(x, 1))), x)
    assert_grad_matches(lambda: ad.tensor_sum(ad.mul(ad.shift_seq(x, -2), ad.shift_seq(x, -2))), x)


@pytest.mark.parametrize("offset", range(-5, 6))
def test_shift_seq_is_a_zero_filled_roll_at_every_offset(offset):
    rng = np.random.default_rng(offset + 5)
    x = t64(rng.normal(size=(2, 4, 3)))
    want = np.zeros_like(x.data)
    for i in range(4):
        if 0 <= i - offset < 4:
            want[:, i] = x.data[:, i - offset]
    out = ad.shift_seq(x, offset)
    np.testing.assert_array_equal(out.data, want)
    g = rng.normal(size=x.shape)
    backward(ad.tensor_sum(ad.mul(out, t64(g, requires_grad=False))))
    np.testing.assert_array_equal(x.grad, ad.shift_seq(t64(g), -offset).data)


def test_gather_last_forward():
    a = t64(np.arange(24, dtype=np.float64).reshape(1, 1, 4, 6))
    idx = np.array([[0, 5], [1, 4], [2, 3], [3, 2]])
    out = ad.gather_last(a, idx)
    assert out.data.shape == (1, 1, 4, 2)
    for i in range(4):
        for j in range(2):
            assert out.data[0, 0, i, j] == a.data[0, 0, i, idx[i, j]]


def test_gather_last_backward_scatter_adds():
    a = t64(np.zeros((2, 3, 4)))
    idx = np.array([[1, 1], [0, 2], [3, 3]])  # repeated columns must accumulate
    loss = ad.tensor_sum(ad.gather_last(a, idx))
    backward(loss)
    expected = np.zeros((3, 4))
    for i in range(3):
        for j in range(2):
            expected[i, idx[i, j]] += 1.0
    np.testing.assert_array_equal(a.grad[0], expected)
    np.testing.assert_array_equal(a.grad[1], expected)


def test_swap_last2():
    rng = np.random.default_rng(6)
    x = t64(rng.normal(size=(2, 3, 4)))
    y = ad.swap_last2(x)
    np.testing.assert_array_equal(y.data, np.swapaxes(x.data, -1, -2))
    assert_grad_matches(lambda: ad.tensor_sum(ad.mul(ad.swap_last2(x), ad.swap_last2(x))), x)


def test_embedding_backward_accumulates_repeats():
    table = t64(np.random.default_rng(7).normal(size=(10, 4)))
    ids = np.array([[1, 1, 3]])
    loss = ad.tensor_sum(ad.embedding(table, ids))
    backward(loss)
    assert np.all(table.grad[1] == 2.0)
    assert np.all(table.grad[3] == 1.0)
    assert np.all(table.grad[0] == 0.0)


# ------------------------------------------------------------- nonlinear ops

def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(8)
    x = t64(rng.normal(size=(3, 7)) * 10)
    s = ad.softmax(x)
    np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, rtol=1e-12)


def test_softmax_shift_invariance():
    x = np.array([[1.0, 2.0, 3.0]])
    a = ad.softmax(t64(x, requires_grad=False))
    b = ad.softmax(t64(x + 1000.0, requires_grad=False))
    np.testing.assert_allclose(a.data, b.data, rtol=1e-12)
    assert np.all(np.isfinite(b.data))


def test_softmax_backward():
    rng = np.random.default_rng(9)
    x = t64(rng.normal(size=(2, 5)))
    w = rng.normal(size=(2, 5))
    assert_grad_matches(
        lambda: ad.tensor_sum(ad.mul(ad.softmax(x), Tensor(w.copy()))), x
    )


def test_gelu_values_and_grad():
    x = t64(np.array([-3.0, -1.0, 0.0, 1.0, 3.0]))
    y = ad.gelu(x)
    from scipy.special import erf

    expected = 0.5 * x.data * (1 + erf(x.data / np.sqrt(2)))
    np.testing.assert_allclose(y.data, expected, rtol=1e-12)
    assert_grad_matches(lambda: ad.tensor_sum(ad.mul(ad.gelu(x), ad.gelu(x))), x)


def test_layer_norm_output_statistics():
    rng = np.random.default_rng(10)
    x = t64(rng.normal(size=(4, 16)) * 3 + 5)
    gain = t64(np.ones(16))
    bias = t64(np.zeros(16))
    y = ad.layer_norm(x, gain, bias)
    np.testing.assert_allclose(y.data.mean(axis=-1), 0.0, atol=1e-9)
    np.testing.assert_allclose(y.data.std(axis=-1), 1.0, atol=1e-3)


def test_layer_norm_backward():
    rng = np.random.default_rng(11)
    x = t64(rng.normal(size=(3, 8)))
    gain = t64(rng.normal(size=(8,)))
    bias = t64(rng.normal(size=(8,)))
    w = rng.normal(size=(3, 8))

    def loss():
        return ad.tensor_sum(ad.mul(ad.layer_norm(x, gain, bias), Tensor(w.copy())))

    assert_grad_matches(loss, x, rtol=1e-4)
    assert_grad_matches(loss, gain, rtol=1e-4)
    assert_grad_matches(loss, bias, rtol=1e-4)


def test_dropout_identity_without_rng():
    x = t64(np.ones((4, 4)))
    y = ad.dropout(x, 0.5, rng=None)
    assert y is x


def test_dropout_scales_survivors():
    rng = np.random.default_rng(12)
    x = t64(np.ones((1000,)))
    y = ad.dropout(x, 0.25, rng=rng)
    survivors = y.data[y.data != 0]
    np.testing.assert_allclose(survivors, 1.0 / 0.75, rtol=1e-12)
    assert 0.6 < (y.data != 0).mean() < 0.9


def test_dropout_zero_rate_identity_values():
    rng = np.random.default_rng(13)
    x = t64(np.arange(6, dtype=np.float64))
    y = ad.dropout(x, 0.0, rng=rng)
    np.testing.assert_array_equal(y.data, x.data)


# --------------------------------------------------------------- losses

def test_cross_entropy_uniform_logits():
    v = 11
    logits = t64(np.zeros((3, v)))
    labels = np.array([0, 5, 10])
    loss = ad.cross_entropy(logits, labels)
    np.testing.assert_allclose(float(loss.data), np.log(v), rtol=1e-12)


def test_cross_entropy_ignore_index():
    logits = t64(np.random.default_rng(14).normal(size=(4, 6)))
    labels = np.array([2, -100, -100, 1])
    loss = ad.cross_entropy(logits, labels)
    backward(loss)
    # ignored positions contribute no gradient
    assert np.all(logits.grad[1] == 0.0)
    assert np.all(logits.grad[2] == 0.0)
    assert np.any(logits.grad[0] != 0.0)


def test_cross_entropy_all_ignored_raises():
    logits = t64(np.zeros((2, 3)))
    labels = np.full(2, -100)
    with pytest.raises(EmptyLossError):
        ad.cross_entropy(logits, labels)


def test_cross_entropy_sum_vs_mean():
    rng = np.random.default_rng(15)
    logits = rng.normal(size=(6, 5))
    labels = np.array([0, 1, -100, 2, -100, 4])
    mean = ad.cross_entropy(t64(logits.copy()), labels, reduction="mean")
    total = ad.cross_entropy(t64(logits.copy()), labels, reduction="sum")
    np.testing.assert_allclose(float(total.data) / 4.0, float(mean.data), rtol=1e-12)


def test_cross_entropy_backward():
    rng = np.random.default_rng(16)
    logits = t64(rng.normal(size=(6, 5)))
    labels = np.array([0, 4, -100, 1, 2, 3])
    assert_grad_matches(lambda: ad.cross_entropy(logits, labels), logits, rtol=1e-5)


# ----------------------------------------------------------- graph contract

def test_backward_requires_scalar():
    x = t64(np.ones((2, 2)))
    with pytest.raises(ContractError):
        backward(ad.add(x, x))


def test_backward_is_single_use():
    x = t64(np.ones(3))
    loss = ad.tensor_sum(ad.mul(x, x))
    backward(loss)
    with pytest.raises(ContractError):
        backward(loss)
    np.testing.assert_array_equal(x.grad, 2 * x.data)  # the refused walk added nothing


def test_rebuilt_graph_backpropagates_afresh():
    x = t64(np.ones(3))
    loss = ad.tensor_sum(ad.mul(x, x))
    backward(loss)
    x.grad = None
    loss2 = ad.tensor_sum(ad.mul(x, x))
    backward(loss2)
    np.testing.assert_array_equal(x.grad, 2 * x.data)


def test_grad_accumulates_across_backwards():
    x = t64(np.ones(3))
    backward(ad.tensor_sum(x))
    backward(ad.tensor_sum(x))
    np.testing.assert_array_equal(x.grad, np.full(3, 2.0))


def test_no_grad_leaves_stay_clean():
    x = t64(np.ones(3), requires_grad=False)
    y = t64(np.ones(3))
    backward(ad.tensor_sum(ad.mul(x, y)))
    assert x.grad is None
    assert y.grad is not None


def test_diamond_graph_grad():
    # z = x*x + x*x: both paths must contribute
    x = t64(np.array([2.0]))
    sq = ad.mul(x, x)
    loss = ad.tensor_sum(ad.add(sq, sq))
    backward(loss)
    np.testing.assert_allclose(x.grad, [8.0])


def test_deep_chain_no_recursion_limit():
    x = t64(np.array([1.0]))
    y = x
    for _ in range(5000):
        y = ad.scale(y, 1.0)
    backward(ad.tensor_sum(y))
    np.testing.assert_array_equal(x.grad, [1.0])


def test_backward_releases_the_graph():
    rng = np.random.default_rng(3)
    x = t64(rng.normal(size=(2, 3, 4)))
    w = t64(rng.normal(size=(4, 5)))
    h = ad.gelu(ad.matmul(x, w))
    h = ad.reshape(ad.transpose(h, (0, 2, 1)), (2, 15))
    loss = ad.cross_entropy(ad.add(h, h), np.array([1, 4]))
    nodes = ad._toposort(loss)
    inner = [n for n in nodes if n._parents]
    assert loss in inner and len(inner) == 6  # matmul gelu transpose reshape add ce
    backward(loss)
    for node in inner:
        assert node.grad is None and node._backward is None and node._parents == ()
    assert x.grad.shape == x.shape and w.grad.shape == w.shape


def test_walked_graph_stays_consumed_after_reset():
    x = t64(np.ones(3))
    loss = ad.tensor_sum(ad.mul(x, x))
    backward(loss)
    x.grad = None  # resetting the leaf gradient does not revive the released graph
    with pytest.raises(ContractError):
        backward(loss)
    assert x.grad is None


def test_backward_through_a_walked_subgraph_raises():
    x = t64(np.ones(3))
    shared = ad.mul(x, x)
    backward(ad.tensor_sum(shared))
    with pytest.raises(ContractError):
        backward(ad.tensor_sum(ad.scale(shared, 2.0)))


def test_add_gives_each_parent_its_own_gradient():
    rng = np.random.default_rng(4)
    x, y, w = (t64(rng.normal(size=(3, 4))) for _ in range(3))
    # both inputs of the add are used again, and backward reaches the add first
    loss = ad.add(ad.tensor_sum(ad.mul(ad.add(x, y), w)), ad.tensor_sum(ad.mul(x, y)))
    backward(loss)
    assert not np.shares_memory(x.grad, y.grad)
    np.testing.assert_allclose(x.grad, w.data + y.data, rtol=1e-12)
    np.testing.assert_allclose(y.grad, w.data + x.data, rtol=1e-12)


def test_add_of_a_tensor_to_itself_doubles_its_gradient():
    rng = np.random.default_rng(5)
    x, w = t64(rng.normal(size=(3, 4))), t64(rng.normal(size=(3, 4)))
    backward(ad.tensor_sum(ad.mul(ad.add(x, x), w)))
    np.testing.assert_array_equal(x.grad, 2 * w.data)


def test_structural_gradients_are_c_contiguous():
    rng = np.random.default_rng(6)
    x = t64(rng.normal(size=(2, 3, 4)))
    w = rng.normal(size=(4, 2, 3))
    backward(ad.tensor_sum(ad.mul(ad.transpose(x, (2, 0, 1)), t64(w, False))))
    assert x.grad.flags.c_contiguous
    np.testing.assert_array_equal(x.grad, np.transpose(w, (1, 2, 0)))

    y = t64(rng.normal(size=(2, 3, 4)))
    v = rng.normal(size=(6, 4))
    backward(ad.tensor_sum(ad.mul(ad.reshape(ad.transpose(y, (1, 0, 2)), (6, 4)),
                                  t64(v, False))))
    assert y.grad.flags.c_contiguous
    np.testing.assert_array_equal(y.grad, np.transpose(v.reshape(3, 2, 4), (1, 0, 2)))


def test_no_grad_builds_parentless_nodes():
    x = t64(np.ones((2, 3)))
    w = t64(np.ones((3, 2)))
    with ad.no_grad():
        out = ad.gelu(ad.matmul(x, w))
    assert not out.requires_grad and out._parents == () and out._backward is None
    np.testing.assert_array_equal(out.data, ad.gelu(ad.matmul(x, w)).data)
    assert ad.gelu(ad.matmul(x, w))._parents  # the graph is back after the scope


def test_no_grad_nests_and_restores_on_exception():
    x = t64(np.ones(3))
    with ad.no_grad():
        with ad.no_grad():
            pass
        assert ad.mul(x, x)._parents == ()  # the inner exit keeps the outer scope
    assert ad.mul(x, x)._parents
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("boom")
    assert ad.mul(x, x)._parents


def test_predict_bytes_do_not_depend_on_no_grad(monkeypatch):
    import contextlib

    from lusoforge.encoder import init_params, preset
    from lusoforge.finetune import attach_head, predict
    from lusoforge.tokenizer import TokenSequence

    cfg = preset("micro", vocab_size=40)
    model = attach_head(cfg, init_params(cfg, np.random.default_rng(7)), "regression")
    rng = np.random.default_rng(8)
    encoded = [TokenSequence([int(i) for i in rng.integers(0, 40, size=n)], [0] * n)
               for n in (5, 9, 12, 7)]
    without = predict(model, encoded, batch_size=3)
    monkeypatch.setattr(ad, "no_grad", contextlib.nullcontext)
    graphed = predict(model, encoded, batch_size=3)
    assert without.tobytes() == graphed.tobytes()


# --------------------------------------------------------------- gradcheck

def test_check_gradients_passes_on_correct_model():
    rng = np.random.default_rng(17)
    params = {
        "w": t64(rng.normal(size=(4, 3))),
        "b": t64(rng.normal(size=(3,))),
    }
    x = rng.normal(size=(5, 4))
    labels = np.array([0, 1, 2, 0, 1])

    def loss_fn():
        h = ad.add(ad.matmul(Tensor(x.copy()), params["w"]), params["b"])
        return ad.cross_entropy(h, labels)

    result = check_gradients(loss_fn, params)
    assert result.passed, result.summary()
    assert result.checked > 0


def test_check_gradients_catches_wrong_gradient():
    rng = np.random.default_rng(18)
    w = t64(rng.normal(size=(3, 3)))
    params = {"w": w}

    def mismatched():
        # graph computes sum(w*w) so analytic grad is 2w, but the reported
        # value is doubled, so central differences see 4w: must be flagged
        out = ad.tensor_sum(ad.mul(w, w))
        out.data = out.data * 2.0
        return out

    result = check_gradients(mismatched, params)
    assert not result.passed
    assert result.failures


# --------------------------------------------------------------- properties

@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_softmax_rows_always_sum_to_one(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(rows, cols)) * 20.0, requires_grad=False)
    s = ad.softmax(x)
    np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, rtol=1e-9)
    assert np.all(s.data >= 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_unbroadcast_matches_numeric(seed):
    rng = np.random.default_rng(seed)
    x = t64(rng.normal(size=(3, 1, 4)))
    y = t64(rng.normal(size=(2, 4)))
    loss = ad.tensor_sum(ad.mul(ad.add(x, y), ad.add(x, y)))
    backward(loss)
    assert x.grad.shape == x.data.shape
    assert y.grad.shape == y.data.shape
    full = 2 * (x.data + y.data)  # broadcast shape (3, 2, 4)
    np.testing.assert_allclose(y.grad, full.sum(axis=0), rtol=1e-10)
    np.testing.assert_allclose(x.grad, full.sum(axis=1, keepdims=True), rtol=1e-10)
