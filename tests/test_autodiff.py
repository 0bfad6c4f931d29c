"""Tape-based reverse-mode differentiation, checked against finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtl_affinity import autodiff as ad
from oracles import finite_difference_grad


def test_matmul_forward():
    a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = ad.Tensor([[1.0], [1.0]])
    out = ad.matmul(a, b)
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_mismatch():
    a = ad.Tensor(np.ones((2, 3)))
    b = ad.Tensor(np.ones((2, 3)))
    with pytest.raises(ValueError):
        ad.matmul(a, b)


def test_mul_grad_square():
    x = ad.Tensor(3.0, requires_grad=True)
    with ad.Tape():
        y = ad.mul(x, x)
        ad.backward(y)
    assert x.grad == pytest.approx(6.0)


def test_mse_loss_value():
    pred = ad.Tensor([0.0, 2.0])
    target = ad.Tensor([0.0, 0.0])
    assert ad.mse_loss(pred, target).item() == pytest.approx(2.0)


def test_sgd_step_hand_computed():
    w = ad.Tensor(0.0, requires_grad=True)
    x = ad.Tensor(2.0)
    target = ad.Tensor(4.0)
    with ad.Tape():
        loss = ad.mse_loss(ad.mul(w, x), target)
        ad.backward(loss)
    # d/dw (2w - 4)^2 = 2(2w - 4) * 2 = -16 at w=0
    assert w.grad == pytest.approx(-16.0)
    ad.sgd_step([w], lr=0.125)
    assert w.data == pytest.approx(2.0)
    assert w.grad is None


def test_sgd_zero_lr_is_identity():
    w = ad.Tensor([1.0, 2.0], requires_grad=True)
    w.grad = np.array([5.0, 5.0])
    ad.sgd_step([w], lr=0.0)
    np.testing.assert_array_equal(w.data, [1.0, 2.0])


def test_sgd_missing_grad_raises():
    w = ad.Tensor([1.0], requires_grad=True)
    with pytest.raises(ad.GradientError):
        ad.sgd_step([w], lr=0.1)


def test_relu_derivative_zero_at_zero():
    x = ad.Tensor([-1.0, 0.0, 2.0], requires_grad=True)
    with ad.Tape():
        y = ad.relu(x)
        loss = ad.mse_loss(y, ad.Tensor([0.0, 0.0, 0.0]))
        ad.backward(loss)
    np.testing.assert_array_equal(y.data, [0.0, 0.0, 2.0])
    assert x.grad[0] == 0.0
    assert x.grad[1] == 0.0  # subgradient convention: derivative 0 at the kink
    assert x.grad[2] != 0.0


def test_softmax_cross_entropy_grad_is_softmax_minus_onehot():
    logits = ad.Tensor([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0]], requires_grad=True)
    idx = np.array([1, 0])
    with ad.Tape():
        loss = ad.softmax_cross_entropy(logits, idx)
        ad.backward(loss)
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    soft = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    onehot = np.zeros_like(soft)
    onehot[np.arange(2), idx] = 1.0
    np.testing.assert_allclose(logits.grad, (soft - onehot) / 2.0, atol=1e-12)


def test_softmax_cross_entropy_stability():
    logits = ad.Tensor([[1000.0, 0.0]], requires_grad=True)
    with ad.Tape():
        loss = ad.softmax_cross_entropy(logits, [0])
        ad.backward(loss)
    assert np.isfinite(loss.item())
    assert loss.item() == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(logits.grad))


def test_softmax_cross_entropy_rejects_bad_labels():
    logits = ad.Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ad.softmax_cross_entropy(logits, [0, 3])
    with pytest.raises(ValueError):
        ad.softmax_cross_entropy(logits, [0.5, 1.5])


def test_add_bias_broadcast_grad_sums_over_batch():
    x = ad.Tensor(np.arange(6.0).reshape(3, 2))
    b = ad.Tensor([1.0, -1.0], requires_grad=True)
    with ad.Tape():
        out = ad.add(x, b)
        loss = ad.mse_loss(out, ad.Tensor(np.zeros((3, 2))))
        ad.backward(loss)
    f = lambda bv: float(np.mean((x.data + bv) ** 2))
    np.testing.assert_allclose(b.grad, finite_difference_grad(f, b.data.copy()), atol=1e-8)


def test_no_general_broadcasting():
    a = ad.Tensor(np.ones((2, 3)))
    b = ad.Tensor(np.ones((2, 1)))
    with pytest.raises(ValueError):
        ad.add(a, b)
    with pytest.raises(ValueError):
        ad.mul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones(3)))


def test_backward_requires_scalar_root():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with ad.Tape():
        y = ad.relu(x)
    with pytest.raises(ad.GradientError):
        ad.backward(y)


def test_backward_accumulates_across_calls():
    x = ad.Tensor(2.0, requires_grad=True)
    with ad.Tape():
        y = ad.mul(x, x)
        ad.backward(y)
        ad.backward(y)
    assert x.grad == pytest.approx(8.0)


def test_intermediate_tensors_receive_grads():
    x = ad.Tensor(2.0, requires_grad=True)
    with ad.Tape():
        h = ad.mul(x, x)       # h = 4
        y = ad.mul(h, x)       # y = x^3
        ad.backward(y)
    assert x.grad == pytest.approx(12.0)
    assert h.grad == pytest.approx(2.0)  # dy/dh = x


def test_nested_tapes_forbidden():
    with ad.Tape():
        with pytest.raises(ad.GradientError):
            with ad.Tape():
                pass


def test_two_layer_mlp_matches_finite_differences():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 4))
    t = rng.normal(size=(5, 2))
    w1 = ad.Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    b1 = ad.Tensor(rng.normal(size=8), requires_grad=True)
    w2 = ad.Tensor(rng.normal(size=(8, 2)), requires_grad=True)
    b2 = ad.Tensor(rng.normal(size=2), requires_grad=True)

    def forward():
        h = ad.relu(ad.add(ad.matmul(ad.Tensor(x), w1), b1))
        return ad.mse_loss(ad.add(ad.matmul(h, w2), b2), ad.Tensor(t))

    with ad.Tape():
        ad.backward(forward())

    for p in (w1, b1, w2, b2):
        def f(v, p=p):
            saved = p.data
            p.data = v
            out = forward().item()
            p.data = saved
            return out
        np.testing.assert_allclose(p.grad, finite_difference_grad(f, p.data.copy()),
                                   rtol=1e-5, atol=1e-7)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_matmul_grads_match_finite_differences(m, k, seed):
    rng = np.random.default_rng(seed)
    a = ad.Tensor(rng.normal(size=(m, k)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(k, 3)), requires_grad=True)
    t = ad.Tensor(rng.normal(size=(m, 3)))
    with ad.Tape():
        ad.backward(ad.mse_loss(ad.matmul(a, b), t))

    def fa(v):
        return float(np.mean((v @ b.data - t.data) ** 2))

    np.testing.assert_allclose(a.grad, finite_difference_grad(fa, a.data.copy()),
                               rtol=1e-5, atol=1e-7)


def test_backward_is_deterministic():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(3, 3))
    grads = []
    for _ in range(2):
        p = ad.Tensor(w.copy(), requires_grad=True)
        with ad.Tape():
            out = ad.matmul(ad.Tensor(np.eye(3)), p)
            ad.backward(ad.mse_loss(out, ad.Tensor(np.zeros((3, 3)))))
        grads.append(p.grad.copy())
    np.testing.assert_array_equal(grads[0], grads[1])
