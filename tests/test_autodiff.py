"""The explicit MLP kernel: losses, gradients and SGD against hand values and finite differences."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtl_affinity import autodiff as ad
from oracles import finite_difference_grad


def mse_head(width: int, target) -> ad.Head:
    """An identity head scored by MSE against ``target``."""
    return ad.Head(np.eye(width), np.zeros(width),
                   partial(ad.mse_loss, target=np.asarray(target, dtype=np.float64)))


def loss_of(weights, biases, heads, x) -> float:
    return sum(ad.losses(weights, biases, heads, x))


def test_matmul_forward():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = ad.forward([np.array([[1.0], [1.0]])], [np.array([0.5])], x)
    np.testing.assert_array_equal(out, [[3.5], [7.5]])


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        ad.forward([np.ones((2, 3))], [np.zeros(3)], np.ones((2, 3)))


def test_mse_loss_value():
    loss, grad = ad.mse_loss(np.array([0.0, 2.0]), np.array([0.0, 0.0]))
    assert loss == pytest.approx(2.0)
    assert grad is None


def test_sgd_step_hand_computed():
    w = np.array([[0.0]])
    x = np.array([[2.0]])
    grads = ad.backward([w], [np.zeros(1)], [mse_head(1, [[4.0]])], x)
    # d/dw (2w - 4)^2 = 2(2w - 4) * 2 = -16 at w=0
    assert grads.weights[0].item() == pytest.approx(-16.0)
    ad.sgd_step([w], [grads.weights[0]], lr=0.125)
    assert w.item() == pytest.approx(2.0)


def test_sgd_zero_lr_is_identity():
    w = np.array([1.0, 2.0])
    ad.sgd_step([w], [np.array([5.0, 5.0])], lr=0.0)
    np.testing.assert_array_equal(w, [1.0, 2.0])


def test_sgd_rejects_negative_lr():
    w = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="learning rate"):
        ad.sgd_step([w], [np.array([5.0, 5.0])], lr=-0.1)
    np.testing.assert_array_equal(w, [1.0, 2.0])


def test_sgd_missing_grad_raises():
    with pytest.raises(ValueError):
        ad.sgd_step([np.ones(1), np.ones(2)], [np.ones(1)], lr=0.1)


def test_no_general_broadcasting():
    w = np.ones((2, 3))
    with pytest.raises(ValueError):
        ad.sgd_step([w], [np.ones(3)], lr=0.1)
    np.testing.assert_array_equal(w, np.ones((2, 3)))


def test_relu_derivative_zero_at_zero():
    # Preactivations of the hidden layer are exactly -1, 0 and 2; the loss
    # gradient reaching them is nonzero in every coordinate.
    x = np.array([[-1.0, 0.0, 2.0]])
    weights, biases = [np.eye(3), np.eye(3)], [np.zeros(3), np.zeros(3)]
    np.testing.assert_array_equal(ad.forward(weights, biases, x), [[0.0, 0.0, 2.0]])
    grads = ad.backward(weights, biases, [mse_head(3, np.ones((1, 3)))], x, input_grad=True)
    assert grads.inputs[0, 0] == 0.0
    assert grads.inputs[0, 1] == 0.0  # subgradient convention: derivative 0 at the kink
    assert grads.inputs[0, 2] != 0.0


def test_softmax_cross_entropy_grad_is_softmax_minus_onehot():
    logits = np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0]])
    idx = np.array([1, 0])
    _, grad = ad.softmax_cross_entropy(logits, idx, grad=True)
    z = logits - logits.max(axis=1, keepdims=True)
    soft = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    onehot = np.zeros_like(soft)
    onehot[np.arange(2), idx] = 1.0
    np.testing.assert_allclose(grad, (soft - onehot) / 2.0, atol=1e-12)


def test_softmax_cross_entropy_stability():
    loss, grad = ad.softmax_cross_entropy(np.array([[1000.0, 0.0]]), [0], grad=True)
    assert np.isfinite(loss)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(grad))


def test_softmax_cross_entropy_rejects_bad_labels():
    logits = np.zeros((2, 3))
    with pytest.raises(ValueError):
        ad.softmax_cross_entropy(logits, [0, 3])
    with pytest.raises(ValueError):
        ad.softmax_cross_entropy(logits, [0.5, 1.5])


def test_add_bias_broadcast_grad_sums_over_batch():
    x = np.arange(6.0).reshape(3, 2)
    weights, biases = [np.eye(2)], [np.array([1.0, -1.0])]
    heads = [mse_head(2, np.zeros((3, 2)))]
    grads = ad.backward(weights, biases, heads, x)
    numeric = finite_difference_grad(lambda _: loss_of(weights, biases, heads, x), biases[0])
    np.testing.assert_allclose(grads.biases[0], numeric, atol=1e-8)
    np.testing.assert_allclose(grads.biases[0], (2.0 / 6) * (x + biases[0]).sum(axis=0),
                               atol=1e-12)


def test_two_layer_mlp_matches_finite_differences():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 4))
    weights = [rng.normal(size=(4, 8)), rng.normal(size=(8, 3))]
    biases = [rng.normal(size=8), rng.normal(size=3)]
    heads = [ad.Head(rng.normal(size=(3, 2)), rng.normal(size=2),
                     partial(ad.mse_loss, target=rng.normal(size=(5, 2))))]
    grads = ad.backward(weights, biases, heads, x)

    params = [*weights, *biases, heads[0].weight, heads[0].bias]
    for p, g in zip(params, grads.params()):
        # finite_difference_grad perturbs p in place, so the loss sees each step.
        numeric = finite_difference_grad(lambda _: loss_of(weights, biases, heads, x), p)
        np.testing.assert_allclose(g, numeric, rtol=1e-5, atol=1e-7)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_matmul_grads_match_finite_differences(m, k, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(m, k))
    weights, biases = [rng.normal(size=(k, 3))], [np.zeros(3)]
    heads = [mse_head(3, rng.normal(size=(m, 3)))]
    grads = ad.backward(weights, biases, heads, x, input_grad=True)

    for got, wrt in ((grads.inputs, x), (grads.weights[0], weights[0])):
        numeric = finite_difference_grad(lambda _: loss_of(weights, biases, heads, x), wrt)
        np.testing.assert_allclose(got, numeric, rtol=1e-5, atol=1e-7)


def test_backward_is_deterministic():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(3, 3))
    runs = [ad.backward([w.copy()], [np.zeros(3)], [mse_head(3, np.zeros((3, 3)))], np.eye(3))
            for _ in range(2)]
    for a, b in zip(runs[0].params(), runs[1].params()):
        np.testing.assert_array_equal(a, b)
