"""The explicit MLP kernel: losses, gradients and SGD against hand values and finite differences."""

from functools import partial, reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtl_affinity import autodiff as ad
from oracles import finite_difference_grad, softmax_cross_entropy_class_ids


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


EDGE_VALUES = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
               2.2e-308, -2.2e-308, 1.0, -1.0]


@pytest.mark.parametrize("shape", [(12,), (9000,), (4, 32), (10, 1000)])
def test_relu_matches_where_to_the_bit_on_edge_values(shape):
    """ReLU gives the bits of np.where(z > 0.0, z, 0.0): 0.0 for NaN and -inf, denormals kept.

    The hidden layer is one unit wide, so the identity last layer copies it
    into the latent bit for bit. 9,000 rows, and a stack of 10 on 1,000 rows,
    put the hidden array past numpy's 8,192-element buffer.
    """
    rng = np.random.default_rng(3)
    x = rng.normal(size=(*shape, 1))
    x.reshape(-1)[:len(EDGE_VALUES)] = EDGE_VALUES
    x.reshape(-1)[-len(EDGE_VALUES):] = EDGE_VALUES
    stack = shape[:-1]
    weights = [np.ones((*stack, 1, 1)), np.ones((*stack, 1, 1))]
    biases = [np.zeros((*stack, 1)), np.zeros((*stack, 1))]
    z = x @ weights[0] + biases[0][..., None, :]
    want = np.where(z > 0.0, z, 0.0) @ weights[1] + biases[1][..., None, :]
    assert ad.forward(weights, biases, x).tobytes() == want.tobytes()


def test_softmax_cross_entropy_grad_is_softmax_minus_onehot():
    logits = np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0]])
    onehot = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    _, grad = ad.softmax_cross_entropy(logits, onehot, grad=True)
    z = logits - logits.max(axis=1, keepdims=True)
    soft = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(grad, (soft - onehot) / 2.0, atol=1e-12)


def test_softmax_cross_entropy_stability():
    loss, grad = ad.softmax_cross_entropy(np.array([[1000.0, 0.0]]), np.array([[1.0, 0.0]]),
                                          grad=True)
    assert np.isfinite(loss)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(grad))


def test_softmax_cross_entropy_rejects_bad_labels():
    """The target must be shaped like the logits: class ids or a wrong width do not fit."""
    logits = np.zeros((2, 3))
    for target in (np.array([0, 2]), np.zeros((2, 2)), np.zeros((1, 2, 3))):
        with pytest.raises(ValueError, match="shapes differ"):
            ad.softmax_cross_entropy(logits, target)
    with pytest.raises(ValueError, match="empty batch"):
        ad.softmax_cross_entropy(np.zeros((0, 3)), np.zeros((0, 3)))


@pytest.mark.parametrize("shape", [(4, 2), (6, 4), (3, 5, 4), (6, 3), (6, 10), (3, 5, 10)])
def test_softmax_cross_entropy_matches_class_id_reference_to_the_bit(shape):
    """The one-hot kernel gives the bits of picking each row's true class by id."""
    rng = np.random.default_rng(11)
    logits = rng.normal(0.0, 3.0, shape)
    logits[..., 0, :2] = [1000.0, 0.0]
    class_index = rng.integers(0, shape[-1], shape[:-1])
    want_loss, want_grad = softmax_cross_entropy_class_ids(logits, class_index, grad=True)
    got_loss, got_grad = ad.softmax_cross_entropy(logits, np.eye(shape[-1])[class_index],
                                                  grad=True)
    assert np.asarray(got_loss).tobytes() == np.asarray(want_loss).tobytes()
    assert type(got_loss) is type(want_loss)
    assert got_grad.tobytes() == want_grad.tobytes()


def wrapper_mse(pred, target):
    """The squared error as ``np.mean`` computes it."""
    diff = pred - target
    if pred.ndim == 3:
        return np.mean(diff * diff, axis=(-2, -1)), (2.0 / pred[0].size) * diff
    return float(np.mean(diff * diff)), (2.0 / pred.size) * diff


def wrapper_cross_entropy(logits, target):
    """The cross-entropy as ``.max``, ``.sum`` and ``.mean`` compute it."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    loss = -(target * log_probs).sum(axis=-1).mean(axis=-1)
    return (loss if logits.ndim == 3 else float(loss),
            (np.exp(log_probs) - target) / logits.shape[-2])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("shape", [(13, 3), (13, 10), (4, 13, 3), (4, 13, 10)])
@pytest.mark.parametrize("kernel, wrapper", [(ad.mse_loss, wrapper_mse),
                                             (ad.softmax_cross_entropy, wrapper_cross_entropy)])
def test_loss_kernels_match_the_numpy_wrapper_expressions_to_the_bit(shape, kernel, wrapper):
    """The ufunc reductions give the bits of np.mean, .max and .sum, edge values included.

    First every batch gets a row of edge values (signed zeros, signed NaN,
    infinities, denormals) and a row of edge values drawn at random, so
    every loss is NaN; then a draw without edge values gives finite losses.
    """
    rng = np.random.default_rng(5)
    classes = shape[-1]
    for edges in (True, False):
        pred = rng.normal(0.0, 3.0, shape)
        if edges:
            pred[..., 0, :] = np.resize(EDGE_VALUES, classes)
            pred[..., 1, :] = rng.choice(EDGE_VALUES, classes)
        target = (np.eye(classes)[rng.integers(0, classes, shape[:-1])]
                  if kernel is ad.softmax_cross_entropy else rng.normal(size=shape))
        got_loss, got_grad = kernel(pred, target, grad=True)
        want_loss, want_grad = wrapper(pred, target)
        assert type(got_loss) is type(want_loss)
        assert np.asarray(got_loss).tobytes() == np.asarray(want_loss).tobytes()
        assert got_grad.tobytes() == want_grad.tobytes()


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


def _loss_for(kind: str, target) -> ad.Loss:
    return partial(ad.softmax_cross_entropy if kind == "cls" else ad.mse_loss, target=target)


# Stacked-slice cases: (stack, batch, layer shapes, head slots). Each slot
# lists (kind, width, slices) groups that cover the stack once. The second
# case's (10, 32, 32) hidden arrays are past numpy's 8,192-element buffer.
STACK_CASES = [
    (5, 9, [(4, 6), (6, 5), (5, 3)],
     [[("reg", 2, [0, 2, 3]), ("cls", 3, [1, 4])],
      [("cls", 4, [0, 1, 2, 3, 4])]]),
    (10, 32, [(24, 32), (32, 16), (16, 16)],
     [[("reg", 2, [0, 3, 4, 7, 9]), ("cls", 3, [1, 2, 5, 6, 8])],
      [("cls", 4, list(range(10)))]]),
]


def test_stacked_backward_matches_each_slice_to_the_bit():
    """One stacked call with grouped head slots gives each slice its own 2-D result."""
    for case in STACK_CASES:
        _check_stacked_slices(*case)


def _random_stack(rng, stack, batch, layers, slots):
    """Backbone parameters, inputs, head parameters by (slot, kind), and the head slots."""
    weights = [rng.normal(size=(stack, a, b)) for a, b in layers]
    biases = [rng.normal(size=(stack, b)) for _, b in layers]
    x = rng.normal(size=(stack, batch, layers[0][0]))
    latent = layers[-1][1]
    params = {}
    for s, slot in enumerate(slots):
        for kind, width, slices in slot:
            if kind == "cls":
                labels = np.eye(width)[rng.integers(0, width, (len(slices), batch))]
            else:
                labels = rng.normal(size=(len(slices), batch, width))
            params[s, kind] = (rng.normal(size=(len(slices), latent, width)),
                               rng.normal(size=(len(slices), width)), labels)

    heads = [[ad.Head(*params[s, kind][:2], _loss_for(kind, params[s, kind][2]),
                      None if len(slot) == 1 else np.array(slices))
              for kind, _, slices in slot] for s, slot in enumerate(slots)]
    return weights, biases, x, params, heads


def _check_stacked_slices(stack, batch, layers, slots):
    rng = np.random.default_rng(7)
    weights, biases, x, params, heads = _random_stack(rng, stack, batch, layers, slots)
    got = ad.backward(weights, biases, heads, x, input_grad=True)
    # Head gradients come slot by slot, group by group.
    group_grads = dict(zip([(s, kind) for s, slot in enumerate(slots) for kind, _, _ in slot],
                           got.heads))

    for i in range(stack):
        alone, head_grads = [], []
        for s, slot in enumerate(slots):
            for kind, _, slices in slot:
                if i in slices:
                    j = slices.index(i)
                    w, b, labels = params[s, kind]
                    alone.append(ad.Head(w[j], b[j], _loss_for(kind, labels[j])))
                    gw, gb = group_grads[s, kind]
                    head_grads.append((gw[j], gb[j]))
        want = ad.backward([w[i] for w in weights], [b[i] for b in biases], alone, x[i],
                           input_grad=True)
        assert [float(loss[i]) for loss in got.losses] == want.losses
        for a, b in zip([*got.weights, *got.biases, got.inputs],
                        [*want.weights, *want.biases, want.inputs]):
            assert a[i].tobytes() == b.tobytes()
        for (gw, gb), (ww, wb) in zip(head_grads, want.heads):
            assert gw.tobytes() == ww.tobytes() and gb.tobytes() == wb.tobytes()


def test_summed_slot_backprop_matches_per_slot_backprop():
    """Backpropagating the slots' summed latent gradient once equals backpropagating
    each slot alone and adding the gradients, to 1e-12 of the largest entry."""
    rng = np.random.default_rng(21)
    for _ in range(30):
        stack, batch = int(rng.integers(1, 8)), int(rng.integers(1, 40))
        widths = [int(w) for w in rng.integers(1, 12, int(rng.integers(2, 5)))]
        slots = []
        for _ in range(int(rng.integers(2, 4))):
            kinds = rng.integers(0, 2, stack)
            slot = [(kind, int(rng.integers(1, 5)), [i for i in range(stack) if kinds[i] == k])
                    for k, kind in enumerate(("reg", "cls"))]
            slots.append([group for group in slot if group[2]])
        weights, biases, x, _, heads = _random_stack(rng, stack, batch,
                                                     list(zip(widths, widths[1:])), slots)
        got = ad.backward(weights, biases, heads, x, input_grad=True)
        alone = [ad.backward(weights, biases, [slot], x, input_grad=True) for slot in heads]

        # Losses and head gradients do not pass through the backbone: same bits.
        assert [np.asarray(v).tobytes() for v in got.losses] == \
            [np.asarray(a.losses[0]).tobytes() for a in alone]
        assert [g.tobytes() for gw_gb in got.heads for g in gw_gb] == \
            [g.tobytes() for a in alone for gw_gb in a.heads for g in gw_gb]
        per_slot = [[*a.backbone(), a.inputs] for a in alone]
        for k, have in enumerate([*got.backbone(), got.inputs]):
            want = reduce(np.add, [grads[k] for grads in per_slot])
            assert np.abs(have - want).max() <= 1e-12 * np.abs(want).max()


def test_gradients_flat_holds_every_gradient_in_params_order():
    """``Gradients.flat`` is one array, and each ``params()`` entry a view of it, in order."""
    rng = np.random.default_rng(9)
    single = ([rng.normal(size=(4, 3)), rng.normal(size=(3, 2))],
              [rng.normal(size=3), rng.normal(size=2)],
              [mse_head(2, rng.normal(size=(5, 2))), mse_head(2, rng.normal(size=(5, 2)))],
              rng.normal(size=(5, 4)))
    for weights, biases, heads, x in [single, *(
            [_random_stack(rng, *case)[i] for i in (0, 1, 4, 2)] for case in STACK_CASES)]:
        grads = ad.backward(weights, biases, heads, x)
        start = grads.flat.__array_interface__["data"][0]
        offset = 0
        for g in grads.params():
            assert g.base is grads.flat and g.flags.c_contiguous
            assert g.__array_interface__["data"][0] == start + offset * grads.flat.itemsize
            offset += g.size
        assert offset == grads.flat.size


def test_flat_sgd_step_matches_the_per_array_update_to_the_bit():
    """One update of a flat array equals the per-array update the reference trainer takes."""
    rng = np.random.default_rng(13)
    for case in STACK_CASES:
        weights, biases, x, _, heads = _random_stack(rng, *case)
        grads = ad.backward(weights, biases, heads, x)
        flat, params = ad.flat_views([g.shape for g in grads.params()])
        flat[...] = rng.normal(size=flat.size)
        per_array = [p.copy() for p in params]
        lr = 0.05 * 0.95 ** 3
        ad.sgd_step(per_array, grads.params(), lr)
        ad.sgd_step([flat], [grads.flat], lr)
        assert flat.tobytes() == np.concatenate([p.ravel() for p in per_array]).tobytes()


def test_backward_into_a_reused_buffer_matches_a_fresh_call_to_the_bit():
    """``out`` is overwritten in full: a NaN-filled buffer, fresh from
    ``Gradients.empty`` or holding an earlier result, ends with a fresh call's bytes."""
    rng = np.random.default_rng(17)
    for case in STACK_CASES:
        weights, biases, x, _, heads = _random_stack(rng, *case)
        buffer = ad.Gradients.empty([p.shape for p in (*weights, *biases)] + [
            p.shape for slot in heads for h in slot for p in (h.weight, h.bias)], len(weights))
        for input_grad in (True, False, True):
            fresh = ad.backward(weights, biases, heads, x, input_grad=input_grad)
            buffer.flat[...] = np.nan
            got = ad.backward(weights, biases, heads, x, input_grad=input_grad, out=buffer)
            assert got is buffer
            assert got.flat.tobytes() == fresh.flat.tobytes()
            assert [g.tobytes() for g in got.params()] == [g.tobytes() for g in fresh.params()]
            assert [np.asarray(v).tobytes() for v in got.losses] == \
                [np.asarray(v).tobytes() for v in fresh.losses]
            assert (got.inputs is None) == (not input_grad)
            if input_grad:
                assert got.inputs.tobytes() == fresh.inputs.tobytes()
            x = x + 0.5  # the next call overwrites an earlier result
