"""The six affinity scores against hand computations and small oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtl_affinity import scores
from mtl_affinity.evaluation import MatrixAssemblyError, assemble_matrix
from mtl_affinity.stats import DegenerateInputError
from mtl_affinity.models import (
    BackboneConfig,
    Model,
    TrainConfig,
    TrainTrace,
    train_mtl,
)
from mtl_affinity.seeding import BATCHING, INIT, model_stream
from mtl_affinity.tasks import TaskSpec, generate_latent_factor_suite
from oracles import spearman_naive


def linear_stl(name, wb, bb, wh, bh, kind="regression"):
    """An STL model with explicit single-layer backbone and head weights."""
    wb, bb, wh, bh = (np.asarray(a, dtype=np.float64) for a in (wb, bb, wh, bh))
    spec = TaskSpec(name, kind, wh.shape[1] if kind == "regression" else max(2, wh.shape[1]))
    model = Model([spec], BackboneConfig(wb.shape[0], (), wb.shape[1]),
                  np.random.default_rng(0))
    [w], [b] = model.weights, model.biases
    head_w, head_b = model.heads[name]
    for param, value in ((w, wb), (b, bb), (head_w, wh), (head_b, bh)):
        assert param.shape == value.shape
        param[...] = value
    return model


def trace_with(gs=None, lookahead=None):
    return TrainTrace(val_loss=[], combined_val=[0.0], best_epoch=0,
                      gs_cosine=gs, lookahead=lookahead)


# --- IAS ---


def test_input_x_gradient_matches_hand_chain_rule():
    wb = [[1.0, 0.5], [-1.0, 2.0]]
    bb = [0.1, -0.2]
    wh = [[0.7], [-0.3]]
    bh = [0.05]
    model = linear_stl("a", wb, bb, wh, bh)
    x = np.array([[1.0, 2.0]])
    y = np.array([[0.4]])

    latent = x @ np.array(wb) + bb
    pred = latent @ np.array(wh) + bh
    dpred = 2.0 * (pred - y)  # single element, so the mean changes nothing
    dx = dpred @ np.array(wh).T @ np.array(wb).T
    np.testing.assert_allclose(scores.input_x_gradient(model, x, y), x * dx, atol=1e-12)


def test_ias_two_linear_models_closed_form():
    model_a = linear_stl("a", [[1.0, 0.5], [-1.0, 2.0]], [0.1, -0.2], [[0.7], [-0.3]], [0.05])
    model_b = linear_stl("b", [[0.2, -0.4], [0.9, 0.3]], [0.0, 0.3], [[-0.5], [1.1]], [-0.2])
    x = np.array([[1.0, 2.0]])
    ya, yb = np.array([[0.4]]), np.array([[-1.0]])

    maps = [scores.input_x_gradient(m, x, y) for m, y in ((model_a, ya), (model_b, yb))]
    expected = (maps[0] @ maps[1].T) / (np.linalg.norm(maps[0]) * np.linalg.norm(maps[1]))
    got = scores.input_attribution_similarity(model_a, model_b, x, ya, yb)
    assert got == pytest.approx(expected.item(), abs=1e-9)
    assert got.used == 1
    assert got.skipped == 0


def test_ias_same_model_is_one():
    model = linear_stl("a", [[1.0, 0.5], [-1.0, 2.0]], [0.1, -0.2], [[0.7], [-0.3]], [0.05])
    rng = np.random.default_rng(4)
    x = rng.normal(size=(8, 2))
    y = rng.normal(size=(8, 1))
    assert scores.input_attribution_similarity(model, model, x, y, y) == pytest.approx(1.0, abs=1e-9)


def test_ias_orthogonal_maps_is_zero():
    # Each model reads one input coordinate, so its maps lie on that axis.
    model_a = linear_stl("a", np.eye(2), [0.0, 0.0], [[1.0], [0.0]], [0.0])
    model_b = linear_stl("b", np.eye(2), [0.0, 0.0], [[0.0], [1.0]], [0.0])
    x = np.ones((5, 2))
    y = np.zeros((5, 1))
    for model, axis in ((model_a, 0), (model_b, 1)):
        maps = scores.input_x_gradient(model, x, y)
        assert np.all(maps[:, axis] != 0.0) and np.all(maps[:, 1 - axis] == 0.0)
    got = scores.input_attribution_similarity(model_a, model_b, x, y, y)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_ias_skips_zero_norm_examples_and_counts():
    model_a = linear_stl("a", np.eye(2), [0.0, 0.0], [[1.0], [1.0]], [0.0])
    model_b = linear_stl("b", np.eye(2), [0.0, 0.0], [[1.0], [1.0]], [0.0])
    x = np.ones((4, 2))  # both models predict 2.0 for every example
    # One dead example on one side only: model a predicts example 0 exactly.
    y_a = np.array([[2.0], [0.0], [0.0], [0.0]])
    y_b = np.zeros((4, 1))
    assert np.all(scores.input_x_gradient(model_a, x, y_a)[0] == 0.0)
    got = scores.input_attribution_similarity(model_a, model_b, x, y_a, y_b)
    assert got == pytest.approx(1.0)
    assert got.skipped == 1
    assert got.used == 3


def test_ias_all_skipped_raises():
    model_a = linear_stl("a", np.eye(2), [0.0, 0.0], [[1.0], [0.0]], [0.0])
    model_b = linear_stl("b", np.eye(2), [0.0, 0.0], [[1.0], [0.0]], [0.0])
    # Both models predict every label exactly, so every map is zero.
    with pytest.raises(DegenerateInputError, match="zero-norm"):
        scores.input_attribution_similarity(model_a, model_b, np.ones((3, 2)),
                                            np.ones((3, 1)), np.ones((3, 1)))


def test_ias_input_width_mismatch():
    model_a = linear_stl("a", np.eye(2), [0.0, 0.0], [[1.0], [0.0]], [0.0])
    model_b = linear_stl("b", np.eye(3), [0.0, 0.0, 0.0], [[1.0], [0.0], [0.0]], [0.0])
    with pytest.raises(ValueError, match="width"):
        scores.input_attribution_similarity(model_a, model_b, np.ones((2, 2)),
                                            np.ones((2, 1)), np.ones((2, 1)))


# --- RSA ---


def test_rdm_hand_values():
    z = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0], [1.0, 3.0, 2.0]])
    rdm = scores.representation_dissimilarity(z)
    np.testing.assert_allclose(np.diag(rdm), 0.0, atol=1e-12)
    assert rdm[0, 1] == pytest.approx(2.0)   # perfectly anti-correlated rows
    assert rdm[0, 2] == pytest.approx(0.5)   # Pearson 0.5
    assert rdm[1, 2] == pytest.approx(1.5)   # Pearson -0.5
    np.testing.assert_allclose(rdm, rdm.T, atol=1e-12)


def test_rdm_constant_latent_names_example():
    z = np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0], [1.0, 3.0, 2.0]])
    with pytest.raises(DegenerateInputError, match="example 1"):
        scores.representation_dissimilarity(z)


def dead_backbone(name):
    """An STL model whose ReLU layer is off for every input, so each latent is its bias."""
    model = Model([TaskSpec(name, "regression", 1)], BackboneConfig(2, (3,), 3),
                  np.random.default_rng(0))
    model.weights[0][...] = 0.0
    model.biases[0][...] = -1.0
    model.biases[1][...] = [0.0, 1.0, 3.0]
    return model


def test_rsa_with_equally_dissimilar_latents_raises():
    # Every latent is the same non-constant vector, so each RDM is all zeros
    # and the Spearman correlation of the two triangles is undefined.
    x = np.random.default_rng(1).normal(size=(5, 2))
    with pytest.raises(DegenerateInputError, match="constant input"):
        scores.rsa(dead_backbone("a"), dead_backbone("b"), x)


def identity_backbone_model(name, d, head=None):
    wh = np.ones((d, 1)) if head is None else head
    return linear_stl(name, np.eye(d), np.zeros(d), wh, [0.0])


def test_rsa_hand_computed_three_examples():
    x = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0], [1.0, 3.0, 2.0]])
    mix = np.array([[0.5, 1.0, -0.5], [1.5, -1.0, 0.0], [0.2, 0.3, 0.9]])
    model_a = identity_backbone_model("a", 3)                      # latents = x
    model_b = linear_stl("b", mix, np.zeros(3), np.ones((3, 1)), [0.0])  # latents = x @ mix

    tri = np.triu_indices(3, k=1)
    rdm_a = scores.representation_dissimilarity(x)
    rdm_b = scores.representation_dissimilarity(x @ mix)
    expected = spearman_naive(rdm_a[tri].tolist(), rdm_b[tri].tolist())
    assert scores.rsa(model_a, model_b, x) == pytest.approx(expected, abs=1e-12)


def test_rsa_same_model_and_scaled_latents_are_one():
    x = np.random.default_rng(1).normal(size=(6, 3))
    model_a = identity_backbone_model("a", 3)
    model_scaled = linear_stl("b", 2.0 * np.eye(3), np.zeros(3), np.ones((3, 1)), [0.0])
    assert scores.rsa(model_a, model_a, x) == pytest.approx(1.0, abs=1e-9)
    assert scores.rsa(model_a, model_scaled, x) == pytest.approx(1.0, abs=1e-9)


def test_rsa_needs_three_examples():
    model = identity_backbone_model("a", 3)
    with pytest.raises(ValueError, match="3"):
        scores.rsa(model, model, np.ones((2, 3)))


def test_rsa_constant_latent_propagates():
    model = identity_backbone_model("a", 3)
    x = np.array([[1.0, 2.0, 3.0], [4.0, 4.0, 4.0], [0.0, 1.0, 5.0]])
    with pytest.raises(DegenerateInputError, match="example 1"):
        scores.rsa(model, model, x)


# --- LI ---


def test_label_injection_formula():
    assert scores.label_injection(2.0, 1.0) == pytest.approx(1.0)
    assert scores.label_injection(1.5, 1.5) == 0.0
    assert scores.label_injection(1.0, 2.0) == pytest.approx(-0.5)


def test_label_injection_rejects_nonpositive():
    with pytest.raises(ValueError):
        scores.label_injection(0.0, 1.0)
    with pytest.raises(ValueError):
        scores.label_injection(1.0, 0.0)
    with pytest.raises(ValueError):
        scores.label_injection(1.0, -2.0)


# --- GS ---


def test_gradient_similarity_means_all_epochs():
    assert scores.gradient_similarity(trace_with(gs=[1.0, 1.0, 1.0])) == 1.0
    assert scores.gradient_similarity(trace_with(gs=[0.5, -0.5])) == 0.0


def test_gradient_similarity_requires_mtl_trace():
    with pytest.raises(ValueError, match="MTL"):
        scores.gradient_similarity(trace_with(gs=None))


# --- GT ---


def test_gradient_transference_means_and_conventions():
    t = trace_with(lookahead={"a": [(1.0, 1.0), (2.0, 1.0)]})
    got = scores.gradient_transference(t, "a")
    assert got == pytest.approx(0.25)  # epochs contribute 0.0 and 0.5
    unchanged = trace_with(lookahead={"a": [(3.0, 3.0)]})
    assert scores.gradient_transference(unchanged, "a") == 0.0
    halved = trace_with(lookahead={"a": [(2.0, 1.0), (4.0, 2.0)]})
    assert scores.gradient_transference(halved, "a") == pytest.approx(0.5)


def test_gradient_transference_skips_zero_pre_loss():
    t = trace_with(lookahead={"a": [(0.0, 1.0), (2.0, 1.0)]})
    got = scores.gradient_transference(t, "a")
    assert got == pytest.approx(0.5)
    assert got.skipped == 1
    assert got.used == 1
    with pytest.raises(DegenerateInputError):
        scores.gradient_transference(trace_with(lookahead={"a": [(0.0, 1.0)]}), "a")


def test_gradient_transference_unknown_direction():
    with pytest.raises(ValueError, match="'b'"):
        scores.gradient_transference(trace_with(lookahead={"a": [(1.0, 1.0)]}), "b")


def test_gs_gt_single_epoch_match_hand_simulation():
    """Replay one linear-model MTL epoch with plain numpy and compare."""
    suite = generate_latent_factor_suite(seed=21, n_tasks=2, d_latent=3, d_in=3,
                                         n_examples=40, overlap=0.5, noise_std=0.1,
                                         kinds=["regression", "regression"])
    ds = suite.dataset
    backbone = BackboneConfig(3, (), 2)
    cfg = TrainConfig(seed=21, epochs=1, initial_lr=0.05, lr_decay=0.95, batch_size=64)
    [(_, trace)] = train_mtl([(suite.specs[0], suite.specs[1])], ds, backbone, cfg)

    # Reproduce the initial parameters and the (single) batch order.
    key = "mtl/task0/task1"
    init = Model([suite.specs[0], suite.specs[1]], backbone, model_stream(cfg.seed, INIT, key))
    order = model_stream(cfg.seed, BATCHING, key).permutation(len(ds.splits["train"]))
    idx = ds.splits["train"][order]
    x = ds.inputs[idx]
    ya, yb = ds.labels["task0"][idx], ds.labels["task1"][idx]

    [wb], [bb] = init.weights, init.biases
    wha, bha = init.heads["task0"]
    whb, bhb = init.heads["task1"]

    def head_grads(x_, y, wb_, bb_, wh, bh):
        latent = x_ @ wb_ + bb_
        resid = 2.0 * ((latent @ wh + bh) - y) / y.size
        return (latent.T @ resid, resid.sum(0), resid @ wh.T)

    m_ = x.shape[0]
    dwha, dbha, dla = head_grads(x, ya, wb, bb, wha, bha)
    dwhb, dbhb, dlb = head_grads(x, yb, wb, bb, whb, bhb)
    dlat = dla + dlb
    lr = cfg.initial_lr
    wb1 = wb - lr * (x.T @ dlat)
    bb1 = bb - lr * dlat.sum(0)
    wha1, bha1 = wha - lr * dwha, bha - lr * dbha
    whb1, bhb1 = whb - lr * dwhb, bhb - lr * dbhb

    ev = ds.splits["test"][:cfg.eval_batch_size]
    xe, yea, yeb = ds.inputs[ev], ds.labels["task0"][ev], ds.labels["task1"][ev]
    dl_a = head_grads(xe, yea, wb1, bb1, wha1, bha1)[2]
    dl_b = head_grads(xe, yeb, wb1, bb1, whb1, bhb1)[2]
    ga = np.concatenate([(xe.T @ dl_a).ravel(), dl_a.sum(0)])
    gb = np.concatenate([(xe.T @ dl_b).ravel(), dl_b.sum(0)])
    hand_cos = float(ga @ gb / (np.linalg.norm(ga) * np.linalg.norm(gb)))
    assert trace.gs_cosine[0] == pytest.approx(hand_cos, abs=1e-12)

    def mse(x_, y, wb_, bb_, wh, bh):
        pred = (x_ @ wb_ + bb_) @ wh + bh
        return float(np.mean((pred - y) ** 2))

    pre = mse(xe, yea, wb1, bb1, wha1, bha1)
    step_w = wb1 - lr * gb[:wb1.size].reshape(wb1.shape)
    step_b = bb1 - lr * gb[wb1.size:]
    post = mse(xe, yea, step_w, step_b, wha1, bha1)
    assert trace.lookahead["task0"][0] == pytest.approx((pre, post), abs=1e-12)
    assert scores.gradient_transference(trace, "task0") == pytest.approx(1.0 - post / pre,
                                                                         abs=1e-12)


# --- assemble_matrix ---


def test_assemble_symmetric_mirrors_single_direction():
    m = assemble_matrix("IAS", ["a", "b"], {("a", "b"): 0.6})
    assert m.get("a", "b") == 0.6
    assert m.get("b", "a") == 0.6
    assert m.is_complete()


def test_assemble_symmetric_conflict():
    with pytest.raises(MatrixAssemblyError, match="conflicting"):
        assemble_matrix("IAS", ["a", "b"], {("a", "b"): 0.6, ("b", "a"): 0.7})
    agreeing = assemble_matrix("IAS", ["a", "b"], {("a", "b"): 0.6, ("b", "a"): 0.6})
    assert agreeing.get("b", "a") == 0.6


def test_assemble_asymmetric_requires_all_ordered_pairs():
    values = {("a", "b"): 0.1, ("b", "a"): 0.2}
    m = assemble_matrix("LI", ["a", "b"], values)
    assert m.get("a", "b") == 0.1
    assert m.get("b", "a") == 0.2
    with pytest.raises(MatrixAssemblyError, match="ordered pair"):
        assemble_matrix("LI", ["a", "b", "c"],
                        {("a", "b"): 0.1, ("b", "a"): 0.2, ("a", "c"): 0.3,
                         ("c", "a"): 0.4, ("b", "c"): 0.5})


def test_assemble_rejects_unknown_or_diagonal_keys():
    with pytest.raises(MatrixAssemblyError, match="unknown"):
        assemble_matrix("TD", ["a", "b"], {("a", "z"): 0.0})
    with pytest.raises(MatrixAssemblyError, match="diagonal"):
        assemble_matrix("TD", ["a", "b"], {("a", "a"): 0.0})


def test_unknown_score_kind_rejected():
    with pytest.raises(ValueError, match="unknown score kind 'XX'"):
        assemble_matrix("XX", ["a", "b"], {("a", "b"): 0.5})


# --- range properties ---


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_ias_rsa_bounded_on_random_models(seed):
    rng = np.random.default_rng(seed)
    d = 3
    def random_model(name):
        return linear_stl(name, rng.normal(size=(d, 3)), rng.normal(size=3),
                          rng.normal(size=(3, 1)), rng.normal(size=1))
    model_a, model_b = random_model("a"), random_model("b")
    x = rng.normal(size=(6, d))
    ya, yb = rng.normal(size=(6, 1)), rng.normal(size=(6, 1))
    assert -1.0 <= scores.input_attribution_similarity(model_a, model_b, x, ya, yb) <= 1.0
    try:
        value = scores.rsa(model_a, model_b, x)
    except DegenerateInputError:
        return  # degenerate geometry: the range property only applies when defined
    assert -1.0 <= value <= 1.0
