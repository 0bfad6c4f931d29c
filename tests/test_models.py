"""Model construction, capacity accounting, and the training loop."""

import multiprocessing
import pickle
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtl_affinity import models as m
from mtl_affinity.scores import input_x_gradient
from mtl_affinity.seeding import INIT, model_stream
from mtl_affinity.tasks import TaskSpec, generate_latent_factor_suite
from oracles import finite_difference_grad, pair_probes


def suite(**overrides):
    kwargs = dict(seed=5, n_tasks=2, d_latent=4, d_in=6, n_examples=80,
                  overlap=1.0, noise_std=0.05)
    kwargs.update(overrides)
    return generate_latent_factor_suite(**kwargs)


def quick_cfg(**overrides):
    kwargs = dict(seed=5, epochs=4, initial_lr=0.05, lr_decay=0.95, batch_size=16)
    kwargs.update(overrides)
    return m.TrainConfig(**kwargs)


BACKBONE = m.BackboneConfig(6, (8,), 4)


# --- capacity accounting ---


def test_multiply_add_count_config():
    assert m.multiply_add_count(m.BackboneConfig(4, (8,), 2)) == 48
    assert m.multiply_add_count(m.BackboneConfig(4, (4,), 2)) == 24


def test_multiply_add_count_mtl_model():
    cfg = m.BackboneConfig(4, (), 8)
    a = TaskSpec("a", "classification", 2)
    b = TaskSpec("b", "classification", 3)
    model = m.Model([a, b], cfg, np.random.default_rng(0))
    assert m.multiply_add_count(model) == 32 + 16 + 24


def test_multiply_add_count_stl_model():
    model = m.Model([TaskSpec("a", "regression", 2)],
                    m.BackboneConfig(4, (8,), 2), np.random.default_rng(0))
    assert m.multiply_add_count(model) == 48 + 4


def test_multiply_add_count_rejects_junk():
    with pytest.raises(TypeError):
        m.multiply_add_count([1, 2, 3])


def test_half_capacity_halves_hidden_widths():
    half = m.half_capacity(m.BackboneConfig(4, (8,), 2))
    assert half.hidden_widths == (4,)
    assert m.multiply_add_count(half) == 24


def test_half_capacity_needs_hidden_layer():
    with pytest.raises(ValueError):
        m.half_capacity(m.BackboneConfig(4, (), 8))


def test_half_capacity_infeasible():
    with pytest.raises(ValueError, match="budget"):
        m.half_capacity(m.BackboneConfig(1, (1,), 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=20),
       st.lists(st.integers(min_value=2, max_value=40), min_size=1, max_size=3),
       st.integers(min_value=1, max_value=20))
def test_half_capacity_bound_and_composition(d_in, hidden, latent):
    full = m.BackboneConfig(d_in, tuple(hidden), latent)
    half = m.half_capacity(full)
    assert m.multiply_add_count(half) <= 0.5 * m.multiply_add_count(full)
    try:
        quarter = m.half_capacity(half)
    except ValueError:
        return  # bound can become infeasible at width 1; that is the contract
    assert m.multiply_add_count(quarter) <= 0.25 * m.multiply_add_count(full)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10),
       st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=3),
       st.integers(min_value=1, max_value=10),
       st.integers(min_value=0, max_value=3))
def test_count_strictly_increasing_in_each_width(d_in, hidden, latent, which):
    base = m.BackboneConfig(d_in, tuple(hidden), latent)
    grown = list(hidden)
    grown[which % len(hidden)] += 1
    bigger = m.BackboneConfig(d_in, tuple(grown), latent)
    assert m.multiply_add_count(bigger) > m.multiply_add_count(base)


def test_two_half_stls_fit_one_full_mtl_budget():
    full = m.BackboneConfig(6, (8, 8), 4)
    half = m.half_capacity(full)
    a = TaskSpec("a", "regression", 1)
    b = TaskSpec("b", "classification", 3)
    rng = np.random.default_rng(0)
    stl_a = m.Model([a], half, rng)
    stl_b = m.Model([b], half, rng)
    mtl = m.Model([a, b], full, rng)
    assert (m.multiply_add_count(stl_a) + m.multiply_add_count(stl_b)
            <= m.multiply_add_count(mtl))


# --- configs ---


def test_train_config_validation():
    with pytest.raises(ValueError):
        m.TrainConfig(seed=0, epochs=0)
    with pytest.raises(ValueError):
        m.TrainConfig(seed=0, lr_decay=0.0)
    for lr in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="initial_lr must be finite and > 0"):
            m.TrainConfig(seed=0, initial_lr=lr)
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        m.TrainConfig(seed=-3)
    assert m.TrainConfig(seed=0, lr_decay=1.0).lr_at(9) == pytest.approx(0.05)


def test_lr_schedule_strictly_decreasing():
    cfg = quick_cfg(epochs=10)
    lrs = [cfg.lr_at(t) for t in range(10)]
    assert all(a > b for a, b in zip(lrs, lrs[1:]))
    assert lrs[3] == pytest.approx(0.05 * 0.95 ** 3)


def test_backbone_config_rejects_nonpositive_widths():
    with pytest.raises(ValueError):
        m.BackboneConfig(0, (4,), 2)
    with pytest.raises(ValueError):
        m.BackboneConfig(4, (0,), 2)


@pytest.mark.parametrize("args, field, value", [
    ((3, (8.9, 4.2), 4), "hidden_widths[0]", 8.9), ((3, (8, True), 4), "hidden_widths[1]", True),
    ((3, (8, "4"), 4), "hidden_widths[1]", "4"), ((3.5, (8,), 4), "input_dim", 3.5),
    ((True, (8,), 4), "input_dim", True), ((3, (8,), 4.0), "latent_dim", 4.0),
    ((3, (8,), np.True_), "latent_dim", np.True_),
])
def test_backbone_config_rejects_non_integers(args, field, value):
    with pytest.raises(ValueError, match=f"^{re.escape(field)} must be an integer, "
                                         f"got {re.escape(repr(value))}$"):
        m.BackboneConfig(*args)


@pytest.mark.parametrize("field", ["seed", "epochs", "batch_size", "eval_batch_size"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
def test_train_config_rejects_non_integers(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
        m.TrainConfig(**{"seed": 0, field: value})


@pytest.mark.parametrize("field", ["initial_lr", "lr_decay"])
@pytest.mark.parametrize("value", [True, np.True_])
def test_train_config_rejects_bools_in_float_fields(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a real number, got {value!r}$"):
        m.TrainConfig(**{"seed": 0, field: value})


@pytest.mark.parametrize("field, value", [("initial_lr", "0.05"), ("lr_decay", None)])
def test_train_config_rejects_non_reals_in_float_fields(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a real number, got {value!r}$"):
        m.TrainConfig(**{"seed": 0, field: value})


def test_integer_fields_accept_numpy_integers():
    config = m.BackboneConfig(np.int64(3), (np.int32(8), 4), np.int64(2))
    assert config.hidden_widths == (8, 4)
    assert all(type(w) is int for w in config.hidden_widths)
    assert m.TrainConfig(seed=np.int64(1), epochs=np.int32(2)).epochs == 2


# --- STL training ---


def test_train_stl_deterministic():
    s = suite()
    runs = [m.train_stl([s.specs[0]], s.dataset, BACKBONE, quick_cfg())[0] for _ in range(2)]
    assert runs[0][1].val_loss == runs[1][1].val_loss
    for got, want in zip(runs[0][0].params(), runs[1][0].params(), strict=True):
        np.testing.assert_array_equal(got, want)


def val_loss(model, dataset, tasks):
    """The combined validation loss the trainer records, recomputed from a model."""
    idx = dataset.splits["val"]
    labels = {t: dataset.labels[t][idx] for t in tasks}
    return sum(model.task_losses(dataset.inputs[idx], labels).values())


def test_train_stl_single_epoch_uses_that_snapshot():
    s = suite()
    [(model, trace)] = m.train_stl([s.specs[0]], s.dataset, BACKBONE, quick_cfg(epochs=1))
    assert trace.epochs == 1
    assert trace.best_epoch == 0
    assert val_loss(model, s.dataset, ["task0"]) == trace.combined_val[0]


def test_train_stl_best_epoch_minimizes_val():
    s = suite()
    [(model, trace)] = m.train_stl([s.specs[0]], s.dataset, BACKBONE, quick_cfg(epochs=12))
    best = trace.best_epoch
    assert 0 < best < trace.epochs - 1  # so the returned model is a restored one
    assert all(trace.combined_val[best] <= v for v in trace.combined_val)
    assert not any(v < trace.combined_val[best] for v in trace.combined_val[:best])
    assert val_loss(model, s.dataset, ["task0"]) == trace.combined_val[best]


def test_train_stl_missing_task():
    s = suite()
    ghost = TaskSpec("ghost", "regression", 1)
    with pytest.raises(KeyError):
        m.train_stl([ghost], s.dataset, BACKBONE, quick_cfg())


@pytest.mark.parametrize("bad", [7, -1, 1.5])
@pytest.mark.parametrize("train", [
    lambda reg, cls, *args: m.train_stl([cls], *args),
    lambda reg, cls, *args: m.train_mtl([(reg, cls)], *args),
    lambda reg, cls, *args: m.train_injected([(cls, reg)], *args),
    lambda reg, cls, *args: m.train_injected([(reg, cls)], *args),
], ids=["stl", "mtl", "injected-target", "injected-partner"])
def test_trainers_reject_bad_class_ids_before_training(monkeypatch, train, bad):
    s = suite()
    reg, cls = s.specs
    labels = dict(s.dataset.labels)
    labels[cls.name] = labels[cls.name].astype(np.float64)
    labels[cls.name][3] = bad
    dataset = replace(s.dataset, labels=labels)

    def no_backward(*args, **kwargs):
        raise AssertionError("training started on labels that misfit their task")

    monkeypatch.setattr(m.ad, "backward", no_backward)
    with pytest.raises(ValueError, match=r"task 'task1': class ids must be integers in \[0, 3\)"):
        train(reg, cls, dataset, BACKBONE, quick_cfg())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_stl_divergence_carries_epoch():
    s = suite()
    with pytest.raises(m.TrainingDivergedError) as info:
        m.train_stl([s.specs[0]], s.dataset, BACKBONE, quick_cfg(initial_lr=1e6))
    assert info.value.epoch == 0


def _diverge(key: str, epoch: int):
    raise m.TrainingDivergedError(key, epoch)


def test_divergence_survives_a_worker_process():
    error = pickle.loads(pickle.dumps(m.TrainingDivergedError("stl/task0", 3)))
    assert (type(error), error.key, error.epoch) == (m.TrainingDivergedError, "stl/task0", 3)
    assert str(error) == "training diverged for stl/task0 at epoch 3"
    with ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("spawn")) as pool:
        with pytest.raises(m.TrainingDivergedError) as info:
            pool.submit(_diverge, "mtl/task0/task1", 7).result()
    assert (info.value.key, info.value.epoch) == ("mtl/task0/task1", 7)


def test_train_stl_solves_noiseless_linear_task():
    s = suite(n_tasks=1, d_latent=3, d_in=3, n_examples=240, noise_std=0.0,
              kinds=["regression"], nonlinear=False)
    cfg = m.TrainConfig(seed=3, epochs=300, initial_lr=0.02, lr_decay=0.999, batch_size=16)
    [(model, _)] = m.train_stl([s.specs[0]], s.dataset, m.BackboneConfig(3, (32,), 8), cfg)
    idx = s.dataset.splits["train"]
    labels = {"task0": s.dataset.labels["task0"][idx]}
    assert model.task_losses(s.dataset.inputs[idx], labels)["task0"] < 1e-3


# --- MTL training ---


def duplicated_task_suite():
    s = suite(kinds=["regression", "regression"], overlap=1.0, noise_std=0.0,
              shared_readouts=True)
    np.testing.assert_array_equal(s.dataset.labels["task0"], s.dataset.labels["task1"])
    return s


def test_train_mtl_duplicated_tasks_cosine_one():
    s = duplicated_task_suite()
    [(_, trace)] = m.train_mtl([(s.specs[0], s.specs[1])], s.dataset, BACKBONE, quick_cfg())
    assert trace.gs_cosine is not None
    for c in trace.gs_cosine:
        assert c == pytest.approx(1.0, abs=1e-9)


def test_train_mtl_deterministic_trace():
    s = suite()
    t1 = m.train_mtl([(s.specs[0], s.specs[1])], s.dataset, BACKBONE, quick_cfg())[0][1]
    t2 = m.train_mtl([(s.specs[0], s.specs[1])], s.dataset, BACKBONE, quick_cfg())[0][1]
    assert t1 == t2


def test_train_mtl_records_both_tasks_and_directions():
    s = suite()
    [(_, trace)] = m.train_mtl([(s.specs[0], s.specs[1])], s.dataset, BACKBONE, quick_cfg())
    assert set(trace.val_loss[0]) == {"task0", "task1"}
    assert set(trace.lookahead) == {"task0", "task1"}
    assert len(trace.lookahead["task0"]) == trace.epochs
    assert trace.combined_val[0] == pytest.approx(sum(trace.val_loss[0].values()))


def test_train_mtl_recorded_quantities_recomputable_from_snapshot():
    s = suite()
    cfg = quick_cfg(epochs=3)
    [(model, trace)] = m.train_mtl([(s.specs[0], s.specs[1])], s.dataset, BACKBONE, cfg)

    epoch = trace.best_epoch
    fresh = m.Model([s.specs[0], s.specs[1]], BACKBONE, np.random.default_rng(99))
    for param, trained in zip(fresh.params(), model.params(), strict=True):
        param[...] = trained
    eval_idx = s.dataset.splits["test"][:cfg.eval_batch_size]
    eval_inputs = s.dataset.inputs[eval_idx]
    eval_labels = {t: s.dataset.labels[t][eval_idx] for t in ("task0", "task1")}

    cos, lookahead = pair_probes(fresh, cfg.lr_at(epoch), eval_inputs, eval_labels)
    assert cos == pytest.approx(trace.gs_cosine[epoch], abs=1e-12)
    for t in ("task0", "task1"):
        assert lookahead[t] == pytest.approx(trace.lookahead[t][epoch], abs=1e-12)


def test_train_mtl_without_probes_trains_the_same_model():
    s = suite()
    pair = (s.specs[0], s.specs[1])
    [(probed, probed_trace)] = m.train_mtl([pair], s.dataset, BACKBONE, quick_cfg())
    [(plain, plain_trace)] = m.train_mtl([pair], s.dataset, BACKBONE, quick_cfg(), probes=False)
    assert plain_trace.gs_cosine is None
    assert plain_trace.lookahead is None
    assert plain_trace.val_loss == probed_trace.val_loss
    for got, want in zip(plain.params(), probed.params(), strict=True):
        np.testing.assert_array_equal(got, want)


def test_train_mtl_rejects_same_name_pair():
    s = suite()
    with pytest.raises(ValueError):
        m.Model([s.specs[0], s.specs[0]], BACKBONE, np.random.default_rng(0))


# --- injected training ---


def test_injected_input_width_is_d_in_plus_onehot():
    s = suite(kinds=["regression", "classification"], n_classes=4)
    half = m.half_capacity(BACKBONE)
    [(model, _)] = m.train_injected([(s.specs[0], s.specs[1])], s.dataset, half,
                                quick_cfg(epochs=1))
    assert model.config.input_dim == s.dataset.d_in + 4
    assert model.config.hidden_widths == half.hidden_widths


def test_injected_regression_partner_raw_width():
    s = suite(kinds=["classification", "regression"])
    half = m.half_capacity(BACKBONE)
    [(model, _)] = m.train_injected([(s.specs[0], s.specs[1])], s.dataset, half,
                                quick_cfg(epochs=1))
    assert model.config.input_dim == s.dataset.d_in + 1


def test_injecting_own_label_beats_plain_stl():
    s = suite(kinds=["classification", "classification"], n_examples=300,
              noise_std=0.0, n_classes=3)
    half = m.half_capacity(m.BackboneConfig(6, (16,), 8))
    cfg = m.TrainConfig(seed=7, epochs=12, initial_lr=0.1, lr_decay=0.95, batch_size=32)
    target = s.specs[0]
    [(stl, _)] = m.train_stl([target], s.dataset, half, cfg)
    [(inj, _)] = m.train_injected([(target, target)], s.dataset, half, cfg)

    test_idx = s.dataset.splits["test"]
    x, y = s.dataset.inputs[test_idx], s.dataset.labels["task0"][test_idx]
    stl_loss = stl.task_losses(x, {"task0": y})["task0"]
    inj_loss = inj.task_losses(m.extend_inputs(x, target, y), {"task0": y})["task0"]
    assert inj_loss <= stl_loss


def test_encode_labels_shapes_and_validation():
    cls = TaskSpec("c", "classification", 3)
    onehot = m.encode_labels(cls, np.array([0, 2, 1]))
    np.testing.assert_array_equal(onehot, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    np.testing.assert_array_equal(m.encode_labels(cls, np.array([[2.0], [0.0]])),
                                  [[0, 0, 1], [1, 0, 0]])
    with pytest.raises(ValueError):
        m.encode_labels(cls, np.array([0, 3]))
    with pytest.raises(ValueError, match=r"task 'c': class ids must be integers in \[0, 3\)"):
        m.encode_labels(cls, np.array([0.0, 1.5]))
    reg = TaskSpec("r", "regression", 1)
    assert m.encode_labels(reg, np.array([0.5, 1.5])).shape == (2, 1)
    wide = TaskSpec("w", "regression", 2)
    with pytest.raises(ValueError, match="task 'w': 3 label columns, expected 2"):
        m.encode_labels(wide, np.zeros((2, 3)))


# --- gradients of whole models ---


def _check_model_gradients(model, x, labels):
    """Every parameter gradient of the summed task losses against central differences."""
    grads = model.gradients(x, labels)
    assert grads.losses == [model.task_losses(x, {t: y})[t] for t, y in labels.items()]

    def loss(_) -> float:
        return sum(model.task_losses(x, labels).values())

    for i, (param, got) in enumerate(zip(model.params(), grads.params())):
        # Perturbs the live parameter in place and restores it.
        numeric = finite_difference_grad(loss, param)
        np.testing.assert_allclose(got, numeric, rtol=1e-5, atol=1e-7,
                                   err_msg=f"parameter {i}, shape {param.shape}")


def test_model_gradients_match_central_differences():
    rng = np.random.default_rng(3)
    reg = TaskSpec("r", "regression", 2)
    cls = TaskSpec("c", "classification", 3)
    config = m.BackboneConfig(5, (7, 6), 4)
    x = rng.normal(size=(9, 5))
    y = {"r": rng.normal(size=(9, 2)), "c": rng.integers(0, 3, 9)}

    for spec in (reg, cls):
        stl = m.Model([spec], config, rng)
        _check_model_gradients(stl, x, {spec.name: y[spec.name]})
        # The IAS attribution is the input times the input gradient.
        x_probe = x.copy()
        numeric = finite_difference_grad(
            lambda _: stl.task_losses(x_probe, {spec.name: y[spec.name]})[spec.name], x_probe)
        np.testing.assert_allclose(input_x_gradient(stl, x, y[spec.name]), x * numeric,
                                   rtol=1e-5, atol=1e-7)

    _check_model_gradients(m.Model([reg, cls], config, rng), x, y)

    widened = replace(config, input_dim=config.input_dim + reg.output_dim)
    injected = m.Model([cls], widened, rng)
    _check_model_gradients(injected, m.extend_inputs(x, reg, y["r"]), {"c": y["c"]})


def test_model_rejects_a_task_it_does_not_serve():
    a, b = TaskSpec("a", "regression", 1), TaskSpec("b", "classification", 3)
    model = m.Model([a, b], BACKBONE, np.random.default_rng(0))
    x = np.zeros((2, 6))
    for call in (model.task_losses, model.gradients):
        with pytest.raises(KeyError, match=r"\['a', 'b'\], not 'c'"):
            call(x, {"c": np.zeros((2, 1))})
