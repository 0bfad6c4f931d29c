"""The stacked trainer against the one-model-at-a-time reference, bit for bit.

``train_stl``, ``train_mtl`` and ``train_injected`` stack the parameters of
all their models, injected models of every label width included, and take
one backward pass and one SGD step per batch for the whole stack. Each
model must still come out exactly as ``oracles.reference_train`` trains it
alone: every parameter and every ``TrainTrace`` field equal to the bit,
whatever its stack mates are.
"""

from dataclasses import replace
from itertools import permutations

import pytest

from mtl_affinity import autodiff as ad
from mtl_affinity import models as m
from mtl_affinity.tasks import MultiTaskDataset, TaskSpec, generate_latent_factor_suite
from oracles import reference_train, reference_train_injected

BACKBONE = m.BackboneConfig(6, (8, 5), 4)
CFG = m.TrainConfig(seed=3, epochs=4, initial_lr=0.05, batch_size=16, eval_batch_size=32)
KINDS = ["regression", "classification", "regression", "classification"]


@pytest.fixture(scope="module")
def suite():
    s = generate_latent_factor_suite(seed=11, n_tasks=4, d_latent=4, d_in=6,
                                     n_examples=110, overlap=0.5, noise_std=0.1,
                                     kinds=KINDS, n_classes=3)
    # The last batch of every epoch is a short one.
    assert len(s.dataset.splits["train"]) % CFG.batch_size != 0
    assert {spec.output_dim for spec in s.specs} == {1, 3}
    return s


def assert_same(got, want):
    """Two (model, trace) results are equal to the bit."""
    (got_model, got_trace), (want_model, want_trace) = got, want
    assert got_model.config == want_model.config
    assert list(got_model.specs) == list(want_model.specs)
    got_params, want_params = got_model.params(), want_model.params()
    assert len(got_params) == len(want_params)
    for i, (value, want) in enumerate(zip(got_params, want_params)):
        assert value.shape == want.shape, i
        assert value.tobytes() == want.tobytes(), i
    assert got_trace == want_trace


def stl_reference(spec, dataset, backbone=BACKBONE, cfg=CFG):
    return reference_train(m.model_key("stl", [spec.name]), [spec], dataset, backbone, cfg)


def test_stl_stack_of_mixed_heads_matches_reference(suite):
    got = m.train_stl(suite.specs, suite.dataset, BACKBONE, CFG)
    assert len(got) == len(suite.specs)
    for spec, result in zip(suite.specs, got):
        assert_same(result, stl_reference(spec, suite.dataset))


@pytest.mark.parametrize("probes", [True, False])
def test_mtl_stack_matches_reference(suite, probes):
    pairs = [(a, b) for i, a in enumerate(suite.specs) for b in suite.specs[i + 1:]]
    got = m.train_mtl(pairs, suite.dataset, BACKBONE, CFG, probes=probes)
    for (a, b), result in zip(pairs, got):
        want = reference_train(m.model_key("mtl", [a.name, b.name]), [a, b], suite.dataset,
                               BACKBONE, CFG, probes=probes)
        assert_same(result, want)
        assert (result[1].gs_cosine is not None) == probes


def test_injected_stacks_match_reference(suite):
    half = m.half_capacity(BACKBONE)
    # Partners of width 1 and 3 share one stack; a task may inject its own label.
    pairs = [*permutations(suite.specs, 2), (suite.specs[1], suite.specs[1])]
    got = m.train_injected(pairs, suite.dataset, half, CFG)
    for (target, partner), result in zip(pairs, got):
        assert_same(result, reference_train_injected(target, partner, suite.dataset, half, CFG))


def test_stack_of_one_matches_reference(suite):
    for spec in suite.specs[:2]:
        [result] = m.train_stl([spec], suite.dataset, BACKBONE, CFG)
        assert_same(result, stl_reference(spec, suite.dataset))


def test_changing_stack_mates_changes_no_model(suite):
    a, b, c, d = suite.specs
    want = stl_reference(a, suite.dataset)
    for tasks in ([a, b, c, d], [d, a], [c, b, a]):
        results = dict(zip(tasks, m.train_stl(tasks, suite.dataset, BACKBONE, CFG)))
        assert_same(results[a], want)


def test_stack_mates_peaking_at_different_epochs_keep_their_own_best(suite):
    got = m.train_stl(suite.specs, suite.dataset, BACKBONE, CFG)
    best = [trace.best_epoch for _, trace in got]
    # The two classification models share one head group and peak apart, so
    # both the backbone and the head-group best copies are masked by slice.
    classification = [b for spec, b in zip(suite.specs, best) if spec.kind == "classification"]
    assert len(set(classification)) == 2
    assert CFG.epochs - 1 in best
    for spec, result in zip(suite.specs, got):
        assert_same(result, stl_reference(spec, suite.dataset))


def test_one_backward_and_one_step_per_batch_for_the_whole_stack(suite, monkeypatch):
    calls = {"backward": 0, "sgd_step": 0}
    for name in calls:
        def counted(*args, _original=getattr(ad, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(ad, name, counted)
    pairs = [(a, b) for i, a in enumerate(suite.specs) for b in suite.specs[i + 1:]]
    n_train = len(suite.dataset.splits["train"])
    steps = CFG.epochs * -(-n_train // CFG.batch_size)
    m.train_mtl(pairs, suite.dataset, BACKBONE, CFG, probes=False)
    assert calls == {"backward": steps, "sgd_step": steps}

    # The probes take one backward per head slot of the one MTL stack per epoch.
    calls.update(backward=0, sgd_step=0)
    m.train_mtl(pairs, suite.dataset, BACKBONE, CFG, probes=True)
    assert calls == {"backward": steps + 2 * CFG.epochs, "sgd_step": steps}

    # Injected models with partners of width 1 and 3 make one stack too.
    calls.update(backward=0, sgd_step=0)
    m.train_injected(list(permutations(suite.specs, 2)), suite.dataset,
                     m.half_capacity(BACKBONE), CFG)
    assert calls == {"backward": steps, "sgd_step": steps}


def test_training_steps_overwrite_one_gradient_buffer_laid_out_like_the_stack(suite, monkeypatch):
    """Every step of a stack passes the same ``out``; the GS/GT probes allocate their own."""
    buffers = []

    def recorded(*args, _original=ad.backward, **kwargs):
        buffers.append(kwargs.get("out"))
        return _original(*args, **kwargs)
    monkeypatch.setattr(ad, "backward", recorded)
    pairs = [(a, b) for i, a in enumerate(suite.specs) for b in suite.specs[i + 1:]]
    steps = CFG.epochs * -(-len(suite.dataset.splits["train"]) // CFG.batch_size)
    [(model, _), *_] = m.train_mtl(pairs, suite.dataset, BACKBONE, CFG, probes=True)
    reused = [out for out in buffers if out is not None]
    assert len(reused) == steps and all(out is reused[0] for out in reused)
    assert buffers.count(None) == 2 * CFG.epochs
    stack_flat = model.weights[0].base
    assert reused[0].flat.size == stack_flat.size and reused[0].flat is not stack_flat


def test_trained_models_are_views_into_one_stack(suite):
    first, second = m.train_stl(suite.specs[:2], suite.dataset, BACKBONE, CFG)
    for a, b in zip(first[0].params()[:-2], second[0].params()[:-2]):
        assert a.base is not None and a.base is b.base

    # Injected models of both label widths: one array holds every parameter,
    # and each first weight is the view of its model's own input rows.
    reg, cls = suite.specs[:2]
    injected = [model for model, _ in m.train_injected([(reg, cls), (cls, reg)], suite.dataset,
                                                       m.half_capacity(BACKBONE), CFG)]
    bases = [p.base for model in injected for p in model.params()]
    assert bases[0] is not None and all(base is bases[0] for base in bases)
    for model in injected:
        assert model.weights[0].shape == (model.config.input_dim,
                                          model.config.hidden_widths[0])


# --- misuse and divergence ---


def with_huge_task(dataset: MultiTaskDataset, *names: str):
    """The dataset plus regression tasks whose labels overflow the squared error."""
    huge = {name: dataset.labels["task0"] * 1e200 + 1e200 for name in names}
    return (MultiTaskDataset(dataset.inputs, {**dataset.labels, **huge}, dataset.splits,
                             dataset.seed),
            [TaskSpec(name, "regression", 1) for name in names])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_names_the_diverging_slice(suite):
    dataset, [huge] = with_huge_task(suite.dataset, "huge")
    with pytest.raises(m.TrainingDivergedError) as info:
        m.train_stl([*suite.specs, huge], dataset, BACKBONE, CFG)
    assert (info.value.key, info.value.epoch) == ("stl/huge", 0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_tie_goes_to_plan_order(suite):
    dataset, [huge] = with_huge_task(suite.dataset, "huge")
    reg, cls = suite.specs[0], suite.specs[1]
    # Both huge models diverge in the same step, and partners of width 3 and
    # 1 share the stack; the huge model first in plan order is named.
    pairs = [(reg, cls), (huge, reg), (huge, cls)]
    with pytest.raises(m.TrainingDivergedError) as info:
        m.train_injected(pairs, dataset, m.half_capacity(BACKBONE), CFG)
    assert (info.value.key, info.value.epoch) == ("inj/huge/task0", 0)


def with_huge_val_labels(dataset: MultiTaskDataset, *names: str):
    """The dataset plus regression tasks that are task0 except on the val rows.

    There the labels overflow the squared error, so training stays finite
    and the first validation loss does not.
    """
    val = dataset.splits["val"]
    huge = {}
    for name in names:
        labels = dataset.labels["task0"].copy()
        labels[val] = 1e200
        huge[name] = labels
    return (MultiTaskDataset(dataset.inputs, {**dataset.labels, **huge}, dataset.splits,
                             dataset.seed),
            [TaskSpec(name, "regression", 1) for name in names])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_validation_divergence_names_the_diverging_slice(suite):
    dataset, [huge] = with_huge_val_labels(suite.dataset, "huge")
    a, b, c, d = suite.specs
    with pytest.raises(m.TrainingDivergedError) as info:
        m.train_stl([a, b, huge, c, d], dataset, BACKBONE, CFG)
    assert (info.value.key, info.value.epoch) == ("stl/huge", 0)

    # A tie goes to plan order, as for a step divergence.
    pairs = [(a, b), (huge, a), (huge, b)]
    with pytest.raises(m.TrainingDivergedError) as info:
        m.train_injected(pairs, dataset, m.half_capacity(BACKBONE), CFG)
    assert (info.value.key, info.value.epoch) == ("inj/huge/task0", 0)


@pytest.fixture
def no_training(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("training started")
    monkeypatch.setattr(ad, "backward", refuse)


def test_missing_labels_fail_before_training(suite, no_training):
    ghost = TaskSpec("ghost", "regression", 1)
    a = suite.specs[0]
    calls = [lambda: m.train_stl([a, ghost], suite.dataset, BACKBONE, CFG),
             lambda: m.train_mtl([(a, ghost)], suite.dataset, BACKBONE, CFG),
             lambda: m.train_injected([(a, ghost)], suite.dataset, BACKBONE, CFG)]
    for call in calls:
        with pytest.raises(KeyError, match="ghost"):
            call()


def test_empty_job_list_fails(suite, no_training):
    for train in (m.train_stl, m.train_mtl, m.train_injected):
        with pytest.raises(ValueError, match="no models"):
            train([], suite.dataset, BACKBONE, CFG)


def test_duplicate_keys_fail_before_training(suite, no_training):
    a, b = suite.specs[:2]
    with pytest.raises(ValueError, match="stl/task0"):
        m.train_stl([a, b, a], suite.dataset, BACKBONE, CFG)
    with pytest.raises(ValueError, match="inj/task0/task1"):
        m.train_injected([(a, b), (a, b)], suite.dataset, BACKBONE, CFG)


@pytest.mark.parametrize("width", [5, 7])
def test_wrong_input_width_fails_before_any_model_is_built(suite, monkeypatch, width):
    """Each trainer checks its backbone's input_dim against the suite's d_in = 6."""
    def refuse(*args, **kwargs):
        raise AssertionError("a model was built")
    monkeypatch.setattr(m.Model, "__init__", refuse)
    wrong = replace(BACKBONE, input_dim=width)
    a, b = suite.specs[:2]
    calls = [("train_stl", "backbone", "stl/task0",
              lambda: m.train_stl([a, b], suite.dataset, wrong, CFG)),
             ("train_mtl", "backbone", "mtl/task0/task1",
              lambda: m.train_mtl([(a, b)], suite.dataset, wrong, CFG)),
             ("train_injected", "half_backbone", "inj/task0/task1",
              lambda: m.train_injected([(a, b), (b, a)], suite.dataset,
                                       m.half_capacity(wrong), CFG))]
    for trainer, field, key, call in calls:
        with pytest.raises(ValueError) as info:
            call()
        message = str(info.value)
        for part in (f"{trainer}:", f"{field}.input_dim is {width}", "width 6",
                     f"first model {key}"):
            assert part in message
