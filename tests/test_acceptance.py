"""Acceptance gate: one test per advertised guarantee.

Each test_criterion_* function checks one end-user guarantee at its stated
tolerance; conftest.py prints a PASS/FAIL line per criterion after the run.
These tests favor directness over speed-tricks: every check here runs the
real code paths end to end.
"""

import dataclasses
import math
import time
from functools import partial

import numpy as np
import pytest

from mtl_affinity import autodiff as ad
from mtl_affinity import models
from mtl_affinity.evaluation import CostModel, evaluate, score_cost, score_cost_expression
from mtl_affinity.experiment import ExperimentConfig, run_experiment
from mtl_affinity.grouping import (
    Grouping,
    InfeasibleGroupingError,
    ModelCandidate,
    aggregate_performance,
    is_valid_grouping,
    optimize_grouping,
)
from mtl_affinity.matrices import TaskMatrix
from mtl_affinity.paper_data import check_tables, load_affinity, load_gain
from mtl_affinity.scores import (
    gradient_similarity,
    input_attribution_similarity,
    label_injection,
    rsa,
)
from mtl_affinity.stats import kendall_tau, spearman
from mtl_affinity.tasks import (
    MultiTaskDataset,
    TaskSpec,
    TaskSuite,
    generate_latent_factor_suite,
    save_dataset,
)
from oracles import best_grouping_naive, finite_difference_grad, kendall_tau_naive, spearman_naive


# --- criterion 1: published-table reproduction --------------------------------

# The two level-2 cells and two level-3 rows whose published values cannot be
# recovered from the published gain table (rank ties collapse differently);
# they are pinned to recomputed values and flagged, never silently passed.
KNOWN_DISCREPANT = {
    ("level2", "TD", "SemSeg"),
    ("level2", "TD", "Normal"),
    ("level3", "TD", "Normal"),
    ("level3", "RSA", "SemSeg"),
}
# Level-1/2 cells published at 2 decimals whose recomputed value sits within
# rounding of the print; pinned at 6 decimals instead of the loose +-0.005.
ROUNDING_PINNED = {
    ("level1", "IAS", "SemSeg"),
    ("level1", "IAS", "Keypts"),
    ("level1", "IAS", "Normal"),
    ("level1", "RSA", "Edges"),
    ("level1", "RSA", "Depth"),
    ("level1", "LI", "SemSeg"),
    ("level2", "IAS", "Depth"),
    ("level2", "IAS", "average"),
    ("level2", "RSA", "SemSeg"),
    ("level2", "RSA", "average"),
    ("level2", "TD", "average"),
}


def test_criterion_1_published_tables():
    started = time.monotonic()
    rows = check_tables()
    elapsed = time.monotonic() - started

    failing = [r.line() for r in rows if not r.ok]
    assert failing == [], "\n".join(failing)
    assert len(rows) == 36 + 36 + 30

    flagged = {(r.table, r.score, r.target) for r in rows if r.flagged}
    assert flagged == KNOWN_DISCREPANT | ROUNDING_PINNED

    # Spot-check headline cells straight from the tables.
    gain = load_gain()
    li = evaluate(gain, load_affinity("LI"))
    assert li.level1.summary == pytest.approx(0.47, abs=0.005)
    assert li.level2.per_target["SemSeg"] == pytest.approx(1.0, abs=0.005)
    td = evaluate(gain, load_affinity("TD"))
    assert td.level2.per_target["Depth"] == pytest.approx(1.0, abs=0.005)
    gs = evaluate(gain, load_affinity("GS"))
    assert gs.level2.summary == pytest.approx(0.40, abs=0.005)
    keypts = gs.level3["Keypts"]
    assert keypts.selected == "Edges"
    assert keypts.delta == pytest.approx(-28.3, abs=0.05)
    hits = sum(s.selected == s.true_best for s in li.level3.values())
    assert hits == 4  # LI picks the true best partner for 4 of 5 targets

    assert elapsed < 1.0, f"table checks took {elapsed:.2f}s"


# --- criterion 2: cost model ---------------------------------------------------

def test_criterion_2_cost_model():
    expected_expr = {
        "TD": "0",
        "IAS": "n*c_s",
        "RSA": "n*c_s",
        "LI": "n*c_s + 2*C(n,2)*c_s",
        "GS": "C(n,2)*2*c_s",
        "GT": "C(n,2)*2*c_s",
    }
    for score, expr in expected_expr.items():
        assert score_cost_expression(score) == expr

    c_s = 37.5
    for n in (2, 5, 10):
        model = CostModel(n=n, c_s=c_s)
        pairs = math.comb(n, 2)
        assert score_cost("TD", model) == 0.0
        assert score_cost("IAS", model) == n * c_s
        assert score_cost("RSA", model) == n * c_s
        assert score_cost("LI", model) == n * c_s + 2 * pairs * c_s
        assert score_cost("GS", model) == pairs * 2 * c_s
        assert score_cost("GT", model) == pairs * 2 * c_s


# --- criterion 3: gradient checks ---------------------------------------------

def _random_mlp_case(rng: np.random.Generator):
    """A random MLP as a backbone, an identity head with its loss, and an input batch.

    The drawn layers d_in -> hidden... -> d_out are all backbone, with a
    ReLU after every hidden layer and a linear last layer; the identity
    head passes that output to the loss unchanged. Depth and widths stay
    within 3 hidden layers and width 32. The fixed suite seed keeps every
    preactivation away from the ReLU kink at the finite-difference step
    size, so central differences are exact to O(h^2).
    """
    d_in = int(rng.integers(1, 9))
    batch = int(rng.integers(2, 7))
    hidden = [int(rng.integers(1, 33)) for _ in range(int(rng.integers(1, 4)))]
    classify = bool(rng.integers(0, 2))
    d_out = int(rng.integers(2, 6)) if classify else int(rng.integers(1, 4))

    params: list[np.ndarray] = []
    for fan_in, fan_out in zip([d_in, *hidden], [*hidden, d_out]):
        params.append(rng.normal(0.0, 0.5, (fan_in, fan_out)))
        params.append(rng.normal(0.0, 0.1, fan_out))
    inputs = rng.normal(0.0, 1.0, (batch, d_in))
    if classify:
        onehot = np.eye(d_out)[rng.integers(0, d_out, batch)]
        loss = partial(ad.softmax_cross_entropy, target=onehot)
    else:
        loss = partial(ad.mse_loss, target=rng.normal(0.0, 1.0, (batch, d_out)))
    head = ad.Head(np.eye(d_out), np.zeros(d_out), loss)
    return params[0::2], params[1::2], head, inputs


def test_criterion_3_gradient_checks():
    rng = np.random.default_rng(31)
    started = time.monotonic()
    for case in range(100):
        weights, biases, head, inputs = _random_mlp_case(rng)
        grads = ad.backward(weights, biases, [head], inputs, input_grad=True)

        def loss(_) -> float:
            return ad.losses(weights, biases, [head], inputs)[0]

        wrt = [*weights, *biases, head.weight, head.bias, inputs]
        for got, values in zip([*grads.params(), grads.inputs], wrt):
            # Perturbs ``values`` in place and restores it, so ``loss`` sees each step.
            numeric = finite_difference_grad(loss, values, step=1e-6)
            np.testing.assert_allclose(
                got, numeric, rtol=1e-5, atol=1e-7,
                err_msg=f"case {case}, array shape {values.shape}")
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"100 gradient checks took {elapsed:.2f}s"


# --- criterion 4: score properties ----------------------------------------------

def _random_rsa_case(rng: np.random.Generator):
    """Two random models plus a batch whose latents are nonconstant for both.

    An untrained model with a tiny hidden layer can zero out every ReLU unit
    for an example (or for nearly all inputs), leaving that latent row
    constant; RSA declares such rows degenerate by contract. Redraw the batch
    a bounded number of times, then give up on the model pair and redraw it.
    """
    while True:
        d_in = int(rng.integers(3, 10))
        config = models.BackboneConfig(d_in, (int(rng.integers(2, 9)),),
                                       int(rng.integers(3, 7)))
        model_a = models.Model(
            [TaskSpec("one", "regression", 1)], config,
            np.random.default_rng(int(rng.integers(1 << 32))))
        model_b = models.Model(
            [TaskSpec("other", "regression", 1)], config,
            np.random.default_rng(int(rng.integers(1 << 32))))
        batch = int(rng.integers(5, 20))
        for _ in range(20):
            inputs = rng.normal(0.0, 1.0, (batch, d_in))
            if all(np.ptp(model.latent(inputs), axis=1).min() > 0.0
                   for model in (model_a, model_b)):
                return model_a, model_b, inputs


def test_criterion_4_score_properties(tmp_path):
    rng = np.random.default_rng(88)
    for _ in range(50):
        model_a, model_b, inputs = _random_rsa_case(rng)
        batch = inputs.shape[0]
        labels_a = rng.normal(0.0, 1.0, (batch, 1))
        labels_b = rng.normal(0.0, 1.0, (batch, 1))

        self_ias = input_attribution_similarity(model_a, model_a, inputs,
                                                labels_a, labels_a)
        assert abs(float(self_ias) - 1.0) <= 1e-9
        self_rsa = rsa(model_a, model_a, inputs)
        assert abs(self_rsa - 1.0) <= 1e-9

        cross_ias = float(input_attribution_similarity(model_a, model_b, inputs,
                                                       labels_a, labels_b))
        cross_rsa = rsa(model_a, model_b, inputs)
        assert -1.0 <= cross_ias <= 1.0
        assert -1.0 <= cross_rsa <= 1.0

    # GS bounds over fresh tiny MTL trainings.
    for seed in range(50):
        suite = generate_latent_factor_suite(
            seed=seed, n_tasks=2, d_latent=3, d_in=6, n_examples=30,
            overlap=float(seed % 3) / 2.0, noise_std=0.1)
        backbone = models.BackboneConfig(suite.dataset.d_in, (4,), 3)
        cfg = models.TrainConfig(seed=seed, epochs=2, initial_lr=0.01, batch_size=16)
        [(_, trace)] = models.train_mtl([tuple(suite.specs)], suite.dataset, backbone, cfg)
        value = gradient_similarity(trace)
        assert -1.0 <= value <= 1.0

    # A task paired with a duplicate of itself: GS is 1 up to float rounding,
    # both as the natural score and as 100.0 in x100 display mode.
    base = generate_latent_factor_suite(
        seed=11, n_tasks=2, d_latent=4, d_in=8, n_examples=60, overlap=1.0,
        noise_std=0.05, kinds=("regression", "regression"))
    original = base.specs[0]
    twin = dataclasses.replace(original, name="twin")
    labels = {original.name: base.dataset.labels[original.name],
              "twin": base.dataset.labels[original.name].copy()}
    dup_dataset = MultiTaskDataset(base.dataset.inputs, labels,
                                   base.dataset.splits, base.dataset.seed)
    dup_dir = tmp_path / "dup"
    save_dataset(TaskSuite((original, twin), dup_dataset), dup_dir)

    for x100, shown in ((False, 1.0), (True, 100.0)):
        config = ExperimentConfig(
            dataset_path=str(dup_dir), scores=("GS",), seeds=(3,),
            hidden=(8,), latent_dim=4, epochs=3, batch_size=16,
            out_dir=str(tmp_path / f"dup-run-{int(x100)}"),
            display_gs_x100=x100)
        result = run_experiment(config)[0]
        natural = result.affinities["GS"].get("twin", original.name)
        assert abs(natural - 1.0) <= 1e-9
        text = (result.directory / "gs.csv").read_text(encoding="utf-8")
        cell = float(text.splitlines()[1].split(",")[2])
        assert cell == pytest.approx(shown, abs=1e-7)


# --- criterion 5: statistics oracles --------------------------------------------

def _non_constant_pair(rng: np.random.Generator, n: int, tied: bool):
    while True:
        if tied:
            xs = rng.integers(0, 6, n).tolist()
            ys = rng.integers(0, 6, n).tolist()
        else:
            xs = rng.permutation(n).tolist()
            ys = rng.permutation(n).tolist()
        if len(set(xs)) > 1 and len(set(ys)) > 1:
            return xs, ys


def test_criterion_5_stats_oracles():
    rng = np.random.default_rng(5150)
    for case in range(200):
        xs, ys = _non_constant_pair(rng, int(rng.integers(3, 41)), tied=case % 2 == 0)
        assert abs(kendall_tau(xs, ys) - kendall_tau_naive(xs, ys)) <= 1e-12
        assert abs(kendall_tau(xs, ys, variant="a")
                   - kendall_tau_naive(xs, ys, variant="a")) <= 1e-12
        assert abs(spearman(xs, ys) - spearman_naive(xs, ys)) <= 1e-12


# --- criterion 6: grouping vs exhaustive oracle ----------------------------------

def test_criterion_6_grouping_oracle():
    rng = np.random.default_rng(607)
    for case in range(50):
        n = 3 + case % 2
        tasks = tuple("abcd"[:n])
        gains = TaskMatrix(tasks, {
            (w, t): float(rng.integers(-9, 10))
            for w in tasks for t in tasks if w != t})
        budget = float(rng.integers(n - 1, 2 * n + 1))
        oracle_gains = {(t, w): gains.get(w, t)
                        for t in tasks for w in tasks if w != t}
        oracle = best_grouping_naive(tasks, oracle_gains, 1.0, budget)
        if oracle is None:
            with pytest.raises(InfeasibleGroupingError):
                optimize_grouping(tasks, gains, budget)
            continue
        grouping, total = optimize_grouping(tasks, gains, budget)
        assert total == oracle[0]
        oracle_key = tuple(sorted((tuple(sorted(t)), tuple(sorted(s)))
                                  for _, t, s in oracle[1]))
        assert grouping.encoding() == oracle_key
        assert is_valid_grouping(tasks, grouping) == []
        assert aggregate_performance(grouping, gains) == total

    # Reference fixtures: one legal assignment, one that serves b twice.
    abc = ("a", "b", "c")
    legal = Grouping((ModelCandidate(("a", "b"), ("a", "b"), 2.0),
                      ModelCandidate(("b", "c"), ("c",), 2.0)), budget=4.0)
    assert is_valid_grouping(abc, legal) == []
    double_serve = Grouping((ModelCandidate(("a", "b"), ("a", "b"), 2.0),
                             ModelCandidate(("b", "c"), ("b", "c"), 2.0)), budget=4.0)
    violations = is_valid_grouping(abc, double_serve)
    assert violations and any(v.subject == "b" for v in violations)


# --- criterion 7: end-to-end synthetic sanity ------------------------------------

def _probe_pair(seed: int, overlap: float):
    """Train the two STL models of a 2-task suite and score their similarity."""
    suite = generate_latent_factor_suite(
        seed=seed, n_tasks=2, d_latent=8, d_in=16, n_examples=600,
        overlap=overlap, noise_std=0.05,
        kinds=("regression", "regression"), shared_readouts=True)
    dataset = suite.dataset
    half = models.half_capacity(models.BackboneConfig(dataset.d_in, (32,), 4))
    cfg = models.TrainConfig(seed=seed, epochs=100, initial_lr=0.05,
                             lr_decay=0.98, batch_size=32)
    spec_a, spec_b = suite.specs
    [(stl_a, _)] = models.train_stl([spec_a], dataset, half, cfg)
    [(stl_b, _)] = models.train_stl([spec_b], dataset, half, cfg)

    batch = dataset.splits["test"][:256]
    inputs = dataset.inputs[batch]
    labels_a = dataset.labels[spec_a.name][batch]
    labels_b = dataset.labels[spec_b.name][batch]
    ias = float(input_attribution_similarity(stl_a, stl_b, inputs, labels_a, labels_b))
    rsa_value = rsa(stl_a, stl_b, inputs)
    return ias, rsa_value, suite, half, cfg, stl_a


def test_criterion_7_end_to_end(tmp_path):
    seeds = range(5)

    # (i) shared latent factors push IAS and RSA up.
    disjoint = [_probe_pair(seed, overlap=0.0) for seed in seeds]
    shared = [_probe_pair(seed, overlap=1.0) for seed in seeds]
    assert np.mean([r[0] for r in shared]) > np.mean([r[0] for r in disjoint])
    assert np.mean([r[1] for r in shared]) > np.mean([r[1] for r in disjoint])

    # (ii) injecting a task's own label beats its plain STL loss.
    li_values = []
    for _, _, suite, half, cfg, stl_a in disjoint:
        dataset = suite.dataset
        spec_a = suite.specs[0]
        test_idx = dataset.splits["test"]
        inputs = dataset.inputs[test_idx]
        labels = dataset.labels[spec_a.name][test_idx]
        [(injected, _)] = models.train_injected([(spec_a, spec_a)], dataset, half, cfg)
        injected_inputs = models.extend_inputs(inputs, spec_a, labels)
        task = {spec_a.name: labels}
        li_values.append(label_injection(stl_a.task_losses(inputs, task)[spec_a.name],
                                         injected.task_losses(injected_inputs, task)[spec_a.name]))
    assert np.mean(li_values) > 0.0

    # (iii) the full default pipeline finishes quickly and reproduces itself
    # bit for bit.
    taxonomy = tmp_path / "taxonomy.csv"
    taxonomy.write_text("task,task0,task1,task2\n"
                        "task0,0,-2,-4\n"
                        "task1,-2,0,-6\n"
                        "task2,-4,-6,0\n", encoding="utf-8")
    config = ExperimentConfig(taxonomy_path=str(taxonomy),
                              scores=("TD", "IAS", "RSA", "LI", "GS", "GT"),
                              seeds=(0,), out_dir=str(tmp_path / "full"))
    assert config.n_tasks == 3 and config.n_examples == 2000 and config.epochs == 20

    started = time.monotonic()
    first = run_experiment(config)[0]
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"default pipeline took {elapsed:.1f}s"

    snapshot = {p.name: p.read_bytes() for p in sorted(first.directory.iterdir())}
    second = run_experiment(config)[0]
    assert second.directory == first.directory
    rerun = {p.name: p.read_bytes() for p in sorted(second.directory.iterdir())}
    assert rerun == snapshot
