"""Harness tests: config plumbing, file inventory, round trips, determinism."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

import mtl_affinity
from mtl_affinity import experiment
from mtl_affinity.evaluation import (
    MODEL_FAMILIES,
    CostModel,
    mtl_gain,
    score_cost,
)
from mtl_affinity.experiment import (
    ExperimentConfig,
    ExperimentError,
    _SeedRun,
    costs_csv,
    manifest_json,
    plan_roster,
    run_experiment,
    scatter_csv,
)
from mtl_affinity.evaluation import (
    SCORE_KINDS,
    level1_csv,
    level2_csv,
    level3_csv,
)
from mtl_affinity.matrices import TaskMatrix, read_table
from mtl_affinity.models import extend_inputs
from mtl_affinity import scores
from mtl_affinity.scores import (
    ScoreValue,
    gradient_transference,
    label_injection,
    rsa,
)
from mtl_affinity.stats import DegenerateInputError
from mtl_affinity.tasks import TaskSuite, generate_latent_factor_suite, save_dataset


def tiny_config(tmp_path, **overrides):
    base = dict(
        n_tasks=3, d_latent=6, d_in=10, n_examples=120, overlap=0.5,
        noise_std=0.1, hidden=(8,), latent_dim=6, epochs=2,
        batch_size=32, eval_batch_size=64,
        scores=("IAS", "RSA", "LI", "GS", "GT"),
        seeds=(0,), out_dir=str(tmp_path / "out"))
    base.update(overrides)
    return ExperimentConfig(**base)


# --- config validation and serialization ---

def test_config_rejects_bad_fields(tmp_path):
    with pytest.raises(ValueError, match="score"):
        tiny_config(tmp_path, scores=())
    with pytest.raises(ValueError, match="unknown score"):
        tiny_config(tmp_path, scores=("IAS", "XX"))
    with pytest.raises(ValueError, match="unique"):
        tiny_config(tmp_path, scores=("IAS", "IAS"))
    with pytest.raises(ValueError, match="seed"):
        tiny_config(tmp_path, seeds=())
    with pytest.raises(ValueError, match=r"seeds must be non-negative, got \[-1\]"):
        tiny_config(tmp_path, seeds=(0, -1))
    with pytest.raises(ValueError, match="taxonomy_path"):
        tiny_config(tmp_path, scores=("TD",))
    with pytest.raises(ValueError, match="n_tasks"):
        tiny_config(tmp_path, n_tasks=1)
    # Training fields fail at construction, naming the field.
    for field, value in (("epochs", 0), ("initial_lr", -1.0), ("lr_decay", 0.0),
                         ("batch_size", 0), ("eval_batch_size", 0),
                         ("hidden", ()), ("hidden", (0,)), ("hidden", (8, -1)),
                         ("latent_dim", 0), ("d_in", 0)):
        with pytest.raises(ValueError, match=field):
            tiny_config(tmp_path, **{field: value})
    # The half-capacity backbone must exist. At the default widths (d_in=24,
    # latent_dim=16) one hidden unit is too few and two are enough.
    with pytest.raises(ValueError, match="hidden"):
        ExperimentConfig(hidden=(1,))
    assert ExperimentConfig(hidden=(2,)).hidden == (2,)
    # A dataset directory fixes the input width, so the run checks it; an
    # empty hidden tuple fails at construction all the same.
    suite = generate_latent_factor_suite(seed=0, n_tasks=2, d_latent=2, d_in=2,
                                         n_examples=30, overlap=0.5, noise_std=0.1)
    save_dataset(suite, tmp_path / "suite")
    with pytest.raises(ValueError, match="hidden"):
        tiny_config(tmp_path, dataset_path=str(tmp_path / "suite"), hidden=())
    loaded = tiny_config(tmp_path, dataset_path=str(tmp_path / "suite"), hidden=(1,),
                         latent_dim=16)
    with pytest.raises(ExperimentError, match="hidden"):
        _SeedRun(loaded, 0)


@pytest.mark.parametrize("field, least", [("eval_batch_size", 3), ("latent_dim", 2)])
def test_rsa_needs_three_examples_and_two_latent_dims(tmp_path, field, least):
    # RSA ranks the pairwise correlation distances of a batch's latent vectors.
    with pytest.raises(ValueError, match=rf"^score RSA needs {field} >= {least}, "
                                         rf"got {least - 1}$"):
        tiny_config(tmp_path, **{field: least - 1})
    assert getattr(tiny_config(tmp_path, **{field: least}), field) == least
    without_rsa = tiny_config(tmp_path, scores=("IAS", "LI", "GS", "GT"), **{field: least - 1})
    assert getattr(without_rsa, field) == least - 1


@pytest.mark.parametrize("field", ["seeds", "hidden", "n_tasks", "d_latent", "d_in",
                                   "n_examples", "latent_dim", "epochs", "batch_size",
                                   "eval_batch_size"])
def test_config_rejects_non_integer_fields(field):
    # JSON values: a float or a bool is no integer, and seeds/hidden are lists.
    bad = [[1.7], [8, 4.2], [True], 3] if field in ("seeds", "hidden") else [1.5, True, "8"]
    for value in bad:
        with pytest.raises(ValueError, match=rf"^{field} must be .*, got {re.escape(repr(value))}$"):
            ExperimentConfig.from_json_dict({field: value})


@pytest.mark.parametrize("field, value", [
    ("display_gs_x100", "no"), ("display_gs_x100", 1), ("overlap", "0.5"),
    ("noise_std", True), ("initial_lr", True), ("lr_decay", "0.9"), ("out_dir", 3),
    ("out_dir", None), ("dataset_path", 7), ("taxonomy_path", False),
    ("scores", "IAS"), ("scores", ["IAS", 1])])
def test_config_rejects_mistyped_fields(field, value):
    # JSON values: floats take numbers but no bool, bools only a bool, paths a string.
    with pytest.raises(ValueError, match=rf"^{field} must be .*, got {re.escape(repr(value))}$"):
        ExperimentConfig.from_json_dict({field: value})


@pytest.mark.parametrize("field", ["overlap", "noise_std", "initial_lr", "lr_decay"])
def test_config_rejects_non_finite_floats(field):
    # JSON config files may hold NaN and Infinity.
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=rf"^{field} must be a finite number, got {value}$"):
            ExperimentConfig.from_json_dict({field: value})


@pytest.mark.parametrize("overrides, message", [
    ({"overlap": 1.5}, r"overlap must be in \[0, 1\], got 1.5"),
    ({"noise_std": -1}, "noise_std must be finite and >= 0, got -1"),
    ({"n_examples": 10}, "n_examples must be >= 30, got 10"),
    ({"d_latent": 100}, r"d_latent \(100\) must not exceed d_in \(24\)"),
    ({"n_tasks": 13}, r"d_latent must be at least n_tasks \(13\)"),
])
def test_config_checks_generator_ranges_at_construction(tmp_path, overrides, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**overrides)
    # A dataset directory replaces the generator, so its arguments go unchecked.
    assert ExperimentConfig(dataset_path=str(tmp_path), **overrides).dataset_path


def test_config_stores_numpy_integers_as_plain_ints():
    cfg = ExperimentConfig(n_tasks=np.int64(4), seeds=(np.int64(2),), hidden=(np.int32(8), 4))
    payload = cfg.to_json_dict()
    assert type(payload["n_tasks"]) is int and payload["n_tasks"] == 4
    assert all(type(v) is int for v in (*payload["seeds"], *payload["hidden"]))
    assert cfg.sha256() == ExperimentConfig(n_tasks=4, seeds=(2,), hidden=(8, 4)).sha256()


def test_config_float_fields_keep_json_ints():
    # An int is a valid float value and is not converted, so the manifest
    # writes back what the config file said.
    cfg = ExperimentConfig.from_json_dict({"overlap": 1, "noise_std": 0})
    assert type(cfg.overlap) is int and type(cfg.noise_std) is int
    manifest = manifest_json(cfg, 0, 1.0, {})
    assert '"overlap": 1,' in manifest and '"noise_std": 0,' in manifest


def test_config_json_round_trip(tmp_path):
    cfg = tiny_config(tmp_path, seeds=(3, 7))
    again = ExperimentConfig.from_json_dict(cfg.to_json_dict())
    assert again == cfg
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_json_dict()), encoding="utf-8")
    assert ExperimentConfig.from_file(path) == cfg


def test_config_rejects_unknown_keys(tmp_path):
    d = tiny_config(tmp_path).to_json_dict()
    d["typo"] = 1
    with pytest.raises(ValueError, match="typo"):
        ExperimentConfig.from_json_dict(d)


def test_config_overrides_and_hash(tmp_path):
    cfg = tiny_config(tmp_path)
    other = dataclasses.replace(cfg, seeds=(5,))
    assert other.seeds == (5,)
    assert other.out_dir == cfg.out_dir
    assert cfg.sha256() == tiny_config(tmp_path).sha256()
    assert cfg.sha256() != other.sha256()


# --- cost and scatter CSV round trips ---

COSTS_COLUMNS = {"score": str, "expression": str, "n": int, "c_s": float,
                 "multiply_adds": float}
SCATTER_COLUMNS = {"score": str, "target": str, "with": str, "score_value": float,
                   "gain": float}


def test_costs_csv_round_trip():
    rows = [("GS", "C(n,2)*2*c_s", 5, 123.0, 2460.0), ("TD", "0", 5, 123.0, 0.0)]
    header, back = read_table(costs_csv(rows), "costs", COSTS_COLUMNS)
    assert header == list(COSTS_COLUMNS)
    assert [tuple(row) for row in back] == rows


def test_scatter_csv_round_trip():
    rows = [("IAS", "a", "b", 0.25, -3.5), ("IAS", "b", "a", 0.25, 1.0)]
    header, back = read_table(scatter_csv(rows), "scatter", SCATTER_COLUMNS)
    assert header == list(SCATTER_COLUMNS)
    assert [tuple(row) for row in back] == rows


# --- the full harness on a tiny suite ---

@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    cfg = tiny_config(tmp)
    return cfg, run_experiment(cfg)


def test_run_returns_complete_matrices(tiny_run):
    cfg, results = tiny_run
    (res,) = results
    assert res.seed == 0
    assert res.gain.is_complete()
    assert set(res.affinities) == set(cfg.scores)
    for matrix in res.affinities.values():
        assert matrix.is_complete()
    assert set(res.reports) == set(cfg.scores)
    assert res.c_s > 0


def test_run_file_inventory(tiny_run):
    _, results = tiny_run
    names = {p.name for p in results[0].directory.iterdir()}
    assert names == {"gain.csv", "ias.csv", "rsa.csv", "li.csv", "gs.csv",
                     "gt.csv", "level1.csv", "level2.csv", "level3.csv",
                     "costs.csv", "scatter.csv", "manifest.json"}


def test_emitted_files_round_trip(tiny_run):
    cfg, results = tiny_run
    res = results[0]
    d = res.directory
    read = lambda name: (d / name).read_text(encoding="utf-8")

    # The result keeps the gain in fraction; gain.csv holds it in percent.
    gain = TaskMatrix.from_csv_text(read("gain.csv"))
    assert gain.cells() == {key: 100.0 * v for key, v in res.gain.cells().items()}
    for kind in cfg.scores:
        assert TaskMatrix.from_csv_text(read(f"{kind.lower()}.csv")) == res.affinities[kind]

    # The reports are written only; each file is its writer's text.
    assert read("level1.csv") == level1_csv(res.reports)
    assert read("level2.csv") == level2_csv(res.reports)
    assert read("level3.csv") == level3_csv(res.reports)

    _, rows = read_table(read("costs.csv"), "costs", COSTS_COLUMNS)
    costs = {score: (c_s, multiply_adds) for score, _, _, c_s, multiply_adds in rows}
    assert set(costs) == set(cfg.scores)
    assert costs["GS"][0] == res.c_s
    assert costs["GS"][1] == pytest.approx(3 * 2 * res.c_s)
    assert costs["LI"][1] == pytest.approx(3 * res.c_s + 6 * res.c_s)

    _, scatter = read_table(read("scatter.csv"), "scatter", SCATTER_COLUMNS)
    assert len(scatter) == len(cfg.scores) * 3 * 2
    by_key = {(score, target, with_task): (value, g) for score, target, with_task, value, g
              in scatter}
    probe = by_key[("RSA", gain.tasks[0], gain.tasks[1])]
    assert probe[0] == res.affinities["RSA"].get(gain.tasks[1], gain.tasks[0])
    assert probe[1] == gain.get(gain.tasks[1], gain.tasks[0])


def test_manifest_contents(tiny_run):
    cfg, results = tiny_run
    manifest = json.loads((results[0].directory / "manifest.json").read_text())
    assert manifest["config_sha256"] == cfg.sha256()
    assert manifest["seed"] == 0
    assert manifest["c_s"] == results[0].c_s
    assert ExperimentConfig.from_json_dict(manifest["config"]) == cfg
    assert "numpy" in manifest["versions"]


def test_rerun_is_byte_identical(tmp_path):
    cfg_a = tiny_config(tmp_path, out_dir=str(tmp_path / "a"),
                        scores=("IAS", "GS"), epochs=2)
    cfg_b = dataclasses.replace(cfg_a, out_dir=str(tmp_path / "b"))
    (res_a,) = run_experiment(cfg_a)
    (res_b,) = run_experiment(cfg_b)
    for path_a in sorted(res_a.directory.iterdir()):
        if path_a.name == "manifest.json":
            continue  # embeds out_dir via the config
        path_b = res_b.directory / path_a.name
        assert path_a.read_bytes() == path_b.read_bytes(), path_a.name


RUN_IN_SUBPROCESS = """
import json, sys
from mtl_affinity.experiment import ExperimentConfig, run_experiment
run_experiment(ExperimentConfig.from_json_dict(json.loads(sys.argv[1])))
"""


def test_rerun_is_byte_identical_across_blas_thread_counts(tmp_path):
    # A relative out_dir, so that the manifests of both runs record the same config.
    config = json.dumps(tiny_config(tmp_path, out_dir="out").to_json_dict())
    src = Path(mtl_affinity.__file__).resolve().parents[1]
    files = {}
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c", RUN_IN_SUBPROCESS, config],
                       cwd=cwd, env=env, check=True, timeout=120)
        seed_dir = cwd / "out" / "seed0"
        files[threads] = {p.name: p.read_bytes() for p in sorted(seed_dir.iterdir())}
    assert "manifest.json" in files["1"]
    assert files["1"] == files["2"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_names_the_model(tmp_path):
    cfg = tiny_config(tmp_path, initial_lr=1e6, scores=("GS",))
    with pytest.raises(ExperimentError, match="stl/"):
        run_experiment(cfg)


@pytest.mark.parametrize("scores, probed", [(("IAS", "RSA", "LI"), False),
                                            (("GS",), True), (("GT",), True),
                                            (("IAS", "LI", "GT"), True)])
def test_pair_probes_run_only_for_gs_or_gt(tmp_path, scores, probed):
    run = _SeedRun(tiny_config(tmp_path, n_tasks=2, scores=scores), 0)
    assert list(run.trained) == [job.key for job in plan_roster(run.names, scores)]
    _, trace = run.trained["mtl/task0/task1"]
    assert (trace.gs_cosine is not None) == probed
    assert (trace.lookahead is not None) == probed


def test_degenerate_score_names_seed_kind_and_pair(tmp_path, monkeypatch):
    def degenerate(*args):
        raise DegenerateInputError("all 64 examples had a zero-norm attribution map")

    monkeypatch.setattr(experiment, "input_attribution_similarity", degenerate)
    cfg = tiny_config(tmp_path, scores=("GS", "IAS"), seeds=(4,))
    with pytest.raises(ExperimentError, match=re.escape(
            "seed 4, score IAS, pair ('task0', 'task1'): all 64 examples had a zero-norm")):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()


def zero_injected_loss_at(cell):
    """The LI cell, whose real score gets a zero injected loss at (target, partner) ``cell``.

    ``label_injection`` sees only two losses, so this replaces the kind's
    ``_CELLS`` entry, which knows its cell.
    """
    real = experiment._CELLS["LI"]

    def scored(run, target, partner):
        if (target, partner) == cell:
            return experiment.label_injection(run.stl_loss[target], 0.0)
        return real(run, target, partner)
    return scored


def degenerate_gt_at(cell):
    """The real GT score, degenerate at (target, partner) ``cell`` only."""
    def scored(trace, target):
        (partner,) = set(trace.lookahead) - {target}
        if (target, partner) == cell:
            raise DegenerateInputError("every epoch had a zero pre-update loss")
        return gradient_transference(trace, target)
    return scored


def degenerate_rsa_at(pair):
    """The real RSA score, degenerate for the STL models of ``pair`` only."""
    def scored(model_a, model_b, inputs):
        if (*model_a.specs, *model_b.specs) == pair:
            raise DegenerateInputError("latent vector of example 0 is constant")
        return rsa(model_a, model_b, inputs)
    return scored


# Each replacement fails at one named cell, whatever order the cells are
# scored in; the message names the seed, the kind and that cell.
@pytest.mark.parametrize("kind, table, name, replacement, message", [
    ("LI", experiment._CELLS, "LI", zero_injected_loss_at(("task0", "task2")),
     "seed 4, score LI, partner 'task2' -> target 'task0': label injection needs positive"),
    ("GT", vars(experiment), "gradient_transference", degenerate_gt_at(("task1", "task0")),
     "seed 4, score GT, partner 'task0' -> target 'task1': every epoch had a zero"),
    ("RSA", vars(experiment), "rsa", degenerate_rsa_at(("task1", "task2")),
     "seed 4, score RSA, pair ('task1', 'task2'): latent vector of example 0 is constant"),
    # The real rsa, whose Spearman correlation of two constant RDMs is undefined.
    ("RSA", vars(scores), "representation_dissimilarity", lambda z: np.zeros((len(z),) * 2),
     "seed 4, score RSA, pair ('task0', 'task1'): correlation undefined for a constant input"),
], ids=["LI", "GT", "RSA", "RSA-spearman"])
def test_degenerate_score_names_seed_kind_and_cell(tmp_path, monkeypatch, kind, table, name,
                                                   replacement, message):
    monkeypatch.setitem(table, name, replacement)
    cfg = tiny_config(tmp_path, scores=(kind,), seeds=(4,))
    with pytest.raises(ExperimentError, match=re.escape(message)) as info:
        run_experiment(cfg)
    assert isinstance(info.value.__cause__, DegenerateInputError)
    assert not (tmp_path / "out").exists()


def test_gain_and_li_equal_the_per_model_recomputation(tmp_path, monkeypatch):
    """Each gain and LI cell of a run, recomputed model by model with
    ``Model.task_losses`` on the test split (injected inputs from
    ``extend_inputs``), is equal to the bit to what the run reports."""
    runs = []

    class Recorded(_SeedRun):
        def __init__(self, *args):
            super().__init__(*args)
            runs.append(self)
    monkeypatch.setattr(experiment, "_SeedRun", Recorded)
    # Regression and 3-class tasks, so injected partners of width 1 and 3 share a stack.
    [result] = run_experiment(tiny_config(tmp_path, n_tasks=4, scores=("LI", "GS", "GT")))
    [run] = runs
    assert {spec.output_dim for spec in run.specs.values()} == {1, 3}
    x, y = run.dataset.batch(run.dataset.splits["test"], run.names)
    stl = {t: run.model("stl", t).task_losses(x, {t: y[t]})[t] for t in run.names}
    for target, partner in permutations(run.names, 2):
        pair = sorted((target, partner))
        mtl = run.model("mtl", *pair).task_losses(x, {t: y[t] for t in pair})[target]
        assert result.gain.get(partner, target) == mtl_gain(stl[target], mtl)
        injected = run.model("inj", target, partner).task_losses(
            extend_inputs(x, run.specs[partner], y[partner]), {target: y[target]})[target]
        assert (result.affinities["LI"].get(partner, target)
                == label_injection(stl[target], injected))


def test_each_kind_is_scored_once_per_cell(tmp_path, monkeypatch):
    # Every kind has one cell function, and a seed of n = 4 tasks calls each
    # trained kind's score once per sorted pair (symmetric) or ordered pair.
    assert set(experiment._CELLS) == set(SCORE_KINDS)
    calls = Counter()
    for name in ("input_attribution_similarity", "rsa", "label_injection",
                 "gradient_similarity", "gradient_transference"):
        def counted(*args, _name=name, _score=getattr(experiment, name)):
            calls[_name] += 1
            return _score(*args)
        monkeypatch.setattr(experiment, name, counted)
    run_experiment(tiny_config(tmp_path, n_tasks=4))
    assert calls == {"input_attribution_similarity": 6, "rsa": 6, "gradient_similarity": 6,
                     "label_injection": 12, "gradient_transference": 12}


def test_skip_notes_name_the_cell(tmp_path, monkeypatch):
    # A symmetric kind's note names the sorted pair, a directed kind's note
    # names target|partner.
    for name in ("input_attribution_similarity", "gradient_transference"):
        def skipping(*args, _score=getattr(experiment, name)):
            return ScoreValue(_score(*args), skipped=1, used=2)
        monkeypatch.setattr(experiment, name, skipping)
    [result] = run_experiment(tiny_config(tmp_path, scores=("IAS", "GT")))
    manifest = json.loads((result.directory / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["notes"] == {label: "skipped 1 of 3" for label in (
        "GT task0|task1", "GT task0|task2", "GT task1|task0", "GT task1|task2",
        "GT task2|task0", "GT task2|task1",
        "IAS task0/task1", "IAS task0/task2", "IAS task1/task2")}


# --- the roster plan ---

def test_plan_roster_order_and_keys():
    jobs = plan_roster(("a", "b", "c"), ("GS", "LI"))
    assert [job.key for job in jobs] == [
        "stl/a", "stl/b", "stl/c", "mtl/a/b", "mtl/a/c", "mtl/b/c",
        "inj/a/b", "inj/a/c", "inj/b/a", "inj/b/c", "inj/c/a", "inj/c/b"]
    assert plan_roster(("a", "b", "c"), ("LI", "GS")) == jobs


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", sorted(SCORE_KINDS))
def test_plan_roster_matches_cost_model(n, kind):
    names = tuple(f"t{i}" for i in range(n))
    jobs = plan_roster(names, (kind,))
    counts = Counter(job.family for job in jobs)
    closed_form = {"stl": n, "mtl": math.comb(n, 2), "inj": n * (n - 1)}
    needed = SCORE_KINDS[kind].families
    # The gain matrix needs the STL and pair models whatever the score.
    assert set(counts) == {"stl", "mtl"} | set(needed)
    for family, count in counts.items():
        assert count == closed_form[family] == len(MODEL_FAMILIES[family].members(names))

    c_s = 123.25
    total = 0.0
    for family in needed:
        total += counts[family] * MODEL_FAMILIES[family].unit * c_s
    assert total == score_cost(kind, CostModel(n, c_s))


def test_two_task_run_skips_evaluation(tmp_path):
    cfg = tiny_config(tmp_path, n_tasks=2, scores=("GS",))
    (res,) = run_experiment(cfg)
    assert res.reports == {}
    assert "evaluation" in res.notes
    names = {p.name for p in res.directory.iterdir()}
    assert "level1.csv" not in names
    assert "gs.csv" in names


def test_display_gs_x100_scales_csv_only(tmp_path):
    cfg = tiny_config(tmp_path, n_tasks=2, scores=("GS",), display_gs_x100=True)
    (res,) = run_experiment(cfg)
    text = (res.directory / "gs.csv").read_text(encoding="utf-8")
    shown = TaskMatrix.from_csv_text(text)
    a, b = res.gain.tasks
    assert shown.get(a, b) == pytest.approx(100.0 * res.affinities["GS"].get(a, b))
    assert -1.0 <= res.affinities["GS"].get(a, b) <= 1.0


def test_dataset_path_matches_inline_generation(tmp_path):
    suite = generate_latent_factor_suite(seed=4, n_tasks=3, d_latent=6, d_in=10,
                                         n_examples=120, overlap=0.5, noise_std=0.1)
    data_dir = tmp_path / "suite"
    save_dataset(suite, data_dir)
    inline = tiny_config(tmp_path, seeds=(4,), out_dir=str(tmp_path / "inline"),
                         scores=("GS",))
    loaded = dataclasses.replace(inline, dataset_path=str(data_dir),
                                 out_dir=str(tmp_path / "loaded"))
    (res_inline,) = run_experiment(inline)
    (res_loaded,) = run_experiment(loaded)
    assert res_inline.gain == res_loaded.gain
    assert res_inline.affinities["GS"] == res_loaded.affinities["GS"]


def test_suite_with_loss_kind_gives_the_same_seed_files(tmp_path):
    """A manifest that also lists each task's loss, as older suites do, changes no output."""
    save_dataset(generate_latent_factor_suite(seed=3, n_tasks=3, d_latent=6, d_in=10,
                                              n_examples=120, overlap=0.5, noise_std=0.1),
                 tmp_path / "suite")
    config = tiny_config(tmp_path, dataset_path=str(tmp_path / "suite"), seeds=(0, 1))

    def seed_files():
        run_experiment(config)
        return {p.relative_to(tmp_path / "out"): p.read_bytes()
                for p in sorted((tmp_path / "out").rglob("*")) if p.is_file()}

    plain = seed_files()
    manifest = tmp_path / "suite" / "manifest.json"
    payload = json.loads(manifest.read_text(encoding="utf-8"))
    for spec in payload["specs"]:
        spec["loss_kind"] = "mse" if spec["kind"] == "regression" else "cross_entropy"
    manifest.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    assert seed_files() == plain
    assert {path.parts[0] for path in plain} == {"seed0", "seed1"}


def test_results_do_not_depend_on_task_listing_order(tmp_path):
    """One saved suite, listed in three orders, gives the same results by name."""
    suite = generate_latent_factor_suite(seed=2, n_tasks=4, d_latent=6, d_in=10,
                                         n_examples=120, overlap=0.5, noise_std=0.1)
    shuffled = [int(i) for i in np.random.default_rng(0).permutation(4)]
    assert shuffled not in ([0, 1, 2, 3], [3, 2, 1, 0])
    orders = {"listed": suite.specs, "reversed": suite.specs[::-1],
              "shuffled": tuple(suite.specs[i] for i in shuffled)}
    results = {}
    for label, specs in orders.items():
        save_dataset(TaskSuite(specs, suite.dataset), tmp_path / label)
        config = tiny_config(tmp_path, dataset_path=str(tmp_path / label),
                             out_dir=str(tmp_path / f"out-{label}"))
        (results[label],) = run_experiment(config)
    names = sorted(s.name for s in suite.specs)
    cells = [(w, t) for w in names for t in names if w != t]
    base = results["listed"]
    for label in ("reversed", "shuffled"):
        other = results[label]
        assert other.gain.tasks == tuple(s.name for s in orders[label])
        assert [other.gain.get(*c) for c in cells] == [base.gain.get(*c) for c in cells]
        for kind, matrix in base.affinities.items():
            assert ([other.affinities[kind].get(*c) for c in cells]
                    == [matrix.get(*c) for c in cells]), kind
        for kind, report in base.reports.items():
            got = other.reports[kind]
            assert got.level1.summary == pytest.approx(report.level1.summary, abs=1e-12)
            assert got.level2.summary == pytest.approx(report.level2.summary, abs=1e-12)
            for t in names:
                assert got.level1.per_target[t] == pytest.approx(
                    report.level1.per_target[t], abs=1e-12)
                assert got.level2.per_target[t] == pytest.approx(
                    report.level2.per_target[t], abs=1e-12)
                assert got.level3[t].selected == report.level3[t].selected
