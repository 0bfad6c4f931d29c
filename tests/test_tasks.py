"""Synthetic suite generation, taxonomy loading, dataset I/O."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtl_affinity.tasks import (
    LatentOrigin,
    MultiTaskDataset,
    TaskSpec,
    generate_latent_factor_suite,
    load_dataset,
    load_taxonomy_distances,
    save_dataset,
)


def small_suite(**overrides):
    kwargs = dict(seed=11, n_tasks=3, d_latent=6, d_in=10, n_examples=60,
                  overlap=0.5, noise_std=0.1)
    kwargs.update(overrides)
    return generate_latent_factor_suite(**kwargs)


def test_shapes_and_kinds():
    suite = small_suite()
    assert suite.dataset.inputs.shape == (60, 10)
    assert [s.kind for s in suite.specs] == ["regression", "classification", "regression"]
    assert suite.dataset.labels["task0"].shape == (60, 1)
    assert suite.dataset.labels["task1"].shape == (60,)
    assert suite.dataset.labels["task1"].dtype == np.int64
    assert set(suite.dataset.labels["task1"]) <= {0, 1, 2}


def test_splits_partition_indices():
    suite = small_suite(n_examples=101)
    ds = suite.dataset
    assert len(ds.splits["train"]) == 70
    assert len(ds.splits["val"]) == 15
    assert len(ds.splits["test"]) == 16
    combined = np.sort(np.concatenate(list(ds.splits.values())))
    np.testing.assert_array_equal(combined, np.arange(101))


def test_same_seed_bit_identical():
    a, b = small_suite(), small_suite()
    np.testing.assert_array_equal(a.dataset.inputs, b.dataset.inputs)
    for t in a.dataset.labels:
        np.testing.assert_array_equal(a.dataset.labels[t], b.dataset.labels[t])
    assert a.specs == b.specs


def test_different_seed_changes_inputs():
    a, b = small_suite(seed=11), small_suite(seed=12)
    assert not np.array_equal(a.dataset.inputs, b.dataset.inputs)


def test_overlap_zero_subsets_disjoint():
    suite = small_suite(overlap=0.0)
    subsets = [set(s.origin.latent_dims) for s in suite.specs]
    for i in range(len(subsets)):
        for j in range(i + 1, len(subsets)):
            assert subsets[i] & subsets[j] == set()


def test_overlap_one_subsets_identical():
    suite = small_suite(overlap=1.0)
    subsets = [s.origin.latent_dims for s in suite.specs]
    assert len(set(subsets)) == 1


def test_identical_readouts_give_identical_labels():
    suite = small_suite(n_tasks=2, overlap=1.0, noise_std=0.0,
                        kinds=["regression", "regression"], shared_readouts=True)
    np.testing.assert_array_equal(suite.dataset.labels["task0"],
                                  suite.dataset.labels["task1"])
    assert suite.specs[0].origin.weights == suite.specs[1].origin.weights


def test_parameter_validation():
    with pytest.raises(ValueError, match="overlap"):
        small_suite(overlap=1.5)
    with pytest.raises(ValueError, match="disjoint"):
        small_suite(n_tasks=7, d_latent=6)
    with pytest.raises(ValueError, match="d_in"):
        small_suite(d_latent=11, d_in=10)
    with pytest.raises(ValueError, match="30"):
        small_suite(n_examples=10)
    with pytest.raises(ValueError, match="noise_std"):
        small_suite(noise_std=-0.1)
    with pytest.raises(ValueError, match="kinds"):
        small_suite(kinds=["regression"])


@pytest.mark.parametrize("field, value, problem", [
    ("seed", 1.7, "an integer"), ("seed", True, "an integer"), ("seed", -1, ">= 0"),
    ("n_tasks", 2.5, "an integer"), ("d_latent", 6.0, "an integer"),
    ("d_in", 10.0, "an integer"), ("n_examples", 60.5, "an integer"),
    ("n_classes", 3.0, "an integer"), ("n_classes", False, "an integer"),
])
def test_generator_counts_and_seed_must_be_integers(field, value, problem):
    with pytest.raises(ValueError, match=f"^{field} must be {problem}, got {re.escape(repr(value))}$"):
        small_suite(**{field: value})


@pytest.mark.parametrize("field, value, problem", [
    ("overlap", "0.5", "in [0, 1]"), ("overlap", True, "in [0, 1]"),
    ("overlap", float("nan"), "in [0, 1]"), ("overlap", None, "in [0, 1]"),
    ("noise_std", "0.1", "finite and >= 0"), ("noise_std", True, "finite and >= 0"),
    ("noise_std", float("inf"), "finite and >= 0"), ("noise_std", None, "finite and >= 0"),
])
def test_generator_floats_are_checked_before_any_draw(field, value, problem, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("data was drawn")
    monkeypatch.setattr("mtl_affinity.tasks.substream", refuse)
    with pytest.raises(ValueError, match=f"^{field} must be {re.escape(problem)}, "
                                         f"got {re.escape(repr(value))}$"):
        small_suite(**{field: value})


def test_generator_records_nonlinear_as_a_bool():
    for nonlinear in (0, 1):
        flags = [spec.origin.nonlinear for spec in small_suite(nonlinear=nonlinear).specs]
        assert flags == [bool(nonlinear), False, bool(nonlinear)]
        assert all(type(flag) is bool for flag in flags)


def test_taskspec_validation():
    with pytest.raises(ValueError, match="output_dim"):
        TaskSpec("t", "classification", 1)
    for name in (7, "", None):
        with pytest.raises(ValueError, match=f"^task names must be non-empty strings, got {name!r}$"):
            TaskSpec(name, "regression", 1)


@pytest.mark.parametrize("value", [2.5, 3.9, 2.0, True, "3", None])
def test_taskspec_output_dim_must_be_an_integer(value):
    message = f"^output_dim must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        TaskSpec("a", "classification", value)
    with pytest.raises(ValueError, match=message):
        TaskSpec.from_json_dict({"name": "a", "kind": "classification", "output_dim": value})


@pytest.mark.parametrize("field, value, message", [
    ("nonlinear", "false", "origin.nonlinear must be true or false, got 'false'"),
    ("nonlinear", 0, "origin.nonlinear must be true or false, got 0"),
    ("noise_std", "0.1", "origin.noise_std must be a finite number >= 0, got '0.1'"),
    ("noise_std", -0.5, "origin.noise_std must be a finite number >= 0, got -0.5"),
    ("noise_std", float("inf"), "origin.noise_std must be a finite number >= 0, got inf"),
    ("latent_dims", [1.5, "x"], "origin.latent_dims must be an integer, got 1.5"),
    ("latent_dims", [0, -1], "origin.latent_dims must be >= 0, got -1"),
    ("latent_dims", 3, "origin.latent_dims must be a list of integers, got 3"),
    ("weights", [[0.5], ["1"]], "origin.weights must be finite numbers, got '1'"),
    ("weights", [[0.5], [float("nan")]], "origin.weights must be finite numbers, got nan"),
    ("weights", [0.5, 1.0], "origin.weights must be a list of rows, got [0.5, 1.0]"),
])
def test_taskspec_origin_is_checked_not_coerced(field, value, message):
    spec = small_suite().specs[0].to_json_dict()
    spec["origin"][field] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TaskSpec.from_json_dict(spec)


def test_taskspec_numpy_output_dim_is_stored_as_int():
    spec = TaskSpec("a", "classification", np.int64(3))
    assert type(spec.output_dim) is int and spec == TaskSpec("a", "classification", 3)
    assert json.loads(json.dumps(spec.to_json_dict()))["output_dim"] == 3


TAXONOMY_OK = """task,A,B,C
A,0,-2,-4
B,-2,0,-6
C,-4,-6,0
"""


def test_taxonomy_load_and_lookup(tmp_path):
    p = tmp_path / "tax.csv"
    p.write_text(TAXONOMY_OK)
    tax = load_taxonomy_distances(p)
    assert tax.tasks == ("A", "B", "C")
    assert tax.is_complete()
    assert tax.get("A", "B") == -2.0
    assert tax.get("B", "A") == -2.0
    assert tax.get("C", "B") == -6.0
    with pytest.raises(ValueError, match="diagonal"):
        tax.get("C", "C")
    with pytest.raises(KeyError):
        tax.get("A", "Z")


@pytest.mark.parametrize("text,msg", [
    ("task,A,B\nA,0,-2\nB,-3,0\n", "symmetric"),
    ("task,A,B\nA,1,-2\nB,-2,0\n", "diagonal"),
    ("task,A,B\nA,0,2\nB,2,0\n", "<= 0"),
    ("task,A,B\nB,0,-2\nA,-2,0\n", "labeled"),
    ("task,A,B\nA,0,-inf\nB,-inf,0\n", "finite"),
    ("task,A,B\nA,0,nan\nB,nan,0\n", "finite"),
    ("task,A,B\nA,0,-2\nB,-1.9999999999999998,0\n", "symmetric"),  # one ulp apart
    # A table that breaks several rules reports the first, in this order.
    ("task,A,B\nB,0,inf\nA,inf,0\n", "labeled"),
    ("task,A,B\nA,1,nan\nB,3,0\n", "finite"),
    ("task,A,B\nA,1,2\nB,3,0\n", "symmetric"),
    ("task,A,B\nA,1,2\nB,2,0\n", "diagonal"),
])
def test_taxonomy_rejects_malformed(tmp_path, text, msg):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(ValueError, match=msg) as info:
        load_taxonomy_distances(p)
    assert str(info.value).startswith(f"{p}: ")


def test_taxonomy_accepts_negative_zero_diagonal(tmp_path):
    p = tmp_path / "tax.csv"
    p.write_text("task,A,B\nA,-0.0,-2\nB,-2,-0.0\n")
    assert load_taxonomy_distances(p).cells() == {("A", "B"): -2.0, ("B", "A"): -2.0}


def test_dataset_save_load_roundtrip(tmp_path):
    suite = small_suite()
    save_dataset(suite, tmp_path / "ds")
    assert (tmp_path / "ds" / "splits.csv").read_text().startswith("split,index\ntrain,0\n")
    loaded = load_dataset(tmp_path / "ds")
    np.testing.assert_array_equal(loaded.dataset.inputs, suite.dataset.inputs)
    for t in suite.dataset.labels:
        np.testing.assert_array_equal(loaded.dataset.labels[t], suite.dataset.labels[t])
    for s in ("train", "val", "test"):
        np.testing.assert_array_equal(loaded.dataset.splits[s], suite.dataset.splits[s])
    assert loaded.specs == suite.specs
    assert loaded.dataset.seed == suite.dataset.seed


def test_taskspec_json_ignores_loss_kind(tmp_path):
    # Older manifests also held each task's loss, which its kind fixes.
    save_dataset(small_suite(), tmp_path / "ds")
    manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
    for d in manifest["specs"]:
        assert "loss_kind" not in d
        loss = "mse" if d["kind"] == "regression" else "cross_entropy"
        assert TaskSpec.from_json_dict({**d, "loss_kind": loss}) == TaskSpec.from_json_dict(d)
    assert {d["kind"] for d in manifest["specs"]} == {"regression", "classification"}


def _corrupt(path, replace):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(replace(lines)) + "\n")


@pytest.mark.parametrize("file, replace, msg", [
    ("labels_task1.csv", lambda lines: ["1.5", *lines[1:]], r"task 'task1'.*integers in \[0, 3\)"),
    ("labels_task1.csv", lambda lines: ["7", *lines[1:]], r"task 'task1'.*integers in \[0, 3\)"),
    ("labels_task0.csv", lambda lines: [f"{line},0.5" for line in lines],
     "task 'task0'.*2 label columns, expected 1"),
    ("splits.csv", lambda lines: [*lines[:-1], lines[-1].replace("test", "holdout")],
     "unknown split 'holdout'"),
    ("splits.csv", lambda lines: [*lines[:-1], lines[-1] + ",0"],
     r"line \d+: 3 cells, header has 2"),
    ("splits.csv", lambda lines: [lines[0], "train,1.5", *lines[2:]],
     r"line 2, column 'index': cannot read '1.5'"),
    *(("splits.csv", lambda lines, i=index: [lines[0], f"train,{i}", *lines[2:]],
       f"line 2, column 'index': cannot read {re.escape(repr(index))}$")
      for index in ("-1", "+1", " 1", "", "\u0661")),
])
def test_dataset_load_rejects_labels_and_splits_that_misfit(tmp_path, file, replace, msg):
    save_dataset(small_suite(), tmp_path / "ds")
    _corrupt(tmp_path / "ds" / file, replace)
    with pytest.raises(ValueError, match=msg) as info:
        load_dataset(tmp_path / "ds")
    assert file in str(info.value)


@pytest.mark.parametrize("split", ["train", "val", "test"])
def test_dataset_rejects_empty_split(split):
    ds = small_suite().dataset
    other = "test" if split == "train" else "train"
    splits = dict(ds.splits)
    splits[other] = np.sort(np.concatenate([splits[other], splits[split]]))
    splits[split] = np.array([], dtype=np.int64)
    with pytest.raises(ValueError, match=f"split '{split}' is empty"):
        MultiTaskDataset(ds.inputs, ds.labels, splits, ds.seed)


def _drop_key(key):
    def replace(lines):
        manifest = json.loads("\n".join(lines))
        del manifest[key]
        return json.dumps(manifest).splitlines()
    return replace


def _edit_manifest(edit):
    def replace(lines):
        manifest = json.loads("\n".join(lines))
        edit(manifest)
        return json.dumps(manifest).splitlines()
    return replace


def _rename_last_task(name):
    def replace(lines):
        manifest = json.loads("\n".join(lines))
        manifest["specs"][-1]["name"] = name
        return json.dumps(manifest).splitlines()
    return replace


@pytest.mark.parametrize("file, replace, msg", [
    ("manifest.json", _drop_key("seed"), r"manifest\.json: missing key 'seed'"),
    ("manifest.json", _rename_last_task("task0"),
     r"manifest\.json: task names must be unique, got \['task0', 'task1', 'task0'\]$"),
    ("manifest.json", _drop_key("specs"), r"manifest\.json: missing key 'specs'"),
    ("manifest.json", lambda lines: [line.replace('"kind": ', '"kind_": ') for line in lines],
     r"manifest\.json: missing key 'kind'"),
    ("manifest.json", lambda lines: ["{oops", *lines], r"manifest\.json: Expecting property name"),
    ("inputs.csv", lambda lines: [lines[0], "oops," + lines[1].partition(",")[2], *lines[2:]],
     r"inputs\.csv: could not convert string 'oops'"),
    *(("manifest.json", _edit_manifest(lambda m, seed=seed: m.update(seed=seed)),
       rf"manifest\.json: seed must be an integer, got {re.escape(repr(seed))}$")
      for seed in (1.7, True, "3")),
    ("manifest.json", _edit_manifest(lambda m: m.update(seed=-3)),
     r"manifest\.json: seed must be >= 0, got -3$"),
    ("manifest.json", _edit_manifest(lambda m: m["specs"][0]["origin"].update(nonlinear="false")),
     r"manifest\.json: origin\.nonlinear must be true or false, got 'false'$"),
])
def test_dataset_load_names_the_damaged_file(tmp_path, file, replace, msg):
    save_dataset(small_suite(), tmp_path / "ds")
    _corrupt(tmp_path / "ds" / file, replace)
    with pytest.raises(ValueError, match=msg) as info:
        load_dataset(tmp_path / "ds")
    assert str(info.value).startswith(str(tmp_path / "ds" / file))


def test_dataset_load_rejects_empty_split(tmp_path):
    save_dataset(small_suite(), tmp_path / "ds")
    _corrupt(tmp_path / "ds" / "splits.csv",
             lambda lines: [line.replace("val,", "train,") for line in lines])
    with pytest.raises(ValueError, match="split 'val' is empty"):
        load_dataset(tmp_path / "ds")


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10),
       st.floats(min_value=0.0, max_value=1.0))
def test_subset_sizes_equal_and_legal(n_tasks, seed, overlap):
    suite = generate_latent_factor_suite(seed=seed, n_tasks=n_tasks, d_latent=8,
                                         d_in=8, n_examples=40, overlap=overlap,
                                         noise_std=0.0)
    sizes = {len(s.origin.latent_dims) for s in suite.specs}
    assert sizes == {8 // n_tasks}
    for s in suite.specs:
        assert all(0 <= d < 8 for d in s.origin.latent_dims)
