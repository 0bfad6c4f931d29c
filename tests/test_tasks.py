"""Synthetic suite generation, taxonomy loading, dataset I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtl_affinity.tasks import (
    LatentOrigin,
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


def test_taskspec_validation():
    with pytest.raises(ValueError, match="output_dim"):
        TaskSpec("t", "classification", 1)
    with pytest.raises(ValueError, match="cross_entropy"):
        TaskSpec("t", "classification", 3, loss_kind="mse")
    assert TaskSpec("t", "regression", 1).loss_kind == "mse"
    assert TaskSpec("t", "classification", 2).loss_kind == "cross_entropy"


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
    assert tax.distance("A", "B") == -2.0
    assert tax.distance("B", "A") == -2.0
    assert tax.distance("C", "C") == 0.0
    with pytest.raises(KeyError):
        tax.distance("A", "Z")


@pytest.mark.parametrize("text,msg", [
    ("task,A,B\nA,0,-2\nB,-3,0\n", "symmetric"),
    ("task,A,B\nA,1,-2\nB,-2,0\n", "diagonal"),
    ("task,A,B\nA,0,2\nB,2,0\n", "<= 0"),
    ("task,A,B\nB,0,-2\nA,-2,0\n", "labeled"),
])
def test_taxonomy_rejects_malformed(tmp_path, text, msg):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(ValueError, match=msg):
        load_taxonomy_distances(p)


def test_dataset_save_load_roundtrip(tmp_path):
    suite = small_suite()
    save_dataset(suite, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    np.testing.assert_array_equal(loaded.dataset.inputs, suite.dataset.inputs)
    for t in suite.dataset.labels:
        np.testing.assert_array_equal(loaded.dataset.labels[t], suite.dataset.labels[t])
    for s in ("train", "val", "test"):
        np.testing.assert_array_equal(loaded.dataset.splits[s], suite.dataset.splits[s])
    assert loaded.specs == suite.specs
    assert loaded.dataset.seed == suite.dataset.seed


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
])
def test_dataset_load_rejects_labels_and_splits_that_misfit(tmp_path, file, replace, msg):
    save_dataset(small_suite(), tmp_path / "ds")
    _corrupt(tmp_path / "ds" / file, replace)
    with pytest.raises(ValueError, match=msg) as info:
        load_dataset(tmp_path / "ds")
    assert file in str(info.value)


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
