"""CLI behavior: exit codes, file effects, output shape."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from mtl_affinity import experiment
from mtl_affinity.cli import main
from mtl_affinity.grouping import Grouping, is_valid_grouping, optimize_grouping
from mtl_affinity.matrices import TaskMatrix
from mtl_affinity.paper_data import TASKS
from mtl_affinity.tasks import load_taxonomy_distances
from oracles import best_grouping_naive


def write_config(tmp_path, **overrides) -> Path:
    config = dict(
        n_tasks=3, d_latent=6, d_in=10, n_examples=120, overlap=0.5,
        noise_std=0.1, hidden=[8], latent_dim=6, epochs=2,
        batch_size=32, eval_batch_size=64, scores=["GS"],
        seeds=[0], out_dir=str(tmp_path / "out"))
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


# --- generate ---

def test_generate_writes_dataset_files(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "data"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"inputs.csv", "labels_task0.csv", "labels_task1.csv",
                     "labels_task2.csv", "splits.csv", "manifest.json"}
    assert str(out) in capsys.readouterr().out


def test_generate_same_seed_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["generate", "--config", str(cfg), "--out", str(b)]) == 0
    for path in sorted(a.iterdir()):
        assert path.read_bytes() == (b / path.name).read_bytes(), path.name


def test_generate_refuses_nonempty_dir(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "data"
    out.mkdir()
    (out / "keep.txt").write_text("x")
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "not empty" in capsys.readouterr().err


@pytest.mark.parametrize("out_name", ["taken", "taken/suite"])
def test_generate_out_under_a_file_exits_2_naming_it(tmp_path, capsys, out_name):
    (tmp_path / "taken").write_text("x")
    out = tmp_path / out_name
    assert main(["generate", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 2
    assert f"error: cannot write {out}: Not a directory" in capsys.readouterr().err
    assert (tmp_path / "taken").read_text() == "x"


def test_generate_invalid_overlap_names_field(tmp_path, capsys):
    cfg = write_config(tmp_path, overlap=1.5)
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2
    assert "overlap" in capsys.readouterr().err


# --- run ---

def test_run_emits_reports(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "reports"
    rc = main(["run", "--config", str(cfg), "--out", str(out),
               "--scores", "IAS,GS", "--seed", "1"])
    assert rc == 0
    names = {p.name for p in (out / "seed1").iterdir()}
    assert {"gain.csv", "ias.csv", "gs.csv", "level1.csv", "costs.csv",
            "scatter.csv", "manifest.json"} <= names
    assert "seed 1" in capsys.readouterr().out


def test_run_rejects_unknown_score(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--scores", "IAS,NOPE"]) == 2
    assert "NOPE" in capsys.readouterr().err


def test_run_rejects_hidden_without_half_capacity(tmp_path, capsys):
    cfg = write_config(tmp_path, d_in=24, latent_dim=16, hidden=[1])
    assert main(["run", "--config", str(cfg)]) == 2
    assert "hidden" in capsys.readouterr().err


def test_run_rejects_non_list_seeds(tmp_path, capsys):
    cfg = write_config(tmp_path, seeds=3)
    assert main(["run", "--config", str(cfg)]) == 2
    assert "seeds must be a list of integers, got 3" in capsys.readouterr().err


def test_run_rejects_mistyped_float_field(tmp_path, capsys):
    cfg = write_config(tmp_path, lr_decay="0.9")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "lr_decay must be a finite number, got '0.9'" in capsys.readouterr().err


def test_run_rejects_non_finite_float_field(tmp_path, capsys):
    # JSON config files may hold NaN; it is refused before anything runs.
    cfg = write_config(tmp_path, noise_std=math.nan)
    assert "NaN" in cfg.read_text()
    assert main(["run", "--config", str(cfg)]) == 2
    assert "noise_std must be a finite number, got nan" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content, message", [
    (b"[]", "a config must be a JSON object, got list"),
    (b'"x"', "a config must be a JSON object, got str"),
    (b"3", "a config must be a JSON object, got int"),
    (b"null", "a config must be a JSON object, got NoneType"),
    (b"{", "Expecting property name"),
    (b"\xff", "'utf-8' codec can't decode"),
    (None, "No such file or directory"),
])
@pytest.mark.parametrize("command", ["run", "generate"])
def test_unusable_config_file_exits_2_naming_it(tmp_path, capsys, command, content, message):
    cfg = tmp_path / "config.json"
    if content is not None:  # None: no file at all
        cfg.write_bytes(content)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"error: {cfg}: {message}" in capsys.readouterr().err
    assert not out.exists()


def write_taxonomy(path: Path, tasks) -> str:
    """A valid taxonomy CSV over ``tasks``: tasks i and j are i + j + 1 apart."""
    rows = [["task", *tasks]] + [[a, *(0 if a == b else -(i + j + 1) for j, b in enumerate(tasks))]
                                 for i, a in enumerate(tasks)]
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows), encoding="utf-8")
    return str(path)


def test_run_td_with_taxonomy_lacking_a_task_fails_before_training(tmp_path, capsys,
                                                                   monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("the roster trained")

    monkeypatch.setattr(experiment, "train_stl", no_training)
    taxonomy = write_taxonomy(tmp_path / "taxonomy.csv", ["task0", "task1"])
    cfg = write_config(tmp_path, scores=["TD", "GS"], seeds=[0, 1], taxonomy_path=taxonomy)
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"taxonomy {taxonomy} lacks the suite's tasks ['task2']" in err
    assert not list((tmp_path / "out").glob("seed*"))


def test_run_td_with_equidistant_partners_fails_before_training(tmp_path, capsys,
                                                               monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("the roster trained")

    monkeypatch.setattr(experiment, "train_stl", no_training)
    taxonomy = tmp_path / "taxonomy.csv"
    taxonomy.write_text("task,task0,task1,task2\ntask0,0,-1,-1\n"
                        "task1,-1,0,-2\ntask2,-1,-2,0\n", encoding="utf-8")
    cfg = write_config(tmp_path, scores=["TD", "IAS"], taxonomy_path=str(taxonomy))
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"taxonomy {taxonomy}: targets ['task0'] have equidistant partners" in err
    assert not list((tmp_path / "out").glob("seed*"))


def test_run_undefined_correlation_names_score_level_and_target(tmp_path, capsys,
                                                                monkeypatch):
    monkeypatch.setattr(experiment, "rsa", lambda *args: 0.5)  # a constant score
    cfg = write_config(tmp_path, scores=["GS", "RSA"])
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error: score RSA: level 1, target 'task0': correlation undefined" in err
    assert not list((tmp_path / "out").glob("seed*"))


def test_run_on_suite_without_manifest_seed_exits_2(tmp_path, capsys):
    suite = tmp_path / "suite"
    assert main(["generate", "--config", str(write_config(tmp_path)), "--out", str(suite)]) == 0
    manifest = suite / "manifest.json"
    payload = json.loads(manifest.read_text(encoding="utf-8"))
    del payload["seed"]
    manifest.write_text(json.dumps(payload), encoding="utf-8")
    cfg = write_config(tmp_path, dataset_path=str(suite))
    assert main(["run", "--config", str(cfg)]) == 2
    assert f"error: {manifest}: missing key 'seed'" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("seed*"))


@pytest.mark.parametrize("name", [7, ""])
def test_run_on_suite_with_a_bad_task_name_exits_2_before_training(tmp_path, capsys,
                                                                    monkeypatch, name):
    def no_training(*args, **kwargs):
        raise AssertionError("the roster trained")

    for trainer in ("train_stl", "train_mtl", "train_injected"):
        monkeypatch.setattr(experiment, trainer, no_training)
    suite = tmp_path / "suite"
    assert main(["generate", "--config", str(write_config(tmp_path)), "--out", str(suite)]) == 0
    manifest = suite / "manifest.json"
    payload = json.loads(manifest.read_text(encoding="utf-8"))
    payload["specs"][0]["name"] = name
    manifest.write_text(json.dumps(payload), encoding="utf-8")
    cfg = write_config(tmp_path, dataset_path=str(suite), scores=["LI", "GS"])
    assert main(["run", "--config", str(cfg)]) == 2
    assert (f"error: {manifest}: task names must be non-empty strings, got {name!r}"
            in capsys.readouterr().err)
    assert not list((tmp_path / "out").glob("seed*"))


def test_run_on_suite_naming_a_task_twice_exits_2_before_reading_labels(tmp_path, capsys,
                                                                        monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("the roster trained")

    for trainer in ("train_stl", "train_mtl", "train_injected"):
        monkeypatch.setattr(experiment, trainer, no_training)
    suite = tmp_path / "suite"
    assert main(["generate", "--config", str(write_config(tmp_path)), "--out", str(suite)]) == 0
    manifest = suite / "manifest.json"
    payload = json.loads(manifest.read_text(encoding="utf-8"))
    payload["specs"][2]["name"] = "task0"
    manifest.write_text(json.dumps(payload), encoding="utf-8")
    for labels in suite.glob("labels_*.csv"):
        labels.unlink()
    cfg = write_config(tmp_path, dataset_path=str(suite))
    assert main(["run", "--config", str(cfg)]) == 2
    assert (f"error: {manifest}: task names must be unique, got ['task0', 'task1', 'task0']"
            in capsys.readouterr().err)
    assert not list((tmp_path / "out").glob("seed*"))


@pytest.mark.parametrize("output_dim", [3.9, True])
def test_run_on_suite_with_a_non_integer_output_dim_exits_2(tmp_path, capsys, output_dim):
    suite = tmp_path / "suite"
    assert main(["generate", "--config", str(write_config(tmp_path)), "--out", str(suite)]) == 0
    manifest = suite / "manifest.json"
    payload = json.loads(manifest.read_text(encoding="utf-8"))
    payload["specs"][0]["output_dim"] = output_dim
    manifest.write_text(json.dumps(payload), encoding="utf-8")
    cfg = write_config(tmp_path, dataset_path=str(suite))
    assert main(["run", "--config", str(cfg)]) == 2
    assert (f"error: {manifest}: output_dim must be an integer, got {output_dim!r}"
            in capsys.readouterr().err)
    assert not list((tmp_path / "out").glob("seed*"))


@pytest.mark.parametrize("edit, message", [
    *((lambda payload, seed=seed: payload.update(seed=seed),
       f"seed must be an integer, got {seed!r}") for seed in (1.7, True, "3")),
    (lambda payload: payload["specs"][0]["origin"].update(nonlinear="false"),
     "origin.nonlinear must be true or false, got 'false'"),
    (lambda payload: payload["specs"][0]["origin"].update(noise_std="0.1"),
     "origin.noise_std must be a real number, got '0.1'"),
    (lambda payload: payload["specs"][0]["origin"].update(latent_dims=[1.5, "x"]),
     "origin.latent_dims must be an integer, got 1.5"),
])
def test_run_on_suite_with_a_mistyped_seed_or_origin_exits_2(tmp_path, capsys, edit, message):
    suite = tmp_path / "suite"
    assert main(["generate", "--config", str(write_config(tmp_path)), "--out", str(suite)]) == 0
    manifest = suite / "manifest.json"
    payload = json.loads(manifest.read_text(encoding="utf-8"))
    edit(payload)
    manifest.write_text(json.dumps(payload), encoding="utf-8")
    cfg = write_config(tmp_path, dataset_path=str(suite))
    assert main(["run", "--config", str(cfg)]) == 2
    assert f"error: {manifest}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_td_with_superset_taxonomy_writes_the_suite_cells(tmp_path):
    taxonomy = write_taxonomy(tmp_path / "taxonomy.csv", ["task2", "extra", "task0", "task1"])
    cfg = write_config(tmp_path, scores=["TD"], taxonomy_path=taxonomy)
    assert main(["run", "--config", str(cfg)]) == 0
    td = TaskMatrix.from_csv_text((tmp_path / "out" / "seed0" / "td.csv").read_text())
    cells = load_taxonomy_distances(taxonomy).cells()
    assert td.tasks == ("task0", "task1", "task2")
    assert td.cells() == {(w, t): v for (w, t), v in cells.items() if "extra" not in (w, t)}


def test_run_verbose_env_prints_progress(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MTL_AFFINITY_VERBOSE", "1")
    cfg = write_config(tmp_path, n_tasks=2)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    assert "training roster" in capsys.readouterr().err


# --- reproduce-tables ---

def test_reproduce_tables_passes_on_bundled_data(capsys):
    assert main(["reproduce-tables"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith(("ok", "FAIL"))]
    assert len(lines) == 36 + 36 + 30
    assert not any(l.startswith("FAIL") for l in lines)
    assert sum("flagged" in l for l in lines) == 15
    assert "all 102 cells match" in out


# --- group ---

def test_group_bundled_default_budget_5(capsys):
    assert main(["group", "--budget", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    grouping = Grouping.from_json_dict({k: payload[k]
                                        for k in ("models", "budget", "total_cost")})
    assert is_valid_grouping(TASKS, grouping) == []
    assert payload["total_gain"] >= 0.0


BUNDLED_GROUPINGS = Path(__file__).resolve().parent / "data" / "group_bundled.json"


@pytest.mark.parametrize("budget", ["5", "7.5", "10"])
def test_group_bundled_output_is_byte_identical_to_the_stored_one(budget, capsys):
    """``tests/data/group_bundled.json`` holds each budget's output, as JSON."""
    assert main(["group", "--budget", budget]) == 0
    want = json.loads(BUNDLED_GROUPINGS.read_text(encoding="utf-8"))[budget]
    assert capsys.readouterr().out == json.dumps(want, indent=2, sort_keys=True) + "\n"


def test_group_infeasible_budget(capsys):
    assert main(["group", "--budget", "4"]) == 1
    assert "budget" in capsys.readouterr().err


def test_group_matches_oracle_on_small_file(tmp_path, capsys):
    text = ("with,a,b,c\n"
            "a,,4.0,-1.0\n"
            "b,2.0,,0.5\n"
            "c,-3.0,1.5,\n")
    gain_path = tmp_path / "gain.csv"
    gain_path.write_text(text, encoding="utf-8")
    out_path = tmp_path / "grouping.json"
    rc = main(["group", "--gain", str(gain_path), "--budget", "3",
               "--out", str(out_path)])
    assert rc == 0
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    # gains[(target, partner)] mirrors the CSV's (with=partner, col=target)
    gains = {("b", "a"): 4.0, ("c", "a"): -1.0, ("a", "b"): 2.0,
             ("c", "b"): 0.5, ("a", "c"): -3.0, ("b", "c"): 1.5}
    best_total, best = best_grouping_naive(("a", "b", "c"), gains, 1.0, 3.0)
    assert payload["total_gain"] == pytest.approx(best_total)
    grouping = Grouping.from_json_dict({k: payload[k]
                                        for k in ("models", "budget", "total_cost")})
    oracle_key = tuple(sorted((tuple(sorted(t)), tuple(sorted(s)))
                              for _, t, s in best))
    assert grouping.encoding() == oracle_key


def test_group_ten_tasks_from_file(tmp_path, capsys):
    tasks = tuple(f"t{i}" for i in range(10))
    rng = np.random.default_rng(10)
    gains = TaskMatrix(tasks, {(w, t): float(rng.uniform(-20.0, 30.0))
                               for w in tasks for t in tasks if w != t})
    gain_path = tmp_path / "gain.csv"
    gain_path.write_text(gains.to_csv_text(), encoding="utf-8")
    assert main(["group", "--gain", str(gain_path), "--budget", "15"]) == 0
    payload = json.loads(capsys.readouterr().out)
    grouping = Grouping.from_json_dict({k: payload[k]
                                        for k in ("models", "budget", "total_cost")})
    assert is_valid_grouping(tasks, grouping) == []
    loaded = TaskMatrix.from_csv_text(gain_path.read_text(encoding="utf-8"))
    assert (grouping, payload["total_gain"]) == optimize_grouping(tasks, loaded, 15.0)


def test_group_rejects_gain_file_with_empty_cell(tmp_path, capsys):
    gain_path = tmp_path / "gain.csv"
    gain_path.write_text("with,a,b,c\n"
                         "a,,4.0,-1.0\n"
                         "b,2.0,,\n"
                         "c,-3.0,1.5,\n", encoding="utf-8")
    assert main(["group", "--gain", str(gain_path), "--budget", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "missing cells [('b', 'c')]" in captured.err
    assert "Traceback" not in captured.err


def test_group_malformed_gain_row_names_the_file(tmp_path, capsys):
    gain_path = tmp_path / "gain.csv"
    gain_path.write_text("with,a,b,c\na,,4.0,-1.0\nb,2.0,\nc,-3.0,1.5,\n", encoding="utf-8")
    assert main(["group", "--gain", str(gain_path), "--budget", "3"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {gain_path}: matrix line 3: 3 cells, header has 4\n"


def test_group_overflowing_gains_exit_2(tmp_path, capsys):
    gain_path = tmp_path / "gain.csv"
    gain_path.write_text("with,a,b,c\na,,0.1,1e308\nb,0.2,,0.3\nc,1e308,0.15,\n",
                         encoding="utf-8")
    assert main(["group", "--gain", str(gain_path), "--budget", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overflows" in captured.err and "Traceback" not in captured.err


def test_group_out_into_missing_directory_exits_2(tmp_path, capsys):
    out_path = tmp_path / "missing" / "grouping.json"
    assert main(["group", "--budget", "5", "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out_path}: No such file or directory\n"
    assert not out_path.parent.exists()


def strict_json(text: str):
    """Parse standard JSON only: NaN and Infinity tokens are errors."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_group_unlimited_budget_writes_standard_json(capsys):
    assert main(["group", "--budget", "inf"]) == 0
    payload = strict_json(capsys.readouterr().out)
    assert payload["budget"] is None
    grouping = Grouping.from_json_dict({k: payload[k]
                                        for k in ("models", "budget", "total_cost")})
    assert grouping.budget == math.inf
    assert is_valid_grouping(TASKS, grouping) == []
    assert grouping.to_json_dict() == {k: payload[k] for k in ("models", "budget", "total_cost")}


@pytest.mark.parametrize("costs, code", [
    (["--stl-cost", "inf"], 1),
    (["--mtl-cost", "inf"], 0),
    (["--stl-cost", "1e308", "--mtl-cost", "1e308"], 1),
])
def test_group_never_affords_an_infinite_total_cost(costs, code, capsys):
    assert main(["group", "--budget", "inf", *costs]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err.startswith("error: no valid grouping of 5 tasks fits budget inf")
    else:  # the two-task models are unaffordable: every task gets its own model
        payload = strict_json(captured.out)
        assert payload["total_gain"] == 0.0
        assert [m["training_tasks"] for m in payload["models"]] == [[t] for t in sorted(TASKS)]


@pytest.mark.parametrize("flag", ["--budget", "--stl-cost", "--mtl-cost"])
def test_group_rejects_nan(flag, capsys):
    args = ["group", "--budget", "5"] + [flag, "nan"]
    assert main(args) == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
