"""CLI behavior: exit codes, file effects, output shape."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from mtl_affinity.cli import main
from mtl_affinity.evaluation import GainMatrix
from mtl_affinity.grouping import Grouping, is_valid_grouping, optimize_grouping
from mtl_affinity.paper_data import TASKS
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
    gains = GainMatrix(tasks, {(w, t): float(rng.uniform(-20.0, 30.0))
                               for w in tasks for t in tasks if w != t}, unit="percent")
    gain_path = tmp_path / "gain.csv"
    gain_path.write_text(gains.to_csv_text(), encoding="utf-8")
    assert main(["group", "--gain", str(gain_path), "--budget", "15"]) == 0
    payload = json.loads(capsys.readouterr().out)
    grouping = Grouping.from_json_dict({k: payload[k]
                                        for k in ("models", "budget", "total_cost")})
    assert is_valid_grouping(tasks, grouping) == []
    loaded = GainMatrix.from_csv_text(gain_path.read_text(encoding="utf-8"), unit="percent")
    assert (grouping, payload["total_gain"]) == optimize_grouping(tasks, loaded, 15.0)


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


@pytest.mark.parametrize("flag", ["--budget", "--stl-cost", "--mtl-cost"])
def test_group_rejects_nan(flag, capsys):
    args = ["group", "--budget", "5"] + [flag, "nan"]
    assert main(args) == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
