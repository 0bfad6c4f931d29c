"""The number rule: every numeric argument is decided by ``matrices.integer`` or ``matrices.real``.

One table lists each numeric argument of the package with a call that builds
something from it. Every odd value is fed to every argument: a bool, a numeric
string or None must raise a ValueError naming the argument; a numpy number must
be accepted exactly like the plain number (same stored result, plain types
included), or be refused as that plain number is; NaN and infinity may be
accepted or refused, and a refusal names the argument.
"""

import json
import math
import re

import numpy as np
import pytest

from mtl_affinity.evaluation import CostModel
from mtl_affinity.experiment import ExperimentConfig
from mtl_affinity.grouping import Grouping, ModelCandidate, optimize_grouping
from mtl_affinity.matrices import TaskMatrix
from mtl_affinity.models import BackboneConfig, TrainConfig
from mtl_affinity.tasks import (
    LatentOrigin,
    TaskSpec,
    check_suite_args,
    generate_latent_factor_suite,
    load_dataset,
    save_dataset,
)

VALUES = [True, np.True_, "3", None, np.int64(3), np.float64(0.5), math.nan, math.inf]

SUITE_ARGS = dict(n_tasks=3, d_latent=6, d_in=10, n_examples=60, overlap=0.5, noise_std=0.1)
GAINS = TaskMatrix(("a", "b", "c"), {(w, t): 0.1 for w in "abc" for t in "abc" if w != t})


def _suite_args(**overrides):
    return check_suite_args(**{**SUITE_ARGS, **overrides})


def _origin(**overrides):
    return LatentOrigin(**{"latent_dims": (0, 1), "weights": ((0.5,), (1.0,)),
                           "nonlinear": True, "noise_std": 0.1, **overrides})


def _train(**overrides):
    return TrainConfig(**{"seed": 0, **overrides})


def _manifest_seed(value, tmp_path):
    directory = tmp_path / f"suite{len(list(tmp_path.iterdir()))}"
    save_dataset(generate_latent_factor_suite(seed=1, **SUITE_ARGS), directory)
    manifest = directory / "manifest.json"
    payload = {**json.loads(manifest.read_text(encoding="utf-8")), "seed": value}
    manifest.write_text(json.dumps(payload, default=lambda number: number.item()),
                        encoding="utf-8")
    return load_dataset(directory).dataset.seed


def _config(field, value):
    return ExperimentConfig(**{field: value}).to_json_dict()


# (argument, what the error names, build(value, tmp_path) -> the built result)
ARGUMENTS = [
    ("TaskSpec.output_dim", "output_dim", lambda v, _: TaskSpec("a", "classification", v)),
    ("LatentOrigin.latent_dims", "origin.latent_dims", lambda v, _: _origin(latent_dims=(v,))),
    ("LatentOrigin.weights", "origin.weights", lambda v, _: _origin(weights=((v,),))),
    ("LatentOrigin.noise_std", "origin.noise_std", lambda v, _: _origin(noise_std=v)),
    *((f"check_suite_args.{name}", name, lambda v, _, name=name: _suite_args(**{name: v}))
      for name in (*SUITE_ARGS, "n_classes")),
    ("generator seed", "seed",
     lambda v, _: generate_latent_factor_suite(seed=v, **SUITE_ARGS).dataset.seed),
    ("manifest seed", "seed", _manifest_seed),
    ("BackboneConfig.input_dim", "input_dim", lambda v, _: BackboneConfig(v, (4,), 2)),
    ("BackboneConfig.hidden_widths", "hidden_widths[0]", lambda v, _: BackboneConfig(3, (v,), 2)),
    ("BackboneConfig.latent_dim", "latent_dim", lambda v, _: BackboneConfig(3, (4,), v)),
    *((f"TrainConfig.{name}", name, lambda v, _, name=name: _train(**{name: v}))
      for name in ("seed", "epochs", "initial_lr", "lr_decay", "batch_size", "eval_batch_size")),
    ("ModelCandidate.cost", "cost", lambda v, _: ModelCandidate(("a",), ("a",), v)),
    ("Grouping.budget", "budget", lambda v, _: Grouping((), v)),
    ("optimize_grouping.budget", "budget", lambda v, _: optimize_grouping("abc", GAINS, v)),
    *((f"optimize_grouping.{name}", name,
       lambda v, _, name=name: optimize_grouping("abc", GAINS, 9.0, **{name: v}))
      for name in ("stl_cost", "mtl_cost")),
    ("CostModel.n", "n", lambda v, _: CostModel(v, 1.0)),
    ("CostModel.c_s", "c_s", lambda v, _: CostModel(4, v)),
    ("TaskMatrix.set", "cell ('a', 'b')",
     lambda v, _: TaskMatrix(("a", "b"), {("a", "b"): v}).cells()),
    *((f"ExperimentConfig.{field}", field, lambda v, _, field=field: _config(field, v))
      for field in ("n_tasks", "d_latent", "d_in", "n_examples", "overlap", "noise_std",
                    "latent_dim", "epochs", "initial_lr", "lr_decay", "batch_size",
                    "eval_batch_size")),
    *((f"ExperimentConfig.{field}", field, lambda v, _, field=field: _config(field, (v,)))
      for field in ("hidden", "seeds")),
]

# An argument whose None stands for its default.
NONE_IS_DEFAULT = {"optimize_grouping.mtl_cost"}


def _outcome(build, value, tmp_path):
    """("ok", the result's repr, numpy types shown) or ("error", the ValueError's message)."""
    try:
        return "ok", repr(build(value, tmp_path))
    except ValueError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("argument, named, build", ARGUMENTS, ids=[a[0] for a in ARGUMENTS])
def test_every_numeric_argument_follows_the_number_rule(argument, named, build, tmp_path):
    names_it = re.compile(rf"(?<!\w){re.escape(named)}(?!\w)")
    for value in VALUES:
        got = _outcome(build, value, tmp_path)
        if value is None and argument in NONE_IS_DEFAULT:
            assert got[0] == "ok", (argument, value, got)
        elif isinstance(value, (np.integer, np.floating)):
            want = _outcome(build, value.item(), tmp_path)
            assert got == want if want[0] == "ok" else got[0] == "error", (argument, value, got)
        elif not isinstance(value, float):  # a bool, np.True_, a string or None
            assert got[0] == "error", (argument, value, got)
        if got[0] == "error":
            assert names_it.search(got[1]), (argument, value, got)
