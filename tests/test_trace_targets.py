"""The benchmark's tracer still sees every layer a training run goes through.

``perfbench/tracing.py`` wraps package functions where their callers look
them up (``experiment.train_stl``, ``_SeedRun.gain_matrix``, ...). A caller
that binds such a function some other way, say in a dispatch table built
at import time, bypasses the wrapper, and the benchmark then reports that
layer as absent. This test runs a tiny training run under the tracer and
requires every target to be found and called.
"""

import importlib.util
from pathlib import Path

from mtl_affinity.experiment import ExperimentConfig, run_experiment

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# Only the offline workload (grouping search) builds grouping candidates.
OFFLINE_ONLY = {"grouping.candidates_built"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_training_run_calls_every_trace_target(tmp_path):
    tracing = load_tracing()
    config = ExperimentConfig(
        n_tasks=3, d_latent=6, d_in=10, n_examples=120, hidden=(8,), latent_dim=6,
        epochs=2, batch_size=32, eval_batch_size=64,
        scores=("IAS", "RSA", "LI", "GS", "GT"), out_dir=str(tmp_path / "out"))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        run_experiment(config)
    finally:
        tracer.restore()
    assert tracer.absent == {}
    names = {name for _, _, name, _ in tracing.TARGETS} - OFFLINE_ONLY
    assert tracer.uncalled(names) == {}
