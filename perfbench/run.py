"""Benchmark of the mtl_affinity package, run from the root of a checkout.

    python3 perfbench/run.py --workload train --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --self-test

One process runs one workload in a closed loop: each operation starts when
the previous one has finished, and the benchmark adds no threads. Every
operation's output is checked. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a traced run (see ``tracing.py``). The lines before it
name every metric with its unit, and record the environment and the config.

The host that this benchmark was written on (a 2-vCPU x86-64 VM) changes
speed by up to half within a minute, through its other tenants. So a fixed
pure-Python kernel, the speed probe, runs after every operation and every
set-up interpreter, and each wall time is also given in seconds at a
reference host speed: scaled by ``PROBE_REFERENCE_S`` over the mean of the
probes either side of it. ``setup_s`` and the offline time are reported at
reference speed. Both are mostly pure-Python work, which the probe follows:
in three sets of ten 60 s runs, the spread (quartile distance over median)
of the offline time was 0.06, 0.03 and 0.04 scaled, against 0.14, 0.25 and
0.13 raw. A train seed takes several seconds of mostly NumPy on small
arrays, and two probes around it do not follow its speed: in three sets its
spread was 0.16, 0.16 and 0.24 scaled, against 0.12, 0.22 and 0.10 raw, so
the train time is reported in raw wall seconds. Raw and scaled times are both
printed; the per-layer metrics are raw.

The package is imported from ``src/`` of the checkout and nowhere else; when
it is not there the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The speed probe's time on a quiet 2-vCPU x86-64 VM with Python 3.11.
PROBE_REFERENCE_S = 0.010
# Fresh interpreters timed before the first operation; one more follows
# every round, so the setup_s samples spread over the whole run.
SETUP_REPEATS = 5
# A run measures at least this many operations, however short --seconds is,
# so repeats of a training seed are always compared.
MIN_OPS = 2
# OpenBLAS threads in this process and in the set-up interpreters.
BLAS_THREADS = 1

SETUP_CHILD = {
    "training": """
import json, sys
sys.path.insert(0, sys.argv[1])
import mtl_affinity
from mtl_affinity.experiment import ExperimentConfig
c = ExperimentConfig.from_json_dict(json.loads(sys.argv[2]))
mtl_affinity.generate_latent_factor_suite(
    seed=c.seeds[0], n_tasks=c.n_tasks, d_latent=c.d_latent, d_in=c.d_in,
    n_examples=c.n_examples, overlap=c.overlap, noise_std=c.noise_std)
""",
    "offline": """
import sys
sys.path.insert(0, sys.argv[1])
import mtl_affinity
from mtl_affinity import paper_data
paper_data.load_gain()
paper_data.load_all_affinities()
paper_data.load_expected_level1()
paper_data.load_expected_level2()
paper_data.load_expected_level3()
""",
}


def pin_blas_threads() -> None:
    """Give OpenBLAS one thread, whatever the environment says, before numpy loads.

    The matrices here are at most 1400 x 32: on a 2-vCPU Xeon VM a second
    BLAS thread was no faster per seed, kept a second core busy, and made
    interpreter start-up bimodal (about +50 ms).
    """
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)


def import_package():
    """Import mtl_affinity from this checkout's src/, or return None."""
    package_dir = SRC / "mtl_affinity"
    if not (package_dir / "__init__.py").is_file():
        print(f"perfbench: no package at {package_dir}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import mtl_affinity
    if Path(mtl_affinity.__file__).resolve().parent != package_dir.resolve():
        print(f"perfbench: imported {mtl_affinity.__file__}, not the checkout's",
              file=sys.stderr)
        return None
    return mtl_affinity


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": openblas, "blas_threads": BLAS_THREADS,
            "machine": platform.machine()}


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"no percentile has 10 samples beyond it (n={n})"
    return f"p{100.0 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.6f}"


class _Pair:
    __slots__ = ("left", "right")

    def __init__(self, left: int, right: int):
        self.left = left
        self.right = right


def speed_probe() -> float:
    """Seconds of a fixed pure-Python kernel: objects, a dict, a sort.

    The cyclic collector is off while it runs, so the heap the package
    leaves behind does not change its cost, and the table stays small, so
    the probe does not add to peak_rss_mb.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        total = 0
        for i in range(20000):
            pair = _Pair(i, 3 * i)
            table[(i % 61, i % 7)] = pair
            total += len(table) + pair.right
        for _ in range(10):
            sorted(table, key=lambda key: (key[1], -key[0]))
        return time.perf_counter() - start
    finally:
        gc.enable()


class SpeedScale:
    """Scales wall times to the reference host speed."""

    def __init__(self):
        self.probes = [speed_probe()]

    def __call__(self, wall: float) -> float:
        """``wall`` at the reference speed; call it right after the timed work."""
        self.probes.append(speed_probe())
        return wall * PROBE_REFERENCE_S / ((self.probes[-2] + self.probes[-1]) / 2)


class Run:
    """Counts, timings and the closed-loop clock of one benchmark run."""

    def __init__(self, seconds: int):
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.started = 0
        self.scale = SpeedScale()
        self._t0 = time.perf_counter()

    def more(self, estimate: float) -> bool:
        """Whether another operation of about ``estimate`` s fits the window."""
        if self.started < MIN_OPS:
            return True
        return time.perf_counter() - self._t0 + estimate <= self.seconds

    def warm_up(self, label: str, fn, check) -> None:
        """Call fn untimed and check it, then start the clock; only a failure is counted."""
        failed = self.failed
        self.attempt(label, fn, check)
        if self.failed == failed:
            self.attempted -= 1
        self._t0 = time.perf_counter()

    def attempt(self, label: str, fn, check):
        """Call fn(), check its output.

        Returns (output or None, (wall seconds, seconds at reference speed)).
        """
        self.attempted += 1
        gc.collect()
        start = time.perf_counter()
        try:
            out, error = fn(), None
        except Exception:
            out, error = None, traceback.format_exc()
        wall = time.perf_counter() - start
        times = (wall, self.scale(wall))
        if error is not None:
            self.failed += 1
            print(f"FAILED {label}:\n{error}", file=sys.stderr)
            return None, times
        problems = check(out)
        if problems:
            self.failed += 1
            print(f"FAILED {label}: " + "; ".join(problems), file=sys.stderr)
            return None, times
        return out, times


def measure_setup(kind: str, argument: str, repeats: int,
                  scale: SpeedScale) -> list[tuple[float, float]]:
    """Fresh interpreters importing the package and loading inputs.

    Each gives (wall seconds, seconds at reference speed).

    No timeout: with one, subprocess polls the child in sleeps of up to 50 ms,
    which rounds every measurement up to that grain.
    """
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CHILD[kind], str(SRC), argument],
                       check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - start
        walls.append((wall, scale(wall)))
    return walls


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- untraced runs: end-to-end metrics ---


def untraced(work, seconds: int) -> tuple[Run, dict]:
    """End-to-end metrics of one closed-loop run."""
    run = Run(seconds)
    setup = measure_setup(work.setup_kind, work.setup_argument, SETUP_REPEATS, run.scale)
    work.warm_up(run)
    samples: dict[str, list[tuple[float, float]]] = {}
    round_walls: list[float] = []
    while run.more(statistics.median(round_walls) if round_walls else 0.0):
        run.started += 1
        start = time.perf_counter()
        for metric, values in work.round(run).items():
            samples.setdefault(metric, []).extend(values)
        setup += measure_setup(work.setup_kind, work.setup_argument, 1, run.scale)
        round_walls.append(time.perf_counter() - start)

    print(f"times are seconds at reference speed; raw wall seconds in brackets; "
          f"speed probe median {statistics.median(run.scale.probes):.6f} s over "
          f"{len(run.scale.probes)}, reference {PROBE_REFERENCE_S} s")
    samples["setup_s"] = setup
    for metric, values in samples.items():
        scaled = [ref for _, ref in values]
        print(f"{metric:20s} {statistics.median(scaled):.6f} s "
              f"({statistics.median(wall for wall, _ in values):.6f} s)  "
              f"median of {len(values)}; tail: {tail(scaled)}")
        if metric.startswith(work.primary):
            print(f"{metric} in run order: "
                  + " ".join(f"{ref:.4f} ({wall:.4f})" for wall, ref in values))
    metrics = {"op_wall_s": (work.op_wall(samples), "s"),
               "setup_s": (statistics.median(ref for _, ref in setup), "s"),
               "peak_rss_mb": (peak_rss_mb(), "MB")}
    print(f"{work.primary:20s} {metrics['op_wall_s'][0]:.6f} s  {work.op_wall_basis}")
    print(f"{'peak_rss_mb':20s} {metrics['peak_rss_mb'][0]:.3f} MB")
    print(f"{'failed_ratio':20s} {run.failed / run.attempted:.6f} ratio  "
          f"({run.failed} of {run.attempted})")
    print(f"op_wall_s is {work.primary}")
    return run, metrics


# --- traced runs: per-layer metrics ---


def traced(work, seconds: int):
    """Alternate untraced and traced operations; per-operation layer metrics.

    The warm-up is traced too, for the probe count of a run that requested
    no GS or GT.
    """
    from workloads import INSTANCE_NAMES
    run = Run(seconds)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        work.warm_up(run, tracer)
    finally:
        tracer.restore()
    warm_up = tracing.layer_metrics(*tracer.take(), INSTANCE_NAMES)
    per_op, overheads, pair_walls = [], [], []
    while run.more(statistics.median(pair_walls) if pair_walls else 0.0):
        run.started += 1
        plain = sum(wall for v in work.round(run).values() for wall, _ in v)
        tracer.install()
        try:
            wall = sum(wall for v in work.round(run, tracer).values() for wall, _ in v)
        finally:
            tracer.restore()
        spans, counts = tracer.take()
        per_op.append(tracing.layer_metrics(spans, counts, INSTANCE_NAMES))
        overheads.append(wall - plain)
        pair_walls.append(wall + plain)
    return run, tracer, warm_up, per_op, overheads


def layer_report(work, tracer, warm_up, per_op, overheads) -> dict:
    """Mean per-operation layer metrics, minus the absent ones, plus overhead.

    A metric is absent when a target it depends on is gone, or when the
    workload should have called the target and never did.
    """
    absent = tracing.absent_metrics({**tracer.absent, **tracer.uncalled(work.exercises)})
    metrics = {}
    for metric in per_op[0]:
        if metric not in absent:
            value = statistics.fmean(op[metric] for op in per_op)
            metrics[metric] = (value, _layer_unit(metric))
    unrequested = "models.unrequested_probe_backward_calls"
    if unrequested not in absent:
        metrics[unrequested] = (warm_up["models.probe_backward_calls"], "count")
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    print(f"per-layer values are means over {len(per_op)} traced operations; "
          f"{unrequested} is from the warm-up; "
          f"trace.overhead_s is the median of traced minus untraced wall")
    for metric, (value, unit) in metrics.items():
        print(f"{metric:40s} {value:.6f} {unit}")
    for metric, reason in sorted(absent.items()):
        print(f"{metric:40s} absent ({reason})")
    return metrics


def _layer_unit(metric: str) -> str:
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_s") or "_s." in metric:
        return "s"
    return "count"


# --- self-test ---


def self_test() -> int:
    """Check the tracer on both workloads; 0 when every check holds."""
    import workloads
    failures = []

    # A removed module or function is reported absent, and nothing crashes.
    probe = tracing.Tracer()
    probe.install([("autodiff_removed" if m == "autodiff" else m,
                    "rsa_removed" if a == "rsa" else a, n, k)
                   for m, a, n, k in tracing.TARGETS])
    probe.restore()
    absent = tracing.absent_metrics(probe.absent)
    for metric in ("autodiff.backward_calls", "models.sgd_steps", "scores.rsa_s",
                   "experiment.self_s"):
        if metric not in absent:
            failures.append(f"{metric} is not reported absent after its target was removed")
    if "scores.ias_s" in absent:
        failures.append("scores.ias_s is reported absent although its target exists")
    # So is one that exists but that a workload meant to call never called.
    if "scores.gs_s" not in tracing.absent_metrics(probe.uncalled({"scores.gs"})):
        failures.append("scores.gs_s is not reported absent although nothing called it")

    # Both workloads together call every target the tracer installs, and the
    # counts of two traced train operations repeat exactly.
    called = Counter()
    for name in ("train", "offline"):
        run, tracer, _, per_op, _ = traced(workloads.make(name, 0), 1)
        if run.failed:
            failures.append(f"{run.failed} of {run.attempted} {name} operations failed")
        called.update({target: tracer.target_calls[target] for target in tracer.installed})
        if name == "train":
            counts = [(op["models.sgd_steps"], op["models.probe_backward_calls"])
                      for op in per_op]
            print(f"(sgd_steps, probe_backward_calls) per traced run: {counts}")
            if len(set(counts)) != 1:
                failures.append(f"counts differ between traced runs: {counts}")
    for target, calls in sorted(called.items()):
        print(f"{target:55s} {calls} calls")
        if not calls:
            failures.append(f"{target} was never called")
    for failure in failures:
        print(f"SELF-TEST FAIL {failure}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("train", "offline"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the tracer on the train workload and exit")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    pin_blas_threads()
    if import_package() is None:
        return 2
    if args.self_test:
        return self_test()
    import workloads

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} loop=closed clients=1")
    print("env " + json.dumps(environment(), sort_keys=True))
    work = workloads.make(args.workload, args.seed)
    print("config " + json.dumps(work.describe(), sort_keys=True))
    if args.trace:
        run, tracer, warm_up, per_op, overheads = traced(work, args.seconds)
        metrics = layer_report(work, tracer, warm_up, per_op, overheads)
    else:
        run, metrics = untraced(work, args.seconds)
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
