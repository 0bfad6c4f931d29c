"""Command-line interface.

Subcommands:
    generate          write a synthetic task suite to a directory
    run               train, score, evaluate, and emit report files
    reproduce-tables  re-derive the bundled benchmark tables and diff them
    group             pick the best model set for a gain matrix and budget

Exit codes: 0 success, 1 check/solver failure, 2 bad input or config.
Set MTL_AFFINITY_VERBOSE=1 for progress lines on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .evaluation import GainMatrix
from .experiment import ExperimentConfig, ExperimentError, run_experiment
from .grouping import InfeasibleGroupingError, optimize_grouping
from .matrices import MatrixFormatError
from .paper_data import BundledDataError, check_tables, load_gain
from .scores import SCORE_KINDS
from .tasks import generate_latent_factor_suite, save_dataset

ENV_VERBOSE = "MTL_AFFINITY_VERBOSE"

__all__ = ["main"]


def _say(message: str) -> None:
    if os.environ.get(ENV_VERBOSE, "") not in ("", "0"):
        print(message, file=sys.stderr)


def _fail(message: str, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_config(args) -> ExperimentConfig:
    config = (ExperimentConfig.from_file(args.config) if args.config
              else ExperimentConfig())
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seeds"] = (args.seed,)
    if getattr(args, "out", None) is not None:
        overrides["out_dir"] = args.out
    if getattr(args, "scores", None) is not None:
        overrides["scores"] = tuple(s.strip() for s in args.scores.split(",") if s.strip())
    if getattr(args, "display_gs_x100", False):
        overrides["display_gs_x100"] = True
    return config.with_overrides(**overrides)


def cmd_generate(args) -> int:
    try:
        config = _load_config(args)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    out = Path(config.out_dir)
    if out.exists() and any(out.iterdir()):
        return _fail(f"output directory {out} exists and is not empty")
    seed = config.seeds[0]
    try:
        suite = generate_latent_factor_suite(
            seed=seed, n_tasks=config.n_tasks, d_latent=config.d_latent,
            d_in=config.d_in, n_examples=config.n_examples,
            overlap=config.overlap, noise_std=config.noise_std)
    except ValueError as exc:
        return _fail(str(exc))
    save_dataset(suite, out)
    _say(f"seed {seed}: {config.n_tasks} tasks, {config.n_examples} examples")
    print(f"wrote dataset to {out}")
    return 0


def cmd_run(args) -> int:
    try:
        config = _load_config(args)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    try:
        results = run_experiment(config, progress=_say)
    except (ExperimentError, MatrixFormatError, OSError, ValueError) as exc:
        return _fail(str(exc))
    for result in results:
        print(f"seed {result.seed}: wrote {result.directory}")
    return 0


def cmd_reproduce_tables(_args) -> int:
    try:
        rows = check_tables()
    except BundledDataError as exc:
        return _fail(f"bundled data integrity: {exc}")
    for row in rows:
        print(row.line())
    failed = sum(not r.ok for r in rows)
    flagged = sum(r.flagged for r in rows)
    if failed:
        print(f"{failed} of {len(rows)} cells FAILED ({flagged} flagged)")
        return 1
    print(f"all {len(rows)} cells match ({flagged} flagged known-discrepant)")
    return 0


def cmd_group(args) -> int:
    try:
        if args.gain is not None:
            text = Path(args.gain).read_text(encoding="utf-8")
            gain = GainMatrix.from_csv_text(text, unit=args.gain_unit)
        else:
            gain = load_gain()
    except (OSError, MatrixFormatError, BundledDataError, ValueError) as exc:
        return _fail(str(exc))
    try:
        grouping, total = optimize_grouping(gain.tasks, gain, args.budget,
                                            stl_cost=args.stl_cost,
                                            mtl_cost=args.mtl_cost)
    except InfeasibleGroupingError as exc:
        return _fail(str(exc), code=1)
    except ValueError as exc:
        return _fail(str(exc))
    payload = grouping.to_json_dict()
    payload["total_gain"] = total
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote grouping to {args.out}")
    else:
        print(text, end="")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtl-affinity",
        description="Task-affinity scores for multi-task learning: generate "
                    "data, train and score task pairs, check the bundled "
                    "benchmark tables, and pick task groupings.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON experiment config file")
    common.add_argument("--seed", type=int, help="override: run this single seed")
    common.add_argument("--out", help="override: output directory")

    p_gen = sub.add_parser("generate", parents=[common],
                           help="write a synthetic task suite to a directory")
    p_gen.set_defaults(fn=cmd_generate)

    p_run = sub.add_parser("run", parents=[common],
                           help="train, score, evaluate, and emit reports")
    p_run.add_argument("--scores",
                       help=f"comma-separated subset of {','.join(SCORE_KINDS)}")
    p_run.add_argument("--display-gs-x100", action="store_true",
                       help="write gs.csv scaled by 100 (display convention)")
    p_run.set_defaults(fn=cmd_run)

    p_rep = sub.add_parser("reproduce-tables",
                           help="re-derive the bundled benchmark tables and diff")
    p_rep.set_defaults(fn=cmd_reproduce_tables)

    p_grp = sub.add_parser("group",
                           help="pick the best model set under a serving budget")
    p_grp.add_argument("--gain", help="gain matrix CSV (default: bundled benchmark)")
    p_grp.add_argument("--gain-unit", default="percent",
                       choices=("percent", "fraction"),
                       help="unit of the --gain file (default percent)")
    p_grp.add_argument("--budget", type=float, required=True,
                       help="serving budget in single-task-cost units")
    p_grp.add_argument("--stl-cost", type=float, default=1.0,
                       help="serving cost of one single-task model (default 1)")
    p_grp.add_argument("--mtl-cost", type=float, default=None,
                       help="serving cost of one two-task model (default 2x stl)")
    p_grp.add_argument("--out", help="write the grouping JSON here instead of stdout")
    p_grp.set_defaults(fn=cmd_group)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
