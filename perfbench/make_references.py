"""Write references.json: the outputs the benchmark checks every operation against.

    python3 perfbench/make_references.py

For each of the POOL input sets it stores the gain and score matrices of
one ``train`` seed, and the total gain and grouping of
every ``offline`` instance, plus the number of rows ``check_tables()``
gives. Run it only when a change is meant to move these values, and say
so in that change; it takes several minutes.
"""

from __future__ import annotations

import json
import sys

from run import import_package, pin_blas_threads


def main() -> int:
    pin_blas_threads()
    if import_package() is None:
        return 2
    import workloads as wl
    from mtl_affinity import experiment, grouping, paper_data

    refs: dict = {"offline_tables_rows": len(paper_data.check_tables())}
    refs["train"] = {}
    for seed in range(wl.POOL):
        [result] = experiment.run_experiment(wl.training_config(seed))
        refs["train"][str(seed)] = wl.training_values(result)
        print(f"train seed {seed}", file=sys.stderr)
    refs["offline"] = {}
    for seed in range(wl.POOL):
        solved = {}
        for name, gain, budget in wl.offline_inputs(seed):
            chosen, total = grouping.optimize_grouping(gain.tasks, gain, budget)
            solved[name] = {"total": total, "encoding": chosen.encoding()}
        refs["offline"][str(seed)] = json.loads(json.dumps(solved))
        print(f"offline seed {seed}", file=sys.stderr)
    wl.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
