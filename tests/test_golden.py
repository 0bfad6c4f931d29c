"""A fresh run of the golden config against the numbers pinned in git."""

import json

from golden import ABS_TOL, GOLDEN_PATH, REL_TOL, golden_config, golden_values
from mtl_affinity.experiment import run_experiment


def _mismatches(got, want, path="") -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got} "
                    f"!= {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{path}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got} != {want}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        if abs(got - want) <= ABS_TOL + REL_TOL * abs(want):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def test_golden_run_matches_fixture(tmp_path):
    [result] = run_experiment(golden_config(str(tmp_path)))
    got = json.loads(json.dumps(golden_values(result)))
    want = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    problems = _mismatches(got, want)
    assert not problems, "numbers moved from tests/data/golden.json:\n" + "\n".join(problems)
