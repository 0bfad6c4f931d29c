"""Rewrite tests/data/golden.json, the numbers test_golden.py pins.

    PYTHONPATH=src python3 scripts/make_golden.py

Run it only in a change that means to move the numeric outputs, and say
in that change why they moved and how the new values were checked. A
change that only restructures code must leave the fixture as it is.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from golden import GOLDEN_PATH, golden_config, golden_values  # noqa: E402
from mtl_affinity.experiment import run_experiment  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as out_dir:
        [result] = run_experiment(golden_config(out_dir))
    GOLDEN_PATH.write_text(json.dumps(golden_values(result), indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
