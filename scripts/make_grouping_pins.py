"""Rewrite tests/data/grouping_pins.json, the optimizer results test_grouping.py pins.

    PYTHONPATH=src python3 scripts/make_grouping_pins.py

Run it only in a change that means to move the optimizer's results, and
say in that change why they moved. A change that only makes the optimizer
faster or smaller must leave the fixture as it is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from grouping_pins import PINS_PATH, pin_instances, solve_pin  # noqa: E402


def main() -> int:
    pins = {label: solve_pin(gain, budget, mtl_cost)
            for label, gain, budget, mtl_cost in pin_instances()}
    lines = [f"{json.dumps(label)}: {json.dumps(pins[label], sort_keys=True)}"
             for label in sorted(pins)]
    PINS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(pins)} pins to {PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
