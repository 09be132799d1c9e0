#!/usr/bin/env python3
"""Regenerate perfbench/expected_verdicts.json from the current tree.

The table holds, at the default seed, the verdicts of every class_ladder and
dual_scan report and the region kind of every core_regions estimate.  The
benchmark counts an operation whose output differs from the table as failed,
so a change that moves a verdict on purpose regenerates the table and says
so.

Usage: python3 perfbench/expected.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    table = workloads.expected_table(workloads.DEFAULT_SEED)
    workloads.EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {workloads.EXPECTED_PATH}")


if __name__ == "__main__":
    main()
