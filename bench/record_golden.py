"""Record ``golden.json``: the outcome of every benchmark op at this commit.

    python3 bench/record_golden.py

Run once, at the commit whose outputs the benchmark pins.  A later commit
that is meant to change an output re-records it in a change of its own.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the path above)


def main() -> int:
    golden = {}
    for name in ("table", "census", "decompose"):
        workload = workloads.WORKLOADS[name]
        entries = {}
        for item in workload.items():
            try:
                output, exc = workload.op(item), None
            except Exception as caught:
                output, exc = None, caught
            entries[workload.key(item)] = workloads.outcome_of(workload, output, exc)
        golden[name] = entries
    table = workloads.WORKLOADS["table"]
    golden["table"][table.WHOLE] = workloads.outcome_of(table, table.whole_report(), None)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
