#!/usr/bin/env python3
"""Compare two sets of end-to-end results, per workload and metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds ``result-trace0.json`` files written by ``run.py``
(searched recursively), for example copies of ``perfbench/out`` taken on
the two commits.  Results taken on different search backends or Python
versions measure different programs, so the comparison is refused.  For
every workload and metric it prints both medians with their quartiles
and flags a change worse than the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MUST_MATCH = ("backend", "python", "implementation")


def load(directory: Path) -> tuple[dict, set]:
    """(workload -> metric -> values, the set of MUST_MATCH tuples seen)."""
    values: dict = defaultdict(lambda: defaultdict(list))
    setups = set()
    for path in sorted(directory.rglob("result-trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        setups.add(tuple(record[key] for key in MUST_MATCH))
        for name, value in record["metrics"].items():
            values[record["workload"]][name].append(value)
    return values, setups


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base, base_setups), (new, new_setups) = (load(Path(arg)) for arg in argv)
    if not base or not new:
        print("compare: no result-trace0.json found on one side", file=sys.stderr)
        return 2
    if len(base_setups | new_setups) != 1:
        print(f"compare: refusing to compare results from different setups {sorted(base_setups | new_setups)} "
              f"({', '.join(MUST_MATCH)})", file=sys.stderr)
        return 2
    spec = {m["name"]: m for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]}
    print(f"{'workload':<14} {'metric':<12} {'base median [q1, q3]':>30} {'new median [q1, q3]':>30} {'change':>8}")
    for workload in sorted(set(base) & set(new)):
        for name, metric in spec.items():
            a, b = base[workload][name], new[workload][name]
            if not a or not b:
                continue
            change = statistics.median(b) / statistics.median(a) - 1
            worse = change if metric["better"] == "lower" else -change
            flag = "  WORSE THAN BOUND" if worse > metric["bound"] else ""
            print(f"{workload:<14} {name:<12} {_summary(a):>30} {_summary(b):>30} {change:>+8.1%}{flag}")
    return 0


def _summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g} (1 run)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
