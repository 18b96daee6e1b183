"""Set two sets of benchmark results side by side.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds result files written by run.py (``perfbench/out/``
after a series of runs).  For every workload and metric found on both
sides it prints each side's median over runs, the spread between the
first and third quartile as a share of the median, and the change.

It refuses (exit status 2) to compare runs whose gglab backends differ:
the compiled and pure-Python kernels are about 1.6x apart end to end, so
such a comparison would measure the backend, not the change.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(directory: str) -> list[dict]:
    results = []
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        if "env" in doc and "metrics" in doc:
            results.append(doc)
    return results


def spread(values: list[float]) -> float:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(d) for d in argv]
    if not all(sides):
        print("no result files found on one side", file=sys.stderr)
        return 2
    backends = [{r["env"]["backend"] for r in side} for side in sides]
    if len(backends[0] | backends[1]) != 1:
        print(f"refusing to compare: backends differ ({backends[0]} vs {backends[1]})", file=sys.stderr)
        return 2

    def table(side):
        out: dict[tuple, list[float]] = {}
        for r in side:
            for name, m in r["metrics"].items():
                out.setdefault((r["workload"], name, m["unit"]), []).append(m["value"])
        return out

    before, after = table(sides[0]), table(sides[1])
    print(f"{'workload':<10} {'metric':<44} {'before':>12} {'spread':>7} {'after':>12} {'spread':>7} {'change':>8}")
    for key in sorted(before.keys() & after.keys()):
        workload, name, unit = key
        b, a = statistics.median(before[key]), statistics.median(after[key])
        change = f"{(a - b) / abs(b):+.1%}" if b else "n/a"
        print(
            f"{workload:<10} {name:<44} {b:>12.5g} {spread(before[key]):>7.1%} "
            f"{a:>12.5g} {spread(after[key]):>7.1%} {change:>8}  {unit}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
