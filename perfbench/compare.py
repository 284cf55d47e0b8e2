"""Compare two sets of benchmark results, refusing a cross-machine pair.

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are directories of result records, as run.py writes them
to perfbench/.work/results/.  Every record carries the machine and
toolchain facts of its run; if any two records differ in them the
comparison is refused (exit status 2).  Otherwise each (workload, trace,
metric) is printed with the median of both sides, the before side's
quartile spread as a share of its median, and the change of the median.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory: str) -> list[dict]:
    return [json.loads(path.read_text())
            for path in sorted(Path(directory).glob("*.json"))]


def values(records: list[dict]) -> dict[tuple, list[float]]:
    out = defaultdict(list)
    for record in records:
        for name, metric in record["result"]["metrics"].items():
            out[(record["workload"], record["trace"], name)].append(
                metric["value"])
    return out


def spread(vals: list[float]) -> float:
    if len(vals) < 2 or statistics.median(vals) == 0:
        return float("nan")
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / abs(statistics.median(vals))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    if not before or not after:
        print("no result records found", file=sys.stderr)
        return 2
    machines = {json.dumps(r["machine"], sort_keys=True) for r in before + after}
    if len(machines) > 1:
        print("refusing to compare results from different machines or "
              "toolchains:", *sorted(machines), sep="\n", file=sys.stderr)
        return 2
    a, b = values(before), values(after)
    print(f"{'workload':13} {'t':1} {'metric':36} {'n':>5} {'before':>12} "
          f"{'spread':>7} {'after':>12} {'change':>8}")
    for key in sorted(set(a) & set(b)):
        med_a, med_b = statistics.median(a[key]), statistics.median(b[key])
        change = (med_b - med_a) / abs(med_a) if med_a else float("nan")
        print(f"{key[0]:13} {key[1]:1} {key[2]:36} "
              f"{len(a[key]):>2}/{len(b[key]):<2} {med_a:12.6g} "
              f"{spread(a[key]):7.3f} {med_b:12.6g} {change:+8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
