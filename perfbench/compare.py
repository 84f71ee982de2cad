"""Summarise saved benchmark runs, and compare two sets of them.

Each input file holds the stdout of one ``perfbench/run.py`` run (its
last two lines: the record with provenance, then the result)::

    python3 perfbench/compare.py --base base/*.out --head head/*.out

prints, per workload and metric, the median and quartile spread of each
set and the head/base ratio.  Runs from more than one host fingerprint,
CPU count or Python version are flagged NOT COMPARABLE and the command
exits 1: a speed number means nothing across hosts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Tuple

#: provenance fields that must agree for timings to be comparable
HOST_KEYS = ("host_fingerprint", "cpu_count", "python")


def load(path: str) -> Tuple[dict, dict]:
    with open(path, encoding="utf-8") as fp:
        lines = [line for line in fp.read().splitlines() if line.strip()]
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: List[float]) -> Tuple[float, float]:
    """(median, interquartile range as a share of the median)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def collect(paths: List[str]) -> Tuple[Dict[tuple, List[float]], set]:
    values: Dict[tuple, List[float]] = {}
    hosts = set()
    for path in paths:
        record, result = load(path)
        hosts.add(tuple(record["provenance"].get(k) for k in HOST_KEYS))
        if not result["correct"]:
            print(f"warning: {path}: {result['failed']} failed cell(s)",
                  file=sys.stderr)
        for name, metric in result["metrics"].items():
            key = (record["workload"], name, metric["unit"])
            values.setdefault(key, []).append(metric["value"])
    return values, hosts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="*", default=[])
    args = parser.parse_args(argv)

    base, base_hosts = collect(args.base)
    head, head_hosts = collect(args.head)
    print(f"{'workload':<18} {'metric':<28} {'base median':>14} {'iqr':>6}"
          + (f" {'head median':>14} {'iqr':>6} {'head/base':>9}"
             if args.head else ""))
    for key in sorted(base):
        workload, name, unit = key
        med, iqr = spread(base[key])
        line = f"{workload:<18} {name:<28} {med:>11.5g} {unit:<2} {iqr:>6.1%}"
        if key in head:
            hmed, hiqr = spread(head[key])
            ratio = hmed / med if med else float("nan")
            line += f" {hmed:>11.5g} {unit:<2} {hiqr:>6.1%} {ratio:>9.3f}"
        print(line)
    hosts = base_hosts | head_hosts
    if len(hosts) > 1:
        print(f"NOT COMPARABLE: runs come from {len(hosts)} hosts "
              f"({', '.join(str(h) for h in sorted(hosts, key=str))})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
