#!/usr/bin/env python3
"""Compare two perfbench result sets.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl
    python3 perfbench/compare.py RUNS.jsonl          # one set: spreads only

Each file holds the JSON-lines records ``perfbench/run.py`` appends
(``--record``); untraced records are used.  For every workload and
end-to-end metric of ``BENCHMARK.json`` it prints each set's median,
first and third quartile (``statistics.quantiles(n=4)``), the spread
(quartile distance over the median) and:

* ``within-bound`` / ``WORSE`` — whether NEW's median is worse than
  BASE's by no more than the metric's bound;
* ``GAIN`` — claimed only when NEW wins at least 9 of every 10 pairs
  (runs paired by seed; ties count for neither side) and the medians
  differ by more than BASE's own quartile distance; otherwise
  ``no gain claimed``.

Exit status 1 if any metric is WORSE or any spread (``setup_s``
excepted) exceeds its bound, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> Dict[str, Dict[str, List[Tuple[int, float]]]]:
    """``{workload: {metric: [(seed, value), ...]}}`` of untraced runs."""
    out: Dict[str, Dict[str, List[Tuple[int, float]]]] = defaultdict(lambda: defaultdict(list))
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("trace"):
                continue
            for name, m in rec["metrics"].items():
                out[rec["workload"]][name].append((rec["seed"], m["value"]))
    return out


def summary(values: List[float]) -> Tuple[float, float, float, float]:
    """(median, q1, q3, spread) — spread is (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) > 1:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if not base:
        return 0.0
    return (base - new) / base if better == "higher" else (new - base) / base


def pair_wins(
    base: List[Tuple[int, float]], new: List[Tuple[int, float]], better: str
) -> Tuple[int, int]:
    """(NEW wins, pairs) over runs paired by seed."""
    b = dict(base)
    wins = pairs = 0
    for seed, v in new:
        if seed not in b:
            continue
        pairs += 1
        if (v > b[seed]) if better == "higher" else (v < b[seed]):
            wins += 1
    return wins, pairs


def fmt(x: float) -> str:
    return f"{x:.6g}"


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new", nargs="?")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    base = load(args.base)
    new = load(args.new) if args.new else None
    bad = False
    for workload in sorted(base):
        print(f"== {workload}")
        for m in metrics:
            name, bound, better = m["name"], m["bound"], m["better"]
            a = base[workload].get(name)
            if not a:
                print(f"  {name}: missing in {args.base}")
                bad = True
                continue
            ma, qa1, qa3, sa = summary([v for _s, v in a])
            line = (
                f"  {name} [{m['unit']}] base n={len(a)} median {fmt(ma)} "
                f"q1 {fmt(qa1)} q3 {fmt(qa3)} spread {sa:.3f}"
            )
            if name != "setup_s" and sa > bound:
                line += f" SPREAD>{bound}"
                bad = True
            if new is not None:
                b = new.get(workload, {}).get(name)
                if not b:
                    print(line + f" | missing in {args.new}")
                    bad = True
                    continue
                mb, qb1, qb3, sb = summary([v for _s, v in b])
                change = worse_by(ma, mb, better)
                wins, pairs = pair_wins(a, b, better)
                if change > bound:
                    verdict = "WORSE"
                    bad = True
                else:
                    verdict = "within-bound"
                if pairs and wins >= 0.9 * pairs and abs(mb - ma) > qa3 - qa1:
                    verdict += f" GAIN ({wins}/{pairs} pairs)"
                else:
                    verdict += f" no gain claimed ({wins}/{pairs} pairs)"
                line += (
                    f" | new n={len(b)} median {fmt(mb)} q1 {fmt(qb1)} q3 {fmt(qb3)} "
                    f"spread {sb:.3f} | worse by {change:+.3f} (bound {bound}) {verdict}"
                )
                if name != "setup_s" and sb > bound:
                    line += f" SPREAD>{bound}"
                    bad = True
            print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
