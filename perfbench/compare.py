#!/usr/bin/env python3
"""Summarise or compare benchmark result records.

    python3 perfbench/compare.py RESULTS            # one set: spread per metric
    python3 perfbench/compare.py BEFORE AFTER       # two sets, e.g. two commits

Each argument is a directory of records written by ``run.py --results``.
Records are grouped by workload and trace mode; each record gives one
value per metric. For every workload and metric this prints each side's
median, quartiles (``statistics.quantiles``, n = 4) and run count. One
set also gets its spread: the quartile distance over the median. Two
sets also get the ratio after / before and a verdict under the metric's
bound in BENCHMARK.json:

* ``worse``: the after median is worse by more than the bound, and both
  spreads are within the bound or every after run is worse than every
  before run;
* ``unresolved``: a spread exceeds the bound and the two sides' runs
  interleave;
* ``improved``: the after median is better by more than the before
  side's quartile distance, and the after side wins at least nine
  tenths of the pairs of runs with the same seed (or every pair of runs,
  when no seed is shared);
* ``unchanged``: otherwise.

Per-layer metrics have no bound: they read ``improved`` or ``worse``
only when the two sides' quartile ranges do not overlap. For timed runs
the comparison also states whether runs with the same seed wrote
byte-identical data outputs.
"""

from __future__ import annotations

import glob
import json
import os
import sys

from run import quartiles

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory: str) -> dict:
    """Records by (workload, trace), each list sorted by seed."""
    groups: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace[01].json"))):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    for records in groups.values():
        records.sort(key=lambda r: r["seed"])
    return groups


def spread(q: dict) -> float:
    return (q["q3"] - q["q1"]) / abs(q["median"]) if q["median"] else 0.0


def verdict(before: dict, after: dict, spec: dict) -> str:
    """Verdict on one metric; ``before``/``after`` map seed -> value."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    gain = lambda a, b: sign * (b - a)  # noqa: E731  (> 0: b is better than a)
    qb, qa = quartiles(list(before.values())), quartiles(list(after.values()))
    pairs = [(a, b) for a in before.values() for b in after.values()]
    all_better = all(gain(a, b) > 0 for a, b in pairs)
    all_worse = all(gain(a, b) < 0 for a, b in pairs)
    bound = spec.get("bound")
    if bound is None:
        worst = lambda q: q["q1"] if sign > 0 else q["q3"]  # noqa: E731
        best = lambda q: q["q3"] if sign > 0 else q["q1"]  # noqa: E731
        if gain(best(qb), worst(qa)) > 0:
            return "improved"
        if gain(best(qa), worst(qb)) > 0:
            return "worse"
        return "unchanged"
    loss = -gain(qb["median"], qa["median"]) / (abs(qb["median"]) or 1.0)
    wide = max(spread(qb), spread(qa)) > bound
    if loss > bound and (not wide or all_worse):
        return "worse"
    if wide and not (all_better or all_worse):
        return "unresolved"
    shared = [s for s in after if s in before]
    wins = (
        sum(gain(before[s], after[s]) > 0 for s in shared) / len(shared)
        if shared else float(all_better)
    )
    if gain(qb["median"], qa["median"]) > qb["q3"] - qb["q1"] and wins >= 0.9:
        return "improved"
    return "unchanged"


def _fmt(q: dict) -> str:
    return f"{q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}] n={q['n']}"


def report(workload: str, trace: int, groups: list, specs: list) -> None:
    print(f"\n== {workload} (trace {trace}): " + " vs ".join(f"{len(g)} runs" for g in groups))
    for spec in specs:
        name = spec["name"]
        series = [{r["seed"]: r["metrics"][name] for r in g if name in r["metrics"]} for g in groups]
        if not all(series):
            continue
        qs = [quartiles(list(s.values())) for s in series]
        line = f"  {name:28s} {spec['unit']:6s} " + "  ->  ".join(_fmt(q) for q in qs)
        if len(qs) == 1:
            line += f"  spread {spread(qs[0]):.3f}"
            if "bound" in spec:
                line += f" (bound {spec['bound']})"
        else:
            ratio = qs[1]["median"] / qs[0]["median"] if qs[0]["median"] else float("nan")
            line += f"  ratio {ratio:.4f}  {verdict(series[0], series[1], spec)}"
        print(line)
    if len(groups) == 2 and not trace:
        before = {r["seed"]: r.get("digests") for r in groups[0]}
        shared = [r for r in groups[1] if r["seed"] in before]
        differ = [r["seed"] for r in shared if r.get("digests") != before[r["seed"]]]
        if not shared:
            print("  output digests: no seed was run on both sides")
        elif differ:
            print(f"  output digests: DIFFER for seeds {differ}")
        else:
            print(f"  output digests: match for all {len(shared)} shared seeds")
    print("  failed command runs: " + "  ->  ".join(
        f"{sum(r['failed'] for r in g)} of {sum(r['attempted'] for r in g)}" for g in groups
    ))


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    sides = [load(d) for d in argv]
    keys = sorted(set().union(*sides))
    if not keys:
        print("no result records found", file=sys.stderr)
        return 1
    for workload, trace in keys:
        specs = bench["per_layer"] if trace else bench["end_to_end"]
        report(workload, trace, [side.get((workload, trace), []) for side in sides], specs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
