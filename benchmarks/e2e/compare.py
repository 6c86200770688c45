"""Compare benchmark runs of a parent commit and a change, metric by metric.

Each side is a directory of run logs, one file per run holding the standard
output of ``run.py``.  Runs pair up by (workload, seed, trace); at least
ten pairs per workload are needed.  Run both sides with the same benchmark
code (``run.py`` measures the ``src/`` of its working directory) and
alternate which side goes first::

    BENCH=$PWD/change/benchmarks/e2e LOGS=$PWD/logs
    mkdir -p $LOGS/parent $LOGS/change
    for seed in 1 2 3 4 5 6 7 8 9 10; do
      order="parent change"; [ $((seed % 2)) = 1 ] && order="change parent"
      for side in $order; do
        (cd $side && python3 $BENCH/run.py --workload paper_mix_598 \\
            --seed $seed --seconds 15 --trace 0) > $LOGS/$side/paper_mix_598-$seed.log
      done
    done
    python3 $BENCH/compare.py $LOGS/parent $LOGS/change

For each metric it prints each side's median and quartiles, the pairs the
change won (ties count for neither) and a verdict:

* ``gain``: the change won at least 9 in 10 pairs and its median is better
  by more than the parent's interquartile range;
* ``REGRESSION``: the change's median is worse than the parent's by more
  than the metric's bound (end-to-end metrics only);
* ``slower``: the mirror of a gain, within the bound: the change lost at
  least 9 in 10 pairs and its median is worse by more than the parent's
  interquartile range.  The bounds leave room for the machine's noise, so
  this names a slowdown they let through; it does not fail the comparison;
* ``unresolved``: either side's interquartile range exceeds the bound, and
  not every change run beats every parent run;
* ``within bound`` otherwise, or ``-`` for a per-layer metric, which has
  no bound.

A higher share of failed operations on the change is flagged, and voids
its gains.  Exits 1 on any regression or higher failure share.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from measure import quartiles, relative_spread

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: Path) -> Dict[Tuple[str, int], Dict[int, Tuple[dict, dict]]]:
    """(workload, trace) -> seed -> (informational line, result line)."""
    runs: Dict[Tuple[str, int], Dict[int, Tuple[dict, dict]]] = {}
    for path in sorted(directory.iterdir()):
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        if len(lines) < 2:
            raise SystemExit("%s: not a complete run log" % path)
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        runs.setdefault((info["workload"], info["trace"]), {})[info["seed"]] = (info, result)
    return runs


def verdict(parent: List[float], change: List[float], better: str, bound: Optional[float]):
    """(verdict, pairs the change won) for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for old, new in zip(parent, change) if sign * (new - old) > 0)
    losses = sum(1 for old, new in zip(parent, change) if sign * (new - old) < 0)
    parent_q1, parent_median, parent_q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    gap = sign * (change_median - parent_median)
    if wins >= WIN_SHARE * len(parent) and gap > parent_q3 - parent_q1:
        return "gain", wins
    if bound is not None and -gap > bound * abs(parent_median):
        return "REGRESSION", wins
    if losses >= WIN_SHARE * len(parent) and -gap > parent_q3 - parent_q1:
        return "slower", wins
    if bound is None:
        return "-", wins
    every_run_better = min(sign * value for value in change) > max(sign * value for value in parent)
    if max(relative_spread(parent), relative_spread(change)) > bound and not every_run_better:
        return "unresolved", wins
    return "within bound", wins


def failure_share(runs) -> float:
    attempted = sum(result["attempted"] for _, result in runs)
    return sum(result["failed"] for _, result in runs) / attempted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="directory of the parent's run logs")
    parser.add_argument("change", type=Path, help="directory of the change's run logs")
    parser.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text(encoding="utf-8"))
    metrics = {
        metric["name"]: (metric["better"], metric.get("bound"))
        for metric in spec["end_to_end"] + spec["per_layer"]
    }
    parent_runs, change_runs = load(args.parent), load(args.change)
    status = 0
    for key in sorted(set(parent_runs) & set(change_runs)):
        seeds = sorted(set(parent_runs[key]) & set(change_runs[key]))
        workload, trace = key
        if len(seeds) < MIN_PAIRS:
            print("%s (trace %d): %d pairs, need %d" % (workload, trace, len(seeds), MIN_PAIRS))
            status = 1
            continue
        parent = [parent_runs[key][seed] for seed in seeds]
        change = [change_runs[key][seed] for seed in seeds]
        more_failures = failure_share(change) > failure_share(parent)
        print("== %s (trace %d, %d pairs)" % (workload, trace, len(seeds)))
        print("%-42s %34s %34s %6s  %s" % ("metric", "parent median [q1, q3]",
                                          "change median [q1, q3]", "wins", "verdict"))
        for name in parent[0][1]["metrics"]:
            better, bound = metrics[name]
            old = [result["metrics"][name]["value"] for _, result in parent]
            new = [result["metrics"][name]["value"] for _, result in change]
            outcome, wins = verdict(old, new, better, bound)
            if outcome == "gain" and more_failures:
                outcome = "gain void: more failures"
            if outcome == "REGRESSION":
                status = 1
            print("%-42s %34s %34s %3d/%-2d  %s" % (
                name, _summary(old), _summary(new), wins, len(seeds), outcome))
        print("failed op share: parent %.4f, change %.4f%s" % (
            failure_share(parent), failure_share(change),
            "  MORE FAILURES" if more_failures else ""))
        if more_failures:
            status = 1
    return status


def _summary(values: List[float]) -> str:
    first, median, third = quartiles(values)
    return "%.5g [%.5g, %.5g]" % (median, first, third)


if __name__ == "__main__":
    raise SystemExit(main())
