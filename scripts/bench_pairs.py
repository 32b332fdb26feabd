#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts: the parent (OLD_ROOT) against a change (NEW_ROOT).

    python3 scripts/bench_pairs.py OLD_ROOT NEW_ROOT --workload ocs-imbalanced --pairs 10 --seed0 0

Pair k runs `perfbench/run.py --trace 0 --seed SEED0+k` once in each
checkout, one run at a time; even pairs run OLD first and odd pairs NEW
first, so neither side always runs on a machine the other has just warmed.
The run length and the end-to-end metrics, with the direction in which each
is better and its bound, come from NEW_ROOT's BENCHMARK.json. For each
metric it prints both sides' median and quartiles, the change of the median,
its verdict, and the pairs the change wins (ties count for neither side).
It also prints each side's median count of operations attempted per run:
a run repeats rounds until the run length has passed, so a change that
slows the untimed output checks shows up as fewer operations next to a
`run_s` that is then a median over fewer rounds.
The verdict is "WORSE than bound" when the median worsens by more than the
bound; else "unresolved" when OLD's own quartile spread, (q3 - q1) / median,
is wider than the bound and some run of the change does not beat every run
of OLD, since such a spread hides a change of the bound's size; else
"within bound". Next to it each metric reads "gain shown" when the change
wins at least 9 in 10 of the pairs and its median is better than OLD's by
more than OLD's interquartile distance, q3 - q1, the rule a claimed gain is
judged by; else "no gain shown". It exits 1 if any run is not `correct`, has
failed operations, or does not finish.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict | None:
    """The result object a benchmark run prints last, or None if the run fails before printing it."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def summary(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(old: list[float], new: list[float], lower: bool, bound: float) -> tuple[float, int, str, bool]:
    """One metric over paired runs, old[k] against new[k]: the median's change, the pairs the change wins, the
    bound's verdict, and whether a gain is shown, as the module docstring defines them.
    """
    wins = sum((n < o) if lower else (n > o) for o, n in zip(old, new))
    q1, median, q3 = quartiles(old)
    new_median = statistics.median(new)
    change = new_median / median - 1.0
    worse = change if lower else -change
    clear_win = max(new) < min(old) if lower else min(new) > max(old)
    if worse > bound:
        bound_verdict = "WORSE than bound"
    elif (q3 - q1) / median > bound and not clear_win:
        bound_verdict = "unresolved, old spread wider than bound"
    else:
        bound_verdict = "within bound"
    gain = median - new_median if lower else new_median - median
    return change, wins, bound_verdict, wins >= 0.9 * len(old) and gain > q3 - q1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_root", help="checkout of the parent commit")
    parser.add_argument("new_root", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int, required=True, help="seed of the first pair; pair k runs seed0 + k")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    with open(os.path.join(args.new_root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    results = {"old": [], "new": []}
    bad = []
    for k in range(args.pairs):
        seed = args.seed0 + k
        for side in ("old", "new") if k % 2 == 0 else ("new", "old"):
            result = run_once(getattr(args, f"{side}_root"), args.workload, seed, bench["run_seconds"])
            if result is None or not result["correct"] or result["failed"]:
                outcome = "no result" if result is None else f"correct {result['correct']}, {result['failed']} failed"
                bad.append(f"pair {k} {side} (seed {seed}): {outcome}")
            results[side].append(result)
            print(f"pair {k} {side}: " + ("no result" if result is None else ", ".join(
                f"{name} {m['value']:.4g}" for name, m in result["metrics"].items())), flush=True)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for side in results.values() for r in side)
    print(f"\n{args.workload}, {args.pairs} pairs: every run correct, 0 of {attempted} operations failed")
    per_run = {side: statistics.median(r["attempted"] for r in runs) for side, runs in results.items()}
    print(f"operations attempted per run, median: old {per_run['old']:g}, new {per_run['new']:g}")
    print("median [q1, q3]")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        old, new = ([r["metrics"][name]["value"] for r in results[side]] for side in ("old", "new"))
        change, wins, bound_verdict, gain = verdict(old, new, metric["better"] == "lower", metric["bound"])
        print(f"{name} ({metric['unit']}): old {summary(old)}, new {summary(new)}, median {change:+.1%} "
              f"({bound_verdict} {metric['bound']:.0%}), change wins {wins}/{args.pairs}, "
              + ("gain shown" if gain else "no gain shown"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
