"""Steadiness check: run the same code in two sets and compare.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--seed 1]

Each of two sets runs the benchmark ``--runs`` times for
``run_seconds`` (from ``BENCHMARK.json``), each run with its own seed:
the first set from ``--seed`` on, the second from ``--seed + --runs``
on, so the second set also confirms the figures on other seeds.  For every end-to-end metric it prints each set's
median, first and third quartile (``statistics.quantiles(values, n=4)``),
the spread (quartile distance over the median) and the second median's
change against the first.  It flags a spread above a third of the
metric's bound, a spread above the bound and a change worse than the
bound, and prints each set's share of failed operations.  It exits 1
when a spread or change exceeds its bound, the failed shares differ or
a run is not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]

    sets = [[run_once(args.workload, args.seed + number * args.runs + run,
                      bench["run_seconds"])
             for run in range(args.runs)] for number in range(SETS)]
    broken = False
    shares = []
    for number, results in enumerate(sets, 1):
        share = sorted({r["failed"] / r["attempted"] for r in results})
        shares.append(share)
        correct = all(r["correct"] for r in results)
        broken |= not correct or len(share) != 1
        print(f"set {number}: failed share {share}, correct {correct}")
    if shares[0] != shares[-1]:
        broken = True
        print("FAILED SHARES DIFFER between the sets")

    first: dict[str, float] = {}
    for number, results in enumerate(sets, 1):
        print(f"\nset {number} ({args.workload}, {args.runs} runs)")
        print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'change':>8}")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flags = []
            if spread > bound:
                flags.append("SPREAD>BOUND")
            elif spread > bound / 3:
                flags.append("spread>bound/3")
            change = ""
            if number == 1:
                first[name] = median
            else:
                ratio = median / first[name] - 1
                change = f"{ratio:+.3f}"
                worse = -ratio if metric["better"] == "higher" else ratio
                if worse > bound:
                    flags.append("CHANGE>BOUND")
            broken |= any(flag.isupper() for flag in flags)
            print(f"{name:<16} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>8.3f} {change:>8} {' '.join(flags)}")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
