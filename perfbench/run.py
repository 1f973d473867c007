"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in a fresh interpreter with ``PYTHONHASHSEED=0``,
checks every output, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  The line before it holds the
end-to-end figures in reference and in raw thread CPU seconds (see
``speed.py``).  Exits 1 when a check fails and 2 when the program's
sources are absent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro" / "__init__.py"

WORKLOADS = ("tpcc-literal", "tpcc-prepared-reads", "tpcc-served-durable",
             "corpus-study-lint")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not SOURCE.is_file():
        print(f"perfbench: program sources not found at {SOURCE.parent}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, __file__, *argv], env)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    values = result["values"]
    print(json.dumps({"clocks": result["clocks"]}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                    for metric in metrics},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
