"""Does the speed probe rescale program changes faithfully?

    python3 perfbench/probe_check.py [--rounds 30]

Replays one fixed block of read-only prepared TPC-C transactions
(order-status and stock-level, which leave the data unchanged) on a
``tpcc-prepared-reads`` deployment, in rounds of three variants of the
program, each installed from here for its block only:

* ``base``: the program as it is;
* ``slow``: every ``PreparedStatement.execute`` first does a fixed
  piece of extra Python work (a known slowdown);
* ``heap``: every ``PreparedStatement.execute`` also keeps 250 new
  objects alive until the block ends (a heap-growing change, which
  makes the program's garbage collections dearer).

The variants alternate within one process, so they meet the same host
speed on average.  For each variant it prints the block's raw CPU time
(kernel runs excluded) and its reference time (see :mod:`speed`), the
change of each against ``base``, and the median kernel time of the
samples taken inside that variant's blocks.  A faithful probe shows the
same change on both clocks and the same kernel time in every variant.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import workloads  # noqa: E402
from speed import SpeedProbe, clock  # noqa: E402

from repro.middleware import PreparedStatement  # noqa: E402
from repro.workload import TpccGenerator  # noqa: E402

TRANSACTIONS = 300
KEPT: list = []


def burn() -> int:
    return sum(len(str(i)) for i in range(400))


def grow() -> None:
    KEPT.append([(i, str(i)) for i in range(250)])


def variant(extra: Callable[[], Any]) -> Callable:
    original = PreparedStatement.execute

    def execute(self: PreparedStatement, params: Any = ()) -> Any:
        extra()
        return original(self, params)
    return execute


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args()
    deployment = workloads.Deployment(workloads.TPCC["tpcc-prepared-reads"], seed=1)
    generator = TpccGenerator(seed=1)
    # (handle, parameters) pairs: the method is looked up at each call.
    block = [(call.func.__self__, call.args) for n in range(TRANSACTIONS)
             for _, call in deployment.calls(
                 generator.order_status() if n % 2 else generator.stock_level())]
    original = PreparedStatement.execute
    variants = {"base": original, "slow": variant(burn), "heap": variant(grow)}
    spans: dict[str, list[tuple[float, float]]] = {name: [] for name in variants}

    with SpeedProbe() as probe:
        for number in range(args.rounds):
            names = list(variants)
            names = names[number % 3:] + names[:number % 3]
            for name in names:
                PreparedStatement.execute = variants[name]  # type: ignore[method-assign]
                start = clock()
                for handle, params in block:
                    handle.execute(*params)
                spans[name].append((start, clock()))
                PreparedStatement.execute = original  # type: ignore[method-assign]
                KEPT.clear()

    totals = {}
    for name, intervals in spans.items():
        raw = sum(probe.reference(a, b, scaled=False) for a, b in intervals)
        ref = sum(probe.reference(a, b) for a, b in intervals)
        inside = [kernel for end, kernel in zip(probe.ends, probe.kernels)
                  if any(a < end < b for a, b in intervals)]
        totals[name] = (raw, ref)
        base_raw, base_ref = totals["base"]
        print(f"{name:<5} raw {raw:8.4f} s ({raw / base_raw - 1:+.3f})  "
              f"reference {ref:8.4f} s ({ref / base_ref - 1:+.3f})  "
              f"kernel {statistics.median(inside) * 1e3:.4f} ms over {len(inside)} samples")
    return 0


if __name__ == "__main__":
    sys.exit(main())
