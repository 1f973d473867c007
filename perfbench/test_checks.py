"""Each output check rejects a tampered output.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from repro.bugs import groundtruth as gt  # noqa: E402
from repro.durability import encode_record, scan_records  # noqa: E402
from repro.study.tables import Table2Row, Table3Row  # noqa: E402


def test_altered_select_row_is_rejected():
    deployment = workloads.Deployment(workloads.TPCC["tpcc-literal"], seed=1)
    assert workloads.check_tpcc(deployment) == []
    index = next(i for i, rows in enumerate(deployment.answers) if rows)
    first = deployment.answers[index][0]
    altered = first[0] + ("x" if isinstance(first[0], str) else 1)
    deployment.answers[index] = [(altered, *first[1:]), *deployment.answers[index][1:]]
    problems = workloads.check_tpcc(deployment)
    assert any("differs from sqlite3" in problem for problem in problems)


def test_dropped_wal_record_is_rejected():
    deployment = workloads.Deployment(workloads.TPCC["tpcc-served-durable"], seed=1)
    assert workloads.check_tpcc(deployment) == []
    medium = deployment.medium
    records = scan_records(medium.read("IB/wal")).records
    medium.write("IB/wal", b"".join(
        encode_record(r.lsn, r.generation, r.sql) for r in records[:-1]
    ))
    problems = workloads.check_tpcc(deployment)
    assert any("recovery needed repair" in problem for problem in problems)


def paper_tables():
    table2 = {group: Table2Row(*gt.TABLE2_KNOWN_DEVIATIONS.get(group, cells))
              for group, cells in gt.PAPER_TABLE2.items()}
    table3 = {pair: Table3Row(*cells) for pair, cells in gt.PAPER_TABLE3.items()}
    return (copy.deepcopy(gt.PAPER_TABLE1), table2, table3,
            copy.deepcopy(gt.PAPER_TABLE4))


def test_altered_table1_cell_is_rejected():
    tables = paper_tables()
    assert checks.check_tables(*tables, failed_on={"x": 2}) == []
    tables[0]["IB"]["IB"]["crash"] += 1
    assert checks.check_tables(*tables) == ["Table 1 IB->IB crash: 8 != 7"]


def test_bug_failing_three_servers_is_rejected():
    assert checks.check_tables(*paper_tables(), failed_on={"x": 3}) == [
        "x fails on 3 of 4 servers"
    ]


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tpcc-literal",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode != 0
    assert run.stdout == ""
