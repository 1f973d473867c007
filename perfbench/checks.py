"""Output checks: every check returns a list of problems (empty = pass).

* :func:`replay_sqlite` / :func:`compare_answers` / :func:`compare_tables`
  replay a TPC-C statement stream into an in-memory ``sqlite3`` database
  and compare every SELECT answer and the final table contents.
* :func:`expected_invariants` / :func:`check_invariants` derive end-state
  values from the generated transactions alone, in ``Decimal``.
* :func:`check_restart` recovers a fresh deployment from a copy of the
  durable medium and compares engine state signatures.
* :func:`check_tables` compares the study's Tables 1-4 with the
  published figures.
"""

from __future__ import annotations

import sqlite3
from decimal import Decimal
from typing import Any, Iterable, Optional, Sequence

from repro.bugs import groundtruth as gt
from repro.durability import engine_state_signature
from repro.workload import schema

TABLES = ("warehouse", "district", "customer", "item", "stock",
          "orders", "order_line", "history")
_CENT = Decimal("0.01")


def norm_value(value: Any) -> Any:
    """Numerics rounded to 2 dp, CHAR padding stripped."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float, Decimal)):
        return Decimal(str(value)).quantize(_CENT)
    if isinstance(value, str):
        return value.rstrip(" ")
    return value


def norm_rows(rows: Iterable[Sequence[Any]], *, ordered: bool) -> list[tuple]:
    normalized = [tuple(norm_value(value) for value in row) for row in rows]
    return normalized if ordered else sorted(normalized, key=repr)


def is_select(sql: str) -> bool:
    return sql.lstrip().upper().startswith("SELECT")


def has_order_by(sql: str) -> bool:
    return " ORDER BY " in sql.upper()


# -- sqlite3 reference ------------------------------------------------------


def reference_database() -> sqlite3.Connection:
    """The scaled TPC-C schema and population in an in-memory sqlite3."""
    db = sqlite3.connect(":memory:", isolation_level=None)
    for statement in schema.SCHEMA_STATEMENTS + schema.populate_statements():
        db.execute(statement)
    return db


def replay_sqlite(db: sqlite3.Connection, statements: Iterable[str]) -> list[list[tuple]]:
    """Execute ``statements`` in order; return every SELECT's rows."""
    answers: list[list[tuple]] = []
    for sql in statements:
        cursor = db.execute(sql)
        if is_select(sql):
            answers.append(cursor.fetchall())
    return answers


def compare_answers(selects: Sequence[str], got: Sequence[Sequence[tuple]],
                    expected: Sequence[Sequence[tuple]]) -> list[str]:
    """Compare the program's SELECT answers with the reference's."""
    if not (len(selects) == len(got) == len(expected)):
        return [f"answer count mismatch: {len(selects)} SELECTs, "
                f"{len(got)} answers, {len(expected)} reference answers"]
    problems = []
    for index, (sql, mine, theirs) in enumerate(zip(selects, got, expected)):
        ordered = has_order_by(sql)
        if norm_rows(mine, ordered=ordered) != norm_rows(theirs, ordered=ordered):
            problems.append(f"SELECT #{index} differs from sqlite3: {sql}")
    return problems


def compare_tables(read: Any, db: sqlite3.Connection) -> list[str]:
    """Compare every table read through ``read(sql)`` with the reference."""
    problems = []
    for table in TABLES:
        sql = f"SELECT * FROM {table}"
        mine = norm_rows(read(sql).rows, ordered=False)
        theirs = norm_rows(db.execute(sql).fetchall(), ordered=False)
        if mine != theirs:
            problems.append(f"table {table} differs from sqlite3 "
                            f"({len(mine)} vs {len(theirs)} rows)")
    return problems


# -- invariants from the inputs ------------------------------------------------


def expected_invariants(transactions: Iterable[Any]) -> dict[str, Decimal]:
    """End-state values implied by the generated transactions alone."""
    orders = lines = history = 0
    w_ytd = Decimal("300000.00")
    d_ytd = {d: Decimal("30000.00") for d in range(1, schema.DISTRICTS + 1)}
    next_o_id = {d: 1 for d in range(1, schema.DISTRICTS + 1)}
    quantity = schema.ITEMS * schema.INITIAL_STOCK
    for txn in transactions:
        for template, params in txn.prepared_calls():
            if template.startswith("INSERT INTO orders"):
                orders += 1
                next_o_id[params[1]] += 1
            elif template.startswith("INSERT INTO order_line"):
                lines += 1
                quantity -= params[4]
            elif template.startswith("INSERT INTO history"):
                history += 1
            elif template.startswith("UPDATE warehouse"):
                w_ytd += Decimal(str(params[0]))
            elif template.startswith("UPDATE district SET d_ytd"):
                d_ytd[params[1]] += Decimal(str(params[0]))
    values = {
        "SELECT COUNT(*) FROM orders": orders,
        "SELECT COUNT(*) FROM order_line": lines,
        "SELECT COUNT(*) FROM history": history,
        "SELECT w_ytd FROM warehouse WHERE w_id = 1": w_ytd,
        "SELECT SUM(s_quantity) FROM stock": quantity,
        "SELECT SUM(s_order_cnt) FROM stock": lines,
    }
    for d in d_ytd:
        values[f"SELECT d_ytd FROM district WHERE d_id = {d}"] = d_ytd[d]
        values[f"SELECT d_next_o_id FROM district WHERE d_id = {d}"] = next_o_id[d]
    return {sql: Decimal(value) for sql, value in values.items()}


def check_invariants(read: Any, expected: dict[str, Decimal]) -> list[str]:
    problems = []
    for sql, value in expected.items():
        got = read(sql).scalar()
        if got is None or norm_value(got) != value.quantize(_CENT):
            problems.append(f"{sql} -> {got!r}, expected {value}")
    return problems


# -- restart recovery --------------------------------------------------------


def check_restart(live: Any, recovered: Any, outcome: Any) -> list[str]:
    """A recovered deployment must match the live one replica by replica
    without any healing: every acknowledged write came back from the
    logged bytes alone."""
    problems = []
    if outcome.crashed or outcome.healed or outcome.residual_disagreements:
        problems.append(
            f"recovery needed repair: crashed={outcome.crashed} "
            f"healed={outcome.healed} residual={outcome.residual_disagreements}"
        )
    for replica in live.replicas:
        mine = engine_state_signature(recovered.replica(replica.key).product.engine)
        if mine != engine_state_signature(replica.product.engine):
            problems.append(f"recovered {replica.key} state differs from live state")
    return problems


# -- the paper's tables -----------------------------------------------------------


def check_tables(table1: dict, table2: dict, table3: dict, table4: dict,
                 failed_on: Optional[dict[str, int]] = None) -> list[str]:
    """Tables 1-4 against the published figures.

    Table 2 is held to the published cells except the three that
    ``TABLE2_KNOWN_DEVIATIONS`` documents, which must hold those values.
    ``failed_on`` maps bug id to the number of servers it failed on; the
    paper found no bug failing more than two of the four servers."""
    problems = []
    for reported, targets in gt.PAPER_TABLE1.items():
        for target, cells in targets.items():
            for key, value in cells.items():
                if table1[reported][target][key] != value:
                    problems.append(f"Table 1 {reported}->{target} {key}: "
                                    f"{table1[reported][target][key]} != {value}")
    for group, paper in gt.PAPER_TABLE2.items():
        want = gt.TABLE2_KNOWN_DEVIATIONS.get(group, paper)
        row = table2[group]
        got = (row.total, row.none_fail, row.one_fails, row.two_fail)
        if got != want or row.more_than_two:
            problems.append(f"Table 2 {group}: {got} (+{row.more_than_two}) != {want}")
    for pair, paper in gt.PAPER_TABLE3.items():
        row = table3[pair]
        got = (row.run, row.fail_any, row.one_se, row.one_nse,
               row.both_nondetectable, row.both_detectable_se,
               row.both_detectable_nse)
        if got != paper:
            problems.append(f"Table 3 {pair}: {got} != {paper}")
    for reported, columns in gt.PAPER_TABLE4.items():
        for target, value in columns.items():
            if table4[reported][target] != value:
                problems.append(f"Table 4 {reported}->{target}: "
                                f"{table4[reported][target]} != {value}")
    for bug_id, count in (failed_on or {}).items():
        if count > 2:
            problems.append(f"{bug_id} fails on {count} of 4 servers")
    return problems
