"""Per-layer metrics: which entry points are traced and how spans and
counts become the ``per_layer`` values of ``BENCHMARK.json``.

Every value comes from a traced run (see :mod:`spans`).  TPC-C values
are per timed statement unless the name says otherwise; corpus values
(``study.*``, ``analysis.*``, ``corpus.*``) are per pass.  On the corpus
workload the engine-level values are per statement executed on a
product.  A layer a workload never enters reads 0 there.
"""

from __future__ import annotations

from typing import Any

import repro.net.transport as transport
from repro.durability import DurabilityManager, MemoryMedium
from repro.middleware import (
    DiverseServer,
    PreparedStatement,
    ReplicaSupervisor,
    ResultComparator,
    StatementPipeline,
)
from repro.net import NetServer, SessionSupervisor
from repro.net.client import SupervisedHandle
from repro.servers import ServerProduct
from repro.sqlengine.engine import EnginePrepared
from repro.sqlengine.parser import Parser
from repro.study.runner import StudyRunner
from spans import Tracer


def _add(key: str, amount: Any = 1) -> Any:
    def count(tracer: Tracer, result: Any, args: tuple) -> None:
        tracer.counts[key] += amount(result, args) if callable(amount) else amount
    return count


def install(tracer: Tracer) -> None:
    """Wrap the serving-path entry points (all workloads)."""
    tracer.span(Parser, "__init__", count=_add("parses"))
    tracer.span(StatementPipeline, "parsed", "pipeline.parse")
    tracer.span(StatementPipeline, "translation", "dialects.translate")
    engine_calls = _add("engine.calls")
    tracer.span(ServerProduct, "execute", "engine.execute", engine_calls)
    tracer.span(EnginePrepared, "execute", "engine.execute", engine_calls)
    tracer.span(ResultComparator, "compare", "comparator.compare",
                _add("comparator.rows", lambda _, args: sum(len(a.rows) for a in args[1])))
    tracer.span(DiverseServer, "execute", "server")
    tracer.span(PreparedStatement, "execute", "server")
    tracer.span(ReplicaSupervisor, "maybe_checkpoint", "supervisor.checkpoint")
    tracer.span(DurabilityManager, "log_write", "durability.log_write")
    tracer.span(DurabilityManager, "maybe_checkpoint", "durability.checkpoint")
    tracer.span(MemoryMedium, "append",
                count=_add("wal_bytes", lambda _, args: len(args[2])))
    tracer.span(MemoryMedium, "write",
                count=_add("checkpoint_bytes", lambda _, args: len(args[2])))
    tracer.span(NetServer, "handle_frame", "net.server")
    tracer.span(SessionSupervisor, "execute", "net.client")
    tracer.span(SupervisedHandle, "execute", "net.client")
    tracer.span(transport, "encode_frame",
                count=_add("frame_bytes", lambda result, _: len(result)))


def install_corpus(tracer: Tracer, lint_module: Any, study_tables: Any) -> None:
    """Wrap the study and lint entry points (corpus workload)."""
    tracer.span(StudyRunner, "run_cell", "study.run_cell", _add("cells"))
    for number in range(1, 5):
        tracer.span(study_tables, f"build_table{number}", "study.tables")
    tracer.span(lint_module, "minimize_report", "analysis.minimize")
    tracer.span(lint_module, "translation_verdict", "analysis.translation_verdict")
    tracer.span(lint_module, "predicted_hosts", "analysis.translation_verdict")
    tracer.span(lint_module, "unreachable_faults", "analysis.reachability")
    tracer.span(lint_module, "run_lint", "analysis.lint")


def snapshot(server: DiverseServer) -> dict[str, int]:
    """Program counters read before and after the timed phase."""
    stats = server.pipeline.stats
    return {"hits": stats.hits, "misses": stats.misses,
            "checkpoints": server.stats.checkpoints, "writes": server.stats.writes}


def values(tracer: Tracer, self_times: dict[str, float], statements: int, passes: int,
           delta: dict[str, int]) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` from one traced run;
    ``self_times`` maps span names to their total self time in reference
    seconds."""
    counts = tracer.counts
    n = max(statements, 1)
    writes = delta.get("writes", 0)
    passes = max(passes, 1)

    def us(name: str) -> float:
        return self_times.get(name, 0.0) * 1e6 / n

    def per_pass(name: str) -> float:
        return self_times.get(name, 0.0) / passes

    return {
        "sqlengine.parser.parses": counts["parses"] / n,
        "middleware.pipeline.parse_us": us("pipeline.parse"),
        "middleware.pipeline.hits": delta.get("hits", 0) / n,
        "middleware.pipeline.misses": delta.get("misses", 0) / n,
        "dialects.translate_us": us("dialects.translate"),
        "sqlengine.engine.execute_us": us("engine.execute"),
        "sqlengine.engine.calls": counts["engine.calls"] / n,
        "middleware.comparator.compare_us": us("comparator.compare"),
        "middleware.comparator.rows": counts["comparator.rows"] / n,
        "middleware.server.self_us": us("server"),
        "middleware.supervisor.checkpoint_us": us("supervisor.checkpoint"),
        "middleware.supervisor.checkpoints": delta.get("checkpoints", 0),
        "durability.log_write_us": us("durability.log_write"),
        "durability.checkpoint_us": us("durability.checkpoint"),
        "durability.wal_bytes_per_write": counts["wal_bytes"] / writes if writes else 0.0,
        "durability.checkpoint_bytes_per_write": (
            counts["checkpoint_bytes"] / writes if writes else 0.0
        ),
        "net.server_us": us("net.server"),
        "net.client_us": us("net.client"),
        "net.frame_bytes": counts["frame_bytes"] / n,
        "study.run_cell_s": per_pass("study.run_cell"),
        "study.cells": counts["cells"] / passes,
        "study.tables_s": per_pass("study.tables"),
        "analysis.dataflow.minimize_s": per_pass("analysis.minimize"),
        "analysis.translation_verdict_s": per_pass("analysis.translation_verdict"),
        "analysis.reachability_s": per_pass("analysis.reachability"),
        "analysis.lint.self_s": per_pass("analysis.lint"),
        "corpus.parses": counts["parses"] / passes if counts["cells"] else 0.0,
    }
