"""The four benchmark workloads and their metrics.

Every timing is taken on the thread's CPU clock (``time.thread_time``):
each path driven here is single-threaded, advances the middleware's
virtual clock, never sleeps and does no blocking I/O, so the CPU clock
counts all of the program's work and none of the scheduler's.  Reported
times are converted to reference seconds (see :mod:`speed`).

``run(workload, seed, seconds, trace)`` returns ``correct``,
``attempted``, ``failed``, the metric ``values`` the entry point prints
(end-to-end in reference seconds, or per-layer when traced), and the
end-to-end figures on both clocks (``clocks``).
"""

from __future__ import annotations

import itertools
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

import checks
import layers
from spans import Tracer
from speed import SpeedProbe

import repro.analysis.lint as lint_module
import repro.study.tables as study_tables
from repro.analysis.conflicts import analyze_sessions
from repro.bugs.corpus import Corpus, build_corpus
from repro.durability import DurabilityManager, MemoryMedium
from repro.errors import ReproError
from repro.middleware import DiverseServer, ServerConfig
from repro.net import NetServer, SessionSupervisor, SimulatedNetwork
from repro.servers import ServerProduct, make_server
from repro.study import run_study
from repro.study.runner import StudyRunner
from repro.workload import TpccGenerator, TransactionMix
from repro.workload.schema import SCHEMA_STATEMENTS, populate_statements

clock = time.thread_time

PRODUCTS = ("IB", "PG", "OR", "MS")
#: Deployments built per run; ``setup_s`` is their median.
SETUPS = 7
#: Transactions run during each set-up, after population.
WARMUP_TRANSACTIONS = 20
#: Profiles per deck; a deck holds the mix exactly.
DECK = 100
#: Seed of the deck shuffles: every run deals the profiles in the same
#: order and only the generated parameters depend on the workload seed.
#: Seed-shuffled decks put a different profile mix into the 20 warm-up
#: transactions of every seed, and set-up time followed it (median
#: reference set-up 1.00-1.23 s on ``tpcc-literal`` over seeds 1-5,
#: against 1.10-1.15 s with a fixed order).
DECK_SEED = 0
#: ``lint_s`` on TPC-C analyses the workload's first deck in windows of
#: this many transactions, each dealt alternately to two session scripts.
LINT_WINDOW = 20
#: Repetitions of the end-state audit and of the conflict analysis on
#: the TPC-C workloads (medians reported): single repetitions of either
#: varied by up to a fifth within one run.
REPEATS = 9
#: Builds of the corpus and its study deployment timed for ``setup_s``.
CORPUS_SETUPS = 15

CANONICAL = TransactionMix()
READ_HEAVY = TransactionMix(new_order=5, payment=5, order_status=45,
                            delivery=0, stock_level=45)


@dataclass(frozen=True)
class TpccSpec:
    mix: TransactionMix
    prepared: bool
    #: Two sessions over the simulated wire, with a DurabilityManager.
    served: bool = False


TPCC = {
    "tpcc-literal": TpccSpec(CANONICAL, prepared=False),
    "tpcc-prepared-reads": TpccSpec(READ_HEAVY, prepared=True),
    "tpcc-served-durable": TpccSpec(CANONICAL, prepared=True, served=True),
}


def dealt(seed: int, mix: TransactionMix) -> Iterator[Any]:
    """``TpccGenerator`` transactions with the profile order dealt from
    shuffled decks of ``DECK`` that hold the mix exactly (as TPC-C's own
    terminals do), so every run of a workload has the same mix and only
    the generated parameters depend on the seed."""
    generator = TpccGenerator(seed=seed, mix=mix)
    names, weights = mix.choices()
    deck = [name for name, weight in zip(names, weights) for _ in range(round(weight))]
    assert len(deck) == DECK
    shuffle = random.Random(DECK_SEED).shuffle
    while True:
        shuffle(deck)
        for name in deck:
            yield getattr(generator, name)()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def conflict_scripts(seed: int, mix: TransactionMix) -> list[list[str]]:
    """The workload's first deck (the transactions every run begins
    with) as windows of ``LINT_WINDOW`` transactions, each window dealt
    alternately to two session scripts."""
    deck = list(itertools.islice(dealt(seed, mix), DECK))
    return [[";\n".join(sql for txn in window[k::2] for sql in txn.statements)
             for k in range(2)]
            for window in (deck[i:i + LINT_WINDOW] for i in range(0, DECK, LINT_WINDOW))]


def latency_metrics(times: list[float]) -> dict[str, float]:
    """Throughput and latency percentiles from per-statement CPU times."""
    cuts = statistics.quantiles(times, n=100, method="inclusive")
    return {
        "stmt_per_s": len(times) / sum(times),
        "stmt_p50_us": statistics.median(times) * 1e6,
        "stmt_p99_us": cuts[98] * 1e6,
    }


# -- TPC-C ------------------------------------------------------------------


class Deployment:
    """One 4-product majority deployment, populated and warmed up."""

    def __init__(self, spec: TpccSpec, seed: int) -> None:
        self.spec = spec
        self.medium = MemoryMedium() if spec.served else None
        self.server = self.build_server(self.medium)
        if spec.served:
            network = SimulatedNetwork(NetServer(self.server))
            self.endpoints: list[Any] = [SessionSupervisor(network) for _ in range(2)]
        else:
            self.endpoints = [self.server]
        self._handles: list[dict[str, Any]] = [{} for _ in self.endpoints]
        for sql in SCHEMA_STATEMENTS + populate_statements():
            self.endpoints[0].execute(sql)
        self.stream = dealt(seed, spec.mix)
        self.transactions: list[Any] = []
        self.answers: list[list[tuple]] = []
        for _ in range(WARMUP_TRANSACTIONS):
            self.run_transaction(next(self.stream))

    def build_server(self, medium: Optional[MemoryMedium]) -> DiverseServer:
        durability = DurabilityManager(medium) if medium is not None else None
        return DiverseServer(
            [make_server(key) for key in PRODUCTS],
            config=ServerConfig(durability=durability),
        )

    def calls(self, txn: Any) -> list[tuple[str, Callable[[], Any]]]:
        """(literal SQL, client call) per statement; transaction ``n`` of
        the stream goes to session ``n mod sessions``."""
        slot = len(self.transactions) % len(self.endpoints)
        endpoint = self.endpoints[slot]
        if not self.spec.prepared:
            return [(sql, partial(endpoint.execute, sql)) for sql in txn.statements]
        handles = self._handles[slot]
        calls = []
        for sql, (template, params) in zip(txn.statements, txn.prepared_calls()):
            handle = handles.get(template)
            if handle is None:
                handle = handles[template] = endpoint.prepare(template)
            calls.append((sql, partial(handle.execute, params)))
        return calls

    def run_transaction(self, txn: Any, on_statement: Optional[Callable] = None) -> int:
        """Run one transaction; return the number of failed statements.
        ``on_statement(start, end)`` receives each statement's CPU clock
        readings around the client call."""
        endpoint = self.endpoints[len(self.transactions) % len(self.endpoints)]
        calls = self.calls(txn)
        self.transactions.append(txn)
        for sql, call in calls:
            start = clock()
            try:
                result = call()
            except ReproError as error:
                print(f"statement failed: {sql}: {error}", file=sys.stderr)
                try:
                    endpoint.execute("ROLLBACK")
                except ReproError:
                    pass  # no transaction was open
                return 1
            end = clock()
            if checks.is_select(sql):
                self.answers.append(result.rows)
            if on_statement is not None:
                on_statement(start, end)
        return 0


def run_tpcc(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = TPCC[name]
    tracer = Tracer() if trace else None
    probe = SpeedProbe()
    setups: list[tuple[float, float]] = []
    audits: list[tuple[float, float]] = []
    lints: list[tuple[float, float]] = []
    intervals: list[tuple[float, float]] = []
    failed = 0
    busy = [0.0]

    def on_statement(start: float, end: float) -> None:
        intervals.append((start, end))
        busy[0] += (end - start) * probe.rate()
        if tracer is not None:
            tracer.statement_id = len(intervals)

    with probe:
        for _ in range(SETUPS):
            start = clock()
            deployment = Deployment(spec, seed)
            setups.append((start, clock()))

        before = layers.snapshot(deployment.server)
        if tracer is not None:
            tracer.statement_id = 0
            layers.install(tracer)
        wall, cpu = time.perf_counter(), clock()
        try:
            while busy[0] < seconds:
                failed += deployment.run_transaction(next(deployment.stream), on_statement)
        finally:
            if tracer is not None:
                tracer.remove()
        wall, cpu = time.perf_counter() - wall, clock() - cpu
        rss = peak_rss_mb()
        after = layers.snapshot(deployment.server)

        # Audit phases, outside the timed phase: the end-state audit (replica
        # consistency plus every table read through the middleware) and the
        # static conflict analysis of the workload's first deck.
        server = deployment.server
        windows = conflict_scripts(seed, spec.mix)
        setup_script = ";\n".join(SCHEMA_STATEMENTS)
        disagreements = {}
        for _ in range(REPEATS):
            start = clock()
            disagreements.update(server.verify_consistency())
            for table in checks.TABLES:
                server.execute(f"SELECT * FROM {table}")
            audits.append((start, clock()))
        for _ in range(REPEATS):
            start = clock()
            for scripts in windows:
                analyze_sessions(scripts, setup=setup_script)
            lints.append((start, clock()))

    problems = check_tpcc(deployment)
    if disagreements:
        problems.append(f"replicas disagree on the end state: {disagreements}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    statements = [sql for txn in deployment.transactions for sql in txn.statements]
    rows = {table: server.execute(f"SELECT COUNT(*) FROM {table}").scalar()
            for table in ("orders", "order_line", "history")}
    print(f"{name}: {len(deployment.transactions)} transactions, {len(statements)} "
          f"statements, {len(set(statements))} distinct texts; end rows {rows}; timed "
          f"phase {busy[0]:.3f} reference s in calls, {cpu:.3f} s CPU, {wall:.3f} s wall",
          file=sys.stderr)

    clocks = both_clocks(probe, intervals, setups, audits, lints, rss)
    values = clocks["reference"]
    if tracer is not None:
        tracer.write(str(trace_path(name, seed)))
        delta = {key: after[key] - before[key] for key in before}
        values = layers.values(tracer, tracer.self_times(probe.reference),
                               len(intervals), 1, delta)
    return {"correct": not problems and failed == 0, "attempted": len(intervals) + failed,
            "failed": failed, "values": values, "clocks": clocks}


def end_to_end(duration: Callable[[float, float], float], intervals: list, setups: list,
               studies: list, lints: list, rss: float) -> dict[str, float]:
    """End-to-end metrics, each interval's length being ``duration(start, end)``."""
    def median(spans: list) -> float:
        return statistics.median(duration(start, end) for start, end in spans)

    values = latency_metrics([duration(start, end) for start, end in intervals])
    values.update(setup_s=median(setups), peak_rss_mb=rss,
                  study_s=median(studies), lint_s=median(lints))
    return values


def both_clocks(probe: SpeedProbe, *phases: Any) -> dict[str, Any]:
    """End-to-end metrics in reference seconds (see :mod:`speed`) and in
    raw thread CPU seconds (kernel runs excluded), and the probe's median
    kernel time."""
    return {
        "reference": end_to_end(probe.reference, *phases),
        "cpu": end_to_end(partial(probe.reference, scaled=False), *phases),
        "median_kernel_ms": probe.median_kernel * 1e3,
    }


def check_tpcc(deployment: Deployment) -> list[str]:
    """sqlite3 answers and tables, input-derived invariants, zero
    disagreements, and (durable) restart recovery."""
    server = deployment.server
    statements = [sql for txn in deployment.transactions for sql in txn.statements]
    db = checks.reference_database()
    expected = checks.replay_sqlite(db, statements)
    selects = [sql for sql in statements if checks.is_select(sql)]
    problems = checks.compare_answers(selects, deployment.answers, expected)
    problems += checks.compare_tables(server.execute, db)
    problems += checks.check_invariants(
        server.execute, checks.expected_invariants(deployment.transactions)
    )
    stats = server.stats
    if stats.disagreements_detected or stats.failures_masked or stats.adjudication_failures:
        problems.append(f"middleware saw disagreements: {stats.as_dict()}")
    if deployment.medium is not None:
        recovered = deployment.build_server(deployment.medium.clone())
        outcome = recovered.durability.recover_server()
        problems += checks.check_restart(server, recovered, outcome)
    return problems


# -- corpus --------------------------------------------------------------------


def run_corpus(seed: int, seconds: float, trace: bool) -> dict:
    """The 181-bug study, Tables 1-4 and the corpus lint, in whole passes
    until ``seconds`` of CPU time are spent (one pass takes longer)."""
    reports = list(build_corpus())
    random.Random(seed).shuffle(reports)
    corpus = Corpus(reports=reports)
    tracer = Tracer() if trace else None
    probe = SpeedProbe()
    setups: list[tuple[float, float]] = []
    intervals: list[tuple[float, float]] = []
    studies: list[tuple[float, float]] = []
    lints: list[tuple[float, float]] = []
    problems: list[str] = []
    cells = passes = 0
    spent = 0.0
    # What ``timed`` wraps: the program's method, or the tracer's wrapper.
    inner = ServerProduct.execute

    def timed(self: ServerProduct, sql: str, params: Any = None) -> Any:
        start = clock()
        try:
            return inner(self, sql, params)
        finally:
            intervals.append((start, clock()))

    with probe:
        for _ in range(CORPUS_SETUPS):
            start = clock()
            StudyRunner(build_corpus())
            setups.append((start, clock()))
        while spent < seconds:
            passes += 1
            if tracer is not None:
                layers.install(tracer)
                layers.install_corpus(tracer, lint_module, study_tables)
            inner = ServerProduct.execute
            ServerProduct.execute = timed  # type: ignore[method-assign]
            start = clock()
            try:
                study = run_study(corpus)
            finally:
                ServerProduct.execute = inner  # type: ignore[method-assign]
            tables = (study_tables.build_table1(study), study_tables.build_table2(study),
                      study_tables.build_table3(study), study_tables.build_table4(study))
            middle = clock()
            findings: list[str] = []
            code = lint_module.run_lint(corpus, findings.append, as_json=True)
            end = clock()
            if tracer is not None:
                tracer.remove()
            studies.append((start, middle))
            lints.append((middle, end))
            spent += end - start
            rss = peak_rss_mb()

            cells += len(study.cells)
            failed_on = {report.bug_id: len(study.failed_on(report)) for report in corpus}
            problems += checks.check_tables(*tables, failed_on=failed_on)
            errors = [line for line in findings if '"severity": "error"' in line]
            if code != 0 or errors:
                problems.append(f"lint exit {code} with {len(errors)} error finding(s)")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    clocks = both_clocks(probe, intervals, setups, studies, lints, rss)
    values = clocks["reference"]
    if tracer is not None:
        tracer.write(str(trace_path("corpus-study-lint", seed)))
        values = layers.values(tracer, tracer.self_times(probe.reference),
                               int(tracer.counts["engine.calls"]), passes, {})
    failed = sum(problem.startswith("lint exit") for problem in problems)
    return {"correct": not problems, "attempted": cells + passes, "failed": failed,
            "values": values, "clocks": clocks}


# -- output -------------------------------------------------------------------


def trace_path(name: str, seed: int) -> Path:
    out = Path(".perfbench")
    out.mkdir(exist_ok=True)
    return out / f"spans-{name}-{seed}.jsonl"


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "corpus-study-lint":
        return run_corpus(seed, seconds, trace)
    return run_tpcc(workload, seed, seconds, trace)
