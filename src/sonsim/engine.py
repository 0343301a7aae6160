"""Experiment driver: per-query metrics, paired strategy runs and
scalability sweeps.

Response time is costed along the critical path of a query's forwarding
while the query is routed: sequential segments add up, parallel branches
contribute their maximum (`baseline.segment_cost`). The costs per message,
per mapping and per tree node visited are the `Config` keys `c_hop`, `c_map`
and `c_tree`, which `run_pipeline` hands to both epochs; each routing result
carries its response time and the counters reported beside it, and a
per-query row copies them.
A per-query row and a strategy summary are named tuples whose fields are
their CSV columns, so the column lists derive from the types.
The engine runs the relevance kernel in `model` (`relevant_mask`, which the
test suite pins as equal to the plain exhaustive scan) once per query. That
one peer set, community by community (`model.PeerSet`), is what both
routers search communities with and what recall is scored against: a
route's answers are the set's entries for the communities it searched, so
precision is 1.0 by construction and recall counts communities, then bits.
Reporting costs what the run's distinct values cost: `metrics_csv_lines`
formats each distinct run of values once per file.

`run_pipeline` pauses automatic cyclic garbage collection for the run. A
5000-peer run ends with about 380,000 tracked objects alive (tree nodes,
instances, results), and each full collection would scan them all to find
nothing, because a run builds no reference cycles: its objects are freed by
reference counting alone. That condition is what makes the pause safe, and
`tests/test_engine.py::TestCollectorPause::test_a_run_leaves_no_cyclic_garbage`
pins it; code that adds a reference cycle per query or per node must drop
the pause. On exit the caller's collector is left as it was found, enabled
or not and with the same frozen objects, and the run's objects are moved
to the oldest generation unscanned (`gc.freeze` then `gc.unfreeze`), so
the next collection does not scan them either.
"""

from __future__ import annotations

import dataclasses
import gc
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .baseline import (
    QueryLog,
    RoutingResult,
    generate_queries,
    run_baseline_epoch,
)
from .config import Config, ConfigError, derive_seed, substream
from .ksp import KspOverlay, form_groups, run_kb_epoch, train_indices
from .model import PeerSet, Query, relevant_mask
from .model import relevant_peers_indexed  # noqa: F401  benchmark/worker.py calls it
from .netgen import Network, build_son

BASELINE = "baseline"
KSP = "ksp"

# Canonical scalability ladder: peer counts from 300 to 5000 with the
# super-peer count growing from 10 to 54.
DEFAULT_SWEEP_SIZES = [
    (300, 10), (600, 12), (900, 14), (1200, 16), (1500, 20), (2000, 24),
    (2500, 28), (3000, 32), (3500, 36), (4000, 40), (4500, 46), (5000, 54),
]


class QueryMetrics(NamedTuple):
    """One `metrics.csv` row after its strategy column."""

    query_id: str
    response_time: float
    precision: float
    recall: float
    sp_precision: float
    mapping_ops: int
    hops: int
    tree_visits: int


class StrategySummary(NamedTuple):
    """One `summary.csv` row."""

    strategy: str
    n_queries: int
    mean_response_time: float
    mean_precision: float
    mean_recall: float
    mean_sp_precision: float
    total_mapping_ops: int
    total_hops: int
    total_tree_visits: int


METRICS_COLUMNS = ("strategy",) + QueryMetrics._fields
SUMMARY_COLUMNS = StrategySummary._fields


@dataclass
class ExperimentReport:
    config: Config
    per_query: dict[str, list[QueryMetrics]]
    summaries: dict[str, StrategySummary]


def score(result: RoutingResult, oracle: PeerSet) -> tuple[float, float]:
    """(precision, recall) of the retrieved peers against the oracle set.

    The answers are entries of the oracle set (`RoutingResult.searched`),
    so precision is 1.0, also when nothing is retrieved, and recall is the
    share of the oracle's peers they hold: 1.0 when they hold every one of
    its communities, an empty oracle included, and otherwise the ratio of
    the two peer counts.
    """
    answers = result.answers
    if len(answers) == len(oracle):
        return 1.0, 1.0
    return 1.0, _peer_count(answers) / _peer_count(oracle)


def _peer_count(peers: PeerSet) -> int:
    return sum(mask.bit_count() for mask in peers[1::2])


def _ratio(part: int, whole: int) -> float:
    """part / whole, and 1.0 when they are equal, zero included; that 1.0 is
    one constant object, not a float per row, and n / n is 1.0 exactly."""
    return 1.0 if part == whole else part / whole


def query_metrics(query: Query, result: RoutingResult, oracle: PeerSet) -> QueryMetrics:
    """The row of `query`, routed to `result`, scored against `oracle`, its
    relevant set. Super-peer precision is the share of searched super-peers
    that answered; it is 1.0 at once when the answering set is the searched
    set itself, which a route whose every searched community answered holds
    (`RoutingResult.searched`)."""
    precision, recall = score(result, oracle)
    answering, searched = result.answering_sps, result.searched_sps
    sp_precision = 1.0 if answering is searched else _ratio(len(answering), len(searched))
    return QueryMetrics(query.id, result.response_time, precision, recall, sp_precision,
                        result.mapping_ops, result.hops, result.tree_visits)


def _mean(values: Iterable[float], n: int) -> float:
    """The sum of `values`, added up left to right, over `n`. Not `sum()`:
    since Python 3.12 it compensates float rounding, so its last digits, and
    `summary.csv`, would depend on the Python version."""
    total = 0.0
    for value in values:
        total += value
    return total / n


def summarize(strategy: str, rows: list[QueryMetrics]) -> StrategySummary:
    n = len(rows)
    return StrategySummary(
        strategy=strategy,
        n_queries=n,
        mean_response_time=_mean((r.response_time for r in rows), n),
        mean_precision=_mean((r.precision for r in rows), n),
        mean_recall=_mean((r.recall for r in rows), n),
        mean_sp_precision=_mean((r.sp_precision for r in rows), n),
        total_mapping_ops=sum(r.mapping_ops for r in rows),
        total_hops=sum(r.hops for r in rows),
        total_tree_visits=sum(r.tree_visits for r in rows),
    )


def make_workload(net: Network, config: Config, stream_name: str,
                  id_prefix: str) -> list[Query]:
    """One batch of queries per peer, in peer-id order, from a named stream."""
    rng = substream(config.seed, stream_name)
    workload: list[Query] = []
    for pid in sorted(net.peers):
        workload.extend(generate_queries(
            net.peers[pid], config.queries_per_peer, config.n_components, rng,
            id_prefix=f"{id_prefix}{pid}-",
        ))
    return workload


@dataclass
class PipelineArtifacts:
    """Everything one experiment produced, for reporting and file dumps."""

    config: Config
    net: Network
    train_log: QueryLog
    overlay: KspOverlay | None
    eval_workload: list[Query]
    baseline_results: list[RoutingResult]
    kb_results: list[RoutingResult] | None
    kb_log: QueryLog | None
    report: ExperimentReport


def run_pipeline(config: Config, include_kb: bool = True,
                 train_log: QueryLog | None = None) -> PipelineArtifacts:
    """Build the network, produce the training log, train the knowledge layer,
    then route one evaluation workload through both strategies.

    The training log is the log of a baseline epoch over a workload drawn
    from its own stream, unless an external `train_log` is supplied; then the
    training epoch is skipped. A run that must draw a workload (no
    `train_log`, or fresh mode) with `queries_per_peer` 0 raises ConfigError.
    A record of an external log whose origin peer is not in this network, or
    is not under its origin super-peer, or whose component count is not
    `n_components`, or that names an answering super-peer outside this
    network, or that has a component outside its origin peer's expertise
    (every generated query draws from it), raises ValueError. These are the
    checks of what a run is given; nothing downstream checks it again.

    In replay mode (the default) the evaluation workload is the training
    log's queries, record by record under the ids "e0", "e1", ..., whether
    the log was generated or read; in fresh mode it is drawn from its own
    stream.

    Relevance is computed once per query with `relevant_mask`. The training
    workload's relevant sets drive the training epoch and, when replay
    evaluates that same generated workload, are reused for it. The
    evaluation sets feed the evaluation baseline epoch, the knowledge epoch
    and the precision/recall oracle.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        net = build_son(config)  # validates the config first
        if config.queries_per_peer == 0 and (train_log is None or config.workload_mode == "fresh"):
            raise ConfigError("queries_per_peer", "must be >= 1 to generate a workload")
        costs = (config.c_hop, config.c_map, config.c_tree)
        eps_acc = config.eps_acc
        max_hops = None if config.max_hops < 0 else config.max_hops

        relevant: list[PeerSet] = []
        if train_log is None:
            train_workload = make_workload(net, config, "workload-baseline", "t")
            relevant = [relevant_mask(net, q, eps_acc) for q in train_workload]
            train_log = run_baseline_epoch(net, train_workload, relevant, eps_acc,
                                           costs, max_hops)[0]
        else:
            for record in train_log:
                peer = net.peers.get(record.origin_peer)
                if peer is None or peer.super_peer != record.origin_sp:
                    raise ValueError(f"train log record {record.query_id}: "
                                     f"peer {record.origin_peer} under super-peer "
                                     f"{record.origin_sp} is not in this network")
                if len(record.components) != config.n_components:
                    raise ValueError(f"train log record {record.query_id}: "
                                     f"{len(record.components)} query components, but "
                                     f"n_components is {config.n_components}")
            # Right origins and shape may still hide other super-peers or another vocabulary.
            for record in train_log:
                unknown = record.answering_sps - net.super_peers.keys()
                if unknown:
                    raise ValueError(f"train log record {record.query_id}: answering "
                                     f"super-peer {min(unknown)} is not in this network")
                expertise = net.peers[record.origin_peer].expertise
                for component in record.components:
                    if component not in expertise:
                        raise ValueError(f"train log record {record.query_id}: component "
                                         f"{component} is not in the expertise of "
                                         f"peer {record.origin_peer}")

        if config.workload_mode == "replay":
            if len(train_log) == 0:
                raise ValueError("replay mode needs a non-empty training log")
            eval_workload = [Query(f"e{i}", r.origin_peer, r.components)
                             for i, r in enumerate(train_log)]
        else:
            relevant = []  # free the training sets before building the evaluation ones
            eval_workload = make_workload(net, config, "workload-kb", "e")
        if not relevant:  # fresh mode, or replay of an external log: no training sets apply
            relevant = [relevant_mask(net, q, eps_acc) for q in eval_workload]

        _, baseline_results = run_baseline_epoch(net, eval_workload, relevant, eps_acc,
                                                 costs, max_hops)

        overlay = None
        kb_results = None
        kb_log = None
        if include_kb:
            overlay = form_groups(net, config.tau_trust)
            overlay = train_indices(overlay, train_log, config.min_leaf)
            kb_log, kb_results, overlay = run_kb_epoch(
                net, overlay, eval_workload, relevant, costs, config.refresh_every)

        rows = {name: [query_metrics(q, r, oracle)
                       for q, r, oracle in zip(eval_workload, results, relevant)]
                for name, results in ((BASELINE, baseline_results), (KSP, kb_results))
                if results is not None}
        summaries = {name: summarize(name, rs) for name, rs in rows.items()}
        report = ExperimentReport(config=config, per_query=rows,
                                  summaries=summaries)
        return PipelineArtifacts(
            config=config, net=net, train_log=train_log, overlay=overlay,
            eval_workload=eval_workload, baseline_results=baseline_results,
            kb_results=kb_results, kb_log=kb_log, report=report,
        )
    finally:
        if not gc.get_freeze_count():  # never thaw what the caller froze
            gc.freeze()  # move the run's objects to the oldest generation unscanned
            gc.unfreeze()
        if gc_was_enabled:
            gc.enable()


def sweep(base_config: Config, sizes: list[tuple[int, int]]) -> list[ExperimentReport]:
    """One run_pipeline per (np, nsp) size with a derived per-point seed.
    Every point's config is validated before the first one runs. Each report
    keeps its summaries; its per-query rows are dropped."""
    if not sizes:
        raise ValueError("sizes list is empty")
    points = [base_config.replace(np=n_peers, nsp=n_sps, seed=derive_seed(base_config.seed, index))
              for index, (n_peers, n_sps) in enumerate(sizes)]
    for point in points:
        point.validate()
    reports = []
    for point in points:
        report = run_pipeline(point).report
        reports.append(dataclasses.replace(report, per_query={s: [] for s in report.per_query}))
    return reports


def _csv_lines(columns: tuple[str, ...], rows: Iterable[tuple]) -> Iterator[str]:
    """The header line, then one line per row, each ending in a newline.
    Rows hold str, int and float; str of a float is its repr."""
    yield ",".join(columns) + "\n"
    for row in rows:
        yield ",".join(map(str, row)) + "\n"


def metrics_csv_lines(report: ExperimentReport) -> Iterator[str]:
    """`metrics.csv`: each strategy's per-query rows, strategies sorted, as
    `_csv_lines` writes them. A row's text after its query id is formatted
    once per distinct run of values there (a route plan's cost and counters
    with scores that are mostly exactly 1.0), and held only while the file
    is written. Each column holds one type and no value is -0.0 (costs are
    non-negative), so equal values have equal text."""
    yield ",".join(METRICS_COLUMNS) + "\n"
    tails: dict[tuple, str] = {}
    for strategy in sorted(report.per_query):
        head = strategy + ","
        for row in report.per_query[strategy]:
            values = row[1:]
            tail = tails.get(values)
            if tail is None:
                tail = tails[values] = "," + ",".join(map(str, values)) + "\n"
            yield head + row[0] + tail


def summary_csv_lines(report: ExperimentReport) -> Iterator[str]:
    """`summary.csv`: one row per strategy, sorted."""
    return _csv_lines(SUMMARY_COLUMNS,
                      (report.summaries[strategy] for strategy in sorted(report.summaries)))


def sweep_csv_lines(reports: list[ExperimentReport]) -> Iterator[str]:
    """`sweep_summary.csv`: each point's summary rows, prefixed by its size
    and seed."""
    return _csv_lines(("np", "nsp", "seed") + SUMMARY_COLUMNS,
                      ((r.config.np, r.config.nsp, r.config.seed, *r.summaries[strategy])
                       for r in reports for strategy in sorted(r.summaries)))
