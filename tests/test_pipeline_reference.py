"""`run_pipeline` against a plain reference built from its public pieces.

The reference takes each relevant set from the exhaustive oracle, routes
every query alone with `route_baseline` or `route_kb` (no memo of plans),
retrains the indices from scratch at each refresh, and scores each row by
set arithmetic on the answering peers. It covers the joins `run_pipeline`
makes between those pieces: which relevant sets serve which workload in replay of a
generated log, replay of an external log and fresh mode, the hop limit a
config's -1 stands for, and which results feed each strategy's rows.
"""

from hypothesis import example, given, settings, strategies as st

from sonsim.baseline import LogRecord, QueryLog, route_baseline
from sonsim.config import Config
from sonsim.engine import BASELINE, KSP, make_workload, run_pipeline
from sonsim.ksp import form_groups, route_kb, train_indices
from sonsim.model import Query, oracle_relevant_peers, peer_set_of
from sonsim.netgen import build_son


def _mean(values):
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def _row(query, result, oracle):
    """The metrics row of one route, by set arithmetic."""
    answering = result.answering_peers
    hits = len(answering & oracle)
    precision = hits / len(answering) if answering else 1.0
    recall = hits / len(oracle) if oracle else 1.0
    sp_precision = len(result.answering_sps) / len(result.searched_sps)
    return (query.id, result.response_time, precision, recall, sp_precision,
            result.mapping_ops, result.hops, result.tree_visits)


def _summary(strategy, rows):
    """The means of the cost and the three scores, the totals of the three
    counters."""
    columns = list(zip(*rows))
    return (strategy, len(rows), *(_mean(column) for column in columns[1:5]),
            *(sum(column) for column in columns[5:]))


def reference_run(config, external_log):
    """(train log, knowledge log, {strategy: rows}, {strategy: summary})
    of one run."""
    net = build_son(config)
    costs = (config.c_hop, config.c_map, config.c_tree)
    eps = config.eps_acc
    max_hops = None if config.max_hops == -1 else config.max_hops

    def baseline_routes(workload):
        routes = []
        for query in workload:
            origin_sp = net.peers[query.origin_peer].super_peer
            oracle = oracle_relevant_peers(net, query, eps)
            result = route_baseline(net, query, origin_sp, peer_set_of(oracle, config.nsp), eps,
                                    costs, max_hops)
            routes.append((query, origin_sp, oracle, result))
        return routes

    if external_log is None:
        train_workload = make_workload(net, config, "workload-baseline", "t")
        train_log = QueryLog(LogRecord.routed(query, origin_sp, result)
                             for query, origin_sp, _, result in baseline_routes(train_workload))
    else:
        train_log = external_log
    if config.workload_mode == "replay":
        eval_workload = [Query(f"e{i}", record.origin_peer, record.components)
                         for i, record in enumerate(train_log)]
    else:
        eval_workload = make_workload(net, config, "workload-kb", "e")
    routes = baseline_routes(eval_workload)
    rows = {BASELINE: [_row(query, result, oracle) for query, _, oracle, result in routes]}

    groups = form_groups(net, config.tau_trust)
    overlay = train_indices(groups, train_log, config.min_leaf)
    routed = []
    kb_rows = []
    for query, origin_sp, oracle, _ in routes:
        result = route_kb(net, overlay, query, origin_sp, peer_set_of(oracle, config.nsp), costs)
        kb_rows.append(_row(query, result, oracle))
        routed.append(LogRecord.routed(query, origin_sp, result))
        if config.refresh_every and len(routed) % config.refresh_every == 0:
            overlay = train_indices(groups, (*train_log, *routed), config.min_leaf)
    rows[KSP] = kb_rows
    summaries = {name: _summary(name, strategy_rows) for name, strategy_rows in rows.items()}
    return train_log, tuple(routed), rows, summaries


def external_log(config):
    """A log routed over the run's network from a workload drawn on a stream
    the run does not use, so its queries and relevant sets are not the run's own."""
    net = build_son(config)
    workload = make_workload(net, config, "external", "x")
    eps = config.eps_acc
    records = []
    for query in workload:
        origin_sp = net.peers[query.origin_peer].super_peer
        relevant = peer_set_of(oracle_relevant_peers(net, query, eps), config.nsp)
        result = route_baseline(net, query, origin_sp, relevant, eps,
                                (config.c_hop, config.c_map, config.c_tree), None)
        records.append(LogRecord.routed(query, origin_sp, result))
    return QueryLog(records)


@st.composite
def pipeline_configs(draw):
    nsp = draw(st.integers(min_value=1, max_value=12))
    return Config(
        seed=draw(st.integers(min_value=0, max_value=1000)),
        nsp=nsp,
        np=nsp * draw(st.integers(min_value=1, max_value=120 // nsp)),
        sp_expertise_size=12,
        friends_per_sp=draw(st.integers(min_value=0, max_value=min(3, nsp - 1))),
        min_peer_expertise=2,
        n_components=draw(st.integers(min_value=1, max_value=4)),
        queries_per_peer=draw(st.integers(min_value=1, max_value=2)),
        eps_acc=draw(st.sampled_from([0.0, 0.5, 1.0])),
        max_hops=draw(st.sampled_from([-1, 0, 1])),
        tau_trust=draw(st.integers(min_value=1, max_value=4)),
        min_leaf=draw(st.integers(min_value=1, max_value=3)),
        refresh_every=draw(st.integers(min_value=0, max_value=7)),
        workload_mode=draw(st.sampled_from(["replay", "fresh"])),
    )


# A flooding fresh run that refreshes and a replay of an external log, so
# every join is exercised whatever Hypothesis draws.
@given(config=pipeline_configs(), external=st.booleans())
@example(config=Config(seed=9, np=120, nsp=12, queries_per_peer=1, eps_acc=0.5, max_hops=-1,
                       tau_trust=3, refresh_every=7, workload_mode="fresh"), external=False)
@example(config=Config(seed=9, np=60, nsp=6, eps_acc=1.0, queries_per_peer=2), external=True)
@settings(max_examples=100, deadline=None)
def test_pipeline_equals_a_plain_reference(config, external):
    log = external_log(config) if external else None
    train_log, kb_log, rows, summaries = reference_run(config, log)
    artifacts = run_pipeline(config, train_log=log)
    assert artifacts.train_log == train_log
    assert artifacts.kb_log == kb_log
    assert artifacts.report.per_query == rows
    assert artifacts.report.summaries == summaries
