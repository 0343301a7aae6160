"""Response time, scoring, paired experiment runs and sweeps."""

import dataclasses
import gc
import math
import re
import sys
import tracemalloc

import pytest

import sonsim.engine
from sonsim.config import Config, ConfigError, substream
from sonsim.baseline import LogRecord, QueryLog, RoutingResult, run_baseline_epoch, segment_cost
from sonsim.dtree import Instance, Leaf, Node
from sonsim.engine import (
    BASELINE,
    KSP,
    QueryMetrics,
    make_workload,
    metrics_csv_lines,
    query_metrics,
    relevant_peers_indexed,
    run_pipeline,
    score,
    summarize,
    sweep,
)
from sonsim.baseline import generate_queries
from sonsim.ksp import form_groups, run_kb_epoch, train_indices
from sonsim.model import Query, oracle_relevant_peers, peer_set_of, relevant_mask
from sonsim.netgen import Peer, build_son


COSTS = (10.0, 1.0, 0.1)  # (c_hop, c_map, c_tree) at their Config defaults
NSP = 54


def peer_set(peers):
    return peer_set_of(peers, NSP)


def result_with(**kw):
    defaults = dict(answers=(), answering_sps=frozenset(),
                    searched_sps=frozenset({0}), response_time=0.0, mapping_ops=0,
                    hops=0, tree_visits=0, nsp=NSP)
    defaults.update(kw)
    return RoutingResult(**defaults)


def costs_of(config):
    return (config.c_hop, config.c_map, config.c_tree)


class TestResponseTime:
    def test_local_only_maps_cost(self):
        costs = costs_of(Config(c_hop=10, c_map=1, c_tree=0))
        assert segment_cost(costs, 0, 30, 0, ()) == 30

    def test_all_costs_zero(self):
        costs = costs_of(Config(c_hop=0, c_map=0, c_tree=0))
        assert segment_cost(costs, 2, 5, 0, [segment_cost(costs, 1, 3, 0, ())]) == 0.0

    def test_max_over_parallel_branches(self):
        costs = costs_of(Config(c_hop=0, c_map=1, c_tree=0))
        assert segment_cost(costs, 0, 3, 0, [
            segment_cost(costs, 0, 10, 0, ()),
            segment_cost(costs, 0, 7, 0, ()),
        ]) == 13

    def test_additive_in_each_coefficient_on_a_chain(self):
        def chain(config):
            costs = costs_of(config)
            return segment_cost(costs, 2, 5, 3, [segment_cost(costs, 1, 4, 2, ())])

        base = Config(c_hop=10, c_map=1, c_tree=0.1)
        t0 = chain(base)
        t_map2 = chain(base.replace(c_map=2))
        assert t_map2 - t0 == pytest.approx(9 * 1)  # doubled c_map adds maps*c_map
        t_hop2 = chain(base.replace(c_hop=20))
        assert t_hop2 - t0 == pytest.approx(3 * 10)

    def test_homogeneous_under_scaling(self):
        def tree(config):
            costs = costs_of(config)
            return segment_cost(costs, 1, 2, 0, [
                segment_cost(costs, 3, 1, 0, ()), segment_cost(costs, 0, 9, 0, ()),
            ])

        base = Config(c_hop=7, c_map=2, c_tree=0.5)
        doubled = Config(c_hop=14, c_map=4, c_tree=1.0)
        assert tree(doubled) == pytest.approx(2 * tree(base))

    def test_negative_costs_rejected(self):
        # A non-finite cost would turn every response time into nan (0 * inf).
        for cost in (dict(c_hop=-1), dict(c_tree=float("inf")), dict(c_map=float("nan")),
                     dict(c_hop=float("-inf"))):
            with pytest.raises(ConfigError):
                Config(**cost).validate()


class TestScore:
    """A route's answers are entries of the oracle set, so precision is
    always 1.0 and recall is a ratio of peer counts."""

    def _r(self, peers):
        return result_with(answers=peer_set(peers))

    def test_exact_match(self):
        assert score(self._r({1, 2}), peer_set({1, 2})) == (1.0, 1.0)

    def test_no_answers(self):
        assert score(self._r(set()), peer_set({3, 4})) == (1.0, 0.0)

    def test_half_recall(self):
        assert score(self._r({1}), peer_set({1, 2})) == (1.0, 0.5)

    def test_recall_counts_peers_not_communities(self):
        oracle = peer_set({0, NSP, 2 * NSP, 5})
        assert score(result_with(answers=oracle[:2]), oracle) == (1.0, 0.75)
        assert score(result_with(answers=oracle[2:]), oracle) == (1.0, 0.25)

    def test_degenerate_denominators(self):
        assert score(self._r(set()), peer_set({1})) == (1.0, 0.0)
        assert score(self._r(set()), peer_set(set())) == (1.0, 1.0)


class TestIdentityShortcut:
    """A result whose answers are the oracle object itself, or whose
    answering set is its searched set itself, scores as an equal copy does."""

    SEARCHED = frozenset({0, 1, 2})

    @staticmethod
    def _copy(peers):
        return tuple(int(str(entry)) for entry in peers)

    @pytest.mark.parametrize("peers", [set(), {3}, {1, 300, 4999}, set(range(0, 600, 7))])
    def test_score_of_the_oracle_itself_equals_score_of_a_copy(self, peers):
        oracle = peer_set(peers)
        copy = self._copy(oracle)
        if oracle:  # the empty tuple is one object
            assert copy is not oracle
        result = result_with(answers=oracle)
        assert score(result, oracle) == score(result, copy) == (1.0, 1.0)
        assert score(result_with(answers=copy), oracle) == (1.0, 1.0)

    @pytest.mark.parametrize("peers", [set(), {3}, {1, 300, 4999}])
    @pytest.mark.parametrize("answering", ["itself", "copy", {0}, set()])
    def test_query_metrics_of_shared_values_equal_those_of_copies(self, peers, answering):
        oracle = peer_set(peers)
        searched = self.SEARCHED
        shared = searched if answering == "itself" else (
            frozenset(sorted(searched)) if answering == "copy" else frozenset(answering))
        assert (shared is searched) == (answering == "itself")
        query = Query(id="e0", origin_peer=0, components=("a.b",))
        rows = [query_metrics(query, result_with(answers=answers, answering_sps=a,
                                                 searched_sps=searched, response_time=2.5,
                                                 mapping_ops=7, hops=2, tree_visits=3), oracle)
                for answers, a in [(oracle, shared),
                                   (self._copy(oracle), frozenset(sorted(shared)))]]
        assert rows[0] == rows[1]
        assert rows[0] == QueryMetrics("e0", 2.5, 1.0, 1.0, len(shared) / 3, 7, 2, 3)


class TestSummarize:
    def test_means_add_up_left_to_right_on_every_python(self):
        """1e16 + 1.0 rounds back to 1e16, so the left-to-right sum is 0.0;
        the compensated `sum()` of Python 3.12 and later would give 1.0."""
        rows = [QueryMetrics(f"e{i}", t, 1.0, 1.0, 1.0, 1, 0, 0)
                for i, t in enumerate([1e16, 1.0, -1e16])]
        summary = summarize(BASELINE, rows)
        assert summary.mean_response_time == 0.0
        assert (summary.n_queries, summary.mean_precision, summary.total_mapping_ops) == (3, 1.0, 3)


class TestIndexedRelevance:
    def test_matches_exhaustive_oracle(self):
        net = build_son(Config(np=50, nsp=5, seed=23))
        rng = substream(3, "probe")
        for k in range(25):
            pid = rng.randrange(50)
            q = generate_queries(net.peers[pid], 1, 4, rng, id_prefix=f"p{k}-")[0]
            for eps in (0.0, 0.25, 0.5, 1.0):
                assert relevant_peers_indexed(net, q, eps) == \
                    oracle_relevant_peers(net, q, eps)

    def test_engine_name_returns_the_oracle_set(self):
        """benchmark/worker.py compares engine.relevant_peers_indexed with
        oracle_relevant_peers, so it must stay a set-valued kernel."""
        net = build_son(Config(np=50, nsp=5, seed=23))
        q = generate_queries(net.peers[7], 1, 4, substream(5, "probe"), id_prefix="p")[0]
        for eps in (0.0, 0.5, 1.0):
            found = sonsim.engine.relevant_peers_indexed(net, q, eps)
            assert type(found) is set
            assert found == oracle_relevant_peers(net, q, eps)


class TestRelevanceSharing:
    """run_pipeline runs the relevance kernel once per query and hands the
    masks to both epochs and the oracle."""

    def _config(self, **kw):
        base = dict(np=40, nsp=4, seed=51, queries_per_peer=2)
        base.update(kw)
        return Config(**base)

    def _count_kernel_calls(self, monkeypatch):
        calls = []
        original = sonsim.engine.relevant_mask

        def counted(net, query, eps_acc):
            calls.append(query.id)
            return original(net, query, eps_acc)

        monkeypatch.setattr(sonsim.engine, "relevant_mask", counted)
        return calls

    def test_replay_computes_each_query_once(self, monkeypatch):
        calls = self._count_kernel_calls(monkeypatch)
        run_pipeline(self._config(workload_mode="replay"))
        assert len(calls) == 40 * 2

    def test_fresh_computes_training_and_evaluation_queries_once(self, monkeypatch):
        calls = self._count_kernel_calls(monkeypatch)
        run_pipeline(self._config(workload_mode="fresh"))
        assert len(calls) == 2 * 40 * 2
        assert len(set(calls)) == len(calls)

    def test_external_train_log_computes_each_evaluation_query_once(self, monkeypatch):
        train_log = run_pipeline(self._config()).train_log
        calls = self._count_kernel_calls(monkeypatch)
        run_pipeline(self._config(), train_log=train_log)
        assert len(calls) == len(train_log)

    def _network_and_workload(self):
        config = self._config()
        net = build_son(config)
        workload = make_workload(net, config, "workload-baseline", "t")
        relevant = [relevant_mask(net, q, config.eps_acc) for q in workload]
        return config, net, workload, relevant

    def test_baseline_epoch_rejects_misaligned_relevance(self):
        config, net, workload, relevant = self._network_and_workload()
        for wrong in (relevant[:-1], relevant + [()]):
            with pytest.raises(ValueError):
                run_baseline_epoch(net, workload, wrong, config.eps_acc, COSTS)

    def test_kb_epoch_rejects_misaligned_relevance(self):
        config, net, workload, relevant = self._network_and_workload()
        log, _ = run_baseline_epoch(net, workload, relevant, config.eps_acc, COSTS)
        overlay = train_indices(form_groups(net, config.tau_trust), log)
        replay = [dataclasses.replace(q, id=f"e{i}") for i, q in enumerate(workload)]
        for wrong in (relevant[:-1], relevant + [()]):
            with pytest.raises(ValueError):
                run_kb_epoch(net, overlay, replay, wrong, COSTS)


class TestSharedRecords:
    """A replay run's per-query records share the values the run already
    holds instead of keeping equal copies, and every per-item type is slotted
    and not frozen."""

    @pytest.fixture(scope="class")
    def run(self):
        masks = []
        original = sonsim.engine.relevant_mask

        def recorded(net, query, eps_acc):
            masks.append(original(net, query, eps_acc))
            return masks[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sonsim.engine, "relevant_mask", recorded)
            artifacts = run_pipeline(Config(np=300, nsp=10, seed=9))
        assert len(masks) == len(artifacts.eval_workload)  # replay reuses the training masks
        return artifacts, masks

    def test_a_result_answering_its_whole_relevant_mask_holds_that_mask(self, run):
        artifacts, masks = run
        for results in (artifacts.baseline_results, artifacts.kb_results):
            whole = [(r, m) for r, m in zip(results, masks, strict=True) if r.answers == m]
            assert len(whole) > len(results) // 2
            assert all(r.answers is m for r, m in whole)

    def test_a_result_every_searched_community_answered_holds_one_set(self, run):
        artifacts, _ = run
        for results in (artifacts.baseline_results, artifacts.kb_results):
            full = [r for r in results if r.answering_sps == r.searched_sps]
            assert full
            assert all(r.answering_sps is r.searched_sps for r in full)

    def test_equal_super_peer_sets_are_one_object(self, run):
        artifacts, _ = run
        held = [sps for results in (artifacts.baseline_results, artifacts.kb_results)
                for result in results for sps in (result.searched_sps, result.answering_sps)]
        assert all(sps is artifacts.net.shared[sps] for sps in held)
        assert len(set(held)) < len(artifacts.eval_workload)

    def test_equal_leaves_of_one_build_are_one_object(self, run):
        artifacts, _ = run
        (group,) = artifacts.overlay.groups.values()  # one build, one tree
        leaves, nodes = [], [group.index]
        while nodes:
            node = nodes.pop()
            if isinstance(node, Node):
                nodes.extend(node.branches.values())
            else:
                leaves.append(node)
        distinct = {tuple(leaf.counts.items()) for leaf in leaves}
        assert len({id(leaf) for leaf in leaves}) == len(distinct) < len(leaves)

    def test_equal_partial_answering_masks_are_one_object(self, run):
        """A partial answer holds the relevant set's own entries, so the
        answers of one query hold one object per community."""
        artifacts, masks = run
        partial = 0
        for results in (artifacts.baseline_results, artifacts.kb_results):
            for result, mask in zip(results, masks, strict=True):
                if result.answers != mask:
                    partial += 1
                    entries = dict(zip(mask[::2], mask[1::2]))
                    assert all(entries[c] is m
                               for c, m in zip(result.answers[::2], result.answers[1::2]))
        assert partial

    def test_ratios_equal_to_one_are_one_float(self, run):
        artifacts, _ = run
        ones = {id(value) for rows in artifacts.report.per_query.values() for row in rows
                for value in (row.precision, row.recall, row.sp_precision) if value == 1.0}
        assert len(ones) == 1

    def test_records_have_slots_and_no_instance_dict(self, run):
        artifacts, _ = run
        tree = next(g.index for g in artifacts.overlay.groups.values() if isinstance(g.index, Node))
        leaf = tree
        while isinstance(leaf, Node):
            leaf = next(iter(leaf.branches.values()))
        group = next(g for g in artifacts.overlay.groups.values() if g.instances)
        records = [artifacts.eval_workload[0], artifacts.baseline_results[0],
                   artifacts.kb_results[0], artifacts.train_log.records[0],
                   group.instances[0], tree, leaf, artifacts.net.peers[0]]
        assert {type(r) for r in records} == {Query, RoutingResult, LogRecord,
                                              Instance, Node, Leaf, Peer}
        for record in records:
            assert "__slots__" in vars(type(record))
            assert not hasattr(record, "__dict__")
            assert not type(record).__dataclass_params__.frozen  # no object.__setattr__ per field


def test_a_run_stays_within_its_memory_budget():
    """The traced peak of a 1000/20 replay run, which holds every routing
    result, per-query row and index until it returns."""
    tracemalloc.start()
    try:
        run_pipeline(Config(np=1000, nsp=20, seed=9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


@pytest.mark.parametrize("np_, nsp", [(1000, 20), (4000, 40)])
def test_relevant_sets_stay_within_their_memory_budget(np_, nsp):
    """The relevant sets of a seed-9 replay run stay within one budget of
    bytes per query at 1000/20 and at 4000/40 (`sys.getsizeof` of each set
    and of every int in it; 170 and 178 when the budget was set), so the
    bytes a run holds for them grow with the query count alone, and no int
    in one has more bits than a community has members."""
    config = Config(np=np_, nsp=nsp, seed=9)
    net = build_son(config)
    workload = make_workload(net, config, "workload-baseline", "t")
    held = [relevant_mask(net, query, config.eps_acc) for query in workload]
    size = sum(sys.getsizeof(peers) + sum(map(sys.getsizeof, peers)) for peers in held)
    assert size / len(held) <= 180
    assert max(entry.bit_length() for peers in held for entry in peers) <= math.ceil(np_ / nsp)


@pytest.mark.parametrize("changes, budget", [
    (dict(np=5000, nsp=54), 290_750),
    (dict(np=2000, nsp=24, tau_trust=4, workload_mode="fresh"), 115_010),
    (dict(np=300, nsp=10, refresh_every=20), 16_800),
    (dict(np=300, nsp=10, max_hops=-1), 26_400),
], ids=["replay-5000", "fresh-groups-2000", "refresh-300", "flood-300"])
def test_capacity_calls_stay_within_their_budget(monkeypatch, changes, budget):
    """`capacity` calls of a seed-9 run, counted through the name
    `route_baseline` calls (the knowledge router makes none), at each
    benchmark workload's configuration and flooding at 300/10. At one hop no
    probed friend has been reached yet, so only the flood fails when a
    reached friend is evaluated again (30,252 calls)."""
    import sonsim.baseline
    calls = []
    capacity = sonsim.baseline.capacity

    def counting(expertise, query):
        calls.append(None)
        return capacity(expertise, query)

    monkeypatch.setattr(sonsim.baseline, "capacity", counting)
    run_pipeline(Config(seed=9, **changes))
    assert len(calls) <= budget


class TestCollectorPause:
    """run_pipeline pauses automatic cyclic garbage collection for the run,
    which is sound only while a run builds no reference cycles."""

    @pytest.fixture
    def collector_off(self):
        was_enabled = gc.isenabled()
        gc.disable()
        yield
        if was_enabled:
            gc.enable()

    @pytest.mark.parametrize("changes, external_log", [
        ({}, False),
        (dict(np=600, nsp=12, tau_trust=4, workload_mode="fresh"), False),
        (dict(refresh_every=20), False),
        (dict(max_hops=-1), False),
        ({}, True),
    ], ids=["replay", "fresh-groups", "refresh", "flood", "external-log"])
    def test_a_run_leaves_no_cyclic_garbage(self, collector_off, changes, external_log):
        config = Config(np=300, nsp=10, seed=9).replace(**changes)
        train_log = run_pipeline(config, include_kb=False).train_log if external_log else None
        gc.collect()
        artifacts = run_pipeline(config, train_log=train_log)
        del artifacts
        assert gc.collect() == 0

    def test_collector_is_paused_during_the_run(self, monkeypatch):
        seen = []
        original = sonsim.engine.build_son

        def recording(config):
            seen.append(gc.isenabled())
            return original(config)

        monkeypatch.setattr(sonsim.engine, "build_son", recording)
        assert gc.isenabled()
        run_pipeline(Config(np=40, nsp=4, seed=51, queries_per_peer=2))
        assert seen == [False]

    @pytest.mark.parametrize("enabled, raises, freeze", [
        (True, False, False), (False, False, False), (True, True, False), (True, False, True),
    ], ids=["collector-on", "collector-off", "raising-run", "caller-froze-objects"])
    def test_caller_collector_state_survives(self, enabled, raises, freeze):
        config = Config(np=40, nsp=4, seed=51, queries_per_peer=2)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        if freeze:
            gc.freeze()
        frozen = gc.get_freeze_count()
        try:
            if raises:
                with pytest.raises(ValueError, match="non-empty training log"):
                    run_pipeline(config, train_log=QueryLog())
            else:
                run_pipeline(config)
            assert gc.isenabled() == enabled
            assert gc.get_freeze_count() == frozen
        finally:
            if freeze:
                gc.unfreeze()
            (gc.enable if was_enabled else gc.disable)()


class TestRunExperiment:
    def _config(self, **kw):
        base = dict(np=40, nsp=4, seed=51, queries_per_peer=2)
        base.update(kw)
        return Config(**base)

    def test_report_has_both_strategies(self):
        report = run_pipeline(self._config()).report
        assert set(report.summaries) == {BASELINE, KSP}
        assert len(report.per_query[BASELINE]) == 80
        assert len(report.per_query[KSP]) == 80

    def test_deterministic_reports(self):
        a = run_pipeline(self._config()).report
        b = run_pipeline(self._config()).report
        assert a.per_query == b.per_query
        assert a.summaries == b.summaries

    def test_single_node_network_degenerates(self):
        config = self._config(np=1, nsp=1, friends_per_sp=0, min_peer_expertise=1,
                              queries_per_peer=3)
        report = run_pipeline(config).report
        bl, kb = report.summaries[BASELINE], report.summaries[KSP]
        assert bl.mean_precision == kb.mean_precision == 1.0
        assert bl.mean_recall == kb.mean_recall
        assert bl.total_mapping_ops == kb.total_mapping_ops
        for row_bl, row_kb in zip(report.per_query[BASELINE], report.per_query[KSP]):
            assert row_bl.precision == row_kb.precision
            assert row_bl.recall == row_kb.recall
            assert row_bl.mapping_ops == row_kb.mapping_ops

    def test_external_log_naming_an_unknown_answering_super_peer_rejected(self):
        config = self._config()
        train_log = run_pipeline(config, include_kb=False).train_log
        forged = QueryLog(dataclasses.replace(r, answering_sps=r.answering_sps | {77})
                          if r.answering_sps else r for r in train_log)
        first = next(r.query_id for r in forged if r.answering_sps)
        with pytest.raises(ValueError, match=re.escape(
                f"train log record {first}: answering super-peer 77 is not in this network")):
            run_pipeline(config, train_log=forged)

    def test_replay_mode_reuses_training_queries(self):
        report_replay = run_pipeline(self._config(workload_mode="replay")).report
        artifacts = run_pipeline(self._config(workload_mode="replay"))
        train_components = [r.components for r in artifacts.train_log]
        eval_components = [q.components for q in artifacts.eval_workload]
        assert train_components == eval_components
        assert set(report_replay.summaries) == {BASELINE, KSP}

    def test_aggregates_recomputable_from_rows(self):
        report = run_pipeline(self._config()).report
        for strategy, rows in report.per_query.items():
            summary = report.summaries[strategy]
            assert summary.mean_recall == pytest.approx(
                sum(r.recall for r in rows) / len(rows))
            assert summary.total_mapping_ops == sum(r.mapping_ops for r in rows)

    def test_peer_level_precision_is_always_one(self):
        report = run_pipeline(self._config(np=60, nsp=6, seed=4)).report
        for rows in report.per_query.values():
            assert all(r.precision == 1.0 for r in rows)

    def test_baseline_rows_have_no_tree_visits(self):
        report = run_pipeline(self._config()).report
        assert all(r.tree_visits == 0 for r in report.per_query[BASELINE])
        assert all(r.tree_visits >= 1 for r in report.per_query[KSP])

    def test_metrics_rows_are_column_ordered(self):
        report = run_pipeline(self._config(np=8, nsp=2, queries_per_peer=1,
                                           friends_per_sp=1)).report
        rows = [line.removesuffix("\n").split(",") for line in metrics_csv_lines(report)][1:]
        assert rows[0][0] == BASELINE
        assert len(rows[0]) == 9


class TestSweep:
    def _config(self):
        return Config(np=20, nsp=2, seed=9, queries_per_peer=1, friends_per_sp=1)

    def test_single_size(self):
        reports = sweep(self._config(), [(20, 2)])
        assert len(reports) == 1
        assert reports[0].config.np == 20

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError):
            sweep(self._config(), [])

    def test_every_point_is_validated_before_the_first_runs(self, monkeypatch):
        runs = []
        monkeypatch.setattr(sonsim.engine, "run_pipeline", lambda config: runs.append(config))
        with pytest.raises(ConfigError, match="need np >= nsp"):
            sweep(self._config(), [(5000, 54), (20, 30)])
        assert runs == []

    def test_mapping_ops_grow_with_network_size(self):
        reports = sweep(self._config(), [(20, 2), (60, 4), (120, 6)])
        totals = [r.summaries[BASELINE].total_mapping_ops for r in reports]
        assert totals == sorted(totals)
        assert totals[0] < totals[-1]

    def test_derived_seeds_differ_per_point(self):
        reports = sweep(self._config(), [(20, 2), (24, 2)])
        assert reports[0].config.seed != reports[1].config.seed

    def test_per_query_flag_drops_rows_but_keeps_summaries(self):
        reports = sweep(self._config(), [(20, 2)])
        assert reports[0].per_query[BASELINE] == []
        assert reports[0].summaries[BASELINE].n_queries == 20
