"""Domain-group formation, index training, knowledge routing and refresh."""

import dataclasses

import pytest

import sonsim.ksp
from sonsim.config import Config, ConfigError, substream
from sonsim.baseline import LogRecord, QueryLog, generate_queries, run_baseline_epoch
from sonsim.dtree import Leaf, build_tree, class_counts, classify_traced
from sonsim.ksp import (
    form_groups,
    instances_from_records,
    query_attributes,
    refresh_knowledge,
    route_kb,
    run_kb_epoch,
    train_indices,
)
from sonsim.engine import run_pipeline
from sonsim.model import Query, relevant_mask
from sonsim.netgen import build_son

COSTS = (10.0, 1.0, 0.1)  # (c_hop, c_map, c_tree) at their Config defaults


def relevance(net, workload, eps):
    """Relevant peer masks of a workload, as the engine computes them."""
    return [relevant_mask(net, q, eps) for q in workload]


def route(net, overlay, q, sp, eps):
    """route_kb with the query's relevant mask computed as the engine does."""
    return route_kb(net, overlay, q, sp, relevant_mask(net, q, eps), COSTS)


def net_and_log(np=60, nsp=6, seed=31, queries=2, **kw):
    config = Config(np=np, nsp=nsp, seed=seed, queries_per_peer=queries, **kw)
    net = build_son(config)
    rng = substream(config.seed, "workload-baseline")
    workload = []
    for pid in sorted(net.peers):
        workload.extend(generate_queries(net.peers[pid], queries,
                                         config.n_components, rng,
                                         id_prefix=f"t{pid}-"))
    log, _ = run_baseline_epoch(net, workload, relevance(net, workload, config.eps_acc),
                                config.eps_acc, COSTS, config.max_hops)
    return net, log, workload, config


def _union_find_groups(net, tau):
    """Independent grouping oracle: union-find over raw recomputed expertise
    intersections, never touching the correspondence matrix."""
    parent = {spid: spid for spid in net.super_peers}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    ids = sorted(net.super_peers)
    for a, i in enumerate(ids):
        for j in ids[a + 1:]:
            shared = len(net.super_peers[i].expertise & net.super_peers[j].expertise)
            if shared >= tau:
                parent[find(i)] = find(j)
    groups = {}
    for spid in ids:
        groups.setdefault(find(spid), set()).add(spid)
    return {frozenset(v) for v in groups.values()}


class TestFormGroups:
    def test_forced_component_structure(self):
        net = build_son(Config(np=3, nsp=3, friends_per_sp=0, dup_count=1,
                               min_peer_expertise=1, seed=3))
        # Hand-build trust: share two elements between SP0 and SP1 only.
        import dataclasses
        from sonsim.netgen import Network
        shared = set(list(net.super_peers[0].expertise)[:2])
        sps = dict(net.super_peers)
        sps[1] = dataclasses.replace(sps[1], expertise=sps[1].expertise | shared)
        net = Network(peers=net.peers, super_peers=sps, config=net.config)
        overlay = form_groups(net, 1)
        members = {gid: group.members for gid, group in overlay.groups.items()}
        assert members[0] == frozenset({0, 1})
        assert members[1] == frozenset({2})

    def test_threshold_above_all_trust_gives_singletons(self):
        net, _, _, _ = net_and_log()
        overlay = form_groups(net, 10_000)
        assert all(len(g.members) == 1 for g in overlay.groups.values())
        assert len(overlay.groups) == len(net.super_peers)

    def test_matches_union_find_oracle(self):
        for seed in range(6):
            net = build_son(Config(np=20, nsp=10, friends_per_sp=3,
                                   dup_count=2, seed=seed))
            overlay = form_groups(net, 2)
            ours = {group.members for group in overlay.groups.values()}
            assert ours == _union_find_groups(net, 2)

    def test_partition_covers_all_sps(self):
        net, _, _, _ = net_and_log()
        overlay = form_groups(net, 2)
        covered = [spid for g in overlay.groups.values() for spid in g.members]
        assert sorted(covered) == sorted(net.super_peers)
        assert set(overlay.sp_to_group) == set(net.super_peers)

    def test_group_ids_ascend_by_smallest_member(self):
        net, _, _, _ = net_and_log(seed=8)
        overlay = form_groups(net, 3)
        minima = [min(overlay.groups[gid].members) for gid in sorted(overlay.groups)]
        assert minima == sorted(minima)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ConfigError, match="tau_trust: must be >= 1"):
            run_pipeline(Config(np=60, nsp=6, seed=31, queries_per_peer=2, tau_trust=0))


class TestTrainIndices:
    def test_single_group_trains_on_full_log(self):
        net, log, _, config = net_and_log(tau_trust=1)
        overlay = form_groups(net, 1)
        if len(overlay.groups) == 1:
            trained = train_indices(overlay, log, config.min_leaf)
            group = trained.groups[0]
            assert group.instances == tuple(instances_from_records(log))
            assert group.index == build_tree(group.instances, min_leaf=config.min_leaf)

    def test_slices_partition_the_log(self):
        net, log, _, config = net_and_log()
        trained = train_indices(form_groups(net, 2), log, config.min_leaf)
        total = sum(len(g.instances) for g in trained.groups.values())
        assert total == len(instances_from_records(log))
        for group in trained.groups.values():
            own = [r for r in log if r.origin_sp in group.members]
            assert group.instances == tuple(instances_from_records(own))

    def test_instance_counts_equal_answer_multiplicities(self):
        net, log, _, config = net_and_log()
        trained = train_indices(form_groups(net, 2), log, config.min_leaf)
        for group in trained.groups.values():
            expected = sum(len(r.answering_sps) for r in log if r.origin_sp in group.members)
            assert len(group.instances) == expected

    def test_group_without_queries_gets_global_leaf(self):
        net, log, _, config = net_and_log()
        overlay = form_groups(net, 10_000)  # all singletons
        # Restrict the log to queries from SP0's community only.
        partial = QueryLog([r for r in log if r.origin_sp == 0])
        trained = train_indices(overlay, partial, config.min_leaf)
        silent = [g for g in trained.groups.values() if 0 not in g.members][0]
        assert isinstance(silent.index, Leaf)
        assert sum(silent.index.counts.values()) == len(instances_from_records(partial))

    def test_empty_log_rejected(self):
        net, _, _, _ = net_and_log()
        with pytest.raises(ValueError):
            train_indices(form_groups(net, 2), QueryLog(), 2)

    def test_log_without_answered_queries_rejected(self):
        net, log, _, _ = net_and_log()
        unanswered = QueryLog([dataclasses.replace(r, answering_sps=frozenset()) for r in log])
        with pytest.raises(ValueError, match="no answered queries"):
            train_indices(form_groups(net, 2), unanswered, 2)

    def test_record_from_unknown_super_peer_rejected(self):
        net, log, _, config = net_and_log()
        stray = LogRecord("x", 0, len(net.super_peers), log.records[0].components,
                          frozenset({0}))
        with pytest.raises(ValueError, match="train log record x: peer 0 under super-peer 6 "
                                             "is not in this network"):
            run_pipeline(config, train_log=QueryLog([*log, stray]))

    def test_no_group_induces_from_zero_instances(self, monkeypatch):
        # build_tree takes its instances as given; a group without any gets the fallback leaf.
        original = sonsim.ksp.build_tree
        sizes = []

        def counting(instances, **kw):
            assert instances
            sizes.append(len(instances))
            return original(instances, **kw)

        monkeypatch.setattr(sonsim.ksp, "build_tree", counting)
        net, log, _, config = net_and_log()
        partial = QueryLog([r for r in log if r.origin_sp == 0])
        train_indices(form_groups(net, 10_000), partial, config.min_leaf)
        assert sizes == [len(instances_from_records(partial))]


class TestRouteKb:
    def _trained(self, **kw):
        net, log, workload, config = net_and_log(**kw)
        overlay = train_indices(form_groups(net, config.tau_trust), log,
                                config.min_leaf)
        return net, overlay, log, workload, config

    def test_training_leaves_no_group_untrained(self):
        # route_kb reads the index of the origin's group without a check.
        net, log, _, _ = net_and_log()
        partial = QueryLog([r for r in log if r.origin_sp == 0])
        for tau in (1, 2, 10_000):
            overlay = form_groups(net, tau)
            assert all(group.index is None for group in overlay.groups.values())
            trained = train_indices(overlay, partial)
            assert all(group.index is not None for group in trained.groups.values())

    def test_unknown_super_peer_rejected(self):
        net, log, _, config = net_and_log()
        record = log[0]
        moved = dataclasses.replace(record, origin_sp=(record.origin_sp + 1) % len(net.super_peers))
        with pytest.raises(ValueError, match=f"train log record {record.query_id}: peer "
                                             f"{record.origin_peer} under super-peer "
                                             f"{moved.origin_sp} is not in this network"):
            run_pipeline(config, train_log=QueryLog([moved, *log[1:]]))

    def test_empty_workload_rejected(self):
        _, log, _, config = net_and_log()
        with pytest.raises(ConfigError, match="queries_per_peer: must be >= 1 to generate"):
            run_pipeline(config.replace(workload_mode="fresh", queries_per_peer=0), train_log=log)

    def test_memorized_query_reaches_its_training_answerers(self):
        net, overlay, log, workload, config = self._trained()
        for query, record in list(zip(workload, log))[:40]:
            replay = Query(f"re-{query.id}", query.origin_peer, query.components)
            result = route(net, overlay, replay, record.origin_sp, config.eps_acc)
            assert record.answering_sps & result.searched_sps

    def test_twin_of_single_answer_record_routes_to_that_answerer(self):
        net = build_son(Config(np=12, nsp=3, friends_per_sp=2, seed=6))
        components = tuple(sorted(net.super_peers[1].expertise)[:4])
        record = LogRecord("t0", 0, 0, components, frozenset({1}))
        overlay = train_indices(form_groups(net, 2), QueryLog([record]), 2)
        result = route(net, overlay, Query("twin", 0, components), 0, 0.5)
        assert result.searched_sps == frozenset({0, 1})

    def test_degenerate_origin_only_index_is_pure_local(self):
        net, log, _, config = net_and_log(np=10, nsp=1, friends_per_sp=0)
        overlay = form_groups(net, config.tau_trust)
        overlay = train_indices(overlay, log, config.min_leaf)
        q = Query("x", 3, log.records[0].components)
        result = route(net, overlay, q, 0, config.eps_acc)
        assert result.searched_sps == frozenset({0})
        assert result.mapping_ops == len(net.super_peers[0].members)
        assert result.hops == 1  # the consult itself

    def test_foreign_group_targets_are_relayed_over_two_hops(self):
        net, log, workload, config = net_and_log()
        overlay = train_indices(form_groups(net, 10_000), log, 2)  # singletons
        relayed = 0
        for query, record in zip(_reid(workload, "e"), log):
            result = route(net, overlay, query, record.origin_sp, config.eps_acc)
            targets = sorted(result.searched_sps - {record.origin_sp})
            # Every target lives in a foreign singleton group: two hops each,
            # plus the one-hop consult.
            assert result.hops == 1 + 2 * len(targets)
            relayed += len(targets)
        assert relayed > 0

    def test_mapping_ops_count_only_peer_level_evaluations(self):
        net, overlay, log, workload, config = self._trained()
        for query in workload[:30]:
            sp = net.peers[query.origin_peer].super_peer
            result = route(net, overlay, query, sp, config.eps_acc)
            expected = sum(len(net.super_peers[s].members)
                           for s in result.searched_sps)
            assert result.mapping_ops == expected

    def test_hop_budget_is_bounded_by_candidate_count(self):
        net, overlay, log, workload, config = self._trained()
        for query in workload[:30]:
            sp = net.peers[query.origin_peer].super_peer
            result = route(net, overlay, query, sp, config.eps_acc)
            n_targets = len(result.searched_sps) - 1
            assert result.hops <= 2 + 2 * n_targets

    def test_answering_peers_are_relevant(self):
        from sonsim.model import is_relevant
        net, overlay, log, workload, config = self._trained()
        for query in workload[:20]:
            sp = net.peers[query.origin_peer].super_peer
            result = route(net, overlay, query, sp, config.eps_acc)
            for pid in result.answering_peers:
                assert is_relevant(net.peers[pid].expertise, query, config.eps_acc)


class TestRoutePlans:
    def test_routing_builds_one_plan_per_distinct_decision(self, monkeypatch):
        """At 300/10, seed 9, routing the 1,500 evaluation queries through
        one memo per router builds no plan twice: at most one per distinct
        decision and at most 142 for the baseline (the super-peers reached
        from an origin) and 157 for the knowledge router (the origin, the
        tree nodes visited and the class labels where the walk ends).
        Without the memo each router builds 1,500."""
        import sonsim.baseline
        import sonsim.ksp
        from sonsim.baseline import RoutePlan, route_baseline
        from sonsim.engine import run_pipeline
        config = Config(np=300, nsp=10, seed=9)
        artifacts = run_pipeline(config)
        net, overlay = artifacts.net, artifacts.overlay
        built = {"baseline": 0, "ksp": 0}

        def counting(router):
            def build(*args):
                built[router] += 1
                return RoutePlan(*args)
            return build

        monkeypatch.setattr(sonsim.baseline, "RoutePlan", counting("baseline"))
        monkeypatch.setattr(sonsim.ksp, "RoutePlan", counting("ksp"))
        baseline_plans, kb_plans = {}, {}
        reached, decided = set(), set()
        for query in artifacts.eval_workload:
            sp = net.peers[query.origin_peer].super_peer
            mask = relevant_mask(net, query, config.eps_acc)
            result = route_baseline(net, query, sp, mask, config.eps_acc, COSTS,
                                    config.max_hops, baseline_plans)
            reached.add((sp, result.searched_sps))
            route_kb(net, overlay, query, sp, mask, COSTS, kb_plans)
            index = overlay.groups[overlay.sp_to_group[sp]].index
            counts, visits = classify_traced(index, query_attributes(query.components))
            decided.add((sp, visits, frozenset(counts)))
        assert len(artifacts.eval_workload) == 1_500
        assert built["baseline"] <= len(reached) and built["baseline"] <= 142
        assert built["ksp"] <= len(decided) and built["ksp"] <= 157


def _reid(queries, prefix):
    import dataclasses
    return [dataclasses.replace(q, id=f"{prefix}{i}") for i, q in enumerate(queries)]


class TestRefresh:
    def test_static_knowledge_never_changes(self):
        net, log, workload, config = net_and_log()
        overlay = train_indices(form_groups(net, config.tau_trust), log, 2)
        replay = _reid(workload[:10], "e")
        _, _, after = run_kb_epoch(net, overlay, replay,
                                   relevance(net, replay, config.eps_acc), COSTS,
                                   refresh_every=0)
        assert after is overlay

    def test_refresh_every_query_appends_each_routed_record(self):
        net, log, workload, config = net_and_log()
        overlay = train_indices(form_groups(net, config.tau_trust), log, 2)
        replay = _reid(workload[:5], "e")
        kb_log, _, after = run_kb_epoch(net, overlay, replay,
                                        relevance(net, replay, config.eps_acc), COSTS,
                                        refresh_every=1)
        assert [r.query_id for r in kb_log] == [q.id for q in replay]
        for gid, group in after.groups.items():
            own = [r for r in (*log, *kb_log) if r.origin_sp in group.members]
            assert group.instances == tuple(instances_from_records(own))
            assert group.index == build_tree(group.instances, min_leaf=2)

    def test_group_without_records_is_left_as_it_is(self):
        net, log, _, _ = net_and_log()
        overlay = train_indices(form_groups(net, 10_000), log, 2)  # singletons
        batch = [r for r in log if r.origin_sp == 0][:3]
        after = refresh_knowledge(overlay, batch)
        assert after is not overlay
        for gid, group in after.groups.items():
            before = overlay.groups[gid]
            if 0 in group.members:
                assert group.instances == before.instances + tuple(instances_from_records(batch))
                assert group.index == build_tree(group.instances, min_leaf=2)
            else:
                assert group.instances is before.instances
                assert group.index is before.index

    def test_groups_without_instances_share_one_global_leaf(self):
        net, log, _, _ = net_and_log()
        partial = QueryLog([r for r in log if r.origin_sp == 0])
        overlay = train_indices(form_groups(net, 10_000), partial, 2)  # singletons
        batch = [r for r in log if r.origin_sp == 1]
        after = refresh_knowledge(overlay, batch)
        silent = [g.index for g in after.groups.values() if not g.instances]
        assert len(silent) >= 2 and all(leaf is silent[0] for leaf in silent)
        assert silent[0] == Leaf(class_counts(instances_from_records([*partial, *batch])))
        # The fallback leaf SP1's group had before is not its prior.
        grown = after.groups[after.sp_to_group[1]]
        assert grown.index == build_tree(grown.instances, min_leaf=2)

    def test_retraining_on_same_log_is_identity(self):
        net, log, _, config = net_and_log()
        overlay = train_indices(form_groups(net, config.tau_trust), log, 2)
        again = train_indices(overlay, log, 2)
        for gid in overlay.groups:
            assert overlay.groups[gid].index == again.groups[gid].index

    @pytest.mark.parametrize("refresh_every", [0, 1, 7, 10, 30])
    def test_epoch_refreshes_once_per_period(self, monkeypatch, refresh_every):
        """run_kb_epoch alone decides when to refresh: once after every
        `refresh_every` routed queries, never at 0, each call with the
        records routed since the previous one. Exactly the refreshes that a
        later refresh follows get walks: the (origin super-peer, attributes)
        of the queries routed before that later one."""
        import sonsim.ksp
        net, log, workload, config = net_and_log()
        overlay = train_indices(form_groups(net, config.tau_trust), log, 2)
        replay = _reid(workload[:20], "e")
        batches = []

        def counting(overlay, records, walks=None):
            batches.append(([r.query_id for r in records], walks))
            return refresh_knowledge(overlay, records, walks)

        def walks_of(queries):
            return [(net.peers[q.origin_peer].super_peer, query_attributes(q.components))
                    for q in queries]

        monkeypatch.setattr(sonsim.ksp, "refresh_knowledge", counting)
        run_kb_epoch(net, overlay, replay, relevance(net, replay, config.eps_acc), COSTS,
                     refresh_every=refresh_every)
        calls = len(replay) // refresh_every if refresh_every else 0
        periods = [replay[k * refresh_every:(k + 1) * refresh_every] for k in range(calls + 1)]
        assert batches == [([q.id for q in periods[k]],
                            walks_of(periods[k + 1]) if k + 1 < calls else None)
                           for k in range(calls)]

    def test_epoch_refreshes_at_the_leaf_floor_the_indices_were_trained_at(self):
        """At 300/10, seed 9, replay, indices trained at `min_leaf` 5 and
        refreshed every 20 queries by an epoch that is not told the floor
        end as the 2,022-node tree `min_leaf` 5 gives, not the 2,739-node
        tree of `min_leaf` 2. A floor of 1 or 2 gives the same tree (a node
        of one instance is pure), so the check needs 3 or more."""
        config = Config(np=300, nsp=10, seed=9)
        artifacts = run_pipeline(config, include_kb=False)
        net, workload = artifacts.net, artifacts.eval_workload
        overlay = train_indices(form_groups(net, config.tau_trust), artifacts.train_log, 5)
        _, _, after = run_kb_epoch(net, overlay, workload,
                                   relevance(net, workload, config.eps_acc), COSTS,
                                   refresh_every=20)
        assert overlay.min_leaf == after.min_leaf == 5
        for group in after.groups.values():
            assert group.index == build_tree(group.instances, min_leaf=5)
            assert group.index != build_tree(group.instances, min_leaf=2)

    def test_refresh_work_stays_within_its_budget(self, monkeypatch):
        """At 300/10, seed 9, refreshing every 10 queries, induction counts
        at most 79,994 instances into split tables (90,646 when no refresh
        gets walks), and class-counts each instance of the final groups
        exactly once: a build counts the classes of its new instances at the
        root, and every other node takes its class counts from its parent's
        table."""
        import sonsim.dtree
        from sonsim.engine import run_pipeline
        tabled, classed = [], []
        count, add_classes = sonsim.dtree._count, sonsim.dtree._add_classes

        def counting(instances, attr_index, table):
            instances = list(instances)
            tabled.extend(instances)
            return count(instances, attr_index, table)

        def class_counting(counts, instances):
            instances = list(instances)
            classed.extend(instances)
            return add_classes(counts, instances)

        monkeypatch.setattr(sonsim.dtree, "_count", counting)
        monkeypatch.setattr(sonsim.dtree, "_add_classes", class_counting)
        overlay = run_pipeline(Config(np=300, nsp=10, seed=9, refresh_every=10)).overlay
        assert len(tabled) <= 79_994
        final = [inst for group in overlay.groups.values() for inst in group.instances]
        assert sorted(map(id, classed)) == sorted(map(id, final))

    def test_refresh_induces_only_the_branches_new_instances_reach(self, monkeypatch):
        """At 300/10, seed 9, refreshing every 10 queries, induction makes at
        most 5,737 `_induce` calls: a node that splits on its prior's
        attribute takes the prior's branch for every value no new instance
        takes, without a call, a refresh that a later one follows induces
        only the branches the next period's walks enter, and a node whose
        instances share one attribute tuple is built as its chain. Without
        the walks it makes 10,077; inducing every branch of every refresh
        made 46,150."""
        import sonsim.dtree
        from sonsim.engine import run_pipeline
        calls = []
        induce = sonsim.dtree._induce

        def counting(*args):
            calls.append(None)
            return induce(*args)

        monkeypatch.setattr(sonsim.dtree, "_induce", counting)
        run_pipeline(Config(np=300, nsp=10, seed=9, refresh_every=10))
        assert len(calls) <= 5_737
