"""Baseline routing: query generation, two-level search, epoch and log I/O."""

import dataclasses
import re

import pytest

import sonsim.baseline
from sonsim.config import Config, ConfigError, substream
from sonsim.engine import run_pipeline
from sonsim.baseline import (
    LogRecord,
    QueryLog,
    generate_queries,
    query_log_lines,
    read_query_log,
    route_baseline,
    run_baseline_epoch,
)
from sonsim.model import (
    capacity,
    is_relevant,
    oracle_relevant_peers,
    relevant_mask,
)
from sonsim.netgen import build_son

COSTS = (10.0, 1.0, 0.1)  # (c_hop, c_map, c_tree) at their Config defaults
# A whole run is where each value the routers take is checked.
RUN = Config(np=40, nsp=4, seed=21, queries_per_peer=1)


def small_net(np=40, nsp=4, seed=21, **kw):
    return build_son(Config(np=np, nsp=nsp, seed=seed, **kw))


def queries_for(net, pid, count=3, n=4, seed=5, prefix="q"):
    return generate_queries(net.peers[pid], count, n, substream(seed, "wl"),
                            id_prefix=prefix)


def route(net, q, sp, eps, max_hops=1):
    """route_baseline with the query's relevant mask computed as the engine does."""
    return route_baseline(net, q, sp, relevant_mask(net, q, eps), eps, COSTS, max_hops)


def epoch(net, workload, eps):
    return run_baseline_epoch(net, workload,
                              [relevant_mask(net, q, eps) for q in workload], eps, COSTS)


class TestGenerateQueries:
    def test_zero_count_gives_empty_list(self):
        net = small_net()
        assert queries_for(net, 0, count=0) == []

    def test_origin_peer_is_always_relevant(self):
        net = small_net()
        for q in queries_for(net, 7, count=10):
            peer = net.peers[7]
            assert q.origin_peer == 7
            assert capacity(peer.expertise, q) == 1.0
            for eps in (0.0, 0.5, 1.0):
                assert is_relevant(peer.expertise, q, eps)

    def test_deterministic_under_seed(self):
        net = small_net()
        assert queries_for(net, 3, seed=9) == queries_for(net, 3, seed=9)

    def test_components_have_requested_length(self):
        net = small_net()
        for q in queries_for(net, 2, n=6):
            assert len(q.components) == 6

    def test_empty_expertise_rejected(self):
        assert all(peer.expertise for peer in small_net(min_peer_expertise=1).peers.values())
        with pytest.raises(ConfigError, match="min_peer_expertise"):
            run_pipeline(RUN.replace(min_peer_expertise=0))

    @pytest.mark.parametrize("count, n_components, problem", [
        (-1, 4, "queries_per_peer: must be >= 0"),
        (1, 0, "n_components: queries need at least one component"),
    ])
    def test_negative_count_or_no_component_rejected(self, count, n_components, problem):
        with pytest.raises(ConfigError, match=problem):
            run_pipeline(RUN.replace(queries_per_peer=count, n_components=n_components))


def _reference_route_one_hop(net, query, eps_acc):
    """Line-by-line naive router: local scan, then one global round over the
    origin's friends, each qualifying friend scanning its own members."""
    origin_sp = net.peers[query.origin_peer].super_peer
    n = len(query.components)

    def sp_fraction(spid):
        expertise = net.super_peers[spid].expertise
        return sum(1 for c in query.components if c in expertise) / n

    def members_answering(spid):
        found = set()
        for pid in net.super_peers[spid].members:
            frac = sum(1 for c in query.components if c in net.peers[pid].expertise) / n
            if frac >= eps_acc:
                found.add(pid)
        return found

    answering = members_answering(origin_sp)
    answering_sps = {origin_sp} if answering else set()
    for friend in net.super_peers[origin_sp].friends:
        if sp_fraction(friend) >= eps_acc:
            hits = members_answering(friend)
            if hits:
                answering |= hits
                answering_sps.add(friend)
    return answering, answering_sps


class TestRouteBaseline:
    def test_single_community_answers_its_own_query(self):
        net = small_net(np=5, nsp=1, friends_per_sp=0)
        q = queries_for(net, 2, count=1)[0]
        result = route(net, q, 0, 0.5, max_hops=1)
        assert 2 in result.answering_peers
        assert result.hops == 0
        assert result.searched_sps == frozenset({0})

    def test_flood_matches_oracle_at_zero_threshold(self):
        net = small_net(np=30, nsp=3, friends_per_sp=2)
        q = queries_for(net, 4, count=1)[0]
        result = route(net, q, net.peers[4].super_peer, 0.0, max_hops=None)
        assert result.answering_peers == oracle_relevant_peers(net, q, 0.0)

    def test_matches_reference_router_on_ten_sp_network(self):
        net = small_net(np=100, nsp=10, seed=33)
        rng = substream(17, "probe")
        for _ in range(30):
            pid = rng.randrange(100)
            q = generate_queries(net.peers[pid], 1, 4, rng, id_prefix=f"r{pid}-")[0]
            result = route(net, q, net.peers[pid].super_peer, 0.5, max_hops=1)
            ref_peers, ref_sps = _reference_route_one_hop(net, q, 0.5)
            assert result.answering_peers == ref_peers
            assert result.answering_sps == ref_sps

    def test_every_answering_peer_is_relevant(self):
        net = small_net(np=60, nsp=6)
        q = queries_for(net, 11, count=1)[0]
        result = route(net, q, net.peers[11].super_peer, 0.5)
        for pid in result.answering_peers:
            assert is_relevant(net.peers[pid].expertise, q, 0.5)

    def test_mapping_ops_cover_origin_community(self):
        net = small_net(np=40, nsp=4)
        q = queries_for(net, 1, count=1)[0]
        origin_sp = net.peers[1].super_peer
        result = route(net, q, origin_sp, 0.5)
        assert result.mapping_ops >= len(net.super_peers[origin_sp].members)

    def test_local_only_when_max_hops_zero(self):
        net = small_net(np=40, nsp=4)
        q = queries_for(net, 1, count=1)[0]
        result = route(net, q, net.peers[1].super_peer, 0.0, max_hops=0)
        assert result.hops == 0
        assert result.searched_sps == frozenset({net.peers[1].super_peer})

    def test_unknown_sp_rejected(self):
        log = run_pipeline(RUN, include_kb=False).train_log
        forged = QueryLog([dataclasses.replace(log[0], origin_sp=99), *log[1:]])
        with pytest.raises(ValueError, match="under super-peer 99 is not in this network"):
            run_pipeline(RUN, train_log=forged)

    @pytest.mark.parametrize("eps", [-0.1, 1.5])
    def test_threshold_out_of_range_rejected(self, eps):
        with pytest.raises(ConfigError, match=r"eps_acc: must lie in \[0, 1\]"):
            run_pipeline(RUN.replace(eps_acc=eps))

    def test_negative_max_hops_rejected(self):
        with pytest.raises(ConfigError, match="max_hops: must be >= 0, or -1 for unbounded"):
            run_pipeline(RUN.replace(max_hops=-2))

    def test_each_sp_processed_once_under_flood(self):
        net = small_net(np=30, nsp=6, friends_per_sp=3)
        q = queries_for(net, 0, count=1)[0]
        result = route(net, q, 0, 0.0, max_hops=None)
        # Forward count equals newly visited super-peers: no duplicates.
        assert result.hops == len(result.searched_sps) - 1

    @pytest.mark.parametrize("eps", [0.0, 0.5])
    def test_a_queued_super_peer_is_not_evaluated_again_under_flood(self, monkeypatch, eps):
        net = small_net(np=100, nsp=10, seed=33)
        owner = {id(sp.expertise): spid for spid, sp in net.super_peers.items()}
        evaluated = []

        def counting(expertise, query):
            evaluated.append(owner[id(expertise)])
            return capacity(expertise, query)

        monkeypatch.setattr(sonsim.baseline, "capacity", counting)
        rng = substream(17, "probe")
        for _ in range(20):
            pid = rng.randrange(100)
            q = generate_queries(net.peers[pid], 1, 4, rng, id_prefix=f"r{pid}-")[0]
            origin = net.peers[pid].super_peer
            evaluated.clear()
            result = route(net, q, origin, eps, max_hops=None)
            # Each reached super-peer is evaluated once, when it is first
            # probed, and the origin never.
            assert origin not in evaluated
            for spid in result.searched_sps - {origin}:
                assert evaluated.count(spid) == 1
            if eps == 0.0:  # every probed super-peer qualifies
                assert len(evaluated) == len(result.searched_sps) - 1
            # The metered mapping operations still count every friend probed.
            assert result.mapping_ops == sum(
                len(net.super_peers[spid].members) + len(net.super_peers[spid].friends)
                for spid in result.searched_sps)


class TestCostTree:
    def test_local_only_tree_has_no_branches(self):
        net = small_net(np=10, nsp=1, friends_per_sp=0)
        q = queries_for(net, 0, count=1)[0]
        result = route(net, q, 0, 0.5, max_hops=0)
        assert result.response_time == result.mapping_ops * COSTS[1]
        assert result.hops == 0


class TestEpochAndLog:
    def test_one_record_per_query(self):
        net = small_net(np=12, nsp=3, friends_per_sp=2)
        workload = [q for pid in range(12) for q in queries_for(net, pid, count=1,
                                                                prefix=f"w{pid}-")]
        log, results = epoch(net, workload, 0.5)
        assert len(log) == len(workload) == len(results)

    def test_count_conservation(self):
        net = small_net(np=20, nsp=4)
        workload = [q for pid in range(20)
                    for q in queries_for(net, pid, count=5, prefix=f"w{pid}-")]
        log, _ = epoch(net, workload, 0.5)
        assert len(log) == 100

    def test_empty_workload_rejected(self):
        with pytest.raises(ConfigError, match="queries_per_peer: must be >= 1 to generate"):
            run_pipeline(RUN.replace(queries_per_peer=0))
        with pytest.raises(ValueError, match="replay mode needs a non-empty training log"):
            run_pipeline(RUN, train_log=QueryLog())

    def test_repeated_query_id_names_its_file_line(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text("q0\t1\t0\ta.b\t-\n\nq0\t2\t0\ta.b\t0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: duplicate query id in log: q0$"):
            read_query_log(path)

    @pytest.mark.parametrize("mode", ["replay", "fresh"])
    def test_a_run_gives_distinct_query_ids(self, mode):
        # No log a run builds checks its ids, so the ids must be distinct by construction.
        artifacts = run_pipeline(Config(np=300, nsp=10, seed=9, workload_mode=mode))
        for ids in ([r.query_id for r in artifacts.train_log],
                    [r.query_id for r in artifacts.kb_log],
                    [q.id for q in artifacts.eval_workload]):
            assert ids and len(set(ids)) == len(ids)

    def test_log_round_trips_through_file(self, tmp_path):
        net = small_net(np=12, nsp=3, friends_per_sp=2)
        workload = [q for pid in range(12)
                    for q in queries_for(net, pid, count=2, prefix=f"w{pid}-")]
        log, _ = epoch(net, workload, 0.5)
        path = tmp_path / "log.tsv"
        path.write_text("".join(query_log_lines(log)))
        loaded = read_query_log(path)
        assert loaded.records == log.records

    def test_unanswered_record_round_trips(self, tmp_path):
        from sonsim.model import element
        record = LogRecord("q0", 1, 0, (element("a", "b"), element("c", "d")), frozenset())
        path = tmp_path / "log.tsv"
        path.write_text("".join(query_log_lines(QueryLog([record]))))
        assert read_query_log(path).records == (record,)

    def test_record_with_too_few_fields_names_its_line(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text("q0\t1\t0\ta.b\t-\nq1\t1\t0\t-\n")
        with pytest.raises(ValueError, match=r"line 2: expected at least 5 fields"):
            read_query_log(path)
