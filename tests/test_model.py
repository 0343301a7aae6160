"""Capacity, relevance and the exhaustive oracle."""

import dataclasses
import math

import pytest

import sonsim.engine
from sonsim.config import Config, ConfigError, substream
from sonsim.engine import run_pipeline
from sonsim.baseline import QueryLog
from sonsim.model import (
    Query,
    _hits_needed,
    capacity,
    element,
    is_relevant,
    oracle_relevant_peers,
    parse_element,
    peers_of,
    relevant_mask,
)
from sonsim.netgen import Network, Peer, SuperPeer, build_son


def E(x, y):
    return element(x, y)


def Q(*components, origin=0, qid="q"):
    return Query(id=qid, origin_peer=origin, components=tuple(components))


class TestElements:
    def test_render_and_parse_round_trip(self):
        assert E("k", "f") == "k.f"
        assert parse_element("k.f") == E("k", "f")

    def test_parse_rejects_malformed(self):
        # Each token is ASCII letters and digits: any other character could
        # split or quote a field of the ARFF and log files an element is
        # written to.
        for bad in ("kf", "k.f.g", ".f", "k.", "", "a,b.c", "a b.c", "{a}.b", "a.b%",
                    "a'.b", "a.b\n", "\u00e9.b", "a_b.c"):
            with pytest.raises(ValueError):
                parse_element(bad)

    def test_parse_accepts_ascii_letters_and_digits(self):
        assert parse_element("Aa10.zZ9") == "Aa10.zZ9"

    def test_equality_is_coordinatewise(self):
        assert E("a", "b") == E("a", "b")
        assert E("a", "b") != E("b", "a")


class TestCapacity:
    def test_half_coverage(self):
        e = frozenset({E("a", "b"), E("c", "d")})
        assert capacity(e, Q(E("a", "b"), E("x", "y"))) == 0.5

    def test_full_containment(self):
        e = frozenset({E("a", "b"), E("c", "d")})
        assert capacity(e, Q(E("a", "b"), E("c", "d"))) == 1.0

    def test_empty_expertise(self):
        assert capacity(frozenset(), Q(E("a", "b"))) == 0.0

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError, match="empty query"):
            capacity(frozenset({E("a", "b")}), Q())

    def test_duplicate_components_count_by_position(self):
        e = frozenset({E("a", "b")})
        q = Q(E("a", "b"), E("a", "b"), E("c", "d"), E("c", "d"))
        assert capacity(e, q) == 0.5

    def test_values_are_multiples_of_one_over_n(self):
        e = frozenset({E("a", "b"), E("c", "d"), E("e", "f")})
        comps = [E("a", "b"), E("c", "d"), E("x", "x"), E("y", "y")]
        for k in range(1, len(comps) + 1):
            value = capacity(e, Q(*comps[:k]))
            assert value in {i / k for i in range(k + 1)}


class TestIsRelevant:
    def test_above_threshold(self):
        assert is_relevant(frozenset({E("a", "b")}), Q(E("a", "b"), E("c", "d")), 0.5)

    def test_below_threshold(self):
        assert not is_relevant(frozenset({E("a", "b")}), Q(E("c", "d"), E("e", "f")), 0.25)

    def test_zero_threshold_accepts_everything(self):
        assert is_relevant(frozenset(), Q(E("a", "b")), 0.0)

    def test_full_threshold_needs_containment(self):
        e = frozenset({E("a", "b"), E("c", "d")})
        assert is_relevant(e, Q(E("a", "b"), E("c", "d")), 1.0)
        assert not is_relevant(e, Q(E("a", "b"), E("x", "y")), 1.0)

    def test_threshold_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            is_relevant(frozenset(), Q(E("a", "b")), 1.5)


def _relevant_by_counting(net, query, eps_acc):
    """Independent re-implementation: count membership one component at a
    time over a list copy of each expertise, never calling capacity()."""
    relevant = set()
    n = len(query.components)
    for pid, peer in net.peers.items():
        elements = list(peer.expertise)
        count = 0
        for component in query.components:
            for element in elements:
                if element == component:
                    count += 1
                    break
        if count * 1.0 / n >= eps_acc:
            relevant.add(pid)
    return relevant


class TestOracle:
    def _three_peer_net(self):
        # Capacities against the probe query: 1.0, 0.5, 0.0.
        net = build_son(Config(np=3, nsp=1, sp_expertise_size=4,
                               friends_per_sp=0, min_peer_expertise=4, seed=7))
        return net

    def test_threshold_filters_by_capacity(self):
        net = self._three_peer_net()
        sp = net.super_peers[0]
        e1, e2 = sorted(sp.expertise)[:2]
        query = Q(e1, e2, qid="probe")
        expected = {pid for pid, p in net.peers.items()
                    if capacity(p.expertise, query) >= 0.75}
        assert oracle_relevant_peers(net, query, 0.75) == expected

    def test_zero_threshold_returns_all_peers(self):
        net = self._three_peer_net()
        query = Q(E("zz", "zz"), qid="none")
        assert oracle_relevant_peers(net, query, 0.0) == set(net.peers)

    def test_kernel_matches_on_every_float_edge_of_k_over_n(self):
        """Peer k holds the first k of n distinct components, so every hit
        count occurs; thresholds on and next to each k/n decide `need`."""
        comps = tuple(E(f"c{i}", "x") for i in range(6))
        for n in range(1, 7):
            peers = {k: Peer(k, frozenset(comps[:k]), 0) for k in range(n + 1)}
            sp = SuperPeer(0, "aa", frozenset(comps), frozenset(), frozenset(peers))
            net = Network(peers, {0: sp}, Config())
            query = Q(*comps[:n])
            for k in range(n + 1):
                for eps in (math.nextafter(k / n, 0.0), k / n, math.nextafter(k / n, 1.0)):
                    if 0.0 <= eps <= 1.0:
                        assert set(peers_of(relevant_mask(net, query, eps), 1)) == \
                            oracle_relevant_peers(net, query, eps)

    def test_hits_needed_is_the_fewest_hits_at_the_threshold(self):
        """The cached helper gives what a scan over k gives, for n 1-16, at
        every k/n, the floats next to it and a grid of thresholds."""
        grid = {i / 100 for i in range(101)}
        for n in range(1, 17):
            for k in range(n + 1):
                grid.update(eps for eps in (math.nextafter(k / n, 0.0), k / n,
                                            math.nextafter(k / n, 1.0)) if 0.0 <= eps <= 1.0)
        for n in range(1, 17):
            for eps in sorted(grid):
                assert _hits_needed(n, eps) == next(k for k in range(n + 1) if k / n >= eps)

    def test_queries_needing_no_hits_share_one_mask(self):
        net = build_son(Config(np=300, nsp=10, seed=9))
        first = relevant_mask(net, Q(*sorted(net.peers[0].expertise)[:2], qid="a"), 0.0)
        second = relevant_mask(net, Q(E("zz", "zz"), qid="b"), 0.0)
        assert first is second is net.every_peer
        assert sorted(peers_of(first, 10)) == sorted(net.peers)

    def test_empty_query_never_reaches_the_kernel(self, monkeypatch):
        config = Config(np=40, nsp=4, seed=21, queries_per_peer=1)
        log = run_pipeline(config, include_kb=False).train_log
        empty = QueryLog(dataclasses.replace(r, components=()) for r in log)
        monkeypatch.setattr(sonsim.engine, "relevant_mask",
                            lambda *args: pytest.fail("the kernel got a query"))
        with pytest.raises(ValueError, match="0 query components, but n_components is 4"):
            run_pipeline(config, train_log=empty)
        with pytest.raises(ConfigError, match="n_components: queries need at least one"):
            run_pipeline(config.replace(n_components=0))

    def test_threshold_out_of_range_rejected_like_the_kernel(self):
        net = build_son(Config(np=300, nsp=10, seed=9))
        query = Q(*sorted(net.peers[0].expertise)[:4], qid="probe")
        for eps in (-0.5, 1.5, float("nan")):
            with pytest.raises(ValueError, match=r"eps_acc must lie in \[0, 1\]"):
                oracle_relevant_peers(net, query, eps)

    def test_matches_independent_counting_scan(self):
        net = build_son(Config(np=50, nsp=5, seed=11))
        rng = substream(99, "probe")
        for k in range(20):
            pid = rng.randrange(50)
            pool = sorted(net.peers[pid].expertise)
            comps = tuple(rng.choice(pool) for _ in range(4))
            query = Q(*comps, origin=pid, qid=f"probe{k}")
            assert oracle_relevant_peers(net, query, 0.5) == \
                _relevant_by_counting(net, query, 0.5)
