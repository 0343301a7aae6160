"""Network synthesis: domains, expertise, friend links, peers, trust."""

import dataclasses
from random import Random

import pytest

import sonsim.netgen
from sonsim.config import Config, ConfigError, substream
from sonsim.netgen import (
    Network,
    build_son,
    generate_domains,
    generate_peer_expertise,
    generate_sp_expertise,
    link_friends_and_duplicate,
    serialize_network,
)


def rng(name="t", seed=5):
    return substream(seed, name)


def rejected_before_drawing(monkeypatch, field, **changes):
    """build_son rejects the config, naming `field`, before any builder
    draws: the builders take their sizes as given and check none of them."""
    def no_draws(*args):
        raise AssertionError("a builder drew before the config was checked")
    monkeypatch.setattr(sonsim.netgen, "substream", no_draws)
    with pytest.raises(ConfigError) as excinfo:
        build_son(Config(**changes))
    assert excinfo.value.field == field
    return str(excinfo.value)


class TestGenerateDomains:
    def test_single_domain(self):
        assert len(generate_domains(1, rng())) == 1

    def test_labels_are_distinct(self):
        labels = generate_domains(10, rng())
        assert len(labels) == 10
        assert len(set(labels)) == 10

    def test_deterministic_under_seed(self):
        assert generate_domains(10, rng(seed=3)) == generate_domains(10, rng(seed=3))

    def test_needs_at_least_one(self):
        with pytest.raises(ValueError):
            generate_domains(0, rng())

    def test_every_two_letter_label_can_be_drawn(self):
        assert len(set(generate_domains(26 * 26, rng()))) == 26 * 26

    def test_more_domains_than_two_letter_labels_rejected(self):
        class Bounded(Random):  # fail, rather than hang, if the labels are drawn anyway
            draws = 0

            def choice(self, seq):
                self.draws += 1
                assert self.draws < 10**6, "drew labels that cannot all be distinct"
                return super().choice(seq)

        with pytest.raises(ValueError, match="676"):
            generate_domains(26 * 26 + 1, Bounded(5))


class TestGenerateSpExpertise:
    def test_exact_size(self):
        expertise = generate_sp_expertise("aa", 3, rng())
        assert len(expertise) == 3

    def test_domains_are_disjoint_before_duplication(self):
        e1 = generate_sp_expertise("aa", 8, rng(seed=1))
        e2 = generate_sp_expertise("bb", 8, rng(seed=1))
        assert not e1 & e2

    def test_deterministic_under_seed(self):
        assert generate_sp_expertise("aa", 5, rng(seed=2)) == \
            generate_sp_expertise("aa", 5, rng(seed=2))

    def test_tokens_carry_the_domain(self):
        for element in generate_sp_expertise("zz", 6, rng()):
            x, y = element.split(".")
            assert x.startswith("zz")
            assert y.startswith("zz")

    def test_empty_expertise_rejected(self, monkeypatch):
        rejected_before_drawing(monkeypatch, "sp_expertise_size", sp_expertise_size=0)


class TestLinkFriends:
    def _sp_only_net(self, nsp, size=6, seed=4):
        config = Config(np=nsp, nsp=nsp, sp_expertise_size=size,
                        friends_per_sp=0, min_peer_expertise=1, seed=seed)
        return build_son(config)

    def _link(self, net, friends_per_sp, dup_count):
        expertise = {spid: set(sp.expertise) for spid, sp in net.super_peers.items()}
        friends = link_friends_and_duplicate(expertise, friends_per_sp, dup_count, rng())
        sps = {spid: dataclasses.replace(sp, expertise=frozenset(expertise[spid]),
                                         friends=tuple(sorted(friends[spid])))
               for spid, sp in net.super_peers.items()}
        return Network(peers={}, super_peers=sps, config=net.config)

    def test_two_sps_share_at_least_dup_count(self):
        net = self._sp_only_net(2)
        before = {spid: sp.expertise for spid, sp in net.super_peers.items()}
        linked = self._link(net, 1, 2)
        assert linked.cormat[(0, 1)] >= 2
        for spid in (0, 1):
            grown = linked.super_peers[spid].expertise - before[spid]
            assert len(grown) <= 2

    def test_cormat_matches_recomputed_intersections(self):
        net = self._sp_only_net(10, size=8)
        linked = self._link(net, 3, 2)
        for i in range(10):
            assert len(linked.super_peers[i].friends) >= 3
            assert i not in linked.super_peers[i].friends
        for i in range(10):
            for j in range(i + 1, 10):
                shared = len(linked.super_peers[i].expertise
                             & linked.super_peers[j].expertise)
                assert linked.cormat.get((i, j), 0) == shared
                if j in linked.super_peers[i].friends:
                    assert shared >= 2

    def test_friendship_is_symmetric(self):
        net = self._sp_only_net(6)
        linked = self._link(net, 2, 1)
        for spid, sp in linked.super_peers.items():
            for friend in sp.friends:
                assert spid in linked.super_peers[friend].friends

    def test_zero_friends_leaves_empty_cormat(self):
        net = self._sp_only_net(4)
        linked = self._link(net, 0, 2)
        assert linked.cormat == {}
        assert all(not sp.friends for sp in linked.super_peers.values())

    def test_zero_dup_count_rejected(self, monkeypatch):
        rejected_before_drawing(monkeypatch, "dup_count", dup_count=0)

    def test_dup_count_above_smallest_expertise_rejected(self, monkeypatch):
        problem = rejected_before_drawing(monkeypatch, "dup_count", sp_expertise_size=4,
                                          dup_count=5, min_peer_expertise=4)
        assert problem == "dup_count: cannot exceed sp_expertise_size"

    def test_too_many_friends_rejected(self, monkeypatch):
        rejected_before_drawing(monkeypatch, "friends_per_sp", np=30, nsp=3, friends_per_sp=3)


class TestGeneratePeerExpertise:
    def test_min_equal_to_size_forces_full_set(self):
        net = build_son(Config(np=1, nsp=1, sp_expertise_size=5,
                               friends_per_sp=0, min_peer_expertise=1, seed=9))
        sp = net.super_peers[0]
        assert generate_peer_expertise(sorted(sp.expertise), 5, rng()) == sp.expertise

    def test_subset_within_bounds(self):
        net = build_son(Config(np=1, nsp=1, sp_expertise_size=5,
                               friends_per_sp=0, min_peer_expertise=1, seed=9))
        sp = net.super_peers[0]
        for k in range(30):
            expertise = generate_peer_expertise(sorted(sp.expertise), 1, rng(seed=k))
            assert 1 <= len(expertise) <= 5
            assert expertise <= sp.expertise

    def test_deterministic_under_seed(self):
        net = build_son(Config(np=1, nsp=1, sp_expertise_size=5,
                               friends_per_sp=0, min_peer_expertise=1, seed=9))
        sp = net.super_peers[0]
        assert generate_peer_expertise(sorted(sp.expertise), 2, rng(seed=1)) == \
            generate_peer_expertise(sorted(sp.expertise), 2, rng(seed=1))

    def test_min_larger_than_expertise_rejected(self, monkeypatch):
        rejected_before_drawing(monkeypatch, "min_peer_expertise", np=1, nsp=1,
                                sp_expertise_size=3, dup_count=1, friends_per_sp=0,
                                min_peer_expertise=4)


class TestBuildSon:
    def test_round_robin_attachment(self):
        net = build_son(Config(np=300, nsp=10, seed=1))
        for spid, sp in net.super_peers.items():
            assert len(sp.members) == 30

    def test_single_peer_network(self):
        net = build_son(Config(np=1, nsp=1, friends_per_sp=0,
                               min_peer_expertise=1, seed=1))
        assert len(net.peers) == 1
        assert len(net.super_peers) == 1
        assert net.cormat == {}

    def test_serialization_is_deterministic(self):
        config = Config(np=40, nsp=4, seed=77)
        assert serialize_network(build_son(config)) == serialize_network(build_son(config))

    def test_different_seed_changes_network(self):
        assert serialize_network(build_son(Config(np=40, nsp=4, seed=1))) != \
            serialize_network(build_son(Config(np=40, nsp=4, seed=2)))

    def test_peer_expertise_inside_community(self):
        net = build_son(Config(np=60, nsp=6, seed=3))
        for peer in net.peers.values():
            assert peer.expertise <= net.super_peers[peer.super_peer].expertise

    def test_members_partition_the_peers(self):
        net = build_son(Config(np=50, nsp=7, seed=3))
        seen = []
        for sp in net.super_peers.values():
            seen.extend(sp.members)
            for pid in sp.members:
                assert net.peers[pid].super_peer == sp.id
        assert sorted(seen) == sorted(net.peers)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            build_son(Config(np=3, nsp=5))

    def test_members_are_the_round_robin_range(self):
        net = build_son(Config(np=50, nsp=7, seed=3))
        for spid, sp in net.super_peers.items():
            assert sp.members == range(spid, 50, 7)

    def test_friends_are_stored_and_dumped_ascending(self):
        net = build_son(Config(np=60, nsp=12, friends_per_sp=4, seed=3))
        dumped = {}
        for line in serialize_network(net).splitlines():
            if line.startswith("sp "):
                spid, friends = line.split()[1], line.split("friends=")[1].split()[0]
                dumped[int(spid)] = tuple(map(int, friends.split(",")))
        for spid, sp in net.super_peers.items():
            assert sp.friends == tuple(sorted(sp.friends))
            assert dumped[spid] == sp.friends


class TestTrust:
    def test_disjoint_expertise_gives_zero(self):
        net = build_son(Config(np=2, nsp=2, friends_per_sp=0,
                               min_peer_expertise=1, seed=5))
        assert (0, 1) not in net.cormat

    def test_friend_pair_at_least_dup_count(self):
        net = build_son(Config(np=10, nsp=5, friends_per_sp=2, dup_count=2, seed=5))
        for spid, sp in net.super_peers.items():
            for friend in sp.friends:
                assert net.cormat[(min(spid, friend), max(spid, friend))] >= 2

    def test_equal_expertise_counts_every_element(self):
        net = build_son(Config(np=2, nsp=2, friends_per_sp=0,
                               min_peer_expertise=1, sp_expertise_size=4, seed=5))
        sp0 = net.super_peers[0]
        forced = Network(peers={}, super_peers={
            0: sp0, 1: dataclasses.replace(net.super_peers[1], expertise=sp0.expertise)},
            config=net.config)
        assert forced.cormat[(0, 1)] == 4
