"""Synthesis of the semantic overlay network.

Generation order matters: domains and super-peer expertise first, then friend
links with expertise duplication (which is the only source of inter-community
overlap, because each domain draws couples from its own token partition), then
peers as subsets of their super-peer's final expertise. `build_son` grows
plain expertise sets through the first two stages, then constructs each
`SuperPeer` once, before it draws the peers, and the one `Network` at the
end; it sorts each super-peer's final expertise once, into the one pool
every member draws from. Peers are attached round-robin (peer p under super-peer p mod nsp), so
each community's members follow from the sizes alone: super-peer s heads
`range(s, np, nsp)`. A super-peer's friends are stored in ascending order,
the order `baseline.route_baseline` probes them in, and peer `p` is bit
`p // nsp` of its community's masks (`model.PeerSet`). What a `Network`
derives from its peers and super-peers (the relevance kernel's element
masks, the set of every peer and the correspondence matrix) it computes on
first read, so it always agrees with them; each element mask is one
community's, of at most ceil(np / nsp) bits, so the index is built in time
linear in the peers' expertise.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from functools import cached_property
from random import Random

from .config import MAX_NSP, Config, substream
from .model import Expertise, ExpertiseElement, PeerId, PeerSet, SuperPeerId, element, peer_set_of

DomainLabel = str


@dataclass(frozen=True)
class SuperPeer:
    id: SuperPeerId
    domain: DomainLabel
    expertise: Expertise
    friends: tuple[SuperPeerId, ...]  # ascending
    members: range  # the round-robin community: range(id, np, nsp)


@dataclass(slots=True)
class Peer:
    """A peer and its expertise, a subset of its super-peer's. It holds
    immutable values, is never assigned after construction and is not
    frozen, for the same per-item cost as `model.Query`."""

    id: PeerId
    expertise: Expertise
    super_peer: SuperPeerId


@dataclass(frozen=True)
class Network:
    """The full overlay: every peer belongs to exactly one community, and the
    inter-community structure lives in friend links plus the correspondence
    matrix.

    The element masks, the set of every peer and the matrix below are
    derived from the fields, never passed in, and computed on first read.
    Peer sets are `model.PeerSet`s: peer p is bit p // nsp of community
    p % nsp."""

    peers: dict[PeerId, Peer]
    super_peers: dict[SuperPeerId, SuperPeer]
    config: Config

    @cached_property
    def element_members(self) -> tuple[dict[ExpertiseElement, int], ...]:
        """Per community, element -> the members holding it, bit p // nsp
        for peer p: what the relevance kernel counts within a community."""
        nsp = len(self.super_peers)
        masks: tuple[dict[ExpertiseElement, int], ...] = tuple({} for _ in range(nsp))
        for pid, peer in self.peers.items():
            community, bit = masks[pid % nsp], 1 << pid // nsp
            for held in peer.expertise:
                community[held] = community.get(held, 0) | bit
        return masks

    @cached_property
    def element_communities(self) -> dict[ExpertiseElement, int]:
        """Element -> the communities with a member holding it, bit c for
        community c: what the relevance kernel counts to find candidates."""
        communities: dict[ExpertiseElement, int] = {}
        for community, masks in enumerate(self.element_members):
            for held in masks:
                communities[held] = communities.get(held, 0) | 1 << community
        return communities

    @cached_property
    def every_peer(self) -> PeerSet:
        """Every peer, the relevant set of a query that needs no hits."""
        return peer_set_of(self.peers, len(self.super_peers))

    @cached_property
    def cormat(self) -> dict[tuple[SuperPeerId, SuperPeerId], int]:
        """The correspondence matrix, read by ksp.form_groups: `(i, j) ->`
        the number of expertise elements super-peers i < j share. Only
        nonzero entries are kept, in ascending order of (i, j)."""
        ids = sorted(self.super_peers)
        cormat = {}
        for a, i in enumerate(ids):
            for j in ids[a + 1:]:
                shared = len(self.super_peers[i].expertise & self.super_peers[j].expertise)
                if shared:
                    cormat[(i, j)] = shared
        return cormat

    @cached_property
    def shared(self) -> dict[frozenset[SuperPeerId], frozenset[SuperPeerId]]:
        """Each super-peer set that the routing results over this network
        hold, mapped to itself, so that equal sets are one object
        (`baseline.RoutePlan` and `baseline.RoutingResult.searched` fill it)
        that lives only as long as the network."""
        return {}


def generate_domains(nsp: int, rng: Random) -> list[DomainLabel]:
    """Draw nsp pairwise-distinct two-letter domain labels."""
    if not 1 <= nsp <= MAX_NSP:
        raise ValueError(f"need between 1 and {MAX_NSP} domains, got {nsp}")
    labels: dict[DomainLabel, None] = {}  # an insertion-ordered set: a repeat adds nothing
    while len(labels) < nsp:
        label = "".join(rng.choice(string.ascii_lowercase) for _ in range(2))
        labels[label] = None
    return list(labels)


def generate_sp_expertise(domain: DomainLabel, size: int, rng: Random) -> Expertise:
    """Draw `size` distinct couples over the domain's own token partition.

    Tokens are "<domain><k>", so couples from different domains can never
    collide before duplication. The token pool is the smallest one that
    admits `size` distinct couples.
    """
    vocab_size = math.isqrt(size - 1) + 1  # smallest k with k * k >= size
    tokens = [f"{domain}{k}" for k in range(vocab_size)]
    couples = [element(a, b) for a in tokens for b in tokens]
    return frozenset(rng.sample(couples, size))


def link_friends_and_duplicate(expertise: dict[SuperPeerId, set[ExpertiseElement]],
                               friends_per_sp: int, dup_count: int,
                               rng: Random) -> dict[SuperPeerId, set[SuperPeerId]]:
    """Select friends per super-peer and duplicate expertise across each link:
    grows the super-peers' `expertise` sets in place and returns their friend
    sets.

    Friendship is recorded symmetrically. Duplicating dup_count elements into
    every chosen friend guarantees each friend pair shares at least dup_count
    elements, i.e. a mapping exists between them.
    """
    ids = sorted(expertise)
    friends: dict[SuperPeerId, set[SuperPeerId]] = {spid: set() for spid in ids}
    for spid in ids:
        others = [j for j in ids if j != spid]
        own = sorted(expertise[spid])  # only its friends' expertise grows in this loop
        for friend in rng.sample(others, friends_per_sp):
            shared = rng.sample(own, dup_count)
            expertise[friend].update(shared)
            friends[spid].add(friend)
            friends[friend].add(spid)
    return friends


def generate_peer_expertise(available: list[ExpertiseElement], min_size: int,
                            rng: Random) -> Expertise:
    """Uniform random subset of `available`, a super-peer's expertise in
    sorted order, size in [min_size, len(available)]. Keeps every peer
    semantically inside its community. `rng.sample` never mutates its
    population, so every member of a community draws from one list."""
    size = rng.randint(min_size, len(available))
    return frozenset(rng.sample(available, size))


def build_son(config: Config) -> Network:
    """End-to-end network synthesis: domains, super-peer expertise, friend
    links with duplication, then peers attached round-robin."""
    config.validate()
    rng = substream(config.seed, "network")
    np, nsp = config.np, config.nsp

    domains = generate_domains(nsp, rng)
    expertise = {spid: set(generate_sp_expertise(domains[spid], config.sp_expertise_size, rng))
                 for spid in range(nsp)}
    friends = link_friends_and_duplicate(expertise, config.friends_per_sp, config.dup_count, rng)
    sps = {
        spid: SuperPeer(id=spid, domain=domains[spid], expertise=frozenset(expertise[spid]),
                        friends=tuple(sorted(friends[spid])), members=range(spid, np, nsp))
        for spid in range(nsp)
    }
    pools = [sorted(expertise[spid]) for spid in range(nsp)]
    peers = {
        pid: Peer(id=pid, expertise=generate_peer_expertise(
            pools[pid % nsp], config.min_peer_expertise, rng), super_peer=pid % nsp)
        for pid in range(np)
    }
    return Network(peers=peers, super_peers=sps, config=config)


def serialize_network(net: Network) -> str:
    """Human-readable dump of the whole network; byte-stable under a fixed
    seed, which the determinism tests rely on."""
    lines = ["sonsim-network 1", "[config]"]
    lines.extend(net.config.to_text().splitlines())
    lines.append("[super-peers]")
    for spid in sorted(net.super_peers):
        sp = net.super_peers[spid]
        friends = ",".join(map(str, sp.friends)) or "-"
        expertise = ",".join(sorted(sp.expertise))
        lines.append(f"sp {spid} domain={sp.domain} friends={friends} expertise={expertise}")
    lines.append("[peers]")
    for pid in sorted(net.peers):
        peer = net.peers[pid]
        expertise = ",".join(sorted(peer.expertise))
        lines.append(f"peer {pid} sp={peer.super_peer} expertise={expertise}")
    lines.append("[cormat]")
    for (i, j), count in net.cormat.items():
        lines.append(f"{i} {j} {count}")
    return "\n".join(lines) + "\n"
