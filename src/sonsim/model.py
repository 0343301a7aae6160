"""Expertise vocabulary, queries and the relevance kernel shared by every routing strategy.

Relevance is decided here and nowhere else: `capacity` and `is_relevant`
score one expertise, `relevant_mask` finds every relevant peer of a network
from its per-community element masks, and `oracle_relevant_peers` is the
plain exhaustive scan the tests hold the kernel to. The engine runs the
kernel once per query and hands that one peer set to both routers and to
its scoring.

A set of peers travels community by community, as a `PeerSet`: the flat
tuple `(c0, m0, c1, m1, ...)` of the communities that hold one of its peers,
ascending, each with a nonzero mask over its own members. Peers are attached
round-robin, so peer `p` is bit `p // nsp` of community `p % nsp`
(`peer_set_of` and `peers_of` convert). A set costs what the communities it
touches cost, and no int in it has more than ceil(np / nsp) bits, so the
sets a run holds grow with the query count alone, not with np as well.

An expertise element is its own text, "x.y": the same string in routing, in
trees, logs, ARFF files and the network dump, so nothing converts between
forms. `element` is the only code that joins two tokens and `parse_element`
the only code that reads one from outside the program.

Every value here is never assigned after construction; the operations are
pure functions, so they can be evaluated concurrently and give the same
answer under replay.
"""

from __future__ import annotations

import functools
import re
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Callable, Iterable

if TYPE_CHECKING:
    from .netgen import Network

PeerId = int
SuperPeerId = int

# A set of peers, community by community (see the module docstring).
PeerSet = tuple[int, ...]

# Joins the two tokens of an element. Token labels must therefore never
# contain it; the generators in netgen never emit it. It sorts below every
# token character ([a-z0-9]), so elements sort as their token couples do.
ELEMENT_SEPARATOR = "."

# Element text from outside the program: two tokens of ASCII letters and
# digits, a superset of what netgen emits. Any other character could split or
# quote a field of a file the element is written to (an ARFF row splits at
# commas and spaces), so it is refused when read.
_ELEMENT_TEXT = re.compile(f"[A-Za-z0-9]+{re.escape(ELEMENT_SEPARATOR)}[A-Za-z0-9]+")

# An ordered token couple, the atomic unit of shareable knowledge, as its
# text "x.y".
ExpertiseElement = str


def element(x: str, y: str) -> ExpertiseElement:
    """The element of the token couple (x, y), e.g. ("k", "f") -> "k.f"."""
    return f"{x}{ELEMENT_SEPARATOR}{y}"


def parse_element(text: str) -> ExpertiseElement:
    """Check that `text` from outside the program is one element, two
    non-empty tokens of ASCII letters and digits joined by the separator,
    and return it interned."""
    if not _ELEMENT_TEXT.fullmatch(text):
        raise ValueError(f"malformed expertise element: {text!r}")
    return sys.intern(text)


Expertise = frozenset[ExpertiseElement]


@dataclass(slots=True)
class Query:
    """An ordered conjunction of expertise elements issued by one peer. It
    holds immutable values and is never assigned after construction; it is
    not frozen, because a frozen dataclass sets each field through
    `object.__setattr__`, which a workload of one query per draw would pay
    for."""

    id: str
    origin_peer: PeerId
    components: tuple[ExpertiseElement, ...]


def capacity(expertise: AbstractSet[ExpertiseElement], query: Query) -> float:
    """Fraction of the query's components covered by an expertise.

    Counts positions, so duplicate components each count. Raises ValueError
    on an empty query.
    """
    comps = query.components
    if not comps:
        raise ValueError("empty query")
    hits = 0
    for comp in comps:
        if comp in expertise:
            hits += 1
    return hits / len(comps)


def is_relevant(expertise: AbstractSet[ExpertiseElement], query: Query, eps_acc: float) -> bool:
    """True iff the expertise covers at least an eps_acc fraction of the query.

    Inclusive comparison, so eps_acc = 1.0 stays satisfiable (full containment)
    and eps_acc = 0.0 accepts everything.
    """
    if not 0.0 <= eps_acc <= 1.0:
        raise ValueError(f"eps_acc must lie in [0, 1], got {eps_acc}")
    return capacity(expertise, query) >= eps_acc


def oracle_relevant_peers(net: "Network", query: Query, eps_acc: float) -> set[PeerId]:
    """Ground truth for precision/recall: exhaustively scan every peer in the
    network and keep the relevant ones. Strategy-independent by construction.
    """
    return {
        pid
        for pid, peer in net.peers.items()
        if is_relevant(peer.expertise, query, eps_acc)
    }


def peer_set_of(peers: Iterable[PeerId], nsp: int) -> PeerSet:
    """The `PeerSet` of the peers `peers` over `nsp` communities."""
    masks: dict[int, int] = {}
    for pid in peers:
        community = pid % nsp
        masks[community] = masks.get(community, 0) | 1 << pid // nsp
    return tuple(entry for community in sorted(masks) for entry in (community, masks[community]))


def peers_of(peer_set: PeerSet, nsp: int) -> list[PeerId]:
    """The peers of a peer set over `nsp` communities, community by
    community, each community's ascending."""
    return [i * nsp + c for c, mask in zip(peer_set[::2], peer_set[1::2])
            for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def relevant_mask(net: "Network", query: Query, eps_acc: float) -> PeerSet:
    """The peers whose expertise covers at least an eps_acc fraction of the
    query, as a `PeerSet`: the relevance kernel, equal to
    oracle_relevant_peers.

    A peer only has to reach `need`, the fewest hits `k` with
    `k / n >= eps_acc` -- the comparison capacity() makes, computed once per
    (n, eps_acc). Its community then has members holding `need` of the
    components, so one count over the communities
    (`net.element_communities`) names the candidates, and one count over
    each candidate's members (`net.element_members`) finds its relevant
    ones. With `need` 0 every peer is relevant, and every such query shares
    the one set `net.every_peer`.
    """
    comps = query.components
    need = _hits_needed(len(comps), eps_acc)
    if need == 0:
        return net.every_peer
    members = net.element_members
    found: PeerSet = ()
    candidates = _at_least(net.element_communities.get, comps, need)
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        community = low.bit_length() - 1
        mask = _at_least(members[community].get, comps, need)
        if mask:
            found += (community, mask)
    return found


def _at_least(holders: Callable[[ExpertiseElement, int], int],
              comps: tuple[ExpertiseElement, ...], need: int) -> int:
    """The bits set in at least `need` >= 1 of the masks `holders(comp, 0)`
    gives the components, counted bit-sliced (O'Neil & Quass, "Improved
    query performance with variant indexes", SIGMOD 1997): after each
    component `sliced[i]` holds the bits set more than `i` times so far, and
    the count saturates at `need`. Up to two slices live in locals: a list
    of slices costs a loop per component, which doubles the kernel's time
    at the `need` of the default threshold."""
    if need <= 2:
        once = twice = 0
        for comp in comps:
            held = holders(comp, 0)
            twice |= once & held
            once |= held
        return once if need == 1 else twice
    sliced = [0] * need
    for comp in comps:
        held = holders(comp, 0)
        for i in range(need - 1, 0, -1):
            sliced[i] |= sliced[i - 1] & held
        sliced[0] |= held
    return sliced[-1]


@functools.lru_cache(maxsize=None)
def _hits_needed(n: int, eps_acc: float) -> int:
    """The fewest hits `k` of an `n`-component query with `k / n >= eps_acc`,
    the comparison capacity() makes; a run asks for a few (n, eps_acc)
    pairs, each computed once."""
    return next(k for k in range(n + 1) if k / n >= eps_acc)


def relevant_peers_indexed(net: "Network", query: Query, eps_acc: float) -> set[PeerId]:
    """relevant_mask decoded to a set of peer ids."""
    return set(peers_of(relevant_mask(net, query, eps_acc), len(net.super_peers)))
