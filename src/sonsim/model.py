"""Expertise vocabulary, queries and the relevance kernel shared by every routing strategy.

Relevance is decided here and nowhere else: `capacity` and `is_relevant`
score one expertise, `relevant_mask` finds every relevant peer of a network
from its per-element peer masks, and `oracle_relevant_peers` is the plain
exhaustive scan the tests hold the kernel to. The engine runs the kernel once
per query and hands that one mask to both routers and to its scoring.

A set of peers travels as one int bitmask, bit `p` set for peer `p`
(`mask_of` and `peers_of` convert), so intersections and counts are single
big-int operations instead of per-peer set work.

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
from typing import TYPE_CHECKING, AbstractSet, Iterable

if TYPE_CHECKING:
    from .netgen import Network

PeerId = int
SuperPeerId = int

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


def mask_of(peers: Iterable[PeerId]) -> int:
    """The bitmask of a peer set: bit `p` is set for each peer `p`."""
    mask = 0
    for pid in peers:
        mask |= 1 << pid
    return mask


def peers_of(mask: int) -> list[PeerId]:
    """Inverse of mask_of: the peers whose bits are set, ascending."""
    return [pid for pid, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def relevant_mask(net: "Network", query: Query, eps_acc: float) -> int:
    """Mask of the peers whose expertise covers at least an eps_acc fraction
    of the query: the relevance kernel, equal to oracle_relevant_peers.

    A bit-sliced counter per peer (O'Neil & Quass, "Improved query
    performance with variant indexes", SIGMOD 1997): after each component,
    `sliced[i]` holds the peers with more than `i` hits so far. A peer only
    has to reach `need`, the fewest hits `k` with `k / n >= eps_acc` -- the
    comparison capacity() makes, computed once per (n, eps_acc) -- so the
    counter saturates there. With `need` 0 every peer is relevant, and
    every such query shares the one mask `net.peer_mask`.
    """
    comps = query.components
    need = _hits_needed(len(comps), eps_acc)
    if need == 0:
        return net.peer_mask
    masks = net.element_masks
    sliced = [0] * need
    for comp in comps:
        holders = masks.get(comp, 0)
        for i in range(need - 1, 0, -1):
            sliced[i] |= sliced[i - 1] & holders
        sliced[0] |= holders
    return sliced[need - 1]


@functools.lru_cache(maxsize=None)
def _hits_needed(n: int, eps_acc: float) -> int:
    """The fewest hits `k` of an `n`-component query with `k / n >= eps_acc`,
    the comparison capacity() makes; a run asks for a few (n, eps_acc)
    pairs, each computed once."""
    return next(k for k in range(n + 1) if k / n >= eps_acc)


def relevant_peers_indexed(net: "Network", query: Query, eps_acc: float) -> set[PeerId]:
    """relevant_mask decoded to a set of peer ids."""
    return set(peers_of(relevant_mask(net, query, eps_acc)))
