"""Expertise vocabulary, queries and the relevance kernel shared by every routing strategy.

Relevance is decided here and nowhere else: `capacity` and `is_relevant`
score one expertise, `relevant_peers_indexed` finds every relevant peer of a
network through its inverted element index, and `oracle_relevant_peers` is the
plain exhaustive scan the tests hold the kernel to. The engine runs the kernel
once per query and hands that one set to both routers and to its oracle.

Everything here is an immutable value; the operations are pure functions, so
they can be evaluated concurrently and give the same answer under replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, NamedTuple

if TYPE_CHECKING:
    from .netgen import Network

PeerId = int
SuperPeerId = int

# Joins the two tokens of an element in files (ARFF, logs). Token labels
# must therefore never contain it; the generators in netgen never emit it.
ELEMENT_SEPARATOR = "."


class ExpertiseElement(NamedTuple):
    """Ordered token couple; the atomic unit of shareable knowledge."""

    x: str
    y: str

    def render(self) -> str:
        return f"{self.x}{ELEMENT_SEPARATOR}{self.y}"


def parse_element(text: str) -> ExpertiseElement:
    """Inverse of ExpertiseElement.render, e.g. "k.f" -> (k, f)."""
    parts = text.split(ELEMENT_SEPARATOR)
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise ValueError(f"malformed expertise element: {text!r}")
    return ExpertiseElement(parts[0], parts[1])


Expertise = frozenset[ExpertiseElement]


@dataclass(frozen=True)
class Query:
    """An ordered conjunction of expertise elements issued by one peer."""

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


def relevant_peers_indexed(net: "Network", query: Query, eps_acc: float) -> set[PeerId]:
    """Oracle-equivalent relevance via the network's inverted element index.

    Per-peer hit counts are compared exactly as capacity() compares, so the
    result matches oracle_relevant_peers on every input.
    """
    comps = query.components
    if not comps:
        raise ValueError("empty query")
    if eps_acc <= 0.0:
        return set(net.peers)
    counts: dict[int, int] = {}
    for comp in comps:
        for pid in net.element_index.get(comp, ()):
            counts[pid] = counts.get(pid, 0) + 1
    n = len(comps)
    return {pid for pid, hits in counts.items() if hits / n >= eps_acc}
