"""Two-level semantic query routing and the global query log it produces.

Local search covers the whole origin community. Global search evaluates
each friend super-peer's expertise against the query and forwards to the
qualifying ones, breadth-first, each super-peer processing a given query at
most once.
A router only chooses which communities to search and counts the mapping
operations each one performs (the members and friends probed, one mapping
each). That choice and its cost are the route's `RoutePlan`: the searched
super-peers as a set, the critical-path response time, the mapping total,
the messages and the tree nodes visited. Only the
answers depend on the query itself, so a router keys each plan by its
routing decision, builds it once and reuses it for every later route that
decides the same; the caller owns that memo (`plans`), and each router
says what its memo is valid for. One constructor, `RoutingResult.searched`,
turns a plan into a result for both routers: each searched community
answers with its entry in the query's relevant set (a `model.PeerSet`, a
mask over the community's own members), which the engine computes once per
query with the relevance kernel, `model.relevant_mask`, and passes in. A
plan is costed as the critical path of its forwarding, one segment per
searched super-peer: `segment_cost` is the one rule for costing a segment.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from random import Random

from .model import (
    ExpertiseElement,
    PeerId,
    PeerSet,
    Query,
    SuperPeerId,
    capacity,
    parse_element,
    peers_of,
)
from .netgen import Network, Peer


# (c_hop, c_map, c_tree): the cost of one message, one mapping operation and
# one tree node visited.
Costs = tuple[float, float, float]


def segment_cost(costs: Costs, hops: int, maps: int, tree_visits: int,
                 branches: Sequence[float]) -> float:
    """Critical-path cost of one sequential segment of a query's forwarding:
    `hops` messages to reach it, `maps` mapping operations and `tree_visits`
    tree nodes visited in it, plus the costliest of `branches`, the costs of
    the segments that run in parallel after it (0.0 when there are none)."""
    c_hop, c_map, c_tree = costs
    return hops * c_hop + maps * c_map + tree_visits * c_tree + (max(branches) if branches else 0.0)


class RoutePlan:
    """Everything a route's result holds except its answers: the searched
    super-peers, the critical-path response time and the total mapping
    operations, messages and tree nodes visited. Built from `maps`, each
    searched super-peer mapped to the mapping operations it performed; the
    searched set is the one `net.shared` holds."""

    __slots__ = ("searched_sps", "response_time", "mapping_ops", "hops", "tree_visits")

    def __init__(self, net: Network, maps: dict[SuperPeerId, int], response_time: float,
                 hops: int, tree_visits: int):
        searched = frozenset(maps)
        self.searched_sps = net.shared.setdefault(searched, searched)
        self.response_time = response_time
        self.mapping_ops = sum(maps.values())
        self.hops = hops
        self.tree_visits = tree_visits


@dataclass(slots=True)
class RoutingResult:
    """What a routed query found, where it searched and what that cost: the
    critical-path response time and the total mapping operations, messages
    and tree nodes visited. The answers are a `model.PeerSet` over the
    network's `nsp` communities. Every field holds an immutable value and
    nothing assigns one after construction; the class is not frozen because
    a frozen dataclass sets each field through `object.__setattr__`, which a
    router building one result per query would pay for."""

    answers: PeerSet
    answering_sps: frozenset[SuperPeerId]
    searched_sps: frozenset[SuperPeerId]
    response_time: float
    mapping_ops: int
    hops: int
    tree_visits: int
    nsp: int

    @classmethod
    def searched(cls, net: Network, relevant: PeerSet, plan: RoutePlan) -> RoutingResult:
        """The result of a route that followed `plan`. Each community the
        plan searched answers with its entry in `relevant`, the query's
        relevant set, if it has one; everything else is the plan's. The
        result shares values instead of holding equal copies: its answers
        are `relevant` itself when the plan searched every relevant
        community, and otherwise hold the entries of `relevant`; each
        super-peer set is the one `net.shared` holds, so its answering set
        is the plan's searched set when every searched community answered."""
        searched_sps = plan.searched_sps
        answering = relevant[::2]
        if searched_sps.issuperset(answering):
            answers = relevant
        else:
            answers = ()
            for i in range(0, len(relevant), 2):
                if relevant[i] in searched_sps:
                    answers += relevant[i:i + 2]
            answering = answers[::2]
        if len(answering) == len(searched_sps):
            answering_sps = searched_sps
        else:
            answering_sps = frozenset(answering)
            answering_sps = net.shared.setdefault(answering_sps, answering_sps)
        return cls(answers, answering_sps, searched_sps, plan.response_time, plan.mapping_ops,
                   plan.hops, plan.tree_visits, len(net.super_peers))

    @property
    def answering_peers(self) -> frozenset[PeerId]:
        return frozenset(peers_of(self.answers, self.nsp))


@dataclass(slots=True)
class LogRecord:
    """One routed query: who asked, from which community, what was asked, and
    which super-peers responded favorably. Like `RoutingResult`, it holds
    immutable values, is never assigned after construction and is not
    frozen, for the same per-query cost."""

    query_id: str
    origin_peer: PeerId
    origin_sp: SuperPeerId
    components: tuple[ExpertiseElement, ...]
    answering_sps: frozenset[SuperPeerId]

    @classmethod
    def routed(cls, query: Query, origin_sp: SuperPeerId, result: RoutingResult) -> LogRecord:
        """The record of `query`, routed from `origin_sp` with `result`."""
        return cls(query.id, query.origin_peer, origin_sp, query.components, result.answering_sps)


class QueryLog(tuple):
    """The trace of routed queries: the tuple of its records, in routing
    order. Query ids are not checked here: an epoch's ids are distinct by
    construction, and `read_query_log` rejects a file that repeats one.
    CPython builds a tuple subclass from a copy of its argument as a plain
    tuple unless that is a plain tuple already, so the builders hand it one
    after dropping the list they appended to: the records' pointers are then
    held twice at most, not three times."""

    __slots__ = ()

    @property
    def records(self) -> tuple[LogRecord, ...]:
        return self


def generate_queries(peer: Peer, count: int, n_components: int, rng: Random,
                     id_prefix: str = "q") -> list[Query]:
    """Generate `count` queries whose components are drawn uniformly, with
    replacement, from the peer's own expertise."""
    pool = sorted(peer.expertise)
    choice = rng.choice
    positions = range(n_components)
    pid = peer.id
    return [Query(f"{id_prefix}{pid}-{k}", pid, tuple([choice(pool) for _ in positions]))
            for k in range(count)]


def route_baseline(net: Network, query: Query, sp: SuperPeerId,
                   relevant: PeerSet, eps_acc: float, costs: Costs,
                   max_hops: int | None = 1,
                   plans: dict[tuple[SuperPeerId, ...], RoutePlan] | None = None) -> RoutingResult:
    """Route one query from super-peer `sp` (the origin peer's community head).

    `relevant` is the query's relevant set (`relevant_mask` at `eps_acc`);
    every searched community answers with its entry in it.
    `eps_acc` still decides which friend super-peers qualify. max_hops bounds
    the forwarding depth: 0 is local-only, 1 reaches direct friends, None
    floods until no unvisited qualifying super-peer remains. Each searched
    super-peer is one segment of the forwarding, costed at `costs`.

    The route's plan is keyed by the super-peers it reached, in search
    order: with the origin, `max_hops` and the network, they fix the levels,
    the forwards and the cost. `plans` is the memo of those plans, valid for
    one network, one `costs` and one `max_hops`; None routes with a fresh
    one. Every friend probe is still evaluated, in the same order.
    """
    if plans is None:
        plans = {}

    # Super-peers enter `maps` when reached, so it is also the visited set.
    # Forwarding runs one level at a time, which visits in the order a FIFO
    # queue would, so `maps` lists the super-peers in search order.
    super_peers = net.super_peers
    maps: dict[SuperPeerId, int] = {sp: len(super_peers[sp].members)}
    forwarded: dict[SuperPeerId, list[SuperPeerId]] = {}  # only super-peers that forwarded
    level = [sp]
    depth = 0
    while level and (max_hops is None or depth < max_hops):
        reached = []
        for spid in level:
            friends = super_peers[spid].friends
            maps[spid] += len(friends)
            children = []
            for friend in friends:
                # A reached super-peer is never forwarded to again, so it is
                # not evaluated; the probe is metered above all the same.
                if friend not in maps and capacity(super_peers[friend].expertise,
                                                   query) >= eps_acc:
                    maps[friend] = len(super_peers[friend].members)
                    children.append(friend)
            if children:
                forwarded[spid] = children
                reached.extend(children)
        level = reached
        depth += 1

    key = tuple(maps)
    plan = plans.get(key)
    if plan is None:
        cost: dict[SuperPeerId, float] = {}
        for spid in reversed(maps):  # reverse search order: forwards are costed first
            cost[spid] = segment_cost(costs, 0 if spid == sp else 1, maps[spid], 0,
                                      [cost[friend] for friend in forwarded.get(spid, ())])
        # One message reaches each searched super-peer but the origin.
        plan = plans[key] = RoutePlan(net, maps, cost[sp], len(maps) - 1, 0)
    return RoutingResult.searched(net, relevant, plan)


def run_baseline_epoch(net: Network, workload: list[Query],
                       relevant: list[PeerSet], eps_acc: float, costs: Costs,
                       max_hops: int | None = 1) -> tuple[QueryLog, list[RoutingResult]]:
    """Route every query in order, costed at `costs`, through one memo of
    route plans; one log record per query.

    relevant[i] is the relevant set of workload[i]; a length mismatch
    raises ValueError.
    """
    records = []
    results = []
    plans: dict[tuple[SuperPeerId, ...], RoutePlan] = {}
    for query, query_relevant in zip(workload, relevant, strict=True):
        origin_sp = net.peers[query.origin_peer].super_peer
        result = route_baseline(net, query, origin_sp, query_relevant, eps_acc, costs,
                                max_hops, plans)
        results.append(result)
        records.append(LogRecord.routed(query, origin_sp, result))
    records = tuple(records)  # the list goes before QueryLog copies its items
    return QueryLog(records), results


def query_log_lines(log: QueryLog) -> Iterator[str]:
    """The lines of a query log file, one per record, each ending in a
    newline: tab-separated id, origin peer, origin super-peer, the
    components, then the answering super-peers as a comma list ("-" when
    none); a record has at least one component. Answering sets repeat
    (`Network.shared` holds one object per distinct set), so each distinct
    set's text is joined once per file."""
    tails: dict[frozenset[SuperPeerId], str] = {}
    for record in log:
        answering = record.answering_sps
        tail = tails.get(answering)
        if tail is None:
            tail = tails[answering] = "\t" + (",".join(map(str, sorted(answering))) or "-") + "\n"
        components = "\t".join(record.components)
        yield f"{record.query_id}\t{record.origin_peer}\t{record.origin_sp}\t{components}{tail}"


def _log_int(text: str, field: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{field} {text!r} is not an integer") from None


def read_query_log(path) -> QueryLog:
    """Parse a log of `query_log_lines`; every record must have as
    many query components as the first, and no query id may repeat. Every
    error names the file and line."""
    records: list[LogRecord] = []
    ids: set[str] = set()
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            try:
                fields = line.split("\t")
                if len(fields) < 5:
                    raise ValueError("expected at least 5 fields")
                if fields[0] in ids:
                    raise ValueError(f"duplicate query id in log: {fields[0]}")
                ids.add(fields[0])
                components = tuple(parse_element(c) for c in fields[3:-1])
                if width is None:
                    width = len(components)
                elif len(components) != width:
                    raise ValueError(f"{len(components)} query components, "
                                     f"but the first record has {width}")
                answering_field = fields[-1]
                answering = frozenset(
                    _log_int(s, "answering super-peer") for s in answering_field.split(",")
                ) if answering_field != "-" else frozenset()
                records.append(LogRecord(
                    query_id=fields[0],
                    origin_peer=_log_int(fields[1], "origin peer"),
                    origin_sp=_log_int(fields[2], "origin super-peer"),
                    components=components,
                    answering_sps=answering,
                ))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    records = tuple(records)  # the list goes before QueryLog copies its items
    return QueryLog(records)
