"""Knowledge layer: trust-based domain groups, per-group decision-tree
indices trained from the query log, and index-driven routing.

Groups are the connected components of the super-peer graph thresholded by
trust, so a super-peer joins a group as soon as one member shares enough
expertise with it. Indices are trained with class labels spanning the whole
network, which is what lets a group name relevant super-peers outside itself.
One function, `query_attributes`, turns a query into tree attributes, for
training and for the walk alike. Each group owns the instances its index was
induced from; a log record becomes its instances once, and a refresh adds
only the records routed since the last one. A refresh passes each index to
`dtree.build_tree` as the prior of its next induction (its docstring states
what that reuses) and leaves a group that received no records as it is.
Only `run_kb_epoch` decides when to refresh. Until the next refresh an index
is read only by the walks of the queries routed in between, which the epoch
already holds, so every refresh but its last hands each group those walks:
the index then re-induces only the branches they enter, and the rest of it
lags its instances until a later walk or the last, complete refresh reads
it. Index-driven routing replaces all super-peer-level capacity evaluations
with one tree walk; only peer-level evaluations remain metered as mapping
work.
As in the baseline, a route's plan is everything its result holds but the
answers, costed with the baseline's `segment_cost` rule: the origin
community's scan runs in parallel with the index consult, after which the
arrivals at the candidates run in parallel. The routing decision is the
origin super-peer, the nodes the walk visited and the class labels where it
ended; the candidates, relays and cost follow from it, so the router builds
one `RoutePlan` per decision in the caller's memo (`plans`), valid for one
network, one cost triple and one group partition. A refresh keeps the
partition, so an epoch's memo outlives its refreshes. The baseline's one
constructor, `RoutingResult.searched`, derives the answers from the plan,
each searched community answering with its members in the query's relevant
mask, which the engine computes once per query with the relevance kernel,
`model.relevant_mask`, and passes in.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .baseline import Costs, LogRecord, QueryLog, RoutePlan, RoutingResult, segment_cost
from .dtree import DecisionTree, Instance, Leaf, build_tree, class_counts, classify_traced, predict
from .model import ExpertiseElement, Query, SuperPeerId
from .model import capacity  # noqa: F401  benchmark/probe.py counts calls through ksp.capacity
from .netgen import Network

KspId = int


@dataclass(frozen=True)
class KspGroup:
    """A domain group; `index` was induced from exactly `instances`, the
    instances of its members' log records in log order, though a refresh
    with walks leaves the branches they do not enter lagging (see
    `refresh_knowledge`)."""

    members: frozenset[SuperPeerId]
    index: DecisionTree | None = None
    instances: tuple[Instance, ...] = ()


@dataclass(frozen=True)
class KspOverlay:
    """Partition of the super-peer set into domain groups. `form_groups`
    builds `sp_to_group` and nothing mutates it, so every overlay trained
    or refreshed from that one shares its dict."""

    groups: dict[KspId, KspGroup]
    sp_to_group: dict[SuperPeerId, KspId]


def form_groups(net: Network, tau_trust: int) -> KspOverlay:
    """Connected components of the trust graph at threshold tau_trust, found
    in one breadth-first search that gives each super-peer its group id as
    it reaches it.

    Super-peers with no qualifying edge form singleton groups. Group ids are
    assigned in ascending order of each component's smallest member id: the
    search starts from the unreached ids in ascending order, so each start is
    its component's smallest member.
    """
    if tau_trust < 1:
        raise ValueError("tau_trust must be >= 1")
    adjacency: dict[int, list[int]] = {spid: [] for spid in net.super_peers}
    for (i, j), shared in net.cormat.items():
        if shared >= tau_trust:
            adjacency[i].append(j)
            adjacency[j].append(i)

    groups: dict[KspId, KspGroup] = {}
    sp_to_group: dict[SuperPeerId, KspId] = {}
    for start in sorted(net.super_peers):
        if start in sp_to_group:
            continue
        gid = sp_to_group[start] = len(groups)
        members = [start]
        for current in members:  # the members reached so far are the search queue
            for neighbor in adjacency[current]:
                if neighbor not in sp_to_group:
                    sp_to_group[neighbor] = gid
                    members.append(neighbor)
        groups[gid] = KspGroup(members=frozenset(members))
    return KspOverlay(groups=groups, sp_to_group=sp_to_group)


def query_attributes(components: tuple[ExpertiseElement, ...]) -> tuple[str, ...]:
    """The tree attributes of a query: its components, in query order, one
    attribute per position; an element is its own text, so the values are
    the strings the network holds. Training rows and tree walks both come
    from here."""
    return components


def instances_from_records(records) -> list[Instance]:
    """Training rows from log records: one instance per (query, answering
    super-peer) pair, class labels in ascending order for determinism.
    Records share their answering sets, so each distinct set is sorted once
    per call, found by its value."""
    instances = []
    labels: dict[frozenset[SuperPeerId], list[SuperPeerId]] = {}
    for record in records:
        attributes = query_attributes(record.components)
        answering = record.answering_sps
        ordered = labels.get(answering)
        if ordered is None:
            ordered = labels[answering] = sorted(answering)
        for spid in ordered:
            instances.append(Instance(attributes, spid))
    return instances


def record_accuracy(tree: DecisionTree, records) -> float:
    """Fraction of log records whose single-label prediction names one of the
    super-peers that actually answered.

    This is the accuracy the index needs in routing; it is not capped by the
    one-instance-per-answerer expansion the way instance-level accuracy is.
    """
    records = list(records)
    if not records:
        raise ValueError("no records")
    hits = 0
    for record in records:
        if predict(tree, query_attributes(record.components)) in record.answering_sps:
            hits += 1
    return hits / len(records)


def train_indices(overlay: KspOverlay, log: QueryLog, min_leaf: int = 2) -> KspOverlay:
    """Train every group's index on the instances of its slice of the log
    (records whose origin super-peer is a member), replacing any it had. A
    group whose members never submitted queries keeps a degenerate leaf over
    the global class distribution. A log in which no query was answered, an
    empty one included, has no class to learn and is rejected."""
    if not any(record.answering_sps for record in log):
        raise ValueError("log contains no answered queries to learn from")
    return _induce(overlay, log, min_leaf, keep=False)


def _induce(overlay: KspOverlay, records, min_leaf: int, keep: bool,
            walks: list[tuple[SuperPeerId, tuple[str, ...]]] | None = None) -> KspOverlay:
    """Add each record's instances once to its origin super-peer's group,
    after the group's current instances if `keep`, and induce every group's
    index from its instances, handing `build_tree` the attributes of the
    `walks` from the group's members, if given. A record whose origin
    super-peer is in no group raises.

    When `keep`, every group with instances passes its index to `build_tree`
    as the prior (see its reuse rule); the indices must have been induced at
    this `min_leaf`. A group without instances gets the leaf over every
    group's class distribution; that leaf is never a prior."""
    slices: dict[KspId, list[LogRecord]] = {gid: [] for gid in overlay.groups}
    for record in records:
        if record.origin_sp not in overlay.sp_to_group:
            raise ValueError(f"log record {record.query_id}: origin super-peer "
                             f"{record.origin_sp} is in no group")
        slices[overlay.sp_to_group[record.origin_sp]].append(record)
    paths = None if walks is None else {gid: [] for gid in overlay.groups}
    for origin_sp, attributes in walks or ():
        paths[overlay.sp_to_group[origin_sp]].append(attributes)
    groups = {}
    for gid in sorted(overlay.groups):
        group = overlay.groups[gid]
        old = group.instances if keep else ()
        own = old + tuple(instances_from_records(slices[gid]))
        prior = group.index if old else None
        index = build_tree(own, min_leaf=min_leaf, prior=prior,
                           walks=None if paths is None else paths[gid]) if own else None
        groups[gid] = dataclasses.replace(group, index=index, instances=own)
    empty = [gid for gid, group in groups.items() if not group.instances]
    if empty:
        fallback = Leaf(class_counts(inst for group in groups.values() for inst in group.instances))
        for gid in empty:
            groups[gid] = dataclasses.replace(groups[gid], index=fallback)
    return KspOverlay(groups=groups, sp_to_group=overlay.sp_to_group)


def route_kb(net: Network, overlay: KspOverlay, query: Query, sp: SuperPeerId,
             relevant: int, costs: Costs,
             plans: dict[tuple[int, ...], RoutePlan] | None = None) -> RoutingResult:
    """Index-driven routing.

    The origin community is searched locally while the query travels one hop
    to the group's knowledge node, whose tree names the candidate super-peers
    without any super-peer-level mapping. Same-group candidates are one hop
    away; foreign ones are relayed through their own group's knowledge node
    (two hops). Every candidate community is then searched locally: its
    answers are its members in `relevant`, the query's relevant peer mask.
    The route is costed at `costs`.

    The plan is keyed by (sp, tree visits, the class labels where the walk
    ended). `plans` is the memo of those plans, valid for one network, one
    `costs` and one `overlay.sp_to_group`; None routes with a fresh one.
    """
    if sp not in net.super_peers:
        raise ValueError(f"unknown super-peer {sp}")
    gid = overlay.sp_to_group[sp]
    index = overlay.groups[gid].index
    if index is None:
        raise ValueError("index not trained")
    if plans is None:
        plans = {}

    counts, tree_visits = classify_traced(index, query_attributes(query.components))
    key = (sp, tree_visits, *counts)
    plan = plans.get(key)
    if plan is None:
        # Every class counted where the walk ends is a candidate.
        targets = sorted(s for s in counts if s != sp and s in net.super_peers)
        maps = {spid: len(net.super_peers[spid].members) for spid in (sp, *targets)}

        relays = [1 if overlay.sp_to_group[t] == gid else 2 for t in targets]
        local = segment_cost(costs, 0, maps[sp], 0, ())
        consult = segment_cost(costs, 1, 0, tree_visits, [
            segment_cost(costs, relay, maps[t], 0, ()) for t, relay in zip(targets, relays)])
        response_time = segment_cost(costs, 0, 0, 0, (local, consult))
        # One message to the knowledge node, then the relays.
        plan = plans[key] = RoutePlan(net, maps, response_time, 1 + sum(relays), tree_visits)
    return RoutingResult.searched(net, relevant, plan)


def refresh_knowledge(overlay: KspOverlay, records, min_leaf: int = 2,
                      walks: list[tuple[SuperPeerId, tuple[str, ...]]] | None = None
                      ) -> KspOverlay:
    """Append `records`, the queries routed since the previous refresh, to
    their groups' instances and re-induce each index from its prior tree
    (see `dtree.build_tree`); each index equals the one induced from
    scratch, as long as `min_leaf` is the one the indices were trained
    with. `walks`, if given, are the (origin super-peer, attributes) of the
    queries to be routed before the next refresh: each index is then
    re-induced only along the walks from its group's members, and walking
    it with any of them gives what the index induced from scratch gives,
    though the branches they do not enter may lag. Always returns a new
    overlay; when to refresh is `run_kb_epoch`'s decision."""
    return _induce(overlay, records, min_leaf, keep=True, walks=walks)


def run_kb_epoch(net: Network, overlay: KspOverlay, workload: list[Query],
                 relevant: list[int], costs: Costs, refresh_every: int = 0,
                 min_leaf: int = 2) -> tuple[QueryLog, list[RoutingResult], KspOverlay]:
    """Route a workload with the knowledge strategy, costed at `costs`
    through one memo of route plans, and log it, refreshing the indices with
    the newly logged records every `refresh_every` queries. A refresh that a
    later one follows gets the walks of the queries routed up to that one;
    the last gets none, so the returned overlay's indices are complete.

    relevant[i] is the relevant peer mask of workload[i]; a length mismatch
    raises ValueError. refresh_every = 0 keeps the knowledge static for the
    whole epoch. Returns the epoch's log, its results and the final overlay.
    """
    if not workload:
        raise ValueError("workload is empty")
    records: list[LogRecord] = []
    results = []
    plans: dict[tuple[int, ...], RoutePlan] = {}  # refreshes keep `sp_to_group`
    pairs = zip(workload, relevant, strict=True)
    for routed, (query, query_relevant) in enumerate(pairs, start=1):
        origin_sp = net.peers[query.origin_peer].super_peer
        result = route_kb(net, overlay, query, origin_sp, query_relevant, costs, plans)
        results.append(result)
        records.append(LogRecord.routed(query, origin_sp, result))
        if refresh_every > 0 and routed % refresh_every == 0:
            # The walks of the next period; the last refresh gets none.
            walks = None if routed + refresh_every > len(workload) else [
                (net.peers[q.origin_peer].super_peer, query_attributes(q.components))
                for q in workload[routed:routed + refresh_every]]
            overlay = refresh_knowledge(overlay, records[-refresh_every:], min_leaf, walks)
    return QueryLog(records), results, overlay
