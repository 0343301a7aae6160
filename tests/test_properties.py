"""Randomized invariant suites for the module-level properties.

The six acceptance-gated property suites live in test_acceptance; these cover
the remaining invariants: capacity ranges, relevance boundaries, the
network and workloads drawn as a plain reference draws them, the
relevance kernel's peer set agreeing with the exhaustive oracle, also on
communities of unequal size, scoring agreeing with the set formula, both
routers agreeing with a plain relevance scan of the communities they search, their message and mapping
counts agreeing with where they searched, each epoch's results, routed
through one memo of plans, equal to each query routed alone, routing
monotonicity in the threshold, distribution normalization, tree induction
choosing the first best gain-ratio split, trees grown from a prior tree
(also when the root switches back and forth between attributes) and
indices after each refresh equal to from-scratch induction, trees built
with walks reading as from-scratch trees along each walk and completed by
a build without walks, the rows of the root's and its children's split
tables holding every attribute's partition and class counts as counted
from scratch, and grouping stability under relabeling.
"""

import dataclasses
import math
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from sonsim.config import Config
from sonsim.baseline import (
    LogRecord,
    RoutingResult,
    generate_queries,
    route_baseline,
    run_baseline_epoch,
)
from sonsim.dtree import (
    Instance,
    Leaf,
    Node,
    _count,
    _gain_ratio,
    build_tree,
    class_counts,
    classify_traced,
    entropy,
    training_accuracy,
)
from sonsim.model import (
    Query,
    capacity,
    element,
    is_relevant,
    oracle_relevant_peers,
    peer_set_of,
    peers_of,
    relevant_mask,
)
from sonsim.netgen import Network, build_son, generate_domains, generate_sp_expertise
from sonsim.ksp import (
    form_groups,
    instances_from_records,
    query_attributes,
    refresh_knowledge,
    route_kb,
    run_kb_epoch,
    train_indices,
)
from sonsim.config import substream
from sonsim.engine import make_workload, score

TOKENS = ["a", "b", "c", "d", "e"]

elements = st.builds(element, st.sampled_from(TOKENS), st.sampled_from(TOKENS))
expertises = st.frozensets(elements, max_size=12)
queries = st.lists(elements, min_size=1, max_size=6).map(
    lambda comps: Query(id="q", origin_peer=0, components=tuple(comps))
)


@lru_cache(maxsize=256)
def cached_net(np, nsp, friends, dup, seed):
    return build_son(Config(np=np, nsp=nsp, friends_per_sp=friends, dup_count=dup,
                            min_peer_expertise=2, sp_expertise_size=6, seed=seed))


net_keys = st.tuples(
    st.integers(min_value=2, max_value=5),    # nsp
    st.integers(min_value=0, max_value=3),    # friends cap, clamped below
    st.integers(min_value=1, max_value=3),    # dup
    st.integers(min_value=0, max_value=50),   # seed
)


def draw_net(key, extra=0):
    """The network of `key`: four peers per community, and a fifth in each
    of the first `extra % nsp` communities, so communities can differ in
    size and a peer's bit `p // nsp` in its community's masks is tested
    past the last full round of the round-robin."""
    nsp, friends, dup, seed = key
    return cached_net(nsp * 4 + extra % nsp, nsp, min(friends, nsp - 1), dup, seed)


# The `extra` of draw_net: 0 <= extra % nsp < nsp peers beyond four per community.
extra_peers = st.integers(min_value=0, max_value=5)


def peer_query(net, seed, n=4):
    rng = substream(seed, "pq")
    pid = rng.randrange(len(net.peers))
    return generate_queries(net.peers[pid], 1, n, rng, id_prefix="pq")[0]


@given(e=expertises, q=queries)
def test_capacity_is_a_fraction_of_n(e, q):
    n = len(q.components)
    value = capacity(e, q)
    assert value in {i / n for i in range(n + 1)}


@given(e=expertises, q=queries)
def test_relevance_boundaries(e, q):
    assert is_relevant(e, q, 0.0)
    assert is_relevant(e, q, 1.0) == all(c in e for c in q.components)


@given(domains=st.lists(st.text("abcdefghijklmnopqrstuvwxyz", min_size=2, max_size=2),
                        min_size=1, max_size=4, unique=True),
       size=st.integers(min_value=1, max_value=200),
       seed=st.integers(min_value=0, max_value=1000))
def test_elements_sort_as_their_token_couples(domains, size, seed):
    """The separator sorts below every token character, so generated element
    texts sort exactly as their (x, y) couples, also where one token is a
    prefix of another ("aa1" and "aa10"): the order every seeded draw and the
    network dump rely on."""
    rng = substream(seed, "vocabulary")
    held = [e for domain in domains for e in generate_sp_expertise(domain, size, rng)]
    assert sorted(held) == sorted(held, key=lambda e: tuple(e.split(".")))


def reference_setup(config):
    """The network and both workloads of `config` drawn as plainly as they
    can be: each super-peer's and each peer's draw sorts its population
    again, and each query's components come from a generator. Returns the
    super-peers' expertise and friends, the peers' expertise and the
    (id, origin, components) of each workload's queries."""
    rng = substream(config.seed, "network")
    domains = generate_domains(config.nsp, rng)
    expertise = {spid: set(generate_sp_expertise(domains[spid], config.sp_expertise_size, rng))
                 for spid in range(config.nsp)}
    friends = {spid: set() for spid in expertise}
    for spid in sorted(expertise):
        others = [j for j in sorted(expertise) if j != spid]
        for friend in rng.sample(others, config.friends_per_sp):
            expertise[friend].update(rng.sample(sorted(expertise[spid]), config.dup_count))
            friends[spid].add(friend)
            friends[friend].add(spid)
    peers = {}
    for pid in range(config.np):
        available = sorted(expertise[pid % config.nsp])
        size = rng.randint(config.min_peer_expertise, len(available))
        peers[pid] = frozenset(rng.sample(available, size))
    workloads = []
    for stream, prefix in (("workload-baseline", "t"), ("workload-kb", "e")):
        rng = substream(config.seed, stream)
        queries = []
        for pid in sorted(peers):
            pool = sorted(peers[pid])
            for k in range(config.queries_per_peer):
                components = tuple(rng.choice(pool) for _ in range(config.n_components))
                queries.append((f"{prefix}{pid}-{pid}-{k}", pid, components))
        workloads.append(queries)
    return expertise, friends, peers, workloads


@st.composite
def setup_configs(draw):
    nsp = draw(st.integers(min_value=2, max_value=6))
    size = draw(st.integers(min_value=1, max_value=12))
    return Config(np=draw(st.integers(min_value=nsp, max_value=30)), nsp=nsp,
                  sp_expertise_size=size,
                  friends_per_sp=draw(st.integers(min_value=0, max_value=nsp - 1)),
                  dup_count=draw(st.integers(min_value=1, max_value=size)),
                  min_peer_expertise=draw(st.integers(min_value=1, max_value=size)),
                  n_components=draw(st.integers(min_value=1, max_value=5)),
                  queries_per_peer=draw(st.integers(min_value=0, max_value=4)),
                  seed=draw(st.integers(min_value=0, max_value=2**32)))


@given(config=setup_configs())
@settings(max_examples=60, deadline=None)
def test_setup_draws_equal_a_plain_reference(config):
    """`build_son` and `make_workload` make the reference's draws, call for
    call over the same populations: sorting each pool once and sharing it
    changes no draw."""
    expertise, friends, peers, workloads = reference_setup(config)
    net = build_son(config)
    assert {spid: sp.expertise for spid, sp in net.super_peers.items()} == \
        {spid: frozenset(held) for spid, held in expertise.items()}
    assert {spid: set(sp.friends) for spid, sp in net.super_peers.items()} == friends
    assert {pid: (peer.expertise, peer.super_peer) for pid, peer in net.peers.items()} == \
        {pid: (held, pid % config.nsp) for pid, held in peers.items()}
    for (stream, prefix), expected in zip((("workload-baseline", "t"), ("workload-kb", "e")),
                                          workloads):
        assert [(q.id, q.origin_peer, q.components)
                for q in make_workload(net, config, stream, prefix)] == expected


@given(key=net_keys, seed=st.integers(min_value=0, max_value=1000))
@settings(deadline=None)
def test_oracle_at_zero_threshold_is_everyone(key, seed):
    net = draw_net(key)
    assert oracle_relevant_peers(net, peer_query(net, seed), 0.0) == set(net.peers)


# (origin peer, components, repeat the first component); each component is
# drawn from the origin's community (True) or from the whole vocabulary.
router_queries = st.tuples(
    st.integers(min_value=0, max_value=10_000),
    st.lists(st.tuples(st.booleans(), st.integers(min_value=0, max_value=10_000)),
             min_size=1, max_size=5),
    st.booleans(),
)
thresholds = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
# (c_hop, c_map, c_tree), each non-negative and finite.
cost_weights = st.tuples(*[st.floats(min_value=0.0, max_value=100.0)] * 3)
COSTS = (10.0, 1.0, 0.1)  # the Config defaults


def router_query(net, drawn):
    origin, picks, repeat = drawn
    pid = origin % len(net.peers)
    local = sorted(net.super_peers[net.peers[pid].super_peer].expertise)
    vocabulary = sorted(set().union(*(sp.expertise for sp in net.super_peers.values())))
    comps = []
    for own, i in picks:
        pool = local if own else vocabulary
        comps.append(pool[i % len(pool)])
    if repeat:
        comps.append(comps[0])
    return Query(id="r", origin_peer=pid, components=tuple(comps))


def fraction_edges(n):
    """Thresholds on and next to every k/n, where the kernel's `need` flips."""
    edges = set()
    for k in range(n + 1):
        edges.update({k / n, math.nextafter(k / n, 0.0), math.nextafter(k / n, 1.0)})
    return sorted(edges)


@given(key=net_keys, extra=extra_peers, drawn=router_queries, data=st.data(),
       cut=st.integers(min_value=0, max_value=6), unheld=st.integers(min_value=0, max_value=2))
@settings(deadline=None)
def test_indexed_relevance_matches_oracle(key, extra, drawn, data, cut, unheld):
    """The kernel every router relies on, decoded, equals the exhaustive scan
    at any threshold, also on the float edges of k/n, for repeated components,
    for components that no peer holds and for communities of unequal size;
    its communities ascend and each mask is nonzero."""
    net = draw_net(key, extra)
    q = router_query(net, drawn)
    nowhere = element("unheld", "element")
    assert nowhere not in net.element_communities
    components = q.components[:cut] + (nowhere,) * unheld
    assume(1 <= len(components) <= 6)
    q = dataclasses.replace(q, components=components)
    eps = data.draw(st.one_of(st.floats(min_value=0.0, max_value=1.0),
                              st.sampled_from(fraction_edges(len(components)))))
    relevant = relevant_mask(net, q, eps)
    nsp = len(net.super_peers)
    assert set(peers_of(relevant, nsp)) == oracle_relevant_peers(net, q, eps)
    assert list(relevant[::2]) == sorted(set(relevant[::2])) and all(relevant[1::2])


@given(nsp=st.integers(min_value=1, max_value=6),
       truth=st.frozensets(st.integers(min_value=0, max_value=80)), data=st.data())
def test_score_counts_bits_as_the_set_formula(nsp, truth, data):
    """Scoring answers that are entries of the oracle set, as a route's
    are, equals precision and recall over the decoded peer sets."""
    oracle = peer_set_of(truth, nsp)
    assert set(peers_of(oracle, nsp)) == truth
    kept = data.draw(st.lists(st.booleans(), min_size=len(oracle) // 2,
                              max_size=len(oracle) // 2))
    answers = tuple(entry for i, keep in enumerate(kept) if keep
                    for entry in oracle[2 * i:2 * i + 2])
    got = {pid for pid in truth if kept[oracle[::2].index(pid % nsp)]}
    result = RoutingResult(answers, frozenset(), frozenset({0}), 0.0, 0, 0, 0, nsp)
    hits = len(got & truth)
    assert result.answering_peers == got
    assert score(result, oracle) == (hits / len(got) if got else 1.0,
                                     hits / len(truth) if truth else 1.0)


def assert_answers_match_plain_scan(net, query, eps, result):
    """Per searched super-peer, the answering peers are exactly its members
    that is_relevant accepts, and it answers iff there is one."""
    relevant = {
        s: {p for p in net.super_peers[s].members
            if is_relevant(net.peers[p].expertise, query, eps)}
        for s in result.searched_sps
    }
    assert result.answering_peers == set().union(*relevant.values())
    assert result.answering_sps == {s for s, peers in relevant.items() if peers}


def forwarding_depths(net, query, sp, eps, max_hops):
    """Hops from `sp` of every super-peer the baseline searches: friend links
    lead into super-peers whose expertise qualifies, at most max_hops deep."""
    depths = {sp: 0}
    frontier, depth = {sp}, 0
    while frontier and (max_hops is None or depth < max_hops):
        depth += 1
        frontier = {f for s in frontier for f in net.super_peers[s].friends
                    if f not in depths and capacity(net.super_peers[f].expertise, query) >= eps}
        depths.update(dict.fromkeys(frontier, depth))
    return depths


def forwarding_parents(net, sp, depths):
    """The super-peer each searched one but the origin is forwarded from: of
    the super-peers one level up, the first in search order that has it as a
    friend. A level is searched in the order its parents were, each parent's
    friends in ascending id order."""
    parents, level = {}, [sp]
    while level:
        below = []
        for s in level:
            for f in sorted(net.super_peers[s].friends):
                if depths.get(f) == depths[s] + 1 and f not in parents:
                    parents[f] = s
                    below.append(f)
        level = below
    return parents


@given(key=net_keys, drawn=router_queries, eps=thresholds,
       max_hops=st.sampled_from([0, 1, 2, None]), costs=cost_weights)
@settings(deadline=None)
def test_baseline_counts_one_message_per_forward_and_one_mapping_per_probe(
        key, drawn, eps, max_hops, costs):
    """One message reaches each searched super-peer but the origin; each
    searched super-peer maps its members, and each one short of max_hops
    also maps its friends. Response time is the costliest path from the
    origin down the forwarding tree."""
    net = draw_net(key)
    q = router_query(net, drawn)
    sp = net.peers[q.origin_peer].super_peer
    result = route_baseline(net, q, sp, relevant_mask(net, q, eps), eps, costs, max_hops)
    depths = forwarding_depths(net, q, sp, eps, max_hops)
    assert result.searched_sps == set(depths)
    assert result.hops == len(result.searched_sps) - 1
    expanded = [s for s, d in depths.items() if max_hops is None or d < max_hops]
    assert result.mapping_ops == (sum(len(net.super_peers[s].members) for s in depths)
                                  + sum(len(net.super_peers[s].friends) for s in expanded))
    c_hop, c_map, _ = costs
    maps = {s: len(net.super_peers[s].members)
            + (len(net.super_peers[s].friends) if s in expanded else 0) for s in depths}
    parents = forwarding_parents(net, sp, depths)
    path = {sp: maps[sp] * c_map}
    for s in sorted(parents, key=depths.get):  # a parent's path is known before its children's
        path[s] = path[parents[s]] + c_hop + maps[s] * c_map
    assert result.response_time == pytest.approx(max(path.values()), rel=1e-9, abs=1e-12)


@lru_cache(maxsize=256)
def flooded_log(key, n_components, extra=0):
    """A baseline log routed with unbounded forwarding, so records name
    answering super-peers in foreign groups."""
    net = draw_net(key, extra)
    rng = substream(7, "train")
    workload = [q for pid in sorted(net.peers)
                for q in generate_queries(net.peers[pid], 2, n_components, rng, id_prefix="t")]
    relevant = [relevant_mask(net, q, 0.5) for q in workload]
    return run_baseline_epoch(net, workload, relevant, 0.5, COSTS, max_hops=None)[0]


@lru_cache(maxsize=256)
def cached_overlay(key, tau, n_components, extra=0):
    """Indices trained on a flooded baseline log, so trees name super-peers
    in foreign groups and routing exercises two-hop relays. A tree only
    classifies queries of the length it was trained on."""
    return train_indices(form_groups(draw_net(key, extra), tau),
                         flooded_log(key, n_components, extra))


@given(key=net_keys, extra=extra_peers, drawn=router_queries, eps=thresholds,
       max_hops=st.sampled_from([0, 1, None]))
@settings(deadline=None)
def test_baseline_answers_match_plain_scan(key, extra, drawn, eps, max_hops):
    net = draw_net(key, extra)
    q = router_query(net, drawn)
    sp = net.peers[q.origin_peer].super_peer
    result = route_baseline(net, q, sp, relevant=relevant_mask(net, q, eps),
                            eps_acc=eps, costs=COSTS, max_hops=max_hops)
    assert_answers_match_plain_scan(net, q, eps, result)


@given(key=net_keys, extra=extra_peers, drawn=router_queries, eps=thresholds,
       tau=st.sampled_from([3, 4]))
@settings(deadline=None)
def test_kb_answers_match_plain_scan(key, extra, drawn, eps, tau):
    net = draw_net(key, extra)
    q = router_query(net, drawn)
    overlay = cached_overlay(key, tau, len(q.components), extra)
    assume(len(overlay.groups) > 1)
    sp = net.peers[q.origin_peer].super_peer
    result = route_kb(net, overlay, q, sp, relevant=relevant_mask(net, q, eps), costs=COSTS)
    assert_answers_match_plain_scan(net, q, eps, result)


@given(key=net_keys, drawn=router_queries, tau=st.sampled_from([3, 4]), costs=cost_weights)
@settings(deadline=None)
def test_kb_counts_relays_and_tree_walk(key, drawn, tau, costs):
    """The origin and every super-peer the walk counts are searched;
    one message to the knowledge node, then one per same-group target and
    two per foreign target; the tree visits are those of the walk. Response
    time is the larger of the origin's local scan and the consult followed
    by the costliest arrival."""
    net = draw_net(key)
    q = router_query(net, drawn)
    overlay = cached_overlay(key, tau, len(q.components))
    assume(len(overlay.groups) > 1)
    sp = net.peers[q.origin_peer].super_peer
    result = route_kb(net, overlay, q, sp, relevant_mask(net, q, 0.5), costs)
    gid = overlay.sp_to_group[sp]
    walk = classify_traced(overlay.groups[gid].index, query_attributes(q.components))
    assert result.searched_sps == {sp} | set(walk[0])
    targets = result.searched_sps - {sp}
    relays = {t: 1 if overlay.sp_to_group[t] == gid else 2 for t in targets}
    assert result.hops == 1 + sum(relays.values())
    assert result.tree_visits == walk[1]
    c_hop, c_map, c_tree = costs
    local = len(net.super_peers[sp].members) * c_map
    arrival = max((relay * c_hop + len(net.super_peers[t].members) * c_map
                   for t, relay in relays.items()), default=0.0)
    consult = c_hop + walk[1] * c_tree + arrival
    assert result.response_time == pytest.approx(max(local, consult), rel=1e-9, abs=1e-12)


def epoch_workload(net, seed, n_routed):
    """`n_routed` three-component queries from random peers, with unique ids."""
    rng = substream(seed, "kb")
    pids = sorted(net.peers)
    return [generate_queries(net.peers[rng.choice(pids)], 1, 3, rng, id_prefix=f"e{i}-")[0]
            for i in range(n_routed)]


@given(key=net_keys, extra=st.integers(min_value=0, max_value=3), eps=thresholds,
       max_hops=st.sampled_from([0, 1, 2, None]), costs=cost_weights,
       n_routed=st.integers(min_value=1, max_value=40),
       seed=st.integers(min_value=0, max_value=1000))
@settings(deadline=None)
def test_baseline_epoch_results_equal_routes_without_a_memo(key, extra, eps, max_hops, costs,
                                                            n_routed, seed):
    """The epoch routes through one memo of plans; each of its results equals
    the one `route_baseline` gives for that query alone. `extra` peers make
    communities of unequal size, so routes from two origins that reach the
    same super-peers cost differently."""
    nsp, friends, dup, net_seed = key
    net = cached_net(nsp * 4 + extra, nsp, min(friends, nsp - 1), dup, net_seed)
    workload = epoch_workload(net, seed, n_routed)
    relevant = [relevant_mask(net, q, eps) for q in workload]
    _, results = run_baseline_epoch(net, workload, relevant, eps, costs, max_hops)
    for query, mask, result in zip(workload, relevant, results, strict=True):
        sp = net.peers[query.origin_peer].super_peer
        assert result == route_baseline(net, query, sp, mask, eps, costs, max_hops)


@given(key=net_keys, tau=st.sampled_from([3, 4]), costs=cost_weights,
       refresh_every=st.integers(min_value=0, max_value=7),
       n_routed=st.integers(min_value=1, max_value=40),
       seed=st.integers(min_value=0, max_value=1000))
@settings(deadline=None)
def test_kb_epoch_results_equal_routes_without_a_memo(key, tau, costs, refresh_every,
                                                      n_routed, seed):
    """The epoch routes through one memo of plans that outlives its
    refreshes; each of its results equals the one `route_kb` gives for that
    query alone over the overlay refreshed as far as the epoch had."""
    net = draw_net(key)
    overlay = cached_overlay(key, tau, 3)
    assume(len(overlay.groups) > 1)
    workload = epoch_workload(net, seed, n_routed)
    relevant = [relevant_mask(net, q, 0.5) for q in workload]
    _, results, _ = run_kb_epoch(net, overlay, workload, relevant, costs,
                                 refresh_every=refresh_every)
    batch = []
    for query, mask, result in zip(workload, relevant, results, strict=True):
        sp = net.peers[query.origin_peer].super_peer
        alone = route_kb(net, overlay, query, sp, mask, costs)
        assert result == alone
        batch.append(LogRecord.routed(query, sp, alone))
        if len(batch) == refresh_every:
            overlay = refresh_knowledge(overlay, batch)
            batch = []


@given(key=net_keys, tau=st.sampled_from([3, 4]),
       refresh_every=st.integers(min_value=1, max_value=7),
       n_routed=st.integers(min_value=1, max_value=20),
       seed=st.integers(min_value=0, max_value=1000))
@settings(deadline=None)
def test_refreshed_indices_equal_from_scratch_induction(key, tau, refresh_every, n_routed, seed):
    """After a knowledge epoch with refreshes, every group owns exactly the
    instances of its slice of the base log plus the records routed up to the
    last refresh, in log order, and its index is induced from them anew."""
    net = draw_net(key)
    log = flooded_log(key, 3)
    overlay = cached_overlay(key, tau, 3)
    assume(len(overlay.groups) > 1)
    workload = epoch_workload(net, seed, n_routed)
    relevant = [relevant_mask(net, q, 0.5) for q in workload]
    kb_log, _, after = run_kb_epoch(net, overlay, workload, relevant, COSTS,
                                    refresh_every=refresh_every)
    seen = [*log, *kb_log.records[:n_routed - n_routed % refresh_every]]
    for group in after.groups.values():
        own = tuple(instances_from_records(r for r in seen if r.origin_sp in group.members))
        assert group.instances == own
        if own:
            assert group.index == build_tree(own, min_leaf=2)
        else:
            assert group.index == Leaf(class_counts(instances_from_records(seen)))


@given(key=net_keys, tau=st.sampled_from([3, 4]), min_leaf=st.sampled_from([1, 2, 3]),
       refresh_every=st.integers(min_value=1, max_value=7),
       n_routed=st.integers(min_value=1, max_value=20),
       seed=st.integers(min_value=0, max_value=1000))
@settings(deadline=None)
def test_every_refresh_equals_from_scratch_induction(key, tau, min_leaf, refresh_every,
                                                     n_routed, seed):
    """Refreshing step by step, after each refresh every group owns the
    instances of every record seen so far and its index equals the one
    induced from them anew, though the refresh re-induced only the subtrees
    its new records reach."""
    net = draw_net(key)
    seen = list(flooded_log(key, 3))
    overlay = train_indices(form_groups(net, tau), seen, min_leaf)
    rng = substream(seed, "kb")
    pids = sorted(net.peers)
    batch = []
    for i in range(n_routed):
        query = generate_queries(net.peers[rng.choice(pids)], 1, 3, rng, id_prefix=f"e{i}-")[0]
        sp = net.peers[query.origin_peer].super_peer
        result = route_kb(net, overlay, query, sp, relevant_mask(net, query, 0.5), COSTS)
        batch.append(LogRecord.routed(query, sp, result))
        if len(batch) < refresh_every:
            continue
        overlay = refresh_knowledge(overlay, batch)
        seen += batch
        batch = []
        for group in overlay.groups.values():
            own = tuple(instances_from_records(r for r in seen if r.origin_sp in group.members))
            assert group.instances == own
            if own:
                assert group.index == build_tree(own, min_leaf=min_leaf)
            else:
                assert group.index == Leaf(class_counts(instances_from_records(seen)))


@given(key=net_keys, seed=st.integers(min_value=0, max_value=1000))
@settings(deadline=None)
def test_raising_threshold_never_grows_answers(key, seed):
    net = draw_net(key)
    q = peer_query(net, seed)
    sp = net.peers[q.origin_peer].super_peer
    previous = None
    for eps in (0.0, 0.25, 0.5, 0.75, 1.0):
        relevant = relevant_mask(net, q, eps)
        answers = route_baseline(net, q, sp, relevant, eps, COSTS, max_hops=1).answering_peers
        if previous is not None:
            assert answers <= previous
        previous = answers


@given(counts=st.dictionaries(st.integers(min_value=0, max_value=9),
                              st.integers(min_value=1, max_value=50),
                              min_size=1, max_size=8))
def test_entropy_bounds(counts):
    import math
    value = entropy(counts)
    assert 0.0 <= value <= math.log2(len(counts)) + 1e-12
    assert (value == 0.0) == (len(counts) == 1)


instance_sets = st.lists(
    st.tuples(st.tuples(*[st.sampled_from(TOKENS) for _ in range(3)]),
              st.integers(min_value=0, max_value=4)),
    min_size=1, max_size=30,
).map(lambda rows: [Instance(attributes=a, class_label=c) for a, c in rows])


@given(instances=instance_sets)
def test_classify_normalizes_with_support(instances):
    tree = build_tree(instances, min_leaf=1)
    for inst in instances:
        counts = classify_traced(tree, inst.attributes)[0]
        assert inst.class_label in counts
        assert all(count > 0 for count in counts.values())


@given(instances=instance_sets)
def test_relevant_sps_stay_inside_training_classes(instances):
    tree = build_tree(instances, min_leaf=1)
    trained = {inst.class_label for inst in instances}
    unseen = tuple(f"z.{i}" for i in range(3))
    assert set(classify_traced(tree, unseen)[0]) <= trained


@given(instances=instance_sets)
def test_conflict_free_training_is_memorized(instances):
    by_attrs = {}
    for inst in instances:
        by_attrs.setdefault(inst.attributes, set()).add(inst.class_label)
    assume(all(len(labels) == 1 for labels in by_attrs.values()))
    tree = build_tree(instances, min_leaf=1)
    assert training_accuracy(tree, instances) == 1.0


def assert_first_best_split(tree, instances, attrs, min_leaf):
    """Every node tests the lowest-index attribute of highest gain ratio over
    its own instances and the attributes left on its path; its branches
    partition those instances by that attribute's value."""
    assert tree.counts == class_counts(instances)
    if isinstance(tree, Leaf):
        assert len(tree.counts) == 1 or not attrs or len(instances) < min_leaf
        return
    parent_entropy = entropy(class_counts(instances))
    ratios = {a: _gain_ratio(_count(instances, a, {}), len(instances), parent_entropy)
              for a in attrs}
    best = max(ratios.values())
    assert tree.attr_index == min(a for a, r in ratios.items() if r == best)
    assert list(tree.branches) == sorted({i.attributes[tree.attr_index] for i in instances})
    remaining = [a for a in attrs if a != tree.attr_index]
    for value, child in tree.branches.items():
        part = [i for i in instances if i.attributes[tree.attr_index] == value]
        assert_first_best_split(child, part, remaining, min_leaf)


@given(instances=instance_sets, min_leaf=st.integers(min_value=1, max_value=3))
def test_every_node_splits_on_the_first_best_gain_ratio(instances, min_leaf):
    assert_first_best_split(build_tree(instances, min_leaf=min_leaf), instances,
                            [0, 1, 2], min_leaf)


@given(instances=instance_sets, min_leaf=st.sampled_from([1, 2, 3]),
       cuts=st.lists(st.integers(min_value=1, max_value=30), max_size=4))
def test_tree_grown_from_priors_equals_from_scratch(instances, min_leaf, cuts):
    """Growing a tree prefix by prefix, each from the previous one as its
    prior, gives the tree induced from that prefix anew, with every node's
    class counts in the same key order: `==` ignores dict order, but
    entropies are summed in it."""
    ends = sorted({min(cut, len(instances)) for cut in cuts} | {len(instances)})
    tree = build_tree(instances[:ends[0]], min_leaf=min_leaf)
    for end in ends[1:]:
        tree = build_tree(instances[:end], min_leaf=min_leaf, prior=tree)
        scratch = build_tree(instances[:end], min_leaf=min_leaf)
        assert tree == scratch
        assert counts_in_order(tree) == counts_in_order(scratch)


SWITCH_VALUES = [f"{a}.{b}" for a in "ab" for b in "ab"]

switch_values = st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=4,
                         unique=True)


def switching_stream(batches):
    """Instances in batches, each with the end of the prefix it closes.
    Batch `i` decides the class by attribute `i % 2`: every pair of a
    deciding value and an other value for the other attribute, the class
    being the deciding value's index, repeated until the batch outweighs
    all the instances before it four times over."""
    instances, ends = [], []
    for i, (deciding, other) in enumerate(batches):
        rows = []
        for v in deciding:
            for u in other:
                attributes = [SWITCH_VALUES[u], SWITCH_VALUES[u]]
                attributes[i % 2] = SWITCH_VALUES[v]
                rows.append(Instance(attributes=tuple(attributes), class_label=v))
        instances += rows * (1 + 4 * len(instances) // len(rows))
        ends.append(len(instances))
    return instances, ends


@given(batches=st.lists(st.tuples(switch_values, switch_values), min_size=3, max_size=4),
       min_leaf=st.sampled_from([1, 2, 3]))
@settings(deadline=None)
def test_root_switching_back_and_forth_equals_from_scratch_induction(batches, min_leaf):
    """A stream whose root split attribute alternates with every refresh,
    so the root keeps switching back to an attribute it split on before:
    after every build from the previous tree, the tree is the one induced
    anew, with every node's class counts in the same key order."""
    instances, ends = switching_stream(batches)
    tree, roots = None, []
    for end in ends:
        tree = build_tree(instances[:end], min_leaf=min_leaf, prior=tree)
        scratch = build_tree(instances[:end], min_leaf=min_leaf)
        assert tree == scratch
        assert counts_in_order(tree) == counts_in_order(scratch)
        roots.append(tree.attr_index if isinstance(tree, Node) else None)
    assume(roots == [i % 2 for i in range(len(ends))])


def counts_in_order(tree):
    """Every node's class counts as a list of pairs, nodes in walk order."""
    nodes, found = [tree], []
    while nodes:
        node = nodes.pop()
        found.append(list(node.counts.items()))
        if isinstance(node, Node):
            nodes.extend(node.branches.values())
    return found


def assert_rows_hold(tables, instances, attrs):
    """`tables` has a table for each attribute of `attrs`, whose rows hold,
    in order, that attribute's partition of `instances` and each part's
    class counts, values and classes in the order they first occur; every
    (size, entropy) a row caches for its present size is that of its
    counts."""
    partitions = {attr: {} for attr in attrs}
    for inst in instances:
        for attr, parts in partitions.items():
            parts.setdefault(inst.attributes[attr], []).append(inst)
    assert {attr: [(value, row.instances) for value, row in table.items()]
            for attr, table in tables.items()} == {
        attr: list(parts.items()) for attr, parts in partitions.items()}
    for table in tables.values():
        for row in table.values():
            assert list(row.counts.items()) == list(class_counts(row.instances).items())
            size, row_entropy = row.entropy
            if size == len(row.instances):
                assert row_entropy == entropy(row.counts)


def row_totals(tables):
    """The set of instance totals over the rows of each attribute's table."""
    return {sum(len(row.instances) for row in table.values()) for table in tables.values()}


GROWN_TOKENS = [f"{a}.{b}" for a in "ab" for b in "abcd"]

grown_rows = st.tuples(st.tuples(*[st.sampled_from(GROWN_TOKENS) for _ in range(4)]),
                       st.integers(min_value=0, max_value=5))
# The size is drawn first, so large sets are drawn as often as small ones.
grown_instance_sets = st.integers(min_value=1, max_value=200).flatmap(
    lambda n: st.lists(grown_rows, min_size=n, max_size=n)
).map(lambda rows: [Instance(attributes=a, class_label=c) for a, c in rows])


@given(instances=grown_instance_sets, min_leaf=st.sampled_from([1, 2, 3]),
       cuts=st.lists(st.integers(min_value=1, max_value=200), min_size=4, max_size=6))
@settings(deadline=None)
def test_root_tables_grown_from_priors_equal_counts_from_scratch(instances, min_leaf, cuts):
    """After every build from a prior, the root's rows hold every
    attribute's partition of all its instances with the class counts of
    each part, in order, and so do those of every child of the root that
    keeps tables over its own instances; every row entropy cached for the
    row's present size is that of its counts, no deeper node keeps tables,
    and the tree is the one induced anew."""
    ends = sorted({min(cut, len(instances)) for cut in cuts} | {len(instances)})
    tree = build_tree(instances[:ends[0]], min_leaf=min_leaf)
    for end in ends[1:]:
        grown = instances[:end]
        tree = build_tree(grown, min_leaf=min_leaf, prior=tree)
        assert tree == build_tree(grown, min_leaf=min_leaf)
        if isinstance(tree, Leaf):
            continue
        assert row_totals(tree.tables) == {end}
        attrs = range(len(grown[0].attributes))
        assert_rows_hold(tree.tables, grown, attrs)
        below = []
        for value, child in tree.branches.items():
            if not isinstance(child, Node):
                continue
            below.extend(grandchild for grandchild in child.branches.values()
                         if isinstance(grandchild, Node))
            if child.tables is None:
                continue
            own = [inst for inst in grown if inst.attributes[tree.attr_index] == value]
            assert row_totals(child.tables) == {len(own)}
            assert_rows_hold(child.tables, own, [a for a in attrs if a != tree.attr_index])
        while below:
            node = below.pop()
            assert node.tables is None
            below.extend(child for child in node.branches.values() if isinstance(child, Node))


RECORD_TOKENS = ["a.a", "a.b", "b.a", "b.b"]
UNSEEN = "z.z"

# Records over few values, so attribute tuples repeat across records, each
# record's instances sharing one tuple object as in the pipeline; a node of
# one tuple and several classes is built as its chain.
record_streams = st.lists(
    st.tuples(st.tuples(*[st.sampled_from(RECORD_TOKENS) for _ in range(4)]),
              st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3,
                       unique=True)),
    min_size=1, max_size=60,
).map(lambda records: [Instance(attributes=a, class_label=c)
                       for a, labels in records for c in labels])
# A walk set: "every" walks each instance's tuple; otherwise a few tuples,
# some with values never seen; an empty set reads no branch.
walk_sets = st.one_of(st.just("every"), st.lists(
    st.tuples(*[st.sampled_from([*RECORD_TOKENS, UNSEEN]) for _ in range(4)]), max_size=6))


def grown_with_walks(instances, min_leaf, cuts, walk_sets):
    """Each prefix the cuts close, with the partial tree built for it, with
    its walk set, from the previous prefix's partial tree, and that walk set."""
    ends = sorted({min(cut, len(instances)) for cut in cuts} | {len(instances)})
    tree = None
    for i, end in enumerate(ends):
        grown = instances[:end]
        walks = walk_sets[i % len(walk_sets)]
        if walks == "every":
            walks = [inst.attributes for inst in grown]
        tree = build_tree(grown, min_leaf=min_leaf, prior=tree, walks=walks)
        yield grown, tree, walks


@given(instances=record_streams, min_leaf=st.sampled_from([1, 2, 3]),
       cuts=st.lists(st.integers(min_value=1, max_value=180), max_size=5),
       walk_sets=st.lists(walk_sets, min_size=1, max_size=6))
@settings(deadline=None)
def test_tree_built_with_walks_classifies_them_as_from_scratch(instances, min_leaf, cuts,
                                                               walk_sets):
    """Growing a tree prefix by prefix, each build with a walk set and the
    previous partial tree as its prior, every walk of a build ends where it
    ends on the tree induced from that prefix anew, after as many visits."""
    for grown, tree, walks in grown_with_walks(instances, min_leaf, cuts, walk_sets):
        scratch = build_tree(grown, min_leaf=min_leaf)
        for walk in walks:
            assert classify_traced(tree, walk) == classify_traced(scratch, walk)


@given(instances=record_streams, min_leaf=st.sampled_from([1, 2, 3]),
       cuts=st.lists(st.integers(min_value=1, max_value=180), max_size=5),
       walk_sets=st.lists(walk_sets, min_size=1, max_size=6))
@settings(deadline=None)
def test_complete_build_from_partial_priors_equals_from_scratch(instances, min_leaf, cuts,
                                                                walk_sets):
    """A build without walks from any tree of a chain of builds with walks,
    and from it again after one more instance, is the tree induced anew,
    with every node's class counts in the same key order, and pends no
    value; the chain goes on from its own partial tree."""
    for grown, tree, _ in grown_with_walks(instances, min_leaf, cuts, walk_sets):
        for end in (len(grown), min(len(grown) + 1, len(instances))):
            complete = build_tree(instances[:end], min_leaf=min_leaf, prior=tree)
            scratch = build_tree(instances[:end], min_leaf=min_leaf)
            assert complete == scratch
            assert counts_in_order(complete) == counts_in_order(scratch)
            nodes = [complete]
            while nodes:
                node = nodes.pop()
                if isinstance(node, Node):
                    assert not node.pending
                    nodes.extend(node.branches.values())


@given(key=net_keys, tau=st.integers(min_value=1, max_value=4),
       shift=st.integers(min_value=1, max_value=7))
@settings(deadline=None)
def test_grouping_invariant_under_sp_relabeling(key, tau, shift):
    net = draw_net(key)
    nsp = len(net.super_peers)
    rename = {spid: (spid + shift) % nsp + 100 for spid in net.super_peers}

    sps = {
        rename[spid]: dataclasses.replace(
            sp, id=rename[spid],
            friends=tuple(sorted(rename[f] for f in sp.friends)),
        )
        for spid, sp in net.super_peers.items()
    }
    peers = {pid: dataclasses.replace(p, super_peer=rename[p.super_peer])
             for pid, p in net.peers.items()}
    relabeled = Network(peers=peers, super_peers=sps, config=net.config)

    original = {frozenset(g.members) for g in form_groups(net, tau).groups.values()}
    mapped = {frozenset(rename[m] for m in members) for members in original}
    assert {frozenset(g.members)
            for g in form_groups(relabeled, tau).groups.values()} == mapped
