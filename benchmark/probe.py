"""Spans and counters recorded from outside the simulator.

A `Probe` swaps module-level names of the `sonsim` package for timing
wrappers, so nothing under `src/` changes. Every wrapped call becomes a span
(name, parent, query id, start, end); spans of one query share that query's
id. The light set of wrappers covers only the few coarse stage calls that the
end-to-end metrics need. The full set adds the per-query calls and counts
`capacity` evaluations without a span per call.

Spans live in flat arrays and the wrappers keep counts, not the objects they
see, so tracing adds no garbage-collected objects per call and keeps alive
nothing the simulator would have freed.
"""

from __future__ import annotations

import itertools
import json
import time
from array import array

# Coarse stages the end-to-end metrics read: a handful of calls per run.
LIGHT = (
    ("cli", "run_pipeline"),
    ("engine", "build_son"),
    ("engine", "make_workload"),
    ("engine", "run_baseline_epoch"),
    ("engine", "run_kb_epoch"),
)

FULL = LIGHT + (
    ("engine", "form_groups"),
    ("engine", "train_indices"),
    ("engine", "relevant_peers_indexed"),
    ("engine", "query_metrics"),
    ("baseline", "route_baseline"),
    ("ksp", "route_kb"),
    ("ksp", "refresh_knowledge"),
    ("ksp", "train_indices"),
    ("ksp", "build_tree"),
    ("ksp", "classify_traced"),
    ("cli", "serialize_network"),
    ("cli", "instances_from_records"),
    ("cli", "arff_export"),
    ("cli", "render_tree"),
)

# Modules whose `capacity` is the relevance test the routers call.
CAPACITY_USERS = ("baseline", "ksp")


class Probe:
    """Installs wrappers on the `sonsim` modules and collects what they see.

    `counts` accumulates per-call observations (mapping operations, hops,
    tree walks, ...). `kept` holds a few objects the pipeline keeps alive
    anyway: the artifacts of the run, the network and workloads handed to
    set-up, the groups formed and the final overlay.
    """

    def __init__(self, sonsim_modules: dict, full: bool):
        self.modules = sonsim_modules
        self.full = full
        self.names: list[str] = []
        self.queries: list = []
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.counts: dict[str, float] = {}
        self.kept: dict[str, list] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._capacity_counter = itertools.count()
        self.capacity_calls = 0

    # -- installation --------------------------------------------------

    def install(self) -> None:
        names = list(FULL if self.full else LIGHT)
        if self.full:
            cli = self.modules["cli"]
            names += [("cli", n) for n in sorted(vars(cli))
                      if n.startswith("write_") or n == "_write"]
            for mod in CAPACITY_USERS:
                self._patch(mod, "capacity", self._counted(getattr(self.modules[mod], "capacity")))
        for mod, attr in names:
            name = f"{mod}.{attr}"
            original = getattr(self.modules[mod], attr)
            self._patch(mod, attr, self._wrapped(name, original, self._observer(name)))

    def uninstall(self) -> None:
        """Restore the original names; `capacity_calls` is final from here."""
        self.capacity_calls = next(self._capacity_counter)
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _patch(self, mod: str, attr: str, replacement) -> None:
        module = self.modules[mod]
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _counted(self, original):
        tick = self._capacity_counter.__next__

        def capacity(expertise, query):
            tick()
            return original(expertise, query)
        return capacity

    def _add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _keep(self, key: str, value) -> None:
        self.kept.setdefault(key, []).append(value)

    def _observer(self, name: str):
        """What to record from a call's arguments and result, if anything."""
        add, keep = self._add, self._keep
        node_type = self.modules["dtree"].Node

        def pipeline(args, kwargs, result):
            keep("artifacts", result)

        def setup(args, kwargs, result):
            keep("setup", (name, args, kwargs))

        def epoch(args, kwargs, result):
            add("queries_routed", len(result[1]))
            if name == "engine.run_kb_epoch":
                keep("final_overlay", result[2])

        def groups(args, kwargs, result):
            keep("groups", [len(g.members) for g in result.groups.values()])

        def baseline(args, kwargs, result):
            add("baseline.mapping_ops", result.mapping_ops)
            add("baseline.hops", result.hops)

        def kb(args, kwargs, result):
            add("ksp.mapping_ops", result.mapping_ops)
            add("ksp.queries", 1)
            # Targets the tree names besides the origin super-peer; a target
            # in a foreign group costs one extra hop via its knowledge node.
            add("ksp.candidates", len(result.searched_sps) - 1)
            add("ksp.two_hop_relays", result.hops - len(result.searched_sps))

        def refresh(args, kwargs, result):
            add("ksp.refreshes", result is not args[0])

        def induce(args, kwargs, result):
            add("dtree.instances_induced", len(args[0]))

        def classify(args, kwargs, result):
            tree, attributes = args[0], args[1]
            visits = result[1]
            node = tree
            for _ in range(visits - 1):
                node = node.branches[attributes[node.attr_index]]
            add("dtree.classify_calls", 1)
            add("dtree.tree_visits", visits)
            add("dtree.fallbacks", isinstance(node, node_type))

        return {
            "cli.run_pipeline": pipeline,
            "engine.build_son": setup,
            "engine.make_workload": setup,
            "engine.run_baseline_epoch": epoch,
            "engine.run_kb_epoch": epoch,
            "engine.form_groups": groups,
            "baseline.route_baseline": baseline,
            "ksp.route_kb": kb,
            "ksp.refresh_knowledge": refresh,
            "ksp.build_tree": induce,
            "ksp.classify_traced": classify,
        }.get(name)

    def _wrapped(self, name: str, original, observe):
        names, queries, parents = self.names, self.queries, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter_ns
        query_type = self.modules["model"].Query

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            qid = None
            for value in args:
                if type(value) is query_type:
                    qid = value.id
                    break
            if qid is None and parent >= 0:
                qid = queries[parent]
            index = len(names)
            names.append(name)
            queries.append(qid)
            parents.append(parent)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return wrapper

    # -- readout -------------------------------------------------------

    def open_root(self, name: str) -> int:
        """Start a span that the wrapped calls nest under."""
        index = len(self.names)
        self.names.append(name)
        self.queries.append(None)
        self.parents.append(-1)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def close_root(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.remove(index)

    def durations(self, name: str) -> list[float]:
        """Seconds of every span with this name, in call order."""
        return [(e - s) / 1e9 for n, s, e in zip(self.names, self.starts, self.ends)
                if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def staged_s(self, root: int) -> float:
        """Seconds covered by the top-level stages: the calls made directly
        by the root span, with `run_pipeline` replaced by its own stages."""
        pipeline = {i for i, n in enumerate(self.names) if n == "cli.run_pipeline"}
        covered = 0
        for n, p, s, e in zip(self.names, self.parents, self.starts, self.ends):
            if p in pipeline or (p == root and n != "cli.run_pipeline"):
                covered += e - s
        return covered / 1e9

    def self_times(self) -> dict[str, float]:
        """Seconds per span name minus the time its child spans cover."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for p, s, e in zip(self.parents, self.starts, self.ends):
            if p >= 0:
                own[p] -= e - s
        totals: dict[str, float] = {}
        for n, ns in zip(self.names, own):
            totals[n] = totals.get(n, 0.0) + ns / 1e9
        return totals

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "name", "query", "start_ns", "end_ns"]) + "\n")
            rows = zip(self.names, self.parents, self.queries, self.starts, self.ends)
            for index, (name, parent, qid, start, end) in enumerate(rows):
                fh.write(json.dumps([index, parent, name, qid, start, end]) + "\n")
