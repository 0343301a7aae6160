"""Categorical decision-tree induction over query components.

Splits maximize gain ratio (information gain over split information), one
branch per observed attribute value, no pruning, no numeric attributes.
Every node keeps its class-count distribution so inference can fall back on
it when classification meets an attribute value never seen at that node.
One routine induces every node, the root included: it counts one value ->
row table per attribute (`_count`, the only code that counts a split
table), a row holding the class counts and the instances of one value,
splits on the best gain ratio over those tables, and induces each branch
from the winning attribute's row for its value, which holds the branch's
instances and class counts. Given the tree induced before some instances
were appended, induction reuses what the new instances leave unchanged and
returns the tree induced from scratch; `build_tree` states the reuse rule.
Given the attribute tuples the tree will next be walked with, induction
re-induces only the branches they enter and leaves the rest pending, so a
subtree is revised when it is next used (Utgoff, Berkman & Clouse,
"Decision tree induction based on efficient tree restructuring", Machine
Learning 29, 1997). Trees render in the same textual grammar the index
dumps use, each shared leaf's text once per tree, and datasets round-trip
through ARFF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Iterator, Mapping, Sequence, Union

from .model import SuperPeerId

ATTRIBUTE_PREFIX = "composanteW"
CLASS_ATTRIBUTE = "class"
CLASS_PREFIX = "SP"

# The pending values of every node that has none (see `Node.pending`).
_SETTLED: frozenset[str] = frozenset()


@dataclass(slots=True)
class Instance:
    """One training row: the query components (expertise element texts) plus
    the answering super-peer. Like every tree type here, it is never
    assigned after construction and is not frozen: a frozen dataclass sets
    each field through `object.__setattr__`, paid once per row or node."""

    attributes: tuple[str, ...]
    class_label: SuperPeerId


@dataclass(slots=True)
class Leaf:
    """A terminal node: the class counts of the instances that reached it,
    never assigned after construction."""

    counts: dict[SuperPeerId, int]


@dataclass(slots=True)
class Node:
    """An inner node splitting on attribute `attr_index`, one branch per
    observed value, never assigned after construction."""

    attr_index: int
    branches: dict[str, "DecisionTree"]
    counts: dict[SuperPeerId, int]  # fallback distribution for unseen values
    # Split tables of a node at depth 0 or 1 induced from a prior (see
    # build_tree); they are no part of the tree's value.
    tables: _Tables | None = field(default=None, compare=False, repr=False)
    # The values whose branch lags its row after a build with walks (see
    # build_tree), one shared empty set when none; no part of the tree's value.
    pending: AbstractSet[str] = field(default=_SETTLED, compare=False, repr=False)


DecisionTree = Union[Leaf, Node]


def entropy(class_counts: Mapping[object, int]) -> float:
    """Shannon entropy in bits of a count distribution, with 0*log(0) = 0."""
    total = sum(class_counts.values())
    if total < 1:
        raise ValueError("entropy needs at least one counted instance")
    return _entropy(class_counts.values(), total)


def _entropy(counts: Iterable[int], total: int) -> float:
    result = 0.0
    for count in counts:
        if count:
            p = count / total
            result -= p * math.log2(p)
    return result


def class_counts(instances: Iterable[Instance]) -> dict[SuperPeerId, int]:
    return _add_classes({}, instances)


def _add_classes(counts: dict[SuperPeerId, int],
                 instances: Iterable[Instance]) -> dict[SuperPeerId, int]:
    """Count the class labels of `instances` into `counts`, in place."""
    for inst in instances:
        counts[inst.class_label] = counts.get(inst.class_label, 0) + 1
    return counts


def _count(instances: Iterable[Instance], attr_index: int,
           table: dict[str, _Row]) -> dict[str, _Row]:
    """Append `instances` to `table`, attribute `attr_index`'s value -> row
    table, in place: the one place a split table is counted. Each instance
    joins its value's row, class count and instance list together, so rows
    partition the instances. Values and classes enter in the order they
    first occur."""
    get = table.get
    for inst in instances:
        value = inst.attributes[attr_index]
        row = get(value)
        if row is None:
            row = table[value] = _Row()
        row.instances.append(inst)
        counts = row.counts
        label = inst.class_label
        counts[label] = counts.get(label, 0) + 1
    return table


def _gains(table: Mapping[str, _Row], total: int, parent_entropy: float) -> tuple[float, float]:
    """(information gain, split information) of the split whose value -> row
    table covers `total` instances. A row's entropy is computed only when
    its size has changed since it was last computed, and never for a row of
    one class, whose entropy is 0.0 and takes nothing from the gain."""
    gain = parent_entropy
    sizes = []
    for row in table.values():
        size = len(row.instances)
        sizes.append(size)
        if len(row.counts) == 1:
            continue
        if row.entropy[0] != size:
            row.entropy = size, _entropy(row.counts.values(), size)
        gain -= size / total * row.entropy[1]
    return gain, _entropy(sizes, total)


def _gain_ratio(table: Mapping[str, _Row], total: int, parent_entropy: float) -> float:
    """Information gain normalized by split information, the entropy of the
    attribute's own value distribution; 0 when the attribute takes a single
    value."""
    if len(table) == 1:
        return 0.0  # no split information to normalize by
    gain, split_info = _gains(table, total, parent_entropy)
    return gain / split_info


def information_gain(instances: Sequence[Instance], attr_index: int) -> float:
    """Parent entropy minus the size-weighted entropy of the value partitions."""
    return _gains(_count(instances, attr_index, {}), len(instances),
                  entropy(class_counts(instances)))[0]


class _Row:
    """One value of one attribute at a node: the class counts and the
    instances, in order, of the node's instances that take that value;
    `entropy`, the (size, entropy) last computed from the counts, which
    holds while the row's size is unchanged because instances are only
    appended; and `branch`, a subtree induced from a prefix of the row's
    instances, or None. Each build from a prior sets the branches of the
    rows under the prior's split attribute to the prior's, so when a build
    reads a row, its branch is the last one induced under that attribute
    and value."""

    __slots__ = ("counts", "instances", "entropy", "branch")

    def __init__(self) -> None:
        self.counts: dict[SuperPeerId, int] = {}
        self.instances: list[Instance] = []
        self.entropy: tuple[int, float] = (0, 0.0)
        self.branch: DecisionTree | None = None


class _Tables(dict):
    """A node's split tables, attribute -> value -> row, and `total`, the
    number of instances every table holds, None while a count is under
    way."""

    __slots__ = ("total",)


def build_tree(instances: Sequence[Instance], min_leaf: int = 1,
               prior: DecisionTree | None = None,
               walks: Sequence[Sequence[str]] | None = None) -> DecisionTree:
    """Induce a tree: leaf when pure, out of attributes, or below min_leaf;
    otherwise split on the gain-ratio-maximizing attribute (ties to the lowest
    index) with one branch per observed value, never reusing an attribute on
    a path. Every node, the root included, is induced by one routine: it
    counts a value -> row table per attribute, whose rows hold the class
    counts and the instances of each value, chooses the split from the
    tables, and induces each branch from a row of the winner, which gives
    the branch its instances and class counts. A node whose instances all
    share one attribute tuple, and that keeps no tables, is built as its
    chain without counting: every attribute left scores 0.0 there, so each
    level splits on the lowest one.

    `prior`, if given, is the tree this function returned for a prefix of
    `instances`, with the same `min_leaf`, with or without walks; a prior
    that counts more instances than are given raises ValueError. Only the
    root's prior needs that check: every deeper prior is a row's branch,
    induced from a prefix of the row's instances. The reuse rule: every node
    counts the instances it was induced from, so the rest are the new ones.
    A node none of whose instances are new, and none of whose pending
    branches (below) the build reads, is the prior's node itself. In a tree
    built from a prior, the root and its children keep their split tables
    (`Node.tables`, no part of the tree's value), each with the number of
    instances it holds; every deeper node drops them once its branches are
    built. If a prior node's tables hold exactly that node's instances, they
    belong to that node and its new instances alone advance them in place;
    otherwise (the node keeps no tables, or a later or interrupted build
    advanced them) every instance is counted into fresh tables. The rows
    under the prior's attribute hold the prior's branches, and each branch
    is induced with its row's branch as the prior: the one last induced
    under that attribute and value, from a prefix of the row's instances, so
    a branch no new instance reaches is that one itself; under the prior's
    attribute it is taken without an induction call.
    Instances are only appended, so counts and tables order classes and
    values as a scan from scratch does, and gain ratios are the same floats.
    A subtree depends only on its instances in order, its remaining
    attributes and `min_leaf`, and rows keep order, so without `walks` the
    result equals `build_tree(instances, min_leaf)`. Equal leaves of one
    build, with their class counts in the same order, are one object.

    `walks`, if given, are the attribute tuples the tree will be walked with
    before it is next built, and the result is partial: every node keeps its
    split and counts, but a node re-induces only the branches some walk
    enters. A branch that must be re-induced and that no walk enters keeps
    the prior's subtree for its value if the node splits as the prior did,
    and is absent otherwise, and its value is pending on its node
    (`Node.pending`); so is the value of a branch with pending values below
    it. A pending branch lags its row, so a prior may be such a partial
    tree: a build re-induces each pending branch it reads, every one without
    walks. Each walk passes only nodes that are complete along it, so
    `classify_traced` gives every walk what it gives on
    `build_tree(instances, min_leaf)`."""
    attrs = tuple(range(len(instances[0].attributes)))
    if prior is None:
        return _induce(instances, class_counts(instances), attrs, min_leaf, None, 0, {}, walks)
    induced = sum(prior.counts.values())
    if induced > len(instances):
        raise ValueError(f"prior induced from {induced} instances, "
                         f"more than the {len(instances)} given")
    counts = _add_classes(dict(prior.counts), instances[induced:])
    return _induce(instances, counts, attrs, min_leaf, prior, 2, {}, walks)


def _induce(instances: Sequence[Instance], counts: dict[SuperPeerId, int],
            attrs: tuple[int, ...], min_leaf: int, prior: DecisionTree | None,
            keep: int, leaves: dict[tuple, Leaf],
            walks: Sequence[Sequence[str]] | None) -> DecisionTree:
    """`build_tree` at one node, given `counts`, the class counts of
    `instances`, which the node holds, and `walks`, those of the build's
    walks that enter the node (None for a build without walks); `prior` may
    be a partial tree whose pending branches lag their rows. The node keeps
    its split tables if `keep`, the number of levels from this node down
    that keep them, is positive. `leaves` maps the ordered class counts of
    each leaf the build induced to that leaf. A kept row's counts advance in
    place in later builds, so a node that keeps its tables hands each child
    a copy of its row's counts; every other child holds its row's counts,
    and an only child its parent's."""
    induced = 0 if prior is None else sum(prior.counts.values())
    # No new instance: the prior is this node, unless the build reads one of
    # its pending branches.
    if induced == len(instances) and not (
            isinstance(prior, Node) and prior.pending and (
                walks is None or any(walk[prior.attr_index] in prior.pending for walk in walks))):
        return prior
    if len(counts) == 1 or not attrs or len(instances) < min_leaf:
        return _leaf(counts, leaves)
    first = instances[0].attributes
    # One attribute tuple: every attribute left scores 0.0, so each level
    # splits on the lowest one left.
    if keep <= 0 and all(inst.attributes == first for inst in instances):
        tree = _leaf(counts, leaves)
        for attr_index in reversed(attrs):
            tree = Node(attr_index, {first[attr_index]: tree}, counts)
        return tree

    tables = prior.tables if keep > 0 and isinstance(prior, Node) else None
    if tables is not None and tables.total == induced:
        new = instances[induced:]
    else:  # fresh tables, to which every instance is new
        tables, new = _Tables({attr_index: {} for attr_index in attrs}), instances
    tables.total = None  # until every table is counted
    for attr_index, table in tables.items():
        _count(new, attr_index, table)
    tables.total = len(instances)
    if isinstance(prior, Node):
        for value, branch in prior.branches.items():
            tables[prior.attr_index][value].branch = branch
    parent_entropy = _entropy(counts.values(), len(instances))
    best_attr = max(attrs, key=lambda attr_index: _gain_ratio(
        tables[attr_index], len(instances), parent_entropy))
    remaining = tuple(a for a in attrs if a != best_attr)
    rows = tables[best_attr]
    if isinstance(prior, Node) and prior.attr_index == best_attr:
        # A branch that no new instance reaches and that is not pending is
        # the prior's, which its `_induce` would return at once.
        branches = dict(prior.branches)
        values = {inst.attributes[best_attr] for inst in instances[induced:]}
        values.update(prior.pending)
    else:
        branches, values = {}, rows
    entering: dict[str, list[Sequence[str]]] | None = None if walks is None else {}
    for walk in walks or ():  # the walks that enter each branch
        entering.setdefault(walk[best_attr], []).append(walk)
    pending = set()
    known = len(branches)
    for value in sorted(values):
        if entering is not None and value not in entering:
            pending.add(value)
            continue
        row = rows[value]
        branch_counts = counts if len(rows) == 1 else dict(row.counts) if keep > 0 else row.counts
        branch = branches[value] = _induce(
            row.instances, branch_counts, remaining, min_leaf, row.branch, keep - 1, leaves,
            None if entering is None else entering[value])
        if isinstance(branch, Node) and branch.pending:
            pending.add(value)
    if known and len(branches) > known:  # the prior's branches gained a value
        branches = dict(sorted(branches.items()))
    return Node(best_attr, branches, counts, tables if keep > 0 else None, pending or _SETTLED)


def _leaf(counts: dict[SuperPeerId, int], leaves: dict[tuple, Leaf]) -> Leaf:
    """The leaf of `counts` in one build's `leaves`, made on first use."""
    key = tuple(counts.items())
    leaf = leaves.get(key)
    if leaf is None:
        leaf = leaves[key] = Leaf(counts)
    return leaf


def _majority(counts: Mapping[SuperPeerId, int]) -> SuperPeerId:
    best = max(counts.values())
    return min(label for label, count in counts.items() if count == best)


def classify_traced(tree: DecisionTree,
                    attributes: Sequence[str]) -> tuple[dict[SuperPeerId, int], int]:
    """Walk the tree: (class counts of the node the walk ends on, number of
    nodes visited). The walk ends at a leaf, or at an inner node whose tested
    value was never observed there in training; either way the node's counts
    are the answer. `route_kb` and `predict` both read this one walk."""
    node = tree
    visits = 1
    while isinstance(node, Node):
        child = node.branches.get(attributes[node.attr_index])
        if child is None:
            # Value never observed at this node during training.
            return node.counts, visits
        node = child
        visits += 1
    return node.counts, visits


def predict(tree: DecisionTree, attributes: Sequence[str]) -> SuperPeerId:
    """Single-label prediction: the majority class of `classify_traced`'s
    walk, ties to the lowest label."""
    return _majority(classify_traced(tree, attributes)[0])


def training_accuracy(tree: DecisionTree, instances: Sequence[Instance]) -> float:
    correct = sum(1 for inst in instances if predict(tree, inst.attributes) == inst.class_label)
    return correct / len(instances)


def _leaf_text(counts: Mapping[SuperPeerId, int]) -> str:
    total = sum(counts.values())
    majority = _majority(counts)
    wrong = total - counts[majority]
    if wrong:
        return f"{CLASS_PREFIX}{majority} ({total}.0/{wrong}.0)"
    return f"{CLASS_PREFIX}{majority} ({total}.0)"


def render_tree(tree: DecisionTree) -> str:
    """Plain-text rendering, one line per node: the lines of `tree_lines`
    joined, without the last one's newline.

    Child depth is marked by a leading "| " per level; a leaf line ends with
    ": CLASS (total.0)" or ": CLASS (total.0/incorrect.0)" where incorrect is
    the count of non-majority instances at the leaf.
    """
    return "".join(tree_lines(tree)).removesuffix("\n")


def tree_lines(tree: DecisionTree) -> Iterator[str]:
    """The lines of `render_tree`'s text, each ending in a newline, yielded
    one at a time so that a writer never holds the whole text. Equal leaves
    of one build are one object, so each leaf's text is rendered once per
    tree and each node's "composanteWk = " prefix once per node."""
    if isinstance(tree, Leaf):
        yield f": {_leaf_text(tree.counts)}\n"
    else:
        yield from _render(tree, "", {})


def _render(node: Node, indent: str, tails: dict[int, str]) -> Iterator[str]:
    """The lines of `node`'s branches, indented by `indent`; `tails` maps the
    id of each leaf already rendered, alive in the tree, to its text."""
    head = f"{indent}{ATTRIBUTE_PREFIX}{node.attr_index + 1} = "
    for value, child in sorted(node.branches.items()):
        if isinstance(child, Leaf):
            tail = tails.get(id(child))
            if tail is None:
                tail = tails[id(child)] = f": {_leaf_text(child.counts)}\n"
            yield head + value + tail
        else:
            yield head + value + "\n"
            yield from _render(child, indent + "| ", tails)


def arff_export(instances: Sequence[Instance], relation_name: str,
                n_attributes: int | None = None) -> str:
    """Standard nominal-attribute ARFF with one composanteW<i> attribute per
    query component and the answering super-peer as the class."""
    return "".join(arff_lines(instances, relation_name, n_attributes))


def arff_lines(instances: Sequence[Instance], relation_name: str,
               n_attributes: int | None = None) -> Iterator[str]:
    """The lines of `arff_export`'s text, each ending in a newline, yielded
    one at a time so that a writer never holds the whole text."""
    if n_attributes is None:
        n_attributes = len(instances[0].attributes) if instances else 0
    yield f"@relation {relation_name}\n"
    yield "\n"
    for i in range(n_attributes):
        values = sorted({inst.attributes[i] for inst in instances})
        yield f"@attribute {ATTRIBUTE_PREFIX}{i + 1} {{{','.join(values)}}}\n"
    labels = sorted({inst.class_label for inst in instances})
    class_values = ",".join(f"{CLASS_PREFIX}{label}" for label in labels)
    yield f"@attribute {CLASS_ATTRIBUTE} {{{class_values}}}\n"
    yield "\n"
    yield "@data\n"
    # The instances of one record are adjacent and share its attribute
    # tuple, so a row's attribute text is joined once per run of them.
    last = row = None
    for inst in instances:
        if inst.attributes is not last:
            last = inst.attributes
            row = ",".join(last) + ("," if last else "")
        yield f"{row}{CLASS_PREFIX}{inst.class_label}\n"


def arff_import(text: str) -> list[Instance]:
    """Parse ARFF produced by arff_export; raises ValueError with the line
    number on malformed input."""
    attribute_values: list[tuple[str, set[str]]] = []
    instances: list[Instance] = []
    in_data = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        lowered = line.lower()
        if lowered.startswith("@relation"):
            continue
        if lowered.startswith("@attribute"):
            if in_data:
                raise ValueError(f"line {lineno}: @attribute after @data")
            rest = line[len("@attribute"):].strip()
            name, _, domain = rest.partition(" ")
            domain = domain.strip()
            if not name or not (domain.startswith("{") and domain.endswith("}")):
                raise ValueError(f"line {lineno}: expected '@attribute name {{v1,...}}'")
            values = {v.strip() for v in domain[1:-1].split(",") if v.strip()}
            attribute_values.append((name, values))
            continue
        if lowered.startswith("@data"):
            if not attribute_values:
                raise ValueError(f"line {lineno}: @data before any @attribute")
            in_data = True
            continue
        if not in_data:
            raise ValueError(f"line {lineno}: unexpected content outside @data: {raw!r}")
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != len(attribute_values):
            raise ValueError(
                f"line {lineno}: expected {len(attribute_values)} fields, got {len(fields)}"
            )
        for value, (name, allowed) in zip(fields, attribute_values):
            if allowed and value not in allowed:
                raise ValueError(f"line {lineno}: value {value!r} not declared for {name}")
        label_text = fields[-1]
        if not label_text.startswith(CLASS_PREFIX) or not label_text[len(CLASS_PREFIX):].isdigit():
            raise ValueError(f"line {lineno}: class label {label_text!r} is not {CLASS_PREFIX}<n>")
        instances.append(Instance(
            attributes=tuple(fields[:-1]),
            class_label=int(label_text[len(CLASS_PREFIX):]),
        ))
    return instances
