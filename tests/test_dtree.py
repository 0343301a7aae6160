"""Tree induction, inference, rendering, and ARFF round-trips.

The gain fixtures are hand-computed on a fixed 14-row categorical table
(two classes, four attributes):
  entropy({9, 5}) = -(9/14)log2(9/14) - (5/14)log2(5/14) = 0.940286
  best attribute (index 0) gain = 0.940286 - (5/14)*0.970951*2 - (4/14)*0
                                = 0.246750
"""

import pytest

import sonsim.dtree
from sonsim.dtree import (
    Instance,
    Leaf,
    Node,
    _count,
    _gain_ratio,
    arff_export,
    arff_import,
    build_tree,
    class_counts,
    classify_traced,
    entropy,
    information_gain,
    predict,
    render_tree,
    training_accuracy,
)


# 14-row weather-style fixture; classes: 1 = positive, 0 = negative.
FIXTURE_ROWS = [
    (("sunny", "hot", "high", "weak"), 0),
    (("sunny", "hot", "high", "strong"), 0),
    (("overcast", "hot", "high", "weak"), 1),
    (("rain", "mild", "high", "weak"), 1),
    (("rain", "cool", "normal", "weak"), 1),
    (("rain", "cool", "normal", "strong"), 0),
    (("overcast", "cool", "normal", "strong"), 1),
    (("sunny", "mild", "high", "weak"), 0),
    (("sunny", "cool", "normal", "weak"), 1),
    (("rain", "mild", "normal", "weak"), 1),
    (("sunny", "mild", "normal", "strong"), 1),
    (("overcast", "mild", "high", "strong"), 1),
    (("overcast", "hot", "normal", "weak"), 1),
    (("rain", "mild", "high", "strong"), 0),
]
FIXTURE = [Instance(attributes=a, class_label=c) for a, c in FIXTURE_ROWS]


class TestEntropy:
    def test_uniform_binary_is_one_bit(self):
        assert entropy({"A": 3, "B": 3}) == 1.0

    def test_pure_is_zero(self):
        assert entropy({"A": 7}) == 0.0

    def test_nine_five_fixture(self):
        assert entropy({"A": 9, "B": 5}) == pytest.approx(0.9403, abs=1e-4)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            entropy({})

    def test_zero_counts_are_skipped(self):
        assert entropy({"A": 4, "B": 0}) == 0.0


class TestGain:
    def test_fixture_class_entropy(self):
        assert entropy(class_counts(FIXTURE)) == pytest.approx(0.9403, abs=1e-4)

    def test_best_attribute_gain_matches_hand_computation(self):
        gains = [information_gain(FIXTURE, i) for i in range(4)]
        assert max(gains) == gains[0]
        assert gains[0] == pytest.approx(0.247, abs=1e-3)

    def test_constant_attribute_has_zero_ratio(self):
        instances = [Instance(("same", "a"), 0), Instance(("same", "b"), 1)]
        table = _count(instances, 0, {})
        assert _gain_ratio(table, len(instances), entropy(class_counts(instances))) == 0.0

    def test_perfect_attribute_ratio(self):
        # Attribute identical to the class over k uniform classes:
        # gain equals class entropy, split information equals log2(k).
        import math
        k = 4
        instances = [Instance((f"v{c}", "x"), c) for c in range(k) for _ in range(3)]
        class_h = entropy(class_counts(instances))
        assert information_gain(instances, 0) == pytest.approx(class_h)
        table = _count(instances, 0, {})
        assert _gain_ratio(table, len(instances), class_h) == pytest.approx(
            class_h / math.log2(k))


class TestBuildTree:
    def test_pure_instances_give_single_leaf(self):
        instances = [Instance(("a", "b"), 0) for _ in range(5)]
        tree = build_tree(instances)
        assert tree == Leaf({0: 5})

    def test_perfect_attribute_gives_depth_one_tree(self):
        instances = [Instance((f"v{c}", "x"), c) for c in range(3) for _ in range(4)]
        tree = build_tree(instances)
        assert isinstance(tree, Node)
        assert tree.attr_index == 0
        assert all(isinstance(child, Leaf) for child in tree.branches.values())
        assert training_accuracy(tree, instances) == 1.0

    def test_training_accuracy_is_one_without_conflicts(self):
        tree = build_tree(FIXTURE, min_leaf=1)
        assert training_accuracy(tree, FIXTURE) == 1.0

    def test_fixture_root_splits_on_best_attribute(self):
        tree = build_tree(FIXTURE, min_leaf=1)
        assert isinstance(tree, Node)
        assert tree.attr_index == 0

    def test_never_reuses_attribute_on_a_path(self):
        tree = build_tree(FIXTURE, min_leaf=1)

        def check(node, used):
            if isinstance(node, Leaf):
                return
            assert node.attr_index not in used
            for child in node.branches.values():
                check(child, used | {node.attr_index})

        check(tree, set())

    def test_min_leaf_stops_splitting(self):
        tree = build_tree(FIXTURE, min_leaf=15)
        assert tree == Leaf({0: 5, 1: 9})

    def test_zero_instances_rejected(self):
        with pytest.raises(ValueError, match="zero instances"):
            build_tree([])

    def test_deterministic_rebuild(self):
        assert build_tree(FIXTURE) == build_tree(list(FIXTURE))


class TestPriorTree:
    """Induction given the tree of a prefix of the instances."""

    def test_root_attribute_change_equals_from_scratch(self):
        base = [Instance(("a", "x"), 0), Instance(("a", "y"), 0),
                Instance(("b", "x"), 1), Instance(("b", "y"), 1)]
        added = [Instance(("a", "x"), 1), Instance(("a", "x"), 1),
                 Instance(("b", "y"), 0), Instance(("b", "y"), 0)]
        prior = build_tree(base)
        tree = build_tree(base + added, prior=prior)
        assert prior.attr_index == 0 and tree.attr_index == 1
        assert tree == build_tree(base + added)

    def test_prior_branches_under_another_attribute_are_not_reused(self):
        # Both attributes take the values a and b, so the prior's branch "a"
        # (attribute 1) must not stand in for the new root's branch "a"
        # (attribute 0), though both were induced from one instance.
        base = [Instance(("b", "b"), 0), Instance(("b", "b"), 1), Instance(("b", "a"), 0)]
        added = [Instance(("a", "b"), 1)]
        prior = build_tree(base)
        tree = build_tree(base + added, prior=prior)
        assert prior.attr_index == 1 and tree.attr_index == 0
        assert tree == build_tree(base + added)

    def test_branches_no_new_instance_reaches_are_the_priors(self):
        prior = build_tree(FIXTURE, min_leaf=1)
        added = [Instance(("overcast", "mild", "high", "weak"), 1),
                 Instance(("overcast", "cool", "high", "strong"), 1)]
        tree = build_tree(FIXTURE + added, min_leaf=1, prior=prior)
        assert tree == build_tree(FIXTURE + added, min_leaf=1)
        assert tree.attr_index == prior.attr_index == 0
        assert tree.branches["rain"] is prior.branches["rain"]
        assert tree.branches["sunny"] is prior.branches["sunny"]
        assert tree.branches["overcast"] == Leaf({1: 6})

    def test_new_value_branch_is_induced(self):
        prior = build_tree(FIXTURE, min_leaf=1)
        added = [Instance(("hail", "cool", "high", "strong"), 0)]
        tree = build_tree(FIXTURE + added, min_leaf=1, prior=prior)
        assert tree == build_tree(FIXTURE + added, min_leaf=1)

    def test_no_new_instances_returns_the_prior(self):
        prior = build_tree(FIXTURE, min_leaf=1)
        assert build_tree(FIXTURE, min_leaf=1, prior=prior) is prior

    def test_prior_from_more_instances_rejected(self):
        with pytest.raises(ValueError, match="more than the 13 given"):
            build_tree(FIXTURE[:-1], prior=build_tree(FIXTURE))


class TestWalks:
    """Builds that re-induce only the branches the given walks enter."""

    ADDED = [Instance(("rain", "mild", "high", "weak"), 1),
             Instance(("sunny", "hot", "high", "strong"), 0)]
    WALKS = [("rain", "hot", "high", "weak"), ("hail", "hot", "high", "weak")]

    def test_branches_no_walk_enters_are_pending(self):
        prior = build_tree(FIXTURE, min_leaf=1)
        tree = build_tree(FIXTURE + self.ADDED, min_leaf=1, prior=prior, walks=self.WALKS)
        scratch = build_tree(FIXTURE + self.ADDED, min_leaf=1)
        assert tree.attr_index == scratch.attr_index == 0
        assert tree.counts == scratch.counts
        assert tree.pending == {"sunny"}
        assert tree.branches["sunny"] is prior.branches["sunny"] != scratch.branches["sunny"]
        assert tree.branches["overcast"] is prior.branches["overcast"]
        assert tree.branches["rain"] == scratch.branches["rain"]
        for walk in self.WALKS:
            assert classify_traced(tree, walk) == classify_traced(scratch, walk)

    def test_complete_build_re_induces_the_pending_branches(self):
        prior = build_tree(FIXTURE, min_leaf=1)
        partial = build_tree(FIXTURE + self.ADDED, min_leaf=1, prior=prior, walks=self.WALKS)
        tree = build_tree(FIXTURE + self.ADDED, min_leaf=1, prior=partial)
        assert tree == build_tree(FIXTURE + self.ADDED, min_leaf=1)
        assert not tree.pending
        assert tree.branches["rain"] is partial.branches["rain"]

    def test_walks_reading_no_pending_branch_return_the_partial_tree(self):
        prior = build_tree(FIXTURE, min_leaf=1)
        partial = build_tree(FIXTURE + self.ADDED, min_leaf=1, prior=prior, walks=self.WALKS)
        assert build_tree(FIXTURE + self.ADDED, min_leaf=1, prior=partial,
                          walks=[("overcast", "hot", "high", "weak")]) is partial
        grown = build_tree(FIXTURE + self.ADDED, min_leaf=1, prior=partial,
                           walks=[("sunny", "hot", "high", "weak")])
        assert grown.branches["sunny"] == build_tree(FIXTURE + self.ADDED,
                                                     min_leaf=1).branches["sunny"]
        assert not grown.pending

    def test_a_branch_with_pending_values_below_is_pending(self):
        """A walk that enters a branch but none of that branch's own
        branches leaves its value pending too, so a later walk past it
        re-induces it."""
        instances = [Instance(("b", "b", "b"), 0), Instance(("c", "b", "a"), 0),
                     Instance(("b", "a", "b"), 0), Instance(("c", "b", "b"), 1),
                     Instance(("a", "a", "b"), 1)]
        partial = build_tree(instances[:4], prior=build_tree(instances[:2]),
                             walks=[("c", "c", "c")])
        assert partial.branches["c"].pending == {"a", "b"}
        assert partial.pending == {"b", "c"}
        walk = ("c", "c", "b")
        tree = build_tree(instances, prior=partial, walks=[walk])
        assert classify_traced(tree, walk) == classify_traced(build_tree(instances), walk)

    def test_one_attribute_tuple_is_built_as_its_chain_without_counting(self, monkeypatch):
        def counting(instances, attr_index, table):
            raise AssertionError("counted")

        instances = [Instance(("a.a", "b.b", "c.c"), label) for label in (0, 1, 1)]
        monkeypatch.setattr(sonsim.dtree, "_count", counting)
        tree = build_tree(instances)
        leaf = Leaf({0: 1, 1: 2})
        assert tree == Node(0, {"a.a": Node(1, {"b.b": Node(2, {"c.c": leaf}, leaf.counts)},
                                            leaf.counts)}, leaf.counts)


def rows_in_order(tables):
    """Each attribute's rows as (value, class counts, instances) triples,
    values and classes in table order."""
    return {attr: [(value, list(row.counts.items()), row.instances)
                   for value, row in table.items()]
            for attr, table in tables.items()}


def row_totals(tables):
    """The set of instance totals over the rows of each attribute's table."""
    return {sum(len(row.instances) for row in table.values()) for table in tables.values()}


class TestRootTables:
    """The split count tables that the root of a tree induced from a prior
    and the root's children keep, and what a build from that tree reads."""

    def test_building_twice_from_one_stale_prior_equals_from_scratch(self):
        prior = build_tree(FIXTURE, min_leaf=1, prior=build_tree(FIXTURE[:10], min_leaf=1))
        assert prior.tables is not None
        for added in ([Instance(("overcast", "mild", "high", "weak"), 0)] * 3,
                      [Instance(("sunny", "hot", "normal", "weak"), 1)] * 3):
            tree = build_tree(FIXTURE + added, min_leaf=1, prior=prior)
            assert tree == build_tree(FIXTURE + added, min_leaf=1)
            counted = build_tree(FIXTURE + added, min_leaf=1, prior=build_tree(FIXTURE, min_leaf=1))
            assert rows_in_order(tree.tables) == rows_in_order(counted.tables)

    def test_tables_are_advanced_in_place(self):
        prior = build_tree(FIXTURE[:12], min_leaf=1, prior=build_tree(FIXTURE[:10], min_leaf=1))
        tree = build_tree(FIXTURE, min_leaf=1, prior=prior)
        assert tree.tables is prior.tables
        assert row_totals(tree.tables) == {len(FIXTURE)}

    def test_branches_no_new_instance_reaches_are_the_kept_ones(self):
        prior = build_tree(FIXTURE, min_leaf=1, prior=build_tree(FIXTURE[:10], min_leaf=1))
        added = [Instance(("overcast", "mild", "high", "weak"), 1)] * 2
        tree = build_tree(FIXTURE + added, min_leaf=1, prior=prior)
        assert tree.tables is prior.tables
        assert tree.attr_index == prior.attr_index == 0
        assert tree == build_tree(FIXTURE + added, min_leaf=1)
        assert tree.branches["overcast"] == Leaf({1: 6})
        assert tree.branches["rain"] is prior.branches["rain"]
        assert tree.branches["sunny"] is prior.branches["sunny"]

    def test_tables_one_level_down_are_advanced_in_place(self):
        prior = build_tree(FIXTURE, min_leaf=1, prior=build_tree(FIXTURE[:10], min_leaf=1))
        sunny = prior.branches["sunny"]
        assert sunny.tables is not None and row_totals(sunny.tables) == {5}
        added = [Instance(("sunny", "cool", "high", "strong"), 0),
                 Instance(("rain", "mild", "high", "weak"), 1)]
        tree = build_tree(FIXTURE + added, min_leaf=1, prior=prior)
        assert tree == build_tree(FIXTURE + added, min_leaf=1)
        assert tree.branches["sunny"].attr_index == sunny.attr_index
        assert tree.branches["sunny"].tables is sunny.tables
        assert row_totals(sunny.tables) == {6}

    def test_tables_carry_the_number_of_instances_they_hold(self):
        prior = build_tree(FIXTURE[:12], min_leaf=1, prior=build_tree(FIXTURE[:10], min_leaf=1))
        assert prior.tables.total == 12
        tree = build_tree(FIXTURE, min_leaf=1, prior=prior)
        assert tree.tables is prior.tables and tree.tables.total == len(FIXTURE)
        assert row_totals(tree.tables) == {len(FIXTURE)}

    def test_unchanged_splits_count_only_the_new_instances(self, monkeypatch):
        prior = build_tree(FIXTURE, min_leaf=1, prior=build_tree(FIXTURE[:10], min_leaf=1))
        added = [Instance(("sunny", "cool", "high", "strong"), 0),
                 Instance(("rain", "mild", "high", "weak"), 1)]
        counted: dict[int, list[Instance]] = {}
        original = sonsim.dtree._count

        def recording(instances, attr_index, table):
            instances = list(instances)
            counted.setdefault(id(table), []).extend(instances)
            return original(instances, attr_index, table)

        monkeypatch.setattr(sonsim.dtree, "_count", recording)
        tree = build_tree(FIXTURE + added, min_leaf=1, prior=prior)
        assert tree == build_tree(FIXTURE + added, min_leaf=1)
        assert tree.attr_index == prior.attr_index
        for table in tree.tables.values():
            assert counted[id(table)] == added
        children = [(value, child) for value, child in tree.branches.items()
                    if isinstance(child, Node)]
        assert [value for value, _ in children] == ["rain", "sunny"]
        for value, child in children:
            assert child.attr_index == prior.branches[value].attr_index
            assert child.tables is prior.branches[value].tables
            reaching = [inst for inst in added if inst.attributes[0] == value]
            for table in child.tables.values():
                assert counted[id(table)] == reaching

    def test_interrupted_build_leaves_its_prior_reusable(self, monkeypatch):
        # The class follows attribute 1, so the prior splits on it, and the
        # count is interrupted at attribute 0, which is counted first.
        data = [Instance((f"x{i % 3}", f"y{i % 2}"), i % 2) for i in range(12)]
        prior = build_tree(data[:9], prior=build_tree(data[:6]))
        assert prior.attr_index == 1 and prior.tables is not None
        original = sonsim.dtree._count

        def interrupted(instances, attr_index, table):
            original(list(instances)[:1], attr_index, table)
            raise RuntimeError("interrupted")

        with monkeypatch.context() as patch:
            patch.setattr(sonsim.dtree, "_count", interrupted)
            with pytest.raises(RuntimeError, match="interrupted"):
                build_tree(data, prior=prior)
        tree = build_tree(data, prior=prior)
        assert tree == build_tree(data)
        counted = build_tree(data, prior=build_tree(data[:9]))
        assert rows_in_order(tree.tables) == rows_in_order(counted.tables)

    def test_tree_built_without_prior_keeps_no_tables(self):
        nodes = [build_tree(FIXTURE, min_leaf=1)]
        while nodes:
            node = nodes.pop()
            assert node.tables is None
            nodes.extend(child for child in node.branches.values() if isinstance(child, Node))

    def test_root_switching_back_reuses_the_branches_it_induced_before(self):
        # Attribute 0 decides the class, then a larger batch where attribute
        # 1 does, then a larger one where attribute 0 does again; no new
        # instance has the value "c" at attribute 0.
        base = [Instance(("a", "x"), 0), Instance(("a", "y"), 0), Instance(("b", "x"), 1),
                Instance(("b", "y"), 1), Instance(("c", "x"), 2), Instance(("c", "y"), 3)]
        switched = base + [Instance(("a", "x"), 4), Instance(("b", "x"), 4),
                           Instance(("a", "y"), 5), Instance(("b", "y"), 5)] * 3
        back = switched + [Instance(("a", "x"), 0), Instance(("a", "y"), 0),
                           Instance(("b", "x"), 1), Instance(("b", "y"), 1)] * 4
        first = build_tree(base)
        middle = build_tree(switched, prior=first)
        tree = build_tree(back, prior=middle)
        assert [first.attr_index, middle.attr_index, tree.attr_index] == [0, 1, 0]
        assert tree == build_tree(back)
        assert isinstance(first.branches["c"], Node)
        assert tree.branches["c"] is first.branches["c"]

    def test_tables_change_neither_equality_nor_rendering(self):
        grown = build_tree(FIXTURE, min_leaf=1, prior=build_tree(FIXTURE[:10], min_leaf=1))
        scratch = build_tree(FIXTURE, min_leaf=1)
        assert grown.tables is not None and scratch.tables is None
        assert grown == scratch
        assert render_tree(grown) == render_tree(scratch)
        assert repr(grown) == repr(scratch)


class TestClassify:
    def test_leaf_tree_classifies_anything(self):
        tree = Leaf({0: 10})
        counts, _ = classify_traced(tree, ("whatever",))
        assert counts == {0: 10}

    def test_memorized_instances_get_probability_one(self):
        instances = [Instance((f"v{c}", "x"), c) for c in range(3) for _ in range(4)]
        tree = build_tree(instances)
        for inst in instances:
            assert classify_traced(tree, inst.attributes)[0] == {inst.class_label: 4}

    def test_unseen_value_falls_back_to_node_distribution(self):
        tree = build_tree(FIXTURE, min_leaf=1)
        counts, visits = classify_traced(tree, ("hail", "hot", "high", "weak"))
        assert counts == {0: 5, 1: 9}
        assert visits == 1

    def test_probabilities_always_sum_to_one(self):
        tree = build_tree(FIXTURE, min_leaf=1)
        for inst in FIXTURE:
            counts = classify_traced(tree, inst.attributes)[0]
            assert inst.class_label in counts
            assert all(count > 0 for count in counts.values())

    def test_too_few_attributes_rejected(self):
        tree = build_tree(FIXTURE, min_leaf=1)
        with pytest.raises(ValueError):
            classify_traced(tree, ())

    def test_trace_counts_nodes_visited(self):
        tree = Leaf({0: 1})
        assert classify_traced(tree, ())[1] == 1
        deep = build_tree(FIXTURE, min_leaf=1)
        _, visits = classify_traced(deep, FIXTURE[0].attributes)
        assert visits >= 2

    def test_predict_breaks_ties_to_lowest_label(self):
        assert predict(Leaf({3: 2, 1: 2}), ()) == 1


class TestRelevantSps:
    """The candidate super-peers a knowledge node names: the labels that
    the walk of classify_traced ends on with a count."""

    def test_leaf_support_only(self):
        assert set(classify_traced(Leaf({0: 5}), ("a.b",))[0]) == {0}

    def test_zero_counts_are_not_candidates(self):
        tree = build_tree(FIXTURE, min_leaf=1)
        walks = [inst.attributes for inst in FIXTURE] + [("n.0", "n.1", "n.2", "n.3")]
        for attributes in walks:
            assert 0 not in classify_traced(tree, attributes)[0].values()

    def test_fallback_distribution_support(self):
        tree = Node(0, {"seen": Leaf({1: 2})}, {0: 3, 2: 1})
        assert set(classify_traced(tree, ("zz.zz",))[0]) == {0, 2}

    def test_never_empty(self):
        tree = build_tree(FIXTURE, min_leaf=1)
        unseen = tuple(f"n.{i}" for i in range(4))
        assert classify_traced(tree, unseen)[0]


class TestRenderTree:
    def test_pure_leaf_line(self):
        tree = Node(0, {"p.i": Leaf({0: 50})}, {0: 50})
        assert render_tree(tree) == "composanteW1 = p.i: SP0 (50.0)"

    def test_mixed_leaf_shows_incorrect_count(self):
        tree = Node(1, {"p.i": Leaf({0: 15, 3: 11})}, {0: 15, 3: 11})
        assert render_tree(tree) == "composanteW2 = p.i: SP0 (26.0/11.0)"

    def test_child_lines_get_bar_prefix(self):
        tree = Node(
            0,
            {
                "k.f": Node(1, {"p.i": Leaf({0: 26, 3: 11})}, {0: 26, 3: 11}),
                "p.i": Leaf({0: 50}),
            },
            {0: 76, 3: 11},
        )
        assert render_tree(tree) == (
            "composanteW1 = k.f\n"
            "| composanteW2 = p.i: SP0 (37.0/11.0)\n"
            "composanteW1 = p.i: SP0 (50.0)"
        )

    def test_bare_leaf_renders_class_only(self):
        assert render_tree(Leaf({2: 4})) == ": SP2 (4.0)"


class TestArff:
    def _instances(self):
        return [
            Instance(("k.f", "p.i", "a.b", "c.d"), 0),
            Instance(("k.f", "f.p", "a.b", "x.y"), 3),
            Instance(("p.i", "p.i", "a.b", "c.d"), 0),
        ]

    def test_single_instance_data_row(self):
        text = arff_export([Instance(("k.f", "p.i", "a.b", "c.d"), 0)], "rel")
        assert "k.f,p.i,a.b,c.d,SP0" in text.splitlines()

    def test_header_declares_nominal_sets(self):
        text = arff_export(self._instances(), "rel")
        lines = text.splitlines()
        assert lines[0] == "@relation rel"
        assert "@attribute composanteW1 {k.f,p.i}" in lines
        assert "@attribute class {SP0,SP3}" in lines

    def test_round_trip_identity(self):
        instances = self._instances()
        assert arff_import(arff_export(instances, "rel")) == instances

    def test_empty_dataset_round_trips(self):
        text = arff_export([], "rel")
        assert "@data" in text
        assert arff_import(text) == []

    def test_parse_error_carries_line_number(self):
        text = arff_export(self._instances(), "rel")
        broken = text.replace("k.f,p.i,a.b,c.d,SP0", "k.f,p.i,a.b")
        with pytest.raises(ValueError, match=r"line \d+"):
            arff_import(broken)

    @pytest.mark.parametrize("text, problem", [
        ("@attribute a1 {x}\n@attribute class {SP0}\n@data\nx,SP0\n@attribute a2 {y}\n",
         "line 5: @attribute after @data"),
        ("@relation rel\n@attribute a1 x\n", "line 2: expected '@attribute name {v1,...}'"),
        ("@relation rel\n\n@data\n", "line 3: @data before any @attribute"),
        ("@attribute a1 {x}\nx,SP0\n", "line 2: unexpected content outside @data: 'x,SP0'"),
        ("@attribute a1 {x}\n@attribute class {}\n@data\n% row\nx,peer0\n",
         "line 5: class label 'peer0' is not SP<n>"),
    ], ids=["attribute-after-data", "malformed-attribute", "data-before-attribute",
            "outside-data", "bad-class-label"])
    def test_malformed_input_names_its_line(self, text, problem):
        with pytest.raises(ValueError) as excinfo:
            arff_import(text)
        assert str(excinfo.value) == problem

    def test_inconsistent_attribute_count_rejected(self):
        instances = [*self._instances(), Instance(("k.f", "p.i"), 1)]
        with pytest.raises(ValueError, match="inconsistent attribute count: expected 4, got 2"):
            arff_export(instances, "rel")

    def test_undeclared_value_rejected(self):
        text = arff_export(self._instances(), "rel")
        broken = text.replace("k.f,p.i,a.b,c.d,SP0", "zz.zz,p.i,a.b,c.d,SP0")
        with pytest.raises(ValueError, match="not declared"):
            arff_import(broken)
