"""Each report formatter equals the plain rule for its file.

`metrics_csv_lines`, `query_log_lines` and `tree_lines` format each
repeated value once per file. The plain renderers here format every line
from scratch: a comma join of `str` of each field, a tab join with "-" for
no answering super-peer, and a recursive tree renderer. Small runs in
replay and fresh mode, with several domain groups (tau_trust 2-4, so trees
of different groups and leaves shared within one) and index refreshes
(refresh_every 0-7), must give the same text, also for log records that
no super-peer answered.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from sonsim.baseline import QueryLog, query_log_lines
from sonsim.config import Config
from sonsim.dtree import Leaf, build_tree, tree_lines
from sonsim.engine import METRICS_COLUMNS, metrics_csv_lines, run_pipeline


def plain_metrics_lines(report):
    yield ",".join(METRICS_COLUMNS) + "\n"
    for strategy in sorted(report.per_query):
        for row in report.per_query[strategy]:
            yield ",".join(map(str, (strategy, *row))) + "\n"


def plain_log_lines(log):
    for record in log:
        answering = ",".join(str(s) for s in sorted(record.answering_sps)) or "-"
        fields = [record.query_id, str(record.origin_peer), str(record.origin_sp),
                  *record.components, answering]
        yield "\t".join(fields) + "\n"


def plain_leaf_text(counts):
    total = sum(counts.values())
    best = max(counts.values())
    majority = min(label for label, count in counts.items() if count == best)
    wrong = total - counts[majority]
    return f"SP{majority} ({total}.0/{wrong}.0)" if wrong else f"SP{majority} ({total}.0)"


def plain_tree_lines(tree, depth=0):
    if isinstance(tree, Leaf):
        return [f": {plain_leaf_text(tree.counts)}\n"]
    lines = []
    for value in sorted(tree.branches):
        child = tree.branches[value]
        line = "| " * depth + f"composanteW{tree.attr_index + 1} = {value}"
        if isinstance(child, Leaf):
            lines.append(f"{line}: {plain_leaf_text(child.counts)}\n")
        else:
            lines.append(line + "\n")
            lines.extend(plain_tree_lines(child, depth + 1))
    return lines


runs = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=10_000),
    "nsp": st.integers(min_value=3, max_value=7),
    "peers_per_sp": st.integers(min_value=2, max_value=6),
    "queries_per_peer": st.integers(min_value=1, max_value=3),
    "tau_trust": st.integers(min_value=2, max_value=4),
    "refresh_every": st.integers(min_value=0, max_value=7),
    "workload_mode": st.sampled_from(["replay", "fresh"]),
})


def _run(params):
    params = dict(params)
    nsp = params["nsp"]
    return run_pipeline(Config(np=nsp * params.pop("peers_per_sp"), friends_per_sp=2,
                               n_components=3, **params))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(params=runs, data=st.data())
def test_each_report_formatter_equals_the_plain_rule(params, data):
    artifacts = _run(params)
    report = artifacts.report
    assert list(metrics_csv_lines(report)) == list(plain_metrics_lines(report))

    for log in (artifacts.train_log, artifacts.kb_log):
        records = list(log)
        # Unanswered records, and answering sets equal to a shared one but
        # distinct objects, beside the run's own.
        for i in data.draw(st.sets(st.integers(0, len(records) - 1), max_size=4)):
            records[i] = dataclasses.replace(records[i], answering_sps=frozenset())
        for i in data.draw(st.sets(st.integers(0, len(records) - 1), max_size=4)):
            records[i] = dataclasses.replace(
                records[i], answering_sps=frozenset(sorted(records[i].answering_sps)))
        log = QueryLog(records)
        assert list(query_log_lines(log)) == list(plain_log_lines(log))

    for group in artifacts.overlay.groups.values():
        assert list(tree_lines(group.index)) == plain_tree_lines(group.index)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(params=runs, min_leaf=st.integers(min_value=1, max_value=4))
def test_a_tree_built_from_a_run_log_renders_as_the_plain_rule(params, min_leaf):
    """Trees from a whole training log at several leaf sizes, a lone leaf
    among them, where equal leaves of the build are one object."""
    artifacts = _run(params)
    instances = [inst for group in artifacts.overlay.groups.values()
                 for inst in group.instances]
    for tree in (build_tree(instances, min_leaf), build_tree(instances, len(instances) + 1)):
        assert list(tree_lines(tree)) == plain_tree_lines(tree)
