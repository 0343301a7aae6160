"""Command-line entry point.

Subcommands cover the pipeline stages: `generate` builds and dumps a network,
`run` executes the comparative experiment, `sweep` scales it over sizes,
`train-index` turns a saved query log into an ARFF dataset and a rendered
tree, and `render-tree` prints the tree induced from an ARFF file.

Configuration comes from an optional key-value file plus command-line
overrides (overrides win). The SONSIM_OUTDIR environment variable overrides
the output directory only.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from collections.abc import Iterable
from pathlib import Path

from .baseline import query_log_lines, read_query_log
from .config import FIELD_PARSERS, Config, ConfigError
from .dtree import (arff_export, arff_import, arff_lines, build_tree, render_tree,
                    training_accuracy, tree_lines)
from .engine import (
    BASELINE,
    KSP,
    metrics_csv_lines,
    run_pipeline,
    summary_csv_lines,
    sweep,
    sweep_csv_lines,
)
from .ksp import instances_from_records, record_accuracy
from .netgen import build_son, serialize_network

OUTDIR_ENV = "SONSIM_OUTDIR"


def _add_config_flags(parser: argparse.ArgumentParser, skip: tuple[str, ...] = ()) -> None:
    """`--config FILE` plus one override flag per `Config` field not in `skip`."""
    parser.add_argument("--config", metavar="FILE", help="key-value configuration file")
    for f in dataclasses.fields(Config):
        if f.name in skip:
            continue
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, type=FIELD_PARSERS[f.type][0], default=None, dest=f.name,
                            help=f"override {f.name} (default {f.default})")


def _build_config(args: argparse.Namespace) -> Config:
    """The config file's values (the defaults without one) with the flags'
    overrides. It is not validated here: `build_son` validates each config a
    network is built from, which for `sweep` is each point's, not this one."""
    text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
    config = Config.from_text(text)  # no file: the defaults
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(Config)
        if getattr(args, f.name, None) is not None
    }
    return config.replace(**overrides)


def _outdir(args: argparse.Namespace) -> Path:
    outdir = os.environ.get(OUTDIR_ENV) or args.outdir
    path = Path(outdir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(path: Path, parts: Iterable[str]) -> None:
    """Write `parts` to `path` one after another, so a generator's text is
    never held whole: the only code that writes an output file."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(parts)


def cmd_generate(args: argparse.Namespace) -> int:
    config = _build_config(args)
    net = build_son(config)
    outdir = _outdir(args)
    _write(outdir / "network.txt", [serialize_network(net)])
    print(f"network: {config.np} peers, {config.nsp} super-peers -> {outdir / 'network.txt'}")
    for spid in sorted(net.super_peers):
        sp = net.super_peers[spid]
        print(f"  sp {spid} domain={sp.domain} members={len(sp.members)} "
              f"friends={len(sp.friends)} expertise={len(sp.expertise)}")
    return 0


def _report_groups(overlay, config: Config) -> None:
    """Print the domain-group count and warn when grouping is degenerate:
    with every super-peer in one group no query is relayed across groups."""
    sizes = [len(g.members) for g in overlay.groups.values()]
    print(f"ksp groups: {len(sizes)}, largest {max(sizes)} super-peers")
    if config.nsp > 1 and len(sizes) == 1:
        print(f"sonsim: warning: all {config.nsp} super-peers form one group at "
              f"tau_trust={config.tau_trust}; no query is relayed to a foreign group",
              file=sys.stderr)


def cmd_run(args: argparse.Namespace) -> int:
    config = _build_config(args)
    include_kb = args.strategy in (KSP, "both")

    train_log = None
    if args.train_log:
        log_path = Path(args.train_log)
        if not log_path.exists():
            raise ValueError(f"train log not found: {log_path}")
        train_log = read_query_log(log_path)

    artifacts = run_pipeline(config, include_kb=include_kb, train_log=train_log)
    outdir = _outdir(args)

    _write(outdir / "config.txt", [config.to_text()])
    _write(outdir / "network.txt", [serialize_network(artifacts.net)])
    _write(outdir / "train_log.tsv", query_log_lines(artifacts.train_log))

    report = artifacts.report
    if args.strategy != "both":
        keep = args.strategy
        report = dataclasses.replace(
            report,
            per_query={keep: report.per_query[keep]},
            summaries={keep: report.summaries[keep]},
        )
    _write(outdir / "metrics.csv", metrics_csv_lines(report))
    _write(outdir / "summary.csv", summary_csv_lines(report))

    if include_kb:
        _write(outdir / "ksp_log.tsv", query_log_lines(artifacts.kb_log))
        for gid in sorted(artifacts.overlay.groups):
            group = artifacts.overlay.groups[gid]
            _write(outdir / f"group{gid}.arff",
                   arff_lines(group.instances, f"group{gid}", config.n_components))
            _write(outdir / f"group{gid}.tree.txt", tree_lines(group.index))

    for strategy in sorted(report.summaries):
        s = report.summaries[strategy]
        print(f"{strategy}: {s.n_queries} queries, mean response time "
              f"{s.mean_response_time:.3f}, precision {s.mean_precision:.4f}, "
              f"recall {s.mean_recall:.4f}, sp-precision {s.mean_sp_precision:.4f}")
    if include_kb:
        _report_groups(artifacts.overlay, config)
    print(f"artifacts in {outdir}")
    return 0


def _parse_sizes(text: str) -> list[tuple[int, int]]:
    sizes = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            n_peers, n_sps = chunk.split(":")
            sizes.append((int(n_peers), int(n_sps)))
        except ValueError:
            raise ValueError(f"size {chunk!r} is not of form NP:NSP") from None
    if not sizes:
        raise ValueError("no sizes given")
    if len(set(sizes)) != len(sizes):
        raise ValueError("duplicate sizes in sweep")
    return sizes


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _build_config(args)
    sizes = _parse_sizes(args.sizes)
    reports = sweep(config, sizes)
    outdir = _outdir(args)
    _write(outdir / "sweep_summary.csv", sweep_csv_lines(reports))
    print(f"{len(reports)} runs -> {outdir / 'sweep_summary.csv'}")
    return 0


def cmd_train_index(args: argparse.Namespace) -> int:
    if not 0.0 <= args.holdout < 1.0:
        raise ValueError(f"--holdout must lie in [0, 1), got {args.holdout}")
    if args.min_leaf < 1:
        raise ValueError(f"--min-leaf must be >= 1, got {args.min_leaf}")
    log_path = Path(args.log)
    if not log_path.exists():
        raise ValueError(f"log not found: {log_path}")
    log = read_query_log(log_path)
    instances = instances_from_records(log)
    if not instances:
        raise ValueError("log contains no answered queries to learn from")
    tree = build_tree(instances, min_leaf=args.min_leaf)
    outdir = _outdir(args)
    _write(outdir / "dataset.arff", [arff_export(instances, "querylog")])
    _write(outdir / "index.tree.txt", tree_lines(tree))
    print(f"{len(instances)} instances from {len(log)} records -> {outdir / 'dataset.arff'}")
    print(f"training accuracy (records): {record_accuracy(tree, log):.4f}")
    print(f"training accuracy (instances): {training_accuracy(tree, instances):.4f}")
    if args.holdout > 0.0:
        split = int(len(log) * (1.0 - args.holdout))
        if not 0 < split < len(log):
            print(f"held-out accuracy skipped: too few records ({len(log)}) "
                  f"for a {args.holdout:.0%} holdout")
        elif not (held := instances_from_records(log[:split])):
            print(f"held-out accuracy skipped: no answered query in the first {split} "
                  f"records to learn from")
        else:
            held_acc = record_accuracy(build_tree(held, min_leaf=args.min_leaf),
                                       log[split:])
            print(f"held-out accuracy ({args.holdout:.0%} tail, records): {held_acc:.4f}")
    return 0


def cmd_render_tree(args: argparse.Namespace) -> int:
    if args.min_leaf < 1:
        raise ValueError(f"--min-leaf must be >= 1, got {args.min_leaf}")
    arff_path = Path(args.arff)
    if not arff_path.exists():
        raise ValueError(f"ARFF file not found: {arff_path}")
    instances = arff_import(arff_path.read_text(encoding="utf-8"))
    if not instances:
        raise ValueError("ARFF file contains no data rows")
    tree = build_tree(instances, min_leaf=args.min_leaf)
    print(render_tree(tree))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sonsim",
        description="Super-peer semantic overlay network simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_generate = sub.add_parser("generate", help="build and serialize a network")
    _add_config_flags(p_generate)
    p_generate.add_argument("--outdir", default="out", help="output directory")
    p_generate.set_defaults(func=cmd_generate)

    p_run = sub.add_parser("run", help="run the comparative experiment")
    _add_config_flags(p_run)
    p_run.add_argument("--strategy", choices=(BASELINE, KSP, "both"), default="both")
    p_run.add_argument("--train-log", metavar="FILE",
                       help="reuse a previously written query log for training")
    p_run.add_argument("--outdir", default="out", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the experiment over several sizes")
    _add_config_flags(p_sweep, skip=("np", "nsp"))  # each size sets both
    p_sweep.add_argument("--sizes", required=True,
                         help="comma list of NP:NSP pairs, e.g. 300:10,600:12")
    p_sweep.add_argument("--outdir", default="out", help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)

    p_train = sub.add_parser("train-index", help="induce a tree from a query log")
    p_train.add_argument("--log", required=True, help="query log (TSV) to learn from")
    p_train.add_argument("--min-leaf", type=int, default=2)
    p_train.add_argument("--holdout", type=float, default=0.2,
                         help="fraction of trailing records held out for accuracy reporting")
    p_train.add_argument("--outdir", default="out", help="output directory")
    p_train.set_defaults(func=cmd_train_index)

    p_render = sub.add_parser("render-tree", help="print the tree induced from an ARFF file")
    p_render.add_argument("--arff", required=True)
    p_render.add_argument("--min-leaf", type=int, default=2)
    p_render.set_defaults(func=cmd_render_tree)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"sonsim: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"sonsim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
