"""One `sonsim run --strategy both` in a fresh process, measured and checked.

    python3 benchmark/worker.py JOB_JSON

`run.py` starts one worker per measured iteration, so every iteration pays
the same import and allocation costs and no state carries over. JOB_JSON
names the repository root, the CLI flags of the workload, a throwaway output
directory, the file to write the result to, and whether to trace. The worker
calls `sonsim.cli.main` in-process, hashes what it wrote, checks a sample of
queries against the plain exhaustive oracle, then repeats the set-up stages
to time them several times.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from probe import Probe

# Per-layer values that must repeat exactly between two runs of one seed.
DETERMINISTIC = (
    "model.capacity_calls", "model.mapping_ops", "model.capacity_per_mapping_op",
    "baseline.mapping_ops", "baseline.hops", "ksp.refreshes", "ksp.groups",
    "ksp.largest_group", "ksp.candidates_per_query", "ksp.two_hop_relays",
    "dtree.build_tree_calls", "dtree.instances_induced", "dtree.tree_nodes",
    "dtree.tree_depth_max", "dtree.classify_calls", "dtree.fallback_ratio",
    "dtree.tree_visits", "cli.bytes_written", "run.queries_attempted",
)

STRATEGIES = ("baseline", "ksp")


def _import_sonsim(root: Path) -> dict:
    src = root / "src"
    sys.path.insert(0, str(src))
    import sonsim
    from sonsim import baseline, cli, dtree, engine, ksp, model
    if Path(sonsim.__file__).resolve().parent != (src / "sonsim").resolve():
        raise RuntimeError(f"imported sonsim from {sonsim.__file__}, not from {src}")
    return {"baseline": baseline, "cli": cli, "dtree": dtree, "engine": engine,
            "ksp": ksp, "model": model}


def _digests(outdir: Path) -> dict[str, str]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(outdir.iterdir()) if f.is_file()}


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def check_outputs(modules: dict, artifacts, outdir: Path, sample: int,
                  seed: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one finished run.

    A query is attempted once per strategy. The summary must equal the means
    of the per-query rows; for a sample of queries the engine's oracle must
    equal the exhaustive `oracle_relevant_peers`, every answering peer must
    pass `is_relevant`, and the precision and recall recomputed here must
    equal the rows. A broken summary fails every query of the run.
    """
    model, engine = modules["model"], modules["engine"]
    rows = _read_csv(outdir / "metrics.csv")
    summary = {r["strategy"]: r for r in _read_csv(outdir / "summary.csv")}
    by_key = {(r["strategy"], r["query_id"]): r for r in rows}
    workload = artifacts.eval_workload
    eps = artifacts.config.eps_acc
    attempted = len(STRATEGIES) * len(workload)
    problems: list[str] = []

    for strategy in STRATEGIES:
        mine = [r for r in rows if r["strategy"] == strategy]
        s = summary.get(strategy)
        if s is None or len(mine) != len(workload) or int(s["n_queries"]) != len(mine):
            problems.append(f"{strategy}: {len(mine)} rows for {len(workload)} queries")
            continue
        for column in ("response_time", "precision", "recall", "sp_precision"):
            mean = sum(float(r[column]) for r in mine) / len(mine)
            if not _close(mean, float(s[f"mean_{column}"])):
                problems.append(f"{strategy}: summary mean_{column} {s[f'mean_{column}']} != {mean!r}")
        for column in ("mapping_ops", "hops", "tree_visits"):
            total = sum(int(r[column]) for r in mine)
            if total != int(s[f"total_{column}"]):
                problems.append(f"{strategy}: summary total_{column} != {total}")
    if problems:
        return attempted, attempted, problems

    results = {"baseline": artifacts.baseline_results, "ksp": artifacts.kb_results}
    failed = 0
    picks = random.Random(f"sonsim-bench-{seed}").sample(range(len(workload)),
                                                        min(sample, len(workload)))
    for i in sorted(picks):
        query = workload[i]
        truth = model.oracle_relevant_peers(artifacts.net, query, eps)
        indexed = engine.relevant_peers_indexed(artifacts.net, query, eps)
        for strategy in STRATEGIES:
            result = results[strategy][i]
            row = by_key.get((strategy, query.id))
            retrieved = result.answering_peers
            hits = len(retrieved & truth)
            precision = hits / len(retrieved) if retrieved else 1.0
            recall = hits / len(truth) if truth else 1.0
            bad = []
            if indexed != truth:
                bad.append("engine oracle differs from oracle_relevant_peers")
            if not all(model.is_relevant(artifacts.net.peers[p].expertise, query, eps)
                       for p in retrieved):
                bad.append("an answering peer is not relevant")
            if row is None or not (_close(precision, float(row["precision"]))
                                   and _close(recall, float(row["recall"]))):
                bad.append("precision/recall differ from metrics.csv")
            if bad:
                failed += 1
                problems.append(f"{strategy} {query.id}: {'; '.join(bad)}")
    return attempted, failed, problems


def _tree_shape(tree, node_type) -> tuple[int, int]:
    """(nodes, depth) of a tree; a lone leaf has depth 0."""
    if not isinstance(tree, node_type):
        return 1, 0
    nodes, depth = 1, 0
    for child in tree.branches.values():
        n, d = _tree_shape(child, node_type)
        nodes += n
        depth = max(depth, d + 1)
    return nodes, depth


def _percentile_us(seconds: list[float], q: int) -> float:
    if len(seconds) < 2:
        return seconds[0] * 1e6 if seconds else 0.0
    return statistics.quantiles(seconds, n=100, method="inclusive")[q - 1] * 1e6


def layer_metrics(probe: Probe, modules: dict, run_s: float, root: int) -> dict[str, float]:
    """Per-layer values of one traced run, named as in BENCHMARK.json."""
    c = probe.counts.get
    node_type = modules["dtree"].Node
    shapes = [_tree_shape(g.index, node_type)
              for o in probe.kept.get("final_overlay", []) for g in o.groups.values()]
    sizes = [n for sizes in probe.kept.get("groups", []) for n in sizes]
    epochs = probe.durations("engine.run_baseline_epoch")
    train_s = probe.total("engine.train_indices")
    refresh_s = probe.total("ksp.refresh_knowledge")
    writes = sorted({n for n in probe.names if n.startswith("cli.write_") or n == "cli._write"})
    formats = ("cli.serialize_network", "cli.instances_from_records",
               "cli.arff_export", "cli.render_tree")
    calls = probe.capacity_calls
    metered = c("baseline.mapping_ops", 0) + c("ksp.mapping_ops", 0)
    classified = c("dtree.classify_calls", 0)
    return {
        "model.capacity_calls": calls,
        "model.mapping_ops": metered,
        "model.capacity_per_mapping_op": calls / metered if metered else 0.0,
        "baseline.train_epoch_s": epochs[0] if epochs else 0.0,
        "baseline.eval_epoch_s": sum(epochs[1:]),
        "baseline.route_us_p50": _percentile_us(probe.durations("baseline.route_baseline"), 50),
        "baseline.route_us_p99": _percentile_us(probe.durations("baseline.route_baseline"), 99),
        "baseline.mapping_ops": c("baseline.mapping_ops", 0),
        "baseline.hops": c("baseline.hops", 0),
        "ksp.kb_epoch_s": probe.total("engine.run_kb_epoch"),
        "ksp.route_us_p50": _percentile_us(probe.durations("ksp.route_kb"), 50),
        "ksp.route_us_p99": _percentile_us(probe.durations("ksp.route_kb"), 99),
        "ksp.train_s": train_s + refresh_s,
        "ksp.refresh_share": refresh_s / (train_s + refresh_s) if train_s + refresh_s else 0.0,
        "ksp.refreshes": c("ksp.refreshes", 0),
        "ksp.groups": len(sizes),
        "ksp.largest_group": max(sizes, default=0),
        "ksp.candidates_per_query": c("ksp.candidates", 0) / c("ksp.queries", 1),
        "ksp.two_hop_relays": c("ksp.two_hop_relays", 0),
        "dtree.build_tree_calls": len(probe.durations("ksp.build_tree")),
        "dtree.build_tree_s": probe.total("ksp.build_tree"),
        "dtree.instances_induced": c("dtree.instances_induced", 0),
        "dtree.tree_nodes": sum(n for n, _ in shapes),
        "dtree.tree_depth_max": max((d for _, d in shapes), default=0),
        "dtree.classify_calls": classified,
        "dtree.fallback_ratio": c("dtree.fallbacks", 0) / classified if classified else 0.0,
        "dtree.tree_visits": c("dtree.tree_visits", 0),
        "engine.oracle_s": probe.total("engine.relevant_peers_indexed"),
        "engine.metrics_s": probe.total("engine.query_metrics"),
        "engine.make_workload_s": probe.total("engine.make_workload"),
        "netgen.build_s": probe.total("engine.build_son"),
        "cli.write_s": sum(probe.total(n) for n in writes),
        "cli.format_s": sum(probe.total(n) for n in formats),
        "run.unattributed_s": run_s - probe.staged_s(root),
    }


def run(job: dict) -> dict:
    modules = _import_sonsim(Path(job["root"]))
    outdir = Path(job["outdir"])
    probe = Probe(modules, full=job["traced"])
    probe.install()
    root = probe.open_root("cli.main")
    start = time.perf_counter()
    try:
        code = modules["cli"].main(job["args"] + ["--outdir", str(outdir)])
    finally:
        run_s = time.perf_counter() - start
        probe.close_root(root)
        probe.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {"exit_code": code, "run_s": run_s, "peak_rss_mb": peak_rss_mb,
           "attempted": job["expected_attempted"], "failed": job["expected_attempted"],
           "problems": [], "digests": {}}
    if code != 0:
        out["problems"].append(f"sonsim run exited with {code}")
        return out

    out["digests"] = _digests(outdir)
    out["bytes_written"] = sum((outdir / n).stat().st_size for n in out["digests"])
    summary = {r["strategy"]: r for r in _read_csv(outdir / "summary.csv")}
    out["sim_rt_ratio"] = (float(summary["ksp"]["mean_response_time"])
                           / float(summary["baseline"]["mean_response_time"]))
    out["sim_recall_ksp"] = float(summary["ksp"]["mean_recall"])
    out["sim_sp_precision_ksp"] = float(summary["ksp"]["mean_sp_precision"])

    artifacts = probe.kept["artifacts"][0]
    attempted, failed, problems = check_outputs(modules, artifacts, outdir,
                                                job["sample"], job["seed"])
    out.update(attempted=attempted, failed=failed, problems=problems)

    out["queries_routed"] = probe.counts["queries_routed"]
    out["route_s"] = (probe.total("engine.run_baseline_epoch")
                      + probe.total("engine.run_kb_epoch"))

    if job["traced"]:
        layers = layer_metrics(probe, modules, run_s, root)
        layers["cli.bytes_written"] = out["bytes_written"]
        layers["run.queries_attempted"] = attempted
        out["layers"] = layers
        out["self_s"] = probe.self_times()
        probe.write_spans(job["spans"])

    # Set-up again outside the run, replaying the same calls, so that
    # setup_s is a median and not one sample.
    samples = [probe.total("engine.build_son") + probe.total("engine.make_workload")]
    replay = [(getattr(modules["engine"], name.split(".")[1]), args, kwargs)
              for name, args, kwargs in probe.kept["setup"]]
    del artifacts, probe
    gc.collect()
    began = time.perf_counter()
    while (len(samples) <= job["setup_repeats"]
           or time.perf_counter() - began < job["setup_seconds"]):
        start = time.perf_counter()
        for fn, args, kwargs in replay:
            fn(*args, **kwargs)
        samples.append(time.perf_counter() - start)
    out["setup_samples"] = samples
    return out


def main() -> int:
    job = json.loads(sys.argv[1])
    outdir = Path(job["outdir"])
    try:
        result = run(job)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
