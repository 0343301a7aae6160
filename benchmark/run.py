"""Benchmark of the full `sonsim run --strategy both` pipeline.

    python3 benchmark/run.py --workload replay-5000 --seed 9 --seconds 20 --trace 0

Run from the repository root. Each iteration is `sonsim.cli.main(["run", ...])`
called in a fresh single-threaded Python process (`worker.py`) with a
throwaway output directory under `benchmark/_work/`. Iterations repeat until
`--seconds` have passed; end-to-end metrics are medians over them.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json. `--trace 1`
runs the workload once untraced and twice traced: the traced runs wrap the
module-level names the pipeline calls through (`probe.py`), report the
per-layer metrics, and must agree exactly on every deterministic counter.
Spans are written to `benchmark/_work/spans-<workload>-<seed>.jsonl`.

Correctness: at the seeds pinned in `digests.json` every output file must
hash as pinned; at any seed, repeated runs must write identical files, and a
sample of queries is checked against the exhaustive oracle (see
`worker.check_outputs`). A failed check counts the affected queries as
failed and makes `correct` false. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import DETERMINISTIC

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

# Flags of `sonsim run` per workload; every workload also takes --seed.
WORKLOADS = {
    "replay-5000": ["--np", "5000", "--nsp", "54"],
    "fresh-groups-2000": ["--np", "2000", "--nsp", "24", "--tau-trust", "4",
                          "--workload-mode", "fresh"],
    "refresh-300": ["--np", "300", "--nsp", "10", "--refresh-every", "20"],
}
QUERIES_PER_PEER = 5  # the Config default the workloads keep

ORACLE_SAMPLE = 100   # queries per run checked against the exhaustive oracle
SETUP_REPEATS = 4     # at least this many extra set-ups per iteration ...
SETUP_SECONDS = 1.0   # ... and more until this long, for a median setup_s
DEADLINE_S = 165      # stop starting iterations that would end after this

# sim_* values are deterministic: every run of one seed must agree on them.
DETERMINISTIC_END_TO_END = ("sim_rt_ratio", "sim_recall_ksp", "sim_sp_precision_ksp")


class BenchError(Exception):
    """The benchmark could not run or a self-check failed."""


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics, in order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_worker(workload: str, seed: int, traced: bool, tag: str, deadline: float) -> dict:
    WORK.mkdir(exist_ok=True)
    stem = f"{workload}-{seed}-{os.getpid()}-{tag}"
    result_path = WORK / f"result-{stem}.json"
    flags = WORKLOADS[workload]
    peers = int(flags[flags.index("--np") + 1])
    job = {
        "root": str(ROOT),
        "args": ["run", "--strategy", "both", *flags, "--seed", str(seed)],
        "outdir": str(WORK / f"out-{stem}"),
        "result": str(result_path),
        "spans": str(WORK / f"spans-{workload}-{seed}.jsonl"),
        "traced": traced,
        "seed": seed,
        "sample": ORACLE_SAMPLE,
        "setup_repeats": SETUP_REPEATS,
        "setup_seconds": SETUP_SECONDS,
        "expected_attempted": 2 * peers * QUERIES_PER_PEER,
    }
    env = {k: v for k, v in os.environ.items() if k != "SONSIM_OUTDIR"}
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                              cwd=HERE, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with {proc.returncode}:\n{proc.stderr}")
    try:
        return json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        result_path.unlink(missing_ok=True)


def pinned_digests(workload: str, seed: int) -> dict[str, str] | None:
    pins = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    return pins.get(workload, {}).get(str(seed))


def gate(workload: str, seed: int, runs: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed queries over all runs, with the reasons.

    Each run's files must match the pinned digests, or, at a seed without
    pins, the first run's files. A mismatch fails every query of that run.
    """
    reference = pinned_digests(workload, seed) or runs[0]["digests"]
    attempted = failed = 0
    problems: list[str] = []
    for i, r in enumerate(runs):
        attempted += r["attempted"]
        problems += r["problems"]
        if r["exit_code"] == 0 and r["digests"] != reference:
            changed = sorted(n for n in set(reference) | set(r["digests"])
                             if reference.get(n) != r["digests"].get(n))
            problems.append(f"run {i}: output files differ from the reference: {changed}")
            failed += r["attempted"]
        else:
            failed += r["failed"]
    return attempted, failed, problems


def measure(workload: str, seed: int, seconds: int) -> tuple[dict, list[dict]]:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    runs: list[dict] = []
    slowest = 0.0
    while not runs or time.monotonic() - start < seconds:
        if runs and time.monotonic() + slowest > deadline:
            break
        began = time.monotonic()
        runs.append(run_worker(workload, seed, False, str(len(runs)), deadline))
        slowest = max(slowest, time.monotonic() - began)
    ok = [r for r in runs if r["exit_code"] == 0]
    if not ok:
        return {}, runs
    med = statistics.median
    metrics = {
        "run_s": med(r["run_s"] for r in ok),
        "setup_s": med(s for r in ok for s in r["setup_samples"]),
        "route_qps": med(r["queries_routed"] / r["route_s"] for r in ok),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in ok),
        "sim_rt_ratio": ok[0]["sim_rt_ratio"],
        "sim_recall_ksp": ok[0]["sim_recall_ksp"],
        "sim_sp_precision_ksp": ok[0]["sim_sp_precision_ksp"],
    }
    return metrics, runs


def trace(workload: str, seed: int) -> tuple[dict, list[dict], list[str]]:
    """One untraced and two traced runs; per-layer metrics and the problems
    found by the determinism self-check."""
    deadline = time.monotonic() + DEADLINE_S
    plain = run_worker(workload, seed, False, "plain", deadline)
    traced = [run_worker(workload, seed, True, f"traced{i}", deadline) for i in range(2)]
    runs = [plain] + traced
    if any(r["exit_code"] != 0 for r in runs):
        return {}, runs, []

    problems = []
    for key in DETERMINISTIC:
        a, b = (r["layers"][key] for r in traced)
        if a != b:
            problems.append(f"counter {key} differs between two traced runs: {a} != {b}")
    for key in DETERMINISTIC_END_TO_END:
        if len({r[key] for r in runs}) != 1:
            problems.append(f"{key} differs between runs: {[r[key] for r in runs]}")

    metrics = {}
    for key in traced[0]["layers"]:
        values = [r["layers"][key] for r in traced]
        metrics[key] = values[0] if key in DETERMINISTIC else statistics.median(values)
    metrics["trace.overhead_s"] = statistics.median(r["run_s"] for r in traced) - plain["run_s"]
    return metrics, runs, problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sonsim" / "cli.py").is_file():
        print(f"benchmark: no sonsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= 120:
        print("benchmark: --seconds must lie in [1, 120]", file=sys.stderr)
        return 2

    try:
        if args.trace:
            units = metric_units("per_layer")
            metrics, runs, problems = trace(args.workload, args.seed)
        else:
            units = metric_units("end_to_end")
            metrics, runs = measure(args.workload, args.seed, args.seconds)
            problems = []
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    attempted, failed, gate_problems = gate(args.workload, args.seed, runs)
    problems = gate_problems + problems
    if metrics and not args.trace:
        metrics["ok_ratio"] = 1.0 - failed / attempted
    for r in runs:
        print(f"run: run_s {r['run_s']:.3f} exit {r['exit_code']} "
              f"failed {r['failed']}/{r['attempted']}"
              + (f" setup_s {statistics.median(r['setup_samples']):.4f}"
                 if "setup_samples" in r else ""))
    if args.trace and runs and "self_s" in runs[1]:
        print("self time by span (first traced run):")
        for name, s in sorted(runs[1]["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:32s} {s:9.4f} s")
    print(f"failed_ratio {failed / attempted:.6f} ({failed} of {attempted} queries)")
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    if not metrics:
        print("benchmark: the sonsim run failed", file=sys.stderr)
        return 1

    missing = set(units) - set(metrics)
    if missing:
        print(f"benchmark: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    for name in units:
        print(f"{name:32s} {metrics[name]!r} {units[name]}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
