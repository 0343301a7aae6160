"""What `benchmark/probe.py` and `benchmark/worker.py` read from `sonsim`
must exist: the names the probe wraps, the attributes of a routed result it
and the worker read, and the `PipelineArtifacts` fields the worker checks.

`benchmark/run.py --trace 1` swaps timing wrappers onto module-level names;
a renamed function or a dropped attribute would otherwise fail only when the
benchmark runs. The probe file is loaded as it is, without importing the
benchmark package. Drop the name checks once the pipeline records its own
telemetry and the probe no longer patches module globals.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from sonsim.config import Config
from sonsim.engine import PipelineArtifacts, run_pipeline

PROBE = Path(__file__).resolve().parent.parent / "benchmark" / "probe.py"


def _load_probe():
    spec = importlib.util.spec_from_file_location("sonsim_bench_probe", PROBE)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


def test_every_wrapped_name_exists():
    probe = _load_probe()
    missing = [f"{module}.{name}" for module, name in probe.FULL
               if not hasattr(importlib.import_module(f"sonsim.{module}"), name)]
    assert missing == []


def test_every_capacity_user_has_capacity():
    probe = _load_probe()
    missing = [module for module in probe.CAPACITY_USERS
               if not hasattr(importlib.import_module(f"sonsim.{module}"), "capacity")]
    assert missing == []


def test_routed_results_have_what_the_benchmark_reads():
    artifacts = run_pipeline(Config(np=40, nsp=4, seed=9))
    for results in (artifacts.baseline_results, artifacts.kb_results):
        missing = [attr for attr in ("mapping_ops", "hops", "searched_sps",
                                     "answering_sps", "answering_peers")
                   if not hasattr(results[0], attr)]
        assert missing == []


def test_pipeline_artifacts_keep_what_the_worker_reads():
    fields = {field.name for field in dataclasses.fields(PipelineArtifacts)}
    assert {"baseline_results", "kb_results", "eval_workload", "net", "config"} <= fields
