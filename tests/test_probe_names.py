"""The names `benchmark/probe.py` wraps must exist on the `sonsim` modules.

`benchmark/run.py --trace 1` swaps timing wrappers onto module-level names;
a renamed function would otherwise fail only when the benchmark is traced.
The probe file is loaded as it is, without importing the benchmark package.
Drop this test once the pipeline records its own telemetry and the probe no
longer patches module globals.
"""

import importlib
import importlib.util
from pathlib import Path

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
