"""Smoke test of the benchmark: every workload, tiny sizes, in seconds.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import spec  # noqa: E402
from perfbench.run import measure  # noqa: E402
from perfbench.workloads import Knobs  # noqa: E402

TINY = Knobs(
    vertices=100,
    cache_fill=200,
    read_pool=3,
    reads_per_cycle=50,
    batch_pairs=40,
    check_every=2,
    traffic_pool=6,
    hot_pairs=60,
    warm_reads=20,
    reads_per_round=20,
    checks_per_round=1,
    traffic_batch_pairs=40,
    batch_every=2,
)


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_reports_every_metric(name, trace):
    line, lines = measure(spec.WORKLOADS[name], 7, 0.05, trace, TINY)
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"], lines
    assert line["failed"] == 0 and line["attempted"] > 0
    assert list(line["metrics"]) == [m.name for m in declared]
    for m in declared:
        entry = line["metrics"][m.name]
        assert entry["unit"] == m.unit
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    if not trace:
        assert all(entry["value"] > 0 for entry in line["metrics"].values())
    json.dumps(line)


def test_shims_are_removed_after_a_traced_run():
    from perfbench.shims import TARGETS, _resolve

    measure(spec.WORKLOADS["h2h-traffic"], 3, 0.05, True, TINY)
    for module_name, path, _layer, _clock in TARGETS:
        owner, attr = _resolve(module_name, path)
        assert not hasattr(getattr(owner, attr), "__wrapped__"), path


def test_manifest_is_generated_from_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.manifest()
    assert set(spec.LAYER_TARGETS) == {m.name for m in spec.PER_LAYER}
