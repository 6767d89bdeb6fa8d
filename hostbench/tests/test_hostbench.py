"""Tests of the host-time benchmark itself.

Run from the repository root: ``python3 -m pytest hostbench/tests -q``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.runtime.runtime import Runtime  # noqa: E402

DELAY_S = 0.1


def _bound_targets():
    import repro.reclaim  # noqa: F401
    import repro.structures  # noqa: F401

    targets = [t for _, _, ts in layers.TIMED for t in ts] + [t for _, ts in layers.COUNTED for t in ts]
    return [found for target in targets for found in layers._owners(*layers._resolve(target))]


def _small_wide():
    # The 128-locale pair: same layers as the full workload, a fraction of the time.
    return workloads.build_points("wide", run.DEFAULT_SEED)[:2]


def test_wrappers_restore_originals():
    bound = _bound_targets()
    assert len(bound) > 40
    handle = layers.install(layers.Tracer())
    try:
        assert all(vars(owner)[name] is not fn for owner, name, fn in bound)
    finally:
        handle.restore()
    assert all(vars(owner)[name] is fn for owner, name, fn in bound)


def test_traced_passes_restore_originals_when_a_pass_fails(monkeypatch):
    bound = _bound_targets()

    def boom(*args, **kwargs):
        raise RuntimeError("planted failure")

    monkeypatch.setattr(run, "run_pass", boom)
    with pytest.raises(RuntimeError, match="planted failure"):
        run.traced_passes("wide", _small_wide(), {}, 0.0)
    assert all(vars(owner)[name] is fn for owner, name, fn in bound)


def test_planted_delay_raises_wall_and_lands_in_its_layer(monkeypatch):
    points = _small_wide()
    refs = workloads.pinned_references("wide")
    base = run.run_passes("wide", points, refs, 0.0)

    original = Runtime.__init__

    def slow_init(self, *args, **kwargs):
        time.sleep(DELAY_S)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Runtime, "__init__", slow_init)
    slow = run.run_passes("wide", points, refs, 0.0)
    traced, _tracer = run.traced_passes("wide", points, refs, 0.0)

    planted = DELAY_S * len(points)
    slowdown = statistics.median(r["wall_s"] for r in slow) - statistics.median(r["wall_s"] for r in base)
    assert slowdown > 0.8 * planted
    assert statistics.median(r["layers"]["runtime.build_s"] for r in traced) > 0.9 * planted
    assert all(not r["failures"] for r in base + slow + traced)


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_corrupted_reference_fails_the_run(monkeypatch, capsys):
    pinned = workloads.pinned_references("wide")
    corrupted = json.loads(json.dumps(pinned))
    corrupted["fig7-L128"]["elapsed_virtual_s"] *= 1.0 + 1e-12
    points = _small_wide()
    monkeypatch.setattr(workloads, "pinned_references", lambda workload: corrupted)
    monkeypatch.setattr(workloads, "build_points", lambda workload, seed: points)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)

    code = run.main(["--workload", "wide", "--seconds", "0"])
    doc = _last_json(capsys.readouterr().out)
    assert code != 0
    assert doc["correct"] is False
    assert doc["failed"] == run.MIN_PASSES  # the corrupted point, once per pass
    assert doc["metrics"]["success_rate"]["value"] == 0.0


def test_dense_check_catches_unfreed_objects():
    spec = workloads.build_points("dense", run.DEFAULT_SEED)[0]
    n = spec.topology.locales * workloads.DENSE_OPS
    em = {"retired": n, "freed": n, "pending": 0}
    ok = SimpleNamespace(spec=spec, result=SimpleNamespace(operations=n, extra={"em": em, "pending_after": 0}))
    assert workloads.check_point("dense", ok, {}) is None
    leak = SimpleNamespace(
        spec=spec,
        result=SimpleNamespace(operations=n, extra={"em": dict(em, freed=n - 1), "pending_after": 1}),
    )
    assert "freed" in workloads.check_point("dense", leak, {})


def test_benchmark_json_names_what_the_run_prints():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    names = {m["name"] for m in doc["end_to_end"]}
    assert names == {"setup_s", "wall_s", "ops_per_s", "peak_rss_mb", "success_rate"}
