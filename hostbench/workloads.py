"""The four host-time workloads: which points a pass runs, and how each is checked.

A *pass* runs every point of one workload once, in order, each on a fresh
``Runtime`` (exactly what ``scenarios --all`` and the figure drivers do).
Every point is checked after the pass, outside the timed region:

* ``churn``, ``replay``, ``wide``: virtual time, operation count and comm
  totals must be bit-identical to a reference this process did not
  produce -- ``benchmarks/scenario_baselines.json`` for registry points and
  ``hostbench/fingerprints.json`` for ``wide`` points at the registry seed,
  an interpreted-engine run in a child process at any other seed.
* ``dense``: its mid-phase ``tryReclaim`` elections are decided by real
  thread interleaving, so virtual time and comm totals legitimately vary
  between identical runs (the repository's schedule-scoped contract).  It
  is checked on what must hold on every schedule: the operation count,
  ``retired == freed == operations`` and nothing pending after ``clear()``.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.bench.scenarios import (
    ScenarioRun,
    ScenarioSpec,
    baseline_entry,
    compiled_coverage,
    get_scenario,
    iter_scenarios,
    load_baselines,
    run_scenario,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Worker threads per runtime, fixed so that pooled paths do the same handoffs on every host.
POOL = 2

#: The tier each workload's points are meant to run on (reported, not gated).
INTENDED_TIER = {
    "churn": "serial",
    "replay": "columnar",
    "dense": "interpreted",
    "wide": "columnar",
}

#: The timed layer each workload is expected to spend the most self time in.
PREDICTED_LARGEST = {
    "churn": "structures.s",
    "replay": "engine.columnar_s",
    "dense": "runtime.join_wait_s",
    "wide": "comm.route_compile_s",
}

DENSE_LOCALES = (2, 4, 8, 16)
DENSE_OPS = 32
WIDE_LOCALES = (128, 256, 512)
WIDE_OPS = 16

FINGERPRINTS = HERE / "fingerprints.json"
REGISTRY_BASELINES = ROOT / "benchmarks" / "scenario_baselines.json"


def _named(spec: ScenarioSpec, name: str) -> ScenarioSpec:
    return replace(spec, name=name, description="")


def build_points(workload: str, seed: int) -> List[ScenarioSpec]:
    """The specs one pass of ``workload`` runs, with ``seed`` applied."""
    if workload in ("churn", "replay"):
        tier = INTENDED_TIER[workload]
        points = []
        for spec in iter_scenarios():
            spec = spec.with_topology(engine="compiled", worker_pool_size=POOL, seed=seed)
            if compiled_coverage(spec) == tier:
                points.append(spec)
        return points
    if workload == "dense":
        base = get_scenario("paper-reclaim-endonly")
        return [
            _named(
                base.with_topology(
                    locales=nloc,
                    network=network,
                    tasks_per_locale=1,
                    engine="interpreted",
                    worker_pool_size=POOL,
                    seed=seed,
                ).with_workload(
                    ops_per_task=DENSE_OPS,
                    remote_percent=remote,
                    delete=True,
                    reclaim_every=1,
                    cleanup_at_end=True,
                ),
                f"fig5-{network}-r{remote}-L{nloc}",
            )
            for network in ("none", "ugni")
            for remote in (0, 100)
            for nloc in DENSE_LOCALES
        ]
    if workload == "wide":
        points = []
        for nloc in WIDE_LOCALES:
            machine = dict(
                locales=nloc,
                network="ugni",
                tasks_per_locale=1,
                engine="compiled",
                worker_pool_size=POOL,
                seed=seed,
            )
            points.append(
                _named(
                    get_scenario("paper-reclaim-endonly")
                    .with_topology(**machine)
                    .with_workload(
                        ops_per_task=WIDE_OPS,
                        remote_percent=0,
                        delete=False,
                        reclaim_every=None,
                        cleanup_at_end=False,
                    ),
                    f"fig7-L{nloc}",
                )
            )
            points.append(
                _named(
                    get_scenario("paper-atomic-mix")
                    .with_topology(**machine)
                    .with_workload(ops_per_task=WIDE_OPS),
                    f"fig3-L{nloc}",
                )
            )
        return points
    raise ValueError(f"unknown workload {workload!r}; expected one of {list(INTENDED_TIER)}")


def reference_entries(workload: str, seed: int) -> Dict[str, Any]:
    """Fingerprints of an interpreted-engine run of every point (untimed).

    ``dense`` already runs interpreted and is schedule-scoped, so it has
    no reference run: its points are checked on invariants only.
    """
    if workload == "dense":
        return {}
    return {
        spec.name: baseline_entry(run_scenario(spec.with_topology(engine="interpreted")))
        for spec in build_points(workload, seed)
    }


def pinned_references(workload: str) -> Dict[str, Any]:
    """The committed references of ``churn``/``replay``/``wide`` at the registry seed."""
    if workload == "wide":
        with open(FINGERPRINTS) as fh:
            return json.load(fh)["wide"]
    return load_baselines(str(REGISTRY_BASELINES))


def check_point(workload: str, run: ScenarioRun, references: Mapping[str, Any]) -> Optional[str]:
    """Why ``run`` is wrong, or None when it verified."""
    result = run.result
    if workload == "dense":
        params = run.spec.workload.resolved_params(run.spec.measure.ops_scale)
        expected = run.spec.topology.locales * params["ops_per_task"]
        em = result.extra["em"]
        if result.operations != expected:
            return f"operations {result.operations} != {expected}"
        if not (em["retired"] == em["freed"] == expected):
            return f"retired {em['retired']} / freed {em['freed']} != {expected}"
        if result.extra["pending_after"] != 0 or em["pending"] != 0:
            return f"{result.extra['pending_after']} object(s) pending after clear()"
        return None
    ref = references.get(run.spec.name)
    if ref is None:
        return "no reference fingerprint"
    for key, got in (
        ("elapsed_virtual_s", result.elapsed),
        ("operations", result.operations),
        ("comm", dict(result.comm)),
    ):
        if ref.get(key) != got:
            return f"{key} {got!r} != reference {ref.get(key)!r}"
    return None


def point_tier(run: ScenarioRun) -> str:
    """The tier(s) the point actually ran on, from its effective-engine record."""
    info = run.engine or {}
    phases = info.get("phases")
    if phases:
        return "+".join(sorted(phases))
    return info.get("effective", "unknown")
