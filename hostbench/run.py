"""Host-time benchmark of the simulator over four user paths: churn, replay, dense, wide.

Run from the repository root::

    python3 hostbench/run.py --workload churn --seed 12648430 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md).  The last line of standard output
is one JSON object; the exit code is non-zero when any point failed its
correctness check.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

WORKLOADS = ("churn", "replay", "dense", "wide")
#: The registry seed: at this seed the committed references apply.
DEFAULT_SEED = 0xC0FFEE

#: Raw pass records and trace spans land here (inside the checkout).
OUT_DIR = ROOT / ".hostbench"
#: Cold set-ups measured per run, each in a fresh interpreter.
SETUP_SAMPLES = 13
#: Passes measured even when one pass outlasts ``--seconds``.
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150

#: Per-layer metrics read from the workload results rather than from wrappers.
RESULT_METRICS = (
    "comm.sim_ops",
    "engine.cache_hits",
    "engine.cache_misses",
    "engine.fallbacks",
    "reclaim.peak_pending",
)


def per_layer_metrics() -> List[tuple]:
    """(name, unit) of every metric a traced run prints."""
    from layers import COUNT_METRICS, TIME_METRICS

    timed = list(TIME_METRICS) + ["trace.overhead_s"]
    counted = list(COUNT_METRICS) + list(RESULT_METRICS)
    return [(name, "s") for name in timed] + [(name, "count") for name in counted]


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    # No import of ``repro`` here: a set-up probe times its cold import.
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed",
        type=lambda text: int(text, 0),
        default=DEFAULT_SEED,
        help="TopologySpec.seed of every point (default: the registry seed 0xC0FFEE)",
    )
    parser.add_argument("--seconds", type=float, default=10.0, help="pass time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# child processes: cold set-up samples and interpreted references
# ---------------------------------------------------------------------------


def setup_once(workload: str, seed: int) -> float:
    """Seconds for a cold ``import repro``, the workload's specs and its first Runtime."""
    start = time.perf_counter()
    import repro  # noqa: F401 -- the cold import is what is measured
    from repro.runtime.runtime import Runtime

    from workloads import build_points

    points = build_points(workload, seed)
    with Runtime(config=points[0].topology.runtime_config()):
        pass
    return time.perf_counter() - start


def _child(*flags: str) -> Any:
    """Run this script with ``flags`` in a fresh interpreter; parse its last line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *flags],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {flags} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_sample(workload: str, seed: int) -> float:
    """One cold set-up, measured in a fresh interpreter."""
    return _child("--setup-probe", "--workload", workload, "--seed", str(seed))["setup_s"]


def references(workload: str, seed: int) -> Dict[str, Any]:
    from workloads import pinned_references

    if workload == "dense":
        return {}
    if seed == DEFAULT_SEED:
        return pinned_references(workload)
    return _child("--reference", "--workload", workload, "--seed", str(seed))


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def run_pass(workload: str, points: list, refs: Dict[str, Any], tracer=None) -> Dict[str, Any]:
    """Run every point once (timed), then check and describe what ran (untimed)."""
    from repro.bench.scenarios import build_report, run_scenario
    from repro.engine import COLUMN_CACHE

    from workloads import check_point, point_tier

    COLUMN_CACHE.clear()
    gc.collect()
    mark = tracer.mark() if tracer is not None else None
    start = time.perf_counter()
    runs = [run_scenario(spec) for spec in points]
    build_report(runs, baselines=refs)
    wall = time.perf_counter() - start
    layers = tracer.since(mark) if tracer is not None else {}
    hits, misses, _entries = COLUMN_CACHE.stats()

    failures = {}
    for run in runs:
        reason = check_point(workload, run, refs)
        if reason is not None:
            failures[run.spec.name] = reason
    layers.update(
        {
            "comm.sim_ops": sum(
                n for run in runs for key, n in run.result.comm.items() if key != "bulk_bytes"
            ),
            "engine.cache_hits": hits,
            "engine.cache_misses": misses,
            "engine.fallbacks": sum(len((run.engine or {}).get("fallbacks", ())) for run in runs),
            "reclaim.peak_pending": max(
                (run.result.extra.get("em", {}).get("peak_pending", 0) for run in runs), default=0
            ),
        }
    )
    return {
        "wall_s": wall,
        "operations": sum(run.result.operations for run in runs),
        "failures": failures,
        "tiers": {run.spec.name: point_tier(run) for run in runs},
        "layers": layers,
    }


def run_passes(
    workload: str, points: list, refs, seconds: float, tracer=None, setups: Optional[list] = None
) -> List[dict]:
    """Passes until ``seconds`` of pass time (at least MIN_PASSES).

    When ``setups`` is given, SETUP_SAMPLES cold set-ups are appended to it,
    spread evenly between the passes.  A shared host's speed can drift over
    tens of seconds; spreading the samples lets ``setup_s`` see the same mix
    of fast and slow phases as ``wall_s`` instead of one moment of the run.
    """
    records: List[dict] = []
    spent = 0.0
    while spent < seconds or len(records) < MIN_PASSES:
        due = setups is not None and len(setups) < SETUP_SAMPLES
        if due and spent * SETUP_SAMPLES >= len(setups) * seconds:
            setups.append(setup_sample(workload, points[0].topology.seed))
        record = run_pass(workload, points, refs, tracer)
        records.append(record)
        spent += record["wall_s"]
    while setups is not None and len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(workload, points[0].topology.seed))
    return records


def traced_passes(workload: str, points: list, refs, seconds: float):
    """Passes with every layer boundary wrapped; the originals are restored after."""
    from layers import Tracer, install

    tracer = Tracer()
    handle = install(tracer)
    try:
        return run_passes(workload, points, refs, seconds, tracer), tracer
    finally:
        handle.restore()


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def describe_passes(label: str, records: List[dict]) -> None:
    walls = [r["wall_s"] for r in records]
    q1, median, q3 = statistics.quantiles(walls, n=4)  # MIN_PASSES >= 3
    print(
        f"  {label} wall_s: median {median:.4f} s,"
        f" q1 {q1:.4f}, q3 {q3:.4f}, {len(walls)} passes;"
        f" raw {', '.join(f'{w:.4f}' for w in walls)}"
    )


def describe_tiers(workload: str, records: List[dict]) -> None:
    from workloads import INTENDED_TIER

    intended = INTENDED_TIER[workload]
    tiers: Dict[str, int] = {}
    for record in records:
        for tier in record["tiers"].values():
            tiers[tier] = tiers.get(tier, 0) + 1
    off = sorted({n for r in records for n, t in r["tiers"].items() if t != intended})
    caches = sorted({(r["layers"]["engine.cache_hits"], r["layers"]["engine.cache_misses"]) for r in records})
    fallbacks = sum(r["layers"]["engine.fallbacks"] for r in records)
    print(f"  tiers (point-runs): {tiers}; intended {intended}; off-tier points: {off or 'none'}")
    print(f"  engine fallbacks: {fallbacks}; COLUMN_CACHE (hits, misses) per pass: {caches}")


def write_record(name: str, doc: Dict[str, Any]) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    with (gzip.open if name.endswith(".gz") else open)(path, "wt") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return path


def layer_report(workload: str, traced: List[dict], untraced: List[dict], tracer) -> Dict[str, float]:
    from layers import TIME_METRICS

    from workloads import PREDICTED_LARGEST

    values = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name, _unit in per_layer_metrics()
        if name != "trace.overhead_s"
    }
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    ranking = sorted(TIME_METRICS, key=lambda name: -values[name])
    largest, predicted = ranking[0], PREDICTED_LARGEST[workload]
    print(
        f"  tracing overhead: {values['trace.overhead_s']:+.4f} s per pass"
        f" (traced {traced_wall:.4f} s vs untraced {untraced_wall:.4f} s)"
    )
    print("  self time per pass (median of traced passes):")
    for name in ranking:
        share = values[name] / traced_wall if traced_wall else 0.0
        print(f"    {name:<24} {values[name]:10.4f} s  {share:6.1%}")
    verdict = "as predicted" if largest == predicted else f"differs from the prediction {predicted}"
    print(f"  largest self-time layer: {largest} ({verdict})")
    attempts = values["reclaim.attempts"]
    if attempts:
        print(f"  reclaim useful-work ratio: {values['reclaim.advances'] / attempts:.3f} advances per attempt")
    print(
        "  note: the columnar executor inlines its own charge/serve, so"
        " comm.serve_calls and comm.charge_calls count only non-inlined paths"
    )
    fields = ["id", "parent", "metric", "count", "start_s", "end_s", "returned_true"]
    spans = {"fields": fields, "spans": tracer.spans}
    print(f"  spans: {write_record(f'{workload}-spans.json.gz', spans)}")
    return values


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_once(args.workload, args.seed)}))
        return 0
    if args.reference:
        from workloads import reference_entries

        print(json.dumps(reference_entries(args.workload, args.seed)))
        return 0

    from workloads import build_points

    setups: List[float] = []
    refs = references(args.workload, args.seed)
    points = build_points(args.workload, args.seed)
    print(f"hostbench {args.workload}: seed {args.seed:#x}, {len(points)} points per pass")

    if args.trace:
        untraced = run_passes(args.workload, points, refs, args.seconds / 2)
        traced, tracer = traced_passes(args.workload, points, refs, args.seconds / 2)
        records = untraced + traced
        describe_passes("untraced", untraced)
        describe_passes("traced", traced)
    else:
        records = run_passes(args.workload, points, refs, args.seconds, setups=setups)
        describe_passes("untraced", records)
    describe_tiers(args.workload, records)

    attempted = sum(len(r["tiers"]) for r in records)
    failed = sum(len(r["failures"]) for r in records)
    for i, record in enumerate(records):
        for point, reason in record["failures"].items():
            print(f"  FAILED pass {i} point {point}: {reason}")

    if args.trace:
        values = layer_report(args.workload, traced, untraced, tracer)
        metrics = {name: (values[name], unit) for name, unit in per_layer_metrics()}
    else:
        wall = statistics.median(r["wall_s"] for r in records)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
            "ops_per_s": (records[0]["operations"] / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "success_rate": (sum(not r["failures"] for r in records) / len(records), "ratio"),
        }
        print(f"  setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    path = write_record(
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
        {"workload": args.workload, "seed": args.seed, "setup_s": setups, "passes": records},
    )
    print(f"  pass records: {path}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
