"""The repository benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload pipeline-small --seed 1 --seconds 20 --trace 0

``--seconds`` sets how much work the run measures, at a fixed rate
per workload (churn events, storm cycles or audit rounds), so the work and
its determinism digest depend only on the arguments.  With ``--trace 0``
the last line of output is a JSON object carrying every end-to-end metric;
with ``--trace 1`` the layer entry points are wrapped (see ``tracer.py``),
every other timed operation runs traced, the spans are written to
``perfbench/out/`` and the JSON carries the per-layer metrics instead.
The process exits non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC} holds no repro package; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")


def _workloads() -> dict:
    from audit import AuditProduction
    from pipeline import PipelineSmall
    from storm import StormSimulation

    return {cls.name: cls for cls in (PipelineSmall, StormSimulation, AuditProduction)}


def _pool_counts(workload) -> tuple:
    hits = misses = 0
    for pool in workload.worker_pools():
        stats = pool.stats()
        hits += stats["cache_hits"]
        misses += stats["cache_misses"]
    return hits, misses


def _layer_metrics(tracer, workload, repeats: int, traced: list, untraced: list) -> dict:
    from catalog import LAYERS

    counters = workload.counters
    values = {}

    seconds = {"bdd": 0.0, "ap": 0.0}
    calls = {"bdd": 0, "ap": 0}
    rules = 0
    check_s = 0.0
    total_calls = 0
    for record in tracer.outermost("verify."):
        duration = record[4] - record[3]
        check_s += duration
        engines = record[6] or {}
        span_rules = sum(row[1] for row in engines.values())
        rules += span_rules
        for engine, (count, engine_rules) in engines.items():
            total_calls += count
            if engine in calls:
                calls[engine] += count
                # A multi-switch call's time is apportioned by rule count.
                share = engine_rules / span_rules if span_rules else 1 / len(engines)
                seconds[engine] += duration * share
    values["verify.check_s"] = check_s
    values["verify.check_s.bdd"] = seconds["bdd"]
    values["verify.check_s.ap"] = seconds["ap"]
    values["verify.calls"] = total_calls
    values["verify.calls.bdd"] = calls["bdd"]
    values["verify.calls.ap"] = calls["ap"]
    values["verify.rules_per_s"] = rules / check_s if check_s else 0.0

    switch_checks = counters.get("online.switch_checks", 0)
    digest_hits = counters.get("online.digest_hits", 0)
    values["online.poll_s"] = tracer.total("online.poll")
    values["online.refresh_s"] = tracer.total("online.refresh")
    values["online.switch_checks"] = switch_checks
    values["online.digest_hit_ratio"] = (
        digest_hits / (digest_hits + switch_checks) if digest_hits + switch_checks else 0.0
    )
    values["online.pending_max"] = counters.get("online.pending_max", 0)
    values["online.bus_events"] = counters.get("online.bus_events", 0)
    values["online.bootstrap_s"] = tracer.total("online.bootstrap", "setup") / repeats
    values["fabric.wipe_s"] = tracer.total("fabric.wipe")
    values["fabric.resync_s"] = tracer.total("fabric.resync")
    values["risk.build_s"] = tracer.total("risk.build")
    values["risk.augment_s"] = tracer.total("risk.augment")
    values["core.scout_s"] = tracer.total("core.scout")
    values["core.correlate_s"] = tracer.total("core.correlate")
    hits = counters.get("parallel.hits", 0)
    tasks = hits + counters.get("parallel.misses", 0)
    values["parallel.cache_hit_rate"] = hits / tasks if tasks else 0.0
    values["parallel.tasks"] = tasks
    poll_rtt = tracer.total("service.poll")
    values["service.poll_rtt_s"] = poll_rtt
    values["service.overhead_s"] = poll_rtt - tracer.total_within("online.poll", "service.poll")
    values["service.response_bytes"] = counters.get("service.response_bytes", 0)
    values["churn.apply_s"] = tracer.total("churn.apply")
    values["controller.deliver_s"] = tracer.total("controller.deliver")
    values["faults.inject_s"] = tracer.total("faults.inject")
    values["workloads.generate_s"] = tracer.total("workloads.generate", "setup") / repeats
    values["controller.deploy_s"] = tracer.total("controller.deploy", "setup") / repeats

    values["trace.coverage"] = tracer.coverage()
    values["trace.overhead"] = (
        (sum(traced) / len(traced)) / (sum(untraced) / len(untraced)) - 1
        if traced and untraced
        else 0.0
    )
    timed_spans = sum(1 for record in tracer.spans if record[5] == "timed")
    values["trace.spans"] = timed_spans
    values["trace.span_cost_s"] = timed_spans * tracer.span_cost()
    table = tracer.layers()
    for layer in LAYERS:
        row = table.get(layer, {"self_s": 0.0, "calls": 0, "share": 0.0})
        values[f"layer.{layer}.self_s"] = row["self_s"]
        values[f"layer.{layer}.calls"] = row["calls"]
        values[f"layer.{layer}.share"] = row["share"]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    _import_program()
    from catalog import END_TO_END, per_layer
    from tracer import Tracer, layer_tracer

    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(workloads)})")
    trace = bool(args.trace)
    tracer = layer_tracer() if trace else Tracer()
    workload = workloads[args.workload](args.seed, args.seconds, tracer)

    setup_times = []
    if trace:
        tracer.install()
    for repeat in range(workload.setup_repeats):
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
        if repeat < workload.setup_repeats - 1:
            workload.teardown()
    tracer.uninstall()
    gc.collect()
    tracer.phase = "timed"

    operations = workload.operations()
    attempted = operations + 1  # the final oracle counts as one operation
    failed = 0
    traced_times, untraced_times = [], []
    problems = []
    try:
        for index in range(operations):
            traced = trace and index % 2 == 0
            if workload.collect_before_ops:
                gc.collect()
            if traced:
                pool_before = _pool_counts(workload)
                tracer.install()
            try:
                seconds = workload.run_op(index, traced)
            except Exception:
                problems.append(traceback.format_exc())
                seconds = None
            finally:
                tracer.uninstall()
            if traced:
                pool_after = _pool_counts(workload)
                workload.count("parallel.hits", pool_after[0] - pool_before[0])
                workload.count("parallel.misses", pool_after[1] - pool_before[1])
            if seconds is None:
                failed += 1
                problems.append(f"operation {index} failed its check")
            elif traced:
                traced_times.append(seconds)
                tracer.traced_wall += seconds
            else:
                untraced_times.append(seconds)
        try:
            end_to_end = workload.finish()
        except Exception:
            problems.append(traceback.format_exc())
            failed += 1
            end_to_end = {}
    finally:
        workload.teardown()

    if trace:
        values = _layer_metrics(
            tracer, workload, workload.setup_repeats, traced_times, untraced_times
        )
        units = {name: unit for name, unit, _better in per_layer()}
        out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(out)
        print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
        if traced_times and values["trace.coverage"] < 0.9:
            problems.append(f"named layers cover {values['trace.coverage']:.1%} < 90%")
    else:
        values = dict(end_to_end)
        values["setup_s"] = sorted(setup_times)[len(setup_times) // 2]
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = {name: unit for name, unit, _better, _bound in END_TO_END}

    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        if value is None or not math.isfinite(value):
            problems.append(f"metric {name} has no value ({value!r})")
            value = None
        metrics[name] = {"value": value, "unit": unit}

    digest = json.dumps(workload.digest, sort_keys=True)
    print(f"digest: {hashlib.sha256(digest.encode()).hexdigest()}")
    for key in ("final_fingerprint", "incidents_opened", "incidents_resolved"):
        if key in workload.digest:
            print(f"  {key}: {workload.digest[key]}")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = not problems
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
