"""The benchmark's metric catalogue and the layer-to-end-to-end map.

``BENCHMARK.json`` at the repository root lists the same names, units and
bounds; ``smoke.py`` checks that the two agree and that every run emits
every metric with its unit.  The definitions per workload are in
``README.md`` next to this file.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

WORKLOADS: Dict[str, str] = {
    "pipeline-small": (
        "the daemon's per-event incremental path: churn applied, polled and "
        "read back over HTTP one event at a time; the only workload that reaches service/"
    ),
    "storm-simulation": (
        "one huge batch: every leaf TCAM wiped then resynced, ~63k bus events "
        "per cycle through fabric -> online intake and the engine on T=0 switches"
    ),
    "audit-production": (
        "operator audits on the paper's 30-leaf production cluster: fat switches, "
        "controller-scope SCOUT, and the only workload that reaches the parallel/ pool"
    ),
}

#: (name, unit, better, bound) -- emitted by every workload with --trace 0.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("events_per_s", "1/s", "higher", 0.25),
    ("event_latency_p50_ms", "ms", "lower", 0.25),
    ("event_latency_p95_ms", "ms", "lower", 0.25),
    ("incident_read_p50_ms", "ms", "lower", 0.25),
    ("storm_detect_s", "s", "lower", 0.25),
    ("storm_recover_s", "s", "lower", 0.25),
    ("audit_s", "s", "lower", 0.25),
    ("localization_precision", "ratio", "higher", 0.25),
    ("localization_recall", "ratio", "higher", 0.25),
)

#: Layers whose spans the traced run records, in pipeline order.
LAYERS: Tuple[str, ...] = (
    "churn",
    "faults",
    "experiments",
    "workloads",
    "controller",
    "fabric",
    "service",
    "online",
    "verify",
    "parallel",
    "risk",
    "core",
)

#: (name, unit, better) measured directly at a layer boundary.
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("verify.check_s", "s", "lower"),
    ("verify.check_s.bdd", "s", "lower"),
    ("verify.check_s.ap", "s", "lower"),
    ("verify.calls", "count", "lower"),
    ("verify.calls.bdd", "count", "lower"),
    ("verify.calls.ap", "count", "lower"),
    ("verify.rules_per_s", "1/s", "higher"),
    ("online.poll_s", "s", "lower"),
    ("online.refresh_s", "s", "lower"),
    ("online.switch_checks", "count", "lower"),
    ("online.digest_hit_ratio", "ratio", "higher"),
    ("online.pending_max", "count", "lower"),
    ("online.bus_events", "count", "lower"),
    ("online.bootstrap_s", "s", "lower"),
    ("fabric.wipe_s", "s", "lower"),
    ("fabric.resync_s", "s", "lower"),
    ("risk.build_s", "s", "lower"),
    ("risk.augment_s", "s", "lower"),
    ("core.scout_s", "s", "lower"),
    ("core.correlate_s", "s", "lower"),
    ("parallel.cache_hit_rate", "ratio", "higher"),
    ("parallel.tasks", "count", "lower"),
    ("service.poll_rtt_s", "s", "lower"),
    ("service.overhead_s", "s", "lower"),
    ("service.response_bytes", "B", "lower"),
    ("churn.apply_s", "s", "lower"),
    ("controller.deliver_s", "s", "lower"),
    ("faults.inject_s", "s", "lower"),
    ("workloads.generate_s", "s", "lower"),
    ("controller.deploy_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.span_cost_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


def per_layer() -> List[Tuple[str, str, str]]:
    """Every metric emitted with --trace 1, layer breakdown included."""
    rows = list(LAYER_METRICS)
    for layer in LAYERS:
        rows.append((f"layer.{layer}.self_s", "s", "lower"))
        rows.append((f"layer.{layer}.calls", "count", "lower"))
        rows.append((f"layer.{layer}.share", "ratio", "lower"))
    return rows


#: Which end-to-end metric each layer metric should move, on which workload.
#: A workload that is absent is predicted not to move.
LAYER_EFFECTS: Dict[str, Dict[str, List[str]]] = {
    "verify.*": {
        "pipeline-small": ["events_per_s", "event_latency_p50_ms"],
        "storm-simulation": ["storm_detect_s"],
        "audit-production": ["audit_s"],
    },
    "online.poll_s online.refresh_s online.switch_checks online.digest_hit_ratio online.pending_max": {
        "pipeline-small": ["events_per_s"],
        "storm-simulation": ["storm_detect_s"],
    },
    "online.bus_events fabric.wipe_s fabric.resync_s": {
        "storm-simulation": ["storm_detect_s", "storm_recover_s"],
    },
    "risk.build_s risk.augment_s core.scout_s core.correlate_s": {
        "audit-production": ["audit_s"],
        "pipeline-small": ["event_latency_p95_ms"],
    },
    "parallel.cache_hit_rate parallel.tasks": {
        "audit-production": ["audit_s"],
    },
    "service.poll_rtt_s service.overhead_s service.response_bytes": {
        "pipeline-small": ["incident_read_p50_ms"],
    },
    "churn.apply_s controller.deliver_s faults.inject_s": {
        "pipeline-small": ["events_per_s"],
    },
    "workloads.generate_s controller.deploy_s online.bootstrap_s": {
        "pipeline-small": ["setup_s"],
        "storm-simulation": ["setup_s"],
        "audit-production": ["setup_s"],
    },
}
