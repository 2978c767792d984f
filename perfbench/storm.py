"""``storm-simulation``: whole-fabric wipe/resync cycles under the monitor.

The fabric is the paper's accuracy-sweep cluster (the ``simulation``
profile, 10 leaves) with a ``NetworkMonitor`` attached and no worker pool.
One cycle wipes every leaf's TCAM (one bus event per lost rule), polls,
resyncs every leaf with ``sync_tcam`` (one bus event per installed rule)
and polls again.  The seed draws the order in which the leaves are wiped
and resynced each cycle.
"""

from __future__ import annotations

import json
import random
import time
from typing import Dict, Optional

from repro.experiments import prepare_workload
from repro.online.monitor import NetworkMonitor
from repro.workloads.profiles import simulation_profile

from common import Samples, Workload

#: ``--seconds`` per wipe/resync cycle (a cycle takes 4 to 10 s on the
#: reference machine, as the host's load varies; 20 seconds buy three
#: cycles, whose times agree within a few percent while the load holds).
SECONDS_PER_CYCLE = 20 / 3
#: Incident reads take tens of microseconds; one sample is the mean of a
#: batch, and each cycle takes enough samples (about 0.3 s of reads) that a
#: momentary stall of the machine moves only a few of them.
READS_PER_SAMPLE = 100
READ_SAMPLES = 50


class StormSimulation(Workload):
    name = "storm-simulation"
    setup_repeats = 3
    collect_before_ops = True

    def operations(self) -> int:
        return max(1, round(self.seconds / SECONDS_PER_CYCLE))

    def setup(self) -> None:
        with self.tracer.span("experiments.prepare"):
            self.deployed = prepare_workload(simulation_profile())
        self.controller = self.deployed.controller
        self.monitor = NetworkMonitor(self.controller)
        self.monitor.start()
        self.baseline = self.monitor.report().semantic_fingerprint()
        self.leaves = sorted(self.controller.fabric.leaf_uids())
        self.rng = random.Random(self.seed)
        self.latency = Samples()
        self.detect = Samples()
        self.recover = Samples()
        self.detect_poll = Samples()
        self.reads = Samples()
        self.events = 0
        self.hits = [0, 0, 0]
        self.opened = 0
        self.resolved = 0
        self.suspects: list = []

    def teardown(self) -> None:
        self.monitor.close()

    def _read_open(self) -> str:
        return json.dumps([incident.to_dict() for incident in self.monitor.store.active()])

    def run_op(self, index: int, traced: bool) -> Optional[float]:
        fabric = self.controller.fabric
        order = self.rng.sample(self.leaves, len(self.leaves))
        stats_before = self.monitor.stats()
        wiped_at: Dict[str, float] = {}

        start = time.perf_counter()
        with self.tracer.span("fabric.wipe"):
            for uid in order:
                wiped_at[uid] = time.perf_counter()
                fabric.switch(uid).tcam.remove_where(lambda rule: True)
        self.controller.clock.tick(2)
        pending_detect = self.monitor.pending_events()
        polled = time.perf_counter()
        detected = self.monitor.poll(force=True)
        done = time.perf_counter()
        with self.tracer.span("online.incidents"):
            for _ in range(READ_SAMPLES):
                read_start = time.perf_counter()
                for _ in range(READS_PER_SAMPLE):
                    opened_view = self._read_open()
                self.reads.add((time.perf_counter() - read_start) / READS_PER_SAMPLE)
        resync_start = time.perf_counter()
        with self.tracer.span("fabric.resync"):
            for uid in order:
                fabric.switch(uid).sync_tcam()
        self.controller.clock.tick(2)
        pending_recover = self.monitor.pending_events()
        recovered = self.monitor.poll(force=True)
        end = time.perf_counter()

        self.detect.add(done - start)
        self.detect_poll.add(done - polled)
        self.recover.add(end - resync_start)
        for uid in order:
            self.latency.add(done - wiped_at[uid])
        stats = self.monitor.stats()
        self.events += stats["events_seen"] - stats_before["events_seen"]

        flagged = {incident["switch_uid"] for incident in json.loads(opened_view)}
        wiped = set(self.leaves)
        self.hits[0] += len(flagged & wiped)
        self.hits[1] += len(flagged - wiped)
        self.hits[2] += len(wiped - flagged)
        opened = sorted(incident.switch_uid for incident in detected.opened)
        resolved = sorted(incident.switch_uid for incident in recovered.resolved)
        self.opened += len(opened)
        self.resolved += len(resolved)
        self.suspects.append(
            sorted([incident.switch_uid, incident.suspects] for incident in detected.opened)
        )
        if traced:
            self.count("online.switch_checks", stats["switch_checks"] - stats_before["switch_checks"])
            self.count(
                "online.digest_hits",
                stats["digest_short_circuits"] - stats_before["digest_short_circuits"],
            )
            self.count("online.bus_events", stats["events_seen"] - stats_before["events_seen"])
            self.peak("online.pending_max", max(pending_detect, pending_recover))
        ok = (
            opened == self.leaves
            and resolved == self.leaves
            and not self.monitor.store.active()
        )
        return end - start if ok else None

    def finish(self) -> Dict[str, float]:
        final = self.monitor.report().semantic_fingerprint()
        self.digest.update(
            {
                "final_fingerprint": final,
                "incidents_opened": self.opened,
                "incidents_resolved": self.resolved,
                "hypotheses": self.suspects,
            }
        )
        if final != self.baseline:
            raise AssertionError(
                f"fingerprint after the storms {final[:12]} != bootstrap {self.baseline[:12]}"
            )
        timed = self.detect.total() + self.recover.total()
        return {
            "events_per_s": self.events / timed,
            "event_latency_p50_ms": self.latency.quantile(0.5) * 1e3,
            "event_latency_p95_ms": self.latency.quantile(0.95) * 1e3,
            "incident_read_p50_ms": self.reads.quantile(0.5) * 1e3,
            # A run holds only a few cycles, and the machine's speed drifts
            # over seconds: the mean weighs every cycle where a median of
            # three would keep only the middle one.
            "storm_detect_s": self.detect.mean(),
            "storm_recover_s": self.recover.mean(),
            "audit_s": self.detect_poll.mean(),
            **self.accuracy(*self.hits),
        }
