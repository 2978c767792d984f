"""``audit-production``: operator audits on the paper's production cluster.

The fabric is the ``production`` profile (30 leaves, 6 VRFs, 615 EPGs,
~420k deployed rules), deployed once.  Each round restores the deployed
TCAM snapshot, injects a seeded batch of simultaneous full/partial object
faults (§VI-B) and runs the audit the README documents for operators:
``ScoutSystem.localize(scope="controller", parallel=True)``.
"""

from __future__ import annotations

import json
import random
import time
from typing import Dict, Optional

from repro.core.system import ScoutSystem
from repro.experiments import prepare_workload
from repro.faults.injector import FaultInjector
from repro.workloads.profiles import production_cluster_profile

from common import Samples, Workload

#: ``--seconds`` per audit round (a round takes about 12 s on the reference
#: machine; 20 seconds buy three rounds, the fewest with a median).
SECONDS_PER_ROUND = 7.0
#: Simultaneous object faults per round (§VI-B); fixed, so that every run
#: localizes the same number of faults and only their identity is seeded.
FAULTS_PER_ROUND = 3
#: A restore is half a second of clearing and reinstalling every TCAM; the
#: repeats re-apply the same snapshot so each round gives several samples.
RESTORES_PER_ROUND = 3
#: A verdict read is tens of microseconds; one sample is the mean of a
#: batch, and each round takes about 0.1 s of reads so that a momentary
#: stall of the machine moves only a few samples.
READS_PER_SAMPLE = 200
READ_SAMPLES = 20
#: Rounds age the previous round's change records out of SCOUT's window.
CHANGE_WINDOW = 100


class AuditProduction(Workload):
    name = "audit-production"
    setup_repeats = 1
    collect_before_ops = True

    def operations(self) -> int:
        return max(1, round(self.seconds / SECONDS_PER_ROUND))

    def setup(self) -> None:
        with self.tracer.span("experiments.prepare"):
            self.deployed = prepare_workload(production_cluster_profile())
        self.controller = self.deployed.controller
        self.system = ScoutSystem(self.controller, change_window=CHANGE_WINDOW)
        self.rng = random.Random(self.seed)
        self.latency = Samples()
        self.detect = Samples()
        self.recover = Samples()
        self.audits = Samples()
        self.reads = Samples()
        self.faults = 0
        self.precision = Samples()
        self.recall = Samples()
        self.rounds: list = []

    def teardown(self) -> None:
        self.system.close()

    def worker_pools(self) -> list:
        return [self.system.worker_pool()]

    @staticmethod
    def _verdict(report) -> str:
        """What an operator's dashboard reads from an audit: the faulty
        objects and the switches that violate the policy."""
        return json.dumps(
            {
                "consistent": report.consistent,
                "faulty_objects": sorted(str(risk) for risk in report.faulty_objects()),
                "violating_switches": report.equivalence.switches_with_violations(),
                "summary": report.equivalence.summary(),
            }
        )

    def run_op(self, index: int, traced: bool) -> Optional[float]:
        injector = FaultInjector(self.controller, rng=random.Random(self.rng.getrandbits(32)))

        start = time.perf_counter()
        for _ in range(RESTORES_PER_ROUND):
            restore_start = time.perf_counter()
            self.deployed.restore()
            self.recover.add(time.perf_counter() - restore_start)
        self.controller.clock.tick(CHANGE_WINDOW + 1)
        faults = injector.inject_random_faults(FAULTS_PER_ROUND, strict=False)
        audit_start = time.perf_counter()
        report = self.system.localize(scope="controller", parallel=True)
        done = time.perf_counter()
        with self.tracer.span("core.verdict"):
            for _ in range(READ_SAMPLES):
                read_start = time.perf_counter()
                for _ in range(READS_PER_SAMPLE):
                    verdict = self._verdict(report)
                self.reads.add((time.perf_counter() - read_start) / READS_PER_SAMPLE)
        end = time.perf_counter()

        # Injection is fault simulation, not the system: detection runs from
        # the moment the faults exist until the operator holds the verdict.
        self.detect.add(end - audit_start)
        self.audits.add(done - audit_start)
        for _ in faults:
            self.latency.add(end - audit_start)
        self.faults += len(faults)

        expected: Dict[str, set] = {}
        for fault in faults:
            for switch_uid, rules in fault.removed_rules.items():
                expected.setdefault(switch_uid, set()).update(r.match_key() for r in rules)
        missing = {
            switch_uid: {rule.match_key() for rule in rules}
            for switch_uid, rules in report.equivalence.missing_rules().items()
            if rules
        }
        truth = injector.ground_truth()
        hypothesis = {str(risk) for risk in report.hypothesis.objects()}
        true_pos = len(truth & hypothesis)
        scored = self.accuracy(true_pos, len(hypothesis - truth), len(truth - hypothesis))
        self.precision.add(scored["localization_precision"])
        self.recall.add(scored["localization_recall"])
        self.rounds.append(
            {
                "faults": sorted(f"{fault.kind.value}:{fault.object_uid}" for fault in faults),
                "hypothesis": sorted(hypothesis),
                "fingerprint": report.equivalence.semantic_fingerprint(),
                "verdict_bytes": len(verdict),
            }
        )
        return end - start if missing == expected else None

    def finish(self) -> Dict[str, float]:
        self.digest["rounds"] = self.rounds
        return {
            "events_per_s": self.faults / self.detect.total(),
            "event_latency_p50_ms": self.latency.quantile(0.5) * 1e3,
            "event_latency_p95_ms": self.latency.quantile(0.95) * 1e3,
            "incident_read_p50_ms": self.reads.quantile(0.5) * 1e3,
            # Means over the run's few rounds, as on storm-simulation.
            "storm_detect_s": self.detect.mean(),
            "storm_recover_s": self.recover.mean(),
            "audit_s": self.audits.mean(),
            # Per-audit accuracy, median over the rounds: a few fault draws
            # make SCOUT name many extra objects, and pooled over a run's
            # nine faults one such audit swings precision by half.
            "localization_precision": self.precision.quantile(0.5),
            "localization_recall": self.recall.quantile(0.5),
        }
