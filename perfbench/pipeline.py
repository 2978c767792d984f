"""``pipeline-small``: the daemon's per-event path over a real socket.

The daemon boots exactly as ``python -m repro.service --profile small``
does (tracing on, monitor with two workers) and serves on a loopback port
from a background thread.  One client runs a closed loop over a seeded
seven-family churn stream (``stratified_stream``): it applies one event to the served fabric
through ``ChurnDriver``, then sends ``POST /monitor/poll`` and
``GET /incidents?status=open`` and waits for each reply before the next
event.  A final ``driver.checkpoint()`` compares the incremental state with
a from-scratch check and the incident ledger with the violating switches.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from typing import Dict, List, Optional, Set

from repro.churn import (
    ChurnDriver,
    FaultBurst,
    LinkFlap,
    PolicyAdd,
    PolicyModify,
    PolicyRemove,
    SwitchDrain,
    SwitchReboot,
)
from repro.service.app import service_for_profile
from repro.service.wsgi import make_server_for
from repro.workloads.churn_profiles import CHURN_EVENT_KINDS, ChurnProfile, churn_profile_for

from common import Samples, Workload

#: Churn events a run applies per ``--seconds`` (about the closed-loop rate
#: on the reference machine).
EVENTS_PER_SECOND = 25
#: ``ChurnDriver.for_workload`` ages the deployment out of SCOUT's recency
#: window before the first event; the served controller gets the same.
CHANGE_WINDOW = 100


def stratified_stream(profile: ChurnProfile, events: int, seed: int) -> list:
    """The seven-family churn stream with each family's share fixed.

    ``generate_churn_stream`` draws every event's family independently, so
    two seeds can differ by dozens of reboots in a few hundred events.
    Here the family counts follow the profile's weights exactly (largest
    remainders round), fault-burst sizes cover the profile's range evenly,
    and the seed draws their order, every target and every duration from
    the profile's ranges.
    """
    rng = random.Random(seed)
    weights = profile.mix.weights()
    quotas = [events * weight / sum(weights) for weight in weights]
    counts = [int(quota) for quota in quotas]
    by_remainder = sorted(range(len(quotas)), key=lambda i: (counts[i] - quotas[i], i))
    for i in by_remainder[: events - sum(counts)]:
        counts[i] += 1
    kinds = [kind for kind, count in zip(CHURN_EVENT_KINDS, counts) for _ in range(count)]
    rng.shuffle(kinds)
    low, high = profile.faults_per_event
    sizes = [low + i % (high - low + 1) for i in range(kinds.count("fault"))]
    rng.shuffle(sizes)
    stream = []
    rule_id = 0
    for seq, kind in enumerate(kinds, start=1):
        draw = rng.getrandbits(32)
        if kind == "policy-add":
            rule_id += 1
            stream.append(PolicyAdd(seq=seq, rule_id=rule_id, draw_seed=draw))
        elif kind == "policy-modify":
            stream.append(PolicyModify(seq=seq, draw_seed=draw))
        elif kind == "policy-remove":
            stream.append(PolicyRemove(seq=seq, draw_seed=draw))
        elif kind == "link-flap":
            ticks = rng.randint(*profile.flap_down_ticks)
            stream.append(LinkFlap(seq=seq, draw_seed=draw, down_ticks=ticks))
        elif kind == "switch-reboot":
            stream.append(SwitchReboot(seq=seq, draw_seed=draw))
        elif kind == "switch-drain":
            duration = rng.randint(*profile.drain_duration_events)
            stream.append(SwitchDrain(seq=seq, draw_seed=draw, duration_events=duration))
        else:
            stream.append(FaultBurst(seq=seq, draw_seed=draw, count=sizes.pop()))
    return stream


class PipelineSmall(Workload):
    name = "pipeline-small"
    setup_repeats = 5

    def operations(self) -> int:
        return max(10, round(self.seconds * EVENTS_PER_SECOND))

    def setup(self) -> None:
        self.service = service_for_profile("small")
        self.server = make_server_for(self.service, "127.0.0.1", 0)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.thread.start()
        self.service.controller.clock.tick(CHANGE_WINDOW + 1)
        profile = churn_profile_for("small", events=self.operations(), seed=self.seed)
        self.driver = ChurnDriver(self.service.controller, profile, monitor=self.service.monitor)
        self.stream = stratified_stream(profile, self.operations(), self.seed)
        self.monitor = self.service.monitor
        self.latency = Samples()
        self.detect = Samples()
        self.recover = Samples()
        self.poll_rtt = Samples()
        self.read_rtt = Samples()
        self.hits = [0, 0, 0]  # true positives, false positives, false negatives
        self.opened = 0
        self.resolved = 0
        self.suspects: List[list] = []

    def teardown(self) -> None:
        self.server.shutdown()
        self.thread.join(timeout=30)
        self.server.server_close()
        self.driver.close()
        self.service.close()

    def _request(self, span: str, method: str, path: str, body=None):
        payload = json.dumps(body).encode() if body is not None else None
        with self.tracer.span(span):
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
            try:
                conn.request(
                    method, path, body=payload, headers={"Content-Type": "application/json"}
                )
                response = conn.getresponse()
                data = response.read()
            finally:
                conn.close()
        return response.status, data

    def run_op(self, index: int, traced: bool) -> Optional[float]:
        event = self.stream[index]
        stats_before = self.monitor.stats() if traced else None
        start = time.perf_counter()
        record = self.driver.apply(event)
        self.driver.clock.tick()
        pending = self.monitor.pending_events()
        polled = time.perf_counter()
        poll_status, poll_body = self._request("service.poll", "POST", "/monitor/poll", {})
        read = time.perf_counter()
        read_status, read_body = self._request(
            "service.incidents", "GET", "/incidents?status=open"
        )
        end = time.perf_counter()

        elapsed = end - start
        self.latency.add(elapsed)
        self.poll_rtt.add(read - polled)
        self.read_rtt.add(end - read)
        ok = 200 <= poll_status < 300 and 200 <= read_status < 300
        monitor_pass = json.loads(poll_body).get("pass") if ok else None
        open_incidents = json.loads(read_body)["incidents"] if ok else []
        if event.kind == "fault" and "skipped" not in record:
            # Every burst breaks rules, and every run has the same number of
            # bursts; events that merely happen to open an incident mix
            # millisecond pushes with BDD rechecks and make a jumpy median.
            self.detect.add(elapsed)
        if monitor_pass is not None:
            if monitor_pass["resolved"]:
                self.recover.add(elapsed)
            self.opened += len(monitor_pass["opened"])
            self.resolved += len(monitor_pass["resolved"])
            self.suspects.append(
                [event.seq, [[i["switch_uid"], i["suspects"]] for i in monitor_pass["opened"]]]
            )
        if event.kind == "fault" and "skipped" not in record:
            self._score(record["objects"], record["switches"], open_incidents)
        if traced:
            stats = self.monitor.stats()
            self.count("online.switch_checks", stats["switch_checks"] - stats_before["switch_checks"])
            self.count(
                "online.digest_hits",
                stats["digest_short_circuits"] - stats_before["digest_short_circuits"],
            )
            self.count("online.bus_events", stats["events_seen"] - stats_before["events_seen"])
            self.peak("online.pending_max", pending)
            self.count("service.response_bytes", len(poll_body) + len(read_body))
        return elapsed if ok else None

    def _score(self, injected: List[str], touched: List[str], open_incidents: List[Dict]) -> None:
        """Incident placement after a fault burst, at switch granularity.

        The truth is every switch the burst touched that still misses a
        rule of an injected object; the verdict is every touched switch
        ``GET /incidents`` lists as open.
        """
        report = self.monitor.report()
        wanted = set(injected)
        truth: Set[str] = set()
        for switch_uid in touched:
            result = report.result_for(switch_uid)
            for rule in result.missing_rules if result is not None else ():
                if wanted.intersection(rule.objects()):
                    truth.add(switch_uid)
                    break
        flagged = {incident["switch_uid"] for incident in open_incidents} & set(touched)
        self.hits[0] += len(truth & flagged)
        self.hits[1] += len(flagged - truth)
        self.hits[2] += len(truth - flagged)

    def finish(self) -> Dict:
        record = self.driver.checkpoint(seq=self.stream[-1].seq + 1)
        self.digest.update(
            {
                "final_fingerprint": record.full_fingerprint,
                "incidents_opened": self.opened,
                "incidents_resolved": self.resolved,
                "hypotheses": self.suspects,
            }
        )
        if not record.ok:
            raise AssertionError(f"final checkpoint failed: {record.to_dict()}")
        timed = self.latency.total()
        return {
            "events_per_s": self.latency.count() / timed,
            "event_latency_p50_ms": self.latency.quantile(0.5) * 1e3,
            "event_latency_p95_ms": self.latency.quantile(0.95) * 1e3,
            "incident_read_p50_ms": self.read_rtt.quantile(0.5) * 1e3,
            "storm_detect_s": self.detect.quantile(0.5),
            "storm_recover_s": self.recover.quantile(0.5),
            "audit_s": self.poll_rtt.quantile(0.5),
            **self.accuracy(*self.hits),
        }

    def worker_pools(self) -> list:
        return self.monitor.worker_pools()
