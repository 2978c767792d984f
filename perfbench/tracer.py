"""Span recording around the program's layer entry points.

The traced run replaces a fixed list of public functions and methods with
wrappers that record one span per call: name, start, end and the span that
was open when the call began.  Nothing inside ``src/`` records these spans;
the wrappers live here and are installed and removed around individual
timed operations, so a traced run can alternate traced and untraced
operations and measure its own overhead.

One stack of open spans is shared by every thread.  The only second thread
in any workload is the HTTP server of ``pipeline-small``, which handles a
request while the client thread is blocked waiting for the reply, so a
server-side span nests under the client's request span exactly as the
request caused it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: A span: [id, parent id (-1 for none), name, start, end, phase, attrs].
Span = list


class Tracer:
    """In-memory span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        self.installed = False
        #: ``"setup"`` or ``"timed"``; stamped on every span at open.
        self.phase = "setup"
        #: Wall-clock seconds of the timed operations that ran traced.
        self.traced_wall = 0.0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def open(self, name: str) -> Span:
        parent = self._stack[-1][0] if self._stack else -1
        record = [len(self.spans), parent, name, time.perf_counter(), 0.0, self.phase, None]
        self.spans.append(record)
        self._stack.append(record)
        return record

    def close(self, record: Span) -> None:
        record[4] = time.perf_counter()
        # Pop through to the record: an exception that skipped an inner close
        # must not leave a stale parent on the stack.
        while self._stack:
            if self._stack.pop() is record:
                break

    def span(self, name: str):
        """Span around one of the benchmark's own calls (no-op untraced)."""
        return _SpanContext(self, name) if self.installed else _NULL_CONTEXT

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def add(
        self,
        module: str,
        attr: str,
        name: str,
        on_result: Optional[Callable[[Span, tuple, Any], None]] = None,
    ) -> None:
        """Register ``module.attr`` (``Class.method`` allowed) for wrapping."""
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        self._patches.append((owner, leaf, original, self._wrap(original, name, on_result)))

    def _wrap(self, fn: Callable, name: str, on_result) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(record)
            if on_result is not None:
                on_result(record, args, result)
            return result

        return traced

    def install(self) -> None:
        if not self.installed:
            for owner, leaf, _original, wrapper in self._patches:
                setattr(owner, leaf, wrapper)
            self.installed = True

    def uninstall(self) -> None:
        if self.installed:
            for owner, leaf, original, _wrapper in self._patches:
                setattr(owner, leaf, original)
            self.installed = False

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def self_times(self) -> List[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [record[4] - record[3] for record in self.spans]
        for record in self.spans:
            if record[1] >= 0:
                own[record[1]] -= record[4] - record[3]
        return own

    def outermost(self, name: str, phase: str = "timed") -> List[Span]:
        """Spans matching ``name`` with no matching ancestor.

        A ``name`` ending in ``.`` matches every span under that prefix.
        """
        if name.endswith("."):
            matches = lambda span_name: span_name.startswith(name)  # noqa: E731
        else:
            matches = name.__eq__
        found = []
        for record in self.spans:
            if record[5] != phase or not matches(record[2]):
                continue
            parent = record[1]
            while parent >= 0 and not matches(self.spans[parent][2]):
                parent = self.spans[parent][1]
            if parent < 0:
                found.append(record)
        return found

    def total(self, name: str, phase: str = "timed") -> float:
        return sum(record[4] - record[3] for record in self.outermost(name, phase))

    def total_within(self, name: str, ancestor: str) -> float:
        """Time in ``name`` spans that run beneath an ``ancestor`` span."""
        seconds = 0.0
        for record in self.outermost(name):
            parent = record[1]
            while parent >= 0 and self.spans[parent][2] != ancestor:
                parent = self.spans[parent][1]
            if parent >= 0:
                seconds += record[4] - record[3]
        return seconds

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per-layer self time, calls and share of the traced wall clock."""
        own = self.self_times()
        table: Dict[str, Dict[str, float]] = {}
        for record, seconds in zip(self.spans, own):
            if record[5] != "timed":
                continue
            layer = record[2].split(".", 1)[0]
            row = table.setdefault(layer, {"self_s": 0.0, "calls": 0})
            row["self_s"] += seconds
            row["calls"] += 1
        for row in table.values():
            row["share"] = row["self_s"] / self.traced_wall if self.traced_wall else 0.0
        return table

    def coverage(self) -> float:
        """Share of the traced wall clock attributed to some named layer."""
        if not self.traced_wall:
            return 0.0
        return sum(row["self_s"] for row in self.layers().values()) / self.traced_wall

    def span_cost(self, calls: int = 20_000) -> float:
        """Seconds one wrapped call adds over a direct one, measured here."""

        def noop() -> None:
            return None

        wrapped = Tracer()._wrap(noop, "calibrate", None)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        direct = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        return max(0.0, (time.perf_counter() - start - direct) / calls)

    def write(self, path: Path) -> None:
        """Dump every span as JSON (written once, when the run ends)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {
                "id": record[0],
                "parent": record[1] if record[1] >= 0 else None,
                "name": record[2],
                "start": record[3],
                "end": record[4],
                "phase": record[5],
                **({"attrs": record[6]} if record[6] else {}),
            }
            for record in self.spans
        ]
        path.write_text(json.dumps({"spans": rows}) + "\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> Span:
        self.record = self.tracer.open(self.name)
        return self.record

    def __exit__(self, *exc_info: object) -> None:
        self.tracer.close(self.record)


class _NullContext:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_CONTEXT = _NullContext()


# ---------------------------------------------------------------------- #
# The layer entry points
# ---------------------------------------------------------------------- #
def _note_results(record: Span, args: tuple, report) -> None:
    """Per-engine ``[calls, rules]`` of a multi-switch verification call."""
    engines: Dict[str, List[int]] = {}
    for result in report.results.values():
        row = engines.setdefault(result.engine, [0, 0])
        row[0] += 1
        row[1] += result.logical_count + result.deployed_count
    record[6] = engines


def _note_switch(record: Span, args: tuple, result) -> None:
    record[6] = {result.engine: [1, result.logical_count + result.deployed_count]}


#: (module, attribute, span name, result hook).  Functions imported by name
#: into other modules are patched where they are looked up.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Any], ...] = (
    ("repro.verify.checker", "EquivalenceChecker.check_switch", "verify.check_switch", _note_switch),
    ("repro.verify.checker", "EquivalenceChecker.check_network", "verify.check_network", _note_results),
    ("repro.verify.checker", "EquivalenceChecker.check_many", "verify.check_many", _note_results),
    ("repro.parallel.pool", "WarmWorkerPool.map", "parallel.map", None),
    ("repro.online.monitor", "NetworkMonitor.start", "online.bootstrap", None),
    ("repro.online.monitor", "NetworkMonitor.poll", "online.poll", None),
    ("repro.online.delta", "IncrementalChecker.refresh", "online.refresh", None),
    ("repro.controller.controller", "Controller.deploy", "controller.deploy", None),
    ("repro.controller.controller", "Controller.build_index", "controller.index", None),
    ("repro.controller.controller", "Controller.logical_rules", "controller.compile", None),
    ("repro.controller.controller", "Controller.collect_deployed_rules", "controller.collect", None),
    ("repro.controller.channel", "ControlChannel.deliver", "controller.deliver", None),
    ("repro.core.system", "ScoutSystem.localize", "core.localize", None),
    ("repro.core.scout", "ScoutLocalizer.localize", "core.scout", None),
    ("repro.core.correlation", "EventCorrelationEngine.correlate", "core.correlate", None),
    ("repro.core.system", "build_controller_risk_model", "risk.build", None),
    ("repro.core.system", "build_switch_risk_model", "risk.build", None),
    ("repro.online.monitor", "build_switch_risk_model", "risk.build", None),
    ("repro.core.system", "augment_controller_model", "risk.augment", None),
    ("repro.core.system", "augment_controller_model_sharded", "risk.augment", None),
    ("repro.core.system", "augment_switch_model", "risk.augment", None),
    ("repro.online.monitor", "augment_switch_model", "risk.augment", None),
    ("repro.churn.driver", "ChurnDriver.apply", "churn.apply", None),
    ("repro.faults.injector", "FaultInjector.inject_random_faults", "faults.inject", None),
    ("repro.experiments.common", "DeployedWorkload.restore", "experiments.restore", None),
    ("repro.experiments.common", "generate_workload", "workloads.generate", None),
    ("repro.service.app", "generate_workload", "workloads.generate", None),
    ("repro.service.app", "ScoutService.handle", "service.handle", None),
)


def layer_tracer() -> Tracer:
    """A tracer with every layer entry point registered (not yet installed)."""
    tracer = Tracer()
    for module, attr, name, hook in ENTRY_POINTS:
        tracer.add(module, attr, name, hook)
    return tracer
