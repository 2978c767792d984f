"""Pieces every workload shares: the base class and sample statistics."""

from __future__ import annotations

from typing import Dict, List, Optional

from tracer import Tracer


class Samples:
    """Timings of one kind collected over a run."""

    def __init__(self) -> None:
        self.values: List[float] = []

    def add(self, value: float) -> None:
        self.values.append(value)

    def count(self) -> int:
        return len(self.values)

    def total(self) -> float:
        return sum(self.values)

    def mean(self) -> float:
        """Arithmetic mean; NaN for an empty sample."""
        return self.total() / len(self.values) if self.values else float("nan")

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile; NaN for an empty sample."""
        if not self.values:
            return float("nan")
        ordered = sorted(self.values)
        position = q * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Workload:
    """One benchmark workload: set-up, timed operations, final oracle.

    ``run_op`` performs one timed operation and returns its duration in
    seconds, or ``None`` when the operation's own check failed.  ``finish``
    runs the final oracle (raising on failure), fills :attr:`digest` and
    returns the end-to-end metrics other than ``setup_s`` and
    ``peak_rss_mb``.
    """

    name = ""
    setup_repeats = 1
    #: Start every operation from a fully collected heap, so that a full
    #: garbage collection falls at the same point of a long operation in
    #: every run.  Off for workloads of many short operations, where the
    #: collection would cost more than the operations it steadies.
    collect_before_ops = False

    def __init__(self, seed: int, seconds: int, tracer: Tracer) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        #: Deterministic facts of the run; printed as the run's digest.
        self.digest: Dict = {}
        #: Per-layer counters, accumulated over traced operations only.
        self.counters: Dict[str, float] = {}

    def operations(self) -> int:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def run_op(self, index: int, traced: bool) -> Optional[float]:
        raise NotImplementedError

    def finish(self) -> Dict[str, float]:
        raise NotImplementedError

    def worker_pools(self) -> list:
        """The program's warm worker pools this workload can reach."""
        return []

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    @staticmethod
    def accuracy(true_pos: int, false_pos: int, false_neg: int) -> Dict[str, float]:
        """Micro-averaged precision and recall over every scored verdict."""
        named = true_pos + false_pos
        actual = true_pos + false_neg
        return {
            "localization_precision": true_pos / named if named else float("nan"),
            "localization_recall": true_pos / actual if actual else float("nan"),
        }
