"""Reduced-scale smoke test of the benchmark itself.

Run from the repository root (about two minutes on two cores)::

    python3 perfbench/smoke.py

It checks that ``BENCHMARK.json`` matches ``catalog.py``, that every
workload emits every metric with its unit in both modes and passes its
oracles, that two runs with one seed print one digest, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from catalog import END_TO_END, LAYER_EFFECTS, WORKLOADS, per_layer  # noqa: E402

#: ``--seconds`` per workload: enough work for every metric to have a sample.
SMOKE_SECONDS = {"pipeline-small": 4, "storm-simulation": 1, "audit-production": 1}
SEED = 7


def run(workload: str, seconds: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace),
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_manifest() -> None:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest["command"] == ["python3", "perfbench/run.py"], manifest["command"]
    assert manifest["paths"] == ["perfbench"], manifest["paths"]
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == list(WORKLOADS.items())
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]
    ] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == per_layer()
    names = {name for name, *_ in per_layer()} | {"verify.*"}
    for key, effects in LAYER_EFFECTS.items():
        assert set(key.split()) <= names, key
        assert set(effects) <= set(WORKLOADS), key
        for moved in effects.values():
            assert set(moved) <= {name for name, *_ in END_TO_END}, moved


def check_output(workload: str, trace: int, done: subprocess.CompletedProcess) -> str:
    label = f"{workload} --trace {trace}"
    assert done.returncode == 0, f"{label} exited {done.returncode}:\n{done.stderr}"
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {result}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    expected = (
        {name: unit for name, unit, _b, _bound in END_TO_END}
        if trace == 0
        else {name: unit for name, unit, _b in per_layer()}
    )
    metrics = result["metrics"]
    assert set(metrics) == set(expected), f"{label}: {set(metrics) ^ set(expected)}"
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit, f"{label}: {name} unit {metrics[name]}"
        value = metrics[name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{label}: {name}"
        if trace == 0:
            assert value > 0, f"{label}: {name} is {value}"
    if trace == 1:
        assert metrics["trace.coverage"]["value"] >= 0.9, f"{label}: coverage"
    return next(line for line in lines if line.startswith("digest: "))


def check_bare_directory() -> None:
    """Without ``src/`` the benchmark must fail fast and print no result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for source in HERE.glob("*.py"):
        shutil.copy(source, bare / "perfbench")
    done = run("pipeline-small", 1, 0, cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0, "benchmark ran without the program"
    assert '"metrics"' not in done.stdout, "benchmark printed a result without the program"


def main() -> int:
    check_manifest()
    print("manifest matches catalog")
    check_bare_directory()
    print("bare directory refused")
    for workload, seconds in SMOKE_SECONDS.items():
        # The traced run must reproduce the untraced run's digest: one seed,
        # one result, whether or not the layers are wrapped.
        digests = {check_output(workload, trace, run(workload, seconds, trace)) for trace in (0, 1)}
        assert len(digests) == 1, f"{workload}: digests differ for one seed: {digests}"
        print(f"{workload}: every metric emitted, oracles pass, {digests.pop()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
