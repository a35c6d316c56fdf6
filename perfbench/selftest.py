#!/usr/bin/env python3
"""Self-test of the benchmark harness, at the shortest run length.

    python3 perfbench/selftest.py

For every workload it runs run.py untraced and traced with --seconds 1 and
checks that the run passed, that every end-to-end and per-layer metric of
BENCHMARK.json printed with its unit, that end-to-end values are non-zero,
and that the traced counters agree with what the run did (updates counted
at `_update` equal the updates `store_and_learn` reported, one replay sample
per update, the same whole number of forward passes in every update).  It
then checks that run.py refuses to produce a result in a directory holding
only BENCHMARK.json and the benchmark's files.  Takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench-runs"
SEED = 1


def run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    done = run(workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}\n{done.stderr[-2000:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: not correct ({result['failed']} failed)")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"{where}: {m['name']} missing or without unit {m['unit']}")
        elif not trace and not got["value"] > 0:
            problems.append(f"{where}: {m['name']} is {got['value']}")
    if trace and not problems:
        record = json.loads((RUNS / "results" / f"{workload}-seed{SEED}-trace1.json").read_text())
        value = {name: entry["value"] for name, entry in metrics.items()}
        value.update(record["extra_metrics"])
        if value["agent.updates"] != value["agent.updates_reported"]:
            problems.append(f"{where}: agent.updates != updates store_and_learn reported")
        if value["agent.replay_sample.calls"] != value["agent.updates"]:
            problems.append(f"{where}: agent.replay_sample.calls != agent.updates")
        passes = value["nets.forward_passes_per_update"]
        if value["agent.updates"] and not (passes >= 1 and float(passes).is_integer()):
            problems.append(f"{where}: nets.forward_passes_per_update is {passes}")
        print(f"{workload}: {value['agent.updates']} updates, "
              f"{passes:g} forward passes per update", file=sys.stderr)
    return problems


def check_bare_directory(spec: dict) -> list[str]:
    """Without the package sources run.py must fail and print no result."""
    bare = RUNS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run("train-shared", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_directory(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(workload, trace, spec)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
