#!/usr/bin/env python3
"""The marginsim benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined, with the reason each exists, in workloads.py:
train-shared, sweep-evaluate and fleet-per-host.

A run writes the workload's inputs from the seed, then runs whole CLI
pipeline passes (generate, [train,] evaluate) in one fresh child process
for about S seconds, with BLAS and OpenMP pinned to one thread.  Every pass
is checked: each stage exits 0, report totals recompute from their ledgers,
comparison.csv agrees with the reports, the baseline's ledger matches a
straight-line reference settlement, and every pass's output tree has the
same sha256.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: stage times
are medians over the run, and set-up time is the median over fresh
processes, one after each pass, that each import marginsim, load the
scenario and build its datacenter.  All of them are speed-scaled for the
machine's changing speed (see speed.py); wall-time medians are recorded
beside them.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (see tracing.py) and the tracing overhead, and
checks that every layer the workload should use was used and every layer it
should bypass was not.

The last line on stdout is {"correct", "attempted", "failed", "metrics"}.
A readable table and the run manifest go to stderr, and the whole record
to .perfbench-runs/results/<workload>-seed<N>-trace<T>.json.  Exit status
is 0 only when every stage and check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
RUNS = ROOT / ".perfbench-runs"
CHILD_LIMIT_S = 160.0  # so the whole run ends before 180 s
# Recorded with every untraced run but not bounded: sweep-evaluate has no
# train stage and no releaser, the releaser's penalty can be 0, and wall
# times swing with the load of the host's other tenants (see speed.py).
EXTRA_UNITS = {"train_s": "s", "releaser_net_ratio": "ratio", "releaser_penalty_ratio": "ratio",
               **{f"{name}_wall_s": "s" for name in ("setup", "generate", "train", "evaluate",
                                                     "pipeline")}}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def child_env() -> dict[str, str]:
    """The caller's environment with marginsim taken from this checkout and
    every BLAS/OpenMP pool held to one thread: the nets' matrices are at
    most 128 x 33, too small for threads to pay, and one thread keeps the
    load at one core whatever the caller's shell sets."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "marginsim" / "__init__.py").is_file():
        print(f"error: no marginsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RUNS / f"work-{tag}-{os.getpid()}"
    try:
        summary = run_child(args, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if summary is None:
        return 1
    failures = summary["failures"]
    attempted = summary["attempted"]
    values = summary.get("metrics", {})

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not failures:
        failures.append(f"no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        **summary["versions"],
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {var: env[var] for var in THREAD_VARS},
        "platform": platform.platform(),
        "passes": len(summary["passes"]),
        "host_steps_per_stage": summary["passes"][0]["host_steps"] if summary["passes"] else None,
        "output_sha256": summary["sha256"],
    }
    record = {
        "manifest": manifest,
        "result": result,
        "failed_share": len(failures) / attempted if attempted else 1.0,
        "failures": failures,
        "extra_metrics": {k: v for k, v in values.items() if k not in metrics},
        "setup_samples": summary["setup_samples"],
        "passes": summary["passes"],
        "comparison_ratios": summary["ratios"],
    }
    (RUNS / "results").mkdir(parents=True, exist_ok=True)
    (RUNS / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    shown = {name: (entry["value"], entry["unit"]) for name, entry in metrics.items()}
    shown.update({name: (values[name], unit) for name, unit in EXTRA_UNITS.items()
                  if name in values and not args.trace})
    for name, (value, unit) in shown.items():
        print(f"{name:40s} {value:>14.6g} {unit}", file=sys.stderr)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"failed_share {record['failed_share']:.6g} "
          f"({len(failures)} of {attempted} stages and checks)", file=sys.stderr)
    print("manifest " + json.dumps(manifest), file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_child(args, workdir: Path, env: dict) -> dict | None:
    """Run the workload in one fresh process; its summary, or None when it
    could not produce one."""
    summary_path = workdir / "summary.json"
    workdir.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(HERE / "child.py"), args.workload, str(args.seed),
               str(args.seconds), str(args.trace), str(workdir), str(summary_path)]
    # Its own session, so a timeout stops the set-up probe it may be waiting
    # on too.  Its stdout carries nothing for us; keep it off ours.
    child = subprocess.Popen(command, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = child.wait(timeout=CHILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print("error: the workload process ran out of time", file=sys.stderr)
        return None
    if code != 0 or not summary_path.is_file():
        print(f"error: the workload process exited with {code}", file=sys.stderr)
        return None
    return json.loads(summary_path.read_text())


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_sha256() -> str:
    """Digest of the package sources, which names the code measured even in
    a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "marginsim").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
