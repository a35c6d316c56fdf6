"""One workload in one process: write its inputs from the seed, run whole
pipeline passes for the given number of seconds, check every pass's
outputs, and write a JSON summary for `run.py`.

    python3 perfbench/child.py WORKLOAD SEED SECONDS TRACE WORKDIR SUMMARY

With TRACE 0 every pass runs untraced.  With TRACE 1 passes alternate
untraced and traced, so the summary holds the per-layer numbers of the
traced passes and the tracing overhead (traced minus untraced wall time).
Timings go to SUMMARY only, never into the marginsim output directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
from speed import SpeedProbe
from tracing import STRATEGY_CLASSES, Tracer
from workloads import BASELINE, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
STAGE_MIN_S = 2.0
STAGE_MAX_RUNS = 8


class Tally:
    """Attempted and failed stages and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, failures: list[str]) -> bool:
        self.attempted += 1
        if failures:
            more = f" (and {len(failures) - 5} more)" if len(failures) > 5 else ""
            self.failures.append(f"{name}: {'; '.join(failures[:5])}{more}")
        return not failures

    def check(self, name: str, fn, *args) -> None:
        try:
            failures = fn(*args)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            failures = [f"{type(exc).__name__}: {exc}"]
        self.record(name, failures)


def run_pass(cli_main, workload, scenario: Path, outdir: Path, tally: Tally,
             tracer: Tracer | None = None, probe: SpeedProbe | None = None,
             stage_min_s: float = 0.0) -> dict | None:
    """Run the workload's stages in order into `outdir`, check the outputs
    and delete them.  Returns None when a stage failed.

    With a `probe`, a stage's time is its speed-scaled time (see speed.py);
    otherwise, as under a `tracer`, its wall time.

    Then, round robin, every stage whose runs have taken less than
    `stage_min_s` in this pass runs again (stages are idempotent; at most
    STAGE_MAX_RUNS runs each).  Short stages so get several timing samples,
    taken both before and after the long ones.
    """
    stage_s: dict[str, list[float]] = {stage: [] for stage in workload.stages}
    stage_wall_s: dict[str, list[float]] = {stage: [] for stage in workload.stages}

    def short(stage):
        runs = stage_s[stage]
        return not runs or (sum(runs) < stage_min_s and len(runs) < STAGE_MAX_RUNS)

    while any(short(stage) for stage in workload.stages):
        for stage in filter(short, workload.stages):
            argv = [stage, str(scenario), "--output-dir", str(outdir)]
            start = perf_counter()
            timing = None
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    if tracer is not None:
                        with tracer.installed():
                            code = cli_main(argv)
                    elif probe is not None:
                        code, timing = probe.time(cli_main, argv)
                    else:
                        code = cli_main(argv)
                except Exception:  # a crashing stage is a failed stage, not a crashed run
                    traceback.print_exc()
                    code = "exception"
            wall_s = perf_counter() - start
            stage_s[stage].append(timing.scaled_s if timing else wall_s)
            stage_wall_s[stage].append(timing.wall_s if timing else wall_s)
            if not tally.record(f"{stage} exits 0", [] if code == 0 else [f"exit {code}"]):
                return None
    tally.check("totals recompute", checks.check_totals, outdir, BASELINE)
    tally.check("margin summary recomputes", checks.check_margin_summary, outdir,
                workload.lead)
    tally.check("baseline matches the reference settlement", checks.check_fixed_ledger,
                outdir, BASELINE)
    result = {
        "stage_s": stage_s,
        "stage_wall_s": stage_wall_s,
        "pass_s": sum(statistics.median(runs) for runs in stage_s.values()),
        "sha256": checks.tree_sha256(outdir),
        "host_steps": host_steps(outdir),
        "ratios": {label: [row["net_ratio"], row["penalty_ratio"]]
                   for label, row in checks.read_comparison(outdir).items()},
    }
    shutil.rmtree(outdir)
    return result


def host_steps(outdir: Path) -> dict[str, int]:
    """Simulated (host, step) pairs per stage, counted from the outputs."""
    def data_rows(path):
        with path.open() as fh:
            return sum(1 for _ in fh) - 1

    hosts = data_rows(outdir / "capacities.csv")
    counts = {"generate": data_rows(outdir / "traces.csv") // 2}
    if (outdir / "training_log.csv").is_file():
        counts["train"] = data_rows(outdir / "training_log.csv") * hosts
    evaluated = 0
    for report in (outdir / "reports").glob("*/report.json"):
        data = json.loads(report.read_text())
        evaluated += len(data["ledger"]) * (1440 // data["step_minutes"])
    counts["evaluate"] = evaluated
    return counts


def probe_setup(scenario: Path, tally: Tally) -> dict | None:
    """The seconds one fresh process takes to import marginsim, load the
    scenario and build its datacenter, speed-scaled (`setup_s`) and wall
    (`setup_wall_s`); None if it failed.  This process only waits
    meanwhile, so the load stays on one core."""
    try:
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(scenario)],
                              capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        tally.record("set-up probe", ["ran out of time"])
        return None
    problems = [f"exit {done.returncode}: {done.stderr.strip()[-500:]}"] if done.returncode else []
    if not problems:
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        if not Path(probe["module"]).resolve().is_relative_to(SRC):
            problems = [f"marginsim imported from {probe['module']}"]
    return None if not tally.record("set-up probe", problems) else probe


def coverage(workload, m: dict, missing: set[str]) -> list[str]:
    """Which layers the traced pass must find busy or idle, and the
    identities between counters that hold when every call site is traced."""
    compare = workload.compare_kinds()
    busy = {
        "config.load_scenario.calls": True,
        "traces.generate_synthetic.calls": not workload.reads_csv,
        "traces.load_traces.calls": workload.reads_csv,
        "traces.load_traces.rows": workload.reads_csv,
        "traces.write_traces.calls": True,
        "traces.error_cdf.calls": True,
        "engine.run.calls": True,
        "engine.host_steps": True,
        **{f"strategies.{kind}.calls": kind in compare for kind in STRATEGY_CLASSES},
        "costs.containers_fitting.calls": True,
        "costs.accumulate_violation.calls": True,
        "costs.settle_day.calls": True,
        "reporting.build_report.calls": True,
        "reporting.write_report_files.calls": True,
        "reporting.write_comparison.calls": True,
        "reporting.bytes_written": True,
    }
    for name in ("agent.act.calls", "agent.warmup_actions", "agent.store_and_learn.calls",
                 "agent.updates", "agent.replay_sample.calls", "agent.save.calls",
                 "agent.load.calls", "nets.forward_trace.calls", "nets.backward.calls",
                 "nets.adam_step.calls", "reporting.write_training_log.calls"):
        busy[name] = workload.learns
    failures = [f"{name} is {m[name]}, expected {'non-zero' if want else 'zero'}"
                for name, want in busy.items() if bool(m[name]) != want]
    identities = {
        "agent.updates == updates reported by store_and_learn":
            m["agent.updates"] == m["agent.updates_reported"],
        "agent.replay_sample.calls == agent.updates + agent.skipped_nonfinite":
            m["agent.replay_sample.calls"] == m["agent.updates"] + m["agent.skipped_nonfinite"],
        "costs.accumulate_violation.calls == engine.host_steps":
            m["costs.accumulate_violation.calls"] == m["engine.host_steps"],
        "strategy selections == 2 * engine.host_steps":
            sum(m[f"strategies.{k}.calls"] for k in STRATEGY_CLASSES)
            == 2 * m["engine.host_steps"],
        "every update runs the same number of forward passes":
            float(m["nets.forward_passes_per_update"]).is_integer(),
    }
    failures += [f"{name} does not hold" for name, ok in identities.items() if not ok]
    return failures + [f"{name} no longer exists to trace" for name in sorted(missing)]


def counts_only(m: dict) -> dict:
    return {k: v for k, v in m.items() if not k.endswith((".s", ".self_s"))}


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, workdir, summary_path = argv
    seed, seconds, traced = int(seed), float(seconds), trace == "1"
    workload = WORKLOADS[name]
    workdir = Path(workdir)
    scenario = workload.write_inputs(workdir, seed)

    from marginsim.cli import main as cli_main

    tally = Tally()
    probe = SpeedProbe()
    plain: list[dict] = []
    with_trace: list[tuple[dict, Tracer]] = []
    start = perf_counter()
    rounds: list[float] = []
    setups: list[dict] = []
    while True:
        round_start = perf_counter()
        result = run_pass(cli_main, workload, scenario, workdir / "out", tally,
                          probe=None if traced else probe,
                          stage_min_s=0.0 if traced else STAGE_MIN_S)
        if result is None:
            break
        plain.append(result)
        if traced:
            tracer = Tracer()
            result = run_pass(cli_main, workload, scenario, workdir / "out", tally, tracer)
            if result is None:
                break
            with_trace.append((result, tracer))
        rounds.append(perf_counter() - round_start)
        if not traced:
            setup = probe_setup(scenario, tally)
            if setup is not None:
                setups.append({k: setup[k] for k in ("setup_s", "setup_wall_s")})
        # Stop before a round that would end after `seconds`, after two at least.
        elapsed = perf_counter() - start
        if len(rounds) >= 2 and elapsed + statistics.median(rounds) > seconds:
            break

    passes = plain + [r for r, _ in with_trace]
    for i, result in enumerate(passes[1:], start=1):
        tally.record(f"pass {i} output sha256 equals pass 0's",
                     [] if result["sha256"] == passes[0]["sha256"] else ["differs"])
    first_counts = counts_only(with_trace[0][1].metrics()) if with_trace else None
    for i, (_, tracer) in enumerate(with_trace[1:], start=1):
        tally.record(f"traced pass {i} counts equal traced pass 0's",
                     [] if counts_only(tracer.metrics()) == first_counts else ["differ"])

    summary = {
        "workload": name,
        "seed": seed,
        "passes": [{k: r[k] for k in ("stage_s", "stage_wall_s", "pass_s", "host_steps")}
                   for r in passes],
        "sha256": passes[0]["sha256"] if passes else None,
        "ratios": passes[0]["ratios"] if passes else None,
        "versions": versions(),
        "setup_samples": setups,
    }
    if plain and (with_trace or not traced):
        summary["metrics"] = (layer_metrics(workload, plain, with_trace, tally) if traced
                              else end_to_end_metrics(workload, plain, setups))
    summary["attempted"] = tally.attempted
    summary["failures"] = tally.failures
    Path(summary_path).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


def median_of(passes: list[dict], stage: str, key: str = "stage_s") -> float:
    return statistics.median(t for p in passes for t in p[key][stage])


def end_to_end_metrics(workload, passes: list[dict], setups: list[dict]) -> dict:
    # Stage and set-up times are medians of speed-scaled times (speed.py);
    # the medians of the wall times are kept beside them, unbounded.
    stage_s = {stage: median_of(passes, stage) for stage in workload.stages}
    wall_s = {stage: median_of(passes, stage, "stage_wall_s") for stage in workload.stages}
    ratios = passes[0]["ratios"]
    m = {
        "generate_s": stage_s["generate"],
        "evaluate_s": stage_s["evaluate"],
        "pipeline_s": sum(stage_s.values()),
        **{f"{stage}_wall_s": wall_s[stage] for stage in workload.stages},
        "pipeline_wall_s": sum(wall_s.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "lead_net_ratio": ratios[workload.lead][0],
    }
    if setups:
        for key in ("setup_s", "setup_wall_s"):
            m[key] = statistics.median(setup[key] for setup in setups)
    if "train" in stage_s:
        m["train_s"] = stage_s["train"]
    if "releaser" in ratios:
        m["releaser_net_ratio"], m["releaser_penalty_ratio"] = ratios["releaser"]
    return m


def layer_metrics(workload, plain: list[dict], with_trace: list[tuple[dict, Tracer]],
                  tally: Tally) -> dict:
    traced_passes = [r for r, _ in with_trace]
    layer_runs = [tracer.metrics() for _, tracer in with_trace]
    m = dict(layer_runs[-1])
    for key in m:
        if key.endswith((".s", ".self_s")):
            m[key] = statistics.median(run[key] for run in layer_runs)
    for stage in ("generate", "train", "evaluate"):
        m[f"cli.{stage}.s"] = (median_of(traced_passes, stage)
                               if stage in workload.stages else 0.0)
    untraced = statistics.median(p["pass_s"] for p in plain)
    m["trace.overhead_s"] = statistics.median(p["pass_s"] for p in traced_passes) - untraced
    m["trace.overhead_share"] = m["trace.overhead_s"] / untraced
    tally.record("traced layers match the workload",
                 coverage(workload, m, with_trace[-1][1].missing))
    return m


def versions() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
