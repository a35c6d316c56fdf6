"""The benchmark's workloads and the inputs each one is built from.

Every input comes from the workload seed: the scenario seed is the workload
seed itself.  A workload that reads its trace from CSV gets files written
by the repo's own `generate` stage from a synthetic recipe with the same
seed.  Nothing under `scenarios/` or `src/` is written; inputs go into the
run's own work directory.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path

# The trace recipe of scenarios/benchmark.cfg (5 hosts, 3-minute steps).
BENCHMARK_TRACE = """\
[trace]
source = synthetic
step_minutes = 3

[synthetic]
num_hosts = 5
num_days = {num_days}
base_load = 0.2
daily_amplitude = 0.15
noise_ar_coeff = 0.8
noise_sigma = 0.01
spike_prob_per_step = 0.002
spike_magnitude = 0.25
prediction_bias = -0.03
prediction_noise_sigma = 0.05
smoothing_window = 10
cpu_cores = 32
ram_gb = 128
"""

CSV_TRACE = """\
[trace]
source = csv
step_minutes = 3
trace_file = input/traces.csv
capacity_file = input/capacities.csv
"""

SWEEP_COMPARE = ", ".join([f"fixed:{pct / 100:g}" for pct in range(21)]
                          + ["feedback", "random", "scavenger"])

BASELINE = "fixed:0.05"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    `stages` are the CLI stages each pipeline pass runs, in order.  `lead`
    is the strategy whose net over the baseline's is reported as
    `lead_net_ratio`.  `learns` says whether the traced run must find the
    agent and nets layers busy or idle.  A workload with a `csv_recipe`
    reads its trace from CSV files generated from that synthetic scenario.
    """

    name: str
    stages: tuple[str, ...]
    lead: str
    learns: bool
    scenario: str
    csv_recipe: str | None = None

    @property
    def reads_csv(self) -> bool:
        return self.csv_recipe is not None

    def compare_kinds(self) -> set[str]:
        """Strategy kinds in the scenario's compare list."""
        line = next(ln for ln in self.scenario.splitlines() if ln.startswith("compare ="))
        return {token.strip().split(":")[0] for token in line.split("=", 1)[1].split(",")}

    def write_inputs(self, workdir: Path, seed: int) -> Path:
        """Write this workload's scenario, and the trace files it reads,
        into `workdir`; returns the scenario path."""
        workdir.mkdir(parents=True, exist_ok=True)
        if self.reads_csv:
            from marginsim.cli import main as cli_main

            recipe = workdir / "recipe.cfg"
            recipe.write_text(self.csv_recipe.format(seed=seed))
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(["generate", str(recipe), "--output-dir",
                                 str(workdir / "input")])
            if code != 0:
                raise RuntimeError(f"generating the {self.name} trace exited {code}")
        path = workdir / f"{self.name}.cfg"
        path.write_text(self.scenario.format(seed=seed))
        return path


WORKLOADS = {w.name: w for w in (
    # The learner carries the load: one shared agent per metric takes a
    # batch-128 update for every (host, metric, step) once warm, so most
    # of the time is agent/nets work.  Shape of scenarios/benchmark.cfg
    # (5 hosts, 3-minute steps, warmup 1000, its compare list) cut to one
    # training day and two test days so a pass takes seconds.
    Workload(
        name="train-shared",
        stages=("generate", "train", "evaluate"),
        lead="releaser",
        learns=True,
        scenario="""\
[scenario]
name = train-shared
seed = {seed}

""" + BENCHMARK_TRACE.format(num_days=3) + """
[strategies]
cpu = releaser
ram = releaser
compare = releaser, fixed:0.05, random, scavenger
baseline = fixed:0.05

[ddpg]
window = 10
learning_rate = 0.001
discount = 0.0
batch_size = 128
warmup_steps = 1000
replay_capacity = 20000
ou_theta = 0.15
ou_sigma = 0.3
target_update_days = 10
critic_loss = mse
train_fraction = 0.5
"""),
    # The learner does no work at all: no releaser, so no training and no
    # agent in evaluation.  The engine's per-step loop, the strategies, the
    # cost calls and report writing carry the load over 24 strategies (the
    # 21-point fixed sweep of scripts/sweep_fixed_margins.py plus feedback,
    # random and scavenger).  Learner changes should not move it; engine
    # changes show here first.  Its trace, the benchmark.cfg recipe over two
    # days, is read from CSV, so trace parsing is measured here and in
    # every stage's set-up.
    Workload(
        name="sweep-evaluate",
        stages=("generate", "evaluate"),
        lead="feedback",
        learns=False,
        scenario=f"""\
[scenario]
name = sweep-evaluate
seed = {{seed}}

{CSV_TRACE}
[strategies]
cpu = {BASELINE}
ram = {BASELINE}
compare = {SWEEP_COMPARE}
baseline = {BASELINE}

[ddpg]
train_fraction = 0.5
""",
        csv_recipe="""\
[scenario]
name = sweep-evaluate-trace
seed = {seed}

""" + BENCHMARK_TRACE.format(num_days=2)),
)}
