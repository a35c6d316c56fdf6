"""The day-by-day simulator: replay a trace under margin strategies.

Each day starts by showing every strategy the day's error and usage windows
(`start_day`), read-only views of the zero-padded histories, from which the
strategy answers the whole day's margins in one call.  Each window at step t
ends at step t-1, so no margin sees the step it covers.  Then the engine
reads one metric's whole day back with `select(host_id, step)`, host by
host, before the other metric's.  Once a day's margins are collected, the
day settles from arrays: containers are fit into each step's remaining
headroom, and each step is checked for a violation (actual usage above
prediction plus margin on either metric), which advances that host-day's
violation clock.  Days settle independently: violation clocks reset at
midnight, strategy and agent state carry across.

A learned strategy that explores learns from each day once it has settled:
the engine attributes the day's penalty back onto its per-step rewards and
hands them, with the day's error windows, to the strategy's `end_day`, so
the reward an agent sees is consistent with what the day actually earned.
When both metrics learn and two cores are free, their `end_day` calls run
side by side: the CPU learner's in a child forked for that day, and the RAM
learner's here.  The child writes its agents' parameters, optimizer moments
and replay rows into memory it shares with the parent (each agent's arena)
and sends back its losses and its agents' few scalars, which the parent
sets.  So every next day starts from the state that learning in one
process leaves, and the outputs keep their bytes.  The step length is the
trace's own.

`side_by_side` is the package's one way to use more than one core: it
forks a child per task but the last, pipes each child's result back, and
reaps (or, when something fails, kills and reaps) every child.  The
learners above use it, generate to write its trace, and evaluate to write
its reports.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np
from numpy.lib.stride_tricks import as_strided

from marginsim.costs import (
    CostModel,
    DayLedger,
    accumulate_violation,
    containers_fitting,
    settle_day,
)
from marginsim.errors import DomainError, MarginSimError
from marginsim.strategies import LearnedMargin, MarginStrategy
from marginsim.traces import Datacenter, MetricKind

METRICS = (MetricKind.CPU, MetricKind.RAM)

REWARD_ATTRIBUTIONS = ("violation_spread", "day_end_lump")  # the first is the default


@dataclass(frozen=True)
class SimulationConfig:
    """One run: day range, the global seed, and how a day's penalty reaches
    the rewards of the agents that learn."""

    seed: int
    day_range: tuple[int, int]
    reward_attribution: str = REWARD_ATTRIBUTIONS[0]

    def validate(self) -> None:
        lo, hi = self.day_range
        if lo < 0 or hi <= lo:
            raise DomainError(f"day_range {self.day_range} must be a non-empty [start, end)")
        if self.reward_attribution not in REWARD_ATTRIBUTIONS:
            raise DomainError(
                f"reward_attribution must be one of {REWARD_ATTRIBUTIONS}, "
                f"got {self.reward_attribution!r}")


@dataclass
class StepLogRow:
    """Per-step training aggregates across hosts and metrics."""

    step_index: int
    critic_loss: float
    mean_reward: float
    mean_margin: float


@dataclass
class RunResult:
    """Settled host-days and every margin chosen: `margins[i, j, r]` is the
    margin of host `dc.hosts[i]` on metric `METRICS[j]` at step `start_step + r`."""

    ledgers: list[DayLedger]
    margins: np.ndarray
    start_step: int
    step_log: list[StepLogRow] = field(default_factory=list)


def train_test_split(dc: Datacenter, train_fraction: float) -> tuple[tuple[int, int], tuple[int, int]]:
    """Chronological day split; both sides are non-empty."""
    if not (0.0 < train_fraction < 1.0):
        raise DomainError(f"train_fraction must be in (0, 1), got {train_fraction}")
    days = dc.num_days()
    if days < 2:
        raise DomainError(f"need at least 2 days to split, trace has {days}")
    train_days = min(max(int(math.floor(days * train_fraction)), 1), days - 1)
    return (0, train_days), (train_days, days)


def reward_scale_for(dc: Datacenter, cost: CostModel) -> float:
    """Normalization constant: one step's earnings on the roomiest empty host."""
    best = max(int(containers_fitting(cost, h.spec, 1.0, 1.0)) for h in dc.hosts)
    return cost.price_per_minute * dc.step_minutes * max(best, 1)


def run(dc: Datacenter, cost: CostModel, sim: SimulationConfig,
        strategies: dict[MetricKind, MarginStrategy]) -> RunResult:
    """Replay `dc` over `sim.day_range` under the given per-metric strategies.

    Margins at step t are chosen from windows ending at t-1 (front-padded
    with zeros at the start of the range), so there is no lookahead.  Each
    learned strategy that explores gets every settled day's rewards, the
    penalty attributed per `sim.reward_attribution`, through `end_day`, and
    its losses make the step log; every other strategy only acts.
    """
    dc.validate()
    cost.validate()
    sim.validate()
    lo, hi = sim.day_range
    if hi > dc.num_days():
        raise DomainError(f"day_range {sim.day_range} exceeds trace days {dc.num_days()}")
    if set(strategies) != set(METRICS):
        raise DomainError("need exactly one strategy per metric")

    strats = [strategies[m] for m in METRICS]
    learning = [j for j, strat in enumerate(strats)
                if isinstance(strat, LearnedMargin) and strat.explore]

    spd = dc.steps_per_day
    ts = dc.step_minutes
    ppm = cost.price_per_minute
    hosts = dc.hosts
    start = lo * spd
    usage = np.array([[h.series[m]["usage"][start:hi * spd] for m in METRICS] for h in hosts])
    pred = np.array([[h.series[m]["prediction"][start:hi * spd] for m in METRICS]
                     for h in hosts])
    # Histories front-padded with `pad` zeros: metric j's window ending at
    # range step r-1 is entries [first[j] + r, pad + r), row r of its window view.
    sizes = [strat.window_size for strat in strats]
    pad = max(sizes)
    if pad > dc.num_days() * spd:
        raise DomainError(f"strategy window {pad} is longer than the trace's "
                          f"{dc.num_days() * spd} steps")
    first = [pad - size for size in sizes]
    zeros = np.zeros((len(hosts), 2, pad))
    error_hist = np.concatenate([zeros, usage - pred], axis=2)
    usage_hist = np.concatenate([zeros, usage], axis=2)
    windows = [(window_view(error_hist[:, j, first[j]:], size),
                window_view(usage_hist[:, j, first[j]:], size))
               for j, size in enumerate(sizes)]
    margins = np.zeros(usage.shape)
    selects = [strat.select for strat in strats]
    specs = [host.spec for host in hosts]
    host_ids = [spec.host_id for spec in specs]
    day_steps = range(spd)

    ledgers: list[DayLedger] = []
    step_log: list[StepLogRow] = []

    for day in range(lo, hi):
        day_start = (day - lo) * spd
        span = slice(day_start, day_start + spd)
        for strat, (error_windows, usage_windows) in zip(strats, windows):
            strat.start_day(host_ids, error_windows[:, span], usage_windows[:, span])
        for j, select in enumerate(selects):
            margins[:, j, span] = [list(map(select, repeat(hid, spd), day_steps))
                                   for hid in host_ids]

        # The day settles from arrays, indexed (host, metric, step).
        m, p, u = margins[:, :, span], pred[:, :, span], usage[:, :, span]
        headroom = 1.0 - p - m
        violated = (p + m - u < 0).any(axis=1).tolist()
        containers = [containers_fitting(cost, spec, h_cpu, h_ram)
                      for spec, (h_cpu, h_ram) in zip(specs, headroom)]
        penalties = []
        for i, hid in enumerate(host_ids):
            minutes = 0
            for flag in violated[i]:
                minutes = accumulate_violation(minutes, flag, ts)
            settled = settle_day(cost, containers[i], minutes, ts)
            penalties.append(settled.penalty)
            ledgers.append(DayLedger(hid, day, minutes,
                                     settled.potential_saving, settled.penalty,
                                     settled.net_saving))

        if learning:
            rewards = [_attribute_rewards(sim.reward_attribution,
                                          (containers[i] * ppm * ts).tolist(),
                                          violated[i], penalties[i])
                       for i in range(len(hosts))]
            # The day's windows plus the one that ends at its last step; the
            # losses, (step, host, learned metric), flatten in (host, metric) order.
            rows = slice(day_start, day_start + spd + 1)
            day_losses = np.stack(
                _end_days([(METRICS[j], strats[j], windows[j][0][:, rows]) for j in learning],
                          rewards), axis=-1).reshape(spd, -1)
            for k, losses in enumerate(day_losses):
                r = day_start + k
                losses = losses[~np.isnan(losses)]
                step_log.append(StepLogRow(
                    start + r,
                    float(np.mean(losses)) if losses.size else math.nan,
                    float(np.mean([host_rewards[k] for host_rewards in rewards])),
                    # ravel copies in selection order, so the sum runs in that order
                    float(np.mean(margins[:, :, r].ravel()))))

    return RunResult(ledgers, margins, start, step_log)


def usable_cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def processes_for(tasks: int) -> int:
    """How many processes `tasks` independent tasks run in: one per usable
    core, at most one per task, and one where `os.fork` does not exist."""
    return min(tasks, usable_cores()) if hasattr(os, "fork") else 1


def side_by_side(tasks: list, run, name) -> list:
    """`run(task)` for every task, results in task order, side by side:
    with p = `processes_for(len(tasks))`, each of the first p - 1 tasks runs
    in a child forked for it, and the rest run here.

    A child pipes its task's result back pickled; what it changes in its
    memory stays its own, except in memory shared before the fork.  The
    child leaves by `os._exit`, so it never returns into this
    process's frames, exit handlers or buffered output.  A child that fails
    or dies fails the call with a MarginSimError that begins with
    `name(task)` (and names the signal that killed it); every child is
    reaped, and killed first if this process fails.  Where
    `os.sched_setaffinity` exists, each process keeps to a core of its own
    while the tasks run, and this process gets its cores back after.
    """
    forked = processes_for(len(tasks)) - 1
    children = []  # (pid, task, read end), in task order
    # Each process runs on a core of its own: left alone, the scheduler can
    # keep a short-lived child on its parent's core for all of its life.
    cpus = sorted(os.sched_getaffinity(0)) if forked and hasattr(os, "sched_setaffinity") else []
    try:
        if cpus:
            os.sched_setaffinity(0, {cpus[forked % len(cpus)]})
        for i, task in enumerate(tasks[:forked]):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _run_in_child(run, task, write_fd, cpus[i % len(cpus)] if cpus else None)
            os.close(write_fd)
            children.append((pid, task, open(read_fd, "rb")))
        own = [run(task) for task in tasks[forked:]]
        results = []
        while children:
            results.append(_collect(*children.pop(0), name))
        return results + own
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)
        if children:
            import signal  # only on failure: nothing else loads it
            for pid, _, src in children:
                src.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _run_in_child(run, task, write_fd: int, cpu: int | None):
    """A forked child's whole life: move to core `cpu` (if given), run
    `run(task)`, write its outcome (an error message or the result) to
    `write_fd` and leave by `os._exit`."""
    status = 1
    try:
        with open(write_fd, "wb") as out:
            try:
                if cpu is not None:
                    os.sched_setaffinity(0, {cpu})
                result = run(task)
                error = None
            except Exception as exc:
                error, result = f"{type(exc).__name__}: {exc}", None
            pickle.dump((error, result), out, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _collect(pid: int, task, src, name):
    """Read a child's outcome from `src`, reap the child and return the
    task's result; raise MarginSimError, led by `name(task)`, if it failed."""
    try:
        with src:
            error, result = pickle.load(src)
    except (EOFError, pickle.UnpicklingError):
        error = "it ended before sending its result"
    finally:
        # A child still writing stops at the closed pipe.
        _, status = os.waitpid(pid, 0)
    if os.WIFSIGNALED(status):
        import signal  # only on failure: nothing else loads it
        error = f"killed by {signal.Signals(os.WTERMSIG(status)).name}"
    if error is not None:
        raise MarginSimError(f"{name(task)} process failed: {error}")
    return result


def _end_days(learners, rewards) -> list[np.ndarray]:
    """Each learner's `end_day(windows, rewards)` losses, in order; a
    learner is a (metric, LearnedMargin, windows) triple.

    The learners share no state, so they learn `side_by_side`.  A learner
    in a child writes its agents' arrays in their arenas, which this
    process shares; it sends back its losses and its agents' `scalars`,
    which are set here (in the workspace `build_pool` built), so every
    agent holds what learning here would have left.
    """
    def learn(learner):
        _, strat, windows = learner
        losses = strat.end_day(windows, rewards)
        return losses, [agent.scalars for agent in strat.pool.agents.values()]

    results = side_by_side(learners, learn, lambda learner: f"{learner[0].value} learner")
    for (_, strat, _), (_, scalars) in zip(learners, results):
        for agent, values in zip(strat.pool.agents.values(), scalars):
            agent.scalars = values
    return [losses for losses, _ in results]


def window_view(hist: np.ndarray, size: int) -> np.ndarray:
    """`sliding_window_view(hist, size, axis=-1)`: the read-only view whose
    row r is `hist[..., r:r + size]`.  Built with as_strided because
    sliding_window_view's first call runs integer ufunc loops that page
    about 0.2 MB more of numpy into the process."""
    *lead, n = hist.shape
    return as_strided(hist, shape=(*lead, n - size + 1, size),
                      strides=hist.strides + hist.strides[-1:], writeable=False)


def _attribute_rewards(attribution: str, rewards: list[float], violated: list[bool],
                       penalty: float) -> list[float]:
    """Fold a host-day's settled penalty back into its per-step rewards.

    violation_spread divides the penalty equally over the steps that
    violated (their choices caused it); day_end_lump subtracts the whole
    penalty from the final step, leaving earlier rewards untouched.  Either
    way a day's rewards sum to its net saving.
    """
    rewards = list(rewards)
    if penalty > 0:
        if attribution == "violation_spread":
            violated_idx = [k for k, v in enumerate(violated) if v]
            share = penalty / len(violated_idx)
            for k in violated_idx:
                rewards[k] -= share
        else:
            rewards[-1] -= penalty
    return rewards


@dataclass
class ComparisonRow:
    strategy: str
    potential: float
    penalty: float
    net: float
    net_ratio: float
    penalty_ratio: float


@dataclass
class ComparisonTable:
    baseline: str
    rows: list[ComparisonRow]
    reports: dict[str, "EvaluationReport"]  # noqa: F821  (built by reporting)


def compare_strategies(dc: Datacenter, cost: CostModel, sim: SimulationConfig,
                       specs, pools: dict | None = None,
                       baseline: str | None = None) -> ComparisonTable:
    """Evaluate each strategy spec over the same range and report ratios.

    Every spec gets fresh strategy instances (seeded by name from the run
    seed, so repeated runs and sibling strategies are reproducible) bound to
    both metrics, a releaser to its metric's agent pool in `pools`.  None
    explores, so no agent learns.  Ratios are taken against `baseline`
    (default: the first spec's label).
    """
    from marginsim.reporting import ErrorCdfs, build_report

    if not specs:
        raise DomainError("need at least one strategy spec")
    labels = [spec.label for spec in specs]
    if len(set(labels)) != len(labels):
        raise DomainError(f"duplicate strategy labels in {labels}")
    baseline = baseline or labels[0]
    if baseline not in labels:
        raise DomainError(f"baseline {baseline!r} is not among {labels}")

    error_cdfs = ErrorCdfs.for_range(dc, sim.day_range)
    reports = {}
    for spec in specs:
        strategies = {
            m: spec.build(m, sim.seed, pool=(pools or {}).get(m), explore=False)
            for m in METRICS
        }
        result = run(dc, cost, sim, strategies)
        reports[spec.label] = build_report(spec.label, dc, sim, result, error_cdfs)

    base = reports[baseline].totals
    rows = []
    for label in labels:
        totals = reports[label].totals
        rows.append(ComparisonRow(
            label, totals.potential, totals.penalty, totals.net,
            _ratio(totals.net, base.net), _ratio(totals.penalty, base.penalty)))
    return ComparisonTable(baseline, rows, reports)


def _ratio(value: float, base: float) -> float:
    if base == 0.0:
        return math.inf if value > 0 else 1.0
    return value / base
