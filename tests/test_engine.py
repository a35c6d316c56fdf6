"""Simulator tests against handcrafted traces and a straight-line oracle."""

import atexit
import csv
import dataclasses
import errno
import io
import json
import math
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import strategies as st

from marginsim.agent import SHARED, DdpgConfig, build_pool
from marginsim.costs import (
    CostModel,
    DayLedger,
    accumulate_violation,
    containers_fitting,
    settle_day,
)
from marginsim import engine, reporting
from marginsim.engine import (
    METRICS,
    RunResult,
    SimulationConfig,
    StepLogRow,
    compare_strategies,
    reward_scale_for,
    run,
    train_test_split,
    window_view,
    _attribute_rewards,
)
from marginsim.errors import DomainError, MarginSimError
from marginsim.reporting import (
    REPORT_FILES,
    ErrorCdfs,
    build_report,
    nearest_rank,
    write_report_files,
)
from marginsim.strategies import (
    MARGIN_MAX,
    ErrorFeedbackMargin,
    FixedMargin,
    LearnedMargin,
    MarginStrategy,
    RandomMargin,
    StrategySpec,
    UsageStddevMargin,
    clamp_margin,
)
from marginsim.traces import (
    Datacenter,
    HostSpec,
    HostTrace,
    MetricKind,
    generate_synthetic,
    make_series,
    SyntheticConfig,
)
from test_strategies import reference_select

CPU, RAM = MetricKind.CPU, MetricKind.RAM


def make_dc(host_series, step_minutes=96, cpu=32, ram=128.0):
    """Datacenter from {host_id: {metric: (usage, prediction)}} arrays."""
    hosts = []
    for hid in sorted(host_series):
        series = {}
        for m, (usage, pred) in host_series[hid].items():
            series[m] = make_series(usage, pred)
        hosts.append(HostTrace(HostSpec(hid, cpu, ram), series))
    return Datacenter("test", hosts, step_minutes)


def flat_dc(usage, prediction, days=1, hosts=1, step_minutes=96, **kw):
    steps = days * (1440 // step_minutes)
    series = {f"h{i:02d}": {m: ([usage] * steps, [prediction] * steps)
                            for m in (CPU, RAM)}
              for i in range(hosts)}
    return make_dc(series, step_minutes=step_minutes, **kw)


def fixed(margin):
    return {CPU: FixedMargin(margin), RAM: FixedMargin(margin)}


def sim_for(dc, days=None, **kw):
    days = dc.num_days() if days is None else days
    return SimulationConfig(seed=7, day_range=(0, days), **kw)


def brute_force_host_day(cost, spec, traces, margins, ts):
    """Independent one-day walk: explicit loops, its own discount table."""
    ppm = cost.price_per_hour / 60.0
    potential = 0.0
    minutes = 0
    u_cpu, p_cpu = traces[CPU]
    u_ram, p_ram = traces[RAM]
    for uc, pc, ur, pr in zip(u_cpu, p_cpu, u_ram, p_ram):
        counts = []
        for pred, margin, capacity, per in (
                (pc, margins[CPU], spec.cpu_cores, cost.container_cpu),
                (pr, margins[RAM], spec.ram_gb, cost.container_ram_gb)):
            headroom = min(max(1.0 - pred - margin, 0.0), 1.0)
            counts.append(math.floor(headroom * capacity / per))
        nb = min(counts)
        potential += nb * ppm * ts
        if uc > pc + margins[CPU] or ur > pr + margins[RAM]:
            minutes += ts
    if minutes <= 15:
        discount = 0.0
    elif minutes <= 120:
        discount = 0.10
    elif minutes <= 720:
        discount = 0.15
    else:
        discount = 0.30
    penalty = potential * discount
    return potential, penalty, potential - penalty, minutes


class TestTrainTestSplit:
    def test_eighty_twenty(self):
        dc = flat_dc(0.5, 0.5, days=10)
        assert train_test_split(dc, 0.8) == ((0, 8), (8, 10))

    def test_both_sides_nonempty_at_extremes(self):
        dc = flat_dc(0.5, 0.5, days=3)
        assert train_test_split(dc, 0.01) == ((0, 1), (1, 3))
        assert train_test_split(dc, 0.999) == ((0, 2), (2, 3))

    def test_needs_two_days(self):
        with pytest.raises(DomainError):
            train_test_split(flat_dc(0.5, 0.5, days=1), 0.8)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5])
    def test_fraction_range(self, fraction):
        with pytest.raises(DomainError):
            train_test_split(flat_dc(0.5, 0.5, days=4), fraction)


class TestRewardScale:
    def test_single_host(self):
        cost = CostModel()
        # 32/2 cores and 128/8 GB both fit 16 containers on an empty host;
        # the step length is the trace's.
        for step in (3, 96):
            dc = flat_dc(0.5, 0.5, step_minutes=step)
            assert reward_scale_for(dc, cost) == cost.price_per_minute * step * 16

    def test_takes_roomiest_host(self):
        series = {
            "big": {m: ([0.5] * 15, [0.5] * 15) for m in (CPU, RAM)},
            "small": {m: ([0.5] * 15, [0.5] * 15) for m in (CPU, RAM)},
        }
        hosts = [
            HostTrace(HostSpec("big", 64, 256.0), series["big"]),
            HostTrace(HostSpec("small", 4, 16.0), series["small"]),
        ]
        dc = Datacenter("mixed", hosts, 96)
        cost = CostModel()
        assert reward_scale_for(dc, cost) == pytest.approx(
            cost.price_per_minute * 96 * 32)

    def test_is_a_python_float(self):
        # It is written into checkpoints with repr; a numpy scalar's repr
        # ("np.float64(...)" under numpy 2) would change their bytes.
        assert type(reward_scale_for(flat_dc(0.5, 0.5), CostModel())) is float


class TestRunBasics:
    def test_perfect_predictions_no_violations(self):
        dc = flat_dc(0.4, 0.4, days=2)
        result = run(dc, CostModel(), sim_for(dc), fixed(0.0))
        assert all(l.violation_minutes == 0 for l in result.ledgers)
        assert all(l.penalty == 0.0 for l in result.ledgers)

    def test_total_underprediction_worst_tier(self):
        dc = flat_dc(1.0, 0.0, days=1)
        cost = CostModel()
        result = run(dc, cost, sim_for(dc), fixed(0.0))
        ledger = result.ledgers[0]
        assert ledger.violation_minutes == 1440
        # Empty-looking host fits 16 containers all day at margin zero.
        expected_potential = 16 * cost.price_per_minute * 1440
        assert ledger.potential_saving == pytest.approx(expected_potential)
        assert ledger.penalty == pytest.approx(0.30 * expected_potential)
        assert ledger.net_saving == pytest.approx(0.70 * expected_potential)

    def test_margin_blocks_violation(self):
        # usage exceeds prediction by 0.1; a 0.15 margin absorbs it.
        dc = flat_dc(0.6, 0.5, days=1)
        result = run(dc, CostModel(), sim_for(dc), fixed(0.15))
        assert result.ledgers[0].violation_minutes == 0
        tight = run(dc, CostModel(), sim_for(dc), fixed(0.05))
        assert tight.ledgers[0].violation_minutes == 1440

    def test_day_range_slices(self):
        dc = flat_dc(0.5, 0.5, days=3)
        sim = SimulationConfig(seed=1, day_range=(1, 2))
        result = run(dc, CostModel(), sim, fixed(0.0))
        assert result.start_step == 15
        assert [l.day_index for l in result.ledgers] == [1]
        assert result.margins.shape == (1, 2, 15)

    def test_day_range_beyond_trace(self):
        dc = flat_dc(0.5, 0.5, days=2)
        sim = SimulationConfig(seed=1, day_range=(0, 3))
        with pytest.raises(DomainError):
            run(dc, CostModel(), sim, fixed(0.0))

    def test_missing_metric_strategy(self):
        dc = flat_dc(0.5, 0.5)
        with pytest.raises(DomainError):
            run(dc, CostModel(), sim_for(dc), {CPU: FixedMargin(0.1)})


class TestBruteForceOracle:
    def test_three_hosts_exact(self):
        rng = np.random.default_rng(42)
        steps = 30  # two days at 96-minute steps
        series = {}
        for hid in ("a", "b", "c"):
            series[hid] = {}
            for m in (CPU, RAM):
                pred = rng.uniform(0.2, 0.8, size=steps)
                usage = np.clip(pred + rng.normal(0, 0.15, size=steps), 0, 1)
                series[hid][m] = (usage, pred)
        dc = make_dc(series, step_minutes=96)
        cost = CostModel()
        margins = {CPU: 0.10, RAM: 0.05}
        result = run(dc, cost, sim_for(dc),
                     {CPU: FixedMargin(0.10), RAM: FixedMargin(0.05)})
        assert len(result.ledgers) == 6
        specs = {h.spec.host_id: h.spec for h in dc.hosts}
        for ledger in result.ledgers:
            traces = {m: tuple(arr[ledger.day_index * 15:(ledger.day_index + 1) * 15]
                               for arr in series[ledger.host_id][m])
                      for m in (CPU, RAM)}
            expect = brute_force_host_day(
                cost, specs[ledger.host_id], traces, margins, 96)
            assert ledger.potential_saving == expect[0]
            assert ledger.penalty == expect[1]
            assert ledger.net_saving == expect[2]
            assert ledger.violation_minutes == expect[3]

    def test_headroom_subtracts_the_prediction_then_the_margin(self):
        # (1 - 0.05) - 0.45 is just below 0.5, so 7 containers fit; the
        # other grouping, 1 - (0.05 + 0.45), is 0.5 exactly and fits 8.
        dc = flat_dc(0.0, 0.05)
        cost = CostModel()
        result = run(dc, cost, sim_for(dc), fixed(0.45))
        traces = {m: ((0.0,) * 15, (0.05,) * 15) for m in (CPU, RAM)}
        expect = brute_force_host_day(cost, dc.hosts[0].spec, traces,
                                      {CPU: 0.45, RAM: 0.45}, 96)
        assert result.ledgers[0].potential_saving == expect[0]
        assert expect[0] == settle_day(cost, [7] * 15, 0, 96).potential_saving

    def test_deterministic_repeat(self):
        cfg = SyntheticConfig(seed=5, num_hosts=2, num_days=2,
                              spike_prob_per_step=0.004)
        dc = generate_synthetic(cfg)
        strategies = lambda: {CPU: RandomMargin(11), RAM: ErrorFeedbackMargin()}
        sim = SimulationConfig(seed=3, day_range=(0, 2))
        a = run(dc, CostModel(), sim, strategies())
        b = run(dc, CostModel(), sim, strategies())
        assert a.ledgers == b.ledgers
        assert np.array_equal(a.margins, b.margins)


class TestCausality:
    def test_margins_ignore_future_usage(self):
        rng = np.random.default_rng(9)
        steps = 15
        pred = rng.uniform(0.3, 0.6, size=steps)
        usage = np.clip(pred + rng.normal(0, 0.1, size=steps), 0, 1)
        bumped = usage.copy()
        t_star = 7
        bumped[t_star] = min(1.0, usage[t_star] + 0.3)

        def margins_for(u):
            series = {"h": {CPU: (u, pred), RAM: (u, pred)}}
            dc = make_dc(series)
            strategies = {CPU: ErrorFeedbackMargin(), RAM: ErrorFeedbackMargin()}
            result = run(dc, CostModel(), sim_for(dc), strategies)
            return result.margins[0, 0].tolist()

        base = margins_for(usage)
        perturbed = margins_for(bumped)
        assert base[:t_star + 1] == perturbed[:t_star + 1]
        assert base[t_star + 1] != perturbed[t_star + 1]


class Recording(MarginStrategy):
    """Keeps every day's host ids and windows it is shown, whether they were
    read-only, and the margins it answered."""

    def __init__(self, window):
        self.window_size = window
        self.days = []
        self.calls = 0

    def day_margins(self, host_ids, error_windows, usage_windows):
        hosts, steps = error_windows.shape[:2]
        answers = 0.01 * (np.arange(self.calls, self.calls + hosts * steps) % 7)
        self.calls += hosts * steps
        answers = answers.reshape(steps, hosts).T
        self.days.append((list(host_ids), np.array(error_windows), np.array(usage_windows),
                          error_windows.flags.writeable or usage_windows.flags.writeable,
                          answers))
        return answers


class RecordingLearned(LearnedMargin):
    """Keeps every day's error windows it is shown."""

    def __init__(self, pool, explore):
        super().__init__(pool, explore)
        self.windows = []

    def day_margins(self, host_ids, error_windows, usage_windows):
        self.windows.append(np.array(error_windows))
        return super().day_margins(host_ids, error_windows, usage_windows)


def padded_window(values, t, start, size):
    """The `size` values before step t, zero-front-padded back to `start`."""
    past = list(values[max(start, t - size):t])
    return tuple([0.0] * (size - len(past)) + past)


@pytest.mark.parametrize("shape,size", [((8,), 1), ((8,), 7), ((3, 2, 25), 4), ((2, 40), 10)])
def test_window_view_is_the_sliding_window_view(shape, size):
    hist = np.random.default_rng(14).normal(size=shape)[..., 1:]  # strided, like run's
    got, want = window_view(hist, size), sliding_window_view(hist, size, axis=-1)
    assert got.shape == want.shape and got.strides == want.strides
    assert np.shares_memory(got, hist) and not got.flags.writeable
    assert got.tobytes() == want.tobytes()


class TestWindowParity:
    """Every window a strategy is shown matches a direct reading of the
    trace up to the step before, zero-padded back to the range start (no
    lookahead), and each (host, step) margin is the one its day answered."""

    START, STEPS = 15, 30  # day_range (1, 3) at 15 steps per day

    def build(self):
        cfg = SyntheticConfig(seed=13, num_hosts=2, num_days=3, step_minutes=96,
                              spike_prob_per_step=0.05)
        return generate_synthetic(cfg)

    def test_windows_and_last_margin(self):
        dc = self.build()
        strategies = {CPU: Recording(3), RAM: Recording(7)}
        sim = SimulationConfig(seed=1, day_range=(1, 3))
        result = run(dc, CostModel(), sim, strategies)
        host_ids = [h.spec.host_id for h in dc.hosts]
        for j, metric in enumerate((CPU, RAM)):
            strat = strategies[metric]
            size = strat.window_size
            assert len(strat.days) == 2
            for d, (ids, errors, usage, writeable, answers) in enumerate(strat.days):
                assert ids == host_ids and not writeable
                assert errors.shape == usage.shape == (len(host_ids), 15, size)
                for i, host in enumerate(dc.hosts):
                    series = host.series[metric]
                    trace_errors = (series["usage"] - series["prediction"]).tolist()
                    for k in range(15):
                        r = 15 * d + k
                        t = self.START + r
                        assert tuple(errors[i, k].tolist()) == padded_window(
                            trace_errors, t, self.START, size)
                        assert tuple(usage[i, k].tolist()) == padded_window(
                            series["usage"].tolist(), t, self.START, size)
                        assert result.margins[i, j, r] == answers[i, k]

    def test_train_next_state_is_next_steps_state(self):
        dc = self.build()
        host_ids = [h.spec.host_id for h in dc.hosts]
        ddpg = DdpgConfig(window=3, batch_size=4, warmup_steps=4, replay_capacity=64,
                          steps_per_day=15)
        pool = build_pool(ddpg, CPU, host_ids, 5, 0.01)
        stored = {hid: [] for hid in host_ids}
        for hid, agent in pool.items():
            def record(*transition, hid=hid, learn=agent.store_and_learn):
                stored[hid].append(transition)
                return learn(*transition)
            agent.store_and_learn = record
        strategies = {CPU: RecordingLearned(pool, explore=True), RAM: Recording(7)}
        sim = SimulationConfig(seed=1, day_range=(1, 3))
        result = run(dc, CostModel(), sim, strategies)
        assert len(strategies[CPU].windows) == 2
        for i, hid in enumerate(host_ids):
            shown = np.concatenate([day[i] for day in strategies[CPU].windows])
            transitions = stored[hid]
            assert len(shown) == len(transitions) == self.STEPS
            for k, (state, action, _, next_state) in enumerate(transitions):
                assert np.array_equal(state, np.clip(shown[k], -1.0, 1.0))
                assert action == result.margins[i, 0, k]
                if k + 1 < self.STEPS:
                    assert np.array_equal(next_state, transitions[k + 1][0])
            # The last next state is the window that ends at the range's last step.
            series = dc.hosts[i].series[CPU]
            last = padded_window((series["usage"] - series["prediction"]).tolist(),
                                 self.START + self.STEPS, self.START, 3)
            assert np.array_equal(transitions[-1][3], np.clip(last, -1.0, 1.0))


def row_forward(net, state):
    """A one-row np.dot forward pass."""
    a = state[None, :]
    for layer in net.layers:
        a = np.dot(a, layer.weights.T)
        a += layer.bias
        if layer.activation == "relu":
            np.maximum(a, 0.0, out=a)
    return a[0, 0]


def reference_margin(agent, window, explore, explored):
    """The margin `agent` chooses for one error window, restated per call:
    the window clipped, a one-row forward, then the warmup draw or the OU
    noise, and the squash and clamp on numpy scalars.  `explored` counts
    each agent's exploring calls."""
    if explore:
        explored[id(agent)] = calls = explored.get(id(agent), 0) + 1
        if calls <= agent.config.warmup_steps:
            return float(agent.warmup_rng.uniform(0.0, MARGIN_MAX))
    raw = row_forward(agent.actor, np.clip(np.array(window), -1.0, 1.0))
    if explore:
        raw += agent.noise.step()
    return float(min(max(1.0 / (1.0 + np.exp(-raw)), 0.0), MARGIN_MAX))


def reference_run(dc, cost, sim, strategies):
    """`run` restated step by step, without its shortcuts: every window a
    fresh tuple of a list slice, each built-in margin from its per-call
    reference (`reference_select`) and each learned one from its own one-row
    actor pass (`reference_margin`), never from the strategy's own
    `day_margins`; one `margins` write per host-step, and the clamp as
    min/max.  Only the test strategies (`Probe`, `Cycle`) answer their days
    themselves, from windows built here."""
    strats = [strategies[m] for m in METRICS]
    learning = [j for j, strat in enumerate(strats)
                if isinstance(strat, LearnedMargin) and strat.explore]
    spd, ts, ppm = dc.steps_per_day, dc.step_minutes, cost.price_per_minute
    lo, hi = sim.day_range
    hosts = dc.hosts
    start = lo * spd
    usage = np.array([[h.series[m]["usage"][start:hi * spd] for m in METRICS] for h in hosts])
    pred = np.array([[h.series[m]["prediction"][start:hi * spd] for m in METRICS]
                     for h in hosts])
    sizes = [strat.window_size for strat in strats]
    pad = max(sizes)
    first = [pad - size for size in sizes]
    zeros = np.zeros((len(hosts), 2, pad))
    error_hist = np.concatenate([zeros, usage - pred], axis=2)
    states = np.clip(error_hist, -1.0, 1.0)
    error_rows = error_hist.tolist()
    usage_rows = np.concatenate([zeros, usage], axis=2).tolist()
    margins = np.zeros(usage.shape)
    host_ids = [host.spec.host_id for host in hosts]
    explored = {}
    ledgers, step_log = [], []
    for day in range(lo, hi):
        day_start = (day - lo) * spd
        day_steps = range(day_start, day_start + spd)
        minutes = [0] * len(hosts)
        containers = [[] for _ in hosts]
        violations = [[] for _ in hosts]
        for j, strat in enumerate(strats):
            if isinstance(strat, (Probe, Cycle)):
                strat.start_day(host_ids, *(np.array(
                    [[rows[i][j][first[j] + r:pad + r] for r in day_steps]
                     for i in range(len(hosts))]) for rows in (error_rows, usage_rows)))
        for r in day_steps:
            for i, hid in enumerate(host_ids):
                for j, strat in enumerate(strats):
                    errors = tuple(error_rows[i][j][first[j] + r:pad + r])
                    usages = tuple(usage_rows[i][j][first[j] + r:pad + r])
                    if isinstance(strat, LearnedMargin):
                        margins[i, j, r] = reference_margin(
                            strat.pool.agent_for(hid), errors, strat.explore, explored)
                    elif isinstance(strat, (Probe, Cycle)):
                        margins[i, j, r] = strat.select(hid, r - day_start)
                    else:
                        margins[i, j, r] = reference_select(strat, errors, usages)
                host = hosts[i]
                (u_cpu, u_ram), (p_cpu, p_ram) = usage[i, :, r], pred[i, :, r]
                m_cpu, m_ram = margins[i, :, r]
                fits = [math.floor(min(max(1.0 - p - m, 0.0), 1.0) * capacity / per)
                        for p, m, capacity, per in (
                            (p_cpu, m_cpu, host.spec.cpu_cores, cost.container_cpu),
                            (p_ram, m_ram, host.spec.ram_gb, cost.container_ram_gb))]
                violated = p_cpu + m_cpu - u_cpu < 0 or p_ram + m_ram - u_ram < 0
                minutes[i] = accumulate_violation(minutes[i], violated, ts)
                containers[i].append(min(fits))
                violations[i].append(violated)
        penalties = []
        for i, host in enumerate(hosts):
            settled = settle_day(cost, containers[i], minutes[i], ts)
            penalties.append(settled.penalty)
            ledgers.append(DayLedger(host.spec.host_id, day, minutes[i],
                                     settled.potential_saving, settled.penalty,
                                     settled.net_saving))
        if not learning:
            continue
        rewards = [_attribute_rewards(sim.reward_attribution,
                                      [nb * ppm * ts for nb in containers[i]],
                                      violations[i], penalties[i])
                   for i in range(len(hosts))]
        for k in range(spd):
            r = day_start + k
            losses = []
            for i, host in enumerate(hosts):
                for j in learning:
                    stats = strats[j].pool.agent_for(host.spec.host_id).store_and_learn(
                        states[i, j, first[j] + r:pad + r], margins[i, j, r], rewards[i][k],
                        states[i, j, first[j] + r + 1:pad + r + 1])
                    if stats.updated:
                        losses.append(stats.critic_loss)
            step_log.append(StepLogRow(
                start + r, float(np.mean(losses)) if losses else math.nan,
                float(np.mean([host_rewards[k] for host_rewards in rewards])),
                float(np.mean(margins[:, :, r].ravel()))))
    return RunResult(ledgers, margins, start, step_log)


class Probe(MarginStrategy):
    """Answers each (host, step) from every value of both its windows, the
    host id, the step, its metric and its own previous answer for the host,
    in step order, so any window or row the engine gets wrong changes the
    margins."""

    def __init__(self, window, metric):
        self.window_size = window
        self.metric = metric
        self.last = {}

    def day_margins(self, host_ids, error_windows, usage_windows):
        out = np.empty(error_windows.shape[:2])
        for k in range(out.shape[1]):
            for i, hid in enumerate(host_ids):
                errors, usage = error_windows[i, k].tolist(), usage_windows[i, k].tolist()
                value = clamp_margin(
                    0.5 * self.last.get(hid, 0.0) + 0.3 * max(errors[-1], 0.0)
                    + 0.1 * usage[0] + 0.02 * sum(usage) + 0.05 * errors[0]
                    + 0.03 * sum(errors) + 0.01 * len(hid)
                    + (0.02 if self.metric is CPU else 0.0) + 0.001 * k)
                self.last[hid] = out[i, k] = value
        return out


class Cycle(MarginStrategy):
    """Answers the given values in turn, step by step and hosts in order
    within a step, whatever it is shown; they may lie outside [0,
    MARGIN_MAX], so headrooms go below 0 and above 1."""

    def __init__(self, values):
        self.values = np.array(values)
        self.calls = 0

    def day_margins(self, host_ids, error_windows, usage_windows):
        hosts, steps = error_windows.shape[:2]
        turns = np.arange(self.calls, self.calls + hosts * steps) % len(self.values)
        self.calls += hosts * steps
        return self.values[turns].reshape(steps, hosts).T


class TestLoopParity:
    """`run` equals the straight-line `reference_run` exactly: margins by
    bytes, ledgers, step log and the trained agents' parameters."""

    DDPG = DdpgConfig(window=4, batch_size=8, warmup_steps=8, replay_capacity=128,
                      steps_per_day=15, target_update_days=1, discount=0.5)

    def strategies(self, dc, tokens, mode, per_host):
        scopes = [h.spec.host_id for h in dc.hosts] if per_host else [SHARED]
        built = {}
        for metric, token in zip(METRICS, tokens):
            if token.startswith("probe:"):
                built[metric] = Probe(int(token.split(":")[1]), metric)
                continue
            if token.startswith("cycle:"):
                built[metric] = Cycle([float(v) for v in token[6:].split("/")])
                continue
            pool = build_pool(self.DDPG, metric, scopes, 17, 0.01)
            built[metric] = StrategySpec.parse(token).build(
                metric, 23, pool=pool, explore=mode == "train")
        return built

    @pytest.mark.parametrize("tokens,mode,per_host,attribution", [
        (("fixed:0.05", "random"), "evaluate", False, "violation_spread"),
        (("feedback", "scavenger:2"), "evaluate", False, "violation_spread"),
        (("scavenger:7", "scavenger:30"), "evaluate", False, "violation_spread"),
        (("probe:3", "probe:9"), "evaluate", False, "violation_spread"),
        (("releaser", "probe:6"), "evaluate", True, "violation_spread"),
        (("releaser", "releaser"), "train", False, "violation_spread"),
        (("releaser", "scavenger:7"), "train", True, "day_end_lump"),
        (("probe:2", "releaser"), "train", False, "day_end_lump"),
        # Headrooms clamped below 0 (margins 0.99 and 1.5) and above 1
        # (margins -0.5 and -1), and -0.0 margins.
        (("cycle:-0.5/0.99/-0.0/1.5/0.3", "cycle:1.5/-1/0.0/0.7"), "evaluate", False,
         "violation_spread"),
        (("fixed:0", "fixed:0"), "evaluate", False, "violation_spread"),
        # Every step of every host-day violates: 1440 minutes, the top tier.
        (("releaser", "cycle:-1"), "train", False, "violation_spread"),
        (("cycle:-1", "releaser"), "train", True, "day_end_lump"),
        # Releasers in both explore modes, shared and per host, with the
        # warmup ending mid-day (8 exploring calls per agent: 3 hosts share
        # one agent, or each host's agent acts 15 times a day).
        (("releaser", "cycle:-1/0.5"), "evaluate", False, "violation_spread"),
        (("releaser", "probe:5"), "train", True, "violation_spread"),
        (("releaser", "releaser"), "train", True, "day_end_lump"),
    ])
    def test_matches_reference(self, tokens, mode, per_host, attribution):
        got, want, fast, slow = self.run_both(tokens, mode, per_host, attribution)
        assert got.margins.tobytes() == want.margins.tobytes()
        assert got.ledgers == want.ledgers
        assert sum(ledger.violation_minutes for ledger in got.ledgers) > 0
        assert got.start_step == want.start_step
        # repr is exact for floats and lets NaN losses compare equal.
        assert repr(got.step_log) == repr(want.step_log)
        assert len(got.step_log) == (30 if mode == "train" else 0)
        assert (mode == "train") == any(row.critic_loss == row.critic_loss
                                        for row in got.step_log)  # some updated
        for metric in METRICS:
            if isinstance(fast[metric], LearnedMargin):
                for (scope, agent), (_, twin) in zip(fast[metric].pool.items(),
                                                     slow[metric].pool.items()):
                    for net in ("actor", "critic", "target_actor", "target_critic"):
                        assert np.array_equal(getattr(agent, net).params,
                                              getattr(twin, net).params), (scope, net)
                    assert agent.noise.state == twin.noise.state

    @staticmethod
    def trace():
        return generate_synthetic(SyntheticConfig(seed=37, num_hosts=3, num_days=3,
                                                  step_minutes=96, spike_prob_per_step=0.1,
                                                  prediction_noise_sigma=0.08))

    def run_both(self, tokens, mode, per_host, attribution):
        """(run's result, reference_run's result, run's strategies, the reference's)."""
        dc = self.trace()
        sim = SimulationConfig(seed=3, day_range=(1, 3), reward_attribution=attribution)
        fast = self.strategies(dc, tokens, mode, per_host)
        slow = self.strategies(dc, tokens, mode, per_host)
        return (run(dc, CostModel(), sim, fast), reference_run(dc, CostModel(), sim, slow),
                fast, slow)

    @pytest.mark.parametrize("tokens", [("cycle:-1", "fixed:0"), ("fixed:0", "cycle:-1")])
    def test_violating_every_step_settles_in_the_top_tier(self, tokens):
        got, want, _, _ = self.run_both(tokens, "evaluate", False, "violation_spread")
        assert got.ledgers == want.ledgers
        assert len(got.ledgers) == 6
        for ledger in got.ledgers:
            assert ledger.violation_minutes == 1440
            assert ledger.potential_saving > 0
            assert ledger.penalty == ledger.potential_saving * 0.30

    def test_clamped_headrooms_give_the_clamped_counts(self):
        cost = CostModel()
        # Margin 0.99 or 1.5 on one metric leaves headroom below 0 there.
        for tokens in (("cycle:-1", "cycle:0.99/1.5"), ("cycle:1.5", "cycle:-1")):
            got, want, _, _ = self.run_both(tokens, "evaluate", False, "violation_spread")
            assert got.ledgers == want.ledgers
            assert all(ledger.potential_saving == 0.0 for ledger in got.ledgers)
        # Margin -1 on both leaves headroom 2 - prediction > 1: a full host.
        got, want, _, _ = self.run_both(("cycle:-1", "cycle:-1"), "evaluate", False,
                                        "violation_spread")
        assert got.ledgers == want.ledgers
        for ledger, spec in zip(got.ledgers, [host.spec for host in self.trace().hosts] * 2):
            full = [int(containers_fitting(cost, spec, 1.0, 1.0))] * 15
            assert full[0] > 0
            assert ledger.potential_saving == settle_day(cost, full, 0, 96).potential_saving


def agent_fields(agent):
    """Every field of `agent` that acting or learning changes, as values
    that compare with ==: arrays as bytes."""
    replay = agent.replay
    opts = [] if agent.actor_opt is None else [
        (opt.m.tobytes(), opt.v.tobytes(), opt.step_count)
        for opt in (agent.actor_opt, agent.critic_opt)]
    return {
        "params": [net.params.tobytes() for net in (agent.actor, agent.critic,
                                                    agent.target_actor, agent.target_critic)],
        "opts": opts,
        "rows": replay.rows[:replay.size].tobytes(),
        "size": replay.size,
        "insert_pos": replay.insert_pos,
        "rngs": [rng.bit_generator.state
                 for rng in (replay.rng, agent.noise.rng, agent.warmup_rng)],
        "ou_state": agent.noise.state,
        "counters": (agent.explore_calls, agent.store_calls),
    }


class TestForkedLearning:
    """With two usable cores the CPU learner's days run in forked children;
    with one, in this process.  Both leave the same results and agents."""

    @staticmethod
    def trace():
        return generate_synthetic(SyntheticConfig(seed=41, num_hosts=3, num_days=4,
                                                  step_minutes=96, spike_prob_per_step=0.1,
                                                  prediction_noise_sigma=0.08))

    @staticmethod
    def learners(dc, per_host, capacity):
        ddpg = DdpgConfig(window=4, batch_size=8, warmup_steps=10, replay_capacity=capacity,
                          steps_per_day=15, target_update_days=1, discount=0.5)
        scopes = [h.spec.host_id for h in dc.hosts] if per_host else [SHARED]
        return {m: LearnedMargin(build_pool(ddpg, m, scopes, 13, 0.01), explore=True)
                for m in METRICS}

    def run_days(self, monkeypatch, cores, per_host, capacity):
        monkeypatch.setattr(engine, "usable_cores", lambda: cores)
        forks = []
        fork = os.fork

        def counting_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        dc = self.trace()
        strategies = self.learners(dc, per_host, capacity)
        cpus = os.sched_getaffinity(0)
        results = [run(dc, CostModel(), SimulationConfig(seed=3, day_range=days), strategies)
                   for days in ((0, 2), (2, 4))]
        assert os.sched_getaffinity(0) == cpus
        return results, strategies, len(forks)

    # A shared agent stores 45 rows a day and a per-host one 15, so each
    # capacity wraps the ring within a day, whole (12) or in part (20, 64).
    @pytest.mark.parametrize("per_host,capacity", [
        (False, 12), (False, 64), (True, 12), (True, 20)])
    def test_forked_days_match_in_process_days(self, monkeypatch, per_host, capacity):
        forked, forked_strats, forks = self.run_days(monkeypatch, 2, per_host, capacity)
        local, local_strats, no_forks = self.run_days(monkeypatch, 1, per_host, capacity)
        assert (forks, no_forks) == (4, 0)
        for got, want in zip(forked, local):
            assert got.margins.tobytes() == want.margins.tobytes()
            assert got.ledgers == want.ledgers
            assert repr(got.step_log) == repr(want.step_log)
        for metric in METRICS:
            pools = forked_strats[metric].pool, local_strats[metric].pool
            for (scope, agent), (_, twin) in zip(*(pool.items() for pool in pools)):
                assert agent.replay.insert_pos != agent.replay.size  # the ring wrapped
                assert agent.actor_opt is not None
                assert agent_fields(agent) == agent_fields(twin), (metric, scope)


class FailingLearner(LearnedMargin):
    """A learner whose `end_day` first calls `fail()`."""

    def __init__(self, pool, fail):
        super().__init__(pool, explore=True)
        self.fail = fail

    def end_day(self, error_windows, rewards):
        self.fail()
        return super().end_day(error_windows, rewards)


def raise_runtime_error():
    raise RuntimeError("learner broke")


class TestForkedLearningFailures:
    """The CPU learner learns in a forked child, the RAM learner here.  Any
    failure fails the run and leaves no child behind."""

    def run_with(self, monkeypatch, cpu_fail=lambda: None, ram_fail=lambda: None):
        monkeypatch.setattr(engine, "usable_cores", lambda: 2)
        dc = TestForkedLearning.trace()
        learners = TestForkedLearning.learners(dc, False, 64)
        strategies = {CPU: FailingLearner(learners[CPU].pool, cpu_fail),
                      RAM: FailingLearner(learners[RAM].pool, ram_fail)}
        cpus = os.sched_getaffinity(0)
        try:
            run(dc, CostModel(), SimulationConfig(seed=3, day_range=(0, 1)), strategies)
        finally:
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            assert os.sched_getaffinity(0) == cpus

    def test_child_error_names_its_metric(self, monkeypatch):
        with pytest.raises(MarginSimError, match=r"^cpu learner .*RuntimeError: learner broke"):
            self.run_with(monkeypatch, cpu_fail=raise_runtime_error)

    def test_killed_child_names_its_metric_and_signal(self, monkeypatch):
        with pytest.raises(MarginSimError, match=r"^cpu learner .*SIGKILL"):
            self.run_with(monkeypatch,
                          cpu_fail=lambda: os.kill(os.getpid(), signal.SIGKILL))

    def test_parent_failure_kills_the_child(self, monkeypatch):
        began = time.monotonic()
        with pytest.raises(RuntimeError, match="learner broke"):
            self.run_with(monkeypatch, cpu_fail=lambda: time.sleep(60),
                          ram_fail=raise_runtime_error)
        assert time.monotonic() - began < 30

    def test_failing_fork_leaks_no_descriptor(self, monkeypatch):
        def no_fork():
            raise OSError(errno.EAGAIN, "no more processes")

        monkeypatch.setattr(os, "fork", no_fork)
        before = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError, match="no more processes"):
            self.run_with(monkeypatch)
        assert sorted(os.listdir("/proc/self/fd")) == before

    def test_child_leaves_by_os_exit(self, monkeypatch, tmp_path):
        # SystemExit is no Exception, and exit handlers would run on a normal
        # interpreter exit: the child skips both.
        marker = tmp_path / "exit-handler-ran"

        def exit_child():
            atexit.register(marker.touch)
            raise SystemExit(0)

        with pytest.raises(MarginSimError, match=r"^cpu learner .*ended before"):
            self.run_with(monkeypatch, cpu_fail=exit_child)
        assert not marker.exists()


class TestWindowBound:
    @pytest.mark.parametrize("window", [961, 10**30])
    def test_window_longer_than_the_trace_is_rejected(self, window):
        dc = flat_dc(0.5, 0.4, days=2, step_minutes=3)
        with pytest.raises(DomainError, match=rf"window {window} .* 960 steps"):
            run(dc, CostModel(), sim_for(dc),
                {CPU: FixedMargin(0.1), RAM: UsageStddevMargin(window)})

    def test_window_as_long_as_the_trace_runs(self):
        dc = flat_dc(0.5, 0.4, days=2, step_minutes=96)
        result = run(dc, CostModel(), sim_for(dc, days=1),
                     {CPU: FixedMargin(0.1), RAM: UsageStddevMargin(30)})
        assert len(result.ledgers) == 1


class TestConservation:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_ledger_invariants(self, seed):
        rng = np.random.default_rng(seed)
        steps = 15
        pred = rng.uniform(0.0, 0.9, size=steps)
        usage = np.clip(pred + rng.normal(0, 0.2, size=steps), 0, 1)
        dc = make_dc({"h": {CPU: (usage, pred), RAM: (usage, pred)}})
        cost = CostModel()
        margin = float(rng.uniform(0, 0.3))
        result = run(dc, cost, sim_for(dc), fixed(margin))
        ledger = result.ledgers[0]
        assert ledger.violation_minutes % 96 == 0
        assert 0 <= ledger.violation_minutes <= 1440
        assert ledger.penalty <= 0.30 * ledger.potential_saving + 1e-12
        assert ledger.net_saving == ledger.potential_saving - ledger.penalty
        from marginsim.costs import discount_for
        assert ledger.penalty == ledger.potential_saving * discount_for(
            cost, ledger.violation_minutes)

    def test_higher_margin_never_violates_more(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            steps = 15
            pred = rng.uniform(0.1, 0.7, size=steps)
            usage = np.clip(pred + rng.normal(0, 0.15, size=steps), 0, 1)
            dc = make_dc({"h": {CPU: (usage, pred), RAM: (usage, pred)}})
            lo, hi = sorted(rng.uniform(0, 0.4, size=2))
            small = run(dc, CostModel(), sim_for(dc), fixed(float(lo)))
            big = run(dc, CostModel(), sim_for(dc), fixed(float(hi)))
            assert (big.ledgers[0].violation_minutes
                    <= small.ledgers[0].violation_minutes)
            assert (big.ledgers[0].potential_saving
                    <= small.ledgers[0].potential_saving)


class TestRewardAttribution:
    def test_violation_spread_splits_penalty(self):
        rewards = [1.0, 1.0, 1.0, 1.0]
        violated = [False, True, False, True]
        out = _attribute_rewards("violation_spread", rewards, violated, 0.8)
        assert out == [1.0, 0.6, 1.0, 0.6]

    def test_day_end_lump_hits_last_step(self):
        rewards = [1.0, 1.0, 1.0]
        violated = [True, False, False]
        out = _attribute_rewards("day_end_lump", rewards, violated, 0.9)
        assert out == [1.0, 1.0, pytest.approx(0.1)]

    def test_zero_penalty_untouched(self):
        rewards = [0.5, 0.5]
        out = _attribute_rewards("violation_spread", rewards, [False, False], 0.0)
        assert out == [0.5, 0.5]

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_rewards_sum_to_net(self, seed):
        rng = np.random.default_rng(seed)
        n = 10
        rewards = list(rng.uniform(0, 1, size=n))
        violated = list(rng.uniform(size=n) < 0.4)
        if not any(violated):
            violated[0] = True
        penalty = float(rng.uniform(0, 2))
        total = sum(rewards)
        for mode in ("violation_spread", "day_end_lump"):
            out = _attribute_rewards(mode, rewards, violated, penalty)
            assert sum(out) == pytest.approx(total - penalty, rel=1e-12)


class TestTrainMode:
    def build(self, days=2):
        cfg = SyntheticConfig(seed=21, num_hosts=2, num_days=days,
                              prediction_noise_sigma=0.05)
        dc = generate_synthetic(cfg)
        ddpg = DdpgConfig(window=4, batch_size=8, warmup_steps=8,
                          replay_capacity=512, steps_per_day=480)
        pool = build_pool(ddpg, CPU, [SHARED], 99, 0.01)
        spec = StrategySpec.parse("releaser")
        strategies = {
            CPU: spec.build(CPU, 99, pool=pool, explore=True),
            RAM: FixedMargin(0.1),
        }
        return dc, pool, strategies

    def test_step_log_covers_training_steps(self):
        dc, pool, strategies = self.build()
        sim = SimulationConfig(seed=5, day_range=(0, 2))
        result = run(dc, CostModel(), sim, strategies)
        assert len(result.step_log) == 2 * 480
        assert [row.step_index for row in result.step_log] == list(range(960))
        # Margins averaged over hosts and metrics stay within the legal range.
        assert all(0.0 <= row.mean_margin <= 0.99 for row in result.step_log)
        agent = pool.agent_for(dc.hosts[0].spec.host_id)
        assert agent.store_calls == 2 * 480 * len(dc.hosts)
        assert agent.replay.size == min(agent.store_calls, agent.replay.capacity)

    def test_only_exploring_agents_learn(self):
        # One run with a training releaser on cpu and a greedy one on ram.
        dc, cpu_pool, strategies = self.build()
        ddpg = cpu_pool.agent_for(SHARED).config
        ram_pool = build_pool(ddpg, RAM, [SHARED], 98, 0.01)
        strategies[RAM] = StrategySpec.parse("releaser").build(
            RAM, 99, pool=ram_pool, explore=False)
        ram_agent = ram_pool.agent_for(SHARED)
        ram_params = ram_agent.actor.params.copy()
        result = run(dc, CostModel(), SimulationConfig(seed=5, day_range=(0, 2)), strategies)
        assert cpu_pool.agent_for(SHARED).store_calls == len(dc.hosts) * 2 * 480
        assert ram_agent.store_calls == ram_agent.explore_calls == 0
        assert np.array_equal(ram_agent.actor.params, ram_params)
        assert [row.step_index for row in result.step_log] == list(range(960))

    def test_evaluate_has_empty_step_log(self):
        dc = flat_dc(0.5, 0.5)
        result = run(dc, CostModel(), sim_for(dc), fixed(0.1))
        assert result.step_log == []


class TestCompare:
    def setup_dc(self):
        cfg = SyntheticConfig(seed=31, num_hosts=2, num_days=2,
                              prediction_noise_sigma=0.05)
        return generate_synthetic(cfg)

    def test_baseline_ratio_is_exactly_one(self):
        dc = self.setup_dc()
        sim = SimulationConfig(seed=2, day_range=(0, 2))
        table = compare_strategies(dc, CostModel(), sim,
                                   [StrategySpec.parse("fixed:0.05"),
                                    StrategySpec.parse("fixed:0.15")])
        assert table.baseline == "fixed:0.05"
        assert table.rows[0].net_ratio == 1.0
        assert table.rows[0].penalty_ratio == 1.0

    def test_wide_margin_cuts_penalty_and_potential(self):
        dc = self.setup_dc()
        sim = SimulationConfig(seed=2, day_range=(0, 2))
        table = compare_strategies(dc, CostModel(), sim,
                                   [StrategySpec.parse("fixed:0"),
                                    StrategySpec.parse("fixed:0.99")])
        narrow, wide = table.rows
        assert wide.penalty <= narrow.penalty
        assert wide.potential < narrow.potential
        assert wide.net < narrow.net  # nothing fits at a 0.99 margin

    def test_duplicate_labels_rejected(self):
        dc = self.setup_dc()
        sim = SimulationConfig(seed=2, day_range=(0, 2))
        with pytest.raises(DomainError):
            compare_strategies(dc, CostModel(), sim,
                               [StrategySpec.parse("fixed:0.05"),
                                StrategySpec.parse("fixed:0.05")])

    def test_reports_cover_each_strategy(self):
        dc = self.setup_dc()
        sim = SimulationConfig(seed=2, day_range=(1, 2))
        table = compare_strategies(dc, CostModel(), sim,
                                   [StrategySpec.parse("fixed:0.1"),
                                    StrategySpec.parse("scavenger")])
        assert set(table.reports) == {"fixed:0.1", "scavenger"}
        for label, report in table.reports.items():
            assert report.strategy == label
            assert report.day_range == (1, 2)


class TestReportIntegrity:
    def build_report(self, step_minutes=3):
        cfg = SyntheticConfig(seed=41, num_hosts=3, num_days=2, step_minutes=step_minutes,
                              prediction_noise_sigma=0.05)
        dc = generate_synthetic(cfg)
        cost = CostModel()
        sim = SimulationConfig(seed=6, day_range=(0, 2))
        result = run(dc, cost, sim, fixed(0.08))
        cdfs = ErrorCdfs.for_range(dc, sim.day_range)
        return dc, build_report("fixed:0.08", dc, sim, result, cdfs), result

    def test_totals_are_exact_sums(self):
        dc, report, result = self.build_report()
        for hid, totals in report.host_totals.items():
            rows = [l for l in result.ledgers if l.host_id == hid]
            assert totals.potential == sum(l.potential_saving for l in rows)
            assert totals.penalty == sum(l.penalty for l in rows)
            assert totals.net == sum(l.net_saving for l in rows)
        assert report.totals.net == sum(
            report.host_totals[h.spec.host_id].net for h in dc.hosts)

    def test_margin_series_complete(self, tmp_path):
        # The report's step length is the trace's.
        for step_minutes, steps in ((3, 960), (96, 30)):
            dc, report, result = self.build_report(step_minutes)
            assert report.step_minutes == step_minutes
            for (hid, metric), values in report.margin_series.items():
                assert len(values) == steps
                assert all(v == 0.08 for v in values)
            outdir = tmp_path / str(step_minutes)
            write_report_files(report, outdir)
            with (outdir / "margins.csv").open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            for hid, metric in report.margin_series:
                written = [int(r["step"]) for r in rows
                           if (r["host"], r["metric"]) == (hid, metric.value)]
                assert written == list(range(steps))

    def test_percentiles_recompute(self):
        dc, report, _ = self.build_report()
        for summary in report.margin_summaries:
            values = sorted(report.margin_series[(summary.host_id, summary.metric)].tolist())
            n = len(values)
            assert summary.minimum == values[0]
            assert summary.median == values[max(1, math.ceil(0.5 * n)) - 1]
            assert summary.p75 == values[max(1, math.ceil(0.75 * n)) - 1]

    def test_error_cdf_probabilities(self):
        dc, report, _ = self.build_report()
        for metric_block in report.error_cdfs.by_metric.values():
            for points in metric_block.values():
                probs = [p for _, p in points]
                assert probs == sorted(probs)
                if probs:
                    assert probs[-1] == pytest.approx(1.0)


def reference_report_files(report, outdir):
    """Straight-line writer of a report's files: one csv.writer row per line
    and one json.dump of the whole report dict, error CDFs included."""
    outdir.mkdir(parents=True)
    with (outdir / "ledger.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["host", "day", "violation_min", "potential", "penalty", "net"])
        for led in report.ledgers:
            writer.writerow([led.host_id, led.day_index, led.violation_minutes,
                             repr(led.potential_saving), repr(led.penalty),
                             repr(led.net_saving)])
    with (outdir / "margins.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["host", "metric", "step", "margin"])
        start = report.day_range[0] * (1440 // report.step_minutes)
        for (hid, metric), margins in report.margin_series.items():
            for i, margin in enumerate(margins):
                writer.writerow([hid, metric.value, start + i, repr(float(margin))])
    for metric, by_host in report.error_cdfs.by_metric.items():
        with (outdir / f"cdf_{metric}.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["host", "error", "cum_prob"])
            for hid in sorted(by_host):
                for err, prob in by_host[hid]:
                    writer.writerow([hid, repr(err), repr(prob)])

    def totals(t):
        return {"potential": t.potential, "penalty": t.penalty, "net": t.net}

    full = {
        "strategy": report.strategy,
        "day_range": list(report.day_range),
        "step_minutes": report.step_minutes,
        "totals": totals(report.totals),
        "host_totals": {hid: totals(t) for hid, t in report.host_totals.items()},
        "ledger": [{"host": led.host_id, "day": led.day_index,
                    "violation_minutes": led.violation_minutes,
                    "potential": led.potential_saving, "penalty": led.penalty,
                    "net": led.net_saving} for led in report.ledgers],
        "margin_summary": [{"host": s.host_id, "metric": s.metric.value, "min": s.minimum,
                            "median": s.median, "p75": s.p75, "outliers": s.outliers}
                           for s in report.margin_summaries],
        "error_cdf": {metric: {hid: [[e, p] for e, p in points]
                               for hid, points in by_host.items()}
                      for metric, by_host in report.error_cdfs.by_metric.items()},
    }
    with (outdir / "report.json").open("w") as fh:
        json.dump(full, fh, indent=1)
        fh.write("\n")


class TestReportBytes:
    """write_report_files against the straight-line reference writer."""

    def test_report_files_match_reference(self, tmp_path):
        rng = np.random.default_rng(5)
        steps = 3 * 15
        odd_id = 'rack "7",b'
        series = {
            # never underestimated: its CDFs are empty
            "calm": {m: (np.full(steps, 0.2), np.full(steps, 0.4)) for m in (CPU, RAM)},
            **{hid: {m: (rng.uniform(0.0, 1.0, steps), rng.uniform(0.0, 1.0, steps))
                     for m in (CPU, RAM)} for hid in ("alpha", odd_id)},
        }
        # hosts out of id order: the CDF files sort them, report.json does not
        dc = make_dc(series)
        dc = Datacenter("test", dc.hosts[::-1], dc.step_minutes)
        sim = SimulationConfig(seed=3, day_range=(1, 3))
        table = compare_strategies(dc, CostModel(), sim,
                                   [StrategySpec.parse("fixed:0.05"),
                                    StrategySpec.parse("feedback:0.02")])
        cdfs = table.reports["fixed:0.05"].error_cdfs.by_metric
        assert all(cdfs[m.value]["calm"] == [] for m in METRICS)
        assert all(cdfs[m.value][odd_id] for m in METRICS)
        summaries = [s for r in table.reports.values() for s in r.margin_summaries]
        assert any(s.outliers for s in summaries)
        assert any(not s.outliers for s in summaries)

        for label, report in table.reports.items():
            self.assert_matches_reference(report, tmp_path / label)

    def test_constant_series_match_reference(self, tmp_path):
        dc = flat_dc(0.5, 0.4, days=2, hosts=3)
        sim = SimulationConfig(seed=3, day_range=(1, 2))
        report = compare_strategies(dc, CostModel(), sim,
                                    [StrategySpec.parse("fixed:0")]).reports["fixed:0"]
        self.assert_matches_reference(report, tmp_path / "fixed_0")

        steps = 1440 // 96
        mixed = np.zeros(steps)
        mixed[::2] = -0.0
        last_differs = np.full(steps, 0.05)
        last_differs[-1] = 0.06
        signed = dict(zip(report.margin_series, [
            np.full(steps, -0.0), mixed, -mixed, last_differs, np.full(steps, 0.05),
            np.full(steps, 1 / 3)]))
        self.assert_matches_reference(
            dataclasses.replace(report, margin_series=signed), tmp_path / "signed")
        rows = (tmp_path / "signed" / "got" / "margins.csv").read_text().splitlines()
        # host h00's cpu series is all -0.0; its ram series mixes both zeros
        assert {row.rsplit(",", 1)[1] for row in rows[1:1 + steps]} == {"-0.0"}
        assert {row.rsplit(",", 1)[1] for row in rows[1 + steps:1 + 2 * steps]} == {
            "0.0", "-0.0"}

    @staticmethod
    def assert_matches_reference(report, outdir):
        got, want = outdir / "got", outdir / "want"
        written = write_report_files(report, got)
        reference_report_files(report, want)
        names = sorted(p.name for p in want.iterdir())
        assert sorted(p.name for p in written) == names == sorted(REPORT_FILES)
        assert sorted(p.name for p in got.iterdir()) == names
        for name in names:
            assert (got / name).read_bytes() == (want / name).read_bytes(), name


class TestSharedErrorCdfs:
    @pytest.mark.parametrize("labels", [["fixed:0.05"],
                                        ["fixed:0.05", "scavenger", "random", "feedback"]])
    def test_one_error_cdf_call_per_metric(self, monkeypatch, labels):
        dc = flat_dc(0.5, 0.4, days=2, hosts=2)
        calls = []
        original = reporting.error_cdf

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(reporting, "error_cdf", counted)
        sim = SimulationConfig(seed=1, day_range=(0, 2))
        table = compare_strategies(dc, CostModel(), sim,
                                   [StrategySpec.parse(label) for label in labels])
        assert sorted(calls, key=METRICS.index) == list(METRICS)
        shared = table.reports[labels[0]].error_cdfs
        assert all(report.error_cdfs is shared for report in table.reports.values())


# Host ids with the characters csv must quote or json must escape.
odd_text = st.text(st.sampled_from('ab,"\r\n é→\U0001f600'), max_size=6)
cdf_points = st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                                st.floats(allow_nan=False, allow_infinity=False)), max_size=5)


class TestErrorCdfsEncoding:
    """ErrorCdfs' encodings against json.dumps and csv.writer."""

    @given(st.dictionaries(odd_text, st.dictionaries(odd_text, cdf_points, max_size=4),
                           max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_encodings_match_reference_writers(self, by_metric):
        cdfs = ErrorCdfs(by_metric)
        # one level inside an object: without the '{\n ' before and '\n}' after
        assert cdfs.json_member == json.dumps({"error_cdf": by_metric}, indent=1)[3:-2]
        assert list(cdfs.csv_bodies) == list(by_metric)
        for metric, by_host in by_metric.items():
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(["host", "error", "cum_prob"])
            for hid in sorted(by_host):
                writer.writerows([hid, repr(err), repr(prob)] for err, prob in by_host[hid])
            assert cdfs.csv_bodies[metric] == buf.getvalue()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_value_is_rejected(self, value, column):
        point = [0.25, 0.5]
        point[column] = value
        with pytest.raises(DomainError, match="ram error CDF of host 'h1' is not finite"):
            ErrorCdfs({"cpu": {"h0": [(0.1, 1.0)]}, "ram": {"h1": [(0.1, 0.5), tuple(point)]}})


class TestNearestRank:
    def test_worked_examples(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert nearest_rank(values, 50) == 2.0
        assert nearest_rank(values, 75) == 3.0
        assert nearest_rank(values, 100) == 4.0
        assert nearest_rank(values, 1) == 1.0

    def test_single_value(self):
        assert nearest_rank([5.0], 50) == 5.0

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=40),
           st.floats(0.1, 100))
    @settings(max_examples=60, deadline=None)
    def test_result_is_member(self, values, pct):
        values = sorted(values)
        assert nearest_rank(values, pct) in values
