"""Strategy contract tests: ranges, determinism, the worked examples, and
each built-in kind's day of margins against its per-call reference."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from marginsim.engine import window_view
from marginsim.errors import DomainError
from marginsim.strategies import (
    MARGIN_MAX,
    ErrorFeedbackMargin,
    FixedMargin,
    LearnedMargin,
    MarginStrategy,
    RandomMargin,
    StrategySpec,
    UsageStddevMargin,
)
from marginsim.traces import MetricKind


def reference_select(strat, error_window, usage_window):
    """One (host, step) margin of a built-in non-learned kind, as its
    per-call body computed it before margins were answered a day at a time:
    `strat` lends only its parameters and, for random, its generator, which
    makes one scalar draw per call."""
    if type(strat) is FixedMargin:
        return strat.margin
    if type(strat) is RandomMargin:
        return float(strat.rng.uniform(0.0, MARGIN_MAX))
    if type(strat) is ErrorFeedbackMargin:
        value = strat.base + max(0.0, error_window[-1])
    elif type(strat) is UsageStddevMargin:
        value = float(np.std(usage_window))
    else:
        raise TypeError(f"no reference for {type(strat).__name__}")
    return min(max(value, 0.0), MARGIN_MAX)


def day_of(strat, error_windows, usage_windows=None, host_ids=None):
    """Show `strat` one day of (hosts, steps, window) windows and read every
    margin back with `select`, as a (hosts, steps) list."""
    error_windows = np.asarray(error_windows, dtype=float)
    usage_windows = error_windows if usage_windows is None else np.asarray(
        usage_windows, dtype=float)
    hosts, steps = error_windows.shape[:2]
    host_ids = host_ids or [f"h{i}" for i in range(hosts)]
    strat.start_day(host_ids, error_windows, usage_windows)
    return [[strat.select(hid, k) for k in range(steps)] for hid in host_ids]


def margin_for(strat, errors=(0.0,) * 10, usage=(0.0,) * 10):
    """The margin `strat` answers for a one-host, one-step day with these windows."""
    return day_of(strat, [[errors]], [[usage]])[0][0]


def zero_day(hosts, steps, window=10):
    """A (hosts, steps, window) day of zero windows that allocates nothing."""
    return np.broadcast_to(0.0, (hosts, steps, window))


window_values = st.lists(
    st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=10, max_size=10)


class TestFixed:
    def test_constant(self):
        margins = day_of(FixedMargin(0.05), zero_day(2, 500))
        assert all(m == 0.05 for row in margins for m in row)

    def test_zero(self):
        assert margin_for(FixedMargin(0.0)) == 0.0

    def test_rejects_one(self):
        with pytest.raises(DomainError):
            FixedMargin(1.0)
        with pytest.raises(DomainError):
            FixedMargin(-0.1)


class TestRandom:
    def test_deterministic_per_seed(self):
        assert day_of(RandomMargin(123), zero_day(4, 25)) == day_of(
            RandomMargin(123), zero_day(4, 25))

    def test_different_seeds_differ(self):
        assert day_of(RandomMargin(1), zero_day(2, 5)) != day_of(RandomMargin(2), zero_day(2, 5))

    def test_range_and_mean(self):
        draws = np.array(day_of(RandomMargin(7), zero_day(4, 25_000, 1)))
        assert draws.min() >= 0.0
        assert draws.max() < MARGIN_MAX
        # uniform on [0, 0.99) has mean 0.495
        assert abs(draws.mean() - 0.495) < 0.01

    @pytest.mark.parametrize("seed", [0, 41, 2**40])
    def test_days_match_one_draw_per_call(self, seed):
        # Two days of 3 hosts, continued on one generator: the k-th step's
        # draws come after every earlier step's, hosts in order.
        strat, twin = RandomMargin(seed), RandomMargin(seed)
        for steps in (7, 5):
            got = day_of(strat, zero_day(3, steps))
            want = [[None] * steps for _ in range(3)]
            for k in range(steps):
                for i in range(3):
                    want[i][k] = reference_select(twin, None, None)
            assert got == want


class TestErrorFeedback:
    def test_adds_underestimation(self):
        strat = ErrorFeedbackMargin(0.05)
        assert margin_for(strat, errors=(0.0,) * 9 + (0.10,)) == pytest.approx(0.15)

    def test_ignores_overestimation(self):
        strat = ErrorFeedbackMargin(0.05)
        assert margin_for(strat, errors=(0.0,) * 9 + (-0.20,)) == pytest.approx(0.05)

    def test_clamps_high(self):
        strat = ErrorFeedbackMargin(0.05)
        assert margin_for(strat, errors=(0.0,) * 9 + (0.97,)) == MARGIN_MAX

    @given(window_values, st.floats(min_value=0, max_value=0.5, allow_nan=False))
    def test_never_below_base(self, errors, base):
        strat = ErrorFeedbackMargin(base)
        assert margin_for(strat, errors=tuple(errors)) >= min(base, MARGIN_MAX)

    @pytest.mark.parametrize("base", [0.0, -0.0, 0.05, 0.5])
    def test_day_matches_per_call_body(self, base):
        # Negative errors, both zeros, the tiniest positive error, and errors
        # on both sides of the MARGIN_MAX clamp; compared by bytes, so a -0.0
        # for a 0.0 would show.
        newest = [-0.5, -0.0, 0.0, 5e-324, 0.2, 0.94, 0.95, 0.97, 2.0]
        windows = np.zeros((3, len(newest), 4))
        windows[0, :, -1] = newest
        windows[1, :, -1] = newest[::-1]
        windows[2, :, -1] = np.negative(newest)
        windows[:, :, 0] = 0.5  # only the newest error counts
        strat = ErrorFeedbackMargin(base)
        got = day_of(strat, windows)
        want = [[reference_select(strat, tuple(w), None) for w in host] for host in windows]
        assert np.array(got).tobytes() == np.array(want).tobytes()


class TestUsageStddev:
    def test_constant_usage_zero_margin(self):
        strat = UsageStddevMargin(10)
        assert margin_for(strat, usage=(0.5,) * 10) == 0.0

    def test_alternating_usage(self):
        strat = UsageStddevMargin(10)
        usage = (0.4, 0.6) * 5
        assert margin_for(strat, usage=usage) == pytest.approx(0.10, abs=1e-12)

    def test_extreme_flapping(self):
        strat = UsageStddevMargin(10)
        usage = (0.0, 1.0) * 5
        assert margin_for(strat, usage=usage) == pytest.approx(0.5, abs=1e-12)

    def test_translation_invariance(self):
        strat = UsageStddevMargin(10)
        base = (0.1, 0.3, 0.2, 0.25, 0.15, 0.2, 0.3, 0.1, 0.2, 0.25)
        shifted = tuple(u + 0.3 for u in base)
        assert margin_for(strat, usage=base) == pytest.approx(
            margin_for(strat, usage=shifted), abs=1e-12)

    @given(st.sampled_from([2, 3, 7, 8, 9, 16, 17, 128, 129, 200]),
           st.sampled_from(["random", "constant", "zero-padded"]),
           st.floats(min_value=-3, max_value=3), st.integers(0, 2**32 - 1))
    def test_matches_numpy_std_bit_for_bit(self, size, shape, log_scale, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.0, 1.0, size=size) * 10.0 ** log_scale
        if shape == "constant":
            values[:] = values[0]
        elif shape == "zero-padded":
            values[:rng.integers(1, size)] = 0.0
        window = tuple(values.tolist())
        strat = UsageStddevMargin(size)
        assert margin_for(strat, usage=window) == reference_select(strat, None, window)

    @pytest.mark.parametrize("size", [2, 7, 10, 30, 200])
    @pytest.mark.parametrize("log_scale", [-2.0, 0.0, 1.5])
    def test_day_matches_np_std_of_each_window(self, size, log_scale):
        # The engine's windows: views into a zero-padded history, so the
        # first `size` steps' windows reach into the padding.
        hosts, steps = 3, 2 * size + 17
        rng = np.random.default_rng(size)
        usage = rng.uniform(0.0, 1.0, size=(hosts, steps)) * 10.0 ** log_scale
        usage[1, 5:9] = usage[1, 4]  # a flat stretch
        hist = np.concatenate([np.zeros((hosts, size)), usage], axis=1)
        windows = window_view(hist, size)[:, :steps]
        strat = UsageStddevMargin(size)
        got = day_of(strat, np.zeros((hosts, steps, 1)), windows)
        want = [[reference_select(strat, None, tuple(w.tolist())) for w in host]
                for host in windows]
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_window_size_configurable(self):
        assert UsageStddevMargin(25).window_size == 25
        with pytest.raises(DomainError):
            UsageStddevMargin(1)


class TestLearnedState:
    """The states handed to each agent's actor are np.clip of the day's
    error windows, and `act` squashes each (host, step) raw output in step
    order, hosts in order within a step; `select` reads its answer."""

    class Agent:
        def __init__(self, name, log):
            self.name = name
            self.log = log
            self.states = []

        def policy(self, states):
            self.states.append(states)
            return np.arange(states.shape[0], dtype=float)

        def act(self, raw, explore):
            self.log.append((self.name, raw, explore))
            return 0.001 * len(self.log)

    class Pool:
        window_size = 5

        def __init__(self, shared, hosts=("h0",)):
            self.shared = shared
            self.acted = []
            names = ["shared"] if shared else hosts
            self.agents = {name: TestLearnedState.Agent(name, self.acted) for name in names}

        def agent_for(self, host_id):
            return self.agents["shared" if self.shared else host_id]

    @given(st.lists(st.floats(allow_nan=False), min_size=5, max_size=5))
    def test_matches_numpy_clip(self, errors):
        pool = self.Pool(shared=True)
        strat = LearnedMargin(pool, explore=False)
        windows = np.array([[errors]])
        assert day_of(strat, windows, host_ids=["h0"]) == [[0.001]]
        (state,) = pool.agents["shared"].states
        expected = np.clip(windows[0], -1.0, 1.0)
        assert state.dtype == expected.dtype and state.shape == expected.shape
        assert state.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shared", [True, False])
    def test_select_reads_its_host_and_step(self, shared):
        hosts = ["a", "b", "c"]
        pool = self.Pool(shared, hosts)
        strat = LearnedMargin(pool, explore=True)
        windows = np.random.default_rng(0).uniform(-2.0, 2.0, size=(3, 4, 5))
        margins = day_of(strat, windows, host_ids=hosts)
        states = [state for agent in pool.agents.values() for state in agent.states]
        assert len(states) == (1 if shared else 3)
        assert np.array_equal(np.concatenate(states).reshape(windows.shape),
                              np.clip(windows, -1.0, 1.0))
        # Acts run step by step, hosts in order within a step.  Row (host i,
        # step k) is raw output i * 4 + k of one shared pass, or output k of
        # host i's own pass.
        assert pool.acted == [("shared" if shared else hosts[i],
                               float((i * 4 if shared else 0) + k), True)
                              for k in range(4) for i in range(3)]
        # select reads the margin its (host, step) act answered.
        assert margins == [[0.001 * (1 + k * 3 + i) for k in range(4)] for i in range(3)]


class TestContractRange:
    @given(window_values, window_values)
    def test_all_strategies_in_range(self, errors, usage):
        windows = np.array([[errors, usage[::-1]], [usage, errors]])
        usage_windows = np.abs(windows[::-1])
        for strat in (FixedMargin(0.05), RandomMargin(1), ErrorFeedbackMargin(0.05),
                      UsageStddevMargin(10)):
            margins = np.array(day_of(strat, windows, usage_windows))
            assert margins.shape == (2, 2)
            assert ((0.0 <= margins) & (margins <= MARGIN_MAX)).all()


class TestDayShape:
    class Wrong(MarginStrategy):
        def __init__(self, shape):
            self.shape = shape

        def day_margins(self, host_ids, error_windows, usage_windows):
            return np.zeros(self.shape)

    @pytest.mark.parametrize("shape", [(3, 4), (2, 5), (2,), (2, 4, 1), (8,)])
    def test_start_day_rejects_a_wrong_shape(self, shape):
        with pytest.raises(DomainError, match=r"Wrong\.day_margins.*\(2, 4\)"):
            day_of(self.Wrong(shape), zero_day(2, 4))

    def test_start_day_takes_the_right_shape(self):
        assert day_of(self.Wrong((2, 4)), zero_day(2, 4)) == [[0.0] * 4] * 2

    def test_each_kind_binds_the_one_select(self):
        for kind in (FixedMargin, RandomMargin, ErrorFeedbackMargin, UsageStddevMargin,
                     LearnedMargin):
            assert kind.__dict__["select"] is MarginStrategy.select


class TestStrategySpec:
    @pytest.mark.parametrize("token,kind,param", [
        ("fixed:0.05", "fixed", 0.05),
        ("random", "random", None),
        ("feedback", "feedback", None),
        ("feedback:0.08", "feedback", 0.08),
        ("scavenger", "scavenger", None),
        ("scavenger:12", "scavenger", 12.0),
        ("releaser", "releaser", None),
        # more digits than :g keeps, so the label falls back to repr
        ("fixed:0.1234567", "fixed", 0.1234567),
    ])
    def test_parse(self, token, kind, param):
        spec = StrategySpec.parse(token)
        assert spec.kind == kind
        assert spec.param == param
        assert StrategySpec.parse(spec.label) == spec

    @pytest.mark.parametrize("token", [
        "fixed", "fixed:x", "random:3", "releaser:1", "scavenger:2.5", "unknown",
        "scavenger:inf", "scavenger:nan", "fixed:nan", "feedback:-inf",
        "scavenger:1", "fixed:1.5", "feedback:-0.5",
    ])
    def test_parse_rejects(self, token):
        with pytest.raises(DomainError):
            StrategySpec.parse(token)

    def test_build(self):
        assert isinstance(StrategySpec.parse("fixed:0.1").build(MetricKind.CPU, 1),
                          FixedMargin)
        assert isinstance(StrategySpec.parse("scavenger:12").build(MetricKind.CPU, 1),
                          UsageStddevMargin)
        with pytest.raises(DomainError):
            StrategySpec.parse("releaser").build(MetricKind.CPU, 1)

    def test_random_build_is_seed_stable(self):
        spec = StrategySpec.parse("random")
        a = spec.build(MetricKind.CPU, 99)
        b = spec.build(MetricKind.CPU, 99)
        c = spec.build(MetricKind.RAM, 99)
        seq_a = [margin_for(a) for _ in range(5)]
        seq_b = [margin_for(b) for _ in range(5)]
        seq_c = [margin_for(c) for _ in range(5)]
        assert seq_a == seq_b
        assert seq_a != seq_c

    def test_slug_is_path_safe(self):
        assert "/" not in StrategySpec.parse("fixed:0.05").slug
        assert ":" not in StrategySpec.parse("fixed:0.05").slug
