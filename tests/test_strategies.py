"""Strategy contract tests: ranges, determinism, and the worked examples."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from marginsim.errors import DomainError
from marginsim.strategies import (
    MARGIN_MAX,
    ErrorFeedbackMargin,
    FixedMargin,
    LearnedMargin,
    Observation,
    RandomMargin,
    StrategySpec,
    UsageStddevMargin,
    clamp_margin,
)
from marginsim.traces import MetricKind


def obs(errors=(0.0,) * 10, usage=(0.0,) * 10, step=0):
    return Observation("h0", step, tuple(errors), tuple(usage))


window_values = st.lists(
    st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=10, max_size=10)


class TestObservation:
    def test_fields_in_order(self):
        assert Observation._fields == ("host_id", "step", "error_window", "usage_window")
        o = obs(errors=(0.1,) * 10, usage=(0.2,) * 10, step=3)
        assert o.host_id == "h0" and o.step == 3
        assert o.error_window == (0.1,) * 10 and o.usage_window == (0.2,) * 10

    @pytest.mark.parametrize("name", Observation._fields)
    def test_immutable(self, name):
        with pytest.raises(AttributeError):
            setattr(obs(), name, 0.5)


class TestFixed:
    def test_constant(self):
        strat = FixedMargin(0.05)
        assert all(strat.select(obs()) == 0.05 for _ in range(1000))

    def test_zero(self):
        assert FixedMargin(0.0).select(obs()) == 0.0

    def test_rejects_one(self):
        with pytest.raises(DomainError):
            FixedMargin(1.0)
        with pytest.raises(DomainError):
            FixedMargin(-0.1)


class TestRandom:
    def test_deterministic_per_seed(self):
        a = RandomMargin(123)
        b = RandomMargin(123)
        draws_a = [a.select(obs()) for _ in range(100)]
        draws_b = [b.select(obs()) for _ in range(100)]
        assert draws_a == draws_b

    def test_different_seeds_differ(self):
        a = RandomMargin(1)
        b = RandomMargin(2)
        assert [a.select(obs()) for _ in range(10)] != [b.select(obs()) for _ in range(10)]

    def test_range_and_mean(self):
        strat = RandomMargin(7)
        draws = np.array([strat.select(obs()) for _ in range(100_000)])
        assert draws.min() >= 0.0
        assert draws.max() < MARGIN_MAX
        # uniform on [0, 0.99) has mean 0.495
        assert abs(draws.mean() - 0.495) < 0.01


class TestErrorFeedback:
    def test_adds_underestimation(self):
        strat = ErrorFeedbackMargin(0.05)
        assert strat.select(obs(errors=(0.0,) * 9 + (0.10,))) == pytest.approx(0.15)

    def test_ignores_overestimation(self):
        strat = ErrorFeedbackMargin(0.05)
        assert strat.select(obs(errors=(0.0,) * 9 + (-0.20,))) == pytest.approx(0.05)

    def test_clamps_high(self):
        strat = ErrorFeedbackMargin(0.05)
        assert strat.select(obs(errors=(0.0,) * 9 + (0.97,))) == MARGIN_MAX

    @given(window_values, st.floats(min_value=0, max_value=0.5, allow_nan=False))
    def test_never_below_base(self, errors, base):
        strat = ErrorFeedbackMargin(base)
        assert strat.select(obs(errors=tuple(errors))) >= min(base, MARGIN_MAX)


class TestUsageStddev:
    def test_constant_usage_zero_margin(self):
        strat = UsageStddevMargin(10)
        assert strat.select(obs(usage=(0.5,) * 10)) == 0.0

    def test_alternating_usage(self):
        strat = UsageStddevMargin(10)
        usage = (0.4, 0.6) * 5
        assert strat.select(obs(usage=usage)) == pytest.approx(0.10, abs=1e-12)

    def test_extreme_flapping(self):
        strat = UsageStddevMargin(10)
        usage = (0.0, 1.0) * 5
        assert strat.select(obs(usage=usage)) == pytest.approx(0.5, abs=1e-12)

    def test_translation_invariance(self):
        strat = UsageStddevMargin(10)
        base = (0.1, 0.3, 0.2, 0.25, 0.15, 0.2, 0.3, 0.1, 0.2, 0.25)
        shifted = tuple(u + 0.3 for u in base)
        assert strat.select(obs(usage=base)) == pytest.approx(
            strat.select(obs(usage=shifted)), abs=1e-12)

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
        expected = clamp_margin(float(np.std(window)))
        assert UsageStddevMargin(size).select(obs(usage=window)) == expected

    def test_window_size_configurable(self):
        assert UsageStddevMargin(25).window_size == 25
        with pytest.raises(DomainError):
            UsageStddevMargin(1)


class TestLearnedState:
    """The states handed to the agent's actor are np.clip of the day's error
    windows, and each select squashes its own (host, step) raw output."""

    class Pool:
        window_size = 5

        def __init__(self, shared):
            self.shared = shared
            self.states = []
            self.acted = []

        def agent_for(self, host_id):
            return self

        def policy(self, states):
            self.states.append(states)
            return np.arange(states.shape[0], dtype=float)

        def act(self, raw, explore):
            self.acted.append((raw, explore))
            return 0.1

    @given(st.lists(st.floats(allow_nan=False), min_size=5, max_size=5))
    def test_matches_numpy_clip(self, errors):
        pool = self.Pool(shared=True)
        strat = LearnedMargin(pool, explore=False)
        windows = np.array([[errors]])
        strat.start_day(["h0"], windows)
        assert strat.select(obs(errors=errors)) == 0.1
        (state,) = pool.states
        expected = np.clip(windows[0], -1.0, 1.0)
        assert state.dtype == expected.dtype and state.shape == expected.shape
        assert state.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shared", [True, False])
    def test_select_reads_its_host_and_step(self, shared):
        pool = self.Pool(shared)
        strat = LearnedMargin(pool, explore=True)
        windows = np.random.default_rng(0).uniform(-2.0, 2.0, size=(3, 4, 5))
        strat.start_day(["a", "b", "c"], windows)
        assert len(pool.states) == (1 if shared else 3)
        assert np.array_equal(np.concatenate(pool.states).reshape(windows.shape),
                              np.clip(windows, -1.0, 1.0))
        for step in (2, 0):
            for i, host in enumerate("cab"):
                strat.select(Observation(host, step, (), ()))
        # Row (host i, step k) is raw output i * 4 + k of one shared pass,
        # or output k of host i's own pass.
        raws = [(i * 4 if shared else 0) + k for k in (2, 0) for i in (2, 0, 1)]
        assert pool.acted == [(float(raw), True) for raw in raws]


class TestContractRange:
    @given(window_values, window_values)
    def test_all_strategies_in_range(self, errors, usage):
        observation = obs(errors=tuple(errors), usage=tuple(abs(u) for u in usage))
        for strat in (FixedMargin(0.05), RandomMargin(1), ErrorFeedbackMargin(0.05),
                      UsageStddevMargin(10)):
            margin = strat.select(observation)
            assert 0.0 <= margin <= MARGIN_MAX


class TestStrategySpec:
    @pytest.mark.parametrize("token,kind,param", [
        ("fixed:0.05", "fixed", 0.05),
        ("random", "random", None),
        ("feedback", "feedback", None),
        ("feedback:0.08", "feedback", 0.08),
        ("scavenger", "scavenger", None),
        ("scavenger:12", "scavenger", 12.0),
        ("releaser", "releaser", None),
    ])
    def test_parse(self, token, kind, param):
        spec = StrategySpec.parse(token)
        assert spec.kind == kind
        assert spec.param == param
        assert StrategySpec.parse(spec.label) == spec

    @pytest.mark.parametrize("token", [
        "fixed", "fixed:x", "random:3", "releaser:1", "scavenger:2.5", "unknown",
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
        seq_a = [a.select(obs()) for _ in range(5)]
        seq_b = [b.select(obs()) for _ in range(5)]
        seq_c = [c.select(obs()) for _ in range(5)]
        assert seq_a == seq_b
        assert seq_a != seq_c

    def test_slug_is_path_safe(self):
        assert "/" not in StrategySpec.parse("fixed:0.05").slug
        assert ":" not in StrategySpec.parse("fixed:0.05").slug
