"""Margin strategies: how much headroom to keep above the predicted usage.

A strategy sees a short window of recent prediction errors and usage for
one (host, metric) pair and answers with a margin fraction in
[0, MARGIN_MAX].  All strategies are deterministic given their seed and
the observation sequence, which is what makes runs reproducible.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from marginsim.errors import DomainError
from marginsim.traces import MetricKind

MARGIN_MAX = 0.99


class Observation(NamedTuple):
    """What a strategy may look at when choosing the next margin.

    `step` is the step's index within the current day.  A strategy is built
    for one metric, so the windows are that metric's.  They are ordered
    oldest first and front-padded with zeros while the simulation is younger
    than the window length.  `error_window` holds raw prediction errors
    (usage - prediction); `usage_window` holds raw usage.
    """

    host_id: str
    step: int
    error_window: tuple[float, ...]
    usage_window: tuple[float, ...]


def clamp_margin(value: float) -> float:
    return min(max(value, 0.0), MARGIN_MAX)


class MarginStrategy(ABC):
    """Contract: before each day's steps, `start_day` receives that day's
    host ids and every error window the day's observations will hold:
    `error_windows[i, k]` is the error window of `host_ids[i]` at step k of
    the day, a read-only (hosts, steps, window_size) array.  Then `select`
    is called once per (host, step) in step order, hosts in `host_ids` order
    within a step, with `obs.step` == k and `obs.error_window` equal to
    `error_windows[i, k]`.  `select` returns a margin in
    [0, MARGIN_MAX] and must be deterministic given the construction seed
    and the sequence of calls."""

    #: window length this strategy wants in its observations
    window_size: int = 10

    def start_day(self, host_ids: list[str], error_windows: np.ndarray) -> None:
        """Prepare for a day's selects; by default nothing."""

    @abstractmethod
    def select(self, obs: Observation) -> float:
        raise NotImplementedError


class FixedMargin(MarginStrategy):
    """The same margin at every step."""

    def __init__(self, margin: float):
        if not (0.0 <= margin < 1.0):
            raise DomainError(f"fixed margin must be in [0, 1), got {margin}")
        self.margin = clamp_margin(margin)

    def select(self, obs: Observation) -> float:
        return self.margin


class RandomMargin(MarginStrategy):
    """A fresh uniform draw from [0, MARGIN_MAX) at every step."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def select(self, obs: Observation) -> float:
        return float(self.rng.uniform(0.0, MARGIN_MAX))


class ErrorFeedbackMargin(MarginStrategy):
    """A base margin plus the most recent underestimation, if any.

    Overestimation (negative error) never shrinks the margin below base.
    """

    def __init__(self, base: float = 0.05):
        if not (0.0 <= base < 1.0):
            raise DomainError(f"base margin must be in [0, 1), got {base}")
        self.base = base

    def select(self, obs: Observation) -> float:
        newest_error = obs.error_window[-1]
        return clamp_margin(self.base + max(0.0, newest_error))


class UsageStddevMargin(MarginStrategy):
    """Margin equal to the population stddev of recent usage.

    Volatile hosts get wide margins, quiet hosts narrow ones.
    """

    def __init__(self, window: int = 10):
        if window < 2:
            raise DomainError(f"stddev window must be >= 2, got {window}")
        self.window_size = window

    def select(self, obs: Observation) -> float:
        # np.std's own steps (pairwise sums, in-place square) without its
        # Python wrapper; the result is bit-identical to `w.std()`.
        w = np.asarray(obs.usage_window, dtype=float)
        n = w.size
        dev = w - np.add.reduce(w) / n
        np.multiply(dev, dev, out=dev)
        return clamp_margin(float(np.sqrt(np.add.reduce(dev) / n)))


class LearnedMargin(MarginStrategy):
    """Margin chosen by a trained (or training) agent.

    `pool` maps a host id to its agent; a pool backed by a single shared
    agent returns that agent for every host.  With `explore` set the agent
    adds its exploration noise, and `engine.run` trains it on the run's
    transitions; without it the agent only acts.

    An agent's actor does not change within a day (agents learn after the
    day settles), so `start_day` runs each agent's actor once over the
    day's error windows, clipped to [-1, 1]: one pass for a shared agent,
    one per host otherwise.  `select` then only explores and squashes, in
    step order.
    """

    def __init__(self, pool, explore: bool):
        self.pool = pool
        self.explore = explore
        self.window_size = pool.window_size
        # host id -> (agent, the day's raw actor outputs): a memoryview of the
        # pass's output, which reads out Python floats without holding them
        self._day = {}

    def start_day(self, host_ids, error_windows) -> None:
        states = np.clip(error_windows, -1.0, 1.0)
        agents = [self.pool.agent_for(hid) for hid in host_ids]
        if self.pool.shared:
            raws = agents[0].policy(states.reshape(-1, self.window_size)).reshape(
                len(host_ids), -1)
        else:
            raws = [agent.policy(host_states) for agent, host_states in zip(agents, states)]
        self._day = dict(zip(host_ids, zip(agents, map(memoryview, raws))))

    def select(self, obs: Observation) -> float:
        agent, raw = self._day[obs.host_id]
        return agent.act(raw[obs.step], self.explore)


STRATEGY_KINDS = ("fixed", "random", "feedback", "scavenger", "releaser")


@dataclass(frozen=True)
class StrategySpec:
    """A parsed strategy token from a scenario config, e.g. 'fixed:0.05'."""

    kind: str
    param: float | None = None

    @classmethod
    def parse(cls, token: str) -> "StrategySpec":
        token = token.strip()
        kind, _, param_text = token.partition(":")
        if kind not in STRATEGY_KINDS:
            raise DomainError(f"unknown strategy {kind!r} (choose from {STRATEGY_KINDS})")
        if not param_text:
            if kind == "fixed":
                raise DomainError("fixed strategy needs a margin, e.g. fixed:0.05")
            return cls(kind)
        if kind in ("random", "releaser"):
            raise DomainError(f"strategy {kind!r} takes no parameter, got {token!r}")
        try:
            param = float(param_text)
        except ValueError:
            raise DomainError(f"bad strategy parameter in {token!r}") from None
        if kind == "scavenger" and param != int(param):
            raise DomainError(f"scavenger window must be an integer, got {param_text!r}")
        return cls(kind, param)

    @property
    def label(self) -> str:
        if self.param is None:
            return self.kind
        if self.kind == "scavenger":
            return f"{self.kind}:{int(self.param)}"
        return f"{self.kind}:{self.param:g}"

    @property
    def slug(self) -> str:
        """Filesystem-safe form of the label."""
        return self.label.replace(":", "_").replace(".", "p")

    def build(self, metric: MetricKind, root_seed: int,
              pool=None, explore: bool = False) -> MarginStrategy:
        """Instantiate for one metric; seeds derive from `root_seed` by name."""
        from marginsim.seeds import subseed

        if self.kind == "fixed":
            return FixedMargin(self.param)
        if self.kind == "random":
            return RandomMargin(subseed(root_seed, "strategy", "random", metric.value))
        if self.kind == "feedback":
            return ErrorFeedbackMargin(0.05 if self.param is None else self.param)
        if self.kind == "scavenger":
            return UsageStddevMargin(10 if self.param is None else int(self.param))
        if pool is None:
            raise DomainError(f"{metric.value}: releaser strategy needs a trained agent")
        return LearnedMargin(pool, explore)
