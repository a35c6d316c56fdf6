"""Margin strategies: how much headroom to keep above the predicted usage.

A strategy is built for one metric.  Before each simulated day it is shown
the day's windows of recent prediction errors and usage for every host, and
answers the whole day's margin fractions in [0, MARGIN_MAX] at once
(`day_margins`); the engine then reads them back one (host, step) at a time
through `select`.  All strategies are deterministic given their seed and the
sequence of days they are shown, which is what makes runs reproducible.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from marginsim.errors import DomainError
from marginsim.traces import MetricKind

MARGIN_MAX = 0.99


def clamp_margin(value: float) -> float:
    return min(max(value, 0.0), MARGIN_MAX)


def _check_param(kind: str, value: float) -> None:
    """Raise DomainError unless `value` is a valid parameter of strategy `kind`."""
    if not math.isfinite(value):
        raise DomainError(f"{kind} parameter must be finite, got {value}")
    if kind == "scavenger" and (value < 2 or value != int(value)):
        raise DomainError(f"stddev window must be an integer >= 2, got {value}")
    if kind in ("fixed", "feedback") and not (0.0 <= value < 1.0):
        raise DomainError(f"{kind} margin must be in [0, 1), got {value}")


class MarginStrategy(ABC):
    """Contract: before each day's steps, `start_day` receives that day's
    host ids and windows, read-only (hosts, steps, window_size) arrays:
    `error_windows[i, k]` holds the raw prediction errors (usage -
    prediction) and `usage_windows[i, k]` the raw usage of `host_ids[i]` in
    the `window_size` steps before step k of the day, oldest first and
    front-padded with zeros while the run is younger than the window.
    `start_day` asks `day_margins` for the day's (hosts, steps) margins, each
    in [0, MARGIN_MAX]; a strategy keeps whatever state it needs across days
    and must be deterministic given its construction seed and the sequence of
    days.  `select(host_id, step)` then returns that host's margin at `step`,
    the step's index within the day, and computes nothing.  The engine reads
    one metric's whole day, host by host, before the other metric's, but the
    order of `select` calls is not part of this contract."""

    #: window length this strategy wants in the windows it is shown
    window_size: int = 10

    def start_day(self, host_ids: list[str], error_windows: np.ndarray,
                  usage_windows: np.ndarray) -> None:
        """Take the day's margins from `day_margins`, one row per host."""
        margins = np.asarray(self.day_margins(host_ids, error_windows, usage_windows),
                             dtype=float)
        expected = (len(host_ids), error_windows.shape[1])
        if margins.shape != expected:
            raise DomainError(f"{type(self).__name__}.day_margins returned shape "
                              f"{margins.shape}, expected (hosts, steps) = {expected}")
        # host id -> a memoryview of its row, which reads out Python floats
        # without holding them
        self._day = dict(zip(host_ids, map(memoryview, margins)))

    @abstractmethod
    def day_margins(self, host_ids: list[str], error_windows: np.ndarray,
                    usage_windows: np.ndarray) -> np.ndarray:
        """The day's margins, (len(host_ids), steps)."""
        raise NotImplementedError

    def select(self, host_id: str, step: int) -> float:
        return self._day[host_id][step]


# Each built-in kind binds `select` under its own class, so a tracer that
# wraps `<Kind>.select` counts that kind's selections alone.

class FixedMargin(MarginStrategy):
    """The same margin at every step."""

    def __init__(self, margin: float):
        _check_param("fixed", margin)
        self.margin = clamp_margin(margin)

    def day_margins(self, host_ids, error_windows, usage_windows):
        return np.full(error_windows.shape[:2], self.margin)

    select = MarginStrategy.select


class RandomMargin(MarginStrategy):
    """A fresh uniform draw from [0, MARGIN_MAX) at every step, drawn in
    step order, hosts in order within a step."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def day_margins(self, host_ids, error_windows, usage_windows):
        hosts, steps = error_windows.shape[:2]
        return self.rng.uniform(0.0, MARGIN_MAX, size=(steps, hosts)).T

    select = MarginStrategy.select


class ErrorFeedbackMargin(MarginStrategy):
    """A base margin plus the most recent underestimation, if any.

    Overestimation (negative error) never shrinks the margin below base.
    """

    def __init__(self, base: float = 0.05):
        _check_param("feedback", base)
        self.base = base

    def day_margins(self, host_ids, error_windows, usage_windows):
        newest = error_windows[:, :, -1]
        # where() rather than maximum(): max(0.0, e) is +0.0 for e == -0.0
        return np.minimum(self.base + np.where(newest > 0.0, newest, 0.0), MARGIN_MAX)

    select = MarginStrategy.select


class UsageStddevMargin(MarginStrategy):
    """Margin equal to the population stddev of recent usage.

    Volatile hosts get wide margins, quiet hosts narrow ones.
    """

    def __init__(self, window: int = 10):
        _check_param("scavenger", window)
        self.window_size = window

    def day_margins(self, host_ids, error_windows, usage_windows):
        # np.std's own steps (pairwise sums along each window, in-place
        # square) without its Python wrapper; each value is bit-identical to
        # `window.std()`.  One host at a time keeps the temporaries small.
        n = self.window_size
        out = np.empty(usage_windows.shape[:2])
        for windows, host_out in zip(usage_windows, out):
            dev = windows - (np.add.reduce(windows, axis=-1) / n)[:, None]
            np.multiply(dev, dev, out=dev)
            np.sqrt(np.add.reduce(dev, axis=-1) / n, out=host_out)
        return np.minimum(out, MARGIN_MAX, out=out)

    select = MarginStrategy.select


class LearnedMargin(MarginStrategy):
    """Margin chosen by a trained (or training) agent.

    `pool` maps a host id to its agent; a pool backed by a single shared
    agent returns that agent for every host; an agent's state is an error
    window clipped to [-1, 1].  With `explore` set the agent adds its
    exploration noise and learns from each settled day (`end_day`);
    without it the agent only acts.

    An agent's actor does not change within a day (agents learn after the
    day settles), so `day_margins` runs each agent's actor once over the
    day's states: one pass for a shared agent, one per host otherwise.  It
    then explores and squashes each raw output with `act`, in step order,
    hosts in order within a step, so the warmup draws and the exploration
    noise are drawn as a per-step walk would.
    """

    def __init__(self, pool, explore: bool):
        self.pool = pool
        self.explore = explore
        self.window_size = pool.window_size

    def day_margins(self, host_ids, error_windows, usage_windows):
        states = np.clip(error_windows, -1.0, 1.0)
        agents = [self.pool.agent_for(hid) for hid in host_ids]
        if self.pool.shared:
            raws = agents[0].policy(states.reshape(-1, self.window_size)).reshape(
                len(host_ids), -1)
        else:
            raws = [agent.policy(host_states) for agent, host_states in zip(agents, states)]
        out = np.empty(error_windows.shape[:2])
        # memoryviews read and write Python floats without numpy scalars
        hosts = list(zip([agent.act for agent in agents], map(memoryview, raws),
                         map(memoryview, out)))
        explore = self.explore
        for k in range(out.shape[1]):
            for act, raw, margin in hosts:
                margin[k] = act(raw[k], explore)
        return out

    def end_day(self, error_windows: np.ndarray, rewards) -> np.ndarray:
        """Learn from the settled day, one `store_and_learn` per (step, host)
        in step order: the action is the day's margin, `rewards[i][k]` the
        reward, and `error_windows` the day's windows plus the one that ends
        at its last step, step k + 1's being step k's next state.  Returns
        the (steps, hosts) critic losses, NaN where no update ran."""
        states = np.clip(error_windows, -1.0, 1.0)
        agents = [self.pool.agent_for(hid) for hid in self._day]
        actions = list(self._day.values())
        losses = np.full((states.shape[1] - 1, len(agents)), np.nan)
        for k, step_losses in enumerate(losses):
            for i, agent in enumerate(agents):
                stats = agent.store_and_learn(states[i, k], actions[i][k], rewards[i][k],
                                              states[i, k + 1])
                if stats.updated:
                    step_losses[i] = stats.critic_loss
        return losses

    select = MarginStrategy.select


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
        _check_param(kind, param)
        return cls(kind, param)

    @property
    def label(self) -> str:
        if self.param is None:
            return self.kind
        if self.kind == "scavenger":
            return f"{self.kind}:{int(self.param)}"
        text = f"{self.param:g}"  # 6 significant digits; repr where that loses any
        return f"{self.kind}:{text if float(text) == self.param else repr(self.param)}"

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
