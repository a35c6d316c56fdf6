"""A small deterministic-policy actor-critic agent for margin selection.

The actor maps a window of recent prediction errors to a margin; the critic
scores (window, margin) pairs.  Exploration adds Ornstein-Uhlenbeck noise to
the actor's raw output before a logistic squash keeps the margin inside
[0, MARGIN_MAX].  Training is off-policy from a uniform replay buffer with
hard target-network copies on a fixed period.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from marginsim.errors import CheckpointError, DomainError, NonFiniteGradientError
from marginsim.fileio import atomic_write
from marginsim.nets import (
    AdamState,
    Buffers,
    DenseNet,
    adam_step,
    backward,
    clone_into,
    clone_net,
    load_network,
    mae_loss,
    mse_loss,
    save_network,
)
from marginsim.seeds import subseed
from marginsim.strategies import MARGIN_MAX
from marginsim.traces import DEFAULT_STEP_MINUTES, MINUTES_PER_DAY

ACTOR_HIDDEN = (16, 16)
CRITIC_HIDDEN = (32, 32)
SHARED = "shared"  # the scope of an agent that serves every host


@dataclass(frozen=True)
class DdpgConfig:
    """Agent hyperparameters: exactly the fields a checkpoint stores, in
    checkpoint order.  Each default is the scenario file's `[ddpg]` default;
    a scenario sets `steps_per_day` from its step length."""

    window: int = 10
    learning_rate: float = 0.001
    discount: float = 0.99
    replay_capacity: int = 100_000
    batch_size: int = 128
    warmup_steps: int = 1000
    ou_theta: float = 0.15
    ou_mu: float = 0.0
    ou_sigma: float = 0.3
    target_update_days: int = 10
    steps_per_day: int = MINUTES_PER_DAY // DEFAULT_STEP_MINUTES
    critic_loss: str = "mae"

    def validate(self) -> None:
        if self.window < 1:
            raise DomainError("window must be >= 1")
        if self.learning_rate <= 0:
            raise DomainError("learning_rate must be positive")
        if not (0.0 <= self.discount <= 1.0):
            raise DomainError(f"discount must be in [0, 1], got {self.discount}")
        if self.replay_capacity < 1 or self.batch_size < 1:
            raise DomainError("replay_capacity and batch_size must be >= 1")
        if self.batch_size > self.replay_capacity:
            raise DomainError("batch_size cannot exceed replay_capacity")
        if self.warmup_steps < 0:
            raise DomainError("warmup_steps must be >= 0")
        if self.ou_theta <= 0 or self.ou_theta >= 1:
            raise DomainError(f"ou_theta must be in (0, 1), got {self.ou_theta}")
        if self.ou_sigma < 0:
            raise DomainError("ou_sigma must be >= 0")
        if self.target_update_days < 1 or self.steps_per_day < 1:
            raise DomainError("target_update_days and steps_per_day must be >= 1")
        if self.critic_loss not in ("mae", "mse"):
            raise DomainError(f"critic_loss must be 'mae' or 'mse', got {self.critic_loss}")


# Parsers for `DdpgConfig`'s field annotations, from checkpoint text.
_FIELD_TYPES = {"int": int, "float": float, "str": str}


@dataclass
class UpdateStats:
    """What one `store_and_learn` call did."""

    updated: bool = False
    critic_loss: float = math.nan
    actor_q: float = math.nan
    skipped_nonfinite: bool = False


class OuProcess:
    """Ornstein-Uhlenbeck noise: x <- x + theta*(mu - x) + sigma*N(0, 1)."""

    def __init__(self, theta: float, mu: float, sigma: float, seed: int):
        self.theta = theta
        self.mu = mu
        self.sigma = sigma
        self.state = mu
        self.rng = np.random.default_rng(seed)

    def step(self) -> float:
        self.state = (self.state + self.theta * (self.mu - self.state)
                      + self.sigma * self.rng.standard_normal())
        return self.state


class ReplayBuffer:
    """Fixed-capacity ring buffer with uniform sampling (with replacement).

    Each transition is one row of `rows`: state, action, next state, one
    spare column, reward.  Sampling gathers whole rows, so a batch already
    holds the critic's (state, action) input, and its next state and spare
    column become the target critic's input (see `Batch`).

    A learning agent's `rows` is allocated with its pool (`build_pool`).
    Otherwise it is allocated when first used, so an agent that only acts
    (a loaded agent in evaluate) never holds one.
    """

    def __init__(self, capacity: int, state_dim: int, seed: int):
        if capacity < 1:
            raise DomainError("capacity must be >= 1")
        self.capacity = capacity
        self.state_dim = state_dim
        self.shape = (capacity, 2 * state_dim + 3)
        self._rows = None
        self.size = 0
        self.insert_pos = 0
        self.rng = np.random.default_rng(seed)

    @property
    def rows(self) -> np.ndarray:
        if self._rows is None:
            # Not zero-filled: once the allocator serves an array this size
            # from reused heap memory, zero-filling makes all of it resident,
            # and only rows `add` has written are ever read.
            self._rows = np.empty(self.shape)
        return self._rows

    def add(self, state: np.ndarray, action: float, reward: float,
            next_state: np.ndarray) -> None:
        i = self.insert_pos
        w = self.state_dim
        row = self.rows[i]
        row[:w] = state
        row[w] = action
        row[w + 1:2 * w + 1] = next_state
        row[-2] = 0.0  # the spare column
        row[-1] = reward
        self.insert_pos = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, n: int) -> "Batch":
        if self.size == 0:
            raise DomainError("cannot sample from an empty buffer")
        idx = self.rng.integers(0, self.size, size=n)
        return Batch(self.rows.take(idx, axis=0), self.state_dim)


class Batch:
    """Replay rows drawn by `ReplayBuffer.sample`, laid out like its `rows`.

    All are views into `rows`: `critic_in` is the (n, window + 1) (state,
    action) block, `target_in` the (n, window + 1) (next state, spare)
    block, and `next_states` and `rewards` are columns of those.
    """

    def __init__(self, rows: np.ndarray, state_dim: int):
        w = state_dim
        self.rows = rows
        self.critic_in = rows[:, :w + 1]
        self.target_in = rows[:, w + 1:2 * w + 2]
        self.next_states = rows[:, w + 1:2 * w + 1]
        self.rewards = rows[:, -1]


def squash_into(raw: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The logistic map from the actor's raw output to (0, 1),
    `1.0 / (1.0 + np.exp(-raw))`, written into `out` by the same operations."""
    np.negative(raw, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def clamp_margin_into(values: np.ndarray, out: np.ndarray) -> None:
    """`np.clip(values, 0.0, MARGIN_MAX, out=out)` without its wrapper."""
    np.maximum(values, 0.0, out=out)
    np.minimum(out, MARGIN_MAX, out=out)


class DdpgAgent:
    """Actor-critic margin policy for one metric (optionally one host)."""

    def __init__(self, config: DdpgConfig, actor: DenseNet, critic: DenseNet,
                 reward_scale: float, seed: int):
        config.validate()
        if reward_scale <= 0:
            raise DomainError(f"reward_scale must be positive, got {reward_scale}")
        expected_actor = [config.window, *ACTOR_HIDDEN, 1]
        expected_critic = [config.window + 1, *CRITIC_HIDDEN, 1]
        if actor.dims() != expected_actor:
            raise CheckpointError(f"actor dims {actor.dims()} != expected {expected_actor}")
        if critic.dims() != expected_critic:
            raise CheckpointError(f"critic dims {critic.dims()} != expected {expected_critic}")
        self.config = config
        self.actor = actor
        self.critic = critic
        self.target_actor = clone_net(actor)
        self.target_critic = clone_net(critic)
        # The update's workspace, built with a learning agent's pool or by
        # the first update (`_workspace`), so an agent that only acts never
        # holds it.
        self.actor_opt = self.critic_opt = None
        self.actor_buffers = self.critic_buffers = None
        self.reward_scale = reward_scale
        self.replay = ReplayBuffer(config.replay_capacity, config.window,
                                   subseed(seed, "replay"))
        self.noise = OuProcess(config.ou_theta, config.ou_mu, config.ou_sigma,
                               subseed(seed, "ou"))
        self.warmup_rng = np.random.default_rng(subseed(seed, "warmup"))
        self.loss_fn = mae_loss if config.critic_loss == "mae" else mse_loss
        self.target_period = config.target_update_days * config.steps_per_day
        self.explore_calls = 0
        self.store_calls = 0
        self._batch_scratch = None  # see `_actor_gradients`

    @classmethod
    def create(cls, config: DdpgConfig, seed: int, reward_scale: float = 1.0) -> "DdpgAgent":
        config.validate()
        init_rng = np.random.default_rng(subseed(seed, "init"))
        actor = DenseNet.initialize([config.window, *ACTOR_HIDDEN, 1],
                                    ["relu", "relu", "linear"], init_rng)
        critic = DenseNet.initialize([config.window + 1, *CRITIC_HIDDEN, 1],
                                     ["relu", "relu", "linear"], init_rng)
        return cls(config, actor, critic, reward_scale, seed)

    def policy(self, states: np.ndarray) -> np.ndarray:
        """The actor's raw outputs for `states` (n, window), one per row, in
        one stacked pass; each equals the one-row forward of its state."""
        return self.actor.forward_trace(states[:, None, :])[-1].reshape(-1)

    def act(self, raw: float, explore: bool) -> float:
        """Margin for the actor's raw output `raw` (see `policy`);
        exploration adds noise (and, for the first `warmup_steps` exploring
        calls, replaces the policy with a uniform draw so the replay starts
        with diverse actions)."""
        if explore:
            self.explore_calls += 1
            if self.explore_calls <= self.config.warmup_steps:
                return float(self.warmup_rng.uniform(0.0, MARGIN_MAX))
            raw += self.noise.step()
        # squash_into's operations on Python floats: the same IEEE results, np.exp included.
        return min(max(1.0 / (1.0 + float(np.exp(-raw))), 0.0), MARGIN_MAX)

    def store_and_learn(self, state: np.ndarray, action: float, reward: float,
                        next_state: np.ndarray) -> UpdateStats:
        """Store one transition (reward normalized by `reward_scale`) and,
        once the replay is warm, run one batch update of critic and actor."""
        stats = UpdateStats()
        self.replay.add(state, action, reward / self.reward_scale, next_state)
        self.store_calls += 1
        if self.replay.size >= max(self.config.batch_size, self.config.warmup_steps):
            batch = self.replay.sample(self.config.batch_size)
            if np.isfinite(batch.rows).all():
                try:
                    stats.critic_loss, stats.actor_q = self._update(batch)
                    stats.updated = True
                except NonFiniteGradientError:
                    stats.skipped_nonfinite = True
            else:
                stats.skipped_nonfinite = True
        if self.store_calls % self.target_period == 0:
            clone_into(self.actor, self.target_actor)
            clone_into(self.critic, self.target_critic)
        return stats

    def _update(self, batch: Batch) -> tuple[float, float]:
        """One critic then one actor step on `batch`: three forward passes
        (five when `discount` is non-zero), each reused by the backward pass
        and the statistics that need it.  Activations and gradients go into
        the agent's buffers.

        Overwrites the batch's spare and action columns.
        """
        if self.actor_opt is None:
            self._workspace()
        targets = self._critic_targets(batch)
        critic_in = batch.critic_in
        trace = self.critic.forward_trace(critic_in, self.critic_buffers)
        loss, dq = self.loss_fn(targets, trace[-1][:, 0])
        critic_grads, _ = backward(self.critic, critic_in, dq[:, None], trace, inputs=False,
                                   buffers=self.critic_buffers)
        adam_step(self.critic, self.critic_opt, critic_grads.vector)
        # The critic step is done with critic_in; its action column now
        # takes the policy's actions.
        actor_grads, mean_q = self._actor_gradients(critic_in)
        adam_step(self.actor, self.actor_opt, np.negative(actor_grads.vector,
                                                          out=actor_grads.vector))
        return loss, mean_q

    def _workspace(self) -> None:
        """Adam moments and forward/backward buffers for the online nets;
        each target net shares its online twin's buffers.  Nothing in them
        refers back to the agent, so a dropped agent is freed at once rather
        than by the cycle collector."""
        lr = self.config.learning_rate
        self.actor_opt = AdamState(self.actor, lr)
        self.critic_opt = AdamState(self.critic, lr)
        self.actor_buffers = Buffers(self.actor)
        self.critic_buffers = Buffers(self.critic)

    @property
    def scalars(self) -> tuple:
        """What `store_and_learn` changes besides the arrays `build_pool`
        shares, once the workspace is built: the replay's fill, insert
        position and rng state, `store_calls` and both Adam step counts.
        Assigning the tuple back sets them."""
        replay = self.replay
        return (replay.size, replay.insert_pos, replay.rng.bit_generator.state,
                self.store_calls, self.actor_opt.step_count, self.critic_opt.step_count)

    @scalars.setter
    def scalars(self, values: tuple) -> None:
        replay = self.replay
        (replay.size, replay.insert_pos, replay.rng.bit_generator.state,
         self.store_calls, self.actor_opt.step_count, self.critic_opt.step_count) = values

    def _critic_targets(self, batch: Batch) -> np.ndarray:
        """rewards + discount * Q'(s', policy'(s')).  At discount 0 that is the
        rewards themselves, exactly: a stored reward is never -0.0 and the
        target nets and their inputs are finite, so the target pass is
        skipped."""
        if not self.config.discount:
            return batch.rewards
        raw_next = self.target_actor.forward(batch.next_states, self.actor_buffers)
        action = batch.target_in[:, -1:]
        clamp_margin_into(squash_into(raw_next, action), action)
        q_next = self.target_critic.forward(batch.target_in, self.critic_buffers)[:, 0]
        return batch.rewards + self.config.discount * q_next

    def _actor_gradients(self, critic_in):
        """Gradients of mean Q(s, policy(s)) w.r.t. actor parameters, and
        that mean.

        `critic_in` is an (n, window + 1) array whose first columns are the
        states; its last column is overwritten with the policy's actions.
        The chain runs through the critic's action input and the logistic
        squash; the upper clamp gates the gradient to zero where it binds,
        matching finite differences of the applied action exactly.  The
        gradients live in the agent's buffers until the next update.
        """
        states = critic_in[:, :-1]
        n = states.shape[0]
        if self._batch_scratch is None or len(self._batch_scratch[0]) != n:
            # The upstream 1/n of the mean, and room for the squashed actions.
            self._batch_scratch = (np.full((n, 1), 1.0 / n), np.empty((n, 1)))
        mean_upstream, sig = self._batch_scratch
        actor_trace = self.actor.forward_trace(states, self.actor_buffers)
        squash_into(actor_trace[-1], sig)
        clamp_margin_into(sig, critic_in[:, -1:])
        critic_trace = self.critic.forward_trace(critic_in, self.critic_buffers)
        _, input_grad = backward(self.critic, critic_in, mean_upstream,
                                 critic_trace, params=False, buffers=self.critic_buffers)
        gate = (sig <= MARGIN_MAX).astype(float)
        d_raw = input_grad[:, -1:] * sig * (1.0 - sig) * gate
        grads, _ = backward(self.actor, states, d_raw, actor_trace, inputs=False,
                            buffers=self.actor_buffers)
        mean_q = float(np.add.reduce(critic_trace[-1][:, 0]) / n)
        return grads, mean_q

    def save(self, path: str | Path) -> None:
        """Write the agent (its config, one field a line; reward scale, noise
        state, all four networks; replay contents are deliberately excluded)
        atomically."""
        with atomic_write(path) as fh:
            fh.write("ddpg-agent v1\n")
            for f in fields(self.config):
                fh.write(f"{f.name} {getattr(self.config, f.name)}\n")
            fh.write(f"reward_scale {self.reward_scale!r}\n")
            fh.write(f"ou_state {self.noise.state!r}\n")
            for name, net in (("actor", self.actor), ("critic", self.critic),
                              ("target_actor", self.target_actor),
                              ("target_critic", self.target_critic)):
                fh.write(f"net {name}\n")
                save_network(net, fh)

    @classmethod
    def load(cls, path: str | Path, config: DdpgConfig) -> "DdpgAgent":
        """Rebuild an agent from `save` output.

        The stored architecture must match `config.window`; training
        counters, optimizer moments, and replay start fresh.
        """
        path = Path(path)
        try:
            fh = path.open()
        except OSError as exc:
            raise CheckpointError(f"cannot open checkpoint {path}: {exc}") from exc
        with fh:
            header = fh.readline().rstrip("\n")
            if header != "ddpg-agent v1":
                raise CheckpointError(f"{path}: bad agent header {header!r}")
            parse = {f.name: _FIELD_TYPES[f.type] for f in fields(DdpgConfig)}
            parse.update(reward_scale=float, ou_state=float)
            values = {}
            for key, convert in parse.items():
                line = fh.readline().rstrip("\n")
                parts = line.split(" ", 1)
                if len(parts) != 2 or parts[0] != key:
                    raise CheckpointError(f"{path}: expected field {key!r}, got {line!r}")
                try:
                    values[key] = convert(parts[1])
                except ValueError as exc:
                    raise CheckpointError(f"{path}: bad field value: {exc}") from exc
            reward_scale = values.pop("reward_scale")
            ou_state = values.pop("ou_state")
            stored = DdpgConfig(**values)
            if stored.window != config.window:
                raise CheckpointError(
                    f"{path}: checkpoint window {stored.window} does not match "
                    f"configured window {config.window}")
            nets = {}
            for name in ("actor", "critic", "target_actor", "target_critic"):
                marker = fh.readline().rstrip("\n")
                if marker != f"net {name}":
                    raise CheckpointError(f"{path}: expected 'net {name}', got {marker!r}")
                try:
                    nets[name] = load_network(fh)
                except CheckpointError as exc:
                    raise CheckpointError(f"{path}: {name}: {exc}") from exc
        try:
            agent = cls(stored, nets["actor"], nets["critic"], reward_scale, seed=0)
        except (DomainError, CheckpointError) as exc:
            raise CheckpointError(f"{path}: {exc}") from exc
        clone_into(nets["target_actor"], agent.target_actor)
        clone_into(nets["target_critic"], agent.target_critic)
        agent.noise.state = ou_state
        return agent


class AgentPool:
    """The agents serving one metric, by scope: a single shared one
    (scope `SHARED`), or one per host (scope: the host id)."""

    def __init__(self, agents: dict[str, DdpgAgent]):
        if not agents:
            raise DomainError("agent pool cannot be empty")
        self.agents = agents
        self.shared = list(agents) == [SHARED]
        windows = {a.config.window for a in agents.values()}
        if len(windows) != 1:
            raise DomainError("agents in one pool must share a window size")
        self.window_size = windows.pop()

    def agent_for(self, host_id: str) -> DdpgAgent:
        if self.shared:
            return self.agents[SHARED]
        try:
            return self.agents[host_id]
        except KeyError:
            raise DomainError(f"no agent for host {host_id!r}") from None

    def items(self):
        return self.agents.items()


def build_pool(config: DdpgConfig, metric, scopes: list[str], root_seed: int,
               reward_scale: float) -> AgentPool:
    """Fresh agents for `metric`, one per scope, seeded from the scenario
    seed by metric and scope, with their update workspace and replay rows.

    What learning writes in bulk, the four nets' parameters, both Adam
    states' moments and the replay rows, is allocated here in anonymous
    shared memory.  A process forked later, such as a learner that
    `engine.side_by_side` runs, writes straight into this process's
    arrays; of what it changes, only each agent's `scalars` stay its own.
    """
    agents = {}
    for scope in scopes:
        agent = DdpgAgent.create(config, subseed(root_seed, "agent", metric.value, scope),
                                 reward_scale)
        agent.actor, agent.critic, agent.target_actor, agent.target_critic = (
            DenseNet(net.layers, _shared(net.params.shape))
            for net in (agent.actor, agent.critic, agent.target_actor, agent.target_critic))
        agent._workspace()
        for opt in (agent.actor_opt, agent.critic_opt):
            opt.m, opt.v = _shared(opt.m.shape), _shared(opt.v.shape)
        agent.replay._rows = _shared(agent.replay.shape)
        agents[scope] = agent
    return AgentPool(agents)


def _shared(shape: tuple[int, ...]) -> np.ndarray:
    """A zero-filled float64 array in memory of its own that forked
    processes share; its pages are taken as they are first written."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=float).reshape(shape)
