"""Agent tests: action policy, replay, learning dynamics, checkpoints.

Gradient correctness is checked against finite differences of the applied
action (squash then clamp), so the analytic chain through the critic is
verified without reusing any implementation code.
"""

import dataclasses
import gc
import io
import itertools
import math
import mmap
import os
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from marginsim.agent import (
    DdpgAgent,
    DdpgConfig,
    OuProcess,
    ReplayBuffer,
    SHARED,
    build_pool,
)
from marginsim.errors import CheckpointError, DomainError
from marginsim.nets import DenseNet, clone_into, save_network
from marginsim.seeds import subseed
from marginsim.strategies import MARGIN_MAX
from marginsim.traces import MetricKind


AGENT_V1 = Path(__file__).parent / "data" / "agent_v1.ckpt"


def tiny_config(**overrides):
    base = dict(window=4, replay_capacity=64, batch_size=8, warmup_steps=8,
                steps_per_day=16, target_update_days=2)
    base.update(overrides)
    return DdpgConfig(**base)


def replay_buffer(capacity, state_dim, seed):
    return ReplayBuffer(np.empty((capacity, 2 * state_dim + 3)), seed)


SMAPS = Path("/proc/self/smaps")


def arena_rss(agent):
    """Resident bytes of the mapping that holds the agent's arrays."""
    address = agent.actor.params.ctypes.data
    inside = False
    for line in SMAPS.read_text().splitlines():
        head = line.split()[0]
        if not head.endswith(":"):  # a mapping's address range
            low, high = (int(x, 16) for x in head.split("-"))
            inside = low <= address < high
        elif inside and head == "Rss:":
            return int(line.split()[1]) * 1024
    raise AssertionError("no mapping holds the agent's parameters")


def params_pages(agent):
    """The bytes of the whole pages the four nets' parameters take."""
    nets = (agent.actor, agent.critic, agent.target_actor, agent.target_critic)
    return sum(-(-net.params.nbytes // mmap.PAGESIZE) * mmap.PAGESIZE for net in nets)


def random_states(seed, n, window):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, window))


def columns(batch):
    """A sampled batch's (states, actions, rewards, next_states) views."""
    return batch.critic_in[:, :-1], batch.critic_in[:, -1], batch.rewards, batch.next_states


def margin(agent, state, explore):
    """`act` on the actor's raw output for one state, as a day's selects
    read it from `policy`."""
    return agent.act(agent.policy(np.asarray(state, dtype=float)[None, :]).tolist()[0], explore)


def row_forward(net, state):
    """The actor's raw output for one state from a one-row np.dot forward:
    the per-row reference that `policy`'s stacked pass must equal."""
    a = np.array(state, dtype=float)[None, :]
    for layer in net.layers:
        a = np.dot(a, layer.weights.T)
        a += layer.bias
        if layer.activation == "relu":
            np.maximum(a, 0.0, out=a)
    return float(a[0, 0])


def with_action_column(states):
    """The (n, window + 1) critic input `_actor_gradients` fills in."""
    return np.hstack([states, np.full((states.shape[0], 1), np.nan)])


class TestConfig:
    def test_defaults_valid(self):
        DdpgConfig().validate()

    @pytest.mark.parametrize("field,value", [
        ("window", 0),
        ("learning_rate", 0.0),
        ("discount", 1.5),
        ("batch_size", 0),
        ("batch_size", 200_000),
        ("warmup_steps", -1),
        ("ou_theta", 1.0),
        ("ou_sigma", -0.1),
        ("target_update_days", 0),
        ("critic_loss", "huber"),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(DomainError):
            dataclasses.replace(DdpgConfig(), **{field: value}).validate()


class TestAct:
    def test_deterministic_without_exploration(self):
        agent = DdpgAgent.create(tiny_config(), seed=1)
        state = np.array([0.1, -0.2, 0.05, 0.0])
        assert margin(agent, state, explore=False) == margin(agent, state, explore=False)

    def test_range(self):
        agent = DdpgAgent.create(tiny_config(warmup_steps=100), seed=2)
        rng = np.random.default_rng(3)
        for i in range(10_000):
            state = rng.uniform(-1, 1, size=4)
            a = margin(agent, state, explore=(i % 2 == 0))
            assert 0.0 <= a <= MARGIN_MAX

    def test_zero_weights_give_midpoint(self):
        agent = DdpgAgent.create(tiny_config(), seed=4)
        for layer in agent.actor.layers:
            layer.weights[:] = 0.0
            layer.bias[:] = 0.0
        assert margin(agent, np.zeros(4), explore=False) == pytest.approx(0.5)

    def test_rejects_wrong_state_shape(self):
        agent = DdpgAgent.create(tiny_config(), seed=5)
        with pytest.raises(DomainError):
            agent.policy(np.zeros((1, 5)))

    def test_warmup_actions_are_the_seeded_uniform_stream(self):
        agent = DdpgAgent.create(tiny_config(warmup_steps=6), seed=6)
        expect = np.random.default_rng(subseed(6, "warmup"))
        rng = np.random.default_rng(7)
        drawn = [margin(agent, rng.uniform(-1, 1, size=4), explore=True) for _ in range(6)]
        assert drawn == [float(expect.uniform(0.0, MARGIN_MAX)) for _ in range(6)]
        # The seventh exploring call leaves warmup and follows the policy.
        state = np.zeros(4)
        later = margin(agent, state, explore=True)
        assert later != pytest.approx(float(expect.uniform(0.0, MARGIN_MAX)))

    @pytest.mark.parametrize("explore", [False, True])
    def test_margin_is_the_numpy_squash_as_a_python_float(self, explore):
        # act squashes with Python floats; this is the squash on numpy
        # scalars, noise added to the actor's output first.
        agent = DdpgAgent.create(tiny_config(warmup_steps=0), seed=14)
        twin = DdpgAgent.create(tiny_config(warmup_steps=0), seed=14)
        states = np.random.default_rng(15).uniform(-3.0, 3.0, size=(200, 4))
        states[::7] = 0.0
        for state in states:
            got = agent.act(row_forward(agent.actor, state), explore=explore)
            raw = twin.actor.forward(state[None, :])[0, 0] + (
                twin.noise.step() if explore else 0.0)
            assert type(got) is float
            assert got == float(min(max(1.0 / (1.0 + np.exp(-raw)), 0.0), MARGIN_MAX))

    def test_greedy_calls_do_not_consume_warmup(self):
        agent = DdpgAgent.create(tiny_config(warmup_steps=2), seed=8)
        state = np.full(4, 0.1)
        greedy = margin(agent, state, explore=False)
        margin(agent, state, explore=True)
        margin(agent, state, explore=True)
        assert margin(agent, state, explore=False) == greedy
        assert agent.explore_calls == 2

    def test_rows_match_a_stacked_actor_pass(self):
        # A whole day of selections (480 steps x 5 hosts) through the actor
        # at once, as (T, 1, w) @ W.T matmuls, gives each row's one-row
        # np.dot forward bit for bit; a (T, w) @ W.T gemm would not.
        agent = DdpgAgent.create(DdpgConfig(), seed=11)
        states = np.random.default_rng(12).uniform(-1.0, 1.0, size=(2400, 10))
        states[::9] = 0.0
        states[4::9, ::3] = -0.0
        a = states[:, None, :]
        for layer in agent.actor.layers:
            a = a @ layer.weights.T
            a += layer.bias
            if layer.activation == "relu":
                np.maximum(a, 0.0, out=a)
        for state, raw in zip(states, a[:, 0, 0]):
            assert row_forward(agent.actor, state) == raw

    def test_create_is_seed_deterministic(self):
        a = DdpgAgent.create(tiny_config(), seed=9)
        b = DdpgAgent.create(tiny_config(), seed=9)
        c = DdpgAgent.create(tiny_config(), seed=10)
        state = np.array([0.2, 0.0, -0.1, 0.4])
        assert margin(a, state, False) == margin(b, state, False)
        assert margin(a, state, False) != margin(c, state, False)


class TestPolicy:
    @pytest.mark.parametrize("window", [4, 10, 201])
    def test_equals_one_row_forwards(self, window):
        # States as a day's windows reach the actor: overlapping strided
        # views of one zero-padded, clipped error history, holding zeros,
        # -0.0 and values clipped at -1 and 1.
        agent = DdpgAgent.create(DdpgConfig(window=window), seed=window)
        rng = np.random.default_rng(window + 1)
        for rows in (1, 2, 479, 480, 2400):
            history = np.concatenate([np.zeros(window), rng.uniform(-1.5, 1.5, size=rows)])
            history[window::7] = 0.0
            history[window + 3::11] = -0.0
            history = np.clip(history, -1.0, 1.0)
            if rows > 2:
                assert (history == 1.0).any() and (history == -1.0).any()
            states = sliding_window_view(history, window)[:rows]
            assert states.strides == (8, 8)
            raws = agent.policy(states)
            assert raws.shape == (rows,)
            for k, state in enumerate(states):
                assert raws[k].tobytes() == np.float64(row_forward(agent.actor, state)).tobytes()

    def test_a_day_of_hosts_in_one_pass_equals_each_host_alone(self):
        agent = DdpgAgent.create(DdpgConfig(), seed=16)
        windows = np.clip(np.random.default_rng(17).normal(0.0, 0.8, size=(5, 480, 10)),
                          -1.0, 1.0)
        stacked = agent.policy(windows.reshape(-1, 10)).reshape(5, 480)
        for host_states, raws in zip(windows, stacked):
            assert agent.policy(host_states).tobytes() == raws.tobytes()


class TestOuProcess:
    def test_stationary_std(self):
        ou = OuProcess(theta=0.15, mu=0.0, sigma=0.3, seed=11)
        samples = np.array([ou.step() for _ in range(100_000)])
        target = 0.3 / math.sqrt(2 * 0.15)
        assert abs(np.std(samples[1000:]) - target) / target < 0.10

    def test_mean_reverts_to_mu(self):
        ou = OuProcess(theta=0.15, mu=0.5, sigma=0.3, seed=12)
        samples = np.array([ou.step() for _ in range(100_000)])
        assert np.mean(samples[1000:]) == pytest.approx(0.5, abs=0.05)

    def test_seed_deterministic(self):
        a = OuProcess(0.15, 0.0, 0.3, seed=14)
        b = OuProcess(0.15, 0.0, 0.3, seed=14)
        assert [a.step() for _ in range(50)] == [b.step() for _ in range(50)]


class TestReplayBuffer:
    @staticmethod
    def transition(reward, window=2):
        return np.full(window, reward), 0.5, reward, np.full(window, reward)

    def test_evicts_oldest(self):
        buf = replay_buffer(capacity=8, state_dim=2, seed=15)
        for r in range(12):
            buf.add(*self.transition(float(r)))
        assert buf.size == 8
        assert sorted(buf.rows[:, -1]) == [float(r) for r in range(4, 12)]
        _, _, rewards, _ = columns(buf.sample(1000))
        assert rewards.min() >= 4.0

    def test_sampling_is_uniform(self):
        buf = replay_buffer(capacity=16, state_dim=2, seed=16)
        for r in range(16):
            buf.add(*self.transition(float(r)))
        _, _, rewards, _ = columns(buf.sample(160_000))
        counts = np.bincount(rewards.astype(int), minlength=16)
        assert np.all(np.abs(counts - 10_000) < 500)

    def test_sample_empty_rejected(self):
        with pytest.raises(DomainError):
            replay_buffer(capacity=4, state_dim=2, seed=17).sample(1)

    def test_state_round_trip(self):
        buf = replay_buffer(capacity=4, state_dim=3, seed=18)
        state, next_state = np.array([0.1, 0.2, 0.3]), np.array([0.2, 0.3, 0.4])
        buf.add(state, 0.4, 1.5, next_state)
        states, actions, rewards, next_states = columns(buf.sample(5))
        assert np.all(states == state)
        assert np.all(actions == 0.4)
        assert np.all(rewards == 1.5)
        assert np.all(next_states == next_state)

    def test_add_writes_every_column(self):
        # Rows are not initialised; a stored row holds only what `add`
        # wrote, the spare column included.
        buf = replay_buffer(capacity=4, state_dim=3, seed=19)
        buf.rows[...] = np.nan
        buf.add(*self.transition(1.0, window=3))
        rows = buf.sample(3).rows
        assert np.isfinite(rows).all()
        assert (rows[:, -2] == 0.0).all()


class TestLearning:
    @staticmethod
    def feed(agent, rng, n, reward_fn):
        stats = []
        for _ in range(n):
            s = rng.uniform(-1, 1, size=agent.config.window)
            a = float(rng.uniform(0, MARGIN_MAX))
            s2 = rng.uniform(-1, 1, size=agent.config.window)
            stats.append(agent.store_and_learn(s, a, reward_fn(s, a), s2))
        return stats

    def test_no_update_until_replay_is_warm(self):
        agent = DdpgAgent.create(tiny_config(batch_size=4, warmup_steps=10), seed=19)
        before = [l.weights.copy() for l in agent.actor.layers]
        rng = np.random.default_rng(20)
        stats = self.feed(agent, rng, 9, lambda s, a: 1.0)
        assert not any(st.updated for st in stats)
        for layer, prev in zip(agent.actor.layers, before):
            assert np.array_equal(layer.weights, prev)
        final = self.feed(agent, rng, 1, lambda s, a: 1.0)[0]
        assert final.updated
        assert any(not np.array_equal(l.weights, p)
                   for l, p in zip(agent.actor.layers, before))

    def test_reward_is_normalized_on_store(self):
        agent = DdpgAgent.create(tiny_config(), seed=21, reward_scale=2.0)
        agent.store_and_learn(np.zeros(4), 0.1, 3.0, np.zeros(4))
        assert agent.replay.rows[0, -1] == pytest.approx(1.5)  # the reward column

    def test_stored_reward_is_the_exact_quotient(self):
        agent = DdpgAgent.create(tiny_config(), seed=22, reward_scale=3.7)
        rewards = np.random.default_rng(23).normal(size=40)
        for reward in rewards:
            agent.store_and_learn(np.zeros(4), 0.1, reward, np.zeros(4))
        assert agent.replay.rows[:40, -1].tobytes() == (rewards / 3.7).tobytes()

    def test_critic_regresses_to_constant_reward(self):
        # With discount 0 the critic target is the (normalized) reward, so a
        # constant reward must pull predictions toward that constant.
        config = tiny_config(discount=0.0, learning_rate=0.01,
                             batch_size=16, warmup_steps=16)
        agent = DdpgAgent.create(config, seed=22)
        rng = np.random.default_rng(23)

        def fit_error():
            states = random_states(24, 64, 4)
            actions = np.full((64, 1), 0.3)
            q = agent.critic.forward(np.hstack([states, actions]))[:, 0]
            return float(np.mean(np.abs(q - 0.7)))

        self.feed(agent, rng, 16, lambda s, a: 0.7)
        start = fit_error()
        self.feed(agent, rng, 600, lambda s, a: 0.7)
        end = fit_error()
        assert end < start
        assert end < 0.1

    def test_nonfinite_batch_is_skipped(self):
        config = tiny_config(replay_capacity=4, batch_size=4, warmup_steps=4)
        agent = DdpgAgent.create(config, seed=25)
        before = [l.weights.copy() for l in agent.critic.layers]
        for _ in range(4):
            stats = agent.store_and_learn(np.zeros(4), 0.1, math.nan, np.zeros(4))
        assert stats.skipped_nonfinite
        assert not stats.updated
        for layer, prev in zip(agent.critic.layers, before):
            assert np.array_equal(layer.weights, prev)

    def test_dropped_agent_is_freed_without_the_cycle_collector(self):
        # A reference cycle through the update buffers would keep every
        # dropped agent, and its buffers, alive until a collection runs.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            agent = DdpgAgent.create(tiny_config(), seed=29)
            stats = self.feed(agent, np.random.default_rng(30), 12, lambda s, a: 1.0)
            assert sum(st.updated for st in stats) == 5
            ref = weakref.ref(agent)
            del agent
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_target_copy_period(self):
        # target_update_days=2 and steps_per_day=16 give a period of 32
        # store calls; batches never trigger (warmup above capacity usage),
        # so only the hard copy can change the targets.
        config = tiny_config(warmup_steps=1000)
        agent = DdpgAgent.create(config, seed=26)
        agent.actor.layers[0].weights += 0.5
        probe = np.full((1, 4), 0.2)
        drifted = agent.actor.forward(probe)
        for i in range(1, 33):
            agent.store_and_learn(np.zeros(4), 0.1, 0.0, np.zeros(4))
            synced = np.array_equal(agent.target_actor.forward(probe), drifted)
            assert synced == (i == 32)


class TestActorGradient:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences(self, seed):
        agent = DdpgAgent.create(tiny_config(), seed=100 + seed)
        states = random_states(200 + seed, 4, 4)
        analytic, _ = agent._actor_gradients(with_action_column(states))

        def objective():
            raw = agent.actor.forward(states)
            act = np.clip(1.0 / (1.0 + np.exp(-raw)), 0.0, MARGIN_MAX)
            q = agent.critic.forward(np.hstack([states, act]))[:, 0]
            return float(q.mean())

        eps = 1e-6
        worst = 0.0
        for (gw, gb), layer in zip(analytic, agent.actor.layers):
            for grad, param in ((gw, layer.weights), (gb, layer.bias)):
                it = np.nditer(param, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = param[idx]
                    param[idx] = orig + eps
                    up = objective()
                    param[idx] = orig - eps
                    down = objective()
                    param[idx] = orig
                    fd = (up - down) / (2 * eps)
                    denom = max(abs(fd) + abs(grad[idx]), 1e-8)
                    worst = max(worst, abs(fd - grad[idx]) / denom)
        assert worst < 1e-4

    def test_mean_q_reported(self):
        agent = DdpgAgent.create(tiny_config(), seed=27)
        states = random_states(28, 8, 4)
        _, mean_q = agent._actor_gradients(with_action_column(states))
        raw = agent.actor.forward(states)
        act = np.clip(1.0 / (1.0 + np.exp(-raw)), 0.0, MARGIN_MAX)
        q = agent.critic.forward(np.hstack([states, act]))[:, 0]
        assert mean_q == pytest.approx(float(q.mean()), rel=1e-12)

    @pytest.mark.parametrize("n", [7, 128, 129, 300])
    def test_mean_q_is_the_mean_bit_for_bit(self, n):
        agent = DdpgAgent.create(tiny_config(), seed=29)
        for seed in range(10):
            critic_in = with_action_column(random_states(seed, n, 4))
            _, mean_q = agent._actor_gradients(critic_in)
            # `critic_in` now holds the policy's actions
            assert mean_q == float(agent.critic.forward(critic_in)[:, 0].mean())


# A straight-line reference of the batch update, sharing no code with the
# agent: per-layer arrays, a forward pass wherever one is needed (eight per
# update), backward passes that rerun their forward, per-tensor Adam, and
# contiguous critic inputs built with hstack.

def ref_forward(layers, x):
    acts, preacts = [x], []
    for w, b, activation in layers:
        z = acts[-1] @ w.T + b
        preacts.append(z)
        acts.append(np.maximum(z, 0.0) if activation == "relu" else z)
    return acts, preacts


def ref_backward(layers, x, upstream):
    acts, preacts = ref_forward(layers, x)
    g = upstream
    grads = [None] * len(layers)
    for k in range(len(layers) - 1, -1, -1):
        w, _, activation = layers[k]
        if activation == "relu":
            g = g * (preacts[k] > 0.0)
        grads[k] = (g.T @ acts[k], g.sum(axis=0))
        g = g @ w
    return grads, g


class RefAdam:
    def __init__(self, layers, lr):
        self.lr, self.t = lr, 0
        self.m = [(np.zeros_like(w), np.zeros_like(b)) for w, b, _ in layers]
        self.v = [(np.zeros_like(w), np.zeros_like(b)) for w, b, _ in layers]

    def step(self, layers, grads):
        self.t += 1
        s1, s2 = 1.0 - 0.9 ** self.t, 1.0 - 0.999 ** self.t
        for i, (w, b, _) in enumerate(layers):
            for j, param in enumerate((w, b)):
                grad, m, v = grads[i][j], self.m[i][j], self.v[i][j]
                m *= 0.9
                m += (1.0 - 0.9) * grad
                v *= 0.999
                v += (1.0 - 0.999) * grad * grad
                param -= self.lr * (m / s1) / (np.sqrt(v / s2) + 1e-8)


class RefLearner:
    def __init__(self, agent):
        def copy(net):
            return [(l.weights.copy(), l.bias.copy(), l.activation) for l in net.layers]

        self.actor, self.critic = copy(agent.actor), copy(agent.critic)
        self.target_actor = copy(agent.target_actor)
        self.target_critic = copy(agent.target_critic)
        lr = agent.config.learning_rate
        self.actor_opt, self.critic_opt = RefAdam(self.actor, lr), RefAdam(self.critic, lr)
        self.discount = agent.config.discount
        self.loss = agent.config.critic_loss
        self.gate_bound = self.gate_open = 0

    def hard_copy(self):
        for dst, src in ((self.target_actor, self.actor), (self.target_critic, self.critic)):
            for (dw, db, _), (sw, sb, _) in zip(dst, src):
                dw[...] = sw
                db[...] = sb

    def update(self, states, actions, rewards, next_states):
        def squash(raw):
            return 1.0 / (1.0 + np.exp(-raw))

        raw_next = ref_forward(self.target_actor, next_states)[0][-1]
        next_actions = np.clip(squash(raw_next), 0.0, MARGIN_MAX)
        target_in = np.hstack([next_states, next_actions])
        q_next = ref_forward(self.target_critic, target_in)[0][-1][:, 0]
        targets = rewards + self.discount * q_next
        critic_in = np.hstack([states, actions[:, None]])
        q = ref_forward(self.critic, critic_in)[0][-1][:, 0]
        diff = q - targets
        if self.loss == "mse":
            loss, dq = float((diff * diff).mean()), 2.0 * diff / diff.size
        else:
            loss, dq = float(np.abs(diff).mean()), np.sign(diff) / diff.size
        grads, _ = ref_backward(self.critic, critic_in, dq[:, None])
        self.critic_opt.step(self.critic, grads)

        n = states.shape[0]
        sig = squash(ref_forward(self.actor, states)[0][-1])
        self.gate_bound += int((sig > MARGIN_MAX).sum())
        self.gate_open += int((sig <= MARGIN_MAX).sum())
        policy_in = np.hstack([states, np.clip(sig, 0.0, MARGIN_MAX)])
        _, input_grad = ref_backward(self.critic, policy_in, np.full((n, 1), 1.0 / n))
        gate = (sig <= MARGIN_MAX).astype(float)
        d_raw = input_grad[:, -1:] * sig * (1.0 - sig) * gate
        actor_grads, _ = ref_backward(self.actor, states, d_raw)
        mean_q = float(ref_forward(self.critic, policy_in)[0][-1][:, 0].mean())
        self.actor_opt.step(self.actor, [(-dw, -db) for dw, db in actor_grads])
        return loss, mean_q


def packed(arrays):
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


class TestLeanUpdateParity:
    """The agent's update equals the straight-line reference byte for byte."""

    @pytest.mark.parametrize("critic_loss,discount", [
        pytest.param("mse", 0.9, id="mse"),
        pytest.param("mae", 0.9, id="mae"),
        pytest.param("mse", 0.0, id="mse-discount0"),
        pytest.param("mae", 0.0, id="mae-discount0"),
    ])
    def test_matches_reference_exactly(self, critic_loss, discount):
        config = tiny_config(batch_size=16, replay_capacity=256, discount=discount,
                             learning_rate=0.01, critic_loss=critic_loss)
        agent = DdpgAgent.create(config, seed=40)
        # Start the policy near the clamp so some rows have sig > MARGIN_MAX.
        agent.actor.layers[-1].bias[:] = 4.6
        ref = RefLearner(agent)
        rng = np.random.default_rng(41)

        def add_transition():
            agent.replay.add(rng.uniform(-1, 1, size=4), float(rng.uniform(0, MARGIN_MAX)),
                             float(rng.normal()), rng.uniform(-1, 1, size=4))

        for _ in range(40):
            add_transition()
        for i in range(50):
            add_transition()
            batch = agent.replay.sample(config.batch_size)
            parts = [np.array(part) for part in columns(batch)]
            assert agent._update(batch) == ref.update(*parts)
            if i % 10 == 9:
                clone_into(agent.actor, agent.target_actor)
                clone_into(agent.critic, agent.target_critic)
                ref.hard_copy()
            for net, layers in ((agent.actor, ref.actor), (agent.critic, ref.critic),
                                (agent.target_actor, ref.target_actor),
                                (agent.target_critic, ref.target_critic)):
                assert packed([net.params]) == packed(
                    a for w, b, _ in layers for a in (w, b))
            for opt, ref_opt in ((agent.actor_opt, ref.actor_opt),
                                 (agent.critic_opt, ref.critic_opt)):
                assert opt.step_count == ref_opt.t
                assert packed([opt.m]) == packed(a for pair in ref_opt.m for a in pair)
                assert packed([opt.v]) == packed(a for pair in ref_opt.v for a in pair)
        assert ref.gate_bound > 0 and ref.gate_open > 0


class TestCheckpoint:
    def train_briefly(self, agent, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            s = rng.uniform(-1, 1, size=4)
            agent.store_and_learn(s, float(rng.uniform(0, 0.9)), float(rng.normal()), s)

    def test_round_trip_policy_equality(self, tmp_path):
        config = tiny_config()
        agent = DdpgAgent.create(config, seed=29, reward_scale=3.5)
        self.train_briefly(agent, 30)
        path = tmp_path / "agent.ckpt"
        agent.save(path)
        loaded = DdpgAgent.load(path, config)
        assert loaded.reward_scale == 3.5
        assert loaded.noise.state == agent.noise.state
        rng = np.random.default_rng(31)
        for _ in range(20):
            state = rng.uniform(-1, 1, size=4)
            assert margin(loaded, state, False) == margin(agent, state, False)
            assert np.array_equal(loaded.target_actor.forward(state[None, :]),
                                  agent.target_actor.forward(state[None, :]))
            cin = np.concatenate([state, [0.4]])[None, :]
            assert np.array_equal(loaded.critic.forward(cin), agent.critic.forward(cin))

    def test_loaded_agent_allocates_no_replay_until_it_stores(self, tmp_path):
        config = tiny_config(replay_capacity=50_000)  # 50,000 rows of 11 floats: 4.4 MB
        path = tmp_path / "agent.ckpt"
        DdpgAgent.create(config, seed=34).save(path)
        tracemalloc.start()
        try:
            loaded = DdpgAgent.load(path, config)
            margin(loaded, np.zeros(4), False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # No private copy of the rows on the heap, and of the arena only
        # the parameters' pages are resident.
        assert peak < 1_000_000
        if SMAPS.exists():
            assert arena_rss(loaded) == params_pages(loaded)
        assert loaded.replay.size == 0
        before = loaded.actor.params.copy()
        self.train_briefly(loaded, 35)
        assert loaded.replay.size == 40
        assert loaded.replay.rows.shape == (50_000, 11)
        assert not np.array_equal(loaded.actor.params, before)
        if SMAPS.exists():
            assert params_pages(loaded) < arena_rss(loaded) < 400_000

    def test_agent_that_only_acts_builds_no_update_workspace(self, tmp_path):
        # Window 500 makes the parameters dominate what an agent holds: the
        # four nets' parameters, against four times the online nets' for
        # the Adam moments.
        config = tiny_config(window=500)
        path = tmp_path / "agent.ckpt"
        DdpgAgent.create(config, seed=36).save(path)
        tracemalloc.start()
        try:
            loaded = DdpgAgent.load(path, config)
            margin(loaded, np.zeros(500), False)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert params_pages(loaded) > 400_000
        # The parameters live in the arena: the heap keeps no copy of them.
        assert held < params_pages(loaded) / 8
        if SMAPS.exists():
            # Of the arena only the parameters' pages are resident: no moments.
            assert arena_rss(loaded) == params_pages(loaded)
        assert loaded.actor_opt is loaded.critic_opt is None
        assert loaded.actor_buffers is loaded.critic_buffers is None
        rng = np.random.default_rng(37)
        for _ in range(8):
            s = rng.uniform(-1, 1, size=500)
            stats = loaded.store_and_learn(s, 0.2, float(rng.normal()), s)
        assert stats.updated
        assert loaded.actor_opt.step_count == loaded.critic_opt.step_count == 1
        assert loaded.critic_buffers.rows == 8
        if SMAPS.exists():
            assert arena_rss(loaded) > 2 * params_pages(loaded)

    def test_save_is_atomic_and_rewritable(self, tmp_path):
        agent = DdpgAgent.create(tiny_config(), seed=32)
        path = tmp_path / "agent.ckpt"
        agent.save(path)
        first = path.read_bytes()
        agent.save(path)
        assert path.read_bytes() == first
        assert not (tmp_path / "agent.ckpt.tmp").exists()

    def test_window_mismatch_rejected(self, tmp_path):
        agent = DdpgAgent.create(tiny_config(), seed=33)
        path = tmp_path / "agent.ckpt"
        agent.save(path)
        with pytest.raises(CheckpointError):
            DdpgAgent.load(path, tiny_config(window=6))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            DdpgAgent.load(tmp_path / "absent.ckpt", tiny_config())

    def test_corrupt_header(self, tmp_path):
        path = tmp_path / "agent.ckpt"
        path.write_text("not an agent\n")
        with pytest.raises(CheckpointError):
            DdpgAgent.load(path, tiny_config())


    def test_format_fixture_loads_and_resaves_byte_identical(self, tmp_path):
        # Written by the implementation that named every config field by
        # hand: window 4, mse, non-default OU parameters, briefly trained.
        loaded = DdpgAgent.load(AGENT_V1, tiny_config())
        assert loaded.config == tiny_config(
            learning_rate=0.01, discount=0.9, ou_theta=0.2, ou_mu=0.1, ou_sigma=0.25,
            critic_loss="mse")
        assert loaded.reward_scale == 2.5
        path = tmp_path / "agent.ckpt"
        loaded.save(path)
        assert path.read_bytes() == AGENT_V1.read_bytes()

    @staticmethod
    def actor_with_hidden(width):
        """An actor block of checkpoint text with one hidden layer of `width`."""
        net = DenseNet.initialize([4, width, 1], ["relu", "linear"],
                                  np.random.default_rng(0))
        out = io.StringIO()
        save_network(net, out)
        return out.getvalue()

    @pytest.mark.parametrize("old,new", [
        ("critic_loss mse", "critic_loss huber"),
        ("batch_size 8", "batch_size 100"),  # above replay_capacity 64
        ("reward_scale 2.5", "reward_scale -1.0"),
        ("actor dims", None),
        # More replay rows than an address space holds, or than ssize_t counts.
        ("replay_capacity 64", f"replay_capacity {10**13}"),
        ("replay_capacity 64", f"replay_capacity {10**30}"),
    ], ids=["critic_loss", "batch_size", "reward_scale", "net_dims", "oversized_replay",
            "replay_beyond_int64"])
    def test_invalid_stored_agent_names_the_file(self, tmp_path, old, new):
        text = AGENT_V1.read_text()
        if new is None:
            start = text.index("net actor\n") + len("net actor\n")
            end = text.index("net critic\n")
            text = text[:start] + self.actor_with_hidden(8) + text[end:]
        else:
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "agent.ckpt"
        path.write_text(text)
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            DdpgAgent.load(path, tiny_config())


class TestAgentPool:
    def test_shared_pool(self):
        pool = build_pool(tiny_config(), MetricKind.CPU, [SHARED], root_seed=34,
                          reward_scale=1.0)
        assert pool.shared
        assert pool.agent_for("h1") is pool.agent_for("h2")
        assert pool.window_size == 4

    def test_per_host_pool(self):
        pool = build_pool(tiny_config(), MetricKind.CPU, ["h1", "h2"], root_seed=35,
                          reward_scale=1.0)
        assert not pool.shared
        a, b = pool.agent_for("h1"), pool.agent_for("h2")
        assert a is not b
        state = np.full(4, 0.1)
        assert margin(a, state, False) != margin(b, state, False)

    def test_metric_changes_seed(self):
        cpu = build_pool(tiny_config(), MetricKind.CPU, [SHARED], 36, 1.0)
        ram = build_pool(tiny_config(), MetricKind.RAM, [SHARED], 36, 1.0)
        state = np.full(4, -0.2)
        assert margin(cpu.agent_for("h"), state, False) != margin(ram.agent_for("h"), state, False)

    @pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="no /proc/self/maps")
    def test_a_per_host_pool_maps_at_most_one_region_per_agent(self):
        def mappings():
            return len(Path("/proc/self/maps").read_text().splitlines())

        before = mappings()
        pool = build_pool(tiny_config(), MetricKind.CPU, [f"h{i}" for i in range(50)], 40, 1.0)
        assert mappings() - before <= len(pool.agents) == 50

    def test_an_agents_arrays_share_one_base_and_do_not_overlap(self):
        agent = build_pool(tiny_config(), MetricKind.CPU, [SHARED], 41, 1.0).agent_for(SHARED)
        arrays = [net.params for net in (agent.actor, agent.critic, agent.target_actor,
                                         agent.target_critic)]
        arrays += [a for opt in (agent.actor_opt, agent.critic_opt) for a in (opt.m, opt.v)]
        arrays.append(agent.replay.rows)
        bases = set()
        for a in arrays:
            while isinstance(a, np.ndarray) and a.base is not None:
                a = a.base
            bases.add(id(a))
        assert len(bases) == 1
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))

    def test_forked_child_learns_into_the_parents_arrays(self):
        # The child sends nothing back: what it wrote reaches this process
        # through the memory build_pool shares, and nothing else does.
        config = tiny_config(replay_capacity=16, steps_per_day=4, target_update_days=1)
        pool, twin = (build_pool(config, MetricKind.CPU, [SHARED], 38, 1.0) for _ in range(2))
        agent, expected = pool.agent_for(SHARED), twin.agent_for(SHARED)
        initial = agent.actor.params.copy()

        def learn(learner):
            rng = np.random.default_rng(39)
            for _ in range(12):
                s = rng.uniform(-1, 1, size=4)
                stats = learner.store_and_learn(s, float(rng.uniform(0, 0.9)),
                                                float(rng.normal()), s)
            return stats.updated

        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                status = 0 if learn(agent) else 3
            finally:
                os._exit(status)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert learn(expected)
        assert agent.store_calls == agent.replay.size == agent.actor_opt.step_count == 0
        assert not np.array_equal(agent.actor.params, initial)
        for net, want in zip((agent.actor, agent.critic, agent.target_actor,
                              agent.target_critic),
                             (expected.actor, expected.critic, expected.target_actor,
                              expected.target_critic)):
            assert net.params.tobytes() == want.params.tobytes()
        for opt, want in ((agent.actor_opt, expected.actor_opt),
                          (agent.critic_opt, expected.critic_opt)):
            assert opt.m.tobytes() == want.m.tobytes()
            assert opt.v.tobytes() == want.v.tobytes()
        assert agent.replay.rows[:12].tobytes() == expected.replay.rows[:12].tobytes()
