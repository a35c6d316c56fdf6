"""Network tests: forward oracle, gradient checks, Adam, checkpoints.

The forward oracle below recomputes the network with explicit Python loops
(no shared code with the implementation) and the gradient tests use central
finite differences, so the analytic backprop is verified independently.
"""

import io
import math
from pathlib import Path

import numpy as np
import pytest

from marginsim.errors import CheckpointError, DomainError, NonFiniteGradientError
from marginsim.nets import (
    AdamState,
    Buffers,
    DenseNet,
    Layer,
    adam_step,
    backward,
    clone_into,
    load_network,
    mae_loss,
    mse_loss,
    save_network,
)


def adam_state(net, learning_rate):
    return AdamState(net, learning_rate, np.zeros_like(net.params), np.zeros_like(net.params))


def loop_forward(net, x):
    """Straight-line reference forward pass using nothing but Python loops."""
    values = list(map(float, x))
    for layer in net.layers:
        out = []
        for row, b in zip(layer.weights, layer.bias):
            acc = float(b)
            for w, v in zip(row, values):
                acc += float(w) * v
            if layer.activation == "relu" and acc < 0.0:
                acc = 0.0
            out.append(acc)
        values = out
    return np.array(values)


def numeric_gradients(net, x, upstream, eps=1e-6):
    """Central finite differences of sum(forward(x) * upstream) per parameter."""

    def objective():
        out = net.forward(np.asarray(x))
        return float((np.atleast_2d(out) * np.atleast_2d(upstream)).sum())

    grads = []
    for layer in net.layers:
        pair = []
        for param in (layer.weights, layer.bias):
            grad = np.zeros_like(param)
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = param[idx]
                param[idx] = orig + eps
                up = objective()
                param[idx] = orig - eps
                down = objective()
                param[idx] = orig
                grad[idx] = (up - down) / (2 * eps)
            pair.append(grad)
        grads.append(tuple(pair))
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def small_net(seed, dims=(5, 7, 1), activations=("relu", "linear")):
    rng = np.random.default_rng(seed)
    return DenseNet.initialize(list(dims), list(activations), rng)


def flat(pairs):
    """One (dW, db) pair per layer as the flat vector `adam_step` takes."""
    return np.concatenate([np.ravel(part) for pair in pairs for part in pair])


class TestForward:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        net = DenseNet.initialize([10, 16, 16, 1], ["relu", "relu", "linear"], rng)
        for _ in range(20):
            x = rng.normal(size=10)
            assert net.forward(x[None, :])[0] == pytest.approx(loop_forward(net, x), abs=1e-12)

    def test_identity_linear_layer(self):
        net = DenseNet([Layer(np.eye(3), np.zeros(3), "linear")])
        x = np.array([[1.0, -2.0, 3.0]])
        assert np.array_equal(net.forward(x), x)

    def test_relu_kills_negatives(self):
        net = DenseNet([Layer(np.eye(2), np.zeros(2), "relu")])
        assert np.array_equal(net.forward(np.array([[-5.0, 2.0]])), [[0.0, 2.0]])

    def test_batch_matches_single(self):
        net = small_net(3)
        rng = np.random.default_rng(4)
        batch = rng.normal(size=(6, 5))
        out = net.forward(batch)
        for i in range(6):
            assert out[i] == pytest.approx(net.forward(batch[i:i + 1])[0], abs=1e-14)

    def test_wrong_width_rejected(self):
        with pytest.raises(DomainError):
            small_net(0).forward(np.zeros((1, 4)))
        with pytest.raises(DomainError):
            small_net(0).forward(np.zeros((2, 1, 4)))

    @pytest.mark.parametrize("shape", [(5,), (2, 2, 5), (1, 1, 1, 5)])
    def test_only_batches_and_stacked_rows(self, shape):
        with pytest.raises(DomainError, match="expected"):
            small_net(0).forward(np.zeros(shape))

    def test_accepts_array_likes(self):
        net = small_net(8, dims=(3, 4, 2))
        want = net.forward(np.array([[0.1, 0.2, 0.3]]))
        for x in ([[0.1, 0.2, 0.3]], ((0.1, 0.2, 0.3),)):
            assert net.forward(x).tobytes() == want.tobytes()
        assert net.forward([[[0.1, 0.2, 0.3]]]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dims", [(4, 16, 16, 1), (10, 16, 16, 1), (201, 16, 16, 1),
                                      (11, 32, 32, 1), (5, 7, 3)])
    def test_stacked_rows_equal_one_row_forwards(self, dims):
        # Each (1, in) slice of a stack goes through np.matmul on its own and
        # gives the bytes of that row's np.dot forward; the trace keeps the
        # stacked shape layer by layer.
        net = small_net(60, dims=dims, activations=("relu",) * (len(dims) - 2) + ("linear",))
        x = np.random.default_rng(61).uniform(-1.0, 1.0, size=(300, dims[0]))
        x[::5] = 0.0
        x[1::5, ::2] = -0.0
        acts = net.forward_trace(x[:, None, :])
        assert [a.shape for a in acts] == [(300, 1, d) for d in dims]
        for i, row in enumerate(x):
            one = net.forward_trace(row[None, :])
            assert all(a[i].tobytes() == b.tobytes() for a, b in zip(acts, one))

    def test_positive_homogeneity_without_bias(self):
        net = small_net(5, dims=(4, 6, 2))
        for layer in net.layers:
            layer.bias[:] = 0.0
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.normal(size=(1, 4))
            c = float(rng.uniform(0.1, 5.0))
            assert net.forward(c * x) == pytest.approx(c * net.forward(x), rel=1e-12)

    def test_initialize_bounds(self):
        net = small_net(7, dims=(9, 4, 2))
        for layer in net.layers:
            fan_in = layer.weights.shape[1]
            assert np.all(np.abs(layer.weights) <= 1.0 / math.sqrt(fan_in))
            assert np.all(layer.bias == 0.0)


class TestDotMatchesMatmul:
    """Every product in `forward_trace` and `backward` is `np.dot`.  It must
    give the bytes `np.matmul` gives, on every product shape the actor and
    critic make: the forward pass, the weight gradients and the input
    gradients, at batch sizes around BLAS's block sizes and for the
    inner-dimension-1 outer products, with inputs read through the replay's
    column views as the update reads them."""

    @staticmethod
    def operand(rng, shape):
        a = rng.uniform(-1.0, 1.0, size=shape)
        a[rng.random(shape) < 0.1] = 0.0
        a[rng.random(shape) < 0.1] = -0.0
        return a

    @pytest.mark.parametrize("window", [4, 10, 201])
    def test_every_product_shape(self, window):
        rng = np.random.default_rng(window)
        nets = [DenseNet.initialize([window, 16, 16, 1], ["relu", "relu", "linear"], rng),
                DenseNet.initialize([window + 1, 32, 32, 1], ["relu", "relu", "linear"], rng)]
        compared = 0
        for net in nets:
            for layer in net.layers:
                weights = layer.weights
                weights[rng.random(weights.shape) < 0.05] = -0.0
                out, inp = weights.shape
                for n in (1, 2, 7, 8, 64, 127, 128, 129, 256):
                    # a column block of wider rows, as `Batch.critic_in` is
                    x = self.operand(rng, (n, inp + 3))[:, :inp]
                    g = self.operand(rng, (n, out))
                    pairs = [(x, weights.T), (np.ascontiguousarray(x), weights.T),
                             (g.T, x), (g, weights)]
                    for a, b in pairs:
                        want = np.matmul(a, b)
                        got = np.empty_like(want)
                        np.dot(a, b, out=got)
                        assert got.tobytes() == want.tobytes(), (a.shape, b.shape)
                        assert np.dot(a, b).tobytes() == want.tobytes(), (a.shape, b.shape)
                        compared += 1
        assert compared == 2 * 3 * 9 * 4


class TestBackward:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        net = small_net(seed, dims=(5, 7, 3), activations=("relu", "linear"))
        rng = np.random.default_rng(seed + 100)
        x = rng.normal(size=(1, 5))
        upstream = rng.normal(size=(1, 3))
        analytic, _ = backward(net, x, upstream)
        numeric = numeric_gradients(net, x, upstream)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_batch_gradients_sum(self):
        net = small_net(8)
        rng = np.random.default_rng(9)
        batch = rng.normal(size=(4, 5))
        upstream = rng.normal(size=(4, 1))
        whole, _ = backward(net, batch, upstream)
        summed = None
        for i in range(4):
            grads, _ = backward(net, batch[i:i + 1], upstream[i:i + 1])
            if summed is None:
                summed = [[g.copy() for g in pair] for pair in grads]
            else:
                for acc, pair in zip(summed, grads):
                    acc[0] += pair[0]
                    acc[1] += pair[1]
        for (ww, wb), (sw, sb) in zip(whole, summed):
            assert ww == pytest.approx(sw, rel=1e-10)
            assert wb == pytest.approx(sb, rel=1e-10)

    def test_zero_upstream_zero_grads(self):
        net = small_net(10)
        grads, input_grad = backward(net, np.ones((1, 5)), np.zeros((1, 1)))
        assert all(np.all(gw == 0) and np.all(gb == 0) for gw, gb in grads)
        assert np.all(input_grad == 0)

    def test_single_linear_layer_closed_form(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        net = DenseNet([Layer(w.copy(), np.zeros(2), "linear")])
        x = np.array([5.0, -6.0])
        upstream = np.array([0.5, -1.5])
        grads, input_grad = backward(net, x[None, :], upstream[None, :])
        assert np.array_equal(grads[0][0], np.outer(upstream, x))
        assert np.array_equal(grads[0][1], upstream)
        assert np.array_equal(input_grad, [w.T @ upstream])

    def test_input_gradient_matches_fd(self):
        net = small_net(11)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(1, 5))
        upstream = rng.normal(size=(1, 1))
        _, input_grad = backward(net, x, upstream)
        eps = 1e-6
        for i in range(5):
            bumped = x.copy()
            bumped[0, i] += eps
            up = float(net.forward(bumped)[0] @ upstream[0])
            bumped[0, i] -= 2 * eps
            down = float(net.forward(bumped)[0] @ upstream[0])
            fd = (up - down) / (2 * eps)
            assert input_grad[0, i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        net = DenseNet([Layer(np.zeros((2, 2)), np.zeros(2), "linear")])
        state = adam_state(net, 0.01)
        grads = [(np.array([[3.0, -4.0], [0.5, -0.25]]), np.array([1.0, -1.0]))]
        adam_step(net, state, flat(grads))
        # With zero moments the first update is alpha * g / (|g| + eps).
        assert net.layers[0].weights == pytest.approx(
            -0.01 * np.sign(grads[0][0]), abs=1e-6)
        assert net.layers[0].bias == pytest.approx(-0.01 * np.sign(grads[0][1]), abs=1e-6)
        assert state.step_count == 1

    def test_zero_gradient_keeps_parameters(self):
        net = small_net(13)
        state = adam_state(net, 0.01)
        before = [layer.weights.copy() for layer in net.layers]
        adam_step(net, state, flat((np.zeros_like(l.weights), np.zeros_like(l.bias))
                                   for l in net.layers))
        assert state.step_count == 1
        for layer, prev in zip(net.layers, before):
            assert np.array_equal(layer.weights, prev)

    def test_deterministic(self):
        results = []
        for _ in range(2):
            net = small_net(14)
            state = adam_state(net, 0.01)
            rng = np.random.default_rng(15)
            for _ in range(10):
                grads = [(rng.normal(size=l.weights.shape), rng.normal(size=l.bias.shape))
                         for l in net.layers]
                adam_step(net, state, flat(grads))
            results.append([l.weights.copy() for l in net.layers])
        for a, b in zip(*results):
            assert np.array_equal(a, b)

    def test_rejects_non_finite(self):
        net = small_net(16)
        state = adam_state(net, 0.01)
        grads = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in net.layers]
        grads[0][0][0, 0] = math.nan
        before = [l.weights.copy() for l in net.layers]
        with pytest.raises(NonFiniteGradientError):
            adam_step(net, state, flat(grads))
        assert state.step_count == 0
        for layer, prev in zip(net.layers, before):
            assert np.array_equal(layer.weights, prev)

    def test_training_reduces_mae(self):
        # A regression task: at least 45 of 50 seeds must strictly improve
        # within 50 Adam steps.
        improved = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            net = DenseNet.initialize([3, 8, 1], ["relu", "linear"], rng)
            state = adam_state(net, 0.01)
            x = rng.normal(size=(16, 3))
            y = rng.normal(size=16)
            first = mae_loss(y, net.forward(x)[:, 0])[0]
            for _ in range(50):
                q = net.forward(x)[:, 0]
                _, dq = mae_loss(y, q)
                grads, _ = backward(net, x, dq[:, None])
                adam_step(net, state, grads.vector)
            last = mae_loss(y, net.forward(x)[:, 0])[0]
            if last < first:
                improved += 1
        assert improved >= 45


class TestLosses:
    def test_mae_value_and_sign(self):
        targets = np.array([1.0, 2.0, 3.0])
        preds = np.array([1.5, 2.0, 2.0])
        value, grad = mae_loss(targets, preds)
        assert value == pytest.approx(0.5)
        assert grad == pytest.approx(np.array([1.0, 0.0, -1.0]) / 3)

    @pytest.mark.parametrize("loss, term", [(mae_loss, np.abs), (mse_loss, np.square)])
    def test_value_is_the_mean_bit_for_bit(self, loss, term):
        rng = np.random.default_rng(17)
        for n in (1, 7, 16, 128, 129, 300):
            for _ in range(10):
                targets, preds = rng.normal(size=n), rng.normal(size=n)
                assert loss(targets, preds)[0] == float(term(preds - targets).mean())

    def test_mse_matches_fd(self):
        targets = np.array([0.5, -1.0])
        preds = np.array([0.7, 0.2])
        value, grad = mse_loss(targets, preds)
        eps = 1e-7
        for i in range(2):
            bump = preds.copy()
            bump[i] += eps
            fd = (mse_loss(targets, bump)[0] - value) / eps
            assert grad[i] == pytest.approx(fd, rel=1e-5)


class TestCopy:
    def test_hard_copy_by_value(self):
        src = small_net(17)
        dst = small_net(18)
        clone_into(src, dst)
        x = np.ones((1, 5))
        assert np.array_equal(src.forward(x), dst.forward(x))
        src.layers[0].weights += 1.0
        assert not np.array_equal(src.layers[0].weights, dst.layers[0].weights)

    def test_idempotent(self):
        src = small_net(19)
        dst = small_net(20)
        clone_into(src, dst)
        snapshot = [l.weights.copy() for l in dst.layers]
        clone_into(src, dst)
        for layer, prev in zip(dst.layers, snapshot):
            assert np.array_equal(layer.weights, prev)

    def test_architecture_mismatch(self):
        with pytest.raises(DomainError):
            clone_into(small_net(0), small_net(0, dims=(5, 9, 1)))

    def test_clone_net_detached(self):
        src = small_net(21)
        dup = DenseNet(src.layers)
        src.layers[0].weights += 1.0
        assert not np.array_equal(src.layers[0].weights, dup.layers[0].weights)


class TestCheckpoint:
    def test_round_trip_exact(self):
        net = small_net(22, dims=(10, 16, 16, 1), activations=("relu", "relu", "linear"))
        buf = io.StringIO()
        save_network(net, buf)
        buf.seek(0)
        loaded = load_network(buf)
        assert loaded.dims() == net.dims()
        assert loaded.activations() == net.activations()
        rng = np.random.default_rng(23)
        for _ in range(10):
            x = rng.normal(size=(1, 10))
            assert np.array_equal(net.forward(x), loaded.forward(x))

    def test_truncated_names_section(self):
        net = small_net(24)
        buf = io.StringIO()
        save_network(net, buf)
        text = buf.getvalue()
        truncated = io.StringIO("".join(text.splitlines(keepends=True)[:4]))
        with pytest.raises(CheckpointError) as err:
            load_network(truncated)
        assert "layer" in str(err.value)

    def test_corrupt_float(self):
        net = small_net(25)
        buf = io.StringIO()
        save_network(net, buf)
        corrupted = buf.getvalue().replace("0.", "0x", 1)
        with pytest.raises(CheckpointError):
            load_network(io.StringIO(corrupted))

    def test_bad_header(self):
        with pytest.raises(CheckpointError):
            load_network(io.StringIO("something else\n"))

    def test_missing_end_marker(self):
        net = small_net(26)
        buf = io.StringIO()
        save_network(net, buf)
        body = buf.getvalue().rsplit("end\n", 1)[0]
        with pytest.raises(CheckpointError):
            load_network(io.StringIO(body))


class TestFlatParameters:
    """Parameters and Adam moments are flat vectors with per-layer views."""

    def test_layers_are_views_of_params(self):
        net = small_net(40, dims=(5, 7, 3, 1), activations=("relu", "relu", "linear"))
        start = 0
        for layer in net.layers:
            assert np.shares_memory(layer.weights, net.params)
            assert np.shares_memory(layer.bias, net.params)
            stop = start + layer.weights.size
            assert np.array_equal(net.params[start:stop], layer.weights.ravel())
            assert np.array_equal(net.params[stop:stop + layer.bias.size], layer.bias)
            start = stop + layer.bias.size
        assert start == net.params.size
        net.layers[1].weights[0, 2] = 7.5
        net.params[-1] = -2.5
        assert 7.5 in net.params
        assert net.layers[-1].bias[-1] == -2.5

    def test_constructor_copies_its_layers(self):
        weights = np.eye(3)
        net = DenseNet([Layer(weights, np.zeros(3), "linear")])
        weights[0, 0] = 5.0
        assert net.layers[0].weights[0, 0] == 1.0

    def test_clones_copy_by_value(self):
        src = small_net(41)
        dup = DenseNet(src.layers)
        dst = small_net(42)
        clone_into(src, dst)
        for other in (dup, dst):
            assert not np.shares_memory(other.params, src.params)
            assert other.params.tobytes() == src.params.tobytes()
        before = src.params.copy()
        src.params += 1.0
        for other in (dup, dst):
            assert other.params.tobytes() == before.tobytes()

    def test_non_finite_gradient_changes_nothing(self):
        net = small_net(43)
        state = adam_state(net, 0.01)
        rng = np.random.default_rng(44)
        for _ in range(3):
            adam_step(net, state, rng.normal(size=net.params.size))
        snapshot = [a.tobytes() for a in (net.params, state.m, state.v)]
        bad = rng.normal(size=net.params.size)
        bad[-1] = math.inf
        with pytest.raises(NonFiniteGradientError):
            adam_step(net, state, bad)
        assert state.step_count == 3
        assert [a.tobytes() for a in (net.params, state.m, state.v)] == snapshot

    def test_wrong_gradient_size_rejected(self):
        net = small_net(47)
        with pytest.raises(DomainError):
            adam_step(net, adam_state(net, 0.01), np.zeros(net.params.size + 1))

    def test_backward_reuses_a_given_trace(self):
        net = small_net(48)
        x = np.random.default_rng(49).normal(size=(6, 5))
        upstream = np.full((6, 1), 0.5)
        fresh, fresh_input = backward(net, x, upstream)
        reused, reused_input = backward(net, x, upstream, net.forward_trace(x))
        assert reused.vector.tobytes() == fresh.vector.tobytes()
        assert reused_input.tobytes() == fresh_input.tobytes()
        for (dw, db), (vw, vb) in zip(fresh, net.views(fresh.vector)):
            assert np.shares_memory(dw, fresh.vector) and np.array_equal(dw, vw)
            assert np.shares_memory(db, fresh.vector) and np.array_equal(db, vb)

    def test_backward_halves_match_the_full_pass(self):
        net = small_net(51)
        x = np.random.default_rng(52).normal(size=(6, 5))
        upstream = np.full((6, 1), 0.5)
        grads, input_grad = backward(net, x, upstream)
        params_only, none_input = backward(net, x, upstream, inputs=False)
        none_params, input_only = backward(net, x, upstream, params=False)
        assert none_input is None and none_params is None
        assert params_only.vector.tobytes() == grads.vector.tobytes()
        assert input_only.tobytes() == input_grad.tobytes()

    @pytest.mark.parametrize("dims,activations", [
        ((5, 7, 3, 1), ("relu", "relu", "linear")),
        ((5, 4, 2), ("linear", "relu")),
    ])
    def test_buffered_passes_match_fresh_ones(self, dims, activations):
        # Row counts change between calls, so the buffers are reallocated
        # and then reused; nothing returned without buffers is overwritten.
        net = small_net(53, dims=dims, activations=activations)
        buffers = Buffers(net)
        rng = np.random.default_rng(54)
        kept = []
        for rows in (6, 9, 9, 6):
            x = rng.normal(size=(rows, dims[0]))
            upstream = rng.normal(size=(rows, dims[-1]))
            upstream_bytes = upstream.tobytes()
            fresh_acts = net.forward_trace(x)
            fresh_grads, fresh_input = backward(net, x, upstream)
            fresh = [*fresh_acts, fresh_grads.vector, fresh_input]
            kept.append((fresh, [a.tobytes() for a in fresh]))

            acts = net.forward_trace(x, buffers)
            grads, input_grad = backward(net, x, upstream, acts, buffers=buffers)
            assert [a.tobytes() for a in acts] == [a.tobytes() for a in fresh_acts]
            assert grads.vector.tobytes() == fresh_grads.vector.tobytes()
            assert input_grad.tobytes() == fresh_input.tobytes()
            assert grads is buffers.grads and input_grad is buffers.inputs[0]
            assert all(a is b for a, b in zip(acts[1:], buffers.acts))
            rerun, rerun_input = backward(net, x, upstream, buffers=buffers)
            assert rerun.vector.tobytes() == fresh_grads.vector.tobytes()
            assert rerun_input.tobytes() == fresh_input.tobytes()
            assert net.forward(x, buffers).tobytes() == fresh_acts[-1].tobytes()
            assert upstream.tobytes() == upstream_bytes
        for arrays, snapshot in kept:
            assert [a.tobytes() for a in arrays] == snapshot

    def test_save_load_save_same_text(self):
        net = small_net(50, dims=(6, 8, 8, 1), activations=("relu", "relu", "linear"))
        first = io.StringIO()
        save_network(net, first)
        second = io.StringIO()
        save_network(load_network(io.StringIO(first.getvalue())), second)
        assert second.getvalue() == first.getvalue()

    def test_older_checkpoint_loads_and_resaves_byte_identical(self):
        # Written by the per-layer-array implementation that preceded flat
        # parameters: a [4, 6, 3, 1] net after five Adam steps.
        text = (Path(__file__).parent / "data" / "densenet_v1.txt").read_text()
        net = load_network(io.StringIO(text))
        assert net.dims() == [4, 6, 3, 1]
        out = io.StringIO()
        save_network(net, out)
        assert out.getvalue() == text
