"""Small dense networks with hand-written backprop and Adam.

Everything is float64 numpy.  Forward accepts a single input vector or a
batch matrix (rows are samples); `backward` returns exact reverse-mode
gradients of sum(output * upstream) together with the gradient w.r.t. the
input, so callers choose the loss by choosing the upstream term.  Parameters
serialize to a self-describing text format whose decimal literals round-trip
float64 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from marginsim.errors import CheckpointError, DomainError, NonFiniteGradientError

ACTIVATIONS = ("relu", "linear")


@dataclass
class Layer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str

    def validate(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise DomainError(f"unknown activation {self.activation!r}")
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise DomainError("weights must be 2-D and bias 1-D")
        if self.weights.shape[0] != self.bias.shape[0]:
            raise DomainError(
                f"bias length {self.bias.shape[0]} does not match "
                f"{self.weights.shape[0]} output units")


class DenseNet:
    """A stack of fully connected layers."""

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise DomainError("a network needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.weights.shape[1] != prev.weights.shape[0]:
                raise DomainError(
                    f"layer input width {nxt.weights.shape[1]} does not match "
                    f"previous output width {prev.weights.shape[0]}")
        for layer in layers:
            layer.validate()
        self.layers = layers

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[1]

    def dims(self) -> list[int]:
        return [self.input_dim] + [layer.weights.shape[0] for layer in self.layers]

    def activations(self) -> list[str]:
        return [layer.activation for layer in self.layers]

    @classmethod
    def initialize(cls, dims: list[int], activations: list[str],
                   rng: np.random.Generator) -> "DenseNet":
        """Fresh network with weights uniform in +-1/sqrt(fan_in), zero bias."""
        if len(dims) < 2 or len(activations) != len(dims) - 1:
            raise DomainError(f"need len(dims) >= 2 and one activation per layer, "
                              f"got dims={dims} activations={activations}")
        layers = []
        for fan_in, fan_out, act in zip(dims, dims[1:], activations):
            bound = 1.0 / np.sqrt(fan_in)
            weights = rng.uniform(-bound, bound, size=(fan_out, fan_in))
            layers.append(Layer(weights, np.zeros(fan_out), act))
        return cls(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Output for a vector (in,) -> (out,) or a batch (n, in) -> (n, out)."""
        acts, _ = self.forward_trace(x)
        return acts[-1] if x.ndim == 2 else acts[-1][0]

    def forward_trace(self, x: np.ndarray):
        """Forward pass keeping intermediates; returns (activations, preacts).

        activations[0] is the (possibly promoted to 2-D) input; both lists
        are in batch form regardless of the input's shape.
        """
        a = np.atleast_2d(np.asarray(x, dtype=float))
        if a.shape[1] != self.input_dim:
            raise DomainError(f"input width {a.shape[1]}, network expects {self.input_dim}")
        acts = [a]
        preacts = []
        for layer in self.layers:
            z = a @ layer.weights.T + layer.bias
            preacts.append(z)
            a = np.maximum(z, 0.0) if layer.activation == "relu" else z
            acts.append(a)
        return acts, preacts


def backward(net: DenseNet, x: np.ndarray, upstream: np.ndarray):
    """Exact gradients of sum(output * upstream) w.r.t. parameters and input.

    Returns (grads, input_grad) where grads is one (dW, db) pair per layer.
    ReLU uses subgradient 0 at 0.  Batch inputs sum gradients over the batch;
    divide upstream by the batch size first to get means.
    """
    single = np.asarray(x).ndim == 1
    acts, preacts = net.forward_trace(x)
    g = np.atleast_2d(np.asarray(upstream, dtype=float))
    if g.shape != acts[-1].shape:
        raise DomainError(f"upstream shape {g.shape} does not match output {acts[-1].shape}")
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(net.layers)
    for k in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[k]
        if layer.activation == "relu":
            g = g * (preacts[k] > 0.0)
        grads[k] = (g.T @ acts[k], g.sum(axis=0))
        g = g @ layer.weights
    return grads, (g[0] if single else g)


class AdamState:
    """Adam moments for one network (beta1=0.9, beta2=0.999, eps=1e-8)."""

    def __init__(self, net: DenseNet, learning_rate: float):
        if learning_rate <= 0:
            raise DomainError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = learning_rate
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8
        self.step_count = 0
        self.m = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in net.layers]
        self.v = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in net.layers]


def adam_step(net: DenseNet, state: AdamState, grads) -> None:
    """One bias-corrected Adam update in place; rejects non-finite gradients."""
    if len(grads) != len(net.layers):
        raise DomainError(f"got {len(grads)} gradient pairs for {len(net.layers)} layers")
    for (dw, db), layer in zip(grads, net.layers):
        if dw.shape != layer.weights.shape or db.shape != layer.bias.shape:
            raise DomainError("gradient shapes do not match the network")
        if not (np.isfinite(dw).all() and np.isfinite(db).all()):
            raise NonFiniteGradientError("non-finite gradient; update rejected")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    scale1 = 1.0 - b1 ** t
    scale2 = 1.0 - b2 ** t
    for i, ((dw, db), layer) in enumerate(zip(grads, net.layers)):
        for grad, param, m, v in ((dw, layer.weights, state.m[i][0], state.v[i][0]),
                                  (db, layer.bias, state.m[i][1], state.v[i][1])):
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad * grad
            param -= state.learning_rate * (m / scale1) / (np.sqrt(v / scale2) + state.eps)


def clone_into(source: DenseNet, target: DenseNet) -> None:
    """Hard-copy source parameters into target (by value)."""
    if source.dims() != target.dims() or source.activations() != target.activations():
        raise DomainError("cannot copy between different architectures")
    for src, dst in zip(source.layers, target.layers):
        dst.weights[...] = src.weights
        dst.bias[...] = src.bias


def clone_net(source: DenseNet) -> DenseNet:
    layers = [Layer(l.weights.copy(), l.bias.copy(), l.activation) for l in source.layers]
    return DenseNet(layers)


def mae_loss(targets: np.ndarray, predictions: np.ndarray):
    """Mean absolute error and its gradient w.r.t. predictions."""
    diff = predictions - targets
    n = diff.size
    return float(np.abs(diff).mean()), np.sign(diff) / n


def mse_loss(targets: np.ndarray, predictions: np.ndarray):
    """Mean squared error and its gradient w.r.t. predictions."""
    diff = predictions - targets
    n = diff.size
    return float((diff * diff).mean()), 2.0 * diff / n


def save_network(net: DenseNet, fh) -> None:
    """Write the network as self-describing text; floats use repr so the
    decimal literals round-trip float64 exactly."""
    fh.write("densenet v1\n")
    fh.write(f"layers {len(net.layers)}\n")
    for i, layer in enumerate(net.layers):
        out, inp = layer.weights.shape
        fh.write(f"layer {i} {layer.activation} {out} {inp}\n")
        for row in layer.weights:
            fh.write(" ".join(repr(x) for x in row.tolist()) + "\n")
        fh.write("bias " + " ".join(repr(x) for x in layer.bias.tolist()) + "\n")
    fh.write("end\n")


def load_network(fh) -> DenseNet:
    """Inverse of `save_network`; raises CheckpointError naming what broke."""

    def next_line(what):
        line = fh.readline()
        if not line:
            raise CheckpointError(f"truncated network: expected {what}")
        return line.rstrip("\n")

    if next_line("header") != "densenet v1":
        raise CheckpointError("bad network header (expected 'densenet v1')")
    count_line = next_line("layer count")
    parts = count_line.split()
    if len(parts) != 2 or parts[0] != "layers" or not parts[1].isdigit():
        raise CheckpointError(f"bad layer count line {count_line!r}")
    n_layers = int(parts[1])
    if n_layers < 1:
        raise CheckpointError("network must have at least one layer")
    layers = []
    for i in range(n_layers):
        head = next_line(f"layer {i} header").split()
        if (len(head) != 5 or head[0] != "layer" or head[1] != str(i)
                or head[2] not in ACTIVATIONS):
            raise CheckpointError(f"bad layer {i} header")
        try:
            out, inp = int(head[3]), int(head[4])
        except ValueError:
            raise CheckpointError(f"bad layer {i} dimensions") from None
        if out < 1 or inp < 1:
            raise CheckpointError(f"bad layer {i} dimensions")
        rows = []
        for r in range(out):
            fields = next_line(f"layer {i} weights row {r}").split()
            if len(fields) != inp:
                raise CheckpointError(
                    f"layer {i} weights row {r}: expected {inp} values, got {len(fields)}")
            try:
                rows.append([float(v) for v in fields])
            except ValueError:
                raise CheckpointError(f"layer {i} weights row {r}: bad float") from None
        bias_fields = next_line(f"layer {i} bias").split()
        if len(bias_fields) != out + 1 or bias_fields[0] != "bias":
            raise CheckpointError(f"layer {i} bias: expected 'bias' plus {out} values")
        try:
            bias = [float(v) for v in bias_fields[1:]]
        except ValueError:
            raise CheckpointError(f"layer {i} bias: bad float") from None
        layers.append(Layer(np.array(rows, dtype=float), np.array(bias, dtype=float),
                            head[2]))
    if next_line("end marker") != "end":
        raise CheckpointError("missing 'end' marker")
    net = DenseNet(layers)
    for layer in net.layers:
        if not (np.isfinite(layer.weights).all() and np.isfinite(layer.bias).all()):
            raise CheckpointError("non-finite parameter in checkpoint")
    return net
