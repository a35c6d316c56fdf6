"""Small dense networks with hand-written backprop and Adam.

Everything is float64 numpy.  Forward takes a batch matrix (rows are
samples) or a stack of one-row inputs; `backward` takes a batch and returns
exact reverse-mode gradients of sum(output * upstream) together with the
gradient w.r.t. the input, so callers choose the loss by choosing the
upstream term.  Each network keeps its parameters in one flat vector with
per-layer views, so the Adam step and target copies are whole-vector
operations.  Parameters serialize to a self-describing text format whose
decimal literals round-trip float64 exactly.

Every batch product is `np.dot`, not `@`/`np.matmul`.  matmul sends an
outer product (inner dimension 1, such as the last layer's input gradient)
to numpy's own loop instead of BLAS, several times slower; np.dot sends it
to BLAS and gives the same bytes as matmul on every product shape the nets
make (test_nets.py sweeps them).  A stack of one-row inputs is the one use
of np.matmul: it multiplies each (1, in) slice on its own, so each output
row has the bytes of a one-row np.dot forward, while a (n, in) gemm takes
another path in OpenBLAS and does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from marginsim.errors import CheckpointError, DomainError, NonFiniteGradientError

ACTIVATIONS = ("relu", "linear")
# ufuncs take a 0-d array operand faster than the Python float 0.0.
_ZERO = np.zeros(())


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
    """A stack of fully connected layers.

    All parameters live in one flat float64 vector, `params`: layer by
    layer, each layer's weights (row-major) and then its bias.  Each layer's
    `weights` (out, in) and `bias` (out,) are views into it, so in-place
    edits of either are edits of `params`.  A caller may pass the vector to
    use as `params`, of that size; the layers' values overwrite it.
    """

    def __init__(self, layers: list[Layer], params: np.ndarray | None = None):
        if not layers:
            raise DomainError("a network needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.weights.shape[1] != prev.weights.shape[0]:
                raise DomainError(
                    f"layer input width {nxt.weights.shape[1]} does not match "
                    f"previous output width {prev.weights.shape[0]}")
        for layer in layers:
            layer.validate()
        self.shapes = [layer.weights.shape for layer in layers]
        self.params = (np.empty(sum(out * inp + out for out, inp in self.shapes))
                       if params is None else params)
        self.layers = []
        for (weights, bias), layer in zip(self.views(self.params), layers):
            weights[...] = layer.weights
            bias[...] = layer.bias
            self.layers.append(Layer(weights, bias, layer.activation))
        # Each layer's forward operands, views into `params`: the weights
        # transposed, the bias as a (1, out) row (adding it to a row is then
        # a same-shape add, cheaper than broadcasting a vector), and whether
        # it is ReLU.
        self.steps = [(layer.weights.T, layer.bias[None, :], layer.activation == "relu")
                      for layer in self.layers]

    def views(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """One (weights, bias) pair of views per layer into a flat vector
        laid out like `params`."""
        pairs = []
        start = 0
        for out, inp in self.shapes:
            stop = start + out * inp
            pairs.append((flat[start:stop].reshape(out, inp), flat[stop:stop + out]))
            start = stop + out
        return pairs

    @property
    def input_dim(self) -> int:
        return self.shapes[0][1]

    def dims(self) -> list[int]:
        return [self.input_dim] + [out for out, _ in self.shapes]

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
            bound = 1.0 / math.sqrt(fan_in)
            weights = rng.uniform(-bound, bound, size=(fan_out, fan_in))
            layers.append(Layer(weights, np.zeros(fan_out), act))
        return cls(layers)

    def forward(self, x: np.ndarray, buffers: Buffers | None = None) -> np.ndarray:
        """Output for a batch (n, in) -> (n, out), or for a stack of one-row
        inputs (n, 1, in) -> (n, 1, out)."""
        return self.forward_trace(x, buffers)[-1]

    def forward_trace(self, x: np.ndarray, buffers: Buffers | None = None) -> list[np.ndarray]:
        """Forward pass keeping every layer's activation, input first.

        A batch (n, in) is multiplied with np.dot.  A stack (n, 1, in) is
        multiplied with np.matmul, so that output row i equals the one-row
        forward of `x[i]` byte for byte.  `backward` takes a batch's list to
        reuse the pass instead of rerunning it.  With `buffers` (batches
        only), the activations are written into its arrays; without, they
        are fresh.
        """
        a = np.asarray(x, dtype=float)
        if a.ndim == 2:
            product = np.dot
        elif a.ndim == 3 and a.shape[1] == 1:
            product = np.matmul
        else:
            raise DomainError(f"input shape {a.shape}, expected (n, in) or (n, 1, in)")
        if a.shape[-1] != self.input_dim:
            raise DomainError(f"input width {a.shape[-1]}, network expects {self.input_dim}")
        outs = buffers.fit(a.shape[0]).acts if buffers is not None else None
        acts = [a]
        for k, (weights_t, bias, relu) in enumerate(self.steps):
            a = product(a, weights_t, out=None if outs is None else outs[k])
            a += bias
            if relu:
                np.maximum(a, _ZERO, out=a)
            acts.append(a)
        return acts


class Gradients(list):
    """One (dW, db) pair per layer, all views into `vector`, a flat vector
    laid out like `DenseNet.params`."""

    def __init__(self, net: DenseNet, vector: np.ndarray):
        super().__init__(net.views(vector))
        self.vector = vector


class Buffers:
    """Reusable arrays for `forward_trace` and `backward` of one architecture.

    Per layer: the activation, the ReLU mask, the masked upstream gradient
    and the gradient w.r.t. the layer's input, all with the row count of
    the last batch (a batch with another row count reallocates them); plus
    one `Gradients`.  Every call that uses the buffers overwrites what the
    previous one returned in them.
    """

    def __init__(self, net: DenseNet):
        self.shapes = list(net.shapes)
        self.grads = Gradients(net, np.empty(net.params.size))
        self.rows = None

    def fit(self, rows: int) -> "Buffers":
        if rows != self.rows:
            self.rows = rows
            self.acts = [np.empty((rows, out)) for out, _ in self.shapes]
            self.masks = [np.empty((rows, out), dtype=bool) for out, _ in self.shapes]
            self.deltas = [np.empty((rows, out)) for out, _ in self.shapes]
            self.inputs = [np.empty((rows, inp)) for _, inp in self.shapes]
        return self


def backward(net: DenseNet, x: np.ndarray, upstream: np.ndarray, trace=None,
             *, params: bool = True, inputs: bool = True, buffers: Buffers | None = None):
    """Exact gradients of sum(output * upstream) w.r.t. parameters and input.

    Returns (grads, input_grad) where grads is a `Gradients`, one (dW, db)
    pair per layer.  `params=False` or `inputs=False` skips that half of the
    work and returns None in its place; the half computed is unchanged.
    `trace` is `net.forward_trace(x)` when the caller has already run it
    with the current parameters; without it, that pass runs here.  With
    `buffers`, every result and intermediate is written into its arrays;
    without, they are fresh.  ReLU uses subgradient 0 at 0.  `x` is a
    batch (n, in) and `upstream` (n, out); gradients sum over the batch, so
    divide upstream by the batch size first to get means.
    """
    acts = net.forward_trace(x, buffers) if trace is None else trace
    g = np.asarray(upstream, dtype=float)
    if g.shape != acts[-1].shape:
        raise DomainError(f"upstream shape {g.shape} does not match output {acts[-1].shape}")
    if buffers is None:
        grads = Gradients(net, np.empty(net.params.size)) if params else None
        masks = deltas = ins = [None] * len(net.layers)
    else:
        buffers.fit(g.shape[0])
        grads = buffers.grads if params else None
        masks, deltas, ins = buffers.masks, buffers.deltas, buffers.inputs
    for k in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[k]
        if layer.activation == "relu":
            g = np.multiply(g, np.greater(acts[k + 1], _ZERO, out=masks[k]), out=deltas[k])
        if params:
            dw, db = grads[k]
            np.dot(g.T, acts[k], out=dw)
            np.add.reduce(g, axis=0, out=db)
        if k or inputs:
            g = np.dot(g, layer.weights, out=ins[k])
    return grads, (g if inputs else None)


class AdamState:
    """Adam moments for one network (beta1=0.9, beta2=0.999, eps=1e-8),
    flat vectors laid out like `DenseNet.params`, plus two scratch vectors
    of that size for `adam_step`.  The caller passes the zeroed vectors
    `m` and `v` the moments live in."""

    def __init__(self, net: DenseNet, learning_rate: float, m: np.ndarray, v: np.ndarray):
        if learning_rate <= 0:
            raise DomainError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = learning_rate
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8
        self.step_count = 0
        self.m = m
        self.v = v
        self.scratch = (np.empty_like(net.params), np.empty_like(net.params))


def adam_step(net: DenseNet, state: AdamState, grad: np.ndarray) -> None:
    """One bias-corrected Adam update in place; rejects non-finite gradients.

    `grad` is a flat vector laid out like `net.params` (`Gradients.vector`).
    The update is
    params -= lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps),
    evaluated in that order in the state's scratch vectors.
    """
    if grad.shape != net.params.shape:
        raise DomainError(f"gradient vector shape {grad.shape} does not match "
                          f"{net.params.size} parameters")
    if not np.isfinite(grad).all():
        raise NonFiniteGradientError("non-finite gradient; update rejected")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    m, v = state.m, state.v
    step, denom = state.scratch
    m *= b1
    m += np.multiply(1.0 - b1, grad, out=step)
    v *= b2
    np.multiply(1.0 - b2, grad, out=step)
    v += np.multiply(step, grad, out=step)
    np.divide(m, 1.0 - b1 ** t, out=step)
    np.multiply(state.learning_rate, step, out=step)
    np.divide(v, 1.0 - b2 ** t, out=denom)
    np.sqrt(denom, out=denom)
    denom += state.eps
    net.params -= np.divide(step, denom, out=step)


def clone_into(source: DenseNet, target: DenseNet) -> None:
    """Hard-copy source parameters into target (by value)."""
    if source.shapes != target.shapes or source.activations() != target.activations():
        raise DomainError("cannot copy between different architectures")
    target.params[...] = source.params


def mae_loss(targets: np.ndarray, predictions: np.ndarray):
    """Mean absolute error and its gradient w.r.t. predictions.  Means are
    `np.add.reduce(x) / n`, what `x.mean()` computes, without its wrapper."""
    diff = predictions - targets
    n = diff.size
    return float(np.add.reduce(np.abs(diff)) / n), np.sign(diff) / n


def mse_loss(targets: np.ndarray, predictions: np.ndarray):
    """Mean squared error and its gradient w.r.t. predictions."""
    diff = predictions - targets
    n = diff.size
    return float(np.add.reduce(diff * diff) / n), 2.0 * diff / n


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
    if not np.isfinite(net.params).all():
        raise CheckpointError("non-finite parameter in checkpoint")
    return net
