"""Minimal dense-network toolkit with exact reverse-mode gradients.

Sized for exactly what the training loop needs: a linear actor head and a
two-hidden-layer (64x64) critic. Forward returns an activation tape;
backward replays it to produce exact gradients of output . grad_output with
respect to every parameter and the input. All math is float64 numpy.

forward/backward accept a single input vector (the documented contract) or a
batch stacked along the first axis; gradients of a batch are summed over the
batch, so per-sample loss weights belong in grad_output.

Parameter layout: a DenseNet keeps all its parameters in one contiguous
float64 vector, `flat` = [W0, b0, W1, b1, ...] row-major, and its layers'
weight/bias arrays are views into it; backward returns the parameter
gradient in the same layout. Writing through a view changes the net.

Optimizers: bias-corrected Adam (the default throughout the package) and
plain SGD. Each keeps its state over one flat parameter vector and updates
that vector in place from one flat gradient of the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ShapeError, UsageError

ACTIVATIONS = ("tanh", "relu", "identity")


@dataclass
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2:
            raise ShapeError(f"layer weight must be 2-D, got shape {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[0],):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match weight rows {self.weight.shape[0]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ShapeError(f"unknown activation {self.activation!r}, expected one of {ACTIVATIONS}")


def split(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of flat cut into consecutive blocks of the given shapes."""
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        start = stop
    return views


class DenseNet:
    """A chain of affine layers with elementwise activations.

    The parameters live in one vector, `flat` (pass `flat` to place them in
    storage the caller owns, e.g. a slice of an actor's vector); the given
    layers' values are copied in and the net's layers hold views into it.
    """

    def __init__(self, layers: list[Layer], flat: np.ndarray | None = None):
        if not layers:
            raise ShapeError("DenseNet needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.weight.shape[1] != prev.weight.shape[0]:
                raise ShapeError(
                    f"layer dims do not chain: {prev.weight.shape} -> {nxt.weight.shape}"
                )
        self._shapes = [a.shape for layer in layers for a in (layer.weight, layer.bias)]
        size = sum(math.prod(shape) for shape in self._shapes)
        if flat is None:
            flat = np.empty(size, dtype=np.float64)
        elif flat.shape != (size,):
            raise ShapeError(f"flat storage shape {flat.shape} does not hold {size} parameters")
        self.flat = flat
        views = self.unflatten(flat)
        self.layers = []
        for layer, w, b in zip(layers, views[::2], views[1::2]):
            w[...] = layer.weight
            b[...] = layer.bias
            self.layers.append(Layer(weight=w, bias=b, activation=layer.activation))
        self.version = 0  # bumped by whoever mutates the parameters

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[0]

    @property
    def param_count(self) -> int:
        return self.flat.size

    def unflatten(self, vec: np.ndarray) -> list[np.ndarray]:
        """Views of a vector laid out like flat: [W0, b0, W1, b1, ...]."""
        return split(vec, self._shapes)

    def parameters(self) -> list[np.ndarray]:
        """Parameter arrays in update order: [W0, b0, W1, b1, ...] (live views of flat)."""
        return self.unflatten(self.flat)

    def bump_version(self) -> None:
        self.version += 1


@dataclass
class Tape:
    """Activation record of one forward pass."""

    net: DenseNet
    version: int
    inputs: list[np.ndarray]  # input to each layer, shape (n, in)
    pre_acts: list[np.ndarray]  # affine outputs before activation
    outputs: list[np.ndarray]  # post-activation outputs
    single: bool  # True if forward received a 1-D vector


@dataclass
class Gradients:
    flat: np.ndarray  # aligned with net.flat; net.unflatten(flat) splits it per array
    input: np.ndarray


def _apply_activation(name: str, z: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return np.tanh(z)
    if name == "relu":
        return np.maximum(z, 0.0)
    return z


def _activation_grad(name: str, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return 1.0 - out * out
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    return np.ones_like(z)


def forward(net: DenseNet, x: np.ndarray) -> tuple[np.ndarray, Tape]:
    """Run the net; returns (output, tape). Pure: mutates nothing."""
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != net.in_dim:
        raise ShapeError(f"input shape {np.shape(x)} does not match in_dim {net.in_dim}")
    inputs, pre_acts, outputs = [], [], []
    h = arr
    for layer in net.layers:
        inputs.append(h)
        z = h @ layer.weight.T + layer.bias
        out = _apply_activation(layer.activation, z)
        pre_acts.append(z)
        outputs.append(out)
        h = out
    tape = Tape(net=net, version=net.version, inputs=inputs, pre_acts=pre_acts, outputs=outputs, single=single)
    return (h[0] if single else h), tape


def backward(net: DenseNet, tape: Tape, grad_output: np.ndarray) -> Gradients:
    """Exact gradients of sum(output * grad_output) w.r.t. parameters and input."""
    if tape.net is not net:
        raise UsageError("tape was recorded on a different net")
    if tape.version != net.version:
        raise UsageError("stale tape: net parameters changed since forward")
    g = np.asarray(grad_output, dtype=np.float64)
    if tape.single:
        if g.shape != (net.out_dim,):
            raise ShapeError(f"grad_output shape {g.shape} does not match out_dim {net.out_dim}")
        g = g[None, :]
    elif g.shape != tape.outputs[-1].shape:
        raise ShapeError(
            f"grad_output shape {g.shape} does not match output shape {tape.outputs[-1].shape}"
        )
    flat = np.empty_like(net.flat)
    param_grads = net.unflatten(flat)
    for idx in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[idx]
        ga = g * _activation_grad(layer.activation, tape.pre_acts[idx], tape.outputs[idx])
        param_grads[2 * idx][...] = ga.T @ tape.inputs[idx]
        param_grads[2 * idx + 1][...] = ga.sum(axis=0)
        g = ga @ layer.weight
    input_grad = g[0] if tape.single else g
    return Gradients(flat=flat, input=input_grad)


def init_dense(
    layer_dims: list[int],
    activations: list[str],
    rng,
    hidden_gain: float = math.sqrt(2.0),
    out_gain: float = 0.01,
) -> DenseNet:
    """Build a net with scaled-uniform init.

    Weights are drawn U(-L, L) with L = gain * sqrt(3 / fan_in), which matches
    the variance of orthogonal init at the given gain; hidden layers use
    hidden_gain, the final layer out_gain (small, so initial outputs hug 0).
    Biases start at zero. rng is any object with a random() -> [0, 1) method.
    """
    if len(layer_dims) < 2:
        raise ShapeError("layer_dims needs at least input and output sizes")
    if len(activations) != len(layer_dims) - 1:
        raise ShapeError(
            f"need {len(layer_dims) - 1} activations for {len(layer_dims)} dims, got {len(activations)}"
        )
    layers = []
    for i, act in enumerate(activations):
        fan_in, fan_out = layer_dims[i], layer_dims[i + 1]
        gain = out_gain if i == len(activations) - 1 else hidden_gain
        limit = gain * math.sqrt(3.0 / fan_in)
        w = np.empty((fan_out, fan_in), dtype=np.float64)
        for r in range(fan_out):
            for c in range(fan_in):
                w[r, c] = rng.uniform(-limit, limit)
        layers.append(Layer(weight=w, bias=np.zeros(fan_out), activation=act))
    return DenseNet(layers)


@dataclass
class AdamState:
    """Bias-corrected Adam; m and v are shaped like the flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0


def adam_step(opt: AdamState, params: np.ndarray, grads: np.ndarray) -> None:
    """One Adam update of params, in place. Raises DivergenceError on non-finite grads."""
    _check_grads(params, grads, opt.step)
    if opt.m.shape != params.shape or opt.v.shape != params.shape:
        raise ShapeError("optimizer state does not match parameter count")
    opt.step += 1
    bc1 = 1.0 - opt.beta1 ** opt.step
    bc2 = 1.0 - opt.beta2 ** opt.step
    m, v = opt.m, opt.v
    m *= opt.beta1
    m += (1.0 - opt.beta1) * grads
    v *= opt.beta2
    v += (1.0 - opt.beta2) * (grads * grads)
    params -= opt.lr * (m / bc1) / (np.sqrt(v / bc2) + opt.eps)


@dataclass
class SgdState:
    """Plain SGD; its only state is the step count."""

    lr: float = 1e-4
    step: int = 0


def sgd_step(opt: SgdState, params: np.ndarray, grads: np.ndarray) -> None:
    """One SGD update of params, in place. Raises DivergenceError on non-finite grads."""
    _check_grads(params, grads, opt.step)
    opt.step += 1
    params -= opt.lr * grads


def optimizer_for(kind: str, params: np.ndarray, lr: float) -> AdamState | SgdState:
    """Config switch between the two optimizers: fresh state for a flat parameter vector."""
    if kind == "adam":
        return AdamState(m=np.zeros_like(params), v=np.zeros_like(params), lr=lr)
    if kind == "sgd":
        return SgdState(lr=lr)
    raise ShapeError(f"unknown optimizer {kind!r}, expected 'adam' or 'sgd'")


def optimizer_step(opt: AdamState | SgdState, params: np.ndarray, grads: np.ndarray) -> None:
    """One update of the flat params, in place, by opt's rule."""
    if isinstance(opt, AdamState):
        adam_step(opt, params, grads)
    else:
        sgd_step(opt, params, grads)


def _check_grads(params: np.ndarray, grads: np.ndarray, step: int) -> None:
    if params.shape != np.shape(grads):
        raise ShapeError(f"gradient shape {np.shape(grads)} does not match parameter shape {params.shape}")
    if not np.isfinite(grads).all():
        coord = int(np.flatnonzero(~np.isfinite(grads))[0])
        raise DivergenceError(
            f"non-finite gradient at coordinate {coord}", step=step, diagnostics={"coordinate": coord}
        )


# --- checkpoint pieces ----------------------------------------------------

def net_to_dict(net: DenseNet) -> dict:
    return {
        "layer_dims": [[l.weight.shape[0], l.weight.shape[1]] for l in net.layers],
        "activations": [l.activation for l in net.layers],
        "params": [p.ravel().tolist() for p in net.parameters()],
    }


def net_from_dict(data: dict) -> DenseNet:
    from .errors import CheckpointError

    try:
        dims = data["layer_dims"]
        acts = data["activations"]
        flat = data["params"]
    except KeyError as exc:
        raise CheckpointError(f"net checkpoint missing key {exc}") from exc
    if len(flat) != 2 * len(dims):
        raise CheckpointError("net checkpoint parameter count does not match layer dims")
    layers = []
    for i, ((out_d, in_d), act) in enumerate(zip(dims, acts)):
        w = np.asarray(flat[2 * i], dtype=np.float64).reshape(out_d, in_d)
        b = np.asarray(flat[2 * i + 1], dtype=np.float64).reshape(out_d)
        layers.append(Layer(weight=w, bias=b, activation=act))
    return DenseNet(layers)


def adam_to_dict(opt: AdamState, params: list[np.ndarray]) -> dict:
    """Adam state with m and v cut into one list per parameter array of the flat vector."""
    shapes = [p.shape for p in params]
    return {
        "kind": "adam",
        "lr": opt.lr,
        "beta1": opt.beta1,
        "beta2": opt.beta2,
        "eps": opt.eps,
        "step": opt.step,
        "m": [m.ravel().tolist() for m in split(opt.m, shapes)],
        "v": [v.ravel().tolist() for v in split(opt.v, shapes)],
    }


def adam_from_dict(data: dict, params: list[np.ndarray]) -> AdamState:
    """Inverse of adam_to_dict for the same parameter arrays."""
    from .errors import CheckpointError

    if data.get("kind") != "adam":
        raise CheckpointError(f"expected adam optimizer state, got {data.get('kind')!r}")

    def join(blocks: list) -> np.ndarray:
        arrays = [np.asarray(b, dtype=np.float64).ravel() for b in blocks]
        if [a.size for a in arrays] != [p.size for p in params]:
            raise CheckpointError("optimizer state does not match parameter count")
        return np.concatenate(arrays)

    return AdamState(
        m=join(data["m"]),
        v=join(data["v"]),
        lr=float(data["lr"]),
        beta1=float(data["beta1"]),
        beta2=float(data["beta2"]),
        eps=float(data["eps"]),
        step=int(data["step"]),
    )
