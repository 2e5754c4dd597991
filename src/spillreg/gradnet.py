"""Minimal dense-network toolkit with exact reverse-mode gradients.

Sized for exactly what the training loop needs: the critic and the NN
actor, tanh nets with an identity output layer, and the linear policy head,
one identity layer, all run on batches of (n, in) rows. forward returns the
output and a tape of each layer's input and output; backward replays it
into the exact gradient of sum(output * grad_output) with respect to every
parameter, summed over the batch, so per-sample loss weights belong in
grad_output. All math is float64 numpy. A tape from buffer_tape is made
once and refilled by every forward given it, and neither pass then
allocates, copies or checks an array; backward replays its one forward and
overwrites the hidden outputs with tanh' as it goes. Every tape records the
net's version at its forward, and backward refuses a tape recorded before
the parameters changed, or a buffer tape with no forward left to replay.
The PPO step (policy.ppo_step) keeps one buffer tape per learner.

The pass is lean but keeps every result of the textbook one bit for bit:
h @ W.T + b forward (bias added in place), g.T @ inputs and g @ W backward,
with the same operand shapes and layouts. The tape keeps no pre-activations
(tanh' is 1 - out^2), and an identity layer passes g on without a multiply
by ones. Through a one-output layer (the critic's and the NN actor's last),
g @ W has inner dimension 1, which numpy computes as 0 + g*W per element in
a loop of its own; backward computes that sum elementwise instead.

Parameter layout: a DenseNet is its layers' (out, in) shapes, their
activations and one contiguous float64 vector, `flat` = [W0, b0, W1, b1,
...] row-major. weights[i] and biases[i] are views into flat, so writing
through them changes the net. backward returns the parameter gradient in
the same layout, written into a caller's buffer if given (cut into
per-array views once per buffer). use(flat) makes a net, or a policy
head, view other storage of its size as its parameters, without a copy:
the PPO trainer copies both learners into one vector and points each at
its slice (ppo.join_parameters).

Optimizers: bias-corrected Adam (the default throughout the package) and
plain SGD. Each keeps its state over one flat parameter vector and updates
that vector in place from one flat gradient of the same shape, through
two scratch vectors shaped like it. Both are elementwise, so one state
over two learners' joined vectors steps each learner exactly as a state of
its own would at the same step count; a PPO run keeps one parameter vector
and one optimizer state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import CheckpointError, DivergenceError, ShapeError, UsageError

ACTIVATIONS = ("tanh", "identity")


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

    Layer i has the (out, in) shape dims[i], both >= 1, and the activation
    activations[i]. Its weight and bias are weights[i] and biases[i], views
    into flat: zeros, unless the caller passes storage it owns (e.g. a slice
    of an actor's vector).
    """

    def __init__(self, dims, activations, flat: np.ndarray | None = None):
        if not dims or len(activations) != len(dims):
            raise ShapeError(f"need one or more layers, one activation each: got {len(activations)} for {len(dims)}")
        for act in activations:
            if act not in ACTIVATIONS:
                raise ShapeError(f"unknown activation {act!r}, expected one of {ACTIVATIONS}")
        if any(n < 1 for shape in dims for n in shape):
            raise ShapeError(f"every layer dim must be >= 1: {list(dims)}")
        for (_, n_in), (n_out, _) in zip(dims[1:], dims):
            if n_in != n_out:
                raise ShapeError(f"layer dims do not chain: {list(dims)}")
        self._shapes = [shape for n_out, n_in in dims for shape in ((n_out, n_in), (n_out,))]
        self._size = sum(math.prod(shape) for shape in self._shapes)
        self.activations = tuple(activations)
        self.version = 0  # bumped by whoever mutates the parameters
        self.use(np.zeros(self._size) if flat is None else flat)
        # backward's views of the last `out` it was given
        self._grad_flat: np.ndarray | None = None
        self._grad_split: list[np.ndarray] = []

    def use(self, flat: np.ndarray) -> None:
        """View flat, a vector of the net's size, as the parameters from now on (no copy)."""
        if flat.shape != (self._size,):
            raise ShapeError(f"flat storage shape {flat.shape} does not hold {self._size} parameters")
        self.flat = flat
        views = self.unflatten(flat)
        self.weights, self.biases = views[::2], views[1::2]
        # what forward reads per layer
        self._plan = list(zip([w.T for w in self.weights], self.biases, self.activations))

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    def unflatten(self, vec: np.ndarray) -> list[np.ndarray]:
        """Views of a vector laid out like flat: [W0, b0, W1, b1, ...]."""
        return split(vec, self._shapes)

    def parameters(self) -> list[np.ndarray]:
        """Parameter arrays in update order: [W0, b0, W1, b1, ...] (live views of flat)."""
        return self.unflatten(self.flat)

    def bump_version(self) -> None:
        self.version += 1

    def _grad_views(self, flat: np.ndarray) -> list[np.ndarray]:
        """unflatten(flat), cut once for a buffer that backward is given again and again."""
        if flat is not self._grad_flat:
            self._grad_flat, self._grad_split = flat, self.unflatten(flat)
        return self._grad_split


class Tape:
    """Activation record of one forward pass: acts[0] is the (n, in) input,
    acts[i + 1] the output of layer i, version the net's version then.

    A buffer_tape's scratch[i] takes backward's (n, in) gradient of layer
    i's input. Its owner is a one-item list shared with the tapes head()
    cuts from it: owner[0] is the tape whose forward the shared arrays
    hold, and None once a backward has replayed it.
    """

    __slots__ = ("net", "version", "acts", "scratch", "owner")

    def __init__(self, net: DenseNet, version: int | None, acts: list, scratch=None, owner=None):
        self.net, self.version, self.acts, self.scratch, self.owner = net, version, acts, scratch, owner

    def head(self, n: int) -> Tape:
        """A buffer_tape's first n rows as a buffer_tape of n rows: views, no new arrays."""
        return Tape(self.net, None, [None, *(a[:n] for a in self.acts[1:])], [g[:n] for g in self.scratch], self.owner)


def buffer_tape(net: DenseNet, n: int) -> Tape:
    """A reusable tape of n rows, empty until a forward fills it; a backward
    replays that forward once, overwriting its hidden layers' outputs."""
    outs = [np.empty((n, w.shape[0])) for w in net.weights]
    return Tape(net, None, [None, *outs], [np.empty((n, w.shape[1])) for w in net.weights], [None])


def forward(net: DenseNet, x: np.ndarray, tape: Tape | None = None) -> tuple[np.ndarray, Tape]:
    """Run the net on (n, in) inputs; returns ((n, out) output, tape). Mutates nothing but a given tape.

    Given a buffer_tape of n rows, x must be a float64 (n, in) array and the
    pass writes into that tape, which it returns.
    """
    if tape is None:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != net.in_dim:
            raise ShapeError(f"input shape {x.shape} does not match (n, {net.in_dim})")
        tape = Tape(net, net.version, [None] * (len(net._plan) + 1))
    else:
        tape.version, tape.owner[0] = net.version, tape
    acts = tape.acts
    acts[0] = h = x
    for i, (weight_t, bias, activation) in enumerate(net._plan, 1):
        h = acts[i] = np.matmul(h, weight_t, out=acts[i])
        h += bias
        if activation == "tanh":
            np.tanh(h, out=h)
    return h, tape


def backward(net: DenseNet, tape: Tape, grad_output: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Exact gradient of sum(output * grad_output) w.r.t. the parameters,
    laid out like net.flat and written into `out` (a new vector if None).

    On a buffer_tape, grad_output must be a C-order float64 array of the
    output's shape, and it is used as it is; the tape is then spent.
    """
    if tape.net is not net:
        raise UsageError("tape was recorded on a different net")
    acts, scratch, g = tape.acts, tape.scratch, grad_output
    buffered = scratch is not None
    if buffered:
        if tape.owner[0] is not tape:
            raise UsageError("buffer tape holds no forward to replay: run forward on it again")
        tape.owner[0] = None
    if tape.version != net.version:
        raise UsageError("stale tape: net parameters changed since forward")
    if not buffered:
        # a fresh C-order copy: an identity layer passes g on unmultiplied, and
        # its products then see the layout a multiply would have produced
        g = np.array(grad_output, dtype=np.float64)
        if g.shape != acts[-1].shape:
            raise ShapeError(f"grad_output shape {g.shape} does not match output shape {acts[-1].shape}")
        scratch = [None] * len(acts)
    flat = np.empty_like(net.flat) if out is None else out
    views = net._grad_views(flat)
    for idx in range(len(net.weights) - 1, -1, -1):
        if net.activations[idx] == "tanh":  # d tanh = 1 - out^2, over out on a buffer_tape
            a = acts[idx + 1]
            ga = np.multiply(a, a, out=a if buffered else None)
            np.subtract(1.0, ga, out=ga)
            np.multiply(g, ga, out=ga)
        else:
            ga = g
        np.matmul(ga.T, acts[idx], out=views[2 * idx])
        np.add.reduce(ga, axis=0, out=views[2 * idx + 1])
        if not idx:
            break
        weight = net.weights[idx]
        if weight.shape[0] == 1:
            # numpy runs a product of inner dimension 1 through its own loop,
            # 0 + a*b per element; this is that sum, without the loop's cost
            g = np.multiply(ga, weight, out=scratch[idx])
            g += 0.0
        else:
            g = np.matmul(ga, weight, out=scratch[idx])
    return flat


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
    Biases start at zero. rng is any object whose randoms(n) returns n floats
    in [0, 1), as rng.Xoshiro256StarStar.randoms does. A layer takes
    fan_out * fan_in of them in row-major order, and each weight is
    low + (high - low) * u, the two IEEE operations of rng.uniform(low, high).
    """
    net = DenseNet(list(zip(layer_dims[1:], layer_dims)), activations)
    for i, w in enumerate(net.weights):
        fan_out, fan_in = w.shape
        gain = out_gain if i == len(net.weights) - 1 else hidden_gain
        limit = gain * math.sqrt(3.0 / fan_in)
        low, high = -limit, limit
        u = np.array(rng.randoms(fan_out * fan_in), dtype=np.float64).reshape(fan_out, fan_in)
        w[...] = low + (high - low) * u
    return net


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


def adam_step(opt: AdamState, params: np.ndarray, grads: np.ndarray, scratch) -> None:
    """One Adam update of params, in place, its intermediates in scratch (two
    arrays shaped like params). Raises DivergenceError on non-finite grads."""
    _check_grads(params, grads, opt.step)
    if opt.m.shape != params.shape or opt.v.shape != params.shape:
        raise ShapeError("optimizer state does not match parameter count")
    opt.step += 1
    bc1 = 1.0 - opt.beta1 ** opt.step
    bc2 = 1.0 - opt.beta2 ** opt.step
    a, b = scratch
    m, v = opt.m, opt.v
    m *= opt.beta1
    m += np.multiply(1.0 - opt.beta1, grads, out=a)
    v *= opt.beta2
    v += np.multiply(1.0 - opt.beta2, np.multiply(grads, grads, out=a), out=a)
    # params -= lr * (m / bc1) / (sqrt(v / bc2) + eps), one operation at a time
    delta = np.multiply(opt.lr, np.divide(m, bc1, out=a), out=a)
    denom = np.sqrt(np.divide(v, bc2, out=b), out=b)
    denom += opt.eps
    params -= np.divide(delta, denom, out=delta)


@dataclass
class SgdState:
    """Plain SGD; its only state is the step count."""

    lr: float = 1e-4
    step: int = 0


def sgd_step(opt: SgdState, params: np.ndarray, grads: np.ndarray, scratch) -> None:
    """One SGD update of params, in place, through scratch[0]. Raises DivergenceError on non-finite grads."""
    _check_grads(params, grads, opt.step)
    opt.step += 1
    params -= np.multiply(opt.lr, grads, out=scratch[0])


def optimizer_for(kind: str, params: np.ndarray, lr: float) -> AdamState | SgdState:
    """Config switch between the two optimizers: fresh state for a flat parameter vector."""
    if kind == "adam":
        return AdamState(m=np.zeros_like(params), v=np.zeros_like(params), lr=lr)
    if kind == "sgd":
        return SgdState(lr=lr)
    raise ShapeError(f"unknown optimizer {kind!r}, expected 'adam' or 'sgd'")


def optimizer_step(opt: AdamState | SgdState, params: np.ndarray, grads: np.ndarray, scratch) -> None:
    """One update of the flat params, in place, by opt's rule (scratch: adam_step's)."""
    if isinstance(opt, AdamState):
        adam_step(opt, params, grads, scratch)
    else:
        sgd_step(opt, params, grads, scratch)


def nonfinite_gradient(coord: int, step: int) -> DivergenceError:
    """The error of a gradient whose first non-finite entry is at coord, before update step+1."""
    return DivergenceError(f"non-finite gradient at coordinate {coord}", step=step, diagnostics={"coordinate": coord})


def _check_grads(params: np.ndarray, grads: np.ndarray, step: int) -> None:
    if params.shape != np.shape(grads):
        raise ShapeError(f"gradient shape {np.shape(grads)} does not match parameter shape {params.shape}")
    if not np.isfinite(grads).all():
        raise nonfinite_gradient(int(np.flatnonzero(~np.isfinite(grads))[0]), step)


# --- checkpoint pieces ----------------------------------------------------

def net_to_dict(net: DenseNet) -> dict:
    """The net's record: layer dims, activations and one 1-D float64 copy per parameter array.

    The copies are the net's values now, not views: they stay as they are
    while training steps the net. cli.write_output writes them as JSON lists.
    """
    return {
        "layer_dims": [list(w.shape) for w in net.weights],
        "activations": list(net.activations),
        "params": [p.flatten() for p in net.parameters()],
    }


def net_from_dict(data: dict) -> DenseNet:
    try:
        dims, acts, params = data["layer_dims"], data["activations"], data["params"]
    except KeyError as exc:
        raise CheckpointError(f"net checkpoint missing key {exc}") from exc
    if len(params) != 2 * len(dims):
        raise CheckpointError("net checkpoint parameter count does not match layer dims")
    if len(acts) != len(dims):
        raise CheckpointError(f"net checkpoint has {len(acts)} activations for {len(dims)} layers")
    net = DenseNet(dims, acts)
    for view, values in zip(net.parameters(), params):
        view[...] = np.asarray(values, dtype=np.float64).reshape(view.shape)
    return net


def adam_to_dict(opt: AdamState, params: list[np.ndarray]) -> dict:
    """Adam state with m and v cut into one 1-D float64 copy per parameter array of the flat vector.

    Copies, as net_to_dict's are: the record keeps the state of the step it was taken at.
    """
    shapes = [p.shape for p in params]
    return {
        "kind": "adam",
        "lr": opt.lr,
        "beta1": opt.beta1,
        "beta2": opt.beta2,
        "eps": opt.eps,
        "step": opt.step,
        "m": [m.flatten() for m in split(opt.m, shapes)],
        "v": [v.flatten() for v in split(opt.v, shapes)],
    }


def adam_from_dict(data: dict, params: list[np.ndarray]) -> AdamState:
    """Inverse of adam_to_dict for the same parameter arrays."""
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
