"""Dense net and optimizer correctness, including finite-difference checks."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spillreg import gradnet
from spillreg.cli import json_default
from spillreg.controllers import LinearActor
from spillreg.errors import CheckpointError, DivergenceError, ShapeError, UsageError
from spillreg.gradnet import (
    ACTIVATIONS,
    AdamState,
    adam_from_dict,
    adam_step,
    adam_to_dict,
    backward,
    forward,
    init_dense,
    net_from_dict,
    net_to_dict,
)
from spillreg.rng import Xoshiro256StarStar


def small_net(seed=0, dims=(3, 5, 2), acts=("tanh", "identity")):
    return init_dense(list(dims), list(acts), Xoshiro256StarStar(seed))


def test_forward_shapes():
    net = small_net()
    out = forward(net, np.zeros((7, 3)))
    assert out.shape == (7, 2)
    row = forward(net, np.zeros((1, 3)))
    assert row.shape == (1, 2)


def test_identity_layer_is_affine():
    net = init_dense([2, 3], ["identity"], Xoshiro256StarStar(1))
    w, b = net.parameters()
    x = np.array([[1.0, -2.0], [0.5, 0.0]])
    out = forward(net, x)
    assert np.allclose(out, x @ w.T + b, atol=0.0)


def test_tanh_activation():
    net = init_dense([3, 3], ["tanh"], Xoshiro256StarStar(2))
    w, b = net.parameters()
    w[:] = np.eye(3)
    b[:] = 0.0
    net.bump_version()
    x = np.array([[-1.0, 0.0, 2.0]])
    out = forward(net, x)
    assert np.allclose(out, np.tanh(x))


def test_param_count():
    net = small_net()
    assert net.flat.size == sum(p.size for p in net.parameters())
    assert net.flat.size == 3 * 5 + 5 + 5 * 2 + 2


def scalar_loss(net, x, probe):
    return float(np.sum(forward(net, x) * probe))


def test_backward_matches_finite_differences():
    net = small_net(seed=3)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 3))
    probe = rng.normal(size=(4, 2))
    _, grads = oracles.buffered_pass(net, x, probe)
    h = 1e-6
    for p, g in zip(net.parameters(), net.unflatten(grads)):
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for idx in range(flat_p.size):
            orig = flat_p[idx]
            flat_p[idx] = orig + h
            net.bump_version()
            up = scalar_loss(net, x, probe)
            flat_p[idx] = orig - h
            net.bump_version()
            down = scalar_loss(net, x, probe)
            flat_p[idx] = orig
            net.bump_version()
            fd = (up - down) / (2 * h)
            assert flat_g[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_stale_tape_rejected():
    net = small_net()
    tape = gradnet.buffer_tape(net, 2, np.empty_like(net.flat))
    forward(net, np.ones((2, 3)), tape)
    net.bump_version()
    with pytest.raises(UsageError, match="stale tape"):
        backward(tape, np.ones((2, 2)))


def test_buffer_tape_replays_each_forward_once():
    net = small_net(seed=4)
    rng = np.random.default_rng(1)
    x, probe = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
    grads = np.full_like(net.flat, np.nan)
    full = gradnet.buffer_tape(net, 5, grads)
    head = full.head(3)
    with pytest.raises(UsageError, match="no forward to replay"):  # nothing recorded yet
        backward(full, probe)
    for tape, rows in ((full, 5), (head, 3), (full, 5)):
        assert buffered_difference(net, net, x[:rows], probe[:rows], tape, grads) is None
        with pytest.raises(UsageError, match="no forward to replay"):  # its tanh outputs are overwritten
            backward(tape, probe[:rows])
    forward(net, x, full)
    forward(net, x[:3], head)  # over the full tape's first rows
    with pytest.raises(UsageError, match="no forward to replay"):
        backward(full, probe)
    net.bump_version()
    with pytest.raises(UsageError, match="stale tape"):
        backward(head, probe[:3])


def test_shape_validation():
    net = small_net()
    with pytest.raises(ShapeError):
        forward(net, np.ones((2, 5)))
    with pytest.raises(ShapeError):
        forward(net, np.ones((2, 2, 3)))
    with pytest.raises(ShapeError):  # one input is a (1, in) row, not a vector
        forward(net, np.ones(3))


def test_init_dense_validation():
    rng = Xoshiro256StarStar(0)
    with pytest.raises(ShapeError):
        init_dense([3, 5], ["tanh", "identity"], rng)
    with pytest.raises(ShapeError):
        init_dense([3, 5], ["softplus"], rng)
    with pytest.raises(ShapeError):
        init_dense([3, 5], ["relu"], rng)
    assert set(ACTIVATIONS) == {"tanh", "identity"}


def test_init_output_layer_is_quiet():
    # out_gain keeps the initial function near zero; hidden layers are not tiny
    net = init_dense([4, 64, 64, 1], ["tanh", "tanh", "identity"], Xoshiro256StarStar(5))
    params = net.parameters()
    hidden_scale = float(np.abs(params[0]).mean())
    out_scale = float(np.abs(params[-2]).mean())
    assert out_scale < hidden_scale / 5


def test_init_is_seed_deterministic():
    a = small_net(seed=9)
    b = small_net(seed=9)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa, pb)


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
@pytest.mark.parametrize("dims,gains", [
    ((5, 64, 64, 1), {}),
    ((3, 64, 64, 1), {}),
    ((2, 7, 1), {"hidden_gain": 1.0, "out_gain": 0.5}),
    ((4, 3), {}),
])
def test_init_dense_bulk_draw_matches_per_weight_uniform(seed, dims, gains):
    acts = ["tanh"] * (len(dims) - 2) + ["identity"]
    rng, ref_rng = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    net = init_dense(list(dims), acts, rng, **gains)
    expected = oracles.init_dense_weights(list(dims), acts, ref_rng, **gains)
    assert len(net.weights) == len(expected)
    for weight, bias, w in zip(net.weights, net.biases, expected):
        assert weight.tobytes() == w.tobytes()
        assert not bias.any()
    assert rng.state == ref_rng.state
    assert rng.random() == ref_rng.random()


def test_net_round_trip_is_exact():
    net = small_net(seed=6)
    again = net_from_dict(net_to_dict(net))
    x = np.random.default_rng(2).normal(size=(5, 3))
    out_a = forward(net, x)
    out_b = forward(again, x)
    assert np.array_equal(out_a, out_b)


@pytest.mark.parametrize("activations", [["tanh", "tanh"], ["tanh", "tanh", "identity", "identity"]])
def test_net_from_dict_refuses_an_activation_count_unlike_the_layer_count(activations):
    data = net_to_dict(small_net(dims=(3, 4, 4, 2), acts=("tanh", "tanh", "identity")))
    with pytest.raises(CheckpointError, match="activations"):
        net_from_dict(dict(data, activations=activations))


def test_net_from_dict_refuses_malformed_records():
    data = net_to_dict(small_net(dims=(3, 4, 2), acts=("tanh", "identity")))
    with pytest.raises(CheckpointError, match="missing key"):
        net_from_dict({k: v for k, v in data.items() if k != "params"})
    with pytest.raises(CheckpointError, match="parameter count"):
        net_from_dict(dict(data, params=data["params"][:-1]))
    with pytest.raises(ShapeError, match="unknown activation"):
        net_from_dict(dict(data, activations=["tanh", "relu"]))
    with pytest.raises(ShapeError, match="do not chain"):
        net_from_dict(dict(data, layer_dims=[[4, 3], [2, 5]], params=[*data["params"][:2], [0.0] * 10, [0.0] * 2]))
    with pytest.raises(ValueError):  # the first weight list is one entry short
        net_from_dict(dict(data, params=[data["params"][0][:-1], *data["params"][1:]]))
    for dims, params in (([[0, 3]], [[], []]), ([[0, 5], [1, 0]], [[], [], [], [0.0]])):
        with pytest.raises(ShapeError, match="every layer dim must be >= 1"):
            net_from_dict({"layer_dims": dims, "activations": ["identity"] * len(dims), "params": params})


def fresh_adam(params, lr):
    return AdamState(m=np.zeros_like(params), v=np.zeros_like(params), lr=lr)


def test_adam_first_step_is_signed_lr():
    # with zero moments, m-hat = g and v-hat = g^2, so the move is
    # lr * g / (|g| + eps) which is lr * sign(g) up to eps
    params = np.array([1.0, -1.0, 0.5])
    opt = fresh_adam(params, 0.01)
    adam_step(opt, params, np.array([10.0, -0.001, 2.0]), oracles.scratch(params))
    assert np.allclose(params, [1.0 - 0.01, -1.0 + 0.01, 0.5 - 0.01], atol=1e-6)


def test_adam_zero_gradient_is_a_fixed_point():
    params = np.array([3.0, -4.0])
    opt = fresh_adam(params, 0.1)
    adam_step(opt, params, np.zeros(2), oracles.scratch(params))
    assert np.array_equal(params, [3.0, -4.0])


def test_adam_descends_a_quadratic():
    params = np.array([2.0])
    opt = fresh_adam(params, 0.05)
    for _ in range(500):
        adam_step(opt, params, 2.0 * params, oracles.scratch(params))
    assert abs(params[0]) < 0.05


def test_adam_serialize_resume_matches_uninterrupted():
    views = [np.zeros(2)]  # layout of the single parameter array

    p_a = np.array([1.0, -1.0])
    opt_a = fresh_adam(p_a, 0.01)
    rng = np.random.default_rng(3)
    for _ in range(10):
        adam_step(opt_a, p_a, rng.normal(size=2), oracles.scratch(p_a))

    p_b = np.array([1.0, -1.0])
    opt_b = fresh_adam(p_b, 0.01)
    rng = np.random.default_rng(3)
    for _ in range(5):
        adam_step(opt_b, p_b, rng.normal(size=2), oracles.scratch(p_b))
    restored = adam_from_dict(adam_to_dict(opt_b, views), views)
    for _ in range(5):
        adam_step(restored, p_b, rng.normal(size=2), oracles.scratch(p_b))
    assert np.array_equal(p_a, p_b)


# --- flat layout -------------------------------------------------------------

def test_net_parameters_are_views_of_flat():
    net = small_net(seed=2)
    params = net.parameters()
    assert np.array_equal(np.concatenate([p.ravel() for p in params]), net.flat)
    for p, layer_array in zip(params, [a for pair in zip(net.weights, net.biases) for a in pair]):
        assert np.shares_memory(p, net.flat) and np.shares_memory(layer_array, net.flat)
    # storage passed in is used as it is: not copied, not cleared
    dims = [w.shape for w in net.weights]
    storage = np.zeros(net.flat.size + 3)
    storage[1:-2] = net.flat
    placed = gradnet.DenseNet(dims, net.activations, storage[1:-2])
    assert placed.flat.base is storage and np.array_equal(placed.flat, net.flat)
    placed.biases[-1][-1] = 7.0  # the last parameter of the net
    assert storage[-3] == 7.0
    assert not gradnet.DenseNet(dims, net.activations).flat.any()
    with pytest.raises(ShapeError):
        gradnet.DenseNet(dims, net.activations, storage)


def test_use_views_other_storage_without_a_copy():
    net = small_net(seed=2)
    x = np.array([[0.3, -0.2, 0.9]])
    before = forward(net, x).tobytes()
    storage = np.zeros(net.flat.size + 2)
    storage[1:-1] = net.flat
    net.use(storage[1:-1])
    assert net.flat.base is storage and forward(net, x).tobytes() == before
    storage[1:-1] = 0.0  # every weight and bias now reads the storage
    assert not any(a.any() for a in (*net.weights, *net.biases, *net.parameters()))
    with pytest.raises(ShapeError, match="does not hold"):
        net.use(storage)
    # a policy head points its own net at the front of its vector, log_std last
    actor = LinearActor("pid_act", [0.5, 0.25, 1e-5, 0.0], bias=0.1)
    head_net, vec = actor.net, np.arange(6.0)
    actor.use(vec)
    assert actor.net is head_net and head_net.flat.base is vec and actor.log_std_arr.base is vec
    assert actor.coefs() == [0.0, 1.0 / 8.0, 2.0 / 4096.0, 3.0, 4.0] and actor.log_std_arr[0] == 5.0
    with pytest.raises(ShapeError, match="does not hold"):
        actor.use(np.zeros(5))


def test_writes_through_parameters_change_forward():
    net = small_net(seed=3)
    x = np.array([[0.3, -0.2, 0.9]])
    before = forward(net, x)
    net.parameters()[-1][0] += 0.5  # output bias
    after = forward(net, x)
    assert after[0, 0] == pytest.approx(before[0, 0] + 0.5, abs=1e-12)
    assert after[0, 1] == before[0, 1]
    net.flat[:] = 0.0
    zero = forward(net, x)
    assert np.array_equal(zero, np.zeros((1, 2)))


def test_backward_flat_is_laid_out_like_the_parameters():
    net = small_net(seed=5)
    x = np.random.default_rng(4).normal(size=(3, 3))
    grads = np.full_like(net.flat, np.nan)
    tape = gradnet.buffer_tape(net, 3, grads)
    forward(net, x, tape)
    hidden = tape.acts[1].copy()  # backward overwrites it with tanh'
    backward(tape, np.ones((3, 2)))
    w0, b0, w1, b1 = net.unflatten(grads)
    assert all(np.isfinite(g).all() for g in (w0, b0))
    # output layer is identity: dL/db1 = sum over the batch of ones, dL/dW1 = sum of hidden outputs
    assert b1.tolist() == [3.0, 3.0]
    assert np.allclose(w1, np.tile(hidden.sum(axis=0), (2, 1)), rtol=1e-12, atol=0.0)


# --- bit identity with the tape-and-multiply pass it replaced ---------------------

def buffered_difference(net, reference, x, probe, tape, grads):
    """first_difference of one forward and backward of net on tape, whose
    gradient buffer is grads, against oracles.dense_forward/dense_backward
    of reference, as float.hex strings, so that a zero of the other sign
    differs too; None where every byte matches."""
    out = forward(net, x, tape).copy()  # backward overwrites a tanh output
    backward(tape, probe)
    want_out, want_tape = oracles.dense_forward(reference, x)
    want_grads = oracles.dense_backward(reference, want_tape, probe)

    def record(out, grads):
        return [out.shape, *([v.hex() for v in a.ravel().tolist()] for a in (out, grads))]

    return oracles.first_difference(record(out, grads), record(want_out, want_grads))


def reference_case(in_dim, hidden, out_dim, acts, seed):
    """(net, x, probe): a net with a nonzero output bias, and 64 rows of inputs and output gradients."""
    dims = [in_dim, *hidden, out_dim]
    net = init_dense(dims, acts[: len(dims) - 1], Xoshiro256StarStar(seed))
    rng = np.random.default_rng(seed)
    net.flat[net.flat.size - out_dim:] = rng.normal(size=out_dim)
    return net, rng.normal(size=(64, in_dim)) * 2.0, rng.normal(size=(64, out_dim))


@pytest.mark.scalar_loops
@settings(max_examples=80, deadline=None)
@given(
    in_dim=st.integers(1, 6),
    hidden=st.lists(st.integers(1, 64), min_size=0, max_size=2),
    out_dim=st.integers(1, 3),
    acts=st.lists(st.sampled_from(ACTIVATIONS), min_size=3, max_size=3),
    tail=st.sampled_from([1, 46]),
    seed=st.integers(0, 2**16),
)
def test_forward_backward_match_the_reference_bit_for_bit(in_dim, hidden, out_dim, acts, tail, seed):
    """The buffered pass, on a 64-row tape and on a head(tail) of it, as ppo_step runs it on a
    minibatch and on an update's last, shorter one."""
    net, x, probe = reference_case(in_dim, hidden, out_dim, acts, seed)
    grads = np.full_like(net.flat, np.nan)
    full = gradnet.buffer_tape(net, 64, grads)
    for tape, rows in ((full, 64), (full.head(tail), tail)):
        assert buffered_difference(net, net, x[:rows], probe[:rows], tape, grads) is None
        # a zero gradient row: through a one-output layer its products with
        # negative weights are -0.0, which g @ W's 0 + g*W turns into +0.0
        zeroed = probe[:rows].copy()
        zeroed[0] = 0.0
        assert buffered_difference(net, net, x[:rows], zeroed, tape, grads) is None


@pytest.mark.scalar_loops
@pytest.mark.parametrize("layer", [0, 1, 2])
def test_buffered_pin_rejects_a_one_ulp_weight_nudge(layer):
    """The pin above fails when the reference's net differs from ours by one ulp in one weight."""
    net, x, probe = reference_case(4, [64, 64], 1, ["tanh", "tanh", "identity"], seed=5)
    nudged = gradnet.DenseNet([w.shape for w in net.weights], net.activations, net.flat.copy())
    w = nudged.weights[layer]
    w[0, 0] = np.nextafter(w[0, 0], math.inf)
    grads = np.empty_like(net.flat)
    full = gradnet.buffer_tape(net, 64, grads)
    assert buffered_difference(net, net, x, probe, full, grads) is None
    for tape, rows in ((full, 64), (full.head(46), 46)):
        assert buffered_difference(net, nudged, x[:rows], probe[:rows], tape, grads) is not None


@pytest.mark.scalar_loops
def test_one_output_product_is_the_elementwise_sum_bit_for_bit():
    """g @ W of inner dimension 1 is 0 + g*W per element, as backward computes it: -0.0 products become +0.0.

    Every later sum in backward starts from +0.0, so the sign of such a zero
    never reaches a gradient; this pins the product itself.
    """
    g = np.array([[0.0], [-0.0], [1.5], [-2.0], [1e-200]])
    weight = np.array([[-1.0, 2.0, -0.0, 0.0, 1e-200, -3.0]])
    product = g * weight
    assert product.tobytes() != (g @ weight).tobytes()  # bare products keep their -0.0
    product += 0.0
    assert product.tobytes() == (g @ weight).tobytes()


# --- flat Adam against the per-array reference ------------------------------------

def reference_adam(m, v, step, params, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-array Adam loop the flat optimizer replaced, kept as a reference."""
    step += 1
    bc1 = 1.0 - beta1 ** step
    bc2 = 1.0 - beta2 ** step
    for p, g, mi, vi in zip(params, grads, m, v):
        mi *= beta1
        mi += (1.0 - beta1) * g
        vi *= beta2
        vi += (1.0 - beta2) * (g * g)
        p -= lr * (mi / bc1) / (np.sqrt(vi / bc2) + eps)
    return step


array_shapes = st.lists(
    st.one_of(
        st.tuples(st.integers(1, 7)),
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(shapes=array_shapes, steps=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       lr=st.sampled_from([1e-4, 1e-2, 0.3]))
def test_flat_optimizers_equal_per_array_reference(shapes, steps, seed, lr):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4) for shape in shapes]
    flat = np.concatenate([a.ravel() for a in arrays])
    ref = [a.copy() for a in arrays]
    adam = fresh_adam(flat, lr)
    m = [np.zeros(shape) for shape in shapes]
    v = [np.zeros(shape) for shape in shapes]
    ref_step = 0
    for _ in range(steps):
        grads = [rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6) for shape in shapes]
        flat_grads = np.concatenate([g.ravel() for g in grads])
        adam_step(adam, flat, flat_grads, oracles.scratch(flat))
        ref_step = reference_adam(m, v, ref_step, ref, grads, lr)
    assert adam.step == ref_step == steps
    assert flat.tobytes() == np.concatenate([p.ravel() for p in ref]).tobytes()
    assert adam.m.tobytes() == np.concatenate([a.ravel() for a in m]).tobytes()
    assert adam.v.tobytes() == np.concatenate([a.ravel() for a in v]).tobytes()


def test_adam_rejects_bad_gradients_without_moving():
    params = np.array([1.0, 2.0, 3.0])
    opt = fresh_adam(params, 0.1)
    with pytest.raises(DivergenceError) as info:
        adam_step(opt, params, np.array([0.0, np.nan, np.inf]), oracles.scratch(params))
    assert info.value.diagnostics == {"coordinate": 1}
    with pytest.raises(ShapeError):
        adam_step(opt, params, np.zeros(2), oracles.scratch(params))
    assert params.tolist() == [1.0, 2.0, 3.0] and opt.step == 0


def test_adam_dict_round_trip_keeps_per_array_lists():
    net = small_net(seed=1)
    opt = fresh_adam(net.flat, 0.01)
    rng = np.random.default_rng(8)
    for _ in range(3):
        adam_step(opt, net.flat, rng.normal(size=net.flat.shape), oracles.scratch(net.flat))
    data = adam_to_dict(opt, net.parameters())
    assert set(data) == {"kind", "lr", "beta1", "beta2", "eps", "step", "m", "v"}
    # one flat block per parameter array, as [W0, b0, W1, b1] of the net, written as one list each
    assert [block.shape for block in data["m"]] == [(15,), (5,), (10,), (2,)]
    assert [block.shape for block in data["v"]] == [(15,), (5,), (10,), (2,)]
    assert data["m"][0].tolist() == opt.m[:15].tolist() and data["v"][3].tolist() == opt.v[-2:].tolist()
    text = json.dumps(data, sort_keys=True, default=json_default)
    restored = adam_from_dict(json.loads(text), net.parameters())
    assert json.dumps(adam_to_dict(restored, net.parameters()), sort_keys=True, default=json_default) == text
    assert restored.m.tobytes() == opt.m.tobytes() and restored.v.tobytes() == opt.v.tobytes()
    with pytest.raises(CheckpointError):
        adam_from_dict(data, net.parameters()[:-1])
    with pytest.raises(CheckpointError):
        adam_from_dict(dict(data, kind="sgd"), net.parameters())
