"""Optimizer, schedule, gradient checker, checkpoint container."""
import numpy as np
import pytest

import fcw.autodiff as ad
import fcw.model as md
from fcw.checkpoint import load_checkpoint, save_checkpoint
from fcw.optim import (
    LRSchedule,
    OptimizerState,
    ParameterStore,
    adam_step,
    cosine_lr,
)

from conftest import grad_check, n_scalars, tiny_config

import oracles


def test_store_rejects_duplicate_paths():
    store = ParameterStore()
    store.add("w", [[1.0]])
    with pytest.raises(ValueError, match="duplicate"):
        store.add("w", [[2.0]])


def test_store_counts_scalars():
    store = ParameterStore()
    store.add("a", np.zeros((2, 3)))
    store.add("b", np.zeros((1, 4)))
    assert n_scalars(store) == 10


def test_adam_zero_gradient_is_noop():
    store = ParameterStore()
    p = store.add("p", [[1.0, -2.0]])
    before = p.data.copy()
    adam_step(store, OptimizerState(), lr=0.1)
    assert np.array_equal(p.data, before)


def test_adam_first_step_close_to_lr():
    # independent oracle: m=0.1g, v=0.001g^2, bias correction makes
    # mhat=g, vhat=g^2, so the first update is lr*g/(|g|+eps) = lr*sign(g)
    store = ParameterStore()
    p = store.add("p", [[0.0]])
    p.grad = np.array([[1.0]])
    adam_step(store, OptimizerState(), lr=1e-3)
    expected = -1e-3 * 1.0 / (1.0 + 1e-8)
    assert abs(p.data[0, 0] - expected) < 1e-12


def test_adam_identical_params_identical_updates():
    store = ParameterStore()
    a = store.add("a", [[0.5]])
    b = store.add("b", [[0.5]])
    state = OptimizerState()
    for _ in range(5):
        a.grad = np.array([[0.3]])
        b.grad = np.array([[0.3]])
        adam_step(store, state, lr=0.01)
    assert np.array_equal(a.data, b.data)


def test_adam_matches_reference_sequence():
    # oracle: straight transcription of the Adam update in plain numpy
    rng = np.random.default_rng(0)
    grads = [rng.standard_normal((2, 2)) for _ in range(7)]
    store = ParameterStore()
    p = store.add("p", np.zeros((2, 2)))
    state = OptimizerState()

    theta = np.zeros((2, 2))
    m = np.zeros((2, 2))
    v = np.zeros((2, 2))
    for t, g in enumerate(grads, start=1):
        p.grad = g.copy()
        adam_step(store, state, lr=0.01)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9**t)
        vhat = v / (1 - 0.999**t)
        theta = theta - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
    assert np.allclose(p.data, theta, atol=1e-14)


def test_cosine_endpoints_and_midpoint():
    sched = LRSchedule(base_rate=1e-3, min_rate=0.0, total_epochs=100)
    assert cosine_lr(0, sched) == pytest.approx(1e-3)
    assert cosine_lr(100, sched) == pytest.approx(0.0, abs=1e-18)
    assert cosine_lr(50, sched) == pytest.approx(5e-4)


def test_cosine_monotone_nonincreasing():
    sched = LRSchedule(base_rate=3e-3, min_rate=1e-5, total_epochs=37)
    rates = [cosine_lr(e, sched) for e in range(38)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert all(sched.min_rate <= r <= sched.base_rate for r in rates)


def test_cosine_epoch_out_of_range():
    with pytest.raises(ValueError):
        cosine_lr(11, LRSchedule(total_epochs=10))


def test_grad_check_quadratic():
    store = ParameterStore()
    p = store.add("p", [[1.0, 2.0]])
    err = grad_check(lambda: oracles.sum_all(oracles.square(p)), store)
    assert err < 1e-7


def test_grad_check_constant_function():
    store = ParameterStore()
    store.add("p", [[1.0]])
    err = grad_check(lambda: ad.constant([[2.0]]), store)
    assert err == 0.0


def test_grad_check_flags_nonfinite():
    store = ParameterStore()
    p = store.add("p", [[0.0]])
    with pytest.raises(FloatingPointError):
        grad_check(lambda: oracles.scale(p, np.inf), store)


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(9)
    store = ParameterStore()
    store.add("layer/w", rng.standard_normal((3, 4)))
    store.add("layer/b", rng.standard_normal((1, 4)))
    config = {"d_h": 8, "alpha": 0.1}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, config)
    loaded, cfg = load_checkpoint(path)
    assert cfg == config
    assert sorted(loaded.paths()) == sorted(store.paths())
    for p in store.paths():
        assert np.array_equal(loaded[p].data, store[p].data)

    # saving identical content twice must be byte-identical
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(path2, store, config)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
        load_checkpoint(path)


def reference_adam(theta, grads, lr, steps):
    """Per-tensor Adam in plain numpy over dicts of arrays: the update
    sequence the flat optimiser must reproduce bit for bit."""
    theta = {k: v.copy() for k, v in theta.items()}
    m = {k: np.zeros_like(v) for k, v in theta.items()}
    v = {k: np.zeros_like(x) for k, x in theta.items()}
    for t in range(1, steps + 1):
        for k in theta:
            g = grads[t - 1][k]
            m[k] *= 0.9
            m[k] += (1.0 - 0.9) * g
            v[k] *= 0.999
            v[k] += (1.0 - 0.999) * g * g
            mhat = m[k] / (1.0 - 0.9**t)
            vhat = v[k] / (1.0 - 0.999**t)
            theta[k] -= lr * mhat / (np.sqrt(vhat) + 1e-8)
    return theta


def run_flat_adam(store, grads, lr):
    state = OptimizerState()
    for step in grads:
        store.zero_grad()
        for path, t in store.items():
            if path in step:  # as backward writes
                t._accumulate(step[path])
        adam_step(store, state, lr)


def random_grads(store, steps, seed):
    rng = np.random.default_rng(seed)
    return [{p: rng.standard_normal(t.shape) for p, t in store.items()} for _ in range(steps)]


def test_flat_adam_is_bit_identical_to_per_tensor_adam(tmp_path):
    cfg = tiny_config()
    model = md.init_model(cfg, seed=0)
    store = model.params
    start = {p: t.data.copy() for p, t in store.items()}
    grads = random_grads(store, 4, seed=1)
    grads[1].pop("embed/w")  # a missing gradient counts as zero
    run_flat_adam(store, grads, lr=0.01)
    want = reference_adam(start, [{p: g.get(p, np.zeros_like(start[p])) for p in start} for g in grads], 0.01, 4)
    flat = store.flat()
    for path, t in store.items():
        assert np.array_equal(t.data, want[path]), path
        assert np.shares_memory(t.data, flat)
    # a checkpoint load rebuilds the model by rebinding each tensor's data
    save_checkpoint(tmp_path / "m.ckpt", store, cfg.to_dict())
    loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
    rebuilt = md.rebuild_model(cfg, loaded)
    grads = random_grads(rebuilt.params, 3, seed=2)
    run_flat_adam(rebuilt.params, grads, lr=0.003)
    want = reference_adam(want, grads, 0.003, 3)
    for path, t in rebuilt.params.items():
        assert np.array_equal(t.data, want[path]), path


def test_adam_follows_a_rebound_parameter():
    store = ParameterStore()
    a = store.add("a", [[1.0, 2.0]])
    b = store.add("b", [[3.0]])
    state = OptimizerState()
    store.zero_grad()
    a.data = np.array([[5.0, 6.0]])  # detached from the packed vector
    a.grad = np.array([[1.0, -1.0]])  # assigned, not accumulated
    adam_step(store, state, lr=0.5)
    step = 0.5 / (1.0 + 1e-8)
    assert np.array_equal(a.data, [[5.0 - step, 6.0 + step]])
    assert np.array_equal(b.data, [[3.0]])
    assert np.array_equal(store.flat(), [5.0 - step, 6.0 + step, 3.0])
    assert np.shares_memory(a.data, store.flat())
    store.add("c", [[0.0]])
    with pytest.raises(ValueError, match="moments"):
        adam_step(store, state, lr=0.5)
