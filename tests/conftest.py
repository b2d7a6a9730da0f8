"""Shared fixtures: tiny configurations, scene builders and checkers."""
import numpy as np
import pytest

import fcw.autodiff as ad
from fcw.model import HstanConfig, WindowSample, episode_graphs
from fcw.scenario import Episode, _contact_scan, _derive_kinematics, _states
from fcw.scene_graph import SceneFrame

import oracles


def tiny_config(**overrides) -> HstanConfig:
    """Smallest config that exercises every code path."""
    base = dict(
        d_h=8,
        k_heads=2,
        l_s=2,
        radius=30.0,
        gru_hidden=8,
        gru_layers=2,
        m_heads=2,
        t_obs=4,
        t_pred=3,
        decoder_hidden=(8,),
    )
    base.update(overrides)
    return HstanConfig(**base)


def random_frames(n_vehicles: int, n_frames: int, seed: int = 0, spread: float = 20.0):
    """Frames with random but kinematically plausible features."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-spread, spread, size=(n_vehicles, 2))
    vel = rng.uniform(-10, 10, size=(n_vehicles, 2))
    acc = rng.uniform(-2, 2, size=(n_vehicles, 2))
    dims = np.tile([4.5, 1.8], (n_vehicles, 1))
    frames = []
    for t in range(n_frames):
        p = pos + vel * (0.1 * t) + 0.5 * acc * (0.1 * t) ** 2
        v = vel + acc * (0.1 * t)
        frames.append(
            SceneFrame(timestamp=0.1 * t, vehicles=np.concatenate([p, v, acc, dims], axis=1))
        )
    return frames


def scene_frames(episode):
    """The episode's (F, N, 8) array as a list of one ``SceneFrame`` per frame."""
    return [SceneFrame(timestamp=t, vehicles=v) for t, v in zip(episode.times, episode.frames)]


def labelled_window(frames, config: HstanConfig):
    """Window of the first T frames, with the positions of the next T' as its target."""
    states = np.stack([f.vehicles for f in frames])
    graphs = episode_graphs(states, config.radius, config.t_obs)
    target = states[config.t_obs : config.t_obs + config.t_pred, :, 0:2]
    return WindowSample(graphs=graphs, start=0, t_obs=config.t_obs, target_abs=target)


def cv_episodes(n_episodes, n_vehicles=3, duration=6.0, dt=0.1, max_speed=15.0, seed=0):
    """Noiseless straight-line constant-velocity episodes (training sanity data)."""
    rng = np.random.default_rng(seed)
    episodes = []
    steps = int(round(duration / dt)) + 1
    times = np.arange(steps) * dt
    for eid in range(n_episodes):
        pos0 = rng.uniform(-40, 40, size=(n_vehicles, 2))
        vel = rng.uniform(-max_speed, max_speed, size=(n_vehicles, 2))
        pos = pos0[None, :, :] + vel[None, :, :] * times[:, None, None]
        v_arr, a_arr = _derive_kinematics(pos, dt)
        contact_idx = _contact_scan(pos)
        episodes.append(
            Episode(
                episode_id=eid,
                family="cv",
                dt=dt,
                frames=_states(pos, v_arr, a_arr),
                times=times,
                danger=contact_idx is not None,
                contact_time=contact_idx * dt if contact_idx is not None else None,
            )
        )
    return episodes


def n_scalars(store) -> int:
    """The number of parameter scalars in a ``ParameterStore``."""
    return sum(t.data.size for _, t in store.items())


def parameter(data) -> ad.Tensor:
    """A trainable leaf tensor outside any ``ParameterStore``."""
    return ad.Tensor(data, requires_grad=True)


def grad_check(f, params, h=1e-5, max_coords_per_param=10, rng=None):
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be a deterministic scalar-valued closure over ``params``,
    a ``ParameterStore`` that this marks trainable. A value that depends on
    no parameter has zero analytic gradients. Samples up to
    ``max_coords_per_param`` coordinates per parameter.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    rng = rng or np.random.default_rng(0)

    params.make_trainable()
    params.zero_grad()
    out = f()
    if not np.isfinite(out.item()):
        raise FloatingPointError("non-finite function value in grad_check")
    if out.requires_grad:
        out.backward()

    worst = 0.0
    for _, p in params.items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        n = flat.size
        if n <= max_coords_per_param:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            fp = f().item()
            flat[c] = orig - h
            fm = f().item()
            flat[c] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise FloatingPointError("non-finite function value in grad_check")
            numeric = (fp - fm) / (2.0 * h)
            a = analytic.reshape(-1)[c]
            err = abs(a - numeric) / max(1.0, abs(a))
            worst = max(worst, err)
    return worst


def assert_batches_equal(got, want):
    """Two ``PreparedBatch`` objects lay out the same rows, frame runs and
    offsets, array for array."""
    assert got.offsets == want.offsets
    assert np.array_equal(got.x, want.x) and got.x.dtype == want.x.dtype
    assert np.array_equal(got.last_pos, want.last_pos)
    assert [run[:2] for run in got.edges] == [run[:2] for run in want.edges]
    for (_, _, src, dst), (_, _, want_src, want_dst) in zip(got.edges, want.edges):
        assert np.array_equal(src, want_src) and np.array_equal(dst, want_dst)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def assert_matches_oracle(fused, unfused, store, seed=0, rtol=1e-12):
    """The fused op and its unfused oracle agree in value and in the
    gradient of every parameter in ``store``, to ``rtol`` relative to the
    largest magnitude. Both are zero-argument builders of the output tensor;
    the gradients come from a random linear read-out of that output, with
    ``store`` marked trainable."""
    store.make_trainable()
    outs, grads = [], []
    weight = None
    for build in (fused, unfused):
        store.zero_grad()
        out = build()
        if weight is None:
            weight = np.random.default_rng(seed).standard_normal(out.shape)
        outs.append(out.data.copy())
        oracles.sum_all(oracles.mul(out, ad.constant(weight))).backward()
        grads.append({path: None if t.grad is None else t.grad.copy() for path, t in store.items()})
    store.zero_grad()
    assert outs[0].shape == outs[1].shape
    assert np.abs(outs[0] - outs[1]).max() <= rtol * max(1.0, np.abs(outs[1]).max())
    for path in grads[1]:
        want = grads[1][path]
        got = grads[0][path]
        assert (got is None) == (want is None), path
        if want is not None:
            assert np.abs(got - want).max() <= rtol * max(1.0, np.abs(want).max()), path


def assert_same_bits(got, want, what=""):
    """Equal shapes, NaN in the same places, and every other entry equal bit
    for bit (signed zeros included)."""
    assert got.shape == want.shape, what
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan), what
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64)), what


def _value_and_grads(build, tensors, seed):
    for t in tensors:
        t.grad = None
    out = build()
    out.backward(seed)
    return out.data.copy(), [None if t.grad is None else t.grad.copy() for t in tensors]


def assert_bit_identical_runs(fused, reference, tensors, seed):
    """Two zero-argument builders of one node give the same output and, for
    the output gradient ``seed``, the same gradient of every tensor in
    ``tensors``, bit for bit."""
    got, want = _value_and_grads(fused, tensors, seed), _value_and_grads(reference, tensors, seed)
    assert_same_bits(got[0], want[0], "output")
    for i, (g, w) in enumerate(zip(got[1], want[1])):
        assert_same_bits(g, w, f"gradient of tensor {i}")


def assert_buffer_safe(build, x1, x2, params, rng):
    """``build(x)`` run on x1 and then x2, and backpropagated in reverse
    order, leaves every input and the first output as they were, and gives
    each input the gradient of its own single run; ``params``, shared by
    both runs, get the sum of the two single runs' gradients."""
    tensors = (x1, x2, *params)
    before = [t.data.copy() for t in tensors]
    singles = []
    for x in (x1, x2):
        out = build(x)
        seed = rng.standard_normal(out.shape)
        singles.append((seed, *_value_and_grads(lambda: build(x), tensors, seed)))
    for t in tensors:
        t.grad = None
    out1, out2 = build(x1), build(x2)
    first = out1.data.copy()
    assert_same_bits(first, singles[0][1], "first output")
    out2.backward(singles[1][0])
    out1.backward(singles[0][0])
    assert_same_bits(out1.data, first, "first output after the second run")
    assert_same_bits(out2.data, singles[1][1], "second output")
    for t, data in zip(tensors, before):
        assert_same_bits(t.data, data, "input")
    assert_same_bits(x1.grad, singles[0][2][0], "first input's gradient")
    assert_same_bits(x2.grad, singles[1][2][1], "second input's gradient")
    for i, p in enumerate(params, start=2):
        assert_same_bits(p.grad, singles[1][2][i] + singles[0][2][i], f"gradient of parameter {i - 2}")
