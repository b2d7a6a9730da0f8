"""Shared fixtures: tiny configurations and scene builders."""
import numpy as np
import pytest

import fcw.autodiff as ad
from fcw.model import HstanConfig, window_from_states
from fcw.scene_graph import SceneFrame


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
    """Window of the first T frames, with the positions of the rest as its target."""
    states = np.stack([f.vehicles for f in frames])
    return window_from_states(states[: config.t_obs], config, future_pos=states[config.t_obs :, :, 0:2])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def assert_matches_oracle(fused, unfused, store, seed=0, rtol=1e-12):
    """The fused op and its unfused oracle agree in value and in the
    gradient of every parameter in ``store``, to ``rtol`` relative to the
    largest magnitude. Both are zero-argument builders of the output tensor;
    the gradients come from a random linear read-out of that output."""
    outs, grads = [], []
    weight = None
    for build in (fused, unfused):
        store.zero_grad()
        out = build()
        if weight is None:
            weight = np.random.default_rng(seed).standard_normal(out.shape)
        outs.append(out.data.copy())
        ad.sum_all(ad.mul(out, ad.constant(weight))).backward()
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
