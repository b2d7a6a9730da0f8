"""Shared fixtures: tiny configurations and scene builders."""
import numpy as np
import pytest

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
