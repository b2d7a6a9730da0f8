"""Synthetic traffic episodes: six scenario families, car-following dynamics,
collision ground truth, the constant-velocity baseline, and dataset files.

Vehicle index 0 is the ego (at-risk) vehicle by convention. Positions are
generated first; velocities and accelerations are derived from forward
differences of the (optionally noised) positions, mimicking tracker output,
so finite-difference consistency holds by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import HstanConfig, WindowSample, window_from_states
from .scene_graph import FEATURE_DIM, check_vehicle_states, frame_edge_lists

FAMILIES = (
    "highway_merging",
    "urban_intersection",
    "sudden_braking",
    "cut_in",
    "congested_traffic",
    "curved_road",
)

CONTACT_THRESHOLD = 2.0  # meters, center distance
VEHICLE_LENGTH = 4.5
VEHICLE_WIDTH = 1.8


@dataclass
class IDMParams:
    v0: float = 22.0  # desired speed (m/s)
    t_headway: float = 1.2
    a: float = 1.8  # max acceleration
    b: float = 2.5  # comfortable braking
    delta: float = 4.0
    s0: float = 2.0  # minimum spacing


def idm_acceleration(v: float, v_lead: float, gap: float, p: IDMParams) -> float:
    gap = max(gap, 0.1)
    s_star = p.s0 + v * p.t_headway + v * (v - v_lead) / (2.0 * math.sqrt(p.a * p.b))
    s_star = max(s_star, 0.0)
    return p.a * (1.0 - (v / p.v0) ** p.delta - (s_star / gap) ** 2)


@dataclass
class ScenarioSpec:
    family: str
    n_vehicles: int = 0  # 0 = family default
    duration: float = 8.0
    dt: float = 0.1
    noise: float = 0.0
    seed: int = 0
    curvature: float = 0.008  # used by curved_road only
    # Optional per-family overrides; None draws from the seeded jitter.
    lead_speed: float | None = None
    gap: float | None = None
    brake_time: float | None = None
    brake_decel: float = -6.0
    attentive: bool | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown scenario family: {self.family}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        steps = self.duration / self.dt
        if abs(steps - round(steps)) > 1e-6:
            raise ValueError("duration must be a multiple of dt")
        if self.noise < 0:
            raise ValueError("noise must be nonnegative")


@dataclass
class Episode:
    """One episode as one array, validated once when built: ``frames[t, i]``
    holds vehicle i's 8 features at ``times[t]``."""

    episode_id: int
    family: str
    dt: float
    frames: np.ndarray  # (F, N, 8) vehicle states
    times: np.ndarray  # (F,) timestamps
    danger: bool
    contact_time: float | None
    curvature: float = 0.0

    def __post_init__(self):
        self.frames = check_vehicle_states(self.frames, 3)
        self.times = np.asarray(self.times, dtype=np.float64)
        if self.times.shape != self.frames.shape[:1] or not np.isfinite(self.times).all():
            raise ValueError(f"episode {self.episode_id}: needs one finite timestamp per frame")

    @property
    def n(self) -> int:
        return self.frames.shape[1]


# ---------------------------------------------------------------------------
# Family generators: each returns true positions (F, N, 2)
# ---------------------------------------------------------------------------


def _smoothstep(u: np.ndarray) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def _integrate_speed(speed: np.ndarray, x0: float, dt: float) -> np.ndarray:
    """Forward-Euler positions from a per-tick speed profile."""
    x = np.empty_like(speed)
    x[0] = x0
    for t in range(1, len(speed)):
        x[t] = x[t - 1] + speed[t - 1] * dt
    return x


def _braking_speed(n_steps: int, dt: float, v: float, t_brake: float, decel: float) -> np.ndarray:
    times = np.arange(n_steps) * dt
    speed = np.full(n_steps, v)
    braking = times >= t_brake
    speed[braking] = np.maximum(0.0, v + decel * (times[braking] - t_brake))
    return speed


def _gen_sudden_braking(spec: ScenarioSpec, rng: np.random.Generator) -> np.ndarray:
    """Braking shockwave: the front vehicle brakes, each follower reacts 1.2 s
    after its predecessor. Vehicle 0 is the rearmost (ego)."""
    steps = int(round(spec.duration / spec.dt)) + 1
    n = max(spec.n_vehicles or 2, 2)
    v = spec.lead_speed if spec.lead_speed is not None else 20.0 + rng.uniform(-2, 2)
    t_brake = spec.brake_time if spec.brake_time is not None else 2.0 + rng.uniform(0, 2)
    attentive = spec.attentive if spec.attentive is not None else bool(rng.random() < 0.5)

    # reaction delay exceeds the prediction horizon, so a follower's brake
    # onset is only foreseeable through its predecessor's state
    pos = np.zeros((steps, n, 2))
    x0 = 0.0
    for i in range(n):  # i = 0 rearmost ego ... n-1 front lead
        hops = (n - 1) - i  # reaction hops from the front vehicle
        if i == n - 1:
            speed = _braking_speed(steps, spec.dt, v, t_brake, spec.brake_decel)
        elif attentive:
            speed = _braking_speed(steps, spec.dt, v, t_brake + 1.2 * hops, spec.brake_decel)
        else:
            speed = np.full(steps, v)
        if i > 0:
            gap = spec.gap if spec.gap is not None else 22.0 + rng.uniform(0, 8)
            x0 += gap
        pos[:, i, 0] = _integrate_speed(speed, x0, spec.dt)
    return pos


def _gen_cut_in(spec: ScenarioSpec, rng: np.random.Generator) -> np.ndarray:
    steps = int(round(spec.duration / spec.dt)) + 1
    times = np.arange(steps) * spec.dt
    v_ego = 20.0 + rng.uniform(-1, 1)
    ahead = 10.0 + rng.uniform(0, 8)
    v_cut = v_ego - (2.0 + rng.uniform(0, 4))
    t_cut = 1.0 + rng.uniform(0, 1)
    recovers = bool(rng.random() < 0.5)  # cutter matches ego speed after merging

    n = max(spec.n_vehicles or 2, 2)
    pos = np.zeros((steps, n, 2))
    if recovers:
        t_rec = t_cut + 2.5
        cut_speed = np.where(times < t_rec, v_cut, np.minimum(v_ego, v_cut + 2.0 * (times - t_rec)))
    else:
        cut_speed = np.full(steps, v_cut)
    # ego brakes down to the cutter's speed once the cutter crosses into the
    # lane (half-lane point of the smoothstep) plus a reaction delay
    t_react = t_cut + 1.25 + 0.6
    ego_speed = np.where(
        times < t_react, v_ego, np.maximum(v_cut, v_ego - 3.0 * (times - t_react))
    )
    pos[:, 0, 0] = _integrate_speed(ego_speed, 0.0, spec.dt)
    pos[:, 1, 0] = _integrate_speed(cut_speed, ahead, spec.dt)
    pos[:, 1, 1] = 3.5 * (1.0 - _smoothstep((times - t_cut) / 2.5))
    # optional trailing vehicles react to the car ahead with 1.2 s extra delay
    back = 0.0
    for i in range(2, n):
        back -= 18.0 + rng.uniform(0, 6)
        t_i = t_react + 1.2 * (i - 1)
        speed_i = np.where(times < t_i, v_ego, np.maximum(v_cut, v_ego - 3.0 * (times - t_i)))
        pos[:, i, 0] = _integrate_speed(speed_i, back, spec.dt)
    return pos


def _gen_highway_merging(spec: ScenarioSpec, rng: np.random.Generator) -> np.ndarray:
    steps = int(round(spec.duration / spec.dt)) + 1
    times = np.arange(steps) * spec.dt
    v = 24.0 + rng.uniform(-2, 2)
    n = spec.n_vehicles or 3
    n = max(n, 3)
    pos = np.zeros((steps, n, 2))
    # ego follows in the main lane; leader ahead; merger slides in between
    pos[:, 0, 0] = v * times
    pos[:, 1, 0] = v * times + 45.0 + rng.uniform(0, 10)
    t_merge = 1.0 + rng.uniform(0, 1)
    v_merge = v - (1.0 + rng.uniform(0, 4))
    ahead = 8.0 + rng.uniform(0, 10)
    pos[:, 2, 0] = _integrate_speed(np.full(steps, v_merge), ahead, spec.dt)
    pos[:, 2, 1] = -3.5 * (1.0 - _smoothstep((times - t_merge) / 3.0))
    for extra in range(3, n):
        pos[:, extra, 0] = v * times - 30.0 * (extra - 2)
    return pos


def _gen_urban_intersection(spec: ScenarioSpec, rng: np.random.Generator) -> np.ndarray:
    steps = int(round(spec.duration / spec.dt)) + 1
    times = np.arange(steps) * spec.dt
    v_a = 12.0 + rng.uniform(-2, 2)
    v_b = 12.0 + rng.uniform(-2, 2)
    d = 40.0 + rng.uniform(0, 10)
    offset = rng.uniform(-1.5, 1.5)  # timing offset decides near miss vs contact
    pos = np.zeros((steps, 2, 2))
    pos[:, 0, 0] = -d + v_a * times
    pos[:, 1, 0] = 0.0
    pos[:, 1, 1] = -d + v_b * (times + offset)
    return pos


def _gen_congested_traffic(spec: ScenarioSpec, rng: np.random.Generator) -> np.ndarray:
    steps = int(round(spec.duration / spec.dt)) + 1
    times = np.arange(steps) * spec.dt
    n = spec.n_vehicles or 4
    n = max(n, 2)
    v0 = 8.0 + rng.uniform(-1, 1)
    period = 6.0 + rng.uniform(0, 2)
    spacing = 12.0 + rng.uniform(0, 4)
    # stop-and-go wave driven by the front vehicle (index n-1)
    lead_speed = np.maximum(0.0, v0 * (0.5 + 0.5 * np.sin(2 * np.pi * times / period - np.pi / 2)))
    pos = np.zeros((steps, n, 2))
    pos[:, n - 1, 0] = _integrate_speed(lead_speed, spacing * (n - 1), spec.dt)
    idm = IDMParams(v0=v0 + 2.0)
    x = np.array([spacing * i for i in range(n - 1)], dtype=np.float64)
    vel = np.full(n - 1, lead_speed[0])
    pos[0, : n - 1, 0] = x
    for t in range(1, steps):
        lead_x = np.concatenate([x[1:], [pos[t - 1, n - 1, 0]]])
        lead_v = np.concatenate([vel[1:], [lead_speed[t - 1]]])
        for i in range(n - 1):
            acc = idm_acceleration(vel[i], lead_v[i], lead_x[i] - x[i] - VEHICLE_LENGTH, idm)
            x[i] += vel[i] * spec.dt
            vel[i] = max(0.0, vel[i] + acc * spec.dt)
        pos[t, : n - 1, 0] = x
    return pos


def _gen_curved_road(spec: ScenarioSpec, rng: np.random.Generator) -> np.ndarray:
    steps = int(round(spec.duration / spec.dt)) + 1
    times = np.arange(steps) * spec.dt
    n = spec.n_vehicles or 3
    n = max(n, 2)
    radius = 1.0 / spec.curvature
    v = 15.0 + rng.uniform(-2, 2)
    spacing = 20.0 + rng.uniform(0, 5)
    pos = np.zeros((steps, n, 2))
    for i in range(n):
        theta = (i * spacing + v * times) / radius
        pos[:, i, 0] = radius * np.sin(theta)
        pos[:, i, 1] = radius * (1.0 - np.cos(theta))
    return pos


_GENERATORS = {
    "sudden_braking": _gen_sudden_braking,
    "cut_in": _gen_cut_in,
    "highway_merging": _gen_highway_merging,
    "urban_intersection": _gen_urban_intersection,
    "congested_traffic": _gen_congested_traffic,
    "curved_road": _gen_curved_road,
}


def _contact_scan(pos: np.ndarray) -> int | None:
    """First frame index where any vehicle pair is below the contact threshold."""
    steps, n, _ = pos.shape
    if n < 2:
        return None
    for t in range(steps):
        diff = pos[t, :, None, :] - pos[t, None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        dist[np.diag_indices(n)] = np.inf
        if (dist < CONTACT_THRESHOLD).any():
            return t
    return None


def _derive_kinematics(pos: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Forward-difference velocity and acceleration; final entries repeat."""
    vel = np.empty_like(pos)
    vel[:-1] = (pos[1:] - pos[:-1]) / dt
    vel[-1] = vel[-2]
    acc = np.empty_like(pos)
    acc[:-1] = (vel[1:] - vel[:-1]) / dt
    acc[-1] = acc[-2]
    return vel, acc


def _states(pos: np.ndarray, vel: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """(F, N, 8) vehicle states from (F, N, 2) kinematics and the standard size."""
    dims = np.broadcast_to([VEHICLE_LENGTH, VEHICLE_WIDTH], pos.shape)
    return np.concatenate([pos, vel, acc, dims], axis=2)


def gen_scenario(spec: ScenarioSpec, episode_id: int = 0) -> Episode:
    rng = np.random.default_rng(spec.seed)
    true_pos = _GENERATORS[spec.family](spec, rng)

    contact_idx = _contact_scan(true_pos)
    if contact_idx == 0:
        raise ValueError(f"infeasible spec: vehicles overlap at t=0 ({spec})")
    danger = contact_idx is not None
    contact_time = contact_idx * spec.dt if danger else None

    obs_pos = true_pos
    if spec.noise > 0:
        obs_pos = true_pos + rng.normal(0.0, spec.noise, size=true_pos.shape)
    vel, acc = _derive_kinematics(obs_pos, spec.dt)

    curvature = spec.curvature if spec.family == "curved_road" else 0.0
    return Episode(
        episode_id=episode_id,
        family=spec.family,
        dt=spec.dt,
        frames=_states(obs_pos, vel, acc),
        times=np.arange(len(true_pos)) * spec.dt,
        danger=danger,
        contact_time=contact_time,
        curvature=curvature,
    )


def cv_baseline(pos: np.ndarray, vel: np.ndarray, t_pred: int, dt: float) -> np.ndarray:
    """Constant-velocity extrapolation of (N, 2) positions and velocities: (N, T', 2)."""
    ks = np.arange(1, t_pred + 1)[:, None, None] * dt
    return (pos[None, :, :] + vel[None, :, :] * ks).transpose(1, 0, 2)


# ---------------------------------------------------------------------------
# Windowed dataset with episode-level splits
# ---------------------------------------------------------------------------


@dataclass
class DatasetSplits:
    train: list[WindowSample] = field(default_factory=list)
    cal: list[WindowSample] = field(default_factory=list)
    test: list[WindowSample] = field(default_factory=list)
    train_episodes: list[Episode] = field(default_factory=list)
    cal_episodes: list[Episode] = field(default_factory=list)
    test_episodes: list[Episode] = field(default_factory=list)


def episode_windows(episode: Episode, config: HstanConfig, stride: int = 1) -> list[WindowSample]:
    """Sliding windows of one episode; every frame's radius graph is built
    once, in one stacked call, and each window takes its slice."""
    states = episode.frames
    span = config.t_obs + config.t_pred
    if len(states) < span:
        raise ValueError(f"episode {episode.episode_id} has {len(states)} frames, needs >= {span}")
    edges = frame_edge_lists(states[:, :, 0:2], config.radius)
    return [
        window_from_states(
            states[start : start + config.t_obs],
            config,
            future_pos=states[start + config.t_obs : start + span, :, 0:2],
            edges=edges[start : start + config.t_obs],
            episode_id=episode.episode_id,
            family=episode.family,
            start=start,
        )
        for start in range(0, len(states) - span + 1, stride)
    ]


def split_episodes(
    episodes: list[Episode], split_seed: int = 0
) -> tuple[list[Episode], list[Episode], list[Episode]]:
    """(train, cal, test) episode lists, 70/15/15 by episode, each in input order."""
    if not episodes:
        raise ValueError("no episodes")
    rng = np.random.default_rng(split_seed)
    order = rng.permutation(len(episodes))
    n = len(episodes)
    n_test = max(1, round(0.15 * n)) if n >= 3 else 0
    n_cal = max(1, round(0.15 * n)) if n >= 3 else 0
    test_ids = set(order[:n_test])
    cal_ids = set(order[n_test : n_test + n_cal])
    train = [ep for i, ep in enumerate(episodes) if i not in test_ids and i not in cal_ids]
    cal = [ep for i, ep in enumerate(episodes) if i in cal_ids]
    test = [ep for i, ep in enumerate(episodes) if i in test_ids]
    return train, cal, test


def dataset_windows(episodes: list[Episode], config: HstanConfig, stride: int = 1) -> list[WindowSample]:
    """Sliding windows of every episode, in episode order."""
    return [w for ep in episodes for w in episode_windows(ep, config, stride)]


def make_dataset(
    episodes: list[Episode],
    config: HstanConfig,
    split_seed: int = 0,
    stride: int = 1,
) -> DatasetSplits:
    """Sliding windows split by episode (never by window) into 70/15/15."""
    train, cal, test = split_episodes(episodes, split_seed)
    return DatasetSplits(
        train=dataset_windows(train, config, stride),
        cal=dataset_windows(cal, config, stride),
        test=dataset_windows(test, config, stride),
        train_episodes=train,
        cal_episodes=cal,
        test_episodes=test,
    )


# ---------------------------------------------------------------------------
# Plain-text dataset interchange
# ---------------------------------------------------------------------------

TRAJECTORY_HEADER = "episode_id,t,vehicle_id,x,y,vx,vy,ax,ay,length,width"
LABELS_HEADER = "episode_id,danger,contact_time,family,dt,curvature"


def save_dataset(traj_path: str | Path, labels_path: str | Path, episodes: list[Episode]) -> None:
    lines = [TRAJECTORY_HEADER]
    for ep in episodes:
        for t, states in zip(ep.times.tolist(), ep.frames.tolist()):
            for vid, row in enumerate(states):
                lines.append(f"{ep.episode_id},{t!r},{vid}," + ",".join(map(repr, row)))
    Path(traj_path).write_text("\n".join(lines) + "\n")

    lab = [LABELS_HEADER]
    for ep in episodes:
        ct = "" if ep.contact_time is None else repr(float(ep.contact_time))
        lab.append(
            f"{ep.episode_id},{int(ep.danger)},{ct},{ep.family},{ep.dt!r},{ep.curvature!r}"
        )
    Path(labels_path).write_text("\n".join(lab) + "\n")


def _load_labels(labels_path: str | Path) -> dict[int, dict]:
    meta: dict[int, dict] = {}
    lab_lines = Path(labels_path).read_text().strip().split("\n")
    if lab_lines[0] != LABELS_HEADER:
        raise ValueError(f"{labels_path}: unexpected header {lab_lines[0]!r}")
    for lineno, line in enumerate(lab_lines[1:], 2):
        try:
            eid, danger, ct, family, dt, curvature = line.split(",")
            if int(eid) in meta:
                raise ValueError(f"second label row for episode {eid}")
            meta[int(eid)] = dict(
                danger=bool(int(danger)),
                contact_time=float(ct) if ct else None,
                family=family,
                dt=float(dt),
                curvature=float(curvature),
            )
        except ValueError as exc:
            raise ValueError(f"{labels_path}:{lineno}: {exc}") from None
    return meta


def load_dataset(traj_path: str | Path, labels_path: str | Path) -> list[Episode]:
    """Episodes from the two dataset files, in episode-id order.

    The trajectory rows are parsed in one pass into a (rows, 11) table,
    sorted by (episode, t, vehicle), and cut into one (F, N, 8) array per
    episode. Malformed rows, non-integer ids, duplicate rows, a vehicle set
    that changes between frames, an episode with no label row and invalid
    vehicle states each raise ``ValueError`` naming the file.
    """
    meta = _load_labels(labels_path)
    traj_lines = Path(traj_path).read_text().strip().split("\n")
    if traj_lines[0] != TRAJECTORY_HEADER:
        raise ValueError(f"{traj_path}: unexpected header {traj_lines[0]!r}")
    rows = [line.split(",") for line in traj_lines[1:]]
    if not rows:
        return []
    n_fields = 3 + FEATURE_DIM
    bad_line = next((i for i, row in enumerate(rows, 2) if len(row) != n_fields), None)
    if bad_line is not None:
        raise ValueError(f"{traj_path}:{bad_line}: expected {n_fields} fields")
    try:
        table = np.array(rows, dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"{traj_path}: malformed trajectory field ({exc})") from None
    if not np.isfinite(table[:, :3]).all() or (table[:, [0, 2]] % 1 != 0).any():
        raise ValueError(f"{traj_path}: episode ids, times and vehicle ids must be finite, ids integer")
    table = table[np.lexsort((table[:, 2], table[:, 1], table[:, 0]))]
    key = table[:, :3]
    dup = np.flatnonzero((key[1:] == key[:-1]).all(axis=1))
    if len(dup):
        eid, t, vid = key[dup[0]].tolist()
        raise ValueError(f"{traj_path}: duplicate row for episode {int(eid)}, t={t!r}, vehicle {int(vid)}")

    episodes = []
    bounds = np.flatnonzero(key[1:, 0] != key[:-1, 0]) + 1
    for block in np.split(table, bounds):
        eid = int(block[0, 0])
        n_frames = 1 + np.count_nonzero(block[1:, 1] != block[:-1, 1])
        # a fixed roster makes every frame one row of the grid, with one time
        # per row and the same vehicle ids in every row
        grid = block.reshape(n_frames, -1, n_fields) if len(block) % n_frames == 0 else None
        if grid is None or (grid[:, :, 1] != grid[:, :1, 1]).any() or (grid[:, :, 2] != grid[:1, :, 2]).any():
            raise ValueError(f"{traj_path}: episode {eid}: vehicle set changes between frames")
        if eid not in meta:
            raise ValueError(f"{labels_path}: no label row for episode {eid}")
        states, times = np.ascontiguousarray(grid[:, :, 3:]), grid[:, 0, 1].copy()
        try:
            episodes.append(Episode(episode_id=eid, frames=states, times=times, **meta[eid]))
        except ValueError as exc:
            raise ValueError(f"{traj_path}: episode {eid}: {exc}") from None
    return episodes


def cv_episodes(
    n_episodes: int,
    n_vehicles: int = 3,
    duration: float = 6.0,
    dt: float = 0.1,
    max_speed: float = 15.0,
    seed: int = 0,
) -> list[Episode]:
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


def default_specs(
    episodes_per_family: int = 2,
    families: tuple = FAMILIES,
    duration: float = 8.0,
    dt: float = 0.1,
    noise: float = 0.0,
    seed: int = 0,
) -> list[ScenarioSpec]:
    specs = []
    for fi, family in enumerate(families):
        for k in range(episodes_per_family):
            specs.append(
                ScenarioSpec(
                    family=family,
                    duration=duration,
                    dt=dt,
                    noise=noise,
                    seed=seed * 100_003 + fi * 1009 + k,
                )
            )
    return specs


def generate_episodes(specs: list[ScenarioSpec]) -> list[Episode]:
    return [gen_scenario(spec, episode_id=i) for i, spec in enumerate(specs)]
