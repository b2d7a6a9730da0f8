"""End-to-end trajectory predictor: per-frame graph attention, stacked GRU
with temporal self-attention, and a three-headed decoder (point trajectory
plus lower/upper quantile trajectories), with the training loop.

Input features use positions relative to the scene centroid of the first
observed frame, so the model is translation invariant; the decoder emits
displacements from each vehicle's last observed position.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import autodiff as ad
from . import scene_graph as sg
from . import temporal as tp
from .autodiff import Tensor
from .optim import LRSchedule, OptimizerState, ParameterStore, adam_step, cosine_lr
from .scene_graph import FEATURE_DIM, GatLayerParams, SceneFrame, WorkCounter
from .temporal import GruLayerParams, GruParams, MhaParams

# Windows per forward pass at inference; bounds the rows of one batch.
PREDICT_CHUNK = 64
# Edges per run of frames that one GAT call takes; a larger frame runs alone.
GAT_EDGE_BUDGET = 2**15


def check_finite(config, names: tuple, positive: bool) -> None:
    """Each named field of ``config`` must be a finite number, above zero
    when ``positive`` and at least zero otherwise."""
    for name in names:
        value = getattr(config, name)
        if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
            kind = "positive" if positive else "nonnegative"
            raise ValueError(f"{name} must be finite and {kind}, got {value!r}")


@dataclass
class HstanConfig:
    """Model settings. ``l_s = 0`` runs no GAT layer, and ``gru_layers = 0``
    runs neither the GRU nor temporal attention (the model then reads only
    the last observed frame)."""

    d_h: int = 256
    k_heads: int = 8
    l_s: int = 3
    radius: float = 30.0
    gru_hidden: int = 512
    gru_layers: int = 2
    m_heads: int = 4
    t_obs: int = 8
    t_pred: int = 12
    dt: float = 0.1
    decoder_hidden: tuple = (512, 256)
    alpha: float = 0.1
    input_scale: float = 0.1
    pinball_weight: float = 0.5
    collision_weight: float = 0.1
    collision_radius: float = 4.0

    def __post_init__(self):
        if isinstance(self.decoder_hidden, list):
            self.decoder_hidden = tuple(self.decoder_hidden)
        floors = dict.fromkeys(("t_obs", "t_pred", "d_h", "k_heads", "m_heads", "gru_hidden"), 1)
        for name, least in {**floors, "l_s": 0, "gru_layers": 0}.items():
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if any(width < 1 for width in self.decoder_hidden):
            raise ValueError(f"decoder_hidden must be widths >= 1, got {self.decoder_hidden}")
        check_finite(self, ("dt", "input_scale", "radius", "collision_radius"), positive=True)
        check_finite(self, ("pinball_weight", "collision_weight"), positive=False)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.d_h % self.k_heads != 0:
            raise ValueError(f"d_h={self.d_h} not divisible by k_heads={self.k_heads}")
        if self.gru_hidden % self.m_heads != 0:
            raise ValueError(f"gru_hidden={self.gru_hidden} not divisible by m_heads={self.m_heads}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "HstanConfig":
        """Config from ``to_dict`` output; every field must be present, and
        no other key, each value of its field's type (an int that is not a
        bool, a float or int, or for ``decoder_hidden`` a list of ints) and
        in its range (``__post_init__``)."""
        names = {f.name for f in fields(cls)}
        keys = set(d) if isinstance(d, dict) else set()
        if keys != names:
            unknown, missing = sorted(keys - names), sorted(names - keys)
            raise ValueError(f"model config keys differ: unknown {unknown}, missing {missing}")
        is_int = lambda v: isinstance(v, int) and not isinstance(v, bool)
        valid = {
            "int": is_int,
            "float": lambda v: is_int(v) or isinstance(v, float),
            "tuple": lambda v: isinstance(v, (list, tuple)) and all(is_int(u) for u in v),
        }
        for f in fields(cls):
            if not valid[f.type](d[f.name]):
                kind = "a list of ints" if f.type == "tuple" else f"of type {f.type}"
                raise ValueError(f"model config {f.name} must be {kind}, got {d[f.name]!r}")
        try:
            return cls(**d)
        except ValueError as exc:
            raise ValueError(f"model config {exc}") from None


def desk_config(**overrides) -> HstanConfig:
    """Small configuration for tests and smoke runs."""
    base = dict(
        d_h=16,
        k_heads=2,
        l_s=2,
        gru_hidden=32,
        gru_layers=2,
        m_heads=2,
        decoder_hidden=(64, 32),
    )
    base.update(overrides)
    return HstanConfig(**base)


@dataclass
class HstanModel:
    config: HstanConfig
    params: ParameterStore
    embed_w: Tensor = None
    embed_b: Tensor = None
    gat_layers: list = field(default_factory=list)
    bridge_w: Tensor = None
    bridge_b: Tensor = None
    gru: GruParams = None
    mha: MhaParams = None
    decoder: list = field(default_factory=list)  # (w, b) layers of the point, lower and upper decoders


@dataclass
class PredictionBatch:
    """Per-vehicle predicted trajectories in absolute scene coordinates."""

    point: np.ndarray  # (N, T', 2)
    lower: np.ndarray  # (N, T', 2)
    upper: np.ndarray  # (N, T', 2)


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def _build_decoders(store: ParameterStore, rng, dims: list, paths: int) -> list:
    """The (w, b) layers of ``paths`` decoders of widths ``dims``, drawn
    decoder after decoder and stored packed as ``decode`` reads them."""
    drawn = [[_glorot(rng, d_in, d_out) for d_in, d_out in zip(dims, dims[1:])] for _ in range(paths)]
    layers = []
    for i, width in enumerate(dims[1:]):
        if i == 0:
            w, b = np.concatenate([dec[0] for dec in drawn], axis=1), np.zeros((1, paths * width))
        else:
            w, b = np.concatenate([dec[i] for dec in drawn]), np.zeros((paths, width))
        layers.append((store.add(f"dec/w{i}", w), store.add(f"dec/b{i}", b)))
    return layers


def decode(hf: Tensor, layers: list) -> Tensor:
    """The P decoders over ``hf`` (n, H) as one node: (n, P*out), their
    outputs side by side.

    ``layers`` holds the decoders' ``(w, b)`` layers packed, with ReLU
    between them: the first is one (H, P*h0) matmul plus a (1, P*h0) bias;
    each later layer is a (P*h_in, h_out) weight, read as P stacked
    (h_in, h_out) blocks for one ``np.matmul`` over (P, n, .), plus a
    (P, h_out) bias, one row per decoder.
    """
    # a later layer's bias has one row per decoder; with no later layer the split is moot
    n, paths = hf.shape[0], layers[-1][1].shape[0]
    (w0, b0), later = layers[0], layers[1:]
    blocks = [w.data.reshape(paths, -1, w.shape[1]) for w, _ in later]
    a = (hf.data @ w0.data + b0.data).reshape(n, paths, -1).transpose(1, 0, 2)  # (P, n, h0)
    acts = []  # the ReLU outputs that feed the later layers
    for w, (_, b) in zip(blocks, later):
        a = np.maximum(a, 0.0)
        acts.append(a)
        a = np.matmul(a, w) + b.data[:, None, :]
    out = Tensor(a.transpose(1, 0, 2).reshape(n, -1), parents=(hf, *[t for wb in layers for t in wb]))

    def backward(g):
        g = g.reshape(n, paths, -1).transpose(1, 0, 2)
        for (w, b), block, act in zip(later[::-1], blocks[::-1], acts[::-1]):
            if w.requires_grad:
                w._accumulate(np.matmul(act.transpose(0, 2, 1), g).reshape(w.shape))
            if b.requires_grad:
                b._accumulate(g.sum(axis=1))
            g = np.matmul(g, block.transpose(0, 2, 1)) * (act > 0.0)
        g = g.transpose(1, 0, 2).reshape(n, -1)  # (n, P*h0)
        if w0.requires_grad:
            w0._accumulate(hf.data.T @ g)
        if b0.requires_grad:
            b0._accumulate(g.sum(axis=0, keepdims=True))
        if hf.requires_grad:
            hf._accumulate(g @ w0.data.T)

    out._backward = backward
    return out


def init_model(config: HstanConfig, seed: int = 0) -> HstanModel:
    """A fresh model; each layer's parameters are drawn per head, gate or
    decoder, in a fixed order, and stored packed as its fused op reads
    them."""
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    model = HstanModel(config=config, params=store)

    model.embed_w = store.add("embed/w", _glorot(rng, FEATURE_DIM, config.d_h))
    model.embed_b = store.add("embed/b", np.zeros((1, config.d_h)))

    for layer_i in range(config.l_s):
        final = layer_i == config.l_s - 1
        d_out = config.d_h if final else config.d_h // config.k_heads
        heads = [(_glorot(rng, config.d_h, d_out), _glorot(rng, 2 * d_out, 1)) for _ in range(config.k_heads)]
        model.gat_layers.append(
            GatLayerParams(
                w=store.add(f"gat{layer_i}/w", np.concatenate([w for w, _ in heads], axis=1)),
                a=store.add(f"gat{layer_i}/a", np.concatenate([a.T for _, a in heads])),
                combine="average" if final else "concat",
            )
        )

    h = config.gru_hidden
    model.bridge_w = store.add("bridge/w", _glorot(rng, config.d_h, h))
    model.bridge_b = store.add("bridge/b", np.zeros((1, h)))

    if config.gru_layers:
        layers = []
        for li in range(config.gru_layers):
            w_z, u_z, w_r, u_r, w_h, u_h = (_glorot(rng, h, h) for _ in range(6))
            layers.append(
                GruLayerParams(
                    w=store.add(f"gru{li}/w", np.concatenate([w_z, w_r, w_h], axis=1)),
                    u_zr=store.add(f"gru{li}/u_zr", np.concatenate([u_z, u_r], axis=1)),
                    u_h=store.add(f"gru{li}/u_h", u_h),
                    b=store.add(f"gru{li}/b", np.zeros((1, 3 * h))),
                )
            )
        model.gru = GruParams(layers=layers)
        d_k = h // config.m_heads
        heads = [[_glorot(rng, h, d_k) for _ in range(3)] for _ in range(config.m_heads)]  # q, k, v per head
        model.mha = MhaParams(
            w_q=store.add("mha/w_q", np.concatenate([q for q, _, _ in heads], axis=1)),
            w_kv=store.add("mha/w_kv", np.concatenate([k for _, k, _ in heads] + [v for _, _, v in heads], axis=1)),
            w_o=store.add("mha/w_o", _glorot(rng, h, h)),
            heads=config.m_heads,
        )

    # the point, lower and upper decoders
    model.decoder = _build_decoders(store, rng, [h, *config.decoder_hidden, config.t_pred * 2], 3)
    return model


def rebuild_model(config: HstanConfig, store: ParameterStore) -> HstanModel:
    """Reattach a loaded parameter store to the model structure; the store
    must hold exactly the model's parameters, each of its shape."""
    fresh = init_model(config, seed=0)
    want, have = set(fresh.params.paths()), set(store.paths())
    if want != have:
        unknown, missing = sorted(have - want), sorted(want - have)
        raise ValueError(f"checkpoint parameters differ from the model's: unknown {unknown}, missing {missing}")
    for path, t in fresh.params.items():
        loaded = store[path]
        if loaded.shape != t.shape:
            raise ValueError(f"checkpoint shape mismatch at {path}: {loaded.shape} vs {t.shape}")
        t.data = loaded.data
    return fresh


# ---------------------------------------------------------------------------
# Episode graphs, windows and batches
# ---------------------------------------------------------------------------


@dataclass
class EpisodeGraphs:
    """One episode's vehicle states with the radius graphs of its first
    frames, from one stacked ``edges_from_positions`` call: frame f's
    edges are ``src[bounds[f] : bounds[f + 1]]`` (and ``dst``), indexing
    the episode's rows frame-major (row f*N + v is vehicle v at frame f)."""

    states: np.ndarray  # (F, N, 8)
    src: np.ndarray
    dst: np.ndarray
    bounds: np.ndarray  # (frames with a graph + 1,)
    centroids: np.ndarray  # (F, 2) each frame's mean vehicle position


def episode_graphs(states: np.ndarray, radius: float, frames: int | None = None) -> EpisodeGraphs:
    """The graphs of the first ``frames`` frames of ``states`` (all by default)."""
    frames = len(states) if frames is None else frames
    src, dst = sg.edges_from_positions(states[:frames, :, 0:2], radius)
    bounds = np.searchsorted(dst, np.arange(frames + 1) * states.shape[1])
    return EpisodeGraphs(states=states, src=src, dst=dst, bounds=bounds, centroids=states[:, :, 0:2].mean(axis=1))


@dataclass
class WindowSample:
    """The window that observes frames start .. start+t_obs-1 of its
    episode: a view into the episode's arrays, not a copy, with the T'
    future positions as its target when known."""

    graphs: EpisodeGraphs
    start: int
    t_obs: int
    target_abs: np.ndarray | None = None  # (T', N, 2)
    episode_id: int = -1

    @property
    def n(self) -> int:
        return self.graphs.states.shape[1]

    @property
    def edge_lists(self) -> list:
        """Each observed frame's radius graph as frame-local (src, dst)."""
        g, n = self.graphs, self.n
        cuts = g.bounds[self.start : self.start + self.t_obs + 1].tolist()
        frames = range(self.start, self.start + self.t_obs)
        return [(g.src[a:b] - f * n, g.dst[a:b] - f * n) for f, a, b in zip(frames, cuts, cuts[1:])]


def make_window(frames: list[SceneFrame], config: HstanConfig) -> WindowSample:
    """The window of T observed frames, with their graphs from one stacked build."""
    if len({f.n for f in frames}) > 1:
        raise ValueError("vehicle roster changed within the observation window")
    if len(frames) != config.t_obs:
        raise ValueError(f"expected {config.t_obs} observed frames, got {len(frames)}")
    graphs = episode_graphs(np.stack([f.vehicles for f in frames]), config.radius)
    return WindowSample(graphs=graphs, start=0, t_obs=config.t_obs)


@dataclass
class PreparedBatch:
    x: np.ndarray  # (F*sumN, C) time-major: row f*sumN + v is vehicle v at the f-th laid-out frame
    edges: list[tuple[int, int, np.ndarray, np.ndarray]]  # frame runs (t_lo, t_hi, src, dst)
    offsets: list[int]  # per-window vehicle offsets; trailing total
    last_pos: np.ndarray  # (sumN, 2)
    target_disp: np.ndarray | None  # (sumN, T'*2)
    pair_i: np.ndarray  # within-window vehicle pairs, global row indices; empty without targets
    pair_j: np.ndarray


def _laid_out_frames(config: HstanConfig) -> range:
    """The observed frames the model reads: all T, or with ``gru_layers = 0`` the last one."""
    return range(0 if config.gru_layers else config.t_obs - 1, config.t_obs)


def episode_batch(pieces: list[tuple[EpisodeGraphs, int, int]], config: HstanConfig) -> PreparedBatch:
    """The ``PreparedBatch`` of the windows that start at frames lo..hi-1
    of each piece's episode, piece after piece, with no targets or
    collision pairs; only the frames the model reads are laid out
    (``_laid_out_frames``).

    The features are one concatenation of every window's frames, less
    the window's first-frame centroid (from ``episode_graphs``), times
    ``input_scale``. The edges of a (laid-out frame, piece) are one slice
    of the episode's edge list, shifted by one offset. Together they form
    one block-diagonal graph over the time-major rows, cut into runs of
    whole consecutive frames; a run holds at most ``GAT_EDGE_BUDGET``
    edges unless it is one frame. Each run is (t_lo, t_hi, src, dst), t
    counting the laid-out frames, with indices local to its rows
    [t_lo*total, t_hi*total).
    """
    pieces = [(g, lo, hi) for g, lo, hi in pieces if hi > lo]
    frames, t_obs = _laid_out_frames(config), config.t_obs
    depth = len(frames)
    ns = np.array([g.states.shape[1] for g, _, _ in pieces], dtype=np.intp)
    counts = [hi - lo for _, lo, hi in pieces]
    sizes = ns * counts  # rows of each piece in one laid-out frame
    starts = np.cumsum(sizes) - sizes
    total = int(sizes.sum())
    # one copy of every window's laid-out frames, window after window
    x = np.concatenate(
        [g.states[start + frames.start : start + t_obs] for g, lo, hi in pieces for start in range(lo, hi)], axis=1
    )
    last_pos = x[-1, :, 0:2].copy()
    window_rows = np.repeat(ns, counts)
    x[:, :, 0:2] -= np.repeat(np.concatenate([g.centroids[lo:hi] for g, lo, hi in pieces]), window_rows, axis=0)
    # keep meter-scale inputs inside the well-conditioned range of tanh/ELU
    x *= config.input_scale

    # in laid-out frame f a piece's windows read episode frames lo+f'..hi-1+f', f' = frames.start + f:
    # one range of the episode's edge list
    lows = np.array([g.bounds[lo + frames.start : lo + t_obs] for g, lo, _ in pieces]).T  # (F', P)
    highs = np.array([g.bounds[hi + frames.start : hi + t_obs] for g, _, hi in pieces]).T
    part_edges = highs - lows
    ranges = list(zip([g for g, _, _ in pieces] * depth, lows.reshape(-1).tolist(), highs.reshape(-1).tolist()))
    frame_edges = part_edges.sum(axis=1).tolist()
    run_starts, size = [0], 0
    for t, count in enumerate(frame_edges):
        if t > run_starts[-1] and size + count > GAT_EDGE_BUDGET:
            run_starts.append(t)
            size = 0
        size += count
    run_bounds = [*run_starts, depth]
    # an edge's episode row i maps to row i - (lo + frames.start + f)*n + start of its
    # piece, plus (f - t_lo)*total within its run
    t_lo = np.repeat(run_starts, np.diff(run_bounds))
    first = np.array([lo for _, lo, _ in pieces], dtype=np.intp) + frames.start
    row0 = (np.arange(depth) - t_lo)[:, None] * total + starts - (first + np.arange(depth)[:, None]) * ns
    shift = np.repeat(row0.reshape(-1), part_edges.reshape(-1))
    src = np.concatenate([g.src[a:b] for g, a, b in ranges])
    dst = np.concatenate([g.dst[a:b] for g, a, b in ranges])
    src += shift
    dst += shift
    edge_bounds = np.cumsum([0, *frame_edges])[run_bounds].tolist()
    return PreparedBatch(
        x=x.reshape(depth * total, FEATURE_DIM),
        edges=[
            (lo, hi, src[e_lo:e_hi], dst[e_lo:e_hi])
            for lo, hi, e_lo, e_hi in zip(run_bounds, run_bounds[1:], edge_bounds, edge_bounds[1:])
        ],
        offsets=np.cumsum([0, *window_rows.tolist()]).tolist(),
        last_pos=last_pos,
        target_disp=None,
        pair_i=np.zeros(0, dtype=np.intp),
        pair_j=np.zeros(0, dtype=np.intp),
    )


def prepare_batch(windows: list[WindowSample], config: HstanConfig) -> PreparedBatch:
    """The windows' rows stacked for one forward pass: ``episode_batch`` of
    one piece per window, plus the targets and the within-window collision
    pairs that only the training loss reads, built only when every window
    has a target."""
    batch = episode_batch([(w.graphs, w.start, w.start + 1) for w in windows], config)
    if all(w.target_abs is not None for w in windows):
        offsets, total = batch.offsets, batch.offsets[-1]
        disp = np.concatenate([w.target_abs for w in windows], axis=1) - batch.last_pos  # (T', sumN, 2)
        batch.target_disp = disp.transpose(1, 0, 2).reshape(total, -1)
        # within-window pairs i < j in row-major order: row r pairs with every
        # later row of its own window (one batch-wide build, no per-window calls)
        rows = np.arange(total)
        later = np.repeat(offsets[1:], [w.n for w in windows]) - rows - 1
        batch.pair_i = np.repeat(rows, later)
        run_start = np.repeat(np.cumsum(later) - later, later)
        batch.pair_j = batch.pair_i + 1 + np.arange(len(batch.pair_i)) - run_start
    return batch


def episode_targets(pieces: list[tuple[EpisodeGraphs, int, int]], config: HstanConfig) -> np.ndarray:
    """The (sumN, T', 2) future positions of every window of the pieces,
    in ``episode_batch`` row order, from one sliding view of each
    episode's future frames; every window needs its T' future frames."""
    parts = [np.zeros((0, config.t_pred, 2))]
    for g, lo, hi in pieces:
        future = sliding_window_view(g.states[config.t_obs :, :, 0:2], config.t_pred, axis=0)  # (W, N, 2, T')
        if hi > len(future):
            raise ValueError(f"windows up to start {hi - 1} need ground-truth futures; the episode has {len(future)}")
        parts.append(future[lo:hi].transpose(0, 1, 3, 2).reshape(-1, config.t_pred, 2))
    return np.concatenate(parts)


@dataclass
class ForwardOutputs:
    hf: Tensor  # (sumN, H) final temporal features
    disp: Tensor  # (sumN, 3*T'*2) point, lower and upper displacement trajectories side by side


def forward_batch(model: HstanModel, batch: PreparedBatch, counter: WorkCounter | None = None) -> ForwardOutputs:
    cfg = model.config
    total = batch.offsets[-1]
    # every laid-out frame is embedded at once; row t*total + v is vehicle v at frame t
    h = sg.embed_features(ad.constant(batch.x), model.embed_w, model.embed_b)
    if model.gat_layers:
        # each run of frames is one block-diagonal graph: one GAT call per layer
        whole = len(batch.edges) == 1
        runs = []
        for t_lo, t_hi, src, dst in batch.edges:
            hr = h if whole else ad.rows(h, t_lo * total, t_hi * total)
            for layer in model.gat_layers:
                hr = sg.gat_layer_edges(hr, src, dst, layer, counter, frames=t_hi - t_lo)
            runs.append(hr)
        h = runs[0] if whole else ad.concat_rows(runs)

    hf = ad.linear(h, model.bridge_w, model.bridge_b)
    if cfg.gru_layers:  # else the batch holds the last observed frame only
        hf = tp.mha_blocks(tp.gru_encode_steps(hf, model.gru, cfg.t_obs), model.mha, cfg.t_obs)
    return ForwardOutputs(hf=hf, disp=decode(hf, model.decoder))


def _stacked_prediction(out: ForwardOutputs, batch: PreparedBatch, config: HstanConfig) -> PredictionBatch:
    """The predictions of one forward pass over all of the batch's vehicle
    rows, window after window, in absolute scene coordinates."""
    total = batch.offsets[-1]
    point, lower, upper = (
        disp.reshape(total, config.t_pred, 2) + batch.last_pos[:, None, :]
        for disp in np.split(out.disp.data, 3, axis=1)
    )
    return PredictionBatch(point=point, lower=lower, upper=upper)


def outputs_to_predictions(
    out: ForwardOutputs, batch: PreparedBatch, config: HstanConfig
) -> list[PredictionBatch]:
    """The predictions of one forward pass, one batch per window."""
    stack = _stacked_prediction(out, batch, config)
    cuts = batch.offsets[1:-1]
    return [
        PredictionBatch(point=p, lower=lo, upper=up)
        for p, lo, up in zip(np.split(stack.point, cuts), np.split(stack.lower, cuts), np.split(stack.upper, cuts))
    ]


def _chunks(pieces: list, size: int):
    """The pieces' windows in runs of ``size`` (the last may be shorter),
    each run a list of pieces; a run goes on across pieces."""
    chunk, room = [], size
    for g, lo, hi in pieces:
        while lo < hi:
            take = min(room, hi - lo)
            chunk.append((g, lo, lo + take))
            lo, room = lo + take, room - take
            if room == 0:
                yield chunk
                chunk, room = [], size
    if chunk:
        yield chunk


def predict_episodes(model: HstanModel, pieces: list[tuple[EpisodeGraphs, int, int]]) -> PredictionBatch:
    """Raw predictions of every window of the pieces (``episode_batch``) as
    one stack over their vehicle rows, piece after piece and window after
    window; ``PREDICT_CHUNK`` windows per forward pass."""
    parts = []
    for chunk in _chunks(pieces, PREDICT_CHUNK):
        batch = episode_batch(chunk, model.config)
        parts.append(_stacked_prediction(forward_batch(model, batch), batch, model.config))
    if len(parts) == 1:
        return parts[0]
    empty = np.zeros((0, model.config.t_pred, 2))
    point, lower, upper = (
        np.concatenate([getattr(p, key) for p in parts] or [empty]) for key in ("point", "lower", "upper")
    )
    return PredictionBatch(point=point, lower=lower, upper=upper)


# ---------------------------------------------------------------------------
# Losses and training
# ---------------------------------------------------------------------------


def _pinball(pred: np.ndarray, target: np.ndarray, level: float) -> tuple[float, np.ndarray]:
    """Mean pinball loss of ``pred`` at quantile ``level``, and its
    derivative per element before the mean; u = target - pred scores
    max(level*u, (level-1)*u), and a tie (u = 0) takes the first term."""
    u = target - pred
    over, under = u * level, u * (level - 1.0)
    pick = over >= under
    return np.where(pick, over, under).mean(), np.where(pick, -level, 1.0 - level)


def training_loss(
    out: ForwardOutputs, batch: PreparedBatch, config: HstanConfig
) -> tuple[Tensor, dict]:
    """mse + pinball_weight * pinball + collision_weight * collision as one
    node over ``out.disp``, whose backward writes d loss / d disp directly.

    mse is the point path's mean squared error; pinball the mean pinball
    losses of the lower and upper paths at alpha/2 and 1 - alpha/2; and
    collision the mean over within-window pairs and horizon steps of
    relu(collision_radius - d)^2, d = sqrt(dx^2 + dy^2 + 1e-12) between
    the pair's absolute predicted positions.
    """
    if batch.target_disp is None:
        raise ValueError("training loss requires target trajectories")
    target = batch.target_disp
    width, size = target.shape[1], target.size
    disp = out.disp.data
    point = disp[:, :width]
    grad = np.empty_like(disp)
    err = point - target
    mse = (err * err).mean()
    grad[:, :width] = err * (2.0 / size)
    pw = config.pinball_weight
    lo, grad[:, width : 2 * width] = _pinball(disp[:, width : 2 * width], target, config.alpha / 2.0)
    hi, grad[:, 2 * width :] = _pinball(disp[:, 2 * width :], target, 1.0 - config.alpha / 2.0)
    grad[:, width:] *= pw / size
    pinball = lo + hi
    total = mse + pinball * pw

    collision = 0.0
    cw = config.collision_weight
    pair_i, pair_j = batch.pair_i, batch.pair_j
    if cw > 0.0 and len(pair_i) > 0:
        # columns interleave as x0,y0,x1,y1,...
        abs_pred = point + np.tile(batch.last_pos, (1, config.t_pred))
        diff = abs_pred[pair_i] - abs_pred[pair_j]
        dx, dy = diff[:, 0::2], diff[:, 1::2]
        dist = np.sqrt(dx * dx + dy * dy + 1e-12)
        gap = np.maximum(dist * -1.0 + config.collision_radius, 0.0)
        collision = (gap * gap).mean()
        total = total + collision * cw
        # d/d diff of cw * mean(gap^2): gap' = -1 where gap > 0, d' = diff / d
        g_diff = np.empty_like(diff)
        g_dist = gap * (-2.0 * cw / gap.size) / dist
        g_diff[:, 0::2] = g_dist * dx
        g_diff[:, 1::2] = g_dist * dy
        g_point = grad[:, :width]
        np.add.at(g_point, pair_i, g_diff)
        np.add.at(g_point, pair_j, -g_diff)
    loss = Tensor([[total]], parents=(out.disp,))

    def backward(g):
        if out.disp.requires_grad:
            out.disp._accumulate(grad * g[0, 0])

    loss._backward = backward
    parts = {"mse": float(mse), "pinball": float(pinball), "collision": float(collision), "loss": float(total)}
    return loss, parts


def train(
    windows: list[WindowSample],
    config: HstanConfig,
    seed: int = 0,
    epochs: int = 50,
    batch_size: int = 32,
    base_lr: float = 1e-3,
    log_hook=None,
) -> tuple[HstanModel, list[dict]]:
    """Train on windowed samples; deterministic given (config, seed)."""
    if not windows:
        raise ValueError("empty training set")
    model = init_model(config, seed)
    state = OptimizerState()
    sched = LRSchedule(base_rate=base_lr, min_rate=0.0, total_epochs=epochs)
    rng = np.random.default_rng(seed + 1)
    history: list[dict] = []
    order = np.arange(len(windows))
    for epoch in range(epochs):
        lr = cosine_lr(epoch, sched)
        rng.shuffle(order)
        sums = {"mse": 0.0, "pinball": 0.0, "collision": 0.0, "loss": 0.0}
        n_batches = 0
        for start in range(0, len(order), batch_size):
            chunk = [windows[i] for i in order[start : start + batch_size]]
            batch = prepare_batch(chunk, config)
            model.params.zero_grad()
            out = forward_batch(model, batch)
            loss, parts = training_loss(out, batch, config)
            if not math.isfinite(parts["loss"]):
                raise FloatingPointError(
                    f"non-finite loss at epoch {epoch}, batch {n_batches}: {parts}"
                )
            loss.backward()
            adam_step(model.params, state, lr)
            for k in sums:
                sums[k] += parts[k]
            n_batches += 1
        record = {"epoch": epoch, "lr": lr}
        record.update({k: sums[k] / n_batches for k in sums})
        history.append(record)
        if log_hook is not None:
            log_hook(record)
    return model, history
