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

from . import autodiff as ad
from . import scene_graph as sg
from . import temporal as tp
from .autodiff import Tensor
from .optim import LRSchedule, OptimizerState, ParameterStore, adam_step, cosine_lr
from .scene_graph import FEATURE_DIM, GatHeadParams, GatLayerParams, SceneFrame, WorkCounter
from .temporal import GruLayerParams, GruParams, MhaHeadParams, MhaParams

# Windows per forward pass at inference; bounds the rows of one batch.
PREDICT_CHUNK = 64


@dataclass
class HstanConfig:
    c: int = FEATURE_DIM
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
    # Ablation switches
    no_sam: bool = False
    no_tam: bool = False
    single_head: bool = False
    no_collision_loss: bool = False

    def __post_init__(self):
        if isinstance(self.decoder_hidden, list):
            self.decoder_hidden = tuple(self.decoder_hidden)
        if self.t_obs < 1 or self.t_pred < 1:
            raise ValueError("t_obs and t_pred must be >= 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.input_scale <= 0:
            raise ValueError("input_scale must be positive")
        if self.single_head:
            self.k_heads = 1
            self.m_heads = 1
        if self.d_h % self.k_heads != 0:
            raise ValueError(f"d_h={self.d_h} not divisible by k_heads={self.k_heads}")
        if self.gru_hidden % self.m_heads != 0:
            raise ValueError(f"gru_hidden={self.gru_hidden} not divisible by m_heads={self.m_heads}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "HstanConfig":
        """Config from ``to_dict`` output; every field must be present, and no other key."""
        names = {f.name for f in fields(cls)}
        keys = set(d) if isinstance(d, dict) else set()
        if keys != names:
            unknown, missing = sorted(keys - names), sorted(names - keys)
            raise ValueError(f"model config keys differ: unknown {unknown}, missing {missing}")
        return cls(**d)


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
    point_decoder: list = field(default_factory=list)
    lower_decoder: list = field(default_factory=list)
    upper_decoder: list = field(default_factory=list)


@dataclass
class PredictionBatch:
    """Per-vehicle predicted trajectories in absolute scene coordinates."""

    point: np.ndarray  # (N, T', 2)
    lower: np.ndarray  # (N, T', 2)
    upper: np.ndarray  # (N, T', 2)
    conformal_applied: bool = False


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def _build_decoder(store: ParameterStore, rng, prefix: str, in_dim: int, hidden: tuple, out_dim: int):
    layers = []
    dims = [in_dim, *hidden, out_dim]
    for i in range(len(dims) - 1):
        w = store.add(f"{prefix}/w{i}", _glorot(rng, dims[i], dims[i + 1]))
        b = store.add(f"{prefix}/b{i}", np.zeros((1, dims[i + 1])))
        layers.append((w, b))
    return layers


def _mlp(x: Tensor, layers: list) -> Tensor:
    h = x
    for i, (w, b) in enumerate(layers):
        h = ad.linear(h, w, b)
        if i < len(layers) - 1:
            h = ad.relu(h)
    return h


def init_model(config: HstanConfig, seed: int = 0) -> HstanModel:
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    model = HstanModel(config=config, params=store)

    model.embed_w = store.add("embed/w", _glorot(rng, config.c, config.d_h))
    model.embed_b = store.add("embed/b", np.zeros((1, config.d_h)))

    if not config.no_sam:
        for layer_i in range(config.l_s):
            final = layer_i == config.l_s - 1
            d_out = config.d_h if final else config.d_h // config.k_heads
            heads = []
            for k in range(config.k_heads):
                w_s = store.add(f"gat{layer_i}/h{k}/w", _glorot(rng, config.d_h, d_out))
                a = store.add(f"gat{layer_i}/h{k}/a", _glorot(rng, 2 * d_out, 1))
                heads.append(GatHeadParams(w_s=w_s, a=a))
            model.gat_layers.append(GatLayerParams(heads=heads, combine="average" if final else "concat"))

    h = config.gru_hidden
    model.bridge_w = store.add("bridge/w", _glorot(rng, config.d_h, h))
    model.bridge_b = store.add("bridge/b", np.zeros((1, h)))

    if not config.no_tam:
        layers = []
        for li in range(config.gru_layers):
            layers.append(
                GruLayerParams(
                    w_z=store.add(f"gru{li}/wz", _glorot(rng, h, h)),
                    u_z=store.add(f"gru{li}/uz", _glorot(rng, h, h)),
                    b_z=store.add(f"gru{li}/bz", np.zeros((1, h))),
                    w_r=store.add(f"gru{li}/wr", _glorot(rng, h, h)),
                    u_r=store.add(f"gru{li}/ur", _glorot(rng, h, h)),
                    b_r=store.add(f"gru{li}/br", np.zeros((1, h))),
                    w_h=store.add(f"gru{li}/wh", _glorot(rng, h, h)),
                    u_h=store.add(f"gru{li}/uh", _glorot(rng, h, h)),
                    b_h=store.add(f"gru{li}/bh", np.zeros((1, h))),
                )
            )
        model.gru = GruParams(layers=layers)
        d_k = h // config.m_heads
        heads = []
        for m in range(config.m_heads):
            heads.append(
                MhaHeadParams(
                    w_q=store.add(f"mha/h{m}/wq", _glorot(rng, h, d_k)),
                    w_k=store.add(f"mha/h{m}/wk", _glorot(rng, h, d_k)),
                    w_v=store.add(f"mha/h{m}/wv", _glorot(rng, h, d_k)),
                )
            )
        model.mha = MhaParams(heads=heads, w_o=store.add("mha/wo", _glorot(rng, h, h)))

    out_dim = config.t_pred * 2
    model.point_decoder = _build_decoder(store, rng, "dec_point", h, config.decoder_hidden, out_dim)
    model.lower_decoder = _build_decoder(store, rng, "dec_lower", h, config.decoder_hidden, out_dim)
    model.upper_decoder = _build_decoder(store, rng, "dec_upper", h, config.decoder_hidden, out_dim)
    return model


def rebuild_model(config: HstanConfig, store: ParameterStore) -> HstanModel:
    """Reattach a loaded parameter store to the model structure."""
    fresh = init_model(config, seed=0)
    for path, t in fresh.params.items():
        loaded = store[path]
        if loaded.shape != t.shape:
            raise ValueError(f"checkpoint shape mismatch at {path}: {loaded.shape} vs {t.shape}")
        t.data = loaded.data
    return fresh


# ---------------------------------------------------------------------------
# Window samples and batches
# ---------------------------------------------------------------------------


@dataclass
class WindowSample:
    """One training/inference sample: T observed frames, optional T' future."""

    features: np.ndarray  # (T, N, C) centroid-relative model inputs
    last_pos: np.ndarray  # (N, 2) absolute last observed positions
    edge_lists: list  # per-frame (src, dst) arrays
    target_abs: np.ndarray | None = None  # (T', N, 2)
    episode_id: int = -1
    family: str = ""
    start: int = 0

    @property
    def n(self) -> int:
        return self.features.shape[1]


def window_from_states(
    states: np.ndarray,
    config: HstanConfig,
    future_pos: np.ndarray | None = None,
    edges: list | None = None,
    episode_id: int = -1,
    family: str = "",
    start: int = 0,
) -> WindowSample:
    """Window sample of T observed vehicle states (T, N, 8), with the T'
    future positions (T', N, 2) as its target when given.

    ``edges`` takes the frames' per-frame radius graphs when the caller has
    already built them, e.g. once for a whole episode; otherwise all T
    graphs are built here in one stacked call.
    """
    if len(states) != config.t_obs:
        raise ValueError(f"expected {config.t_obs} observed frames, got {len(states)}")
    centroid = states[0, :, 0:2].mean(axis=0)
    feats = states.copy()  # (T, N, C)
    feats[:, :, 0:2] -= centroid
    # keep meter-scale inputs inside the well-conditioned range of tanh/ELU
    feats *= config.input_scale
    if edges is None:
        edges = sg.frame_edge_lists(states[:, :, 0:2], config.radius)
    if future_pos is not None and len(future_pos) != config.t_pred:
        raise ValueError(f"expected {config.t_pred} future frames, got {len(future_pos)}")
    return WindowSample(
        features=feats,
        last_pos=states[-1, :, 0:2].copy(),
        edge_lists=edges,
        target_abs=future_pos,
        episode_id=episode_id,
        family=family,
        start=start,
    )


def make_window(frames: list[SceneFrame], config: HstanConfig) -> WindowSample:
    """Window sample of T observed frames: one stack, then ``window_from_states``."""
    if len({f.n for f in frames}) > 1:
        raise ValueError("vehicle roster changed within the observation window")
    return window_from_states(np.stack([f.vehicles for f in frames]), config)


@dataclass
class PreparedBatch:
    x_steps: list[np.ndarray]  # T arrays (sumN, C)
    edges: list[tuple[np.ndarray, np.ndarray]]  # per-frame merged edge lists
    offsets: list[int]  # per-window vehicle offsets; trailing total
    last_pos: np.ndarray  # (sumN, 2)
    target_disp: np.ndarray | None  # (sumN, T'*2)
    pair_i: np.ndarray  # within-window vehicle pairs, global row indices
    pair_j: np.ndarray


def prepare_batch(windows: list[WindowSample], config: HstanConfig) -> PreparedBatch:
    t_obs = config.t_obs
    offsets = [0]
    for w in windows:
        offsets.append(offsets[-1] + w.n)
    total = offsets[-1]
    x_steps = [
        np.concatenate([w.features[t] for w in windows], axis=0) for t in range(t_obs)
    ]
    edges = []
    for t in range(t_obs):
        srcs, dsts = [], []
        for w, off in zip(windows, offsets):
            s, d = w.edge_lists[t]
            srcs.append(s + off)
            dsts.append(d + off)
        edges.append((np.concatenate(srcs), np.concatenate(dsts)))
    last_pos = np.concatenate([w.last_pos for w in windows], axis=0)
    target_disp = None
    if all(w.target_abs is not None for w in windows):
        target_disp = np.zeros((total, config.t_pred * 2))
        for w, off in zip(windows, offsets):
            disp = w.target_abs - w.last_pos[None, :, :]  # (T', N, 2)
            target_disp[off : off + w.n] = disp.transpose(1, 0, 2).reshape(w.n, -1)
    # within-window pairs i < j in row-major order: row r pairs with every
    # later row of its own window (one batch-wide build, no per-window calls)
    rows = np.arange(total)
    later = np.repeat(offsets[1:], [w.n for w in windows]) - rows - 1
    pair_i = np.repeat(rows, later)
    run_start = np.repeat(np.cumsum(later) - later, later)
    return PreparedBatch(
        x_steps=x_steps,
        edges=edges,
        offsets=offsets,
        last_pos=last_pos,
        target_disp=target_disp,
        pair_i=pair_i,
        pair_j=pair_i + 1 + np.arange(len(pair_i)) - run_start,
    )


@dataclass
class ForwardOutputs:
    hf: Tensor  # (sumN, H) final temporal features
    point_disp: Tensor  # (sumN, T'*2) displacement trajectories
    lower_disp: Tensor
    upper_disp: Tensor


def forward_batch(model: HstanModel, batch: PreparedBatch, counter: WorkCounter | None = None) -> ForwardOutputs:
    cfg = model.config
    total = batch.offsets[-1]
    frame = lambda t: (t * total, (t + 1) * total)
    # every frame is embedded at once; row t*total + v is vehicle v at step t
    h = sg.embed_features(ad.constant(np.concatenate(batch.x_steps)), model.embed_w, model.embed_b)
    if not cfg.no_sam:
        sam_steps = []
        for t, (src, dst) in enumerate(batch.edges):
            ht = ad.rows(h, *frame(t))
            for layer in model.gat_layers:
                ht = sg.gat_layer_edges(ht, src, dst, layer, counter)
            sam_steps.append(ht)
        h = ad.concat_rows(sam_steps)

    if cfg.no_tam:
        hf = ad.linear(ad.rows(h, *frame(cfg.t_obs - 1)), model.bridge_w, model.bridge_b)
    else:
        g = ad.linear(h, model.bridge_w, model.bridge_b)
        hf = tp.mha_blocks(tp.gru_encode_steps(g, model.gru, cfg.t_obs), model.mha, cfg.t_obs)

    return ForwardOutputs(
        hf=hf,
        point_disp=_mlp(hf, model.point_decoder),
        lower_disp=_mlp(hf, model.lower_decoder),
        upper_disp=_mlp(hf, model.upper_decoder),
    )


def _disp_to_abs(disp: np.ndarray, last_pos: np.ndarray, t_pred: int) -> np.ndarray:
    n = last_pos.shape[0]
    out = disp.reshape(n, t_pred, 2) + last_pos[:, None, :]
    return out


def outputs_to_predictions(
    out: ForwardOutputs, batch: PreparedBatch, config: HstanConfig
) -> list[PredictionBatch]:
    preds = []
    for wi in range(len(batch.offsets) - 1):
        lo, hi = batch.offsets[wi], batch.offsets[wi + 1]
        lp = batch.last_pos[lo:hi]
        preds.append(
            PredictionBatch(
                point=_disp_to_abs(out.point_disp.data[lo:hi], lp, config.t_pred),
                lower=_disp_to_abs(out.lower_disp.data[lo:hi], lp, config.t_pred),
                upper=_disp_to_abs(out.upper_disp.data[lo:hi], lp, config.t_pred),
            )
        )
    return preds


def predict_windows(model: HstanModel, windows: list[WindowSample]) -> list[PredictionBatch]:
    """Raw predictions for every window, ``PREDICT_CHUNK`` windows per forward pass."""
    preds = []
    for start in range(0, len(windows), PREDICT_CHUNK):
        batch = prepare_batch(windows[start : start + PREDICT_CHUNK], model.config)
        preds.extend(outputs_to_predictions(forward_batch(model, batch), batch, model.config))
    return preds


# ---------------------------------------------------------------------------
# Losses and training
# ---------------------------------------------------------------------------


def _pinball(pred: Tensor, target: Tensor, level: float) -> Tensor:
    u = ad.sub(target, pred)
    return ad.mean_all(ad.maximum(ad.scale(u, level), ad.scale(u, level - 1.0)))


def training_loss(
    out: ForwardOutputs, batch: PreparedBatch, config: HstanConfig
) -> tuple[Tensor, dict]:
    if batch.target_disp is None:
        raise ValueError("training loss requires target trajectories")
    target = ad.constant(batch.target_disp)
    mse = ad.mean_all(ad.square(ad.sub(out.point_disp, target)))
    lo = _pinball(out.lower_disp, target, config.alpha / 2.0)
    hi = _pinball(out.upper_disp, target, 1.0 - config.alpha / 2.0)
    pinball = ad.add(lo, hi)
    total = ad.add(mse, ad.scale(pinball, config.pinball_weight))

    collision_value = 0.0
    cw = 0.0 if config.no_collision_loss else config.collision_weight
    if cw > 0.0 and len(batch.pair_i) > 0:
        # columns interleave as x0,y0,x1,y1,...
        tiled = np.tile(batch.last_pos, (1, config.t_pred))
        abs_pred = ad.add(out.point_disp, ad.constant(tiled))
        diff = ad.sub(ad.gather_rows(abs_pred, batch.pair_i), ad.gather_rows(abs_pred, batch.pair_j))
        xs = np.arange(0, config.t_pred * 2, 2)
        ys = xs + 1
        dsq = ad.add(ad.square(ad.gather_cols(diff, xs)), ad.square(ad.gather_cols(diff, ys)))
        dist = ad.sqrt(dsq)
        gap = ad.relu(ad.affine(dist, -1.0, config.collision_radius))
        penalty = ad.mean_all(ad.square(gap))
        collision_value = penalty.item()
        total = ad.add(total, ad.scale(penalty, cw))

    parts = {
        "mse": mse.item(),
        "pinball": pinball.item(),
        "collision": collision_value,
        "loss": total.item(),
    }
    return total, parts


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
