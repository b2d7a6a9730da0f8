"""Radius graph and multi-head graph attention."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fcw.autodiff as ad
import fcw.metrics as mt
import fcw.model as md
import fcw.pipeline as pl
import fcw.scene_graph as sg
from fcw.optim import ParameterStore, grad_check

from conftest import assert_matches_oracle

import oracles


def make_frame(positions, vel=None):
    n = len(positions)
    pos = np.asarray(positions, dtype=np.float64)
    v = np.zeros((n, 2)) if vel is None else np.asarray(vel, dtype=np.float64)
    feats = np.concatenate([pos, v, np.zeros((n, 2)), np.tile([4.5, 1.8], (n, 1))], axis=1)
    return sg.SceneFrame(timestamp=0.0, vehicles=feats)


def random_layer(rng, d_in, d_out, k, combine):
    heads = [
        sg.GatHeadParams(
            w_s=ad.parameter(rng.standard_normal((d_in, d_out)) * 0.5),
            a=ad.parameter(rng.standard_normal((2 * d_out, 1)) * 0.5),
        )
        for _ in range(k)
    ]
    return sg.GatLayerParams(heads=heads, combine=combine)


# ---------------------------------------------------------------------------
# frames and adjacency
# ---------------------------------------------------------------------------


def test_frame_validation():
    with pytest.raises(ValueError):
        sg.SceneFrame(timestamp=0.0, vehicles=np.zeros((0, 8)))
    bad = np.zeros((1, 8))
    bad[0, 6] = -1.0  # nonpositive length
    with pytest.raises(ValueError):
        sg.SceneFrame(timestamp=0.0, vehicles=bad)
    nan = np.full((1, 8), np.nan)
    with pytest.raises(ValueError):
        sg.SceneFrame(timestamp=0.0, vehicles=nan)


def dense_edges(positions, radius):
    """The radius graph as a dense 0/1 matrix built from the program's edge list."""
    src, dst = sg.edges_from_positions(np.asarray(positions, dtype=np.float64), radius)
    dense = np.zeros((len(positions), len(positions)), dtype=np.int64)
    dense[dst, src] = 1
    return dense


def test_adjacency_within_radius():
    assert np.array_equal(dense_edges([[0.0, 0.0], [10.0, 0.0]], 30.0), [[1, 1], [1, 1]])


def test_adjacency_strict_at_radius():
    assert np.array_equal(dense_edges([[0.0, 0.0], [30.0, 0.0]], 30.0), [[1, 0], [0, 1]])


def test_adjacency_single_vehicle():
    src, dst = sg.edges_from_positions(np.array([[5.0, 5.0]]), 30.0)
    assert src.tolist() == [0] and dst.tolist() == [0]


def test_adjacency_symmetric_with_self_loops():
    rng = np.random.default_rng(0)
    dense = dense_edges(rng.uniform(-50, 50, size=(7, 2)), 40.0)
    assert np.array_equal(dense, dense.T)
    assert np.array_equal(np.diag(dense), np.ones(7))


def test_edges_match_adjacency():
    rng = np.random.default_rng(1)
    pos = rng.uniform(-60, 60, size=(6, 2))
    src, dst = sg.edges_from_positions(pos, 45.0)
    assert len(src) == len(set(zip(src.tolist(), dst.tolist())))  # no duplicate edges
    assert np.array_equal(dense_edges(pos, 45.0), oracles.dense_adjacency(pos, 45.0))


# Grid coordinates two steps apart sit exactly RADIUS apart along an axis;
# grid draws also give duplicate points and shared x or y values.
GRID = 7.5
RADIUS = 2 * GRID
COORD = st.one_of(
    st.integers(-4, 4).map(lambda k: k * GRID),
    st.floats(-40.0, 40.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def position_stacks(draw):
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 40)), 2)
    pos = draw(hnp.arrays(np.float64, shape, elements=COORD))
    # a far offset makes the sort key round; the band padding must absorb it
    return pos + draw(st.sampled_from([0.0, 1e6 + 0.1, -3.7e7]))


@settings(max_examples=80, deadline=None)
@given(position_stacks())
def test_stacked_edges_match_dense_adjacency(pos):
    t, n, _ = pos.shape
    src, dst = sg.edges_from_positions(pos, RADIUS)
    frame = dst // n
    assert np.array_equal(src // n, frame)
    assert (np.diff(frame) >= 0).all()
    for k in range(t):
        dense_dst, dense_src = np.nonzero(oracles.dense_adjacency(pos[k], RADIUS))
        assert np.array_equal(src[frame == k] - k * n, dense_src)
        assert np.array_equal(dst[frame == k] - k * n, dense_dst)


def test_band_padding_keeps_pairs_just_inside_radius():
    # a tall stack puts large frame offsets into the sort key, whose rounding
    # can push a pair just inside the radius out of an unpadded band
    rng = np.random.default_rng(0)
    pos = rng.uniform(-40, 40, size=(1000, 2, 2))
    pos[:, 1, 1] = pos[:, 0, 1]
    pos[:, 1, 0] = pos[:, 0, 0] + (RADIUS - rng.integers(1, 4, size=1000) * 1e-14)
    src, dst = sg.edges_from_positions(pos, RADIUS)
    diff = pos[:, 0] - pos[:, 1]
    near = np.flatnonzero(np.sqrt((diff**2).sum(axis=1)) < RADIUS)
    pairs = src != dst
    assert sorted(dst[pairs].tolist()) == sorted([2 * k for k in near] + [2 * k + 1 for k in near])
    assert np.array_equal(src[pairs] // 2, dst[pairs] // 2)


def test_single_frame_edges_are_intp_in_nonzero_order():
    pos = np.random.default_rng(3).uniform(-30, 30, size=(12, 2))
    src, dst = sg.edges_from_positions(pos, 20.0)
    dense_dst, dense_src = np.nonzero(oracles.dense_adjacency(pos, 20.0))
    assert src.dtype == dense_src.dtype == np.intp and dst.dtype == np.intp
    assert np.array_equal(src, dense_src) and np.array_equal(dst, dense_dst)


def test_non_finite_point_keeps_only_its_self_loop():
    pos = np.array([[0.0, 0.0], [np.nan, 1.0], [1.0, 0.0], [np.inf, 0.0]])
    dense = dense_edges(pos, 10.0)
    assert np.array_equal(dense, [[1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]])


def test_frame_edge_lists_split_the_stacked_build():
    positions = np.random.default_rng(4).uniform(-30, 30, size=(5, 6, 2))
    lists = sg.frame_edge_lists(positions, 25.0)
    assert len(lists) == 5
    for frame, (src, dst) in zip(positions, lists):
        want_src, want_dst = sg.edges_from_positions(frame, 25.0)
        assert np.array_equal(src, want_src) and np.array_equal(dst, want_dst)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "build",
    [
        lambda pos, cfg: sg.edges_from_positions(pos, cfg.radius),
        lambda pos, cfg: mt.collision_rate([pos[:, None, :]], cfg.collision_radius / 2.0),
    ],
    ids=["edges_from_positions", "collision_rate"],
)
def test_graph_build_memory_grows_linearly(build):
    # at fixed density a 4x larger scene must cost about 4x the memory;
    # a dense N x N build costs 16x
    cfg = md.desk_config()
    small, large = (pl.constant_density_frames(n, cfg)[0].positions for n in (1000, 4000))
    assert _peak_bytes(lambda: build(large, cfg)) < 6 * _peak_bytes(lambda: build(small, cfg))


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------


def test_embed_zero_inputs():
    w = ad.parameter(np.zeros((8, 4)))
    b = ad.parameter(np.zeros((1, 4)))
    out = sg.embed_features(ad.constant(make_frame([[0.0, 0.0]]).vehicles), w, b)
    assert np.array_equal(out.data, np.zeros((1, 4)))


def test_embed_matches_hand_computation():
    rng = np.random.default_rng(2)
    frame = make_frame(rng.uniform(-10, 10, (3, 2)), vel=rng.uniform(-5, 5, (3, 2)))
    w = ad.parameter(rng.standard_normal((8, 5)))
    b = ad.parameter(rng.standard_normal((1, 5)))
    out = sg.embed_features(ad.constant(frame.vehicles), w, b).data
    z = frame.vehicles @ w.data + b.data
    expected = np.where(z >= 0, z, np.expm1(z))
    assert np.allclose(out, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# attention: a one-head averaging layer outputs ELU(alpha @ (h W))
# ---------------------------------------------------------------------------


def one_head_layer(w, a):
    head = sg.GatHeadParams(w_s=ad.parameter(w), a=ad.parameter(a))
    return sg.GatLayerParams(heads=[head], combine="average")


def one_head_output(h, w, a, positions, radius):
    src, dst = sg.edges_from_positions(np.asarray(positions, dtype=np.float64), radius)
    return sg.gat_layer_edges(ad.constant(h), src, dst, one_head_layer(w, a)).data


def elu(z):
    return np.where(z >= 0, z, np.expm1(z))


def test_attention_singleton_is_one(rng):
    h = rng.standard_normal((1, 4))
    w = rng.standard_normal((4, 4))
    out = one_head_output(h, w, rng.standard_normal((8, 1)), [[0.0, 0.0]], 30.0)
    assert np.allclose(out, elu(h @ w), atol=1e-12)


def test_attention_uniform_when_a_zero(rng):
    h = rng.standard_normal((3, 4))
    w = rng.standard_normal((4, 4))
    out = one_head_output(h, w, np.zeros((8, 1)), [[0, 0], [1, 0], [2, 0]], 30.0)
    assert np.allclose(out, elu(np.tile((h @ w).mean(axis=0), (3, 1))), atol=1e-12)


def test_attention_matches_per_pair_formula(rng):
    # brute-force oracle: evaluate scores pair by pair with plain numpy
    n, d = 3, 4
    h = rng.standard_normal((n, d))
    w = rng.standard_normal((d, d))
    a = rng.standard_normal((2 * d, 1))
    out = one_head_output(h, w, a, [[0, 0], [1, 0], [2, 0]], 30.0)

    wh = h @ w
    scores = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            z = float(np.concatenate([wh[i], wh[j]]) @ a[:, 0])
            scores[i, j] = z if z >= 0 else 0.2 * z
    expected = np.exp(scores - scores.max(axis=1, keepdims=True))
    expected /= expected.sum(axis=1, keepdims=True)
    assert np.allclose(out, elu(expected @ wh), atol=1e-12)


def test_attention_rows_sum_to_one(rng):
    pos = rng.uniform(-20, 20, size=(5, 2))
    h = rng.standard_normal((5, 4))
    h[:, 0] = 1.0
    w = rng.standard_normal((4, 4))
    w[:, 0] = [1.0, 0.0, 0.0, 0.0]  # feature 0 of h W is 1 for every vehicle
    a = rng.standard_normal((8, 1))
    out = one_head_output(h, w, a, pos, 25.0)
    # the weights of each row sum to one exactly when feature 0 stays ELU(1) = 1
    assert np.allclose(out[:, 0], 1.0, atol=1e-12)
    # and they vanish outside the neighbourhood: the dense oracle agrees
    alpha = oracles.dense_attention(h, w, a, oracles.dense_adjacency(pos, 25.0))
    assert np.allclose(out, elu(alpha @ (h @ w)), atol=1e-12)


# ---------------------------------------------------------------------------
# layer forward
# ---------------------------------------------------------------------------


def layer_forward(h, positions, radius, layer, counter=None):
    src, dst = sg.edges_from_positions(np.asarray(positions, dtype=np.float64), radius)
    return sg.gat_layer_edges(h, src, dst, layer, counter)


def test_layer_identity_neighborhood(rng):
    # isolated nodes, W = I, nonnegative h: ELU passes values through
    h = np.abs(rng.standard_normal((3, 4)))
    layer = one_head_layer(np.eye(4), np.ones((8, 1)))
    out = layer_forward(ad.constant(h), [[0, 0], [100, 0], [200, 0]], 30.0, layer)
    assert np.allclose(out.data, h, atol=1e-12)


def test_layer_duplicate_heads_concat_halves_equal(rng):
    d = 4
    w = rng.standard_normal((d, 2))
    a = rng.standard_normal((4, 1))
    layer = sg.GatLayerParams(
        heads=[
            sg.GatHeadParams(w_s=ad.parameter(w.copy()), a=ad.parameter(a.copy())),
            sg.GatHeadParams(w_s=ad.parameter(w.copy()), a=ad.parameter(a.copy())),
        ],
        combine="concat",
    )
    h = ad.constant(rng.standard_normal((3, d)))
    out = layer_forward(h, [[0, 0], [5, 0], [9, 0]], 30.0, layer).data
    assert np.allclose(out[:, :2], out[:, 2:], atol=1e-12)


def test_layer_permutation_equivariance(rng):
    n, d = 5, 6
    pos = rng.uniform(-20, 20, size=(n, 2))
    h = rng.standard_normal((n, d))
    layer = random_layer(rng, d, 3, 2, "concat")
    perm = rng.permutation(n)

    out = layer_forward(ad.constant(h), pos, 25.0, layer).data
    out_p = layer_forward(ad.constant(h[perm]), pos[perm], 25.0, layer).data
    assert np.allclose(out_p, out[perm], atol=1e-10)


def test_layer_locality(rng):
    # vehicle 2 is outside every neighborhood of vehicle 0
    pos = np.array([[0.0, 0.0], [10.0, 0.0], [500.0, 0.0]])
    h1 = rng.standard_normal((3, 4))
    h2 = h1.copy()
    h2[2] += 7.0
    layer = random_layer(rng, 4, 4, 1, "average")
    out1 = layer_forward(ad.constant(h1), pos, 30.0, layer).data
    out2 = layer_forward(ad.constant(h2), pos, 30.0, layer).data
    assert np.array_equal(out1[0], out2[0])
    assert np.array_equal(out1[1], out2[1])


def test_work_counter_counts_edges_not_pairs(rng):
    pos = rng.uniform(0, 200, size=(12, 2))
    layer = random_layer(rng, 4, 4, 1, "average")
    counter = sg.WorkCounter()
    layer_forward(ad.constant(rng.standard_normal((12, 4))), pos, 30.0, layer, counter)
    assert counter.score_evals == int(oracles.dense_adjacency(pos, 30.0).sum())
    assert counter.all_pairs_equivalent == 12 * 12
    assert counter.score_evals < counter.all_pairs_equivalent


def test_layer_gradients(rng):
    store = ParameterStore()
    d = 3
    heads = [
        sg.GatHeadParams(
            w_s=store.add(f"h{k}/w", rng.standard_normal((d, d)) * 0.5),
            a=store.add(f"h{k}/a", rng.standard_normal((2 * d, 1)) * 0.5),
        )
        for k in range(2)
    ]
    layer = sg.GatLayerParams(heads=heads, combine="average")
    pos = [[0, 0], [8, 0], [16, 0]]
    h = ad.constant(rng.standard_normal((3, d)))
    err = grad_check(lambda: ad.sum_all(ad.square(layer_forward(h, pos, 30.0, layer))), store)
    assert err < 1e-6


@pytest.mark.parametrize("order", ["sorted", "shuffled"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("combine", ["concat", "average"])
def test_gat_fused_matches_unfused_and_central_differences(combine, k, order):
    rng = np.random.default_rng(100 * k + len(order))
    # two clusters plus two vehicles whose only edge is their self edge
    pos = np.concatenate([rng.uniform(0, 10, (3, 2)), rng.uniform(200, 210, (3, 2)), [[500.0, 0.0], [900.0, 0.0]]])
    n, d_in, d_out = len(pos), 5, 3
    src, dst = sg.edges_from_positions(pos, 30.0)
    assert np.array_equal(np.bincount(dst)[6:], [1, 1])
    if order == "shuffled":
        perm = rng.permutation(len(src))
        src, dst = src[perm], dst[perm]
    store = ParameterStore()
    h = store.add("h", rng.standard_normal((n, d_in)))
    heads = [
        sg.GatHeadParams(
            w_s=store.add(f"h{i}/w", rng.standard_normal((d_in, d_out))),
            a=store.add(f"h{i}/a", rng.standard_normal((2 * d_out, 1))),
        )
        for i in range(k)
    ]
    layer = sg.GatLayerParams(heads=heads, combine=combine)
    fused = lambda counter=None: sg.gat_layer_edges(h, src, dst, layer, counter)
    counters = sg.WorkCounter(), sg.WorkCounter()
    out = fused(counters[0])
    oracles.gat_layer(h, src, dst, layer, counters[1])
    assert counters[0] == counters[1] and counters[0].score_evals == k * len(src)
    assert out._parents == (h, *(t for head in heads for t in (head.w_s, head.a)))  # one node
    assert out.shape == (n, d_out * (k if combine == "concat" else 1))
    assert_matches_oracle(fused, lambda: oracles.gat_layer(h, src, dst, layer), store, seed=k)
    assert grad_check(lambda: ad.sum_all(ad.square(fused())), store, rng=rng) < 1e-6


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8))
def test_adjacency_matches_pairwise_scan(seed, n):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-50, 50, size=(n, 2))
    dense = dense_edges(pos, 35.0)
    for i in range(n):
        for j in range(n):
            expected = 1 if i == j else int(np.hypot(*(pos[i] - pos[j])) < 35.0)
            assert dense[i, j] == expected
