"""Unit tests for the reverse-mode engine: forward values against hand
arithmetic, gradients against central differences."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fcw.autodiff as ad
from fcw.optim import ParameterStore, grad_check

from conftest import assert_matches_oracle

import oracles


def check_op(build, n_params, shapes, seed=0, tol=1e-6):
    """Gradient-check a scalar reduction of an op over random inputs."""
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    params = [store.add(f"p{i}", rng.standard_normal(shapes[i])) for i in range(n_params)]
    err = grad_check(lambda: ad.sum_all(build(*params)), store, rng=rng)
    assert err < tol, f"gradient error {err}"


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------


def test_linear_identity_input():
    x = ad.constant(np.eye(2))
    w = ad.parameter([[1.0, 2.0], [3.0, 4.0]])
    out = ad.linear(x, w)
    assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_linear_with_bias():
    x = ad.constant([[1.0, 1.0]])
    w = ad.parameter([[1.0, 0.0], [0.0, 1.0]])
    b = ad.parameter([[5.0, 5.0]])
    out = ad.linear(x, w, b)
    assert np.array_equal(out.data, [[6.0, 6.0]])


def test_linear_zero_input():
    x = ad.constant(np.zeros((3, 4)))
    w = ad.parameter(np.random.default_rng(0).standard_normal((4, 5)))
    b = ad.parameter(np.zeros((1, 5)))
    assert np.array_equal(ad.linear(x, w, b).data, np.zeros((3, 5)))


def test_linear_identity_weight_is_identity():
    rng = np.random.default_rng(3)
    x = ad.constant(rng.standard_normal((4, 6)))
    out = ad.linear(x, ad.constant(np.eye(6)))
    assert np.allclose(out.data, x.data)


def test_linear_shape_mismatch_names_shapes():
    x = ad.constant(np.zeros((2, 3)))
    w = ad.parameter(np.zeros((4, 5)))
    with pytest.raises(ad.ShapeMismatchError, match=r"3"):
        ad.linear(x, w)


def test_softmax_symmetric_row():
    out = oracles.softmax_rows(ad.constant([[0.0, 0.0]]))
    assert np.allclose(out.data, [[0.5, 0.5]])


def test_softmax_hand_value():
    out = oracles.softmax_rows(ad.constant([[np.log(1.0), np.log(3.0)]]))
    assert np.allclose(out.data, [[0.25, 0.75]])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    out = oracles.softmax_rows(ad.constant(rng.standard_normal((5, 9))))
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 4))
    a = oracles.softmax_rows(ad.constant(x)).data
    b = oracles.softmax_rows(ad.constant(x + 123.0)).data
    assert np.allclose(a, b, atol=1e-12)


def test_softmax_large_values_stable():
    out = oracles.softmax_rows(ad.constant([[1000.0, 1000.0]]))
    assert np.allclose(out.data, [[0.5, 0.5]])


def test_activation_values():
    x = ad.constant([[-1.0, 0.0, 1.0]])
    assert np.allclose(oracles.leaky_relu(x, 0.2).data, [[-0.2, 0.0, 1.0]])
    assert np.allclose(oracles.sigmoid(ad.constant([[0.0]])).data, [[0.5]])
    assert np.allclose(ad.elu(x).data, [[np.expm1(-1.0), 0.0, 1.0]])
    assert np.allclose(oracles.tanh(ad.constant([[0.0]])).data, [[0.0]])


def test_edge_softmax_groups_by_destination():
    # two destination groups: node 0 gets edges {0,1}, node 1 gets edge {2}
    scores = ad.constant([[0.0], [0.0], [5.0]])
    dst = np.array([0, 0, 1])
    alpha = oracles.edge_softmax(scores, dst, 2)
    assert np.allclose(alpha.data, [[0.5], [0.5], [1.0]])


def test_edge_softmax_matches_dense_softmax():
    rng = np.random.default_rng(5)
    n = 4
    src, dst = np.meshgrid(np.arange(n), np.arange(n))
    src, dst = src.ravel(), dst.ravel()
    scores = rng.standard_normal((n * n, 1))
    alpha = oracles.edge_softmax(ad.constant(scores), dst, n)
    dense = oracles.softmax_rows(ad.constant(scores.reshape(n, n)))
    assert np.allclose(alpha.data.reshape(n, n), dense.data, atol=1e-12)


@pytest.mark.parametrize("order", ["sorted", "shuffled", "empty"])
def test_edge_aggregate_matches_scatter_add(order):
    rng = np.random.default_rng(8)
    n, d = 7, 3
    # nodes 2 and 5 receive no edges; node 0 receives the most
    dst = np.sort(rng.choice([0, 0, 1, 3, 4, 6], size=25))
    if order == "shuffled":
        dst = rng.permutation(dst)
    elif order == "empty":
        dst = dst[:0]
    alpha = rng.uniform(0.1, 1.0, size=(len(dst), 1))
    msgs = rng.standard_normal((len(dst), d))
    incidence = (dst[None, :] == np.arange(n)[:, None]).astype(np.float64)  # (n, E)
    want = incidence @ (alpha * msgs)
    got = oracles.edge_aggregate(ad.constant(alpha), ad.constant(msgs), dst, n).data
    assert got.shape == (n, d)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def test_block_matmul_matches_dense_blocks():
    rng = np.random.default_rng(6)
    block, nblocks, d = 3, 2, 4
    q = rng.standard_normal((block * nblocks, d))
    k = rng.standard_normal((block * nblocks, d))
    out = oracles.block_matmul_nt(ad.constant(q), ad.constant(k), block).data
    for b in range(nblocks):
        sl = slice(b * block, (b + 1) * block)
        assert np.allclose(out[sl], q[sl] @ k[sl].T)


# ---------------------------------------------------------------------------
# gradients: every differentiable op against central differences
# ---------------------------------------------------------------------------


def test_grad_add():
    check_op(lambda a, b: ad.add(a, b), 2, [(3, 4), (3, 4)])


def test_grad_add_row_broadcast():
    check_op(lambda a, b: ad.add(a, b), 2, [(3, 4), (1, 4)])


def test_grad_sub_mul():
    check_op(lambda a, b: ad.mul(ad.sub(a, b), a), 2, [(2, 3), (2, 3)])


def test_grad_matmul():
    check_op(lambda a, b: ad.matmul(a, b), 2, [(3, 4), (4, 2)])


def test_grad_linear():
    check_op(lambda x, w, b: ad.linear(x, w, b), 3, [(3, 4), (4, 2), (1, 2)])


def test_linear_with_bias_is_one_node_matching_matmul_plus_add():
    rng = np.random.default_rng(21)
    store = ParameterStore()
    x = store.add("x", rng.standard_normal((5, 4)))
    w = store.add("w", rng.standard_normal((4, 3)))
    b = store.add("b", rng.standard_normal((1, 3)))
    assert ad.linear(x, w, b)._parents == (x, w, b)
    assert_matches_oracle(lambda: ad.linear(x, w, b), lambda: oracles.linear(x, w, b), store)


def test_grad_activations():
    for fn in (oracles.sigmoid, oracles.tanh, ad.elu, lambda x: oracles.leaky_relu(x, 0.2)):
        check_op(lambda a, f=fn: f(a), 1, [(3, 3)], seed=11)


def test_grad_square_sqrt():
    check_op(lambda a: ad.sqrt(ad.square(a)), 1, [(2, 5)], seed=12)


def test_grad_maximum():
    check_op(lambda a, b: ad.maximum(a, b), 2, [(3, 3), (3, 3)], seed=13)


def test_grad_softmax():
    check_op(lambda a: ad.mul(oracles.softmax_rows(a), a), 1, [(4, 4)], seed=14)


def test_grad_concat_gather():
    idx = np.array([2, 0, 1, 2])

    def build(a, b):
        cat = oracles.concat_cols([a, b])
        return ad.gather_rows(cat, idx)

    check_op(build, 2, [(3, 2), (3, 2)], seed=16)


def test_grad_rows_slice():
    check_op(lambda a: ad.rows(a, 1, 3), 1, [(4, 3)], seed=17)


def test_grad_edge_softmax_aggregate():
    n = 3
    src = np.array([0, 1, 2, 0, 2, 1])
    dst = np.array([0, 0, 0, 1, 1, 2])

    def build(h, a):
        msgs = ad.gather_rows(h, src)
        scores = ad.matmul(msgs, a)
        alpha = oracles.edge_softmax(scores, dst, n)
        return oracles.edge_aggregate(alpha, msgs, dst, n)

    check_op(build, 2, [(3, 4), (4, 1)], seed=18)


def test_grad_block_matmul():
    def build(q, k, v):
        att = oracles.softmax_rows(oracles.block_matmul_nt(q, k, 2))
        return oracles.block_matmul_nn(att, v, 2)

    check_op(build, 3, [(4, 3), (4, 3), (4, 3)], seed=19)


def test_grad_mean_all_affine():
    check_op(lambda a: ad.affine(ad.mean_all(a), 2.0, 1.0), 1, [(3, 5)], seed=20)


def test_backward_accumulates_through_shared_node():
    # diamond: y = (x + x) * x; dy/dx = 4x
    store = ParameterStore()
    x = store.add("x", [[3.0]])
    y = ad.mul(ad.add(x, x), x)
    y.backward()
    assert np.allclose(x.grad, [[12.0]])


def test_accumulate_never_aliases_a_shared_gradient():
    # add hands one gradient array to both parents; accumulating a second
    # backward into one parent must not change the other's gradient
    store = ParameterStore()
    x = store.add("x", [[1.0, 2.0]])
    y = store.add("y", [[3.0, 4.0]])
    c = ad.constant([[5.0, 7.0]])
    for _ in range(2):
        ad.sum_all(ad.mul(ad.add(x, y), c)).backward()
    assert np.array_equal(x.grad, [[10.0, 14.0]])
    assert np.array_equal(y.grad, [[10.0, 14.0]])
    # the seed is copied too: the root's gradient is not the caller's array
    seed = np.ones((1, 2))
    z = ad.add(x, y)
    z.backward(seed)
    z.grad += 1.0
    assert np.array_equal(seed, np.ones((1, 2)))


def test_backward_requires_scalar_without_seed():
    x = ad.parameter([[1.0, 2.0]])
    with pytest.raises(ad.ShapeMismatchError):
        ad.add(x, x).backward()


def test_deep_chain_backward_is_iterative():
    # deep graphs must not hit the recursion limit
    store = ParameterStore()
    x = store.add("x", [[1.0]])
    y = x
    for _ in range(5000):
        y = ad.affine(y, 1.0, 0.0)
    ad.sum_all(y).backward()
    assert np.allclose(x.grad, [[1.0]])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_softmax_rows_property(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 5)) * rng.uniform(0.1, 30)
    out = oracles.softmax_rows(ad.constant(x)).data
    assert np.all(out >= 0)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
