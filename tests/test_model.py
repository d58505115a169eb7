import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dprank.graph import WalkBatch, from_edges
from dprank.model import (ADAM_BETA1, ADAM_BETA2, ADAM_BLOCK, ADAM_EPS,
                          AdamState, WeightNormalizer, adam_step, adam_update,
                          batch_gradients, edge_loss, forward, full_objective,
                          init_params, spectral_norm, weight_normalize)
from dprank.privacy import compute_m

import oracles


def single_edge_batch(i, j):
    pairs = np.asarray([[i, j]], dtype=np.int64)
    return WalkBatch(pairs=pairs, batch_size=1, starts=np.asarray([i]))


def batch_of(pairs):
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return WalkBatch(pairs=arr, batch_size=len(arr), starts=arr[:, 0])


# ------------------------------------------------------------ parameters

def test_init_shapes():
    theta = init_params(4, 2, 3, 2, 0.1, np.random.default_rng(7))
    assert theta.v.shape == (4, 2)
    assert [w.shape for w in theta.w] == [(2, 3), (3, 3), (3, 1)]


def test_init_deterministic():
    a = init_params(5, 3, 2, 3, 0.1, np.random.default_rng(7))
    b = init_params(5, 3, 2, 3, 0.1, np.random.default_rng(7))
    assert np.array_equal(a.v, b.v)
    assert all(np.array_equal(x, y) for x, y in zip(a.w, b.w))


def test_init_zero_scale():
    theta = init_params(3, 2, 2, 1, 0.0, np.random.default_rng(0))
    assert not theta.v.any()
    assert not any(w.any() for w in theta.w)


def test_init_rejects_zero_dims():
    with pytest.raises(ValueError):
        init_params(0, 2, 2, 1, 0.1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        init_params(3, 2, 2, 0, 0.1, np.random.default_rng(0))


# --------------------------------------------------------- spectral norm

def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-9)


def test_spectral_norm_identity():
    assert spectral_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-9)


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((4, 4))) == 0.0


def test_spectral_norm_matches_svd(rng):
    for _ in range(25):
        w = rng.standard_normal((8, 8))
        top = np.linalg.svd(w, compute_uv=False)[0]
        assert spectral_norm(w) == pytest.approx(top, rel=1e-12)


def test_weight_normalize_diag():
    out = weight_normalize(np.diag([3.0, 1.0]), s=5.0)
    assert np.allclose(out, np.diag([0.2, 1.0 / 15.0]), atol=1e-9)


def test_weight_normalize_identity():
    assert np.allclose(weight_normalize(np.eye(4), s=2.0), 0.5 * np.eye(4))


def test_weight_normalize_spectral_norm_is_inverse_scale(rng):
    for s in (2.0, 5.0, 8.0):
        for _ in range(10):
            w = rng.standard_normal((6, 9))
            out = weight_normalize(w, s=s)
            assert np.linalg.svd(out, compute_uv=False)[0] == pytest.approx(
                1.0 / s, rel=1e-12)


def test_weight_normalize_rejects_zero_and_bad_scale():
    with pytest.raises(ValueError):
        weight_normalize(np.zeros((3, 3)), s=5.0)
    with pytest.raises(ValueError):
        weight_normalize(np.eye(3), s=1.0)


def test_weight_normalizer_exact_under_perturbation(rng):
    # the reference shapes (depth 9, r=128, d=64), each layer nudged between
    # calls as an optimizer step would: the bound ||W_l||_2 <= 1/s must hold
    # up to rounding after every call
    s = 8.0
    theta = init_params(4, 128, 64, 9, 0.1, rng)
    norm = WeightNormalizer(s=s)
    for _ in range(30):
        norm.normalize_(theta)
        for w in theta.w:
            assert np.linalg.svd(w, compute_uv=False)[0] <= (1.0 / s) * (1 + 1e-12)
        theta.w = [w + 1e-3 * rng.standard_normal(w.shape) for w in theta.w]


# ---------------------------------------------------------------- forward

def test_forward_zero_theta_is_half():
    theta = init_params(3, 2, 2, 2, 0.0, np.random.default_rng(0))
    assert forward(theta, 0) == pytest.approx(0.5, abs=1e-15)


def test_forward_in_unit_interval(rng):
    for _ in range(40):
        theta = init_params(5, 3, 4, int(rng.integers(1, 4)),
                            float(rng.uniform(0.01, 2.0)), rng)
        for node in range(5):
            assert 0.0 < forward(theta, node) < 1.0


def test_forward_scalar_chain_oracle(rng):
    # N=2, r=1, d=1, L=1: f = sigmoid(w2 * sigmoid(v * w1))
    theta = init_params(2, 1, 1, 1, 0.5, rng)
    v, w1, w2 = theta.v[0, 0], theta.w[0][0, 0], theta.w[1][0, 0]

    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    assert forward(theta, 0) == pytest.approx(sig(w2 * sig(v * w1)), abs=1e-12)


def test_forward_node_out_of_range(rng):
    theta = init_params(3, 2, 2, 1, 0.1, rng)
    with pytest.raises(IndexError):
        forward(theta, 3)


# ------------------------------------------------------------- edge loss

def test_edge_loss_requires_edge(two_cycle, rng):
    theta = init_params(2, 2, 2, 1, 0.1, rng)
    with pytest.raises(ValueError):
        edge_loss(theta, 0, 0, two_cycle, 0.85)


def test_edge_loss_equal_ratio_leaves_only_constant_term(rng):
    # d_out(0) = 4, d_in(5) = 5, gamma = 0.8: with f(v_0) = f(v_5) the first
    # two terms cancel exactly and only (1-gamma)^2 / (d_in N^2) remains.
    edges = [(0, 1), (0, 2), (0, 3), (0, 5),
             (1, 5), (2, 5), (3, 5), (4, 5)]
    g = from_edges(6, edges)
    assert g.out_degree[0] == 4 and g.in_degree[5] == 5
    theta = init_params(6, 3, 2, 2, 0.3, rng)
    theta.v[5] = theta.v[0]
    gamma = 0.8
    expected = (1 - gamma) ** 2 / (g.in_degree[5] * 6**2)
    assert edge_loss(theta, 0, 5, g, gamma) == pytest.approx(expected, abs=1e-15)


def test_edge_loss_third_term_hand_value(two_cycle, rng):
    # N=2, d_in=1, gamma=0.85: the constant term is 0.0225/4 = 0.005625;
    # subtracting the first two terms recomputed by hand must leave exactly it.
    theta = init_params(2, 2, 2, 1, 0.2, rng)
    gamma = 0.85
    fi, fj = forward(theta, 0), forward(theta, 1)
    u = fi / 1 - fj / (1 * gamma)
    first_two = 1 * gamma**2 * u**2 + u * 2 * gamma * (1 - gamma) / 2
    loss = edge_loss(theta, 0, 1, two_cycle, gamma)
    assert loss - first_two == pytest.approx(0.005625, abs=1e-12)


def test_edge_loss_matches_reference(rng):
    from conftest import random_graph
    for _ in range(30):
        g = random_graph(rng, max_nodes=12)
        theta = init_params(g.num_nodes, 3, 3, 2, 0.4, rng)
        gamma = float(rng.uniform(0.1, 0.95))
        u, v = g.edges[rng.integers(g.num_edges)]
        expected = oracles.edge_loss_reference(
            forward(theta, int(u)), forward(theta, int(v)),
            g.out_degree[u], g.in_degree[v], gamma, g.num_nodes)
        assert edge_loss(theta, int(u), int(v), g, gamma) == pytest.approx(
            expected, abs=1e-12)


# --------------------------------------------------------- full objective

def test_full_objective_edgeless_hand_value():
    g = from_edges(2, [])
    theta = init_params(2, 2, 2, 1, 0.0, np.random.default_rng(0))
    # every node contributes ((1-gamma)/N - 0.5)^2 = (0.075 - 0.5)^2
    assert full_objective(theta, g, 0.85) == pytest.approx(0.36125, abs=1e-12)


def test_full_objective_single_edge_symbolic(rng):
    g = from_edges(2, [(0, 1)])
    theta = init_params(2, 2, 3, 2, 0.3, rng)
    gamma = 0.85
    f0, f1 = forward(theta, 0), forward(theta, 1)
    expected = ((1 - gamma) / 2 - f0) ** 2 + \
               (gamma * f0 + (1 - gamma) / 2 - f1) ** 2
    assert full_objective(theta, g, gamma) == pytest.approx(expected, abs=1e-12)


def test_edge_sum_dominates_restricted_objective(rng):
    # upper bound from the per-edge decomposition, restricted to nodes with
    # at least one predecessor (in-degree-0 nodes have no edge counterpart)
    from conftest import random_graph
    for _ in range(25):
        g = random_graph(rng, max_nodes=15)
        theta = init_params(g.num_nodes, 3, 3, int(rng.integers(1, 4)), 0.4, rng)
        gamma = float(rng.uniform(0.1, 0.95))
        edge_sum = sum(edge_loss(theta, int(u), int(v), g, gamma)
                       for u, v in g.edges)
        f = np.array([forward(theta, i) for i in range(g.num_nodes)])
        zero_in = g.in_degree == 0
        slack = np.sum(((1 - gamma) / g.num_nodes - f[zero_in]) ** 2)
        restricted = full_objective(theta, g, gamma) - slack
        assert edge_sum >= restricted - 1e-9 * max(1.0, abs(restricted))


# -------------------------------------------------------------- gradients

def finite_difference_gradients(theta, batch, g, gamma, h=1e-6):
    """Central differences of the summed per-edge loss, parameter by parameter."""

    def batch_loss(t):
        return sum(edge_loss(t, int(i), int(j), g, gamma)
                   for i, j in batch.pairs)

    grad_v = np.zeros_like(theta.v)
    for idx in np.ndindex(theta.v.shape):
        t = theta.copy()
        t.v[idx] += h
        up = batch_loss(t)
        t.v[idx] -= 2 * h
        down = batch_loss(t)
        grad_v[idx] = (up - down) / (2 * h)
    grad_w = []
    for layer in range(len(theta.w)):
        gw = np.zeros_like(theta.w[layer])
        for idx in np.ndindex(gw.shape):
            t = theta.copy()
            t.w[layer][idx] += h
            up = batch_loss(t)
            t.w[layer][idx] -= 2 * h
            down = batch_loss(t)
            gw[idx] = (up - down) / (2 * h)
        grad_w.append(gw)
    return grad_v, grad_w


def relative_error(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / scale


def gradient_relative_error(gv, gw, fv, fw):
    """Discrepancy relative to the scale of the whole gradient vector.

    Individual tensors can carry gradients far below the finite-difference
    noise floor (central differences at h=1e-6 resolve to roughly 1e-11
    absolute); measuring against the full gradient keeps the check meaningful
    there without loosening it where the gradient actually lives.
    """
    analytic = np.concatenate([gv.ravel()] + [w.ravel() for w in gw])
    numeric = np.concatenate([fv.ravel()] + [w.ravel() for w in fw])
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return np.abs(analytic - numeric).max() / scale


def test_gradients_match_finite_differences(rng):
    from conftest import random_graph
    for _ in range(10):
        g = random_graph(rng, max_nodes=6)
        theta = init_params(g.num_nodes, 2, 3, int(rng.integers(1, 3)), 0.4, rng)
        gamma = float(rng.uniform(0.2, 0.9))
        k = int(rng.integers(1, min(4, g.num_edges) + 1))
        pairs = g.edges[rng.choice(g.num_edges, size=k, replace=False)]
        batch = batch_of(pairs)
        gv, gw = batch_gradients(theta, batch, g, gamma)
        fv, fw = finite_difference_gradients(theta, batch, g, gamma)
        assert gradient_relative_error(gv, gw, fv, fw) < 1e-5


def test_gradient_zero_outside_batch_rows(rng):
    g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    theta = init_params(5, 3, 2, 1, 0.3, rng)
    gv, _ = batch_gradients(theta, single_edge_batch(1, 2), g, 0.85)
    assert gv[0].any() is np.False_ or not gv[0].any()
    assert not gv[3].any() and not gv[4].any()
    assert gv[1].any() and gv[2].any()


def test_empty_batch_gives_zero_gradients(two_cycle, rng):
    theta = init_params(2, 2, 2, 1, 0.1, rng)
    empty = WalkBatch(pairs=np.empty((0, 2), dtype=np.int64), batch_size=0,
                      starts=np.asarray([0]))
    gv, gw = batch_gradients(theta, empty, two_cycle, 0.85)
    assert not gv.any()
    assert not any(w.any() for w in gw)


def test_repeated_edge_scales_gradient_exactly(two_cycle, rng):
    theta = init_params(2, 3, 2, 2, 0.3, rng)
    gv1, gw1 = batch_gradients(theta, single_edge_batch(0, 1), two_cycle, 0.85)
    # powers of two keep the scaling bit-exact
    for k in (2, 4):
        batch = batch_of([[0, 1]] * k)
        gvk, gwk = batch_gradients(theta, batch, two_cycle, 0.85)
        assert np.array_equal(gvk, k * gv1)
        for a, b in zip(gwk, gw1):
            assert np.array_equal(a, k * b)


def test_per_edge_gradient_respects_depth_bound(rng):
    # spot check of the normalized-gradient bound; the acceptance suite runs
    # the full 1000-trial sweep
    from conftest import random_graph
    for _ in range(50):
        g = random_graph(rng, max_nodes=30)
        depth = int(rng.integers(1, 4))
        s = float(rng.choice([2.0, 5.0, 8.0]))
        theta = init_params(g.num_nodes, 4, 4, depth, 1.0, rng)
        WeightNormalizer(s).normalize_(theta)
        gamma = float(rng.uniform(0.1, 0.95))
        u, v = g.edges[rng.integers(g.num_edges)]
        gv, _ = batch_gradients(theta, single_edge_batch(int(u), int(v)), g, gamma)
        bound = compute_m(g.num_nodes, gamma) * (1.0 / s) ** (depth + 1)
        assert np.linalg.norm(gv) <= bound


def test_network_gradient_bounded_by_spectral_norm_product(rng):
    # row gradient of the network output vs the product of layer norms
    for _ in range(20):
        theta = init_params(4, 3, 3, int(rng.integers(1, 4)), 0.8, rng)
        product = 1.0
        for w in theta.w:
            product *= np.linalg.svd(w, compute_uv=False)[0]
        h = 1e-6
        node = int(rng.integers(4))
        grad = np.zeros(3)
        for k in range(3):
            t = theta.copy()
            t.v[node, k] += h
            up = forward(t, node)
            t.v[node, k] -= 2 * h
            down = forward(t, node)
            grad[k] = (up - down) / (2 * h)
        assert np.linalg.norm(grad) <= product + 1e-6


# ------------------------------------------------------------------- adam

def test_adam_zero_gradient_keeps_params():
    params = [np.ones((2, 2))]
    before = params[0].copy()
    state = AdamState.for_params(params)
    out = adam_step(state, params, [np.zeros((2, 2))], eta=0.1)
    assert out[0] is params[0]  # updated in place
    assert np.array_equal(out[0], before)


def test_adam_first_step_magnitude():
    params = [np.zeros(4)]
    state = AdamState.for_params(params)
    grad = np.array([1.0, -2.0, 0.5, 10.0])
    out = adam_step(state, params, [grad], eta=1e-3)
    # bias-corrected first step moves each coordinate by ~eta against the sign
    assert np.allclose(np.abs(out[0]), 1e-3, rtol=1e-4)
    assert np.array_equal(np.sign(out[0]), -np.sign(grad))


def test_adam_two_runs_identical(rng):
    grads = [rng.standard_normal((3, 2)) for _ in range(5)]

    def run():
        params = [np.full((3, 2), 0.3)]
        state = AdamState.for_params(params)
        for g_arr in grads:
            params = adam_step(state, params, [g_arr], eta=0.01)
        return params[0]

    assert np.array_equal(run(), run())


def test_adam_matches_reference_across_blocks(rng):
    # V spans several blocks with a partial last one; the weights fit in one
    shapes = [(3 * ADAM_BLOCK // 130 + 7, 130), (130, 5), (5, 1)]
    params = [rng.standard_normal(s) for s in shapes]
    grads_per_step = [[10.0 ** rng.integers(-12, 3) * rng.standard_normal(s)
                       for s in shapes] for _ in range(4)]
    expected = oracles.adam_reference(params, grads_per_step, 1e-3, ADAM_BETA1,
                                      ADAM_BETA2, ADAM_EPS)
    state = AdamState.for_params(params)
    for grads in grads_per_step:
        adam_step(state, params, grads, eta=1e-3)
    for got, want in zip(params, expected):
        assert np.array_equal(got, want)


def test_adam_update_on_gathered_rows_matches_whole_array(rng):
    # Adam is element-wise: the rows redone from their saved state, on the
    # gradient divided inside the update, get the bits of a whole-array step
    shape = (2 * ADAM_BLOCK // 16 + 3, 16)
    p, m, v = (rng.standard_normal(shape) for _ in range(3))
    v = np.abs(v)
    grad = rng.standard_normal(shape) * 1e3
    rows = np.array([0, 5, shape[0] - 1])
    whole = AdamState(m=[m.copy()], v=[v.copy()], step=6)
    expected = adam_step(whole, [p.copy()], [grad / 240], eta=1e-3)[0]
    split = [p.copy(), m.copy(), v.copy()]
    saved = [a[rows] for a in split]
    adam_update(split[1], split[2], split[0], grad, 7, 1e-3, divisor=240)
    row_state = AdamState(m=[saved[1]], v=[saved[2]], step=6)
    adam_step(row_state, [saved[0]], [grad[rows] / 240], eta=1e-3)
    for full, part in zip(split, saved):
        full[rows] = part
    assert np.array_equal(split[0], expected)
    assert np.array_equal(split[1], whole.m[0])
    assert np.array_equal(split[2], whole.v[0])


def test_adam_step_on_no_rows():
    # an empty batch touches no row of V; its row update is a no-op step
    state = AdamState(m=[np.zeros((0, 4))], v=[np.zeros((0, 4))], step=2)
    (out,) = adam_step(state, [np.zeros((0, 4))], [np.zeros((0, 4))], eta=0.1)
    assert out.shape == (0, 4) and state.step == 3


def test_adam_shape_mismatch():
    params = [np.zeros((2, 2))]
    state = AdamState.for_params(params)
    with pytest.raises(ValueError):
        adam_step(state, params, [np.zeros(3)], eta=0.1)
    with pytest.raises(ValueError):
        adam_step(state, params, [], eta=0.1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_forward_many_agrees_with_forward(seed):
    from dprank.model import forward_many
    gen = np.random.default_rng(seed)
    theta = init_params(4, 2, 3, 2, 0.5, gen)
    batch = forward_many(theta, np.arange(4))
    singles = [forward(theta, i) for i in range(4)]
    assert np.allclose(batch, singles, atol=1e-15)
