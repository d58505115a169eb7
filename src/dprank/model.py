"""Deep PageRank network: parameters, spectral-norm weight normalization,
forward evaluation, per-edge loss, full objective, analytic gradients, Adam."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, WalkBatch


def _sigmoid(x):
    # tanh form: no branch, and no overflow for any finite x
    return 0.5 * (1.0 + np.tanh(0.5 * x))


@dataclass
class Theta:
    """Learnable parameters: embeddings V (N x r) and weights W_1..W_{L+1}.

    Weight shapes are r x d, then L-1 square d x d blocks, then d x 1.
    """

    v: np.ndarray
    w: list

    def copy(self) -> "Theta":
        return Theta(self.v.copy(), [w.copy() for w in self.w])


def init_params(n: int, r: int, d: int, num_layers: int, scale: float,
                rng: np.random.Generator) -> Theta:
    """Draw all parameters i.i.d. uniform on [-scale, scale]."""
    if min(n, r, d, num_layers) < 1:
        raise ValueError("all dimensions must be >= 1")
    shapes = [(r, d)] + [(d, d)] * (num_layers - 1) + [(d, 1)]
    v = rng.uniform(-scale, scale, size=(n, r))
    w = [rng.uniform(-scale, scale, size=s) for s in shapes]
    return Theta(v=v, w=w)


def spectral_norm(w) -> float:
    """Largest singular value of ``w``: the square root of the largest
    eigenvalue of the smaller Gram matrix, which agrees with the SVD to about
    1e-15 relative at a lower cost; 0 for an all-zero matrix."""
    w = np.asarray(w, dtype=np.float64)
    gram = w.T @ w if w.shape[0] >= w.shape[1] else w @ w.T
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))


def weight_normalize(w, s: float) -> np.ndarray:
    """Rescale ``w`` to W / (s * ||W||_2), i.e. spectral norm 1/s up to
    rounding."""
    if s <= 1.0:
        raise ValueError("normalization scale s must exceed 1")
    sigma = spectral_norm(w)
    if sigma == 0.0:
        raise ValueError("cannot normalize an all-zero weight matrix")
    return np.asarray(w, dtype=np.float64) / (s * sigma)


class WeightNormalizer:
    """Rescales every layer of a Theta in place to spectral norm 1/s.

    Stateless: each call takes the exact norm of the current weights, so the
    bound ||W_l||_2 <= 1/s that the sensitivity analysis needs holds after
    every call up to rounding, with nothing to checkpoint."""

    def __init__(self, s: float):
        if s <= 1.0:
            raise ValueError("normalization scale s must exceed 1")
        self.s = s

    def normalize_(self, theta: Theta) -> Theta:
        for idx, w in enumerate(theta.w):
            theta.w[idx] = weight_normalize(w, self.s)
        return theta


def _forward_cached(v_rows: np.ndarray, w: list):
    """Forward pass for the embedding rows ``v_rows``, keeping every layer's
    input and the final output: ``post[0]`` is ``v_rows``, ``post[l]`` the
    sigmoid output of layer l."""
    a = v_rows
    post = [a]
    for wl in w:
        a = _sigmoid(a @ wl)
        post.append(a)
    return a[:, 0], post


def forward(theta: Theta, node: int) -> float:
    """Evaluate f(v_node; Theta). The sigmoid output lies in [0, 1]."""
    n = theta.v.shape[0]
    if not 0 <= node < n:
        raise IndexError(f"node {node} out of range for N={n}")
    out, _ = _forward_cached(theta.v[[node]], theta.w)
    return float(out[0])


def forward_many(theta: Theta, nodes) -> np.ndarray:
    nodes = np.asarray(nodes, dtype=np.int64)
    out, _ = _forward_cached(theta.v[nodes], theta.w)
    return out


def edge_loss(theta: Theta, i: int, j: int, g: Graph, gamma: float) -> float:
    """Per-edge objective for edge (i, j).

    With u = f(v_i)/d_i^out - f(v_j)/(d_j^in * gamma), the loss is
    d_j^in * gamma^2 * u^2 + u * 2*gamma*(1-gamma)/N + (1-gamma)^2/(d_j^in * N^2).
    """
    if not g.has_edge(i, j):
        raise ValueError(f"({i}, {j}) is not an edge; edge_loss is defined on edges only")
    n = g.num_nodes
    d_out = g.out_degree[i]
    d_in = g.in_degree[j]
    fi = forward(theta, i)
    fj = forward(theta, j)
    u = fi / d_out - fj / (d_in * gamma)
    return float(d_in * gamma**2 * u**2
                 + u * 2.0 * gamma * (1.0 - gamma) / n
                 + (1.0 - gamma)**2 / (d_in * n**2))


def full_objective(theta: Theta, g: Graph, gamma: float) -> float:
    """Whole-graph objective: sum_j (gamma * sum_{i in P_j} f_i/d_i^out
    + (1-gamma)/N - f_j)^2 over every node j."""
    n = g.num_nodes
    f = forward_many(theta, np.arange(n))
    src, dst = g.edges[:, 0], g.edges[:, 1]
    incoming = np.bincount(dst, weights=(f / np.maximum(g.out_degree, 1))[src],
                           minlength=n)
    pred = gamma * incoming + (1.0 - gamma) / n
    return float(np.sum((pred - f) ** 2))


def touched_nodes(batch: WalkBatch):
    """``(nodes, inverse)``: the sorted distinct nodes U of the batch's pairs
    and each pair endpoint's index into U, as ``pairs.ravel()`` lists them.
    The loss touches V only in the rows of U."""
    return np.unique(batch.pairs.ravel(), return_inverse=True)


def _loss_and_gradients(v_rows: np.ndarray, w: list, batch: WalkBatch,
                        inverse: np.ndarray, g: Graph, gamma: float):
    """Batch loss plus exact analytic gradients wrt the rows V[U] and every
    W_l, from ``v_rows`` = V[U] and ``(U, inverse)`` = :func:`touched_nodes`.

    Returns ``(loss, grad_rows, grad_w)``; row k of ``grad_rows`` is the
    gradient wrt V[U[k]], and every other row of V has gradient 0. Gradients
    are taken through the weights ``w`` as given (already normalized). The
    loss touches node u only through f(v_u), so a single weighted backward
    pass per unique node gives both the V rows and the summed weight
    gradients.
    """
    grad_w = [np.zeros_like(wl) for wl in w]
    pairs = batch.pairs
    if len(pairs) == 0:
        return 0.0, np.zeros_like(v_rows), grad_w

    n = g.num_nodes
    i_idx, j_idx = pairs[:, 0], pairs[:, 1]
    inv_i, inv_j = inverse[0::2], inverse[1::2]

    f, post = _forward_cached(v_rows, w)
    fi, fj = f[inv_i], f[inv_j]

    d_out = g.out_degree[i_idx].astype(np.float64)
    d_in = g.in_degree[j_idx].astype(np.float64)
    u = fi / d_out - fj / (d_in * gamma)
    loss = float(np.sum(d_in * gamma**2 * u**2
                        + u * 2.0 * gamma * (1.0 - gamma) / n
                        + (1.0 - gamma)**2 / (d_in * n**2)))

    # dL/df for each edge endpoint, scattered into a per-unique-node weight
    c = 2.0 * d_in * gamma**2 * u + 2.0 * gamma * (1.0 - gamma) / n
    coef = np.zeros(len(v_rows))
    np.add.at(coef, inv_i, c / d_out)
    np.add.at(coef, inv_j, -c / (d_in * gamma))

    # weighted reverse pass shared by all edges; sigmoid'(z) = a (1 - a)
    # with a = sigmoid(z), the layer's cached output
    delta = coef[:, None] * (post[-1] * (1.0 - post[-1]))
    for layer in range(len(w) - 1, -1, -1):
        grad_w[layer] = post[layer].T @ delta
        if layer > 0:
            a = post[layer]
            delta = (delta @ w[layer].T) * (a * (1.0 - a))
    return loss, delta @ w[0].T, grad_w


def batch_gradients(theta: Theta, batch: WalkBatch, g: Graph, gamma: float):
    """Exact gradients of the summed per-edge loss over ``batch``.

    Returns (grad_V, [grad_W_1, ..., grad_W_{L+1}]); grad_V is dense and
    nonzero only on rows of nodes appearing in the batch. An empty batch
    yields zeros.
    """
    nodes, inverse = touched_nodes(batch)
    _, grad_rows, grad_w = _loss_and_gradients(theta.v[nodes], theta.w, batch,
                                               inverse, g, gamma)
    grad_v = np.zeros_like(theta.v)
    grad_v[nodes] = grad_rows
    return grad_v, grad_w


# the defaults of Kingma & Ba (2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# elements of a parameter that adam_update updates per block: 128 KB of
# float64 per scratch block, 128 rows of a 128-wide V. 2^16-element blocks
# make a quarter of the numpy calls, each of which the noise worker's update
# of V makes under the GIL, and trained synth-wide about 4% faster, but
# raised the peak RSS of training by about 1 MB (2 CPUs, one BLAS thread)
ADAM_BLOCK = 1 << 14


@dataclass
class AdamState:
    """First/second moment accumulators for a fixed list of parameter tensors."""

    m: list
    v: list
    step: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def adam_step(state: AdamState, params, grads, eta: float):
    """One bias-corrected Adam update. Mutates ``state`` and every parameter
    in place and returns ``params`` (see :func:`adam_update`)."""
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ValueError("parameter/gradient count does not match optimizer state")
    for p, g_arr, m in zip(params, grads, state.m):
        if p.shape != g_arr.shape or p.shape != m.shape:
            raise ValueError(f"shape mismatch: param {p.shape}, grad {g_arr.shape}")
    state.step += 1
    for m, v, p, g_arr in zip(state.m, state.v, params, grads):
        adam_update(m, v, p, g_arr, state.step, eta)
    return params


def adam_update(m: np.ndarray, v: np.ndarray, p: np.ndarray, grad: np.ndarray,
                t: int, eta: float, divisor: float = 1.0) -> None:
    """Adam's step ``t`` on one parameter ``p`` and its moments ``m`` and
    ``v``, in place, on the gradient ``grad / divisor``.

    Element-wise, so any gathered subset of rows gets the bits that it gets
    in the whole array. The arrays are updated ``ADAM_BLOCK`` elements at a
    time (whole rows) through two scratch blocks, so no call allocates an
    array the size of ``p`` and a block's operands stay in cache between
    operations.
    """
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    rows = max(1, ADAM_BLOCK // math.prod(p.shape[1:]))
    tmp_block = np.empty((min(rows, len(p)),) + p.shape[1:])
    step_block = np.empty_like(tmp_block)
    for lo in range(0, len(p), rows):
        mb, vb, pb, gb = (a[lo:lo + rows] for a in (m, v, p, grad))
        tmp, step = tmp_block[:len(pb)], step_block[:len(pb)]
        if divisor != 1.0:
            # held in step, which is not written before g's last read
            gb = np.divide(gb, divisor, out=step)
        # the operation order of m = b1*m + (1-b1)*g,
        # v = b2*v + (1-b2)*g**2 and p - eta*m_hat / (sqrt(v_hat) + eps)
        np.multiply(gb, 1.0 - ADAM_BETA1, out=tmp)
        mb *= ADAM_BETA1
        mb += tmp
        np.square(gb, out=tmp)
        tmp *= 1.0 - ADAM_BETA2
        vb *= ADAM_BETA2
        vb += tmp
        np.divide(mb, bc1, out=step)
        step *= eta
        np.divide(vb, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        step /= tmp
        pb -= step
