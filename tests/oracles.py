"""Independent brute-force oracles used to check the package implementations.

Everything here is deliberately written from scratch against the definitions
(dense linear algebra, triple enumeration, pure-python BFS) and stays
independent of the code paths under test.
"""

import itertools
import os
from collections import deque
from concurrent.futures import Future

import numpy as np
import pytest
import scipy.sparse as sp


def undirected_simplify(edges):
    """Directed edge list to a set of unordered pairs, self-loops dropped."""
    return {(min(u, v), max(u, v)) for u, v in edges if u != v}


def brute_degrees(num_nodes, und_edges):
    deg = [0] * num_nodes
    for u, v in und_edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def brute_triangles(num_nodes, und_edges):
    es = set(und_edges)
    count = 0
    for a, b, c in itertools.combinations(range(num_nodes), 3):
        if (a, b) in es and (a, c) in es and (b, c) in es:
            count += 1
    return count


def brute_wedges(num_nodes, und_edges):
    """Paths of length two, counted as center-choose-2."""
    deg = brute_degrees(num_nodes, und_edges)
    return sum(d * (d - 1) // 2 for d in deg)


def brute_claws(num_nodes, und_edges):
    deg = brute_degrees(num_nodes, und_edges)
    return sum(d * (d - 1) * (d - 2) // 6 for d in deg)


def brute_rede(num_nodes, und_edges):
    deg = brute_degrees(num_nodes, und_edges)
    m = len(und_edges)
    if m == 0 or num_nodes < 2:
        return None
    total = 0.0
    for d in deg:
        if d > 0:
            frac = d / (2.0 * m)
            total -= frac * np.log(frac)
    return total / np.log(num_nodes)


def _bfs_dists(adj, source, num_nodes):
    dist = [-1] * num_nodes
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def brute_components(num_nodes, und_edges):
    adj = [[] for _ in range(num_nodes)]
    for u, v in und_edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * num_nodes
    comps = []
    for start in range(num_nodes):
        if seen[start]:
            continue
        comp = []
        queue = deque([start])
        seen[start] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(comp)
    return comps, adj


def brute_path_stats(num_nodes, und_edges):
    """(cpl, diameter, lcc_size) with paths restricted to the largest
    component; cpl/diameter are None when the LCC is a single node."""
    comps, adj = brute_components(num_nodes, und_edges)
    lcc = max(comps, key=len)
    if len(lcc) < 2:
        return None, None, len(lcc)
    dists = []
    for s in lcc:
        d = _bfs_dists(adj, s, num_nodes)
        dists.extend(d[t] for t in lcc if t != s)
    return float(np.mean(dists)), int(max(dists)), len(lcc)


def brute_distance_sum_max(num_nodes, und_edges):
    """Sum and maximum of the BFS hop distances over ordered pairs s != t
    with t reachable from s; (0, 0) when no such pair exists."""
    adj = [[] for _ in range(num_nodes)]
    for u, v in und_edges:
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    total = longest = 0
    for s in range(num_nodes):
        for d in _bfs_dists(adj, s, num_nodes):
            if d > 0:
                total += d
                longest = max(longest, d)
    return total, longest


def brute_ks(seq1, seq2):
    """KS distance from explicit CDF tables over the union of values."""
    s1, s2 = sorted(seq1), sorted(seq2)
    values = sorted(set(s1) | set(s2))
    best = 0.0
    for v in values:
        f1 = sum(1 for x in s1 if x <= v) / len(s1)
        f2 = sum(1 for x in s2 if x <= v) / len(s2)
        best = max(best, abs(f1 - f2))
    return best


def edge_loss_reference(fi, fj, d_out_i, d_in_j, gamma, n):
    """Second, independent transcription of the per-edge objective."""
    diff = fi / d_out_i - fj / (d_in_j * gamma)
    first = d_in_j * gamma**2 * diff**2
    second = diff * 2.0 * gamma * (1.0 - gamma) / n
    third = (1.0 - gamma) ** 2 / (d_in_j * n**2)
    return first + second + third


def auc_pairwise(pos_scores, neg_scores):
    """Quadratic-time AUC: P(pos > neg) + 0.5 P(tie)."""
    wins = 0.0
    for p in pos_scores:
        for q in neg_scores:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos_scores) * len(neg_scores))


def micro_f1_confusion(y_true, y_pred):
    """Micro-F1 from explicitly accumulated per-class confusion counts."""
    classes = sorted(set(y_true) | set(y_pred))
    tp = {c: 0 for c in classes}
    fp = {c: 0 for c in classes}
    fn = {c: 0 for c in classes}
    for t, p in zip(y_true, y_pred):
        if t == p:
            tp[t] += 1
        else:
            fp[p] += 1
            fn[t] += 1
    tp_sum = sum(tp.values())
    fp_sum = sum(fp.values())
    fn_sum = sum(fn.values())
    if tp_sum == 0:
        return 0.0
    prec = tp_sum / (tp_sum + fp_sum)
    rec = tp_sum / (tp_sum + fn_sum)
    return 2 * prec * rec / (prec + rec)


def logistic_ovr_f1_textbook(embeddings, labels, rng, train_frac, epochs, lr,
                             retries):
    """Micro-F1 of one-vs-rest logistic regression in the textbook layout:
    weights (features x classes), one-hot targets (samples x classes), and
    the step X^T (P - Y). The split draws, features, step count and
    prediction rule are those of ``metrics.node_classification_f1``."""
    labels = np.asarray(labels)
    n = len(labels)
    n_train = int(round(train_frac * n))
    for _ in range(retries):
        perm = rng.permutation(n)
        train_idx, test_idx = perm[:n_train], perm[n_train:]
        if len(np.unique(labels[train_idx])) >= 2:
            break
    else:
        raise RuntimeError("could not draw a training split with two classes")

    classes = np.unique(labels[train_idx])
    x = np.hstack([embeddings, np.ones((n, 1))])
    x_train = x[train_idx]
    y_onehot = (labels[train_idx][:, None] == classes[None, :]).astype(np.float64)

    w = np.zeros((x.shape[1], len(classes)))
    scaled_xt = lr * x_train.T
    for _ in range(epochs):
        p = 1.0 / (1.0 + np.exp(-(x_train @ w)))
        w -= scaled_xt @ (p - y_onehot) / len(train_idx)

    pred = classes[np.argmax(x[test_idx] @ w, axis=1)]
    return micro_f1_confusion(labels[test_idx].tolist(), pred.tolist())


def adam_reference(params, grads_per_step, eta, beta1, beta2, eps):
    """Bias-corrected Adam (Kingma & Ba 2015) written out on whole arrays,
    returning the parameters after one step per entry of ``grads_per_step``."""
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_per_step, start=1):
        for k, g in enumerate(grads):
            m[k] = beta1 * m[k] + (1.0 - beta1) * g
            v[k] = beta2 * v[k] + (1.0 - beta2) * g**2
            m_hat = m[k] / (1.0 - beta1**t)
            v_hat = v[k] / (1.0 - beta2**t)
            params[k] = params[k] - eta * m_hat / (np.sqrt(v_hat) + eps)
    return params


def walk_pair_budget(num_starts, r_wn, r_wl):
    """Independent count of the maximum node pairs a walk batch can emit."""
    total = 0
    for _ in range(num_starts):
        for _ in range(r_wn):
            total += r_wl - 1
    return total


def score_csr(scores):
    """The transition counts of a ``ScoreMatrix`` as a canonical scipy CSR
    array, by one COO -> CSR conversion of its triplet."""
    rows, cols, counts = scores.triplet()
    n = scores.num_nodes
    return sp.coo_array((counts, (rows, cols)), shape=(n, n)).tocsr()


# ----------------------------------------------------------- dense synthesis
# The dense N x N synthesis the package used before the scores went sparse.
# The sparse implementation must draw the same random numbers in the same
# order, so on integer counts it returns the same target and edge list.

def symmetrize_scores_dense(s):
    s = np.asarray(s, dtype=np.float64)
    s_sym = np.maximum(s, s.T)
    np.fill_diagonal(s_sym, 0.0)
    return s_sym


def default_target_edges_dense(s):
    s_sym = symmetrize_scores_dense(s)
    n = s_sym.shape[0]
    vals = s_sym[np.triu_indices(n, k=1)]
    pos = vals[vals > 0]
    std = pos.std()
    count = int(pos.size) if std == 0.0 else int(np.sum((pos - pos.mean()) / std > 0))
    return int(min(max(count, max(n - 1, 1)), n * (n - 1) // 2))


def sample_graph_dense(s, target_edges, rng):
    """Undirected edge list, in sampling order, of the two-phase sampler."""
    s_sym = symmetrize_scores_dense(s)
    n = s_sym.shape[0]
    covered = np.zeros(n, dtype=bool)
    edges = []
    for i in range(n):
        if covered[i]:
            continue
        row = s_sym[i]
        total = row.sum()
        if total > 0:
            j = int(rng.choice(n, p=row / total))
        else:
            j = int(rng.integers(n - 1))
            if j >= i:
                j += 1
        edges.append((min(i, j), max(i, j)))
        covered[i] = covered[j] = True

    iu_r, iu_c = np.triu_indices(n, k=1)
    weights = s_sym[iu_r, iu_c]
    support = weights > 0
    iu_r, iu_c, weights = iu_r[support], iu_c[support], weights[support]
    pair_index = {(int(u), int(v)): k for k, (u, v) in enumerate(zip(iu_r, iu_c))}
    unused = np.ones(len(weights), dtype=bool)
    for e in edges:
        k = pair_index.get(e)
        if k is not None:
            unused[k] = False
    count = target_edges - len(edges)
    picked = []
    while len(picked) < count:
        live = np.flatnonzero(unused)
        cdf = np.cumsum(weights[live] / weights[live].sum())
        cdf[-1] = 1.0
        draws = live[np.searchsorted(cdf, rng.random(max(64, 2 * (count - len(picked)))))]
        for d in draws:
            if unused[d]:
                unused[d] = False
                picked.append((int(iu_r[d]), int(iu_c[d])))
                if len(picked) == count:
                    break
    return edges + picked


# ------------------------------------------------------ synthetic-walk step
# The full-row step accumulate_scores took before it became a rejection
# sampler: score the walker's row against all N nodes, mask the diagonal,
# and draw by inverse CDF.

def masked_softmax_probs(v, u):
    """Row u of softmax(V V^T) with the diagonal entry masked out."""
    logits = np.array([float(np.dot(v[u], v[w])) for w in range(len(v))])
    logits[u] = -np.inf
    probs = np.exp(logits - logits.max())
    return probs / probs.sum()


def inverse_cdf_step(v, current, rng):
    """One successor per walker in ``current`` from its masked softmax row."""
    logits = v[current] @ v.T
    logits[np.arange(len(current)), current] = -np.inf
    logits -= logits.max(axis=1, keepdims=True)
    cdf = np.cumsum(np.exp(logits), axis=1)
    u = rng.random(len(current)) * cdf[:, -1]
    return (cdf < u[:, None]).sum(axis=1)


def rejection_acceptance(v):
    """Per-node probability that one uniform candidate w != u is accepted
    against the Cauchy-Schwarz bound |v_u| max_w |v_w|."""
    norms = np.linalg.norm(v, axis=1)
    n = len(v)
    rates = []
    for u in range(n):
        others = [w for w in range(n) if w != u]
        bound = norms[u] * norms.max()
        rates.append(np.mean([np.exp(np.dot(v[u], v[w]) - bound) for w in others]))
    return np.array(rates)


# ------------------------------------------------------ serial training step
# The training loop as it ran before the embedding update was split between
# the noise worker and the touched rows: one thread, a dense N x r gradient,
# a dense perturbation from the noise Generator and Adam on the whole of V.
# It reuses the package's stages and random streams, so the split loop must
# reproduce its results bit for bit.

def train_serial(g, cfg):
    """``(theta, scores, ledger)`` of the serial dense training loop."""
    from dprank.graph import generate_walk_batch
    from dprank.model import (AdamState, WeightNormalizer, adam_step,
                              batch_gradients, init_params)
    from dprank.privacy import PrivacyLedger, perturb_gradient
    from dprank.training import (INIT_SCALE, ScoreMatrix, _purpose_rngs,
                                 accumulate_scores)

    n = g.num_nodes
    pspec = cfg.privacy_spec(n)
    b_nominal = cfg.nominal_batch_pairs()
    normalizer = WeightNormalizer(cfg.s)
    rng_init, rng_walk, rng_noise, rng_score, rng_shuffle = _purpose_rngs(cfg.master_seed)
    theta = init_params(n, cfg.r, cfg.d, pspec.min_depth, INIT_SCALE, rng_init)
    scores = ScoreMatrix(n)
    ledger = PrivacyLedger(cfg.epsilon, cfg.delta, pspec.t)
    adam_w = AdamState.for_params(theta.w)
    adam_v = AdamState.for_params([theta.v])
    for _ in range(cfg.n_epochs):
        order = rng_shuffle.permutation(n)
        for it in range(n // cfg.batch_nodes):
            starts = order[it * cfg.batch_nodes:(it + 1) * cfg.batch_nodes]
            batch = generate_walk_batch(g, starts, cfg.r_wn, cfg.r_wl, rng_walk)
            normalizer.normalize_(theta)
            # dense: np.zeros outside the batch's rows
            grad_v, grad_w = batch_gradients(theta, batch, g, cfg.gamma)
            theta.w = adam_step(adam_w, theta.w,
                                [gw / b_nominal for gw in grad_w], cfg.eta)
            noisy = perturb_gradient(grad_v, cfg.s_nabla, pspec.sigma,
                                     b_nominal, rng_noise)
            (theta.v,) = adam_step(adam_v, [theta.v], [noisy], cfg.eta)
            ledger.record(cfg.epsilon / pspec.t, cfg.delta / pspec.t)
            accumulate_scores(theta.v, starts, scores, rng_score,
                              walk_length=cfg.r_wl)
    return theta, scores, ledger


# ------------------------------------------------- single-stage walk sampler
# accumulate_scores as it was before it scored its proposals in two stages:
# every walker's PROPOSALS candidates scored at once, one ScoreMatrix.add per
# walk step. The two-stage sampler must reproduce its scores and leave the
# generator where it leaves it.

def accumulate_scores_single_stage(v, starts, scores, rng, walk_length,
                                   proposals, first):
    """Fill ``scores`` as the single-stage sampler does and return how many
    walker steps accepted a candidate among the ``first`` of ``proposals``,
    among the rest, and in none (the exact-row fallback)."""
    n = v.shape[0]
    norms = np.sqrt(np.einsum("ij,ij->i", v, v))
    bound = norms * norms.max()
    current = np.array(starts, dtype=np.int64)
    stages = {"first": 0, "rest": 0, "fallback": 0}
    for _ in range(walk_length - 1):
        cand = rng.integers(n - 1, size=(len(current), proposals))
        cand += cand >= current[:, None]
        logits = np.einsum("bkr,br->bk", v[cand], v[current])
        logits -= bound[current][:, None]
        accept = rng.random(cand.shape) < np.exp(logits, out=logits)
        pick = accept.argmax(axis=1)
        nxt = cand[np.arange(len(current)), pick]
        rejected = np.flatnonzero(~accept.any(axis=1))
        if len(rejected):
            nxt[rejected] = inverse_cdf_step(v, current[rejected], rng)
        stages["fallback"] += len(rejected)
        stages["first"] += int(np.sum(accept[:, :first].any(axis=1)))
        stages["rest"] += int(np.sum(pick >= first))
        scores.add(current, nxt)
        current = nxt
    return stages


# ------------------------------------------------------- allocating gradient
# The forward and backward pass as they ran before they wrote into a reused
# workspace: a new array for every layer and every temporary. The workspace
# pass runs the same operations in the same order, so it must give the same
# bits.

def loss_and_gradients_allocating(v_rows, w, pairs, inverse, g, gamma):
    """``(loss, grad_rows, grad_w)`` as ``model._loss_and_gradients``."""
    def sigmoid(x):
        return 0.5 * (1.0 + np.tanh(0.5 * x))

    post = [v_rows]
    for wl in w:
        post.append(sigmoid(post[-1] @ wl))
    f = post[-1][:, 0]
    n = g.num_nodes
    inv_i, inv_j = inverse[0::2], inverse[1::2]
    d_out = g.out_degree[pairs[:, 0]].astype(np.float64)
    d_in = g.in_degree[pairs[:, 1]].astype(np.float64)
    u = f[inv_i] / d_out - f[inv_j] / (d_in * gamma)
    loss = float(np.sum(d_in * gamma**2 * u**2
                        + u * 2.0 * gamma * (1.0 - gamma) / n
                        + (1.0 - gamma)**2 / (d_in * n**2)))
    c = 2.0 * d_in * gamma**2 * u + 2.0 * gamma * (1.0 - gamma) / n
    coef = np.zeros(len(v_rows))
    np.add.at(coef, inv_i, c / d_out)
    np.add.at(coef, inv_j, -c / (d_in * gamma))
    grad_w = [None] * len(w)
    delta = coef[:, None] * (post[-1] * (1.0 - post[-1]))
    for layer in range(len(w) - 1, -1, -1):
        grad_w[layer] = post[layer].T @ delta
        if layer > 0:
            a = post[layer]
            delta = (delta @ w[layer].T) * (a * (1.0 - a))
    return loss, delta @ w[0].T, grad_w


def assert_reaped(pid):
    """``pid`` is no longer a child of this process: it exited and was waited
    for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


class InlineExecutor:
    """Stands in for ``concurrent.futures.ProcessPoolExecutor``: runs each
    task in the calling thread when it is submitted, so code that hands work
    to a pool can be compared with its serial run."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False

    def submit(self, fn, *args, **kwargs):
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def map(self, fn, *iterables):
        return [fn(*args) for args in zip(*iterables)]

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass
