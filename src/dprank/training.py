"""End-to-end training loop: per-iteration walk batches, weight
normalization, non-private weight updates, private embedding updates, and
transition-score accumulation.

The iteration count T = n_epochs * floor(N / batch_nodes) is fixed before the
loop starts and the loop body runs exactly T times; the budget ledger is the
runtime witness. The score matrix counts only synthetic walks sampled from
the (privately trained) embedding inner products, never the data walks:
counting real walks would route raw graph information around the noise.
"""

from __future__ import annotations

import math
import numbers
from contextlib import closing
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .graph import Graph, generate_walk_batch, run_starts
from .model import (AdamState, Theta, WeightNormalizer, Workspace,
                    _loss_and_gradients, adam_step, adam_update, init_params,
                    touched_nodes)
from .privacy import (PrefetchedNoise, PrivacyLedger, PrivacyOverdraftError,
                      PrivacySpec, RowGradient, noise_sigma, perturb_gradient,
                      shared_zeros)

CHECKPOINT_NAME = "checkpoint.npz"
INIT_SCALE = 0.1
PROPOSALS = 16      # rejection-sampler candidates per walker step
FIRST_PROPOSALS = 4  # of them, scored for every walker before the rest
# least value of each integer TrainConfig field; the open interval of each real
MIN_COUNTS = {"n_epochs": 1, "batch_nodes": 1, "r_wn": 1, "r_wl": 2, "r": 1,
              "d": 1, "master_seed": 0}
INTERVALS = {"gamma": (0, 1), "s": (1, math.inf), "s_nabla": (0, math.inf),
             "eta": (0, math.inf), "epsilon": (0, math.inf), "delta": (0, 1)}
# Adam squares each noise entry S_nabla * sigma * z / B. numpy's normal
# sampler never returns |z| above about 13.7 (its tail step takes the log of
# a 53-bit uniform), so 64 deviations bound every entry, gradient included
NOISE_TAIL = 64.0


class TrainingDivergedError(RuntimeError):
    """Loss or gradients became non-finite; carries where it happened."""

    def __init__(self, epoch, iteration, loss):
        super().__init__(
            f"non-finite loss/gradient at epoch {epoch}, iteration {iteration} "
            f"(loss={loss})")
        self.epoch = epoch
        self.iteration = iteration
        self.loss = loss


@dataclass
class TrainConfig:
    """Hyperparameters; the defaults are the reference experimental settings."""

    gamma: float = 0.85
    n_epochs: int = 5
    batch_nodes: int = 16         # walk starts per iteration
    r_wn: int = 2                 # walks per start node
    r_wl: int = 16                # nodes per walk
    r: int = 128                  # embedding dimension
    d: int = 64                   # hidden width
    s: float = 8.0                # weight-normalization scale
    s_nabla: float = 5.0          # preset sensitivity
    eta: float = 1e-3
    epsilon: float = 3.2
    delta: float = 1e-5
    master_seed: int = 0

    def validate(self, num_nodes: int | None = None):
        """Raise one ``ValueError`` naming every problem of :meth:`problems`."""
        problems = self.problems(num_nodes)
        if problems:
            raise ValueError("; ".join(problems.values()))

    def problems(self, num_nodes: int | None = None) -> dict:
        """Each field that ``train`` refuses, mapped to one message naming
        it: a wrong type, a count below ``MIN_COUNTS``, a real outside
        ``INTERVALS``. Given ``num_nodes``, also a graph of fewer than 2
        nodes (under ``"num_nodes"``), a batch larger than the graph and a
        per-step budget epsilon/T >= 1 and a noise scale S_nabla * sigma whose
        ``NOISE_TAIL`` multiple over B, squared in Adam's second moment, is not
        finite (under ``"noise"``), each of the last three checked when the
        fields it reads are valid."""
        problems = {}
        for name, value in asdict(self).items():
            integer = name in MIN_COUNTS
            if isinstance(value, bool) or not isinstance(
                    value, numbers.Integral if integer else numbers.Real):
                kind = "an integer" if integer else "a number"
                problems[name] = f"{name} must be {kind}, got {value!r}"
            elif integer:
                if value < MIN_COUNTS[name]:
                    problems[name] = f"{name} must be >= {MIN_COUNTS[name]}, got {value}"
            elif not math.isfinite(value):
                problems[name] = f"{name} must be finite"
            elif not INTERVALS[name][0] < value < INTERVALS[name][1]:
                problems[name] = (f"{name} must lie in ({INTERVALS[name][0]:g}, "
                                  f"{INTERVALS[name][1]:g}), got {value!r}")
        if num_nodes is not None and num_nodes < 2:
            problems["num_nodes"] = (f"training needs at least 2 nodes, the graph "
                                     f"has {num_nodes}")
        if num_nodes is None or "batch_nodes" in problems:
            return problems
        if num_nodes < self.batch_nodes:
            problems["batch_nodes"] = (f"batch_nodes={self.batch_nodes} exceeds "
                                       f"the node count {num_nodes}")
        elif not {"n_epochs", "epsilon"} & problems.keys() and (
                self.epsilon / (t := self.iterations(num_nodes)) >= 1.0):
            # outside the regime the Gaussian mechanism's calibration is stated for
            problems["epsilon"] = (f"per-step budget epsilon/T = {self.epsilon:g}/{t} "
                                   f">= 1 at N = {num_nodes} nodes; lower epsilon or "
                                   "raise the iteration count")
        # t is bound whenever n_epochs and epsilon are valid; sigma divides by
        # epsilon/T, which a subnormal epsilon rounds to 0
        elif not {"n_epochs", "epsilon", "delta", "s_nabla", "r_wn",
                  "r_wl"} & problems.keys() and not (
                self.epsilon / t > 0 and math.isfinite(
                    (tail := NOISE_TAIL * self.s_nabla * noise_sigma(self.epsilon, self.delta, t)
                     / self.nominal_batch_pairs()) * tail)):
            problems["noise"] = (f"noise scale s_nabla * sigma is too large at epsilon/T "
                                 f"= {self.epsilon!r}/{t} and s_nabla = {self.s_nabla!r}: "
                                 f"Adam squares noise entries of up to {NOISE_TAIL:g} "
                                 f"s_nabla * sigma / B, B = {self.nominal_batch_pairs()}, "
                                 "and the square must be finite")
        return problems

    def iterations(self, num_nodes: int) -> int:
        return self.n_epochs * (num_nodes // self.batch_nodes)

    def nominal_batch_pairs(self) -> int:
        return self.batch_nodes * self.r_wn * (self.r_wl - 1)

    def privacy_spec(self, num_nodes: int) -> PrivacySpec:
        """The privacy arithmetic of training on ``num_nodes`` nodes, or one
        ``ValueError`` naming every problem of :meth:`problems`."""
        self.validate(num_nodes)
        return PrivacySpec.derive(
            epsilon=self.epsilon, delta=self.delta, s=self.s,
            s_nabla=self.s_nabla, t=self.iterations(num_nodes),
            num_nodes=num_nodes, gamma=self.gamma,
            batch_pairs=self.nominal_batch_pairs())

    def to_dict(self) -> dict:
        return asdict(self)


class ScoreMatrix:
    """Sparse N x N accumulator of synthetic-walk transition counts.

    :meth:`add` appends each transition's ``u * N + v`` key to one growing
    int64 buffer, 8 bytes per transition; :meth:`triplet` sorts the buffer
    in place and reads each run of equal keys as one pair and its count, so
    memory grows with the number of recorded transitions, never with N^2.
    The diagonal stays empty (the synthesis target is a simple graph)."""

    def __init__(self, n: int, capacity: int = 0):
        self.num_nodes = n
        # room for ``capacity`` keys before the buffer first grows by doubling
        self._keys = np.empty(capacity, dtype=np.int64)
        self._size = 0

    def add(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Record one transition per ``(rows[k], cols[k])`` pair; raises
        ``ValueError`` on arrays of different lengths, an index outside
        [0, N) or a diagonal pair."""
        n = self.num_nodes
        if len(rows) != len(cols):
            raise ValueError(f"{len(rows)} rows but {len(cols)} cols")
        # as unsigned, a negative index is larger than any valid one
        if len(rows) and np.maximum(rows.astype(np.uint64),
                                    cols.astype(np.uint64)).max() >= n:
            raise ValueError(f"transition index outside [0, {n})")
        if np.any(rows == cols):
            raise ValueError("a transition from a node to itself")
        start, stop = self._size, self._size + len(rows)
        if stop > len(self._keys):
            grown = np.empty(max(2 * len(self._keys), stop, 1024), dtype=np.int64)
            grown[:start] = self._keys[:start]
            self._keys = grown
        keys = self._keys[start:stop]
        # in int64 whatever the index dtype: u * n overflows int32 at n > 46340
        np.multiply(rows, n, out=keys, dtype=np.int64)
        keys += cols
        self._size = stop

    def triplet(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, counts)``: one int64/int64/float64 entry per
        distinct recorded pair, in row-major order."""
        keys = self._keys[:self._size]
        keys.sort()
        starts = run_starts(keys)
        # a run's length is its pair's count, an exact integer in float64
        counts = np.diff(starts, append=len(keys)).astype(np.float64)
        rows = keys[starts]
        del starts
        # divided in place: np.divmod would hold a third entry-length array
        cols = rows % self.num_nodes
        rows //= self.num_nodes
        return rows, cols, counts

    @property
    def counts(self) -> np.ndarray:
        """The count of every distinct recorded pair, the counts column of
        :meth:`triplet`."""
        return self.triplet()[2]


def accumulate_scores(v: np.ndarray, starts: np.ndarray, scores: ScoreMatrix,
                      rng: np.random.Generator, walk_length: int) -> ScoreMatrix:
    """Count transitions of synthetic walks driven by embedding similarity.

    One walk per node of ``starts``, ``walk_length`` nodes long. Only the
    start nodes are taken, never a data walk, so no pair of the graph can
    reach ``scores`` except through the noised embeddings. From
    node u the step distribution is the softmax of row u of V V^T (diagonal
    masked out). Walkers advance in lockstep, and every sampled transition
    (u, w) is appended to ``scores`` in one call, step by step.

    Each step is an exact rejection sampler (von Neumann 1951): by
    Cauchy-Schwarz, v_u . v_w <= bound_u = |v_u| max_w |v_w|, so a uniform
    candidate w != u accepted with probability exp(v_u . v_w - bound_u) is
    distributed as the masked softmax. A walker draws ``PROPOSALS``
    candidates and their uniforms and takes the first accepted candidate;
    one that rejects them all draws from its exact softmax row instead, so
    the transition law is exact at any acceptance rate while a step usually
    costs O(PROPOSALS * r) rather than O(N * r). Candidates are scored
    ``FIRST_PROPOSALS`` at a time for every walker, and the rest only for the
    walkers that rejected those: the first accepted candidate and the draws
    are those of scoring all of them. On the final embeddings of a
    reference run (seed 41) a candidate is accepted with probability
    0.48-0.60, so a walker step takes the full-row branch with probability
    about 5e-6. Raises ``ValueError`` on non-finite embeddings.
    """
    n = v.shape[0]
    if scores.num_nodes != n:
        raise ValueError("score matrix shape does not match the embeddings")
    norms = np.sqrt(np.einsum("ij,ij->i", v, v))
    if not np.isfinite(norms).all():
        raise ValueError("embeddings must be finite to sample synthetic walks")
    if n < 2 or walk_length < 2:
        return scores
    bound = norms * norms.max()
    # path[k] holds every walker's k-th node
    path = np.empty((walk_length, len(starts)), dtype=np.int64)
    path[0] = starts
    walkers = np.arange(len(starts))
    for step in range(walk_length - 1):
        current, nxt = path[step], path[step + 1]
        # uniform candidates over the n - 1 nodes other than the walker's own
        cand = rng.integers(n - 1, size=(len(current), PROPOSALS))
        cand += cand >= current[:, None]
        uniform = rng.random(cand.shape)
        # walkers with no accepted candidate yet, in ascending order
        pending = walkers
        for lo, hi in ((0, FIRST_PROPOSALS), (FIRST_PROPOSALS, PROPOSALS)):
            if not len(pending):
                break
            tried, at = cand[pending, lo:hi], current[pending]
            logits = np.einsum("bkr,br->bk", v[tried], v[at])
            logits -= bound[at][:, None]
            accept = uniform[pending, lo:hi] < np.exp(logits, out=logits)
            took = accept.any(axis=1)
            nxt[pending[took]] = tried[took, accept[took].argmax(axis=1)]
            pending = pending[~took]
        if len(pending):
            nxt[pending] = _softmax_step(v, current[pending], rng)
    scores.add(path[:-1].ravel(), path[1:].ravel())
    return scores


def _softmax_step(v: np.ndarray, current: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """One inverse-CDF draw per walker from its diagonal-masked softmax row."""
    logits = v[current] @ v.T
    logits[np.arange(len(current)), current] = -np.inf
    logits -= logits.max(axis=1, keepdims=True)
    cdf = np.cumsum(np.exp(logits, out=logits), axis=1)
    u = rng.random(len(current)) * cdf[:, -1]
    return (cdf < u[:, None]).sum(axis=1)


@dataclass
class TrainResult:
    theta: Theta
    scores: ScoreMatrix
    ledger: PrivacyLedger
    privacy: PrivacySpec


def _purpose_rngs(master_seed: int):
    init, walk, noise, score, shuffle = np.random.SeedSequence(master_seed).spawn(5)
    return (np.random.default_rng(init), np.random.default_rng(walk),
            np.random.default_rng(noise), np.random.default_rng(score),
            np.random.default_rng(shuffle))


def train(g: Graph, cfg: TrainConfig, run_dir=None) -> TrainResult:
    """Run the full private training loop on ``g``.

    Per inner iteration: build the node list, generate the walk batch,
    normalize every weight to spectral norm 1/s, Adam-update the weights on
    the exact batch gradients, perturb the summed embedding gradient with
    calibrated Gaussian noise and Adam-update the embeddings, record the
    budget split, and accumulate synthetic-walk transitions. A summed
    embedding gradient whose norm exceeds the spec's ``step_bound`` raises
    :class:`~dprank.privacy.PrivacyOverdraftError` before it is noised.

    The embedding gradient is nonzero only in the rows of the batch's nodes
    U, so its update splits in two. A worker process forked before the first
    step (see :class:`PrefetchedNoise`) draws each step's N x r noise and
    runs Adam on every row of V on the noise alone, ``noise / B``; meanwhile
    this process takes the gradient from the rows of V, m and v saved before
    the step and updates W. It then waits for the worker, which hands back
    only ``noise[U]``, forms ``(noise[U] + grad_rows) / B``, runs Adam on the
    saved rows and writes them back over the worker's. Adam is element-wise
    and ``(x + 0.0) / B == x / B``, so V is bitwise that of a serial run on
    the dense gradient, from the same draws. V and its two Adam moments live
    in shared mappings, and the returned V stays in its own; the whole draw
    lives only in the worker. The worker is reaped before ``train`` returns
    or raises; a worker thread would contend with this one for the GIL.
    ``train`` starts no thread, so the fork copies none, and every call that
    ``bench/traced.py`` wraps runs on the calling thread.

    The saved rows and the gradient pass's U-row arrays (a
    :class:`~dprank.model.Workspace`) are allocated once, for the most rows
    a batch can touch, and reused on every step; the score matrix reserves
    the run's exact transition count up front.

    ``run_dir`` enables an end-of-epoch checkpoint of the weights,
    ``checkpoint.npz``, overwritten each epoch (see :func:`save_checkpoint`).
    """
    n = g.num_nodes
    pspec = cfg.privacy_spec(n)
    per_epoch = n // cfg.batch_nodes
    eps_t = cfg.epsilon / pspec.t
    delta_t = cfg.delta / pspec.t
    b_nominal = cfg.nominal_batch_pairs()
    normalizer = WeightNormalizer(cfg.s)

    rng_init, rng_walk, rng_noise, rng_score, rng_shuffle = _purpose_rngs(cfg.master_seed)
    theta = init_params(n, cfg.r, cfg.d, pspec.min_depth, INIT_SCALE, rng_init)
    # every step appends batch_nodes walks of r_wl - 1 transitions each
    scores = ScoreMatrix(n, capacity=pspec.t * cfg.batch_nodes * (cfg.r_wl - 1))
    ledger = PrivacyLedger(cfg.epsilon, cfg.delta, pspec.t)
    adam_w = AdamState.for_params(theta.w)
    # V and its Adam moments live in mappings that the noise worker writes
    v, m_v, s_v = (shared_zeros(theta.v.shape) for _ in range(3))
    v[...] = theta.v
    theta.v, step_v = v, 0
    # a batch touches at most its starts and r_wl - 1 further nodes per walk.
    # The step's row buffers are made once for that many rows; np.empty
    # leaves the rows no batch reaches unbacked
    max_rows = min(n, cfg.batch_nodes * (1 + cfg.r_wn * (cfg.r_wl - 1)))
    saved = np.empty((3, max_rows, cfg.r))     # pre-step V, m and v rows
    workspace = Workspace(max_rows, cfg.r, cfg.d, pspec.min_depth)

    # the noise reads neither the data nor the model, so a worker process
    # draws each step's noise once it has handed back the rows of the draw
    # before it; leaving the block reaps the worker, also when a step raises
    update = partial(adam_update, m_v, s_v, theta.v, eta=cfg.eta,
                     divisor=b_nominal)
    with closing(PrefetchedNoise(rng_noise, cfg.s_nabla * pspec.sigma,
                                 v.shape, pspec.t, update)) as noise:
        for epoch in range(cfg.n_epochs):
            order = rng_shuffle.permutation(n)
            for it in range(per_epoch):
                starts = order[it * cfg.batch_nodes:(it + 1) * cfg.batch_nodes]
                batch = generate_walk_batch(g, starts, cfg.r_wn, cfg.r_wl, rng_walk)
                nodes, inverse = touched_nodes(batch)
                v_rows, m_rows, s_rows = saved[:, :len(nodes)]
                # mode="clip" writes straight into out; the default buffers
                for full, rows in ((theta.v, v_rows), (m_v, m_rows), (s_v, s_rows)):
                    np.take(full, nodes, axis=0, out=rows, mode="clip")
                # from here until the wait in perturb_gradient the worker
                # updates every row of V, m and v on the noise alone, as
                # Adam's step step_v + 1, and copies out the noise rows of U
                noise.apply(nodes)
                normalizer.normalize_(theta)
                loss, grad_rows, grad_w = _loss_and_gradients(
                    v_rows, theta.w, batch, inverse, g, cfg.gamma, workspace)
                if not (np.isfinite(loss)
                        and np.isfinite(grad_rows).all()
                        and all(np.isfinite(gw).all() for gw in grad_w)):
                    raise TrainingDivergedError(epoch, it, loss)
                # the noise's calibration rests on step_bound <= S_nabla / T
                grad_norm = np.linalg.norm(grad_rows)
                if grad_norm > pspec.step_bound:
                    raise PrivacyOverdraftError(
                        f"summed embedding gradient norm {grad_norm} exceeds "
                        f"the per-step bound {pspec.step_bound} at epoch "
                        f"{epoch}, iteration {it}")

                theta.w = adam_step(adam_w, theta.w,
                                    [gw / b_nominal for gw in grad_w], cfg.eta)
                noisy_rows = perturb_gradient(
                    RowGradient(nodes, grad_rows, theta.v.shape), cfg.s_nabla,
                    pspec.sigma, b_nominal, noise)
                # only perturbed rows ever reach the embedding optimizer; its
                # rows are recomputed from their pre-step state and written
                # over the worker's noise-only values
                row_state = AdamState(m=[m_rows], v=[s_rows], step=step_v)
                adam_step(row_state, [v_rows], [noisy_rows], cfg.eta)
                theta.v[nodes], m_v[nodes], s_v[nodes] = v_rows, m_rows, s_rows
                step_v = row_state.step
                # the step's one new U x r array; the rest are reused
                del noisy_rows
                ledger.record(eps_t, delta_t)
                accumulate_scores(theta.v, starts, scores, rng_score,
                                  walk_length=cfg.r_wl)
            if run_dir is not None:
                save_checkpoint(Path(run_dir), theta.w)

    ledger.verify()
    return TrainResult(theta=theta, scores=scores, ledger=ledger, privacy=pspec)


def save_checkpoint(run_dir: Path, w: list) -> Path:
    """Write the weights ``w0, w1, ...`` to ``run_dir/checkpoint.npz``,
    overwriting the previous epoch's file, and return its path.

    W is trained on exact gradients and never released, and nothing reads
    the file back."""
    run_dir.mkdir(parents=True, exist_ok=True)
    path = run_dir / CHECKPOINT_NAME
    np.savez(path, **{f"w{k}": wk for k, wk in enumerate(w)})
    return path
