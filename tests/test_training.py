import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

import dprank.model as model
import dprank.training as training
from dprank.graph import from_edges
from dprank.model import adam_step, adam_update
from dprank.privacy import (PrefetchedNoise, PrivacyLedger,
                            PrivacyOverdraftError, RowGradient,
                            perturb_gradient, shared_zeros)
from dprank.training import (ScoreMatrix, TrainConfig, TrainingDivergedError,
                             accumulate_scores, train)
from oracles import (accumulate_scores_single_stage, assert_reaped,
                     inverse_cdf_step, masked_softmax_probs,
                     rejection_acceptance, score_csr, train_serial)


def tiny_config(**overrides):
    base = dict(n_epochs=2, batch_nodes=4, r_wn=1, r_wl=4, r=6, d=4,
                s=2.0, s_nabla=5.0, epsilon=3.2, delta=1e-5, master_seed=11)
    base.update(overrides)
    return TrainConfig(**base)


def ring_graph(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)], symmetrize=True)


def record_events(monkeypatch, on_event):
    """Call ``on_event`` as each stage of a training step returns, with its
    name: weights_normalized, gradients_computed, w_updated,
    v_grad_perturbed and v_updated."""
    def after(owner, name, event):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            on_event(event(args) if callable(event) else event)
            return out
        monkeypatch.setattr(owner, name, wrapper)

    after(model.WeightNormalizer, "normalize_", "weights_normalized")
    after(training, "_loss_and_gradients", "gradients_computed")
    # the embedding update is the call whose parameter list is V's rows alone
    after(training, "adam_step",
          lambda args: "v_updated" if len(args[1]) == 1 else "w_updated")
    after(training, "perturb_gradient", "v_grad_perturbed")


# ----------------------------------------------------------- end to end

def test_train_deterministic(tmp_path):
    g = ring_graph(20)
    cfg = tiny_config()
    a = train(g, cfg)
    # the checkpoint write draws no random numbers
    for b in (train(g, cfg), train(g, cfg, run_dir=tmp_path)):
        assert np.array_equal(a.theta.v, b.theta.v)
        assert all(np.array_equal(x, y) for x, y in zip(a.theta.w, b.theta.w))
        assert np.array_equal(score_csr(a.scores).toarray(),
                              score_csr(b.scores).toarray())
        assert a.ledger.entries == b.ledger.entries


def test_release_equals_the_edgeless_graphs():
    # at the reference settings, here for one epoch, the noise swamps the
    # summed embedding gradient: V, the scores and the synthetic graph
    # trained on the benchmark graph are bitwise those of the edgeless graph
    # with the same N and seeds. Only W, which is never released, sees the
    # edges
    from dprank.datasets import citation_benchmark_graph
    from dprank.synthesis import sample_graph
    g = citation_benchmark_graph()
    cfg = TrainConfig(n_epochs=1, master_seed=123)
    assert (g.num_nodes, cfg.iterations(g.num_nodes)) == (2708, 169)
    real, null = train(g, cfg), train(edgeless_graph(g.num_nodes), cfg)
    assert np.array_equal(real.theta.v, null.theta.v)
    for x, y in zip(real.scores.triplet(), null.scores.triplet()):
        assert np.array_equal(x, y)
    assert (sample_graph(real.scores, rng=np.random.default_rng(5))
            == sample_graph(null.scores, rng=np.random.default_rng(5)))
    assert not all(np.array_equal(x, y)
                   for x, y in zip(real.theta.w, null.theta.w))


def test_train_runs_exactly_t_iterations(monkeypatch):
    g = ring_graph(20)
    cfg = tiny_config()
    events = []
    record_events(monkeypatch, events.append)
    result = train(g, cfg)
    t = cfg.iterations(20)
    assert t == 2 * (20 // 4)
    assert len(result.ledger.entries) == t
    assert events.count("v_updated") == t
    result.ledger.verify()


def test_train_drops_leftover_nodes():
    g = ring_graph(10)
    cfg = tiny_config(batch_nodes=3, n_epochs=2)
    result = train(g, cfg)
    # floor(10/3) = 3 iterations per epoch, the tenth node is dropped
    assert len(result.ledger.entries) == 6


def test_train_iteration_event_order(monkeypatch):
    g = ring_graph(12)
    cfg = tiny_config(n_epochs=1, epsilon=2.0)  # epsilon/T = 2/3
    events = []
    record_events(monkeypatch, events.append)
    train(g, cfg)
    per_iter = ["weights_normalized", "gradients_computed", "w_updated",
                "v_grad_perturbed", "v_updated"]
    assert events == per_iter * (12 // 4)


def test_train_depth_comes_from_sensitivity_rule():
    g = ring_graph(20)
    cfg = tiny_config()
    result = train(g, cfg)
    depth = result.privacy.min_depth
    assert len(result.theta.w) == depth + 1
    lhs = (result.privacy.batch_pairs * result.privacy.m_const
           * (1.0 / cfg.s) ** (depth + 1))
    assert lhs <= cfg.s_nabla / result.privacy.t


def test_optimizer_only_sees_perturbed_v_gradient(monkeypatch):
    g = ring_graph(12)
    cfg = tiny_config(n_epochs=1, epsilon=2.0)  # epsilon/T = 2/3
    perturbed_ids = []
    consumed_ids = []
    # the worker process logs the sum of the draw each update reads, in a
    # mapping both processes share
    worker_draw_sums = shared_zeros((cfg.iterations(12),))

    def spy_perturb(grad, s_nabla, sigma, batch_size, rng):
        out = perturb_gradient(grad, s_nabla, sigma, batch_size, rng)
        perturbed_ids.append(id(out))
        return out

    def spy_adam(state, params, grads, eta):
        # the V update is the one whose parameter list is a block of V alone
        if len(params) == 1:
            assert params[0].shape[1:] == (cfg.r,)
            consumed_ids.append(id(grads[0]))
        return adam_step(state, params, grads, eta)

    def spy_update(m, v, p, grad, t, eta, divisor):
        # the worker's update reads nothing but the noise draw
        worker_draw_sums[t - 1] = grad.sum()
        return adam_update(m, v, p, grad, t, eta, divisor)

    monkeypatch.setattr(training, "perturb_gradient", spy_perturb)
    monkeypatch.setattr(training, "adam_step", spy_adam)
    monkeypatch.setattr(training, "adam_update", spy_update)
    result = train(g, cfg)
    assert len(perturbed_ids) == 3
    assert consumed_ids == perturbed_ids
    # the update of step t read the whole of the noise stream's t-th draw
    noise_seed = np.random.SeedSequence(cfg.master_seed).spawn(5)[2]
    replay = np.random.default_rng(noise_seed)
    scale = cfg.s_nabla * result.privacy.sigma
    assert worker_draw_sums.tolist() == [
        replay.normal(0.0, scale, (12, cfg.r)).sum() for _ in range(3)]


def wait_for(flag, timeout=5.0):
    """Wait until another process sets ``flag[0]``, for at most ``timeout``
    seconds."""
    deadline = time.monotonic() + timeout
    while not flag[0] and time.monotonic() < deadline:
        time.sleep(0.001)
    assert flag[0]


def abort_mid_update(monkeypatch, worker_pids, gradients):
    """Train with a noise worker whose first update takes 0.2 s, the
    gradients of each step replaced by ``gradients(v_rows, w)`` once that
    update has started, and return what ``train`` raised. The worker must
    finish the update and be reaped before ``train`` raises."""
    g = ring_graph(12)
    cfg = tiny_config(n_epochs=1, epsilon=2.0)  # epsilon/T = 2/3
    # [update started, update done], written by the worker process
    flags = shared_zeros((2,))

    def slow_update(*args, **kwargs):
        flags[0] = 1.0
        time.sleep(0.2)
        adam_update(*args, **kwargs)
        flags[1] = 1.0

    def late_gradients(v_rows, w, batch, inverse, graph, gamma, workspace):
        # the abort comes while the worker's noise-only update is running
        wait_for(flags[:1])
        return gradients(v_rows, w)

    monkeypatch.setattr(training, "adam_update", slow_update)
    monkeypatch.setattr(training, "_loss_and_gradients", late_gradients)
    with pytest.raises(RuntimeError) as err:
        train(g, cfg)
    # the worker was busy with the first update and is reaped all the same
    assert flags[1] == 1.0
    (pid,) = worker_pids
    assert_reaped(pid)
    return err.value


def test_train_aborts_on_nonfinite(monkeypatch, worker_pids):
    def nan_loss(v_rows, w):
        return float("nan"), np.zeros_like(v_rows), [np.zeros_like(wl) for wl in w]

    err = abort_mid_update(monkeypatch, worker_pids, nan_loss)
    assert isinstance(err, TrainingDivergedError)
    assert err.epoch == 0 and err.iteration == 0


def test_train_reaps_its_worker_on_an_overdraft_mid_update(monkeypatch,
                                                            worker_pids):
    def loud_rows(v_rows, w):
        return 0.0, np.ones_like(v_rows), [np.zeros_like(wl) for wl in w]

    err = abort_mid_update(monkeypatch, worker_pids, loud_rows)
    assert isinstance(err, PrivacyOverdraftError)
    assert "at epoch 0, iteration 0" in str(err)


@pytest.mark.parametrize("when", ["waiting", "mid_update"])
def test_train_raises_when_its_worker_is_killed(monkeypatch, worker_pids,
                                                when):
    # the worker dies in the third step, while it waits to be asked for its
    # update (train's request then fails) or in the middle of that update
    # (its done then never comes): train must raise instead of waiting
    g, cfg = ring_graph(20), tiny_config()
    target = {"waiting": "generate_walk_batch",
              "mid_update": "_loss_and_gradients"}[when]
    real = getattr(training, target)
    started = shared_zeros((1,))  # written by the worker process
    steps = []

    def stalled_update(m, v, p, grad, t, eta, divisor):
        if t == 3:
            started[0] = 1.0
            time.sleep(5.0)  # killed before it wakes
        return adam_update(m, v, p, grad, t, eta, divisor)

    def kill_worker(*args):
        steps.append(None)
        if len(steps) == 3:
            (pid,) = worker_pids
            if when == "mid_update":
                wait_for(started)
            os.kill(pid, signal.SIGKILL)
            # wait until it is dead, without reaping it
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        return real(*args)

    def hung(signum, frame):
        raise TimeoutError("train still waits for its dead worker")

    monkeypatch.setattr(training, "adam_update", stalled_update)
    monkeypatch.setattr(training, target, kill_worker)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(4)
    try:
        with pytest.raises(RuntimeError, match="noise worker exited early"):
            train(g, cfg)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(steps) == 3
    assert started[0] == (when == "mid_update")
    (pid,) = worker_pids
    assert_reaped(pid)


ORPHAN_CHILD = """
import os
from dprank.graph import from_edges
from dprank.training import TrainConfig, train

fork = os.fork


def spy():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid


os.fork = spy
n = 400
g = from_edges(n, [(i, (i + 1) % n) for i in range(n)], symmetrize=True)
train(g, TrainConfig(n_epochs=1000, batch_nodes=4, r_wn=1, r_wl=4, r=6, d=4,
                     s=2.0, epsilon=3.2, master_seed=11))
"""


def test_worker_exits_soon_after_its_parent_is_killed():
    # a training process killed with SIGKILL runs no cleanup; its worker
    # must see the end of its pipe and exit by itself, within 1 s
    src = str(Path(training.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen([sys.executable, "-c", ORPHAN_CHILD], env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        pid = int(proc.stdout.readline())
        time.sleep(0.3)  # well into the run's 100000 steps
        assert proc.poll() is None
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()

    def running():
        # a zombie has exited; its new parent may not have reaped it yet
        try:
            with open(f"/proc/{pid}/stat") as fh:
                return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
        except FileNotFoundError:
            return False

    deadline = time.monotonic() + 1.0
    while running() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not running()


@pytest.mark.parametrize("scale", [0.5, 1.5])
def test_train_refuses_a_summed_gradient_above_the_step_bound(monkeypatch,
                                                              scale):
    # from the seventh step on (epoch 1, iteration 1) the gradient rows are
    # replaced by rows of norm scale * step_bound: below the bound the run
    # completes, above it train raises before that step's noise is added
    g = ring_graph(20)
    cfg = tiny_config()
    bound = cfg.privacy_spec(20).step_bound
    real = training._loss_and_gradients
    steps, perturbed = [], []

    def loud_gradients(*args):
        loss, grad_rows, grad_w = real(*args)
        steps.append(None)
        if len(steps) >= 7:
            grad_rows = np.ones_like(grad_rows)
            grad_rows *= scale * bound / np.linalg.norm(grad_rows)
        return loss, grad_rows, grad_w

    def spy_perturb(*args):
        perturbed.append(None)
        return perturb_gradient(*args)

    monkeypatch.setattr(training, "_loss_and_gradients", loud_gradients)
    monkeypatch.setattr(training, "perturb_gradient", spy_perturb)
    if scale < 1:
        train(g, cfg)
        assert len(perturbed) == cfg.iterations(20)
        return
    with pytest.raises(PrivacyOverdraftError) as err:
        train(g, cfg)
    message = str(err.value)
    assert "at epoch 1, iteration 1" in message
    assert f"per-step bound {bound}" in message
    norm = float(message.split("norm ")[1].split()[0])
    assert norm == pytest.approx(scale * bound, rel=1e-12)
    assert len(perturbed) == 6


def test_noise_stream_is_consumed_in_order(monkeypatch):
    # each step's noise is the next serial draw of the noise stream, however
    # far ahead the worker filled it, and each step's perturbed rows are the
    # gradient rows plus that draw's rows, over B
    g = ring_graph(20)
    cfg = tiny_config()
    steps = []

    def spy_perturb(grad, s_nabla, sigma, batch_size, rng):
        out = perturb_gradient(grad, s_nabla, sigma, batch_size, rng)
        # the gradient rows live in a buffer that the next step overwrites
        steps.append((grad, grad.values.copy(), out))
        return out

    monkeypatch.setattr(training, "perturb_gradient", spy_perturb)
    result = train(g, cfg)
    noise_seed = np.random.SeedSequence(cfg.master_seed).spawn(5)[2]
    replay = np.random.default_rng(noise_seed)
    scale = cfg.s_nabla * result.privacy.sigma
    assert len(steps) == result.privacy.t
    for grad, values, out in steps:
        assert isinstance(grad, RowGradient) and grad.shape == (20, cfg.r)
        assert len(grad.rows) > 0
        noise = replay.normal(0.0, scale, (20, cfg.r))
        assert np.array_equal(out, (values + noise[grad.rows])
                              / cfg.nominal_batch_pairs())


def test_train_joins_its_noise_worker(monkeypatch, worker_pids):
    # one worker process runs through every step; train starts no thread,
    # so the fork copies none, and reaps the worker before it returns
    threads = set(threading.enumerate())
    during = []

    def spy_perturb(*args):
        (pid,) = worker_pids
        during.append((os.waitpid(pid, os.WNOHANG),
                       set(threading.enumerate()) == threads))
        return perturb_gradient(*args)

    monkeypatch.setattr(training, "perturb_gradient", spy_perturb)
    result = train(ring_graph(20), tiny_config())
    assert during == [((0, 0), True)] * result.privacy.t
    (pid,) = worker_pids
    assert_reaped(pid)


def edgeless_graph(n):
    return from_edges(n, [])


def cycle_graph(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


@pytest.mark.parametrize("master_seed", [11, 12])
@pytest.mark.parametrize("case", ["ring", "every_row", "edgeless"])
def test_train_matches_serial_dense_step(monkeypatch, case, master_seed):
    # the split step (noise-only update of every row on the worker, the
    # touched rows redone from their saved state) against the serial step on
    # a dense gradient, over two epochs
    graph, cfg = {
        "ring": (ring_graph(20), tiny_config(master_seed=master_seed)),
        # one batch per epoch starts a walk at every node, and every node has
        # an out-edge: U is every row of V
        "every_row": (cycle_graph(8), tiny_config(
            batch_nodes=8, epsilon=1.0, master_seed=master_seed)),
        # every walk stops at once: U is empty and V moves on noise alone
        "edgeless": (edgeless_graph(20), tiny_config(master_seed=master_seed)),
    }[case]
    touched = []

    def spy_perturb(grad, *args):
        touched.append(len(grad.rows))
        return perturb_gradient(grad, *args)

    monkeypatch.setattr(training, "perturb_gradient", spy_perturb)
    result = train(graph, cfg)
    theta, scores, ledger = train_serial(graph, cfg)
    assert np.array_equal(result.theta.v, theta.v)
    assert all(np.array_equal(a, b) for a, b in zip(result.theta.w, theta.w))
    assert all(np.array_equal(a, b)
               for a, b in zip(result.scores.triplet(), scores.triplet()))
    assert result.ledger.entries == ledger.entries
    assert len(touched) == result.privacy.t == 2 * (graph.num_nodes // cfg.batch_nodes)
    if case == "every_row":
        assert touched == [graph.num_nodes] * len(touched)
    elif case == "edgeless":
        assert touched == [0] * len(touched)
    else:
        assert 0 < min(touched) and max(touched) < graph.num_nodes


def test_train_matches_serial_dense_step_under_fast_thread_switching(monkeypatch):
    # the worker process and this one both write V, m and v. With a worker
    # that starts each update late (the fork inherits the patched update),
    # a row update that the worker overwrites, or one it reads half-written,
    # breaks bitwise equality; the short switch interval now reaches only
    # this process's threads

    def late_update(*args, **kwargs):
        time.sleep(0.01)
        adam_update(*args, **kwargs)

    monkeypatch.setattr(training, "adam_update", late_update)
    g, cfg = ring_graph(40), tiny_config(batch_nodes=5, r=16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = train(g, cfg)
    finally:
        sys.setswitchinterval(interval)
    theta, _, _ = train_serial(g, cfg)
    assert np.array_equal(result.theta.v, theta.v)


def test_traced_calls_stay_on_the_calling_thread(monkeypatch, tmp_path,
                                                 worker_pids):
    # every call a tracer wraps runs in this process on the thread that
    # called train, and the worker's noise-only update is the one call made
    # elsewhere: it covers every row of V once per step, so every row is
    # noised on every step
    g, cfg = ring_graph(20), tiny_config()
    t, n = cfg.iterations(20), g.num_nodes
    calls = []
    # per update, as the worker process sees it: its pid, the id of the
    # parameter and the shape of the gradient
    updates = shared_zeros((t, 4))

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, os.getpid(), threading.get_ident(), args))
            return fn(*args, **kwargs)
        return wrapper

    def spy_update(m, v, p, grad, step, eta, divisor):
        updates[step - 1] = (os.getpid(), id(p), *grad.shape)
        return adam_update(m, v, p, grad, step, eta, divisor)

    for name in ("generate_walk_batch", "_loss_and_gradients", "adam_step",
                 "perturb_gradient", "accumulate_scores", "save_checkpoint"):
        monkeypatch.setattr(training, name, spy(name, getattr(training, name)))
    monkeypatch.setattr(training, "adam_update", spy_update)
    monkeypatch.setattr(model.WeightNormalizer, "normalize_",
                        spy("normalize_", model.WeightNormalizer.normalize_))
    result = train(g, cfg, run_dir=tmp_path)
    assert result.privacy.t == t
    main = (os.getpid(), threading.get_ident())
    by_name = {}
    for name, pid, ident, args in calls:
        by_name.setdefault(name, []).append(((pid, ident), args))
    assert set(by_name) == {
        "generate_walk_batch", "_loss_and_gradients", "adam_step",
        "perturb_gradient", "accumulate_scores", "save_checkpoint",
        "normalize_"}
    for name, seen in by_name.items():
        assert {where for where, _ in seen} == {main}, name
    perturbs = by_name["perturb_gradient"]
    assert len(perturbs) == t
    assert all(args[0].size == n * cfg.r for _, args in perturbs)
    # adam_update(m, v, p, grad, ...) in the worker, once per step: p is the
    # whole of V, grad the draw
    (pid,) = worker_pids
    assert pid != os.getpid()
    assert updates.tolist() == [[pid, id(result.theta.v), n, cfg.r]] * t


def test_train_reads_no_noise_rows_after_the_next_apply(monkeypatch):
    # the worker copies each draw's rows of U into the one shared block that
    # rows() returns, once the next step's apply has named them. Poisoning
    # the rows just before each apply makes any later read of them change
    # the result, whenever the worker's copy lands
    g = ring_graph(20)
    cfg = tiny_config()
    clean = train(g, cfg)
    apply, rows = PrefetchedNoise.apply, PrefetchedNoise.rows
    lent = []

    def spy_rows(self):
        lent.append(rows(self))
        return lent[-1]

    def poisoned_apply(self, applied):
        if lent:
            lent[-1][...] = np.nan
        apply(self, applied)

    monkeypatch.setattr(PrefetchedNoise, "rows", spy_rows)
    monkeypatch.setattr(PrefetchedNoise, "apply", poisoned_apply)
    poisoned = train(g, cfg)
    assert len(lent) == clean.privacy.t
    assert all(len(block) for block in lent)
    assert np.array_equal(clean.theta.v, poisoned.theta.v)
    assert all(np.array_equal(a, b)
               for a, b in zip(clean.scores.triplet(), poisoned.scores.triplet()))


def test_train_peak_memory_holds_four_embedding_sized_arrays(monkeypatch):
    # V, its two Adam moments and the block that the noise rows of U come
    # back in, each in a shared mapping of its own, beside the N-entry index
    # of U, and no N x r gradient; the whole draw lives only in the worker.
    # tracemalloc does not see the mappings, so their sizes are counted as
    # train makes them: exactly four N x r float64 arrays and N int64s.
    # Once they are made, the growth of the
    # traced peak from N to 2N counts the N x r arrays that train allocates
    # besides: the Adam scratch blocks are of fixed size, and the N-length
    # arrays (the shuffle order, the score keys) add about 0.2 of one, so
    # one more N x r array would read above 1
    import mmap
    import tracemalloc
    cfg = tiny_config(n_epochs=1, batch_nodes=50, r=32, s=8.0)
    real_mmap = mmap.mmap
    mapped = []

    def spy_mmap(fileno, length, *args, **kwargs):
        mapped.append(length)
        return real_mmap(fileno, length, *args, **kwargs)

    init = PrefetchedNoise.__init__

    def reset_peak_after(self, *args):
        # the fork comes once all five mappings are made and V's first
        # draw is freed
        init(self, *args)
        tracemalloc.reset_peak()

    monkeypatch.setattr(mmap, "mmap", spy_mmap)
    monkeypatch.setattr(PrefetchedNoise, "__init__", reset_peak_after)
    peaks = []
    for n in (6000, 12000):
        g = ring_graph(n)
        mapped.clear()
        tracemalloc.start()
        try:
            train(g, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert mapped == [n * cfg.r * 8] * 3 + [n * 8, n * cfg.r * 8]
    assert (peaks[1] - peaks[0]) / (6000 * cfg.r * 8) < 0.5


def test_train_step_peak_stays_near_the_step_boundary(monkeypatch):
    # the step's row buffers are made before the first step and reused, so
    # from the second step on a step allocates only the perturbed rows, Adam's
    # scratch blocks and the sampler's candidates: a few U x r arrays above
    # what is live between steps, where a step that allocated its rows, its
    # 23 layers' activations and their temporaries anew went above ten
    import tracemalloc
    from dprank.datasets import citation_benchmark_graph
    g = citation_benchmark_graph(1000, 2100, seed=4)
    cfg = TrainConfig(n_epochs=1, batch_nodes=32, r_wn=2, r_wl=8, r=128,
                      d=32, s=2.0, master_seed=3)
    assert cfg.privacy_spec(1000).min_depth == 23
    touched, marks = [], []

    def spy_perturb(grad, *args):
        touched.append(len(grad.rows))
        return perturb_gradient(grad, *args)

    record = PrivacyLedger.record

    def mark(ledger, *args):
        # a step records its budget once its V rows are written back and its
        # perturbed rows freed: between a step's V update and the next
        # step's, the traced current and peak memory
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return record(ledger, *args)

    monkeypatch.setattr(training, "perturb_gradient", spy_perturb)
    monkeypatch.setattr(PrivacyLedger, "record", mark)
    tracemalloc.start()
    try:
        train(g, cfg)
    finally:
        tracemalloc.stop()
    assert len(marks) == len(touched) == 31
    row_bytes = cfg.r * 8
    for k in range(1, len(marks)):
        above = marks[k][1] - marks[k - 1][0]
        assert above < 4 * touched[k] * row_bytes, (k, above / (touched[k] * row_bytes))


def test_train_refuses_per_step_budget_of_one():
    # ring 12, batch 4, one epoch: T = 3
    g = ring_graph(12)
    with pytest.raises(ValueError, match=r"epsilon/T = 3/3 >= 1 at N = 12"):
        train(g, tiny_config(n_epochs=1, epsilon=3.0))
    with pytest.raises(ValueError, match="epsilon/T"):
        train(g, tiny_config(n_epochs=1, epsilon=3.2))


def test_privacy_spec_names_every_problem_on_the_graph():
    # N = 60 and batch_nodes = 8 give T = 7: a bad field and the per-step
    # budget on the graph, in one error
    cfg = TrainConfig(gamma=2, epsilon=7.0, batch_nodes=8, n_epochs=1)
    with pytest.raises(ValueError) as err:
        cfg.privacy_spec(60)
    assert "gamma must lie in (0, 1), got 2" in str(err.value)
    assert "epsilon/T = 7/7 >= 1 at N = 60" in str(err.value)
    # one node: named whatever else is wrong, before the privacy arithmetic
    cfg = TrainConfig(batch_nodes=1, n_epochs=1, epsilon=0.5)
    with pytest.raises(ValueError, match="at least 2 nodes, the graph has 1"):
        cfg.privacy_spec(1)
    problems = TrainConfig(gamma=2, batch_nodes=1).problems(1)
    assert list(problems) == ["gamma", "num_nodes"]


def test_train_rejects_oversized_batch():
    g = ring_graph(6)
    with pytest.raises(ValueError):
        train(g, tiny_config(batch_nodes=7))


def test_score_matrix_stays_clean():
    g = ring_graph(16)
    result = train(g, tiny_config())
    counts = score_csr(result.scores).toarray()
    assert (counts >= 0).all()
    assert not np.diag(counts).any()
    assert counts.sum() > 0


def test_train_handles_dangling_nodes():
    # every edge points at node 0, so most walks stop after one hop and
    # batches starting at node 0 are empty; the loop must still run all T
    # iterations on pure-noise updates
    g = from_edges(12, [(i, 0) for i in range(1, 12)])
    cfg = tiny_config(n_epochs=2, batch_nodes=6)
    result = train(g, cfg)
    assert len(result.ledger.entries) == cfg.iterations(12)
    assert np.isfinite(result.theta.v).all()
    assert result.scores.counts.sum() > 0


# trains a ring in a fresh interpreter with every scipy import failing and
# prints the scores' counts, their triplet's counts column and whether a
# scipy module got loaded
SCORES_CHILD = """
import json, sys
sys.modules["scipy"] = None
from dprank.graph import from_edges
from dprank.training import TrainConfig, train
n = 20
g = from_edges(n, [(i, (i + 1) % n) for i in range(n)], symmetrize=True)
result = train(g, TrainConfig(**json.loads(sys.argv[1])))
counts = result.scores.counts
print(json.dumps({"counts": counts.tolist(), "dtype": str(counts.dtype),
                  "triplet": result.scores.triplet()[2].tolist(),
                  "t": result.privacy.t,
                  "scipy": any(m.split(".")[0] == "scipy"
                               and sys.modules[m] is not None
                               for m in sys.modules)}))
"""


def test_score_counts_need_no_scipy():
    # the two figures bench/traced.py reads from the scores, their sum and
    # their nonzero count, come from numpy alone
    cfg = tiny_config()
    src = str(Path(training.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-c", SCORES_CHILD, json.dumps(cfg.to_dict())],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    counts = np.array(out["counts"])
    assert not out["scipy"]
    assert out["dtype"] == "float64"
    assert np.array_equal(counts, out["triplet"])
    assert out["t"] == cfg.iterations(20)
    assert counts.sum() == out["t"] * cfg.batch_nodes * (cfg.r_wl - 1)
    assert (counts != 0).sum() == len(out["triplet"])


# ------------------------------------------------------ score accumulation

def test_accumulate_two_nodes_off_diagonal(rng):
    v = rng.standard_normal((2, 3))
    scores = ScoreMatrix(2)
    accumulate_scores(v, [0, 1], scores, rng, walk_length=6)
    assert not score_csr(scores).diagonal().any()
    assert scores.counts.sum() == 2 * 5  # two walks, five transitions each


def test_accumulate_zero_embeddings_uniform(rng):
    # softmax of zeros is uniform over the two non-masked targets
    v = np.zeros((3, 4))
    scores = ScoreMatrix(3)
    trials = 4000
    for _ in range(trials):
        accumulate_scores(v, [0], scores, rng, walk_length=2)
    counts = score_csr(scores).toarray()[0]
    assert counts.sum() == trials
    # 3-sigma binomial band around p = 1/2
    sigma = np.sqrt(trials * 0.25)
    assert abs(counts[1] - trials / 2) < 3 * sigma
    assert abs(counts[2] - trials / 2) < 3 * sigma


def test_accumulate_dominant_pair_chisquare(rng):
    # one strong inner product: sampled frequencies must match the softmax
    v = np.array([[2.0, 0.0], [1.2, 0.0], [0.0, 0.4], [-0.5, 0.3]])
    logits = v @ v[0]
    logits[0] = -np.inf
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    scores = ScoreMatrix(4)
    trials = 10_000
    for _ in range(trials):
        accumulate_scores(v, [0], scores, rng, walk_length=2)
    observed = score_csr(scores).toarray()[0]
    expected = probs * trials
    chi2 = np.sum((observed[1:] - expected[1:]) ** 2 / expected[1:])
    # chi-square with 2 dof, 1% critical value
    assert chi2 < 9.21
    assert observed.argmax() == 1


def moderate_acceptance_embeddings():
    # 8 nodes whose candidates are accepted with probability 0.08-0.65, so
    # both the accepted-candidate and the exact-row branch carry mass
    return np.random.default_rng(7).standard_normal((8, 3)) * 0.6


def rare_acceptance_embeddings():
    # a large private direction per node lifts every |v_u| (and so the bound)
    # far above the inner products, which only the shared block carries: the
    # masked softmax is that of the shared block, acceptance is below 1e-15
    shared = np.random.default_rng(8).standard_normal((6, 2)) * 0.8
    return np.hstack([6.0 * np.eye(6), shared])


def accumulate_counts(v, starts, rng):
    """counts[u, w] of one accumulate_scores step from each start."""
    scores = ScoreMatrix(len(v))
    accumulate_scores(v, starts, scores, rng, walk_length=2)
    return score_csr(scores).toarray()


def oracle_counts(v, starts, rng):
    counts = np.zeros((len(v), len(v)))
    np.add.at(counts, (starts, inverse_cdf_step(v, starts, rng)), 1)
    return counts


def masked_softmax_chisquare(v, counts):
    """Pooled chi-square statistic and degrees of freedom of per-row counts
    against the exact diagonal-masked softmax."""
    n = len(v)
    stat, dof = 0.0, 0
    for u in range(n):
        probs = masked_softmax_probs(v, u)
        expected = probs * counts[u].sum()
        off = np.arange(n) != u
        stat += np.sum((counts[u, off] - expected[off]) ** 2 / expected[off])
        dof += n - 2
    return stat, dof


@pytest.mark.parametrize("sampler", [accumulate_counts, oracle_counts],
                         ids=["rejection", "inverse_cdf_oracle"])
def test_accumulate_matches_masked_softmax_moderate_acceptance(sampler):
    v = moderate_acceptance_embeddings()
    rate = rejection_acceptance(v)
    assert 0.05 < rate.min() and rate.max() < 0.8
    starts = np.repeat(np.arange(len(v)), 3000)
    counts = sampler(v, starts, np.random.default_rng(21))
    stat, dof = masked_softmax_chisquare(v, counts)
    assert stat < chi2.ppf(0.99, dof)


def test_accumulate_matches_masked_softmax_through_fallback(monkeypatch):
    v = rare_acceptance_embeddings()
    assert rejection_acceptance(v).max() < 1e-6
    fallback_walkers = []
    exact_row_step = training._softmax_step

    def counting(v_, current, rng_):
        fallback_walkers.append(len(current))
        return exact_row_step(v_, current, rng_)

    monkeypatch.setattr(training, "_softmax_step", counting)
    per_node = 3000
    starts = np.repeat(np.arange(len(v)), per_node)
    counts = accumulate_counts(v, starts, np.random.default_rng(22))
    # every walker of the one step took the exact-row branch
    assert fallback_walkers == [6 * per_node]
    stat, dof = masked_softmax_chisquare(v, counts)
    assert stat < chi2.ppf(0.99, dof)


@pytest.mark.parametrize("v", [moderate_acceptance_embeddings(),
                               rare_acceptance_embeddings()],
                         ids=["moderate", "fallback"])
def test_accumulate_never_self_loops_and_counts_every_step(v):
    rng = np.random.default_rng(23)
    starts = rng.integers(len(v), size=40)
    scores = ScoreMatrix(len(v))
    accumulate_scores(v, starts, scores, rng, walk_length=9)
    counts = score_csr(scores)
    assert not counts.diagonal().any()
    assert counts.sum() == len(starts) * (9 - 1)


@pytest.mark.parametrize("batch", [1, 16, 64])
@pytest.mark.parametrize("scale, stage", [(1, "first"), (3, "rest"),
                                          (10, "fallback")])
def test_accumulate_matches_single_stage_sampler(scale, stage, batch):
    # scoring 4 proposals for every walker and the other 12 only for walkers
    # that rejected those gives the scores and leaves the generator as
    # scoring all 16 at once does. Scale 1 is accepted among the first 4,
    # scale 3 often only among the rest, scale 10 falls back to the exact row
    n, r = 60, 128
    v = scale * 0.15 * np.sqrt(6 / r) * np.random.default_rng(5).standard_normal((n, r))
    starts = np.random.default_rng(batch).integers(n, size=batch)
    two_stage, single_stage = ScoreMatrix(n), ScoreMatrix(n)
    rng_a = np.random.default_rng(100 * scale + batch)
    rng_b = np.random.default_rng(100 * scale + batch)
    accumulate_scores(v, starts, two_stage, rng_a, walk_length=8)
    stages = accumulate_scores_single_stage(v, starts, single_stage, rng_b, 8,
                                            training.PROPOSALS,
                                            training.FIRST_PROPOSALS)
    assert sum(stages.values()) == batch * 7
    assert stages[stage] > 0
    assert all(np.array_equal(a, b)
               for a, b in zip(two_stage.triplet(), single_stage.triplet()))
    assert np.array_equal(rng_a.random(4), rng_b.random(4))


@pytest.mark.parametrize("seed", range(5))
def test_score_matrix_matches_scipy_duplicate_sum(seed):
    # read in several rounds, so that later reads sort keys added after a
    # read in with those before it, against one scipy COO -> CSR conversion
    # of every appended pair
    import scipy.sparse as sp
    gen = np.random.default_rng(seed)
    n = int(gen.integers(2, 60))
    scores = ScoreMatrix(n)
    rows, cols = [], []
    for step in range(int(gen.integers(1, 30))):
        r = gen.integers(n, size=int(gen.integers(0, 12)))
        c = (r + gen.integers(1, n, size=len(r))) % n
        scores.add(r, c)
        rows.append(r)
        cols.append(c)
        if step % 4 == 3:
            scores.triplet()
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    expected = sp.csr_array((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    expected.sum_duplicates()
    csr = score_csr(scores)
    assert np.array_equal(csr.data, expected.data)
    assert np.array_equal(csr.indices, expected.indices)
    assert np.array_equal(csr.indptr, expected.indptr)
    r, c, counts = scores.triplet()
    assert np.array_equal(expected.toarray()[r, c], counts)
    assert (expected.toarray() != 0).sum() == len(counts)


def test_score_matrix_keys_are_int64_for_int32_indices():
    # 99999 * 100000 overflows int32
    n = 100_000
    scores = ScoreMatrix(n)
    scores.add(np.array([99_999, 3], dtype=np.int32),
               np.array([5, 99_998], dtype=np.int32))
    rows, cols, counts = scores.triplet()
    assert rows.tolist() == [3, 99_999]
    assert cols.tolist() == [99_998, 5]
    assert counts.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("rows, cols", [
    ([0, 1], [1]), ([1], [0, 2]), ([-1], [0]), ([0], [-1]), ([5], [0]),
    ([0], [5]), ([1, 0], [1, 2])])
def test_score_matrix_rejects_bad_transitions(rows, cols):
    scores = ScoreMatrix(5)
    with pytest.raises(ValueError):
        scores.add(np.array(rows), np.array(cols))
    assert len(scores.triplet()[2]) == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_accumulate_rejects_non_finite_embeddings(rng, bad):
    v = rng.standard_normal((5, 3))
    v[2, 1] = bad
    scores = ScoreMatrix(5)
    with pytest.raises(ValueError, match="finite"):
        accumulate_scores(v, np.arange(5), scores, rng,
                          walk_length=2)
    assert score_csr(scores).nnz == 0


# ------------------------------------------------------------ checkpoints

class Interrupted(Exception):
    pass


def checkpoint_contents(run_dir):
    with np.load(run_dir / "checkpoint.npz") as data:
        return {k: data[k] for k in data.files}


def test_checkpoint_holds_only_weights(tmp_path, monkeypatch):
    g = ring_graph(20)
    cfg = tiny_config(n_epochs=3)
    full = train(g, cfg, run_dir=tmp_path / "full")
    assert [p.name for p in (tmp_path / "full").iterdir()] == ["checkpoint.npz"]
    arrays = checkpoint_contents(tmp_path / "full")
    n_w = len(full.theta.w)
    assert sorted(arrays) == sorted(f"w{k}" for k in range(n_w))
    assert all(np.array_equal(arrays[f"w{k}"], w)
               for k, w in enumerate(full.theta.w))

    # stop the run at the first event of epoch 2, after epoch 1's checkpoint;
    # the file must hold the W that epoch 1's call was given
    per_epoch = 20 // cfg.batch_nodes
    started, saved = [], []
    save = training.save_checkpoint

    def keep_w(run_dir, w):
        saved.append([wk.copy() for wk in w])
        return save(run_dir, w)

    def stop_in_epoch_2(event):
        if event == "weights_normalized":
            started.append(event)
            if len(started) == per_epoch + 1:
                raise Interrupted

    partial_dir = tmp_path / "partial"
    monkeypatch.setattr(training, "save_checkpoint", keep_w)
    record_events(monkeypatch, stop_in_epoch_2)
    with pytest.raises(Interrupted):
        train(g, cfg, run_dir=partial_dir)
    assert [p.name for p in partial_dir.iterdir()] == ["checkpoint.npz"]
    (epoch_1_w,) = saved
    arrays = checkpoint_contents(partial_dir)
    assert sorted(arrays) == sorted(f"w{k}" for k in range(n_w))
    assert all(np.array_equal(arrays[f"w{k}"], w)
               for k, w in enumerate(epoch_1_w))


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(gamma=1.0).validate()
    with pytest.raises(ValueError):
        tiny_config(r_wl=1).validate()
    with pytest.raises(ValueError):
        tiny_config(s=1.0).validate()
    with pytest.raises(ValueError):
        tiny_config(epsilon=0.0).validate()
    for field, value in [("epsilon", math.nan), ("epsilon", math.inf),
                         ("eta", math.nan), ("eta", math.inf),
                         ("s_nabla", math.nan), ("s_nabla", math.inf),
                         ("s", math.nan), ("s", math.inf)]:
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            tiny_config(**{field: value}).validate()
    tiny_config().validate()
    # np.random.SeedSequence takes no negative seed
    with pytest.raises(ValueError, match="^master_seed must be >= 0, got -1$"):
        tiny_config(master_seed=-1).validate()
    with pytest.raises(ValueError, match="^gamma must be a number, got 'y'$"):
        tiny_config(gamma="y").validate()
    # one pass names every bad field, each exactly once
    bad = dict(gamma=1.0, n_epochs=0, batch_nodes=2.0, r_wn=True, r_wl=1,
               r=8.5, d="4", s=1.0, s_nabla=-1.0, eta=math.nan, epsilon=0.0,
               delta=1.0, master_seed=None)
    assert set(bad) == set(TrainConfig().to_dict())
    with pytest.raises(ValueError) as err:
        tiny_config(**bad).validate()
    problems = str(err.value).split("; ")
    assert [p.split(" ", 1)[0] for p in problems] == list(bad)


def test_config_iteration_arithmetic():
    cfg = TrainConfig()
    assert cfg.iterations(2708) == 845
    assert cfg.nominal_batch_pairs() == 16 * 2 * 15
