import math
import os
import subprocess
import sys
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dprank
from dprank.privacy import (PrefetchedNoise, PrivacyLedger,
                            PrivacyOverdraftError, PrivacySpec, RowGradient,
                            compute_m, gdp_epsilon, min_layers,
                            noise_sigma, perturb_gradient, shared_zeros)
from dprank.training import TrainConfig
from oracles import assert_reaped


# ------------------------------------------------------------- constant M

def test_m_at_citation_network_scale():
    # N=3327, gamma=0.85 lands near 10464
    value = compute_m(3327, 0.85)
    assert value == pytest.approx(10464, rel=0.005)


def test_m_hand_value_small():
    assert compute_m(4, 0.85) == pytest.approx(13.2737, abs=1e-3)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10**5), st.floats(0.15, 0.95))
def test_m_increasing_in_n(n, gamma):
    # strictly increasing once gamma > 1/7; below that the vanishing
    # 2*gamma*(1-gamma)/N term can outweigh the 2*gamma^2 growth at tiny N
    assert compute_m(n + 1, gamma) > compute_m(n, gamma)


def test_m_rejects_bad_inputs():
    with pytest.raises(ValueError):
        compute_m(1, 0.85)
    with pytest.raises(ValueError):
        compute_m(10, 1.0)
    with pytest.raises(ValueError):
        compute_m(10, 0.0)


# ------------------------------------------------------------- min layers

def test_min_layers_reference_case():
    m = compute_m(3327, 0.85)
    assert min_layers(5, 128, m, 5, 1) == 7


def test_min_layers_ten_iterations():
    m = compute_m(3327, 0.85)
    assert min_layers(5, 128, m, 5, 10) == 9


def test_min_layers_bound_already_satisfied():
    assert min_layers(100.0, 1, 50.0, 5, 1) == 1


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-3, 1e3), st.integers(1, 10**4), st.floats(1e-2, 1e6),
       st.floats(1.01, 64.0), st.integers(1, 10**4))
def test_min_layers_tight_minimality(s_nabla, b, m, s, t):
    depth = min_layers(s_nabla, b, m, s, t)
    assert depth >= 1
    assert b * m * t * (1.0 / s) ** (depth + 1) <= s_nabla
    if depth > 1:
        assert b * m * t * (1.0 / s) ** depth > s_nabla


@settings(max_examples=60, deadline=None)
@given(st.floats(1.01, 20.0), st.floats(0.1, 10.0))
def test_min_layers_monotone_in_scale(s, bump):
    m = compute_m(500, 0.85)
    low = min_layers(5, 128, m, s, 1)
    high = min_layers(5, 128, m, s + bump, 1)
    assert high <= low


# ------------------------------------------------------------ noise sigma

def test_sigma_reference_values():
    assert noise_sigma(3.2, 1e-5, 1) == pytest.approx(1.514, abs=1e-3)
    assert noise_sigma(0.1, 1e-5, 1) == pytest.approx(48.45, abs=0.05)


def test_sigma_formula_verbatim():
    for eps, delta, t in [(3.2, 1e-5, 845), (0.8, 1e-6, 10), (0.1, 1e-5, 3)]:
        expected = math.sqrt(2.0 * math.log(1.25 / (delta / t))) / (eps / t)
        assert noise_sigma(eps, delta, t) == pytest.approx(expected, rel=1e-15)


def test_sigma_warns_on_large_per_iteration_budget():
    with pytest.warns(RuntimeWarning):
        noise_sigma(3.2, 1e-5, 1)


def test_sigma_silent_in_small_budget_regime(recwarn):
    noise_sigma(3.2, 1e-5, 845)
    assert not any(isinstance(w.message, RuntimeWarning) for w in recwarn.list)


def hockey_stick_delta(mu, eps, points=400_001):
    """delta(eps) of N(0, 1) against N(mu, 1) by quadrature of
    max(0, p_mu(x) - e^eps p_0(x)) on a grid, nothing in closed form."""
    x = np.linspace(-12.0, 12.0 + mu, points)
    p0 = np.exp(-x**2 / 2) / math.sqrt(2 * math.pi)
    p_mu = np.exp(-(x - mu)**2 / 2) / math.sqrt(2 * math.pi)
    return float(np.trapezoid(np.maximum(p_mu - math.exp(eps) * p0, 0.0), x))


def test_gdp_epsilon_at_the_reference_matches_brute_force_delta():
    # the reference run: T = 845 steps at sigma = 1605, delta = 1e-5
    spec = PrivacySpec.derive(epsilon=3.2, delta=1e-5, s=8.0, s_nabla=5.0,
                              t=845, num_nodes=2708, gamma=0.85,
                              batch_pairs=480)
    eps = gdp_epsilon(spec.t, spec.sigma, spec.delta)
    assert eps == pytest.approx(0.053, abs=1e-3)
    mu = math.sqrt(spec.t) / spec.sigma
    assert hockey_stick_delta(mu, eps) == pytest.approx(1e-5, rel=1e-4)
    # delta(eps) falls through 1e-5 at eps, and not before
    assert hockey_stick_delta(mu, eps - 1e-3) > 1.1e-5
    assert hockey_stick_delta(mu, eps + 1e-3) < 0.9e-5


def test_gdp_epsilon_at_twice_the_step_bound_matches_brute_force_delta():
    # the reference run's noise at per-step sensitivity twice the depth
    # rule's bound B M (1/s)^(L+1), the third figure dprank report prints
    spec = PrivacySpec.derive(epsilon=3.2, delta=1e-5, s=8.0, s_nabla=5.0,
                              t=845, num_nodes=2708, gamma=0.85,
                              batch_pairs=480)
    assert spec.step_bound == 480 * spec.m_const * (1 / 8.0) ** (spec.min_depth + 1)
    sigma = spec.s_nabla * spec.sigma / (2 * spec.step_bound)
    eps = gdp_epsilon(spec.t, sigma, spec.delta)
    assert f"{eps:.3g}" == "2.07e-06"
    # delta(eps) falls through 1e-5 within 1e-3 relative of eps
    mu = math.sqrt(spec.t) / sigma
    assert hockey_stick_delta(mu, eps * (1 - 1e-3)) > 1e-5
    assert hockey_stick_delta(mu, eps * (1 + 1e-3)) < 1e-5


def test_step_bound_is_within_the_per_step_share_of_s_nabla():
    # the depth rule's guarantee, recomputed as the product the report and
    # train use, for every spec privacy_spec derives on a grid
    derived = 0
    for num_nodes in (8, 20, 60, 100, 500, 2708, 6000, 10**4, 10**5):
        for batch_nodes in (1, 4, 16, 64, 256):
            for n_epochs in (1, 5):
                cfg = TrainConfig(batch_nodes=batch_nodes, n_epochs=n_epochs)
                try:
                    spec = cfg.privacy_spec(num_nodes)
                except ValueError:  # no iteration fits, or epsilon/T >= 1
                    continue
                derived += 1
                assert spec.step_bound <= spec.s_nabla / spec.t, (
                    num_nodes, batch_nodes, n_epochs)
    assert derived >= 60


def test_gdp_epsilon_edges():
    # delta(0) = 2 Phi(mu/2) - 1 is below delta: no epsilon is needed
    assert gdp_epsilon(1, 1e6, 1e-3) == 0.0
    # a large mu needs a large epsilon, and nothing overflows on the way
    assert gdp_epsilon(10_000, 1.0, 1e-5) > 1000
    assert gdp_epsilon(4, 2.0, 1e-5) < gdp_epsilon(9, 2.0, 1e-5)
    for bad in [(0, 1.0, 1e-5), (1, 0.0, 1e-5), (1, 1.0, 0.0), (1, 1.0, 1.0)]:
        with pytest.raises(ValueError):
            gdp_epsilon(*bad)


def test_sigma_rejects_bad_inputs():
    with pytest.raises(ValueError):
        noise_sigma(0.0, 1e-5, 1)
    with pytest.raises(ValueError):
        noise_sigma(1.0, 0.0, 1)
    with pytest.raises(ValueError):
        noise_sigma(1.0, 1.5, 1)
    with pytest.raises(ValueError):
        noise_sigma(1.0, 1e-5, 0)


# ------------------------------------------------------ gradient perturb

def test_perturb_noiseless_limit(rng):
    grad = rng.standard_normal((5, 3))
    out = perturb_gradient(grad, s_nabla=5.0, sigma=0.0, batch_size=4, rng=rng)
    assert np.array_equal(out, grad / 4)


def test_perturb_shape_and_determinism(rng):
    grad = np.zeros((7, 2))
    a = perturb_gradient(grad, 2.0, 1.5, 3, np.random.default_rng(5))
    b = perturb_gradient(grad, 2.0, 1.5, 3, np.random.default_rng(5))
    assert a.shape == grad.shape
    assert np.array_equal(a, b)
    assert a.any()


def test_perturb_covers_untouched_rows(rng):
    grad = np.zeros((10, 4))
    grad[2] = 1.0
    out = perturb_gradient(grad, 1.0, 1.0, 1, rng)
    # every row receives noise, not only the touched one
    assert all(out[i].any() for i in range(10))


def test_perturb_moments_smoke():
    rng = np.random.default_rng(77)
    out = perturb_gradient(np.zeros(100_000), 1.0, 1.0, 1, rng)
    assert abs(out.mean()) < 0.02
    assert abs(out.std() - 1.0) < 0.02


def test_perturb_variance_scales_with_sensitivity():
    # std of the injected noise is s_nabla * sigma, checked within 2%
    rng = np.random.default_rng(78)
    out = perturb_gradient(np.zeros(1_000_000), s_nabla=2.0, sigma=1.5,
                           batch_size=1, rng=rng)
    assert abs(out.std() - 3.0) / 3.0 < 0.02


def test_prefetched_noise_serves_exactly_count_serial_draws(worker_pids):
    # rows() returns the applied rows of the k-th serial draw, in the order
    # apply named them: here no row, one row and every row
    rng = np.random.default_rng(5)
    applied = [np.array([], dtype=np.int64), np.array([2]), np.array([3, 0, 1, 2])]
    with closing(PrefetchedNoise(rng, 2.0, (4, 3), 3,
                                 lambda draw, k: None)) as noise:
        draws = []
        for rows in applied:
            with pytest.raises(RuntimeError, match="no update was applied"):
                noise.rows()
            noise.apply(rows)
            draws.append(noise.rows().copy())
        with pytest.raises(RuntimeError, match="every noise draw was taken"):
            noise.apply(np.array([0]))
        with pytest.raises(RuntimeError, match="no update was applied"):
            noise.rows()
        # three fills and no fourth: the worker leaves by itself once the
        # third draw's rows are handed back (waited for here, and reaped by
        # close)
        (pid,) = worker_pids
        assert os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT).si_status == 0
    assert_reaped(pid)
    replay = np.random.default_rng(5)
    for rows, draw in zip(applied, draws):
        assert draw.shape == (len(rows), 3)
        assert np.array_equal(draw, replay.normal(0.0, 2.0, (4, 3))[rows])
    # the worker drew from its copy of the generator, never from this one
    assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state


def test_prefetched_noise_applies_one_update_after_each_fill(worker_pids):
    rng = np.random.default_rng(6)
    # what the worker's update saw, per draw: the step k and the whole draw,
    # in a mapping that the worker process writes
    seen = shared_zeros((2, 13))

    def update(draw, k):
        seen[k - 1] = (k, *draw.ravel())

    with closing(PrefetchedNoise(rng, 2.0, (4, 3), 2, update)) as noise:
        assert noise.applied is None
        for bad in ([-1], [0, 4]):
            with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
                noise.apply(np.array(bad))
        assert noise.applied is None
        # the worker waits for apply before it runs the update
        assert not seen.any()
        noise.apply(np.array([1]))
        assert noise.applied.tolist() == [1]
        with pytest.raises(RuntimeError, match="already applied"):
            noise.apply(np.array([1]))
        first = noise.rows().copy()
        # rows waited for the update
        assert seen[0, 0] == 1.0
        assert noise.applied is None
        noise.apply(np.array([0, 3]))
        second = noise.rows().copy()
        with pytest.raises(RuntimeError, match="every noise draw was taken"):
            noise.apply(np.array([0]))
    (pid,) = worker_pids
    assert_reaped(pid)
    replay = np.random.default_rng(6)
    for k, (rows, got) in enumerate([([1], first), ([0, 3], second)]):
        draw = replay.normal(0.0, 2.0, (4, 3))
        assert seen[k].tolist() == [k + 1, *draw.ravel()]
        assert np.array_equal(got, draw[rows])


def test_prefetched_noise_reaps_its_worker_when_closed_early(worker_pids):
    # closing with draws still to come ends the worker where it waits
    with closing(PrefetchedNoise(np.random.default_rng(8), 1.0, (4, 3), 5,
                                 lambda draw, k: None)) as noise:
        noise.apply(np.array([0, 2]))
        noise.rows()
    (pid,) = worker_pids
    assert_reaped(pid)


def test_perturb_row_gradient_reads_the_draw_rows():
    values = np.arange(6.0).reshape(2, 3)
    grad = RowGradient(np.array([1, 3]), values, (5, 3))
    assert grad.size == 15
    # the other rows' noise comes only from an update applied to the draw,
    # and the gradient's rows only from a draw applied to exactly them
    with pytest.raises(ValueError, match="every other row"):
        perturb_gradient(grad, 1.0, 1.0, 2, np.random.default_rng(7))
    with closing(PrefetchedNoise(np.random.default_rng(7), 1.0, (5, 3), 3,
                                 lambda draw, k: None)) as noise:
        with pytest.raises(ValueError, match="every other row"):
            perturb_gradient(grad, 1.0, 1.0, 2, noise)
        for other in ([1, 2], [1]):
            noise.apply(np.array(other))
            with pytest.raises(ValueError, match="applied to its rows"):
                perturb_gradient(grad, 1.0, 1.0, 2, noise)
            noise.rows()
        noise.apply(np.array([1, 3]))
        out = perturb_gradient(grad, 1.0, 1.0, 2, noise)
    # the third serial draw, and the dense path on it
    replay = np.random.default_rng(7)
    draw = [replay.normal(0.0, 1.0, (5, 3)) for _ in range(3)][2]
    assert np.array_equal(out, (draw[[1, 3]] + values) / 2)
    dense = np.zeros((5, 3))
    dense[[1, 3]] = values
    replay = np.random.default_rng(7)
    for _ in range(2):
        replay.normal(0.0, 1.0, (5, 3))
    assert np.array_equal(out, perturb_gradient(dense, 1.0, 1.0, 2, replay)[[1, 3]])


# ----------------------------------------------------------------- ledger

@pytest.mark.parametrize("epsilon, delta", [(math.nan, 1e-5), (math.inf, 1e-5),
                                            (1.0, math.nan)])
def test_ledger_rejects_non_finite_budget(epsilon, delta):
    with pytest.raises(ValueError, match="finite"):
        PrivacyLedger(epsilon, delta, 2)


def test_ledger_rejects_non_finite_entry():
    ledger = PrivacyLedger(epsilon=1.0, delta=1e-5, t=2)
    with pytest.raises(ValueError, match="not finite"):
        ledger.record(math.nan, 5e-6)
    assert ledger.entries == []


def test_ledger_even_split():
    ledger = PrivacyLedger(epsilon=3.2, delta=1e-5, t=4)
    for _ in range(4):
        ledger.record(0.8, 2.5e-6)
    eps_total, delta_total = ledger.verify()
    assert eps_total == pytest.approx(3.2, rel=1e-12)
    assert delta_total == pytest.approx(1e-5, rel=1e-12)
    assert all(e == 0.8 for e, _ in ledger.entries)


def test_ledger_rejects_extra_iteration():
    ledger = PrivacyLedger(epsilon=1.0, delta=1e-5, t=2)
    ledger.record(0.5, 5e-6)
    ledger.record(0.5, 5e-6)
    with pytest.raises(PrivacyOverdraftError):
        ledger.record(0.5, 5e-6)


def test_ledger_rejects_budget_overdraft():
    ledger = PrivacyLedger(epsilon=1.0, delta=1e-5, t=3)
    ledger.record(0.9, 1e-6)
    with pytest.raises(PrivacyOverdraftError):
        ledger.record(0.2, 1e-6)


def test_ledger_verify_requires_full_t():
    ledger = PrivacyLedger(epsilon=1.0, delta=1e-5, t=2)
    ledger.record(0.5, 5e-6)
    with pytest.raises(ValueError):
        ledger.verify()


def test_ledger_verify_rejects_partial_spend():
    ledger = PrivacyLedger(epsilon=1.0, delta=1e-5, t=2)
    ledger.record(0.25, 5e-6)
    ledger.record(0.25, 5e-6)
    with pytest.raises(ValueError):
        ledger.verify()


def test_ledger_benchmark_iteration_arithmetic():
    # n_epochs * floor(N / batch_nodes) = 5 * floor(2708/16) = 845
    t = 5 * (2708 // 16)
    assert t == 845
    ledger = PrivacyLedger(epsilon=3.2, delta=1e-5, t=t)
    for _ in range(t):
        ledger.record(3.2 / t, 1e-5 / t)
    eps_total, _ = ledger.verify()
    assert abs(eps_total - 3.2) <= 1e-12 * 3.2


def old_record_outcome(epsilon, delta, t, entries, eps_t, delta_t):
    """What ``record`` did before it kept exact partial sums, re-summing
    every earlier entry: None when it records, else the overdraft message."""
    if len(entries) >= t:
        return f"iteration {len(entries) + 1} exceeds the declared T={t}"
    eps_after = math.fsum(e for e, _ in entries) + eps_t
    delta_after = math.fsum(d for _, d in entries) + delta_t
    if eps_after > epsilon * (1 + 1e-12) + 1e-300:
        return f"epsilon overdraft: {eps_after} > {epsilon}"
    if delta_after > delta * (1 + 1e-12) + 1e-300:
        return f"delta overdraft: {delta_after} > {delta}"
    return None


def budget_edge_entry(draw, budget, t, spent):
    """An entry near budget / t, or one that takes the exact sum of
    ``spent`` to within a few ulps of the overdraft threshold, or a tiny
    or far larger one."""
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return draw(st.floats(0, 3 * budget))
    if kind == 1:
        return budget / t * 1e-13
    x = budget / t
    if kind >= 4:
        x = budget * (1 + 1e-12) + 1e-300 - math.fsum(spent)
    steps = draw(st.integers(-3, 3))
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, np.inf if steps > 0 else -np.inf))
    return x


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_ledger_decisions_match_full_resum(data):
    epsilon = data.draw(st.sampled_from([3.2, 1.0, 0.1, 7.3e-3, 1e300]))
    delta = data.draw(st.sampled_from([1e-5, 0.3, 1e-200]))
    t = data.draw(st.integers(1, 40))
    ledger = PrivacyLedger(epsilon, delta, t)
    entries = []
    for _ in range(data.draw(st.integers(1, 2 * t + 2))):
        eps_t = budget_edge_entry(data.draw, epsilon, t, [e for e, _ in entries])
        delta_t = budget_edge_entry(data.draw, delta, t, [d for _, d in entries])
        expected = old_record_outcome(epsilon, delta, t, entries, eps_t, delta_t)
        try:
            ledger.record(eps_t, delta_t)
            outcome = None
        except PrivacyOverdraftError as exc:
            outcome = str(exc)
        assert outcome == expected
        if expected is None:
            entries.append((eps_t, delta_t))
    assert ledger.entries == entries
    assert ledger.spent() == (math.fsum(e for e, _ in entries),
                              math.fsum(d for _, d in entries))


def test_ledger_exact_sum_survives_cancellation_and_overflow():
    # values whose running float sum loses everything but the exact sum does
    # not, and a pair whose two-sum overflows
    ledger = PrivacyLedger(epsilon=1e308, delta=0.5, t=6)
    for eps_t in (1e308, 1.0, -1e308, 1e-300):
        ledger.record(eps_t, 0.0)
    assert ledger.spent()[0] == math.fsum([1e308, 1.0, -1e308, 1e-300]) == 1.0
    ledger = PrivacyLedger(epsilon=1.0, delta=0.5, t=3)
    ledger.record(-1e308, 0.0)
    ledger.record(-1e308, 0.0)
    with pytest.raises(OverflowError):
        ledger.spent()


def test_importing_the_cli_loads_no_fractions():
    # only a ledger's first record imports fractions, and through it decimal:
    # eval and report build no ledger and do not pay for them
    src = str(Path(dprank.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, dprank.cli; print(sorted("
         "{'fractions', 'decimal'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_multiprocessing():
    # only a synth run on more than one process imports the process pool:
    # the other commands do not load multiprocessing
    src = str(Path(dprank.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, dprank.cli; print("
         "'multiprocessing' in sys.modules)"],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


# ------------------------------------------------------------ PrivacySpec

def test_spec_derivation_consistency():
    spec = PrivacySpec.derive(epsilon=3.2, delta=1e-5, s=8.0, s_nabla=5.0,
                              t=845, num_nodes=2708, gamma=0.85,
                              batch_pairs=480)
    assert spec.sigma == pytest.approx(noise_sigma(3.2, 1e-5, 845), rel=1e-15)
    assert spec.m_const == pytest.approx(compute_m(2708, 0.85), rel=1e-15)
    # the chosen depth keeps the per-iteration sensitivity within budget
    lhs = spec.batch_pairs * spec.m_const * (1.0 / spec.s) ** (spec.min_depth + 1)
    assert lhs <= spec.s_nabla / spec.t
    payload = spec.to_dict()
    assert payload["epsilon"] == 3.2 and payload["min_depth"] == spec.min_depth


def test_spec_derivation_only_warns_at_a_per_step_budget_of_one():
    # TrainConfig.privacy_spec refuses epsilon/T >= 1; derive is arithmetic
    with pytest.warns(RuntimeWarning, match="epsilon/T"):
        spec = PrivacySpec.derive(epsilon=7.0, delta=1e-5, s=8.0, s_nabla=5.0,
                                  t=7, num_nodes=60, gamma=0.85, batch_pairs=48)
    assert spec.t == 7
    assert spec.sigma == pytest.approx(math.sqrt(2 * math.log(1.25 * 7 / 1e-5)),
                                       rel=1e-15)


def test_spec_rejects_bad_budget():
    with pytest.raises(ValueError):
        PrivacySpec(epsilon=-1, delta=1e-5, s=8, s_nabla=5, t=1, sigma=1,
                    m_const=1, min_depth=1, batch_pairs=1)


@pytest.mark.parametrize("field", ["epsilon", "s", "s_nabla", "sigma"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_spec_rejects_non_finite_parameters(field, value):
    params = dict(epsilon=1.0, delta=1e-5, s=8, s_nabla=5, t=2, sigma=1,
                  m_const=1, min_depth=1, batch_pairs=1)
    with pytest.raises(ValueError, match="must be finite"):
        PrivacySpec(**{**params, field: value})
