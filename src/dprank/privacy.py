"""Differential-privacy arithmetic: gradient-bound constant, minimum depth,
per-iteration Gaussian calibration, noise injection (with a worker process
that draws each step's noise one step ahead), and the budget ledger."""

from __future__ import annotations

import math
import mmap
import os
import traceback
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np


class PrivacyOverdraftError(RuntimeError):
    """Recording past the declared iteration count or budget aborts the run."""


def compute_m(n: int, gamma: float) -> float:
    """Gradient-bound constant

        M = (2(N-1)gamma^2 + 2 gamma + 2 gamma (1-gamma)/N) (1 + 1/gamma),

    the worst-case factor multiplying the product of layer spectral norms in
    the per-edge embedding-gradient bound.
    """
    if n < 2:
        raise ValueError("constant is defined for graphs with at least 2 nodes")
    if not 0.0 < gamma < 1.0:
        raise ValueError("damping factor must lie in (0, 1)")
    return (2.0 * (n - 1) * gamma**2 + 2.0 * gamma
            + 2.0 * gamma * (1.0 - gamma) / n) * (1.0 + 1.0 / gamma)


def min_layers(s_nabla: float, batch_pairs: float, m: float, s: float,
               t: int = 1) -> int:
    """Smallest hidden-layer count L with B * M * T * (1/s)^(L+1) <= S_nabla.

    Equivalently ceil(log_{1/s}(S_nabla / (B M T)) - 1), floored at 1; the
    search evaluates the predicate itself, so L is exact in floating point.
    """
    if min(s_nabla, batch_pairs, m) <= 0 or t < 1:
        raise ValueError("all inputs must be positive")
    if s <= 1.0:
        raise ValueError("normalization scale s must exceed 1")
    bmt = batch_pairs * m * t
    depth = 1
    while bmt * (1.0 / s) ** (depth + 1) > s_nabla:
        depth += 1
    return depth


def noise_sigma(epsilon: float, delta: float, t: int = 1) -> float:
    """Per-iteration Gaussian multiplier under even budget splitting:

        sigma = sqrt(2 ln(1.25 / (delta/T))) / (epsilon/T).

    Natural logarithm. Warns when epsilon/T >= 1, where the classical Gaussian
    mechanism calibration is outside its usual validity regime; the value is
    still the verbatim formula.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if t < 1:
        raise ValueError("iteration count must be >= 1")
    if epsilon / t >= 1.0:
        warnings.warn(
            f"per-iteration budget epsilon/T = {epsilon / t:.4g} >= 1; the "
            "Gaussian mechanism guarantee is usually stated for budgets below 1",
            RuntimeWarning, stacklevel=2)
    return math.sqrt(2.0 * math.log(1.25 * t / delta)) / (epsilon / t)


def gdp_epsilon(t: int, sigma: float, delta: float) -> float:
    """The epsilon at ``delta`` of ``t`` Gaussian steps of noise multiplier
    ``sigma`` composed under Gaussian DP (Dong, Roth & Su 2019,
    arXiv:1905.02383): the steps compose to mu = sqrt(t) / sigma, and mu-GDP
    is (epsilon, delta)-DP for

        delta(epsilon) = Phi(mu/2 - epsilon/mu) - e^epsilon Phi(-mu/2 - epsilon/mu),

    which falls as epsilon grows; epsilon is found by bisection, to about
    1e-12 relative, and is 0 when delta(0) <= delta already. The figure
    holds only if each step's noise scale over the sensitivity is ``sigma``.
    """
    if t < 1 or not sigma > 0 or not 0.0 < delta < 1.0:
        raise ValueError("need t >= 1, sigma > 0 and delta in (0, 1)")
    mu = math.sqrt(t) / sigma

    def phi(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    def delta_at(eps):
        # e^eps * Phi(...) in logs, so that a large mu overflows nothing
        tail = phi(-mu / 2 - eps / mu)
        scaled = math.exp(eps + math.log(tail)) if tail > 0.0 else 0.0
        return phi(mu / 2 - eps / mu) - scaled

    lo, hi = 0.0, 1.0
    if delta_at(lo) <= delta:
        return 0.0
    while delta_at(hi) > delta:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if delta_at(mid) > delta else (lo, mid)
    return hi


@dataclass(frozen=True)
class RowGradient:
    """The gradient of a ``shape`` matrix that is zero outside ``rows``: row
    ``rows[k]`` is ``values[k]``. ``size`` counts the whole matrix, every
    entry of which :func:`perturb_gradient` noises."""

    rows: np.ndarray
    values: np.ndarray
    shape: tuple

    @property
    def size(self) -> int:
        return math.prod(self.shape)


def perturb_gradient(sum_grad_v, s_nabla: float, sigma: float,
                     batch_size: int, rng) -> np.ndarray:
    """Gaussian mechanism on the summed embedding gradient.

    Adds i.i.d. zero-mean noise with standard deviation ``s_nabla * sigma`` to
    every entry of the full matrix (rows untouched by the batch included:
    which rows a batch touches is data-dependent, so sparing them would leak
    participation), then divides by the nominal batch pair count.

    For a dense ``sum_grad_v``, ``rng`` is a ``Generator`` and the result is
    the array ``rng.normal`` returned, perturbed in place (IEEE addition
    commutes, so it equals ``(sum_grad_v + noise) / batch_size`` bit for bit).
    For a :class:`RowGradient`, ``rng`` is a :class:`PrefetchedNoise` of scale
    ``s_nabla * sigma`` applied to exactly its ``rows``, and the result is the
    new array ``(noise[rows] + values) / batch_size``; noising the other rows,
    whose gradient is 0, with ``noise / batch_size`` is the update's job.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    if isinstance(sum_grad_v, RowGradient):
        if not (isinstance(rng, PrefetchedNoise) and rng.applied is not None
                and np.array_equal(rng.applied, sum_grad_v.rows)):
            raise ValueError("a row gradient needs a noise draw applied to its "
                             "rows, whose update noised every other row")
        noise = rng.rows() + sum_grad_v.values
    else:
        noise = rng.normal(0.0, s_nabla * sigma, size=sum_grad_v.shape)
        noise += sum_grad_v
    noise /= batch_size
    return noise


def shared_zeros(shape: tuple) -> np.ndarray:
    """A float64 array of zeros in an anonymous ``MAP_SHARED`` mapping of its
    own, which processes forked after it share; freeing the array unmaps it."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)


class PrefetchedNoise:
    """``count`` zero-mean Gaussian draws of one N-row shape, each filled
    ahead by a forked worker process, which runs a fixed update on the whole
    draw and hands this process only the rows that :meth:`apply` names.

    The k-th draw holds the values of the k-th of as many serial
    ``rng.normal(0.0, scale, size=shape)`` calls: the worker fills an array
    of its own with ``standard_normal`` from its copy of ``rng`` and scales
    it in place (a zero may differ in sign). It then waits for
    :meth:`apply`, calls ``update(draw, k)``, which must not change the draw
    and reaches this process only through shared mappings
    (:func:`shared_zeros`), copies the applied rows into a shared block of
    the draw's shape, signals done and starts the next fill. :meth:`rows`
    waits for done and returns those rows. Calls out of this order or past
    ``count``, and a worker that exited early, raise ``RuntimeError``.
    :meth:`close` closes this end of the two pipes and reaps the worker,
    which also exits after its last draw or once this process dies. Fork
    with no other thread running.
    """

    def __init__(self, rng: np.random.Generator, scale: float, shape: tuple,
                 count: int, update):
        if count < 1:
            raise ValueError("draw count must be >= 1")
        self._left = count
        # the rows named by apply for the pending draw, until rows returns them
        self.applied = None
        # the applied row ids and the draw's rows fill only the head of each
        # mapping, so the pages past the most rows ever applied stay unbacked
        self._index = np.frombuffer(mmap.mmap(-1, 8 * shape[0]), dtype=np.int64)
        self._block = shared_zeros(tuple(shape))
        orders, self._orders = os.pipe()
        self._done, done = os.pipe()
        self._pid = os.fork()
        for fd in (orders, done) if self._pid else (self._orders, self._done):
            os.close(fd)  # each process keeps its own two ends
        if self._pid:
            return
        try:  # the worker, which leaves only through os._exit
            draw = np.empty(self._block.shape)
            for k in range(1, count + 1):
                rng.standard_normal(out=draw)
                draw *= scale
                # apply sends the row count; empty once this end closed
                if not (size := os.read(orders, 8)):
                    break
                update(draw, k)
                rows = self._index[:int.from_bytes(size, "little")]
                self._block[:len(rows)] = draw[rows]
                os.write(done, b"\0")
        except BrokenPipeError:  # this end was closed during the update
            pass
        except Exception:  # this end sees only that the worker exited early
            traceback.print_exc()
        finally:
            os._exit(0)

    def apply(self, rows: np.ndarray) -> None:
        """Have the worker run the update on the pending draw once it is
        filled and copy out the draw's ``rows``; raises ``ValueError`` on a
        row id outside [0, N)."""
        if not self._left:
            raise RuntimeError("every noise draw was taken")
        if self.applied is not None:
            raise RuntimeError("an update was already applied to this draw")
        # as unsigned, a negative id is larger than any valid one
        if len(rows) and rows.astype(np.uint64).max() >= len(self._index):
            raise ValueError(f"noise row id outside [0, {len(self._index)})")
        self._index[:len(rows)] = rows
        try:
            os.write(self._orders, len(rows).to_bytes(8, "little"))
        except BrokenPipeError:
            raise RuntimeError("the noise worker exited early") from None
        self.applied = rows

    def rows(self) -> np.ndarray:
        """Wait for the update on the applied draw and return the draw's
        rows that :meth:`apply` named, in its order, as a view of the shared
        block, which the next :meth:`apply` overwrites."""
        if self.applied is None:
            raise RuntimeError("no update was applied to this noise draw")
        if not os.read(self._done, 1):
            raise RuntimeError("the noise worker exited early")
        self._left -= 1
        rows, self.applied = self._block[:len(self.applied)], None
        return rows

    def close(self) -> None:
        """Close this end of both pipes and wait for the worker to exit."""
        os.close(self._orders)
        os.close(self._done)
        os.waitpid(self._pid, 0)


@dataclass(frozen=True)
class PrivacySpec:
    """Everything needed to audit a run's privacy arithmetic.

    Derived quantities (sigma, the gradient-bound constant, the minimum layer
    count) are stored alongside the declared budget so a serialized spec is
    self-describing.
    """

    epsilon: float
    delta: float
    s: float
    s_nabla: float
    t: int
    sigma: float
    m_const: float
    min_depth: int
    batch_pairs: int

    def __post_init__(self):
        if not all(map(math.isfinite, (self.epsilon, self.s, self.s_nabla,
                                       self.sigma))):
            raise ValueError("privacy parameters must be finite")
        if self.epsilon <= 0 or not 0 < self.delta < 1:
            raise ValueError("invalid privacy budget")
        if self.s <= 1 or self.s_nabla <= 0 or self.t < 1:
            raise ValueError("invalid sensitivity parameters")

    @classmethod
    def derive(cls, epsilon: float, delta: float, s: float, s_nabla: float,
               t: int, num_nodes: int, gamma: float,
               batch_pairs: int) -> "PrivacySpec":
        """The spec of a run of ``t`` iterations: arithmetic only, which
        refuses nothing itself (``TrainConfig.privacy_spec`` refuses a bad
        config first; :func:`noise_sigma` warns at epsilon/T >= 1)."""
        m = compute_m(num_nodes, gamma)
        return cls(epsilon=epsilon, delta=delta, s=s, s_nabla=s_nabla, t=t,
                   sigma=noise_sigma(epsilon, delta, t),
                   m_const=m,
                   min_depth=min_layers(s_nabla, batch_pairs, m, s, t),
                   batch_pairs=batch_pairs)

    @property
    def step_bound(self) -> float:
        """Bound B * M * (1/s)^(L+1) on the norm of one step's summed embedding
        gradient: B per-edge bounds. The depth rule keeps it <= S_nabla / T."""
        return self.batch_pairs * self.m_const * (1.0 / self.s) ** (self.min_depth + 1)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class PrivacyLedger:
    """Sequential-composition audit record.

    Exactly ``t`` entries may be recorded; totals may never exceed the declared
    (epsilon, delta). Overdrafts raise and are meant to abort the run. The
    totals are exact sums of ``Fraction`` addends, so a record costs O(1)
    however many entries precede it, and :meth:`spent` rounds them once, as
    ``math.fsum`` over all the entries would. The first record imports
    ``fractions`` (and ``decimal``), which commands without a ledger skip.
    """

    epsilon: float
    delta: float
    t: int
    entries: list = field(default_factory=list, init=False)

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and math.isfinite(self.delta)):
            raise ValueError("declared budget must be finite")
        self._eps_total = self._delta_total = 0

    def record(self, eps_t: float, delta_t: float) -> None:
        if not (math.isfinite(eps_t) and math.isfinite(delta_t)):
            raise ValueError(f"budget entry ({eps_t}, {delta_t}) is not finite")
        if len(self.entries) >= self.t:
            raise PrivacyOverdraftError(
                f"iteration {len(self.entries) + 1} exceeds the declared T={self.t}")
        eps_spent, delta_spent = self.spent()
        eps_after = eps_spent + eps_t
        delta_after = delta_spent + delta_t
        if eps_after > self.epsilon * (1 + 1e-12) + 1e-300:
            raise PrivacyOverdraftError(
                f"epsilon overdraft: {eps_after} > {self.epsilon}")
        if delta_after > self.delta * (1 + 1e-12) + 1e-300:
            raise PrivacyOverdraftError(
                f"delta overdraft: {delta_after} > {self.delta}")
        self.entries.append((eps_t, delta_t))
        from fractions import Fraction  # a float addend would round the sum
        self._eps_total += Fraction(eps_t)
        self._delta_total += Fraction(delta_t)

    def spent(self) -> tuple:
        return float(self._eps_total), float(self._delta_total)

    def verify(self) -> tuple:
        """Check T entries recorded and totals equal to the declared budget
        within 1e-12 relative; returns the validated totals."""
        if len(self.entries) != self.t:
            raise ValueError(
                f"ledger holds {len(self.entries)} entries, expected T={self.t}")
        eps_total, delta_total = self.spent()
        if abs(eps_total - self.epsilon) > 1e-12 * self.epsilon:
            raise ValueError(
                f"epsilon total {eps_total} does not match declared {self.epsilon}")
        if abs(delta_total - self.delta) > 1e-12 * self.delta:
            raise ValueError(
                f"delta total {delta_total} does not match declared {self.delta}")
        return eps_total, delta_total

    def to_dict(self) -> dict:
        return {"epsilon": self.epsilon, "delta": self.delta, "t": self.t,
                "entries": [list(e) for e in self.entries]}
