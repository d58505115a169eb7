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

    ``rng`` is a ``Generator`` or a :class:`PrefetchedNoise`. For a dense
    ``sum_grad_v`` the result is the array ``rng.normal`` returned, perturbed
    in place (IEEE addition commutes, so it equals ``(sum_grad_v + noise) /
    batch_size`` bit for bit). For a :class:`RowGradient` it is the new array
    ``(noise[rows] + values) / batch_size``; ``rng`` must then be a
    :class:`PrefetchedNoise` whose draw an update has read (see
    :meth:`PrefetchedNoise.apply`), and noising the other rows, whose
    gradient is 0, with ``noise / batch_size`` is that update's job. A
    caller drawing from a :class:`PrefetchedNoise` hands the draw back with
    its ``release`` once done with it.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    sparse = isinstance(sum_grad_v, RowGradient)
    if sparse and not (isinstance(rng, PrefetchedNoise) and rng.applied):
        raise ValueError("a row gradient needs a noise draw whose update "
                         "noised every other row")
    noise = rng.normal(0.0, s_nabla * sigma, size=sum_grad_v.shape)
    if sparse:
        noise = noise[sum_grad_v.rows]
        sum_grad_v = sum_grad_v.values
    noise += sum_grad_v
    noise /= batch_size
    return noise


def shared_zeros(shape: tuple) -> np.ndarray:
    """A float64 array of zeros in an anonymous ``MAP_SHARED`` mapping of its
    own, which processes forked after it share; freeing the array unmaps it."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)


class PrefetchedNoise:
    """Zero-mean Gaussian draws of one shape, each filled ahead by a forked
    worker process into one shared buffer, where the worker then runs a
    fixed update that reads the draw.

    Serves exactly ``count`` calls of ``normal(0.0, scale, size=shape)``
    with the values of as many serial ``rng.normal`` calls: the worker fills
    with ``standard_normal`` from its copy of ``rng`` and scales in place (a
    zero may differ in sign). After its k-th fill it waits for
    :meth:`apply` and calls ``update(draw, k)``, which must not change the
    draw and reaches this process only through shared mappings
    (:func:`shared_zeros`). ``normal`` waits for the update and returns the
    buffer; :meth:`release` hands it back for the next fill. One pipe
    carries apply and release, the other done. Calls out of this order or
    past ``count``, and a worker that exited early, raise ``RuntimeError``;
    other ``normal`` arguments raise ``ValueError``. :meth:`close` closes
    this end of the pipes and reaps the worker, which also exits after its
    last release or once this process dies. Fork with no other thread running.
    """

    def __init__(self, rng: np.random.Generator, scale: float, shape: tuple,
                 count: int, update):
        if count < 1:
            raise ValueError("draw count must be >= 1")
        self._scale = scale
        self._count = count
        self._buffer = shared_zeros(tuple(shape))
        self._taken = 0
        self._lent = False
        # whether apply was called for the pending or lent draw
        self.applied = False
        orders, self._orders = os.pipe()
        self._done, done = os.pipe()
        self._pid = os.fork()
        for fd in (orders, done) if self._pid else (self._orders, self._done):
            os.close(fd)  # each process keeps its own two ends
        if self._pid:
            return
        try:  # the worker, which leaves only through os._exit
            for k in range(1, count + 1):
                rng.standard_normal(out=self._buffer)
                self._buffer *= scale
                if not os.read(orders, 1):  # apply; empty once this end closed
                    break
                update(self._buffer, k)
                os.write(done, b"\0")
                os.read(orders, 1)  # release; if empty, the next read is too
        except BrokenPipeError:  # this end was closed during the update
            pass
        except Exception:  # this end sees only that the worker exited early
            traceback.print_exc()
        finally:
            os._exit(0)

    def _signal(self) -> None:
        try:
            os.write(self._orders, b"\0")
        except BrokenPipeError:
            raise RuntimeError("the noise worker exited early") from None

    def _check_pending(self) -> None:
        if self._lent:
            raise RuntimeError("the previous noise draw was not released")
        if self._taken == self._count:
            raise RuntimeError(f"all {self._count} noise draws were taken")

    def apply(self) -> None:
        """Have the worker run the update on the pending draw once it is
        filled; ``normal`` returns the draw only after the update is done."""
        self._check_pending()
        if self.applied:
            raise RuntimeError("an update was already applied to this draw")
        self._signal()
        self.applied = True

    def normal(self, loc: float, scale: float, size: tuple) -> np.ndarray:
        shape = self._buffer.shape
        if (loc, scale, tuple(size)) != (0.0, self._scale, shape):
            raise ValueError(
                f"noise source serves normal(0.0, {self._scale}, {shape}), "
                f"not normal({loc}, {scale}, {tuple(size)})")
        self._check_pending()
        if not self.applied:
            raise RuntimeError("no update was applied to this noise draw")
        if not os.read(self._done, 1):
            raise RuntimeError("the noise worker exited early")
        self._taken += 1
        self._lent = True
        return self._buffer

    def release(self) -> None:
        """Hand back the array the last ``normal`` returned; the next draw
        is filled into it from here on."""
        if not self._lent:
            raise RuntimeError("no noise draw is out to release")
        self._lent = False
        self.applied = False
        self._signal()

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
        """The spec of a run of ``t`` iterations; raises ``ValueError`` on a
        per-step budget epsilon/T >= 1, outside the regime the Gaussian
        mechanism's calibration is stated for."""
        if t >= 1 and epsilon / t >= 1.0:  # noise_sigma rejects t < 1
            raise ValueError(
                f"per-step budget epsilon/T = {epsilon:g}/{t} >= 1 at N = "
                f"{num_nodes} nodes; lower epsilon or raise the iteration count")
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
