"""Levy process models: exact increment sampling, path records, normings,
and the centering integral used by the finite-variance limit theorem.

Three model families are supported:

* ``BrownianDrift`` -- sigma * B_t + mu * t,
* ``CompoundPoissonDrift`` -- mu * t plus a compound Poisson sum,
* ``StableProcess`` -- mu * t + scale * S_alpha(t) with S_alpha a strictly
  stable process, sampled by the Chambers-Mallows-Stuck transform.

Stable draws use the parametrization whose characteristic function is
``exp(-|u|^alpha * (1 - i * beta * sign(u) * tan(pi * alpha / 2)))``,
which is continuous in alpha away from 1; alpha == 1 is rejected at
construction.  At alpha == 2 a standard draw is N(0, 2), so the unit-scale
process has variance ``2 * t``.

Each model class is the one place that knows its rules: its increment
(``increment``), its norming (``norming``), its Levy measure
(``levy_measure``) and its moments and attraction index.  Each jump law
likewise carries its own pieces of the centering integral Theta: its atoms
or its kink points and its closed form or quadrature.  The free functions
below check their arguments and delegate.  A new model or jump law is
therefore one class here plus one entry in ``config.MODELS`` or
``config.JUMPS``; its constructor parameters are its configuration keys.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np
# scipy.integrate is imported by the quadratures that use it, to keep it out
# of the package import.  The normal CDF is math.erfc (see _phi_cdf), so the
# package import loads no scipy submodule.

from .errors import (
    DivergentIntegralError,
    ParameterError,
    RegimeError,
    UnsupportedExactnessError,
)

__all__ = [
    "TwoPoint",
    "Gaussian",
    "Pareto",
    "PointMass",
    "LogCorrectedPareto",
    "BrownianDrift",
    "CompoundPoissonDrift",
    "StableProcess",
    "PathSkeleton",
    "EXACT_JUMPS",
    "sample_increment",
    "sample_path",
    "norming",
    "theta",
    "theta_fubini",
    "stable_standard",
]

EXACT_JUMPS = "exact-jumps"

CMS_PIECE = 4096   # elements per piece of the array transform of stable_standard

# Support floor of the log-corrected jump law: exp(exp(1)).
_EE = math.exp(math.e)


# ---------------------------------------------------------------------------
# jump distributions
# ---------------------------------------------------------------------------

class _JumpLaw:
    """Pieces of the centering integral shared by the jump laws.

    A jump law gives ``theta(T)``, half of ``E[J^2 log+(min(T, J^2))]``,
    and ``theta_time_side(root_t)``, the same quantity as
    ``int_1^root_t G(u) / u du`` with ``G`` the tail second moment.  By
    default the time side is a quadrature split at :meth:`kinks`.
    """

    def kinks(self):
        """Points where the tail second moment is not smooth."""
        return ()

    def attraction_alpha(self):
        if math.isfinite(self.second_moment()):
            return 2.0
        raise RegimeError("attraction index is not defined for these jumps")

    def theta_time_side(self, root_t):
        from scipy import integrate
        kinks = [k for k in self.kinks() if 1.0 < k < root_t]
        val, _ = integrate.quad(
            lambda u: float(self.second_moment_tail(u)) / u,
            1.0,
            root_t,
            points=kinks or None,
            limit=200,
            epsabs=1e-13,
            epsrel=1e-11,
        )
        return val


class _AtomicJump(_JumpLaw):
    """Jump law with finitely many atoms ``(x, p)``: both forms of the
    centering integral in closed form, so no tail second moment."""

    def theta(self, T):
        return 0.5 * sum(p * x**2 * _logplus_min(T, x) for x, p in self.atoms())

    def theta_time_side(self, root_t):
        return sum(
            p * x * x * math.log(min(root_t, abs(x))) for x, p in self.atoms() if abs(x) > 1.0
        )


@dataclass(frozen=True)
class TwoPoint(_AtomicJump):
    """Jump of size ``up`` with probability ``p_up``, else ``down``."""

    p_up: float
    up: float
    down: float

    def __post_init__(self):
        if not 0.0 <= self.p_up <= 1.0:
            raise ParameterError(f"p_up must lie in [0, 1], got {self.p_up}")
        if not self.up > 0.0:
            raise ParameterError(f"up must be > 0, got {self.up}")
        if not self.down < 0.0:
            raise ParameterError(f"down must be < 0, got {self.down}")

    def sample(self, n, rng):
        return np.where(rng.random(n) < self.p_up, self.up, self.down)

    def sample_sum(self, n, rng):
        k = rng.binomial(n, self.p_up)
        return k * self.up + (n - k) * self.down

    def mean(self):
        return self.p_up * self.up + (1.0 - self.p_up) * self.down

    def second_moment(self):
        return self.p_up * self.up**2 + (1.0 - self.p_up) * self.down**2

    def atoms(self):
        return [(self.up, self.p_up), (self.down, 1.0 - self.p_up)]


@dataclass(frozen=True)
class Gaussian(_JumpLaw):
    mean_: float
    sd: float

    def __post_init__(self):
        if not self.sd > 0.0:
            raise ParameterError(f"sd must be > 0, got {self.sd}")

    def sample(self, n, rng):
        return self.mean_ + self.sd * rng.standard_normal(n)

    def sample_sum(self, n, rng):
        # the sum of n independent Gaussians has an exact closed form
        return n * self.mean_ + self.sd * math.sqrt(n) * rng.standard_normal()

    def mean(self):
        return self.mean_

    def second_moment(self):
        return self.mean_**2 + self.sd**2

    def second_moment_tail(self, u):
        # E[J^2] - E[J^2; -u <= J <= u] with the truncated moment in closed
        # form: for Z standard normal, E[Z^2; Z <= z] = Phi(z) - z phi(z).
        u = np.asarray(u, dtype=float)
        m, s = self.mean_, self.sd
        a = (-u - m) / s
        b = (u - m) / s
        inner = (
            m * m * (_phi_cdf(b) - _phi_cdf(a))
            + 2.0 * m * s * (_phi_pdf(a) - _phi_pdf(b))
            + s * s * ((_phi_cdf(b) - b * _phi_pdf(b)) - (_phi_cdf(a) - a * _phi_pdf(a)))
        )
        return np.maximum(self.second_moment() - inner, 0.0)

    def theta(self, T):
        root_t = math.sqrt(T)

        def integrand(x):
            return 0.5 * x * x * _logplus_min(T, x) * float(_phi_pdf((x - self.mean_) / self.sd)) / self.sd

        return _quad_sum(
            integrand, ((-math.inf, -root_t), (-root_t, -1.0), (1.0, root_t), (root_t, math.inf))
        )


@dataclass(frozen=True)
class Pareto(_JumpLaw):
    """Two-sided Pareto: |J| = scale * U^(-1/tail_index), sign up w.p. p_up."""

    tail_index: float
    scale: float
    p_up: float = 0.5

    def __post_init__(self):
        if not self.tail_index > 0.0:
            raise ParameterError(f"tail_index must be > 0, got {self.tail_index}")
        if not self.scale > 0.0:
            raise ParameterError(f"scale must be > 0, got {self.scale}")
        if not 0.0 <= self.p_up <= 1.0:
            raise ParameterError(f"p_up must lie in [0, 1], got {self.p_up}")

    def sample(self, n, rng):
        mag = self.scale * rng.random(n) ** (-1.0 / self.tail_index)
        sign = np.where(rng.random(n) < self.p_up, 1.0, -1.0)
        return sign * mag

    def sample_sum(self, n, rng):
        return float(self.sample(n, rng).sum()) if n else 0.0

    def mean(self):
        a = self.tail_index
        if a <= 1.0:
            return math.inf
        return (2.0 * self.p_up - 1.0) * self.scale * a / (a - 1.0)

    def second_moment(self):
        a = self.tail_index
        if a <= 2.0:
            return math.inf
        return self.scale**2 * a / (a - 2.0)

    def second_moment_tail(self, u):
        a, s = self.tail_index, self.scale
        if a <= 2.0:
            raise DivergentIntegralError(
                f"second moment of Pareto(tail_index={a}) jumps diverges"
            )
        u = np.asarray(u, dtype=float)
        full = s**2 * a / (a - 2.0)
        tail = np.where(u <= s, full, s**a * a / (a - 2.0) * np.maximum(u, s) ** (2.0 - a))
        return tail

    def kinks(self):
        return (self.scale,)

    def attraction_alpha(self):
        if self.tail_index < 2.0:
            return self.tail_index
        return super().attraction_alpha()

    def theta(self, T):
        a, s = self.tail_index, self.scale

        def integrand(x):
            return 0.5 * x * x * _logplus_min(T, x) * a * s**a * x ** (-a - 1.0)

        # two-sided law: both signs carry |x|, so one side covers the mass
        lo, root_t = max(s, 1.0), math.sqrt(T)
        edges = [lo, root_t, math.inf] if root_t > lo else [lo, math.inf]
        return _quad_sum(integrand, zip(edges[:-1], edges[1:]))


@dataclass(frozen=True)
class PointMass(_AtomicJump):
    x: float

    def __post_init__(self):
        if self.x == 0.0:
            raise ParameterError("point-mass jump size must be nonzero")

    def sample(self, n, rng):
        return np.full(n, self.x, dtype=float)

    def sample_sum(self, n, rng):
        return n * self.x

    def mean(self):
        return self.x

    def second_moment(self):
        return self.x**2

    def atoms(self):
        return [(self.x, 1.0)]


@dataclass(frozen=True)
class LogCorrectedPareto(_JumpLaw):
    """Symmetric jump law with density proportional to
    ``|x|^-3 (log|x|)^-1 (log log|x|)^-2`` on ``|x| > e^e``.

    Exists to exercise the centering-integral scan: its truncated second
    moment has the closed form ``E[J^2; |J| > u] = (2/Z) / loglog(max(u, e^e))``
    where Z is the normalizing constant.  Sampling is intentionally
    unsupported; only moments are needed.
    """

    def sample(self, n, rng):
        raise UnsupportedExactnessError(
            "the log-corrected Pareto law is moment-only; sampling is not supported"
        )

    def sample_sum(self, n, rng):
        return self.sample(n, rng)

    def mean(self):
        return 0.0

    def second_moment(self):
        return 2.0 / _lcp_normalizer()

    def second_moment_tail(self, u):
        u = np.asarray(u, dtype=float)
        return (2.0 / _lcp_normalizer()) / np.log(np.log(np.maximum(u, _EE)))

    def kinks(self):
        return (_EE,)

    def theta(self, T):
        # density (1/Z)|x|^-3 (log|x|)^-1 (loglog|x|)^-2 on |x| > e^e; by
        # symmetry integrate one side and double.  For x <= sqrt(T) the
        # weight is 2 log x, cancelling the (log x)^-1 factor.
        root_t = math.sqrt(T)
        total = 0.0
        if root_t > _EE:
            from scipy import integrate
            val, _ = integrate.quad(
                lambda w: 1.0 / math.log(w) ** 2,  # w = log x
                math.e,
                math.log(root_t),
                epsabs=1e-13,
                epsrel=1e-11,
            )
            total += 2.0 * val
            total += math.log(T) / math.log(math.log(root_t))
        else:
            total += math.log(T) / 1.0  # loglog(e^e) == 1
        return total / _lcp_normalizer()


@cache
def _lcp_normalizer():
    # total mass of the unnormalized two-sided density
    from scipy import integrate
    val, _ = integrate.quad(
        lambda x: x**-3 / (math.log(x) * math.log(math.log(x)) ** 2),
        _EE,
        math.inf,
        epsabs=1e-14,
        epsrel=1e-12,
    )
    return 2.0 * val


def _phi_pdf(z):
    return np.exp(-0.5 * np.asarray(z) ** 2) / math.sqrt(2.0 * math.pi)


_erfc = np.frompyfunc(math.erfc, 1, 1)


def _phi_cdf(x):
    """Standard normal CDF ``0.5 * erfc(-x / sqrt(2))`` as float64 with the
    shape of ``x`` (0-d for a float)."""
    return 0.5 * np.asarray(_erfc(-np.asarray(x, dtype=float) / math.sqrt(2.0)), dtype=float)


def _quad_sum(f, pieces):
    from scipy import integrate
    total = 0.0
    for a, b in pieces:
        val, _ = integrate.quad(f, a, b, limit=200, epsabs=1e-13, epsrel=1e-11)
        total += val
    return total


def _logplus_min(T, x):
    return max(0.0, math.log(min(T, x * x)))


# ---------------------------------------------------------------------------
# Levy models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BrownianDrift:
    sigma: float = 1.0
    mu: float = 0.0

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ParameterError(f"sigma must be > 0, got {self.sigma}")

    def mean_rate(self):
        return self.mu

    def variance_rate(self):
        return self.sigma**2

    def attraction_alpha(self):
        return 2.0

    def increment(self, t, rng):
        return self.mu * t + self.sigma * math.sqrt(t) * rng.standard_normal()

    def norming(self, T):
        return math.sqrt(T)

    def levy_measure(self):
        return None


@dataclass(frozen=True)
class CompoundPoissonDrift:
    rate: float = 1.0
    jump: object = None
    mu: float = 0.0

    def __post_init__(self):
        if not self.rate > 0.0:
            raise ParameterError(f"rate must be > 0, got {self.rate}")
        if self.jump is None:
            raise ParameterError("compound Poisson model needs a jump law")

    def mean_rate(self):
        jm = self.jump.mean()
        if not math.isfinite(jm):
            raise RegimeError("mean of X_1 is undefined for these jumps")
        return self.mu + self.rate * jm

    def variance_rate(self):
        return self.rate * self.jump.second_moment()

    def attraction_alpha(self):
        return self.jump.attraction_alpha()

    def increment(self, t, rng):
        n = rng.poisson(self.rate * t)
        jumps = self.jump.sample_sum(n, rng) if n else 0.0
        return self.mu * t + jumps

    def norming(self, T):
        # below index 2 only Pareto jumps are attracted; their norming takes
        # the slowly varying part as one
        a = self.attraction_alpha()
        if a < 2.0:
            return self.jump.scale * (self.rate * T) ** (1.0 / a)
        return math.sqrt(T)

    def levy_measure(self):
        return self.rate, self.jump


@dataclass(frozen=True)
class StableProcess:
    alpha: float
    beta: float = 0.0
    scale: float = 1.0
    mu: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0) or self.alpha == 1.0:
            raise ParameterError(
                f"alpha must lie in (0, 2] and differ from 1, got {self.alpha}"
            )
        if not -1.0 <= self.beta <= 1.0:
            raise ParameterError(f"beta must lie in [-1, 1], got {self.beta}")
        if not self.scale > 0.0:
            raise ParameterError(f"scale must be > 0, got {self.scale}")

    def mean_rate(self):
        if self.alpha <= 1.0:
            raise RegimeError(
                f"mean of X_1 is undefined for stable alpha={self.alpha} <= 1"
            )
        return self.mu

    def variance_rate(self):
        if self.alpha < 2.0:
            return math.inf
        return 2.0 * self.scale**2

    def attraction_alpha(self):
        return self.alpha

    def increment(self, t, rng):
        s = stable_standard(self.alpha, self.beta, rng)
        return self.mu * t + self.scale * t ** (1.0 / self.alpha) * float(s)

    def norming(self, T):
        if self.alpha == 2.0:
            return self.scale * math.sqrt(2.0 * T)
        return self.scale * T ** (1.0 / self.alpha)

    def levy_measure(self):
        raise RegimeError("stable jump measures have an infinite second moment")


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def stable_standard(alpha, beta, rng, size=None):
    """Standard strictly stable draw(s) via the Chambers-Mallows-Stuck
    transform; ``size=None`` returns a scalar.

    An array of draws overwrites its uniforms, the only full-size array it
    makes: each piece of :data:`CMS_PIECE` uniforms draws its exponentials
    and is transformed in place.  The exponentials of all pieces are the
    same stream as one full draw after the uniforms, and each piece
    evaluates the whole-array expression operation for operation, so every
    draw keeps its bits.
    """
    gaussian = alpha == 2.0 and beta == 0.0   # exact reduction: 2 sin(U) sqrt(W) ~ N(0, 2)
    tb = beta * math.tan(math.pi * alpha / 2.0)
    b0 = math.atan(tb) / alpha
    s0 = (1.0 + tb * tb) ** (1.0 / (2.0 * alpha))
    if size is None:   # numpy scalars may round apart from the array loops
        u = (rng.random() - 0.5) * math.pi
        w = rng.standard_exponential()
        if gaussian:
            return 2.0 * np.sin(u) * np.sqrt(w)
        return (
            s0
            * np.sin(alpha * (u + b0))
            / np.cos(u) ** (1.0 / alpha)
            * (np.cos(u - alpha * (u + b0)) / w) ** ((1.0 - alpha) / alpha)
        )
    u = rng.random(size)
    u -= 0.5
    u *= math.pi
    flat = u.reshape(-1)   # a view: the array is fresh and contiguous
    for lo in range(0, flat.size, CMS_PIECE):
        x = flat[lo : lo + CMS_PIECE]
        e = rng.standard_exponential(x.size)
        if gaussian:
            x[:] = 2.0 * np.sin(x) * np.sqrt(e)
            continue
        # at beta = 0 the shift b0 and the factor s0 are exact no-ops
        a = alpha * (x + b0) if b0 else alpha * x
        c = (np.cos(x - a) / e) ** ((1.0 - alpha) / alpha)
        s = s0 * np.sin(a) if s0 != 1.0 else np.sin(a)
        x[:] = s / np.cos(x) ** (1.0 / alpha) * c
    return u


def sample_increment(model, t, rng):
    """One draw distributed exactly as X_t under the model."""
    if not t > 0.0:
        raise ParameterError(f"increment duration must be > 0, got {t}")
    return model.increment(t, rng)


@dataclass(frozen=True)
class PathSkeleton:
    """Finite time-ordered record of one path.

    ``times`` is strictly increasing from 0 to ``horizon``.  A record is
    an exact jump record (compound Poisson with drift) exactly when it has
    ``pre_values``: the left-limit value at each time, so the full cadlag
    path is reconstructible by linear interpolation between a post-jump
    value and the next pre-jump value.  A grid record has none.
    """

    times: np.ndarray
    values: np.ndarray
    horizon: float
    pre_values: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.times)
        if len(t) < 2 or t[0] != 0.0 or t[-1] != self.horizon:
            raise ParameterError("path record must run from time 0 to the horizon")
        if (t[1:] <= t[:-1]).any():
            raise ParameterError("path times must be strictly increasing")
        pre = self.pre_values
        if len(self.values) != len(t) or (pre is not None and len(pre) != len(t)):
            raise ParameterError("path values and pre-jump values must have one entry per time")
        if self.values[0] != 0.0:
            raise ParameterError("path must start at value 0")


def sample_path(model, T, resolution, rng):
    """Sample a path record on [0, T].

    ``resolution`` is either the string ``"exact-jumps"`` (compound Poisson
    with drift only: every jump time with pre- and post-jump values) or a
    positive grid step ``h`` giving values at ``{0, h, 2h, ..., T}`` with
    exact increments per step.
    """
    if not T > 0.0:
        raise ParameterError(f"horizon must be > 0, got {T}")
    if resolution == EXACT_JUMPS:
        if not isinstance(model, CompoundPoissonDrift):
            raise UnsupportedExactnessError(
                "exact jump records exist only for compound Poisson with drift"
            )
        return _sample_cp_exact(model, T, rng)
    h = float(resolution)
    if not h > 0.0:
        raise ParameterError(f"grid step must be > 0, got {resolution}")
    return _sample_grid(model, T, h, rng)


def _sample_cp_exact(model, T, rng):
    n = rng.poisson(model.rate * T)
    s = np.sort(rng.random(n)) * T
    jumps = model.jump.sample(n, rng)
    # rows: times, post- and pre-jump values, filled in place (fewer numpy calls)
    rec = np.zeros((3, n + 2))
    rec[0, 1:-1] = s
    rec[0, -1] = T
    walk = np.zeros(n + 1)  # jump sum up to each point, starting at 0
    np.cumsum(jumps, out=walk[1:])
    drift = model.mu * s
    np.add(drift, walk[1:], out=rec[1, 1:-1])
    np.add(drift, walk[:-1], out=rec[2, 1:-1])
    rec[1:, -1] = model.mu * T + walk[-1]
    if n and s[-1] == T:  # jump exactly at the horizon: keep times strict
        rec = rec[:, :-1]
    return PathSkeleton(rec[0], rec[1], T, rec[2])


def _sample_grid(model, T, h, rng):
    k = int(math.floor(T / h + 1e-12))
    times = h * np.arange(k + 1)
    if times[-1] < T - 1e-12 * max(T, 1.0):
        times = np.append(times, T)
    else:
        times[-1] = T
    durations = np.diff(times)
    incs = np.array([sample_increment(model, d, rng) for d in durations])
    values = np.concatenate(([0.0], np.cumsum(incs)))
    return PathSkeleton(times, values, T)


# ---------------------------------------------------------------------------
# norming sequences
# ---------------------------------------------------------------------------

def norming(model, T):
    """Scaling sequence a_T of the attracted fluctuation X_T - E[X_T].

    Finite-variance models use the alpha = 2 branch a_T = sqrt(T) (the limit
    then carries the variance).  Exact stable processes use
    ``scale * T^(1/alpha)``, except alpha = 2 where ``scale * sqrt(2 T)``
    matches the Gaussian variance of the unit-scale draw.  Compound Poisson
    models with Pareto jumps of tail index a < 2 are attracted but not
    stable; their norming is taken as ``jump_scale * (rate * T)^(1/a)``
    (slowly varying part set to one).
    """
    if not T > 0.0:
        raise ParameterError(f"horizon must be > 0, got {T}")
    return model.norming(T)


# ---------------------------------------------------------------------------
# the centering integral Theta
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def theta(model, T):
    """Centering correction: half the integral of
    ``x^2 * log+(min(T, x^2))`` against the jump measure."""
    jumps = _finite_jump_measure(model, T)
    if jumps is None:
        return 0.0
    rate, jump = jumps
    return rate * jump.theta(T)


@lru_cache(maxsize=1024)
def theta_fubini(model, T):
    """Same quantity through the time-side form
    ``(1/2) * int_1^T t^-1 * (tail second moment at sqrt(t)) dt``;
    provided as an independent cross-check of :func:`theta`."""
    jumps = _finite_jump_measure(model, T)
    if jumps is None or T == 1.0:
        return 0.0
    rate, jump = jumps
    # substitute t = u^2: (1/2) int_1^T G(sqrt(t))/t dt = int_1^sqrt(T) G(u)/u du
    return rate * jump.theta_time_side(math.sqrt(T))


def _finite_jump_measure(model, T):
    """The model's ``(rate, jump)`` pair, or None, after the argument checks
    that both forms of the centering integral share."""
    if not T >= 1.0:
        raise ParameterError(f"the centering integral needs T >= 1, got {T}")
    jumps = model.levy_measure()
    if jumps is not None and not math.isfinite(jumps[1].second_moment()):
        raise DivergentIntegralError("jump measure has infinite second moment")
    return jumps
