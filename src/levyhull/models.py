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

Each model class is the one place that knows its rules: its increments,
its norming, its Levy measure, its moments, and its limit law's index and
skewness (``attraction_alpha``, ``limit_beta``).  Each jump law likewise
carries its own pieces of the centering integral Theta: its atoms or its
kink points and its closed form or quadrature.  The free functions below
check their arguments and delegate.  A new model or jump law is therefore
one class here plus one entry in ``config.MODELS`` or ``config.JUMPS``;
its constructor parameters are its configuration keys.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

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
    "JumpPaths",
    "EXACT_JUMPS",
    "sample_increment",
    "sample_path",
    "sample_jump_paths",
    "norming",
    "theta",
    "theta_fubini",
    "stable_standard",
]

EXACT_JUMPS = "exact-jumps"

CMS_PIECE = 4096   # elements per piece of the array transform of stable_standard

# Support floor of the log-corrected jump law: exp(exp(1)).
_EE = math.exp(math.e)


def _require_finite(params):
    """Refuse a model or jump law with a NaN or infinite float parameter:
    no range check below can see NaN, and an infinite one fails only
    inside numpy, after the draws have begun."""
    for name, x in vars(params).items():
        if isinstance(x, float) and not math.isfinite(x):
            raise ParameterError(f"{name} must be finite, got {x}")


# ---------------------------------------------------------------------------
# jump distributions
# ---------------------------------------------------------------------------

class _JumpLaw:
    """Pieces of the centering integral shared by the jump laws.

    A jump law gives ``theta(T)``, half of ``E[J^2 log+(min(T, J^2))]``,
    and ``theta_time_side(root_t)``, the same quantity as
    ``int_1^root_t G(u) / u du`` with ``G`` the tail second moment.  By
    default the time side is :func:`_de_quad` of ``G(e^v)`` over ``v = log
    u``, split at the logarithms of the :meth:`kinks`.
    """

    def sample_sums(self, counts, rng):
        """Sums of ``counts[i]`` independent jumps, one per cell: by default
        one :meth:`sample` of all the jumps, summed cell by cell."""
        cells = np.repeat(np.arange(np.size(counts)), np.ravel(counts))
        sums = np.bincount(cells, weights=self.sample(cells.size, rng), minlength=np.size(counts))
        return sums.reshape(np.shape(counts))

    def kinks(self):
        """Points where the tail second moment is not smooth."""
        return ()

    def attraction_alpha(self):
        if math.isfinite(self.second_moment()):
            return 2.0
        raise RegimeError("attraction index is not defined for these jumps")

    def limit_beta(self):
        return 0.0

    def theta_time_side(self, root_t):
        kinks = [math.log(k) for k in self.kinks() if 1.0 < k < root_t]
        return _de_quad(lambda v: self.second_moment_tail(np.exp(v)), 0.0, *kinks, math.log(root_t))


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
        _require_finite(self)
        if not 0.0 <= self.p_up <= 1.0:
            raise ParameterError(f"p_up must lie in [0, 1], got {self.p_up}")
        if not self.up > 0.0:
            raise ParameterError(f"up must be > 0, got {self.up}")
        if not self.down < 0.0:
            raise ParameterError(f"down must be < 0, got {self.down}")

    def sample(self, n, rng):
        return np.where(rng.random(n) < self.p_up, self.up, self.down)

    def sample_sums(self, counts, rng):
        k = rng.binomial(counts, self.p_up)
        return k * self.up + (counts - k) * self.down

    def first_moment(self):
        return self.p_up * self.up + (1.0 - self.p_up) * self.down

    def second_moment(self):
        return self.p_up * self.up**2 + (1.0 - self.p_up) * self.down**2

    def atoms(self):
        return [(self.up, self.p_up), (self.down, 1.0 - self.p_up)]


@dataclass(frozen=True)
class Gaussian(_JumpLaw):
    mean: float
    sd: float

    def __post_init__(self):
        _require_finite(self)
        if not self.sd > 0.0:
            raise ParameterError(f"sd must be > 0, got {self.sd}")

    def sample(self, n, rng):
        return self.mean + self.sd * rng.standard_normal(n)

    def sample_sums(self, counts, rng):
        # the sum of n independent Gaussians has an exact closed form
        return counts * self.mean + self.sd * np.sqrt(counts) * rng.standard_normal(np.shape(counts))

    def first_moment(self):
        return self.mean

    def second_moment(self):
        return self.mean**2 + self.sd**2

    def second_moment_tail(self, u):
        # E[J^2] - E[J^2; -u <= J <= u] with the truncated moment in closed
        # form: for Z standard normal, E[Z^2; Z <= z] = Phi(z) - z phi(z).
        u = np.asarray(u, dtype=float)
        m, s = self.mean, self.sd
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

        def integrand(x):   # jumps of x and of -x, for x >= 1
            m, s = self.mean, self.sd
            return 0.5 * x * x * _logplus_min(T, x) * (_phi_pdf((x - m) / s) + _phi_pdf((x + m) / s)) / s

        return _de_quad(integrand, 1.0, root_t, math.inf)


@dataclass(frozen=True)
class Pareto(_JumpLaw):
    """Two-sided Pareto: |J| = scale * U^(-1/tail_index), sign up w.p. p_up."""

    tail_index: float
    scale: float
    p_up: float = 0.5

    def __post_init__(self):
        _require_finite(self)
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

    def first_moment(self):
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

    def limit_beta(self):
        return 2.0 * self.p_up - 1.0 if self.tail_index < 2.0 else 0.0

    def theta(self, T):
        a, s = self.tail_index, self.scale

        def integrand(v):   # in v = log x, where the power tail decays exponentially
            return 0.5 * np.clip(2.0 * v, 0.0, math.log(T)) * a * s**a * np.exp((2.0 - a) * v)

        # two-sided law: both signs carry |x|, so one side covers the mass
        lo = max(math.log(s), 0.0)
        return _de_quad(integrand, lo, max(lo, 0.5 * math.log(T)), math.inf)


@dataclass(frozen=True)
class PointMass(_AtomicJump):
    x: float

    def __post_init__(self):
        _require_finite(self)
        if self.x == 0.0:
            raise ParameterError("point-mass jump size must be nonzero")

    def sample(self, n, rng):
        return np.full(n, self.x, dtype=float)

    def sample_sums(self, counts, rng):
        return counts * self.x

    def first_moment(self):
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

    def first_moment(self):
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
        if root_t <= _EE:
            return math.log(T) / _lcp_normalizer()   # loglog(e^e) == 1
        body = 2.0 * _de_quad(lambda w: np.log(w) ** -2.0, math.e, math.log(root_t))   # w = log x
        return (body + math.log(T) / math.log(math.log(root_t))) / _lcp_normalizer()


@cache
def _lcp_normalizer():
    # total mass of the unnormalized two-sided density
    return 2.0 * _de_quad(lambda x: x**-3.0 / (np.log(x) * np.log(np.log(x)) ** 2), _EE, math.inf)


def _phi_pdf(z):
    return np.exp(-0.5 * np.asarray(z) ** 2) / math.sqrt(2.0 * math.pi)


_erfc = np.frompyfunc(math.erfc, 1, 1)


def _phi_cdf(x):
    """Standard normal CDF ``0.5 * erfc(-x / sqrt(2))`` as float64 with the
    shape of ``x`` (0-d for a float)."""
    return 0.5 * np.asarray(_erfc(-np.asarray(x, dtype=float) / math.sqrt(2.0)), dtype=float)


def _de_rules():
    """Nodes and weights of the double-exponential rule (Takahasi & Mori
    1974) at step 1/64 on ``|t| <= 6``, 769 nodes with ``s = (pi/2) sinh t``:
    tanh-sinh, ``x = tanh(s)`` on [-1, 1], and exp-sinh, ``x = exp(s)`` on
    [0, inf), each weight ``dx/dt`` times the step."""
    t = np.arange(-384, 385) / 64.0
    s, ds = 0.5 * math.pi * np.sinh(t), 0.5 * math.pi * np.cosh(t) / 64.0
    return (np.tanh(s), ds / np.cosh(s) ** 2), (np.exp(s), ds * np.exp(s))


_TANH_SINH, _EXP_SINH = _de_rules()


def _de_quad(f, *edges):
    """Integral of ``f`` (vectorized over arrays) from the first edge to the
    last, with one double-exponential rule per piece between consecutive
    edges, the points where ``f`` is not smooth: tanh-sinh on a finite
    piece, exp-sinh on one that ends at ``inf``.  The exp-sinh nodes stop
    at ``x - a = exp(317)``, so a tail decaying like ``x^(-1 - eps)`` loses
    ``(a / exp(317))^eps`` of its mass: at ``a = 1e3``, 3e-14 for ``eps =
    0.1`` but 2e-7 for ``eps = 0.05``.  Such a tail is integrated in
    ``log x``, where it decays exponentially."""
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b == math.inf:
            x, w = _EXP_SINH
            total += float(np.dot(f(a + x), w))
        else:
            (x, w), r = _TANH_SINH, 0.5 * (b - a)
            total += r * float(np.dot(f(a + r + r * x), w))
    return total


def _logplus_min(T, x):
    """``log+(min(T, x^2))``, elementwise for an array ``x``."""
    return np.log(np.clip(np.multiply(x, x), 1.0, T))


# ---------------------------------------------------------------------------
# Levy models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BrownianDrift:
    sigma: float = 1.0
    mu: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if not self.sigma > 0.0:
            raise ParameterError(f"sigma must be > 0, got {self.sigma}")

    def mean_rate(self):
        return self.mu

    def variance_rate(self):
        return self.sigma**2

    def attraction_alpha(self):
        return 2.0

    def limit_beta(self):
        return 0.0

    def increments(self, t, rng):
        return self.mu * t + self.sigma * np.sqrt(t) * rng.standard_normal(t.shape)

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
        _require_finite(self)
        if not self.rate > 0.0:
            raise ParameterError(f"rate must be > 0, got {self.rate}")
        if self.jump is None:
            raise ParameterError("compound Poisson model needs a jump law")

    def mean_rate(self):
        jm = self.jump.first_moment()
        if not math.isfinite(jm):
            raise RegimeError("mean of X_1 is undefined for these jumps")
        return self.mu + self.rate * jm

    def variance_rate(self):
        return self.rate * self.jump.second_moment()

    def attraction_alpha(self):
        return self.jump.attraction_alpha()

    def limit_beta(self):
        return self.jump.limit_beta()

    def increments(self, t, rng):
        return self.mu * t + self.jump.sample_sums(rng.poisson(self.rate * t), rng)

    def norming(self, T):
        """``jump_scale * (C_a * rate * T)^(1/a)`` for Pareto jumps of index
        a < 2 (see :func:`norming`), else ``sqrt(T)``."""
        a = self.attraction_alpha()
        if a == 1.0:
            raise RegimeError("no limit regime for attraction index 1.0")
        if a < 2.0:
            c_a = math.gamma(1.0 - a) * math.cos(0.5 * math.pi * a)
            return self.jump.scale * (c_a * self.rate * T) ** (1.0 / a)
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
        _require_finite(self)
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

    def limit_beta(self):
        return self.beta

    def increments(self, t, rng):
        s = stable_standard(self.alpha, self.beta, rng, t.shape)
        return self.mu * t + self.scale * t ** (1.0 / self.alpha) * s

    def norming(self, T):
        if self.alpha == 2.0:
            return self.scale * math.sqrt(2.0 * T)
        return self.scale * T ** (1.0 / self.alpha)

    def levy_measure(self):
        raise RegimeError("stable jump measures have an infinite second moment")


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def stable_standard(alpha, beta, rng, size):
    """Array of shape ``size`` of standard strictly stable draws via the
    Chambers-Mallows-Stuck transform.

    The draws are their uniforms, then :func:`_cms_transform` of each
    piece of :data:`CMS_PIECE` of them with that piece's exponentials,
    written over the uniforms, so the uniforms are the only full-size
    array.  The exponentials of all pieces are the same stream as one full
    draw after the uniforms, and the transform is elementwise, so every
    draw keeps its bits however the cells are split.
    """
    v = rng.random(size)
    flat = v.reshape(-1)   # a view: the array is fresh and contiguous
    for lo in range(0, flat.size, CMS_PIECE):
        x = flat[lo : lo + CMS_PIECE]
        _cms_transform(alpha, beta, x, rng.standard_exponential(x.size))
    return v


@lru_cache(maxsize=1024)
def _cms_constants(alpha, beta):
    """Constants of :func:`_cms_transform` for ``0 < alpha < 2``: the signed
    factor ``s0``, the centre of the uniform in the angle ``a``, the slope
    and offset of the half angles of ``a`` and of ``x - a``, and the
    exponents ``(1 - alpha) / alpha`` and ``1 / alpha``.

    Take ``beta >= 0``; at ``beta < 0`` the draw is minus the draw at
    ``-beta`` on ``1 - u``.  With ``g = min(alpha, 2 - alpha) / 2``, exact,
    ``T = tan(pi g) = |tan(pi alpha / 2)|`` and
    ``delta = atan((1 - beta) T / (1 + beta T^2)) / pi``, which is 0 at
    ``beta = 1``, ``cos(x - a) = sin(pi (delta + |1 - alpha| u))``, and
    ``a / pi = alpha (u - 1/2) +- atan(beta T) / pi``, which is
    ``alpha (u - 1/2)`` at ``beta = 0``.  For ``beta > 1/2``, ``a / pi`` is
    taken as ``alpha u - delta`` (index below 1) or ``alpha u + delta - 1``
    (index above 1), which vanish at ``u = 0`` when ``beta = 1``.
    """
    g = min(alpha, 2.0 - alpha) / 2.0
    t = math.tan(math.pi * g)
    b = abs(beta)
    s0 = (1.0 + (b * t) ** 2) ** (1.0 / (2.0 * alpha))
    delta = math.atan((1.0 - b) * t / (1.0 + b * t * t)) / math.pi
    sign = -1.0 if beta < 0.0 else 1.0
    if b <= 0.5:
        z = math.atan(b * t) / math.pi
        centre, shift = 0.5, z if alpha < 1.0 else -z
    elif alpha < 1.0:
        centre, shift = 0.0, -delta
    else:   # sin(a) = -sin(a + pi)
        centre, shift, sign = 0.0, delta, -sign
    h = 0.5 * math.pi
    return (sign * s0, centre, h * alpha, h * shift, h * abs(1.0 - alpha), h * delta,
            (1.0 - alpha) / alpha, 1.0 / alpha)


def _cms_transform(alpha, beta, v, e):
    """Overwrite the uniforms ``v`` (one-dimensional) with standard strictly
    stable draws, given standard exponentials ``e`` of the same length
    (Chambers-Mallows-Stuck); returns ``v``.  Its temporaries are as long
    as ``v``: the callers tile, :func:`stable_standard` by
    :data:`CMS_PIECE` and the limit series by :data:`~levyhull.sticks.ROWS`
    rows, so that they stay in cache.

    With ``x = pi (u - 1/2)`` and ``a = alpha (x + b0)`` the draw is
    ``s0 sin(a) / cos(x)^(1/alpha) * (cos(x - a) / e)^((1 - alpha)/alpha)``.
    Each of its three sines and cosines is taken as ``sin(pi y)`` with ``y``
    affine in ``u``, anchored where the factor vanishes so that no angle
    is formed by cancellation: ``cos x = sin(pi min(u, 1 - u))``, and the
    other two as in :func:`_cms_constants`.  Each sine is
    ``2 tau / (1 + tau^2)`` with ``tau`` the tangent of the half angle,
    as numpy vectorizes ``tan`` and not ``sin`` or ``cos``; the factors 2
    cancel in the draw, and its powers are one ``exp`` of logarithms.
    Against mpmath the relative error stays below 1e-13 on a grid from
    ``u = 2^-53`` to ``1 - 2^-53``; the textbook form loses every digit
    at both ends (0.22 at ``u = 2^-53``, alpha 1.5).  A uniform of 0,
    where the transform is singular,
    is read as ``2^-54``.  At alpha = 2, where
    ``tan(pi alpha / 2) = 0`` and beta drops out, the draw is the exact
    ``2 sin(x) sqrt(e) ~ N(0, 2)``.
    """
    if alpha == 2.0:
        v -= 0.5
        v *= math.pi
        v[:] = 2.0 * np.sin(v) * np.sqrt(e)
        return v
    s0, centre, ka, ka0, kq, kq0, p, inv = _cms_constants(alpha, beta)
    m, a, q = np.empty((3, v.size))
    np.maximum(v, 2.0**-54, out=v)
    np.subtract(1.0, v, out=m)
    r = m if beta < 0.0 else v
    # half angles of a (up to the sign in s0), of x - a, then of x
    np.subtract(r, centre, out=a)
    a *= ka
    if ka0:
        a += ka0
    np.multiply(r, kq, out=q)
    q += kq0
    np.minimum(v, m, out=m)
    m *= 0.5 * math.pi
    for y in (a, q, m):   # half the sine: tau / (1 + tau^2)
        np.tan(y, out=y)
        np.multiply(y, y, out=v)
        v += 1.0
        y /= v
    q /= e
    np.log(q, out=q)
    q *= p
    np.log(m, out=m)
    m *= inv
    q -= m
    np.exp(q, out=q)
    np.multiply(a, q, out=v)
    if s0 != 1.0:
        v *= s0
    return v


def sample_increment(model, t, rng):
    """Independent draws distributed exactly as X_t under the model, one per
    duration in ``t`` (an array, or a float for one draw), in the shape of
    ``t``: one call of the model's array ``increments(t, rng)``."""
    t = np.asarray(t, dtype=float)
    lo, hi = np.minimum.reduce(t, axis=None), np.maximum.reduce(t, axis=None)
    if not 0.0 < lo <= hi < math.inf:
        raise ParameterError(f"increment duration must be finite and > 0, got {hi if lo > 0.0 else lo}")
    return model.increments(t, rng)


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
        t, pre = np.asarray(self.times)[None], self.pre_values
        _check_records(t, np.asarray(self.values)[None], None if pre is None else np.asarray(pre)[None],
                       np.array([t.shape[1]]), self.horizon)


@dataclass(frozen=True)
class JumpPaths:
    """Exact jump records of ``n`` paths on [0, ``horizon``] as padded
    ``(n, m)`` arrays: row ``k`` of ``times``, ``values`` (post-jump) and
    ``pre_values`` is the record :meth:`path` returns, its first
    ``sizes[k]`` entries, and NaN past them.  Every row is checked as a
    :class:`PathSkeleton` is, all rows at once (:func:`_check_records`)."""

    times: np.ndarray
    values: np.ndarray
    pre_values: np.ndarray
    sizes: np.ndarray
    horizon: float

    def __post_init__(self):
        _check_records(self.times, self.values, self.pre_values, self.sizes, self.horizon)

    def path(self, k):
        """Row ``k`` as a :class:`PathSkeleton`."""
        s = self.sizes[k]
        return PathSkeleton(self.times[k, :s], self.values[k, :s], self.horizon, self.pre_values[k, :s])


def _check_records(times, values, pre_values, sizes, horizon):
    """The rules of a path record, on ``(n, m)`` rows whose first
    ``sizes[k]`` entries are row ``k``'s record and whose rest is NaN:
    one value (and pre-jump value, if given) per time, times from 0 to
    ``horizon`` that rise strictly, and a start at value 0."""
    # count_nonzero in place of any(): a third of the cost on one row
    if not times.shape == values.shape == (sizes.size, times.shape[1]) or (
        pre_values is not None and pre_values.shape != times.shape
    ):
        raise ParameterError("path values and pre-jump values must have one entry per time")
    last = np.arange(sizes.size), sizes - 1
    if np.count_nonzero(sizes < 2) or np.count_nonzero(times[:, 0]) or np.count_nonzero(times[last] != horizon):
        raise ParameterError("path record must run from time 0 to the horizon")
    if np.count_nonzero(times[:, 1:] <= times[:, :-1]):   # false at the NaN pads
        raise ParameterError("path times must be strictly increasing")
    if np.count_nonzero(values[:, 0]):
        raise ParameterError("path must start at value 0")


def _check_horizon(T):
    if not 0.0 < T < math.inf:
        raise ParameterError(f"horizon must be finite and > 0, got {T}")


def sample_path(model, T, resolution, rng):
    """Sample a path record on [0, T].

    ``resolution`` is either the string ``"exact-jumps"`` (compound Poisson
    with drift only: every jump time with pre- and post-jump values) or a
    finite positive grid step ``h`` giving values at ``{0, h, 2h, ..., T}``
    with exact increments per step.  An exact jump record is the one-path
    view of :func:`sample_jump_paths`: its one row, on the same stream.
    """
    _check_horizon(T)
    if resolution == EXACT_JUMPS:
        return sample_jump_paths(model, T, 1, rng).path(0)
    try:
        h = float(resolution)
    except (TypeError, ValueError):
        h = math.nan
    if not 0.0 < h < math.inf:
        raise ParameterError(
            f"resolution must be {EXACT_JUMPS!r} or a finite grid step > 0, got {resolution!r}"
        )
    return _sample_grid(model, T, h, rng)


def sample_jump_paths(model, T, n, rng):
    """Exact jump records of ``n`` independent compound Poisson paths with
    drift on [0, T], as one :class:`JumpPaths` block.

    Path after path, each draws its jump count, its uniform jump times and
    its jumps, so the block is the stream of ``n`` one-path records.  The
    sort, the walk and the drift then run once on the block.  Rows are
    padded with uniforms of 1, which sort last, and jumps of 0, so the
    first pad of a row is its endpoint ``(T, mu T + jump sum)``; the
    columns after it are set to NaN.  A row whose last jump falls exactly
    at T ends at that jump, keeping its times strict.
    """
    if not isinstance(model, CompoundPoissonDrift):
        raise UnsupportedExactnessError(
            "exact jump records exist only for compound Poisson with drift"
        )
    _check_horizon(T)
    if not n >= 1:
        raise ParameterError(f"a block needs at least one path, got {n}")
    lam = model.rate * T
    counts, uniforms, jumps = [], [], []
    for _ in range(n):
        c = rng.poisson(lam)
        counts.append(c)
        uniforms.append(rng.random(c))
        jumps.append(model.jump.sample(c, rng))
    counts = np.array(counts)
    width = int(counts.max()) + 1
    drawn = np.arange(width) < counts[:, None]
    u = np.ones((n, width))
    u[drawn] = np.concatenate(uniforms)
    u.sort(axis=1)
    x = np.zeros((n, width))
    x[drawn] = np.concatenate(jumps)
    # columns: the start, the jump times, the endpoint, then NaN pads
    times, post, pre, walk = np.zeros((4, n, width + 1))
    np.multiply(u, T, out=times[:, 1:])
    sizes = counts + 2 - (times[np.arange(n), counts] == T)   # a jump at T is the endpoint
    times[np.arange(width + 1) >= sizes[:, None]] = np.nan
    np.cumsum(x, axis=1, out=walk[:, 1:])   # jump sum up to each column
    drift = model.mu * times[:, 1:]
    np.add(drift, walk[:, 1:], out=post[:, 1:])
    np.add(drift, walk[:, :-1], out=pre[:, 1:])
    return JumpPaths(times, post, pre, sizes, T)


def _sample_grid(model, T, h, rng):
    k = int(math.floor(T / h + 1e-12))
    times = h * np.arange(k + 1)
    if times[-1] < T - 1e-12 * max(T, 1.0):
        times = np.append(times, T)
    else:
        times[-1] = T
    values = np.concatenate(([0.0], np.cumsum(sample_increment(model, np.diff(times), rng))))
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
    models with Pareto jumps of index a < 2, a != 1, are attracted, not
    stable: ``jump_scale * (C_a rate T)^(1/a)``, C_a = Gamma(1 - a) cos(pi a/2)
    (Samorodnitsky & Taqqu 1994), scales them to the unit law at limit_beta().
    """
    _check_horizon(T)
    return model.norming(T)


# ---------------------------------------------------------------------------
# the centering integral Theta
# ---------------------------------------------------------------------------

def theta(model, T):
    """Centering correction: half the integral of
    ``x^2 * log+(min(T, x^2))`` against the jump measure."""
    jumps = _finite_jump_measure(model, T)
    if jumps is None:
        return 0.0
    rate, jump = jumps
    return rate * jump.theta(T)


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
