"""Exact-in-law sampling of the concave-majorant shape quintuple
(length, big-face count, final value, supremum, time of supremum) through
the stick-breaking construction, plus the normalized statistics whose weak
limits the verification suite tests.

One draw generates sticks ``t_n`` on [0, T] until the scaled remainder
falls below the cutoff, attaching to each stick an independent process
increment ``xi_n`` over that duration (drawn immediately after the stick's
uniform, so that a rerun with a smaller cutoff extends the same record).
The interval carrying all unrecorded sticks enters as a single aggregated
pseudo-face.  Consequences:

* the final value is exact in law at any cutoff;
* the big-stick count is exact whenever ``cutoff <= 1``;
* length, supremum and supremum time carry a remainder-splitting bias whose
  expected size is bounded by twice the mean absolute increment over the
  remainder, reported per draw in ``truncation_error_bound`` (for stable
  models with undefined mean the reported figure is a scale proxy, not an
  expectation bound).

The time of the supremum is returned as ``T`` times the positive-slope
share of the accumulated length, which keeps its endpoint atoms at exactly
0 and T in floating point.

A :class:`QuintupleSample` holds either one draw (scalar fields, as
:func:`sample_quintuple` returns) or a batch of draws at one horizon and
cutoff (equal-length 1-d arrays, as :func:`stack_quintuples` returns).  The
``normalize_*`` functions run the same arithmetic on either form: their
``coords`` have shape ``(k,)`` for one draw and ``(n, k)`` for a batch of
``n``, row ``i`` equal to the coordinates of draw ``i``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RegimeError, TruncationError
from .models import (
    StableProcess,
    norming,
    sample_increment,
    theta,
    truncated_variance,
)

__all__ = [
    "DEFAULT_CUTOFF",
    "QuintupleSample",
    "NormalizedStat",
    "sample_quintuple",
    "stack_quintuples",
    "normalize_finite_variance",
    "normalize_stable_zero_mean",
    "normalize_heavy",
    "normalize_drift",
    "compute_sigma_t",
]

DEFAULT_CUTOFF = 1e-3

_ZERO_MEAN_TOL = 1e-9


@dataclass(frozen=True)
class QuintupleSample:
    """Exact-in-law draws of the majorant shape statistics.

    The per-draw fields (``upsilon`` through ``truncation_error_bound``)
    are scalars for one draw, or equal-length 1-d arrays for a batch of
    draws sharing ``horizon`` and ``cutoff``.  Only single draws carry
    ``sticks`` and ``xis``.
    """

    upsilon: float
    h_prime: int
    final: float
    sup: float
    gamma: float
    excess: float                  # upsilon minus the accumulated length
    truncation_error_bound: float
    horizon: float
    cutoff: float
    sticks: np.ndarray | None = None   # scaled sticks incl. the remainder
    xis: np.ndarray | None = None      # increments incl. the remainder's


@dataclass(frozen=True)
class NormalizedStat:
    """Left-hand-side coordinates of one limit theorem at finite horizon:
    ``coords`` has shape ``(k,)`` for one draw and ``(n, k)`` for a batch
    of ``n`` draws."""

    regime: str
    coords: np.ndarray
    horizon: float
    model: str
    centering: str = ""


def sample_quintuple(model, T, rng, cutoff=DEFAULT_CUTOFF, keep_sticks=False):
    """Draw the quintuple through the stick-breaking construction."""
    if not T > 0.0:
        raise ParameterError(f"horizon must be > 0, got {T}")
    if not cutoff > 0.0:
        raise ParameterError(f"cutoff must be > 0, got {cutoff}")
    if cutoff > 1.0:
        raise TruncationError(
            "cutoff > 1 makes the big-face count inexact; use cutoff <= 1"
        )
    L = 1.0
    total = pos_len = sup = final = excess = 0.0
    h_prime = 0
    ts: list[float] = []
    xs: list[float] = []
    while T * L >= cutoff:
        v = rng.random()
        ell = v * L
        L -= ell
        t = T * ell
        xi = sample_increment(model, t, rng)
        if keep_sticks:
            ts.append(t)
            xs.append(xi)
        total += t
        final += xi
        excess += xi * xi / (t + math.hypot(t, xi))
        if xi > 0.0:
            pos_len += t
            sup += xi
        if t >= 1.0:
            h_prime += 1
    rem = T * L
    if rem > 0.0:
        xi = sample_increment(model, rem, rng)
        if keep_sticks:
            ts.append(rem)
            xs.append(xi)
        total += rem
        final += xi
        excess += xi * xi / (rem + math.hypot(rem, xi))
        if xi > 0.0:
            pos_len += rem
            sup += xi
    gamma = T * (pos_len / total)
    return QuintupleSample(
        upsilon=total + excess,
        h_prime=h_prime,
        final=final,
        sup=sup,
        gamma=gamma,
        excess=excess,
        truncation_error_bound=_remainder_bound(model, rem),
        horizon=T,
        cutoff=cutoff,
        sticks=np.array(ts) if keep_sticks else None,
        xis=np.array(xs) if keep_sticks else None,
    )


_PER_DRAW = ("upsilon", "h_prime", "final", "sup", "gamma", "excess", "truncation_error_bound")


def stack_quintuples(records):
    """Batch record of single draws or batches taken at one horizon and
    cutoff, concatenated in the given order."""
    head = records[0]
    if any(r.horizon != head.horizon or r.cutoff != head.cutoff for r in records):
        raise ParameterError("stacked quintuples must share one horizon and cutoff")

    def column(name):
        vals = [getattr(r, name) for r in records]
        return np.concatenate(vals) if np.ndim(vals[0]) else np.array(vals)

    return QuintupleSample(*map(column, _PER_DRAW), horizon=head.horizon, cutoff=head.cutoff)


def _remainder_bound(model, s):
    """Reported bound on the remainder-splitting bias: twice the mean
    absolute increment over duration ``s`` where the mean exists, twice the
    typical scale otherwise."""
    if s <= 0.0:
        return 0.0
    if isinstance(model, StableProcess):
        drift = abs(model.mu) * s
        if model.alpha == 2.0:
            spread = model.scale * math.sqrt(2.0 * s)
        else:
            # no second (for alpha < 1: first) moment; scale proxy
            spread = 4.0 * model.scale * s ** (1.0 / model.alpha)
        return 2.0 * (drift + spread)
    drift = abs(model.mean_rate()) * s
    var = model.variance_rate()
    return 2.0 * (drift + math.sqrt(var * s))


# ---------------------------------------------------------------------------
# normalized statistics
# ---------------------------------------------------------------------------

def _require_zero_mean(model):
    if abs(model.mean_rate()) > _ZERO_MEAN_TOL:
        raise RegimeError(
            f"statistic assumes a zero-mean model, got mean rate {model.mean_rate()}"
        )


def _require_finite_variance(model):
    var = model.variance_rate()
    if not (math.isfinite(var) and var > 0.0):
        raise RegimeError(f"statistic needs finite positive variance, got {var}")
    return var


def normalize_finite_variance(model, q: QuintupleSample, centering="stochastic"):
    """Finite-variance zero-mean quintuple coordinates.

    ``stochastic`` centers the length by the big-face count; ``deterministic``
    replaces the count by log T (the two differ per draw by exactly half the
    variance times the count fluctuation coordinate).
    """
    if centering not in ("stochastic", "deterministic"):
        raise ParameterError(f"unknown centering {centering!r}")
    _require_zero_mean(model)
    var = _require_finite_variance(model)
    T = q.horizon
    if not T > math.e:
        raise RegimeError("normalization needs T > e so that log T > 1")
    lt = math.log(T)
    th = theta(model, T)
    center = q.h_prime if centering == "stochastic" else lt
    c1 = ((q.upsilon - T) - 0.5 * var * center + th) / math.sqrt(lt)
    coords = np.stack(
        [
            c1,
            (q.h_prime - lt) / math.sqrt(lt),
            q.sup / math.sqrt(T),
            q.final / math.sqrt(T),
            q.gamma / T,
        ],
        axis=-1,
    )
    return NormalizedStat("finite-variance", coords, T, repr(model), centering)


def normalize_stable_zero_mean(model, q: QuintupleSample):
    """Zero-mean, infinite-variance coordinates for attraction index in (1, 2)."""
    alpha = model.attraction_alpha()
    if not 1.0 < alpha < 2.0:
        raise RegimeError(f"statistic needs attraction index in (1, 2), got {alpha}")
    _require_zero_mean(model)
    T = q.horizon
    a_t = norming(model, T)
    coords = np.stack(
        [
            (q.upsilon - T) * T / a_t**2,
            q.sup / a_t,
            q.final / a_t,
            q.gamma / T,
        ],
        axis=-1,
    )
    return NormalizedStat("stable-zero-mean", coords, T, repr(model))


def normalize_heavy(model, q: QuintupleSample):
    """Joint majorant/minorant coordinates for attraction index in (0, 1).

    The minorant block is taken from the same draw by sign reflection of
    the face heights (the minorant of the reflected path): its length
    coordinate coincides with the majorant's, its infimum is final - sup,
    and its time coordinate is the complementary length share.  Marginally
    each block is exact in law; the cross-block coupling is the
    construction's convention.
    """
    alpha = model.attraction_alpha()
    if not 0.0 < alpha < 1.0:
        raise RegimeError(f"statistic needs attraction index in (0, 1), got {alpha}")
    T = q.horizon
    a_t = norming(model, T)
    coords = np.stack(
        [
            q.upsilon / a_t,
            q.sup / a_t,
            q.final / a_t,
            q.gamma / T,
            q.upsilon / a_t,
            (q.final - q.sup) / a_t,
            q.final / a_t,
            (T - q.gamma) / T,
        ],
        axis=-1,
    )
    return NormalizedStat("heavy", coords, T, repr(model))


def normalize_drift(model, q: QuintupleSample, case):
    """Nonzero-mean coordinates for attraction index in (1, 2].

    Case "a" (positive mean) scales all three fluctuations; case "b"
    (negative mean) leaves the supremum and its time unscaled since both
    converge to almost-surely finite limits.
    """
    if case not in ("a", "b"):
        raise ParameterError(f"case must be 'a' or 'b', got {case!r}")
    mu = model.mean_rate()
    if mu == 0.0:
        raise RegimeError("statistic assumes a nonzero mean")
    if case == "a" and mu < 0.0:
        raise RegimeError("case 'a' needs a positive mean")
    if case == "b" and mu > 0.0:
        raise RegimeError("case 'b' needs a negative mean")
    alpha = model.attraction_alpha()
    if not 1.0 < alpha <= 2.0:
        raise RegimeError(f"statistic needs attraction index in (1, 2], got {alpha}")
    T = q.horizon
    a_t = norming(model, T)
    length_fluct = (q.upsilon - math.sqrt(1.0 + mu * mu) * T) / a_t
    if case == "a":
        coords = np.stack(
            [length_fluct, (q.sup - mu * T) / a_t, (q.final - mu * T) / a_t], axis=-1
        )
        return NormalizedStat("drift-a", coords, T, repr(model))
    coords = np.stack([length_fluct, q.sup, (q.final - mu * T) / a_t, q.gamma], axis=-1)
    return NormalizedStat("drift-b", coords, T, repr(model))


def compute_sigma_t(model, T, sticks, xis, kappa=1.0):
    """Big-stick variance-mismatch diagnostic.

    Sums ``xi^2 / t - sigma_t^2`` over sticks of scaled length at least 1
    and divides by twice the root of log T; ``sigma_t^2`` is the model
    variance minus the jump second moment beyond ``kappa * sqrt(t)``.
    """
    if not kappa >= 1.0:
        raise ParameterError(f"kappa must be >= 1, got {kappa}")
    if not T > math.e:
        raise RegimeError("diagnostic needs T > e so that log T > 1")
    sigma1 = float(truncated_variance(model, 1.0, kappa))
    if not sigma1 > 0.0:
        raise RegimeError(
            f"kappa={kappa} truncates the whole variance (sigma_1^2 = {sigma1})"
        )
    t = np.asarray(sticks, dtype=float)
    x = np.asarray(xis, dtype=float)
    big = t >= 1.0
    if not big.any():
        return 0.0
    tb, xb = t[big], x[big]
    sig2 = truncated_variance(model, tb, kappa)
    return float((xb * xb / tb - sig2).sum() / (2.0 * math.sqrt(math.log(T))))
