"""Exact-in-law sampling of the concave-majorant shape quintuple
(length, big-face count, final value, supremum, time of supremum) through
the stick-breaking construction, plus the normalized statistics whose weak
limits the verification suite tests.

One draw generates sticks ``t_n`` on [0, T] until the scaled remainder
falls below the cutoff, attaching to each stick an independent process
increment ``xi_n`` over that duration.  The sticks come in chunks of
:data:`CHUNK`: the chunk's uniforms, then one array increment call on its
sticks and on the remainder after them.  A chunk's stream does not depend
on the cutoff, so a rerun with a smaller cutoff extends the same record.
The interval carrying all unrecorded sticks enters as a single aggregated
pseudo-face, whose increment is the sum of those of the cells it covers.
Consequences:

* the final value is exact in law at any cutoff;
* the big-stick count is exact whenever ``cutoff <= 1``;
* length, supremum and supremum time carry a remainder-splitting bias,
  which shrinks with the remainder and is measured by refining the cutoff
  on the same stream, not reported per draw.

Each draw is :func:`~levyhull.hull.reduce_faces` of its sticks and their
increments, so a :class:`~levyhull.hull.QuintupleSample` of the
stick-breaking construction has the fields of the hull of an exact path;
the cutoff stays with the sampler and is not part of the record.
The ``normalize_*`` functions take one draw or a batch and return its
coordinate array: shape ``(k,)`` for one draw and ``(n, k)`` for a batch
of ``n``, row ``i`` equal to the coordinates of draw ``i``.  One regime
has one normalizer: :func:`normalize_finite_variance` returns the length
under both of the theorem's centerings, by the big-face count and by log T.

:func:`regime` is the one place that names a model's limit regime (from
its attraction index, the sign of its mean and ``variance_rate()``);
every ``normalize_*`` and the experiments' model gate check a model through it.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import RegimeError, TruncationError
from .hull import QuintupleSample, reduce_faces
from .models import norming, sample_increment, theta
from .sticks import _check_horizon

__all__ = [
    "DEFAULT_CUTOFF",
    "sample_quintuple",
    "regime",
    "require_finite_variance",
    "normalize_finite_variance",
    "normalize_stable",
    "normalize_drift",
]

DEFAULT_CUTOFF = 1e-3

# sticks per chunk of sample_quintuple, one increment call each; fixed, so
# that a chunk's stream does not depend on the cutoff
CHUNK = 32

_ZERO_MEAN_TOL = 1e-9


def sample_quintuple(model, T, rng, cutoff=DEFAULT_CUTOFF):
    """Draw the quintuple through the stick-breaking construction: the
    record of :func:`~levyhull.hull.reduce_faces` of the sticks drawn
    while the scaled remainder ``T * L`` before them is at least the
    cutoff, with their increments, and of the remainder at the stop, whose
    increment sums those of the last chunk's cells past the stop."""
    _check_horizon(T, cutoff)
    if cutoff > 1.0:
        raise TruncationError(
            "cutoff > 1 makes the big-face count inexact; use cutoff <= 1"
        )
    L = 1.0
    ts: list[float] = []
    xs: list[float] = []
    while True:
        # k: the chunk's sticks before the stop, or all of them; rem: the scaled remainder after them
        k, rem, cells = 0, T * L, []
        for v in rng.random(CHUNK).tolist():
            ell = v * L
            L -= ell
            cells.append(T * ell)
            if rem >= cutoff:
                k, rem = k + 1, T * L
        cells.append(T * L)
        incs = sample_increment(model, cells, rng).tolist()
        ts += cells[:k]
        xs += incs[:k]
        if rem < cutoff:
            break
    ts.append(rem)
    xs.append(sum(incs[k:]))
    return reduce_faces(ts, xs, T)


# ---------------------------------------------------------------------------
# normalized statistics
# ---------------------------------------------------------------------------

def regime(model):
    """Name of the model's limit regime: ``heavy`` for attraction index in
    (0, 1); for index in (1, 2], ``drift-a`` or ``drift-b`` when the mean
    is positive or negative (beyond ``_ZERO_MEAN_TOL``), otherwise
    ``finite-variance`` if ``variance_rate()`` is finite, else ``stable-zero-mean``.
    No statistic takes ``drift-b``; it is named so that callers refuse it
    clearly.  Raises :class:`RegimeError` for any other model."""
    alpha = model.attraction_alpha()
    if 0.0 < alpha < 1.0:
        return "heavy"
    if not 1.0 < alpha <= 2.0:
        raise RegimeError(f"no limit regime for attraction index {alpha}")
    mean = model.mean_rate()
    if abs(mean) > _ZERO_MEAN_TOL:
        return "drift-a" if mean > 0.0 else "drift-b"
    return "finite-variance" if math.isfinite(model.variance_rate()) else "stable-zero-mean"


def _require_regime(model, *names):
    """The model's regime, which must be one of ``names``."""
    got = regime(model)
    if got not in names:
        raise RegimeError(f"statistic needs the {' or '.join(names)} regime, got {got} for {model!r}")
    return got


def require_finite_variance(model, T):
    """The finite-variance regime at horizon ``T``, which also needs
    ``T > e``.  Raises :class:`RegimeError`; returns the variance rate."""
    _require_regime(model, "finite-variance")
    if not T > math.e:
        raise RegimeError("normalization needs T > e so that log T > 1")
    return model.variance_rate()


def normalize_finite_variance(model, q: QuintupleSample):
    """Finite-variance zero-mean coordinates, six columns: the length
    centered by the big-face count, the count, the supremum, the final
    value, the supremum time, and the length centered by log T, which is
    column 0 plus half the variance times column 1."""
    T = q.horizon
    var = require_finite_variance(model, T)
    lt = math.log(T)
    th = theta(model, T)
    return np.stack(
        [
            ((q.upsilon - T) - 0.5 * var * q.h_prime + th) / math.sqrt(lt),
            (q.h_prime - lt) / math.sqrt(lt),
            q.sup / math.sqrt(T),
            q.final / math.sqrt(T),
            q.gamma / T,
            ((q.upsilon - T) - 0.5 * var * lt + th) / math.sqrt(lt),
        ],
        axis=-1,
    )


def normalize_stable(model, q: QuintupleSample):
    """Infinite-variance coordinates (length, supremum, final value,
    supremum time) for a zero-mean model of attraction index in (1, 2) or
    a model of index in (0, 1).  Only the length coordinate follows the
    regime: ``(upsilon - T) T / a_T^2`` for ``stable-zero-mean`` and
    ``upsilon / a_T`` for ``heavy``."""
    name = _require_regime(model, "stable-zero-mean", "heavy")
    T = q.horizon
    a_t = norming(model, T)
    length = q.upsilon / a_t if name == "heavy" else (q.upsilon - T) * T / a_t**2
    return np.stack([length, q.sup / a_t, q.final / a_t, q.gamma / T], axis=-1)


def normalize_drift(model, q: QuintupleSample):
    """Positive-mean (``drift-a``) coordinates for attraction index in
    (1, 2]: the length and final-value fluctuations."""
    _require_regime(model, "drift-a")
    mu = model.mean_rate()
    T = q.horizon
    a_t = norming(model, T)
    length_fluct = (q.upsilon - math.sqrt(1.0 + mu * mu) * T) / a_t
    return np.stack([length_fluct, (q.final - mu * T) / a_t], axis=-1)
