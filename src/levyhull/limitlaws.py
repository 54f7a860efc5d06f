"""Independent samplers for the right-hand-side limit laws, used as the
reference side of the two-sample tests.

Every series limit is sampled by truncating its stick-breaking series at
unit-interval remainder ``L_N < eps``.  Where the law permits (the Brownian
triple) the remainder folds in exactly as one Gaussian term of variance
``L_N``; elsewhere the remainder enters as one aggregated term on a stick
of length ``L_N`` and a per-draw truncation figure is reported:

* Gaussian series: ``8 * sqrt(L_N)``, an envelope at roughly the 1e-8
  level for the coordinate changes under further refinement;
* stable series with index ``alpha``: ``ENVELOPE * L_N^p`` with ``p`` the
  series weight exponent.  The omitted mass is heavy-tailed with infinite
  mean, so no almost-sure bound exists; the envelope constant is sized so
  refinement stays below the figure except with probability well under
  1e-4 per draw.  For index below 1 (``p > 1``) the figure also carries
  ``L_N + 1e-12`` for the argmax shares, which move by up to ``L_N`` and
  by rounding.

Each series is a row reduction of one :func:`~levyhull.sticks.stick_matrix`
record per batch.  The record grows in blocks of columns: a block's
uniforms, then that block's driving variables (Gaussian or stable), then
the next block; the remainder's variable is drawn last.  A smaller ``eps``
on a fresh stream with the same seed therefore appends blocks to the same
record, which is what the refinement checks compare.  The summands are
added column by column, left to right within a block, and then block by
block, so a batch holds its record, one block of driving variables and
row accumulators, but no summand array of the record's size.

A record is as long as its slowest row, and the padding sticks stay in
the sums.  Stopping each row at its own cutoff instead, with its remainder
as one stick (alpha = 1.5, eps = 1e-6, 5e4 rows, three seeds), lowers the
quadratic series in 87 % of rows by a median 0.025 (median Q is about
4.5), a KS distance of 0.0134-0.0137 (p about 2e-4): the summand
``ell^(2/alpha - 1)`` is concave, so one remainder stick under-weights
the mass it stands for, and the padding hides that for most rows.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .models import stable_standard
from .sticks import stick_matrix

__all__ = [
    "draw_limit_finite_variance",
    "draw_limit_stable",
    "draw_limit_quadratic",
    "draw_limit_drift",
]

DEFAULT_EPS = 1e-6

# multiplies the remainder scale L^p of heavy-tailed series; see module doc
STABLE_ENVELOPE = 1e7
HEAVY_ENVELOPE = 1e10


def _check_eps(eps):
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"eps must lie in (0, 1), got {eps}")


def _series(n, eps, rng, draw, terms):
    """Row sums of a stick-breaking series on the unit interval.

    ``draw(shape)`` gives one driving variable per stick and
    ``terms(ell, x)`` maps one column of sticks and their variables to
    ``k`` summand columns.  Sticks come from :func:`stick_matrix` cut at
    ``eps``, each block's variables drawn right after its uniforms; the
    remainder enters last as one more stick.  Each block's summands are
    added column by column, left to right, into ``k`` row accumulators of
    length ``n``, which are then added to the totals, so no summand array
    is larger than a column.  Returns the ``(k, n)`` sums and the
    remainder.
    """
    sums = 0.0

    def drive(ell):
        nonlocal sums
        cols = zip(ell.T, draw(ell.T.shape))   # one row per column, like the sticks
        block = np.array(terms(*next(cols)))
        for col in cols:
            for acc, y in zip(block, terms(*col)):
                acc += y
        sums = sums + block

    _, rem = stick_matrix(n, 1.0, eps, rng, drive)
    drive(rem[:, None])
    return sums, rem


# ---------------------------------------------------------------------------
# finite-variance limit: (sigma^2/sqrt2 Z1, Z2, sigma Bbar, sigma B1, rho)
# ---------------------------------------------------------------------------

def _gaussian_terms(ell, z):
    x = np.sqrt(ell) * z
    up = x > 0.0
    return np.where(up, x, 0.0), x, ell * up, ell


def draw_limit_finite_variance(sigma, n, rng, eps=DEFAULT_EPS):
    """Batch of ``n`` finite-variance quintuple limit draws; returns
    ``(coords, bounds)`` with ``coords`` of shape ``(n, 5)``.

    Z1, Z2 are independent standard normals drawn first; the Brownian
    triple (running maximum, endpoint, argmax time) comes from the Gaussian
    stick-breaking series with the remainder folded in as one Gaussian term
    of variance ``L_N``, which keeps the endpoint coordinate exact.
    """
    if not sigma > 0.0:
        raise ParameterError(f"sigma must be > 0, got {sigma}")
    _check_eps(eps)
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    (sup, fin, pos, tot), rem = _series(n, eps, rng, rng.standard_normal, _gaussian_terms)
    coords = np.column_stack(
        [sigma**2 / math.sqrt(2.0) * z1, z2, sigma * sup, sigma * fin, pos / tot]
    )
    return coords, 8.0 * np.sqrt(rem)


# ---------------------------------------------------------------------------
# stable series: zero-mean index in (1, 2), heavy index in (0, 1)
# ---------------------------------------------------------------------------

def _quadratic(ell, s, alpha):
    """Summand of the quadratic series ``sum ell^(2/alpha - 1) S^2``."""
    return (ell ** (2.0 / alpha - 1.0) * s * s,)


def _signed(ell, s, alpha):
    """Summands of the positive and negative parts of ``sum ell^(1/alpha) S``
    (both nonnegative), of the length with ``S > 0`` and of the total length."""
    w = ell ** (1.0 / alpha) * s
    up = s > 0.0
    return np.where(up, w, 0.0), np.where(up, 0.0, -w), ell * up, ell


def _stable_series(alpha, beta, n, rng, eps, *terms):
    """:func:`_series` of the summands of each of ``terms``, driven by
    standard stable draws of index ``alpha`` and skewness ``beta``."""
    return _series(
        n, eps, rng, lambda shape: stable_standard(alpha, beta, rng, shape),
        lambda ell, s: [y for f in terms for y in f(ell, s, alpha)],
    )


def _check_alpha(alpha, lo, hi):
    if not lo < alpha < hi:
        raise ParameterError(f"alpha must lie in ({lo:g}, {hi:g}), got {alpha}")


def draw_limit_stable(alpha, n, rng, eps=DEFAULT_EPS, beta=0.0):
    """Batch of infinite-variance limit quadruples (length, supremum,
    endpoint, argmax share), all driven by one stick sequence per draw;
    returns ``(coords, bounds)``.

    Only the length coordinate follows the index: for ``alpha`` in (1, 2)
    the zero-mean quadratic series ``Q / 2``, for ``alpha`` in (0, 1) the
    absolute series ``pos + neg``, which is twice the supremum minus the
    endpoint.
    """
    _check_eps(eps)
    if 1.0 < alpha < 2.0:
        (q, pos, neg, pos_len, tot), rem = _stable_series(alpha, beta, n, rng, eps, _quadratic, _signed)
        length, bounds = 0.5 * q, STABLE_ENVELOPE * rem ** (2.0 / alpha - 1.0)
    elif 0.0 < alpha < 1.0:
        (pos, neg, pos_len, tot), rem = _stable_series(alpha, beta, n, rng, eps, _signed)
        # the argmax share moves by at most the remainder's length, plus rounding
        length, bounds = pos + neg, HEAVY_ENVELOPE * rem ** (1.0 / alpha) + rem + 1e-12
    else:
        raise ParameterError(f"alpha must lie in (0, 1) or (1, 2), got {alpha}")
    return np.column_stack([length, pos, pos - neg, pos_len / tot]), bounds


# read only by bench/tracing.TRACED, which wraps this name
draw_limit_stable_zero_mean = draw_limit_stable


def draw_limit_quadratic(alpha, n, rng, eps=DEFAULT_EPS, beta=0.0):
    """Batch of the quadratic length series alone: column 0 and the bounds
    of :func:`draw_limit_stable` on the same stream, bit for bit, for
    ``alpha`` in (1, 2), without the other three series; returns
    ``(q, bounds)``."""
    _check_alpha(alpha, 1.0, 2.0)
    _check_eps(eps)
    (q,), rem = _stable_series(alpha, beta, n, rng, eps, _quadratic)
    return 0.5 * q, STABLE_ENVELOPE * rem ** (2.0 / alpha - 1.0)


# ---------------------------------------------------------------------------
# positive-mean limit, index in (1, 2]
# ---------------------------------------------------------------------------

def draw_limit_drift(alpha, mu, n, rng, scale=1.0):
    """Batch of ``n`` rank-one ``drift-a`` limit draws, one stable draw
    ``s`` each: the length and endpoint coordinates
    ``(mu / sqrt(1 + mu^2) s, s)``; returns ``coords`` only, as nothing is
    truncated."""
    if not mu > 0.0:
        raise ParameterError(f"the drift limit needs mu > 0, got {mu}")
    if not (1.0 < alpha <= 2.0):
        raise ParameterError(f"alpha must lie in (1, 2], got {alpha}")
    s = scale * np.asarray(stable_standard(alpha, 0.0, rng, n))
    return np.column_stack([mu / math.sqrt(1.0 + mu * mu) * s, s])
