"""Independent samplers for the right-hand-side limit laws, used as the
reference side of the two-sample tests.

Every series limit is a stick-breaking series on the unit interval, and
each row stops at its own cutoff, at a remainder ``L < eps``.  Each
summand is homogeneous in the stick length, of degree ``2/alpha - 1``
(the quadratic series), ``1/alpha`` (the signed parts) or 1 (the
lengths).  By the self-similarity of uniform
stick-breaking the series past the cutoff is therefore ``L`` to that
degree times an independent copy of the whole series (Gonzalez Cazares,
Mijatovic & Uribe Bravo, EJP 2020), and the samplers fold it in that way,
each row taking the rows after it in its batch as the copy
(:func:`_series`).  How far a draw moves when ``eps`` is refined is
measured by the refinement tests, not reported per draw.

One function, :func:`_series`, runs every series: it reduces the sticks
of one run of :func:`~levyhull.sticks.stick_blocks` per batch, a column
at a time, and keeps none of them: a batch holds one block of sticks, one
column of driving variables and the index of its running rows.  A batch
draws from the caller's generator alone: a block's stick uniforms, then
that block's driving variables a column at a time (the uniforms of
standard stable draws and then their exponentials), then the next block.
The Brownian triple is the signed series at index 2, where the stable draw
is exactly N(0, 2), so every series runs on this one drive.
Every cell's variables are drawn, needed or not, so a smaller ``eps`` on
a fresh stream with the same seed appends blocks to the same sticks and
their draws, which is what the refinement checks compare.  The stable
transform and the summands run only on the cells a row needs: 21.8 per
row of the quadratic series at alpha = 1.5 and ``eps = 1e-6``, where a
criterion 07 batch of 5e4 rows draws 41.6 columns on average.

Stopping each row at its own cutoff with its remainder as one stick, in
place of the copy, changes the law: the summand ``ell^(2/alpha - 1)`` is
concave, so one stick under-weights the mass it stands for (alpha = 1.5,
eps = 1e-6, 5e4 rows: KS distance 0.0134-0.0137, p about 2e-4).  The
chained copy leaves out less than :data:`CHAIN_TOL` and shows no shift
against a reference at eps = 1e-12 (|t| <= 1.8, 8e7 draws).

The chain makes the rows of a batch dependent: a large row raises the rows
whose copies chain through it, by their weights.  A row therefore runs on
past ``eps`` until that weight is below :data:`FOLD_WEIGHT`, which at
alpha = 1.5 means 21.8 sticks instead of 14.8 and brings the rank
correlation of neighbouring rows from 0.05 (stopping at ``eps``) to about
0.01.  Rows that reach the end of the record first keep a larger weight,
up to ``eps`` to the degree; as alpha nears 2 that degree nears 0 and most
rows end there (alpha = 1.9: weights up to 0.25).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .models import _cms_transform, stable_standard
from .sticks import ROWS, stick_blocks

__all__ = [
    "draw_limit_finite_variance",
    "draw_limit_stable",
    "draw_limit_quadratic",
    "draw_limit_drift",
]

DEFAULT_EPS = 1e-6

# a row runs on until the weight of its tail is below FOLD_WEIGHT, which
# bounds how much it leans on the rows its tail copy chains through; the
# chain runs until the weight of the rows it leaves out is below CHAIN_TOL
# (at most 3 rows for the quadratic series at alpha = 1.5), and a batch
# draws at least MIN_ROWS rows to have them
FOLD_WEIGHT = 1e-3
CHAIN_TOL = 1e-12
MIN_ROWS = 16


def _check_batch(n, eps=DEFAULT_EPS):
    if n < 0:
        raise ParameterError(f"batch size must be >= 0, got {n}")
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"eps must lie in (0, 1), got {eps}")


def _series(alpha, beta, n, eps, rng, *summands):
    """Row sums of the stick-breaking series of each of ``summands`` on the
    unit interval, driven by standard stable draws of index ``alpha`` and
    skewness ``beta``, each row truncated at its own remainder ``L``, drawn
    from ``rng``; returns the ``(k, n)`` sums, the summands' in turn, and
    the remainders.

    The batch reduces one run of :func:`stick_blocks`, cut at ``eps``, a
    column at a time.  Each column draws a uniform and then an exponential
    for every row, so the stream is the same whatever the rows need, but
    the stable transform and the summands run on the running rows alone, a
    slice of :data:`ROWS` of them at a time, and each row adds its summands
    left to right from zero.

    The summand ``k`` is homogeneous of degree ``powers[k]`` in the stick
    length (:data:`_POWERS`), so the series past a row's last stick is
    ``L^powers[k]`` times an independent copy of the whole series.  A row
    stops once ``L`` is below ``eps`` and its smallest such weight is below
    :data:`FOLD_WEIGHT`, or where the record ends.  Row
    ``r`` takes the rows after it, cyclically, as that copy: its sums plus
    the next row's remainder to the power times the sums of the row after
    that, and so on until the product of the remainder powers, the weight
    of the rows still left out, is below :data:`CHAIN_TOL` in every row.  No row is
    part of its own copy, as the chain stops before it comes round; a
    batch draws at least :data:`MIN_ROWS` rows so that small batches have
    the rows their chains need.
    """
    powers = [w for f in summands for w in _POWERS[f](alpha)]
    rows = max(n, MIN_ROWS)
    cut = min(eps, FOLD_WEIGHT ** (1.0 / min(powers)))
    # each row's remainder is bit for bit stick_blocks' until the row stops;
    # run indexes the running rows, which are a slice until the first stops
    sums, rem, run = np.zeros((len(powers), rows)), np.ones(rows), np.arange(rows)
    uniforms, exponentials = np.empty(rows), np.empty(rows)
    for block, _ in stick_blocks(rows, 1.0, eps, rng):
        for col in block.T:
            rng.random(out=uniforms)
            rng.standard_exponential(out=exponentials)
            for lo in range(0, len(run), ROWS):
                part = slice(lo, lo + ROWS) if len(run) == rows else run[lo : lo + ROWS]
                ell = col[part]
                s = _cms_transform(alpha, beta, uniforms[part], exponentials[part])
                terms = [y for f in summands for y in f(ell, s, alpha)]
                for total, y in zip(sums, terms):
                    total[part] += y
                rem[part] -= ell
            run = run[rem[run] >= cut]
    del block, col   # free the sticks before the chain allocates its temporaries
    for acc, w in zip(sums, powers):
        head, scale = acc.copy(), rem**w
        weight = scale.copy()
        for k in range(1, rows):
            acc += weight * np.roll(head, -k)
            weight *= np.roll(scale, -k)
            if weight.max() < CHAIN_TOL:
                break
    return sums[:, :n], rem[:n]


# ---------------------------------------------------------------------------
# summands of the series
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


# degrees of homogeneity in the stick length of each summand of each series
_POWERS = {
    _quadratic: lambda alpha: (2.0 / alpha - 1.0,),
    _signed: lambda alpha: (1.0 / alpha, 1.0 / alpha, 1.0, 1.0),
}


# ---------------------------------------------------------------------------
# finite-variance limit: (sigma^2/sqrt2 Z1, Z2, sigma Bbar, sigma B1, rho)
# ---------------------------------------------------------------------------

def draw_limit_finite_variance(sigma, n, rng, eps=DEFAULT_EPS):
    """Batch of ``n`` finite-variance quintuple limit draws, of shape
    ``(n, 5)``.

    Z1, Z2 are independent standard normals drawn first; the Brownian
    triple (running maximum, endpoint, argmax time) is the signed series
    at index 2, whose standard draws are exactly N(0, 2), scaled by
    ``sigma / sqrt(2)``: the supremum is the positive part, the endpoint
    the positive minus the negative part, the argmax time the positive
    length's share.  A row's remainder ``L`` folds in as ``sqrt(L)`` times
    a copy of both parts, and ``L`` times its positive length and total, so
    the endpoint stays normal up to the weight the chain leaves out.
    """
    if not sigma > 0.0:
        raise ParameterError(f"sigma must be > 0, got {sigma}")
    _check_batch(n, eps)
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    (pos, neg, pos_len, tot), _ = _series(2.0, 0.0, n, eps, rng, _signed)
    scale = sigma / math.sqrt(2.0)
    return np.column_stack(
        [sigma**2 / math.sqrt(2.0) * z1, z2, scale * pos, scale * (pos - neg), pos_len / tot]
    )


# ---------------------------------------------------------------------------
# stable series: zero-mean index in (1, 2), heavy index in (0, 1)
# ---------------------------------------------------------------------------

def _check_alpha(alpha, lo, hi):
    if not lo < alpha < hi:
        raise ParameterError(f"alpha must lie in ({lo:g}, {hi:g}), got {alpha}")


def draw_limit_stable(alpha, n, rng, eps=DEFAULT_EPS, beta=0.0):
    """Batch of infinite-variance limit quadruples (length, supremum,
    endpoint, argmax share), all driven by one stick sequence per draw, of
    shape ``(n, 4)``.

    Only the length coordinate follows the index: for ``alpha`` in (1, 2)
    the zero-mean quadratic series ``Q / 2``, for ``alpha`` in (0, 1) the
    absolute series ``pos + neg``, which is twice the supremum minus the
    endpoint.
    """
    _check_batch(n, eps)
    if 1.0 < alpha < 2.0:
        (q, pos, neg, pos_len, tot), _ = _series(alpha, beta, n, eps, rng, _quadratic, _signed)
        length = 0.5 * q
    elif 0.0 < alpha < 1.0:
        (pos, neg, pos_len, tot), _ = _series(alpha, beta, n, eps, rng, _signed)
        length = pos + neg
    else:
        raise ParameterError(f"alpha must lie in (0, 1) or (1, 2), got {alpha}")
    return np.column_stack([length, pos, pos - neg, pos_len / tot])


# read only by bench/tracing.TRACED, which wraps this name
draw_limit_stable_zero_mean = draw_limit_stable


def draw_limit_quadratic(alpha, n, rng, eps=DEFAULT_EPS, beta=0.0):
    """Batch of the quadratic length series alone, of shape ``(n,)``:
    column 0 of :func:`draw_limit_stable` on the same stream, bit for bit,
    for ``alpha`` in (1, 2), without the other three series."""
    _check_alpha(alpha, 1.0, 2.0)
    _check_batch(n, eps)
    (q,), _ = _series(alpha, beta, n, eps, rng, _quadratic)
    return 0.5 * q


# ---------------------------------------------------------------------------
# positive-mean limit, index in (1, 2]
# ---------------------------------------------------------------------------

def draw_limit_drift(alpha, mu, n, rng, beta=0.0):
    """Batch of ``n`` rank-one ``drift-a`` limit draws, each of one standard
    stable draw ``s`` of skewness ``beta`` (the normalizer's unit scale):
    ``(mu / sqrt(1 + mu^2) s, s)``, length and endpoint, of shape ``(n, 2)``."""
    if not mu > 0.0:
        raise ParameterError(f"the drift limit needs mu > 0, got {mu}")
    if not (1.0 < alpha <= 2.0):
        raise ParameterError(f"alpha must lie in (1, 2], got {alpha}")
    _check_batch(n)
    s = stable_standard(alpha, beta, rng, n)
    return np.column_stack([mu / math.sqrt(1.0 + mu * mu) * s, s])
