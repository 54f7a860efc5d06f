"""Independent samplers for the right-hand-side limit laws, used as the
reference side of the two-sample tests.

Every series limit is a stick-breaking series on the unit interval, and
each row stops at its own cutoff, at a remainder ``L < eps``.  Each
summand is homogeneous in the stick length, of degree ``2/alpha - 1``
(the quadratic series), ``1/alpha`` (the signed parts), 1 (the lengths)
or 1/2 (the Gaussian parts).  By the self-similarity of uniform
stick-breaking the series past the cutoff is therefore ``L`` to that
degree times an independent copy of the whole series (Gonzalez Cazares,
Mijatovic & Uribe Bravo, EJP 2020), and the samplers fold it in that way,
each row taking the rows after it in its batch as the copy
(:func:`_series`).  How far a draw moves when ``eps`` is refined is
measured by the refinement tests, not reported per draw.

Each series reduces the sticks of one run of
:func:`~levyhull.sticks.stick_blocks` per batch, a block of columns at a
time, and keeps none of them: a batch holds one block of sticks and one
block of driving uniforms.  A batch draws from its own stream, a PCG64
child of the caller's generator keyed by four words of it
(:func:`~levyhull.rng.child_stream`), which draws uniforms in about half
the time of the Philox substreams: a block's stick uniforms, then that
block's driving variables (Gaussian, or the uniforms of stable draws and
then each column's exponentials), then the next block.  Every cell's
variables are drawn, needed or not, so a smaller ``eps`` on a fresh
stream with the same seed appends blocks to the same sticks and their
draws, which is what the refinement checks compare.  The stable transform
and the summands run only on the cells a row needs: 21.8 per row of the
quadratic series at alpha = 1.5 and ``eps = 1e-6``, where a criterion 07
batch of 5e4 rows draws 41.6 columns on average.

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
from .rng import child_stream
from .sticks import BLOCK, ROWS, stick_blocks

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


def _own_sums(n, eps, rng, columns, terms, k, cut):
    """Row sums of ``terms`` over each row's own sticks of one run of
    :func:`stick_blocks` on the unit interval, cut at ``eps``: a row takes a
    stick while its remainder before that stick is at least ``cut <= eps``,
    and while the sticks last.

    The generator ``columns(rng, n)`` yields each column's own random
    arrays, full length, as a tuple; it resumes only after the column's
    block is drawn.  ``terms(ell, *raw)`` maps sticks and those arrays,
    restricted to some rows, to ``k`` summand arrays.  Every cell is
    drawn, so the stream is the same whatever the rows need, but the
    summands run on the running rows alone, a slice of :data:`ROWS` of
    them at a time.  Each row adds its summands left to right from zero.
    Returns the ``(k, n)`` sums and each row's remainder after its last
    stick, which lies below ``cut``, or below ``eps`` where the sticks end
    first.
    """
    # sums; each row's remainder, bit for bit as stick_blocks' until it
    # stops; the running rows, in order, in front; how many rows run
    sums, left, run, live = np.zeros((k, n)), np.ones(n), np.arange(n), n
    draws = columns(rng, n)
    for block, _ in stick_blocks(n, 1.0, eps, rng):
        # the sticks first: zip ends with the block, before the next draw
        for col, raw in zip(block.T, draws):
            kept = 0
            for lo in range(0, live, ROWS):
                hi = min(lo + ROWS, live)
                # until a row stops, the running rows are a slice: no gather
                rows = slice(lo, hi) if live == n else run[lo:hi]
                ell_j = col[rows]
                ys = terms(ell_j, *(r[rows] for r in raw))
                for total, y in zip(sums, ys):
                    total[rows] += y
                rest = left[rows] - ell_j
                left[rows] = rest
                stay = run[lo:hi][rest >= cut]
                run[kept : kept + len(stay)] = stay
                kept += len(stay)
            live = kept
    return sums, left


def _series(n, eps, rng, columns, terms, powers):
    """Row sums of a stick-breaking series on the unit interval, each row
    truncated at its own remainder ``L``, drawn from one child stream of
    ``rng``; returns the ``(k, n)`` sums and the remainders.

    The summand ``k`` is homogeneous of degree ``powers[k]`` in the stick
    length, so the series past a row's last stick is ``L^powers[k]`` times
    an independent copy of the whole series.  A row stops once ``L`` is
    below ``eps`` and its smallest such weight is below
    :data:`FOLD_WEIGHT`, or where the record, cut at ``eps``, ends.  Row
    ``r`` takes the rows after it, cyclically, as that copy: its sums plus
    the next row's remainder to the power times the sums of the row after
    that, and so on until the product of the remainder powers, the weight
    of the rows still left out, is below :data:`CHAIN_TOL` in every row.  No row is
    part of its own copy, as the chain stops before it comes round; a
    batch draws at least :data:`MIN_ROWS` rows so that small batches have
    the rows their chains need.
    """
    rows = max(n, MIN_ROWS)
    cut = min(eps, FOLD_WEIGHT ** (1.0 / min(powers)))
    sums, rem = _own_sums(rows, eps, child_stream(rng), columns, terms, len(powers), cut)
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
# finite-variance limit: (sigma^2/sqrt2 Z1, Z2, sigma Bbar, sigma B1, rho)
# ---------------------------------------------------------------------------

def _gaussian_columns(rng, n):
    """The ``columns`` of :func:`_series` for standard normal variables,
    drawn a column at a time."""
    while True:
        yield (rng.standard_normal(n),)


def _gaussian_terms(ell, z):
    x = np.sqrt(ell) * z
    up = x > 0.0
    return np.where(up, x, 0.0), x, ell * up, ell


_GAUSSIAN_POWERS = (0.5, 0.5, 1.0, 1.0)


def draw_limit_finite_variance(sigma, n, rng, eps=DEFAULT_EPS):
    """Batch of ``n`` finite-variance quintuple limit draws, of shape
    ``(n, 5)``.

    Z1, Z2 are independent standard normals drawn first; the Brownian
    triple (running maximum, endpoint, argmax time) comes from the Gaussian
    stick-breaking series.  A row's remainder ``L`` folds in as
    ``sqrt(L)`` times a copy of the maximum and the endpoint, and
    ``L`` times its positive length and total, so the endpoint stays a
    standard normal up to the weight the chain leaves out.
    """
    if not sigma > 0.0:
        raise ParameterError(f"sigma must be > 0, got {sigma}")
    _check_batch(n, eps)
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    (sup, fin, pos, tot), _ = _series(n, eps, rng, _gaussian_columns, _gaussian_terms, _GAUSSIAN_POWERS)
    return np.column_stack(
        [sigma**2 / math.sqrt(2.0) * z1, z2, sigma * sup, sigma * fin, pos / tot]
    )


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


# degrees of homogeneity in the stick length of each summand of each series
_POWERS = {
    _quadratic: lambda alpha: (2.0 / alpha - 1.0,),
    _signed: lambda alpha: (1.0 / alpha, 1.0 / alpha, 1.0, 1.0),
}


def _stable_columns(rng, n):
    """The ``columns`` of :func:`_series` for standard stable variables:
    the block's uniforms when it resumes at a new block, then each column's
    exponentials.  One uniform block and one exponential row serve all."""
    uniforms, exponentials = np.empty((BLOCK, n)), np.empty(n)
    while True:
        rng.random(out=uniforms)
        for u in uniforms:
            yield u, rng.standard_exponential(out=exponentials)


def _stable_series(alpha, beta, n, rng, eps, *terms):
    """:func:`_series` of the summands of each of ``terms``, driven by
    standard stable draws of index ``alpha`` and skewness ``beta``."""

    def summands(ell, v, e):
        s = _cms_transform(alpha, beta, v, e)   # over the uniforms, each read once
        return [y for f in terms for y in f(ell, s, alpha)]

    return _series(n, eps, rng, _stable_columns, summands, [w for f in terms for w in _POWERS[f](alpha)])


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
        (q, pos, neg, pos_len, tot), _ = _stable_series(alpha, beta, n, rng, eps, _quadratic, _signed)
        length = 0.5 * q
    elif 0.0 < alpha < 1.0:
        (pos, neg, pos_len, tot), _ = _stable_series(alpha, beta, n, rng, eps, _signed)
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
    (q,), _ = _stable_series(alpha, beta, n, rng, eps, _quadratic)
    return 0.5 * q


# ---------------------------------------------------------------------------
# positive-mean limit, index in (1, 2]
# ---------------------------------------------------------------------------

def draw_limit_drift(alpha, mu, n, rng, scale=1.0):
    """Batch of ``n`` rank-one ``drift-a`` limit draws, one stable draw
    ``s`` each: the length and endpoint coordinates
    ``(mu / sqrt(1 + mu^2) s, s)``, of shape ``(n, 2)``."""
    if not mu > 0.0:
        raise ParameterError(f"the drift limit needs mu > 0, got {mu}")
    if not (1.0 < alpha <= 2.0):
        raise ParameterError(f"alpha must lie in (1, 2], got {alpha}")
    _check_batch(n)
    s = scale * np.asarray(stable_standard(alpha, 0.0, rng, n))
    return np.column_stack([mu / math.sqrt(1.0 + mu * mu) * s, s])
