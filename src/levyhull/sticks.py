"""Uniform stick-breaking on [0, T]: truncated records, the big-stick index
set, the remainder count tau, and one Monte Carlo estimator for the point
process identity of the sticks.

The record is generated until ``T * L_N < cutoff``.  With ``cutoff <= 1``
both ``tau`` (remainders of size at least 1/T) and the big-stick set
(scaled sticks of length at least 1) are complete, because every
unrecorded stick has length below the cutoff.

The scaled sticks form a point process on (0, T] with intensity dt/t, so
``E sum_n f(t_n) = integral of f(t)/t over (0, T]``.
:func:`compensation_estimate` estimates the left side for the sticks above
a floor; criterion 02 checks it against closed forms of the right side.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

# columns per block of :func:`stick_matrix`
BLOCK = 16

ROWS = 4096   # rows per slice of the column loop of stick_matrix

# rows per record of the Monte Carlo reductions, which bounds their memory
CHUNK = 20_000

__all__ = [
    "compensation_estimate",
    "stick_matrix",
    "tau_gset_counts",
]


# ---------------------------------------------------------------------------
# vectorized stick machinery
# ---------------------------------------------------------------------------

def _capacity(n_rows, T, cutoff):
    """Columns to reserve for a record: whole blocks holding the stick count
    that a row exceeds with probability at most ``1e-6 / n_rows``.  A row
    needs ``1 + Poisson(log(T / cutoff))`` sticks: the scaled remainders
    at or above the cutoff are the points of a rate-one Poisson process
    on the log scale, up to ``log(T / cutoff)``."""
    lam = math.log(T) - math.log(cutoff) if T > cutoff else 0.0
    m, tail = 0, 1.0   # P(Poisson >= m)
    while n_rows * tail > 1e-6:
        tail -= math.exp(m * math.log(lam) - lam - math.lgamma(m + 1)) if lam else 1.0
        m += 1
    return BLOCK * -(-max(m, 1) // BLOCK)


def stick_matrix(n_rows, T, cutoff, rng, drive=None):
    """Scaled stick lengths for ``n_rows`` independent records.

    Sticks are drawn in blocks of :data:`BLOCK` columns: one uniform per
    row and column, then, when given, ``drive(t_block)`` on that block's
    scaled sticks, shape ``(n_rows, BLOCK)``.  The drive draws the block's
    driving variables from the same ``rng`` and keeps them itself.  Blocks
    are appended until every row satisfies ``T * L < cutoff``, so a smaller
    cutoff on the same stream only appends blocks: the record and the drive
    draws at ``cutoff`` are a column prefix of those at any finer cutoff.
    The caller draws the remainder's variable after the call.

    Each block is written straight into one record buffer, and the drive
    receives a view of it, so the record is never copied.  The buffer
    reserves the columns of :func:`_capacity`; a batch that runs past them
    (at most one in a million) doubles it, copying the columns written so
    far.  Reserved columns that are never written are never touched, so
    they take no resident memory.

    Rows that stopped earlier carry extra (finer) sticks.  Threshold counts
    ignore them, as they sit below the cutoff; the limit series do not, and
    stopping each row at its own cutoff measurably changes their law (see
    :mod:`levyhull.limitlaws`).  Returns ``(t, rem)`` where ``t`` has shape
    (n_rows, K) in scaled units and ``rem`` is the final scaled remainder.
    """
    if not 0.0 < T < math.inf:
        raise ParameterError(f"horizon must be finite and > 0, got {T}")
    if not cutoff > 0.0:
        raise ParameterError(f"cutoff must be > 0, got {cutoff}")
    # one row per column: row sums of the transposed view add the sticks in order
    buf = np.empty((_capacity(n_rows, T, cutoff), n_rows))
    k = 0   # columns written
    L = np.ones(n_rows)
    while True:
        if k == len(buf):
            grown = np.empty((2 * k, n_rows))
            grown[:k] = buf
            buf = grown
        cols = buf[k : k + BLOCK]
        # drawn a row slice at a time, the row-major uniforms keep their stream
        # order and stay in cache; each row's arithmetic is a column loop's
        for lo in range(0, n_rows, ROWS):
            v = rng.random((min(ROWS, n_rows - lo), BLOCK))
            left = L[lo : lo + ROWS]
            for j in range(BLOCK):
                ell = cols[j, lo : lo + ROWS]
                np.multiply(v[:, j], left, out=ell)
                left -= ell
                ell *= T
        if drive is not None:
            drive(cols.T)
        k += BLOCK
        if (T * L < cutoff).all():
            break
    return buf[:k].T, T * L


def _chunked(reps, T, cutoff, rng, reduce):
    """``reduce(t, rem)`` over records of at most :data:`CHUNK` rows drawn
    in turn from ``rng``, concatenated along the last axis."""
    return np.concatenate(
        [reduce(*stick_matrix(min(CHUNK, reps - done), T, cutoff, rng))
         for done in range(0, reps, CHUNK)],
        axis=-1,
    )


def tau_gset_counts(T, reps, rng):
    """Per-replication counts off records cut at 1: tau, the number of
    scaled remainders of size at least 1 (Poisson(log T) for T > 1), and
    the size of the big-stick set, the sticks of scaled length at least 1."""

    def counts(t, rem):
        # scaled remainders after each stick but the last, summed from the small end
        after = np.cumsum(t[:, :0:-1], axis=1)
        after += rem[:, None]
        return np.stack([np.count_nonzero(after >= 1.0, axis=1), np.count_nonzero(t >= 1.0, axis=1)])

    return tuple(_chunked(reps, T, 1.0, rng, counts))


def compensation_estimate(f, floor, T, reps, rng):
    """Monte Carlo mean and standard error of ``sum_n f(t_n)`` over the
    scaled sticks ``t_n >= floor``, whose exact value is the integral of
    ``f(t)/t`` over [floor, T].

    A record cut at ``floor`` holds every such stick, so the series is
    exact.  ``floor = 0`` cuts the record at 1 and adds ``f`` of the
    scaled remainder, which is exact for the identity: its series
    telescopes to ``T``.
    """
    if reps < 100:
        raise ParameterError(f"need at least 100 replications, got {reps}")

    def series(t, rem):
        mask = t >= max(floor, 1e-300)
        total = np.where(mask, f(np.where(mask, t, 1.0)), 0.0).sum(axis=1)
        if floor == 0.0:
            total += f(rem)
        return total

    vals = _chunked(reps, T, floor if floor > 0.0 else 1.0, rng, series)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(reps))
