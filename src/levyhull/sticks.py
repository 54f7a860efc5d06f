"""Uniform stick-breaking on [0, T]: truncated records, the big-stick index
set, the remainder count tau, and one Monte Carlo estimator for the point
process identity of the sticks.

One generator draws the sticks, a block of columns at a time into one
reused buffer (:func:`stick_blocks`).  The limit series, the counts and
the estimator below loop over its blocks and reduce each as it is drawn,
carrying per-row counters or sums from block to block.
:func:`stick_matrix` is a copy of every block, kept as a reference record.

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

from . import models
from .errors import ParameterError

# columns per block of :func:`stick_blocks`
BLOCK = 16

ROWS = 4096   # rows per slice of the column loop of stick_blocks

# rows per stick_blocks run of the Monte Carlo reductions; it fixes the
# order in which the rows draw from the stream
CHUNK = 20_000

__all__ = [
    "compensation_estimate",
    "stick_blocks",
    "stick_matrix",
    "tau_gset_counts",
]


# ---------------------------------------------------------------------------
# vectorized stick machinery
# ---------------------------------------------------------------------------

def _check_horizon(T, cutoff):
    models._check_horizon(T)
    if not cutoff > 0.0:
        raise ParameterError(f"cutoff must be > 0, got {cutoff}")


def stick_blocks(n_rows, T, cutoff, rng):
    """Draw ``n_rows`` independent records of scaled sticks one block at a
    time, without keeping them: yields ``(block, L)`` per block, its scaled
    sticks, shape ``(n_rows, BLOCK)``, and the unscaled remainder after them.

    Each block of :data:`BLOCK` columns takes one uniform per row and
    column before it is yielded, so the loop body may draw the block's
    driving variables from the same ``rng``.  Blocks follow until every
    row satisfies ``T * L < cutoff``, so a smaller cutoff on the same
    stream only appends blocks: the sticks and the loop body's draws at
    ``cutoff`` are a column prefix of those at any finer cutoff.  The
    guards run at the first ``next()``.

    Every block is a view of one buffer, and ``L`` is live: the next block
    overwrites both, so a caller that keeps one must copy it.  Rows that
    stopped earlier carry extra (finer) sticks; threshold counts ignore
    them, as they sit below the cutoff, and the limit series skip them in
    their loop (see :mod:`levyhull.limitlaws`).
    """
    _check_horizon(T, cutoff)
    # one row per column: the transposed view holds a row's sticks in order
    cols = np.empty((BLOCK, n_rows))
    L = np.ones(n_rows)
    while True:
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
        yield cols.T, L
        if (T * L < cutoff).all():
            return


def stick_matrix(n_rows, T, cutoff, rng):
    """The record of :func:`stick_blocks`: copies of its blocks side by
    side, shape ``(n_rows, K)`` in scaled units and column-major like the
    blocks, and the final scaled remainder, as ``(t, rem)``."""
    blocks = []
    for block, L in stick_blocks(n_rows, T, cutoff, rng):
        blocks.append(block.T.copy())
    return np.vstack(blocks).T, T * L


def tau_gset_counts(T, reps, rng):
    """Per-replication counts off records cut at 1: tau, the number of
    scaled remainders of size at least 1 (Poisson(log T) for T > 1), and
    the size of the big-stick set, the sticks of scaled length at least 1."""
    if reps < 1:
        raise ParameterError(f"need at least 1 replication, got {reps}")
    tau, gset = np.zeros((2, reps), dtype=np.intp)
    for lo in range(0, reps, CHUNK):
        n = min(CHUNK, reps - lo)
        left, tau_c, gset_c = np.full(n, float(T)), tau[lo : lo + n], gset[lo : lo + n]
        for block, _ in stick_blocks(n, T, 1.0, rng):
            for col in block.T:
                np.subtract(left, col, out=left)   # the scaled remainder after the stick
                np.add(tau_c, left >= 1.0, out=tau_c)
            np.add(gset_c, np.count_nonzero(block >= 1.0, axis=1), out=gset_c)
        del block, col, _   # free this run's buffer before the next run draws its own
    return tau, gset


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
    if not floor >= 0.0:
        raise ParameterError(f"floor must be >= 0, got {floor}")
    lowest = max(floor, 1e-300)
    vals = np.zeros(reps)
    for lo in range(0, reps, CHUNK):
        n = min(CHUNK, reps - lo)
        total = vals[lo : lo + n]
        for block, L in stick_blocks(n, T, floor if floor > 0.0 else 1.0, rng):
            # a row adds its sticks left to right from zero
            for col in block.T:
                mask = col >= lowest
                np.add(total, np.where(mask, f(np.where(mask, col, 1.0)), 0.0), out=total)
        if floor == 0.0:
            total += f(T * L)
        del block, col, L   # free this run's buffer before the next run draws its own
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(reps))
