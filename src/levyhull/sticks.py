"""Uniform stick-breaking on [0, T]: truncated records, the big-stick index
set, the remainder count tau, and Monte Carlo estimators for the point
process identities.

The record is generated until ``T * L_N < cutoff``.  With ``cutoff <= 1``
both ``tau`` (remainders of size at least 1/T) and the big-stick set
(scaled sticks of length at least 1) are complete, because every
unrecorded stick has length below the cutoff.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError

# columns per block of :func:`stick_matrix`
BLOCK = 16

ROWS = 4096   # rows per slice of the column loop of stick_matrix

# rows per record of the Monte Carlo reductions, which bounds their memory
CHUNK = 20_000

__all__ = [
    "CompensationEntry",
    "COMPENSATION_CATALOG",
    "compensation_estimate",
    "big_stick_power_sum",
    "stick_matrix",
    "tau_gset_counts",
]


# ---------------------------------------------------------------------------
# vectorized stick machinery
# ---------------------------------------------------------------------------

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

    Rows that stopped earlier carry extra (finer) sticks.  Threshold counts
    ignore them, as they sit below the cutoff; the limit series do not, and
    stopping each row at its own cutoff measurably changes their law (see
    :mod:`levyhull.limitlaws`).  Returns ``(t, rem)`` where ``t`` has shape
    (n_rows, K) in scaled units and ``rem`` is the final scaled remainder.
    """
    if not cutoff > 0.0:
        raise ParameterError(f"cutoff must be > 0, got {cutoff}")
    blocks = []   # column-major: row sums add the sticks in order
    L = np.ones(n_rows)
    while True:
        cols = np.empty((BLOCK, n_rows))
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
        blocks.append(cols)
        if (T * L < cutoff).all():
            break
    return np.vstack(blocks).T, T * L


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


# ---------------------------------------------------------------------------
# compensation-formula catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompensationEntry:
    """One test function with an analytic point-process expectation.

    ``func`` is applied elementwise to scaled sticks at or above
    ``support_floor``; sticks below the floor contribute zero, so a record
    cut at ``cutoff <= support_floor`` evaluates the full series exactly.
    The identity function is the one exception: its series telescopes to T,
    so the scaled remainder is folded in to keep the evaluation exact.
    """

    name: str
    func: Callable[[np.ndarray], np.ndarray]
    support_floor: float
    integral: Callable[[float], float]
    include_remainder: bool = False


COMPENSATION_CATALOG = {
    "identity": CompensationEntry(
        "identity", lambda t: t, 0.0, lambda T: T, include_remainder=True
    ),
    "invsqrt": CompensationEntry(
        "invsqrt",
        lambda t: t**-0.5,
        1.0,
        lambda T: 2.0 * (1.0 - T**-0.5),
    ),
    "inverse": CompensationEntry(
        "inverse", lambda t: 1.0 / t, 1.0, lambda T: 1.0 - 1.0 / T
    ),
    "logover": CompensationEntry(
        "logover",
        lambda t: np.log(t) / t,
        1.0,
        lambda T: 1.0 - (1.0 + math.log(T)) / T,
    ),
    "window": CompensationEntry(
        "window",
        lambda t: ((t >= 2.0) & (t <= 20.0)).astype(float),
        2.0,
        lambda T: math.log(min(T, 20.0) / 2.0) if T > 2.0 else 0.0,
    ),
}


def compensation_estimate(entry, T, reps, rng):
    """Monte Carlo mean and standard error of ``sum_n f(t_n)`` whose exact
    value is ``integral(f(t)/t, 0..T)``; ``entry`` is a catalog entry."""
    if isinstance(entry, str):
        entry = COMPENSATION_CATALOG[entry]
    if reps < 100:
        raise ParameterError(f"need at least 100 replications, got {reps}")
    # a record cut at the support floor evaluates the series exactly; the
    # telescoping identity is exact at any cutoff once the remainder folds in
    cutoff = entry.support_floor if entry.support_floor > 0.0 else 1.0

    def series(t, rem):
        mask = t >= max(entry.support_floor, 1e-300)
        contrib = np.where(mask, entry.func(np.where(mask, t, 1.0)), 0.0).sum(axis=1)
        if entry.include_remainder:
            contrib += entry.func(rem)
        return contrib

    vals = _chunked(reps, T, cutoff, rng, series)
    se = vals.std(ddof=1) / math.sqrt(reps)
    return float(vals.mean()), float(se)


def big_stick_power_sum(q, T, reps, rng):
    """Monte Carlo mean and SE of ``sum over big sticks of t^-q``; the
    exact expectation is ``(1 - T^-q) / q`` for T >= 1."""
    if not q > 0.0:
        raise ParameterError(f"power must be > 0, got {q}")
    if not T > 0.0:
        raise ParameterError(f"horizon must be > 0, got {T}")

    def power_sum(t, rem):
        big = t >= 1.0
        tq = np.zeros_like(t)
        np.power(t, -q, out=tq, where=big)
        return (tq * big).sum(axis=1)

    vals = _chunked(reps, T, 1.0, rng, power_sum)
    se = vals.std(ddof=1) / math.sqrt(reps) if reps > 1 else 0.0
    return float(vals.mean()), float(se)
