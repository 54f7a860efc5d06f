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

from .errors import ParameterError, TruncationError

# columns per block of :func:`stick_matrix`
BLOCK = 16

__all__ = [
    "StickBreak",
    "sample_sticks",
    "tau",
    "big_sticks",
    "CompensationEntry",
    "COMPENSATION_CATALOG",
    "compensation_estimate",
    "big_stick_power_sum",
    "stick_matrix",
    "tau_gset_counts",
]


@dataclass(frozen=True)
class StickBreak:
    """Truncated stick-breaking record on [0, T].

    ``uniforms[n]``, ``lengths[n]`` and ``remainders[n + 1]`` hold V_{n+1},
    the unit-interval stick, and the remainder after it; ``remainders[0]``
    is 1.  Scaled sticks are ``T * lengths``.
    """

    uniforms: np.ndarray
    lengths: np.ndarray
    remainders: np.ndarray
    horizon: float
    cutoff: float

    @property
    def n_sticks(self) -> int:
        return len(self.lengths)

    @property
    def scaled(self) -> np.ndarray:
        return self.horizon * self.lengths

    @property
    def scaled_remainder(self) -> float:
        return self.horizon * float(self.remainders[-1])


def _check_cutoff(cutoff):
    if not 0.0 < cutoff <= 1.0:
        raise ParameterError(f"cutoff must lie in (0, 1], got {cutoff}")


def sample_sticks(T, cutoff, rng) -> StickBreak:
    """Generate sticks until the scaled remainder drops below the cutoff."""
    if not T > 0.0:
        raise ParameterError(f"horizon must be > 0, got {T}")
    _check_cutoff(cutoff)
    vs, ells, rems = [], [], [1.0]
    L = 1.0
    while T * L >= cutoff:
        v = rng.random()
        ell = v * L
        L -= ell
        vs.append(v)
        ells.append(ell)
        rems.append(L)
    return StickBreak(np.array(vs), np.array(ells), np.array(rems), T, cutoff)


def tau(sb: StickBreak) -> int:
    """Number of remainders of size at least 1/T (Poisson(log T) for T > 1)."""
    if sb.cutoff > 1.0:
        raise TruncationError("tau needs a record generated with cutoff <= 1")
    return int(np.count_nonzero(sb.remainders[1:] >= 1.0 / sb.horizon))


def big_sticks(sb: StickBreak) -> np.ndarray:
    """1-based indices of sticks with scaled length at least 1."""
    if sb.cutoff > 1.0:
        raise TruncationError("big sticks need a record generated with cutoff <= 1")
    return np.flatnonzero(sb.horizon * sb.lengths >= 1.0) + 1


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

    Rows that stopped earlier carry extra (finer) sticks, which is harmless
    for every consumer here: sums over the full sequence only gain accuracy
    and threshold counts are unaffected because late sticks sit below the
    cutoff.  Returns ``(t, rem)`` where ``t`` has shape (n_rows, K) in
    scaled units and ``rem`` is the final scaled remainder per row.
    """
    if not cutoff > 0.0:
        raise ParameterError(f"cutoff must be > 0, got {cutoff}")
    blocks = []   # column-major: row sums add the sticks in order
    L = np.ones(n_rows)
    while True:
        v = rng.random((n_rows, BLOCK))
        cols = np.empty((BLOCK, n_rows))
        for j in range(BLOCK):
            ell = v[:, j] * L
            cols[j] = T * ell
            L = L - ell
        if drive is not None:
            drive(cols.T)
        blocks.append(cols)
        if (T * L < cutoff).all():
            break
    return np.vstack(blocks).T, T * L


def tau_gset_counts(T, reps, rng):
    """Per-replication (tau, |big-stick set|) counts off a record cut at 1."""
    t, rem = stick_matrix(reps, T, 1.0, rng)
    # scaled remainders after each stick but the last, summed from the small end
    after = np.cumsum(t[:, :0:-1], axis=1)
    after += rem[:, None]
    return np.count_nonzero(after >= 1.0, axis=1), np.count_nonzero(t >= 1.0, axis=1)


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
    vals = np.empty(reps)
    done = 0
    while done < reps:
        chunk = min(reps - done, 20_000)
        t, rem = stick_matrix(chunk, T, cutoff, rng)
        mask = t >= max(entry.support_floor, 1e-300)
        contrib = np.where(mask, entry.func(np.where(mask, t, 1.0)), 0.0).sum(axis=1)
        if entry.include_remainder:
            contrib += entry.func(rem)
        vals[done : done + chunk] = contrib
        done += chunk
    se = vals.std(ddof=1) / math.sqrt(reps)
    return float(vals.mean()), float(se)


def big_stick_power_sum(q, T, reps, rng):
    """Monte Carlo mean and SE of ``sum over big sticks of t^-q``; the
    exact expectation is ``(1 - T^-q) / q`` for T >= 1."""
    if not q > 0.0:
        raise ParameterError(f"power must be > 0, got {q}")
    if not T > 0.0:
        raise ParameterError(f"horizon must be > 0, got {T}")
    vals = np.empty(reps)
    done = 0
    while done < reps:
        chunk = min(reps - done, 20_000)
        t, _ = stick_matrix(chunk, T, 1.0, rng)
        big = t >= 1.0
        tq = np.zeros_like(t)
        np.power(t, -q, out=tq, where=big)
        vals[done : done + chunk] = (tq * big).sum(axis=1)
        done += chunk
    se = vals.std(ddof=1) / math.sqrt(reps) if reps > 1 else 0.0
    return float(vals.mean()), float(se)
