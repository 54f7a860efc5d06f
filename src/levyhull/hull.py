"""Concave majorant / convex minorant of a path record, face merging, and
the shape statistics of a face set.

The hull pass is a monotone chain over time-sorted candidate points with
cross-product orientation tests.  Only strict orientation violations pop a
vertex; exact ties survive the chain and are concatenated downstream by
:func:`merge_collinear`, so tie-breaking inside the chain is immaterial.
For exact jump records both the pre- and post-jump value enter the
candidate set, which makes the majorant dominate the full cadlag path.

The chain, faces, merge and shape statistics run on plain Python floats,
one ``tolist()`` per path: indexing a numpy array with an int makes a new
``np.float64``, six per orientation test, which was most of the hull time.
IEEE arithmetic on Python floats gives the same bits, so the faces are
unchanged; their fields are ``float``.

A :class:`QuintupleSample` holds the shape statistics (graph length,
big-face count, final value, supremum, time of supremum) of one face set,
or of a batch of them at one horizon and cutoff (equal-length 1-d arrays,
as :func:`stack_quintuples` returns).  Both samplers end in
:func:`reduce_faces`, whose sums do not depend on the face order: the hull
of an exact path (:func:`shape_stats`, faces in slope order, zero cutoff
and truncation bound) and the stick-breaking construction
(:func:`~levyhull.sbrep.sample_quintuple`, sticks paired with their
increments).  The time of the supremum is ``T`` times the positive-slope
share of the summed length, which keeps its endpoint atoms at exactly 0
and T in floating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ParameterError, PathError
from .models import PathSkeleton

__all__ = [
    "Face",
    "QuintupleSample",
    "concave_majorant",
    "convex_minorant",
    "merge_collinear",
    "reduce_faces",
    "shape_stats",
    "stack_quintuples",
    "faces_to_rows",
]

SLOPE_TOL = 1e-12   # relative slope tolerance of merge_collinear


class Face(NamedTuple):
    """One linear segment: horizontal length > 0 and vertical height."""

    length: float
    height: float

    @property
    def slope(self) -> float:
        return self.height / self.length


@dataclass(frozen=True)
class QuintupleSample:
    """Shape statistics of one face set, or of a batch of them.

    The per-draw fields (``upsilon`` through ``truncation_error_bound``)
    are scalars for one draw, or equal-length 1-d arrays for a batch of
    draws sharing ``horizon`` and ``cutoff``.
    """

    upsilon: float                 # graph length of the majorant
    h_prime: int                   # faces of length >= 1
    final: float                   # value at the horizon
    sup: float                     # supremum of the majorant
    gamma: float                   # time the supremum is attained (first attainment)
    truncation_error_bound: float
    horizon: float
    cutoff: float

    @property
    def hut_length(self):
        """Two-segment envelope below the majorant, through the supremum."""
        T = self.horizon
        return np.hypot(self.gamma, self.sup) + np.hypot(T - self.gamma, self.sup - self.final)

    @property
    def tent_length(self):
        """Three-segment envelope above the majorant."""
        return self.horizon + 2.0 * self.sup - self.final


_PER_DRAW = ("upsilon", "h_prime", "final", "sup", "gamma", "truncation_error_bound")


def stack_quintuples(records):
    """Batch record of single draws or batches taken at one horizon and
    cutoff, concatenated in the given order.  ``records`` may be a
    generator."""
    keys, rows = set(), []
    for r in records:
        keys.add((r.horizon, r.cutoff))
        rows.append([getattr(r, name) for name in _PER_DRAW])
    if len(keys) != 1:
        raise ParameterError("stacked quintuples must share one horizon and cutoff")
    (horizon, cutoff), = keys
    columns = (np.concatenate(c) if np.ndim(c[0]) else np.array(c) for c in zip(*rows))
    return QuintupleSample(*columns, horizon=horizon, cutoff=cutoff)


def reduce_faces(lengths, heights, T, cutoff=0.0, truncation_error_bound=0.0):
    """Single-draw record of the faces ``(lengths[i], heights[i])`` of a
    majorant on [0, T], in any order.

    The supremum time uses the first-attainment convention: faces of
    height exactly zero do not count towards it.
    """
    total = pos_len = sup = final = excess = 0.0
    big = 0
    for t, x in zip(lengths, heights):
        total += t
        final += x
        excess += x * x / (t + math.hypot(t, x))
        if x > 0.0:
            pos_len += t
            sup += x
        if t >= 1.0:
            big += 1
    if abs(total - T) > 1e-9 * max(T, 1.0):
        raise PathError(f"faces do not conserve the horizon: sum {total} vs T {T}")
    return QuintupleSample(total + excess, big, final, sup, T * (pos_len / total),
                           truncation_error_bound, T, cutoff)


def _candidates(path: PathSkeleton, upper: bool):
    """Candidate times and values as float lists (the record checks the times)."""
    v = path.values
    if path.pre_values is not None:
        v = (np.maximum if upper else np.minimum)(v, path.pre_values)
    return np.asarray(path.times, dtype=float).tolist(), np.asarray(v, dtype=float).tolist()


def _chain(t, v, upper: bool):
    """Monotone chain; returns hull vertex indices into (t, v)."""
    sgn = 1.0 if upper else -1.0
    hull: list[int] = []
    for i in range(len(t)):
        while len(hull) > 1:
            a, b = hull[-2], hull[-1]
            cross = (t[b] - t[a]) * (v[i] - v[a]) - (t[i] - t[a]) * (v[b] - v[a])
            if sgn * cross > 0.0:  # strict violation only; ties survive
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def _faces_from_vertices(t, v, idx):
    return [Face(t[j] - t[i], v[j] - v[i]) for i, j in zip(idx[:-1], idx[1:])]


def concave_majorant(path: PathSkeleton):
    """Faces of the smallest concave function dominating the path record,
    from (0, 0) to (T, X_T), slopes non-increasing."""
    t, v = _candidates(path, upper=True)
    return _faces_from_vertices(t, v, _chain(t, v, upper=True))


def convex_minorant(path: PathSkeleton):
    """Mirror image: faces of the largest convex function below the path."""
    t, v = _candidates(path, upper=False)
    return _faces_from_vertices(t, v, _chain(t, v, upper=False))


def merge_collinear(faces: Sequence[Face]):
    """Concatenate adjacent faces whose slopes agree to the relative
    tolerance :data:`SLOPE_TOL` into maximal faces; the output slopes are
    strictly monotone beyond it."""
    merged: list[Face] = []
    for f in faces:
        if merged:
            s_prev = merged[-1].slope
            if abs(f.slope - s_prev) <= SLOPE_TOL * (1.0 + abs(s_prev)):
                prev = merged.pop()
                f = Face(prev.length + f.length, prev.height + f.height)
        merged.append(f)
    return merged


def shape_stats(faces: Sequence[Face], T: float) -> QuintupleSample:
    """Exact :class:`QuintupleSample` (zero cutoff and truncation bound) of
    a majorant given by its faces; see :func:`reduce_faces`."""
    if not faces:
        raise PathError("empty face sequence")
    lengths, heights = zip(*faces)
    if not all(t > 0.0 for t in lengths):
        raise PathError(f"face lengths must be > 0, got {lengths}")
    return reduce_faces(lengths, heights, T)


def faces_to_rows(faces: Sequence[Face]):
    """Rows (length, height, slope) for CSV serialization."""
    return [(f.length, f.height, f.slope) for f in faces]
