"""Concave majorant / convex minorant of a path record, face merging, and
the shape statistics of a face set.

The concave majorant is the only hull built here: the convex minorant is
minus the concave majorant of the negated path (Pitman & Uribe Bravo, Ann.
Probab. 2012), and IEEE negation is exact.

The face pass is a monotone chain over time-sorted candidate points with
cross-product orientation tests.  Only strict orientation violations pop a
vertex; exact ties survive the chain and are concatenated downstream by
:func:`merge_collinear`, so tie-breaking inside the chain is immaterial.
For exact jump records both the pre- and post-jump value enter the
candidate set, which makes the majorant dominate the full cadlag path.

The candidates of a whole block of exact jump records
(:func:`~levyhull.models.sample_jump_paths`) are found in one pass over
its padded rows (:func:`majorant_stats`), and leave numpy in one
``tolist()`` per block, not per path.  The face pass, merge and shape
statistics then run per path on plain Python floats: indexing a numpy
array with an int makes a new ``np.float64``, six per orientation test,
which was most of the hull time.  IEEE arithmetic on Python floats gives
the same bits, so the faces are unchanged; their fields are ``float``.

A :class:`QuintupleSample`, a named tuple, holds the shape statistics (graph
length, big-face count, final value, supremum, time of supremum) of one face
set, or of a batch of them at one horizon (equal-length 1-d arrays, as
:func:`stack_quintuples` returns).  Both samplers end in
:func:`reduce_faces`, whose sums do not depend on the face order: the hull
of an exact path (:func:`shape_stats`, faces in slope order) and the
stick-breaking construction (:func:`~levyhull.sbrep.sample_quintuple`,
sticks paired with their increments).  The time of the supremum is ``T``
times the positive-slope share of the summed length, which keeps its
endpoint atoms at exactly 0 and T in floating point.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ParameterError, PathError
from .models import JumpPaths, PathSkeleton

__all__ = [
    "Face",
    "QuintupleSample",
    "concave_majorant",
    "convex_minorant",
    "majorant_stats",
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


class QuintupleSample(NamedTuple):
    """Shape statistics of one face set, or of a batch of them.

    The per-draw fields (``upsilon`` through ``gamma``)
    are scalars for one draw, or equal-length 1-d arrays for a batch of
    draws sharing ``horizon``.
    """

    upsilon: float                 # graph length of the majorant
    h_prime: int                   # faces of length >= 1
    final: float                   # value at the horizon
    sup: float                     # supremum of the majorant
    gamma: float                   # time the supremum is attained (first attainment)
    horizon: float

    @property
    def hut_length(self):
        """Two-segment envelope below the majorant, through the supremum."""
        T = self.horizon
        return np.hypot(self.gamma, self.sup) + np.hypot(T - self.gamma, self.sup - self.final)

    @property
    def tent_length(self):
        """Three-segment envelope above the majorant."""
        return self.horizon + 2.0 * self.sup - self.final


_PER_DRAW = QuintupleSample._fields[:5]


def stack_quintuples(records):
    """Batch record of single draws or batches taken at one horizon,
    concatenated in the given order.  ``records`` may be a generator."""
    columns = tuple(zip(*records))
    horizons = set().union(*columns[5:])
    if len(horizons) != 1:
        raise ParameterError("stacked quintuples must share one horizon")
    (horizon,) = horizons
    return QuintupleSample(*(np.concatenate(c) if np.ndim(c[0]) else np.array(c) for c in columns[:5]),
                           horizon)


def reduce_faces(lengths, heights, T):
    """Single-draw record of the faces ``(lengths[i], heights[i])`` of a
    majorant on [0, T], in any order.

    The supremum time uses the first-attainment convention: faces of
    height exactly zero do not count towards it.
    """
    total = pos_len = sup = final = excess = 0.0
    big = 0
    hypot = math.hypot
    for t, x in zip(lengths, heights):
        total += t
        final += x
        excess += x * x / (t + hypot(t, x))
        if x > 0.0:
            pos_len += t
            sup += x
        if t >= 1.0:
            big += 1
    if abs(total - T) > 1e-9 * max(T, 1.0):
        raise PathError(f"faces do not conserve the horizon: sum {total} vs T {T}")
    return QuintupleSample(total + excess, big, final, sup, T * (pos_len / total), T)


def _candidates(times, values, pre_values):
    """Candidate times and values of a record, or of each row of a block's
    padded arrays, as flat float lists in row order (the records check
    the times), and the mask that picks them.

    The candidates are the points whose value (the larger of the post- and
    pre-jump value) is a weak running record of its row from the left or
    from the right.  Every point on the majorant is one: where the majorant
    rises, its value is at least every earlier value, and where it falls,
    at least every later one.  Ties count as records, so the face pass
    keeps its ties.  The NaN pads past a row's end neither set a record
    (``fmax`` skips NaN) nor are one (NaN equals nothing)."""
    v = values if pre_values is None else np.fmax(values, pre_values)
    keep = (v == np.fmax.accumulate(v, axis=-1)) | (v == np.fmax.accumulate(v[..., ::-1], axis=-1)[..., ::-1])
    return times[keep].tolist(), v[keep].tolist(), keep


def _faces(t, v):
    """Faces of the concave majorant of the points (t, v), by a monotone
    chain over them in time order."""
    hull: list[int] = []
    for i in range(len(t)):
        while len(hull) > 1:
            a, b = hull[-2], hull[-1]
            if (t[b] - t[a]) * (v[i] - v[a]) - (t[i] - t[a]) * (v[b] - v[a]) > 0.0:
                hull.pop()   # strict violation only; ties survive
            else:
                break
        hull.append(i)
    return [Face(t[j] - t[i], v[j] - v[i]) for i, j in zip(hull[:-1], hull[1:])]


def concave_majorant(path: PathSkeleton):
    """Faces of the smallest concave function dominating the path record,
    from (0, 0) to (T, X_T), slopes non-increasing."""
    t, v, _ = _candidates(path.times, path.values, path.pre_values)
    return _faces(t, v)


def convex_minorant(path: PathSkeleton):
    """Faces of the largest convex function below the path record: the
    negated faces of the concave majorant of the negated record."""
    pre = path.pre_values
    t, v, _ = _candidates(path.times, -path.values, None if pre is None else -pre)
    return [Face(f.length, -f.height) for f in _faces(t, v)]


def majorant_stats(paths: JumpPaths) -> QuintupleSample:
    """Batch record of the exact jump records of a block: draw ``k`` is
    ``shape_stats(merge_collinear(concave_majorant(paths.path(k))), T)``,
    bit for bit.  The candidates of every row are found in one pass over
    the block and leave it in one ``tolist()``; the face pass, the merge
    and the reduction then run per row."""
    t, v, keep = _candidates(paths.times, paths.values, paths.pre_values)
    draws, lo = [], 0
    for c in keep.sum(axis=1).tolist():
        draws.append(shape_stats(merge_collinear(_faces(t[lo : lo + c], v[lo : lo + c])), paths.horizon))
        lo += c
    return stack_quintuples(draws)


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
    """Exact :class:`QuintupleSample` of a majorant given by its faces; see
    :func:`reduce_faces`."""
    if not faces:
        raise PathError("empty face sequence")
    lengths, heights = zip(*faces)
    if not all(t > 0.0 for t in lengths):
        raise PathError(f"face lengths must be > 0, got {lengths}")
    return reduce_faces(lengths, heights, T)


def faces_to_rows(faces: Sequence[Face]):
    """Rows (length, height, slope) for CSV serialization."""
    return [(f.length, f.height, f.slope) for f in faces]
