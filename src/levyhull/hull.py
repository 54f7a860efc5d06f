"""Concave majorant / convex minorant of a path record, face merging, and
the shape statistics of a face set.

The hull pass is a monotone chain over time-sorted candidate points with
cross-product orientation tests.  Only strict orientation violations pop a
vertex; exact ties survive the chain and are concatenated downstream by
:func:`merge_collinear`, so tie-breaking inside the chain is immaterial.
For exact jump records both the pre- and post-jump value enter the
candidate set, which makes the majorant dominate the full cadlag path.

The candidates of a whole block of exact jump records
(:func:`~levyhull.models.sample_jump_paths`) are found in one pass over
its padded rows (:func:`majorant_stats`), and leave numpy in one
``tolist()`` per block, not per path.  The chain, faces, merge and shape
statistics then run per path on plain Python floats: indexing a numpy
array with an int makes a new ``np.float64``, six per orientation test,
which was most of the hull time.  IEEE arithmetic on Python floats gives
the same bits, so the faces are unchanged; their fields are ``float``.
:func:`concave_majorant` and :func:`convex_minorant` run the same
candidate pass on one record.

A :class:`QuintupleSample` holds the shape statistics (graph length,
big-face count, final value, supremum, time of supremum) of one face set,
or of a batch of them at one horizon and cutoff (equal-length 1-d arrays,
as :func:`stack_quintuples` returns).  Both samplers end in
:func:`reduce_faces`, whose sums do not depend on the face order: the hull
of an exact path (:func:`shape_stats`, faces in slope order, zero cutoff)
and the stick-breaking construction (:func:`~levyhull.sbrep.sample_quintuple`,
sticks paired with their increments).  The time of the supremum is ``T``
times the positive-slope share of the summed length, which keeps its
endpoint atoms at exactly 0 and T in floating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class QuintupleSample:
    """Shape statistics of one face set, or of a batch of them.

    The per-draw fields (``upsilon`` through ``gamma``)
    are scalars for one draw, or equal-length 1-d arrays for a batch of
    draws sharing ``horizon`` and ``cutoff``.
    """

    upsilon: float                 # graph length of the majorant
    h_prime: int                   # faces of length >= 1
    final: float                   # value at the horizon
    sup: float                     # supremum of the majorant
    gamma: float                   # time the supremum is attained (first attainment)
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


_PER_DRAW = ("upsilon", "h_prime", "final", "sup", "gamma")


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


def reduce_faces(lengths, heights, T, cutoff=0.0):
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
    return QuintupleSample(total + excess, big, final, sup, T * (pos_len / total), T, cutoff)


def _candidates(times, values, pre_values, upper: bool):
    """Candidate times and values of a record, or of each row of a block's
    padded arrays, as flat float lists in row order (the records check
    the times), and the mask that picks them.

    The candidates are the points whose value (the larger of the post- and
    pre-jump value for the majorant, the smaller for the minorant) is a
    weak running record of its row from the left or from the right.
    Every point on the majorant is one: where the majorant rises, its value
    is at least every earlier value, and where it falls, at least every
    later one.  Ties count as records, so the chain keeps its ties.  The
    NaN pads past a row's end neither set a record (``fmax`` and ``fmin``
    skip NaN) nor are one (NaN equals nothing)."""
    best = np.fmax if upper else np.fmin
    v = values if pre_values is None else best(values, pre_values)
    keep = (v == best.accumulate(v, axis=-1)) | (v == best.accumulate(v[..., ::-1], axis=-1)[..., ::-1])
    return times[keep].tolist(), v[keep].tolist(), keep


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


def _hull(path: PathSkeleton, upper: bool):
    pre = path.pre_values
    t, v, _ = _candidates(np.asarray(path.times, dtype=float), np.asarray(path.values, dtype=float),
                          None if pre is None else np.asarray(pre, dtype=float), upper)
    return _faces_from_vertices(t, v, _chain(t, v, upper))


def concave_majorant(path: PathSkeleton):
    """Faces of the smallest concave function dominating the path record,
    from (0, 0) to (T, X_T), slopes non-increasing."""
    return _hull(path, upper=True)


def convex_minorant(path: PathSkeleton):
    """Mirror image: faces of the largest convex function below the path."""
    return _hull(path, upper=False)


def majorant_stats(paths: JumpPaths) -> QuintupleSample:
    """Batch record of the exact jump records of a block: draw ``k`` is
    ``shape_stats(merge_collinear(concave_majorant(paths.path(k))), T)``,
    bit for bit.  The candidates of every row are found in one pass over
    the block and leave it in one ``tolist()``; the chain, the merge and
    the reduction then run per row."""
    t, v, keep = _candidates(paths.times, paths.values, paths.pre_values, upper=True)
    draws, lo = [], 0
    for c in keep.sum(axis=1).tolist():
        tr, vr = t[lo : lo + c], v[lo : lo + c]
        lo += c
        draws.append(shape_stats(merge_collinear(_faces_from_vertices(tr, vr, _chain(tr, vr, True))),
                                 paths.horizon))
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
    """Exact :class:`QuintupleSample` (zero cutoff) of a majorant given by
    its faces; see :func:`reduce_faces`."""
    if not faces:
        raise PathError("empty face sequence")
    lengths, heights = zip(*faces)
    if not all(t > 0.0 for t in lengths):
        raise PathError(f"face lengths must be > 0, got {lengths}")
    return reduce_faces(lengths, heights, T)


def faces_to_rows(faces: Sequence[Face]):
    """Rows (length, height, slope) for CSV serialization."""
    return [(f.length, f.height, f.slope) for f in faces]
