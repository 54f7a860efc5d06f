"""Concave majorant / convex minorant of a path record, face merging, and
shape statistics (graph length, supremum, time of supremum, final value,
face count, hut and tent lengths).

The hull pass is a monotone chain over time-sorted candidate points with
cross-product orientation tests.  Only strict orientation violations pop a
vertex; exact ties survive the chain and are concatenated downstream by
:func:`merge_collinear`, so tie-breaking inside the chain is immaterial.
For exact jump records both the pre- and post-jump value enter the
candidate set, which makes the majorant dominate the full cadlag path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import PathError
from .models import EXACT_JUMPS, PathSkeleton

__all__ = [
    "Face",
    "MajorantSummary",
    "concave_majorant",
    "convex_minorant",
    "merge_collinear",
    "shape_stats",
    "faces_to_rows",
]

DEFAULT_SLOPE_TOL = 1e-12


class Face(NamedTuple):
    """One linear segment: horizontal length > 0 and vertical height."""

    length: float
    height: float

    @property
    def slope(self) -> float:
        return self.height / self.length

    @property
    def arc(self) -> float:
        return math.hypot(self.length, self.height)


@dataclass(frozen=True)
class MajorantSummary:
    """Shape statistics of a slope-ordered maximal-face sequence."""

    faces: tuple
    horizon: float
    upsilon: float          # graph length of the majorant
    excess: float           # upsilon minus the summed horizontal length
    sup: float              # supremum of the majorant
    gamma: float            # time the supremum is attained (first attainment)
    final: float            # value at the horizon
    h_count: int            # maximal faces of length >= 1
    hut_length: float       # two-segment envelope below the majorant
    tent_length: float      # three-segment envelope above the majorant


def _candidates(path: PathSkeleton, upper: bool):
    t = np.asarray(path.times, dtype=float)
    if path.exactness == EXACT_JUMPS and path.pre_values is not None:
        v = np.maximum(path.values, path.pre_values) if upper else np.minimum(
            path.values, path.pre_values
        )
    else:
        v = np.asarray(path.values, dtype=float)
    if np.any(np.diff(t) <= 0.0):
        raise PathError("path times must be strictly increasing without duplicates")
    return t, v


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
    return [
        Face(t[j] - t[i], v[j] - v[i]) for i, j in zip(idx[:-1], idx[1:])
    ]


def concave_majorant(path: PathSkeleton):
    """Faces of the smallest concave function dominating the path record,
    from (0, 0) to (T, X_T), slopes non-increasing."""
    if len(path.times) < 2:
        raise PathError("need at least two path points")
    t, v = _candidates(path, upper=True)
    return _faces_from_vertices(t, v, _chain(t, v, upper=True))


def convex_minorant(path: PathSkeleton):
    """Mirror image: faces of the largest convex function below the path."""
    if len(path.times) < 2:
        raise PathError("need at least two path points")
    t, v = _candidates(path, upper=False)
    return _faces_from_vertices(t, v, _chain(t, v, upper=False))


def merge_collinear(faces: Sequence[Face], slope_tol: float = DEFAULT_SLOPE_TOL):
    """Concatenate adjacent faces whose slopes agree to a relative tolerance
    into maximal faces; the output slopes are strictly monotone beyond it."""
    merged: list[Face] = []
    for f in faces:
        if merged:
            s_prev = merged[-1].slope
            if abs(f.slope - s_prev) <= slope_tol * (1.0 + abs(s_prev)):
                prev = merged.pop()
                f = Face(prev.length + f.length, prev.height + f.height)
        merged.append(f)
    return merged


def shape_stats(faces: Sequence[Face], T: float) -> MajorantSummary:
    """Shape statistics of a majorant given by maximal faces.

    The supremum time uses the first-attainment convention: faces of slope
    exactly zero are excluded.  To keep the endpoint atoms exact in floating
    point, gamma is computed as ``T`` times the positive-slope share of the
    total length (an all-positive face set gives gamma == T bit-for-bit).
    """
    if not faces:
        raise PathError("empty face sequence")
    total = pos_len = sup = final = excess = 0.0
    h_count = 0
    for f in faces:
        if not f.length > 0.0:
            raise PathError(f"face length must be > 0, got {f.length}")
        total += f.length
        final += f.height
        excess += f.height * f.height / (f.length + math.hypot(f.length, f.height))
        if f.height > 0.0:
            pos_len += f.length
            sup += f.height
        if f.length >= 1.0:
            h_count += 1
    if abs(total - T) > 1e-9 * max(T, 1.0):
        raise PathError(
            f"faces do not conserve the horizon: sum {total} vs T {T}"
        )
    gamma = T * (pos_len / total)
    upsilon = total + excess
    hut = math.hypot(gamma, sup) + math.hypot(T - gamma, sup - final)
    tent = T + 2.0 * sup - final
    return MajorantSummary(
        faces=tuple(faces),
        horizon=T,
        upsilon=upsilon,
        excess=excess,
        sup=sup,
        gamma=gamma,
        final=final,
        h_count=h_count,
        hut_length=hut,
        tent_length=tent,
    )


def faces_to_rows(faces: Sequence[Face]):
    """Rows (length, height, slope) for CSV serialization."""
    return [(f.length, f.height, f.slope) for f in faces]
