"""Property-based checks of the hull invariants on arbitrary path records.

Paths mix lattice values (exact ties and collinear stretches) with general
floats, on time grids of arbitrary positive gaps; exact jump records add
pre-jump values that the majorant must also dominate.
"""
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from levyhull.experiments import _envelope_oracle  # noqa: E402
from levyhull.hull import (  # noqa: E402
    Face,
    concave_majorant,
    convex_minorant,
    merge_collinear,
    shape_stats,
)
from levyhull.models import PathSkeleton  # noqa: E402

values_st = st.one_of(
    st.integers(-40, 40).map(lambda k: k / 4.0),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)
gaps_st = st.one_of(st.integers(1, 8).map(float), st.floats(0.01, 10.0))


@st.composite
def paths(draw):
    n = draw(st.integers(2, 25))
    times = np.concatenate([[0.0], np.cumsum(draw(st.lists(gaps_st, min_size=n - 1, max_size=n - 1)))])
    values = np.array([0.0] + draw(st.lists(values_st, min_size=n - 1, max_size=n - 1)))
    if not draw(st.booleans()):
        return PathSkeleton(times, values, float(times[-1]))
    pre = np.array([0.0] + draw(st.lists(values_st, min_size=n - 2, max_size=n - 2)) + [values[-1]])
    return PathSkeleton(times, values, float(times[-1]), pre)


@st.composite
def lattice_jump_paths(draw):
    """Exact compound Poisson records with drift whose jump times, jump
    sizes and drift lie on lattices, so that ties and collinear runs of
    pre- and post-jump points are common."""
    n = draw(st.integers(0, 12))
    gaps = draw(st.lists(st.integers(1, 4).map(lambda k: k / 2.0), min_size=n + 1, max_size=n + 1))
    jumps = draw(st.lists(st.integers(-6, 6).map(lambda k: k / 4.0), min_size=n, max_size=n))
    mu = draw(st.integers(-4, 4).map(lambda k: k / 4.0))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    walk = np.concatenate([[0.0], np.cumsum(jumps)])  # jump sum after each jump
    values = mu * times + np.append(walk, walk[-1])
    pre = mu * times + np.concatenate([[0.0], walk])
    return PathSkeleton(times, values, float(times[-1]), pre)


def transformed(path, f):
    """The path record with ``f(times, values)`` applied to both value rows."""
    pre = None if path.pre_values is None else f(path.times, path.pre_values)
    return PathSkeleton(path.times, f(path.times, path.values), path.horizon, pre)


def eval_faces(faces, times):
    xs = np.concatenate([[0.0], np.cumsum([f.length for f in faces])])
    ys = np.concatenate([[0.0], np.cumsum([f.height for f in faces])])
    return np.interp(times, xs, ys)


@given(paths())
def test_majorant_dominates_pre_and_post_jump_points(path):
    env = eval_faces(concave_majorant(path), path.times)
    tol = 1e-9 * max(1.0, float(np.abs(path.values).max()))
    assert (env >= path.values - tol).all()
    if path.pre_values is not None:
        assert (env >= path.pre_values - tol).all()


@given(paths())
def test_slopes_strictly_fall_after_merging(path):
    slopes = [f.slope for f in merge_collinear(concave_majorant(path))]
    assert all(b < a for a, b in zip(slopes, slopes[1:]))


@given(paths())
def test_horizon_is_conserved(path):
    for faces in (concave_majorant(path), merge_collinear(concave_majorant(path))):
        assert all(f.length > 0.0 for f in faces)
        assert math.fsum(f.length for f in faces) == pytest.approx(path.horizon, rel=1e-12)


@given(paths())
def test_merge_collinear_is_idempotent(path):
    once = merge_collinear(concave_majorant(path))
    assert merge_collinear(once) == once


@given(paths())
def test_minorant_is_the_negated_majorant_of_the_negated_path(path):
    neg = concave_majorant(transformed(path, lambda t, v: -v))
    assert convex_minorant(path) == [Face(f.length, -f.height) for f in neg]


@given(paths(), st.integers(-8, 8).map(lambda k: k / 4.0))
def test_linear_drift_shifts_every_slope(path, c):
    base = merge_collinear(concave_majorant(path))
    drifted = merge_collinear(concave_majorant(transformed(path, lambda t, v: v + c * t)))
    assert len(drifted) == len(base)
    for f, g in zip(base, drifted):
        assert g.length == pytest.approx(f.length, abs=1e-9)
        assert g.slope == pytest.approx(f.slope + c, abs=1e-9)


@given(lattice_jump_paths())
def test_exact_jump_hulls_match_the_envelope_oracle(path):
    for hull, upper, pick in ((concave_majorant, True, np.maximum), (convex_minorant, False, np.minimum)):
        faces = hull(path)
        assert all(type(f.length) is float and type(f.height) is float for f in faces)
        oracle = _envelope_oracle(path.times, pick(path.values, path.pre_values), upper)
        np.testing.assert_allclose(eval_faces(faces, path.times), oracle, rtol=0.0, atol=1e-12)


face_sets = st.lists(
    st.builds(Face, st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.01, 10.0)), values_st),
    min_size=1,
    max_size=20,
)


@given(face_sets.flatmap(lambda faces: st.tuples(st.just(faces), st.permutations(faces))))
def test_shape_stats_ignore_the_face_order(pair):
    # every sum is order-free, which lets slope-ordered hull faces and
    # stick-ordered stick-breaking faces share one reduction; rounding may
    # differ, relative to the summed magnitudes
    faces, shuffled = pair
    T = math.fsum(f.length for f in faces)
    a, b = shape_stats(faces, T), shape_stats(shuffled, T)
    assert a.h_prime == b.h_prime
    scale = T + math.fsum(abs(f.height) for f in faces)
    for name in ("upsilon", "final", "sup", "gamma", "hut_length", "tent_length"):
        x, y = getattr(a, name), getattr(b, name)
        assert math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12 * scale), name
