import math

import numpy as np
import pytest

from levyhull.errors import ParameterError, PathError
from levyhull.hull import (
    Face,
    concave_majorant,
    convex_minorant,
    faces_to_rows,
    merge_collinear,
    shape_stats,
)
from levyhull.models import (
    EXACT_JUMPS,
    BrownianDrift,
    CompoundPoissonDrift,
    Gaussian,
    PathSkeleton,
    StableProcess,
    sample_path,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def skeleton(times, values):
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    return PathSkeleton(times, values, float(times[-1]))


def envelope_oracle(times, values, upper=True):
    """Concave (upper) envelope value at each time by the two-point
    interpolation formula: the envelope at x is the best value of any chord
    between data points spanning x."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    n = len(times)
    best = values.astype(float).copy()
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if times[i] <= times[k] <= times[j] and times[i] < times[j]:
                    lam = (times[k] - times[i]) / (times[j] - times[i])
                    v = (1 - lam) * values[i] + lam * values[j]
                    if upper:
                        best[k] = max(best[k], v)
                    else:
                        best[k] = min(best[k], v)
    return best


def eval_faces(faces, times):
    """Piecewise-linear evaluation of a face chain starting at (0, 0)."""
    xs = np.concatenate([[0.0], np.cumsum([f.length for f in faces])])
    ys = np.concatenate([[0.0], np.cumsum([f.height for f in faces])])
    return np.interp(times, xs, ys)


def test_majorant_example_four_points():
    path = skeleton([0, 1, 2, 3], [0, 2, 1, 3])
    faces = merge_collinear(concave_majorant(path))
    assert faces == [Face(1.0, 2.0), Face(2.0, 1.0)]


def test_minorant_example_four_points():
    path = skeleton([0, 1, 2, 3], [0, 2, 1, 3])
    faces = merge_collinear(convex_minorant(path))
    assert faces == [Face(2.0, 1.0), Face(1.0, 2.0)]


def test_collinear_points_merge_to_single_face():
    mu = 0.7
    path = skeleton([0, 1, 2], [0, mu, 2 * mu])
    faces = merge_collinear(concave_majorant(path))
    assert len(faces) == 1
    assert faces[0].length == pytest.approx(2.0)
    assert faces[0].height == pytest.approx(2 * mu)


def test_descending_chord():
    path = skeleton([0, 1], [0, -1])
    assert concave_majorant(path) == [Face(1.0, -1.0)]


def test_negation_duality():
    g = rng(1)
    for _ in range(50):
        n = g.integers(3, 12)
        times = np.concatenate([[0.0], np.sort(g.random(n - 2)), [1.0]])
        values = np.concatenate([[0.0], g.standard_normal(n - 1)])
        path = skeleton(times, values)
        neg = skeleton(times, -values)
        a = merge_collinear(convex_minorant(path))
        b = merge_collinear(concave_majorant(neg))
        assert len(a) == len(b)
        for fa, fb in zip(a, b):
            assert fa.length == pytest.approx(fb.length, abs=1e-15)
            assert fa.height == pytest.approx(-fb.height, abs=1e-15)


def test_merge_collinear_examples():
    faces = [Face(1.0, 2.0), Face(1.0, 2.0), Face(2.0, 1.0)]
    assert merge_collinear(faces) == [Face(2.0, 4.0), Face(2.0, 1.0)]
    faces = [Face(1.0, 2.0), Face(2.0, 1.0)]
    assert merge_collinear(faces) == faces


def test_cp_drift_faces_merge_to_one_drift_face():
    g = rng(2)
    mu = 0.3
    model = CompoundPoissonDrift(1.0, Gaussian(0.0, 1.0), mu=mu)
    for _ in range(25):
        path = sample_path(model, 30.0, EXACT_JUMPS, g)
        faces = merge_collinear(concave_majorant(path))
        drift_faces = [f for f in faces if abs(f.slope - mu) <= 1e-9 * (1 + mu)]
        assert len(drift_faces) == 1
        slopes = [f.slope for f in faces]
        assert all(a > b for a, b in zip(slopes, slopes[1:]))


def test_shape_stats_example():
    s = shape_stats([Face(1.0, 2.0), Face(2.0, -1.0)], 3.0)
    assert s.upsilon == pytest.approx(2 * math.sqrt(5))
    assert s.sup == 2.0
    assert s.gamma == pytest.approx(1.0)
    assert s.final == 1.0
    assert s.tent_length == pytest.approx(6.0)
    assert s.hut_length == pytest.approx(2 * math.sqrt(5))
    assert s.h_prime == 2
    # an exact face set: no cutoff
    assert s.cutoff == 0.0


def test_shape_stats_single_face():
    for mu in (0.4, -0.4):
        T = 5.0
        s = shape_stats([Face(T, mu * T)], T)
        assert s.upsilon == pytest.approx(T * math.sqrt(1 + mu * mu))
        assert s.sup == max(0.0, mu * T)
        assert s.gamma == (T if mu > 0 else 0.0)
        assert s.tent_length == pytest.approx(T + 2 * max(0.0, mu * T) - mu * T)


def test_shape_stats_conservation_guard():
    with pytest.raises(PathError):
        shape_stats([Face(1.0, 0.5)], 3.0)
    with pytest.raises(PathError):
        shape_stats([], 1.0)


def test_malformed_paths_rejected():
    with pytest.raises(ParameterError):
        skeleton([0, 1, 1, 2], [0, 1, 2, 3])   # duplicate time
    with pytest.raises(ParameterError):
        skeleton([0, 2, 1], [0, 1, 2])         # unsorted
    with pytest.raises(ParameterError):
        skeleton([0, 1], [1, 2])               # nonzero start


def test_short_values_rejected():
    with pytest.raises(ParameterError, match="one entry per time"):
        skeleton([0.0, 1.0, 2.0], [0.0, 1.0])


def test_long_values_rejected():
    # the extra value used to be ignored: the majorant came out as [Face(2.0, 3.0)]
    with pytest.raises(ParameterError, match="one entry per time"):
        skeleton([0.0, 1.0, 2.0], [0.0, 1.0, 3.0, 5.0])


def test_mismatched_pre_values_rejected():
    times, values = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 3.0])
    for pre in ([0.0, 1.0], [0.0, 1.0, 2.0, 3.0]):
        with pytest.raises(ParameterError, match="one entry per time"):
            PathSkeleton(times, values, 2.0, np.array(pre))


def test_elementary_sandwich_every_draw():
    g = rng(3)
    model = BrownianDrift(1.0)
    for _ in range(40):
        path = sample_path(model, 4.0, 0.05, g)
        s = shape_stats(merge_collinear(concave_majorant(path)), 4.0)
        assert 1.0 <= s.upsilon / 4.0 <= s.tent_length / 4.0 + 1e-12
        assert s.hut_length <= s.upsilon + 1e-9
        assert s.sup >= max(0.0, s.final) - 1e-12
        assert 0.0 <= s.gamma <= 4.0


def test_domination_and_oracle_equivalence_small_paths():
    g = rng(4)
    for _ in range(300):
        n = int(g.integers(4, 11))
        times = np.concatenate([[0.0], np.sort(g.random(n - 2)) * 0.8 + 0.1, [1.0]])
        if len(set(times)) < len(times):
            continue
        values = np.concatenate([[0.0], g.standard_normal(n - 1)])
        path = skeleton(times, values)
        faces = concave_majorant(path)
        env = eval_faces(faces, times)
        oracle = envelope_oracle(times, values, upper=True)
        assert np.allclose(env, oracle, atol=1e-12)
        assert np.all(env >= values - 1e-9)
        lower = eval_faces(convex_minorant(path), times)
        assert np.allclose(lower, envelope_oracle(times, values, upper=False), atol=1e-12)
        assert np.all(lower <= values + 1e-9)


def test_idempotence_on_vertex_path():
    g = rng(5)
    for _ in range(50):
        n = int(g.integers(4, 12))
        times = np.concatenate([[0.0], np.sort(g.random(n - 2)), [1.0]])
        values = np.concatenate([[0.0], g.standard_normal(n - 1)])
        try:
            path = skeleton(times, values)
        except ParameterError:
            continue
        faces = merge_collinear(concave_majorant(path))
        xs = np.concatenate([[0.0], np.cumsum([f.length for f in faces])])
        ys = np.concatenate([[0.0], np.cumsum([f.height for f in faces])])
        xs[-1] = times[-1]
        again = merge_collinear(concave_majorant(skeleton(xs, ys)))
        assert len(again) == len(faces)
        for fa, fb in zip(again, faces):
            assert fa.length == pytest.approx(fb.length, abs=1e-12)
            assert fa.height == pytest.approx(fb.height, abs=1e-12)


def test_exact_jump_hull_dominates_pre_jump_values():
    g = rng(6)
    model = CompoundPoissonDrift(2.0, Gaussian(0.0, 1.0), mu=-0.1)
    for _ in range(20):
        path = sample_path(model, 10.0, EXACT_JUMPS, g)
        faces = concave_majorant(path)
        env = eval_faces(faces, path.times)
        assert np.all(env >= path.values - 1e-9)
        assert np.all(env >= path.pre_values - 1e-9)
        assert env[-1] == pytest.approx(path.values[-1], abs=1e-9)


def test_grid_skeleton_of_stable_process():
    g = rng(7)
    path = sample_path(StableProcess(0.7), 2.0, 0.01, g)
    s = shape_stats(merge_collinear(concave_majorant(path)), 2.0)
    assert s.upsilon >= math.hypot(2.0, s.final) - 1e-9


def test_faces_to_rows():
    rows = faces_to_rows([Face(2.0, 1.0)])
    assert rows == [(2.0, 1.0, 0.5)]
