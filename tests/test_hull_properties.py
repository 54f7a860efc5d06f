"""Property-based checks of the hull invariants on arbitrary path records.

Paths mix lattice values (exact ties and collinear stretches) with general
floats, on time grids of arbitrary positive gaps; exact jump records add
pre-jump values that the majorant must also dominate.
"""
import math

import numpy as np
import pytest

from levyhull.errors import ParameterError

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from levyhull.experiments import _envelope_oracle  # noqa: E402
from levyhull.hull import (  # noqa: E402
    Face,
    _faces,
    concave_majorant,
    convex_minorant,
    majorant_stats,
    merge_collinear,
    shape_stats,
)
from levyhull.models import (  # noqa: E402
    EXACT_JUMPS,
    CompoundPoissonDrift,
    Gaussian,
    PathSkeleton,
    PointMass,
    TwoPoint,
    sample_jump_paths,
    sample_path,
)

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


@given(st.one_of(paths(), lattice_jump_paths()))
def test_chain_over_the_running_records_gives_the_faces_of_every_point(path):
    # the candidates are the weak running records of the path; the chain
    # over every point, ties and all, must give the same faces bit for
    # bit, and for the minorant over the negated points with negated heights
    t = path.times.tolist()
    for hull, sign in ((concave_majorant, 1.0), (convex_minorant, -1.0)):
        v = sign * path.values if path.pre_values is None else np.maximum(sign * path.values, sign * path.pre_values)
        assert hull(path) == [Face(f.length, sign * f.height) for f in _faces(t, v.tolist())]


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


# ---------------------------------------------------------------------------
# blocks of exact jump paths
# ---------------------------------------------------------------------------

class CountedGenerator:
    """A numpy generator whose Poisson draws are the given counts (when
    ``counts`` is not None) and whose uniforms are taken in order from
    ``uniforms`` (when given); every other draw comes from a seeded
    generator."""

    def __init__(self, counts, seed, uniforms=None):
        self._counts = None if counts is None else iter(counts)
        self._uniforms = None if uniforms is None else list(uniforms)
        self._g = np.random.default_rng(seed)

    def poisson(self, lam, size=None):
        if self._counts is None:
            return self._g.poisson(lam, size)
        return next(self._counts) if size is None else np.array([next(self._counts) for _ in range(size)])

    def random(self, size=None):
        if self._uniforms is None:
            return self._g.random(size)
        out, self._uniforms = self._uniforms[:size], self._uniforms[size:]
        return np.array(out)

    def __getattr__(self, name):
        return getattr(self._g, name)


def reference_records(model, T, n, rng):
    """Exact jump records of ``n`` paths drawn in block order and built one
    path at a time: all the jump counts, then all the uniform times, then
    all the jumps, each path taking its share in row order; then per path
    the sorted times, the walk and the drift, ending the record at a jump
    that falls exactly at T."""
    counts = rng.poisson(model.rate * T, n)
    edges = np.concatenate([[0], np.cumsum(counts)])
    uniforms, jumps = rng.random(edges[-1]), model.jump.sample(edges[-1], rng)
    records = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        s = np.sort(uniforms[lo:hi]) * T
        walk = np.concatenate([[0.0], np.cumsum(jumps[lo:hi])])
        times = np.concatenate([[0.0], s, [T]])
        values = np.concatenate([[0.0], model.mu * s + walk[1:], [model.mu * T + walk[-1]]])
        pre = np.concatenate([[0.0], model.mu * s + walk[:-1], [model.mu * T + walk[-1]]])
        if hi > lo and s[-1] == T:
            times, values, pre = times[:-1], values[:-1], pre[:-1]
        records.append((times, values, pre))
    return records


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


_DRAW_FIELDS = ("upsilon", "h_prime", "final", "sup", "gamma")

jump_laws = st.one_of(
    st.builds(Gaussian, st.floats(-1.0, 1.0), st.floats(0.1, 2.0)),
    # a lattice drift with point-mass jumps gives ties and collinear runs
    st.builds(PointMass, st.sampled_from([-1.0, -0.5, 0.5, 1.0, 2.0])),
    st.builds(TwoPoint, st.floats(0.0, 1.0), st.floats(0.1, 3.0), st.floats(-3.0, -0.1)),
)


@given(
    rate=st.floats(0.1, 5.0),
    T=st.one_of(st.floats(0.5, 20.0), st.sampled_from([1.0, 4.0, 8.0])),
    mu=st.one_of(st.floats(-2.0, 2.0), st.integers(-4, 4).map(lambda k: k / 2.0)),
    jump=jump_laws,
    counts=st.one_of(
        st.none(),
        st.lists(st.one_of(st.just(0), st.integers(0, 3), st.integers(20, 60)), min_size=1, max_size=12),
    ),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_reduction_is_the_per_path_reduction_bit_for_bit(rate, T, mu, jump, counts, n, seed):
    # given counts put zero-jump rows next to long ones, with the rest of
    # the stream real; without them, n paths draw their counts at the rate
    model = CompoundPoissonDrift(rate, jump, mu)
    n = n if counts is None else len(counts)
    block = sample_jump_paths(model, T, n, CountedGenerator(counts, seed))
    got = majorant_stats(block)
    for k, record in enumerate(reference_records(model, T, n, CountedGenerator(counts, seed))):
        path = block.path(k)
        for a, b in zip((path.times, path.values, path.pre_values), record):
            assert np.array_equal(bits(a), bits(b))
        want = shape_stats(merge_collinear(concave_majorant(path)), T)
        for name in _DRAW_FIELDS:
            assert bits(getattr(got, name)[k]) == bits(getattr(want, name)), name
    assert got.horizon == T
    # one-path views on one stream are the n = 1 reference records, one after another
    one, ref = CountedGenerator(counts, seed), CountedGenerator(counts, seed)
    for _ in range(n):
        path = sample_path(model, T, EXACT_JUMPS, one)
        (record,) = reference_records(model, T, 1, ref)
        for a, b in zip((path.times, path.values, path.pre_values), record):
            assert np.array_equal(bits(a), bits(b))


def test_a_jump_exactly_at_the_horizon_ends_the_record():
    # a generator's uniforms lie below 1, and u * T < T for every u < 1, so
    # only a stub can put a jump at T; that row ends at the jump
    model = CompoundPoissonDrift(1.0, PointMass(1.0), mu=0.5)
    T = 4.0
    block = sample_jump_paths(model, T, 3, CountedGenerator([2, 0, 1], 0, uniforms=[1.0, 0.25, 0.5]))
    assert block.sizes.tolist() == [3, 2, 3]
    path = block.path(0)
    assert path.times.tolist() == [0.0, 1.0, 4.0]
    assert path.values.tolist() == [0.0, 1.5, 4.0]
    assert path.pre_values.tolist() == [0.0, 0.5, 3.0]
    assert block.path(1).times.tolist() == [0.0, 4.0] and block.path(1).values.tolist() == [0.0, 2.0]
    assert block.path(2).times.tolist() == [0.0, 2.0, 4.0]
    one = CountedGenerator([2], 0, uniforms=[1.0, 0.25])
    single = sample_path(model, T, EXACT_JUMPS, one)
    assert single.times.tolist() == path.times.tolist() and single.pre_values.tolist() == [0.0, 0.5, 3.0]
    stats = majorant_stats(block)
    assert stats.final.tolist() == [4.0, 2.0, 3.0]
    assert stats.upsilon[0] == shape_stats(merge_collinear(concave_majorant(path)), T).upsilon
    # two jumps at T would repeat a time
    with pytest.raises(ParameterError, match="strictly increasing"):
        sample_jump_paths(model, T, 1, CountedGenerator([2], 0, uniforms=[1.0, 1.0]))
