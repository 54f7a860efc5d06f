import math
import zlib

import mpmath
import numpy as np
import pytest
from scipy import stats as sps

from levyhull.errors import (
    DivergentIntegralError,
    ParameterError,
    UnsupportedExactnessError,
)
from levyhull.models import (
    _cms_transform,
    _lcp_normalizer,
    _phi_cdf,
    CMS_PIECE,
    EXACT_JUMPS,
    BrownianDrift,
    CompoundPoissonDrift,
    Gaussian,
    LogCorrectedPareto,
    Pareto,
    PointMass,
    StableProcess,
    TwoPoint,
    norming,
    sample_increment,
    sample_path,
    stable_standard,
    theta,
    theta_fubini,
)


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_invalid_parameters_rejected():
    with pytest.raises(ParameterError):
        BrownianDrift(0.0)
    with pytest.raises(ParameterError):
        CompoundPoissonDrift(-1.0, PointMass(1.0))
    with pytest.raises(ParameterError):
        StableProcess(1.0)  # the excluded index
    with pytest.raises(ParameterError):
        StableProcess(2.5)
    with pytest.raises(ParameterError):
        StableProcess(1.5, beta=1.5)
    with pytest.raises(ParameterError):
        StableProcess(1.5, scale=0.0)
    with pytest.raises(ParameterError):
        TwoPoint(0.5, up=-1.0, down=-2.0)
    with pytest.raises(ParameterError):
        TwoPoint(0.5, up=1.0, down=2.0)
    with pytest.raises(ParameterError):
        Pareto(0.0, 1.0)
    with pytest.raises(ParameterError):
        PointMass(0.0)
    with pytest.raises(ParameterError):
        Gaussian(0.0, 0.0)
    # every float parameter must be finite: a NaN slips past every range
    # check, and an infinite rate or scale fails only inside numpy
    for bad in (math.nan, math.inf, -math.inf):
        for make in (
            lambda x: BrownianDrift(x),
            lambda x: BrownianDrift(1.0, mu=x),
            lambda x: CompoundPoissonDrift(x, PointMass(1.0)),
            lambda x: CompoundPoissonDrift(1.0, PointMass(1.0), mu=x),
            lambda x: StableProcess(x),
            lambda x: StableProcess(1.5, beta=x),
            lambda x: StableProcess(1.5, scale=x),
            lambda x: StableProcess(1.5, mu=x),
            lambda x: Gaussian(x, 1.0),
            lambda x: Gaussian(0.0, x),
            lambda x: TwoPoint(x, 1.0, -1.0),
            lambda x: TwoPoint(0.5, x, -1.0),
            lambda x: TwoPoint(0.5, 1.0, x),
            lambda x: Pareto(x, 1.0),
            lambda x: Pareto(1.5, x),
            lambda x: Pareto(1.5, 1.0, p_up=x),
            lambda x: PointMass(x),
        ):
            with pytest.raises(ParameterError):
                make(bad)


def test_nonpositive_duration_rejected():
    with pytest.raises(ParameterError):
        sample_increment(BrownianDrift(1.0), 0.0, rng())
    with pytest.raises(ParameterError):
        sample_increment(BrownianDrift(1.0), -1.0, rng())
    # unchecked, an infinite duration draws nan (Brownian) or raises
    # numpy's "lam value too large" (compound Poisson)
    for model in (BrownianDrift(1.0), CompoundPoissonDrift(1.0, Gaussian(0.0, 1.0))):
        for t in (math.inf, math.nan):
            with pytest.raises(ParameterError, match="duration must be finite and > 0"):
                sample_increment(model, t, rng())
    # a path's grid step is a duration too, and a misspelt "exact-jumps"
    # is neither resolution
    for resolution in ("exact", None, 0.0, -0.5, math.inf, math.nan):
        with pytest.raises(ParameterError, match="'exact-jumps' or a finite grid step > 0"):
            sample_path(BrownianDrift(1.0), 1.0, resolution, rng())


@pytest.mark.parametrize("T", [math.inf, math.nan, 0.0, -1.0])
def test_path_and_norming_reject_a_horizon_that_is_not_finite_and_positive(T):
    cp = CompoundPoissonDrift(1.0, PointMass(1.0))
    for call in (
        lambda: sample_path(BrownianDrift(1.0), T, 0.5, rng()),
        lambda: sample_path(cp, T, EXACT_JUMPS, rng()),
        lambda: norming(BrownianDrift(1.0), T),
        lambda: norming(StableProcess(1.5), T),
    ):
        with pytest.raises(ParameterError, match="horizon must be finite and > 0"):
            call()


# ---------------------------------------------------------------------------
# increment laws
# ---------------------------------------------------------------------------

def test_brownian_unit_increment_mean():
    g = rng(11)
    draws = g.standard_normal(0)  # placeholder for clarity
    draws = np.array([sample_increment(BrownianDrift(1.0), 1.0, g) for _ in range(10**6)])
    assert abs(draws.mean()) <= 0.004
    assert abs(draws.std() - 1.0) <= 0.01


def test_point_mass_compound_poisson_mean():
    g = rng(12)
    m = CompoundPoissonDrift(2.0, PointMass(1.0), 0.0)
    draws = np.array([sample_increment(m, 3.0, g) for _ in range(50_000)])
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 6.0) <= 3.0 * se
    assert np.allclose(draws, np.round(draws))  # jump sizes are integers


def test_stable_alpha2_matches_gaussian_oracle():
    # the alpha = 2 transform must reduce to N(0, 2 scale^2)
    g = rng(13)
    s = 1.3
    m = StableProcess(2.0, 0.0, scale=s)
    draws = np.array([sample_increment(m, 1.0, g) for _ in range(60_000)])
    ref = math.sqrt(2.0) * s * rng(14).standard_normal(60_000)
    assert abs(draws.var() / (2 * s * s) - 1.0) < 0.03
    res = sps.ks_2samp(draws, ref)
    assert res.pvalue > 0.01


@pytest.mark.parametrize(
    "model",
    [
        BrownianDrift(0.8, mu=0.1),
        CompoundPoissonDrift(1.5, Gaussian(0.1, 1.0), mu=-0.25),
        # dyadic drift and jump sizes keep the lattice atoms bit-identical
        # under the two float accumulation routes
        CompoundPoissonDrift(2.0, TwoPoint(0.4, 1.0, -0.5), mu=0.25),
        StableProcess(1.5, beta=0.3, scale=0.9, mu=0.1),
        StableProcess(0.7, beta=-0.5, scale=1.1),
    ],
)
def test_increment_additivity_in_law(model):
    # X_{t/2} + X'_{t/2} must match X_t in law (two-sample KS, level 0.01)
    g = rng(zlib.crc32(repr(model).encode()))
    n = 100_000
    halves = np.array(
        [sample_increment(model, 0.5, g) + sample_increment(model, 0.5, g) for _ in range(n // 10)]
    )
    whole = np.array([sample_increment(model, 1.0, g) for _ in range(n // 10)])
    res = sps.ks_2samp(halves, whole)
    assert res.pvalue > 0.01


def test_pareto_magnitudes_respect_scale_floor():
    g = rng(15)
    j = Pareto(1.8, scale=0.5, p_up=0.7)
    draws = j.sample(10_000, g)
    assert np.abs(draws).min() >= 0.5
    assert 0.6 < (draws > 0).mean() < 0.8


def test_log_corrected_pareto_is_moment_only():
    j = LogCorrectedPareto()
    with pytest.raises(UnsupportedExactnessError):
        j.sample(10, rng())
    assert j.mean() == 0.0
    assert j.second_moment() == pytest.approx(2.0 / _lcp_normalizer())
    # a frozen dataclass without fields, like the other jump laws
    assert j == LogCorrectedPareto() and hash(j) == hash(LogCorrectedPareto())
    assert repr(j) == "LogCorrectedPareto()"


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def test_exact_jump_record_point_mass():
    g = rng(21)
    m = CompoundPoissonDrift(1.0, PointMass(1.0), 0.0)
    path = sample_path(m, 10.0, EXACT_JUMPS, g)
    n_jumps = len(path.times) - 2
    assert path.values[-1] == pytest.approx(n_jumps)
    assert path.pre_values is not None   # an exact jump record
    # post-jump value exceeds the pre-jump value by exactly one jump
    assert np.allclose(path.values[1:-1] - path.pre_values[1:-1], 1.0)


def test_exact_jump_record_reconstructs_drift():
    g = rng(22)
    m = CompoundPoissonDrift(0.8, Gaussian(0.0, 1.0), mu=0.5)
    path = sample_path(m, 20.0, EXACT_JUMPS, g)
    dt = np.diff(path.times)
    drift_gain = path.pre_values[1:] - path.values[:-1]
    assert np.allclose(drift_gain, 0.5 * dt, atol=1e-12)


def test_grid_path_shapes():
    g = rng(23)
    path = sample_path(BrownianDrift(1.0), 1.0, 0.25, g)
    assert len(path.times) == 5
    assert path.times[-1] == 1.0
    single = sample_path(StableProcess(1.5), 1.0, 1.0, g)
    assert len(single.times) == 2


def test_grid_final_value_is_leftfold_of_increments():
    g = rng(24)
    path = sample_path(BrownianDrift(1.0, 0.3), 2.0, 0.01, g)
    incs = np.diff(path.values)
    acc = 0.0
    for v in incs:
        acc += v
    assert path.values[-1] == acc  # bit-for-bit left-to-right accumulation


def test_exact_jumps_unsupported_for_infinite_activity():
    with pytest.raises(UnsupportedExactnessError):
        sample_path(BrownianDrift(1.0), 1.0, EXACT_JUMPS, rng())
    with pytest.raises(UnsupportedExactnessError):
        sample_path(StableProcess(1.5), 1.0, EXACT_JUMPS, rng())


# ---------------------------------------------------------------------------
# norming
# ---------------------------------------------------------------------------

def test_norming_values():
    assert norming(BrownianDrift(2.0), 100.0) == pytest.approx(10.0)
    assert norming(StableProcess(0.5, scale=1.0), 16.0) == pytest.approx(256.0)
    # alpha = 2 stable: match the Gaussian variance of the unit draw
    s = 0.7
    g = rng(31)
    draws = np.array([sample_increment(StableProcess(2.0, scale=s), 4.0, g) for _ in range(40_000)])
    assert norming(StableProcess(2.0, scale=s), 4.0) == pytest.approx(2 * s * math.sqrt(2))
    assert draws.std() == pytest.approx(norming(StableProcess(2.0, scale=s), 4.0), rel=0.03)


def test_norming_pareto_attracted():
    m = CompoundPoissonDrift(2.0, Pareto(1.5, scale=0.5), 0.0)
    assert m.attraction_alpha() == 1.5
    assert norming(m, 8.0) == pytest.approx(0.5 * 16.0 ** (1 / 1.5))


# ---------------------------------------------------------------------------
# the centering integral
# ---------------------------------------------------------------------------

def test_theta_trivial_cases():
    assert theta(BrownianDrift(1.0), 50.0) == 0.0
    m = CompoundPoissonDrift(1.0, PointMass(1.0), 0.0)
    assert theta(m, 10.0) == 0.0  # log+(min(10, 1)) = 0
    m2 = CompoundPoissonDrift(1.0, PointMass(math.e), 0.0)
    assert theta(m2, math.e**2) == pytest.approx(math.e**2, rel=1e-12)


@pytest.mark.parametrize(
    "jump",
    [
        PointMass(2.5),
        TwoPoint(0.3, 2.0, -0.5),
        Gaussian(0.2, 1.1),
        Pareto(3.5, 0.8, 0.6),
        LogCorrectedPareto(),
    ],
)
def test_theta_forms_agree(jump):
    m = CompoundPoissonDrift(1.3, jump, 0.0)
    for T in (1.0, 2.0, 37.0, 1e4):
        a = theta(m, T)
        b = theta_fubini(m, T)
        assert a == pytest.approx(b, rel=1e-8, abs=1e-12)


def test_phi_cdf_matches_scipy_ndtr():
    from scipy.special import ndtr

    x = np.linspace(-40.0, 40.0, 800_001)
    assert np.abs(_phi_cdf(x) - ndtr(x)).max() <= 2.3e-16
    # relative agreement deep in the lower tail; below about -37.5 ndtr
    # flushes to 0 while erfc still gives subnormals
    lo = np.linspace(-37.0, -5.0, 320_001)
    assert np.abs(_phi_cdf(lo) / ndtr(lo) - 1.0).max() <= 1e-12
    edge = _phi_cdf(np.array([np.inf, -np.inf, np.nan]))
    assert edge[0] == 1.0 and edge[1] == 0.0 and np.isnan(edge[2])
    assert _phi_cdf(np.zeros((2, 3))).shape == (2, 3)
    # the quadrature integrands pass floats
    v = _phi_cdf(0.3)
    assert np.ndim(v) == 0 and v.dtype == np.float64
    assert float(v) == pytest.approx(float(ndtr(0.3)), abs=2.3e-16)


def test_theta_monotone_and_log_bounded():
    m = CompoundPoissonDrift(0.9, Gaussian(0.0, 1.4), 0.0)
    grid = [1.0, 2.0, 5.0, 30.0, 200.0, 5e3]
    vals = [theta(m, T) for T in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    bound = 0.5 * m.rate * m.jump.second_moment()
    for T, v in zip(grid, vals):
        assert v <= bound * math.log(T) + 1e-12


def test_theta_divergent_measure():
    m = CompoundPoissonDrift(1.0, Pareto(1.5, 1.0), 0.0)
    with pytest.raises(DivergentIntegralError):
        theta(m, 10.0)


def test_theta_needs_t_at_least_one():
    with pytest.raises(ParameterError):
        theta(BrownianDrift(1.0), 0.5)


def test_stable_standard_symmetry():
    g = rng(41)
    x = stable_standard(1.5, 0.0, g, 50_000)
    assert abs(np.mean(np.sign(x))) < 0.02


class _ChosenDraws:
    """Generator stub whose next uniform and exponential are given."""

    def __init__(self, u, w):
        self.u, self.w = u, w

    def random(self):
        return self.u

    def standard_exponential(self):
        return self.w


def _cms_exact(alpha, beta, u, w):
    """The Chambers-Mallows-Stuck draw at uniform ``u`` and exponential ``w``
    in 50-digit arithmetic; at index 2, where tan(pi alpha / 2) = 0, the
    exact reduction 2 sin(x) sqrt(w)."""
    with mpmath.workdps(50):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        x = mpmath.pi * (mpmath.mpf(u) - 0.5)
        if alpha == 2.0:
            return float(2 * mpmath.sin(x) * mpmath.sqrt(w))
        tb = b * mpmath.tan(mpmath.pi * a / 2)
        ang = mpmath.atan(tb) + a * x
        s0 = (1 + tb * tb) ** (1 / (2 * a))
        return float(
            s0 * mpmath.sin(ang) / mpmath.cos(x) ** (1 / a)
            * (mpmath.cos(x - ang) / w) ** ((1 - a) / a)
        )


@pytest.mark.parametrize(
    "alpha, beta", [(1.5, 0.0), (0.7, 0.0), (1.5, 0.5), (0.6, -0.8), (1.2, 1.0), (2.0, 0.0), (2.0, 0.4)]
)
def test_stable_standard_arrays_match_the_textbook_transform(alpha, beta):
    # the textbook form in 50-digit arithmetic, on a grid that reaches both
    # ends of the uniform, where its float64 evaluation cancels: that was
    # off by 0.22 at u = 2^-53
    us = np.concatenate([
        [2.0**-53, 1e-12, 1e-8, 1e-4, 0.5, 1 - 1e-4, 1 - 1e-8, 1 - 2.0**-53],
        np.linspace(0.005, 0.995, 45),
    ])
    u, w = (a.ravel() for a in np.meshgrid(us, [1e-3, 0.7, 5.0]))
    got = _cms_transform(alpha, beta, u.copy(), w)
    exact = np.array([_cms_exact(alpha, beta, *uw) for uw in zip(u, w)])
    zero = exact == 0.0   # u = 1/2 at beta = 0: the draw is exactly 0
    assert (got[zero] == 0.0).all()
    rel = np.abs(got[~zero] / exact[~zero] - 1.0)
    assert rel.max() < 1e-13, (rel.max(), u[~zero][rel.argmax()])
    # the scalar draw, one (u, w) at a time, is as accurate and within an
    # ulp or two of the array transform
    one = np.array([stable_standard(alpha, beta, _ChosenDraws(*uw)) for uw in zip(u, w)])
    assert (one[zero] == 0.0).all()
    rel = np.abs(one[~zero] / exact[~zero] - 1.0)
    assert rel.max() < 1e-13, (rel.max(), u[~zero][rel.argmax()])
    assert np.abs(one[~zero] / got[~zero] - 1.0).max() < 1e-14

    # sizes below, at and above one piece: the draws are the transform of
    # all the uniforms with the exponentials drawn after them, bit for bit,
    # however the pieces split them
    for size in ((), (3, 7), CMS_PIECE, 20001, (2, CMS_PIECE + 5)):
        g, h = rng(43), rng(43)
        x = stable_standard(alpha, beta, g, size)
        v = h.random(size or 1).ravel()
        ref = _cms_transform(alpha, beta, v, h.standard_exponential(v.size))
        assert x.shape == np.empty(size).shape
        assert np.array_equal(x, ref.reshape(x.shape))
        # the exponentials drawn piece by piece leave the stream where one full draw does
        assert g.random() == h.random()
