import math
import zlib

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sps

from levyhull.errors import (
    DivergentIntegralError,
    ParameterError,
    RegimeError,
    UnsupportedExactnessError,
)
from levyhull.models import (
    _EE,
    _EXP_SINH,
    _TANH_SINH,
    _cms_transform,
    _de_quad,
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
    # one bad duration among good ones refuses the whole array call
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match="duration must be finite and > 0"):
            sample_increment(BrownianDrift(1.0), np.array([0.5, bad, 2.0]), rng())
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
    draws = sample_increment(BrownianDrift(1.0), np.ones(10**6), g)
    assert abs(draws.mean()) <= 0.004
    assert abs(draws.std() - 1.0) <= 0.01


def test_point_mass_compound_poisson_mean():
    g = rng(12)
    m = CompoundPoissonDrift(2.0, PointMass(1.0), 0.0)
    draws = sample_increment(m, np.full(50_000, 3.0), g)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 6.0) <= 3.0 * se
    assert np.allclose(draws, np.round(draws))  # jump sizes are integers


def test_stable_alpha2_matches_gaussian_oracle():
    # the alpha = 2 transform must reduce to N(0, 2 scale^2)
    g = rng(13)
    s = 1.3
    m = StableProcess(2.0, 0.0, scale=s)
    draws = sample_increment(m, np.ones(60_000), g)
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
    halves = sample_increment(model, np.full(n // 10, 0.5), g) + sample_increment(model, np.full(n // 10, 0.5), g)
    whole = sample_increment(model, np.ones(n // 10), g)
    res = sps.ks_2samp(halves, whole)
    assert res.pvalue > 0.01


@pytest.mark.parametrize(
    "model, unit",
    [
        (BrownianDrift(0.8, mu=0.3), lambda g, n: g.standard_normal(n)),
        (StableProcess(1.5, beta=0.3, scale=0.9, mu=0.1), lambda g, n: stable_standard(1.5, 0.3, g, n)),
        (StableProcess(0.7, beta=-0.5, scale=1.1), lambda g, n: stable_standard(0.7, -0.5, g, n)),
        (StableProcess(2.0, scale=1.3), lambda g, n: stable_standard(2.0, 0.0, g, n)),
    ],
)
def test_one_array_call_scales_each_cell_by_its_duration(model, unit):
    # durations over nine decades in one call: each draw, standardized by
    # the exact law at its own duration (X_t = mu t + c(t) S), is a draw of
    # the unit law S, which a single-duration test cannot show
    t = np.geomspace(1e-6, 1e3, 50_000)
    x = sample_increment(model, t, rng(51))
    if isinstance(model, BrownianDrift):
        c = model.sigma * np.sqrt(t)
    else:
        c = model.scale * t ** (1.0 / model.alpha)
    z = (x - model.mu * t) / c
    assert sps.ks_2samp(z, unit(rng(52), t.size)).pvalue > 0.01


def test_moment_only_jumps_refuse_every_increment():
    # the refusal may not hang on a jump falling: at these durations most
    # cells hold no jump
    m = CompoundPoissonDrift(3.0, LogCorrectedPareto())
    for t in (1e-6, 0.1, 1.0, np.full(5, 1e-6)):
        with pytest.raises(UnsupportedExactnessError):
            sample_increment(m, t, rng())
    with pytest.raises(UnsupportedExactnessError):
        sample_path(m, 1.0, 1e-3, rng())


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
    assert j.first_moment() == 0.0
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
    draws = sample_increment(StableProcess(2.0, scale=s), np.full(40_000, 4.0), g)
    assert norming(StableProcess(2.0, scale=s), 4.0) == pytest.approx(2 * s * math.sqrt(2))
    assert draws.std() == pytest.approx(norming(StableProcess(2.0, scale=s), 4.0), rel=0.03)


def test_norming_pareto_attracted():
    # jump_scale (C_a rate T)^(1/a), C_a = Gamma(1 - a) cos(pi a / 2): at
    # a = 1.5, C_a = (-2 sqrt(pi)) (-sqrt(2) / 2) = sqrt(2 pi)
    m = CompoundPoissonDrift(2.0, Pareto(1.5, scale=0.5), 0.0)
    assert m.attraction_alpha() == 1.5
    assert norming(m, 8.0) == pytest.approx(0.5 * (math.sqrt(2.0 * math.pi) * 16.0) ** (1 / 1.5), rel=1e-14)
    # at a = 0.5 the factor C_a^(1/a) is pi / 2 exactly
    half = CompoundPoissonDrift(1.0, Pareto(0.5, scale=1.0), 0.0)
    assert norming(half, 16.0) / 16.0**2 == pytest.approx(math.pi / 2.0, rel=1e-15, abs=0.0)
    # a = 1 has no limit regime, and no norming
    with pytest.raises(RegimeError):
        norming(CompoundPoissonDrift(1.0, Pareto(1.0, scale=1.0), 0.0), 16.0)


@pytest.mark.parametrize(
    "model, beta",
    [
        (BrownianDrift(2.0, 0.5), 0.0),
        (StableProcess(1.5, -0.3), -0.3),
        (CompoundPoissonDrift(1.0, Gaussian(0.5, 1.0)), 0.0),
        (CompoundPoissonDrift(1.0, Pareto(0.5, 1.0, p_up=0.7)), 0.4),
        (CompoundPoissonDrift(1.0, Pareto(1.5, 1.0, p_up=0.2)), -0.6),
        (CompoundPoissonDrift(1.0, Pareto(2.5, 1.0, p_up=0.7)), 0.0),   # finite variance: Gaussian limit
    ],
)
def test_limit_beta_is_the_skewness_of_the_limit(model, beta):
    assert model.limit_beta() == pytest.approx(beta, abs=1e-15)


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
    # a float gives a 0-d float64
    v = _phi_cdf(0.3)
    assert np.ndim(v) == 0 and v.dtype == np.float64
    assert float(v) == pytest.approx(float(ndtr(0.3)), abs=2.3e-16)


def _quad(f, *edges):
    """scipy's adaptive quadrature of a scalar ``f``, piece by piece."""
    return sum(integrate.quad(f, a, b, limit=400, epsabs=0.0, epsrel=1e-13)[0]
               for a, b in zip(edges[:-1], edges[1:]))


def _quad_theta(jump, T):
    """The measure side of the centering integral by :func:`_quad`, in x
    (the log-corrected law in log x), split where the jump law's ``theta``
    splits."""
    root_t = math.sqrt(T)
    if isinstance(jump, Gaussian):
        def f(x):
            dens = (sps.norm.pdf(x, jump.mean, jump.sd) + sps.norm.pdf(-x, jump.mean, jump.sd))
            return 0.5 * x * x * max(0.0, math.log(min(T, x * x))) * dens
        return _quad(f, 1.0, root_t, math.inf)
    if isinstance(jump, Pareto):
        a, s = jump.tail_index, jump.scale
        lo = max(s, 1.0)
        return _quad(lambda x: 0.5 * math.log(min(T, x * x)) * a * s**a * x ** (1.0 - a),
                     lo, max(lo, root_t), math.inf)
    if root_t <= _EE:
        return math.log(T) / _lcp_normalizer()
    body = 2.0 * _quad(lambda w: math.log(w) ** -2, math.e, math.log(root_t))
    return (body + math.log(T) / math.log(math.log(root_t))) / _lcp_normalizer()


_QUAD_T = (1e2, 1e4, 1e6, *((k * (1.0 + d)) ** 2 for k in (5.0, _EE) for d in (-1e-9, 1e-9)))


@pytest.mark.parametrize(
    "jump",
    [Gaussian(0.2, 1.1), Gaussian(0.3, 1.7), Pareto(3.5, 0.8, 0.6), Pareto(2.5, 1.0), Pareto(3.0, 5.0),
     Pareto(2.05, 1.0), LogCorrectedPareto()],
    ids=repr,
)
def test_double_exponential_rule_matches_adaptive_quadrature(jump):
    # both forms of the centering integral against scipy.integrate.quad at
    # the criterion 12 horizons and on both sides of each kink (5 for the
    # Pareto of scale 5, e^e for the log-corrected law).  The Pareto of
    # index 2.05 has a tail that exp-sinh nodes in x would cut at 1e-7
    for T in _QUAD_T:
        root_t = math.sqrt(T)
        assert jump.theta(T) == pytest.approx(_quad_theta(jump, T), rel=1e-12, abs=0.0), T
        kinks = [k for k in jump.kinks() if 1.0 < k < root_t]
        time_side = _quad(lambda u: float(jump.second_moment_tail(u)) / u, 1.0, *kinks, root_t)
        assert jump.theta_time_side(root_t) == pytest.approx(time_side, rel=1e-12, abs=0.0), T


def test_lcp_normalizer_matches_adaptive_quadrature():
    mass = 2.0 * _quad(lambda x: x**-3 / (math.log(x) * math.log(math.log(x)) ** 2), _EE, math.inf)
    assert _lcp_normalizer() == pytest.approx(mass, rel=1e-12, abs=0.0)


def test_double_exponential_rule_pieces():
    # one rule per piece between edges; a zero-width piece adds nothing
    assert _de_quad(lambda x: np.exp(-x), 0.0, math.inf) == pytest.approx(1.0, rel=1e-15)
    assert _de_quad(np.cos, 0.0, 1.0, 1.0, 2.0) == pytest.approx(math.sin(2.0), rel=1e-15)
    assert _de_quad(lambda x: np.abs(x - 0.3), 0.0, 0.3, 1.0) == pytest.approx(0.29, rel=1e-15)
    assert _TANH_SINH[0].size == _EXP_SINH[0].size == 769


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
