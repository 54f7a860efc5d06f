import math

import numpy as np
import pytest
from scipy import stats as sps

from levyhull.errors import ParameterError
from levyhull.limitlaws import (
    draw_limit_envelopes_stable,
    draw_limit_finite_variance,
    draw_limit_heavy,
    draw_limit_stable_zero_mean,
    perpetuity_tail_constant,
    sample_limit_envelopes,
    sample_limit_finite_variance,
    sample_limit_stable_zero_mean,
    sample_limit_heavy,
    sample_limit_drift,
)
from levyhull.models import StableProcess
from levyhull.sbrep import normalize_stable_zero_mean, sample_quintuple
from levyhull.stats import tail_slope


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# finite-variance quintuple limit
# ---------------------------------------------------------------------------

def test_finite_variance_limit_per_draw_ordering():
    g = rng(1)
    for _ in range(300):
        s = sample_limit_finite_variance(1.3, g)
        assert s.coords.shape == (5,)
        assert s.coords[2] >= max(0.0, s.coords[3])   # sup >= final+
        assert 0.0 <= s.coords[4] <= 1.0
        assert s.truncation_bound > 0.0


def test_finite_variance_limit_sup_is_half_normal():
    coords, _ = draw_limit_finite_variance(1.0, 100_000, rng(2))
    ref = np.abs(rng(3).standard_normal(100_000))
    res = sps.ks_2samp(coords[:, 2], ref)
    assert res.pvalue > 0.01


def test_finite_variance_limit_argmax_is_arcsine():
    coords, _ = draw_limit_finite_variance(1.0, 100_000, rng(4))
    ref = np.sin(0.5 * math.pi * rng(5).random(100_000)) ** 2
    res = sps.ks_2samp(coords[:, 4], ref)
    assert res.pvalue > 0.01


def test_finite_variance_limit_endpoint_is_exactly_normal():
    # the Gaussian remainder fold-in makes the endpoint coordinate exact
    sigma = 0.8
    coords, _ = draw_limit_finite_variance(sigma, 100_000, rng(6))
    ref = sigma * rng(7).standard_normal(100_000)
    res = sps.ks_2samp(coords[:, 3], ref)
    assert res.pvalue > 0.01


def test_finite_variance_limit_refinement_stays_within_reported_bound():
    # records grow in blocks of sticks and a batch is as wide as its slowest
    # row, so halving eps extends few records; eps = 1e-12 extends nearly all
    for fine in (5e-5, 1e-12):
        for i in range(300):
            a = sample_limit_finite_variance(1.0, rng(100 + i), eps=1e-4)
            b = sample_limit_finite_variance(1.0, rng(100 + i), eps=fine)
            assert a.coords[0] == b.coords[0] and a.coords[1] == b.coords[1]
            delta = np.abs(a.coords[2:] - b.coords[2:]).max()
            assert delta <= a.truncation_bound
        for seed in range(10):
            a, bound = draw_limit_finite_variance(1.0, 64, rng(seed), eps=1e-4)
            b, _ = draw_limit_finite_variance(1.0, 64, rng(seed), eps=fine)
            assert (a[:, :2] == b[:, :2]).all()
            assert (np.abs(a[:, 2:] - b[:, 2:]).max(axis=1) <= bound).all()
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# zero-mean stable limit
# ---------------------------------------------------------------------------

def test_stable_limit_per_draw_ordering():
    g = rng(8)
    for _ in range(300):
        s = sample_limit_stable_zero_mean(1.5, g)
        assert s.coords.shape == (4,)
        assert s.coords[0] >= 0.0
        assert s.coords[1] >= max(0.0, s.coords[2])
        assert 0.0 <= s.coords[3] <= 1.0


def test_stable_limit_matches_finite_horizon_sampler_coords_2_to_4():
    # the scaled sup/final/argmax coordinates of an exact stable process are
    # distribution-free in T, so they must match the series sampler
    model = StableProcess(1.5)
    T, n = 1e4, 8000
    g = rng(909)
    finite = np.array(
        [normalize_stable_zero_mean(model, sample_quintuple(model, T, g)).coords for _ in range(n)]
    )
    coords, _ = draw_limit_stable_zero_mean(1.5, n, rng(910))
    for k in (1, 2, 3):
        res = sps.ks_2samp(finite[:, k], coords[:, k])
        assert res.pvalue > 0.01, k


def test_stable_limit_refinement_stays_within_reported_bound():
    for fine in (5e-5, 1e-12):
        for i in range(300):
            a = sample_limit_stable_zero_mean(1.5, rng(200 + i), eps=1e-4)
            b = sample_limit_stable_zero_mean(1.5, rng(200 + i), eps=fine)
            delta = np.abs(a.coords - b.coords).max()
            assert delta <= a.truncation_bound
        for seed in range(10):
            a, bound = draw_limit_stable_zero_mean(1.5, 64, rng(seed), eps=1e-4)
            b, _ = draw_limit_stable_zero_mean(1.5, 64, rng(seed), eps=fine)
            assert (np.abs(a - b).max(axis=1) <= bound).all()
    assert not np.array_equal(a, b)


def test_perpetuity_tail_constant_values():
    assert perpetuity_tail_constant(1.5) == pytest.approx(2**0.25 / 0.5)
    assert perpetuity_tail_constant(1.2) == pytest.approx(2**0.4 / 0.8)
    assert perpetuity_tail_constant(1.99) == pytest.approx(100 * 2**0.005)
    with pytest.raises(ParameterError):
        perpetuity_tail_constant(2.0)
    with pytest.raises(ParameterError):
        perpetuity_tail_constant(1.0)


def test_stable_limit_tail_exponent():
    coords, _ = draw_limit_stable_zero_mean(1.5, 200_000, rng(11))
    fit = tail_slope(coords[:, 0])
    assert abs(fit.slope + 0.75) < 0.1


def test_stable_limit_perpetuity_identity():
    # Q =d A Q' + B with A, B driven by the first stick and stable draw
    alpha = 1.5
    n = 50_000
    g = rng(12)
    coords, _ = draw_limit_stable_zero_mean(alpha, 2 * n, g)
    q = coords[:n, 0]
    q_prime = coords[n:, 0]
    ell1 = g.random(n)
    s1 = np.asarray(
        (np.sin(alpha * (u := (g.random(n) - 0.5) * math.pi))
         / np.cos(u) ** (1 / alpha))
        * (np.cos(u - alpha * u) / g.exponential(1.0, n)) ** ((1 - alpha) / alpha)
    )
    recon = (1 - ell1) ** (2 / alpha - 1) * q_prime + 0.5 * ell1 ** (2 / alpha - 1) * s1 * s1
    res = sps.ks_2samp(q, recon)
    assert res.pvalue > 0.01


# ---------------------------------------------------------------------------
# heavy limit, index < 1
# ---------------------------------------------------------------------------

def test_heavy_limit_identities_per_draw():
    g = rng(13)
    for _ in range(300):
        s = sample_limit_heavy(0.5, g)
        c = s.coords
        assert c.shape == (8,)
        assert c[0] == pytest.approx(2 * c[1] - c[2], rel=1e-9, abs=1e-12)
        assert c[1] >= 0.0 >= c[5]
        assert 0.0 <= c[3] <= 1.0 and 0.0 <= c[7] <= 1.0
        assert c[3] + c[7] == pytest.approx(1.0)
        assert c[1] >= c[2]                       # sup >= final
        assert c[4] == pytest.approx(c[2] - 2 * c[5], rel=1e-9, abs=1e-12)


def test_heavy_limit_one_sided_positive():
    g = rng(14)
    for _ in range(100):
        s = sample_limit_heavy(0.5, g, beta=1.0)
        # spectrally positive, index < 1: increasing process, no negative part
        assert s.coords[5] == 0.0
        assert s.coords[1] == pytest.approx(s.coords[2])


def test_heavy_limit_refinement_stays_within_reported_bound():
    for fine in (5e-5, 1e-12):
        for i in range(300):
            a = sample_limit_heavy(0.5, rng(300 + i), eps=1e-4)
            b = sample_limit_heavy(0.5, rng(300 + i), eps=fine)
            delta = np.abs(a.coords - b.coords).max()
            assert delta <= a.truncation_bound
        for seed in range(10):
            a, bound = draw_limit_heavy(0.5, 64, rng(seed), eps=1e-4)
            b, _ = draw_limit_heavy(0.5, 64, rng(seed), eps=fine)
            assert (np.abs(a - b).max(axis=1) <= bound).all()
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# drift limit
# ---------------------------------------------------------------------------

def test_drift_limit_case_a_rank_one():
    g = rng(15)
    mu = 1.0
    coef = mu / math.sqrt(2.0)
    for _ in range(200):
        s = sample_limit_drift(2.0, mu, "a", g)
        assert s.coords.shape == (3,)
        assert s.coords[0] == coef * s.coords[1]
        assert s.coords[1] == s.coords[2]


def test_drift_limit_case_a_alpha2_gaussian():
    g = rng(21)
    draws = np.array([sample_limit_drift(2.0, 1.0, "a", g).coords[1] for _ in range(40_000)])
    res = sps.kstest(draws, sps.norm(scale=math.sqrt(2.0)).cdf)
    assert res.pvalue > 0.01


def test_drift_limit_case_b_flags_external_coordinates():
    g = rng(18)
    s = sample_limit_drift(1.5, -2.0, "b", g)
    assert s.coords.shape == (4,)
    assert s.missing == (2, 4)
    assert np.isnan(s.coords[1]) and np.isnan(s.coords[3])
    assert s.coords[0] == pytest.approx(-2.0 / math.sqrt(5.0) * s.coords[2])


def test_drift_limit_case_sign_validation():
    g = rng(19)
    with pytest.raises(ParameterError):
        sample_limit_drift(1.5, -1.0, "a", g)
    with pytest.raises(ParameterError):
        sample_limit_drift(1.5, 1.0, "b", g)
    with pytest.raises(ParameterError):
        sample_limit_drift(0.5, 1.0, "a", g)


# ---------------------------------------------------------------------------
# envelope-length comparison limits
# ---------------------------------------------------------------------------

def test_envelope_limit_case_a_nonnegative_hut():
    g = rng(20)
    sigma = 1.1
    for _ in range(200):
        s = sample_limit_envelopes("a", g, sigma=sigma)
        hut, maj, tent = s.coords
        sup = None  # hut bound below uses only nonnegativity of its parts
        assert hut >= 0.0
        assert s.coords.shape == (3,)


def test_envelope_limit_case_b_cauchy_schwarz_ordering():
    coords, _ = draw_limit_envelopes_stable(1.5, 2000, rng(21))
    assert (coords[:, 0] <= coords[:, 1] + 1e-12).all()
    assert (coords[:, 1] >= 0.0).all()


def test_envelope_limit_case_c_rank_one():
    g = rng(22)
    for _ in range(100):
        s = sample_limit_envelopes("c", g, alpha=0.5)
        assert s.coords[0] == s.coords[1] == s.coords[2]
        assert s.coords[0] >= 0.0


def test_envelope_limit_validation():
    g = rng(23)
    with pytest.raises(ParameterError):
        sample_limit_envelopes("d", g)
    with pytest.raises(ParameterError):
        sample_limit_envelopes("b", g, alpha=2.5)
    with pytest.raises(ParameterError):
        draw_limit_envelopes_stable(0.5, 10, g)
    with pytest.raises(ParameterError):
        draw_limit_envelopes_stable(1.5, 10, g, eps=2.0)
