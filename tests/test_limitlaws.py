import math

import numpy as np
import pytest
from scipy import stats as sps

from levyhull.errors import ParameterError, RegimeError
from levyhull.limitlaws import (
    _gaussian_terms,
    _quadratic,
    _series,
    _signed,
    draw_limit_drift,
    draw_limit_finite_variance,
    draw_limit_quadratic,
    draw_limit_stable,
)
from levyhull.models import BrownianDrift, StableProcess, stable_standard
from levyhull.sbrep import normalize_stable, sample_quintuple
from levyhull.stats import tail_slope
from levyhull.sticks import BLOCK, ROWS, stick_matrix


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# finite-variance quintuple limit
# ---------------------------------------------------------------------------

def test_finite_variance_limit_per_draw_ordering():
    c, bound = draw_limit_finite_variance(1.3, 300, rng(1))
    assert c.shape == (300, 5)
    assert (c[:, 2] >= np.maximum(0.0, c[:, 3])).all()   # sup >= final+
    assert ((0.0 <= c[:, 4]) & (c[:, 4] <= 1.0)).all()
    assert (bound > 0.0).all()


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
            a, bound = draw_limit_finite_variance(1.0, 1, rng(100 + i), eps=1e-4)
            b, _ = draw_limit_finite_variance(1.0, 1, rng(100 + i), eps=fine)
            assert a[0, 0] == b[0, 0] and a[0, 1] == b[0, 1]
            assert np.abs(a[0, 2:] - b[0, 2:]).max() <= bound[0]
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
    c, _ = draw_limit_stable(1.5, 300, rng(8))
    assert c.shape == (300, 4)
    assert (c[:, 0] >= 0.0).all()
    assert (c[:, 1] >= np.maximum(0.0, c[:, 2])).all()
    assert ((0.0 <= c[:, 3]) & (c[:, 3] <= 1.0)).all()


def test_stable_limit_matches_finite_horizon_sampler_coords_2_to_4():
    # the scaled sup/final/argmax coordinates of an exact stable process are
    # distribution-free in T, so they must match the series sampler
    model = StableProcess(1.5)
    T, n = 1e4, 8000
    g = rng(909)
    finite = np.array(
        [normalize_stable(model, sample_quintuple(model, T, g)) for _ in range(n)]
    )
    coords, _ = draw_limit_stable(1.5, n, rng(910))
    for k in (1, 2, 3):
        res = sps.ks_2samp(finite[:, k], coords[:, k])
        assert res.pvalue > 0.01, k


def test_stable_limit_refinement_stays_within_reported_bound():
    for fine in (5e-5, 1e-12):
        for i in range(300):
            a, bound = draw_limit_stable(1.5, 1, rng(200 + i), eps=1e-4)
            b, _ = draw_limit_stable(1.5, 1, rng(200 + i), eps=fine)
            assert np.abs(a - b).max() <= bound[0]
        for seed in range(10):
            a, bound = draw_limit_stable(1.5, 64, rng(seed), eps=1e-4)
            b, _ = draw_limit_stable(1.5, 64, rng(seed), eps=fine)
            assert (np.abs(a - b).max(axis=1) <= bound).all()
    assert not np.array_equal(a, b)


def test_quadratic_series_alone_is_column_zero_bit_for_bit():
    # batch sizes below and above the row slice of the stick loop
    for n in (1, 300, ROWS + 17):
        for seed in (0, 1, 2):
            for alpha, beta in ((1.5, 0.0), (1.2, 0.5)):
                coords, bounds = draw_limit_stable(alpha, n, rng(seed), beta=beta)
                q, q_bounds = draw_limit_quadratic(alpha, n, rng(seed), beta=beta)
                assert np.array_equal(q, coords[:, 0])
                assert np.array_equal(q_bounds, bounds)


def _block_column_sums(n, eps, g, draw, terms):
    """Reference for the series sums: the driven record of stick_matrix,
    each block's columns added left to right, then the block sums (the
    remainder last, as a one-column block) added in turn."""
    xs = []
    t, rem = stick_matrix(n, 1.0, eps, g, lambda block: xs.append(draw(block.T.shape)))
    xs.append(draw((1, n)))
    blocks = [t[:, lo : lo + BLOCK] for lo in range(0, t.shape[1], BLOCK)] + [rem[:, None]]
    total = 0.0
    for ell, x in zip(blocks, xs):
        acc = terms(ell[:, 0], x[0])
        for j in range(1, ell.shape[1]):
            acc = [a + y for a, y in zip(acc, terms(ell[:, j], x[j]))]
        total = total + np.array(acc)
    return total, rem


@pytest.mark.parametrize("n", [1, 2, 5000])
def test_series_sums_each_block_column_by_column(n):
    def stable(alpha):
        return lambda g: lambda shape: stable_standard(alpha, 0.3, g, shape)

    cases = (
        (lambda g: g.standard_normal, _gaussian_terms),
        (stable(1.5), lambda ell, s: [*_quadratic(ell, s, 1.5), *_signed(ell, s, 1.5)]),
        (stable(0.7), lambda ell, s: _signed(ell, s, 0.7)),
    )
    for seed, (draw, terms) in enumerate(cases):
        g, h = rng(seed), rng(seed)
        sums, rem = _series(n, 1e-6, g, draw(g), terms)
        ref, ref_rem = _block_column_sums(n, 1e-6, h, draw(h), terms)
        assert np.array_equal(sums, ref)
        assert np.array_equal(rem, ref_rem)


def test_stable_limit_tail_exponent():
    coords, _ = draw_limit_stable(1.5, 200_000, rng(11))
    fit = tail_slope(coords[:, 0])
    assert abs(fit.slope + 0.75) < 0.1


def test_stable_limit_perpetuity_identity():
    # Q =d A Q' + B with A, B driven by the first stick and stable draw
    alpha = 1.5
    n = 50_000
    g = rng(12)
    coords, _ = draw_limit_stable(alpha, 2 * n, g)
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
    c, _ = draw_limit_stable(0.5, 300, rng(13))
    assert c.shape == (300, 4)
    assert c[:, 0] == pytest.approx(2 * c[:, 1] - c[:, 2], rel=1e-9, abs=1e-12)
    assert (c[:, 1] >= 0.0).all()
    assert ((0.0 <= c[:, 3]) & (c[:, 3] <= 1.0)).all()
    assert (c[:, 1] >= c[:, 2]).all()             # sup >= final


def test_heavy_limit_one_sided_positive():
    c, _ = draw_limit_stable(0.5, 100, rng(14), beta=1.0)
    # spectrally positive, index < 1: increasing process, no negative part,
    # so the length series, the supremum and the endpoint coincide
    assert (c[:, 0] == c[:, 1]).all() and (c[:, 1] == c[:, 2]).all()


def test_heavy_limit_refinement_stays_within_reported_bound():
    for fine in (5e-5, 1e-12):
        for i in range(300):
            a, bound = draw_limit_stable(0.5, 1, rng(300 + i), eps=1e-4)
            b, _ = draw_limit_stable(0.5, 1, rng(300 + i), eps=fine)
            assert np.abs(a - b).max() <= bound[0]
        for seed in range(10):
            a, bound = draw_limit_stable(0.5, 64, rng(seed), eps=1e-4)
            b, _ = draw_limit_stable(0.5, 64, rng(seed), eps=fine)
            assert (np.abs(a - b).max(axis=1) <= bound).all()
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# drift limit
# ---------------------------------------------------------------------------

def test_drift_limit_case_a_rank_one():
    mu = 1.0
    coef = mu / math.sqrt(2.0)
    c = draw_limit_drift(2.0, mu, 200, rng(15))
    assert c.shape == (200, 2)
    assert (c[:, 0] == coef * c[:, 1]).all()


def test_drift_limit_case_a_alpha2_gaussian():
    c = draw_limit_drift(2.0, 1.0, 40_000, rng(21))
    res = sps.kstest(c[:, 1], sps.norm(scale=math.sqrt(2.0)).cdf)
    assert res.pvalue > 0.01


def test_stable_limit_validation():
    g = rng(19)
    # the stable limit: index in (0, 1) or (1, 2); the normalizer of the
    # same two regimes refuses a positive mean and a finite variance
    for alpha in (0.0, 1.0, 2.0):
        with pytest.raises(ParameterError):
            draw_limit_stable(alpha, 1, g)
    for model in (StableProcess(1.5, mu=1.0), BrownianDrift(1.0)):
        with pytest.raises(RegimeError):
            normalize_stable(model, sample_quintuple(model, 100.0, g))


def test_drift_limit_case_sign_validation():
    g = rng(19)
    # the drift limit takes a positive mean alone
    for mu in (0.0, -0.0, math.nan, -1.0):
        with pytest.raises(ParameterError):
            draw_limit_drift(1.5, mu, 1, g)
    with pytest.raises(ParameterError):
        draw_limit_drift(0.5, 1.0, 1, g)
    assert draw_limit_drift(1.5, 1.0, 1, g).shape == (1, 2)
