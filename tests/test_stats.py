import math

import numpy as np
import pytest
from scipy import stats as sps

from levyhull.errors import ParameterError, SampleSizeError
from levyhull.stats import (
    kolmogorov_pvalue,
    ks_distance_to_cdf,
    ks_two_sample,
    tail_slope,
    variance_se,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def test_identical_samples():
    x = rng(1).standard_normal(100)
    res = ks_two_sample(x, x)
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_disjoint_supports():
    g = rng(2)
    x = g.random(10_000)
    y = g.random(10_000) + 1.0
    res = ks_two_sample(x, y)
    assert res.statistic == 1.0
    assert res.p_value < 1e-12


def test_calibration_under_the_null():
    g = rng(3)
    rejected = 0
    for _ in range(200):
        x = g.standard_normal(10_000)
        y = g.standard_normal(10_000)
        if ks_two_sample(x, y).p_value < 0.05:
            rejected += 1
    assert 0.02 * 200 <= rejected <= 0.08 * 200


def test_agrees_with_reference_implementation():
    # D against scipy's merged-scan statistic; the p-value against the
    # library Kolmogorov survival function at the plain (uncorrected)
    # normalization, which is the contract here
    g = rng(4)
    for n, m in ((100, 150), (1000, 1000), (5000, 2000)):
        x = g.standard_normal(n)
        y = 0.2 + 1.1 * g.standard_normal(m)
        mine = ks_two_sample(x, y)
        ref = sps.ks_2samp(x, y, method="asymp")
        assert mine.statistic == pytest.approx(ref.statistic, abs=1e-12)
        lam = mine.statistic * math.sqrt(n * m / (n + m))
        assert mine.p_value == pytest.approx(float(sps.kstwobign.sf(lam)), rel=1e-9, abs=1e-15)
    # ties: rounded values, points shared by both samples, unequal sizes
    for n, m, digits in ((100, 150, 1), (1000, 400, 2), (3000, 3000, 0)):
        x = np.round(g.standard_normal(n), digits)
        y = np.round(0.1 + g.standard_normal(m), digits)
        y[: m // 4] = x[: m // 4]
        mine = ks_two_sample(x, y)
        ref = sps.ks_2samp(x, y, method="asymp")
        assert mine.statistic == pytest.approx(ref.statistic, abs=1e-12)


def test_two_sample_holds_no_merged_grid():
    # 1e5 + 1e5 points: the sorted samples are 1.6 MB; a merged grid of
    # both with its two ECDF columns peaked at 9.6 MB
    import tracemalloc

    g = rng(7)
    x, y = g.standard_normal(100_000), g.standard_normal(100_000)
    ks_two_sample(x, y)   # first-call allocations
    tracemalloc.start()
    try:
        ks_two_sample(x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6e6, peak


def test_symmetry_and_monotone_invariance():
    g = rng(5)
    x = g.standard_normal(500)
    y = g.standard_normal(600) * 1.3
    a = ks_two_sample(x, y)
    b = ks_two_sample(y, x)
    assert a.statistic == b.statistic and a.p_value == b.p_value
    c = ks_two_sample(np.exp(x), np.exp(y))
    assert c.statistic == a.statistic
    assert c.p_value == a.p_value


def test_undersized_samples_rejected():
    g = rng(6)
    with pytest.raises(SampleSizeError):
        ks_two_sample(g.random(34), g.random(100))


def test_kolmogorov_pvalue_endpoints():
    assert kolmogorov_pvalue(0.0) == 1.0
    assert kolmogorov_pvalue(10.0) < 1e-12
    # around the median of the Kolmogorov law
    assert 0.2 < kolmogorov_pvalue(1.0) < 0.3


def test_kolmogorov_pvalue_of_nan_is_nan():
    # the series loop would otherwise run to its 100,000-term cap and give 0
    assert math.isnan(kolmogorov_pvalue(math.nan))


def test_ks_two_sample_rejects_nan():
    x = rng(11).standard_normal(101)
    y = rng(12).standard_normal(101)
    bad = x.copy()
    bad[[3, 50]] = np.nan
    with pytest.raises(ParameterError, match="2 NaN"):
        ks_two_sample(bad, y)
    with pytest.raises(ParameterError, match="2 NaN"):
        ks_two_sample(y, bad)
    # the ECDF of an infinite value is well defined
    # and only the order of the points enters the statistic
    inf = x.copy()
    inf[[0, 1]] = [np.inf, -np.inf]
    big = x.copy()
    big[[0, 1]] = [1e300, -1e300]
    assert ks_two_sample(inf, y) == ks_two_sample(big, y)


def test_ks_distance_to_cdf_rejects_nan():
    x = np.linspace(0.005, 0.995, 101)
    x[7] = np.nan
    with pytest.raises(ParameterError, match="1 NaN"):
        ks_distance_to_cdf(x, lambda v: v)
    x[7] = np.inf
    assert ks_distance_to_cdf(x, lambda v: np.clip(v, 0.0, 1.0)) < 0.02


def test_ks_distance_to_cdf():
    x = np.linspace(0.005, 0.995, 100)
    d = ks_distance_to_cdf(x, lambda v: v)
    assert d <= 0.01 + 1e-12
    d2 = ks_distance_to_cdf(rng(7).standard_normal(50_000), sps.norm().cdf)
    assert d2 < 0.01


def test_variance_se():
    x = rng(10).standard_normal(100_000)
    s2, se = variance_se(x)
    assert abs(s2 - 1.0) <= 3.0 * se
    assert se == pytest.approx(math.sqrt(2.0 / x.size), rel=0.1)


def test_tail_slope_pareto_oracle():
    g = rng(11)
    a = 0.75
    x = g.random(1_000_000) ** (-1.0 / a)
    fit = tail_slope(x)
    assert abs(fit.slope + a) < 0.05
    assert fit.n_points >= 50
    assert 0.005 < fit.slope_se < 0.02   # 0.0107 at k = 9901


def test_tail_slope_se_matches_the_spread_over_seeds():
    # neighbouring order statistics are dependent: the OLS error of the
    # fit understated this spread about 30-fold at k = 991
    a = 0.75
    fits = [tail_slope(rng(100 + s).random(100_000) ** (-1.0 / a)) for s in range(20)]
    sd = np.std([f.slope for f in fits], ddof=1)
    se = np.mean([f.slope_se for f in fits])
    assert sd / 1.5 < se < 1.5 * sd, (sd, se)


def test_tail_slope_exponential_diverges():
    g = rng(12)
    x = g.exponential(1.0, 1_000_000)
    fit = tail_slope(x, q_lo=0.999, q_hi=0.9999)
    assert abs(fit.slope) > 2.0


def test_tail_slope_scaling_invariance():
    g = rng(13)
    x = g.random(100_000) ** (-1.0 / 1.5)
    f1 = tail_slope(x)
    f2 = tail_slope(100.0 * x)
    assert abs(f1.slope - f2.slope) < 1e-9


def test_tail_slope_window_errors():
    g = rng(14)
    with pytest.raises(SampleSizeError):
        tail_slope(g.random(1000))  # default window holds < 50 points
    with pytest.raises(SampleSizeError):
        tail_slope(g.random(100_000), q_lo=0.9, q_hi=0.5)
    # a window of one value leaves log x no spread: the slope would be 0 / 0
    for x in (np.ones(10_000), np.concatenate([g.random(9_000), np.full(1_000, 5.0)])):
        with pytest.raises(SampleSizeError, match=r"tail window \[0.99, 0.9999\] holds 100 points of one value"):
            tail_slope(x)


def test_tail_slope_window_matches_a_full_rank_mask():
    # the rank-bound window selects what a mask over every order statistic
    # selects, so the fit keeps its bits; so does a fit given only the
    # largest order statistics and the sample size n, in any order
    def masked(samples, q_lo, q_hi):
        x = np.sort(samples)
        n = x.size
        ranks = np.arange(1, n + 1)
        sf = (n - ranks) / n
        sel = (ranks / n >= q_lo) & (ranks / n <= q_hi) & (sf > 0.0) & (x > 0.0)
        lx, ly = np.log(x[sel]), np.log(sf[sel])
        mx = lx.mean()
        sxx = ((lx - mx) ** 2).sum()
        slope = ((lx - mx) * ly).sum() / sxx
        intercept = ly.mean() - slope * mx
        return slope, intercept, abs(slope) * math.sqrt(2.0 / lx.size), lx.size

    g = rng(15)
    for n, q_lo, q_hi in [(100_000, 0.99, 0.9999), (1000, 0.5, 0.99), (12_345, 0.3, 0.7),
                          (4_000, 0.01, 0.99), (777, 1 / 3, 2 / 3), (1000, 0.9, 0.99999)]:
        x = g.standard_normal(n) * g.random(n) ** -1.2   # a mixed-sign sample
        reference = masked(x, q_lo, q_hi)
        fit = tail_slope(x, q_lo, q_hi)
        assert (fit.slope, fit.intercept, fit.slope_se, fit.n_points) == reference
        ranks = np.arange(1, n)
        need = n - ranks[ranks / n >= q_lo][0] + 1   # the ranks from the window's lowest to n
        wider = max(n - need - 100, 0)
        for upper in (g.permutation(np.sort(x)[n - need :]), np.partition(x, wider)[wider:]):
            fit = tail_slope(upper, q_lo, q_hi, n=n)
            assert (fit.slope, fit.intercept, fit.slope_se, fit.n_points) == reference
        with pytest.raises(SampleSizeError, match=f"needs their {need} largest values, got {need - 1}"):
            tail_slope(np.sort(x)[n - need + 1 :], q_lo, q_hi, n=n)
        with pytest.raises(ParameterError, match=f"n = {n - 1} cannot hold {n} values"):
            tail_slope(x, q_lo, q_hi, n=n - 1)
