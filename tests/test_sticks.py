import math

import numpy as np
import pytest
from scipy import stats as sps

from levyhull.errors import ParameterError, TruncationError
from levyhull.sticks import (
    COMPENSATION_CATALOG,
    StickBreak,
    big_stick_power_sum,
    big_sticks,
    compensation_estimate,
    sample_sticks,
    stick_matrix,
    tau,
    tau_gset_counts,
)


class HalvingRng:
    """Scripted stream returning 1/2 forever."""

    def random(self, size=None):
        if size is None:
            return 0.5
        return np.full(size, 0.5)


def rng(seed=0):
    return np.random.default_rng(seed)


def test_forced_halving_record():
    sb = sample_sticks(8.0, 1.0, HalvingRng())
    assert sb.n_sticks == 4
    assert np.allclose(sb.lengths, [0.5, 0.25, 0.125, 0.0625])
    assert np.allclose(sb.remainders, [1.0, 0.5, 0.25, 0.125, 0.0625])
    assert 8.0 * sb.remainders[-1] == 0.5  # stop once below the cutoff
    assert tau(sb) == 3                    # remainders >= 1/8, incl. the tie
    assert list(big_sticks(sb)) == [1, 2, 3]


def test_unit_horizon_needs_one_stick():
    g = rng(1)
    for _ in range(200):
        sb = sample_sticks(1.0, 1.0, g)
        assert sb.n_sticks == 1
        assert tau(sb) == 0
        assert big_sticks(sb).size == 0


def test_short_horizon_has_no_big_sticks():
    sb = sample_sticks(0.5, 1.0, rng(2))
    assert sb.n_sticks == 0
    assert big_sticks(sb).size == 0
    assert tau(sb) == 0
    assert sb.scaled_remainder == 0.5


def test_recursion_identities_every_draw():
    g = rng(2)
    for _ in range(50):
        sb = sample_sticks(40.0, 1e-4, g)
        assert np.all(sb.lengths == sb.uniforms * sb.remainders[:-1])
        assert np.all(sb.remainders[1:] == sb.remainders[:-1] - sb.lengths)
        assert np.all(np.diff(sb.remainders) < 0.0)
        # unit mass up to accumulated rounding
        assert abs(math.fsum(sb.lengths) + sb.remainders[-1] - 1.0) <= 1e-12


def test_truncation_guards():
    with pytest.raises(ParameterError):
        sample_sticks(1.0, 1.5, rng())
    with pytest.raises(ParameterError):
        sample_sticks(0.0, 0.5, rng())
    sb = sample_sticks(4.0, 1.0, rng())
    forged = StickBreak(sb.uniforms, sb.lengths, sb.remainders, sb.horizon, 2.0)
    with pytest.raises(TruncationError):
        tau(forged)
    with pytest.raises(TruncationError):
        big_sticks(forged)


def test_stick_count_mean_matches_expected():
    # records stop at tau(T) + 1 sticks when cutoff = 1
    T = math.exp(5.0)
    tau_c, _ = tau_gset_counts(T, 100_000, rng(3))
    n_sticks = tau_c + 1
    se = n_sticks.std(ddof=1) / math.sqrt(n_sticks.size)
    assert abs(n_sticks.mean() - 6.0) <= 3.0 * se


def test_tau_poisson_moments():
    for T, seed in ((math.exp(2), 4), (math.exp(4), 5), (math.exp(6), 6)):
        lt = math.log(T)
        tau_c, gset_c = tau_gset_counts(T, 100_000, rng(seed))
        se_mean = tau_c.std(ddof=1) / math.sqrt(tau_c.size)
        assert abs(tau_c.mean() - lt) <= 3.0 * se_mean
        # variance of a Poisson count equals its mean
        x = tau_c.astype(float)
        s2 = x.var(ddof=1)
        m4 = ((x - x.mean()) ** 4).mean()
        se_var = math.sqrt((m4 - s2 * s2) / x.size)
        assert abs(s2 - lt) <= 3.0 * se_var
        # big-stick sets are nested in {1, ..., tau + 1}
        assert np.all(gset_c <= tau_c + 1)
        excess = tau_c + 1 - gset_c
        se_e = excess.std(ddof=1) / math.sqrt(excess.size)
        assert abs(excess.mean() - 1.0) <= 3.0 * se_e


def test_gset_subset_every_draw():
    g = rng(7)
    for _ in range(200):
        sb = sample_sticks(math.exp(3), 1.0, g)
        gs = big_sticks(sb)
        assert gs.size <= tau(sb) + 1
        if gs.size:
            assert gs.max() <= tau(sb) + 1


def test_gset_clt_at_large_horizon():
    # lattice counts are dithered uniformly before the one-sample normal KS
    T = math.exp(50.0)
    reps = 10_000
    _, gset_c = tau_gset_counts(T, reps, rng(8))
    u = rng(9).random(reps)
    z = (gset_c + u - 0.5 - 50.0) / math.sqrt(50.0)
    d = sps.kstest(z, sps.norm().cdf)
    assert d.pvalue > 0.01


def test_compensation_catalog_targets():
    g = rng(10)
    cases = (
        ("identity", 5.0),
        ("invsqrt", 100.0),
        ("inverse", math.e),
        ("logover", 20.0),
        ("window", 50.0),   # indicator form: integral log(20/2)
    )
    for name, T in cases:
        entry = COMPENSATION_CATALOG[name]
        mean, se = compensation_estimate(entry, T, 30_000, g)
        target = entry.integral(T)
        assert abs(mean - target) <= max(3.0 * se, 1e-9), (name, mean, target, se)
    assert COMPENSATION_CATALOG["window"].integral(50.0) == pytest.approx(math.log(10.0))


def test_compensation_known_values():
    assert COMPENSATION_CATALOG["invsqrt"].integral(100.0) == pytest.approx(1.8)
    assert COMPENSATION_CATALOG["inverse"].integral(math.e) == pytest.approx(1 - math.exp(-1))


def test_identity_sum_is_exact_per_draw():
    g = rng(11)
    mean, se = compensation_estimate("identity", 5.0, 200, g)
    assert abs(mean - 5.0) < 1e-12
    assert se < 1e-13


def test_big_stick_power_sums():
    g = rng(12)
    mean, se = big_stick_power_sum(1.0, 1e6, 30_000, g)
    assert abs(mean - (1 - 1e-6)) <= 3.0 * se
    mean2, se2 = big_stick_power_sum(2.0, 1e4, 30_000, g)
    assert abs(mean2 - 0.5 * (1 - 1e-8)) <= 3.0 * se2
    mean3, _ = big_stick_power_sum(1.0, 1.0, 500, g)
    assert mean3 == 0.0


def test_deterministic_compensator_shrinks():
    # (sum over big sticks of t^-1/2 minus its integral) / sqrt(log T)
    # has shrinking mean absolute value along a growing horizon
    g = rng(13)
    out = []
    for T in (math.exp(4), math.exp(8), math.exp(16)):
        t, _ = stick_matrix(20_000, T, 1.0, g)
        big = t >= 1.0
        vals = np.where(big, np.where(big, t, 1.0) ** -0.5, 0.0).sum(axis=1)
        target = 2.0 * (1.0 - T**-0.5)
        dev = np.abs(vals - target) / math.sqrt(math.log(T))
        out.append(dev.mean())
    assert out[0] > out[1] > out[2]


def test_stick_matrix_rows_complete():
    g = rng(14)
    t, rem = stick_matrix(500, 50.0, 1e-3, g)
    assert (rem < 1e-3).all()
    assert (t > 0.0).all()


def test_driven_record_extends_under_a_finer_cutoff():
    # blocks of uniforms and drive draws interleave, so a finer cutoff on the
    # same stream only appends columns to both
    def record(seed, cutoff):
        g = rng(seed)
        drawn = []
        t, _ = stick_matrix(20, 20.0, cutoff, g, lambda tb: drawn.append(g.standard_normal(tb.shape)))
        return t, np.hstack(drawn)

    extended = 0
    for seed in range(20):
        t1, x1 = record(seed, 1e-3)
        t2, x2 = record(seed, 1e-5)
        k = t1.shape[1]
        assert x1.shape == t1.shape and x2.shape == t2.shape and t2.shape[1] >= k
        assert (t2[:, :k] == t1).all()
        assert (x2[:, :k] == x1).all()
        extended += t2.shape[1] > k
    assert extended > 0
