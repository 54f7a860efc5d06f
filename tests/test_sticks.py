import math

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sps

from levyhull.errors import ParameterError
from levyhull.experiments import _COMPENSATION_ROWS
from levyhull.sticks import (
    BLOCK,
    ROWS,
    _capacity,
    compensation_estimate,
    stick_matrix,
    tau_gset_counts,
)


class HalvingRng:
    """Scripted stream returning 1/2 forever."""

    def random(self, size=None):
        if size is None:
            return 0.5
        return np.full(size, 0.5)


class RecordingRng:
    """Stream that keeps every uniform block it hands out."""

    def __init__(self, seed):
        self.g = np.random.default_rng(seed)
        self.blocks = []

    def random(self, size=None):
        v = self.g.random(size)
        self.blocks.append(v)
        return v


class NoDrawRng:
    """Stream that fails any draw."""

    def random(self, size=None):
        raise AssertionError("drew before validating the horizon")


def rng(seed=0):
    return np.random.default_rng(seed)


def test_forced_halving_record():
    t, rem = stick_matrix(1, 8.0, 1.0, HalvingRng())
    assert t.shape == (1, BLOCK)       # whole blocks; the first already stops
    assert np.allclose(t[0, :4], [4.0, 2.0, 1.0, 0.5])
    assert rem[0] == 8.0 * 0.5**BLOCK
    tau_c, gset_c = tau_gset_counts(8.0, 1, HalvingRng())
    assert tau_c[0] == 3                # remainders >= 1 (scaled), incl. the tie
    assert gset_c[0] == 3               # sticks 4, 2 and 1


def test_unit_horizon_needs_one_stick():
    t, _ = stick_matrix(200, 1.0, 1.0, rng(1))
    assert (1.0 - t[:, 0] < 1.0).all()  # the first stick completes the record
    tau_c, gset_c = tau_gset_counts(1.0, 200, rng(1))
    assert (tau_c == 0).all() and (gset_c == 0).all()


def test_short_horizon_has_no_big_sticks():
    t, rem = stick_matrix(50, 0.5, 1.0, rng(2))
    assert (t < 1.0).all()
    assert np.allclose(t.sum(axis=1) + rem, 0.5, rtol=0.0, atol=1e-15)
    tau_c, gset_c = tau_gset_counts(0.5, 50, rng(2))
    assert (tau_c == 0).all() and (gset_c == 0).all()


def test_recursion_identities_every_draw():
    g = RecordingRng(2)
    T = 40.0
    t, rem = stick_matrix(50, T, 1e-4, g)
    v = np.hstack(g.blocks)
    assert v.shape == t.shape
    L = np.ones(50)
    for j in range(t.shape[1]):
        ell = v[:, j] * L               # stick = uniform times the remainder before it
        assert (t[:, j] == T * ell).all()
        assert (L - ell < L).all()      # remainders strictly decrease
        L = L - ell
    assert (rem == T * L).all()
    # unit mass up to accumulated rounding
    for row, r in zip(t, rem):
        assert abs(math.fsum(row) + r - T) <= 1e-12 * T


def test_truncation_guards():
    with pytest.raises(ParameterError):
        stick_matrix(10, 4.0, 0.0, rng())
    # refused before any draw: with an infinite horizon T * L stays inf
    # until L underflows to 0, then NaN, never below the cutoff, and the
    # record would grow without end
    for T in (math.inf, math.nan):
        with pytest.raises(ParameterError, match="horizon"):
            stick_matrix(8, T, 1.0, NoDrawRng())
    for T in (0.0, -1.0):
        with pytest.raises(ParameterError):
            compensation_estimate(np.reciprocal, 1.0, T, 200, rng())
    with pytest.raises(ParameterError):
        compensation_estimate(np.reciprocal, 1.0, 4.0, 50, rng())


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
    # the counts reduce the record stick_matrix draws from the same stream
    T = math.exp(3)
    t, _ = stick_matrix(200, T, 1.0, rng(7))
    tau_c, gset_c = tau_gset_counts(T, 200, rng(7))
    big = t >= 1.0
    assert (gset_c == big.sum(axis=1)).all()
    assert (gset_c <= tau_c + 1).all()
    # big-stick indices (1-based) lie in {1, ..., tau + 1}
    last = np.where(big.any(axis=1), t.shape[1] - np.argmax(big[:, ::-1], axis=1), 0)
    assert (last <= tau_c + 1).all()


def test_counts_do_not_depend_on_the_chunk_split(monkeypatch):
    # chunked counts equal the counts of the same rows drawn chunk by chunk
    import levyhull.sticks as sticks

    monkeypatch.setattr(sticks, "CHUNK", 300)
    tau_c, gset_c = tau_gset_counts(math.exp(4), 1000, rng(16))
    g = rng(16)
    ref = [tau_gset_counts(math.exp(4), n, g) for n in (300, 300, 300, 100)]
    assert (tau_c == np.concatenate([r[0] for r in ref])).all()
    assert (gset_c == np.concatenate([r[1] for r in ref])).all()


def test_gset_clt_at_large_horizon():
    # lattice counts are dithered uniformly before the one-sample normal KS
    T = math.exp(50.0)
    reps = 10_000
    _, gset_c = tau_gset_counts(T, reps, rng(8))
    u = rng(9).random(reps)
    z = (gset_c + u - 0.5 - 50.0) / math.sqrt(50.0)
    d = sps.kstest(z, sps.norm().cdf)
    assert d.pvalue > 0.01


def test_compensation_targets():
    g = rng(10)
    cases = (
        ("identity", lambda t: t, 0.0, 5.0, 5.0),
        ("invsqrt", lambda t: t**-0.5, 1.0, 100.0, 1.8),
        ("inverse", lambda t: 1.0 / t, 1.0, math.e, 1.0 - math.exp(-1.0)),
        ("logover", lambda t: np.log(t) / t, 1.0, 20.0, 1.0 - (1.0 + math.log(20.0)) / 20.0),
        # indicator of [2, 20]: integral log(20/2)
        ("window", lambda t: ((t >= 2.0) & (t <= 20.0)).astype(float), 2.0, 50.0, math.log(10.0)),
    )
    for name, f, floor, T, target in cases:
        mean, se = compensation_estimate(f, floor, T, 30_000, g)
        assert abs(mean - target) <= max(3.0 * se, 1e-9), (name, mean, target, se)


def test_compensation_known_values():
    exact = {row[0]: row[-1] for row in _COMPENSATION_ROWS}
    assert exact["compensation_invsqrt"] == pytest.approx(1.8)
    assert exact["compensation_inverse"] == pytest.approx(1 - math.exp(-1))
    assert exact["power_sum_q1"] == pytest.approx(1 - 1e-6)


def test_compensation_table_closed_forms_match_quadrature():
    # each row of criterion 02 states the integral of f(t)/t over [floor, T]
    assert len(_COMPENSATION_ROWS) == 6
    for name, _, _, f, floor, T, exact in _COMPENSATION_ROWS:
        value, _ = integrate.quad(lambda t: f(t) / t, floor, T, epsabs=0.0, epsrel=1e-12, limit=200)
        assert exact == pytest.approx(value, rel=1e-9, abs=0.0), name


def test_identity_sum_is_exact_per_draw():
    g = rng(11)
    mean, se = compensation_estimate(lambda t: t, 0.0, 5.0, 200, g)
    assert abs(mean - 5.0) < 1e-12
    assert se < 1e-13


def test_big_stick_power_sums():
    g = rng(12)
    mean, se = compensation_estimate(lambda t: np.power(t, -1.0), 1.0, 1e6, 30_000, g)
    assert abs(mean - (1 - 1e-6)) <= 3.0 * se
    mean2, se2 = compensation_estimate(lambda t: np.power(t, -2.0), 1.0, 1e4, 30_000, g)
    assert abs(mean2 - 0.5 * (1 - 1e-8)) <= 3.0 * se2
    mean3, _ = compensation_estimate(lambda t: np.power(t, -1.0), 1.0, 1.0, 500, g)
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


def _assert_matches_a_per_column_loop(n_rows, T, cutoff):
    drawn = []
    t, rem = stick_matrix(n_rows, T, cutoff, rng(n_rows), drawn.append)
    cols, L = [], np.ones(n_rows)
    for v in rng(n_rows).random((t.shape[1] // BLOCK, n_rows, BLOCK)):
        for j in range(BLOCK):
            ell = v[:, j] * L
            cols.append(T * ell)
            L = L - ell
    assert np.array_equal(t, np.column_stack(cols))
    assert np.array_equal(rem, T * L)
    assert np.array_equal(np.hstack(drawn), t)


def test_row_sliced_loop_matches_a_per_column_loop():
    # row counts below, at and not a multiple of the row slice: slicing
    # keeps the stream order of the uniforms and each row's arithmetic
    for n_rows in (1, 7, ROWS, 2 * ROWS + 123):
        for T, cutoff in ((1.0, 1e-6), (37.5, 1e-2)):
            _assert_matches_a_per_column_loop(n_rows, T, cutoff)


def test_record_that_outgrows_its_capacity_keeps_every_bit(monkeypatch):
    # a one-block reservation doubles four times for some 200 columns
    import levyhull.sticks as sticks

    monkeypatch.setattr(sticks, "_capacity", lambda n_rows, T, cutoff: BLOCK)
    for n_rows in (1, 3, 5):
        _assert_matches_a_per_column_loop(n_rows, 1.0, 1e-80)
    t, _ = stick_matrix(3, 1.0, 1e-80, rng(3))
    assert t.shape[1] > 8 * BLOCK


def test_drive_blocks_are_views_of_the_returned_record():
    blocks = []
    t, _ = stick_matrix(300, 1.0, 1e-6, rng(17), blocks.append)
    assert len(blocks) == t.shape[1] // BLOCK > 1
    for b, block in enumerate(blocks):
        assert np.shares_memory(block, t)
        assert np.array_equal(block, t[:, b * BLOCK : (b + 1) * BLOCK])


def test_capacity_covers_the_stick_count_law():
    # a row needs 1 + Poisson(log(T / cutoff)) sticks
    assert _capacity(1, 0.5, 1.0) == BLOCK   # one stick suffices
    for n_rows, T, cutoff in ((50_000, 1.0, 1e-6), (20_000, math.exp(4), 1.0), (5, 1.0, 1e-80)):
        cap = _capacity(n_rows, T, cutoff)
        assert cap % BLOCK == 0
        lam = math.log(T / cutoff)
        assert n_rows * sps.poisson.sf(cap - 1, lam) <= 1e-6   # P(1 + N > cap)
        assert n_rows * sps.poisson.sf(cap - BLOCK - 1, lam) > 1e-6   # one block fewer falls short
