import math

import numpy as np
import pytest
from scipy import stats as sps

from levyhull.errors import ParameterError, RegimeError
from levyhull.limitlaws import (
    CHAIN_TOL,
    FOLD_WEIGHT,
    MIN_ROWS,
    _POWERS,
    _quadratic,
    _series,
    _signed,
    draw_limit_drift,
    draw_limit_finite_variance,
    draw_limit_quadratic,
    draw_limit_stable,
)
from levyhull.models import BrownianDrift, StableProcess, _cms_transform, stable_standard
from levyhull.sbrep import normalize_stable, sample_quintuple
from levyhull.stats import ks_distance_to_cdf, ks_two_sample, kolmogorov_pvalue, tail_slope
from levyhull.sticks import ROWS, stick_blocks, stick_matrix


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# finite-variance quintuple limit
# ---------------------------------------------------------------------------

def test_finite_variance_limit_per_draw_ordering():
    c = draw_limit_finite_variance(1.3, 300, rng(1))
    assert c.shape == (300, 5)
    assert (c[:, 2] >= np.maximum(0.0, c[:, 3])).all()   # sup >= final+
    assert ((0.0 <= c[:, 4]) & (c[:, 4] <= 1.0)).all()


def test_finite_variance_limit_sup_is_half_normal():
    coords = draw_limit_finite_variance(1.0, 100_000, rng(2))
    ref = np.abs(rng(3).standard_normal(100_000))
    res = sps.ks_2samp(coords[:, 2], ref)
    assert res.pvalue > 0.01


def test_finite_variance_limit_argmax_is_arcsine():
    coords = draw_limit_finite_variance(1.0, 100_000, rng(4))
    ref = np.sin(0.5 * math.pi * rng(5).random(100_000)) ** 2
    res = sps.ks_2samp(coords[:, 4], ref)
    assert res.pvalue > 0.01


def test_finite_variance_limit_endpoint_is_exactly_normal():
    # the Gaussian remainder fold-in makes the endpoint coordinate exact
    sigma = 0.8
    coords = draw_limit_finite_variance(sigma, 100_000, rng(6))
    ref = sigma * rng(7).standard_normal(100_000)
    res = sps.ks_2samp(coords[:, 3], ref)
    assert res.pvalue > 0.01


def _gaussian_remainders(a, g, eps):
    """Each row's remainder ``L`` in ``a = draw_limit_finite_variance(1, n,
    g, eps)``: the signed series at index 2 after the two normal columns, on
    the same stream."""
    n = len(a)
    g.standard_normal(n)
    g.standard_normal(n)
    (pos, *_), rem = _series(2.0, 0.0, n, eps, g, _signed)
    assert np.array_equal(1.0 / math.sqrt(2.0) * pos, a[:, 2])   # the sampler's own rows
    return rem


def _stable_remainders(alpha, a, g, eps):
    """Each row's remainder ``L`` in ``a = draw_limit_stable(alpha, n, g,
    eps)``: the series of the sampler's own summands, on the same stream."""
    terms = (_quadratic, _signed) if alpha > 1.0 else (_signed,)
    sums, rem = _series(alpha, 0.0, len(a), eps, g, *terms)
    assert np.array_equal(sums[-4], a[:, 1])   # the positive part: the sampler's own rows
    return rem


def test_finite_variance_limit_refinement_stays_within_reported_bound():
    # records grow in blocks of sticks and a batch is as wide as its slowest
    # row, so halving eps extends few records; eps = 1e-12 extends nearly
    # all.  Each coarse row moves by at most 8 sqrt(L); the largest measured
    # share of that figure is 0.74
    for fine in (5e-5, 1e-12):
        for i in range(300):
            a = draw_limit_finite_variance(1.0, 1, rng(100 + i), eps=1e-4)
            b = draw_limit_finite_variance(1.0, 1, rng(100 + i), eps=fine)
            bound = 8.0 * np.sqrt(_gaussian_remainders(a, rng(100 + i), 1e-4))
            assert a[0, 0] == b[0, 0] and a[0, 1] == b[0, 1]
            assert np.abs(a[0, 2:] - b[0, 2:]).max() <= bound[0]
        for seed in range(10):
            a = draw_limit_finite_variance(1.0, 64, rng(seed), eps=1e-4)
            b = draw_limit_finite_variance(1.0, 64, rng(seed), eps=fine)
            bound = 8.0 * np.sqrt(_gaussian_remainders(a, rng(seed), 1e-4))
            assert (a[:, :2] == b[:, :2]).all()
            assert (np.abs(a[:, 2:] - b[:, 2:]).max(axis=1) <= bound).all()
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# zero-mean stable limit
# ---------------------------------------------------------------------------

def test_stable_limit_per_draw_ordering():
    c = draw_limit_stable(1.5, 300, rng(8))
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
    coords = draw_limit_stable(1.5, n, rng(910))
    for k in (1, 2, 3):
        res = sps.ks_2samp(finite[:, k], coords[:, k])
        assert res.pvalue > 0.01, k


def test_stable_limit_refinement_stays_within_reported_bound():
    # each coarse row moves by at most 1e5 L^(2/alpha - 1); the largest
    # measured share of that figure is 0.081
    for fine in (5e-5, 1e-12):
        for i in range(300):
            a = draw_limit_stable(1.5, 1, rng(200 + i), eps=1e-4)
            b = draw_limit_stable(1.5, 1, rng(200 + i), eps=fine)
            bound = 1e5 * _stable_remainders(1.5, a, rng(200 + i), 1e-4) ** (2.0 / 1.5 - 1.0)
            assert np.abs(a - b).max() <= bound[0]
        for seed in range(10):
            a = draw_limit_stable(1.5, 64, rng(seed), eps=1e-4)
            b = draw_limit_stable(1.5, 64, rng(seed), eps=fine)
            bound = 1e5 * _stable_remainders(1.5, a, rng(seed), 1e-4) ** (2.0 / 1.5 - 1.0)
            assert (np.abs(a - b).max(axis=1) <= bound).all()
    assert not np.array_equal(a, b)


def test_quadratic_series_alone_is_column_zero_bit_for_bit():
    # batch sizes below and above the row slice of the stick loop
    for n in (1, 300, ROWS + 17):
        for seed in (0, 1, 2):
            for alpha, beta in ((1.5, 0.0), (1.2, 0.5)):
                coords = draw_limit_stable(alpha, n, rng(seed), beta=beta)
                q = draw_limit_quadratic(alpha, n, rng(seed), beta=beta)
                assert np.array_equal(q, coords[:, 0])


def _own_stick_sums(n, eps, cut, g, draw, terms):
    """Reference for the sums over each row's own sticks: every block of
    stick_blocks cut at eps, kept, with its variables drawn after it a
    column at a time, and each row adding its summands left to right over
    the sticks taken while its remainder before them is at least cut."""
    blocks, xs = [], []
    for block, _ in stick_blocks(n, 1.0, eps, g):
        blocks.append(block.copy())   # the next block overwrites this view
        xs.extend(draw(n) for _ in block.T)
    total, left = 0.0, np.ones(n)
    for ell, x in zip(np.hstack(blocks).T, xs):
        need = left >= cut
        total = total + np.where(need, np.array(terms(ell, x)), 0.0)
        left = np.where(need, left - ell, left)
    return total, left


def _chained_series(n, eps, g, draw, terms, powers):
    """Reference for the series on the stream ``g``: each row's own
    sums, down to the remainder whose smallest power is below FOLD_WEIGHT,
    plus, for each summand, the sums of the rows after it, cyclically, each
    weighted by the product of the remainder powers of the rows before it,
    until that weight is below CHAIN_TOL in every row; on at least MIN_ROWS
    rows."""
    rows = max(n, MIN_ROWS)
    cut = min(eps, FOLD_WEIGHT ** (1.0 / min(powers)))
    own, rem = _own_stick_sums(rows, eps, cut, g, draw, terms)
    out, r = own.copy(), np.arange(rows)
    for k, w in enumerate(powers):
        weight = rem**w
        for j in range(1, rows):
            out[k] += weight * own[k, (r + j) % rows]
            weight = weight * rem[(r + j) % rows] ** w
            if weight.max() < CHAIN_TOL:
                break
    return out[:, :n], rem[:n]


def _series_cases(g):
    """(index, summands, one-column reference draw, reference terms, powers)
    of the signed series at index 2, the quadratic and signed series at
    index 1.5 and the signed series at index 0.7; the reference draws from
    ``g``."""
    def stable(alpha, *fs):
        def terms(ell, s):
            return [y for f in fs for y in f(ell, s, alpha)]

        return (
            alpha, fs, lambda shape: stable_standard(alpha, 0.3, g, shape),
            terms, [w for f in fs for w in _POWERS[f](alpha)],
        )

    return stable(2.0, _signed), stable(1.5, _quadratic, _signed), stable(0.7, _signed)


@pytest.mark.parametrize("n", [1, 2, 19, 5000])
def test_series_sums_each_row_over_its_own_sticks_plus_a_chained_copy(n):
    for case in range(3):
        g, h = rng(case), rng(case)
        alpha, summands, _, _, powers = _series_cases(g)[case]
        sums, rem = _series(alpha, 0.3, n, 1e-6, g, *summands)
        # the series draws the whole batch from its caller's generator
        _, _, ref_draw, ref_terms, _ = _series_cases(h)[case]
        ref, ref_rem = _chained_series(n, 1e-6, h, ref_draw, ref_terms, powers)
        assert np.array_equal(sums, ref)
        assert np.array_equal(rem, ref_rem)
        assert (rem < 1e-6).all()
        assert g.bit_generator.state == h.bit_generator.state   # and nothing more


@pytest.mark.parametrize("draw", [
    lambda g: draw_limit_finite_variance(1.3, 40, g),
    lambda g: draw_limit_stable(1.5, 40, g, beta=0.4),
    lambda g: draw_limit_stable(0.7, 40, g),
    lambda g: draw_limit_quadratic(1.5, 40, g),
    lambda g: draw_limit_drift(1.5, 0.8, 40, g),
])
def test_limit_samplers_draw_from_the_generator_they_are_given_alone(draw):
    # two copies of one generator give the same draws and end in the same
    # state, whatever numpy's global state holds in between
    g, h = rng(9), rng(9)
    np.random.seed(1)
    a = draw(g)
    np.random.seed(2)
    b = draw(h)
    assert np.array_equal(a, b)
    assert g.bit_generator.state == h.bit_generator.state


def test_finite_variance_limit_is_two_normals_then_the_index_2_series_on_one_stream():
    g, h = rng(12), rng(12)
    c = draw_limit_finite_variance(1.3, 25, g)
    z1, z2 = h.standard_normal(25), h.standard_normal(25)
    _, _, draw, terms, powers = _series_cases(h)[0]
    (pos, neg, pos_len, tot), _ = _chained_series(25, 1e-6, h, draw, terms, powers)
    scale = 1.3 / math.sqrt(2.0)
    ref = np.column_stack([1.3**2 / math.sqrt(2.0) * z1, z2, scale * pos, scale * (pos - neg), pos_len / tot])
    assert np.array_equal(c, ref)
    assert g.bit_generator.state == h.bit_generator.state


def test_series_transforms_only_the_sticks_the_rows_need(monkeypatch):
    import levyhull.limitlaws as ll

    n, eps = 3000, 1e-6
    runs, transformed = [], []

    def recording_sticks(n_rows, T, cutoff, g):
        blocks = []
        for block, L in stick_blocks(n_rows, T, cutoff, g):
            blocks.append(block.copy())   # the next block overwrites this view
            yield block, L
        runs.append(np.hstack(blocks))

    def counting_transform(alpha, beta, u, e):
        transformed.append(u.size)
        return _cms_transform(alpha, beta, u, e)

    monkeypatch.setattr(ll, "stick_blocks", recording_sticks)
    monkeypatch.setattr(ll, "_cms_transform", counting_transform)
    draw_limit_quadratic(1.5, n, rng(5), eps)
    (t,) = runs   # one run of sticks, and nothing drawn after it
    needed, left = 0, np.ones(n)
    for ell in t.T:   # sticks until the tail weighs below FOLD_WEIGHT: L^(1/3)
        needed += np.count_nonzero(left >= FOLD_WEIGHT**3)
        left -= ell
    assert sum(transformed) == needed
    assert needed < 0.8 * t.size   # 21.8 sticks per row of a 32-column record


def test_series_batch_holds_one_block_of_sticks_not_the_record():
    # a 5e4-row batch holds a block of sticks, 6.4 MB, and a column of
    # driving variables, 0.4 MB; a whole block of driving variables as well
    # peaked at 15.9-17.5 MB, and keeping the whole record at 28.7 MB.  The
    # finite-variance sampler runs the same series at index 2
    import tracemalloc

    for draw, first in ((draw_limit_quadratic, 1.5), (draw_limit_stable, 1.5),
                        (draw_limit_finite_variance, 1.0)):
        draw(first, 50_000, rng(50))   # first-call allocations
        tracemalloc.start()
        try:
            draw(first, 50_000, rng(51))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 13e6, (draw.__name__, peak)


def test_neighbouring_quadratic_draws_are_nearly_uncorrelated():
    # the chained copy makes the rows of a batch dependent; running each
    # row on until its tail weighs below FOLD_WEIGHT brings the rank
    # correlation of neighbours to about 0.01 (0.05 when stopping at eps)
    rhos = []
    for seed in range(60, 64):
        q = draw_limit_quadratic(1.5, 50_000, rng(seed), eps=1e-6)
        rhos.append(sps.spearmanr(q[:-1], q[1:]).statistic)
    assert np.mean(rhos) < 0.02, rhos


def test_masked_quadratic_series_matches_a_finely_padded_reference():
    # the padded reference sums every stick of a record cut at 1e-10, so
    # its one-stick remainder weighs at most (1e-10)^(1/3) of the series;
    # the masked series at 1e-6 must match it
    alpha, n, chunk = 1.5, 100_000, 25_000
    g = rng(31)
    ref = []
    for _ in range(n // chunk):
        t, rem = stick_matrix(chunk, 1.0, 1e-10, g)
        s = stable_standard(alpha, 0.0, g, t.shape)
        s_rem = stable_standard(alpha, 0.0, g, chunk)
        p = 2.0 / alpha - 1.0
        ref.append(0.5 * ((t**p * s * s).sum(axis=1) + rem**p * s_rem * s_rem))
    q = draw_limit_quadratic(alpha, n, rng(32), eps=1e-6)
    res = ks_two_sample(q, np.concatenate(ref))
    assert res.p_value > 0.01, res


@pytest.mark.parametrize("alpha", [1.5, 0.5])
def test_symmetric_stable_argmax_share_is_arcsine(alpha):
    # at beta = 0 the share of the positive sticks, pos_len / total with
    # the chained copy folded in as L * share', is exactly arcsine distributed
    coords = draw_limit_stable(alpha, 20_000, rng(40))
    d = ks_distance_to_cdf(coords[:, 3], lambda x: 2.0 / math.pi * np.arcsin(np.sqrt(x)))
    p = kolmogorov_pvalue(d * math.sqrt(len(coords)))
    assert p > 0.01, (d, p)


def test_stable_limit_tail_exponent():
    coords = draw_limit_stable(1.5, 200_000, rng(11))
    fit = tail_slope(coords[:, 0])
    assert abs(fit.slope + 0.75) < 0.1


def test_stable_limit_perpetuity_identity():
    # Q =d A Q' + B with A, B driven by the first stick and stable draw
    alpha = 1.5
    n = 50_000
    g = rng(12)
    coords = draw_limit_stable(alpha, 2 * n, g)
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
    c = draw_limit_stable(0.5, 300, rng(13))
    assert c.shape == (300, 4)
    assert c[:, 0] == pytest.approx(2 * c[:, 1] - c[:, 2], rel=1e-9, abs=1e-12)
    assert (c[:, 1] >= 0.0).all()
    assert ((0.0 <= c[:, 3]) & (c[:, 3] <= 1.0)).all()
    assert (c[:, 1] >= c[:, 2]).all()             # sup >= final


def test_heavy_limit_one_sided_positive():
    c = draw_limit_stable(0.5, 100, rng(14), beta=1.0)
    # spectrally positive, index < 1: increasing process, no negative part,
    # so the length series, the supremum and the endpoint coincide
    assert (c[:, 0] == c[:, 1]).all() and (c[:, 1] == c[:, 2]).all()


def test_heavy_limit_refinement_stays_within_reported_bound():
    # each coarse row moves by at most 1e9 L^(1/alpha), plus L for the
    # argmax share and 1e-12 for rounding; the largest measured share of
    # that figure is 0.11
    for fine in (5e-5, 1e-12):
        for i in range(300):
            a = draw_limit_stable(0.5, 1, rng(300 + i), eps=1e-4)
            b = draw_limit_stable(0.5, 1, rng(300 + i), eps=fine)
            rem = _stable_remainders(0.5, a, rng(300 + i), 1e-4)
            assert np.abs(a - b).max() <= (1e9 * rem**2.0 + rem + 1e-12)[0]
        for seed in range(10):
            a = draw_limit_stable(0.5, 64, rng(seed), eps=1e-4)
            b = draw_limit_stable(0.5, 64, rng(seed), eps=fine)
            rem = _stable_remainders(0.5, a, rng(seed), 1e-4)
            assert (np.abs(a - b).max(axis=1) <= 1e9 * rem**2.0 + rem + 1e-12).all()
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


def test_drift_limit_is_one_unit_scale_stable_draw_at_the_skewness():
    # the normalizer divides by the model's scale, so the limit is the
    # standard draw itself, at the model's skewness
    for alpha, beta in ((1.5, 0.6), (1.8, -1.0), (2.0, 0.0)):
        g, g2 = rng(23), rng(23)
        c = draw_limit_drift(alpha, 0.7, 3000, g, beta=beta)
        assert np.array_equal(c[:, 1], stable_standard(alpha, beta, g2, 3000))


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


@pytest.mark.parametrize(
    "draw",
    [
        lambda n, g: draw_limit_finite_variance(1.0, n, g),
        lambda n, g: draw_limit_stable(1.5, n, g),
        lambda n, g: draw_limit_quadratic(1.5, n, g),
        lambda n, g: draw_limit_drift(1.5, 1.0, n, g),
    ],
    ids=["finite_variance", "stable", "quadratic", "drift"],
)
def test_samplers_refuse_a_negative_batch_and_draw_an_empty_one(draw):
    # a negative batch once padded to MIN_ROWS rows and returned 11 draws
    with pytest.raises(ParameterError, match="batch size"):
        draw(-5, rng(40))
    assert draw(0, rng(40)).shape[0] == 0


# ---------------------------------------------------------------------------
# Kanter oracle: the exact supremum law of a spectrally negative stable process
# ---------------------------------------------------------------------------

KANTER_ALPHA = 1.5
KANTER_SEED = 1975


def _kanter_sup(alpha, n, g):
    """``n`` exact draws of the supremum on [0, 1] of the standard strictly
    stable process of index ``alpha`` in (1, 2) and beta = -1, by code that
    shares nothing with the samplers.  Its Laplace exponent is
    ``c theta^alpha`` with ``c = -1 / cos(pi alpha / 2)``, so the first
    passage over ``x`` is ``x^alpha V / c``, with ``V`` positive
    (1/alpha)-stable, ``E exp(-q V) = exp(-q^(1/alpha))``, and the supremum
    is ``(V / c)^(-1/alpha)`` (Bertoin 1996, ch. VII).  ``V`` is drawn by
    Kanter's (1975) formula ``(A(U) / E)^((1 - rho) / rho)`` at
    ``rho = 1/alpha``, with U uniform and E standard exponential."""
    rho, c = 1.0 / alpha, -1.0 / math.cos(math.pi * alpha / 2.0)
    u, e = g.random(n), g.standard_exponential(n)
    a = ((np.sin(rho * np.pi * u) / np.sin(np.pi * u)) ** (1.0 / (1.0 - rho))
         * np.sin((1.0 - rho) * np.pi * u) / np.sin(rho * np.pi * u))
    return ((a / e) ** ((1.0 - rho) / rho) / c) ** (-1.0 / alpha)


def _kanter_p(sup, seed):
    """Two-sample KS p-value of ``sup`` against 4e5 exact draws."""
    exact = _kanter_sup(KANTER_ALPHA, 400_000, np.random.default_rng([seed, 1]))
    return sps.ks_2samp(sup, exact, method="asymp").pvalue


# The sizes, seed and level were fixed before the final run.  Over seeds
# 1-20 at these sizes neither test gave a p below 0.001; the smallest were
# 0.013 (limit series) and 0.10 (finite sampler).  Planted in the CMS
# transform on a copy of the package, an S0-for-S1 shift or a flipped sign
# of beta gives p = 0 in both tests.

def test_stable_limit_supremum_matches_the_kanter_oracle():
    g = np.random.default_rng([KANTER_SEED, 0])
    sup = draw_limit_stable(KANTER_ALPHA, 40_000, g, beta=-1.0)[:, 1]
    p = _kanter_p(sup, KANTER_SEED)
    assert p > 1e-3, p


def test_finite_supremum_matches_the_kanter_oracle():
    from levyhull.experiments import draw_quintuples

    T = 1e4
    q = draw_quintuples(StableProcess(KANTER_ALPHA, beta=-1.0), T, 10_000, KANTER_SEED, "kanter", 1e-3)
    p = _kanter_p(q.sup / T ** (1.0 / KANTER_ALPHA), KANTER_SEED)
    assert p > 1e-3, p
