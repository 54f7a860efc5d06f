import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats as sps

from levyhull import sbrep
from levyhull.errors import ParameterError, RegimeError, TruncationError
from levyhull.hull import QuintupleSample, reduce_faces, stack_quintuples
from levyhull.limitlaws import draw_limit_finite_variance
from levyhull.models import (
    BrownianDrift,
    CompoundPoissonDrift,
    Gaussian,
    LogCorrectedPareto,
    Pareto,
    PointMass,
    StableProcess,
    TwoPoint,
)
from levyhull.sbrep import (
    CHUNK,
    normalize_drift,
    normalize_finite_variance,
    normalize_stable,
    regime,
    sample_quintuple,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def draw_many(model, T, n, seed, cutoff=1e-3):
    g = rng(seed)
    return [sample_quintuple(model, T, g, cutoff=cutoff) for _ in range(n)]


def test_guards():
    g = rng(1)
    with pytest.raises(TruncationError):
        sample_quintuple(BrownianDrift(1.0), 10.0, g, cutoff=1.5)
    for T in (-1.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match="horizon"):
            sample_quintuple(BrownianDrift(1.0), T, g)
    for cutoff in (0.0, -1.0, math.nan):
        with pytest.raises(ParameterError, match="cutoff"):
            sample_quintuple(BrownianDrift(1.0), 10.0, g, cutoff=cutoff)


def test_brownian_marginals_match_limit_series():
    # for Brownian motion the scaled triple (sup, final, gamma) is exact in
    # law at every horizon, so it must match the series sampler at T = 7
    sigma, T, n = 0.9, 7.0, 8000
    qs = draw_many(BrownianDrift(sigma), T, n, seed=2)
    sup = np.array([q.sup for q in qs]) / math.sqrt(T)
    fin = np.array([q.final for q in qs]) / math.sqrt(T)
    gam = np.array([q.gamma for q in qs]) / T
    coords = draw_limit_finite_variance(sigma, n, rng(3))
    for finite, limit in ((sup, coords[:, 2]), (fin, coords[:, 3]), (gam, coords[:, 4])):
        res = sps.ks_2samp(finite, limit)
        assert res.pvalue > 0.01


def test_cp_exact_in_law_short_horizon():
    # the cross-validation identity at a short horizon; the long-horizon
    # version runs at acceptance scale
    from levyhull.config import config_from_mapping
    from levyhull.experiments import run

    rep = run(
        config_from_mapping(
            {
                "experiment": "verify-identity",
                "model": {
                    "kind": "cp",
                    "rate": 1,
                    "jump": {"kind": "gaussian", "mean": 0, "sd": 1},
                    "mu": 0.2,
                },
                "T_grid": [10],
                "reps": 3000,
                "cutoff": 1e-4,
                "seed": 310,
            }
        )
    )
    assert rep.passed, [r.statistic for r in rep.rows if not r.passed]


def test_all_positive_increments_pin_gamma_and_sup():
    model = CompoundPoissonDrift(1.0, PointMass(0.5), mu=0.1)
    for q in draw_many(model, 20.0, 200, seed=4):
        assert q.gamma == 20.0          # every face has positive height
        assert q.sup == q.final


@pytest.fixture
def record(monkeypatch):
    """What ``sample_quintuple`` draws, recorded through ``sbrep``'s own
    bindings: ``calls``, the ``(durations, increments)`` lists of each
    ``sample_increment`` call in order, and ``faces``, the ``(lengths,
    heights)`` lists that the last draw reduced."""
    rec = SimpleNamespace(calls=[], faces=None)
    inner_increment, inner_reduce = sbrep.sample_increment, sbrep.reduce_faces

    def sample_increment(model, t, rng):
        x = inner_increment(model, t, rng)
        rec.calls.append((list(t), x.tolist()))
        return x

    def reduce(lengths, heights, T):
        rec.faces = (list(lengths), list(heights))
        return inner_reduce(lengths, heights, T)

    monkeypatch.setattr(sbrep, "sample_increment", sample_increment)
    monkeypatch.setattr(sbrep, "reduce_faces", reduce)
    return rec


def test_final_value_conservation(record):
    model = CompoundPoissonDrift(1.0, Gaussian(0.0, 1.0), mu=0.2)
    g = rng(5)
    for _ in range(100):
        record.calls.clear()
        q = sample_quintuple(model, 15.0, g)
        sticks, xis = record.faces
        acc = 0.0
        for x in xis:
            acc += x
        assert q.final == acc
        assert math.fsum(sticks) == pytest.approx(15.0, abs=1e-9)
        # each call draws a chunk's sticks and the remainder after them;
        # the faces are the sticks up to the stop with their increments,
        # bit for bit, then the remainder at the stop, whose increment is
        # the sum of the last call's cells past the stop
        *full, (t_last, x_last) = record.calls
        assert all(len(t) == CHUNK + 1 for t, _ in record.calls)
        k = len(sticks) - 1 - CHUNK * len(full)
        assert 0 <= k <= CHUNK
        assert sticks[:-1] == [c for t, _ in full for c in t[:CHUNK]] + t_last[:k]
        assert xis[:-1] == [c for _, x in full for c in x[:CHUNK]] + x_last[:k]
        assert xis[-1] == sum(x_last[k:])
        assert sticks[-1] == pytest.approx(math.fsum(t_last[k:]), rel=1e-12)
        # a draw is the shape statistics of its own faces, bit for bit
        r = reduce_faces(sticks, xis, 15.0)
        assert all(np.array_equal(getattr(r, f), getattr(q, f)) for f in q._fields)
    # infinite variance, with (index 1.5) or without (index 0.5) a mean,
    # and index 2, which has infinite variance and no norming
    for a, seed in ((0.5, 8), (1.5, 8), (2.0, 9)):
        q = sample_quintuple(CompoundPoissonDrift(1.0, Pareto(a, 1.0)), 30.0, rng(seed))
        assert math.isfinite(q.final)


def _reference_quintuple(model, T, g, cutoff):
    """The stick walk as first written with chunks: the remainders after
    each stick kept in a list, the stop found by a scan over it and the
    last faces joined from slices.  The reference of the sampler's bits."""
    from levyhull.models import sample_increment as increment

    L = 1.0
    ts, xs = [], []
    while True:
        cells, rest = [], [T * L]
        for v in g.random(CHUNK).tolist():
            ell = v * L
            L -= ell
            cells.append(T * ell)
            rest.append(T * L)
        cells.append(rest[-1])
        incs = increment(model, np.array(cells), g).tolist()
        if rest[-1] < cutoff:
            break
        ts += cells[:CHUNK]
        xs += incs[:CHUNK]
    k = next(i for i, r in enumerate(rest) if r < cutoff)
    ts += cells[:k] + [rest[k]]
    xs += incs[:k] + [sum(incs[k:])]
    return reduce_faces(ts, xs, T)


class _Halves:
    """A generator whose uniforms are all one half, so the scaled
    remainder after n sticks is ``T 2^-n``; every other draw is ``g``'s."""

    def __init__(self, g):
        self.g = g

    def random(self, n):
        return np.full(n, 0.5)

    def __getattr__(self, name):
        return getattr(self.g, name)


def _same_draws(model, T, cutoff, n, make=rng):
    got, want = make(26), make(26)
    for _ in range(n):
        q = sample_quintuple(model, T, got, cutoff=cutoff)
        r = _reference_quintuple(model, T, want, cutoff)
        assert all(getattr(q, f) == getattr(r, f) for f in q._fields), (q, r)


@pytest.mark.parametrize("cutoff", [1e-3, 1e-8])
@pytest.mark.parametrize("T", [1e3, 1e7])
@pytest.mark.parametrize(
    "model",
    [
        *(BrownianDrift(sigma, mu=mu) for mu in (0.0, 0.3) for sigma in (1.0, 2.5)),
        StableProcess(1.5, beta=0.5),
        StableProcess(0.7),
        CompoundPoissonDrift(1.0, Gaussian(0.0, 1.0)),
        # a low rate keeps the jumps drawn one by one few at T = 1e7
        CompoundPoissonDrift(1e-3, Pareto(1.5, 1.0)),
    ],
    ids=["bm-0-1", "bm-0-2.5", "bm-0.3-1", "bm-0.3-2.5", "stable-1.5-0.5", "stable-0.7",
         "cp-gaussian", "cp-pareto"],
)
def test_sampler_equals_the_reference_walk(model, T, cutoff):
    # one stream, every field equal; cutoff 1e-8 takes two or more chunks
    _same_draws(model, T, cutoff, 200)


@pytest.mark.parametrize(
    "T, cutoff, stop",
    [
        (0.5, 0.9, 0),              # T below the cutoff: one face, the whole horizon
        (1.0, 0.6, 1),              # the first chunk's first stick
        (1.0, 2.0**-32.5, 33),      # the second chunk's first stick
        (1.0, 2.0**-31.5, 32),      # the first chunk's last stick
        (1.0, 2.0**-63.5, 64),      # the second chunk's last stick
    ],
)
def test_sampler_equals_the_reference_walk_at_a_chunk_edge(record, T, cutoff, stop):
    model = BrownianDrift(1.0, mu=0.3)
    _same_draws(model, T, cutoff, 20, make=lambda seed: _Halves(rng(seed)))
    assert len(record.faces[0]) == stop + 1
    _same_draws(model, T, cutoff, 20)


def test_h_prime_stable_under_cutoff_refinement(record):
    # same seed, smaller cutoff: the record extends, the big-face count
    # cannot change, and the aggregated statistics move on average by at
    # most twice the mean absolute increment over the coarse remainder s,
    # 2 (|mu| s + sqrt(var s))
    model = CompoundPoissonDrift(1.0, Gaussian(0.0, 1.0), mu=0.2)
    mean, var = model.mean_rate(), model.variance_rate()
    T = 50.0
    n = 400
    deltas = []
    bounds = []
    for i in range(n):
        a = sample_quintuple(model, T, rng(1000 + i), cutoff=1e-2)
        s = record.faces[0][-1]   # the last face of the draw is its remainder
        b = sample_quintuple(model, T, rng(1000 + i), cutoff=1e-5)
        assert a.h_prime == b.h_prime
        deltas.append(
            max(abs(a.upsilon - b.upsilon), abs(a.sup - b.sup), abs(a.gamma - b.gamma))
        )
        bounds.append(2.0 * (abs(mean) * s + math.sqrt(var * s)))
    assert np.mean(deltas) <= np.mean(bounds)


@pytest.mark.parametrize(
    "model, T",
    [
        (BrownianDrift(0.8, mu=0.3), 1e4),
        (StableProcess(1.5, beta=0.3), 1e4),
        (StableProcess(0.5), 100.0),
        (StableProcess(2.0), 1e3),
        (CompoundPoissonDrift(1.0, Gaussian(0.0, 1.0), mu=0.2), 50.0),
        (CompoundPoissonDrift(2.0, TwoPoint(0.4, 1.0, -0.5), mu=0.25), 50.0),
        (CompoundPoissonDrift(1.5, PointMass(0.5), mu=-0.1), 50.0),
        (CompoundPoissonDrift(1.0, Pareto(1.5, 1.0)), 50.0),
    ],
    ids=["brownian", "stable-1.5", "stable-0.5", "stable-2", "cp-gaussian", "cp-two-point",
         "cp-point-mass", "cp-pareto"],
)
def test_finer_cutoff_extends_the_same_record(record, model, T):
    # one stream at cutoffs c and c / 1000: the coarse faces before its
    # remainder are the first fine faces, bit for bit, the big-face count
    # is equal, and the coarse remainder is the fine faces past them
    c = 1e-2
    for seed in range(40):
        coarse = sample_quintuple(model, T, rng(seed), cutoff=c)
        ct, cx = record.faces
        fine = sample_quintuple(model, T, rng(seed), cutoff=c / 1000)
        ft, fx = record.faces
        k = len(ct) - 1
        assert ft[:k] == ct[:k] and fx[:k] == cx[:k]
        assert coarse.h_prime == fine.h_prime
        assert ct[k] == pytest.approx(math.fsum(ft[k:]), rel=1e-12)


def test_criterion03_cutoff_is_below_ks_resolution():
    # criterion 03's model and cutoff against a cutoff of 1e-10, each draw
    # on its own substream, so the finer draw extends the coarse record: the
    # big-face count does not move, and no coordinate's law moves by a tenth
    # of the KS resolution 1.63 sqrt(2/n) (measured: D = 1/n = 2.5e-4)
    from levyhull.rng import substream
    from levyhull.stats import ks_two_sample

    model = CompoundPoissonDrift(1.0, Gaussian(0.0, 1.0), mu=0.2)
    n = 4000

    def draw(cutoff):
        return stack_quintuples(
            sample_quintuple(model, 50.0, substream(103, "cutoff", i), cutoff=cutoff) for i in range(n)
        )

    coarse, fine = draw(1e-4), draw(1e-10)
    assert np.array_equal(coarse.h_prime, fine.h_prime)
    for name in ("upsilon", "final", "sup", "gamma"):
        d = ks_two_sample(getattr(coarse, name), getattr(fine, name)).statistic
        assert d <= 0.1 * 1.63 * math.sqrt(2.0 / n), (name, d)


def test_stick_sampler_at_an_exponential_horizon_matches_the_wiener_hopf_laws():
    # Brownian motion with drift mu killed at rate q: the supremum and the
    # drawdown from it to the endpoint are exponential of rates
    # -mu + sqrt(mu^2 + 2q) and mu + sqrt(mu^2 + 2q), and the sticks of
    # length >= 1 are Poisson of mean E1(q), the mass of their intensity
    # exp(-qt)/t dt.  A 20-seed study gave a smallest p over the three
    # checks of 0.008-0.38 (median 0.14); seed 8 is the median seed.  With
    # U^0.95 stick uniforms the drawdown check fails (p = 1.5e-4)
    from scipy.special import exp1

    mu, q, n = 0.2, 0.02, 10_000
    g = rng(8)
    model = BrownianDrift(1.0, mu)
    draws = [sample_quintuple(model, T, g, cutoff=1e-3) for T in g.exponential(1.0 / q, n)]
    sup, final, h_prime = (np.array([getattr(d, f) for d in draws]) for f in ("sup", "final", "h_prime"))
    root = math.sqrt(mu * mu + 2.0 * q)
    for x, rate in ((sup, root - mu), (sup - final, root + mu)):
        assert sps.kstest(x, "expon", args=(0.0, 1.0 / rate)).pvalue > 0.01
    # cells 0..8 and >= 9, each expecting at least 76 draws
    h = np.bincount(np.minimum(h_prime, 9), minlength=10)
    expect = n * np.append(sps.poisson.pmf(np.arange(9), exp1(q)), sps.poisson.sf(8, exp1(q)))
    assert sps.chisquare(h, expect).pvalue > 0.01


def test_finite_variance_limit_normalization_identities():
    model = BrownianDrift(1.0)
    var = model.variance_rate()
    for q in draw_many(model, 1e4, 100, seed=8):
        c = normalize_finite_variance(model, q)
        assert c.shape == (6,)
        # linear identity between the two centerings, exact per draw
        assert c[5] == pytest.approx(c[0] + 0.5 * var * c[1], abs=1e-9)
        assert c[0] == pytest.approx(
            ((q.upsilon - 1e4) - 0.5 * var * q.h_prime) / math.sqrt(math.log(1e4))
        )
        assert c[5] == pytest.approx(
            ((q.upsilon - 1e4) - 0.5 * var * math.log(1e4)) / math.sqrt(math.log(1e4))
        )


@pytest.mark.parametrize(
    "model, T, normalize, k",
    [
        (BrownianDrift(1.0), 1e4, normalize_finite_variance, 6),
        (StableProcess(1.5), 1e3, normalize_stable, 4),
        (StableProcess(0.5), 100.0, normalize_stable, 4),
        (BrownianDrift(1.0, mu=0.5), 1e3, normalize_drift, 2),
    ],
    ids=["finite-variance", "stable", "heavy", "drift-a"],
)
def test_batch_normalization_matches_per_draw(model, T, normalize, k):
    # the batch record runs the scalar arithmetic elementwise: row i of the
    # batch coordinates is the single-draw coordinate vector of draw i, bit
    # for bit
    draws = draw_many(model, T, 50, seed=24)
    batch = stack_quintuples(draws)
    assert batch.upsilon.shape == batch.h_prime.shape == (50,)
    assert batch.horizon == T
    coords = normalize(model, batch)
    singles = [normalize(model, q) for q in draws]
    assert isinstance(coords, np.ndarray) and coords.shape == (50, k)
    assert all(isinstance(c, np.ndarray) and c.shape == (k,) for c in singles)
    for row, single in zip(coords, singles):
        assert (row == single).all()
    # so do the envelope lengths
    assert (batch.hut_length == [q.hut_length for q in draws]).all()
    assert (batch.tent_length == [q.tent_length for q in draws]).all()
    # stacking batches concatenates them in order
    halves = stack_quintuples([stack_quintuples(draws[:20]), stack_quintuples(draws[20:])])
    assert (normalize(model, halves) == coords).all()


def test_stack_quintuples_refuses_mixed_horizons():
    g = rng(25)
    qs = [sample_quintuple(BrownianDrift(1.0), T, g) for T in (10.0, 20.0)]
    with pytest.raises(ParameterError):
        stack_quintuples(qs)
    # and so does an empty list or generator: no horizon to share
    for empty in ([], (q for q in ())):
        with pytest.raises(ParameterError):
            stack_quintuples(empty)


def test_finite_variance_limit_deterministic_variance_near_limit():
    # slow log-scale convergence: 15 percent tolerance at T = 1e6
    model = BrownianDrift(1.0)
    qs = draw_many(model, 1e6, 10_000, seed=9)
    det = np.array([normalize_finite_variance(model, q)[5] for q in qs])
    assert abs(det.var() / 0.75 - 1.0) < 0.15


def test_finite_variance_centering_with_jump_measure():
    # nonzero jump measure: the centering integral enters the length
    # coordinate; a sign or scale slip there would shift the mean by
    # 2 * theta / sqrt(log T) ~ 0.24 at this horizon
    from levyhull.models import theta, theta_fubini

    model = CompoundPoissonDrift(1.0, Gaussian(0.0, 1.0), 0.0)
    T = 1e6
    assert theta(model, T) > 0.4
    g = rng(777)
    det = np.array(
        [
            normalize_finite_variance(model, sample_quintuple(model, T, g))[5]
            for _ in range(4000)
        ]
    )
    assert -0.1 < det.mean() < 0.30
    assert abs(det.var() / 0.75 - 1.0) < 0.2
    # that sampled mean cannot tell theta from 0 at reachable T; on a
    # hand-built batch record both length columns must carry +theta (from
    # the independent Fubini form), which is 0.167 of a unit at T = 1e3
    T = 1e3
    lt, th, var = math.log(T), theta_fubini(model, T), model.variance_rate()
    assert th / math.sqrt(lt) == pytest.approx(0.167, abs=5e-4)
    upsilon = T + np.array([0.0, 1.5, 4.25, 12.0])
    h_prime = np.array([0, 3, 7, 12])
    q = QuintupleSample(upsilon, h_prime, np.array([0.5, -1.0, 2.0, 0.0]), np.array([1.0, 0.5, 3.0, 2.0]),
                        np.array([10.0, 500.0, 990.0, 0.0]), T)
    cols = normalize_finite_variance(model, q)
    np.testing.assert_allclose(cols[:, 0], ((upsilon - T) - 0.5 * var * h_prime + th) / math.sqrt(lt),
                               rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(cols[:, 5], ((upsilon - T) - 0.5 * var * lt + th) / math.sqrt(lt),
                               rtol=0.0, atol=1e-12)


def test_theta_centres_the_sampled_log_corrected_coordinate():
    # E[J^2 log|J|] is infinite for the log-corrected law, so Theta decides
    # the centring: at T = 1e3 it moves column 5 by 1.48 limit sd.  Over
    # seeds 1-20 of 4,000 draws the mean of the Theta-centred coordinate was
    # +0.187 to +0.200 limit sd (SE 0.002), against -1.29 with the log
    # centring alone (Theta = 0) and -2.77 with -Theta.  A Theta off by 8 %
    # either way leaves the band
    from levyhull.experiments import draw_quintuples

    model = CompoundPoissonDrift(1.0, LogCorrectedPareto(), 0.0)
    limit_sd = math.sqrt(3.0) / 2.0 * model.variance_rate()
    q = draw_quintuples(model, 1e3, 4000, 1, "centring", 1e-3)
    mean = float(normalize_finite_variance(model, q)[:, 5].mean()) / limit_sd
    assert 0.1 < mean < 0.3


@pytest.mark.parametrize(
    "model, expected",
    [
        (BrownianDrift(), "finite-variance"),
        (StableProcess(2.0), "finite-variance"),
        (BrownianDrift(mu=0.5), "drift-a"),
        (StableProcess(1.5, mu=-1.0), "drift-b"),
        (StableProcess(1.5), "stable-zero-mean"),
        (CompoundPoissonDrift(1.0, Pareto(1.5, 1.0)), "stable-zero-mean"),
        (StableProcess(0.5), "heavy"),
        (CompoundPoissonDrift(1.0, Pareto(0.5, 1.0)), "heavy"),
    ],
)
def test_regime_names_the_limit_regime(model, expected):
    assert regime(model) == expected


def test_regime_rejects_a_model_outside_every_regime():
    with pytest.raises(RegimeError):
        regime(CompoundPoissonDrift(1.0, Pareto(2.0, 1.0)))


def test_finite_variance_limit_regime_errors():
    g = rng(10)
    q = sample_quintuple(BrownianDrift(1.0, mu=0.5), 100.0, g)
    with pytest.raises(RegimeError):
        normalize_finite_variance(BrownianDrift(1.0, mu=0.5), q)
    qs = sample_quintuple(StableProcess(1.5), 100.0, g)
    with pytest.raises(RegimeError):
        normalize_finite_variance(StableProcess(1.5), qs)


def test_stable_limit_coordinates():
    model = StableProcess(1.5)
    T = 1e4
    a_t = model.scale * T ** (1 / 1.5)
    for q in draw_many(model, T, 200, seed=11):
        st = normalize_stable(model, q)
        assert st.shape == (4,)
        assert st[0] >= 0.0            # the length exceeds the horizon
        assert 0.0 <= st[3] <= 1.0
        # definitional scalings
        assert st[0] == pytest.approx((q.upsilon - T) * T / a_t**2)
        assert st[1] == pytest.approx(q.sup / a_t)


def test_heavy_limit_coordinates():
    model = StableProcess(0.5)
    T = 100.0
    a_t = model.scale * T ** (1 / 0.5)
    for q in draw_many(model, T, 100, seed=14):
        st = normalize_stable(model, q)
        assert st.shape == (4,)
        assert st[0] == pytest.approx(q.upsilon / a_t)   # the length is not centered
        assert st[1] >= 0.0 and st[1] >= st[2]           # sup >= max(0, final)
        assert 0.0 <= st[3] <= 1.0


def test_drift_limit_drift_only_limit_degenerates():
    # almost no jumps: the path is a straight line of slope mu, so the
    # centered length coordinate collapses to zero
    model = CompoundPoissonDrift(1e-12, PointMass(1.0), mu=2.0)
    for q in draw_many(model, 1e4, 50, seed=15):
        st = normalize_drift(model, q)
        assert abs(st[0]) < 1e-6


def test_drift_limit_case_b_sup_stabilizes():
    model = StableProcess(1.5, mu=-1.0)
    sup3 = np.array([q.sup for q in draw_many(model, 1e3, 4000, seed=16)])
    sup4 = np.array([q.sup for q in draw_many(model, 1e4, 4000, seed=17)])
    res = sps.ks_2samp(sup3, sup4)
    assert res.pvalue > 0.01


def test_drift_limit_case_validation():
    # a positive mean has two drift coordinates; a zero or negative mean has
    # no drift regime
    model = StableProcess(1.5, mu=1.0)
    assert normalize_drift(model, sample_quintuple(model, 100.0, rng(18))).shape == (2,)
    for mu in (0.0, -1.0):
        other = StableProcess(1.5, mu=mu)
        with pytest.raises(RegimeError):
            normalize_drift(other, sample_quintuple(other, 100.0, rng(19)))
