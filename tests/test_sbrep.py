import math
from dataclasses import fields

import numpy as np
import pytest
from scipy import stats as sps

from levyhull import sbrep
from levyhull.errors import ParameterError, RegimeError, TruncationError
from levyhull.hull import reduce_faces, stack_quintuples
from levyhull.limitlaws import draw_limit_finite_variance
from levyhull.models import (
    BrownianDrift,
    CompoundPoissonDrift,
    Gaussian,
    Pareto,
    PointMass,
    StableProcess,
    norming,
)
from levyhull.sbrep import (
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
    coords, _ = draw_limit_finite_variance(sigma, n, rng(3))
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
def increments(monkeypatch):
    """The ``(t, xi)`` pairs that ``sample_quintuple`` draws, in order,
    recorded through ``sbrep``'s own binding of ``sample_increment``."""
    pairs = []
    inner = sbrep.sample_increment

    def record(model, t, rng):
        x = inner(model, t, rng)
        pairs.append((t, x))
        return x

    monkeypatch.setattr(sbrep, "sample_increment", record)
    return pairs


def test_final_value_conservation(increments):
    model = CompoundPoissonDrift(1.0, Gaussian(0.0, 1.0), mu=0.2)
    g = rng(5)
    for _ in range(100):
        increments.clear()
        q = sample_quintuple(model, 15.0, g)
        sticks, xis = zip(*increments)
        acc = 0.0
        for x in xis:
            acc += x
        assert q.final == acc
        assert math.fsum(sticks) == pytest.approx(15.0, abs=1e-9)
        # a draw is the shape statistics of its own sticks, bit for bit
        r = reduce_faces(list(sticks), list(xis), 15.0, q.cutoff, q.truncation_error_bound)
        assert all(np.array_equal(getattr(r, f.name), getattr(q, f.name)) for f in fields(q))


def test_h_prime_stable_under_cutoff_refinement():
    # same seed, smaller cutoff: the record extends, the big-face count
    # cannot change, and the aggregated statistics move within the
    # mean-level reported bound
    model = CompoundPoissonDrift(1.0, Gaussian(0.0, 1.0), mu=0.2)
    T = 50.0
    n = 400
    deltas = []
    bounds = []
    for i in range(n):
        a = sample_quintuple(model, T, rng(1000 + i), cutoff=1e-2)
        b = sample_quintuple(model, T, rng(1000 + i), cutoff=1e-5)
        assert a.h_prime == b.h_prime
        deltas.append(
            max(abs(a.upsilon - b.upsilon), abs(a.sup - b.sup), abs(a.gamma - b.gamma))
        )
        bounds.append(a.truncation_error_bound)
    assert np.mean(deltas) <= np.mean(bounds)


def test_truncation_bound_reported(increments):
    q = sample_quintuple(BrownianDrift(1.0), 30.0, rng(6))
    assert 0.0 < q.truncation_error_bound < 1.0
    qs = sample_quintuple(StableProcess(0.7), 30.0, rng(7))
    rem = increments[-1][0]   # the last stick of the draw is its remainder
    assert qs.truncation_error_bound == 2.0 * 4.0 * norming(StableProcess(0.7), rem)
    # infinite variance, with (index 1.5) or without (index 0.5) a mean
    for a in (0.5, 1.5):
        qp = sample_quintuple(CompoundPoissonDrift(1.0, Pareto(a, 1.0)), 30.0, rng(8))
        assert 0.0 < qp.truncation_error_bound < math.inf
    # index 2 has infinite variance and no norming: a log-corrected scale
    q2 = sample_quintuple(CompoundPoissonDrift(1.0, Pareto(2.0, 1.0)), 30.0, rng(9))
    assert 0.0 < q2.truncation_error_bound < math.inf and math.isfinite(q2.final)
    rem = increments[-1][0]
    assert q2.truncation_error_bound == 8.0 * math.sqrt(rem * max(1.0, math.log(rem)))


def test_finite_variance_limit_normalization_identities():
    model = BrownianDrift(1.0)
    var = model.variance_rate()
    for q in draw_many(model, 1e4, 100, seed=8):
        sto = normalize_finite_variance(model, q, "stochastic")
        det = normalize_finite_variance(model, q, "deterministic")
        # linear identity between the two centerings, exact per draw
        lhs = det[0]
        rhs = sto[0] + 0.5 * var * sto[1]
        assert lhs == pytest.approx(rhs, abs=1e-9)
        assert det[1:] == pytest.approx(sto[1:])
        assert det[0] == pytest.approx(
            ((q.upsilon - 1e4) - 0.5 * var * math.log(1e4)) / math.sqrt(math.log(1e4))
        )
        assert sto.shape == det.shape == (5,)


@pytest.mark.parametrize(
    "model, T, normalize, k",
    [
        (BrownianDrift(1.0), 1e4, lambda m, q: normalize_finite_variance(m, q, "stochastic"), 5),
        (BrownianDrift(1.0), 1e4, lambda m, q: normalize_finite_variance(m, q, "deterministic"), 5),
        (StableProcess(1.5), 1e3, normalize_stable, 4),
        (StableProcess(0.5), 100.0, normalize_stable, 4),
        (BrownianDrift(1.0, mu=0.5), 1e3, normalize_drift, 2),
    ],
    ids=["fv-stochastic", "fv-deterministic", "stable", "heavy", "drift-a"],
)
def test_batch_normalization_matches_per_draw(model, T, normalize, k):
    # the batch record runs the scalar arithmetic elementwise: row i of the
    # batch coordinates is the single-draw coordinate vector of draw i, bit
    # for bit
    draws = draw_many(model, T, 50, seed=24)
    batch = stack_quintuples(draws)
    assert batch.upsilon.shape == batch.h_prime.shape == (50,)
    assert (batch.horizon, batch.cutoff) == (T, draws[0].cutoff)
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


def test_finite_variance_limit_deterministic_variance_near_limit():
    # slow log-scale convergence: 15 percent tolerance at T = 1e6
    model = BrownianDrift(1.0)
    qs = draw_many(model, 1e6, 10_000, seed=9)
    det = np.array([normalize_finite_variance(model, q, "deterministic")[0] for q in qs])
    assert abs(det.var() / 0.75 - 1.0) < 0.15


def test_finite_variance_centering_with_jump_measure():
    # nonzero jump measure: the centering integral enters the length
    # coordinate; a sign or scale slip there would shift the mean by
    # 2 * theta / sqrt(log T) ~ 0.24 at this horizon
    from levyhull.models import theta

    model = CompoundPoissonDrift(1.0, Gaussian(0.0, 1.0), 0.0)
    T = 1e6
    assert theta(model, T) > 0.4
    g = rng(777)
    det = np.array(
        [
            normalize_finite_variance(model, sample_quintuple(model, T, g), "deterministic")[0]
            for _ in range(4000)
        ]
    )
    assert -0.1 < det.mean() < 0.30
    assert abs(det.var() / 0.75 - 1.0) < 0.2


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
