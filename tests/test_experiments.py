import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from levyhull import config, experiments
from levyhull.config import config_from_mapping, load_config
from levyhull.errors import ConfigError, PathError
from levyhull.experiments import (
    draw_hull_stats,
    draw_quintuples,
    emit_plot_data,
    load_report,
    report_csv_body,
    run,
    write_report,
)
from levyhull.hull import QuintupleSample, concave_majorant, merge_collinear, shape_stats
from levyhull.models import (
    EXACT_JUMPS,
    BrownianDrift,
    CompoundPoissonDrift,
    Gaussian,
    LogCorrectedPareto,
    Pareto,
    PointMass,
    StableProcess,
    TwoPoint,
    sample_path,
)
from levyhull.rng import substream
from levyhull.stats import tail_slope


def cp_identity_cfg(**over):
    base = {
        "experiment": "verify-identity",
        "model": {
            "kind": "cp",
            "rate": 1,
            "jump": {"kind": "gaussian", "mean": 0, "sd": 1},
            "mu": 0.2,
        },
        "T_grid": [8.0],
        "reps": 400,
        "seed": 99,
    }
    base.update(over)
    return config_from_mapping(base)


# ---------------------------------------------------------------------------
# configuration surface
# ---------------------------------------------------------------------------

def test_flat_and_json_configs_agree(tmp_path):
    flat = tmp_path / "c.cfg"
    flat.write_text(
        """
        # cross-validation demo
        experiment = verify-identity
        model.kind = cp
        model.rate = 1
        model.jump.kind = gaussian
        model.jump.mean = 0
        model.jump.sd = 1
        model.mu = 0.2
        T_grid = 50
        reps = 10000
        cutoff = 1e-3
        seed = 20260808
        """
    )
    jsn = tmp_path / "c.json"
    jsn.write_text(
        json.dumps(
            {
                "experiment": "verify-identity",
                "model": {
                    "kind": "cp",
                    "rate": 1,
                    "jump": {"kind": "gaussian", "mean": 0, "sd": 1},
                    "mu": 0.2,
                },
                "T_grid": [50],
                "reps": 10000,
                "cutoff": 1e-3,
                "seed": 20260808,
            }
        )
    )
    a = load_config(flat)
    b = load_config(jsn)
    assert a == b
    assert isinstance(a.model, CompoundPoissonDrift)
    assert isinstance(a.model.jump, Gaussian)
    assert a.t_grid == (50.0,)


def test_grid_list_forms(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("experiment = stick-counts\nT_grid = 1e2, 1e4 1e6\nreps = 200\n")
    cfg = load_config(p)
    assert cfg.t_grid == (100.0, 10000.0, 1000000.0)


def test_config_errors():
    # unknown experiments, the retired names of two split ones included
    for name in ("nope", "sb-props", "verify-clt"):
        with pytest.raises(ConfigError, match=name):
            config_from_mapping({"experiment": name, "T_grid": [1], "reps": 200})
    with pytest.raises(ConfigError):
        config_from_mapping({"experiment": "stick-counts", "T_grid": [1], "reps": 50})
    with pytest.raises(ConfigError):
        config_from_mapping({"experiment": "stick-counts", "T_grid": [2, 1], "reps": 200})
    # unknown keys, the retired checks, eps and t_grid included, are named
    for key in ("bogus", "checks", "eps", "t_grid"):
        with pytest.raises(ConfigError, match=key):
            config_from_mapping({"experiment": "stick-counts", "T_grid": [1], "reps": 200, key: 1})
    with pytest.raises(ConfigError):
        config_from_mapping(
            {"experiment": "stick-counts", "T_grid": [1], "reps": 200, "model": {"kind": "martian"}}
        )
    # top-level values that are not numbers, and integer keys given a fraction
    base = {"experiment": "stick-counts", "T_grid": [1], "reps": 200}
    for key, value in (("seed", "abc"), ("reps", "lots"), ("T_grid", [2, "x"]), ("reps", 100.7),
                       ("workers", 1.5), ("cutoff", "small"), ("seed", math.nan),
                       ("T_grid", [math.inf]), ("T_grid", [math.nan])):
        with pytest.raises(ConfigError, match=key):
            config_from_mapping({**base, key: value})
    # a JSON boolean is not a number, at the top level or in the model block
    for key, value in (("seed", True), ("workers", True), ("cutoff", True), ("reps", False),
                       ("T_grid", [True, 5])):
        with pytest.raises(ConfigError, match=key):
            config_from_mapping({**base, key: value})
    with pytest.raises(ConfigError, match=re.escape("model.sigma")):
        config_from_mapping({**base, "model": {"kind": "brownian", "sigma": True}})
    # an integral float is an integer, and a 64-bit seed stays exact
    cfg = config_from_mapping({**base, "seed": 1e3, "reps": 200.0})
    assert (cfg.seed, cfg.reps) == (1000, 200) and type(cfg.seed) is int
    assert config_from_mapping({**base, "seed": 2**64 - 1}).seed == 2**64 - 1
    # a misspelt model or jump key, the kind key included, is named in the error
    jump = {"kind": "gaussian", "mean": 0.0, "sd": 1.0}
    for model, key in (({"kind": "brownian", "sigmaa": 1.0}, "model.sigmaa"),
                       ({"knd": "brownian"}, "model.knd"),
                       ({"kind": "cp", "jump": {**jump, "sdd": 1.0}}, "model.jump.sdd"),
                       ({"kind": "cp", "jump": {"knd": "gaussian"}}, "model.jump.knd")):
        with pytest.raises(ConfigError, match=re.escape(key)):
            config_from_mapping({**base, "model": model})


def test_config_refuses_an_out_that_is_not_one_name():
    # a flat value with spaces reads as a list; it, a JSON array and JSON
    # null were once written as their repr, a directory named "['runs/my', 'dir']"
    base = {"experiment": "stick-counts", "T_grid": [1], "reps": 200}
    for value in (config.parse_flat_text("out = runs/my dir")["out"], ["runs"], None, True):
        with pytest.raises(ConfigError, match="out must be"):
            config_from_mapping({**base, "out": value})
    assert config_from_mapping({**base, "out": "runs/my dir"}).out == "runs/my dir"


def test_every_configured_experiment_has_a_runner():
    assert set(config.EXPERIMENTS) == set(experiments._DISPATCH)


def test_regime_mismatch_rejected_before_sampling():
    # drifted model under the zero-mean limit experiment
    with pytest.raises(ConfigError):
        run(
            config_from_mapping(
                {
                    "experiment": "clt-trend",
                    "model": {"kind": "brownian", "sigma": 1, "mu": 0.5},
                    "T_grid": [1e3],
                    "reps": 200,
                }
            )
        )
    with pytest.raises(ConfigError):
        run(config_from_mapping({"experiment": "clt-independence", "T_grid": [1e3], "reps": 200}))
    with pytest.raises(ConfigError):
        run(
            config_from_mapping(
                {
                    "experiment": "verify-heavy",
                    "model": {"kind": "stable", "alpha": 1.5},
                    "T_grid": [1e3],
                    "reps": 200,
                }
            )
        )
    with pytest.raises(ConfigError):
        run(
            config_from_mapping(
                {
                    "experiment": "verify-identity",
                    "model": {"kind": "brownian", "sigma": 1},
                    "T_grid": [10],
                    "reps": 200,
                }
            )
        )
    # a negative mean (drift-b) has no verify-stable statistic; two horizons,
    # so that the error cannot come from a count of horizons
    with pytest.raises(ConfigError, match="drift-b"):
        run(
            config_from_mapping(
                {
                    "experiment": "verify-stable",
                    "model": {"kind": "stable", "alpha": 1.5, "mu": -1},
                    "T_grid": [1e3, 1e4],
                    "reps": 200,
                }
            )
        )
    # Pareto jumps of index 2: no attraction index, so no limit regime
    for experiment in ("verify-heavy", "verify-stable"):
        with pytest.raises(ConfigError):
            run(
                config_from_mapping(
                    {
                        "experiment": experiment,
                        "model": {"kind": "cp", "jump": {"kind": "pareto", "tail_index": 2, "scale": 1}},
                        "T_grid": [1e3],
                        "reps": 200,
                    }
                )
            )
    # |mean| <= 1e-9 is the zero-mean regime, as in the normalizers
    report = run(
        config_from_mapping(
            {
                "experiment": "verify-stable",
                "model": {"kind": "stable", "alpha": 1.5, "mu": 5e-10},
                "T_grid": [100],
                "reps": 200,
                "seed": 5,
            }
        )
    )
    assert [r.statistic for r in report.rows] == [f"stable_ks_{k}" for k in ("length", "sup", "final", "gamma")]
    # log T = 0 at the first horizon: the finite-variance rule needs T > e
    with pytest.raises(ConfigError):
        run(
            config_from_mapping(
                {
                    "experiment": "compare-length",
                    "model": {"kind": "brownian", "sigma": 1},
                    "T_grid": [1, 100],
                    "reps": 200,
                }
            )
        )


def test_verify_heavy_runs_on_pareto_jumps():
    # infinite mean: every draw of the record is still finite
    report = run(
        config_from_mapping(
            {
                "experiment": "verify-heavy",
                "model": {"kind": "cp", "jump": {"kind": "pareto", "tail_index": 0.5, "scale": 1}},
                "T_grid": [100],
                "reps": 200,
                "seed": 5,
            }
        )
    )
    header, draws = report.tables["rep_draws"]
    assert draws.shape == (200, len(header)) and np.isfinite(draws).all()


def _pareto_heavy_cfg(p_up, T, reps, seed):
    return config_from_mapping(
        {
            "experiment": "verify-heavy",
            "model": {"kind": "cp", "rate": 1,
                      "jump": {"kind": "pareto", "tail_index": 0.5, "scale": 1, "p_up": p_up}},
            "T_grid": [T],
            "reps": reps,
            "seed": seed,
        }
    )


def test_verify_heavy_meets_the_limit_on_pareto_jumps():
    # an attracted, not stable, model: with the norming constant
    # C_a^(1/a) = pi / 2 every row passes at T = 1e4; without it the length,
    # supremum and endpoint rows fail (p = 1.8e-9, 1.3e-4 and 0.0099)
    report = run(_pareto_heavy_cfg(0.5, 1e4, 2000, 7))
    assert [r.statistic for r in report.rows] == [
        "heavy_ks_length", "heavy_ks_sup", "heavy_ks_final", "heavy_ks_gamma", "sandwich_violations"]
    assert report.passed, [(r.statistic, r.p_value) for r in report.rows if not r.passed]


def test_verify_heavy_compares_with_the_skewness_of_the_jumps(monkeypatch):
    real, calls = experiments.draw_limit_stable, []

    def spy(*args, **kwargs):
        calls.append(kwargs["beta"])
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "draw_limit_stable", spy)
    run(_pareto_heavy_cfg(0.7, 100.0, 200, 5))
    assert calls == [pytest.approx(0.4, abs=1e-15)]


def test_sandwich_violations_forgive_rounding_but_count_a_displaced_draw():
    # draws far above a_T = 1e8 (slack 0.1): one ulp of 1e16 is 2 and of
    # 7e17 is 128, so a few ulps below 2 sup - final is rounding
    sup = np.array([5e15, 3.5e17, 5e15, 10.0])
    final = np.array([0.0, 0.0, 0.0, 1.0])
    lo = 2.0 * sup - final
    T, a_T = 1e4, 1e8

    def sample(upsilon):
        n = len(upsilon)
        return QuintupleSample(upsilon, np.zeros(n), final, sup, np.zeros(n), T, 0.0)

    ulps = np.spacing(lo)
    assert experiments._sandwich_violations(sample(lo - 2.0 * ulps), a_T) == 0
    assert experiments._sandwich_violations(sample(lo + T + 2.0 * ulps), a_T) == 0
    # beyond 1e-9 a_T plus four ulps of the larger compared value
    out = sample(np.array([lo[0] - 16.0, lo[1], lo[2] + T + 1024.0, lo[3] - 0.11]))
    assert experiments._sandwich_violations(out, a_T) == 3


@pytest.mark.parametrize(
    "model, expected",
    [
        ({"kind": "brownian"}, BrownianDrift(1.0, 0.0)),
        ({"kind": "brownian", "sigma": 2, "mu": -0.5}, BrownianDrift(2.0, -0.5)),
        ({"kind": "cp", "jump": {"kind": "point-mass", "x": 2}}, CompoundPoissonDrift(1.0, PointMass(2.0), 0.0)),
        (
            {"kind": "cp", "rate": 3, "mu": 0.1, "jump": {"kind": "gaussian", "mean": 0.5, "sd": 2}},
            CompoundPoissonDrift(3.0, Gaussian(0.5, 2.0), 0.1),
        ),
        (
            {"kind": "cp", "jump": {"kind": "two-point", "p_up": 0.3, "up": 1, "down": -2}},
            CompoundPoissonDrift(1.0, TwoPoint(0.3, 1.0, -2.0)),
        ),
        (
            {"kind": "cp", "jump": {"kind": "pareto", "tail_index": 1.5, "scale": 0.5}},
            CompoundPoissonDrift(1.0, Pareto(1.5, 0.5, 0.5)),
        ),
        (
            {"kind": "cp", "jump": {"kind": "pareto", "tail_index": 0.5, "scale": 1, "p_up": 0.7}},
            CompoundPoissonDrift(1.0, Pareto(0.5, 1.0, 0.7)),
        ),
        ({"kind": "cp", "jump": {"kind": "log-pareto"}}, CompoundPoissonDrift(1.0, LogCorrectedPareto())),
        ({"kind": "stable", "alpha": 1.5}, StableProcess(1.5, 0.0, 1.0, 0.0)),
        (
            {"kind": "stable", "alpha": 0.5, "beta": -0.3, "scale": 2, "mu": 1},
            StableProcess(0.5, -0.3, 2.0, 1.0),
        ),
    ],
)
def test_every_config_kind_builds_its_model(model, expected):
    cfg = config_from_mapping({"experiment": "stick-counts", "T_grid": [2.0], "reps": 200, "model": model})
    assert cfg.model == expected
    assert type(cfg.model) is type(expected)


@pytest.mark.parametrize(
    "model",
    [
        {"kind": "stable"},                                    # alpha has no default
        {"kind": "cp"},                                        # no jump block
        {"kind": "cp", "jump": {"kind": "cauchy"}},
        {"kind": "cp", "jump": {"kind": "gaussian", "sd": 1}},  # mean has no default
        {"kind": "cp", "jump": {"kind": "gaussian", "mean_": 0, "sd": 1}},  # field name, not key
        {"kind": "brownian", "sigma": "wide"},
        {"kind": "brownian", "jump": 1},
        {"kind": "brownian", "alpha": 1.5},                    # another kind's key
        {"kind": "stable", "alpha": 1.5, "jump": {"kind": "gaussian", "mean": 0, "sd": 1}},
        {"kind": "cp", "jump": {"kind": "gaussian", "mean": 0, "sd": 1, "tail_index": 2}},
        {"sigma": 1},                                          # no model.kind
    ],
)
def test_config_model_errors(model):
    with pytest.raises(ConfigError):
        config_from_mapping({"experiment": "stick-counts", "T_grid": [2.0], "reps": 200, "model": model})


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def _report_tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_report_deterministic_across_runs_and_workers(tmp_path):
    # whole written trees, report.json and its provenance included, agree
    # across repeats, output directories and worker counts
    trees = []
    for name, workers in (("a", 1), ("b", 1), ("c", 2)):
        cfg = cp_identity_cfg(workers=workers, out=str(tmp_path / name))
        write_report(run(cfg), cfg.out)
        trees.append(_report_tree(tmp_path / name))
    assert "report.json" in trees[0] and "samples/rep_draws.npy" in trees[0]
    assert trees[0] == trees[1] == trees[2]


def test_hull_stats_name_the_path_statistics():
    model = CompoundPoissonDrift(1.0, Gaussian(0.0, 1.0), mu=0.2)
    hull = draw_hull_stats(model, 8.0, 3, 5, "t")
    # the stick-breaking batch record: exact hulls have no cutoff
    assert type(hull) is type(draw_quintuples(model, 8.0, 3, 5, "t", 1e-3)) is QuintupleSample
    assert (hull.horizon, hull.cutoff) == (8.0, 0.0)
    g = substream(5, "t", 0)
    names = ("upsilon", "h_prime", "final", "sup", "gamma")
    for k in range(3):
        s = shape_stats(merge_collinear(concave_majorant(sample_path(model, 8.0, EXACT_JUMPS, g))), 8.0)
        assert [getattr(hull, f)[k] for f in names] == [getattr(s, f) for f in names]


def test_clt_experiments_share_their_draws():
    # both read substream clt-{k} at the k-th horizon; clt-independence
    # writes its rows at every horizon of its grid
    mapping = {"model": {"kind": "brownian"}, "T_grid": [1e3, 1e4], "reps": 200, "seed": 5}
    trend = run(config_from_mapping({**mapping, "experiment": "clt-trend"}))
    indep = run(config_from_mapping({**mapping, "experiment": "clt-independence"}))
    assert trend.samples.keys() == indep.samples.keys() == {"det_stat_T0", "det_stat_T1"}
    for name, vec in trend.samples.items():
        assert np.array_equal(vec, indep.samples[name])
    names = ("fluct_corr_sup", "fluct_corr_final", "fluct_corr_gamma",
             "centering_identity_max_err", "centering_identity_corr")
    assert [(r.T, r.statistic) for r in indep.rows] == [(T, n) for T in (1e3, 1e4) for n in names]


def test_tail_index_draws_at_the_model_skewness():
    from levyhull.limitlaws import draw_limit_quadratic

    report = run(config_from_mapping(
        {"experiment": "tail-index", "model": {"kind": "stable", "alpha": 1.5, "beta": 0.5},
         "reps": 10_000, "seed": 9}
    ))
    q = draw_limit_quadratic(1.5, 10_000, substream(9, "tail-q", 0), beta=0.5)
    assert np.array_equal(report.samples["q_draws"], q)


def test_tail_index_reads_the_index_of_an_attracted_model():
    # zero-mean Pareto(1.5) jumps have the limit of StableProcess(1.5)
    def q_draws(model):
        cfg = config_from_mapping({"experiment": "tail-index", "model": model, "reps": 10_000, "seed": 9})
        return run(cfg).samples["q_draws"]

    pareto = {"kind": "cp", "jump": {"kind": "pareto", "tail_index": 1.5, "scale": 1}}
    assert np.array_equal(q_draws(pareto), q_draws({"kind": "stable", "alpha": 1.5}))


def test_process_pool_is_at_most_the_cpu_count(monkeypatch):
    from concurrent.futures import Future

    sizes = []

    class FakePool:
        # runs each task at submit, in this process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", FakePool)
    for cpus, workers, want in ((3, 10_000, 3), (3, 2, 2), (None, 4, 1)):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        got = experiments._collect_blocks(lambda i, n: (i, n), 2 * experiments.BLOCK + 1, workers)
        assert got == [(0, experiments.BLOCK), (1, experiments.BLOCK), (2, 1)]
        assert sizes.pop() == want


def test_seed_changes_report():
    a = report_csv_body(run(cp_identity_cfg(seed=1)))
    b = report_csv_body(run(cp_identity_cfg(seed=2)))
    assert a != b


# ---------------------------------------------------------------------------
# report round trip and plot data
# ---------------------------------------------------------------------------

def test_write_load_roundtrip(tmp_path):
    rep = run(cp_identity_cfg())
    json_path = write_report(rep, tmp_path / "out")
    loaded = load_report(json_path)
    assert loaded.experiment == rep.experiment
    assert len(loaded.rows) == len(rep.rows)
    assert loaded.rows[0] == rep.rows[0]
    for name, vec in rep.samples.items():
        assert np.array_equal(loaded.samples[name], np.asarray(vec))
    csv_text = (tmp_path / "out" / "report.csv").read_text()
    assert csv_text.splitlines()[0] == "T,statistic,estimate,se_or_d,p_value,threshold,verdict"
    # the draw-record table round-trips with its header
    header, mat = loaded.tables["rep_draws"]
    assert header == ("T", "upsilon", "h_prime", "final", "sup", "gamma")
    assert mat.shape == (rep.samples["rep_upsilon"].size, 6)
    assert np.array_equal(mat[:, 1], rep.samples["rep_upsilon"])


# one small config per experiment family (both regimes of verify-stable)
_FAMILY_CONFIGS = [
    {"experiment": "stick-counts", "T_grid": [math.e**2], "reps": 500, "seed": 3},
    {"experiment": "compensation", "reps": 200, "seed": 3},
    {
        "experiment": "verify-identity",
        "model": {"kind": "cp", "rate": 1, "jump": {"kind": "gaussian", "mean": 0, "sd": 1}, "mu": 0.2},
        "T_grid": [8.0],
        "reps": 200,
    },
    {"experiment": "clt-trend", "model": {"kind": "brownian"}, "T_grid": [1e3, 1e4], "reps": 200},
    {"experiment": "clt-independence", "model": {"kind": "brownian"}, "T_grid": [1e3], "reps": 200},
    {"experiment": "verify-stable", "model": {"kind": "stable", "alpha": 1.5}, "T_grid": [100.0],
     "reps": 200},
    {"experiment": "verify-stable", "model": {"kind": "stable", "alpha": 1.5, "mu": 1.0},
     "T_grid": [100.0], "reps": 200},
    {"experiment": "verify-heavy", "model": {"kind": "stable", "alpha": 0.7}, "T_grid": [100.0],
     "reps": 200},
    {"experiment": "tail-index", "model": {"kind": "stable", "alpha": 1.5}, "reps": 10_000},
    {
        "experiment": "theta-scan",
        "model": {"kind": "cp", "rate": 1, "jump": {"kind": "point-mass", "x": 2.0}},
        "T_grid": [2.0, 9.0],
        "reps": 100,
    },
    {"experiment": "compare-length", "model": {"kind": "brownian", "sigma": 1}, "T_grid": [1e3, 1e4],
     "reps": 300, "seed": 4},
    {"experiment": "hull-props", "reps": 100},
]


def test_write_report_serializes_every_experiment(tmp_path):
    # row payloads must be JSON-clean for every experiment family (numpy
    # scalars leaked through here once), and every sample vector and table
    # must come back exactly, as float64, with its column names
    assert {m["experiment"] for m in _FAMILY_CONFIGS} == set(experiments._DISPATCH)
    for i, mapping in enumerate(_FAMILY_CONFIGS):
        rep = run(config_from_mapping(mapping))
        loaded = load_report(write_report(rep, tmp_path / f"r{i}"))
        assert loaded.rows == rep.rows
        assert loaded.samples.keys() == rep.samples.keys()
        for name, vec in rep.samples.items():
            got = loaded.samples[name]
            assert got.dtype == np.float64 and np.array_equal(got, vec), name
        assert loaded.tables.keys() == rep.tables.keys()
        for name, (header, mat) in rep.tables.items():
            got_header, got = loaded.tables[name]
            assert got_header == tuple(header), name
            assert got.dtype == np.float64 and np.array_equal(got, np.asarray(mat, dtype=float)), name


def test_every_family_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: an interpreter that cannot import it
    # runs and writes one small config per family, and criterion 12 at its
    # shipped size, and loads no scipy module
    root = Path(__file__).resolve().parents[1]
    code = f"""
import json, sys
sys.modules["scipy"] = None   # every import of scipy now fails
try:
    import scipy.integrate
except ImportError:
    pass
else:
    raise AssertionError("scipy is not blocked")
from levyhull.config import config_from_mapping, load_config
from levyhull.experiments import run, write_report
for i, mapping in enumerate(json.loads({json.dumps(_FAMILY_CONFIGS)!r})):
    write_report(run(config_from_mapping(mapping)), {str(tmp_path)!r} + f"/r{{i}}")
assert run(load_config({str(root / "configs" / "criterion12_theta_scan.cfg")!r})).passed
print(sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None))
"""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
    assert len(list(tmp_path.glob("r*/report.json"))) == len(_FAMILY_CONFIGS)


def test_load_report_refuses_the_csv_sample_schema(tmp_path):
    path = write_report(run(cp_identity_cfg(reps=200)), tmp_path / "out")
    payload = json.loads(path.read_text())
    payload["schema"] = "levyhull-report/1"
    path.write_text(json.dumps(payload))
    with pytest.raises(PathError, match="schema"):
        load_report(path)


def test_load_report_stays_inside_the_report_directory(tmp_path):
    path = write_report(run(cp_identity_cfg(reps=200)), tmp_path / "out")
    outside = tmp_path / "secret.npy"
    np.save(outside, np.arange(3.0))
    for rel in (str(outside), "../secret.npy", "samples/../../secret.npy"):
        payload = json.loads(path.read_text())
        payload["samples"]["hull_upsilon"] = rel
        path.write_text(json.dumps(payload))
        with pytest.raises(PathError, match="outside"):
            load_report(path)
    payload["samples"]["hull_upsilon"] = "samples/hull_upsilon.npy"
    payload["tables"]["rep_draws"]["path"] = "../secret.npy"
    path.write_text(json.dumps(payload))
    with pytest.raises(PathError, match="outside"):
        load_report(path)


def test_emit_plot_kinds(tmp_path):
    rep = run(cp_identity_cfg())
    paths = emit_plot_data(rep, "ecdf-pair", tmp_path)
    assert {p.name for p in paths} == {
        "ecdf_upsilon.csv", "ecdf_final.csv", "ecdf_sup.csv", "ecdf_gamma.csv"
    }
    body = paths[0].read_text().splitlines()
    assert body[0] == "sample,x,ecdf"
    _, x, f = body[1].split(",")
    assert 0.0 < float(f) <= 1.0 and math.isfinite(float(x))
    qq = emit_plot_data(rep, "qq", tmp_path)
    assert len(qq) == 4
    with pytest.raises(PathError):
        emit_plot_data(rep, "tail-loglog", tmp_path)
    with pytest.raises(ConfigError):
        emit_plot_data(rep, "histogram", tmp_path)


def test_emit_plot_pairs_finite_with_limit_samples(tmp_path):
    rep = run(config_from_mapping({"experiment": "verify-stable", "model": {"kind": "stable", "alpha": 1.5},
                                   "T_grid": [100.0], "reps": 200}))
    names = ("final", "gamma", "length", "sup")
    ecdf = emit_plot_data(rep, "ecdf-pair", tmp_path)
    assert [p.name for p in ecdf] == [f"ecdf_{n}.csv" for n in names]
    for path, name in zip(ecdf, names):
        labels = [line.split(",", 1)[0] for line in path.read_text().splitlines()[1:]]
        assert labels == [f"finite_{name}"] * 200 + [f"limit_{name}"] * 200
    qq = emit_plot_data(rep, "qq", tmp_path)
    assert [p.name for p in qq] == [f"qq_{n}.csv" for n in names]
    for path, name in zip(qq, names):
        q, x_a, x_b = np.loadtxt(path, delimiter=",", skiprows=1).T
        assert np.array_equal(x_a, np.quantile(rep.samples[f"finite_{name}"], q))
        assert np.array_equal(x_b, np.quantile(rep.samples[f"limit_{name}"], q))


def test_emit_identical_samples_give_identical_curves(tmp_path):
    rep = run(cp_identity_cfg())
    rep.samples = {"hull_x": rep.samples["hull_upsilon"], "rep_x": rep.samples["hull_upsilon"]}
    (path,) = emit_plot_data(rep, "ecdf-pair", tmp_path)
    lines = path.read_text().splitlines()[1:]
    a = [l.split(",", 1)[1] for l in lines if l.startswith("hull_x,")]
    b = [l.split(",", 1)[1] for l in lines if l.startswith("rep_x,")]
    assert a == b


def test_emit_tail_loglog(tmp_path):
    rep = run(
        config_from_mapping(
            {
                "experiment": "tail-index",
                "model": {"kind": "stable", "alpha": 1.5},
                "T_grid": [1],
                "reps": 20_000,
                "seed": 5,
            }
        )
    )
    (path,) = emit_plot_data(rep, "tail-loglog", tmp_path)
    header, *rows = path.read_text().splitlines()
    assert header == "log_x,log_sf,fit"
    assert len(rows) >= 50


def test_emit_tail_loglog_slope_matches_synthetic_tail(tmp_path):
    # feed the emitter a synthetic power-tail sample with known exponent
    # and recover the exponent from the emitted point cloud
    from levyhull.experiments import RunReport

    a = 0.75
    draws = np.random.default_rng(17).random(200_000) ** (-1.0 / a)
    rep = RunReport("tail-index", rows=[], samples={"q_draws": draws})
    (path,) = emit_plot_data(rep, "tail-loglog", tmp_path)
    data = np.array(
        [[float(v) for v in line.split(",")] for line in path.read_text().splitlines()[1:]]
    )
    lx, lsf = data[:, 0], data[:, 1]
    slope = np.polyfit(lx, lsf, 1)[0]
    assert abs(slope + a) < 0.05
    # the emitted points are the ones the reported fit used
    fit = tail_slope(draws)
    assert len(data) == fit.n_points
    assert abs(slope - fit.slope) < 1e-9


def test_emit_scaling_table(tmp_path):
    rep = run(
        config_from_mapping(
            {
                "experiment": "compare-length",
                "model": {"kind": "brownian", "sigma": 1},
                "T_grid": [1e3, 1e5],
                "reps": 600,
                "seed": 6,
            }
        )
    )
    (path,) = emit_plot_data(rep, "scaling-table", tmp_path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("T,sd_hut,sd_majorant,sd_tent")
    assert len(lines) == 3


def test_emit_plot_floats_are_the_repr_of_their_values(tmp_path):
    # every float field of every plot kind is the repr of the float it
    # stands for, so the files keep every bit and read back exactly
    from levyhull.experiments import Row, RunReport
    from levyhull.stats import _tail_points

    g = np.random.default_rng(29)
    a, b = g.standard_normal(300) * 1e3, np.round(g.standard_normal(250), 1)   # b holds integral floats
    draws = g.random(20_000) ** (-1.0 / 0.75)
    sd = {T: g.random(3) * 10.0 for T in (1e3, 1e5)}
    rows = [Row(T, f"sd_{name}", float(v), math.nan, math.nan, "reported", True)
            for T, vals in sd.items() for name, v in zip(("hut", "majorant", "tent"), vals)]
    rep = RunReport("plots", rows=rows, samples={"hull_x": a, "rep_x": b, "q_draws": draws})

    def fields(kind):
        (path,) = emit_plot_data(rep, kind, tmp_path / kind)
        return [line.split(",") for line in path.read_text().splitlines()[1:]]

    def reprs(*cols):
        return [[repr(float(x)) for x in row] for row in zip(*cols)]

    ecdf = [[label, *row] for label, x in (("hull_x", a), ("rep_x", b))
            for row in reprs(np.sort(x), np.arange(1, x.size + 1) / x.size)]
    assert fields("ecdf-pair") == ecdf
    qs = np.linspace(0.005, 0.995, 199)
    assert fields("qq") == reprs(qs, np.quantile(a, qs), np.quantile(b, qs))
    fit = tail_slope(draws)
    lx, lsf = _tail_points(draws, fit.q_lo, fit.q_hi)
    assert fields("tail-loglog") == reprs(lx, lsf, fit.intercept + fit.slope * lx)
    table = [[T, hut, maj, tent, hut, maj / math.sqrt(math.log(T)), tent / math.sqrt(T)]
             for T, (hut, maj, tent) in sd.items()]
    assert fields("scaling-table") == reprs(*zip(*table))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_and_emit(tmp_path, capsys):
    from levyhull.cli import main

    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "experiment = verify-identity\n"
        "model.kind = cp\n"
        "model.rate = 1\n"
        "model.jump.kind = gaussian\n"
        "model.jump.mean = 0\n"
        "model.jump.sd = 1\n"
        "model.mu = 0.2\n"
        "T_grid = 8\n"
        "reps = 400\n"
        "seed = 99\n"
    )
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "[pass]" in captured
    assert (out / "report.csv").exists()
    code2 = main(["emit-plot", "--report", str(out / "report.json"), "--kind", "qq"])
    assert code2 == 0


def test_non_finite_model_parameter_fails_before_any_draw(tmp_path, capsys, monkeypatch):
    # a NaN mean passed the regime check (abs(nan) > tol is false) and
    # failed only after every draw; an infinite rate ended in numpy's
    # "lam value too large" traceback.  Both now stop at the configuration.
    from levyhull.cli import main

    def no_draws(*args, **kwargs):
        raise AssertionError("drew before refusing the model")

    monkeypatch.setattr(experiments, "draw_quintuples", no_draws)
    monkeypatch.setattr(experiments, "draw_hull_stats", no_draws)
    cp = ("model.kind = cp\nmodel.jump.kind = gaussian\nmodel.jump.mean = 0\nmodel.jump.sd = 1\n"
          "experiment = verify-identity\nT_grid = 8\n")
    for body, name in (("experiment = clt-trend\nmodel.kind = brownian\nmodel.mu = nan\nT_grid = 1e3\n", "mu"),
                       (cp + "model.rate = inf\n", "rate")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(body + "reps = 200\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == 2
        assert f"error: {name} must be finite" in capsys.readouterr().err
        assert not (tmp_path / name).exists()


def test_cli_run_names_an_unreadable_config(tmp_path, capsys):
    # a missing file, a directory and a file that is not UTF-8 once ended
    # in a traceback and exit 1
    from levyhull.cli import main

    latin = tmp_path / "latin.cfg"
    latin.write_bytes("experiment = stick-counts\n# d\xe9j\xe0 vu\n".encode("latin-1"))
    for path in (tmp_path / "missing.cfg", tmp_path, latin):
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read configuration") and str(path) in err


def test_cli_run_refuses_an_output_path_that_is_a_file(tmp_path, capsys, monkeypatch):
    # an existing file as --out once ran the whole experiment and then ended
    # in a FileExistsError traceback from write_report, exit 1
    from levyhull import cli

    def no_run(cfg):
        raise AssertionError("ran before refusing the output path")

    monkeypatch.setattr(cli, "run", no_run)
    cfg = Path(__file__).resolve().parents[1] / "configs" / "criterion01_stick_identities.cfg"
    taken = tmp_path / "taken"
    taken.write_text("keep")
    for out in (taken, taken / "sub"):
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write a report to") and str(out) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert taken.read_text() == "keep"
    # write_report refuses it too, with the same error
    for out in (taken, taken / "sub"):
        with pytest.raises(PathError, match="not a directory"):
            write_report(run(cp_identity_cfg(reps=100)), out)
    assert taken.read_text() == "keep"


def test_cli_emit_plot_names_a_missing_or_corrupt_report(tmp_path, capsys):
    from levyhull.cli import main

    corrupt = tmp_path / "corrupt" / "report.json"
    corrupt.parent.mkdir()
    corrupt.write_text("{not json")
    for path in (tmp_path / "nowhere" / "report.json", corrupt):
        assert main(["emit-plot", "--report", str(path), "--kind", "qq"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err


def test_cli_emit_plot_refuses_an_output_path_that_is_a_file(tmp_path, capsys):
    # an existing file as --out once ended in a FileExistsError traceback
    from levyhull.cli import main

    path = write_report(run(cp_identity_cfg(reps=200)), tmp_path / "out")
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    taken = tmp_path / "taken"
    taken.write_text("keep")
    for out in (taken, taken / "sub"):
        assert main(["emit-plot", "--report", str(path), "--kind", "qq", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write plot data to") and str(out) in err
    assert taken.read_text() == "keep"
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p != taken) == before


def test_cli_emit_plot_names_a_report_row_without_a_field(tmp_path, capsys):
    from levyhull.cli import main

    path = write_report(run(cp_identity_cfg(reps=200)), tmp_path / "out")
    payload = json.loads(path.read_text())
    del payload["rows"][0]["T"]
    path.write_text(json.dumps(payload))
    assert main(["emit-plot", "--report", str(path), "--kind", "qq"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err and "'T'" in err


def test_shipped_criterion_configs_parse():
    import pathlib

    cfg_dir = pathlib.Path(__file__).resolve().parents[1] / "configs"
    paths = sorted(cfg_dir.glob("criterion*.cfg"))
    assert len(paths) == 12
    expected = {
        "criterion01": "stick-counts",
        "criterion02": "compensation",
        "criterion03": "verify-identity",
        "criterion04": "clt-trend",
        "criterion05": "clt-independence",
        "criterion06": "verify-stable",
        "criterion07": "tail-index",
        "criterion08": "verify-stable",
        "criterion09": "verify-heavy",
        "criterion10": "compare-length",
        "criterion11": "hull-props",
        "criterion12": "theta-scan",
    }
    for path in paths:
        cfg = load_config(path)
        key = path.stem.split("_")[0]
        assert cfg.experiment == expected[key], path.name
        assert cfg.out is not None


def test_cli_reports_config_errors(tmp_path, capsys):
    from levyhull.cli import main

    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment = clt-trend\nmodel.kind = brownian\nmodel.mu = 1\nT_grid = 100\nreps = 200\n")
    code = main(["run", "--config", str(cfg)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    # values that are not numbers are configuration errors too, not tracebacks
    for body in ("seed = abc\nreps = 200\nT_grid = 100", "reps = lots\nT_grid = 100",
                 "reps = 200\nT_grid = 2, x", "reps = 100.7\nT_grid = 100"):
        cfg.write_text(f"experiment = stick-counts\n{body}\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err
