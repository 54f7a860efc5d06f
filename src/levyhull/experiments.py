"""Experiment implementations behind the command-line runner.

Each experiment draws seeded Monte Carlo replications, evaluates its
verification statistics, and returns a :class:`RunReport` of threshold
rows plus the sample vectors the plot emitter consumes.  Replications are
drawn in fixed-size blocks, one PCG64 substream per block keyed by
``(seed, experiment tag, block index)``, and block results are concatenated
in block order, so a report depends only on ``(config, seed)`` and never on
the worker count.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import asdict, astuple, dataclass, field, fields
from functools import partial
from pathlib import Path, PurePath

import numpy as np

from . import __version__
from .config import EXPERIMENTS, ExperimentConfig
from .errors import ConfigError, PathError, RegimeError
from .hull import (
    _PER_DRAW,
    concave_majorant,
    convex_minorant,
    faces_to_rows,
    majorant_stats,
    merge_collinear,
    shape_stats,
    stack_quintuples,
)
from .limitlaws import draw_limit_drift, draw_limit_quadratic, draw_limit_stable
from .models import (
    EXACT_JUMPS,
    BrownianDrift,
    CompoundPoissonDrift,
    Gaussian,
    PathSkeleton,
    StableProcess,
    _phi_cdf,
    norming,
    sample_jump_paths,
    sample_path,
    stable_standard,
    theta,
    theta_fubini,
)
from .rng import substream
from .sbrep import (
    _require_regime,
    normalize_drift,
    normalize_finite_variance,
    normalize_stable,
    regime,
    require_finite_variance,
    sample_quintuple,
)
from .sticks import compensation_estimate, tau_gset_counts
from .stats import (
    _fit_line,
    _tail_points,
    _tail_window,
    ks_distance_to_cdf,
    ks_two_sample,
    tail_slope,
    variance_se,
)

__all__ = ["Row", "RunReport", "run", "write_report", "emit_plot_data", "load_report"]

BLOCK = 512

REPORT_SCHEMA = "levyhull-report/2"

@dataclass(frozen=True)
class Row:
    T: float
    statistic: str
    estimate: float
    se_or_d: float      # standard error or KS distance; NaN when not used
    p_value: float      # NaN for non-KS rows
    threshold: str
    passed: bool


ROW_FIELDS = tuple(f.name for f in fields(Row))
_NUMERIC = ("T", "estimate", "se_or_d", "p_value")

# the coordinates of the stable and heavy-tailed limit theorems, in the
# column order of normalize_stable and draw_limit_stable
COORDINATES = ("length", "sup", "final", "gamma")

# sample-name prefixes of the two sides of a KS pair: hull statistics
# against the stick-breaking sampler, and finite-horizon coordinates
# against the limit law; emit-plot pairs the samples back by them
_HULL_REP, _FINITE_LIMIT = _PAIR_PREFIXES = (("hull_", "rep_"), ("finite_", "limit_"))


@dataclass
class RunReport:
    experiment: str
    rows: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)      # name -> 1-d vector
    tables: dict = field(default_factory=dict)       # name -> (header, 2-d array)
    provenance: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


# ---------------------------------------------------------------------------
# block-parallel drawing
# ---------------------------------------------------------------------------

def _collect_blocks(block_workers, total, workers):
    """Run each ``worker(block_index, block_size)`` of ``block_workers`` over
    the blocks of ``total`` draws, all on one pool; returns per worker the
    batch record of its block records, stacked in block order."""
    plan = list(enumerate(min(BLOCK, total - lo) for lo in range(0, total, BLOCK)))
    if workers <= 1:
        return [stack_quintuples([worker(i, n) for i, n in plan]) for worker in block_workers]
    # imported only for a pool; a forked pool starts all its processes at the first submit
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        futures = [[pool.submit(worker, i, n) for i, n in plan] for worker in block_workers]
        # popped, so that a worker's block records are let go once they are stacked
        return [stack_quintuples([fut.result() for fut in futures.pop(0)]) for _ in block_workers]


def _quintuple_block(index, n, *, model, T, cutoff, seed, tag):
    """Batch record of ``n`` stick-breaking draws on the block's substream."""
    g = substream(seed, tag, index)
    return stack_quintuples(sample_quintuple(model, T, g, cutoff) for _ in range(n))


def _hull_block(index, n, *, model, T, seed, tag):
    """Batch record of the majorants of ``n`` exact jump paths drawn as one
    block on the block's substream."""
    return majorant_stats(sample_jump_paths(model, T, n, substream(seed, tag, index)))


def draw_quintuples(model, T, reps, seed, tag, cutoff, workers=1):
    """Batch :class:`~levyhull.hull.QuintupleSample` of ``reps``
    stick-breaking draws."""
    worker = partial(_quintuple_block, model=model, T=T, cutoff=cutoff, seed=seed, tag=tag)
    return _collect_blocks([worker], reps, workers)[0]


def draw_hull_stats(model, T, reps, seed, tag, workers=1):
    """Batch :class:`~levyhull.hull.QuintupleSample` of the majorants of
    ``reps`` exact jump paths."""
    worker = partial(_hull_block, model=model, T=T, seed=seed, tag=tag)
    return _collect_blocks([worker], reps, workers)[0]


def _draw_record_table(q):
    """Draw-record table (one row per replication) for the report."""
    return ("T", *_PER_DRAW), np.column_stack([np.full(q.upsilon.size, q.horizon), *q[:5]])


def _row_check(T, name, value, threshold, passed, se_or_d=math.nan):
    """Row of a threshold check without a p-value; ``se_or_d`` is the
    value's standard error or KS distance, if it has one."""
    return Row(T, name, value, se_or_d, math.nan, threshold, passed)


def _row_ks(T, name, ks, level=0.01):
    return Row(T, name, ks.statistic, ks.statistic, ks.p_value, f"p > {level}", ks.p_value > level)


def _rows_ks_pairs(rep, T, prefix, sides, names, a, b):
    """KS row ``{prefix}_ks_{name}`` of each sample of ``a`` against the
    one of ``b`` at its place, both kept as samples named by the prefixes
    ``sides``."""
    for name, xa, xb in zip(names, a, b, strict=True):
        rep.rows.append(_row_ks(T, f"{prefix}_ks_{name}", ks_two_sample(xa, xb)))
        rep.samples[sides[0] + name], rep.samples[sides[1] + name] = xa, xb


def _row_ci(T, name, est, se, target, mult=3.0):
    est, se = float(est), float(se)
    return _row_check(T, name, est, f"|value - {target:g}| <= {mult:g}*SE",
                      bool(abs(est - target) <= max(mult * se, 1e-9)), se)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

# criterion 02: row, substream tag and index, f, floor, horizon T and the
# exact value of E sum f(t_n) over the sticks >= floor, the integral of
# f(t)/t over [floor, T]
_COMPENSATION_ROWS = (
    ("compensation_identity", "sb-props-comp", 0, lambda t: t, 0.0, 5.0, 5.0),
    ("compensation_inverse", "sb-props-comp", 1, lambda t: 1.0 / t, 1.0, math.e, 1.0 - 1.0 / math.e),
    ("compensation_invsqrt", "sb-props-comp", 2, lambda t: t**-0.5, 1.0, 100.0,
     2.0 * (1.0 - 100.0**-0.5)),
    ("compensation_logover", "sb-props-comp", 3, lambda t: np.log(t) / t, 1.0, 20.0,
     1.0 - (1.0 + math.log(20.0)) / 20.0),
    ("power_sum_q1", "sb-props-pow", 0, lambda t: np.power(t, -1.0), 1.0, 1e6, 1.0 - 1e6**-1.0),
    ("power_sum_q2", "sb-props-pow", 1, lambda t: np.power(t, -2.0), 1.0, 1e4,
     (1.0 - 1e4**-2.0) / 2.0),
)


def _exp_stick_counts(cfg: ExperimentConfig, rep: RunReport):
    for k, T in enumerate(cfg.t_grid):
        tau_c, gset_c = tau_gset_counts(T, cfg.reps, substream(cfg.seed, "sb-props-tau", k))
        lt = math.log(T)
        x = tau_c.astype(float)
        se_mean = x.std(ddof=1) / math.sqrt(x.size)
        rep.rows.append(_row_ci(T, "tau_mean", x.mean(), se_mean, lt))
        s2, se_var = variance_se(x)
        rep.rows.append(_row_ci(T, "tau_var", s2, se_var, lt))
        excess = (tau_c + 1 - gset_c).astype(float)
        se_e = excess.std(ddof=1) / math.sqrt(excess.size)
        rep.rows.append(_row_ci(T, "gset_excess", excess.mean(), se_e, 1.0))
        nested = float(np.mean(gset_c <= tau_c + 1))
        rep.rows.append(_row_check(T, "gset_nested_share", nested, "== 1", nested == 1.0))


def _exp_compensation(cfg: ExperimentConfig, rep: RunReport):
    for name, tag, k, f, floor, T0, exact in _COMPENSATION_ROWS:
        mean, se = compensation_estimate(f, floor, T0, cfg.reps, substream(cfg.seed, tag, k))
        rep.rows.append(_row_ci(T0, name, mean, se, exact))


def _exp_verify_identity(cfg: ExperimentConfig, rep: RunReport):
    model = cfg.model
    T = cfg.t_grid[-1]
    # one pool for both samplers: the stick blocks queue behind the hull blocks
    hull, quin = _collect_blocks(
        (partial(_hull_block, model=model, T=T, seed=cfg.seed, tag="identity-hull"),
         partial(_quintuple_block, model=model, T=T, cutoff=cfg.cutoff, seed=cfg.seed, tag="identity-rep")),
        cfg.reps, cfg.workers)
    names = ("upsilon", "final", "sup", "gamma")
    _rows_ks_pairs(rep, T, "identity", _HULL_REP, names,
                   (getattr(hull, n) for n in names), (getattr(quin, n) for n in names))
    rep.tables["rep_draws"] = _draw_record_table(quin)


def _clt_draws(cfg, rep):
    """Finite-variance draws: per horizon ``T`` of the grid, ``T`` and the
    six columns of :func:`normalize_finite_variance` of the batch on
    substream ``clt-{k}``, its column 5 kept as ``det_stat_T{k}``."""

    def horizon(k, T):
        q = draw_quintuples(cfg.model, T, cfg.reps, cfg.seed, f"clt-{k}", cfg.cutoff, cfg.workers)
        coords = normalize_finite_variance(cfg.model, q)
        rep.samples[f"det_stat_T{k}"] = coords[:, 5]
        return T, coords

    return (horizon(k, T) for k, T in enumerate(cfg.t_grid))


def _exp_clt_trend(cfg: ExperimentConfig, rep: RunReport):
    draws = _clt_draws(cfg, rep)
    var = cfg.model.variance_rate()
    limit_sd = math.sqrt(3.0) / 2.0 * var
    prev_d = None
    for T, coords in draws:
        det = coords[:, 5]
        d = ks_distance_to_cdf(det, lambda x: _phi_cdf(x / limit_sd))
        trend_ok = True if prev_d is None else d < prev_d
        rep.rows.append(
            _row_check(T, "clt_ks_distance", d, "strictly decreasing along the grid", trend_ok, d)
        )
        prev_d = d
    rep.rows.append(_row_check(T, "clt_ks_final", d, "D < 0.1", d < 0.1, d))
    ratio = float(det.var()) / (0.75 * var * var)
    rep.rows.append(_row_check(T, "clt_variance_ratio", ratio, "within 15% of 1", abs(ratio - 1.0) < 0.15))


def _exp_clt_independence(cfg: ExperimentConfig, rep: RunReport):
    draws = _clt_draws(cfg, rep)
    var = cfg.model.variance_rate()
    for T, coords in draws:
        for name, col in (("sup", 2), ("final", 3), ("gamma", 4)):
            c = float(np.corrcoef(coords[:, 0], coords[:, col])[0, 1])
            rep.rows.append(_row_check(T, f"fluct_corr_{name}", c, "|corr| < 0.1", abs(c) < 0.1))
        # the two centerings differ by half the variance times the count
        # coordinate: an exact linear identity per draw
        recon = coords[:, 0] + 0.5 * var * coords[:, 1]
        err = float(np.abs(coords[:, 5] - recon).max())
        rep.rows.append(_row_check(T, "centering_identity_max_err", err, "<= 1e-9", err <= 1e-9))
        c_id = float(np.corrcoef(coords[:, 5], recon)[0, 1])
        rep.rows.append(
            _row_check(T, "centering_identity_corr", c_id, ">= 1 - 1e-9", c_id >= 1.0 - 1e-9)
        )


def _stable_coordinate_ks(cfg, rep, prefix):
    """KS rows of the finite-horizon coordinates (:func:`normalize_stable`
    of the batch on substream ``{prefix}-rep``) against the limit sampler
    on ``{prefix}-limit``, at the last horizon; the draw record goes into
    ``rep_draws``.  Returns the batch and the limit coordinates: the unit
    law at the model's index and ``limit_beta()``, to which it is normed."""
    model = cfg.model
    T = cfg.t_grid[-1]
    q = draw_quintuples(model, T, cfg.reps, cfg.seed, f"{prefix}-rep", cfg.cutoff, cfg.workers)
    g = substream(cfg.seed, f"{prefix}-limit", 0)
    coords = draw_limit_stable(model.attraction_alpha(), cfg.reps, g, beta=model.limit_beta())
    _rows_ks_pairs(rep, T, prefix, _FINITE_LIMIT, COORDINATES, normalize_stable(model, q).T, coords.T)
    rep.tables["rep_draws"] = _draw_record_table(q)
    return q, coords


def _exp_verify_stable(cfg: ExperimentConfig, rep: RunReport):
    if regime(cfg.model) == "stable-zero-mean":
        _, coords = _stable_coordinate_ks(cfg, rep, "stable")
        rep.tables["limit_draws"] = (COORDINATES, coords)
        return
    model = cfg.model
    T = cfg.t_grid[-1]
    mean = model.mean_rate()
    q = draw_quintuples(model, T, cfg.reps, cfg.seed, "drift-a-rep", cfg.cutoff, cfg.workers)
    length, final = normalize_drift(model, q).T
    cov = np.cov(length, final)
    slope = float(cov[0, 1] / cov[1, 1])
    target = mean / math.sqrt(1.0 + mean * mean)
    rep.rows.append(
        _row_check(T, "drift_regression_slope", slope,
                   f"within 5% of {target:.6f}", abs(slope / target - 1.0) < 0.05)
    )
    lim = draw_limit_drift(model.attraction_alpha(), mean, min(cfg.reps, 2000),
                           substream(cfg.seed, "drift-a-limit", 0), beta=model.limit_beta())
    err = float(np.abs(lim[:, 0] - target * lim[:, 1]).max())
    rep.rows.append(_row_check(T, "limit_rank_one_max_err", err, "<= 1e-12", err <= 1e-12))
    rep.samples["drift_length_fluct"] = length
    rep.samples["drift_final_fluct"] = final


def _exp_verify_heavy(cfg: ExperimentConfig, rep: RunReport):
    q, _ = _stable_coordinate_ks(cfg, rep, "heavy")
    violations = _sandwich_violations(q, norming(cfg.model, q.horizon))
    rep.rows.append(_row_check(q.horizon, "sandwich_violations", float(violations), "== 0", violations == 0))


def _sandwich_violations(q, a_T):
    """Draws outside ``2 sup - final <= upsilon <= T + 2 sup - final``, each
    bound widened by ``1e-9 * a_T`` plus four ulps of the compared values:
    the largest heavy draws lie so far above ``a_T`` that one rounding of
    ``upsilon`` or of ``2 sup - final`` exceeds ``1e-9 * a_T``."""
    lo = 2.0 * q.sup - q.final
    hi = q.horizon + lo
    slack = 1e-9 * a_T + 4.0 * np.spacing(np.maximum(q.upsilon, hi))
    return int(np.count_nonzero((q.upsilon < lo - slack) | (q.upsilon > hi + slack)))


_TAIL_WINDOW = (0.99, 0.9999)   # the quantile window of the tail fit, in its row and its plot


def _exp_tail_index(cfg: ExperimentConfig, rep: RunReport):
    alpha, beta = cfg.model.attraction_alpha(), cfg.model.limit_beta()
    # keep the draws the perpetuity row and the sample read, and the
    # largest ones the tail fit reads, never all of them
    head = np.empty(min(cfg.reps, 200_000))
    need = cfg.reps - _tail_window(cfg.reps, *_TAIL_WINDOW)[0] + 1   # the ranks the fit reads and above
    top = np.empty(0)
    block = 50_000
    for k, start in enumerate(range(0, cfg.reps, block)):
        g = substream(cfg.seed, "tail-q", k)
        draws = draw_limit_quadratic(alpha, min(block, cfg.reps - start), g, beta=beta)
        if start < head.size:
            head[start : start + block] = draws[: head.size - start]
        top = np.concatenate((top, draws))
        if top.size > need:
            top = np.partition(top, top.size - need)[top.size - need :]
    fit = tail_slope(top, *_TAIL_WINDOW, n=cfg.reps)
    target = -alpha / 2.0
    rep.rows.append(
        _row_check(math.nan, "tail_slope", fit.slope, f"within 0.1 of {target}",
                   abs(fit.slope - target) <= 0.1, fit.slope_se)
    )
    # perpetuity reconstruction: one stick and one stable draw on top of an
    # independent copy must reproduce the law
    n = min(cfg.reps // 2, 100_000)
    g = substream(cfg.seed, "tail-perp", 0)
    q = head[:n]
    q_prime = head[n : 2 * n]
    ell1 = g.random(n)
    s1 = stable_standard(alpha, beta, g, n)
    recon = (1.0 - ell1) ** (2.0 / alpha - 1.0) * q_prime + 0.5 * ell1 ** (
        2.0 / alpha - 1.0
    ) * s1 * s1
    ks = ks_two_sample(q, recon)
    rep.rows.append(_row_ks(math.nan, "perpetuity_ks", ks))
    keep = min(cfg.reps, 100_000)
    rep.samples["q_draws"] = head[:keep]
    rep.samples["q_reconstructed"] = recon


def _exp_compare_length(cfg: ExperimentConfig, rep: RunReport):
    model = cfg.model
    if len(cfg.t_grid) < 2:
        raise ConfigError(f"{cfg.experiment} needs at least two horizons")
    sds = []
    for k, T in enumerate(cfg.t_grid):
        q = draw_quintuples(model, T, cfg.reps, cfg.seed, f"cmp-{k}", cfg.cutoff, cfg.workers)
        hut = q.hut_length - T
        maj = normalize_finite_variance(model, q)[:, 5] * math.sqrt(math.log(T))
        tent = q.tent_length - T
        trio = (float(hut.std(ddof=1)), float(maj.std(ddof=1)), float(tent.std(ddof=1)))
        sds.append(trio)
        ordered = trio[0] < trio[1] < trio[2]
        for name, val in zip(("hut", "majorant", "tent"), trio):
            rep.rows.append(_row_check(T, f"sd_{name}", val, "sd_hut < sd_majorant < sd_tent", ordered))
    for (t0, s0), (t1, s1) in zip(zip(cfg.t_grid, sds), zip(cfg.t_grid[1:], sds[1:])):
        r_hut, r_maj, r_tent = (b / a for a, b in zip(s0, s1))
        root_t = math.sqrt(t1 / t0)
        root_log = math.sqrt(math.log(t1) / math.log(t0))
        for name, value, threshold, passed in (
            ("ratio_hut", r_hut, "in [0.8, 1.3] (scale O(1))", 0.8 <= r_hut <= 1.3),
            ("ratio_majorant", r_maj, f"within 25% of sqrt(log ratio) = {root_log:.3f}",
             abs(r_maj / root_log - 1.0) <= 0.25),
            ("ratio_tent", r_tent, f"within 15% of sqrt(T ratio) = {root_t:.3f}",
             abs(r_tent / root_t - 1.0) <= 0.15),
            ("ratio_ordering", r_tent - r_hut, "ratio_hut < ratio_majorant < ratio_tent",
             r_hut < r_maj < r_tent),
        ):
            rep.rows.append(_row_check(t1, name, value, threshold, passed))


def _exp_theta_scan(cfg: ExperimentConfig, rep: RunReport):
    model = cfg.model
    prev_ratio = None
    for T in cfg.t_grid:
        a = theta(model, T)
        b = theta_fubini(model, T)
        rel = abs(a - b) / max(abs(a), 1e-300)
        ratio = a / math.log(T) if T > 1.0 else math.nan
        decreasing = True if prev_ratio is None else ratio < prev_ratio
        for name, value, threshold, passed in (
            ("theta_forms_rel_err", rel, "<= 1e-8", rel <= 1e-8 or (a == 0.0 and b == 0.0)),
            ("theta_over_log", ratio, "strictly decreasing along the grid", decreasing),
            ("theta", a, "reported", True),
        ):
            rep.rows.append(_row_check(T, name, value, threshold, passed))
        if not math.isnan(ratio):
            prev_ratio = ratio


# hull-props path battery ----------------------------------------------------

def _envelope_oracle(times, values, upper=True):
    """Concave/convex envelope: the extreme two-point interpolation over all
    (i, j, k) with ``t_i <= t_k <= t_j``; independent of the monotone chain."""
    t, v = np.asarray(times, dtype=float), np.asarray(values, dtype=float)
    ti, tj, tk = t[:, None, None], t[None, :, None], t[None, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (tk - ti) / (tj - ti)
        cand = (1.0 - lam) * v[:, None, None] + lam * v[None, :, None]
    keep = (ti <= tk) & (tk <= tj) & (ti != tj)
    if upper:
        return np.maximum(v, np.where(keep, cand, -np.inf).max(axis=(0, 1)))
    return np.minimum(v, np.where(keep, cand, np.inf).min(axis=(0, 1)))


def _random_battery_path(g):
    kind = g.integers(0, 4)
    if kind in (0, 2):   # a grid record: T, steps, then the model's parameter
        T = float(g.uniform(0.5, 5.0))
        steps = int(g.integers(4, 40))
        if kind == 0:
            model = BrownianDrift(1.0, mu=float(g.normal(0, 0.5)))
        else:
            alpha = float(g.uniform(0.3, 1.9))
            model = StableProcess(1.2 if abs(alpha - 1.0) < 0.05 else alpha)
        return sample_path(model, T, T / steps, g)
    if kind == 1:
        model = CompoundPoissonDrift(
            float(g.uniform(0.5, 3.0)), Gaussian(0.0, 1.0), mu=float(g.normal(0, 0.5))
        )
        return sample_path(model, float(g.uniform(2.0, 20.0)), EXACT_JUMPS, g)
    # lattice walk with deliberate ties and collinear stretches
    n = int(g.integers(3, 15))
    times = np.arange(n + 1, dtype=float)
    values = np.concatenate([[0.0], np.round(g.standard_normal(n) * 2.0) / 2.0]).cumsum()
    return PathSkeleton(times, values, float(times[-1]))


def _eval_faces(faces, times):
    xs, ys = np.cumsum([(0.0, 0.0), *faces], axis=0).T   # the vertices from (0, 0)
    return np.interp(times, xs, ys)


def _exp_hull_props(cfg: ExperimentConfig, rep: RunReport):
    g = substream(cfg.seed, "hull-props", 0)
    dom = cons = mono = sand = 0
    for _ in range(cfg.reps):
        path = _random_battery_path(g)
        T = path.horizon
        faces = merge_collinear(concave_majorant(path))
        try:
            s = shape_stats(faces, T)
        except PathError:
            cons += 1
            continue
        tol = 1e-9 * max(1.0, float(np.abs(path.values).max()))
        rows = np.array([a for a in (path.values, path.pre_values) if a is not None])
        # 1 per value array (post-jump, pre-jump) that the majorant fails to dominate
        dom += int(np.count_nonzero((_eval_faces(faces, path.times) < rows - tol).any(axis=1)))
        slopes = [f.slope for f in faces]
        if any(b >= a for a, b in zip(slopes, slopes[1:])):
            mono += 1
        if not (s.hut_length <= s.upsilon + 1e-9 and s.upsilon <= s.tent_length + 1e-9):
            sand += 1
        if not (T <= s.upsilon + 1e-9):
            sand += 1
    for name, count in (
        ("domination_violations", dom),
        ("conservation_violations", cons),
        ("monotonicity_violations", mono),
        ("sandwich_violations", sand),
    ):
        rep.rows.append(_row_check(math.nan, name, float(count), "== 0", count == 0))
    # ten-point brute-force equivalence
    g2 = substream(cfg.seed, "hull-oracle", 0)
    mismatches = 0
    n_oracle = min(cfg.reps, 2000)
    for _ in range(n_oracle):
        times = np.concatenate([[0.0], np.sort(g2.random(8)) * 0.8 + 0.1, [1.0]])
        values = np.concatenate([[0.0], g2.standard_normal(9)])
        path = PathSkeleton(times, values, 1.0)
        for hull, upper in ((concave_majorant, True), (convex_minorant, False)):
            envelope = _envelope_oracle(times, values, upper)
            mismatches += not np.allclose(_eval_faces(hull(path), times), envelope, rtol=0.0, atol=1e-12)
    rep.rows.append(
        _row_check(math.nan, "oracle_mismatches", float(mismatches),
                   f"== 0 over {n_oracle} ten-point paths", mismatches == 0)
    )
    # one representative maximal-face set in the l/h/slope serialization
    gf = substream(cfg.seed, "hull-faces", 0)
    demo_model = CompoundPoissonDrift(1.0, Gaussian(0.0, 1.0), mu=0.3)
    demo = merge_collinear(concave_majorant(sample_path(demo_model, 30.0, EXACT_JUMPS, gf)))
    rep.tables["representative_faces"] = (("l", "h", "slope"), np.array(faces_to_rows(demo)))


# the runner of each experiment, in the order of config.EXPERIMENTS, and what its
# model must be: None (no model), "model" (any), EXACT_JUMPS, or a tuple of regimes
_DISPATCH = dict(zip(EXPERIMENTS, (
    (_exp_stick_counts, None),
    (_exp_compensation, None),
    (_exp_verify_identity, EXACT_JUMPS),
    (_exp_clt_trend, ("finite-variance",)),
    (_exp_clt_independence, ("finite-variance",)),
    (_exp_verify_stable, ("stable-zero-mean", "drift-a")),
    (_exp_verify_heavy, ("heavy",)),
    (_exp_tail_index, ("stable-zero-mean",)),
    (_exp_compare_length, ("finite-variance",)),
    (_exp_theta_scan, "model"),
    (_exp_hull_props, None),
), strict=True))


def _check_model(cfg, needs):
    """Refuse, as a :class:`ConfigError`, a model that does not meet the
    requirement ``needs`` of :data:`_DISPATCH`.  The finite-variance regime
    must hold at every horizon: the grid increases, so its first decides."""
    if needs == EXACT_JUMPS and not isinstance(cfg.model, CompoundPoissonDrift):
        raise ConfigError(f"{cfg.experiment} needs a compound Poisson model (exact jump paths)")
    if needs and cfg.model is None:
        raise ConfigError(f"{cfg.experiment} needs a model")
    if needs is None and cfg.model is not None:
        raise ConfigError(f"{cfg.experiment} takes no model")
    try:
        if isinstance(needs, tuple) and _require_regime(cfg.model, *needs) == "finite-variance":
            require_finite_variance(cfg.model, cfg.t_grid[0])
    except RegimeError as exc:
        raise ConfigError(f"{cfg.experiment}: {exc}") from None


def _config_hash(cfg: ExperimentConfig) -> str:
    """Hash of what identifies the experiment; the worker count and the
    output directory change neither its draws nor its report."""
    params = asdict(cfg)
    del params["workers"], params["out"]
    blob = json.dumps({k: repr(v) for k, v in params.items()}, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run(cfg: ExperimentConfig) -> RunReport:
    """Execute one experiment; deterministic given (config, seed)."""
    report = RunReport(cfg.experiment)
    runner, needs = _DISPATCH[cfg.experiment]
    _check_model(cfg, needs)   # before the runner draws anything
    runner(cfg, report)
    report.provenance = {
        "seed": cfg.seed,
        "config_hash": _config_hash(cfg),
        "experiment": cfg.experiment,
        "package_version": __version__,
        "numpy_version": np.__version__,
    }
    return report


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _csv_text(header, rows):
    """CSV text of a header and rows.  csv writes a float as its ``repr``, so
    pass numpy values as Python floats (``tolist``): theirs is not a number."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _plain(v):
    """A row value as JSON holds it: NaN as None, numpy scalars as Python's."""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    return None if math.isnan(v) else float(v)


def report_csv_body(report: RunReport) -> str:
    """report.csv: the row fields, a missing value left blank and the
    verdict written pass or FAIL."""
    header = (*ROW_FIELDS[:-1], "verdict")
    return _csv_text(header, ([("pass" if v else "FAIL") if isinstance(v, bool) else v
                               for v in map(_plain, astuple(r))] for r in report.rows))


def _output_dir(outdir, what, make=True) -> Path:
    """``outdir`` as a :class:`~pathlib.Path`, made with its parents when
    ``make`` is true.  A path that is, or runs through, a file is a
    :class:`PathError` saying that ``what`` cannot be written there; without
    ``make`` the nearest part of the path that exists is checked, and
    nothing is made."""
    out = Path(outdir)
    try:
        if make:
            out.mkdir(parents=True, exist_ok=True)
        elif not next(p for p in (out, *out.parents) if p.exists()).is_dir():
            raise NotADirectoryError
    except (FileExistsError, NotADirectoryError):
        raise PathError(f"cannot write {what} to {out}: not a directory") from None
    return out


def _report_dir(outdir, make=True) -> Path:
    """:func:`_output_dir` of a report, which refuses a ``samples`` that is no directory too."""
    out = _output_dir(outdir, "a report", make)
    if (out / "samples").exists() and not (out / "samples").is_dir():
        raise PathError(f"cannot write a report to {out}: samples is not a directory")
    return out


def write_report(report: RunReport, outdir) -> Path:
    """Write report.csv, report.json and each sample vector and table as
    ``samples/<name>.npy`` (float64, :func:`numpy.save`); report.json
    names each file and each table's columns.  Returns the JSON path.  A
    file that cannot be written, such as a ``samples`` that is a file, is a
    :class:`PathError`."""
    out = _report_dir(outdir)

    def save(name, arr):
        rel = f"samples/{name}.npy"
        np.save(out / rel, np.ascontiguousarray(arr, dtype=float), allow_pickle=False)
        return rel

    try:
        (out / "report.csv").write_text(report_csv_body(report))
        if report.samples or report.tables:
            (out / "samples").mkdir(exist_ok=True)
        payload = {
            "schema": REPORT_SCHEMA,
            "experiment": report.experiment,
            "passed": report.passed,
            "rows": [dict(zip(ROW_FIELDS, map(_plain, astuple(r)))) for r in report.rows],
            "samples": {name: save(name, vec) for name, vec in sorted(report.samples.items())},
            "tables": {name: {"path": save(name, mat), "columns": list(header)}
                       for name, (header, mat) in sorted(report.tables.items())},
            "provenance": report.provenance,
        }
        path = out / "report.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    except OSError as exc:
        raise PathError(f"cannot write a report to {out}: {type(exc).__name__} {exc}") from None
    return path


def load_report(json_path) -> RunReport:
    """Reload a written report with its sample vectors and tables; a
    missing or corrupt file, or a missing or malformed field, is a
    :class:`PathError`."""
    path = Path(json_path)

    def row(r):   # a number or null (NaN), a string or a boolean, by type: a boolean is no number
        values = [math.nan if r[k] is None and k in _NUMERIC else r[k] for k in ROW_FIELDS]
        for k, v in zip(ROW_FIELDS, values):
            if type(v) not in ((int, float) if k in _NUMERIC else (bool,) if k == "passed" else (str,)):
                raise PathError(f"cannot load report {json_path}: malformed row: {k} = {v!r}")
        return Row(*(float(v) if k in _NUMERIC else v for k, v in zip(ROW_FIELDS, values)))

    def load(rel):
        inside = PurePath(rel)
        if inside.is_absolute() or ".." in inside.parts:
            raise PathError(f"{json_path} names a file outside its directory: {rel!r}")
        return np.load(path.parent / rel, allow_pickle=False)

    try:
        payload = json.loads(path.read_text())
        if payload.get("schema") != REPORT_SCHEMA:
            raise PathError(f"unrecognized report schema in {json_path}")
        return RunReport(
            payload["experiment"],
            rows=[row(r) for r in payload["rows"]],
            samples={name: load(rel) for name, rel in payload["samples"].items()},
            tables={name: (tuple(t["columns"]), load(t["path"])) for name, t in payload["tables"].items()},
            provenance=payload.get("provenance", {}),
        )
    except PathError:
        raise
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise PathError(f"cannot load report {json_path}: {type(exc).__name__} {exc}") from None


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------

# plot kind -> the CSV tables it writes for a report, by file name
_PLOTS = {
    "ecdf-pair": lambda report: {f"ecdf_{s}.csv": _ecdf_pair(report.samples, a, b)
                                 for s, a, b in _paired_samples(report)},
    "qq": lambda report: {f"qq_{s}.csv": _qq(report.samples[a], report.samples[b])
                          for s, a, b in _paired_samples(report)},
    "tail-loglog": lambda report: {"tail_loglog.csv": _tail_loglog(report.samples)},
    "scaling-table": lambda report: {"scaling_table.csv": _scaling_table(report.rows)},
}
PLOT_KINDS = tuple(_PLOTS)


def emit_plot_data(report: RunReport, kind: str, outdir) -> list:
    """Write plain CSV plot data for external plotting; returns the paths."""
    if kind not in _PLOTS:
        raise ConfigError(f"unknown plot kind {kind!r}; choose from {PLOT_KINDS}")
    tables = _PLOTS[kind](report)
    out = _output_dir(outdir, "plot data")
    for name, (header, rows) in tables.items():
        (out / name).write_text(_csv_text(header, rows))
    return [out / name for name in tables]


def _paired_samples(report):
    pairs = []
    for name in sorted(report.samples):
        for a_pre, b_pre in _PAIR_PREFIXES:
            if name.startswith(a_pre):
                other = b_pre + name[len(a_pre):]
                if other in report.samples:
                    pairs.append((name[len(a_pre):], name, other))
    if not pairs:
        raise PathError("report holds no paired samples for a two-curve plot")
    return pairs


def _ecdf_pair(samples, name_a, name_b):
    rows = []
    for label in (name_a, name_b):
        xs = np.sort(np.asarray(samples[label], dtype=float)).tolist()
        rows += [(label, x, i / len(xs)) for i, x in enumerate(xs, 1)]
    return ("sample", "x", "ecdf"), rows


def _qq(xa, xb):
    qs = np.linspace(0.005, 0.995, 199)
    return ("q", "x_a", "x_b"), zip(qs.tolist(), np.quantile(xa, qs).tolist(), np.quantile(xb, qs).tolist())


def _tail_loglog(samples):
    q = samples.get("q_draws")
    if q is None:
        raise PathError("report holds no tail sample (expected 'q_draws')")
    lx, lsf = _tail_points(q, *_TAIL_WINDOW)
    slope, intercept = _fit_line(lx, lsf)
    return ("log_x", "log_sf", "fit"), zip(lx.tolist(), lsf.tolist(), (intercept + slope * lx).tolist())


def _scaling_table(rows):
    by_t = {}
    for r in rows:
        if r.statistic.startswith("sd_"):
            by_t.setdefault(r.T, {})[r.statistic] = r.estimate
    if not by_t:
        raise PathError("report holds no sd_* rows (run compare-length first)")
    header = ("T", "sd_hut", "sd_majorant", "sd_tent", "hut_over_1", "majorant_over_sqrtlog",
              "tent_over_sqrtT")
    for T, d in by_t.items():
        if not (1.0 < T < math.inf and d.keys() >= set(header[1:4])):
            raise PathError(f"no scaling table: the sd_* rows at T = {T!r} need a finite T > 1 "
                            f"and the rows {', '.join(header[1:4])}, got {', '.join(sorted(d))}")
    return header, [(T, d["sd_hut"], d["sd_majorant"], d["sd_tent"], d["sd_hut"],
                     d["sd_majorant"] / math.sqrt(math.log(T)), d["sd_tent"] / math.sqrt(T))
                    for T, d in sorted(by_t.items())]
