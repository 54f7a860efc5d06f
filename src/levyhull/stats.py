"""Statistical machinery for the verification suite: the two-sample
Kolmogorov-Smirnov test with asymptotic p-values, variance standard
errors, and heavy-tail slope estimation."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SampleSizeError

__all__ = [
    "KsResult",
    "TailFitResult",
    "ks_two_sample",
    "ks_distance_to_cdf",
    "kolmogorov_pvalue",
    "variance_se",
    "tail_slope",
]

_MIN_KS_SIZE = 35


@dataclass(frozen=True)
class KsResult:
    statistic: float
    n: int
    m: int
    p_value: float


@dataclass(frozen=True)
class TailFitResult:
    slope: float
    intercept: float
    q_lo: float
    q_hi: float
    slope_se: float
    n_points: int


def kolmogorov_pvalue(lam):
    """Asymptotic Kolmogorov survival value
    ``2 * sum_k (-1)^(k-1) exp(-2 k^2 lam^2)``, truncated once terms drop
    below 1e-12; clipped to [0, 1].  NaN gives NaN."""
    if math.isnan(lam):
        return math.nan
    if lam <= 0.0:
        return 1.0
    total = 0.0
    sign = 1.0
    k = 1
    while True:
        term = math.exp(-2.0 * k * k * lam * lam)
        total += sign * term
        if term < 1e-12 or k > 100_000:
            break
        sign = -sign
        k += 1
    return min(1.0, max(0.0, 2.0 * total))


def _sorted_sample(x, name):
    """``x`` sorted as float64; a NaN raises :class:`ParameterError`, since
    the ECDF of a sample holding one is undefined (``±inf`` is kept)."""
    x = np.sort(np.asarray(x, dtype=float))
    if x.size and np.isnan(x[-1]):  # np.sort puts NaN last
        raise ParameterError(
            f"{name} holds {int(np.isnan(x).sum())} NaN value(s) among {x.size} points"
        )
    return x


def ks_two_sample(x, y) -> KsResult:
    """Two-sample KS test: exact sup-distance between the step ECDFs by a
    merged scan, asymptotic p-value at ``D * sqrt(nm / (n + m))``.  A NaN in
    either sample raises :class:`ParameterError`."""
    x = _sorted_sample(x, "x")
    y = _sorted_sample(y, "y")
    n, m = x.size, y.size
    if n < _MIN_KS_SIZE or m < _MIN_KS_SIZE:
        raise SampleSizeError(
            f"need at least {_MIN_KS_SIZE} points per sample for the asymptotic "
            f"p-value, got {n} and {m}"
        )
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / n
    fy = np.searchsorted(y, grid, side="right") / m
    d = float(np.abs(fx - fy).max())
    lam = d * math.sqrt(n * m / (n + m))
    return KsResult(d, n, m, kolmogorov_pvalue(lam))


def ks_distance_to_cdf(x, cdf):
    """Sup-distance between the sample ECDF and a given continuous CDF.  A
    NaN in the sample raises :class:`ParameterError`."""
    x = _sorted_sample(x, "x")
    n = x.size
    if n < 1:
        raise SampleSizeError("empty sample")
    f = cdf(x)
    hi = np.arange(1, n + 1) / n - f
    lo = f - np.arange(0, n) / n
    return float(max(hi.max(), lo.max()))


def variance_se(samples):
    """Sample variance and its large-sample standard error
    ``sqrt((m4 - s^4) / n)``."""
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise SampleSizeError("need at least 2 points")
    s2 = x.var(ddof=1)
    m4 = ((x - x.mean()) ** 4).mean()
    return float(s2), float(math.sqrt(max(m4 - s2 * s2, 0.0) / x.size))


def _tail_points(samples, q_lo, q_hi):
    """The ``(log x, log(1 - ECDF))`` points that :func:`tail_slope` fits:
    the positive order statistics of ranks ``r`` with
    ``q_lo <= r / n <= q_hi``, at survival ``(n - r) / n``."""
    if not 0.0 < q_lo < q_hi < 1.0:
        raise SampleSizeError(f"need 0 < q_lo < q_hi < 1, got {q_lo}, {q_hi}")
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    # the ranks r < n with q_lo <= r / n <= q_hi form one run, which starts
    # and ends within one of the rounded products q * n
    lo = next((r for r in range(max(math.ceil(q_lo * n) - 1, 1), n) if r / n >= q_lo), n)
    hi = next((r for r in range(min(math.floor(q_hi * n) + 1, n - 1), 0, -1) if r / n <= q_hi), 0)
    ranks = np.arange(lo, hi + 1)
    keep = x[lo - 1 : hi] > 0.0
    k = int(keep.sum())
    if k < 50:
        raise SampleSizeError(f"tail window [{q_lo}, {q_hi}] holds {k} points; need >= 50")
    return np.log(x[lo - 1 : hi][keep]), np.log((n - ranks[keep]) / n)


def tail_slope(samples, q_lo=0.99, q_hi=0.9999) -> TailFitResult:
    """Least-squares slope of ``log(1 - ECDF)`` against ``log x`` over the
    order statistics between the two upper quantiles.

    For a survival function ``c * x^-a`` the slope estimates ``-a``.  The
    window is quantile-based, so the slope is invariant under positive
    scaling of the sample.
    """
    lx, ly = _tail_points(samples, q_lo, q_hi)
    k = lx.size
    mx = lx.mean()
    sxx = ((lx - mx) ** 2).sum()
    slope = ((lx - mx) * ly).sum() / sxx
    intercept = ly.mean() - slope * mx
    resid = ly - intercept - slope * lx
    se = math.sqrt(resid @ resid / max(k - 2, 1) / sxx)
    return TailFitResult(float(slope), float(intercept), q_lo, q_hi, se, int(k))
