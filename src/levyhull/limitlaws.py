"""Independent samplers for the right-hand-side limit laws, used as the
reference side of the two-sample tests.

Every series limit is sampled by truncating its stick-breaking series at
unit-interval remainder ``L_N < eps``.  Where the law permits (the Brownian
triple) the remainder folds in exactly as one Gaussian term of variance
``L_N``; elsewhere the remainder enters as one aggregated term on a stick
of length ``L_N`` and a per-draw truncation figure is reported:

* Gaussian series: ``8 * sqrt(L_N)``, an envelope at roughly the 1e-8
  level for the coordinate changes under further refinement;
* stable series with index ``alpha``: ``ENVELOPE * L_N^p`` with ``p`` the
  series weight exponent.  The omitted mass is heavy-tailed with infinite
  mean, so no almost-sure bound exists; the envelope constant is sized so
  refinement stays below the figure except with probability well under
  1e-4 per draw.

Scalar samplers interleave the draws per stick (uniform first, then the
driving variable), so rerunning with a smaller ``eps`` on a fresh stream
with the same seed extends the same record; the batch samplers vectorize
across draws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .models import stable_standard
from .sticks import stick_matrix

__all__ = [
    "LimitSample",
    "sample_limit_finite_variance",
    "sample_limit_stable_zero_mean",
    "sample_limit_heavy",
    "sample_limit_drift",
    "sample_limit_envelopes",
    "perpetuity_tail_constant",
    "draw_limit_finite_variance",
    "draw_limit_stable_zero_mean",
    "draw_limit_heavy",
    "draw_limit_envelopes_stable",
]

DEFAULT_EPS = 1e-6

# multiplies the remainder scale L^p of heavy-tailed series; see module doc
STABLE_ENVELOPE = 1e7
HEAVY_ENVELOPE = 1e10


@dataclass(frozen=True)
class LimitSample:
    """One draw of a limit vector with its truncation bookkeeping."""

    regime: str
    coords: np.ndarray
    eps: float
    truncation_bound: float
    missing: tuple = ()


def _check_eps(eps):
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"eps must lie in (0, 1), got {eps}")


# ---------------------------------------------------------------------------
# finite-variance limit: (sigma^2/sqrt2 Z1, Z2, sigma Bbar, sigma B1, rho)
# ---------------------------------------------------------------------------

def sample_limit_finite_variance(sigma, rng, eps=DEFAULT_EPS):
    """Quintuple limit of the finite-variance regime.

    Z1, Z2 are independent standard normals; the Brownian triple
    (running maximum, endpoint, argmax time) comes from the Gaussian
    stick-breaking series with the remainder folded in as one Gaussian
    term of variance ``L_N``, which keeps the endpoint coordinate exact.
    """
    if not sigma > 0.0:
        raise ParameterError(f"sigma must be > 0, got {sigma}")
    _check_eps(eps)
    z1 = rng.standard_normal()
    z2 = rng.standard_normal()
    L = 1.0
    sup = fin = pos = tot = 0.0
    while L >= eps:
        ell = rng.random() * L
        L -= ell
        x = math.sqrt(ell) * rng.standard_normal()
        fin += x
        tot += ell
        if x > 0.0:
            sup += x
            pos += ell
    x = math.sqrt(L) * rng.standard_normal()
    fin += x
    tot += L
    if x > 0.0:
        sup += x
        pos += L
    rho = pos / tot
    coords = np.array([sigma**2 / math.sqrt(2.0) * z1, z2, sigma * sup, sigma * fin, rho])
    return LimitSample("finite-variance", coords, eps, 8.0 * math.sqrt(L))


def draw_limit_finite_variance(sigma, n, rng, eps=DEFAULT_EPS):
    """Vectorized batch of finite-variance limit draws; returns (coords, bounds)."""
    if not sigma > 0.0:
        raise ParameterError(f"sigma must be > 0, got {sigma}")
    _check_eps(eps)
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    ell, rem = stick_matrix(n, 1.0, eps, rng)
    x = np.sqrt(ell) * rng.standard_normal(ell.shape)
    xr = np.sqrt(rem) * rng.standard_normal(n)
    pos_x = x > 0.0
    sup = np.where(pos_x, x, 0.0).sum(axis=1) + np.where(xr > 0.0, xr, 0.0)
    fin = x.sum(axis=1) + xr
    pos = (ell * pos_x).sum(axis=1) + rem * (xr > 0.0)
    tot = ell.sum(axis=1) + rem
    rho = pos / tot
    coords = np.column_stack(
        [sigma**2 / math.sqrt(2.0) * z1, z2, sigma * sup, sigma * fin, rho]
    )
    return coords, 8.0 * np.sqrt(rem)


# ---------------------------------------------------------------------------
# zero-mean stable limit, index in (1, 2)
# ---------------------------------------------------------------------------

def sample_limit_stable_zero_mean(alpha, rng, eps=DEFAULT_EPS):
    """Quadruple limit of the zero-mean infinite-variance regime: the
    quadratic length series plus the supremum/endpoint/argmax series, all
    driven by one stick sequence."""
    if not 1.0 < alpha < 2.0:
        raise ParameterError(f"alpha must lie in (1, 2), got {alpha}")
    _check_eps(eps)
    p_len = 2.0 / alpha - 1.0
    p_pos = 1.0 / alpha
    L = 1.0
    q = sup = fin = pos = tot = 0.0
    while L >= eps:
        ell = rng.random() * L
        L -= ell
        s = float(stable_standard(alpha, 0.0, rng))
        q += 0.5 * ell**p_len * s * s
        w = ell**p_pos * s
        fin += w
        if s > 0.0:
            sup += w
            pos += ell
        tot += ell
    s = float(stable_standard(alpha, 0.0, rng))
    q += 0.5 * L**p_len * s * s
    w = L**p_pos * s
    fin += w
    if s > 0.0:
        sup += w
        pos += L
    tot += L
    coords = np.array([q, sup, fin, pos / tot])
    return LimitSample("stable-zero-mean", coords, eps, STABLE_ENVELOPE * L**p_len)


def draw_limit_stable_zero_mean(alpha, n, rng, eps=DEFAULT_EPS, beta=0.0):
    """Vectorized batch of zero-mean stable limit draws; returns (coords, bounds)."""
    if not 1.0 < alpha < 2.0:
        raise ParameterError(f"alpha must lie in (1, 2), got {alpha}")
    _check_eps(eps)
    ell, rem = stick_matrix(n, 1.0, eps, rng)
    s = stable_standard(alpha, beta, rng, ell.shape)
    sr = stable_standard(alpha, beta, rng, n)
    return _stable_series_coords(alpha, ell, rem, s, sr)


def _stable_series_coords(alpha, ell, rem, s, sr):
    p_len = 2.0 / alpha - 1.0
    p_pos = 1.0 / alpha
    q = 0.5 * ((ell**p_len * s * s).sum(axis=1) + rem**p_len * sr * sr)
    w = ell**p_pos * s
    wr = rem**p_pos * sr
    sup = np.where(s > 0.0, w, 0.0).sum(axis=1) + np.where(sr > 0.0, wr, 0.0)
    fin = w.sum(axis=1) + wr
    pos = (ell * (s > 0.0)).sum(axis=1) + rem * (sr > 0.0)
    tot = ell.sum(axis=1) + rem
    coords = np.column_stack([q, sup, fin, pos / tot])
    return coords, STABLE_ENVELOPE * rem**p_len


def perpetuity_tail_constant(alpha):
    """Tail-equivalence constant ``2^(1 - alpha/2) / (2 - alpha)`` of the
    quadratic length series relative to a squared stable draw."""
    if not 1.0 < alpha < 2.0:
        raise ParameterError(f"alpha must lie in (1, 2), got {alpha}")
    return 2.0 ** (1.0 - alpha / 2.0) / (2.0 - alpha)


# ---------------------------------------------------------------------------
# heavy limit, index in (0, 1): joint majorant/minorant vectors
# ---------------------------------------------------------------------------

def sample_limit_heavy(alpha, rng, eps=DEFAULT_EPS, beta=0.0):
    """Joint eight-coordinate limit driven by one stick/stable sequence.

    Coordinates 1-4 are the majorant block (twice-sup-minus-endpoint,
    supremum, endpoint, argmax share); 5-8 the minorant block with the
    infimum as the negative-part series and the complementary time share.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    _check_eps(eps)
    p = 1.0 / alpha
    L = 1.0
    pos_sum = neg_sum = pos_t = tot = 0.0
    while L >= eps:
        ell = rng.random() * L
        L -= ell
        s = float(stable_standard(alpha, beta, rng))
        w = ell**p * s
        if s > 0.0:
            pos_sum += w
            pos_t += ell
        else:
            neg_sum -= w
        tot += ell
    s = float(stable_standard(alpha, beta, rng))
    w = L**p * s
    if s > 0.0:
        pos_sum += w
        pos_t += L
    else:
        neg_sum -= w
    tot += L
    fin = pos_sum - neg_sum
    share = pos_t / tot
    coords = np.array(
        [
            pos_sum + neg_sum,   # 2*sup - final
            pos_sum,             # sup
            fin,                 # final
            share,               # argmax time
            pos_sum + neg_sum,   # final - 2*inf equals the same series
            -neg_sum,            # inf
            fin,
            1.0 - share,
        ]
    )
    return LimitSample("heavy", coords, eps, HEAVY_ENVELOPE * L**p)


def draw_limit_heavy(alpha, n, rng, eps=DEFAULT_EPS, beta=0.0):
    """Vectorized batch of heavy-index limit draws; returns (coords, bounds)."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    _check_eps(eps)
    p = 1.0 / alpha
    ell, rem = stick_matrix(n, 1.0, eps, rng)
    s = stable_standard(alpha, beta, rng, ell.shape)
    sr = stable_standard(alpha, beta, rng, n)
    w = ell**p * s
    wr = rem**p * sr
    pos_sum = np.where(s > 0.0, w, 0.0).sum(axis=1) + np.where(sr > 0.0, wr, 0.0)
    neg_sum = np.where(s < 0.0, -w, 0.0).sum(axis=1) + np.where(sr < 0.0, -wr, 0.0)
    pos_t = (ell * (s > 0.0)).sum(axis=1) + rem * (sr > 0.0)
    tot = ell.sum(axis=1) + rem
    fin = pos_sum - neg_sum
    share = pos_t / tot
    coords = np.column_stack(
        [
            pos_sum + neg_sum,
            pos_sum,
            fin,
            share,
            pos_sum + neg_sum,
            -neg_sum,
            fin,
            1.0 - share,
        ]
    )
    return coords, HEAVY_ENVELOPE * rem**p


# ---------------------------------------------------------------------------
# nonzero-mean limit, index in (1, 2]
# ---------------------------------------------------------------------------

def sample_limit_drift(alpha, mu, case, rng, scale=1.0):
    """Rank-one limit of the drift regime.

    Case "a": one stable draw through the coefficient vector
    ``(mu / sqrt(1 + mu^2), 1, 1)``.  Case "b": the length and endpoint
    coordinates carry the stable draw; the supremum and its time have no
    closed-form limit law and are flagged as externally supplied
    (``missing`` holds their 1-based positions, the entries are NaN).
    """
    if case not in ("a", "b"):
        raise ParameterError(f"case must be 'a' or 'b', got {case!r}")
    if case == "a" and not mu > 0.0:
        raise ParameterError("case 'a' needs mu > 0")
    if case == "b" and not mu < 0.0:
        raise ParameterError("case 'b' needs mu < 0")
    if not (1.0 < alpha <= 2.0):
        raise ParameterError(f"alpha must lie in (1, 2], got {alpha}")
    s = scale * float(stable_standard(alpha, 0.0, rng))
    coef = mu / math.sqrt(1.0 + mu * mu)
    if case == "a":
        coords = np.array([coef * s, s, s])
        return LimitSample("drift-a", coords, 0.0, 0.0)
    coords = np.array([coef * s, math.nan, s, math.nan])
    return LimitSample("drift-b", coords, 0.0, 0.0, missing=(2, 4))


# ---------------------------------------------------------------------------
# envelope-length comparison limits
# ---------------------------------------------------------------------------

def sample_limit_envelopes(case, rng, eps=DEFAULT_EPS, sigma=1.0, alpha=1.5):
    """Limit triple (hut, majorant, tent) of the centered length comparison.

    Case "a" (finite variance): the hut coordinate is the quadratic
    functional of the Brownian triple, the majorant coordinate an
    independent normal, the tent coordinate the linear functional.  Case
    "b" (index in (1, 2)): three series off one stick/stable sequence.
    Case "c" (index in (0, 1)): one scalar times (1, 1, 1).
    """
    if case == "a":
        if not sigma > 0.0:
            raise ParameterError(f"sigma must be > 0, got {sigma}")
        _check_eps(eps)
        while True:
            coords, bound = draw_limit_finite_variance(sigma, 1, rng, eps)
            sup, fin, rho = coords[0, 2] / sigma, coords[0, 3] / sigma, coords[0, 4]
            if 0.0 < rho < 1.0:
                break  # an endpoint share would divide by zero; resample
        z = rng.standard_normal()
        hut = 0.5 * sigma**2 * (sup**2 / rho + (sup - fin) ** 2 / (1.0 - rho))
        maj = math.sqrt(3.0) / 2.0 * sigma**2 * z
        tent = sigma * (2.0 * sup - fin)
        return LimitSample("envelopes-a", np.array([hut, maj, tent]), eps, float(bound[0]))
    if case == "b":
        coords, bound = draw_limit_envelopes_stable(alpha, 1, rng, eps)
        return LimitSample("envelopes-b", coords[0], eps, float(bound[0]))
    if case == "c":
        if not 0.0 < alpha < 1.0:
            raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
        _check_eps(eps)
        coords, bound = draw_limit_heavy(alpha, 1, rng, eps)
        v = coords[0, 0]  # 2*sup - final
        return LimitSample("envelopes-c", np.array([v, v, v]), eps, float(bound[0]))
    raise ParameterError(f"case must be one of 'a', 'b', 'c', got {case!r}")


def draw_limit_envelopes_stable(alpha, n, rng, eps=DEFAULT_EPS):
    """Vectorized case-b triples; returns (coords, bounds)."""
    if not 1.0 < alpha < 2.0:
        raise ParameterError(f"alpha must lie in (1, 2), got {alpha}")
    _check_eps(eps)
    p = 1.0 / alpha
    p_len = 2.0 / alpha - 1.0
    ell, rem = stick_matrix(n, 1.0, eps, rng)
    s = stable_standard(alpha, 0.0, rng, ell.shape)
    sr = stable_standard(alpha, 0.0, rng, n)
    w = ell**p * s
    wr = rem**p * sr
    pos = np.where(s > 0.0, w, 0.0).sum(axis=1) + np.where(sr > 0.0, wr, 0.0)
    neg = np.where(s < 0.0, -w, 0.0).sum(axis=1) + np.where(sr < 0.0, -wr, 0.0)
    hut = 0.5 * (pos**2 + neg**2)
    maj = 0.5 * ((ell**p_len * s * s).sum(axis=1) + rem**p_len * sr * sr)
    tent = pos + neg
    return np.column_stack([hut, maj, tent]), STABLE_ENVELOPE * rem**p_len
