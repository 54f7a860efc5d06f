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
  1e-4 per draw.  For index below 1 (``p > 1``) the figure also carries
  ``L_N + 1e-12`` for the argmax shares, which move by up to ``L_N`` and
  by rounding.

Each series is a row reduction of one :func:`~levyhull.sticks.stick_matrix`
record per batch.  The record grows in blocks of columns: a block's
uniforms, then that block's driving variables (Gaussian or stable), then
the next block; the remainder's variable is drawn last.  A smaller ``eps``
on a fresh stream with the same seed therefore appends blocks to the same
record, which is what the refinement checks compare.  The
``sample_limit_*`` functions are one-draw views of the ``draw_limit_*``
batches.
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


def _series(n, eps, rng, draw, terms):
    """Row sums of a stick-breaking series on the unit interval.

    ``draw(shape)`` gives one driving variable per stick and
    ``terms(ell, x)`` maps sticks and their variables to ``k`` summand
    arrays shaped like ``ell``.  Sticks come from :func:`stick_matrix` cut
    at ``eps``, each block's variables drawn right after its uniforms; the
    remainder enters last as one more stick.  Returns the ``(k, n)`` sums
    and the remainder.
    """
    sums = 0.0

    def drive(ell):
        nonlocal sums
        x = draw(ell.T.shape).T   # column-major like the sticks, so the terms run on one layout
        sums = sums + np.array([y.sum(axis=-1) for y in terms(ell, x)])

    _, rem = stick_matrix(n, 1.0, eps, rng, drive)
    drive(rem[:, None])
    return sums, rem


# ---------------------------------------------------------------------------
# finite-variance limit: (sigma^2/sqrt2 Z1, Z2, sigma Bbar, sigma B1, rho)
# ---------------------------------------------------------------------------

def _gaussian_terms(ell, z):
    x = np.sqrt(ell) * z
    up = x > 0.0
    return np.where(up, x, 0.0), x, ell * up, ell


def draw_limit_finite_variance(sigma, n, rng, eps=DEFAULT_EPS):
    """Batch of ``n`` finite-variance quintuple limit draws; returns
    ``(coords, bounds)`` with ``coords`` of shape ``(n, 5)``.

    Z1, Z2 are independent standard normals drawn first; the Brownian
    triple (running maximum, endpoint, argmax time) comes from the Gaussian
    stick-breaking series with the remainder folded in as one Gaussian term
    of variance ``L_N``, which keeps the endpoint coordinate exact.
    """
    if not sigma > 0.0:
        raise ParameterError(f"sigma must be > 0, got {sigma}")
    _check_eps(eps)
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    (sup, fin, pos, tot), rem = _series(n, eps, rng, rng.standard_normal, _gaussian_terms)
    coords = np.column_stack(
        [sigma**2 / math.sqrt(2.0) * z1, z2, sigma * sup, sigma * fin, pos / tot]
    )
    return coords, 8.0 * np.sqrt(rem)


def sample_limit_finite_variance(sigma, rng, eps=DEFAULT_EPS):
    """One draw of :func:`draw_limit_finite_variance`."""
    coords, bound = draw_limit_finite_variance(sigma, 1, rng, eps)
    return LimitSample("finite-variance", coords[0], eps, float(bound[0]))


# ---------------------------------------------------------------------------
# stable series: zero-mean index in (1, 2), heavy index in (0, 1)
# ---------------------------------------------------------------------------

def _stable_series(alpha, beta, n, rng, eps):
    """One stick/stable sequence reduced to ``(quad, pos, neg, share, rem)``:
    the quadratic series ``sum ell^(2/alpha - 1) S^2 / 2``, the positive
    and negative parts of ``sum ell^(1/alpha) S`` (both nonnegative), the
    length share of sticks with ``S > 0``, and the remainder."""
    p_len = 2.0 / alpha - 1.0
    p = 1.0 / alpha

    def terms(ell, s):
        w = ell**p * s
        up = s > 0.0
        return ell**p_len * s * s, np.where(up, w, 0.0), np.where(up, 0.0, -w), ell * up, ell

    (quad, pos, neg, pos_len, tot), rem = _series(
        n, eps, rng, lambda shape: stable_standard(alpha, beta, rng, shape), terms
    )
    return 0.5 * quad, pos, neg, pos_len / tot, rem


def _check_alpha(alpha, lo, hi):
    if not lo < alpha < hi:
        raise ParameterError(f"alpha must lie in ({lo:g}, {hi:g}), got {alpha}")


def draw_limit_stable_zero_mean(alpha, n, rng, eps=DEFAULT_EPS, beta=0.0):
    """Batch of zero-mean infinite-variance limit quadruples (quadratic
    length series, supremum, endpoint, argmax share), all driven by one
    stick sequence per draw; returns ``(coords, bounds)``."""
    _check_alpha(alpha, 1.0, 2.0)
    _check_eps(eps)
    quad, pos, neg, share, rem = _stable_series(alpha, beta, n, rng, eps)
    coords = np.column_stack([quad, pos, pos - neg, share])
    return coords, STABLE_ENVELOPE * rem ** (2.0 / alpha - 1.0)


def sample_limit_stable_zero_mean(alpha, rng, eps=DEFAULT_EPS):
    """One draw of :func:`draw_limit_stable_zero_mean`."""
    coords, bound = draw_limit_stable_zero_mean(alpha, 1, rng, eps)
    return LimitSample("stable-zero-mean", coords[0], eps, float(bound[0]))


def perpetuity_tail_constant(alpha):
    """Tail-equivalence constant ``2^(1 - alpha/2) / (2 - alpha)`` of the
    quadratic length series relative to a squared stable draw."""
    _check_alpha(alpha, 1.0, 2.0)
    return 2.0 ** (1.0 - alpha / 2.0) / (2.0 - alpha)


def draw_limit_heavy(alpha, n, rng, eps=DEFAULT_EPS, beta=0.0):
    """Batch of joint eight-coordinate heavy-index limit draws; returns
    ``(coords, bounds)``.

    Coordinates 1-4 are the majorant block (twice-sup-minus-endpoint,
    supremum, endpoint, argmax share); 5-8 the minorant block with the
    infimum as the negative-part series and the complementary time share.
    """
    _check_alpha(alpha, 0.0, 1.0)
    _check_eps(eps)
    _, pos, neg, share, rem = _stable_series(alpha, beta, n, rng, eps)
    fin = pos - neg
    coords = np.column_stack(
        [
            pos + neg,   # 2*sup - final
            pos,         # sup
            fin,         # final
            share,       # argmax time
            pos + neg,   # final - 2*inf equals the same series
            -neg,        # inf
            fin,
            1.0 - share,
        ]
    )
    # the argmax shares move by at most the remainder's length, plus rounding
    return coords, HEAVY_ENVELOPE * rem ** (1.0 / alpha) + rem + 1e-12


def sample_limit_heavy(alpha, rng, eps=DEFAULT_EPS, beta=0.0):
    """One draw of :func:`draw_limit_heavy`."""
    coords, bound = draw_limit_heavy(alpha, 1, rng, eps, beta)
    return LimitSample("heavy", coords[0], eps, float(bound[0]))


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
        coords, bound = draw_limit_heavy(alpha, 1, rng, eps)
        v = coords[0, 0]  # 2*sup - final
        return LimitSample("envelopes-c", np.array([v, v, v]), eps, float(bound[0]))
    raise ParameterError(f"case must be one of 'a', 'b', 'c', got {case!r}")


def draw_limit_envelopes_stable(alpha, n, rng, eps=DEFAULT_EPS):
    """Batch of case-b (hut, majorant, tent) triples; returns (coords, bounds)."""
    _check_alpha(alpha, 1.0, 2.0)
    _check_eps(eps)
    quad, pos, neg, _, rem = _stable_series(alpha, 0.0, n, rng, eps)
    coords = np.column_stack([0.5 * (pos**2 + neg**2), quad, pos + neg])
    return coords, STABLE_ENVELOPE * rem ** (2.0 / alpha - 1.0)
