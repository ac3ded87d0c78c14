"""Coordinate selection rules.

Uniform and steepest selection are one-liners.  The approximate-steepest
rules track, for every coordinate, an estimate of the smooth partial
gradient with a certified error radius, and select in three stages.  The
*score* stage brackets each coordinate's score in a ``Bounds`` interval,
larger being better: the gradient magnitude (``compute_bounds``), the
steepest directional derivative (gs-s), the model step length (gs-r) or the
best model decrease (gs-q); the first three are distances to a segment,
bracketed by one helper, ``_distance_range``.  An exact estimate (every
radius 0, ``GradientEstimate.is_exact``) scores once: those three stages
evaluate the distance at ``g`` and return that one array as both bounds
(``lower is upper``).  gs-q keeps two bounds even then, because its upper
bound keeps the ``y = 0`` fallback ``psi(x_i)``.  The *set* stage,
``active_set``, keeps the smallest prefix, in descending order of the lower
score, that provably contains the best coordinate.  It tries, in order:
all of [n] when every upper score reaches the best lower score, the
maximisers of one array of scores, an O(n) screen for the prefix length,
and a full sort as the fallback.  The *pick*, ``select_ascd``, draws among
the best lower scores of the set; the safe set keeps every maximiser of
the lower score, whose upper score reaches every prefix average.  Set and
pick compare scores as given; the caller of the score stage chooses the
units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import Regularizer, model_value

__all__ = [
    "GradientEstimate",
    "Bounds",
    "ActiveSet",
    "GsqBounds",
    "compute_bounds",
    "active_set",
    "select_ucd",
    "select_scd",
    "select_ascd",
    "update_estimates",
    "gss_score_interval",
    "gsr_bounds",
    "gsq_bounds",
]


@dataclass
class GradientEstimate:
    """Tracked gradient vector with an error radius for every coordinate.

    Whenever the radii are sound, the true smooth partial gradient of
    coordinate i lies in ``[g[i] - r[i], g[i] + r[i]]``.  Radii may be
    ``+inf`` (nothing is known, e.g. before the first refresh).

    ``is_exact`` marks an estimate built by ``exact`` that has taken only
    zero-error rows since (``update_estimates`` with ``row_error=None``):
    every radius is 0, and the score stages evaluate one array instead of
    an interval.  ``r`` stays an array of zeros for readers of the radii.
    """

    g: np.ndarray
    r: np.ndarray
    is_exact: bool = False

    @classmethod
    def uninformed(cls, n: int) -> "GradientEstimate":
        return cls(g=np.zeros(n), r=np.full(n, np.inf))

    @classmethod
    def exact(cls, gradient: np.ndarray) -> "GradientEstimate":
        g = np.array(gradient, dtype=np.float64)
        return cls(g=g, r=np.zeros_like(g), is_exact=True)


@dataclass
class Bounds:
    """Per-coordinate score interval ``lower <= score_i <= upper``.

    Larger scores are better.  ``compute_bounds`` returns this interval for
    the gradient magnitudes ``|grad_i|`` themselves.  Known scores are one
    array given as both bounds (``lower is upper``).
    """

    upper: np.ndarray
    lower: np.ndarray


@dataclass
class ActiveSet:
    """Index set that provably contains the best coordinate.

    ``avg_score`` is the exclusion threshold av(I): every excluded
    coordinate was certified strictly worse than this in-set average.
    """

    indices: np.ndarray
    avg_score: float

    def __len__(self) -> int:
        return int(self.indices.size)


def _distance_range(lo, hi, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Range of the distance from t in [lo, hi] to the segment [a, b]."""
    return (np.maximum(np.maximum(a - hi, lo - b), 0.0),
            np.maximum(np.maximum(a - lo, hi - b), 0.0))


def compute_bounds(estimate: GradientEstimate) -> Bounds:
    """Interval arithmetic on ``g +- r``: bounds on ``|grad_i|``, the
    distance from the gradient to 0.

    The lower bound is 0 when the interval straddles zero.  Radius ``+inf``
    yields ``(upper, lower) = (inf, 0)``.  An exact estimate gets ``|g|``
    as both bounds.
    """
    if estimate.is_exact:
        d = np.abs(estimate.g)
        return Bounds(upper=d, lower=d)
    g, r = estimate.g, estimate.r
    lower, upper = _distance_range(g - r, g + r, 0.0, 0.0)
    return Bounds(upper=upper, lower=lower)


def active_set(scores: Bounds) -> ActiveSet:
    """Smallest prefix, in descending order of the lower score (stable on
    ties), whose average lower score strictly dominates every excluded
    coordinate's upper score.  Contains the best coordinate; all of [n]
    when no shorter prefix is valid.

    The prefix average never exceeds the best lower score ``top``, so every
    coordinate with ``upper >= top`` is in every valid prefix.  Four paths
    decide the length, cheapest first:

    * all of [n] reaches ``top``: the set is all of [n];
    * one array as both bounds (``lower is upper``): only its maximisers
      reach ``top``, they lead the stable order and every other score is
      below ``top``, so they are the set whenever their average rounds to
      ``top``;
    * an ``O(n)`` screen: the prefix reaches at least the stable position
      ``p`` of the last coordinate reaching ``top``; when ``p = n`` the set
      is all of [n], and when the ``p`` coordinates up to it already form a
      valid prefix, they are the set;
    * otherwise the full stable sort finds the length.

    Indices, and ``avg_score`` whenever the set is not all of [n], are the
    same on every path: each sums the same values in the same descending
    order.
    """
    lower, upper = scores.lower, scores.upper
    n = lower.size
    top = lower.max()
    reach = (upper >= top).nonzero()[0]
    p = reach.size
    if 0 < p < n:
        at = lower[reach]
        if lower is upper:
            # one array: reach is its maximisers, and every other score is
            # below top
            av = top if p == 1 else min(np.cumsum(at)[-1] / p, top)
            if av == top:
                return ActiveSet(indices=reach, avg_score=float(av))
        # the last of them in stable order: smallest lower score m, then
        # largest index j; the prefix up to it is every larger lower score
        # and the ties for m up to index j
        m = at.min()
        j = reach[at == m][-1]
        inside = lower > m
        inside[:j + 1] |= lower[:j + 1] == m
        p = int(np.count_nonzero(inside))
        if p < n:
            # the sequential sum of the sorted prefix, as the fallback
            # adds it
            av = min(np.cumsum(np.sort(lower[inside])[::-1])[-1] / p, top)
            if upper[~inside].max() < av:
                return ActiveSet(indices=np.flatnonzero(inside),
                                 avg_score=float(av))
    if p == n:
        # nothing is excluded, the average is no threshold
        return ActiveSet(indices=np.arange(n),
                         avg_score=float(min(lower.sum() / n, top)))
    order = np.argsort(-lower, kind="stable")
    ranked = lower[order]
    # capped, a rounded average cannot drop a tie for the best lower score
    av = np.minimum(np.cumsum(ranked) / np.arange(1, n + 1), ranked[0])
    # largest excluded upper score for every prefix size
    tail = np.empty(n)
    tail[:n - 1] = np.maximum.accumulate(upper[order][::-1])[::-1][1:]
    tail[n - 1] = -np.inf
    valid = tail < av
    k = int(np.argmax(valid)) + 1 if valid.any() else n
    return ActiveSet(indices=np.sort(order[:k]), avg_score=float(av[k - 1]))


def select_ucd(n: int, rng: np.random.Generator) -> int:
    """Uniform draw over the n coordinates."""
    if n < 1:
        raise ValueError("need at least one coordinate")
    return int(rng.integers(n))


def select_scd(gradient: np.ndarray) -> int:
    """Steepest coordinate: argmax of |gradient|, lowest index on ties."""
    if gradient.size < 1:
        raise ValueError("need at least one coordinate")
    return int(np.argmax(np.abs(gradient)))


def select_ascd(scores: Bounds, aset: ActiveSet,
                rng: np.random.Generator) -> int:
    """Uniform draw among the maximisers of the lower score over the set."""
    sub = (scores.lower if len(aset) == scores.lower.size
           else scores.lower[aset.indices])
    cands = aset.indices[sub == sub.max()]
    return int(cands[rng.integers(cands.size)])


def update_estimates(estimate: GradientEstimate, i_t: int, gamma: float,
                     row_estimate: np.ndarray | None,
                     row_error: np.ndarray | None,
                     g_new: float) -> GradientEstimate:
    """One bookkeeping step after moving coordinate ``i_t`` by ``gamma``.

    Passive coordinates get ``g += gamma * g_ij`` and ``r += |gamma| *
    delta_ij``; the active coordinate is overwritten with its exact new
    gradient ``g_new`` and radius zero.  A zero step leaves the passive
    entries untouched and needs no row (this also avoids 0 * inf).
    ``row_error=None`` is an exact row (g1): the radii do not move, and an
    exact estimate stays exact; any error row ends ``is_exact``.
    Mutates and returns ``estimate``.
    """
    if not np.isfinite(gamma):
        raise ValueError("non-finite step")
    if gamma != 0.0:
        estimate.g += gamma * row_estimate
        if row_error is not None:
            estimate.r += abs(gamma) * row_error
            estimate.is_exact = False
    estimate.g[i_t] = g_new
    estimate.r[i_t] = 0.0
    return estimate


# ---------------------------------------------------------------------------
# composite scores
# ---------------------------------------------------------------------------


def gss_score_interval(estimate: GradientEstimate, x: np.ndarray,
                       reg: Regularizer) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate interval for the steepest-direction score.

    For an l1 penalty the exact score at gradient value g is its distance
    to ``-subdiff psi(x_i)``: the segment ``[-lam, lam]`` when ``x_i = 0``
    (so ``max(|g| - lam, 0)``) and the point ``-lam * sign(x_i)`` otherwise.
    With the gradient only known to lie in ``g +- r`` the score ranges over
    the distances from that interval; an exact estimate gets the score at
    ``g`` as both ends.  ``lam = 0`` reduces to the plain gradient
    magnitude bounds.
    """
    if reg.kind not in ("none", "l1"):
        raise ValueError("gs-s scores support only the l1 penalty")
    lam = reg.lam
    at_zero = x == 0.0
    a = np.where(at_zero, -lam, -lam * np.sign(x))
    b = np.where(at_zero, lam, a)
    g, r = estimate.g, estimate.r
    if estimate.is_exact:
        d = np.maximum(np.maximum(a - g, g - b), 0.0)
        return d, d
    return _distance_range(g - r, g + r, a, b)


def gsr_bounds(estimate: GradientEstimate, x: np.ndarray, lipschitz: float,
               reg: Regularizer) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate interval for the model step length |y*|.

    The model minimiser is nonincreasing in the gradient value, so over
    ``g +- r`` it sweeps the segment between the minimisers at the two
    endpoints; the |y| range over that segment is returned.  An exact
    estimate has one minimiser, whose |y| is both ends.
    """
    g, r = estimate.g, estimate.r
    if estimate.is_exact:
        d = np.abs(reg.model_argmin(x, g, lipschitz))
        return d, d
    # an infinite radius gives minimisers -inf and +inf: the whole line
    y_lo = reg.model_argmin(x, g + r, lipschitz)
    y_hi = reg.model_argmin(x, g - r, lipschitz)
    return _distance_range(y_lo, y_hi, 0.0, 0.0)


@dataclass
class GsqBounds:
    """Bounds on the best model decrease ``min_y V_i``.

    ``v <= min_y V_i(x, y, grad_i) <= w`` whenever the gradient estimate is
    sound.
    """

    v: np.ndarray
    w: np.ndarray


def gsq_bounds(estimate: GradientEstimate, x: np.ndarray, lipschitz: float,
               reg: Regularizer) -> GsqBounds:
    """Sandwich the best model decrease using the signed gradient interval.

    Evaluates the model at the minimisers for the two endpoint slopes; the
    lower bound is the better of the two values, the upper bound corrects
    each endpoint value by the worst-case slope mismatch and keeps the
    ``y = 0`` fallback ``psi(x_i)``.  Coordinates with infinite radius get
    the vacuous ``(-inf, psi(x_i))``.
    """
    if reg.kind not in ("none", "l1", "l2"):
        raise ValueError(f"unsupported regularizer {reg.kind!r}")
    g, r = estimate.g, estimate.r
    hi = g + r
    lo = g - r
    finite = np.isfinite(r)
    hi_f = np.where(finite, hi, 0.0)
    lo_f = np.where(finite, lo, 0.0)

    y_u = reg.model_argmin(x, hi_f, lipschitz)
    y_l = reg.model_argmin(x, lo_f, lipschitz)
    val_u = model_value(x, y_u, hi_f, lipschitz, reg)
    val_l = model_value(x, y_l, lo_f, lipschitz, reg)
    omega_u = val_u + np.maximum(0.0, y_u * (lo_f - hi_f))
    omega_l = val_l + np.maximum(0.0, y_l * (hi_f - lo_f))
    psi0 = reg.psi(x)

    v = np.where(finite, np.minimum(val_u, val_l), -np.inf)
    w = np.where(finite, np.minimum(np.minimum(omega_u, omega_l), psi0), psi0)
    return GsqBounds(v=v, w=w)

