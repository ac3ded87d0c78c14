"""Coordinate selection rules.

Uniform selection only draws from all n.  The tracked rules keep, for every
coordinate, an estimate of the smooth partial gradient with a certified
error radius, and select in three stages; steepest selection is a tracked
rule on an exact estimate.  The *score* stage brackets each coordinate's
score in a ``Bounds`` interval, larger being better, in the units the set
compares: the squared gradient magnitude (``compute_bounds``), the squared
steepest directional derivative (gs-s) or the best model decrease (gs-q).
The first two are squared distances to a segment, bracketed by one helper,
``_distance_range``.  An exact estimate (every radius 0,
``GradientEstimate.is_exact``) scores once: those two stages evaluate the
squared distance at ``g`` and return that one array as both bounds
(``lower is upper``).  gs-q keeps two bounds even then, because its lower
bound keeps the ``y = 0`` fallback, a decrease of 0.  ``score_one`` scores one
coordinate on Python floats, for the loop's rescoring after a zero step; it
returns the bits the array stages give that coordinate, signed zeros
included.  The *set* stage, ``active_set``, keeps the smallest prefix, in
descending order of the lower score, that provably contains the best
coordinate.  It tries, in order: all of [n] when every upper score reaches
the best lower score, the maximisers of one array of scores, an O(n) screen
for the prefix length, and a full sort as the fallback.  The *pick*,
``select_ascd``, draws among the best lower scores of the set; the safe set
keeps every maximiser of the lower score, whose upper score reaches every
prefix average.  The loop draws every rule's picks through one
``PickDraws``, which serves them from blocks drawn per pool size, with the
values and the generator positions of one draw per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .problem import Regularizer, model_value

__all__ = [
    "GradientEstimate",
    "Bounds",
    "ActiveSet",
    "compute_bounds",
    "active_set",
    "select_ascd",
    "PickDraws",
    "update_estimates",
    "gss_score_interval",
    "gsq_bounds",
    "score_one",
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

    Larger scores are better; every score stage returns its scores in the
    units ``active_set`` compares, and ``compute_bounds`` this interval for
    the squared gradient magnitudes ``grad_i^2``.  Known scores are one
    array given as both bounds (``lower is upper``).
    """

    upper: np.ndarray
    lower: np.ndarray


@dataclass
class ActiveSet:
    """Index set that provably contains the best coordinate.

    ``avg_score`` is the exclusion threshold av(I): every excluded
    coordinate was certified strictly worse than this in-set average.
    ``top`` is the best lower score over all coordinates, NaN for a set
    not built by ``active_set``.  ``ties`` is the pick's draw pool, the
    set's maximisers of the lower score: ``active_set`` sets it when one
    array of scores names the maximisers as the set, and ``select_ascd``
    finds and caches it otherwise.
    """

    indices: np.ndarray
    avg_score: float
    top: float = np.nan
    ties: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return int(self.indices.size)


def _distance_range(lo: np.ndarray, hi: np.ndarray, a, b) -> Bounds:
    """Range of the squared distance from t in [lo, hi] to the segment
    [a, b], computed in place: ``lo`` and ``hi`` must be fresh arrays,
    and they are overwritten."""
    lower = np.subtract(a, hi)
    upper = np.subtract(a, lo)
    np.maximum(lower, np.subtract(lo, b, out=lo), out=lower)
    np.maximum(upper, np.subtract(hi, b, out=hi), out=upper)
    np.maximum(lower, 0.0, out=lower)
    np.maximum(upper, 0.0, out=upper)
    return Bounds(upper=np.square(upper, out=upper),
                  lower=np.square(lower, out=lower))


def _exact_bounds(d: np.ndarray) -> Bounds:
    """Distances known exactly, squared in place: one array as both
    bounds."""
    np.square(d, out=d)
    return Bounds(upper=d, lower=d)


def compute_bounds(estimate: GradientEstimate) -> Bounds:
    """Interval arithmetic on ``g +- r``: bounds on ``grad_i^2``, the
    squared distance from the gradient to 0.

    The lower bound is 0 when the interval straddles zero.  Radius ``+inf``
    yields ``(upper, lower) = (inf, 0)``.  An exact estimate gets ``g^2``
    as both bounds.
    """
    if estimate.is_exact:
        return _exact_bounds(np.abs(estimate.g))
    g, r = estimate.g, estimate.r
    return _distance_range(g - r, g + r, 0.0, 0.0)


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
      ``top``, and also the pick's draw pool, returned as ``ties`` (on the
      first path too, when every score is a maximiser);
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
    top = float(lower.max())
    reach = (upper >= top).nonzero()[0]
    p = reach.size
    if 0 < p < n:
        at = lower[reach]
        if lower is upper:
            # one array: reach is its maximisers, and every other score is
            # below top
            av = top if p == 1 else min(np.cumsum(at)[-1] / p, top)
            if av == top:
                # the maximisers are also the pick's draw pool
                return ActiveSet(indices=reach, avg_score=float(av), top=top,
                                 ties=reach)
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
                                 avg_score=float(av), top=top)
    if p == n:
        # nothing is excluded, the average is no threshold; one array
        # reaches top everywhere only when every score is a maximiser
        everything = np.arange(n)
        return ActiveSet(indices=everything,
                         avg_score=float(min(lower.sum() / n, top)), top=top,
                         ties=everything if lower is upper else None)
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
    return ActiveSet(indices=np.sort(order[:k]), avg_score=float(av[k - 1]),
                     top=top)


# the first block a ``PickDraws`` draws for a pool size, and the longest:
# the block doubles on each refill while the pool size holds
PICK_BLOCK_FIRST = 8
PICK_BLOCK_MAX = 1 << 12
_NO_BLOCK = np.empty(0, dtype=np.int64)


class PickDraws:
    """Per-step ``rng.integers(k)`` draws, served from blocks.

    A drop-in for the generator in ``select_ascd`` and the uniform-set
    pick: ``integers(k)`` returns the value the next ``rng.integers(k)``
    call would.  While the pool size k holds, values come from one
    ``rng.integers(k, size=B)`` block, which has the values of B single
    draws; B starts at ``PICK_BLOCK_FIRST`` and doubles on each refill up
    to ``PICK_BLOCK_MAX``.  When k changes, the generator is restored to
    its state before the block and redraws only the values handed out, so
    it stands where per-step draws would have left it; ``release`` does the
    same for a caller that goes on with the generator.  A pool of one
    returns 0 and draws nothing, as ``rng.integers(1)`` does.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._k = 0
        self._block = _NO_BLOCK
        self._next = 0
        self._size = PICK_BLOCK_FIRST
        self._state = None

    def integers(self, k: int) -> int:
        if k == self._k and self._next < self._block.size:
            value = self._block.item(self._next)
            self._next += 1
            return value
        if k == 1:
            return 0
        if k == self._k:
            size = min(2 * self._size, PICK_BLOCK_MAX)
        else:
            self.release()
            size = PICK_BLOCK_FIRST
        self._state = self.rng.bit_generator.state
        self._block = self.rng.integers(k, size=size)
        self._k, self._size, self._next = k, size, 1
        return self._block.item(0)

    def release(self) -> np.random.Generator:
        """Drop the block and return the generator, standing where the
        per-step draws handed out so far would have left it."""
        if self._next < self._block.size:
            self.rng.bit_generator.state = self._state
            self.rng.integers(self._k, size=self._next)
        self._k, self._block, self._next = 0, _NO_BLOCK, 0
        return self.rng


def select_ascd(scores: Bounds, aset: ActiveSet,
                rng: np.random.Generator | PickDraws) -> int:
    """Uniform draw among the maximisers of the lower score over the set.

    The maximisers come preset in ``aset.ties`` when ``active_set`` knew
    them; otherwise they are found on the first draw from ``aset`` and kept
    there.  A set drawn from again must come with lower scores equal to
    those it was built from.  ``rng`` is a generator or, in the loop, a
    ``PickDraws`` over the run's generator, which gives the same picks.  A
    pool of one coordinate draws nothing from ``rng``.
    """
    if aset.ties is None:
        sub = (scores.lower if len(aset) == scores.lower.size
               else scores.lower[aset.indices])
        aset.ties = aset.indices[sub == sub.max()]
    return aset.ties.item(rng.integers(aset.ties.size))


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
    if not math.isfinite(gamma):
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
                       reg: Regularizer) -> Bounds:
    """Per-coordinate interval for the squared steepest-direction score.

    For an l1 penalty the exact score at gradient value g is its distance
    to ``-subdiff psi(x_i)``: the segment ``[-lam, lam]`` when ``x_i = 0``
    (so ``max(|g| - lam, 0)``) and the point ``-lam * sign(x_i)`` otherwise.
    With the gradient only known to lie in ``g +- r`` the score ranges over
    the distances from that interval; an exact estimate gets the squared
    score at ``g`` as both bounds.  ``lam = 0`` reduces to
    ``compute_bounds``.

    The exact score is one fresh array: ``max(|g| - lam, 0)`` over all n,
    then ``|g + lam * sign(x_i)|`` on x's support only, squared in place.
    It has the bits of ``_distance_range`` at ``lo = hi = g``: at
    ``x_i = 0``, ``max(-lam - g, g - lam)`` is exactly ``|g| - lam``, and
    at ``x_i != 0``, ``a - g`` is exactly ``-(g + lam * sign(x_i))``, since
    rounding a sum commutes with negating it; a zero score is ``+0.0``
    either way.

    The interval score takes the scalar segment ``[-lam, lam]`` over all n
    and recomputes x's support with its point segment: elementwise, these
    are the operations of per-coordinate segment arrays, so the same bits.
    """
    if reg.kind not in ("none", "l1"):
        raise ValueError("gs-s scores support only the l1 penalty")
    lam = reg.lam
    g, r = estimate.g, estimate.r
    nz = (x != 0.0).nonzero()[0]
    if estimate.is_exact:
        d = np.abs(g)
        d -= lam
        np.maximum(d, 0.0, out=d)
        if nz.size:
            d[nz] = np.abs(g[nz] + lam * np.sign(x[nz]))
        return _exact_bounds(d)
    scores = _distance_range(g - r, g + r, -lam, lam)
    if nz.size:
        a = -lam * np.sign(x[nz])
        on = _distance_range(g[nz] - r[nz], g[nz] + r[nz], a, a)
        scores.lower[nz], scores.upper[nz] = on.lower, on.upper
    return scores


def gsq_bounds(estimate: GradientEstimate, x: np.ndarray, lipschitz: float,
               reg: Regularizer) -> Bounds:
    """Sandwich the best model decrease ``psi(x_i) - min_y V_i`` using the
    signed gradient interval; a larger decrease is a better coordinate.

    Evaluates the model at the minimisers for the two endpoint slopes; the
    upper score is ``psi(x_i)`` minus the better of the two values, the
    lower score corrects each endpoint value by the worst-case slope
    mismatch and keeps the ``y = 0`` fallback, a decrease of 0.
    Coordinates with infinite radius get the vacuous ``(lower, upper) =
    (0, inf)``.  ``lower <= psi(x_i) - min_y V_i(x, y, grad_i) <= upper``
    whenever the gradient estimate is sound.
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

    upper = psi0 - np.minimum(val_u, val_l)
    lower = psi0 - np.minimum(np.minimum(omega_u, omega_l), psi0)
    return Bounds(upper=np.where(finite, upper, np.inf),
                  lower=np.where(finite, lower, 0.0))


# ---------------------------------------------------------------------------
# one coordinate on Python floats
# ---------------------------------------------------------------------------


def _fmax(a: float, b: float) -> float:
    """``np.maximum`` on two floats: NaN wins, and a tie returns ``b``."""
    return a if a > b or a != a else b


def _fmin(a: float, b: float) -> float:
    """``np.minimum`` on two floats: NaN wins, and a tie returns ``b``."""
    return a if a < b or a != a else b


def _distance_range_one(lo: float, hi: float, a: float,
                        b: float) -> tuple[float, float]:
    """``_distance_range`` on Python floats, as ``(lower, upper)``."""
    lower = _fmax(_fmax(a - hi, lo - b), 0.0)
    upper = _fmax(_fmax(a - lo, hi - b), 0.0)
    return lower * lower, upper * upper


def score_one(rule: str, g: float, r: float, exact: bool, x: float,
              lipschitz: float, reg: Regularizer) -> tuple[float, float]:
    """``(lower, upper)`` score of one coordinate, on Python floats.

    The float counterpart of the array score stages, in the same units:
    ``gsq_bounds`` for ``ascd-gsq``, ``compute_bounds`` for ``ascd`` and
    ``gss_score_interval`` for ``ascd-gss``.  ``g``, ``r`` and ``exact``
    are one coordinate of a ``GradientEstimate``, ``x`` its iterate and
    ``reg`` the composite penalty (``none`` or ``l1``).  It returns the bits
    that a full scoring gives the coordinate, signed zeros included: the
    array stages are elementwise, ``_fmax`` and ``_fmin`` resolve ties as
    ``np.maximum`` and ``np.minimum`` do, and a square is ``v * v``, as
    ``np.square`` is.
    """
    if rule == "ascd-gsq":
        psi0 = reg.psi_one(x)
        if not math.isfinite(r):
            return 0.0, math.inf
        hi, lo = g + r, g - r
        y_u = reg.model_argmin_one(x, hi, lipschitz)
        y_l = reg.model_argmin_one(x, lo, lipschitz)
        # model_value at both ends, then the slope-mismatch corrections
        half = 0.5 * lipschitz
        val_u = hi * y_u + half * (y_u * y_u) + reg.psi_one(x + y_u)
        val_l = lo * y_l + half * (y_l * y_l) + reg.psi_one(x + y_l)
        omega_u = val_u + _fmax(0.0, y_u * (lo - hi))
        omega_l = val_l + _fmax(0.0, y_l * (hi - lo))
        return (psi0 - _fmin(_fmin(omega_u, omega_l), psi0),
                psi0 - _fmin(val_u, val_l))
    if rule == "ascd-gss":
        lam = reg.lam
        if x == 0.0:
            a, b = -lam, lam
        else:
            a = b = -lam * math.copysign(1.0, x)
        if exact:
            d = _fmax(_fmax(a - g, g - b), 0.0)
            return d * d, d * d
        return _distance_range_one(g - r, g + r, a, b)
    if exact:
        d = abs(g)
        return d * d, d * d
    return _distance_range_one(g - r, g + r, 0.0, 0.0)
