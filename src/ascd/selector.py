"""Coordinate selection rules.

Uniform selection only draws from all n.  The tracked rules keep, for every
coordinate, an estimate of the smooth partial gradient with a certified
error radius, and select in three stages; steepest selection is a tracked
rule on an exact estimate.  The *score* stage, ``compute_bounds``, brackets
each coordinate's score in a ``Bounds`` interval, larger being better, in
units of the decrease an exact step on the coordinate gives: every score is
scaled by the coordinate's own constant ``L_i``.  It is the gs-s score, the
squared distance from the gradient to ``-subdiff lam|x_i|``, over ``L_i``;
its ``lam = 0`` case, the ``ascd`` score, is ``grad_i^2 / L_i``, twice the
decrease of the exact step, the Gauss-Southwell-Lipschitz (GS-L) rule.  An
exact estimate (every radius 0, ``GradientEstimate.is_exact``) scores once:
the stage evaluates the score at ``g`` and returns that one array as both
bounds (``lower is upper``).  Interval scoring lives only in this array
stage.  ``score_one`` gives the exact score of one coordinate at radius 0,
on Python floats, for the loop's rescoring after a zero step, which leaves
the picked coordinate's radius 0; it returns the bits the array stage
gives that coordinate, signed zeros included.
The *set* stage, ``active_set``, keeps the smallest prefix, in descending
order of the lower score, that provably contains the best coordinate.  It
tries, in order: all of [n] when every upper score reaches the best lower
score, the maximisers of one array of scores, an O(n) screen for the
prefix length, and a full sort as the fallback.  The *pick*,
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

__all__ = [
    "GradientEstimate",
    "Bounds",
    "ActiveSet",
    "compute_bounds",
    "active_set",
    "select_ascd",
    "PickDraws",
    "update_estimates",
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
    every radius is 0, and ``compute_bounds`` evaluates one array instead
    of an interval.  ``r`` stays an array of zeros for readers of the
    radii.  ``score_one`` reads neither: it scores a coordinate at radius
    0, which has the same bits with ``is_exact`` set or not.
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

    Larger scores are better.  ``compute_bounds`` returns this interval
    for the squared gs-s scores over ``L_i``, ``grad_i^2 / L_i`` at
    ``lam = 0``, in the units ``active_set`` compares, those of an exact
    step's decrease.  Known scores are one array given as both bounds
    (``lower is upper``).
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


def _distance_range(g: np.ndarray, r: np.ndarray, a, b,
                    lipschitz: np.ndarray) -> Bounds:
    """Range of the squared distance from t in ``[g - r, g + r]`` to the
    segment ``[a, b]``, over ``lipschitz``.  Both bounds are rows of one
    fresh ``(2, n)`` array, so each operation runs once on both:
    ``max(a - hi, lo - b, 0)`` in row 0, the lower bound, and
    ``max(a - lo, hi - b, 0)`` in row 1, the upper."""
    ends = np.empty((2, g.size))
    np.add(g, r, out=ends[0])
    np.subtract(g, r, out=ends[1])
    d = np.subtract(a, ends)
    # (hi - b, lo - b), read in reverse
    np.subtract(ends, b, out=ends)
    np.maximum(d, ends[::-1], out=d)
    np.maximum(d, 0.0, out=d)
    np.square(d, out=d)
    np.divide(d, lipschitz, out=d)
    return Bounds(upper=d[1], lower=d[0])


def compute_bounds(estimate: GradientEstimate, lipschitz: np.ndarray,
                   x: np.ndarray | None = None, lam: float = 0.0) -> Bounds:
    """Bounds on the gs-s score in units of the step: the squared distance
    from the gradient to ``-subdiff lam|x_i|``, over the coordinate's
    constant ``lipschitz[i]``.  The segment is ``[-lam, lam]`` when
    ``x_i = 0`` (so ``max(|g| - lam, 0)``) and the point
    ``-lam * sign(x_i)`` otherwise.  ``lam = 0`` is ``grad_i^2 / L_i``,
    the ``ascd`` score (GS-L): twice the decrease of an exact step on a
    smooth problem; it reads no ``x``.

    With the gradient only known to lie in ``g +- r`` the score ranges over
    the distances from that interval: the lower bound is 0 when the
    interval meets the segment, and radius ``+inf`` yields ``(upper,
    lower) = (inf, 0)``.  The interval takes the scalar segment
    ``[-lam, lam]`` over all n and recomputes x's support with its point
    segment: elementwise, these are the operations of per-coordinate
    segment arrays, so the same bits.  Both bounds are divided by
    ``lipschitz`` in place.

    An exact estimate scores once, one fresh array as both bounds.  At
    ``lam = 0`` it squares ``g`` directly, the bits of squaring ``|g|``.
    Otherwise it takes ``max(|g| - lam, 0)`` over all n, then
    ``|g + lam * sign(x_i)|`` on x's support only, squared in place.  It
    has the bits of ``_distance_range`` at ``r = 0``: at ``x_i = 0``,
    ``max(-lam - g, g - lam)`` is exactly ``|g| - lam``, and at
    ``x_i != 0``, ``a - g`` is exactly ``-(g + lam * sign(x_i))``, since
    rounding a sum commutes with negating it; a zero score is ``+0.0``
    either way.  The division follows, in place, as on the interval.
    """
    g, r = estimate.g, estimate.r
    nz = (x != 0.0).nonzero()[0] if lam else ()
    if estimate.is_exact:
        if lam:
            d = np.abs(g)
            d -= lam
            np.maximum(d, 0.0, out=d)
            if len(nz):
                d[nz] = np.abs(g[nz] + lam * np.sign(x[nz]))
            np.square(d, out=d)
        else:
            d = np.square(g)
        np.divide(d, lipschitz, out=d)
        return Bounds(upper=d, lower=d)
    scores = _distance_range(g, r, -lam, lam, lipschitz)
    if len(nz):
        a = -lam * np.sign(x[nz])
        on = _distance_range(g[nz], r[nz], a, a, lipschitz[nz])
        scores.lower[nz], scores.upper[nz] = on.lower, on.upper
    return scores


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
    ``row_estimate=None`` is the zero estimate row (g3): ``g`` does not
    move.  ``row_error=None`` is an exact row (g1): the radii do not move,
    and an exact estimate stays exact; any error row ends ``is_exact``.
    Mutates and returns ``estimate``.
    """
    if not math.isfinite(gamma):
        raise ValueError("non-finite step")
    if gamma != 0.0:
        if row_estimate is not None:
            estimate.g += gamma * row_estimate
        if row_error is not None:
            estimate.r += abs(gamma) * row_error
            estimate.is_exact = False
    estimate.g[i_t] = g_new
    estimate.r[i_t] = 0.0
    return estimate


# ---------------------------------------------------------------------------
# one coordinate on Python floats
# ---------------------------------------------------------------------------


def score_one(g: float, x: float, lipschitz: float, lam: float) -> float:
    """Exact score of one coordinate, on Python floats.

    ``compute_bounds`` on a one-coordinate estimate at radius 0, exact or
    not: the loop rescores only after a zero step, which leaves the
    coordinate's radius 0.  ``g`` is its finite gradient estimate, ``x``
    its iterate, ``lipschitz`` its ``L_i`` and ``lam`` the run's segment
    half-width.  The one squared segment distance over ``L_i`` is both
    bounds.  The bits are a full scoring's, signed zeros included: a zero
    distance is ``+0.0`` and ``d * d`` is ``np.square``.
    """
    d = (max(abs(g) - lam, 0.0) if x == 0.0
         else abs(g + lam * math.copysign(1.0, x)))
    return d * d / lipschitz
