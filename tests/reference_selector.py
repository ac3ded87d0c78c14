"""References for the selector's short cuts.

``ascd.selector.active_set`` screens for the prefix length in O(n) and
sorts only when the screen cannot decide; ``sorted_active_set`` here always
runs the full stable sort, the definition the screen must reproduce.
``gss_exact_squared`` is the gs-s score of an exact estimate as the squared
segment distance over all n, divided by each coordinate's constant ``L_i``:
the units of an exact step's decrease, which every score stage returns.
The one-pass score of ``ascd.selector.compute_bounds``, the one
segment-distance stage, must give its bits, under ``ascd-gss`` and under
``ascd``, its ``lam = 0`` case (GS-L).  ``gss_interval_squared`` is the gs-s
score interval with per-coordinate segment arrays built by ``np.where`` and
one fresh temporary per operation, over ``L_i``; the scalar segment,
support patch and in-place division of the interval score must give its
bits.
"""

import numpy as np

from ascd.selector import ActiveSet, Bounds


def sorted_active_set(scores: Bounds) -> ActiveSet:
    """Smallest prefix, in stable descending order of the lower score,
    whose average lower score, capped at the best lower score, strictly
    dominates every excluded upper score; all of [n] if none is shorter.
    """
    lower, upper = scores.lower, scores.upper
    n = lower.size
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


def gss_exact_squared(g: np.ndarray, x: np.ndarray, lam: float,
                      lipschitz: np.ndarray) -> np.ndarray:
    """Squared distance from g to the segment ``[a, b] = -subdiff lam|x_i|``
    of every coordinate, over ``lipschitz``."""
    at_zero = x == 0.0
    a = np.where(at_zero, -lam, -lam * np.sign(x))
    b = np.where(at_zero, lam, a)
    d = np.maximum(np.maximum(a - g, g - b), 0.0)
    return d ** 2 / lipschitz


def _distance_range(lo, hi, a, b) -> Bounds:
    """Range of the squared distance from t in [lo, hi] to the segment
    [a, b]."""
    lower = np.maximum(np.maximum(a - hi, lo - b), 0.0)
    upper = np.maximum(np.maximum(a - lo, hi - b), 0.0)
    return Bounds(upper=np.square(upper, out=upper),
                  lower=np.square(lower, out=lower))


def gss_interval_squared(g: np.ndarray, r: np.ndarray, x: np.ndarray,
                         lam: float, lipschitz: np.ndarray) -> Bounds:
    """Squared distance range from ``g +- r`` to the segment
    ``-subdiff lam|x_i|`` of every coordinate, over ``lipschitz``."""
    at_zero = x == 0.0
    a = np.where(at_zero, -lam, -lam * np.sign(x))
    b = np.where(at_zero, lam, a)
    squared = _distance_range(g - r, g + r, a, b)
    return Bounds(upper=squared.upper / lipschitz,
                  lower=squared.lower / lipschitz)
