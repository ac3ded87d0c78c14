"""Competitive-ratio measurements and the active-set equilibrium model.

On objectives whose gradient lives on the first s of n coordinates, the
quality of approximate-steepest selection is summarised by the fraction of
the active set that lies inside that support.  A closed form predicts the
stationary fraction from the mean re-entry time of outside coordinates; the
simulator here realises the matching memoryless dynamics so the two can be
compared, and a small driver runs the real bound machinery on an embedded
hard quadratic to measure re-entry times empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import _allocation, trace_allocation
from .hardcase import LowDimEmbedding
from .selector import (GradientEstimate, active_set, compute_bounds,
                       update_estimates)

__all__ = [
    "REENTRY_MODES",
    "RatioSimConfig",
    "RatioTrace",
    "RhoLimit",
    "measure_rho",
    "measure_varrho",
    "rho_infinity",
    "simulate_rho",
    "estimate_t_hat",
    "EmbeddingDynamics",
    "ascd_embedding_dynamics",
]


def measure_rho(active_indices: np.ndarray, s: int) -> float:
    """Fraction of the active set inside the support ``{0, ..., s-1}``."""
    active_indices = np.asarray(active_indices)
    if active_indices.size == 0:
        raise ValueError("active set is empty")
    return float(np.count_nonzero(active_indices < s)) / active_indices.size


def measure_varrho(gradient: np.ndarray, active_indices: np.ndarray) -> float:
    """Fraction of active coordinates whose gradient magnitude reaches half
    the overall maximum."""
    active_indices = np.asarray(active_indices)
    if active_indices.size == 0:
        raise ValueError("active set is empty")
    thresh = 0.5 * float(np.max(np.abs(gradient)))
    hits = np.count_nonzero(np.abs(gradient[active_indices]) >= thresh)
    return float(hits) / active_indices.size


@dataclass
class RhoLimit:
    value: float
    simple_bound: float
    theta: float


def rho_infinity(n: int, s: int, c: float, t_inf: float) -> RhoLimit:
    """Stationary support fraction of the equilibrium model.

    ``theta = n^2 + (c-1)^2 s^2 + 2n((c-1)s - T) + 2(1+c)sT + T^2`` and
    ``rho = 2cs / (cs + n - s - T + sqrt(theta))``; also returns the simple
    bound ``1 - (n-s)/T``.
    """
    if not (1 <= s <= n and 0 < c <= 1 and 0 < t_inf < math.inf):
        raise ValueError("invalid parameters")
    theta = (n ** 2 + (c - 1) ** 2 * s ** 2 + 2 * n * ((c - 1) * s - t_inf)
             + 2 * (1 + c) * s * t_inf + t_inf ** 2)
    if theta < 0:
        raise ValueError(f"negative discriminant {theta}")
    value = 2.0 * c * s / (c * s + n - s - t_inf + math.sqrt(theta))
    return RhoLimit(value=value, simple_bound=1.0 - (n - s) / t_inf,
                    theta=float(theta))


REENTRY_MODES = ("geometric", "fixed")


@dataclass
class RatioSimConfig:
    """Parameters of the stochastic active-set dynamics.

    ``ceil(c*s)`` designated support coordinates are permanently active;
    picking an outside coordinate removes it from the set and it re-enters
    after a mean of ``t_inf`` steps (geometrically by default, or after a
    deterministic delay with ``reentry="fixed"``).
    """

    n: int
    s: int
    c: float = 1.0
    t_inf: float = 100.0
    steps: int = 10_000
    seed: int = 0
    reentry: str = "geometric"

    def __post_init__(self):
        if not (1 <= self.s <= self.n):
            raise ValueError("need 1 <= s <= n")
        if not 0 < self.c <= 1:
            raise ValueError("need 0 < c <= 1")
        if not (0 < self.t_inf < math.inf and self.steps >= 1):
            raise ValueError("need 0 < t_inf < inf and steps >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.reentry not in REENTRY_MODES:
            raise ValueError(f"unknown reentry mode {self.reentry!r}")


@dataclass
class RatioTrace:
    rho: np.ndarray
    active_size: np.ndarray
    exits: int
    entries: int
    designated: int


def simulate_rho(config: RatioSimConfig) -> RatioTrace:
    """Run the equilibrium dynamics and log the support fraction per step.

    The set starts as the support only.  Each step logs the current set,
    picks uniformly from it (an outside pick leaves the set), and then
    lets inactive outside coordinates re-enter: independently with
    probability ``1/t_inf`` in geometric mode, or exactly ``t_inf`` steps
    after leaving in fixed mode (with initial entries staggered uniformly
    over the first ``t_inf`` steps).  A coordinate removed in the current
    step waits at least one full step, so the mean time outside is
    ``t_inf`` in both modes.
    """
    rng = np.random.default_rng(config.seed)
    k = math.ceil(config.c * config.s)
    outside = config.n - config.s
    delay = int(round(config.t_inf))
    with _allocation(f"n {config.n}: the state of {outside} coordinates "
                     "outside the support does not fit in memory"):
        active = np.zeros(outside, dtype=bool)
        if config.reentry == "fixed" and outside:
            reenter_at = rng.integers(0, max(delay, 1), size=outside)
        else:
            reenter_at = np.full(outside, -1, dtype=np.int64)
    with trace_allocation(config.steps):
        rho = np.empty(config.steps)
        size = np.empty(config.steps, dtype=np.int64)
    exits = entries = 0

    for t in range(config.steps):
        m = int(active.sum())
        rho[t] = k / (k + m)
        size[t] = k + m
        pick = rng.integers(k + m)
        removed = -1
        if pick >= k:
            removed = int(np.flatnonzero(active)[pick - k])
            active[removed] = False
            exits += 1
            if config.reentry == "fixed":
                reenter_at[removed] = t + delay
        if outside:
            if config.reentry == "geometric":
                back = ~active & (rng.random(outside) < 1.0 / config.t_inf)
            else:
                back = ~active & (reenter_at <= t)
            if removed >= 0:
                back[removed] = False
            entries += int(back.sum())
            active |= back
    return RatioTrace(rho=rho, active_size=size, exits=exits,
                      entries=entries, designated=k)


def estimate_t_hat(step_magnitudes, delta: float, reference_levels) -> int:
    """Largest horizon whose accumulated oracle drift stays below the mean
    support gradient level at its end.

    The drift after T steps is ``delta * sum of the first T step sizes``;
    the comparison level is ``reference_levels[T]`` (clamped to the last
    recorded entry).  With ``delta = 0`` the whole trace qualifies.
    """
    mags = np.asarray(step_magnitudes, dtype=np.float64)
    refs = np.asarray(reference_levels, dtype=np.float64)
    if np.any(mags < 0) or delta < 0:
        raise ValueError("step magnitudes and delta must be nonnegative")
    csum = np.concatenate(([0.0], np.cumsum(mags * delta)))
    for horizon in range(mags.size, -1, -1):
        ref = refs[min(horizon, refs.size - 1)] if refs.size else 0.0
        if csum[horizon] <= ref:
            return horizon
    return 0


@dataclass
class EmbeddingDynamics:
    rho: np.ndarray
    active_size: np.ndarray
    step_magnitudes: np.ndarray
    support_grad_mean: np.ndarray
    reentry_times: np.ndarray
    measured_t_inf: float
    exits: int
    entries: int


def ascd_embedding_dynamics(emb: LowDimEmbedding, steps: int, delta: float,
                            seed: int = 0) -> EmbeddingDynamics:
    """Safe-bound selection on an embedded hard quadratic, uniform picks.

    Uses a zero-estimate oracle with constant error ``delta`` per unit step
    (sound as soon as ``delta >= (1 - alpha)/s``) and exact line search.
    Picks uniformly from the active set, the regime the equilibrium model
    describes.  Outside coordinates leave the set when picked (their exact
    refresh reveals a zero gradient) and re-enter once their error radius
    outgrows the shrinking in-set average; the observed excursion lengths
    estimate the mean re-entry time.
    """
    n, s = emb.n, emb.s
    rng = np.random.default_rng(seed)
    x = emb.x0.copy()
    grad = emb.gradient(x)
    est = GradientEstimate.exact(grad)
    # every support coordinate has the one curvature ``emb.inner.diag``, so
    # unit constants rank as the coordinate constants would
    unit = np.ones(n)
    member_prev = None
    exit_step = np.full(n, -1, dtype=np.int64)
    durations: list[int] = []
    rho = np.empty(steps)
    size = np.empty(steps, dtype=np.int64)
    mags = np.empty(steps)
    support_mean = np.empty(steps)
    exits = entries = 0

    for t in range(steps):
        aset = active_set(compute_bounds(est, unit))
        member = np.zeros(n, dtype=bool)
        member[aset.indices] = True
        if member_prev is not None:
            left = np.flatnonzero(member_prev & ~member)
            came = np.flatnonzero(~member_prev & member)
            for j in left:
                if j >= s:
                    exit_step[j] = t
                    exits += 1
            for j in came:
                if j >= s and exit_step[j] >= 0:
                    durations.append(t - exit_step[j])
                    entries += 1
        member_prev = member

        rho[t] = measure_rho(aset.indices, s)
        size[t] = len(aset)
        support_mean[t] = float(np.mean(np.abs(grad[:s])))

        i = int(aset.indices[rng.integers(len(aset))])
        gamma = -grad[i] / emb.inner.diag if i < s else 0.0
        mags[t] = abs(gamma)
        if gamma != 0.0:
            x[i] += gamma
            grad = emb.gradient(x)
        update_estimates(est, i, gamma, None, delta, grad[i])

    times = np.asarray(durations, dtype=np.float64)
    settled = times[times.size // 4:] if times.size else times
    t_inf = float(settled.mean()) if settled.size else np.inf
    return EmbeddingDynamics(rho=rho, active_size=size, step_magnitudes=mags,
                             support_grad_mean=support_mean,
                             reentry_times=times, measured_t_inf=t_inf,
                             exits=exits, entries=entries)
