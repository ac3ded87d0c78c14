"""Adversarial quadratic family on which steepest selection gains nothing.

The objective is ``q(x) = 0.5 * <Qx, x>`` with ``Q = (alpha - 1)/n * J + I``
(J the all-ones matrix, 0 < alpha < 1/2).  Started from the geometric point
``x0 = (1, c, c^2, ...)`` with the right ratio ``c_alpha``, exact steepest
coordinate descent cycles through the coordinates in order, shrinking the
visited entry by ``c_alpha^n`` per visit, and the gradient stays so flat
that the steepest squared entry never exceeds ``(4/n)`` times the squared
norm: greedy selection is no better than uniform up to a constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import trace_allocation

__all__ = [
    "HardCase",
    "LowDimEmbedding",
    "CyclingReport",
    "solve_c_alpha",
    "gradient_ratio",
    "scd_trace",
    "verify_cycling",
    "embed_lowdim",
]


def _ratio_residual(c: float, alpha: float, n: int) -> float:
    """Defining residual for c: ``1 - n(1-c)c^(n-1)/(1-c^n) - alpha``.

    Evaluated through log1p/expm1, stable for c close to 1.
    """
    log_c = np.log1p(c - 1.0)
    one_minus_cn = -np.expm1(n * log_c)
    c_pow = np.exp((n - 1) * log_c)
    return 1.0 - n * (1.0 - c) * c_pow / one_minus_cn - alpha


def solve_c_alpha(alpha: float, n: int, tol: float = 1e-15) -> float:
    """Solve the cycling-ratio equation for c in (0, 1) by bisection.

    The residual is decreasing in c, positive near 0 and negative near 1;
    the root satisfies ``c >= 1 - 4*alpha/n``.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie strictly between 0 and 1/2")
    if n <= 2:
        raise ValueError("need dimension n > 2")
    lo, hi = 1e-12, 1.0 - 1e-16
    f_lo, f_hi = _ratio_residual(lo, alpha, n), _ratio_residual(hi, alpha, n)
    if not (f_lo > 0.0 > f_hi):
        raise ValueError("no sign change: parameters out of range")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _ratio_residual(mid, alpha, n) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class HardCase:
    """The quadratic family together with its worst starting point."""

    n: int
    alpha: float
    c_alpha: float
    x0: np.ndarray

    @classmethod
    def build(cls, alpha: float, n: int) -> "HardCase":
        c = solve_c_alpha(alpha, n)
        x0 = c ** np.arange(n, dtype=np.float64)
        return cls(n=n, alpha=alpha, c_alpha=c, x0=x0)

    @property
    def diag(self) -> float:
        """Diagonal entry of Q (every coordinate has the same curvature)."""
        return 1.0 + (self.alpha - 1.0) / self.n

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """``Qx`` in O(n): ``x + (alpha-1)/n * sum(x) * ones``."""
        if x.shape != (self.n,):
            raise ValueError("dimension mismatch")
        return x + ((self.alpha - 1.0) / self.n) * x.sum()

    def value(self, x: np.ndarray) -> float:
        return 0.5 * float(x @ self.gradient(x))


def gradient_ratio(gradient: np.ndarray) -> float:
    """Flatness measure ``max_i g_i^2 / mean_i g_i^2``, in [1, n]."""
    gsq = np.square(gradient)
    total = gsq.sum()
    if total == 0.0:
        raise ValueError("zero gradient")
    return float(gsq.max() / (total / gradient.size))


def scd_trace(hc: HardCase, x0: np.ndarray, steps: int):
    """Exact-minimisation steepest descent on the quadratic.

    Each step picks the largest gradient entry (lowest index on ties) and
    minimises the objective along it: ``gamma = -grad_i / Q_ii``.  Returns
    per-step arrays ``(i, omega, grad_inf, x_before, x_after_value)``.
    """
    x = np.array(x0, dtype=np.float64)
    with trace_allocation(steps):
        picks = np.empty(steps, dtype=np.int64)
        omega = np.empty(steps)
        grad_inf = np.empty(steps)
        old_val = np.empty(steps)
        new_val = np.empty(steps)
    for t in range(steps):
        g = hc.gradient(x)
        i = int(np.argmax(np.abs(g)))
        picks[t] = i
        omega[t] = gradient_ratio(g)
        grad_inf[t] = np.abs(g[i])
        old_val[t] = x[i]
        x[i] -= g[i] / hc.diag
        new_val[t] = x[i]
    return picks, omega, grad_inf, old_val, new_val


@dataclass
class CyclingReport:
    ok: bool
    first_failure: int | None
    sweeps: int
    picks: np.ndarray
    omega: np.ndarray
    grad_inf: np.ndarray


def verify_cycling(hc: HardCase, steps: int,
                   rel_tol: float = 1e-8) -> CyclingReport:
    """Check the cycling behaviour from the worst start.

    Asserts that the pick sequence is 0, 1, ..., n-1, 0, ... and that every
    visited entry shrinks exactly by the factor ``c_alpha^n`` (relative
    tolerance ``rel_tol``).  Reports the first failing step instead of
    raising.
    """
    if steps < hc.n:
        raise ValueError("need at least n steps to observe one sweep")
    picks, omega, grad_inf, old_val, new_val = scd_trace(hc, hc.x0, steps)
    factor = hc.c_alpha ** hc.n
    first_bad = None
    for t in range(steps):
        if picks[t] != t % hc.n:
            first_bad = t
            break
        expect = factor * old_val[t]
        if abs(new_val[t] - expect) > rel_tol * abs(expect):
            first_bad = t
            break
    return CyclingReport(ok=first_bad is None, first_failure=first_bad,
                         sweeps=steps // hc.n, picks=picks, omega=omega,
                         grad_inf=grad_inf)


@dataclass
class LowDimEmbedding:
    """The hard quadratic acting on the first s of n ambient coordinates.

    The objective ignores the trailing coordinates, so their partial
    gradients vanish and the greedy-versus-uniform progress gap equals the
    ambient-to-intrinsic dimension ratio.
    """

    s: int
    n: int
    inner: HardCase

    def gradient(self, x: np.ndarray) -> np.ndarray:
        if x.shape != (self.n,):
            raise ValueError("dimension mismatch")
        g = np.zeros(self.n)
        g[:self.s] = self.inner.gradient(x[:self.s])
        return g

    def value(self, x: np.ndarray) -> float:
        return self.inner.value(x[:self.s])

    @property
    def x0(self) -> np.ndarray:
        out = np.zeros(self.n)
        out[:self.s] = self.inner.x0
        return out


def embed_lowdim(hc: HardCase, n_ambient: int) -> LowDimEmbedding:
    if n_ambient < hc.n:
        raise ValueError("ambient dimension must be at least the intrinsic one")
    return LowDimEmbedding(s=hc.n, n=n_ambient, inner=hc)
