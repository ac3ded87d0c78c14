"""Column-at-a-time reference for the synthetic generator.

``ascd.data.generate_synthetic`` draws the columns into chunk buffers and
sparsifies each chunk in one pass; the functions here are the per-column
loop it replaced, the definition the parity tests hold it to: the same
``indptr``/``rows``/``vals`` and target bytes, or the same error message.
"""

import math

import numpy as np

from ascd.problem import ColumnSparseMatrix


def _draw_column(rng: np.random.Generator, d: int,
                 scale_factor: float) -> np.ndarray:
    """One dense column before sparsification: ``(N(0,1) + 1) * scale``
    with ``scale = scale_factor * N(0,1)``."""
    raw = rng.standard_normal(d) + 1.0
    return raw * (scale_factor * rng.standard_normal())


def generate_synthetic(config) -> tuple[ColumnSparseMatrix, np.ndarray]:
    """Draw ``(A, b)`` deterministically from the config seed.

    Each column is drawn once and keeps only entries with a nonzero square.
    A column that keeps none after sparsification keeps one such entry,
    chosen from the same stream, so every Lipschitz constant is positive.
    """
    rng = np.random.default_rng(config.seed)
    d, n = config.n_rows, config.n_cols
    p = config.keep_probability
    cols = []
    for _ in range(n):
        dense = _draw_column(rng, d, config.column_scale_factor)
        nonzero = dense * dense != 0.0
        keep = (rng.random(d) < p) & nonzero
        if not keep.any():
            if not nonzero.any():
                raise ValueError("a column's squared norm underflowed to "
                                 "zero; column_scale_factor is too small")
            keep[rng.choice(np.flatnonzero(nonzero))] = True
        idx = np.flatnonzero(keep)
        cols.append((idx, dense[idx]))
    matrix = ColumnSparseMatrix.from_columns(d, cols)

    support = rng.choice(n, size=max(1, math.ceil(config.support_frac * n)),
                         replace=False)
    xbar = np.zeros(n)
    xbar[support] = rng.standard_normal(support.size)
    noise = config.noise_sigma * rng.standard_normal(d)
    return matrix, matrix.matvec(xbar) + noise
