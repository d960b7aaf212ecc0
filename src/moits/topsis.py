"""Ranking of alternatives by similarity to ideal solutions.

Alternatives are rows of a decision matrix; criteria columns are tagged
benefit or cost. Columns are normalized by their maximum absolute value,
positive/negative ideal rows are extracted, and each alternative gets a
closeness coefficient ``xi = d- / (d+ + d-)``; ranking is by descending
``xi``. In the solver, the criteria are the (minimization-sense) objective
values plus the maximum constraint violation, all treated as cost.

:func:`_topsis` is the one TOPSIS formula, for all-cost matrices: the lean
:func:`cost_closeness` calls it with uniform weights, and :func:`rank`
negates the benefit columns (exact in floating point) and calls it with the
matrix's weights. :func:`normalize` and :func:`cost_closeness` work over
leading batch axes (alternatives on axis -2, criteria on axis -1), so a
stack of matrices is ranked in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DecisionMatrix",
    "TopsisRanking",
    "normalize",
    "rank",
    "cost_closeness",
]

BENEFIT = "benefit"
COST = "cost"

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class DecisionMatrix:
    """Alternatives-by-criteria matrix with per-column senses and weights."""

    entries: np.ndarray
    criteria_senses: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "weights", weights)
        if entries.ndim != 2 or entries.shape[0] < 1 or entries.shape[1] < 1:
            raise ValueError("entries must be a non-empty 2-D matrix")
        ncols = entries.shape[1]
        if len(self.criteria_senses) != ncols or weights.shape != (ncols,):
            raise ValueError("senses and weights must match the column count")
        for sense in self.criteria_senses:
            if sense not in (BENEFIT, COST):
                raise ValueError(f"unknown criterion sense {sense!r}")
        for name, values in (("entries", entries), ("weights", weights)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
        if np.any(weights < 0) or abs(float(weights.sum()) - 1.0) > _WEIGHT_TOL:
            raise ValueError("weights must be non-negative and sum to 1")


@dataclass(frozen=True)
class TopsisRanking:
    d_plus: np.ndarray
    d_minus: np.ndarray
    closeness: np.ndarray
    order: tuple[int, ...]


def normalize(entries: np.ndarray) -> np.ndarray:
    """Divide each column by its maximum absolute value over the alternatives
    (axis -2); all-zero columns stay zero. Leading axes are a batch."""
    scale = np.abs(entries).max(axis=-2, keepdims=True)
    scale[scale == 0.0] = 1.0
    return entries / scale


def _topsis(entries: np.ndarray, weights):
    """Distances to the ideals and closeness coefficients of all-cost matrices.

    Criteria lie on the last axis, alternatives on the one before it; leading
    axes are a batch. After normalization the positive ideal is each column's
    minimum and the negative ideal its maximum. Weights (one per criterion,
    or a scalar) multiply the squared differences inside the root.
    Alternatives coinciding with both ideals (d+ = d- = 0) get closeness 1.
    Returns ``(d_plus, d_minus, xi)``.
    """
    normalized = normalize(entries)
    positive = normalized.min(axis=-2, keepdims=True)
    negative = normalized.max(axis=-2, keepdims=True)
    d_plus = np.sqrt(((positive - normalized) ** 2 * weights).sum(axis=-1))
    d_minus = np.sqrt(((negative - normalized) ** 2 * weights).sum(axis=-1))
    total = d_plus + d_minus
    degenerate = ~(total > 0.0)
    total[degenerate] = 1.0
    xi = d_minus / total
    xi[degenerate] = 1.0
    return d_plus, d_minus, xi


def rank(matrix: DecisionMatrix) -> TopsisRanking:
    """Distances, closeness and ordering of a decision matrix.

    Benefit columns are negated, which turns them into cost columns without
    rounding, so :func:`_topsis` ranks every matrix. Ordering is by
    descending closeness; ties keep the lower row index.
    """
    signs = np.array([-1.0 if s == BENEFIT else 1.0 for s in matrix.criteria_senses])
    d_plus, d_minus, xi = _topsis(matrix.entries * signs, matrix.weights)
    order = tuple(int(i) for i in np.argsort(-xi, kind="stable"))
    return TopsisRanking(d_plus, d_minus, xi, order)


def cost_closeness(entries: np.ndarray) -> np.ndarray:
    """Closeness coefficients of all-cost matrices with uniform weights.

    Lean path used inside the optimizer loops, over leading batch axes
    (alternatives on axis -2, criteria on axis -1).
    """
    return _topsis(entries, 1.0 / entries.shape[-1])[2]
