"""Split-quality criteria for decision-tree induction.

All functions operate on *weighted* class-count vectors so the same code
serves plain trees and C4.5's fractional-instance missing-value handling.
Logarithms are base 2, matching the information-theoretic formulation of
ID3/C4.5.

The ``*_rows`` twins score every row of a 2-D count matrix at once (one
row per candidate threshold) and return, row for row, the same floats as
the scalar functions: the same elementwise expressions, summed in the
order NumPy sums a 1-D vector.  :func:`first_best` then picks the winner
exactly as a sequential ``if score > best`` scan would.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def entropy(class_counts: np.ndarray) -> float:
    """Shannon entropy (bits) of a weighted class-count vector.

    >>> round(entropy(np.array([5.0, 5.0])), 6)
    1.0
    >>> entropy(np.array([10.0, 0.0]))
    0.0
    """
    total = class_counts.sum()
    if total <= 0:
        return 0.0
    p = class_counts[class_counts > 0] / total
    # Extreme count ratios can underflow a probability to exactly 0.0;
    # its entropy contribution is the limit value 0.
    p = p[p > 0]
    return max(0.0, float(-(p * np.log2(p)).sum()))


def gini(class_counts: np.ndarray) -> float:
    """Gini impurity of a weighted class-count vector.

    >>> gini(np.array([5.0, 5.0]))
    0.5
    >>> gini(np.array([10.0, 0.0]))
    0.0
    """
    total = class_counts.sum()
    if total <= 0:
        return 0.0
    p = class_counts / total
    return float(1.0 - (p * p).sum())


def _sums_of_kept(terms: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``terms[i][keep[i]].sum()`` for every row ``i``, rounded as NumPy does.

    NumPy adds fewer than eight values left to right, so with fewer than
    eight columns the dropped terms can stay in as zeros: adding 0.0
    leaves every partial sum unchanged.  Eight or more values are summed
    pairwise in blocks, so there each row's kept terms are packed to the
    front and rows are summed in groups of equal kept length.
    """
    if terms.shape[1] < 8:
        return np.where(keep, terms, 0.0).sum(axis=1)
    packed = np.take_along_axis(
        terms, np.argsort(~keep, axis=1, kind="stable"), axis=1
    )
    sizes = keep.sum(axis=1)
    sums = np.empty(len(terms))
    for size in np.unique(sizes):
        rows = sizes == size
        sums[rows] = np.ascontiguousarray(packed[rows, :size]).sum(axis=1)
    return sums


def entropy_rows(counts: np.ndarray) -> np.ndarray:
    """:func:`entropy` of every row of a 2-D count matrix, bit for bit.

    >>> entropy_rows(np.array([[5.0, 5.0], [10.0, 0.0], [0.0, 0.0]]))
    array([1., 0., 0.])
    """
    totals = counts.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / totals[:, None]
    # Zero and underflowed probabilities (and empty rows) contribute 0.
    keep = p > 0
    p = np.where(keep, p, 1.0)
    h = -_sums_of_kept(p * np.log2(p), keep)
    return np.where(h > 0.0, h, 0.0)


def gini_rows(counts: np.ndarray) -> np.ndarray:
    """:func:`gini` of every row of a 2-D count matrix, bit for bit.

    >>> gini_rows(np.array([[5.0, 5.0], [10.0, 0.0], [0.0, 0.0]]))
    array([0.5, 0. , 0. ])
    """
    totals = counts.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / totals[:, None]
    return np.where(totals > 0, 1.0 - (p * p).sum(axis=1), 0.0)


def first_best(scores: np.ndarray, valid: np.ndarray):
    """Index a sequential ``if score > best`` scan from ``best = -1.0`` keeps.

    ``scores`` is non-empty.  Invalid and NaN scores are never kept;
    among equal maxima the first wins.  ``None`` when no valid score
    exceeds -1.0.

    >>> first_best(np.array([0.2, 0.5, 0.5]), np.array([True, True, True]))
    1
    """
    scores = np.where(valid & ~np.isnan(scores), scores, -np.inf)
    best = int(np.argmax(scores))
    return best if scores[best] > -1.0 else None


def weighted_impurity(
    branch_counts: Sequence[np.ndarray], criterion
) -> float:
    """Impurity of a split: branch impurities weighted by branch mass."""
    total = sum(float(c.sum()) for c in branch_counts)
    if total <= 0:
        return 0.0
    return sum(
        float(c.sum()) / total * criterion(c)
        for c in branch_counts
        if c.sum() > 0
    )


def information_gain(
    parent_counts: np.ndarray, branch_counts: Sequence[np.ndarray]
) -> float:
    """Entropy reduction achieved by a split (ID3's criterion)."""
    return entropy(parent_counts) - weighted_impurity(branch_counts, entropy)


def split_information(branch_counts: Sequence[np.ndarray]) -> float:
    """Entropy of the branch-size distribution itself (C4.5 denominator)."""
    sizes = np.array([float(c.sum()) for c in branch_counts])
    return entropy(sizes)


def gain_ratio(
    parent_counts: np.ndarray, branch_counts: Sequence[np.ndarray]
) -> float:
    """C4.5's gain ratio: information gain / split information.

    Returns 0.0 when split information vanishes (a one-branch split),
    which also makes such degenerate splits unattractive.
    """
    info = split_information(branch_counts)
    if info <= 0.0:
        return 0.0
    return information_gain(parent_counts, branch_counts) / info


def gini_gain(
    parent_counts: np.ndarray, branch_counts: Sequence[np.ndarray]
) -> float:
    """Gini-impurity reduction (CART's criterion)."""
    return gini(parent_counts) - weighted_impurity(branch_counts, gini)


__all__ = [
    "entropy",
    "gini",
    "entropy_rows",
    "gini_rows",
    "first_best",
    "weighted_impurity",
    "information_gain",
    "split_information",
    "gain_ratio",
    "gini_gain",
]
