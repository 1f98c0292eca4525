"""Clustering quality metrics.

Internal measures (no ground truth): :func:`sse`, :func:`silhouette`.
External measures (against true labels): :func:`purity`,
:func:`rand_index`, :func:`adjusted_rand_index`,
:func:`normalized_mutual_info`.

Noise labels (``-1``, DBSCAN's convention) are treated as singleton
"clusters" by the external measures unless dropped by the caller.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..core.base import check_matrix
from ..core.exceptions import ValidationError

#: Memory cap, in bytes, of one row block of the silhouette's distance
#: matrix: the full n x n matrix is never built.
_SILHOUETTE_BLOCK_BYTES = 4 << 20


def _check_labels(a, b) -> Tuple[np.ndarray, np.ndarray]:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValidationError(
            f"label arrays must be 1-D and equal length, got {a.shape} "
            f"and {b.shape}"
        )
    if len(a) == 0:
        raise ValidationError("cannot score empty label arrays")
    return a, b


def sse(X, labels, centers=None) -> float:
    """Within-cluster sum of squared distances (k-means inertia).

    With explicit ``centers`` the distance is to the given center of each
    label; otherwise each cluster's own centroid is used.  Noise points
    (label ``-1``) are skipped.

    >>> sse(np.array([[0.0], [2.0]]), np.array([0, 0]))
    2.0
    """
    X = check_matrix(X)
    labels = np.asarray(labels)
    total = 0.0
    for label in np.unique(labels):
        if label < 0:
            continue
        member = X[labels == label]
        center = (
            centers[label] if centers is not None else member.mean(axis=0)
        )
        total += float(((member - center) ** 2).sum())
    return total


def purity(labels_pred, labels_true) -> float:
    """Fraction of points in their cluster's majority true class.

    >>> purity([0, 0, 1, 1], ["a", "a", "b", "a"])
    0.75
    """
    labels_pred, labels_true = _check_labels(
        np.asarray(labels_pred), np.asarray(labels_true)
    )
    total = 0
    for cluster in np.unique(labels_pred):
        member_true = labels_true[labels_pred == cluster]
        _, counts = np.unique(member_true, return_counts=True)
        total += int(counts.max())
    return total / len(labels_pred)


def _pair_counts(a: np.ndarray, b: np.ndarray):
    """Contingency-based pair counts used by Rand/ARI."""
    _, a_codes = np.unique(a, return_inverse=True)
    _, b_codes = np.unique(b, return_inverse=True)
    contingency = np.zeros((a_codes.max() + 1, b_codes.max() + 1))
    np.add.at(contingency, (a_codes, b_codes), 1.0)
    comb2 = lambda x: x * (x - 1) / 2.0
    same_both = comb2(contingency).sum()
    same_a = comb2(contingency.sum(axis=1)).sum()
    same_b = comb2(contingency.sum(axis=0)).sum()
    all_pairs = comb2(np.array([len(a)], dtype=float))[0]
    return same_both, same_a, same_b, all_pairs


def rand_index(labels_a, labels_b) -> float:
    """Fraction of point pairs on which two labelings agree.

    >>> rand_index([0, 0, 1, 1], [1, 1, 0, 0])
    1.0
    """
    a, b = _check_labels(labels_a, labels_b)
    same_both, same_a, same_b, all_pairs = _pair_counts(a, b)
    if all_pairs == 0:
        return 1.0
    agreements = same_both + (all_pairs - same_a - same_b + same_both)
    return float(agreements / all_pairs)


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Rand index corrected for chance (1 = identical, ~0 = random).

    >>> adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 1])
    1.0
    """
    a, b = _check_labels(labels_a, labels_b)
    same_both, same_a, same_b, all_pairs = _pair_counts(a, b)
    if all_pairs == 0:
        return 1.0
    expected = same_a * same_b / all_pairs
    maximum = (same_a + same_b) / 2.0
    if maximum == expected:
        return 1.0
    return float((same_both - expected) / (maximum - expected))


def normalized_mutual_info(labels_a, labels_b) -> float:
    """NMI with arithmetic-mean normalisation, in [0, 1].

    >>> normalized_mutual_info([0, 0, 1, 1], [1, 1, 0, 0])
    1.0
    """
    a, b = _check_labels(labels_a, labels_b)
    n = len(a)
    _, a_codes = np.unique(a, return_inverse=True)
    _, b_codes = np.unique(b, return_inverse=True)
    contingency = np.zeros((a_codes.max() + 1, b_codes.max() + 1))
    np.add.at(contingency, (a_codes, b_codes), 1.0)
    pa = contingency.sum(axis=1) / n
    pb = contingency.sum(axis=0) / n
    joint = contingency / n
    mutual = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            pij = joint[i, j]
            if pij > 0:
                mutual += pij * math.log(pij / (pa[i] * pb[j]))
    ha = -sum(p * math.log(p) for p in pa if p > 0)
    hb = -sum(p * math.log(p) for p in pb if p > 0)
    denom = (ha + hb) / 2.0
    if denom == 0:
        return 1.0
    return float(max(0.0, min(1.0, mutual / denom)))


def silhouette(X, labels) -> float:
    """Mean silhouette coefficient over all clustered points.

    Noise points (label ``-1``) are excluded; a labeling with fewer than
    two clusters scores 0 by convention.

    >>> X = np.array([[0.0], [0.1], [10.0], [10.1]])
    >>> silhouette(X, np.array([0, 0, 1, 1])) > 0.9
    True
    """
    # Imported here: loading repro.clustering loads every clusterer, and
    # the classification commands import this module too.
    from ..clustering.distance import pairwise_distances

    X = check_matrix(X)
    labels = np.asarray(labels)
    keep = labels >= 0
    X, labels = X[keep], labels[keep]
    clusters, counts = np.unique(labels, return_counts=True)
    if len(clusters) < 2:
        return 0.0
    # Sorted by label, every cluster is one contiguous run of columns, so
    # a block's per-cluster distance sums are one reduceat.
    order = np.argsort(labels, kind="stable")
    X = X[order]
    own = np.repeat(np.arange(len(clusters)), counts)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    n = len(X)
    block = max(1, _SILHOUETTE_BLOCK_BYTES // (8 * n))
    sums = np.empty((n, len(clusters)))
    for lo in range(0, n, block):
        d = pairwise_distances(X[lo:lo + block], X)
        sums[lo:lo + block] = np.add.reduceat(d, starts, axis=1)
    rows = np.arange(n)
    own_size = counts[own]
    # Mean distance to the rest of the own cluster (the self-distance is
    # ~0) and to the nearest other cluster; singletons score 0.
    a = sums[rows, own] / np.maximum(own_size - 1, 1)
    means = sums / counts
    means[rows, own] = np.inf
    b = means.min(axis=1)
    multi = own_size > 1
    scores = np.zeros(n)
    scores[order[multi]] = (b - a)[multi] / np.maximum(a, b)[multi]
    return float(scores.mean())


__all__ = [
    "sse",
    "purity",
    "rand_index",
    "adjusted_rand_index",
    "normalized_mutual_info",
    "silhouette",
]
