"""Oracles for the batched split scans and the blockwise silhouette.

C4.5 and CART score every numeric threshold in one batch; here each
choice must equal a per-boundary fold written out below, float for
float, on tables with missing cells, fractional weights, more classes
than NumPy's eight-way summation block, and tied gains (the first tied
boundary wins).  ``silhouette`` works on row blocks of the distance
matrix and must equal the per-point definition over the full matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classification import C45, CART
from repro.classification.criteria import (
    entropy,
    entropy_rows,
    first_best,
    gini,
    gini_rows,
    split_information,
)
from repro.classification.tree_model import safe_threshold
from repro.clustering.distance import pairwise_distances
from repro.core import Table, categorical, numeric
from repro.evaluation import silhouette
from repro.evaluation import cluster_metrics

# Few distinct values make repeated values and tied gains common.
cells = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 2.5, 3.0, 7.0, float("nan")]),
    st.floats(-50.0, 50.0, allow_nan=False),
)
weights = st.sampled_from([1.0, 0.5, 0.25, 1 / 3, 0.7, 1e-3])


@st.composite
def scan_inputs(draw):
    """(table with one numeric column x and target y, row weights)."""
    n = draw(st.integers(2, 40))
    k = draw(st.sampled_from([2, 3, 9]))
    xs = draw(st.lists(cells, min_size=n, max_size=n))
    ys = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    ws = draw(st.lists(weights, min_size=n, max_size=n))
    classes = [f"c{i}" for i in range(k)]
    table = Table(
        [numeric("x"), categorical("y", classes)],
        {"x": np.array(xs), "y": np.array(ys, dtype=np.int64)},
    )
    return table, np.array(ws)


def _prepared(model, table, **state):
    """``model`` with the attributes a fit sets before the split search."""
    model._features = table.drop(["y"])
    model._y = table.column("y")
    model._n_classes = len(table.attribute("y").values)
    for name, value in state.items():
        setattr(model, name, value)
    return model


def _c45_reference(values, y, weights, n_classes):
    """The per-boundary scan: (threshold, gain, ratio) or None."""
    known = ~np.isnan(values)
    if not known.any():
        return None
    v, w, yk = values[known], weights[known], y[known]
    order = np.argsort(v, kind="mergesort")
    v, w, yk = v[order], w[order], yk[order]
    known_fraction = w.sum() / weights.sum()
    one_hot = np.zeros((len(yk), n_classes))
    one_hot[np.arange(len(yk)), yk] = 1.0
    prefix = np.cumsum(one_hot * w[:, None], axis=0)
    total = prefix[-1]
    parent, mass = entropy(total), total.sum()
    best_gain, best = -1.0, None
    for boundary in np.nonzero(np.diff(v) > 0)[0]:
        left = prefix[boundary]
        right = total - left
        lm, rm = left.sum(), right.sum()
        if lm <= 0 or rm <= 0:
            continue
        gain = parent - (
            lm / mass * entropy(left) + rm / mass * entropy(right)
        )
        if gain > best_gain:
            info = split_information([left, right])
            best_gain = gain
            best = (
                safe_threshold(v[boundary], v[boundary + 1]),
                known_fraction * gain,
                known_fraction * (gain / info if info > 0 else 0.0),
            )
    return best


def _cart_reference(values, y, n_classes, impurity, min_leaf):
    """The per-boundary scan: (threshold, decrease) or None."""
    known = ~np.isnan(values)
    if known.sum() < 2 * min_leaf:
        return None
    v, yk = values[known], y[known]
    order = np.argsort(v, kind="mergesort")
    v, yk = v[order], yk[order]
    one_hot = np.zeros((len(yk), n_classes))
    one_hot[np.arange(len(yk)), yk] = 1.0
    prefix = np.cumsum(one_hot, axis=0)
    total, n_known = prefix[-1], len(yk)
    best_decrease, best = -1.0, None
    for b in np.nonzero(np.diff(v) > 0)[0]:
        nl = b + 1
        nr = n_known - nl
        if nl < min_leaf or nr < min_leaf:
            continue
        left = prefix[b]
        child = (
            nl / n_known * impurity(left)
            + nr / n_known * impurity(total - left)
        )
        decrease = (n_known / len(values)) * (impurity(total) - child)
        if decrease > best_decrease:
            best_decrease = decrease
            best = (safe_threshold(v[b], v[b + 1]), decrease)
    return best


@settings(max_examples=150, deadline=None)
@given(scan_inputs())
def test_c45_threshold_matches_per_boundary_fold(inputs):
    table, w = inputs
    model = _prepared(C45(), table)
    indices = np.arange(table.n_rows)
    got = model._eval_numeric("x", indices, w, None)
    want = _c45_reference(
        table.column("x"), table.column("y"), w, model._n_classes
    )
    if want is None:
        assert got is None
    else:
        assert (got["threshold"], got["gain"], got["ratio"]) == want


@settings(max_examples=150, deadline=None)
@given(
    scan_inputs(),
    st.sampled_from(["gini", "entropy"]),
    st.integers(1, 4),
)
def test_cart_threshold_matches_per_boundary_fold(inputs, criterion,
                                                  min_leaf):
    table, _ = inputs
    impurity, rows = {"gini": (gini, gini_rows),
                      "entropy": (entropy, entropy_rows)}[criterion]
    model = _prepared(CART(criterion=criterion, min_samples_leaf=min_leaf),
                      table, _impurity=impurity, _impurity_rows=rows)
    indices = np.arange(table.n_rows)
    got = model._numeric_split(table.attribute("x"), indices, None)
    want = _cart_reference(
        table.column("x"), table.column("y"), model._n_classes, impurity,
        min_leaf,
    )
    if want is None:
        assert got is None
    else:
        assert (got["threshold"], got["decrease"]) == want


def test_first_of_tied_boundaries_wins():
    # Thresholds 1.5 and 2.5 split A | B A and A B | A: equal gains.
    table = Table(
        [numeric("x"), categorical("y", ["A", "B"])],
        {"x": np.array([1.0, 2.0, 3.0]), "y": np.array([0, 1, 0])},
    )
    c45 = _prepared(C45(), table)
    split = c45._eval_numeric("x", np.arange(3), np.ones(3), None)
    assert split["threshold"] == 1.5
    cart = _prepared(CART(), table, _impurity=gini, _impurity_rows=gini_rows)
    assert cart._numeric_split(table.attribute("x"), np.arange(3),
                               None)["threshold"] == 1.5


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 30), st.data())
def test_row_criteria_equal_scalar_criteria(k, m, data):
    counts = np.array(data.draw(st.lists(
        st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6),
                           st.sampled_from([1e-320, 0.5, 1.0])),
                 min_size=k, max_size=k),
        min_size=m, max_size=m)))
    for row, h, g in zip(counts, entropy_rows(counts), gini_rows(counts)):
        assert h == entropy(row)
        assert g == gini(row)


def test_first_best_skips_invalid_and_nan():
    scores = np.array([np.nan, 0.3, 0.9, 0.9, 0.1])
    valid = np.array([True, True, False, True, True])
    assert first_best(scores, valid) == 3
    assert first_best(scores, np.zeros(5, dtype=bool)) is None
    assert first_best(np.array([-1.0, -2.0]), np.ones(2, dtype=bool)) is None


def _silhouette_reference(X, labels):
    """The per-point definition over the full distance matrix."""
    keep = labels >= 0
    X, labels = X[keep], labels[keep]
    clusters = np.unique(labels)
    if len(clusters) < 2:
        return 0.0
    d = pairwise_distances(X)
    scores = np.zeros(len(X))
    for i in range(len(X)):
        own = labels == labels[i]
        if own.sum() <= 1:
            continue
        a = d[i, own].sum() / (own.sum() - 1)
        b = min(d[i, labels == c].mean() for c in clusters
                if c != labels[i])
        scores[i] = (b - a) / max(a, b)
    return float(scores.mean())


@st.composite
def labelled_points(draw):
    n = draw(st.integers(1, 60))
    dim = draw(st.integers(1, 3))
    k = draw(st.integers(2, 6))
    coords = draw(st.lists(
        st.one_of(st.floats(-100.0, 100.0), st.sampled_from([0.0, 1.0])),
        min_size=n * dim, max_size=n * dim))
    X = np.array(coords).reshape(n, dim)
    if draw(st.booleans()):  # duplicate points
        X[: n // 2] = X[0]
    # -1 is noise; a label drawn once is a singleton cluster.
    labels = np.array(draw(st.lists(st.integers(-1, k - 1), min_size=n,
                                    max_size=n)))
    return X, labels


@settings(max_examples=150, deadline=None)
@given(labelled_points())
def test_silhouette_matches_per_point_definition(points):
    X, labels = points
    with np.errstate(invalid="ignore"):
        want = _silhouette_reference(X, labels)
        got = silhouette(X, labels)
    if np.isnan(want):  # a = b = 0: every point duplicated across clusters
        assert np.isnan(got)
    else:
        assert got == pytest.approx(want, rel=0, abs=1e-12)


def test_silhouette_spanning_several_blocks():
    rng = np.random.default_rng(5)
    n = 1500
    rows_per_block = cluster_metrics._SILHOUETTE_BLOCK_BYTES // (8 * n)
    assert n > 3 * rows_per_block
    X = np.concatenate([rng.normal(c, 1.0, size=(n // 3, 2))
                        for c in (0.0, 4.0, 9.0)])
    labels = np.repeat([2, 0, 1], n // 3)
    labels[::97] = -1
    labels[5] = 7  # a singleton
    perm = rng.permutation(n)
    X, labels = X[perm], labels[perm]
    assert silhouette(X, labels) == pytest.approx(
        _silhouette_reference(X, labels), rel=0, abs=1e-12)
