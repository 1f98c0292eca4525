"""Decision-tree pruning strategies.

Three classic methods, applied to the shared node structures of
:mod:`repro.classification.tree_model`:

* :func:`pessimistic_prune` — C4.5's error-based pruning: estimate each
  leaf's true error by the upper confidence limit of the binomial
  observed-error rate and collapse subtrees that do not beat a leaf.
* :func:`reduced_error_prune` — collapse subtrees that do not help on a
  held-out validation set.
* :func:`cost_complexity_path` / :func:`prune_to_alpha` — CART's
  weakest-link pruning, producing a nested family of subtrees indexed by
  the complexity parameter alpha.

All functions return new trees; the input tree is never mutated.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from ..core.exceptions import ValidationError
from ..core.table import Table
from .tree_model import (
    BinaryCategoricalSplit,
    CategoricalSplit,
    Leaf,
    NumericSplit,
    TreeNode,
    _rows_as_dicts,
)


# ----------------------------------------------------------------------
# Tree rebuilding helper
# ----------------------------------------------------------------------
def _rebuild(node: TreeNode, new_children) -> TreeNode:
    """Copy a split node with replaced children."""
    if isinstance(node, CategoricalSplit):
        return CategoricalSplit(node.attribute, new_children, node.class_counts)
    if isinstance(node, NumericSplit):
        left, right = new_children
        return NumericSplit(
            node.attribute, node.threshold, left, right, node.class_counts
        )
    if isinstance(node, BinaryCategoricalSplit):
        left, right = new_children
        return BinaryCategoricalSplit(
            node.attribute, node.left_codes, left, right, node.class_counts
        )
    raise ValidationError(f"unknown node type: {type(node).__name__}")


def _children(node: TreeNode):
    if isinstance(node, CategoricalSplit):
        return list(node.children.values())
    if isinstance(node, (NumericSplit, BinaryCategoricalSplit)):
        return [node.left, node.right]
    return []


# ----------------------------------------------------------------------
# Pessimistic (error-based) pruning
# ----------------------------------------------------------------------
def binomial_upper_limit(errors: float, n: float, confidence: float) -> float:
    """Upper confidence limit of an error *rate* from (errors, n).

    Clopper-Pearson style bound: the largest p with
    ``P(X <= errors | n, p) >= confidence``; Quinlan's U_CF.  Fractional
    inputs (from weighted instances) are accepted.

    >>> round(binomial_upper_limit(0.0, 6.0, 0.25), 4)  # 1 - 0.25 ** (1/6)
    0.2063
    """
    if n <= 0:
        return 1.0
    if confidence >= 1.0:
        return errors / n
    if errors >= n or confidence <= 0.0:
        return 1.0
    # Upper limit of the Clopper-Pearson interval at level `confidence`:
    # the p with P(X <= errors) = 1 - I_p(errors + 1, n - errors) = CF.
    return _inverse_beta_upper_tail(
        errors + 1.0, max(n - errors, 1e-9), confidence
    )


#: Stirling-series coefficients B_2k / (2k (2k - 1)) of ln Gamma(z)'s
#: remainder, highest order first (Horner in 1 / z**2).
_STIRLING = (
    -3617.0 / 122400.0,
    1.0 / 156.0,
    -691.0 / 360360.0,
    1.0 / 1188.0,
    -1.0 / 1680.0,
    1.0 / 1260.0,
    -1.0 / 360.0,
    1.0 / 12.0,
)


def _stirling_remainder(z: float) -> float:
    """ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2), for z >= 10."""
    inv2 = 1.0 / (z * z)
    acc = 0.0
    for coefficient in _STIRLING:
        acc = acc * inv2 + coefficient
    return acc / z


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b), without cancelling two huge ``lgamma`` values.

    For a large argument, ``lgamma(large) - lgamma(small + large)`` comes
    from Stirling's series with ``log1p``, whose error scales with the
    small argument rather than with ``lgamma(large)`` (about 1e6 at
    n = 1e5, where one ulp is 1e-10).
    """
    small, large = min(a, b), max(a, b)
    if large < 10.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    total = small + large
    return (
        math.lgamma(small)
        - (large - 0.5) * math.log1p(small / large)
        - small * math.log(total)
        + small
        + _stirling_remainder(large)
        - _stirling_remainder(total)
    )


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) by the modified Lentz method.

    Converges fast for ``x < (a + 1) / (a + b + 2)``.
    """
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10000):
        # Even step, then odd step, of the fraction.
        numerator = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        d = 1.0 + numerator * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + numerator / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        numerator = (
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        )
        d = 1.0 + numerator * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + numerator / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return h


def _beta_upper_tail(a: float, b: float, x: float, log_beta: float):
    """(1 - I_x(a, b), the density x**(a-1) (1-x)**(b-1) / B(a, b)).

    For 0 < x < 1.  Whichever tail is the smaller is summed directly, so
    a tail near 0 keeps its relative precision.
    """
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta)
    density = front / (x * (1.0 - x))
    if x < (a + 1.0) / (a + b + 2.0):
        return 1.0 - front * _beta_fraction(a, b, x) / a, density
    # 1 - I_x(a, b) = I_{1-x}(b, a)
    return front * _beta_fraction(b, a, 1.0 - x) / b, density


def _inverse_beta_upper_tail(a: float, b: float, q: float) -> float:
    """x with 1 - I_x(a, b) = q, for 0 < q < 1: Halley steps kept inside
    a shrinking bracket, falling back to bisection when a step leaves it.

    The starting point is Abramowitz & Stegun 26.5.22 (a, b >= 1) or the
    leading power terms of either tail.
    """
    y = 1.0 - q
    log_beta = _log_beta(a, b)
    if a >= 1.0 and b >= 1.0:
        tail = min(y, q)
        t = math.sqrt(-2.0 * math.log(tail))
        z = (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t)) - t
        if y < 0.5:
            z = -z
        lam = (z * z - 3.0) / 6.0
        h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
        w = z * math.sqrt(h + lam) / h - (
            1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)
        ) * (lam + 5.0 / 6.0 - 2.0 / (3.0 * h))
        x = a / (a + b * math.exp(min(2.0 * w, 700.0)))
    else:
        lower = math.exp(a * math.log(a / (a + b))) / a
        upper = math.exp(b * math.log(b / (a + b))) / b
        if y < lower / (lower + upper):
            x = (a * (lower + upper) * y) ** (1.0 / a)
        else:
            x = 1.0 - min(1.0, b * (lower + upper) * q) ** (1.0 / b)
    lo, hi = 0.0, 1.0
    for _ in range(100):
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:  # the bracket is two adjacent floats
                return x
        value, density = _beta_upper_tail(a, b, x, log_beta)
        if value == q:
            return x
        if value > q:
            lo = x
        else:
            hi = x
        # Near the root, Halley's correction of the Newton step, from
        # f''/f' = (a - 1)/x - (b - 1)/(1 - x); plain Newton further out.
        u = (q - value) / density if density > 0.0 else math.inf
        curvature = u * ((a - 1.0) / x - (b - 1.0) / (1.0 - x))
        new = x - (u / (1.0 - 0.5 * curvature) if abs(curvature) < 1.0 else u)
        if abs(new - x) <= 1e-15 * x:
            return new if lo <= new <= hi else x
        x = new
    return x


def pessimistic_prune(node: TreeNode, confidence: float = 0.25) -> TreeNode:
    """C4.5 error-based pruning, applied bottom-up.

    A subtree collapses to a leaf when the leaf's pessimistic error
    estimate does not exceed the subtree's, the sum of its leaves'
    estimates.  (C4.5's further option of replacing a node by its
    largest branch is not implemented; it rarely changes the headline
    accuracy/size trade-off.)
    """
    if isinstance(node, Leaf):
        return node
    memo: Dict[Tuple[float, float], float] = {}

    def leaf_estimate(leaf: TreeNode) -> float:
        key = (leaf.training_errors(), leaf.training_mass)
        if key not in memo:
            errors, n = key
            memo[key] = n * binomial_upper_limit(errors, n, confidence)
        return memo[key]

    return _pessimistic(node, leaf_estimate)[0]


def _pessimistic(node: TreeNode, leaf_estimate) -> Tuple[TreeNode, float]:
    """(pruned subtree, its estimate), each subtree estimated once.

    Children's estimates are summed in child order, the order a walk
    over the pruned subtree's leaves would add them in.
    """
    if isinstance(node, Leaf):
        return node, leaf_estimate(node)
    if isinstance(node, CategoricalSplit):
        results = {
            code: _pessimistic(child, leaf_estimate)
            for code, child in node.children.items()
        }
        pruned = _rebuild(node, {code: r[0] for code, r in results.items()})
        results = results.values()
    else:
        results = [_pessimistic(c, leaf_estimate) for c in _children(node)]
        pruned = _rebuild(node, [r[0] for r in results])
    subtree_estimate = sum(r[1] for r in results)
    as_leaf = Leaf(node.class_counts)
    estimate = leaf_estimate(as_leaf)
    if estimate <= subtree_estimate + 1e-9:
        return as_leaf, estimate
    return pruned, subtree_estimate


# ----------------------------------------------------------------------
# Reduced-error pruning
# ----------------------------------------------------------------------
def reduced_error_prune(
    node: TreeNode, validation: Table, y: np.ndarray
) -> TreeNode:
    """Prune using a held-out validation set.

    Bottom-up: a subtree collapses to a leaf whenever the leaf's
    validation errors do not exceed the subtree's on the rows routed to
    it.  Rows with a missing split value follow the branch with the
    largest training mass (deterministic routing keeps error counts
    decomposable).
    """
    rows = _rows_as_dicts(validation)
    labels = np.asarray(y)
    if len(rows) != len(labels):
        raise ValidationError(
            f"validation table has {len(rows)} rows but y has {len(labels)}"
        )
    pruned, _ = _rep(node, rows, labels)
    return pruned


def _rep(node: TreeNode, rows, labels) -> Tuple[TreeNode, int]:
    leaf_errors = int(
        sum(1 for lab in labels if lab != node.majority_class)
    )
    if isinstance(node, Leaf):
        return node, leaf_errors
    routed = _route(node, rows, labels)
    subtree_errors = 0
    if isinstance(node, CategoricalSplit):
        new_children = {}
        for code, child in node.children.items():
            child_rows, child_labels = routed.get(code, ([], np.array([], dtype=int)))
            new_child, errs = _rep(child, child_rows, child_labels)
            new_children[code] = new_child
            subtree_errors += errs
        pruned = _rebuild(node, new_children)
    else:
        (l_rows, l_labels), (r_rows, r_labels) = routed
        new_left, left_errs = _rep(node.left, l_rows, l_labels)
        new_right, right_errs = _rep(node.right, r_rows, r_labels)
        subtree_errors = left_errs + right_errs
        pruned = _rebuild(node, [new_left, new_right])
    if leaf_errors <= subtree_errors:
        return Leaf(node.class_counts), leaf_errors
    return pruned, subtree_errors


def _route(node: TreeNode, rows, labels):
    """Partition validation rows among a split node's children."""
    if isinstance(node, CategoricalSplit):
        heaviest = max(
            node.children, key=lambda c: node.children[c].training_mass
        )
        buckets: Dict[int, Tuple[list, list]] = {
            code: ([], []) for code in node.children
        }
        for row, lab in zip(rows, labels):
            code = row.get(node.attribute.name)
            if code is None or code not in node.children:
                code = heaviest
            buckets[code][0].append(row)
            buckets[code][1].append(lab)
        return {
            code: (rs, np.asarray(ls, dtype=int))
            for code, (rs, ls) in buckets.items()
        }
    left_rows, left_labels, right_rows, right_labels = [], [], [], []
    bigger_left = node.left.training_mass >= node.right.training_mass
    for row, lab in zip(rows, labels):
        value = row.get(node.attribute.name)
        if isinstance(node, NumericSplit):
            if value is None or (isinstance(value, float) and math.isnan(value)):
                go_left = bigger_left
            else:
                go_left = value <= node.threshold
        else:  # BinaryCategoricalSplit
            if value is None:
                go_left = bigger_left
            else:
                go_left = value in node.left_codes
        if go_left:
            left_rows.append(row)
            left_labels.append(lab)
        else:
            right_rows.append(row)
            right_labels.append(lab)
    return (
        (left_rows, np.asarray(left_labels, dtype=int)),
        (right_rows, np.asarray(right_labels, dtype=int)),
    )


# ----------------------------------------------------------------------
# Cost-complexity (weakest-link) pruning
# ----------------------------------------------------------------------
def _subtree_risk_and_leaves(node: TreeNode) -> Tuple[float, int]:
    """(training errors of the subtree's leaves, number of leaves)."""
    if isinstance(node, Leaf):
        return node.training_errors(), 1
    risk, leaves = 0.0, 0
    for child in _children(node):
        r, l = _subtree_risk_and_leaves(child)
        risk += r
        leaves += l
    return risk, leaves


def prune_to_alpha(node: TreeNode, alpha: float, n_total: float) -> TreeNode:
    """Smallest subtree optimal at complexity parameter ``alpha``.

    Collapses, bottom-up, every internal node whose link strength
    ``g = (R(leaf) - R(subtree)) / (n_leaves - 1)`` is ``<= alpha``,
    where risks are normalised by ``n_total`` training rows.
    """
    if alpha < 0:
        raise ValidationError(f"alpha must be >= 0, got {alpha}")
    if n_total <= 0:
        raise ValidationError(f"n_total must be > 0, got {n_total}")
    if isinstance(node, Leaf):
        return node
    if isinstance(node, CategoricalSplit):
        pruned = _rebuild(
            node,
            {
                code: prune_to_alpha(child, alpha, n_total)
                for code, child in node.children.items()
            },
        )
    else:
        pruned = _rebuild(
            node, [prune_to_alpha(c, alpha, n_total) for c in _children(node)]
        )
    subtree_risk, leaves = _subtree_risk_and_leaves(pruned)
    if leaves <= 1:
        return Leaf(node.class_counts)
    g = (node.training_errors() - subtree_risk) / (n_total * (leaves - 1))
    if g <= alpha + 1e-12:
        return Leaf(node.class_counts)
    return pruned


def cost_complexity_path(node: TreeNode) -> List[float]:
    """Ascending list of alpha values at which the optimal subtree shrinks.

    Computed by repeated weakest-link pruning; prepends 0.0 so iterating
    the list with :func:`prune_to_alpha` sweeps the full family from the
    unpruned tree to the root leaf.
    """
    n_total = node.training_mass
    alphas = [0.0]
    current = node
    while not isinstance(current, Leaf):
        weakest = _weakest_link(current, n_total)
        if weakest is None or not math.isfinite(weakest):
            break
        alphas.append(weakest)
        current = prune_to_alpha(current, weakest, n_total)
    return alphas


def _weakest_link(node: TreeNode, n_total: float) -> float:
    best = math.inf
    for sub in node.iter_nodes():
        if isinstance(sub, Leaf):
            continue
        risk, leaves = _subtree_risk_and_leaves(sub)
        if leaves <= 1:
            continue
        g = (sub.training_errors() - risk) / (n_total * (leaves - 1))
        best = min(best, g)
    return best


__all__ = [
    "binomial_upper_limit",
    "pessimistic_prune",
    "reduced_error_prune",
    "cost_complexity_path",
    "prune_to_alpha",
]
