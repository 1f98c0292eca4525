"""Interestingness measures for association rules.

All measures are expressed over the three relative supports that fully
determine a rule X -> Y on a database:

* ``support`` — P(X ∪ Y),
* ``antecedent_support`` — P(X),
* ``consequent_support`` — P(Y).

Degenerate denominators follow the customary conventions noted on each
function rather than raising, because sweeps over generated rules should
not die on a boundary rule.
"""

from __future__ import annotations

import math

from ..core.base import check_in_range


def _check(support: float, antecedent: float, consequent: float) -> None:
    check_in_range("support", support, 0.0, 1.0)
    check_in_range("antecedent_support", antecedent, 0.0, 1.0)
    check_in_range("consequent_support", consequent, 0.0, 1.0)


def confidence(support: float, antecedent_support: float) -> float:
    """P(Y | X) = P(X∪Y) / P(X); 0.0 when the antecedent never occurs."""
    check_in_range("support", support, 0.0, 1.0)
    check_in_range("antecedent_support", antecedent_support, 0.0, 1.0)
    if antecedent_support == 0.0:
        return 0.0
    return support / antecedent_support


def lift(support: float, antecedent_support: float, consequent_support: float) -> float:
    """Observed-to-expected co-occurrence ratio; 1.0 means independence.

    Returns ``inf`` when the consequent never occurs alone but the rule
    has support (cannot happen on real counts) and 0.0 when either side
    has zero support.
    """
    _check(support, antecedent_support, consequent_support)
    denom = antecedent_support * consequent_support
    if denom == 0.0:
        return 0.0 if support == 0.0 else math.inf
    return support / denom


def leverage(
    support: float, antecedent_support: float, consequent_support: float
) -> float:
    """P(X∪Y) − P(X)P(Y): additive deviation from independence in [-.25, .25]."""
    _check(support, antecedent_support, consequent_support)
    return support - antecedent_support * consequent_support


def conviction(
    support: float, antecedent_support: float, consequent_support: float
) -> float:
    """P(X)P(¬Y) / P(X ∧ ¬Y); ``inf`` for a rule that never misses."""
    _check(support, antecedent_support, consequent_support)
    conf = 0.0 if antecedent_support == 0.0 else support / antecedent_support
    if conf >= 1.0:
        return math.inf
    return (1.0 - consequent_support) / (1.0 - conf)


def chi_square(
    support: float,
    antecedent_support: float,
    consequent_support: float,
    n_transactions: int,
) -> float:
    """Pearson chi-square statistic of the 2x2 contingency table of X and Y.

    A value above ~3.84 rejects independence at the 5% level (1 dof).
    Returns 0.0 when either marginal is degenerate (all or nothing), where
    independence cannot be tested.
    """
    _check(support, antecedent_support, consequent_support)
    if n_transactions <= 0:
        return 0.0
    px, py = antecedent_support, consequent_support
    if px in (0.0, 1.0) or py in (0.0, 1.0):
        return 0.0
    statistic = 0.0
    for x_present in (True, False):
        for y_present in (True, False):
            observed = _cell(support, px, py, x_present, y_present)
            expected = (px if x_present else 1 - px) * (py if y_present else 1 - py)
            statistic += (observed - expected) ** 2 / expected
    return statistic * n_transactions


def _cell(pxy: float, px: float, py: float, x: bool, y: bool) -> float:
    if x and y:
        return pxy
    if x and not y:
        return px - pxy
    if not x and y:
        return py - pxy
    return 1.0 - px - py + pxy


__all__ = ["confidence", "lift", "leverage", "conviction", "chi_square"]
