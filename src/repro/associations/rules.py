"""Association-rule generation from frequent itemsets.

Implements the faster *ap-genrules* procedure of the Apriori paper: for a
frequent itemset Z, rules are generated by growing *consequents* levelwise
— if ``(Z - c) -> c`` fails the confidence threshold, then every rule with
a consequent that is a superset of ``c`` fails too (its antecedent has at
least the same support), so whole branches are pruned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..core.base import check_in_range
from ..core.exceptions import ValidationError
from ..core.itemsets import FrequentItemsets, Itemset
from .candidates import apriori_gen


@dataclass(frozen=True)
class AssociationRule:
    """One rule ``antecedent -> consequent`` with its statistics.

    Supports are relative (fractions of the database).  Derived measures
    are precomputed so sweeps can sort/filter without recomputation.
    """

    antecedent: Itemset
    consequent: Itemset
    support: float
    confidence: float
    lift: float
    leverage: float
    conviction: float

    def __str__(self) -> str:
        ante = "{" + ", ".join(map(str, self.antecedent)) + "}"
        cons = "{" + ", ".join(map(str, self.consequent)) + "}"
        return (
            f"{ante} -> {cons}  "
            f"(support={self.support:.4f}, confidence={self.confidence:.4f}, "
            f"lift={self.lift:.3f})"
        )


def generate_rules(
    itemsets: FrequentItemsets,
    min_confidence: float = 0.5,
    max_consequent_size: Optional[int] = None,
) -> List[AssociationRule]:
    """Generate all rules meeting ``min_confidence`` from mined itemsets.

    Parameters
    ----------
    itemsets:
        Output of any frequent-itemset miner.  Rule statistics only need
        supports that are themselves frequent (every subset of a frequent
        itemset is frequent), so no database re-scan is required.
    min_confidence:
        Threshold in [0, 1].
    max_consequent_size:
        Optionally cap the consequent size (``None`` = unbounded, else at
        least 1).

    Returns
    -------
    list of AssociationRule
        Sorted by descending confidence, then descending support, then
        lexicographically — a deterministic, presentation-ready order.

    Raises
    ------
    ValidationError
        On a threshold out of range or a support count outside
        ``[0, n_transactions]``.

    Examples
    --------
    >>> from repro.core import TransactionDatabase
    >>> from repro.associations import apriori
    >>> db = TransactionDatabase([(0, 1), (0, 1), (0, 2), (1,)])
    >>> rules = generate_rules(apriori(db, 0.5), min_confidence=0.6)
    >>> [str(r) for r in rules][0]
    '{0} -> {1}  (support=0.5000, confidence=0.6667, lift=0.889)'
    """
    # Validate once here, so the measures below can skip the per-call
    # range checks of repro.associations.measures while computing the
    # same IEEE expressions.
    check_in_range("min_confidence", min_confidence, 0.0, 1.0)
    if max_consequent_size is not None and max_consequent_size < 1:
        raise ValidationError(
            f"max_consequent_size must be >= 1 or None, "
            f"got {max_consequent_size}"
        )
    n = itemsets.n_transactions
    counts = itemsets.supports
    if n == 0 or not counts:
        return []
    low, high = min(counts.values()), max(counts.values())
    if low < 0 or high > n:
        raise ValidationError(
            f"support counts must lie in [0, {n}], got [{low}, {high}]"
        )
    support = {itemset: count / n for itemset, count in counts.items()}

    # (-confidence, -support, antecedent, consequent) is unique per rule,
    # so sorting the rows never compares the trailing supports.
    rows = []
    for itemset, support_z in support.items():
        if len(itemset) < 2:
            continue
        top = len(itemset) - 1
        if max_consequent_size is not None:
            top = min(top, max_consequent_size)
        # ap-genrules: grow consequents levelwise; a consequent whose rule
        # fails min_confidence is dropped, which prunes all its supersets.
        consequents = [(item,) for item in itemset]
        level = 1
        while consequents:
            passed = []
            for consequent in consequents:
                antecedent = tuple([i for i in itemset if i not in consequent])
                support_x = support[antecedent]
                conf = support_z / support_x if support_x != 0.0 else 0.0
                if conf >= min_confidence:
                    passed.append(consequent)
                    rows.append((-conf, -support_z, antecedent, consequent,
                                 support_x))
            level += 1
            consequents = apriori_gen(passed) if level <= top else []
    rows.sort()

    rules = []
    for neg_conf, neg_support, antecedent, consequent, support_x in rows:
        support_z, conf = -neg_support, -neg_conf
        support_y = support[consequent]
        expected = support_x * support_y
        if expected == 0.0:
            lift = 0.0 if support_z == 0.0 else math.inf
        else:
            lift = support_z / expected
        conviction = (math.inf if conf >= 1.0
                      else (1.0 - support_y) / (1.0 - conf))
        rules.append(AssociationRule(antecedent, consequent, support_z, conf,
                                     lift, support_z - expected, conviction))
    return rules


def filter_rules(
    rules: List[AssociationRule],
    min_lift: Optional[float] = None,
    min_support: Optional[float] = None,
    min_confidence: Optional[float] = None,
) -> List[AssociationRule]:
    """Post-filter a rule list on any combination of thresholds."""
    out = rules
    if min_lift is not None:
        out = [r for r in out if r.lift >= min_lift]
    if min_support is not None:
        out = [r for r in out if r.support >= min_support]
    if min_confidence is not None:
        out = [r for r in out if r.confidence >= min_confidence]
    return list(out)


__all__ = ["AssociationRule", "generate_rules", "filter_rules"]
