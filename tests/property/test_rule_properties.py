"""Exact oracle for rule generation.

``generate_rules`` prunes consequents levelwise (ap-genrules) and inlines
the measure expressions.  Here it must equal a brute-force enumeration
of every consequent of every frequent itemset, with each field computed
by the validated functions of :mod:`repro.associations.measures`, in the
documented order.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.associations import (
    AssociationRule,
    apriori,
    confidence,
    conviction,
    generate_rules,
    leverage,
    lift,
)
from repro.core import FrequentItemsets, TransactionDatabase, ValidationError

transactions = st.lists(
    st.lists(st.integers(0, 7), min_size=0, max_size=6),
    min_size=1,
    max_size=20,
)
supports = st.sampled_from([0.1, 0.2, 0.35])
# Exact ratios put confidences right on the threshold.
min_confidences = st.one_of(
    st.sampled_from([0.0, 1.0, 1 / 2, 2 / 3, 1 / 3, 3 / 4]),
    st.floats(0.0, 1.0),
)
consequent_caps = st.sampled_from([None, 1, 2, 3])


def _sort_key(rule):
    return (-rule.confidence, -rule.support, rule.antecedent, rule.consequent)


def _oracle(itemsets, min_confidence, max_consequent_size):
    """Every qualifying rule, keyed by (antecedent, consequent)."""
    rules = {}
    for itemset in itemsets:
        top = len(itemset) - 1
        if max_consequent_size is not None:
            top = min(top, max_consequent_size)
        for size in range(1, top + 1):
            for consequent in combinations(itemset, size):
                antecedent = tuple(i for i in itemset if i not in consequent)
                s = itemsets.support(itemset)
                sx = itemsets.support(antecedent)
                sy = itemsets.support(consequent)
                conf = confidence(s, sx)
                if conf >= min_confidence:
                    rules[antecedent, consequent] = AssociationRule(
                        antecedent, consequent, s, conf, lift(s, sx, sy),
                        leverage(s, sx, sy), conviction(s, sx, sy),
                    )
    return rules


@settings(max_examples=80, deadline=None)
@given(transactions, supports, min_confidences, consequent_caps)
def test_rules_equal_brute_force_oracle(txns, min_support, min_confidence,
                                        max_consequent_size):
    itemsets = apriori(TransactionDatabase(txns), min_support)
    rules = generate_rules(itemsets, min_confidence, max_consequent_size)
    want = _oracle(itemsets, min_confidence, max_consequent_size)
    assert {(r.antecedent, r.consequent) for r in rules} == set(want)
    assert len(rules) == len(want)
    for rule in rules:
        assert rule == want[rule.antecedent, rule.consequent]
    keys = [_sort_key(r) for r in rules]
    assert keys == sorted(keys)


def test_count_above_n_transactions_is_rejected():
    itemsets = FrequentItemsets({(0,): 3, (1,): 2, (0, 1): 2}, 2, 0.5)
    with pytest.raises(ValidationError):
        generate_rules(itemsets, 0.5)


def test_negative_count_is_rejected():
    itemsets = FrequentItemsets({(0,): 1, (1,): -1, (0, 1): 1}, 2, 0.5)
    with pytest.raises(ValidationError):
        generate_rules(itemsets, 0.5)


def test_zero_transactions_give_no_rules():
    itemsets = FrequentItemsets({(0,): 0, (1,): 0, (0, 1): 0}, 0, 0.5)
    assert generate_rules(itemsets, 0.0) == []


def test_singleton_itemsets_give_no_rules():
    itemsets = FrequentItemsets({(0,): 2, (1,): 3, (2,): 1}, 4, 0.25)
    assert generate_rules(itemsets, 0.0) == []
