"""Unit tests for rule generation."""

import math

import pytest

from repro.associations import apriori, filter_rules, generate_rules
from repro.core import TransactionDatabase, ValidationError


def _mined(db, min_support=0.3):
    return apriori(db, min_support)


class TestGenerateRules:
    def test_simple_confidences(self):
        db = TransactionDatabase([(0, 1), (0, 1), (0, 2), (1,)])
        rules = generate_rules(_mined(db, 0.5), min_confidence=0.0)
        by_pair = {(r.antecedent, r.consequent): r for r in rules}
        r01 = by_pair[((0,), (1,))]
        assert r01.confidence == pytest.approx(2 / 3)
        assert r01.support == pytest.approx(0.5)
        r10 = by_pair[((1,), (0,))]
        assert r10.confidence == pytest.approx(2 / 3)

    def test_min_confidence_filters(self):
        db = TransactionDatabase([(0, 1), (0, 1), (0, 2), (1,)])
        rules = generate_rules(_mined(db, 0.5), min_confidence=0.7)
        assert rules == []

    def test_consequent_growth_pruning_is_sound(self, medium_db):
        """Every rule from the fast path must match a brute enumeration."""
        from itertools import combinations

        itemsets = apriori(medium_db, 0.05)
        fast = {
            (r.antecedent, r.consequent): r.confidence
            for r in generate_rules(itemsets, min_confidence=0.6)
        }
        slow = {}
        for itemset in itemsets:
            if len(itemset) < 2:
                continue
            for size in range(1, len(itemset)):
                for consequent in combinations(itemset, size):
                    antecedent = tuple(
                        i for i in itemset if i not in consequent
                    )
                    conf = itemsets.count(itemset) / itemsets.count(antecedent)
                    if conf >= 0.6:
                        slow[(antecedent, consequent)] = conf
        assert set(fast) == set(slow)
        for key in fast:
            assert fast[key] == pytest.approx(slow[key])

    def test_rules_sorted_by_confidence(self, medium_db):
        rules = generate_rules(apriori(medium_db, 0.05), 0.3)
        confs = [r.confidence for r in rules]
        assert confs == sorted(confs, reverse=True)

    def test_conviction_inf_for_exact_rules(self):
        db = TransactionDatabase([(0, 1), (0, 1), (2,)])
        rules = generate_rules(_mined(db, 0.5), 0.99)
        exact = [r for r in rules if r.confidence == 1.0]
        assert exact and all(math.isinf(r.conviction) for r in exact)

    def test_max_consequent_size(self, medium_db):
        rules = generate_rules(
            apriori(medium_db, 0.05), 0.3, max_consequent_size=1
        )
        assert all(len(r.consequent) == 1 for r in rules)

    def test_invalid_confidence(self, small_db):
        with pytest.raises(ValidationError):
            generate_rules(_mined(small_db), min_confidence=1.5)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_consequent_cap_below_one_is_rejected(self, small_db, cap):
        with pytest.raises(ValidationError):
            generate_rules(_mined(small_db), 0.0, max_consequent_size=cap)

    def test_empty_itemsets_give_no_rules(self):
        from repro.core import FrequentItemsets
        assert generate_rules(FrequentItemsets({}, 0, 0.5), 0.5) == []

    def test_str_rendering(self):
        db = TransactionDatabase([(0, 1)] * 3)
        rules = generate_rules(_mined(db, 0.5), 0.5)
        assert "->" in str(rules[0])


class TestFilterRules:
    def _rules(self, medium_db):
        return generate_rules(apriori(medium_db, 0.05), 0.3)

    def test_filter_by_lift(self, medium_db):
        rules = self._rules(medium_db)
        strong = filter_rules(rules, min_lift=1.5)
        assert all(r.lift >= 1.5 for r in strong)
        assert len(strong) <= len(rules)

    def test_filter_combination(self, medium_db):
        rules = self._rules(medium_db)
        out = filter_rules(rules, min_support=0.08, min_confidence=0.5)
        assert all(r.support >= 0.08 and r.confidence >= 0.5 for r in out)

    def test_no_filters_is_identity(self, medium_db):
        rules = self._rules(medium_db)
        assert filter_rules(rules) == rules
