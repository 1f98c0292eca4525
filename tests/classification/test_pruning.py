"""Unit tests for the pruning strategies."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.classification import (
    C45,
    CART,
    C45Rules,
    CategoricalSplit,
    Leaf,
    NumericSplit,
    binomial_upper_limit,
    cost_complexity_path,
    pessimistic_prune,
    prune_to_alpha,
    reduced_error_prune,
)
from repro.classification import pruning, tree_rules
from repro.datasets import agrawal, play_tennis, weather_numeric
from repro.preprocessing import train_test_split


class TestBinomialUpperLimit:
    def test_no_errors_still_positive(self):
        u = binomial_upper_limit(0.0, 10.0, 0.25)
        assert 0.0 < u < 0.2

    def test_increases_with_errors(self):
        low = binomial_upper_limit(1.0, 20.0, 0.25)
        high = binomial_upper_limit(5.0, 20.0, 0.25)
        assert high > low

    def test_decreases_with_sample_size(self):
        small = binomial_upper_limit(1.0, 10.0, 0.25)
        large = binomial_upper_limit(10.0, 100.0, 0.25)
        assert large < small

    def test_all_errors_gives_one(self):
        assert binomial_upper_limit(10.0, 10.0, 0.25) == 1.0

    def test_zero_n(self):
        assert binomial_upper_limit(0.0, 0.0, 0.25) == 1.0

    def test_quinlan_example_magnitude(self):
        # C4.5 book: U_0.25(0, 6) ~= 0.206.
        assert binomial_upper_limit(0.0, 6.0, 0.25) == pytest.approx(
            0.206, abs=0.01
        )


def _scipy_upper_limit(errors, n, confidence):
    """The Clopper-Pearson limit by scipy's inverse incomplete beta."""
    from scipy.special import betaincinv

    if n <= 0 or errors >= n:
        return 1.0
    return float(betaincinv(errors + 1.0, max(n - errors, 1e-9),
                            1.0 - confidence))


class TestBinomialUpperLimitOracles:
    def test_no_errors_closed_form(self):
        # P(X <= 0) = (1 - p)**n = CF, so U = 1 - CF**(1/n).
        rng = np.random.default_rng(1)
        for _ in range(3000):
            n = 10.0 ** rng.uniform(0.0, 5.0)
            confidence = rng.uniform(1e-6, 0.5)
            exact = -math.expm1(math.log(confidence) / n)
            assert binomial_upper_limit(0.0, n, confidence) == (
                pytest.approx(exact, rel=1e-11, abs=0)), (n, confidence)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.one_of(st.floats(1e-3, 1.0), st.floats(1.0, 1e5)),
           st.sampled_from([0.05, 0.25, 0.45]))
    @example(0.0, 0.999, 0.5, 0.25)  # b = n - errors < 1 below unit mass
    @example(0.9, 0.9999, 3.0, 0.05)  # errors close to n
    def test_monotone_in_errors_and_n(self, u, v, n, confidence):
        # Up to the bound's own rounding: errors of 0 and 2e-16 are one
        # ulp apart in the exact limits too.
        slack = 1.0 + 1e-12
        low, high = sorted([u * n, v * n])
        assert (binomial_upper_limit(low, n, confidence)
                <= binomial_upper_limit(high, n, confidence) * slack)
        assert (binomial_upper_limit(low, n, confidence) * slack
                >= binomial_upper_limit(low, n * 1.5 + 1.0, confidence))

    def test_matches_scipy(self):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(0)
        for _ in range(3000):
            n = float(rng.choice([rng.integers(1, 30),
                                  rng.integers(1, 5000),
                                  rng.integers(1, 100_001)]))
            if rng.random() < 0.3:
                n += rng.random()
            errors = float(rng.choice([0.0, rng.integers(0, int(n) + 1),
                                       rng.random() * n,
                                       rng.random() * min(n, 10.0)]))
            confidence = float(rng.choice([0.05, 0.25, 0.45,
                                           rng.uniform(1e-3, 0.5)]))
            assert binomial_upper_limit(errors, n, confidence) == (
                pytest.approx(_scipy_upper_limit(errors, n, confidence),
                              rel=1e-10, abs=0)), (errors, n, confidence)

    def test_matches_scipy_below_unit_mass(self):
        # C4.5's missing-value weights give leaves of mass below 1, and
        # errors close to n give b = n - errors < 1: the inverse then
        # starts from the tails' leading power terms and its density is
        # unbounded near 1.
        pytest.importorskip("scipy")
        rng = np.random.default_rng(2)
        for _ in range(3000):
            n = float(rng.choice([rng.uniform(1e-3, 1.0),
                                  10.0 ** rng.uniform(0.0, 4.0)]))
            errors = float(rng.choice([
                0.0, rng.random() * n,
                n * (1.0 - 10.0 ** -rng.uniform(1.0, 8.0)),
                max(n - rng.random(), 0.0)]))
            confidence = float(rng.choice([0.05, 0.25, 0.45,
                                           rng.uniform(1e-3, 0.5)]))
            assert binomial_upper_limit(errors, n, confidence) == (
                pytest.approx(_scipy_upper_limit(errors, n, confidence),
                              rel=1e-10, abs=0)), (errors, n, confidence)


def _shape(node):
    """Every structural field of a tree, floats by their bits."""
    counts = tuple(float(c).hex() for c in node.class_counts)
    if isinstance(node, Leaf):
        return ("leaf", counts)
    if isinstance(node, NumericSplit):
        return ("num", node.attribute.name, float(node.threshold).hex(),
                counts, _shape(node.left), _shape(node.right))
    if isinstance(node, CategoricalSplit):
        return ("cat", node.attribute.name, counts,
                tuple((code, _shape(c)) for code, c in node.children.items()))
    return ("bin", node.attribute.name, tuple(sorted(node.left_codes)),
            counts, _shape(node.left), _shape(node.right))


def _rewalk_prune(node, confidence, upper):
    """Pessimistic pruning that re-sums every subtree's leaves at every
    ancestor, with ``upper`` as the binomial limit."""
    def leaf_estimate(leaf):
        n = leaf.training_mass
        return n * upper(leaf.training_errors(), n, confidence)

    def estimated(sub):
        if isinstance(sub, Leaf):
            return leaf_estimate(sub)
        return sum(estimated(c) for c in pruning._children(sub))

    if isinstance(node, Leaf):
        return node
    if isinstance(node, CategoricalSplit):
        pruned = pruning._rebuild(node, {
            code: _rewalk_prune(c, confidence, upper)
            for code, c in node.children.items()})
    else:
        pruned = pruning._rebuild(node, [
            _rewalk_prune(c, confidence, upper)
            for c in pruning._children(node)])
    as_leaf = Leaf(node.class_counts)
    if leaf_estimate(as_leaf) <= estimated(pruned) + 1e-9:
        return as_leaf
    return pruned


def _missing_cells(table, fraction, seed):
    rng = np.random.default_rng(seed)
    columns = {}
    for attr in table.attributes:
        column = table.column(attr.name).copy()
        if attr.name != "group":
            hole = rng.random(len(column)) < fraction
            column[hole] = np.nan if attr.is_numeric else -1
        columns[attr.name] = column
    return type(table)(table.attributes, columns)


class TestPrunedTreesUnchanged:
    """Estimating each subtree once, with the stdlib inverse, prunes
    exactly as re-walking subtrees with scipy's inverse does."""

    @pytest.fixture(params=["f2", "f5-missing"])
    def unpruned(self, request, f2_train):
        table = f2_train
        if request.param == "f5-missing":
            # Missing cells give fractional class counts.
            table = _missing_cells(
                agrawal(1500, function=5, noise=0.1, random_state=3),
                0.05, 4)
        return C45(prune=False).fit(table, "group").tree_

    @pytest.mark.parametrize("confidence", [0.05, 0.25, 0.45])
    def test_same_tree_as_rewalk(self, unpruned, confidence):
        want = _rewalk_prune(unpruned, confidence, binomial_upper_limit)
        got = pessimistic_prune(unpruned, confidence)
        assert _shape(got) == _shape(want)

    @pytest.mark.parametrize("confidence", [0.05, 0.25, 0.45])
    def test_same_tree_as_scipy_rewalk(self, unpruned, confidence):
        pytest.importorskip("scipy")
        want = _rewalk_prune(unpruned, confidence, _scipy_upper_limit)
        assert _shape(pessimistic_prune(unpruned, confidence)) == (
            _shape(want))

    @pytest.mark.parametrize("name", ["tennis", "weather", "f2"])
    def test_same_rules_as_scipy(self, name, f2_train, monkeypatch):
        pytest.importorskip("scipy")
        table, target = {
            "tennis": (play_tennis(), "play"),
            "weather": (weather_numeric(), "play"),
            "f2": (f2_train, "group"),
        }[name]
        got = C45Rules().fit(table, target).rules_
        monkeypatch.setattr(tree_rules, "binomial_upper_limit",
                            _scipy_upper_limit)
        monkeypatch.setattr(pruning, "binomial_upper_limit",
                            _scipy_upper_limit)
        want = C45Rules().fit(table, target).rules_
        assert [(r.conditions, r.class_code, r.coverage, r.errors)
                for r in got] == [(r.conditions, r.class_code, r.coverage,
                                   r.errors) for r in want]
        for g, w in zip(got, want):
            assert g.pessimistic == pytest.approx(w.pessimistic, rel=1e-10,
                                                  abs=0)


class TestPessimisticPrune:
    def test_leaf_is_fixed_point(self):
        leaf = Leaf(np.array([3.0, 1.0]))
        assert pessimistic_prune(leaf) is leaf

    def test_collapses_useless_split(self, f2_train):
        # A tree grown to purity on noisy data must shrink.
        full = C45(prune=False).fit(f2_train, "group")
        pruned_root = pessimistic_prune(full.tree_, confidence=0.25)
        assert pruned_root.n_nodes() <= full.tree_.n_nodes()

    def test_lower_confidence_prunes_more(self, f2_train):
        full = C45(prune=False).fit(f2_train, "group")
        mild = pessimistic_prune(full.tree_, confidence=0.45)
        harsh = pessimistic_prune(full.tree_, confidence=0.05)
        assert harsh.n_nodes() <= mild.n_nodes()

    def test_preserves_class_counts_at_root(self, f2_train):
        full = C45(prune=False).fit(f2_train, "group")
        pruned = pessimistic_prune(full.tree_)
        assert np.allclose(pruned.class_counts, full.tree_.class_counts)


class TestReducedErrorPrune:
    def test_never_hurts_validation_accuracy(self):
        data = agrawal(1600, function=5, noise=0.15, random_state=21)
        train, rest = train_test_split(data, 0.5, random_state=0)
        valid, test = train_test_split(rest, 0.5, random_state=1)
        model = CART().fit(train, "group")
        y_valid = valid.class_codes("group")

        def errors(tree):
            from repro.classification.tree_model import predict_distributions

            pred = predict_distributions(tree, valid.drop(["group"])).argmax(axis=1)
            return int((pred != y_valid).sum())

        pruned = reduced_error_prune(model.tree_, valid.drop(["group"]), y_valid)
        assert errors(pruned) <= errors(model.tree_)
        assert pruned.n_nodes() <= model.tree_.n_nodes()

    def test_mismatched_labels_rejected(self, tennis):
        from repro.core import ValidationError

        model = CART().fit(tennis, "play")
        with pytest.raises(ValidationError):
            reduced_error_prune(
                model.tree_, tennis.drop(["play"]), np.array([0])
            )


class TestCostComplexity:
    def test_alpha_zero_keeps_tree(self, f2_train):
        model = CART().fit(f2_train, "group")
        same = prune_to_alpha(model.tree_, 0.0, float(f2_train.n_rows))
        assert same.n_leaves() <= model.tree_.n_leaves()

    def test_huge_alpha_collapses_to_leaf(self, f2_train):
        model = CART().fit(f2_train, "group")
        root = prune_to_alpha(model.tree_, 1e9, float(f2_train.n_rows))
        assert isinstance(root, Leaf)

    def test_path_is_ascending_and_shrinking(self, f2_train):
        model = CART().fit(f2_train, "group")
        alphas = cost_complexity_path(model.tree_)
        assert alphas == sorted(alphas)
        sizes = [
            prune_to_alpha(model.tree_, a, float(f2_train.n_rows)).n_leaves()
            for a in alphas
        ]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[-1] == 1

    def test_invalid_alpha(self, tennis):
        from repro.core import ValidationError

        model = CART().fit(tennis, "play")
        with pytest.raises(ValidationError):
            prune_to_alpha(model.tree_, -0.1, 14.0)
