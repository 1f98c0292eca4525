"""Properties of the columnar backends: identity, budgets, cache hygiene.

Three contracts the shared columnar data plane promises:

* every vectorized backend is **byte-identical** to its scalar twin —
  same supports, same model, same bytes — for any input, at any
  ``n_jobs``; Eclat and Partition, whose only tidset kernel is the
  int-bitset one, are pinned to the brute-force oracle and to apriori's
  hash tree instead;
* a budget exhausted mid-kernel degrades exactly like the scalar path
  (same truncation point, same partial result, same exception class);
  a truncated Eclat/Partition result is an exact subset of the oracle;
* memoized encodings are keyed on dataset identity and can never leak
  between two distinct dataset objects, even with equal content.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.associations import apriori, brute_force, dhp, eclat, partition_miner
from repro.classification import KNN, SLIQ, NaiveBayes
from repro.clustering import KMeans
from repro.core import SequenceDatabase, TransactionDatabase
from repro.core.columnar import sequence_bitmap, transaction_bitmap
from repro.datasets import agrawal, gaussian_blobs, quest_basket
from repro.runtime import Budget, ExecutionContext, SpaceBudgetExceeded
from repro.sequences import gsp

transactions = st.lists(
    st.lists(st.integers(0, 9), min_size=0, max_size=6),
    min_size=1,
    max_size=25,
)
sequences = st.lists(
    st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=3),
        min_size=1,
        max_size=5,
    ),
    min_size=1,
    max_size=15,
)
supports = st.sampled_from([0.1, 0.25, 0.5])

JOBS = [1, 2, 4]


def _mine_fingerprint(result) -> bytes:
    return pickle.dumps(
        (sorted(result.supports.items()), result.truncated)
    )


def _assert_exact_subset_of_oracle(result, oracle) -> None:
    """Every itemset returned carries its exact global support."""
    for itemset, count in result.supports.items():
        assert oracle.supports[itemset] == count, itemset


# ----------------------------------------------------------------------
# Int-bitset tidset kernel == oracle == hash tree, for arbitrary inputs
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(transactions, supports)
def test_eclat_bitset_identical_for_any_input(txns, min_support):
    db = TransactionDatabase(txns)
    expected = _mine_fingerprint(brute_force(db, min_support))
    assert _mine_fingerprint(eclat(db, min_support)) == expected
    assert _mine_fingerprint(apriori(db, min_support)) == expected


@settings(max_examples=30, deadline=None)
@given(transactions, supports, st.integers(1, 5))
def test_partition_bitset_identical_for_any_input(txns, min_support,
                                                  n_partitions):
    db = TransactionDatabase(txns)
    expected = _mine_fingerprint(brute_force(db, min_support))
    result = partition_miner(db, min_support, n_partitions=n_partitions)
    assert _mine_fingerprint(result) == expected
    assert _mine_fingerprint(apriori(db, min_support)) == expected


@settings(max_examples=30, deadline=None)
@given(transactions, supports)
def test_dhp_bitmap_identical_for_any_input(txns, min_support):
    db = TransactionDatabase(txns)
    scalar = dhp(db, min_support)
    vector = dhp(db, min_support, backend="bitmap")
    assert _mine_fingerprint(vector) == _mine_fingerprint(scalar)


@settings(max_examples=20, deadline=None)
@given(sequences, supports)
def test_gsp_bitmap_identical_for_any_input(seqs, min_support):
    sdb = SequenceDatabase(seqs)
    scalar = gsp(sdb, min_support)
    vector = gsp(sdb, min_support, backend="bitmap")
    assert _mine_fingerprint(vector) == _mine_fingerprint(scalar)


# ----------------------------------------------------------------------
# Vectorized == scalar (or oracle), across n_jobs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def basket():
    return quest_basket(200, random_state=17)


@pytest.fixture(scope="module")
def basket_oracle(basket):
    return brute_force(basket, 0.05)


@pytest.mark.parametrize("n_jobs", JOBS)
def test_partition_bitset_identical_across_jobs(basket, basket_oracle,
                                                n_jobs):
    result = partition_miner(basket, 0.05, n_partitions=4, n_jobs=n_jobs)
    expected = _mine_fingerprint(basket_oracle)
    assert _mine_fingerprint(result) == expected
    assert _mine_fingerprint(apriori(basket, 0.05, n_jobs=n_jobs)) == expected


def test_eclat_matches_oracle_on_basket(basket, basket_oracle):
    assert _mine_fingerprint(eclat(basket, 0.05)) == \
        _mine_fingerprint(basket_oracle)


@pytest.mark.parametrize("n_jobs", JOBS)
def test_gsp_bitmap_identical_across_jobs(medium_seq_db, n_jobs):
    scalar = gsp(medium_seq_db, 0.05)
    vector = gsp(medium_seq_db, 0.05, backend="bitmap", n_jobs=n_jobs)
    assert _mine_fingerprint(vector) == _mine_fingerprint(scalar)


@pytest.mark.parametrize("n_jobs", JOBS)
def test_kmeans_elkan_identical_across_jobs(n_jobs):
    X, _ = gaussian_blobs(400, centers=5, n_features=4, cluster_std=1.5,
                          random_state=23)
    full = KMeans(5, n_init=4, random_state=1).fit(X)
    elkan = KMeans(5, n_init=4, random_state=1, backend="elkan",
                   n_jobs=n_jobs).fit(X)
    assert elkan.labels_.tobytes() == full.labels_.tobytes()
    assert elkan.cluster_centers_.tobytes() == \
        full.cluster_centers_.tobytes()
    assert elkan.inertia_ == full.inertia_
    assert elkan.n_iter_ == full.n_iter_


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("function", [1, 2, 5])
def test_sliq_columnar_identical_trees(function, seed):
    table = agrawal(400, function=function, noise=0.05, random_state=seed)
    scan = SLIQ(max_depth=6).fit(table, "group")
    columnar = SLIQ(max_depth=6, backend="columnar").fit(table, "group")
    assert pickle.dumps(columnar.tree_) == pickle.dumps(scan.tree_)
    assert tuple(columnar.predict(table)) == tuple(scan.predict(table))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nb_and_knn_columnar_identical_probas(seed):
    train = agrawal(300, function=2, noise=0.05, random_state=seed)
    test = agrawal(120, function=2, noise=0.0, random_state=seed + 100)
    nb_scan = NaiveBayes().fit(train, "group")
    nb_col = NaiveBayes(backend="columnar").fit(train, "group")
    assert nb_col.predict_proba(test).tobytes() == \
        nb_scan.predict_proba(test).tobytes()
    knn_scan = KNN(n_neighbors=5).fit(train, "group")
    knn_col = KNN(n_neighbors=5, backend="columnar").fit(train, "group")
    assert knn_col.predict_proba(test).tobytes() == \
        knn_scan.predict_proba(test).tobytes()


# ----------------------------------------------------------------------
# Budget exhaustion mid-kernel degrades identically
# ----------------------------------------------------------------------
@pytest.mark.parametrize("limit", [5, 20, 80])
def test_eclat_truncates_at_same_point(basket, basket_oracle, limit):
    def run():
        ctx = ExecutionContext(budget=Budget(max_candidates=limit))
        return eclat(basket, 0.05, ctx=ctx, on_exhausted="truncate")

    first, second = run(), run()
    assert first.truncated and second.truncated
    assert _mine_fingerprint(first) == _mine_fingerprint(second)
    assert first.supports
    _assert_exact_subset_of_oracle(first, basket_oracle)


@pytest.mark.parametrize("limit", [5, 40])
def test_partition_truncates_at_same_point(basket, basket_oracle, limit):
    def run(n_jobs):
        ctx = ExecutionContext(budget=Budget(max_candidates=limit))
        return partition_miner(basket, 0.05, n_partitions=3, ctx=ctx,
                               on_exhausted="truncate", n_jobs=n_jobs)

    serial = run(1)
    assert serial.truncated
    assert _mine_fingerprint(run(1)) == _mine_fingerprint(serial)
    for n_jobs in JOBS:
        _assert_exact_subset_of_oracle(run(n_jobs), basket_oracle)


@pytest.mark.parametrize("n_jobs", JOBS)
def test_partition_mid_scan_truncation_is_exact(basket, basket_oracle,
                                                n_jobs):
    probe = Budget(check_interval=1)
    partition_miner(basket, 0.05, n_partitions=3,
                    ctx=ExecutionContext(budget=probe))
    ctx = ExecutionContext(
        budget=Budget(max_candidates=probe.candidates_used // 2)
    )
    result = partition_miner(basket, 0.05, n_partitions=3, ctx=ctx,
                             on_exhausted="truncate", n_jobs=n_jobs)
    assert result.truncated
    _assert_exact_subset_of_oracle(result, basket_oracle)
    if n_jobs == 1:
        # Serial scan 1 keeps the partitions it completed.
        assert result.supports


def test_eclat_raise_policy_raises(basket):
    ctx = ExecutionContext(budget=Budget(max_candidates=5))
    with pytest.raises(SpaceBudgetExceeded):
        eclat(basket, 0.05, ctx=ctx)


@pytest.mark.parametrize("limit", [10, 60])
def test_gsp_truncates_at_same_point(medium_seq_db, limit):
    def run(backend):
        ctx = ExecutionContext(budget=Budget(max_candidates=limit))
        return gsp(medium_seq_db, 0.05, ctx=ctx, on_exhausted="truncate",
                   backend=backend)

    assert _mine_fingerprint(run("bitmap")) == _mine_fingerprint(run("scan"))


# ----------------------------------------------------------------------
# Cache hygiene: encodings never shared across distinct datasets
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(transactions)
def test_transaction_encodings_never_shared(txns):
    a, b = TransactionDatabase(txns), TransactionDatabase(txns)
    ea, eb = transaction_bitmap(a), transaction_bitmap(b)
    assert ea is not eb
    assert transaction_bitmap(a) is ea
    assert transaction_bitmap(b) is eb


@settings(max_examples=15, deadline=None)
@given(sequences)
def test_sequence_encodings_never_shared(seqs):
    a, b = SequenceDatabase(seqs), SequenceDatabase(seqs)
    assert sequence_bitmap(a) is not sequence_bitmap(b)
    assert sequence_bitmap(a).packed.tobytes() == \
        sequence_bitmap(b).packed.tobytes()
