"""Unit tests for repro.core.transactions."""

import pytest

from repro.core import TransactionDatabase, ValidationError


class TestConstruction:
    def test_normalises_to_sorted_unique(self):
        db = TransactionDatabase([(3, 1, 3, 2)])
        assert db[0] == (1, 2, 3)

    def test_keeps_empty_transactions(self):
        db = TransactionDatabase([(), (1,)])
        assert len(db) == 2
        assert db[0] == ()

    def test_rejects_non_int_items(self):
        with pytest.raises(ValidationError):
            TransactionDatabase([("a",)])

    def test_rejects_bool_items(self):
        with pytest.raises(ValidationError):
            TransactionDatabase([(True,)])

    def test_rejects_negative_items(self):
        with pytest.raises(ValidationError):
            TransactionDatabase([(-1,)])

    def test_rejects_short_label_list(self):
        with pytest.raises(ValidationError):
            TransactionDatabase([(0, 5)], item_labels=["a", "b"])

    def test_from_iterable_encodes_labels(self):
        db = TransactionDatabase.from_iterable([["milk", "bread"], ["bread"]])
        assert db.n_items == 2
        assert db.decode(db[1]) == ("milk",) or db.decode(db[1]) == ("bread",)
        assert set(db.item_labels) == {"milk", "bread"}

    def test_from_iterable_roundtrip(self):
        db = TransactionDatabase.from_iterable([["x", "y", "z"], ["y"]])
        encoded = db.encode(["z", "x"])
        assert db.decode(encoded) == ("x", "z")

    def test_encode_unknown_label(self):
        db = TransactionDatabase.from_iterable([["a"]])
        with pytest.raises(ValidationError):
            db.encode(["nope"])


class TestQueries:
    def test_support_count_full_scan(self, small_db):
        assert small_db.support_count((1,)) == 4
        assert small_db.support_count((0, 1)) == 2
        assert small_db.support_count((0, 1, 3)) == 1
        assert small_db.support_count((4, 3)) == 0

    def test_support_relative(self, small_db):
        assert small_db.support((1,)) == pytest.approx(0.8)

    def test_support_on_empty_db(self):
        db = TransactionDatabase([])
        assert db.support((0,)) == 0.0

    def test_item_counts(self, small_db):
        counts = small_db.item_counts()
        assert counts[1] == 4
        assert counts[0] == 3
        assert counts[4] == 1

    def test_avg_transaction_length(self, small_db):
        assert small_db.avg_transaction_length() == pytest.approx(12 / 5)

    def test_avg_length_empty_db(self):
        assert TransactionDatabase([]).avg_transaction_length() == 0.0

    def test_repr_mentions_sizes(self, small_db):
        assert "n_transactions=5" in repr(small_db)
