"""Market-basket transaction database.

A :class:`TransactionDatabase` stores a list of transactions, each a sorted
tuple of integer item ids, plus a vocabulary that maps the caller's
original item labels (strings, SKUs, anything hashable) to those ids.
Keeping transactions sorted makes subset tests linear merges and makes the
Apriori-family code independent of the original label type.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Hashable, Iterable, Iterator, List, Sequence, Tuple

from .exceptions import ValidationError
from .itemsets import Itemset, contains

Transaction = Tuple[int, ...]


class TransactionDatabase:
    """An immutable collection of market-basket transactions.

    Parameters
    ----------
    transactions:
        Iterable of transactions; each transaction is an iterable of item
        ids (ints).  Items within a transaction are de-duplicated and
        sorted.  Empty transactions are kept (they simply support nothing)
        so database sizes stay faithful to the source data.

    Examples
    --------
    >>> db = TransactionDatabase.from_iterable([["a", "b"], ["b", "c"]])
    >>> len(db)
    2
    >>> db.n_items
    3
    >>> db.decode((0, 1))
    ('a', 'b')
    """

    def __init__(
        self,
        transactions: Iterable[Iterable[int]],
        item_labels: Sequence[Hashable] | None = None,
    ):
        normalised: List[Transaction] = []
        max_item = -1
        for raw in transactions:
            txn = tuple(sorted(set(raw)))
            for item in txn:
                if not isinstance(item, int) or isinstance(item, bool):
                    raise ValidationError(
                        "TransactionDatabase items must be ints; use "
                        "from_iterable() for labelled data "
                        f"(got {item!r})"
                    )
                if item < 0:
                    raise ValidationError(f"item ids must be >= 0, got {item}")
            if txn:
                max_item = max(max_item, txn[-1])
            normalised.append(txn)
        self._transactions: Tuple[Transaction, ...] = tuple(normalised)
        if item_labels is None:
            item_labels = list(range(max_item + 1))
        if len(item_labels) <= max_item:
            raise ValidationError(
                f"item_labels has {len(item_labels)} entries but the "
                f"largest item id is {max_item}"
            )
        self._item_labels: Tuple[Hashable, ...] = tuple(item_labels)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_iterable(
        cls, transactions: Iterable[Iterable[Hashable]]
    ) -> "TransactionDatabase":
        """Build a database from transactions over arbitrary hashable labels.

        Labels are assigned integer ids in first-seen order; the mapping is
        retained so results can be decoded back through :meth:`decode`.
        """
        vocabulary: Dict[Hashable, int] = {}
        encoded: List[List[int]] = []
        for raw in transactions:
            txn = []
            for label in raw:
                if label not in vocabulary:
                    vocabulary[label] = len(vocabulary)
                txn.append(vocabulary[label])
            encoded.append(txn)
        labels = [None] * len(vocabulary)
        for label, idx in vocabulary.items():
            labels[idx] = label
        return cls(encoded, item_labels=labels)

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._transactions)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self._transactions)

    def __getitem__(self, index: int) -> Transaction:
        return self._transactions[index]

    def __repr__(self) -> str:
        return (
            f"TransactionDatabase(n_transactions={len(self)}, "
            f"n_items={self.n_items})"
        )

    # ------------------------------------------------------------------
    # Properties and statistics
    # ------------------------------------------------------------------
    @property
    def n_items(self) -> int:
        """Size of the item vocabulary."""
        return len(self._item_labels)

    @property
    def item_labels(self) -> Tuple[Hashable, ...]:
        """Original labels, indexed by item id."""
        return self._item_labels

    def avg_transaction_length(self) -> float:
        """Mean number of items per transaction (0.0 for an empty db)."""
        if not self._transactions:
            return 0.0
        return sum(len(t) for t in self._transactions) / len(self._transactions)

    def item_counts(self) -> Counter:
        """Support count of each individual item id."""
        counts: Counter = Counter()
        for txn in self._transactions:
            counts.update(txn)
        return counts

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def support_count(self, itemset: Itemset) -> int:
        """Exact support count of ``itemset`` by a full database scan."""
        return sum(1 for txn in self._transactions if contains(txn, itemset))

    def support(self, itemset: Itemset) -> float:
        """Relative support of ``itemset`` (0.0 on an empty database)."""
        if not self._transactions:
            return 0.0
        return self.support_count(itemset) / len(self._transactions)

    def decode(self, itemset: Itemset) -> Tuple[Hashable, ...]:
        """Translate an itemset of ids back to the original labels."""
        return tuple(self._item_labels[item] for item in itemset)

    def encode(self, labels: Iterable[Hashable]) -> Itemset:
        """Translate original labels into a canonical itemset of ids."""
        index = {label: i for i, label in enumerate(self._item_labels)}
        try:
            ids = sorted(index[label] for label in labels)
        except KeyError as exc:
            raise ValidationError(f"unknown item label: {exc.args[0]!r}") from exc
        return tuple(ids)


__all__ = ["Transaction", "TransactionDatabase"]
