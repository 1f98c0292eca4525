"""Shared columnar data plane: bitmaps + presorted columns.

The vertical/bitmap representation from the Eclat/VIPER lineage (see
PAPERS.md) generalises far beyond apriori's counting pass: any hot loop
whose inner question is "which transactions/sequences/rows satisfy X?"
can be answered with a bitwise AND over bit rows plus a popcount,
or with one presorted pass over a column.  This module is the single
home for those encodings, with three views:

``PackedBitmap``
    An item x transaction bit matrix held as one Python ``int`` per
    item: bit ``t`` of row ``i`` is set iff transaction ``t`` contains
    item ``i``.  A row is the item's tidlist as a bitset, a tidset join
    is ``a & b`` and a support is ``int.bit_count()``.  This is the one
    tidset kernel behind Eclat, both Partition scans, dhp's bitmap
    backend and apriori's bitmap store.  Contiguous ``begin``/``stop``
    windows (the map-reduce shard interface) are a shift and a mask.

``SequenceBitmap``
    An item x sequence *occurrence* matrix for GSP: bit ``s`` of item
    ``i``'s row is set iff item ``i`` appears anywhere in sequence
    ``s``.  ANDing the rows of a candidate's items yields the (superset
    of) sequences that can possibly contain it, pruning the expensive
    ordered subsequence check to the survivors.

``PresortedColumns`` / ``TableMatrix``
    For attribute data: one stable argsort index per numeric column
    (the SLIQ presorting invariant, built once instead of once per
    fit) and cached dense numeric/categorical matrices for the
    distance-based learners (k-NN, k-means restarts, naive Bayes).

Every view is **built lazily and memoized per dataset object** through
a ``weakref.WeakKeyDictionary`` — the cache entry dies with the dataset,
can never be shared across two distinct datasets, and is *not* part of
the dataset's pickled state, so shipping a database into a
:class:`~repro.runtime.transport.SharedRegion` segment does not drag
the encoding along (workers re-derive or receive the encoding as its
own segment, copy-on-write after fork).  Construction is a single pass;
afterwards every consumer counts against the same rows.
"""

from __future__ import annotations

import sys
import weakref
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..runtime import Budget
from .exceptions import ValidationError
from .itemsets import Itemset


# ----------------------------------------------------------------------
# Transaction view: item x transaction bit matrix, one int per item
# ----------------------------------------------------------------------

class PackedBitmap:
    """Item x transaction bit matrix with one Python ``int`` per item.

    ``rows[i]`` is item ``i``'s tidlist as a bitset (bit ``t`` =
    transaction ``t``); the support of an itemset is the ``bit_count``
    of the AND of its rows.  Bits past ``n_transactions`` are never
    set, so counts never need masking.  CPython's arbitrary-precision
    AND and popcount run over 30-bit digits in C with no per-call
    numpy dispatch, which is what makes the many small joins of a
    depth-first tidset walk cheap.

    Examples
    --------
    >>> from .transactions import TransactionDatabase
    >>> db = TransactionDatabase([(0, 1, 2), (0, 1), (0, 2), (1, 2)])
    >>> PackedBitmap(db).count([(0, 1), (0, 2), (1, 2)])
    [2, 2, 2]
    >>> bin(PackedBitmap(db).tidset(0))
    '0b111'
    """

    def __init__(self, db):
        dense = np.zeros((db.n_items, len(db)), dtype=bool)
        for column, txn in enumerate(db):
            if txn:
                dense[list(txn), column] = True
        packed = np.packbits(dense, axis=1, bitorder="little")
        self.rows: List[int] = [
            int.from_bytes(row.tobytes(), "little") for row in packed
        ]
        self.n_items = db.n_items
        self.n_transactions = len(db)
        self._item_counts: Optional[List[int]] = None

    @property
    def nbytes(self) -> int:
        """Bytes held by the row ints (object headers included)."""
        return sum(sys.getsizeof(row) for row in self.rows)

    # -- per-item tidlist bitsets -----------------------------------------
    def tidset(self, item: int) -> int:
        """Item ``item``'s tidlist as an int bitset (bit t = transaction t)."""
        return self.rows[item]

    def item_supports(self) -> List[int]:
        """Support count of every item id (popcount per row), cached."""
        if self._item_counts is None:
            self._item_counts = [row.bit_count() for row in self.rows]
        return self._item_counts

    def window(self, begin: int, stop: int) -> List[int]:
        """Every row restricted to transactions ``[begin, stop)``.

        Bit ``t - begin`` of a windowed row is transaction ``t``; counts
        over the windowed rows are the window's counts.
        """
        if not 0 <= begin <= stop <= self.n_transactions:
            raise ValidationError(
                f"window [{begin}, {stop}) must satisfy 0 <= begin <= stop "
                f"<= n_transactions={self.n_transactions}"
            )
        if begin == 0 and stop == self.n_transactions:
            return self.rows
        mask = (1 << (stop - begin)) - 1
        return [(row >> begin) & mask for row in self.rows]

    # -- counting ----------------------------------------------------------
    def count(
        self,
        candidates: Sequence[Itemset],
        budget: Optional[Budget] = None,
        begin: int = 0,
        stop: Optional[int] = None,
    ) -> List[int]:
        """Exact support counts aligned with ``candidates`` order.

        ``begin``/``stop`` restrict counting to a contiguous transaction
        range — the shard interface of the map-reduce path; per-shard
        vectors sum element-wise to the full-database counts.  A window
        outside ``0 <= begin <= stop <= n_transactions`` raises
        :class:`~repro.core.exceptions.ValidationError`.  ``budget`` is
        checked periodically so deadlines and cancellation fire
        mid-count.  The empty itemset is contained in every transaction,
        so its count is the window width; an empty ``candidates`` list
        returns ``[]``.
        """
        if stop is None:
            stop = self.n_transactions
        rows = self.window(begin, stop)
        width = stop - begin
        counts: List[int] = []
        for i, cand in enumerate(candidates):
            if budget is not None and i % 256 == 0:
                budget.check(phase="bitmap-count")
            if not cand:
                counts.append(width)
                continue
            acc = -1  # all bits set: the identity of &
            for item in cand:
                acc &= rows[item]
            counts.append(acc.bit_count())
        return counts

    def frequent(
        self,
        candidates: Sequence[Itemset],
        min_count: int,
        budget: Optional[Budget] = None,
        begin: int = 0,
        stop: Optional[int] = None,
    ) -> Dict[Itemset, int]:
        """Candidates whose windowed support reaches ``min_count``."""
        counts = self.count(candidates, budget, begin, stop)
        return {
            tuple(cand): cnt
            for cand, cnt in zip(candidates, counts)
            if cnt >= min_count
        }


# ----------------------------------------------------------------------
# Sequence view: packed item x sequence occurrence matrix
# ----------------------------------------------------------------------

class SequenceBitmap:
    """Per-item occurrence bitmap over a :class:`SequenceDatabase`.

    Bit ``s`` of row ``i`` is set iff item ``i`` appears in any element
    of sequence ``s``.  :meth:`candidate_sequences` ANDs the rows of a
    candidate's distinct items: only the surviving sequences can contain
    the candidate, so the ordered (and time-constrained) subsequence
    check runs on a usually-small subset.
    """

    def __init__(self, sdb):
        dense = np.zeros((sdb.n_items, len(sdb)), dtype=bool)
        for sid in range(len(sdb)):
            for element in sdb[sid]:
                for item in element:
                    dense[item, sid] = True
        if dense.size:
            self.packed = np.packbits(dense, axis=1)
        else:
            self.packed = np.zeros(
                (sdb.n_items, (len(sdb) + 7) // 8), dtype=np.uint8
            )
        self.n_items = sdb.n_items
        self.n_sequences = len(sdb)

    @property
    def nbytes(self) -> int:
        return int(self.packed.nbytes)

    def candidate_sequences(
        self, items: Iterable[int], begin: int = 0, stop: Optional[int] = None
    ) -> np.ndarray:
        """Sorted ids in ``[begin, stop)`` of sequences containing every item.

        A superset test only — order and time constraints are *not*
        checked; callers run the real containment check on the result.
        """
        if stop is None:
            stop = self.n_sequences
        items = sorted(set(items))
        if not items:
            return np.arange(begin, stop)
        if len(items) == 1:
            acc = self.packed[items[0]]
        else:
            acc = np.bitwise_and.reduce(self.packed[items], axis=0)
        return np.flatnonzero(np.unpackbits(acc, count=stop)[begin:]) + begin


# ----------------------------------------------------------------------
# Table views: presorted numeric columns + cached dense matrices
# ----------------------------------------------------------------------

class PresortedColumns:
    """One stable argsort index per numeric column of a ``Table``.

    The SLIQ invariant — sort each numeric attribute **once**, then every
    split evaluation is a single in-order pass — built once per table
    instead of once per fit, and shared by every consumer.
    """

    def __init__(self, table):
        self.order: Dict[str, np.ndarray] = {}
        for attr in table.attributes:
            if attr.is_numeric:
                self.order[attr.name] = np.argsort(
                    table.column(attr.name), kind="mergesort"
                )

    @property
    def nbytes(self) -> int:
        return int(sum(o.nbytes for o in self.order.values()))

    def order_of(self, name: str) -> np.ndarray:
        """Row indices that sort column ``name`` ascending (stable)."""
        return self.order[name]


class TableMatrix:
    """Cached dense numeric / categorical-code matrices of a ``Table``.

    The distance-based learners (k-NN, k-means trials, naive Bayes
    likelihoods) all start by extracting the same column arrays; this
    view extracts them once per table object.
    """

    def __init__(self, table):
        self.numeric_names: Tuple[str, ...] = tuple(
            a.name for a in table.attributes if a.is_numeric
        )
        self.categorical_names: Tuple[str, ...] = tuple(
            a.name for a in table.attributes if a.is_categorical
        )
        if self.numeric_names:
            self.numeric = np.column_stack(
                [table.column(n) for n in self.numeric_names]
            )
        else:
            self.numeric = np.empty((table.n_rows, 0), dtype=np.float64)
        if self.categorical_names:
            self.categorical = np.column_stack(
                [table.column(n) for n in self.categorical_names]
            )
        else:
            self.categorical = np.empty((table.n_rows, 0), dtype=np.int64)

    @property
    def nbytes(self) -> int:
        return int(self.numeric.nbytes + self.categorical.nbytes)


# ----------------------------------------------------------------------
# Per-dataset memoization
# ----------------------------------------------------------------------
# Keyed on the dataset *object* through weak references: an encoding can
# never outlive (or be confused with) its dataset, and distinct dataset
# objects always get distinct encodings.  Identity keying is sound
# because TransactionDatabase/SequenceDatabase/Table are immutable.

_TRANSACTION_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_SEQUENCE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_PRESORT_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_MATRIX_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def transaction_bitmap(db) -> PackedBitmap:
    """The memoized :class:`PackedBitmap` of a transaction database."""
    bitmap = _TRANSACTION_CACHE.get(db)
    if bitmap is None:
        bitmap = PackedBitmap(db)
        _TRANSACTION_CACHE[db] = bitmap
    return bitmap


def sequence_bitmap(sdb) -> SequenceBitmap:
    """The memoized :class:`SequenceBitmap` of a sequence database."""
    bitmap = _SEQUENCE_CACHE.get(sdb)
    if bitmap is None:
        bitmap = SequenceBitmap(sdb)
        _SEQUENCE_CACHE[sdb] = bitmap
    return bitmap


def presorted_columns(table) -> PresortedColumns:
    """The memoized :class:`PresortedColumns` of a table."""
    view = _PRESORT_CACHE.get(table)
    if view is None:
        view = PresortedColumns(table)
        _PRESORT_CACHE[table] = view
    return view


def table_matrix(table) -> TableMatrix:
    """The memoized :class:`TableMatrix` of a table."""
    view = _MATRIX_CACHE.get(table)
    if view is None:
        view = TableMatrix(table)
        _MATRIX_CACHE[table] = view
    return view


def clear_caches() -> None:
    """Drop every memoized encoding (tests and memory-pressure hooks)."""
    _TRANSACTION_CACHE.clear()
    _SEQUENCE_CACHE.clear()
    _PRESORT_CACHE.clear()
    _MATRIX_CACHE.clear()


__all__ = [
    "PackedBitmap",
    "SequenceBitmap",
    "PresortedColumns",
    "TableMatrix",
    "transaction_bitmap",
    "sequence_bitmap",
    "presorted_columns",
    "table_matrix",
    "clear_caches",
]
