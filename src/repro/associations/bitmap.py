"""Vectorized support counting over the columnar bit matrix.

Historically this module owned a private dense ``bool`` item×transaction
matrix.  The encoding now lives in the shared columnar data plane
(:mod:`repro.core.columnar`) as one int bitset per item (AND +
``bit_count()`` counting, 8× less memory), built once per database
object and memoized there; :class:`BitmapDatabase` is a thin
compatibility wrapper that resolves the shared encoding and forwards
to its kernels.

Trade-off is unchanged in shape, 8× better in constant: the bit
matrix costs ``n_items × n_transactions / 8`` bytes, so it suits the
classic basket shape — modest vocabularies, many transactions — and
loses to the hash tree when the item universe is huge and sparse.
Construction is a single pass; afterwards every pass of a levelwise
miner counts against the same matrix, and forked workers share it
copy-on-write.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.columnar import PackedBitmap, transaction_bitmap
from ..core.itemsets import Itemset
from ..core.transactions import TransactionDatabase
from ..runtime import Budget


class BitmapDatabase:
    """A :class:`TransactionDatabase` encoded for vectorized counting.

    Wraps the database's memoized
    :class:`~repro.core.columnar.PackedBitmap`: constructing two
    ``BitmapDatabase`` objects over the same database reuses one
    encoding.

    Examples
    --------
    >>> db = TransactionDatabase([(0, 1, 2), (0, 1), (0, 2), (1, 2)])
    >>> BitmapDatabase(db).count([(0, 1), (0, 2), (1, 2)])
    [2, 2, 2]
    """

    def __init__(self, db: TransactionDatabase):
        self.packed: PackedBitmap = transaction_bitmap(db)
        self.n_transactions = self.packed.n_transactions

    @property
    def nbytes(self) -> int:
        """Bytes held by the shared encoding."""
        return self.packed.nbytes

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
        vectors sum element-wise to the full-database counts.  ``budget``
        is checked periodically so deadlines and cancellation fire
        mid-count, mirroring the scan loops of the other backends.
        Empty candidate lists, empty itemsets, and all-empty-transaction
        databases all count cleanly (the empty itemset is contained in
        every transaction).
        """
        return self.packed.count(candidates, budget, begin, stop)

    def frequent(
        self,
        candidates: Sequence[Itemset],
        min_count: int,
        budget: Optional[Budget] = None,
        begin: int = 0,
        stop: Optional[int] = None,
    ) -> Dict[Itemset, int]:
        """Candidates whose support reaches ``min_count``, in input order.

        ``begin``/``stop`` forward to :meth:`count` so shard-windowed
        callers threshold against the window, not the whole database.
        """
        return self.packed.frequent(candidates, min_count, budget,
                                    begin, stop)


__all__ = ["BitmapDatabase"]
