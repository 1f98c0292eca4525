"""Partition algorithm (Savasere, Omiecinski & Navathe, VLDB 1995).

Exactly two scans of the database, regardless of the largest itemset:

1. **Scan 1** — split the database into partitions small enough to mine
   in memory; mine each partition with a vertical (tidlist) miner at the
   *local* threshold.  Any globally frequent itemset must be locally
   frequent in at least one partition (pigeonhole on supports), so the
   union of local results is a superset of the global answer.
2. **Scan 2** — count the global support of every local candidate and
   keep those clearing the global threshold.

Partition boundaries are natural restart points: the optional
``checkpoint`` marks the candidate union after every completed
partition, so a killed scan 1 resumes at the next partition instead of
re-mining the completed ones.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from ..core.base import check_in_range, check_nonempty
from ..core.columnar import transaction_bitmap
from ..core.exceptions import ValidationError
from ..core.itemsets import FrequentItemsets, Itemset
from ..core.transactions import TransactionDatabase
from ..runtime import Budget, BudgetExceeded, Checkpointer
from ..runtime.context import (
    BASIC_POLICIES,
    ExecutionContext,
    check_degradation_policy,
    resolve_context,
)
from ..runtime.parallel import resolve_n_jobs, shard_bounds, shared_pool
from ..runtime.transport import SharedRegion, get_object
from .apriori import checkpoint_key, min_count_from_support


def partition_miner(
    db: TransactionDatabase,
    min_support: float = 0.01,
    n_partitions: int = 4,
    max_size: Optional[int] = None,
    budget: Optional[Budget] = None,
    on_exhausted: str = "raise",
    checkpoint: Optional[Checkpointer] = None,
    ctx: Optional[ExecutionContext] = None,
    n_jobs: Optional[int] = None,
) -> FrequentItemsets:
    """Mine frequent itemsets with the two-scan Partition algorithm.

    Parameters
    ----------
    db, min_support, max_size:
        As in :func:`~repro.associations.apriori.apriori`; the result is
        identical.
    n_partitions:
        How many contiguous chunks the database is split into.  More
        partitions = less memory per local mine but more false local
        candidates to recount in scan 2.
    budget:
        Optional :class:`~repro.runtime.Budget`, checked at every
        partition boundary and class expansion, charged one candidate
        per tidset join, and polled periodically during scan 2.
    on_exhausted:
        ``"raise"`` propagates :class:`~repro.runtime.BudgetExceeded`;
        ``"truncate"`` globally recounts the candidates collected so far
        (unbudgeted — scan 2 is the cheap part) and returns them flagged
        ``truncated=True``; itemsets from unmined partitions are lost
        but everything returned is genuinely frequent.
    checkpoint:
        Optional :class:`~repro.runtime.Checkpointer`; every completed
        partition of scan 1 is a resumable boundary.
    n_jobs:
        Partitions are the algorithm's natural shard: with ``n_jobs > 1``
        scan 1 mines them in forked workers and scan 2 splits the global
        counting scan the same way, merging in partition/shard order so
        the result is byte-identical to ``n_jobs=1``.  ``-1`` uses all
        cores.  Both scans go through the pool's probe gate: the first
        task runs inline and, when it finishes under the pool's
        small-task threshold, so do the rest.

    Both scans run over the database's memoized
    :class:`~repro.core.columnar.PackedBitmap` (one int bitset per
    item): scan 1 joins windowed item rows with ``&`` and
    ``bit_count()``, scan 2 is the bitmap counting kernel.  Workers
    inherit the one shared encoding copy-on-write.

    Examples
    --------
    >>> db = TransactionDatabase([(0, 1, 2), (0, 1), (0, 2), (1, 2)])
    >>> partition_miner(db, 0.5, n_partitions=2).supports[(0, 1)]
    2
    """
    check_in_range("n_partitions", n_partitions, 1, None)
    ctx = resolve_context(ctx, budget=budget, checkpoint=checkpoint,
                          owner="partition_miner")
    check_degradation_policy(on_exhausted, BASIC_POLICIES, "partition_miner")
    n_jobs = resolve_n_jobs(n_jobs, "partition_miner")
    ctx.raise_if_cancelled()
    if max_size is not None and max_size < 1:
        raise ValidationError(f"max_size must be >= 1, got {max_size}")
    n = len(db)
    check_nonempty("transaction database", n, "transactions")
    n_partitions = min(n_partitions, n)
    min_count = min_count_from_support(n, min_support)
    bounds = _partition_bounds(n, n_partitions)

    budget = ctx.budget
    resumed = ctx.resume(lambda: checkpoint_key(
        "partition", db, min_support,
        max_size=max_size, n_partitions=n_partitions,
    ))
    candidates: Set[Itemset] = set()
    start = 0
    if resumed is not None:
        candidates.update(resumed["candidates"])
        start = resumed["next_partition"]

    # ------------------------------------------------------------------
    # Scan 1: local mining per partition (vertical, depth-first).
    # ------------------------------------------------------------------
    # One shared region spans both scans: the database segment placed
    # for scan 1's partition mining is the same one scan 2's counting
    # shards resolve.
    # Build the memoized encoding in the parent *before* any worker
    # forks: workers resolving the same database object inherit the
    # cached rows copy-on-write instead of re-encoding, and the probe
    # gate times mining, not encoding.
    transaction_bitmap(db)
    region = SharedRegion() if n_jobs > 1 and n > 1 else None
    db_handle = region.put_object(db) if region is not None else None
    try:
        if n_jobs > 1 and len(bounds) - start > 1:
            # Each remaining partition is mined in a pool worker; the
            # unions (sets, so order-free) merge in partition order, and
            # step/mark stay in the parent so the checkpoint trail keeps
            # its per-partition shape.
            remaining = list(range(start, len(bounds)))
            tasks = [
                (db_handle, bounds[p][0], bounds[p][1],
                 max(1, math.ceil(min_support * (bounds[p][1] - bounds[p][0]))),
                 max_size)
                for p in remaining
            ]
            locals_ = shared_pool(n_jobs).map(
                _mine_partition_task, tasks, ctx=ctx,
                phase="partition-scan-1", probe=True,
            )
            for p, local in zip(remaining, locals_):
                ctx.step(f"partition-{p}", n_candidates=len(candidates))
                candidates |= local
                ctx.mark(lambda: {
                    "next_partition": p + 1,
                    "candidates": sorted(candidates),
                })
        else:
            for p in range(start, len(bounds)):
                ctx.step(f"partition-{p}", n_candidates=len(candidates))
                begin, stop = bounds[p]
                local_min_count = max(
                    1, math.ceil(min_support * (stop - begin))
                )
                candidates |= _mine_partition(
                    db, begin, stop, local_min_count, max_size, budget,
                )
                ctx.mark(lambda: {
                    "next_partition": p + 1, "candidates": sorted(candidates),
                })

        # --------------------------------------------------------------
        # Scan 2: global counting of the candidate union.
        # --------------------------------------------------------------
        supports = _global_count(db, candidates, min_count, budget,
                                 ctx=ctx, n_jobs=n_jobs,
                                 region=region, db_handle=db_handle)
    except BudgetExceeded as exc:
        if on_exhausted == "raise":
            raise
        supports = _global_count(db, candidates, min_count, None)
        return FrequentItemsets(
            supports,
            n,
            min_support,
            truncated=True,
            truncation_reason=f"{type(exc).__name__}: {exc}",
        )
    finally:
        if region is not None:
            region.close()
        ctx.flush()
    return FrequentItemsets(supports, n, min_support)


def _mine_partition_task(args, shard_ctx):
    """Pool task: local mine of one partition, database via handle."""
    db_handle, begin, stop, local_min_count, max_size = args
    budget = None if shard_ctx is None else shard_ctx.budget
    return _mine_partition(
        get_object(db_handle), begin, stop, local_min_count, max_size,
        budget,
    )


def _count_range_task(args, shard_ctx):
    """Pool task: scan-2 counts over one row range, inputs via handles."""
    db_handle, ordered_handle, begin, stop = args
    budget = None if shard_ctx is None else shard_ctx.budget
    return transaction_bitmap(get_object(db_handle)).count(
        get_object(ordered_handle), budget, begin, stop
    )


def _global_count(
    db: TransactionDatabase,
    candidates: Set[Itemset],
    min_count: int,
    budget: Optional[Budget],
    ctx: Optional[ExecutionContext] = None,
    n_jobs: int = 1,
    region: Optional[SharedRegion] = None,
    db_handle=None,
) -> Dict[Itemset, int]:
    # Sorting canonicalises the result's key order: the candidate union
    # is a set, and letting its iteration order leak into the supports
    # dict would make equal runs byte-different.
    ordered = sorted(candidates)
    if n_jobs > 1 and len(db) > 1 and region is not None:
        ordered_handle = region.put_object(ordered)
        try:
            tasks = [
                (db_handle, ordered_handle, begin, stop)
                for begin, stop in shard_bounds(len(db), n_jobs)
            ]
            vectors = shared_pool(n_jobs).map(
                _count_range_task, tasks, ctx=ctx, phase="partition-scan-2",
                probe=True,
            )
        finally:
            region.release(ordered_handle)
        totals = [sum(column) for column in zip(*vectors)]
    else:
        totals = transaction_bitmap(db).count(ordered, budget)
    return {
        cand: cnt
        for cand, cnt in zip(ordered, totals)
        if cnt >= min_count
    }


def _partition_bounds(n: int, k: int) -> List[Tuple[int, int]]:
    sizes = [n // k] * k
    for i in range(n % k):
        sizes[i] += 1
    bounds = []
    start = 0
    for size in sizes:
        bounds.append((start, start + size))
        start += size
    return bounds


def _mine_partition(
    db: TransactionDatabase,
    start: int,
    stop: int,
    min_count: int,
    max_size: Optional[int],
    budget: Optional[Budget] = None,
) -> Set[Itemset]:
    """Local frequent itemsets of db[start:stop] via tidset DFS.

    Tidsets are the database's int item rows windowed to the partition.
    """
    root = [
        ((item,), tids)
        for item, tids in enumerate(transaction_bitmap(db).window(start, stop))
        if tids.bit_count() >= min_count
    ]
    found: Set[Itemset] = {itemset for itemset, _ in root}
    _expand(root, min_count, max_size, found, budget)
    return found


def _expand(members, min_count, max_size, found: Set[Itemset],
            budget=None) -> None:
    if budget is not None:
        budget.check(phase="partition-class")
    for i, (itemset, tids) in enumerate(members):
        if max_size is not None and len(itemset) >= max_size:
            continue
        child = []
        for other_itemset, other_tids in members[i + 1:]:
            if budget is not None:
                budget.charge_candidates(phase="partition-join")
            joined = tids & other_tids
            if joined.bit_count() >= min_count:
                new_itemset = itemset + (other_itemset[-1],)
                found.add(new_itemset)
                child.append((new_itemset, joined))
        if child:
            _expand(child, min_count, max_size, found, budget)


__all__ = ["partition_miner"]
