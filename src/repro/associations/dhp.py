"""DHP — Direct Hashing and Pruning (Park, Chen & Yu, SIGMOD 1995).

Apriori's pass 2 is its most expensive: |F1 choose 2| candidate pairs.
DHP shrinks C2 using a hash filter built *during pass 1*: every 2-subset
of every transaction is hashed into a small table of counters, and a
pair can only be frequent if its bucket total reaches the threshold.
The bucket test is one-sided (collisions only over-count), so pruning is
lossless; later passes fall back to standard apriori-gen.
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import Dict, Optional

from ..core.base import check_in_range, check_nonempty
from ..core.exceptions import ValidationError
from ..core.itemsets import FrequentItemsets, Itemset, PassStats
from ..core.transactions import TransactionDatabase
from ..runtime import Budget, BudgetExceeded, Checkpointer
from ..runtime.context import (
    LEVELWISE_POLICIES,
    ExecutionContext,
    check_degradation_policy,
    resolve_context,
)
from ..runtime.parallel import resolve_n_jobs
from .apriori import (
    CANDIDATE_STORES,
    CountingAssets,
    checkpoint_key,
    count_pass,
    degrade_levelwise,
    levelwise_state,
    min_count_from_support,
)
from .bitmap import BitmapDatabase
from .candidates import apriori_gen


def dhp(
    db: TransactionDatabase,
    min_support: float = 0.01,
    n_buckets: int = 4096,
    max_size: Optional[int] = None,
    budget: Optional[Budget] = None,
    on_exhausted: str = "raise",
    checkpoint: Optional[Checkpointer] = None,
    ctx: Optional[ExecutionContext] = None,
    n_jobs: Optional[int] = None,
    backend: str = "hash_tree",
) -> FrequentItemsets:
    """Mine all frequent itemsets with DHP's hash-filtered pass 2.

    Parameters
    ----------
    db, min_support, max_size, budget, on_exhausted, checkpoint, n_jobs:
        As in :func:`~repro.associations.apriori.apriori`; the result is
        identical.  ``n_jobs`` parallelises the counting scans of pass 2
        and the later apriori passes (the pass-1 hash-filter build stays
        serial — it is a single cheap scan).  The unfiltered C2 size ``|F1 choose 2|`` is charged
        against the candidate budget *before* the pair list materialises,
        so a space cap rejects the classic pass-2 blow-up up front.
        Snapshots record which stage completed (the hash-filter pass, the
        filtered pass 2, or a later pass k) together with the pass-1
        bucket counters, which pass 2 still needs after a resume.
    n_buckets:
        Size of the pass-1 hash table.  More buckets = fewer collisions
        = sharper C2 pruning.
    backend:
        Counting backend for pass 2 and the later passes — apriori's
        ``candidate_store`` seam under the registry's uniform backend
        name, accepting the same values.  ``"bitmap"`` counts the
        hash-filtered pairs by AND+popcount over the database's
        memoized int-bitset rows (:mod:`repro.core.columnar`) —
        byte-identical supports, one ``&`` and one ``bit_count()``
        per surviving pair.

    Notes
    -----
    The returned object carries ``c2_unfiltered`` and ``c2_filtered``
    attributes so benchmarks can report the candidate reduction, which
    is the paper's headline number.

    Examples
    --------
    >>> db = TransactionDatabase([(0, 1, 2), (0, 1), (0, 2), (1, 2)])
    >>> dhp(db, 0.5).supports[(0, 1)]
    2
    """
    check_in_range("n_buckets", n_buckets, 1, None)
    if backend not in CANDIDATE_STORES:
        raise ValidationError(
            f"backend must be one of {CANDIDATE_STORES}, "
            f"got {backend!r}"
        )
    candidate_store = backend
    ctx = resolve_context(ctx, budget=budget, checkpoint=checkpoint,
                          owner="dhp")
    check_degradation_policy(on_exhausted, LEVELWISE_POLICIES, "dhp")
    n_jobs = resolve_n_jobs(n_jobs, "dhp")
    ctx.raise_if_cancelled()
    if max_size is not None and max_size < 1:
        raise ValidationError(f"max_size must be >= 1, got {max_size}")
    n = len(db)
    check_nonempty("transaction database", n, "transactions")
    min_count = min_count_from_support(n, min_support)
    stats = []
    all_frequent: Dict[Itemset, int] = {}

    resumed = ctx.resume(lambda: checkpoint_key(
        "dhp", db, min_support, max_size=max_size, n_buckets=n_buckets
    ))
    if resumed is not None:
        stats.extend(resumed["stats"])
        all_frequent.update(resumed["all_frequent"])

    bitmap = BitmapDatabase(db) if candidate_store == "bitmap" else None
    assets = (
        CountingAssets(db, bitmap) if n_jobs > 1 and n > 1 else None
    )
    try:
        return _dhp_mine(
            db, min_support, n_buckets, max_size, min_count, stats,
            all_frequent, n, ctx, resumed, n_jobs, assets,
            candidate_store, bitmap,
        )
    except BudgetExceeded as exc:
        if on_exhausted == "raise":
            raise
        k = 1 + len(stats)
        result = degrade_levelwise(
            db, min_support, all_frequent, stats, max(k, 2), exc, on_exhausted
        )
        # C2 filter statistics are unknown for an interrupted pass 2.
        result.c2_unfiltered = 0
        result.c2_filtered = 0
        return result
    finally:
        if assets is not None:
            assets.close()
        ctx.flush()


def _dhp_mine(
    db, min_support, n_buckets, max_size, min_count, stats,
    all_frequent, n, ctx, resumed=None, n_jobs=1, assets=None,
    candidate_store="hash_tree", bitmap=None,
) -> FrequentItemsets:
    budget = ctx.budget
    # ------------------------------------------------------------------
    # Pass 1: item counts + the 2-subset hash filter.
    # ------------------------------------------------------------------
    if resumed is None:
        started = time.perf_counter()
        item_counts: Dict[int, int] = {}
        buckets = [0] * n_buckets
        for i, txn in enumerate(db):
            if budget is not None and i % 256 == 0:
                budget.check(phase="dhp-pass-1")
            for item in txn:
                item_counts[item] = item_counts.get(item, 0) + 1
            for a, b in combinations(txn, 2):
                buckets[_bucket(a, b, n_buckets)] += 1
        frequent = {
            (item,): cnt
            for item, cnt in sorted(item_counts.items())
            if cnt >= min_count
        }
        stats.append(
            PassStats(1, db.n_items, len(frequent), time.perf_counter() - started)
        )
        all_frequent.update(frequent)

        def _pass2_state(frequent=frequent, buckets=buckets):
            state = levelwise_state(2, frequent, all_frequent, stats)
            state.update(stage="pass-2", buckets=list(buckets))
            return state

        ctx.mark(_pass2_state)
    elif resumed["stage"] == "pass-2":
        frequent = resumed["frequent"]
        buckets = resumed["buckets"]
    else:
        frequent = resumed["frequent"]
        buckets = None  # later passes never consult the hash filter

    # ------------------------------------------------------------------
    # Pass 2: hash-filtered pair candidates.
    # ------------------------------------------------------------------
    if resumed is not None and resumed["stage"] == "passes":
        k = resumed["k"]
        c2_unfiltered, c2_filtered = resumed["c2"]
    else:
        if max_size is None or max_size >= 2:
            if budget is not None:
                budget.check(phase="pass-2")
                # Charge the full |F1 choose 2| estimate before materialising
                # the pair list: the blow-up is rejected while it is still an
                # arithmetic fact rather than an allocated list.
                m = len(frequent)
                budget.charge_candidates(m * (m - 1) // 2, phase="pass-2")
                budget.progress("pass-2", c2_estimate=m * (m - 1) // 2)
            started = time.perf_counter()
            frequent_items = sorted(item[0] for item in frequent)
            unfiltered = [
                (a, b) for i, a in enumerate(frequent_items)
                for b in frequent_items[i + 1:]
            ]
            candidates = [
                pair for pair in unfiltered
                if buckets[_bucket(pair[0], pair[1], n_buckets)] >= min_count
            ]
            c2_unfiltered, c2_filtered = len(unfiltered), len(candidates)
            frequent = count_pass(db, candidates, 2, min_count,
                                  candidate_store, ctx=ctx, n_jobs=n_jobs,
                                  bitmap=bitmap, assets=assets)
            stats.append(
                PassStats(2, len(candidates), len(frequent), time.perf_counter() - started)
            )
            all_frequent.update(frequent)
        else:
            c2_unfiltered = c2_filtered = 0
            frequent = {}
        k = 3
        ctx.mark(lambda: _passes_state(k, frequent, all_frequent, stats,
                                       c2_unfiltered, c2_filtered))

    # ------------------------------------------------------------------
    # Passes 3+: standard Apriori.
    # ------------------------------------------------------------------
    while frequent and (max_size is None or k <= max_size):
        ctx.step(f"pass-{k}", n_frequent_prev=len(frequent))
        started = time.perf_counter()
        candidates = apriori_gen(frequent, budget)
        if not candidates:
            stats.append(PassStats(k, 0, 0, time.perf_counter() - started))
            break
        frequent = count_pass(db, candidates, k, min_count,
                              candidate_store, ctx=ctx, n_jobs=n_jobs,
                              bitmap=bitmap, assets=assets)
        stats.append(
            PassStats(k, len(candidates), len(frequent), time.perf_counter() - started)
        )
        all_frequent.update(frequent)
        k += 1
        ctx.mark(lambda: _passes_state(k, frequent, all_frequent, stats,
                                       c2_unfiltered, c2_filtered))

    result = FrequentItemsets(all_frequent, n, min_support)
    result.pass_stats = stats
    result.c2_unfiltered = c2_unfiltered
    result.c2_filtered = c2_filtered
    return result


def _passes_state(k, frequent, all_frequent, stats, c2_unfiltered,
                  c2_filtered) -> dict:
    state = levelwise_state(k, frequent, all_frequent, stats)
    state.update(stage="passes", c2=(c2_unfiltered, c2_filtered))
    return state


def _bucket(a: int, b: int, n_buckets: int) -> int:
    # Any deterministic pair hash works, but it must actually mix: a
    # multiplier congruent to +/-1 modulo a power-of-two table size
    # collapses to (b - a) and wrecks the filter.  Mix each coordinate
    # with a distinct odd constant and fold the halves.
    h = a * 0x9E3779B1 ^ (b + 0x7F4A7C15) * 0x85EBCA77
    h ^= h >> 16
    return h % n_buckets


__all__ = ["dhp"]
