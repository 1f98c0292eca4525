"""Levelwise candidate generation (the *apriori-gen* function).

Given the frequent (k-1)-itemsets, apriori-gen produces the candidate
k-itemsets in two steps:

* **join** — combine pairs of frequent (k-1)-itemsets that share their
  first k-2 items (itemsets are kept in canonical sorted-tuple form, so
  the lexicographic join of the original paper applies directly);
* **prune** — discard any candidate with an infrequent (k-1)-subset,
  using the downward-closure (anti-monotonicity) of support.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from ..core.itemsets import Itemset


def apriori_gen(
    frequent_prev: Iterable[Itemset], budget: Optional[object] = None
) -> List[Itemset]:
    """Generate candidate k-itemsets from frequent (k-1)-itemsets.

    Parameters
    ----------
    frequent_prev:
        The frequent itemsets of the previous level, all the same size
        ``k - 1`` and in canonical form.
    budget:
        Optional :class:`~repro.runtime.Budget`; charged one candidate
        unit per itemset that survives the prune, so a candidate-count
        cap aborts a blow-up *during* the join instead of after it has
        materialised.

    Returns
    -------
    list of Itemset
        Pruned candidates of size k, sorted lexicographically.

    Examples
    --------
    >>> apriori_gen([(1, 2), (1, 3), (2, 3)])
    [(1, 2, 3)]
    >>> apriori_gen([(1, 2), (1, 3), (1, 4), (3, 4)])
    [(1, 3, 4)]
    """
    prev: List[Itemset] = sorted(frequent_prev)
    if not prev:
        return []
    k_minus_1 = len(prev[0])
    prev_set: Set[Itemset] = set(prev)
    phase = f"apriori-gen-{k_minus_1 + 1}"
    candidates: List[Itemset] = []
    # Join step: itemsets sharing a (k-2)-prefix are adjacent in sorted
    # order, so each one joins with the run of successors behind it.
    # Candidates come out lexicographically sorted.
    n = len(prev)
    for i, first in enumerate(prev):
        prefix = first[:-1]
        j = i + 1
        while j < n and prev[j][:-1] == prefix:
            candidate = first + prev[j][-1:]
            j += 1
            # Prune step: all (k-1)-subsets must be frequent.  The two
            # join parents drop one of the last two items and are
            # frequent by construction, so only the k-2 subsets that
            # drop a prefix item are checked.
            if k_minus_1 > 1 and any(
                candidate[:m] + candidate[m + 1:] not in prev_set
                for m in range(k_minus_1 - 1)
            ):
                continue
            if budget is not None:
                budget.charge_candidates(phase=phase)
            candidates.append(candidate)
    return candidates


__all__ = ["apriori_gen"]
