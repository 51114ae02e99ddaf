"""Vulnerabilities shared by groups of three or more operating systems.

Section IV-B of the paper extends the pairwise study to larger OS groups and
reports how many vulnerabilities are still common as the group size grows,
naming the three CVEs with the widest reach.  This module provides both
interpretations of that count:

* :meth:`KSetAnalysis.affecting_at_least` -- vulnerabilities affecting at
  least ``k`` of the studied OSes (the most natural reading);
* :meth:`KSetAnalysis.per_combination_totals` -- the number of common
  vulnerabilities summed/maximised over every ``k``-OS combination, which is
  useful when sizing replica groups.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.dataset import VulnerabilityDataset
from repro.core.constants import OS_NAMES
from repro.core.enums import ServerConfiguration

#: A half-open ``[lo, hi)`` interval of ``itertools.combinations`` ranks.
Span = Tuple[int, int]


@dataclass(frozen=True)
class WideVulnerability:
    """A vulnerability together with the number of studied OSes it affects."""

    cve_id: str
    breadth: int
    affected_os: FrozenSet[str]


class KSetAnalysis:
    """Higher-order (k >= 3) shared-vulnerability analysis."""

    def __init__(
        self,
        dataset: VulnerabilityDataset,
        configuration: ServerConfiguration = ServerConfiguration.FAT,
        os_names: Optional[Sequence[str]] = None,
        prefiltered: bool = False,
    ) -> None:
        """``prefiltered=True`` takes ``dataset`` as already valid-only and
        configuration-filtered, so callers holding such a view (the serving
        layer's artifact registry) reuse its compiled index instead of
        building a second copy of the same sub-corpus."""
        self._os_names: Tuple[str, ...] = tuple(os_names or dataset.os_names or OS_NAMES)
        self._dataset = (
            dataset if prefiltered else dataset.valid().filtered(configuration)
        )
        self._walks: Dict[int, Dict[Tuple[str, ...], int]] = {}
        self._walks_lock = threading.Lock()

    # -- breadth of individual vulnerabilities --------------------------------------

    def breadth_histogram(self) -> Dict[int, int]:
        """Histogram of how many studied OSes each vulnerability affects."""
        histogram: Dict[int, int] = {}
        catalog = set(self._os_names)
        for entry in self._dataset:
            breadth = len(entry.affected_os & catalog)
            if breadth:
                histogram[breadth] = histogram.get(breadth, 0) + 1
        return dict(sorted(histogram.items()))

    def affecting_at_least(self, k: int) -> List[WideVulnerability]:
        """Vulnerabilities affecting at least ``k`` of the studied OSes.

        "Studied" means this analysis's ``os_names``: when they are narrower
        than the dataset's catalogue, breadth is still counted over the
        studied set only.
        """
        catalog = set(self._os_names)
        wide = []
        for entry in self._dataset.affecting_at_least(k):
            affected = frozenset(entry.affected_os & catalog)
            if len(affected) < k:
                continue
            wide.append(
                WideVulnerability(
                    cve_id=entry.cve_id, breadth=len(affected), affected_os=affected
                )
            )
        return sorted(wide, key=lambda w: (-w.breadth, w.cve_id))

    def widest(self, top: int = 3) -> List[WideVulnerability]:
        """The ``top`` vulnerabilities with the widest OS coverage.

        Only vulnerabilities affecting at least **two** of the studied OSes
        qualify (the list is seeded from :meth:`affecting_at_least` with
        ``k=2``), so single-OS entries never appear, even when ``top``
        exceeds the number of multi-OS vulnerabilities.  Ties are broken
        deterministically: decreasing breadth first, then ascending CVE
        identifier.
        """
        return self.affecting_at_least(2)[:top]

    def summary(self, ks: Sequence[int] = (3, 4, 5, 6)) -> Dict[int, int]:
        """Counts of vulnerabilities affecting at least ``k`` OSes, per ``k``."""
        return {k: len(self.affecting_at_least(k)) for k in ks}

    # -- per-combination view ----------------------------------------------------------

    def per_combination_totals(self, k: int) -> Dict[Tuple[str, ...], int]:
        """Common vulnerabilities for every ``k``-OS combination.

        The count for a combination is the number of vulnerabilities that
        affect *all* of its members.  Combinations with zero common
        vulnerabilities are included (they are exactly the candidates for a
        diverse replica group).
        """
        nonzero = self._nonzero_totals(k)
        totals = dict.fromkeys(itertools.combinations(self._os_names, k), 0)
        totals.update(nonzero)
        return totals

    def best_combinations(
        self, k: int, top: int = 5, span: Optional[Span] = None
    ) -> List[Tuple[Tuple[str, ...], int]]:
        """The ``top`` k-OS combinations with the fewest common vulnerabilities.

        Ties break on the combination tuple.  The zero-count combinations
        come first, smallest tuple first, from a lazy lexicographic walk
        that stops after ``top``; non-zero ones fill any remaining slots.
        ``span`` restricts the answer to the combinations whose rank in
        ``itertools.combinations(os_names, k)`` order lies in
        ``[span[0], span[1])``.
        """
        best = [
            (combo, 0)
            for combo in itertools.islice(self._zero_combinations(k, span), top)
        ]
        if len(best) < top:
            best += heapq.nsmallest(
                top - len(best),
                self._nonzero_items(k, span),
                key=lambda item: (item[1], item[0]),
            )
        return best

    def worst_combinations(
        self, k: int, top: int = 5, span: Optional[Span] = None
    ) -> List[Tuple[Tuple[str, ...], int]]:
        """The ``top`` k-OS combinations with the most common vulnerabilities.

        Ties break on the combination tuple; zero-count combinations, smallest
        tuple first, fill the list only when fewer than ``top`` are non-zero.
        ``span`` is as in :meth:`best_combinations`.
        """
        worst = heapq.nsmallest(
            top, self._nonzero_items(k, span), key=lambda item: (-item[1], item[0])
        )
        if len(worst) < top:
            worst += [
                (combo, 0)
                for combo in itertools.islice(
                    self._zero_combinations(k, span), top - len(worst)
                )
            ]
        return worst

    def combinations_fully_covered(self, k: int, span: Optional[Span] = None) -> int:
        """Number of ``k``-OS combinations with at least one common vulnerability.

        ``span`` is as in :meth:`best_combinations`.
        """
        return len(self._nonzero_items(k, span))

    # -- the non-zero walk ---------------------------------------------------------------

    def _nonzero_totals(self, k: int) -> Dict[Tuple[str, ...], int]:
        """The non-zero ``k``-combinations and their counts, in combination order.

        Computed once per ``k`` and memoised (under a lock, since the
        service shares one analysis between request threads): every
        per-combination query derives from it.  Only combinations sharing at
        least one vulnerability are visited, so the cost follows the
        (usually few) covered combinations rather than ``C(n, k)``.
        """
        if not 2 <= k <= len(self._os_names):
            raise ValueError(f"k must be between 2 and {len(self._os_names)}")
        with self._walks_lock:
            walk = self._walks.get(k)
            if walk is None:
                if self._dataset.engine != "naive":
                    # Depth-first fold-AND with shared prefix intersections.
                    walk = self._dataset.query_index().nonzero_k_sets(self._os_names, k)
                else:
                    walk = {}
                    for combo in itertools.combinations(self._os_names, k):
                        count = self._dataset.shared_count(combo)
                        if count:
                            walk[combo] = count
                self._walks[k] = walk
            return walk

    def _nonzero_items(
        self, k: int, span: Optional[Span]
    ) -> List[Tuple[Tuple[str, ...], int]]:
        """The non-zero ``(combination, count)`` pairs whose rank is in ``span``."""
        items = list(self._nonzero_totals(k).items())
        if span is None:
            return items
        position = {name: index for index, name in enumerate(self._os_names)}
        count = len(self._os_names)
        return [
            (combo, shared)
            for combo, shared in items
            if span[0]
            <= combination_rank([position[name] for name in combo], count)
            < span[1]
        ]

    def _zero_combinations(
        self, k: int, span: Optional[Span]
    ) -> Iterator[Tuple[str, ...]]:
        """Zero-count combinations in ``span``, smallest tuple first (lazy)."""
        nonzero = self._nonzero_totals(k)
        return (
            combo
            for combo in lexicographic_combinations(self._os_names, k, span)
            if combo not in nonzero
        )


def combination_rank(indices: Sequence[int], n: int) -> int:
    """Rank of a combination of ``range(n)`` in ``itertools.combinations`` order.

    ``indices`` is strictly increasing.  Each digit skips the combinations
    whose element at that depth is smaller:
    ``C(n - start, left) - C(n - index, left)`` of them.
    """
    rank, start, left = 0, 0, len(indices)
    for index in indices:
        rank += math.comb(n - start, left) - math.comb(n - index, left)
        start, left = index + 1, left - 1
    return rank


def lexicographic_combinations(
    names: Sequence[str], k: int, span: Optional[Span] = None
) -> Iterator[Tuple[str, ...]]:
    """The ``k``-combinations of ``names`` in increasing tuple order.

    Each combination is spelled as ``itertools.combinations(names, k)``
    spells it (members in catalogue order), but the combinations come out
    sorted, which differs whenever the catalogue is not alphabetical.  Each
    depth tries the admissible names alphabetically; ``span`` keeps only the
    combinations whose ``itertools.combinations`` rank lies in
    ``[span[0], span[1])``, skipping every subtree (a contiguous rank
    interval) that misses it.  ``names`` must be distinct.
    """
    n = len(names)
    lo, hi = span if span is not None else (0, math.comb(n, k))
    alphabetical = sorted(range(n), key=names.__getitem__)

    def expand(
        start: int, prefix: Tuple[str, ...], base: int
    ) -> Iterator[Tuple[str, ...]]:
        left = k - len(prefix)
        for index in alphabetical:
            if not start <= index <= n - left:
                continue
            first = base + math.comb(n - start, left) - math.comb(n - index, left)
            if first >= hi or first + math.comb(n - index - 1, left - 1) <= lo:
                continue
            if left == 1:
                yield prefix + (names[index],)
            else:
                yield from expand(index + 1, prefix + (names[index],), first)

    return expand(0, (), 0)
