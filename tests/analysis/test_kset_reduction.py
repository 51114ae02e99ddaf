"""The k-set summary reduction against the full-dict, full-sort oracle.

:class:`~repro.analysis.ksets.KSetAnalysis` derives ``best``, ``worst`` and
``fully_covered`` from one memoised walk over the non-zero combinations
plus a lazy lexicographic search for zero-count ones.  The oracle below is
the straightforward formulation: count every combination by set
inclusion, sort the whole table by ``(count, combination)`` and by
``(-count, combination)``, and slice.  Both must agree on every engine, for
the whole combination space and for any rank span of it, including the
edge cases where the lazy search and the non-zero fill meet.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.dataset import ENGINES, VulnerabilityDataset
from repro.analysis.engine import IncidenceIndex
from repro.analysis.ksets import (
    KSetAnalysis,
    combination_rank,
    lexicographic_combinations,
)

from tests.conftest import make_entry

#: Catalogue names, deliberately not in sorted order.
POOL = ("Solaris", "Debian", "Windows2000", "OpenBSD", "FreeBSD", "RedHat", "NetBSD")


def oracle(groups, names, k, top, span=None):
    """(combinations, fully_covered, best, worst) by brute force."""
    totals = [
        (combo, sum(1 for group in groups if group.issuperset(combo)))
        for combo in itertools.combinations(names, k)
    ]
    if span is not None:
        totals = totals[span[0] : span[1]]
    return (
        len(totals),
        sum(1 for _combo, count in totals if count > 0),
        sorted(totals, key=lambda item: (item[1], item[0]))[:top],
        sorted(totals, key=lambda item: (-item[1], item[0]))[:top],
    )


def analysis_for(groups, names, engine):
    entries = [
        make_entry(cve_id=f"CVE-2005-{1000 + index}", oses=group)
        for index, group in enumerate(groups)
    ]
    dataset = VulnerabilityDataset(entries, names, engine=engine)
    return KSetAnalysis(dataset, os_names=names, prefiltered=True)


def assert_matches_oracle(groups, names, k, top, span=None):
    for engine in ENGINES:
        analysis = analysis_for(groups, names, engine)
        _combinations, covered, best, worst = oracle(groups, names, k, top, span)
        assert analysis.combinations_fully_covered(k, span) == covered, engine
        assert analysis.best_combinations(k, top, span) == best, engine
        assert analysis.worst_combinations(k, top, span) == worst, engine
        if span is None:
            totals = analysis.per_combination_totals(k)
            assert list(totals.items()) == [
                (combo, sum(1 for group in groups if group.issuperset(combo)))
                for combo in itertools.combinations(names, k)
            ], engine


@st.composite
def corpora(draw):
    names = tuple(draw(st.lists(st.sampled_from(POOL), min_size=2, max_size=6, unique=True)))
    groups = draw(
        st.lists(st.frozensets(st.sampled_from(names), min_size=1), max_size=12)
    )
    k = draw(st.integers(min_value=2, max_value=len(names)))
    total = math.comb(len(names), k)
    top = draw(st.integers(min_value=1, max_value=total + 3))
    lo = draw(st.integers(min_value=0, max_value=total))
    hi = draw(st.integers(min_value=lo, max_value=total))
    return names, groups, k, top, (lo, hi)


@given(case=corpora())
@settings(max_examples=80, deadline=None)
def test_reduction_matches_the_oracle(case):
    names, groups, k, top, _span = case
    assert_matches_oracle(groups, names, k, top)


@given(case=corpora())
@settings(max_examples=80, deadline=None)
def test_span_reduction_matches_the_oracle(case):
    names, groups, k, top, span = case
    assert_matches_oracle(groups, names, k, top, span)


NAMES = POOL[:5]
EDGE_CASES = {
    "all-zero corpus": ([], NAMES, 3, 4),
    "single-OS entries only": ([frozenset({name}) for name in NAMES], NAMES, 2, 6),
    "every combination non-zero": ([frozenset(NAMES)], NAMES, 3, 4),
    "every combination non-zero, top > C(n,k)": ([frozenset(NAMES)], NAMES, 3, 15),
    "k == n": ([frozenset(NAMES[:4])], NAMES, 5, 3),
    "k == n, covered": ([frozenset(NAMES), frozenset(NAMES)], NAMES, 5, 3),
    "ties at zero and at the maximum": (
        [frozenset(NAMES[:3]), frozenset(NAMES[2:]), frozenset(NAMES[1:4])],
        NAMES,
        3,
        4,
    ),
    "top > C(n,k) with zeros": ([frozenset(NAMES[1:4])], NAMES, 3, 12),
    "fewer zeros than top": ([frozenset(NAMES[1:]), frozenset(NAMES[:4])], NAMES, 3, 5),
}


@pytest.mark.parametrize("case", list(EDGE_CASES), ids=list(EDGE_CASES))
def test_edge_cases_match_the_oracle(case):
    groups, names, k, top = EDGE_CASES[case]
    assert_matches_oracle(groups, names, k, top)
    total = math.comb(len(names), k)
    for span in ((0, total), (0, 0), (1, total - 1), (total // 2, total)):
        if span[0] <= span[1]:
            assert_matches_oracle(groups, names, k, top, span)


@pytest.mark.parametrize("engine", ENGINES)
def test_bad_k_still_raises(engine):
    analysis = analysis_for([frozenset(NAMES)], NAMES, engine)
    for k in (1, len(NAMES) + 1):
        for query in (
            analysis.per_combination_totals,
            analysis.best_combinations,
            analysis.worst_combinations,
            analysis.combinations_fully_covered,
        ):
            with pytest.raises(ValueError, match="k must be between 2 and 5"):
                query(k)


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_lexicographic_combinations_sort_every_span(k):
    names = POOL[:6]
    ranked = list(itertools.combinations(names, k))
    for lo in range(len(ranked) + 1):
        for hi in range(lo, len(ranked) + 1, 3):
            assert list(lexicographic_combinations(names, k, (lo, hi))) == sorted(
                ranked[lo:hi]
            )
    assert list(lexicographic_combinations(names, k)) == sorted(ranked)


def test_combination_rank_is_the_itertools_position():
    for n, k in ((1, 1), (5, 2), (7, 3), (6, 6)):
        for rank, indices in enumerate(itertools.combinations(range(n), k)):
            assert combination_rank(indices, n) == rank


def test_concurrent_queries_share_one_walk(monkeypatch):
    """Threads racing on a cold analysis walk once and agree on the answer."""
    walks = []
    original = IncidenceIndex.nonzero_k_sets

    def slow_spy(self, os_names, k):
        walks.append(k)
        time.sleep(0.01)  # widen the window a missing lock would lose in
        return original(self, os_names, k)

    monkeypatch.setattr(IncidenceIndex, "nonzero_k_sets", slow_spy)
    groups = [frozenset(POOL[:3]), frozenset(POOL[2:6]), frozenset(POOL[4:])]
    analysis = analysis_for(groups, POOL, "bitset")
    results = []
    threads = [
        threading.Thread(
            target=lambda top=top: results.append(analysis.worst_combinations(3, top % 4 + 1))
        )
        for top in range(12)
    ]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert walks == [3]
    assert len(results) == 12
    for result in results:
        expected = oracle(groups, POOL, 3, len(result))[3]
        assert result == expected
