"""Deterministic partitioning of query combination spaces across shards.

The serving layer's scatter-gather splits the ``C(n, k)`` combination
space of a pair/k-set matrix query into contiguous **rank spans** (ranks
are positions in ``itertools.combinations`` order over the catalogue),
computes each span's partial answer on its owning shard, and merges the
partials back with the same ordering discipline the PR-3 run-range merge
uses (:func:`repro.runner.spans.order_contiguous`): sort by span start,
refuse gaps and overlaps.  Three properties follow:

* **determinism** -- the partition, the span→shard assignment and the
  merge are pure functions of ``(dataset digest, shard count)``, so the
  merged payload is byte-identical to the single-process answer for the
  same dataset digest (regression-tested and gated by
  ``benchmarks/bench_service.py``);
* **digest-consistent routing** -- :func:`shard_for_span` keys the
  assignment on the dataset digest, so for a given dataset state every
  span always lands on the same worker and that worker's scoped response
  cache (its hot partial index) keeps answering it from memory; a new
  snapshot digest reshuffles the assignment together with the caches it
  would have missed anyway;
* **safety under churn** -- every partial carries the dataset digest it
  was computed against, and the gatherer refuses to merge partials from
  two different dataset states (a delta landing mid-scatter degrades to
  local computation, never to a frankenpayload).

The functions here are transport-free; :class:`~repro.service.server
.DiversityService` wires them to peer workers over the cluster's internal
listeners (see :mod:`repro.service.cluster`).
"""

from __future__ import annotations

import hashlib
import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.enums import ServerConfiguration
from repro.runner.spans import order_contiguous, partition_spans
from repro.service import schemas
from repro.service.errors import BadRequest

Span = Tuple[int, int]


def combination_space(candidates: int, k: int) -> int:
    """Size of the rank space a ``(candidates, k)`` query is split over."""
    return math.comb(candidates, k)


def shard_for_span(digest: str, span_index: int, shards: int) -> int:
    """The shard that owns one span of a dataset state's combination space.

    A pure function every worker evaluates identically: the dataset digest
    is hashed into a rotation offset, so span ownership is stable for a
    given dataset state (each worker keeps its partials hot) and
    redistributes when a snapshot delta produces a new digest (whose
    partials are cold everywhere regardless).
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    offset = int.from_bytes(
        hashlib.sha256(digest.encode("utf-8")).digest()[:4], "big"
    )
    return (span_index + offset) % shards


def format_span(span: Span) -> str:
    """Render a span for the internal scatter query string (``lo-hi``)."""
    return f"{span[0]}-{span[1]}"


def parse_span(params: Dict[str, Tuple[str, ...]], total: int) -> Span:
    """Parse and bound-check the ``span`` parameter of a partial query."""
    raw = schemas.single(params, "span")
    if raw is None:
        raise BadRequest(
            "parameter 'span' is required for shard partials",
            detail={"parameter": "span"},
        )
    lo_text, separator, hi_text = raw.partition("-")
    try:
        if not separator:
            raise ValueError(raw)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise BadRequest(
            f"parameter 'span' must look like 'lo-hi', not {raw!r}",
            detail={"parameter": "span"},
        )
    if not 0 <= lo <= hi <= total:
        raise BadRequest(
            f"span [{lo}, {hi}) is outside the {total}-combination space",
            detail={"parameter": "span", "combinations": total},
        )
    return lo, hi


def _combinations_in(
    os_names: Sequence[str], k: int, span: Span
) -> "itertools.islice":
    """The k-combinations whose lexicographic rank falls inside ``span``.

    ``itertools.combinations`` enumerates in exactly the rank order the
    partition is defined over, so an ``islice`` is the whole unranking.
    """
    return itertools.islice(itertools.combinations(os_names, k), span[0], span[1])


# ---------------------------------------------------------------------------
# span partials (computed on the owning shard)
# ---------------------------------------------------------------------------


def pairs_span_payload(
    artifacts,
    configuration: ServerConfiguration,
    span: Span,
) -> Dict[str, object]:
    """The partial pair matrix for one rank span of ``C(n, 2)``.

    Counts come from the same compiled incidence index the full
    :meth:`~repro.service.registry.CorpusArtifacts.pair_matrix` walk uses
    (intersection-mask popcounts), so a merged set of span partials is
    value-identical to the single-process matrix.
    """
    view = artifacts.filtered_valid(configuration)
    return {
        "digest": artifacts.digest,
        "span": list(span),
        "pairs": [
            [os_a, os_b, view.shared_count((os_a, os_b))]
            for os_a, os_b in _combinations_in(artifacts.os_names, 2, span)
        ],
    }


def ksets_span_payload(
    artifacts,
    configuration: ServerConfiguration,
    k: int,
    top: int,
    span: Span,
) -> Dict[str, object]:
    """The partial k-set summary for one rank span of ``C(n, k)``.

    Only the merge-relevant reduction ships across the wire: the span
    width, how many of its combinations are fully covered, and the span's
    ``top`` best/worst combinations under the global tie-break (count,
    then lexicographic combination) -- the global top-``top`` is always
    contained in the union of per-span top-``top`` lists.  All three come
    from the same memoised non-zero walk as the single-process payload,
    restricted to the span.
    """
    analysis = artifacts.ksets(configuration)
    best = analysis.best_combinations(k, top, span)
    worst = analysis.worst_combinations(k, top, span)
    return {
        "digest": artifacts.digest,
        "span": list(span),
        "combinations": span[1] - span[0],
        "fully_covered": analysis.combinations_fully_covered(k, span),
        "best": [[list(combo), count] for combo, count in best],
        "worst": [[list(combo), count] for combo, count in worst],
    }


# ---------------------------------------------------------------------------
# scatter-gather merge (run on whichever worker received the request)
# ---------------------------------------------------------------------------


def _span_of(partial: Dict[str, object]) -> Span:
    span = partial["span"]
    return int(span[0]), int(span[1])


def _check_merge(partials: Sequence[Dict[str, object]], total: int) -> List[Dict[str, object]]:
    """Order partials and enforce single-digest, full-cover merges."""
    digests = {str(partial["digest"]) for partial in partials}
    if len(digests) > 1:
        raise ValueError(
            f"cannot merge partials from {len(digests)} dataset states: "
            f"{sorted(digests)}"
        )
    ordered = order_contiguous(partials, _span_of)
    start, stop = _span_of(ordered[0])[0], _span_of(ordered[-1])[1]
    if start != 0 or stop != total:
        raise ValueError(
            f"merged spans cover [{start}, {stop}) but the combination "
            f"space is [0, {total})"
        )
    return ordered


def merged_pair_matrix_payload(
    artifacts,
    configuration: ServerConfiguration,
    partials: Sequence[Dict[str, object]],
    scope_digest: str,
) -> Dict[str, object]:
    """Assemble the public pairs payload from one partial per span.

    Byte-identical to :func:`repro.service.schemas.pair_matrix_payload`
    over the same dataset state: the merged pair set is complete by the
    contiguity check, and rendering sorts pairs exactly like the
    single-process payload does.
    """
    pairs: List[Tuple[str, str, int]] = []
    for partial in _check_merge(partials, combination_space(len(artifacts.os_names), 2)):
        pairs.extend((str(a), str(b), int(n)) for a, b, n in partial["pairs"])
    return {
        "dataset": schemas.dataset_block(artifacts),
        "configuration": schemas.configuration_slug(configuration),
        "pairs": [
            {"os_a": os_a, "os_b": os_b, "shared": shared}
            for (os_a, os_b), shared in sorted(
                ((pair_a, pair_b), count) for pair_a, pair_b, count in pairs
            )
        ],
        "scope_digest": scope_digest,
    }


def merged_ksets_payload(
    artifacts,
    configuration: ServerConfiguration,
    k: int,
    top: int,
    partials: Sequence[Dict[str, object]],
    scope_digest: str,
) -> Dict[str, object]:
    """Assemble the public k-sets payload from one partial per span.

    Byte-identical to :func:`repro.service.schemas.ksets_payload`: span
    widths and covered counts sum, and the global best/worst lists are
    re-sorted from the per-span candidates under the same (count,
    combination) tie-break.
    """
    ordered = _check_merge(
        partials, combination_space(len(artifacts.os_names), k)
    )
    best: List[Tuple[Tuple[str, ...], int]] = []
    worst: List[Tuple[Tuple[str, ...], int]] = []
    combinations = 0
    fully_covered = 0
    for partial in ordered:
        combinations += int(partial["combinations"])
        fully_covered += int(partial["fully_covered"])
        best.extend(
            (tuple(str(name) for name in combo), int(count))
            for combo, count in partial["best"]
        )
        worst.extend(
            (tuple(str(name) for name in combo), int(count))
            for combo, count in partial["worst"]
        )
    best = sorted(best, key=lambda item: (item[1], item[0]))[:top]
    worst = sorted(worst, key=lambda item: (-item[1], item[0]))[:top]
    return {
        "dataset": schemas.dataset_block(artifacts),
        "configuration": schemas.configuration_slug(configuration),
        "k": k,
        "combinations": combinations,
        "fully_covered": fully_covered,
        "best": [
            {"os_names": list(combo), "shared": count} for combo, count in best
        ],
        "worst": [
            {"os_names": list(combo), "shared": count} for combo, count in worst
        ],
        "scope_digest": scope_digest,
    }


def plan_spans(
    digest: str, candidates: int, k: int, shards: int
) -> List[Tuple[Span, int]]:
    """The scatter plan: every (span, owning shard) for one query.

    Empty spans (a space smaller than the shard count) are dropped -- they
    contribute nothing and would only add wire round-trips.
    """
    spans = partition_spans(combination_space(candidates, k), shards)
    return [
        (span, shard_for_span(digest, index, shards))
        for index, span in enumerate(spans)
        if span[0] != span[1]
    ]
