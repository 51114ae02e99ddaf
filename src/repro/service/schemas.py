"""Request parsing and response payload schemas for the API.

The *parse* half turns raw query parameters and JSON bodies into validated
values, raising :class:`~repro.service.errors.BadRequest` (malformed
values) or :class:`~repro.service.errors.NotFound` (unknown OS names) with
the offending parameter in the error detail.  The *build* half renders
response payloads as plain dicts and serialises them with :func:`dumps` --
canonical JSON (sorted keys, two-space indent, trailing newline), so
payload bytes are deterministic for a given dataset state and the golden
tests can pin them.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.ksets import KSetAnalysis
from repro.analysis.selection import ReplicaSetSelector, SelectionResult
from repro.core.constants import get_os
from repro.core.enums import ServerConfiguration
from repro.core.exceptions import SimulationError
from repro.runner.grid import ADVERSARY_MODES, ArrivalSpec, ExperimentGrid
from repro.service.errors import BadRequest, NotFound

#: Query-string slugs for the paper's server configurations.
CONFIGURATIONS: Mapping[str, ServerConfiguration] = {
    "fat": ServerConfiguration.FAT,
    "thin": ServerConfiguration.THIN,
    "isolated-thin": ServerConfiguration.ISOLATED_THIN,
}

#: Selection strategies the selection endpoint exposes.
SELECTION_STRATEGIES: Tuple[str, ...] = ("exhaustive", "greedy", "graph")

#: Hard ceiling on simulation-job size, so one request cannot wedge the
#: worker pool for hours.  (runs x cells, not wall-clock.)
MAX_JOB_RUNS = 1_000_000

#: Hard ceiling on the C(n, k) combination space a *synchronous* query may
#: touch: k-set totals materialize every combination, and exhaustive
#: selection enumerates the space in the worst (dense-matrix) case.  The
#: bound admits every paper-sized request and the 100-OS scaled-catalogue
#: workloads the benchmarks gate, while rejecting requests that would pin
#: a request thread for minutes (e.g. k=10 over 100 OSes ~ 1.7e13).
MAX_QUERY_COMBINATIONS = 5_000_000


def check_combination_budget(candidates: int, k: int, parameter: str) -> None:
    """Reject synchronous queries whose C(candidates, k) space is unpayable."""
    import math

    combinations = math.comb(candidates, k)
    if combinations > MAX_QUERY_COMBINATIONS:
        raise BadRequest(
            f"C({candidates}, {k}) = {combinations} combinations exceeds the "
            f"synchronous query ceiling of {MAX_QUERY_COMBINATIONS}",
            detail={"parameter": parameter, "combinations": combinations},
        )

Params = Dict[str, Tuple[str, ...]]


def dumps(payload: object) -> bytes:
    """Canonical JSON bytes: sorted keys, stable indentation, one newline."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# query-parameter parsing
# ---------------------------------------------------------------------------


def single(params: Params, name: str, default: Optional[str] = None) -> Optional[str]:
    """The single value of a parameter; repeating it is a client error."""
    values = params.get(name, ())
    if not values:
        return default
    if len(values) > 1:
        raise BadRequest(
            f"parameter {name!r} given {len(values)} times; expected once",
            detail={"parameter": name},
        )
    return values[0]


def parse_int(
    params: Params,
    name: str,
    default: int,
    minimum: int,
    maximum: Optional[int] = None,
) -> int:
    """A bounded integer query parameter."""
    raw = single(params, name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise BadRequest(
            f"parameter {name!r} must be an integer, not {raw!r}",
            detail={"parameter": name},
        )
    if value < minimum or (maximum is not None and value > maximum):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise BadRequest(
            f"parameter {name!r} must be {bound}, not {value}",
            detail={"parameter": name},
        )
    return value


def parse_configuration(params: Params) -> ServerConfiguration:
    """The ``configuration`` parameter (default: the isolated thin server)."""
    slug = single(params, "configuration", "isolated-thin")
    try:
        return CONFIGURATIONS[slug]
    except KeyError:
        raise BadRequest(
            f"unknown configuration {slug!r}; expected one of "
            f"{sorted(CONFIGURATIONS)}",
            detail={"parameter": "configuration"},
        )


def configuration_slug(configuration: ServerConfiguration) -> str:
    """The inverse of :func:`parse_configuration`."""
    for slug, value in CONFIGURATIONS.items():
        if value is configuration:
            return slug
    raise ValueError(f"unmapped configuration {configuration!r}")


def parse_os_names(
    params: Params, catalogue: Sequence[str], minimum: int = 2
) -> Tuple[str, ...]:
    """The ``os`` parameter(s): repeatable, each a name or comma list.

    Names are validated against the serving catalogue; unknown ones are a
    404 (the resource a shared-count query addresses *is* the OS set).
    Order is preserved -- it is part of the response identity.
    """
    names: List[str] = []
    for value in params.get("os", ()):
        names.extend(token.strip() for token in value.split(",") if token.strip())
    if len(names) < minimum:
        raise BadRequest(
            f"expected at least {minimum} OS names via os=A&os=B or os=A,B",
            detail={"parameter": "os"},
        )
    known = set(catalogue)
    for name in names:
        if name not in known:
            raise NotFound(
                f"unknown operating system {name!r}",
                detail={"parameter": "os", "os": name},
            )
    if len(set(names)) != len(names):
        raise BadRequest(
            "OS names must be distinct", detail={"parameter": "os"}
        )
    return tuple(names)


# ---------------------------------------------------------------------------
# response payloads
# ---------------------------------------------------------------------------


def dataset_block(artifacts) -> Dict[str, object]:
    """The provenance block every data-bearing payload carries."""
    block: Dict[str, object] = {
        "digest": artifacts.digest,
        "entries": len(artifacts.dataset),
        "os_count": len(artifacts.os_names),
    }
    snapshot = artifacts.state.snapshot
    if snapshot is not None:
        block["snapshot_id"] = snapshot.snapshot_id
        block["snapshot_source"] = snapshot.source
    return block


def catalogue_payload(artifacts) -> Dict[str, object]:
    return {
        "dataset": dataset_block(artifacts),
        "os_names": list(artifacts.os_names),
        "years": artifacts.dataset.years(),
    }


def shared_payload(
    artifacts,
    os_names: Sequence[str],
    configuration: ServerConfiguration,
    scope_digest: str,
) -> Dict[str, object]:
    return {
        "dataset": dataset_block(artifacts),
        "os_names": list(os_names),
        "configuration": configuration_slug(configuration),
        "shared_count": artifacts.shared_count(os_names, configuration),
        "scope_digest": scope_digest,
    }


def pair_matrix_payload(
    artifacts, configuration: ServerConfiguration, scope_digest: str
) -> Dict[str, object]:
    matrix = artifacts.pair_matrix(configuration)
    return {
        "dataset": dataset_block(artifacts),
        "configuration": configuration_slug(configuration),
        "pairs": [
            {"os_a": os_a, "os_b": os_b, "shared": shared}
            for (os_a, os_b), shared in sorted(matrix.items())
        ],
        "scope_digest": scope_digest,
    }


def ksets_payload(
    artifacts,
    configuration: ServerConfiguration,
    k: int,
    top: int,
    scope_digest: str,
) -> Dict[str, object]:
    analysis: KSetAnalysis = artifacts.ksets(configuration)
    # best_combinations goes first so the walk it memoises (and the other two
    # reuse) is timed under a call the perfbench query.ksets probe wraps.
    best = analysis.best_combinations(k, top)
    worst = analysis.worst_combinations(k, top)
    return {
        "dataset": dataset_block(artifacts),
        "configuration": configuration_slug(configuration),
        "k": k,
        "combinations": math.comb(len(artifacts.os_names), k),
        "fully_covered": analysis.combinations_fully_covered(k),
        "best": [{"os_names": list(combo), "shared": count} for combo, count in best],
        "worst": [{"os_names": list(combo), "shared": count} for combo, count in worst],
        "scope_digest": scope_digest,
    }


def widest_payload(
    artifacts,
    configuration: ServerConfiguration,
    top: int,
    scope_digest: str,
) -> Dict[str, object]:
    analysis: KSetAnalysis = artifacts.ksets(configuration)
    return {
        "dataset": dataset_block(artifacts),
        "configuration": configuration_slug(configuration),
        "widest": [
            {
                "cve_id": wide.cve_id,
                "breadth": wide.breadth,
                "affected_os": sorted(wide.affected_os),
            }
            for wide in analysis.widest(top)
        ],
        "scope_digest": scope_digest,
    }


def selection_payload(
    artifacts,
    configuration: ServerConfiguration,
    n: int,
    top: int,
    strategy: str,
    scope_digest: str,
) -> Dict[str, object]:
    selector: ReplicaSetSelector = artifacts.selector(configuration)
    if strategy == "exhaustive":
        results = selector.exhaustive(n, top=top)
    elif strategy == "greedy":
        results = [selector.greedy(n)]
    else:
        results = [selector.graph_based(n)]
    return {
        "dataset": dataset_block(artifacts),
        "configuration": configuration_slug(configuration),
        "n": n,
        "strategy": strategy,
        "groups": [_selection_result(result) for result in results],
        "scope_digest": scope_digest,
    }


def _selection_result(result: SelectionResult) -> Dict[str, object]:
    return {
        "os_names": list(result.os_names),
        "pairwise_shared": result.pairwise_shared,
        "compromising": result.compromising,
        "strategy": result.strategy,
    }


def snapshot_payload(record) -> Dict[str, object]:
    return {
        "snapshot_id": record.snapshot_id,
        "digest": record.digest,
        "parent_digest": record.parent_digest,
        "created": record.created,
        "source": record.source,
        "entry_count": record.entry_count,
        "added": record.added,
        "modified": record.modified,
        "removed": record.removed,
    }


def diff_payload(diff) -> Dict[str, object]:
    return {
        "from_snapshot": snapshot_payload(diff.from_snapshot),
        "to_snapshot": snapshot_payload(diff.to_snapshot),
        "added": list(diff.added),
        "modified": list(diff.modified),
        "removed": list(diff.removed),
        "affected_os_names": sorted(diff.affected_os_names()),
        "affected_pairs": [list(pair) for pair in sorted(diff.affected_pairs())],
    }


# ---------------------------------------------------------------------------
# simulation-job request body
# ---------------------------------------------------------------------------


def parse_json_body(body: bytes) -> Dict[str, object]:
    """The request body as a JSON object (4xx on anything else)."""
    if not body:
        raise BadRequest("expected a JSON request body")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise BadRequest(f"request body is not valid JSON: {error}")
    if not isinstance(payload, dict):
        raise BadRequest("the JSON request body must be an object")
    return payload


def simulation_grid(
    payload: Mapping[str, object], catalogue: Sequence[str]
) -> Tuple[ExperimentGrid, int]:
    """Validate a ``POST /v1/simulations`` body into a grid plus seed.

    The body mirrors the ``repro sweep`` axes::

        {"configurations": {"Set1": ["Debian", "OpenBSD", ...]},
         "runs": 100, "exploit_rate": 1.0, "horizon": 5.0,
         "quorum_models": ["3f+1"], "recovery_intervals": [null, 2.0],
         "arrivals": ["poisson"], "shape": 1.0,
         "adversaries": ["standard"], "seed": 7}

    Unknown keys, unknown OS names, malformed axes and grids whose total
    Monte-Carlo run count exceeds :data:`MAX_JOB_RUNS` are all rejected
    with a 400 naming the offending field.
    """
    known_keys = {
        "configurations", "runs", "exploit_rate", "horizon", "quorum_models",
        "recovery_intervals", "arrivals", "shape", "adversaries", "seed", "id",
    }
    unknown = sorted(set(payload) - known_keys)
    if unknown:
        raise BadRequest(
            f"unknown field(s) {', '.join(unknown)} in simulation request",
            detail={"fields": unknown},
        )
    configurations = payload.get("configurations")
    if not isinstance(configurations, dict) or not configurations:
        raise BadRequest(
            "field 'configurations' must map group names to OS lists",
            detail={"field": "configurations"},
        )
    known_os = set(catalogue)
    normalised: Dict[str, Tuple[str, ...]] = {}
    for name, os_names in configurations.items():
        if not isinstance(os_names, (list, tuple)) or not os_names:
            raise BadRequest(
                f"configuration {name!r} must be a non-empty OS list",
                detail={"field": "configurations", "configuration": name},
            )
        for os_name in os_names:
            if os_name not in known_os:
                try:
                    get_os(str(os_name))
                except KeyError:
                    raise BadRequest(
                        f"unknown operating system {os_name!r} in "
                        f"configuration {name!r}",
                        detail={"field": "configurations", "os": os_name},
                    )
                raise BadRequest(
                    f"operating system {os_name!r} is outside this server's "
                    f"catalogue",
                    detail={"field": "configurations", "os": os_name},
                )
        normalised[str(name)] = tuple(str(os_name) for os_name in os_names)

    def number(field: str, default: float) -> float:
        value = payload.get(field, default)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise BadRequest(
                f"field {field!r} must be a number", detail={"field": field}
            )
        return float(value)

    def str_list(field: str, default: List[str]) -> Tuple[str, ...]:
        value = payload.get(field, default)
        if not isinstance(value, (list, tuple)) or not all(
            isinstance(item, str) for item in value
        ):
            raise BadRequest(
                f"field {field!r} must be a list of strings",
                detail={"field": field},
            )
        return tuple(value)

    runs = payload.get("runs", 100)
    if not isinstance(runs, int) or isinstance(runs, bool) or runs < 1:
        raise BadRequest(
            "field 'runs' must be a positive integer", detail={"field": "runs"}
        )
    seed = payload.get("seed", 7)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise BadRequest(
            "field 'seed' must be an integer", detail={"field": "seed"}
        )
    intervals_raw = payload.get("recovery_intervals", [None])
    if not isinstance(intervals_raw, (list, tuple)) or not all(
        item is None or (isinstance(item, (int, float)) and not isinstance(item, bool))
        for item in intervals_raw
    ):
        raise BadRequest(
            "field 'recovery_intervals' must be a list of numbers and nulls",
            detail={"field": "recovery_intervals"},
        )
    intervals = tuple(
        None if item is None else float(item) for item in intervals_raw
    )
    shape = number("shape", 1.0)
    arrival_names = str_list("arrivals", ["poisson"])
    adversaries = str_list("adversaries", ["standard"])
    for adversary in adversaries:
        if adversary not in ADVERSARY_MODES:
            raise BadRequest(
                f"unknown adversary mode {adversary!r}; expected one of "
                f"{sorted(ADVERSARY_MODES)}",
                detail={"field": "adversaries"},
            )
    try:
        grid = ExperimentGrid(
            configurations=normalised,
            quorum_models=str_list("quorum_models", ["3f+1"]),
            recovery_intervals=intervals,
            arrivals=tuple(
                ArrivalSpec(process, shape if process == "aging" else 1.0)
                for process in arrival_names
            ),
            adversaries=adversaries,
            runs=runs,
            exploit_rate=number("exploit_rate", 1.0),
            horizon=number("horizon", 5.0),
        )
    except SimulationError as error:
        raise BadRequest(f"invalid simulation grid: {error}")
    total_runs = len(grid) * grid.runs
    if total_runs > MAX_JOB_RUNS:
        raise BadRequest(
            f"grid totals {total_runs} Monte-Carlo runs; the server caps "
            f"jobs at {MAX_JOB_RUNS}",
            detail={"field": "runs", "total_runs": total_runs},
        )
    return grid, seed
