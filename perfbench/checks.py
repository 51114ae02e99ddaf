"""Correctness checks the benchmark applies to every output it times.

Each checker returns ``None`` when the output is right and a one-line
reason when it is not, so a caller can count the failure against the
operation and the self-test can show that no checker passes vacuously.

The oracles count shared vulnerabilities straight from the entry list with
plain set operations.  They share only the server-configuration filter
with the program, not its query engine, registry or encoder.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections import Counter
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

from repro.classify.filters import ServerConfigurationFilter
from repro.core.enums import ServerConfiguration

#: The configuration every benchmark query runs under (the API default).
CONFIGURATION = ServerConfiguration.ISOLATED_THIN


def sha256(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


class Tally:
    """Operations attempted and failed, with the first few reasons kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, what: str, *problems: Optional[str]) -> bool:
        """Count one operation; it fails when any problem is not ``None``."""
        self.attempted += 1
        found = [problem for problem in problems if problem is not None]
        if found:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {'; '.join(found)}")
        return not found


class Oracle:
    """Shared-vulnerability counts over one entry set, by brute force."""

    def __init__(self, entries: Iterable, os_names: Sequence[str]) -> None:
        admits = ServerConfigurationFilter(CONFIGURATION).admits
        catalogue = set(os_names)
        self.os_names = tuple(os_names)
        #: CVE id -> catalogued OSes, for every entry the configuration admits.
        self.affected: Dict[str, FrozenSet[str]] = {
            entry.cve_id: frozenset(entry.affected_os) & catalogue
            for entry in entries
            if admits(entry)
        }
        self.pairs: Counter = Counter()
        for affected in self.affected.values():
            for pair in itertools.combinations(sorted(affected), 2):
                self.pairs[frozenset(pair)] += 1

    def shared(self, os_names: Iterable[str]) -> int:
        scope = frozenset(os_names)
        return sum(1 for affected in self.affected.values() if scope <= affected)


def check_status(status: int, expected: int) -> Optional[str]:
    if status != expected:
        return f"status {status}, expected {expected}"
    return None


def check_same_body(body: bytes, expected: bytes) -> Optional[str]:
    if body != expected:
        return f"body sha256 {sha256(body)[:12]} differs from {sha256(expected)[:12]}"
    return None


def check_equal(what: str, got: object, expected: object) -> Optional[str]:
    if got != expected:
        return f"{what} is {got!r}, expected {expected!r}"
    return None


def _payload(body: bytes) -> Dict[str, object]:
    return json.loads(body.decode("utf-8"))


def check_pairs(body: bytes, oracle: Oracle) -> Optional[str]:
    """Every catalogue pair is listed once, with the oracle's count."""
    try:
        pairs = _payload(body)["pairs"]
        got = {frozenset((row["os_a"], row["os_b"])): row["shared"] for row in pairs}
    except (ValueError, KeyError, TypeError) as error:
        return f"unreadable pairs payload: {error!r}"
    expected_count = len(oracle.os_names) * (len(oracle.os_names) - 1) // 2
    if len(pairs) != expected_count or len(got) != expected_count:
        return f"{len(pairs)} pairs listed, expected {expected_count}"
    for pair, shared in got.items():
        if shared != oracle.pairs.get(pair, 0):
            return f"pair {sorted(pair)} shares {shared}, oracle says {oracle.pairs.get(pair, 0)}"
    return None


def check_ksets(body: bytes, oracle: Oracle, k: int) -> Optional[str]:
    """The combination count and every listed k-set's count match the oracle."""
    try:
        payload = _payload(body)
        rows = payload["best"] + payload["worst"]
        combinations = payload["combinations"]
    except (ValueError, KeyError, TypeError) as error:
        return f"unreadable ksets payload: {error!r}"
    expected = math.comb(len(oracle.os_names), k)
    if combinations != expected:
        return f"{combinations} combinations, expected {expected}"
    if not rows:
        return "no k-sets listed"
    for row in rows:
        if len(row["os_names"]) != k or row["shared"] != oracle.shared(row["os_names"]):
            return f"k-set {row['os_names']} shares {row['shared']}, oracle says {oracle.shared(row['os_names'])}"
    return None


def check_selection(body: bytes, oracle: Oracle) -> Optional[str]:
    """Each group's pairwise score is the oracle's sum over its pairs."""
    try:
        groups = _payload(body)["groups"]
    except (ValueError, KeyError, TypeError) as error:
        return f"unreadable selection payload: {error!r}"
    if not groups:
        return "no groups selected"
    for group in groups:
        expected = sum(
            oracle.pairs.get(frozenset(pair), 0)
            for pair in itertools.combinations(group["os_names"], 2)
        )
        if group["pairwise_shared"] != expected:
            return f"group {group['os_names']} scores {group['pairwise_shared']}, oracle says {expected}"
    return None


def check_shared(body: bytes, oracle: Oracle, scope: Sequence[str]) -> Optional[str]:
    try:
        got = _payload(body)["shared_count"]
    except (ValueError, KeyError, TypeError) as error:
        return f"unreadable shared payload: {error!r}"
    return check_equal(f"shared_count for {list(scope)}", got, oracle.shared(scope))


def dataset_digest(body: bytes) -> Optional[str]:
    try:
        return _payload(body)["dataset"]["digest"]
    except (ValueError, KeyError, TypeError):
        return None
