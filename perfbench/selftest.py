"""Fast test of the benchmark itself (not collected by a plain ``pytest``).

Run from the repository root::

    python -m pytest perfbench/selftest.py -q

Each workload runs once at a tiny size and must emit every metric that
``BENCHMARK.json`` names, with its unit, and pass every check.  Each
checker must reject a deliberately wrong body or digest, so that no check
passes vacuously.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

import checks
import harness
from checks import Oracle
from repro.service import schemas
from repro.synthetic.generator import generate_scaled_catalogue
from workloads import TINY, WORKLOADS, ServeCold

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == ["setup_s", *harness.E2E_SLOTS]
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, tmp_path):
    result = harness.run(workload, seed=3, seconds=0.0, trace=True, workdir=tmp_path, sizes=TINY)
    assert result.tally.attempted > 0
    assert result.tally.failed == 0, result.tally.reasons
    e2e = result.e2e()
    assert {name: unit for name, (_, unit) in e2e.items()} == {
        metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]
    }
    assert all(value > 0 for value, _ in e2e.values())
    assert {name: unit for name, (_, unit) in result.per_layer().items()} == {
        metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]
    }


def test_a_cold_run_flags_a_changed_body(monkeypatch, tmp_path):
    verify = ServeCold.verify_setup

    def verify_then_corrupt(self):
        verify(self)
        encode = schemas.dumps
        monkeypatch.setattr(schemas, "dumps", lambda payload: encode(payload) + b" ")

    monkeypatch.setattr(ServeCold, "verify_setup", verify_then_corrupt)
    result = harness.run("serve-cold", seed=3, seconds=0.0, trace=False, workdir=tmp_path, sizes=TINY)
    assert result.tally.failed > 0


@pytest.fixture(scope="module")
def oracle():
    catalogue = generate_scaled_catalogue(n_families=2, releases_per_family=3)
    return Oracle(catalogue.entries, catalogue.os_names)


def _pairs_body(oracle, bump=0):
    rows = [
        {"os_a": a, "os_b": b, "shared": oracle.pairs[frozenset((a, b))]}
        for a, b in itertools.combinations(oracle.os_names, 2)
    ]
    rows[0]["shared"] += bump
    return json.dumps({"pairs": rows}).encode()


def _ksets_body(oracle, bump=0):
    rows = [
        {"os_names": list(combo), "shared": oracle.shared(combo)}
        for combo in itertools.combinations(oracle.os_names, 3)
    ]
    rows[-1]["shared"] += bump
    return json.dumps({"combinations": len(rows), "best": rows[:2], "worst": rows[-2:]}).encode()


def _selection_body(oracle, bump=0):
    group = oracle.os_names[:3]
    score = sum(oracle.pairs[frozenset(pair)] for pair in itertools.combinations(group, 2))
    return json.dumps(
        {"groups": [{"os_names": list(group), "pairwise_shared": score + bump}]}
    ).encode()


def _shared_body(oracle, bump=0):
    return json.dumps({"shared_count": oracle.shared(oracle.os_names[:2]) + bump}).encode()


def test_oracle_checks_accept_right_and_reject_wrong_payloads(oracle):
    scope = oracle.os_names[:2]
    cases = (
        (_pairs_body, lambda body: checks.check_pairs(body, oracle)),
        (_ksets_body, lambda body: checks.check_ksets(body, oracle, 3)),
        (_selection_body, lambda body: checks.check_selection(body, oracle)),
        (_shared_body, lambda body: checks.check_shared(body, oracle, scope)),
    )
    for build, check in cases:
        assert check(build(oracle)) is None
        assert check(build(oracle, bump=1)) is not None
        assert check(b"not json") is not None


def test_comparison_checks_reject_a_wrong_body_status_or_digest():
    assert checks.check_same_body(b"{}", b"{}") is None
    assert checks.check_same_body(b"{}", b"{} ") is not None
    assert checks.check_status(304, 304) is None
    assert checks.check_status(200, 304) is not None
    assert checks.check_equal("digest", "ab", "ab") is None
    assert checks.check_equal("digest", "ab", "cd") is not None
    body = json.dumps({"dataset": {"digest": "ab"}}).encode()
    assert checks.dataset_digest(body) == "ab"
    assert checks.dataset_digest(b"{}") is None


def test_tally_counts_failures():
    tally = checks.Tally()
    assert tally.record("ok", None, None)
    assert not tally.record("bad", None, "wrong")
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.reasons == ["bad: wrong"]
