"""The four benchmark workloads, driven through the entry points users hit.

Every workload is a closed loop: one client thread, one keep-alive HTTP/1.1
connection (the serving workloads) or one calling thread (``campaign``,
whose sweep fans out to ``nproc`` worker processes).  The next operation
starts only after the previous reply has arrived.

A workload has four phases, all driven by :mod:`harness`:

* ``setup`` builds everything the timed loop needs and warms it up.  The
  harness times it, repeats it and reports the median as ``setup_s``;
* ``verify_setup`` runs once, untimed, to check the warm-up outputs
  against brute-force oracles;
* per iteration, ``prepare`` (untimed, untraced), ``iteration`` (timed;
  traced on traced iterations) and ``finish`` (untimed, untraced);
* ``teardown`` closes connections and stops servers.

Inputs derive from the ``--seed`` argument alone; the program receives only
the generated queries, feeds and simulation seeds.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from repro.core.constants import FAMILY_MEMBERS, OS_NAMES
from repro.core.enums import OSFamily
from repro.db.database import VulnerabilityDatabase
from repro.db.ingest import IngestPipeline
from repro.itsys.scenarios import parse_scenario
from repro.itsys.simulation import CompromiseSimulation
from repro.nvd.json_feed import dump_json_feed
from repro.runner.cache import ResultCache
from repro.runner.grid import ArrivalSpec, ExperimentGrid
from repro.runner.runner import GridRunner
from repro.service import (
    DiversityService,
    ServiceConfig,
    ServiceServer,
    SnapshotDatasetProvider,
    StaticDatasetProvider,
)
from repro.snapshots.store import SnapshotStore
from repro.synthetic.corpus import build_corpus
from repro.synthetic.evolution import evolve_corpus
from repro.synthetic.generator import generate_scaled_catalogue

import checks
from checks import Oracle, Tally, sha256
from spans import Probe, Recorder

#: Pause between closing the client connection and stopping a server, so the
#: server's connection task sees EOF and ends before its loop closes.
#: Shutdown and drain are outside this benchmark's scope.
CLOSE_SETTLE_S = 0.05

#: Ledger timestamp pinned on the seed snapshot, so the seeded database
#: is the same on every run.
SEED_CREATED = "2011-06-27T00:00:00+00:00"


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  ``FULL`` is the benchmark; ``TINY`` is for the self-test."""

    families: int = 10
    releases: int = 10
    shared_scopes: int = 20
    feeds: int = 12
    delta_fraction: float = 0.05
    rejections: int = 3
    classic_runs: int = 4000
    scenario_runs: int = 1000
    grid_runs: int = 1000
    setup_repeats: int = 3


FULL = Sizes()
TINY = Sizes(
    families=3, releases=4, shared_scopes=4, feeds=2, classic_runs=40,
    scenario_runs=10, grid_runs=8, setup_repeats=1,
)


class Samples:
    """Named lists of measured values (seconds unless the name says so)."""

    def __init__(self) -> None:
        self.values: Dict[str, List[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def get(self, name: str) -> List[float]:
        return self.values.get(name, [])


def median_ms(values: Sequence[float]) -> float:
    return statistics.median(values) * 1e3


def p90_ms(values: Sequence[float]) -> float:
    return statistics.quantiles(values, n=10)[8] * 1e3


# -- HTTP plumbing -------------------------------------------------------------


@dataclass
class Reply:
    status: int
    headers: Dict[str, str]
    body: bytes
    seconds: float


class Client:
    """One keep-alive HTTP/1.1 connection; times each request to its last byte.

    With a recorder attached, each request is a ``client.request`` span and
    the recorder's ``remote_parent`` points at it while the reply is
    pending, so the server thread's spans nest under it.
    """

    def __init__(self, base_url: str) -> None:
        parts = urlsplit(base_url)
        self._connection = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=120
        )
        self.recorder: Optional[Recorder] = None

    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Reply:
        recorder = self.recorder
        if recorder is None:
            return self._send(method, path, body, headers)
        with recorder.span("client.request") as span:
            recorder.remote_parent = span.span_id
            try:
                return self._send(method, path, body, headers)
            finally:
                recorder.remote_parent = None

    def _send(self, method, path, body, headers) -> Reply:
        started = time.perf_counter()
        self._connection.request(method, path, body=body, headers=headers or {})
        response = self._connection.getresponse()
        payload = response.read()
        seconds = time.perf_counter() - started
        return Reply(
            status=response.status,
            headers={name.lower(): value for name, value in response.getheaders()},
            body=payload,
            seconds=seconds,
        )

    def get(self, path: str, etag: Optional[str] = None) -> Reply:
        return self.request("GET", path, headers={"If-None-Match": etag} if etag else None)

    def close(self) -> None:
        self._connection.close()


class Served:
    """A default-configured service on an in-process server, plus a client."""

    def __init__(self, provider) -> None:
        self.app = DiversityService(ServiceConfig(), provider)
        self.server = ServiceServer(self.app)
        self.client = Client(self.server.start())

    def counters(self) -> Dict[str, float]:
        return {
            "cache.hits": self.app.responses.hits,
            "cache.misses": self.app.responses.misses,
            "registry.compiles": self.app.registry.compile_count,
            "registry.patches": self.app.registry.patched_count,
        }

    def parse_seconds(self, requests: int) -> float:
        """Parse time of the last ``requests`` requests, from the app's tracer."""
        return sum(
            span.duration
            for trace in self.app.tracer.recent(requests)
            for span in trace.spans()
            if span.name == "parse"
        )

    def close(self) -> None:
        self.client.close()
        time.sleep(CLOSE_SETTLE_S)
        self.server.stop()


def counter_deltas(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {name: after[name] - before.get(name, 0) for name in after}


def shared_path(scope: Sequence[str]) -> str:
    return "/v1/shared?os=" + ",".join(scope)


#: Catalogue-wide queries and the oracle check each payload must pass.
CATALOGUE_QUERIES = {
    "/v1/matrix/pairs": checks.check_pairs,
    "/v1/matrix/ksets?k=3": lambda body, oracle: checks.check_ksets(body, oracle, 3),
    "/v1/selection?faults=1": checks.check_selection,
}


# -- workloads -----------------------------------------------------------------


class Workload:
    """Base class; see the module docstring for the phases."""

    name = ""
    #: The workload's end-to-end metrics, in the order of the harness's
    #: ``primary_ms``/``secondary_ms``/``tertiary_ms`` slots.
    headlines: Tuple[str, str, str] = ("", "", "")
    #: What one per-layer unit is; per-layer numbers are per unit.
    unit = "iteration"
    #: Runs end on a multiple of this many iterations, so the traced and
    #: untraced halves (and ``serve-cold``'s two corpora) stay balanced.
    cycle = 2

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, tally: Tally) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.tally = tally

    def setup(self, repeat: int) -> None:
        raise NotImplementedError

    def verify_setup(self) -> None:
        pass

    def traced(self, index: int) -> bool:
        """Whether iteration ``index`` of a traced run is traced."""
        return index % 2 == 1

    def prepare(self, index: int) -> None:
        pass

    def iteration(self, index: int, samples: Samples, recorder: Optional[Recorder]) -> Dict[str, float]:
        """Run one timed iteration; returns per-layer counts when traced."""
        raise NotImplementedError

    def finish(self, index: int) -> None:
        pass

    def teardown(self) -> None:
        pass

    def metrics(self, samples: Samples) -> Dict[str, Tuple[float, str, int]]:
        """Named end-to-end metrics: value, unit and sample count."""
        raise NotImplementedError


class ServeWarm(Workload):
    """Response-cache hits and revalidations on the 100-OS catalogue."""

    name = "serve-warm"
    #: warm_p90_ms is printed but not a headline: on a shared 2-vCPU host its
    #: run-to-run spread (up to 0.54 over ten runs) exceeds any allowed bound.
    headlines = ("warm_p50_ms", "warm_revalidate_p50_ms", "warm_pairs_p50_ms")
    unit = "request"

    served: Optional[Served] = None

    def setup(self, repeat: int) -> None:
        catalogue = generate_scaled_catalogue(
            n_families=self.sizes.families, releases_per_family=self.sizes.releases
        )
        self.entries, self.os_names = catalogue.entries, catalogue.os_names
        self.served = Served(
            StaticDatasetProvider(catalogue.entries, os_names=catalogue.os_names)
        )
        rng = random.Random(self.seed)
        scopes: List[Tuple[str, ...]] = []
        while len(scopes) < self.sizes.shared_scopes:
            scope = tuple(rng.sample(self.os_names, 3))
            if scope not in scopes:
                scopes.append(scope)
        self.scopes = {shared_path(scope): scope for scope in scopes}
        self.queries = [*CATALOGUE_QUERIES, "/v1/widest", *self.scopes]
        self.primed: Dict[str, Reply] = {
            path: self.served.client.get(path) for path in self.queries
        }
        self.schedule = random.Random(self.seed + 1)
        self.sent = 0

    def verify_setup(self) -> None:
        oracle = Oracle(self.entries, self.os_names)
        for path, reply in self.primed.items():
            if path in self.scopes:
                verdict = checks.check_shared(reply.body, oracle, self.scopes[path])
            elif path in CATALOGUE_QUERIES:
                verdict = CATALOGUE_QUERIES[path](reply.body, oracle)
            else:
                verdict = None
            self.tally.record(
                f"prime {path}", checks.check_status(reply.status, 200), verdict
            )

    def iteration(self, index, samples, recorder):
        served = self.served
        served.client.recorder = recorder
        before = served.counters()
        order = list(self.queries)
        self.schedule.shuffle(order)
        for path in order:
            primed = self.primed[path]
            revalidate = self.sent % 4 == 3
            self.sent += 1
            reply = served.client.get(path, primed.headers["etag"] if revalidate else None)
            samples.add("warm", reply.seconds)
            samples.add("total", reply.seconds)
            if revalidate:
                samples.add("warm_revalidate", reply.seconds)
                self.tally.record(f"revalidate {path}", checks.check_status(reply.status, 304))
                continue
            if path == "/v1/matrix/pairs":
                samples.add("warm_pairs", reply.seconds)
            self.tally.record(
                f"GET {path}",
                checks.check_status(reply.status, 200),
                checks.check_same_body(reply.body, primed.body),
                checks.check_equal("X-Cache", reply.headers.get("x-cache"), "hit"),
            )
        served.client.recorder = None
        if recorder is None:
            return {}
        return {
            "units": len(order),
            "entries": len(self.entries),
            "parse_s": served.parse_seconds(len(order)),
            **counter_deltas(served.counters(), before),
        }

    def teardown(self) -> None:
        if self.served is not None:
            self.served.close()
            self.served = None

    def metrics(self, samples):
        warm, pairs = samples.get("warm"), samples.get("warm_pairs")
        revalidate = samples.get("warm_revalidate")
        result = {
            "warm_p50_ms": (median_ms(warm), "ms", len(warm)),
            "warm_p90_ms": (p90_ms(warm), "ms", len(warm)),
            "warm_revalidate_p50_ms": (median_ms(revalidate), "ms", len(revalidate)),
        }
        if pairs:  # a very short run may revalidate every pairs request
            result["warm_pairs_p50_ms"] = (median_ms(pairs), "ms", len(pairs))
        return result


class ServeCold(Workload):
    """Restarts: every timed request misses every cache."""

    name = "serve-cold"
    headlines = ("cold_pairs_paper_ms", "cold_pairs_scaled_ms", "cold_ksets_scaled_ms")
    unit = "restart"
    cycle = 4

    #: Timed per restart, in this order, before one seeded ``/v1/shared``.
    QUERIES = dict(zip(("pairs", "ksets", "selection"), CATALOGUE_QUERIES))

    served: Optional[Served] = None

    def setup(self, repeat: int) -> None:
        corpus = build_corpus()
        catalogue = generate_scaled_catalogue(
            n_families=self.sizes.families, releases_per_family=self.sizes.releases
        )
        self.corpora = {
            "paper": (corpus.entries, OS_NAMES),
            "scaled": (catalogue.entries, catalogue.os_names),
        }
        self.scope_rng = random.Random(self.seed)
        # Warm-up: one restart per corpus, whose bodies become the
        # references every timed iteration must reproduce byte for byte.
        self.reference: Dict[Tuple[str, str], bytes] = {}
        for corpus_name in self.corpora:
            served = self._start(corpus_name)
            try:
                for kind, path in self.QUERIES.items():
                    self.reference[corpus_name, kind] = served.client.get(path).body
            finally:
                served.close()

    def _start(self, corpus_name: str) -> Served:
        entries, os_names = self.corpora[corpus_name]
        return Served(StaticDatasetProvider(entries, os_names=os_names))

    def verify_setup(self) -> None:
        self.oracles = {
            name: Oracle(entries, os_names)
            for name, (entries, os_names) in self.corpora.items()
        }
        for (corpus_name, kind), body in self.reference.items():
            check = CATALOGUE_QUERIES[self.QUERIES[kind]]
            self.tally.record(
                f"warm-up {kind} on {corpus_name}", check(body, self.oracles[corpus_name])
            )
        self.reference_sha = {key: sha256(body) for key, body in self.reference.items()}

    def traced(self, index: int) -> bool:
        # Iterations alternate corpora, so tracing alternates per pair.
        return (index // 2) % 2 == 1

    def _corpus(self, index: int) -> str:
        return ("paper", "scaled")[index % 2]

    def prepare(self, index: int) -> None:
        self.served = self._start(self._corpus(index))

    def iteration(self, index, samples, recorder):
        corpus_name = self._corpus(index)
        served = self.served
        served.client.recorder = recorder
        scope = self.scope_rng.sample(self.corpora[corpus_name][1], 3)
        total = 0.0
        for kind, path in (*self.QUERIES.items(), ("shared", shared_path(scope))):
            reply = served.client.get(path)
            samples.add(f"{kind}_{corpus_name}", reply.seconds)
            total += reply.seconds
            if kind == "shared":
                verdict = checks.check_shared(reply.body, self.oracles[corpus_name], scope)
            else:
                verdict = checks.check_equal(
                    "body sha256", sha256(reply.body), self.reference_sha[corpus_name, kind]
                )
            self.tally.record(
                f"cold {path} on {corpus_name}",
                checks.check_status(reply.status, 200),
                checks.check_equal("X-Cache", reply.headers.get("x-cache"), "miss"),
                verdict,
            )
        served.client.recorder = None
        samples.add("total", total)
        if recorder is None:
            return {}
        return {
            "units": 1,
            "entries": len(self.corpora[corpus_name][0]),
            "parse_s": served.parse_seconds(4),
            **served.counters(),
        }

    def finish(self, index: int) -> None:
        self.teardown()

    def teardown(self) -> None:
        if self.served is not None:
            self.served.close()
            self.served = None

    def metrics(self, samples):
        result = {}
        for kind in ("pairs", "ksets", "selection", "shared"):
            for corpus_name in ("paper", "scaled"):
                values = samples.get(f"{kind}_{corpus_name}")
                if values:
                    result[f"cold_{kind}_{corpus_name}_ms"] = (median_ms(values), "ms", len(values))
        return result


class IngestChurn(Workload):
    """Modified-feed deltas POSTed to a file-backed server, each followed by reads."""

    name = "ingest-churn"
    headlines = ("delta_apply_ms", "post_delta_read_ms", "churn_step_ms")
    unit = "delta"

    #: The family no delta touches; its scope must keep revalidating.
    UNTOUCHED = FAMILY_MEMBERS[OSFamily.WINDOWS]

    served: Optional[Served] = None

    def setup(self, repeat: int) -> None:
        corpus = build_corpus()
        self.db_path = self.workdir / "churn.db"
        self.db_path.unlink(missing_ok=True)
        database = VulnerabilityDatabase(self.db_path)
        try:
            IngestPipeline(database=database).ingest_raw(corpus.to_raw_feed_entries())
            SnapshotStore(database).commit(source="seed", created=SEED_CREATED)
        finally:
            database.close()
        untouched = set(self.UNTOUCHED)
        self.feeds = []
        for step in range(self.sizes.feeds):
            delta = evolve_corpus(
                corpus,
                fraction=self.sizes.delta_fraction,
                seed=self.seed * 1000 + step,
                rejections=self.sizes.rejections,
                entry_filter=lambda entry: not (entry.affected_os & untouched),
            )
            path = dump_json_feed(list(delta.entries), self.workdir / f"delta-{step}.json")
            self.feeds.append((delta, path.read_bytes()))
            path.unlink()
        self.summaries = {raw.cve_id: raw.summary for raw in corpus.to_raw_feed_entries()}
        self.served = Served(SnapshotDatasetProvider(str(self.db_path)))
        client = self.served.client
        self.warmup = [client.get("/v1/matrix/pairs"), client.get(shared_path(self.UNTOUCHED))]
        self.scope_rng = random.Random(self.seed)

    def verify_setup(self) -> None:
        database = VulnerabilityDatabase(self.db_path)
        try:
            entries = database.load_entries()
        finally:
            database.close()
        self.oracle = Oracle(entries, OS_NAMES)
        self.others = [name for name in OS_NAMES if name not in self.UNTOUCHED]
        pairs, untouched = self.warmup
        self.tally.record(
            "seeded pairs",
            checks.check_status(pairs.status, 200),
            checks.check_pairs(pairs.body, self.oracle),
        )
        self.tally.record(
            "seeded untouched scope",
            checks.check_status(untouched.status, 200),
            checks.check_shared(untouched.body, self.oracle, self.UNTOUCHED),
        )

    def _touched_scope(self, delta) -> Optional[Tuple[str, ...]]:
        """Three OSes whose scoped digest this delta must change."""
        changed = [
            raw.cve_id for raw in delta.modified
            if raw.cve_id in self.oracle.affected
            and self.summaries.get(raw.cve_id) != raw.summary
        ]
        if not changed:
            return None
        affected = sorted(self.oracle.affected[self.scope_rng.choice(changed)] & set(self.others))
        if not affected:
            return None
        scope = [self.scope_rng.choice(affected)]
        scope += self.scope_rng.sample([name for name in self.others if name not in scope], 2)
        return tuple(scope)

    def prepare(self, index: int) -> None:
        delta, body = self.feeds[index % len(self.feeds)]
        client = self.served.client
        self.step = (delta, body, self._touched_scope(delta))
        touched = self.step[2]
        self.before = {}
        for label, scope in (("touched", touched), ("untouched", self.UNTOUCHED)):
            if scope is None:
                continue
            reply = client.get(shared_path(scope))
            self.tally.record(f"pre-delta {label} scope", checks.check_status(reply.status, 200))
            self.before[label] = reply.headers.get("etag")

    def iteration(self, index, samples, recorder):
        delta, body, touched = self.step
        served = self.served
        client = served.client
        client.recorder = recorder
        before = served.counters()
        post = client.request(
            "POST", f"/v1/ingest/delta?source=bench-{index}", body=body,
            headers={"Content-Type": "application/json"},
        )
        pairs = client.get("/v1/matrix/pairs")
        fresh = client.get(shared_path(touched), self.before["touched"]) if touched else None
        stale = client.get(shared_path(self.UNTOUCHED), self.before["untouched"])
        client.recorder = None
        samples.add("apply", post.seconds)
        samples.add("read", pairs.seconds)
        step = post.seconds + pairs.seconds + (fresh.seconds if fresh else 0.0) + stale.seconds
        samples.add("step", step)
        samples.add("total", step)

        head = self._ledger_head()
        try:
            report = json.loads(post.body)
            changed = report["added"] + report["modified"] + report["removed"]
            snapshot = report["snapshot"]["digest"]
            parsed = report["parsed_entries"]
        except (ValueError, KeyError, TypeError):
            changed, snapshot, parsed = 0, None, None
        self.tally.record(
            f"POST delta {index}",
            checks.check_status(post.status, 200),
            checks.check_equal("parsed_entries", parsed, len(delta.entries)),
            None if changed > 0 else "the delta changed nothing",
            checks.check_equal("snapshot digest", snapshot, head),
        )
        self.tally.record(
            f"post-delta pairs {index}",
            checks.check_status(pairs.status, 200),
            checks.check_equal("X-Cache", pairs.headers.get("x-cache"), "miss"),
            checks.check_equal("dataset.digest", checks.dataset_digest(pairs.body), head),
        )
        if fresh is None:
            self.tally.record(f"touched scope {index}", "no entry in the delta changes a scope")
        else:
            self.tally.record(
                f"touched scope {index}",
                checks.check_status(fresh.status, 200),
                None if fresh.headers.get("etag") not in (None, self.before["touched"])
                else "the touched scope kept its ETag",
            )
        self.tally.record(f"untouched scope {index}", checks.check_status(stale.status, 304))
        for raw in delta.modified:
            self.summaries[raw.cve_id] = raw.summary
        for raw in delta.rejected:
            self.summaries[raw.cve_id] = None
        if recorder is None:
            return {}
        return {
            "units": 1,
            "deltas": 1,
            "entries": len(self.summaries),
            "parse_s": served.parse_seconds(4),
            **counter_deltas(served.counters(), before),
        }

    def _ledger_head(self) -> Optional[str]:
        database = VulnerabilityDatabase(self.db_path)
        try:
            head = SnapshotStore(database).head()
        finally:
            database.close()
        return head.digest if head is not None else None

    def teardown(self) -> None:
        if self.served is not None:
            self.served.close()
            self.served = None

    def metrics(self, samples):
        apply, read, step = samples.get("apply"), samples.get("read"), samples.get("step")
        return {
            "delta_apply_ms": (median_ms(apply), "ms", len(apply)),
            "post_delta_read_ms": (median_ms(read), "ms", len(read)),
            "churn_step_ms": (median_ms(step), "ms", len(step)),
        }


class Campaign(Workload):
    """Monte-Carlo campaigns: classic, scenario, and a 16-cell cold sweep."""

    name = "campaign"
    headlines = ("classic_us_per_run", "scenario_us_per_run", "sweep_s")

    SCENARIO = "campaign:adversaries=3"

    def setup(self, repeat: int) -> None:
        corpus = build_corpus()
        self.valid = [entry for entry in corpus.entries if entry.is_valid]
        rng = random.Random(self.seed)
        self.os_names = [rng.choice(members) for members in FAMILY_MEMBERS.values()]
        self.sim_seed = rng.randrange(1, 2**31)
        self.workers = len(os.sched_getaffinity(0))
        self.simulation = CompromiseSimulation(self.valid, seed=self.sim_seed)
        self.scenario = parse_scenario(self.SCENARIO)
        self.grid = ExperimentGrid(
            configurations={
                "diverse": self.os_names,
                "homogeneous": [self.os_names[0]] * len(self.os_names),
            },
            quorum_models=("3f+1", "2f+1"),
            recovery_intervals=(None, 2.0),
            arrivals=(ArrivalSpec(), ArrivalSpec("aging", 1.5)),
            runs=self.sizes.grid_runs,
        )
        self.reference = self._campaign(self.workdir / "warm-up")[0]

    def _campaign(self, cache_dir: Path, recorder: Optional[Recorder] = None):
        """One classic run, one scenario run and one cold sweep."""
        timings, outputs = {}, {}
        for label, kwargs, runs in (
            ("classic", {}, self.sizes.classic_runs),
            ("scenario", {"scenario": self.scenario}, self.sizes.scenario_runs),
        ):
            with recorder.span(f"campaign.{label}") if recorder else nullcontext():
                started = time.perf_counter()
                outputs[label] = self.simulation.run_configuration(
                    "diverse", self.os_names, runs=runs, **kwargs
                )
                timings[label] = time.perf_counter() - started
        cache = ResultCache(cache_dir)
        runner = GridRunner(self.valid, seed=self.sim_seed, workers=self.workers, cache=cache)
        with recorder.span("campaign.sweep") if recorder else nullcontext():
            started = time.perf_counter()
            report = runner.run(self.grid)
            timings["sweep"] = time.perf_counter() - started
        outputs["sweep"] = json.dumps(report.to_json_payload(), sort_keys=True)
        outputs["simulated"] = report.simulated_cells
        shutil.rmtree(cache_dir, ignore_errors=True)
        chunk_s = sum(
            sample["sum"]
            for metric in runner.metrics.snapshot()
            if metric["name"].endswith("sweep_chunk_seconds")
            for sample in metric["samples"]
        )
        counts = {
            "chunk_s": chunk_s,
            "pool_overhead_s": timings["sweep"] - chunk_s / self.workers,
            "runner.cache_misses": cache.misses,
            "runner.cache_writes": cache.writes,
        }
        return outputs, timings, counts

    def iteration(self, index, samples, recorder):
        outputs, timings, counts = self._campaign(self.workdir / f"sweep-{index}", recorder)
        samples.add("classic", timings["classic"] / self.sizes.classic_runs)
        samples.add("scenario", timings["scenario"] / self.sizes.scenario_runs)
        samples.add("sweep", timings["sweep"])
        samples.add("total", sum(timings.values()))
        for label in ("classic", "scenario"):
            self.tally.record(
                f"{label} campaign {index}",
                checks.check_equal("result", outputs[label], self.reference[label]),
            )
        cells = len(self.grid)
        self.tally.record(
            f"sweep {index}",
            checks.check_equal("sweep payload", outputs["sweep"], self.reference["sweep"]),
            checks.check_equal("simulated cells", outputs["simulated"], cells),
            checks.check_equal("cache misses", counts["runner.cache_misses"], cells),
            checks.check_equal("cache writes", counts["runner.cache_writes"], cells),
        )
        if recorder is None:
            return {}
        return {"units": 1, "entries": len(self.valid), **counts}

    def metrics(self, samples):
        classic, scenario, sweep = (samples.get(name) for name in ("classic", "scenario", "sweep"))
        return {
            "classic_us_per_run": (statistics.median(classic) * 1e6, "us", len(classic)),
            "scenario_us_per_run": (statistics.median(scenario) * 1e6, "us", len(scenario)),
            "sweep_s": (statistics.median(sweep), "s", len(sweep)),
        }


WORKLOADS = {
    workload.name: workload for workload in (ServeWarm, ServeCold, IngestChurn, Campaign)
}


# -- probes --------------------------------------------------------------------


def _count_bytes(recorder, args, kwargs, result) -> None:
    recorder.count("encode.bytes", len(result))


def _count_evicted(recorder, args, kwargs, result) -> None:
    recorder.count("cache.evicted", result)


def _count_runs(recorder, args, kwargs, result) -> None:
    recorder.count("sim.runs", result.runs)


#: The public calls the traced run wraps, by layer.  Every probe is
#: installed on every workload; a layer a workload never calls records
#: nothing there.
PROBES = (
    Probe("repro.service.server:DiversityService.dispatch", "server.dispatch"),
    Probe("repro.service.registry:ArtifactRegistry.get", "registry.get"),
    Probe("repro.service.registry:StaticDatasetProvider.current", "provider.current"),
    Probe("repro.service.registry:StaticDatasetProvider.load", "provider.load"),
    Probe("repro.service.registry:SnapshotDatasetProvider.current", "provider.current"),
    Probe("repro.service.registry:SnapshotDatasetProvider.load", "provider.load"),
    Probe("repro.analysis.dataset:VulnerabilityDataset.compile", "query.compile"),
    Probe("repro.service.registry:CorpusArtifacts.scope_digest", "digest.scope"),
    Probe("repro.snapshots.digests:entry_digest", None, count="digest.entry_calls"),
    Probe("repro.service.registry:CorpusArtifacts.pair_matrix", "query.pairs"),
    Probe("repro.service.registry:CorpusArtifacts.ksets", "query.ksets"),
    Probe("repro.analysis.ksets:KSetAnalysis.per_combination_totals", "query.ksets"),
    Probe("repro.analysis.ksets:KSetAnalysis.best_combinations", "query.ksets"),
    Probe("repro.analysis.ksets:KSetAnalysis.worst_combinations", "query.ksets"),
    Probe("repro.analysis.ksets:KSetAnalysis.widest", "query.ksets"),
    Probe("repro.service.registry:CorpusArtifacts.selector", "query.selection"),
    Probe("repro.analysis.selection:ReplicaSetSelector.exhaustive", "query.selection"),
    Probe("repro.service.schemas:dumps", "encode", tally=_count_bytes),
    Probe("repro.nvd.json_feed:parse_json_feed", "ingest.parse"),
    Probe("repro.db.database:VulnerabilityDatabase.upsert_entry", "ingest.upsert", count="ingest.upsert_calls"),
    Probe("repro.db.database:VulnerabilityDatabase.tombstone_entry", "ingest.upsert", count="ingest.upsert_calls"),
    Probe("repro.snapshots.store:SnapshotStore.commit", "ingest.commit"),
    Probe("repro.snapshots.delta:DeltaIngestPipeline.apply_feed", "ingest.apply"),
    Probe("repro.service.cache:ResponseCache.invalidate_scope", "ingest.notify", tally=_count_evicted),
    Probe("repro.service.registry:ArtifactRegistry.patch", "ingest.notify"),
    Probe("repro.itsys.simulation:CompromiseSimulation.run_range", "sim.run_range", tally=_count_runs),
    Probe("repro.runner.runner:GridRunner.run", "runner.run"),
    Probe("repro.runner.runner:GridRunner.scope_digest", "runner.scope_digest"),
)
