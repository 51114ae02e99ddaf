"""A delta lands whole or not at all, and subscribers get the commit's diff.

Failures are injected partway through a delta -- in entry conversion, in
the upsert, in the ledger insert, and by ``SIGKILL`` in a child process --
and every case must leave the database exactly at its previous head: no
ledger row, live rows digesting to the head digest, and a clean
:meth:`~repro.snapshots.store.SnapshotStore.verify`.
"""

import datetime as dt
import os
import signal
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.database import VulnerabilityDatabase
from repro.db.ingest import IngestPipeline
from repro.nvd.feed_parser import RawFeedEntry
from repro.nvd.feed_writer import rejection_entry
from repro.snapshots.delta import DeltaIngestPipeline
from repro.snapshots.digests import dataset_digest
from repro.snapshots.store import SnapshotStore

ROOT = Path(__file__).resolve().parents[2]

CPES = {
    "Debian": "cpe:/o:debian:debian_linux:4.0",
    "RedHat": "cpe:/o:redhat:enterprise_linux:5",
    "OpenBSD": "cpe:/o:openbsd:openbsd:4.0",
    "Solaris": "cpe:/o:sun:solaris:10",
}
#: A CPE outside the catalogue: the entry leaves the study's scope.
OFF_CATALOGUE = "cpe:/a:example:tool:1.0"


def raw(cve_id, revision=0, oses=("Debian",)):
    return RawFeedEntry(
        cve_id=cve_id,
        published=dt.date(2005, int(cve_id[-2:]) % 12 + 1, 15),
        summary=f"A kernel flaw (rev {revision}) allows remote attackers "
        "to crash the system.",
        cvss_vector="AV:N/AC:L/Au:N/C:P/I:P/A:P",
        cpe_uris=tuple(CPES[name] for name in oses),
    )


def base_entries():
    """The seed state: eight CVEs over four OSes."""
    names = sorted(CPES)
    return [
        raw(f"CVE-2005-00{index:02d}", oses=(names[index % 4], names[(index + 1) % 4]))
        for index in range(8)
    ]


def delta_entries():
    """Modified, rejected, added and out-of-scope entries, in that mix.

    Positions 0, 3 and 6 (first, middle, last) go through conversion and
    upsert, so a failure injected there interrupts a real mutation.
    """
    return [
        raw("CVE-2005-0001", revision=1, oses=("Debian",)),
        rejection_entry("CVE-2005-0002", dt.date(2005, 3, 15)),
        raw("CVE-2005-0020", oses=("OpenBSD", "Solaris")),
        raw("CVE-2005-0003", revision=1, oses=("RedHat", "Solaris")),
        RawFeedEntry(
            cve_id="CVE-2005-0004",
            published=dt.date(2005, 5, 15),
            summary="A flaw in a tool that no catalogued OS ships.",
            cvss_vector="AV:N/AC:L/Au:N/C:P/I:P/A:P",
            cpe_uris=(OFF_CATALOGUE,),
        ),
        raw("CVE-2005-0021", oses=("Debian", "RedHat")),
        raw("CVE-2005-0005", revision=2, oses=("OpenBSD",)),
    ]


POSITIONS = {"first": 0, "middle": 3, "last": 6}


def seeded(path):
    """A file database holding the seed state as snapshot #1."""
    database = VulnerabilityDatabase(path)
    database.register_os_catalog()
    pipeline = DeltaIngestPipeline(IngestPipeline(database=database))
    pipeline.apply_raw(base_entries(), source="seed", created="2005-01-01T00:00:00+00:00")
    return pipeline


def assert_at_head(database, head):
    """The database sits exactly at ``head``: nothing of a failed delta remains."""
    assert not database.connection.in_transaction
    store = SnapshotStore(database)
    assert store.head() == head
    assert len(store.list()) == head.snapshot_id
    assert dataset_digest(database.live_state()) == head.digest
    assert store.verify() == []


@pytest.fixture()
def reference_head(tmp_path):
    """The head digest a delta reaches when nothing fails."""
    pipeline = seeded(tmp_path / "reference.db")
    try:
        return pipeline.apply_raw(delta_entries()).snapshot.digest
    finally:
        pipeline.database.close()


class InjectedFault(RuntimeError):
    pass


class TestRaisedFaults:
    @pytest.mark.parametrize("position", sorted(POSITIONS))
    @pytest.mark.parametrize("stage", ["convert", "upsert"])
    def test_entry_fault_rolls_the_whole_delta_back(
        self, tmp_path, monkeypatch, reference_head, stage, position
    ):
        pipeline = seeded(tmp_path / "ledger.db")
        database = pipeline.database
        head = pipeline.store.head()
        target = delta_entries()[POSITIONS[position]].cve_id
        if stage == "convert":
            real = pipeline.pipeline.convert

            def failing(entry):
                if entry.cve_id == target:
                    raise InjectedFault(f"convert {entry.cve_id}")
                return real(entry)

            monkeypatch.setattr(pipeline.pipeline, "convert", failing)
        else:
            real = database.upsert_entry

            def failing(entry):
                if entry.cve_id == target:
                    raise InjectedFault(f"upsert {entry.cve_id}")
                return real(entry)

            monkeypatch.setattr(database, "upsert_entry", failing)

        with pytest.raises(InjectedFault):
            pipeline.apply_raw(delta_entries())
        assert_at_head(database, head)

        monkeypatch.undo()
        report = pipeline.apply_raw(delta_entries())
        assert report.snapshot.digest == reference_head
        assert report.snapshot.parent_digest == head.digest
        database.close()

    @pytest.mark.parametrize("table", ["snapshot", "entry_version"])
    def test_ledger_insert_fault_rolls_the_whole_delta_back(
        self, tmp_path, reference_head, table
    ):
        pipeline = seeded(tmp_path / "ledger.db")
        database = pipeline.database
        head = pipeline.store.head()
        database.connection.execute(
            f"CREATE TEMP TRIGGER injected_fault BEFORE INSERT ON main.{table}"
            " BEGIN SELECT RAISE(ABORT, 'injected ledger fault'); END"
        )
        with pytest.raises(sqlite3.IntegrityError, match="injected ledger fault"):
            pipeline.apply_raw(delta_entries())
        assert_at_head(database, head)

        database.connection.execute("DROP TRIGGER injected_fault")
        report = pipeline.apply_raw(delta_entries())
        assert report.snapshot.digest == reference_head
        database.close()

    def test_commit_false_batch_is_atomic_too(self, tmp_path, monkeypatch):
        pipeline = seeded(tmp_path / "ledger.db")
        database = pipeline.database
        before = database.live_state()
        real = database.upsert_entry

        def failing(entry):
            if entry.cve_id == "CVE-2005-0005":
                raise InjectedFault("last entry")
            return real(entry)

        monkeypatch.setattr(database, "upsert_entry", failing)
        with pytest.raises(InjectedFault):
            pipeline.apply_raw(delta_entries(), commit=False)
        assert database.live_state() == before
        database.close()


#: Child process: apply the delta, SIGKILLing itself at a chosen point.
KILL_SCRIPT = """
import os, signal, sys
from repro.db.database import VulnerabilityDatabase
from repro.db.ingest import IngestPipeline
from repro.snapshots.delta import DeltaIngestPipeline
from tests.snapshots.test_delta_atomicity import delta_entries

path, point = sys.argv[1], sys.argv[2]
database = VulnerabilityDatabase(path)
pipeline = DeltaIngestPipeline(IngestPipeline(database=database))
if point == "ledger":
    # Die inside the commit, after the ledger row was inserted.
    real = database.load_entries
    def hook(*args, **kwargs):
        if kwargs.get("cve_ids") is not None:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args, **kwargs)
    database.load_entries = hook
else:
    target = delta_entries()[int(point)].cve_id
    real = database.upsert_entry
    def hook(entry):
        outcome = real(entry)
        if entry.cve_id == target:
            os.kill(os.getpid(), signal.SIGKILL)
        return outcome
    database.upsert_entry = hook
pipeline.apply_raw(delta_entries())
sys.exit("the delta finished without being killed")
"""


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs POSIX SIGKILL")
@pytest.mark.parametrize("point", ["0", "3", "6", "ledger"])
def test_sigkill_mid_delta_leaves_the_head_unchanged(tmp_path, point):
    path = tmp_path / "ledger.db"
    pipeline = seeded(path)
    head = pipeline.store.head()
    pipeline.database.close()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    )
    child = subprocess.run(
        [sys.executable, "-c", KILL_SCRIPT, str(path), point],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert child.returncode == -signal.SIGKILL, child.stderr.decode()

    database = VulnerabilityDatabase(path)
    try:
        assert_at_head(database, head)
    finally:
        database.close()


def test_standalone_mutations_are_durable(tmp_path):
    path = tmp_path / "ledger.db"
    pipeline = seeded(path)
    database = pipeline.database
    entry = pipeline.pipeline.convert(raw("CVE-2005-0030", oses=("Solaris",)))
    assert database.upsert_entry(entry) == "added"
    assert not database.connection.in_transaction
    other = VulnerabilityDatabase(path)
    try:
        assert "CVE-2005-0030" in other.live_state()
        assert database.tombstone_entry("CVE-2005-0030") is True
        assert not database.connection.in_transaction
        assert "CVE-2005-0030" not in other.live_state()
    finally:
        other.close()
        database.close()


#: One delta entry: (cve index, None) rejects, (index, (revision, oses))
#: republishes -- an empty OS set takes the entry out of scope.
_delta_entry = st.tuples(
    st.integers(min_value=0, max_value=9),
    st.one_of(
        st.none(),
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.sets(st.sampled_from(sorted(CPES)), max_size=3),
        ),
    ),
)


def _raw_of(index, action):
    cve_id = f"CVE-2005-00{index:02d}"
    if action is None:
        return rejection_entry(cve_id, dt.date(2005, 1, 15))
    revision, oses = action
    entry = raw(cve_id, revision=revision, oses=tuple(sorted(oses)))
    if not oses:
        return RawFeedEntry(
            cve_id=entry.cve_id,
            published=entry.published,
            summary=entry.summary,
            cvss_vector=entry.cvss_vector,
            cpe_uris=(OFF_CATALOGUE,),
        )
    return entry


@settings(max_examples=30, deadline=None)
@given(chain=st.lists(st.lists(_delta_entry, min_size=1, max_size=6),
                      min_size=1, max_size=5))
def test_subscribers_receive_the_ledger_diff(chain):
    database = VulnerabilityDatabase()
    database.register_os_catalog()
    pipeline = DeltaIngestPipeline(IngestPipeline(database=database))
    received = []
    pipeline.subscribe(received.append)
    pipeline.apply_raw(base_entries(), source="seed")
    for deltas in chain:
        head = pipeline.store.head()
        report = pipeline.apply_raw([_raw_of(*item) for item in deltas])
        assert received[-1] is report
        if report.snapshot.snapshot_id == head.snapshot_id:
            assert report.diff is None  # nothing new was cut
            continue
        store = pipeline.store
        parent = store.by_digest(report.snapshot.parent_digest)
        expected = store.diff(parent.snapshot_id, report.snapshot.snapshot_id)
        # Dataclass equality covers the id tuples, both records and the
        # old_entries / new_entries mappings.
        assert report.diff == expected
        assert report.diff.from_snapshot == head
        assert report.diff.to_snapshot == report.snapshot
    assert pipeline.store.verify() == []
    database.close()
