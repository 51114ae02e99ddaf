"""Tests for the ingest pipeline and the canned SQL queries."""

import datetime as dt

import pytest

from repro.core.enums import ComponentClass, ServerConfiguration
from repro.core.exceptions import DatabaseError
from repro.db import queries
from repro.db.database import VulnerabilityDatabase
from repro.db.ingest import IngestPipeline
from repro.nvd.feed_parser import RawFeedEntry
from tests.conftest import make_entry


def _raw(cve_id, year, uris, summary="A flaw in the kernel allows remote attackers in.",
         vector="AV:N/AC:L/Au:N/C:P/I:P/A:P"):
    return RawFeedEntry(
        cve_id=cve_id,
        published=dt.date(year, 4, 2),
        summary=summary,
        cvss_vector=vector,
        cpe_uris=tuple(uris),
    )


class TestConvert:
    def test_os_entry_is_converted(self):
        pipeline = IngestPipeline()
        entry = pipeline.convert(
            _raw("CVE-2006-1000", 2006, ["cpe:/o:debian:debian_linux:3.1"])
        )
        assert entry is not None
        assert entry.affected_os == frozenset({"Debian"})
        assert entry.component_class is ComponentClass.KERNEL
        assert entry.is_valid

    def test_non_os_entry_is_skipped(self):
        pipeline = IngestPipeline()
        entry = pipeline.convert(
            _raw("CVE-2006-1001", 2006, ["cpe:/a:apache:http_server:2.2"])
        )
        assert entry is None

    def test_unknown_os_is_skipped(self):
        pipeline = IngestPipeline()
        entry = pipeline.convert(
            _raw("CVE-2006-1002", 2006, ["cpe:/o:apple:mac_os_x:10.4"])
        )
        assert entry is None

    def test_invalid_summary_marks_entry_excluded(self):
        pipeline = IngestPipeline()
        entry = pipeline.convert(
            _raw("CVE-2006-1003", 2006, ["cpe:/o:sun:solaris:10"],
                 summary="Unspecified vulnerability in Solaris.")
        )
        assert entry is not None
        assert not entry.is_valid
        assert entry.component_class is None

    def test_missing_cvss_defaults_to_remote(self):
        pipeline = IngestPipeline()
        entry = pipeline.convert(
            _raw("CVE-2006-1004", 2006, ["cpe:/o:openbsd:openbsd:4.0"], vector="")
        )
        assert entry is not None
        assert entry.is_remote

    def test_cvss_fallback_only_catches_cvss_errors(self, monkeypatch):
        # The remote-vector fallback is for malformed CVSS data; a bug in
        # the CVSS parser itself must propagate, not be papered over.
        import repro.db.ingest as ingest

        monkeypatch.setattr(
            ingest, "parse_cvss_vector",
            lambda vector: (_ for _ in ()).throw(RuntimeError("parser bug")),
        )
        pipeline = IngestPipeline()
        with pytest.raises(RuntimeError):
            pipeline.convert(
                _raw("CVE-2006-1005", 2006, ["cpe:/o:openbsd:openbsd:4.0"])
            )


class TestIngest:
    def test_ingest_xml_feed_end_to_end(self, tmp_path):
        from repro.nvd.feed_writer import write_xml_feed

        raw_entries = [
            _raw("CVE-2004-0100", 2004, ["cpe:/o:debian:debian_linux:3.0",
                                         "cpe:/o:redhat:enterprise_linux:3"]),
            _raw("CVE-2005-0200", 2005, ["cpe:/o:microsoft:windows_2000:sp4"]),
            _raw("CVE-2005-0300", 2005, ["cpe:/a:mozilla:firefox:1.0"]),
        ]
        path = write_xml_feed(raw_entries, tmp_path / "feed.xml")
        pipeline = IngestPipeline()
        report = pipeline.ingest_xml_feeds([path])
        assert report.parsed_entries == 3
        assert report.ingested_entries == 2
        assert report.skipped_no_os == 1
        assert pipeline.database.entry_count() == 2

    def test_ingest_json_feed(self, tmp_path):
        from repro.nvd.json_feed import dump_json_feed

        path = dump_json_feed(
            [_raw("CVE-2009-0001", 2009, ["cpe:/o:canonical:ubuntu_linux:9.04"])],
            tmp_path / "feed.json",
        )
        pipeline = IngestPipeline()
        report = pipeline.ingest_json_feed(path)
        assert report.ingested_entries == 1
        assert pipeline.database.load_entries()[0].affected_os == frozenset({"Ubuntu"})

    def test_ingest_prebuilt_entries_preserves_classification(self):
        pipeline = IngestPipeline()
        entry = make_entry(component_class=ComponentClass.DRIVER)
        report = pipeline.ingest_entries([entry])
        assert report.valid_entries == 1
        assert pipeline.database.load_entries()[0].component_class is ComponentClass.DRIVER

    def test_ingest_report_validity_histogram(self):
        pipeline = IngestPipeline()
        report = pipeline.ingest_raw(
            [
                _raw("CVE-2006-0001", 2006, ["cpe:/o:sun:solaris:9"]),
                _raw("CVE-2006-0002", 2006, ["cpe:/o:sun:solaris:9"],
                     summary="Unknown vulnerability in Solaris."),
            ]
        )
        assert report.by_validity == {"Valid": 1, "Unknown": 1}


class TestBatchAtomicity:
    """Each ingest call writes its batch in one transaction: all or nothing."""

    def test_failing_entry_leaves_no_rows_from_ingest_entries(self):
        pipeline = IngestPipeline()
        batch = [make_entry(cve_id=f"CVE-2004-{number:04d}") for number in range(4)]
        batch.append(make_entry(cve_id="CVE-2004-0002"))
        with pytest.raises(DatabaseError, match="CVE-2004-0002"):
            pipeline.ingest_entries(batch)
        assert pipeline.database.entry_count() == 0

    def test_failing_entry_leaves_no_rows_from_ingest_raw(self):
        pipeline = IngestPipeline()
        raw = [
            _raw(f"CVE-2006-{number:04d}", 2006, ["cpe:/o:sun:solaris:9"])
            for number in range(4)
        ]
        raw.insert(2, _raw("CVE-2006-0000", 2006, ["cpe:/o:debian:debian_linux:3.1"]))
        with pytest.raises(DatabaseError, match="CVE-2006-0000"):
            pipeline.ingest_raw(raw)
        assert pipeline.database.entry_count() == 0
        report = pipeline.ingest_raw(raw[:2])
        assert report.ingested_entries == 2
        assert pipeline.database.entry_count() == 2


class TestQueries:
    @pytest.fixture()
    def loaded_db(self):
        pipeline = IngestPipeline()
        pipeline.ingest_entries(
            [
                make_entry(cve_id="CVE-2004-0001", oses=("Debian", "RedHat"),
                           component_class=ComponentClass.KERNEL, year=2004),
                make_entry(cve_id="CVE-2006-0002", oses=("Debian",),
                           component_class=ComponentClass.APPLICATION, year=2006),
                make_entry(cve_id="CVE-2007-0003", oses=("Windows2000", "Windows2003"),
                           component_class=ComponentClass.SYSTEM_SOFTWARE, year=2007),
                make_entry(cve_id="CVE-2007-0004", oses=("Debian", "RedHat", "Ubuntu"),
                           component_class=ComponentClass.APPLICATION, year=2007),
            ]
        )
        yield pipeline.database
        pipeline.database.close()

    def test_os_validity_counts(self, loaded_db):
        counts = queries.os_validity_counts(loaded_db)
        assert counts["Debian"]["Valid"] == 3
        assert counts["Windows2000"]["Valid"] == 1

    def test_os_class_counts(self, loaded_db):
        counts = queries.os_class_counts(loaded_db)
        assert counts["Debian"]["Kernel"] == 1
        assert counts["Debian"]["Application"] == 2

    def test_pair_shared_counts(self, loaded_db):
        shared = queries.pair_shared_counts(loaded_db)
        assert shared[("Debian", "RedHat")] == 2
        assert shared[("Windows2000", "Windows2003")] == 1

    def test_pair_shared_counts_filtered(self, loaded_db):
        no_app = queries.pair_shared_counts(loaded_db, exclude_applications=True)
        assert no_app[("Debian", "RedHat")] == 1

    def test_yearly_counts(self, loaded_db):
        yearly = queries.yearly_counts(loaded_db)
        assert yearly["Debian"][2004] == 1
        assert yearly["Debian"][2007] == 1

    def test_distinct_valid_count(self, loaded_db):
        assert queries.distinct_valid_count(loaded_db) == 4

    def test_shared_by_at_least(self, loaded_db):
        assert queries.shared_by_at_least(loaded_db, 3) == ["CVE-2007-0004"]
        assert len(queries.shared_by_at_least(loaded_db, 2)) == 3


class TestSQLMatchesInMemoryAnalysis:
    """The SQL queries and the in-memory analysis must agree on the corpus."""

    def test_pair_counts_agree_on_sample(self, corpus):
        from repro.analysis.dataset import VulnerabilityDataset
        from repro.analysis.pairs import PairAnalysis

        sample = corpus.entries[:400]
        pipeline = IngestPipeline()
        pipeline.ingest_entries(sample)
        sql_counts = queries.pair_shared_counts(pipeline.database)
        dataset = VulnerabilityDataset(sample)
        analysis = PairAnalysis(dataset)
        memory_counts = analysis.shared_matrix(ServerConfiguration.FAT)
        for pair, count in memory_counts.items():
            assert sql_counts.get(tuple(sorted(pair)), 0) == count
        pipeline.database.close()
