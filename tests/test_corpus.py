"""NDJSON corpus persistence and the duplicate index."""

from __future__ import annotations

import errno
import hashlib
import io
import json
import os
import tracemalloc

import pytest

from certbuild import T0, make_cert, rsa_key
from certsift import DomainRecord, build_corpus_index, load_corpus, write_corpus
from certsift.corpus import (
    CorpusFile,
    CorpusIndex,
    CorpusWriter,
    format_timestamp,
    latest_records,
    load_corpus_stream,
    parse_timestamp,
    record_from_json,
    record_to_json,
    record_to_line,
)
from certsift.errors import CorruptRecord, SerializationFailure, StorageFull


def _record(domain="a.test", cert=None, chain=None, https=True, time_=T0, error=None):
    return DomainRecord(
        domain=domain,
        http_ok=True,
        https_ok=https,
        harvest_time=time_,
        cert_der=cert,
        presented_chain_der=chain,
        tls_error=error,
    )


class TestTimestamps:
    def test_round_trip(self):
        assert parse_timestamp(format_timestamp(T0)) == T0

    def test_format_is_utc_zulu(self):
        assert format_timestamp(0) == "1970-01-01T00:00:00Z"

    def test_parse_accepts_offset_form(self):
        assert parse_timestamp("1970-01-01T01:00:00+01:00") == 0

    def test_bad_timestamp(self):
        with pytest.raises(SerializationFailure):
            parse_timestamp("last tuesday")


class TestRecordSerialization:
    def test_round_trip_full(self):
        der, _ = make_cert("full.test")
        chain_der, _ = make_cert("chain-issuer.test", key=rsa_key(1))
        record = _record(domain="full.test", cert=der, chain=(der, chain_der))
        assert record_from_json(record_to_json(record)) == record

    def test_round_trip_failure_record(self):
        record = _record(https=False, cert=None, error="handshake: boom")
        assert record_from_json(record_to_json(record)) == record

    def test_wire_fields(self):
        der, _ = make_cert("wire.test")
        doc = json.loads(record_to_line(_record(cert=der)))
        # exact key set: no chain was given, no error
        assert sorted(doc) == [
            "cert_der_b64", "domain", "harvest_time", "http_ok", "https_ok",
        ]
        assert doc["harvest_time"].endswith("Z")

    def test_bad_base64_rejected(self):
        doc = record_to_json(_record())
        doc["cert_der_b64"] = "!!!not base64!!!"
        with pytest.raises(SerializationFailure):
            record_from_json(doc)

    @pytest.mark.parametrize(
        "field,value",
        [("harvest_time", T0), ("http_ok", "false"), ("https_ok", 1), ("domain", 7),
         ("domain", None), ("tls_error", 5), ("tls_error", ["x"]),
         ("chain_der_b64", {"QUJD": 1}), ("chain_der_b64", "")],
    )
    def test_mistyped_field_rejected(self, field, value):
        doc = record_to_json(_record())
        doc[field] = value
        with pytest.raises(SerializationFailure):
            record_from_json(doc)

    def test_domain_loads_in_canonical_form(self):
        doc = record_to_json(_record())
        doc["domain"] = "Example.com."
        (record,) = load_corpus_stream(io.BytesIO(json.dumps(doc).encode() + b"\n"))
        assert record.domain == "example.com"


class TestCorpusFile:
    def test_write_and_load(self, tmp_path):
        der, _ = make_cert("file.test")
        records = [
            _record(domain="file.test", cert=der),
            _record(domain="other.test", https=False, error="connect: refused"),
        ]
        path = tmp_path / "corpus.ndjson"
        assert write_corpus(path, records) == 2
        assert load_corpus(path) == records

    def test_append_mode_extends(self, tmp_path):
        path = tmp_path / "grow.ndjson"
        write_corpus(path, [_record(domain="one.test")])
        with CorpusWriter(path, append=True) as writer:
            writer.append(_record(domain="two.test"))
        assert [r.domain for r in load_corpus(path)] == ["one.test", "two.test"]

    def test_torn_final_line_dropped(self, tmp_path):
        path = tmp_path / "torn.ndjson"
        write_corpus(path, [_record(domain="keep.test")])
        whole = record_to_line(_record(domain="lost.test"))
        with open(path, "ab") as fh:
            fh.write(whole[: len(whole) // 2].encode())  # no newline, cut short
        records = load_corpus(path)
        assert [r.domain for r in records] == ["keep.test"]

    def test_append_after_a_torn_line_cuts_it_off(self, tmp_path, caplog):
        # a crash mid-append, then a re-probe appending to the same file
        path = tmp_path / "torn.ndjson"
        write_corpus(path, [_record(domain="keep.test"), _record(domain="lost.test")])
        whole = path.read_bytes()
        torn = len(record_to_line(_record(domain="lost.test"))) // 2
        path.write_bytes(whole[: len(whole) - 1 - torn])  # cut inside the second line
        with caplog.at_level("WARNING"), CorpusWriter(path, append=True) as writer:
            writer.append(_record(domain="new.test"))
        assert [r.domain for r in load_corpus(path)] == ["keep.test", "new.test"]
        dropped = len(record_to_line(_record(domain="lost.test"))) - torn
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}: dropping {dropped} bytes of a torn final line"]

    def test_append_ends_a_whole_final_line_that_lacks_its_newline(self, tmp_path, caplog):
        path = tmp_path / "noeol.ndjson"
        path.write_bytes(record_to_line(_record(domain="first.test")).encode())
        with caplog.at_level("WARNING"), CorpusWriter(path, append=True) as writer:
            writer.append(_record(domain="second.test"))
        assert [r.domain for r in load_corpus(path)] == ["first.test", "second.test"]
        assert not caplog.records

    def test_final_line_without_newline_kept_if_parseable(self, tmp_path):
        path = tmp_path / "noeol.ndjson"
        write_corpus(path, [_record(domain="first.test")])
        with open(path, "ab") as fh:
            fh.write(record_to_line(_record(domain="second.test")).encode())
        assert [r.domain for r in load_corpus(path)] == ["first.test", "second.test"]

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        with open(path, "wb") as fh:
            fh.write(b"{garbage}\n")
            fh.write((record_to_line(_record()) + "\n").encode())
        with pytest.raises(CorruptRecord):
            load_corpus(path)

    def test_empty_file_loads_empty(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.touch()
        assert load_corpus(path) == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blanks.ndjson"
        with open(path, "wb") as fh:
            fh.write((record_to_line(_record()) + "\n\n").encode())
        assert len(load_corpus(path)) == 1

    def test_stream_is_read_line_by_line(self):
        class LinesOnly(io.BytesIO):
            def read(self, *args):
                raise AssertionError("the whole stream was read at once")

        lines = [record_to_line(_record(domain=d)) for d in ("one.test", "two.test")]
        whole = LinesOnly(("\n".join(lines) + "\n").encode())
        assert [r.domain for r in load_corpus_stream(whole)] == ["one.test", "two.test"]
        torn = LinesOnly((lines[0] + "\n" + lines[1][:20]).encode())
        assert [r.domain for r in load_corpus_stream(torn)] == ["one.test"]


class TestCorpusFileTwoPasses:
    """CorpusFile: opening it is the first pass, records_at the second."""

    def test_offsets_are_those_of_the_records_latest_records_picks(self, tmp_path):
        der_a, _ = make_cert("a.test")
        der_b, _ = make_cert("b.test", key=rsa_key(1))
        records = [
            _record(domain="a.test", cert=der_a),
            _record(domain="b.test", cert=der_b),
            _record(domain="a.test", cert=der_b),  # a tie: the later line wins
            _record(domain="b.test", https=False, time_=T0 + 5),  # newest, no certificate
            _record(domain="c.test", cert=der_a, time_=T0 + 9),
            _record(domain="c.test", cert=der_b),  # older
        ]
        path = tmp_path / "corpus.ndjson"
        write_corpus(path, records)
        starts = [0]
        for line in path.read_bytes().splitlines(keepends=True):
            starts.append(starts[-1] + len(line))
        corpus = CorpusFile(path)
        assert corpus.offsets == {"a.test": starts[2], "c.test": starts[4]}
        newest = [r for r in latest_records(records) if r.cert_der is not None]
        assert list(corpus.records_at(corpus.offsets.values())) == newest
        assert [r.domain for r in newest] == list(corpus.offsets)
        assert corpus.records == len(records)

    def test_records_counts_the_lines_that_decode(self, tmp_path):
        der, _ = make_cert("a.test")
        path = tmp_path / "corpus.ndjson"
        write_corpus(path, [_record(domain="a.test", cert=der), _record(domain="b.test")])
        torn = record_to_line(_record(domain="c.test", cert=der)).encode("ascii")[:-7]
        with open(path, "ab") as fh:
            fh.write(b"\n   \n" + torn)
        corpus = CorpusFile(path)
        assert corpus.records == 2
        assert list(corpus.offsets) == ["a.test"]

    def test_a_line_changed_after_the_first_pass_names_its_byte_offset(self, tmp_path):
        der, _ = make_cert("a.test")
        path = tmp_path / "corpus.ndjson"
        write_corpus(path, [_record(domain="a.test", cert=der), _record(domain="b.test", cert=der)])
        corpus = CorpusFile(path)
        offset = corpus.offsets["b.test"]
        with open(path, "r+b") as fh:
            fh.seek(offset)
            fh.write(b"[")
        read = corpus.records_at(corpus.offsets.values())
        assert next(read).domain == "a.test"
        with pytest.raises(CorruptRecord, match=f"the line at byte {offset} no longer parses"):
            next(read)


class TestCorpusWriterClose:
    """close() reports a failed write-back instead of hiding it."""

    def _failing_fsync(self, monkeypatch, code):
        def fsync(fd):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr("certsift.corpus.os.fsync", fsync)

    def _writer(self, tmp_path):
        writer = CorpusWriter(tmp_path / "out.ndjson", append=False)
        writer.append(_record(domain="kept.test"))
        return writer

    def test_eio_raises_and_closes(self, tmp_path, monkeypatch):
        writer = self._writer(tmp_path)
        self._failing_fsync(monkeypatch, errno.EIO)
        with pytest.raises(OSError) as info:
            writer.close()
        assert info.value.errno == errno.EIO
        assert writer._fh.closed
        writer.close()  # a second close is a no-op

    def test_enospc_raises_storage_full(self, tmp_path, monkeypatch):
        writer = self._writer(tmp_path)
        self._failing_fsync(monkeypatch, errno.ENOSPC)
        with pytest.raises(StorageFull):
            writer.close()
        assert writer._fh.closed

    def test_einval_from_pipe_or_tty_is_ignored(self, tmp_path, monkeypatch):
        writer = self._writer(tmp_path)
        self._failing_fsync(monkeypatch, errno.EINVAL)
        writer.close()
        assert writer._fh.closed
        assert [r.domain for r in load_corpus(tmp_path / "out.ndjson")] == ["kept.test"]


class TestLatestRecords:
    def test_newest_per_domain_wins(self):
        old = _record(domain="x.test", time_=T0)
        new = _record(domain="x.test", time_=T0 + 60)
        assert latest_records([new, old]) == [new]

    def test_tie_goes_to_later_entry(self):
        first = _record(domain="x.test", time_=T0, error=None)
        second = _record(domain="x.test", time_=T0, error="retried")
        assert latest_records([first, second]) == [second]


class TestCorpusIndex:
    def test_shared_certificate_and_serial(self):
        der, _ = make_cert("shared.test", serial=777)
        solo_der, _ = make_cert("solo.test", serial=888, key=rsa_key(1))
        records = [
            _record(domain="a.test", cert=der),
            _record(domain="b.test", cert=der),
            _record(domain="solo.test", cert=solo_der),
        ]
        index = build_corpus_index(records)
        from certsift import parse_certificate

        shared_fp = parse_certificate(der).fingerprint
        solo_fp = parse_certificate(solo_der).fingerprint
        assert index.shared_certificate(shared_fp)
        assert not index.shared_certificate(solo_fp)
        assert index.shared_serial(777)
        assert not index.shared_serial(888)
        assert index.contains("a.test", shared_fp)
        assert not index.contains("zzz.test", shared_fp)

    def test_same_serial_different_certificates(self):
        a_der, _ = make_cert("a.test", serial=42)
        b_der, _ = make_cert("b.test", serial=42, key=rsa_key(1))
        index = build_corpus_index(
            [_record(domain="a.test", cert=a_der), _record(domain="b.test", cert=b_der)]
        )
        assert index.shared_serial(42)
        from certsift import parse_certificate

        assert not index.shared_certificate(parse_certificate(a_der).fingerprint)

    def test_one_domain_same_cert_twice_not_shared(self):
        der, _ = make_cert("only.test", serial=99)
        index = build_corpus_index(
            [
                _record(domain="only.test", cert=der, time_=T0),
                _record(domain="only.test", cert=der, time_=T0 + 5),
            ]
        )
        from certsift import parse_certificate

        assert not index.shared_certificate(parse_certificate(der).fingerprint)
        assert not index.shared_serial(99)

    def test_reprobe_replaces_old_certificate(self):
        old_der, _ = make_cert("moved.test", serial=1)
        new_der, _ = make_cert("moved.test", serial=2, key=rsa_key(1))
        anchor_der, _ = make_cert("anchor.test", serial=1, key=rsa_key(2))
        index = build_corpus_index(
            [
                _record(domain="moved.test", cert=old_der, time_=T0),
                _record(domain="anchor.test", cert=anchor_der, time_=T0),
                _record(domain="moved.test", cert=new_der, time_=T0 + 100),
            ]
        )
        # moved.test's old serial-1 cert no longer counts, so anchor.test
        # is alone on serial 1
        assert not index.shared_serial(1)

    def test_unparseable_certificates_skipped(self):
        index = build_corpus_index([_record(domain="junk.test", cert=b"\x00junk")])
        assert index.by_fingerprint == {}

    def test_certless_records_ignored(self):
        index = build_corpus_index([_record(domain="nocert.test", https=False, cert=None)])
        assert index.by_fingerprint == {} and index.by_serial == {}

    def test_counts_per_fingerprint_and_serial(self):
        index = CorpusIndex.from_entries([
            ("a.test", "fp1", "7"), ("b.test", "fp1", "7"), ("c.test", "fp2", "7"),
            ("d.test", "fp3", "8"),
        ])
        assert index.by_fingerprint == {"fp1": 2, "fp2": 1, "fp3": 1}
        assert index.by_serial == {"7": 3, "8": 1}
        assert index.fingerprints == {"a.test": "fp1", "b.test": "fp1", "c.test": "fp2",
                                      "d.test": "fp3"}
        assert index.contains("c.test", "fp2") and not index.contains("c.test", "fp1")

    def test_a_repeated_domain_counts_once_or_raises(self):
        # the same certificate again counts once, as sets of domains and of
        # pairs counted it; another certificate for a domain has no count
        twice = CorpusIndex.from_entries([("a.test", "fp1", "7"), ("a.test", "fp1", "7")])
        assert twice.by_fingerprint == {"fp1": 1} and twice.by_serial == {"7": 1}
        with pytest.raises(ValueError, match="a.test"):
            CorpusIndex.from_entries([("a.test", "fp1", "7"), ("a.test", "fp2", "7")])

    def test_index_of_16000_entries_is_counts(self):
        # a domain, a fingerprint and a serial string each, held by the
        # caller; sets of domains and of pairs took 6.4 MiB traced here
        n = 16_000
        entries = [(f"d{i}.test", hashlib.sha256(b"%d" % (i // 2)).hexdigest(), str(10**20 + i))
                   for i in range(n)]
        tracemalloc.start()
        try:
            index = CorpusIndex.from_entries(entries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak
        assert len(index.fingerprints) == n and set(index.by_fingerprint.values()) == {2}
