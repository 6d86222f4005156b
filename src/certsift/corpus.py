"""Append-only NDJSON persistence for probe records, plus the duplicate index.

One JSON object per line.  Certificate bytes travel as base64; timestamps as
RFC 3339 UTC.  The loader tolerates a torn final line (a crash mid-append)
but treats corruption anywhere earlier as a real error.

The duplicate index answers the two corpus-wide questions feature
extraction needs: is this exact certificate served by more than one domain,
and is this serial number shared by certificates of more than one
domain/certificate pair.  Only the newest record per domain counts, so
re-probing a domain updates rather than double-counts it.

This module stores, reads and counts; it never parses a certificate.  The
index is built in certsift.features, whose one leaf step decides how a
harvested certificate is parsed, skipped and warned about.
"""

from __future__ import annotations

import base64
import binascii
import errno
import io
import itertools
import json
import logging
import os
import stat
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from datetime import datetime, timezone

from .errors import CorruptRecord, SerializationFailure, StorageFull
from .probe import DomainRecord

log = logging.getLogger(__name__)


def format_timestamp(ts: int) -> str:
    """RFC 3339 UTC to the second, the year in four digits even before 1000
    (strftime's %Y gives fewer, which fromisoformat refuses)."""
    text = datetime.fromtimestamp(ts, tz=timezone.utc).isoformat(timespec="seconds")
    return text.replace("+00:00", "Z")


def parse_timestamp(text: str) -> int:
    try:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as exc:
        raise SerializationFailure(f"bad timestamp {text!r}: {exc}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def record_to_json(record: DomainRecord) -> dict:
    doc: dict = {
        "domain": record.domain,
        "http_ok": record.http_ok,
        "https_ok": record.https_ok,
        "harvest_time": format_timestamp(record.harvest_time),
    }
    if record.cert_der is not None:
        doc["cert_der_b64"] = base64.b64encode(record.cert_der).decode("ascii")
    if record.presented_chain_der is not None:
        doc["chain_der_b64"] = [
            base64.b64encode(der).decode("ascii") for der in record.presented_chain_der
        ]
    if record.tls_error is not None:
        doc["tls_error"] = record.tls_error
    return doc


def _typed(doc: dict, key: str, kind: type, optional: bool = False):
    """doc[key], which must be exactly of the given type; an optional
    field may also be missing or null, read as None."""
    value = doc.get(key) if optional else doc[key]
    if type(value) is not kind and not (optional and value is None):
        raise SerializationFailure(f"record field {key} is not a {kind.__name__}: {value!r}")
    return value


def record_from_json(doc: dict) -> DomainRecord:
    try:
        cert_der = chain = None
        cert_b64 = _typed(doc, "cert_der_b64", str, optional=True)
        if cert_b64 is not None:
            cert_der = base64.b64decode(cert_b64, validate=True)
        chain_b64 = _typed(doc, "chain_der_b64", list, optional=True)
        if chain_b64 is not None:
            if not all(type(b) is str for b in chain_b64):
                raise SerializationFailure("record field chain_der_b64 is not a list of str")
            chain = tuple(base64.b64decode(b, validate=True) for b in chain_b64)
        return DomainRecord(
            domain=_typed(doc, "domain", str),
            http_ok=_typed(doc, "http_ok", bool),
            https_ok=_typed(doc, "https_ok", bool),
            harvest_time=parse_timestamp(_typed(doc, "harvest_time", str)),
            cert_der=cert_der,
            presented_chain_der=chain,
            tls_error=_typed(doc, "tls_error", str, optional=True),
        )
    except (KeyError, TypeError, ValueError, binascii.Error) as exc:
        raise SerializationFailure(f"record does not decode: {exc}") from exc


def record_to_line(record: DomainRecord) -> str:
    try:
        return json.dumps(record_to_json(record), separators=(",", ":"), sort_keys=False)
    except (TypeError, ValueError, OverflowError, OSError) as exc:
        # OverflowError and OSError: a harvest_time past the platform's time_t
        raise SerializationFailure(f"record does not serialize: {exc}") from exc


class CorpusWriter:
    """Appends records to an NDJSON file, one fsync'd stream per writer.

    Appending to a regular file whose last line lacks its newline, as a
    crash mid-append leaves it, first mends that line: one that decodes as
    a record (the loader keeps it) gets its newline, and any other is cut
    off with a warning.  Otherwise the first record appended would join it,
    and the loader would refuse the line as damage before the final one.
    """

    def __init__(self, path: str | os.PathLike, append: bool = True):
        mode = "ab" if append else "wb"
        self._fh = open(path, mode)
        self.path = os.fspath(path)
        self.count = 0
        if append and stat.S_ISREG(os.fstat(self._fh.fileno()).st_mode):
            self._end_last_line()

    def _end_last_line(self) -> None:
        with open(self.path, "rb") as fh:
            end = keep = fh.seek(0, os.SEEK_END)
            while keep:  # back to just after the last newline, 64 KiB at a time
                start = max(0, keep - (1 << 16))
                fh.seek(start)
                cut = fh.read(keep - start).rfind(b"\n")
                if cut >= 0:
                    keep = start + cut + 1
                    break
                keep = start
            if keep == end:
                return
            fh.seek(keep)
            torn = fh.read()
        try:
            _line_record(torn)
        except _UNDECODABLE:
            log.warning("%s: dropping %d bytes of a torn final line", self.path, end - keep)
            self._fh.truncate(keep)
        else:
            self._fh.write(b"\n")

    def append(self, record: DomainRecord) -> None:
        line = record_to_line(record) + "\n"
        try:
            self._fh.write(line.encode("utf-8"))
            self._fh.flush()
        except OSError as exc:
            if exc.errno == errno.ENOSPC:
                raise StorageFull(f"no space appending to {self.path}") from exc
            raise
        self.count += 1

    def close(self) -> None:
        """Flush, fsync and close; a failed write-back raises (ENOSPC as
        StorageFull).  EINVAL, which a pipe or tty gives, is ignored."""
        if not self._fh.closed:
            try:
                self._fh.flush()
                os.fsync(self._fh.fileno())
            except OSError as exc:
                if exc.errno == errno.ENOSPC:
                    raise StorageFull(f"no space flushing {self.path}") from exc
                if exc.errno != errno.EINVAL:
                    raise
            finally:
                self._fh.close()

    def __enter__(self) -> "CorpusWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def write_corpus(path: str | os.PathLike, records: Iterable[DomainRecord]) -> int:
    with CorpusWriter(path, append=False) as writer:
        for record in records:
            writer.append(record)
        return writer.count


def load_corpus(path: str | os.PathLike) -> list[DomainRecord]:
    """Read every record back; see load_corpus_stream for torn-line rules."""
    with open(path, "rb") as fh:
        return list(load_corpus_stream(fh, name=os.fspath(path)))


# what decoding a line raises: ValueError for bytes that are not UTF-8, text
# that is not JSON, or an integer past int's digit limit; RecursionError for
# JSON nested too deeply for the decoder
_UNDECODABLE = (ValueError, RecursionError, SerializationFailure)


def _line_record(raw: bytes) -> DomainRecord:
    doc = json.loads(raw.decode("utf-8"))
    if not isinstance(doc, dict):
        raise SerializationFailure("line is not a JSON object")
    return record_from_json(doc)


def load_corpus_stream(fh: io.BufferedIOBase, name: str = "<stream>") -> Iterable[DomainRecord]:
    """Parse NDJSON records from a binary stream.

    A final line without its newline (torn by a crash) is kept if it still
    parses, and dropped with a warning otherwise.  A malformed line
    anywhere else raises CorruptRecord: that is damage, not a torn append.
    """
    return (record for _, record in _offset_records(fh, name))


def _offset_records(fh: io.BufferedIOBase, name: str) -> Iterator[tuple[int, DomainRecord]]:
    """(byte offset from where fh stood, record) of each line, by
    load_corpus_stream's rules."""
    end = 0
    for lineno, raw in enumerate(fh, start=1):
        offset, end = end, end + len(raw)
        if not raw.strip():
            continue
        try:
            record = _line_record(raw)
        except _UNDECODABLE as exc:
            if not raw.endswith(b"\n"):  # only the final line can lack it
                log.warning("%s: dropping torn final line %d", name, lineno)
                return
            raise CorruptRecord(f"{name}: line {lineno} does not parse: {exc}") from exc
        yield offset, record


class CorpusFile:
    """A corpus file that extraction reads in two passes, never holding
    more than one record of it.

    Opening it is the first pass: every line is decoded by
    load_corpus_stream's rules, so damage raises CorruptRecord here, and
    only newest_per_domain's byte offsets with a certificate are kept.
    records_at is the second: it reads and decodes the lines at given
    offsets again, through a file of its own, so a forked child reads its
    share without moving its parent's file offset.  Its warnings and errors
    name the file by name, the path opened when None.
    """

    def __init__(self, path: str | os.PathLike, name: str | os.PathLike | None = None):
        self.path = os.fspath(path)
        self.name = self.path if name is None else os.fspath(name)
        read = itertools.count()  # zip advances it once per line it takes
        with open(self.path, "rb") as fh:
            self.offsets = newest_per_domain(  # domain -> offset
                (line for line, _ in zip(_offset_records(fh, self.name), read)), certified=True)
        self.records = next(read)  # lines that decode as records

    def records_at(self, offsets: Iterable[int]) -> Iterator[DomainRecord]:
        with open(self.path, "rb") as fh:
            for offset in offsets:
                fh.seek(offset)
                try:
                    yield _line_record(fh.readline())
                except _UNDECODABLE as exc:  # the file changed since the first pass
                    raise CorruptRecord(
                        f"{self.name}: the line at byte {offset} no longer parses: {exc}"
                    ) from exc


@dataclass(frozen=True)
class CorpusIndex:
    """Corpus-wide counts for the duplicate features, over one entry per
    domain: the certificate of its newest record.

    by_fingerprint maps a certificate SHA-256 hex fingerprint to the number
    of domains serving exactly those bytes; by_serial maps a decimal serial
    string to the number of (domain, fingerprint) pairs carrying it; and
    fingerprints maps each domain to its certificate's fingerprint.  Counts
    and one string per domain, where sets of domains and of pairs took 216
    bytes a set: at 16,000 generated records (13,500 certificates), the
    index held 6.6 MiB of traced memory as sets and holds 1.2 MiB as counts.
    """

    by_fingerprint: dict[str, int]
    by_serial: dict[str, int]
    fingerprints: dict[str, str]

    @classmethod
    def from_entries(cls, entries: Iterable[tuple[str, str, str]]) -> CorpusIndex:
        """The index of (domain, fingerprint, decimal serial) entries, one
        per newest record with a parsed certificate.  A domain that comes
        again with the same fingerprint (so the same certificate) counts
        once; with another, it raises ValueError, since a domain's counts
        hold for one certificate."""
        by_fp: dict[str, int] = {}
        by_serial: dict[str, int] = {}
        fingerprints: dict[str, str] = {}
        for domain, fingerprint, serial in entries:
            known = fingerprints.get(domain)
            if known is not None:
                if known != fingerprint:
                    raise ValueError(f"{domain} comes with two certificates")
                continue
            fingerprints[domain] = fingerprint
            by_fp[fingerprint] = by_fp.get(fingerprint, 0) + 1
            by_serial[serial] = by_serial.get(serial, 0) + 1
        return cls(by_fingerprint=by_fp, by_serial=by_serial, fingerprints=fingerprints)

    def contains(self, domain: str, fingerprint: str) -> bool:
        return self.fingerprints.get(domain) == fingerprint

    def shared_certificate(self, fingerprint: str) -> bool:
        """True iff more than one domain serves this exact certificate."""
        return self.by_fingerprint.get(fingerprint, 0) >= 2

    def shared_serial(self, serial: int | str) -> bool:
        """True iff this serial, or its decimal string, occurs on two or
        more domain/cert pairs."""
        return self.by_serial.get(str(serial), 0) >= 2


def newest_per_domain(pairs: Iterable[tuple], certified: bool = False) -> dict:
    """The one newest-record rule: from (where, record) pairs, domain ->
    where of its newest record by harvest_time (ties go to the later pair),
    in order of each domain's first pair; when certified, only those whose
    newest record carries a certificate.  Domains are canonical_domain's."""
    newest: dict[str, tuple] = {}  # domain -> (harvest_time, where, has a certificate)
    for where, record in pairs:
        prev = newest.get(record.domain)
        if prev is None or record.harvest_time >= prev[0]:
            newest[record.domain] = (record.harvest_time, where, record.cert_der is not None)
    return {domain: where for domain, (_, where, cert) in newest.items() if cert or not certified}


def latest_records(records: Iterable[DomainRecord]) -> list[DomainRecord]:
    """Newest record per domain, by newest_per_domain's rule."""
    return list(newest_per_domain((record, record) for record in records).values())
