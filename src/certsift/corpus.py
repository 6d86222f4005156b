"""Append-only NDJSON persistence for probe records, plus the duplicate index.

One JSON object per line.  Certificate bytes travel as base64; timestamps as
RFC 3339 UTC.  The loader tolerates a torn final line (a crash mid-append)
but treats corruption anywhere earlier as a real error.

The duplicate index answers the two corpus-wide questions feature
extraction needs: is this exact certificate served by more than one domain,
and is this serial number shared by certificates of more than one
domain/certificate pair.  Only the newest record per domain counts, so
re-probing a domain updates rather than double-counts it.
"""

from __future__ import annotations

import base64
import binascii
import errno
import io
import json
import logging
import os
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from datetime import datetime, timezone

from .certs import CertificateSummary, parse_certificate
from .errors import CorruptRecord, MalformedInput, SerializationFailure, StorageFull
from .probe import DomainRecord

log = logging.getLogger(__name__)


def format_timestamp(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


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
    except (TypeError, ValueError) as exc:
        raise SerializationFailure(f"record does not serialize: {exc}") from exc


class CorpusWriter:
    """Appends records to an NDJSON file, one fsync'd stream per writer."""

    def __init__(self, path: str | os.PathLike, append: bool = True):
        mode = "ab" if append else "wb"
        self._fh = open(path, mode)
        self.path = os.fspath(path)
        self.count = 0

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


def load_corpus_stream(fh: io.BufferedIOBase, name: str = "<stream>") -> Iterable[DomainRecord]:
    """Parse NDJSON records from a binary stream.

    A final line without its newline (torn by a crash) is kept if it still
    parses and silently dropped otherwise.  A malformed line anywhere else
    raises CorruptRecord: that is damage, not a torn append.
    """
    for lineno, raw in enumerate(fh, start=1):
        if not raw.strip():
            continue
        try:
            doc = json.loads(raw.decode("utf-8"))
            if not isinstance(doc, dict):
                raise SerializationFailure("line is not a JSON object")
            yield record_from_json(doc)
        except (UnicodeDecodeError, json.JSONDecodeError, SerializationFailure) as exc:
            if not raw.endswith(b"\n"):  # only the final line can lack it
                log.warning("%s: dropping torn final line %d", name, lineno)
                return
            raise CorruptRecord(f"{name}: line {lineno} does not parse: {exc}") from exc


@dataclass(frozen=True)
class CorpusIndex:
    """Corpus-wide lookups for the duplicate features.

    by_fingerprint maps a certificate SHA-256 hex fingerprint to the set of
    domains serving exactly those bytes; by_serial maps a decimal serial
    string to the set of (domain, fingerprint) pairs carrying it.
    """

    by_fingerprint: dict[str, frozenset[str]]
    by_serial: dict[str, frozenset[tuple[str, str]]]

    def contains(self, domain: str, fingerprint: str) -> bool:
        return domain in self.by_fingerprint.get(fingerprint, frozenset())

    def shared_certificate(self, fingerprint: str) -> bool:
        """True iff more than one domain serves this exact certificate."""
        return len(self.by_fingerprint.get(fingerprint, frozenset())) >= 2

    def shared_serial(self, serial: int) -> bool:
        """True iff this serial occurs on two or more domain/cert pairs."""
        return len(self.by_serial.get(str(serial), frozenset())) >= 2


def latest_records(records: Iterable[DomainRecord]) -> list[DomainRecord]:
    """Newest record per domain, by harvest_time; ties go to the later entry.
    A record's domain is already in canonical_domain form, so every
    spelling of one name is one domain here."""
    latest: dict[str, DomainRecord] = {}
    for record in records:
        prev = latest.get(record.domain)
        if prev is None or record.harvest_time >= prev.harvest_time:
            latest[record.domain] = record
    return list(latest.values())


def _parse_leaf(record: DomainRecord) -> CertificateSummary | None:
    if record.cert_der is None:
        return None
    try:
        return parse_certificate(record.cert_der)
    except MalformedInput as exc:
        log.warning("skipping unparseable certificate for %s: %s", record.domain, exc)
        return None


def build_corpus_index(
    records: Iterable[DomainRecord],
    leaf: Callable[[DomainRecord], CertificateSummary | None] = _parse_leaf,
) -> CorpusIndex:
    """Index the newest record of every domain that delivered a certificate.

    leaf gives a record's parsed certificate, or None to leave the record
    out.  By default the record's bytes are parsed here, and records whose
    bytes do not parse are skipped with a warning; they cannot contribute
    a serial and their fingerprint would never be asked about by the
    feature extractor (which parses first).  extract_corpus passes its
    own parse, which caches each distinct certificate and warns once.
    """
    by_fp: dict[str, set[str]] = {}
    by_serial: dict[str, set[tuple[str, str]]] = {}
    for record in latest_records(records):
        summary = leaf(record)
        if summary is None:
            continue
        by_fp.setdefault(summary.fingerprint, set()).add(record.domain)
        by_serial.setdefault(str(summary.serial), set()).add(
            (record.domain, summary.fingerprint)
        )
    return CorpusIndex(
        by_fingerprint={fp: frozenset(v) for fp, v in by_fp.items()},
        by_serial={s: frozenset(v) for s, v in by_serial.items()},
    )
