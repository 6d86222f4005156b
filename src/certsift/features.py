"""The fifteen certificate features and their extraction.

Eight booleans (weak signature digest, placeholder subject, self-signed,
expired, failed verification, shared certificate, shared serial, validity
beyond three years), four categoricals (issuer common name, issuer
organization, issuer country, subject country), and three numerics
(validity days, serial digit count, domain/common-name similarity).

Categorical attributes that are absent get the sentinel value "JustNone"
so classifiers can treat missingness itself as a signal.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import logging
import os
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, replace
from itertools import chain
from operator import attrgetter
from sys import intern

from . import parts
from .certs import (
    OID_MD5_RSA,
    CertificateSummary,
    IssuerIndex,
    _parse_certificate,
    dn_equal,
    verify_chain,
)
from .certs import log as certs_log
from .corpus import CorpusFile, CorpusIndex, DomainRecord, newest_per_domain
from .errors import IndexMismatch, MalformedInput, SerializationFailure, reading
from .probe import canonical_domain

log = logging.getLogger(__name__)

MISSING = "JustNone"
LABEL_POSITIVE = "pos"
LABEL_NEGATIVE = "neg"

THREE_YEARS_DAYS = 1095
SECONDS_PER_DAY = 86400

DEFAULT_SHINGLE_SIZE = 2

# Newest records carrying a certificate beyond which extract_corpus works
# in shares, one per usable CPU: the sweep in its docstring puts the
# break-even near 64.
_FORK_RECORDS = 128

# Values that certificate-generation tools ship as placeholders.  A subject
# still carrying one was never filled in by a real operator.
DEFAULT_BOGUS_VALUES = (
    "--",
    "somestate",
    "somecity",
    "someorganization",
    "someorganizationalunit",
    "localhost",
    "internet widgits pty ltd",
    "some-state",
    "default city",
    "example",
    "test",
)

KIND_BOOLEAN = "boolean"
KIND_CATEGORICAL = "categorical"
KIND_INTEGER = "integer"
KIND_REAL = "real"

# Every feature's kind, in column order: the one statement of the layout,
# from which the name tuples, CSV codec, default schema and synth derive.
FEATURE_KINDS = {
    **{f"f{i}": KIND_BOOLEAN for i in range(1, 9)},
    **{f"f{i}": KIND_CATEGORICAL for i in range(9, 13)},
    "f13": KIND_INTEGER, "f14": KIND_INTEGER, "f15": KIND_REAL,
}
FEATURE_NAMES = tuple(FEATURE_KINDS)
BOOLEAN_FEATURES = tuple(n for n, k in FEATURE_KINDS.items() if k == KIND_BOOLEAN)
CATEGORICAL_FEATURES = tuple(n for n, k in FEATURE_KINDS.items() if k == KIND_CATEGORICAL)
NUMERIC_FEATURES = tuple(n for n, k in FEATURE_KINDS.items() if k in (KIND_INTEGER, KIND_REAL))
F15_RANGE = (0.0, 1.0)  # f15 is a Jaccard similarity


@dataclass(frozen=True)
class BogusValueList:
    """Lowercased, trimmed placeholder values to flag in subject names."""

    entries: frozenset[str]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("bogus value list must not be empty")

    @classmethod
    def of(cls, values: Iterable[str]) -> "BogusValueList":
        normalized = {v.strip().lower() for v in values if v.strip()}
        return cls(frozenset(normalized))

    @classmethod
    def default(cls) -> "BogusValueList":
        return cls.of(DEFAULT_BOGUS_VALUES)

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "BogusValueList":
        with reading(path, MalformedInput) as fh:
            values = [line for line in (l.strip() for l in fh) if line]
            if not values:
                raise MalformedInput("no placeholder values")
        return cls.of(values)

    def matches(self, value: str) -> bool:
        return value.strip().lower() in self.entries


@dataclass(frozen=True, slots=True)
class FeatureVector:
    """One domain's features, in FEATURE_KINDS order, optionally labeled pos (fraud) or neg."""

    domain: str
    f1: bool  # signed with md5WithRSAEncryption
    f2: bool  # subject carries a placeholder value
    f3: bool  # self-signed (issuer name equals subject name)
    f4: bool  # expired at harvest time
    f5: bool  # chain verification failed
    f6: bool  # exact certificate shared with another domain
    f7: bool  # serial number shared across domain/cert pairs
    f8: bool  # valid for more than three years
    f9: str  # issuer common name
    f10: str  # issuer organization
    f11: str  # issuer country
    f12: str  # subject country
    f13: int  # validity period in whole days
    f14: int  # decimal digits in the serial number
    f15: float  # similarity of domain and subject common name
    label: str | None = None

    def __post_init__(self) -> None:
        if self.label not in (None, LABEL_POSITIVE, LABEL_NEGATIVE):
            raise ValueError(f"label must be pos/neg/None, not {self.label!r}")
        if not (F15_RANGE[0] <= self.f15 <= F15_RANGE[1]):
            raise ValueError(f"f15 out of range: {self.f15}")

    def value(self, name: str):
        return getattr(self, name)


def normalize_hostname(name: str) -> str:
    """Canonicalize a hostname for similarity comparison.

    Takes canonical_domain's form and drops one leading "www." or "*."
    label so that a site and its common aliases compare as the same name.
    Inner labels are left alone.
    """
    text = canonical_domain(name)
    for prefix in ("www.", "*."):
        if text.startswith(prefix):
            return text[len(prefix) :]
    return text


def _shingles(text: str, size: int) -> set[str]:
    if len(text) < size:
        return set(text)
    return {text[i : i + size] for i in range(len(text) - size + 1)}


def jaccard(a: str, b: str, shingle_size: int = DEFAULT_SHINGLE_SIZE) -> float:
    """Jaccard similarity of two strings over character shingles.

    Strings shorter than the shingle size fall back to their character
    sets; two empty strings count as identical (1.0).
    """
    if shingle_size not in (1, 2, 3):
        raise ValueError(f"shingle_size must be 1, 2 or 3, not {shingle_size}")
    sa = _shingles(a, shingle_size)
    sb = _shingles(b, shingle_size)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def serial_digit_count(serial: int) -> int:
    """Number of decimal digits of the serial; zero counts one digit."""
    return len(str(abs(serial)))


def is_bogus_subject(subject, bogus: BogusValueList) -> bool:
    """True iff any subject attribute value is a known placeholder."""
    return any(bogus.matches(value) for value in subject.values())


def extract_features(
    cert: CertificateSummary,
    domain: str,
    harvest_time: int,
    index: CorpusIndex,
    trust_store: IssuerIndex | Sequence[CertificateSummary],
    bogus: BogusValueList | None = None,
    presented_chain: Sequence[CertificateSummary] = (),
    shingle_size: int = DEFAULT_SHINGLE_SIZE,
) -> FeatureVector:
    """Compute all fifteen features for one harvested certificate.

    The index must have been built over a corpus containing this
    (domain, certificate) pair; anything else raises IndexMismatch, since
    the duplicate features would silently come out wrong.  A caller that
    extracts many certificates against one trust store passes it as an
    IssuerIndex, so the anchors are indexed once.
    """
    # Index identity keeps the full domain; alias stripping is only for f15.
    host = canonical_domain(domain)
    if not index.contains(host, cert.fingerprint):
        raise _mismatch(host, cert.fingerprint)
    if bogus is None:
        bogus = BogusValueList.default()
    return _features(cert, host, harvest_time, trust_store, bogus, presented_chain, shingle_size,
                     index.shared_certificate(cert.fingerprint), index.shared_serial(cert.serial))


def _mismatch(host: str, fingerprint: str) -> IndexMismatch:
    return IndexMismatch(f"({host}, {fingerprint[:16]}...) is not in the corpus index")


def _features(
    cert: CertificateSummary,
    host: str,
    harvest_time: int,
    trust_store: IssuerIndex | Sequence[CertificateSummary],
    bogus: BogusValueList,
    presented_chain: Sequence[CertificateSummary],
    shingle_size: int,
    f6: bool = False,
    f7: bool = False,
) -> FeatureVector:
    """extract_features's vector for a canonical host, f6 and f7 as given."""
    outcome = verify_chain(cert, presented_chain, trust_store, harvest_time)
    validity_days = (cert.not_after - cert.not_before) // SECONDS_PER_DAY
    subject_cn = cert.subject.get("CN") or MISSING
    return FeatureVector(
        domain=host,
        f1=cert.signature_algorithm.oid == OID_MD5_RSA,
        f2=is_bogus_subject(cert.subject, bogus),
        f3=dn_equal(cert.issuer, cert.subject),
        f4=harvest_time > cert.not_after,
        f5=not outcome.ok,
        f6=f6,
        f7=f7,
        f8=validity_days > THREE_YEARS_DAYS,
        # interned: a few issuers' values recur in many vectors, which then
        # share them, in a share's pickle too
        f9=intern(cert.issuer.get("CN") or MISSING),
        f10=intern(cert.issuer.get("O") or MISSING),
        f11=intern(cert.issuer.get("C") or MISSING),
        f12=intern(cert.subject.get("C") or MISSING),
        f13=validity_days,
        f14=serial_digit_count(cert.serial),
        f15=jaccard(
            normalize_hostname(host), normalize_hostname(subject_cn), shingle_size
        ),
        label=None,
    )


def _newest(records: Iterable[DomainRecord] | CorpusFile) -> tuple[dict, Callable]:
    """newest_per_domain's domain -> where for records with a certificate,
    and the reader of a list of wheres: CorpusFile offsets, or records."""
    if isinstance(records, CorpusFile):
        return records.offsets, records.records_at
    return newest_per_domain(((r, r) for r in records), certified=True), iter


# An event is (key, logger name, messages), logged the first time its key
# comes: a certificate's parse warnings keyed by its DER's digest, a skipped
# leaf keyed by its domain, a skipped chain certificate by the digest's hex.
def _parse(der: bytes, anchor_of: dict) -> tuple[CertificateSummary | str, tuple]:
    """der's summary (an anchor's own when anchor_of, DER -> summary, holds
    it), or the error text of a failed parse (an exception's traceback
    would hold the caller's frame), and its parse's logging (format, *args) warnings."""
    summary = anchor_of.get(der)
    if summary is not None:
        return summary, ()
    warnings: list[tuple] = []
    try:
        summary = _parse_certificate(der, warnings)
    except MalformedInput as exc:
        summary = str(exc)
    return summary, tuple(warnings)


def _warned(der: bytes, warnings: tuple, domain: str, role: str) -> tuple:
    """The event of a certificate's parse warnings, if any, each naming the
    record: domain, role (leaf or chain) and the DER's SHA-256, cut to 16 digits."""
    digest = hashlib.sha256(der)
    return ((digest.digest(), certs_log.name, tuple(
        ("%s: %s certificate %s: " + text, domain, role, digest.hexdigest()[:16], *args)
        for text, *args in warnings)),) if warnings else ()


def _leaf(record: DomainRecord, anchor_of: dict) -> tuple[CertificateSummary | None, tuple, tuple]:
    """The one rule for a harvested leaf: its summary, its events and the
    index's (domain, fingerprint, decimal serial); or, if it does not parse,
    None, its events with the skip (warned about once per domain) and None."""
    cert, warnings = _parse(record.cert_der, anchor_of)
    events = _warned(record.cert_der, warnings, record.domain, "leaf")
    if isinstance(cert, str):
        skip = (record.domain, log.name, (("skipping %s: %s", record.domain, cert),))
        return None, events + (skip,), None
    return cert, events, (record.domain, cert.fingerprint, str(cert.serial))


def _replay(events: Iterable[tuple], seen: set) -> None:
    """Log the events whose key is not yet in seen, and add their keys."""
    for key, logger, messages in events:
        if key not in seen:
            seen.add(key)
            for message in messages:
                logging.getLogger(logger).warning(*message)


def build_corpus_index(records: Iterable[DomainRecord]) -> CorpusIndex:
    """Index the newest record of every domain that delivered a certificate,
    through extract_corpus's own leaf step: a leaf that does not parse is
    skipped with extraction's warning, and each distinct certificate's
    parse warnings are logged once, naming the first domain that serves it."""
    newest, read = _newest(records)
    leaves = [_leaf(record, {})[1:] for record in read(newest.values())]
    _replay(chain.from_iterable(events for events, _ in leaves), set())
    return CorpusIndex.from_entries(entry for _, entry in leaves if entry)


def extract_corpus(
    records: Iterable[DomainRecord] | CorpusFile,
    trust_store: IssuerIndex | Iterable[CertificateSummary] = (),
    bogus: BogusValueList | None = None,
    shingle_size: int = DEFAULT_SHINGLE_SIZE,
    index_records: Iterable[DomainRecord] | CorpusFile | None = None,
) -> list[FeatureVector]:
    """Extract features for every certificate-bearing domain in a corpus.

    Uses the newest record per domain.  The duplicate features are
    computed against index_records, or against the same records when it
    is None; either corpus may be records or a CorpusFile.  The trust
    store and the default bogus list are built once per call, and CA links
    are checked against the call's own copy of the anchors' memo (see
    IssuerIndex): a caller's IssuerIndex is read and never written.
    A leaf that does not parse is skipped with one warning per domain, a
    chain certificate with one per certificate, and each certificate's
    parse warnings are logged once, naming the record (see _warned).

    Two passes.  The first finds each domain's newest record that carries
    a certificate: a CorpusFile keeps its byte offset, made when the file
    was opened; records are picked by newest_per_domain.  The second runs in
    contiguous shares of those records in domain order, the index corpus's
    cut alongside (parts.shares), through parts.in_parts: all but the last
    share in forked children, the last here.  A share reads its records one
    at a time, by offset through a file of its own, and parses, verifies
    and featurizes each.  It holds one record's objects at a time and a cache
    of the chain certificates it has parsed, which grows with the distinct
    CA certificates; a leaf that several domains serve is parsed once per
    domain.  A share logs nothing and sends back one row per record,
    (events, index entry, vector): its leaf's warnings, then its chain
    certificates', as they arise; its leaf's entry; and its vector without
    f6 and f7, None for an index record.  Both are None for a leaf that
    does not parse.  After the join this process replays the index
    corpus's rows, builds the index, and then, in one pass over the rows
    in domain order, logs each row's events and fills in f6 and f7.  A
    record the index lacks raises IndexMismatch after the records before
    it, and later records log nothing.  So the vectors and warnings are
    one process's, and this process holds an offset per domain, the index
    (a fingerprint per domain and counts per fingerprint and serial) and
    the vectors: no record, DER or certificate summary outside its share.

    Chain verification, a signature check per leaf, is most of the cost.
    Forking is worth it from more than _FORK_RECORDS records that carry a
    certificate, with an anchor in the store (without one no path reaches
    the store and no signature is checked).  One share against two,
    alternating, 20 calls each on the first N records of the seed-7
    benchmark corpus (2-CPU Xeon VM), with its 150 anchors, when the leaves
    were still parsed before the shares: 32 records 10.7 against 11.9 ms
    (two won 4 of 20), 64 19.6 against 18.9 (11 of 20), 128 37.7 against
    31.1 (17 of 20), 256 75.6 against 58.0 (20 of 20), 1,000 204 against 171
    (19 of 20); with no anchor, 128 records 17.2 against 20.3 ms (1 of 20)
    and 1,000 95.6 against 96.7 (11 of 20).  The host's second CPU is often
    busy: in two other sweeps two shares lost at every size, 1,000 records
    with anchors 155 against 181 ms (0 of 20).
    """
    anchors = copy.copy(IssuerIndex.of(trust_store))
    anchors.link_verdicts = dict(anchors.link_verdicts)  # the call's own memo
    if bogus is None:
        bogus = BogusValueList.default()
    newest, read = _newest(records)
    wheres = [newest[domain] for domain in sorted(newest)]
    indexed, read_indexed = ({}, iter) if index_records is None else _newest(index_records)
    index_wheres = list(indexed.values())
    # servers often present an anchor, whose summary is at hand
    anchor_of = {anchor.der_bytes: anchor for anchor in anchors.by_fingerprint.values()}

    def run(part: tuple[list, list]) -> tuple[list, list]:
        """The rows of a share's records and of its index records."""
        mine, my_indexed = part
        chains: dict[bytes, tuple] = {}
        rows = []
        for record in read(mine):
            cert, events, entry = _leaf(record, anchor_of)
            if cert is None:
                rows.append((events, None, None))
                continue
            presented = []
            for der in record.presented_chain_der or ():
                if der == record.cert_der:
                    continue
                if der not in chains:
                    chains[der] = _parse(der, anchor_of)
                summary, warnings = chains[der]
                events += _warned(der, warnings, record.domain, "chain")
                if isinstance(summary, str):
                    fp = hashlib.sha256(der).hexdigest()
                    events += ((fp, log.name, (("skipping unparseable chain certificate for %s: "
                                "chain certificate %s: %s", record.domain, fp[:16], summary),)),)
                else:
                    presented.append(summary)
            rows.append((events, entry, _features(cert, record.domain, record.harvest_time,
                                                  anchors, bogus, presented, shingle_size)))
        return rows, [(*_leaf(record, anchor_of)[1:], None) for record in read_indexed(my_indexed)]

    shares = parts.shares(wheres, index_wheres,
                          worth=bool(anchors.by_fingerprint) and len(wheres) > _FORK_RECORDS)
    # each share's (rows, index rows), joined in share order
    rows, index_rows = (list(chain.from_iterable(joined))
                        for joined in zip(*parts.in_parts(run, shares)))

    seen: set = set()
    _replay(chain.from_iterable(events for events, _, _ in index_rows), seen)
    index = CorpusIndex.from_entries(
        entry for _, entry, _ in (rows if index_records is None else index_rows) if entry)
    vectors = []
    for events, entry, vector in rows:
        _replay(events, seen)
        if vector is None:
            continue
        _, fingerprint, serial = entry
        if not index.contains(vector.domain, fingerprint):
            raise _mismatch(vector.domain, fingerprint)
        f6, f7 = index.shared_certificate(fingerprint), index.shared_serial(serial)
        vectors.append(replace(vector, f6=f6, f7=f7) if f6 or f7 else vector)
    return vectors


# --- CSV interchange -------------------------------------------------------

CSV_HEADER = ("domain",) + FEATURE_NAMES + ("label",)


def _parse_bool(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"must be 0 or 1, not {text!r}")
    return text == "1"


def _parse_int(text: str) -> int:
    """A whole number spelled as str(int) spells it: int() alone also takes
    signs, spaces, underscores, leading zeros and non-ASCII digits.  The
    encoders and the CDF turn it into a float64, so it must fit one."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"must be a whole number as written, not {text!r}")
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"a {len(text)}-character integer does not fit a float64") from None
    return value


# each kind's (format, parse) pair; a parse raises ValueError on a bad cell
_CODECS = {
    KIND_BOOLEAN: (lambda value: "1" if value else "0", _parse_bool),
    KIND_CATEGORICAL: (str, str),
    KIND_INTEGER: (lambda value: str(int(value)), _parse_int),
    KIND_REAL: ("{:.6f}".format, float),
}


def csv_row_writer(out: io.TextIOBase) -> Callable[[Sequence[str]], None]:
    """A writerow for CSV rows ending in "\n", fields quoted where needed.

    A row with a carriage return in any field has every field quoted.
    Before Python 3.13, csv.writer quotes only the characters of its
    lineterminator, and csv.reader ends a record at an unquoted "\r".
    """
    minimal = csv.writer(out, quoting=csv.QUOTE_MINIMAL, lineterminator="\n").writerow
    quoted = csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator="\n").writerow

    def writerow(row: Sequence[str]) -> None:
        (quoted if "\r" in "".join(row) else minimal)(row)

    return writerow


def write_features_csv(out: io.TextIOBase, vectors: Iterable[FeatureVector]) -> int:
    """Write feature vectors as CSV; returns the row count.

    Booleans are 0/1, f15 has six decimal places, and the label column is
    pos, neg, or empty for unlabeled rows.
    """
    writerow = csv_row_writer(out)
    writerow(CSV_HEADER)
    features = attrgetter(*FEATURE_NAMES)
    formats = [_CODECS[kind][0] for kind in FEATURE_KINDS.values()]
    count = 0
    for fv in vectors:
        cells = [fmt(value) for fmt, value in zip(formats, features(fv))]
        writerow([fv.domain, *cells, fv.label or ""])
        count += 1
    return count


def read_features_csv(source: io.TextIOBase | str | os.PathLike) -> list[FeatureVector]:
    """Read feature vectors back from CSV produced by write_features_csv.

    A malformed header, row or cell raises SerializationFailure naming the
    line, and the file too when source is a path."""
    if isinstance(source, (str, os.PathLike)):
        with reading(source, SerializationFailure) as fh:
            return read_features_csv(fh)
    reader = csv.reader(source)
    parsers = [_CODECS[kind][1] for kind in FEATURE_KINDS.values()]
    vectors = []
    try:
        header = next(reader, None)
        if header is None:
            raise SerializationFailure("feature CSV is empty")
        if tuple(header) != CSV_HEADER:
            raise SerializationFailure(
                f"unexpected feature CSV header: {header!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise SerializationFailure(
                    f"line {lineno}: expected {len(CSV_HEADER)} columns, got {len(row)}"
                )
            label = row[-1] or None
            if label not in (None, LABEL_POSITIVE, LABEL_NEGATIVE):
                raise SerializationFailure(f"line {lineno}: bad label {row[-1]!r}")
            values = []
            try:
                for name, parse, cell in zip(FEATURE_NAMES, parsers, row[1:]):
                    values.append(parse(cell))
                # after the loop name is f15, the column of FeatureVector's one check left
                vectors.append(FeatureVector(row[0], *values, label))
            except ValueError as exc:
                raise SerializationFailure(f"line {lineno}, column {name}: {exc}") from exc
    except csv.Error as exc:  # e.g. a bare line break inside an unquoted cell
        raise SerializationFailure(f"line {reader.line_num}: {exc}") from exc
    return vectors
