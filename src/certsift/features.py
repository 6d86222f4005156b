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

import csv
import io
import logging
import os
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter

from . import parts
from .certs import (
    OID_MD5_RSA,
    CertificateSummary,
    IssuerIndex,
    dn_equal,
    parse_certificate,
    verify_chain,
)
from .corpus import CorpusIndex, DomainRecord, build_corpus_index, latest_records
from .errors import IndexMismatch, MalformedInput, SerializationFailure, reading
from .probe import canonical_domain

log = logging.getLogger(__name__)

MISSING = "JustNone"
LABEL_POSITIVE = "pos"
LABEL_NEGATIVE = "neg"

THREE_YEARS_DAYS = 1095
SECONDS_PER_DAY = 86400

DEFAULT_SHINGLE_SIZE = 2

# Records with a parsed leaf from which extract_corpus verifies and
# extracts in shares, one per usable CPU: the sweep in its docstring puts
# the break-even near 64.
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
        raise IndexMismatch(
            f"({host}, {cert.fingerprint[:16]}...) is not in the corpus index"
        )
    if bogus is None:
        bogus = BogusValueList.default()

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
        f6=index.shared_certificate(cert.fingerprint),
        f7=index.shared_serial(cert.serial),
        f8=validity_days > THREE_YEARS_DAYS,
        f9=cert.issuer.get("CN") or MISSING,
        f10=cert.issuer.get("O") or MISSING,
        f11=cert.issuer.get("C") or MISSING,
        f12=cert.subject.get("C") or MISSING,
        f13=validity_days,
        f14=serial_digit_count(cert.serial),
        f15=jaccard(
            normalize_hostname(host), normalize_hostname(subject_cn), shingle_size
        ),
        label=None,
    )


def extract_corpus(
    records: Iterable[DomainRecord],
    trust_store: IssuerIndex | Iterable[CertificateSummary] = (),
    bogus: BogusValueList | None = None,
    shingle_size: int = DEFAULT_SHINGLE_SIZE,
    index_records: Iterable[DomainRecord] | None = None,
) -> list[FeatureVector]:
    """Extract features for every certificate-bearing domain in a corpus.

    Uses the newest record per domain.  The duplicate features are
    computed against index_records, or against the same records when it
    is None.  Each distinct certificate of either corpus is parsed once
    per call, and the trust store and the default bogus list are built
    once per call.  Records whose certificate bytes do not parse are
    skipped with one warning per domain.

    Chain verification, a signature check per leaf, is most of the cost.
    The leaves, the index and the presented chains are parsed here, in
    record order, and so is every warning logged; then, from _FORK_RECORDS
    records with a parsed leaf, on Linux while no other thread is alive
    and with an anchor in the store (without one no path reaches the store
    and no signature is checked), the verify-and-feature loop runs in
    contiguous shares, one per usable CPU, through parts.in_parts: all but
    the last in forked children, which inherit this state copy-on-write,
    and the last here.  Shares join in record order, so the vectors are
    one process's.  Each share returns the CA links it added to the
    anchors' memo, which is exact, so the caller's IssuerIndex ends
    holding the memo one process leaves.  One share against two,
    alternating, 20 calls each on the first N records of the seed-7
    benchmark corpus (2-CPU Xeon VM), with its 150 anchors: 32 records
    10.7 against 11.9 ms (two won 4 of 20), 64 19.6 against 18.9 (11 of
    20), 128 37.7 against 31.1 (17 of 20), 256 75.6 against 58.0 (20 of
    20), 1,000 204 against 171 (19 of 20); with no anchor, 128 records
    17.2 against 20.3 ms (1 of 20) and 1,000 95.6 against 96.7 (11 of 20).
    The host's second CPU is often busy: in two other sweeps two shares
    lost at every size, 1,000 records with anchors 155 against 181 ms (0
    of 20).
    """
    newest = sorted(latest_records(records), key=lambda r: r.domain)
    anchors = IssuerIndex.of(trust_store)
    if bogus is None:
        bogus = BogusValueList.default()
    # Certificate bytes -> summary, or the error text of a failed parse,
    # starting from the anchors, which servers often present as well.
    # Only the text is kept: an exception's traceback would hold its
    # frames, and through them this cache, in a reference cycle.
    parsed: dict[bytes, CertificateSummary | str] = {
        anchor.der_bytes: anchor for anchor in anchors.by_fingerprint.values()
    }

    def parse(der: bytes) -> CertificateSummary | str:
        summary = parsed.get(der)
        if summary is None:
            try:
                summary = parse_certificate(der)
            except MalformedInput as exc:
                summary = str(exc)
            parsed[der] = summary
        return summary

    skipped: set[str] = set()

    def leaf(record: DomainRecord) -> CertificateSummary | None:
        if record.cert_der is None:
            return None
        cert = parse(record.cert_der)
        if not isinstance(cert, str):
            return cert
        if record.domain not in skipped:
            skipped.add(record.domain)
            log.warning("skipping %s: %s", record.domain, cert)
        return None

    leaves = {record.domain: leaf(record) for record in newest}
    index = build_corpus_index(newest if index_records is None else index_records, leaf=leaf)
    # Each record's leaf and presented chain, parsed and warned about here,
    # in record order, so that the loop below logs nothing.
    work, mismatch = [], None
    for record in newest:
        cert = leaves.get(record.domain)
        if cert is None:
            continue
        chain = []
        for der in record.presented_chain_der or ():
            if der == record.cert_der:
                continue
            summary = parse(der)
            if isinstance(summary, str):
                log.warning("skipping unparseable chain certificate for %s", record.domain)
            else:
                chain.append(summary)
        if not index.contains(canonical_domain(record.domain), cert.fingerprint):
            mismatch = (record, cert, chain)
            break
        work.append((record, cert, chain))
    links = anchors.link_verdicts
    known = len(links)

    def run(share: list) -> tuple[list[FeatureVector], list]:
        """share's vectors, and the CA links the memo gained meanwhile."""
        vectors = [
            extract_features(cert, record.domain, record.harvest_time, index, anchors,
                             bogus=bogus, presented_chain=chain, shingle_size=shingle_size)
            for record, cert, chain in share
        ]
        return vectors, list(islice(links.items(), known, None))

    shares = [work]
    if (anchors.by_fingerprint and len(work) >= _FORK_RECORDS
            and (cpus := parts.usable_cpus()) > 1):
        n = min(cpus, len(work))
        shares = [work[len(work) * i // n : len(work) * (i + 1) // n] for i in range(n)]
    vectors = []
    for share_vectors, share_links in parts.in_parts(run, shares):
        vectors += share_vectors
        links.update(share_links)
    if mismatch is not None:
        run([mismatch])  # raises extract_features's IndexMismatch, after the records before it
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
