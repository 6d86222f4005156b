"""X.509 certificate parsing and chain verification.

The parser reduces a certificate to the handful of fields the feature
extractor cares about (names, validity window, serial, signature algorithm,
SHA-256 fingerprint) and keeps the exact DER bytes as the identity of the
certificate.  Verification builds an issuer path from the certificates a
server presented plus a local trust store and reports a single verdict;
hostname checking is deliberately out of scope because name mismatch is
judged separately by the name-similarity feature.

Issuer selection: a certificate's issuer is the first trust anchor in
store order, else the first presented certificate in presented order,
whose subject equals the certificate's issuer name as a multiset of
(type, trimmed value) pairs.  Lookup goes through each name's precomputed
key in an IssuerIndex, a dictionary built once per certificate set.

The trust store's IssuerIndex also keeps the verdict of every signature
link above the leaf (an intermediate under its issuer, or an anchor under
itself), so a trust store checks each CA link once however many leaves
share it.  Leaf links are checked on every call.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import logging
import re
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING
from warnings import catch_warnings, simplefilter

from .errors import MalformedInput, reading

# cryptography is imported where a certificate is parsed or a signature
# checked, so a command that reads only feature rows never loads it
if TYPE_CHECKING:
    from cryptography import x509

log = logging.getLogger(__name__)

# Short names for the DN attribute types that actually occur in harvested
# certificates.  Anything else keeps its dotted OID.
_DN_ATTR_NAMES = {
    "2.5.4.3": "CN",
    "2.5.4.6": "C",
    "2.5.4.7": "L",
    "2.5.4.8": "ST",
    "2.5.4.10": "O",
    "2.5.4.11": "OU",
    "2.5.4.5": "serialNumber",
    "2.5.4.4": "SN",
    "2.5.4.42": "GN",
    "2.5.4.12": "title",
    "2.5.4.9": "street",
    "2.5.4.17": "postalCode",
    "2.5.4.15": "businessCategory",
    "0.9.2342.19200300.100.1.25": "DC",
    "0.9.2342.19200300.100.1.1": "UID",
    "1.2.840.113549.1.9.1": "emailAddress",
    "1.2.840.113549.1.9.2": "unstructuredName",
}

_SIGNATURE_ALGORITHM_NAMES = {
    "1.2.840.113549.1.1.2": "md2WithRSAEncryption",
    "1.2.840.113549.1.1.4": "md5WithRSAEncryption",
    "1.2.840.113549.1.1.5": "sha1WithRSAEncryption",
    "1.2.840.113549.1.1.11": "sha256WithRSAEncryption",
    "1.2.840.113549.1.1.12": "sha384WithRSAEncryption",
    "1.2.840.113549.1.1.13": "sha512WithRSAEncryption",
    "1.2.840.113549.1.1.10": "rsassaPss",
    "1.2.840.10040.4.3": "dsaWithSha1",
    "2.16.840.1.101.3.4.3.2": "dsaWithSha256",
    "1.2.840.10045.4.1": "ecdsaWithSha1",
    "1.2.840.10045.4.3.2": "ecdsaWithSha256",
    "1.2.840.10045.4.3.3": "ecdsaWithSha384",
    "1.2.840.10045.4.3.4": "ecdsaWithSha512",
    "1.3.101.112": "ed25519",
    "1.3.101.113": "ed448",
}

OID_MD5_RSA = "1.2.840.113549.1.1.4"

_PEM_BLOCK = re.compile(
    rb"-----BEGIN CERTIFICATE-----(.*?)-----END CERTIFICATE-----",
    re.DOTALL,
)


@dataclass(frozen=True)
class DistinguishedName:
    """An X.500 name as an ordered sequence of (type, value) attributes."""

    attributes: tuple[tuple[str, str], ...]

    def get(self, attr_type: str) -> str | None:
        """First non-blank value of the given attribute type, or None."""
        for name, value in self.attributes:
            if name == attr_type and value.strip():
                return value
        return None

    def values(self) -> tuple[str, ...]:
        return tuple(value for _, value in self.attributes)

    def text(self) -> str:
        return ", ".join(f"{name}={value}" for name, value in self.attributes)

    @functools.cached_property
    def key(self) -> tuple[tuple[str, str], ...]:
        """The name as a sorted multiset of (type, trimmed value) pairs."""
        return tuple(sorted((name, value.strip()) for name, value in self.attributes))


@dataclass(frozen=True)
class SignatureAlgorithm:
    oid: str
    name: str


@dataclass(frozen=True)
class CertificateSummary:
    """The parsed fields of one certificate plus its exact DER bytes."""

    serial: int
    signature_algorithm: SignatureAlgorithm
    issuer: DistinguishedName
    subject: DistinguishedName
    not_before: int
    not_after: int
    der_bytes: bytes
    fingerprint: str

    def __repr__(self) -> str:  # keep DER out of debug output
        return (
            f"CertificateSummary(subject={self.subject.text()!r}, "
            f"issuer={self.issuer.text()!r}, serial={self.serial}, "
            f"fingerprint={self.fingerprint[:16]}...)"
        )


class Verdict(Enum):
    VERIFIED = "Verified"
    SELF_SIGNED = "SelfSigned"
    UNTRUSTED_ROOT = "UntrustedRoot"
    EXPIRED = "Expired"
    NOT_YET_VALID = "NotYetValid"
    BAD_SIGNATURE = "BadSignature"
    MALFORMED_CHAIN = "MalformedChain"


@dataclass(frozen=True)
class VerificationOutcome:
    verdict: Verdict
    detail: str

    @property
    def ok(self) -> bool:
        return self.verdict is Verdict.VERIFIED


def _convert_name(name: x509.Name) -> DistinguishedName:
    attrs: list[tuple[str, str]] = []
    for rdn in name.rdns:
        for attr in rdn:
            label = _DN_ATTR_NAMES.get(attr.oid.dotted_string, attr.oid.dotted_string)
            value = attr.value
            if isinstance(value, bytes):
                value = value.decode("utf-8", errors="replace")
            attrs.append((label, value))
    return DistinguishedName(tuple(attrs))


def _pem_body_to_der(body: bytes) -> bytes:
    try:
        return base64.b64decode(b"".join(body.split()), validate=True)
    except (ValueError, base64.binascii.Error) as exc:
        raise MalformedInput(f"PEM body is not valid base64: {exc}") from exc


def _pem_to_der(blob: bytes) -> bytes:
    blocks = _PEM_BLOCK.findall(blob)
    if len(blocks) != 1:
        raise MalformedInput(
            f"expected exactly one PEM certificate block, found {len(blocks)}"
        )
    return _pem_body_to_der(blocks[0])


def parse_certificate(blob: bytes | str) -> CertificateSummary:
    """Parse one certificate from DER bytes or PEM text.

    The summary's der_bytes are exactly the bytes that were transported
    (for PEM input, the decoded block body), so the SHA-256 fingerprint
    identifies the certificate as served.  Serials with a negative
    encoding are normalized to their absolute value with a warning.

    Raises MalformedInput for undecodable blobs, for PEM text holding
    anything other than exactly one certificate block, and for
    certificates whose validity window is inverted.
    """
    warnings: list[tuple] = []
    try:
        return _parse_certificate(blob, warnings)
    finally:
        for warning in warnings:
            log.warning(*warning)


def _parse_certificate(blob: bytes | str, warnings: list[tuple]) -> CertificateSummary:
    """parse_certificate, which appends each warning it has, as a logging
    (format, *args) tuple, to warnings instead of logging it: first each
    distinct Python warning cryptography raised as the certificate loaded
    and its fields were read, recorded (which swaps process-wide state, so
    certsift parses in one thread per process), then certsift's own."""
    from cryptography import x509

    if isinstance(blob, str):
        blob = blob.encode("utf-8", errors="replace")
    if not blob:
        raise MalformedInput("empty certificate blob")
    if b"-----BEGIN CERTIFICATE-----" in blob:
        der = _pem_to_der(blob)
    else:
        der = bytes(blob)
    with catch_warnings(record=True) as raised:
        simplefilter("always")
        try:
            try:
                cert = x509.load_der_x509_certificate(der)
            except Exception as exc:
                raise MalformedInput(f"certificate does not decode: {exc}") from exc
            try:
                serial = cert.serial_number
                oid = cert.signature_algorithm_oid.dotted_string
                issuer = _convert_name(cert.issuer)
                subject = _convert_name(cert.subject)
                not_before = int(cert.not_valid_before_utc.timestamp())
                not_after = int(cert.not_valid_after_utc.timestamp())
            except Exception as exc:
                raise MalformedInput(f"certificate fields do not decode: {exc}") from exc
        finally:
            warnings += [("%s", text) for text in dict.fromkeys(str(w.message) for w in raised)]

    if serial < 0:
        warnings.append(("negative serial %d normalized to absolute value", serial))
        serial = -serial
    if not_before > not_after:
        raise MalformedInput(
            f"validity window is inverted ({not_before} > {not_after})"
        )
    return CertificateSummary(
        serial=serial,
        signature_algorithm=SignatureAlgorithm(
            oid=oid, name=_SIGNATURE_ALGORITHM_NAMES.get(oid, oid)
        ),
        issuer=issuer,
        subject=subject,
        not_before=not_before,
        not_after=not_after,
        der_bytes=der,
        fingerprint=hashlib.sha256(der).hexdigest(),
    )


def dn_equal(a: DistinguishedName, b: DistinguishedName) -> bool:
    """Compare two names as multisets of (type, trimmed value) pairs.

    Attribute order does not matter; repeated attributes must occur the
    same number of times on both sides; case matters.
    """
    return a.key == b.key


def load_trust_store(path: str) -> list[CertificateSummary]:
    """Load all PEM certificate blocks from a bundle file, read as bytes:
    RFC 7468 lets text outside the armor be any bytes."""
    with reading(path, MalformedInput) as fh:
        blocks = _PEM_BLOCK.findall(fh.buffer.read())
        if not blocks:
            raise MalformedInput("no PEM certificate blocks")
        return [parse_certificate(_pem_body_to_der(body)) for body in blocks]


def _signature_valid(child: CertificateSummary, parent: CertificateSummary) -> bool:
    """True if parent's public key verifies child's signature over child's
    TBS bytes, under the child's signature algorithm and its parameters
    (RSA PKCS#1 v1.5 or PSS, ECDSA, Ed25519, Ed448, DSA).

    Names are not compared here: chain building already linked child to
    parent by the name rule (dn_equal), which a byte-for-byte comparison
    would overrule.  Any failure to verify (bad signature bytes, key type
    mismatch, an algorithm the crypto backend refuses) counts as invalid.
    """
    from cryptography import x509
    from cryptography.hazmat.primitives.asymmetric import dsa, ec, ed448, ed25519, rsa

    try:
        with catch_warnings():  # the parse of each already reported its warnings
            simplefilter("ignore")
            child_x = x509.load_der_x509_certificate(child.der_bytes)
            key = x509.load_der_x509_certificate(parent.der_bytes).public_key()
        signature, tbs = child_x.signature, child_x.tbs_certificate_bytes
        if isinstance(key, rsa.RSAPublicKey):
            padding = child_x.signature_algorithm_parameters
            key.verify(signature, tbs, padding, child_x.signature_hash_algorithm)
        elif isinstance(key, ec.EllipticCurvePublicKey):
            key.verify(signature, tbs, child_x.signature_algorithm_parameters)
        elif isinstance(key, dsa.DSAPublicKey):
            key.verify(signature, tbs, child_x.signature_hash_algorithm)
        elif isinstance(key, (ed25519.Ed25519PublicKey, ed448.Ed448PublicKey)):
            key.verify(signature, tbs)
        else:
            return False
        return True
    except Exception:
        return False


class IssuerIndex:
    """Candidate issuers keyed by subject name, for chain building.

    by_subject maps a subject key (DistinguishedName.key) to the first
    certificate in the given order carrying it; by_fingerprint holds every
    certificate by its fingerprint.  Build one per trust store and pass it
    to verify_chain for every leaf checked against that store.

    link_verdicts is verify_chain's memo of CA links checked against this
    store: (child fingerprint, parent fingerprint) -> whether the parent's
    key verifies the child's signature, failures included.  It is exact: a
    link's verdict depends only on the two DER blobs (the child's
    signature, TBS bytes and algorithm parameters, the parent's key), and
    a fingerprint is the SHA-256 of the DER.  Only links whose child is
    not the leaf are kept, so the memo grows with the distinct CA
    certificates seen, never with leaves; a corpus with a fresh
    intermediate per domain grows it as fast as it grows the set of
    parsed certificates.
    """

    def __init__(self, certs: Iterable[CertificateSummary]):
        self.by_subject: dict[tuple[tuple[str, str], ...], CertificateSummary] = {}
        self.by_fingerprint: dict[str, CertificateSummary] = {}
        for cert in certs:
            self.by_subject.setdefault(cert.subject.key, cert)
            self.by_fingerprint.setdefault(cert.fingerprint, cert)
        self.link_verdicts: dict[tuple[str, str], bool] = {}

    @classmethod
    def of(cls, certs: IssuerIndex | Iterable[CertificateSummary]) -> IssuerIndex:
        return certs if isinstance(certs, cls) else cls(certs)

    def issuer_of(self, cert: CertificateSummary) -> CertificateSummary | None:
        return self.by_subject.get(cert.issuer.key)

    def link_valid(self, child: CertificateSummary, parent: CertificateSummary) -> bool:
        """_signature_valid(child, parent), checked once per index."""
        link = (child.fingerprint, parent.fingerprint)
        valid = self.link_verdicts.get(link)
        if valid is None:
            valid = self.link_verdicts[link] = _signature_valid(child, parent)
        return valid


_MAX_PATH = 16


def verify_chain(
    leaf: CertificateSummary,
    presented_chain: Iterable[CertificateSummary],
    trust_store: IssuerIndex | Iterable[CertificateSummary],
    at_time: int,
) -> VerificationOutcome:
    """Build an issuer path for leaf and judge it at the given time.

    The path walks from the leaf through the presented certificates until
    it reaches a trust anchor.  Each step takes the first trust anchor in
    store order, else the first presented certificate (other than the
    leaf) in presented order, whose subject equals the current
    certificate's issuer as a multiset (see dn_equal); lookup goes through
    the names' precomputed keys.  trust_store may be an IssuerIndex built
    once for many calls; any other iterable is indexed here.

    Failures are reported in a fixed order: structural problems
    (duplicate presented certificates, issuer loops, absurdly long
    paths) as MalformedChain; a leaf that is its own issuer as
    SelfSigned; a walk that never reaches the store as UntrustedRoot;
    then validity windows leaf-first (Expired / NotYetValid); then
    per-link signature checks (BadSignature).  A leaf that is itself a
    trust anchor verifies against its own key.  Hostname matching is
    not performed here.

    The leaf's own link is checked on every call.  Every link above it,
    and an anchor-leaf's self-check, goes through the verdict memo of the
    anchors' IssuerIndex (see IssuerIndex), so with one index per trust
    store each CA link is checked once; the memo returns the boolean a
    fresh check would, so verdicts and details are unchanged.  It grows
    with the distinct CA certificates seen, never with leaves.
    """
    presented = list(presented_chain)
    fingerprints = [c.fingerprint for c in presented]
    if len(set(fingerprints)) != len(fingerprints):
        return VerificationOutcome(
            Verdict.MALFORMED_CHAIN, "duplicate certificates in presented chain"
        )

    anchors = IssuerIndex.of(trust_store)
    path: list[CertificateSummary]
    if leaf.fingerprint in anchors.by_fingerprint:
        path = [leaf]
    elif dn_equal(leaf.issuer, leaf.subject):
        return VerificationOutcome(
            Verdict.SELF_SIGNED, f"leaf is self-signed: {leaf.subject.text()}"
        )
    else:
        candidates = IssuerIndex(c for c in presented if c.fingerprint != leaf.fingerprint)
        path = [leaf]
        seen = {leaf.fingerprint}
        current = leaf
        while True:
            if len(path) > _MAX_PATH:
                return VerificationOutcome(
                    Verdict.MALFORMED_CHAIN, f"path longer than {_MAX_PATH}"
                )
            anchor = anchors.issuer_of(current)
            if anchor is not None:
                path.append(anchor)
                break
            nxt = candidates.issuer_of(current)
            if nxt is None:
                return VerificationOutcome(
                    Verdict.UNTRUSTED_ROOT,
                    f"no trusted issuer found for {current.issuer.text()!r}",
                )
            if nxt.fingerprint in seen:
                return VerificationOutcome(
                    Verdict.MALFORMED_CHAIN, "issuer loop in presented chain"
                )
            path.append(nxt)
            seen.add(nxt.fingerprint)
            current = nxt

    for cert in path:
        if at_time > cert.not_after:
            which = "leaf" if cert is path[0] else "issuer"
            return VerificationOutcome(
                Verdict.EXPIRED, f"{which} certificate expired: {cert.subject.text()}"
            )
        if at_time < cert.not_before:
            which = "leaf" if cert is path[0] else "issuer"
            return VerificationOutcome(
                Verdict.NOT_YET_VALID,
                f"{which} certificate not yet valid: {cert.subject.text()}",
            )

    if len(path) == 1:
        if not anchors.link_valid(leaf, leaf):
            return VerificationOutcome(
                Verdict.BAD_SIGNATURE, "trust anchor self-signature does not verify"
            )
    else:
        for child, parent in zip(path, path[1:]):
            check = _signature_valid if child is leaf else anchors.link_valid
            if not check(child, parent):
                return VerificationOutcome(
                    Verdict.BAD_SIGNATURE,
                    f"signature on {child.subject.text()!r} does not verify "
                    f"against {parent.subject.text()!r}",
                )

    return VerificationOutcome(Verdict.VERIFIED, f"path length {len(path)}")
