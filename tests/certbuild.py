"""Certificate-building helpers shared by the test modules.

Builds throwaway certificates with controllable subject, issuer, serial,
validity window, and signature algorithm: RSA (PKCS#1 v1.5 by default, or
PSS), ECDSA P-256 or Ed25519, following the signing key's type.  Modern crypto backends
refuse to *sign* with MD5, so md5WithRSAEncryption certificates are made
by signing with SHA-256 and patching both AlgorithmIdentifier OIDs in the
DER afterwards; the resulting bytes parse fine and carry the MD5 OID, and
their signature is invalid by construction, which the expectations of
every test using them account for.
"""

from __future__ import annotations

import datetime
import functools
import hashlib

from cryptography import x509
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec, ed25519, padding, rsa
from cryptography.x509.oid import NameOID

_SHA256_RSA_OID_DER = bytes.fromhex("06092a864886f70d01010b")
_MD5_RSA_OID_DER = bytes.fromhex("06092a864886f70d010104")

UTC = datetime.timezone.utc

# A fixed reference instant keeps validity windows reproducible run to run.
T0 = int(datetime.datetime(2024, 6, 1, 12, 0, 0, tzinfo=UTC).timestamp())

DAY = 86400


@functools.lru_cache(maxsize=8)
def rsa_key(slot: int = 0, bits: int = 2048) -> rsa.RSAPrivateKey:
    """Cached keys; generation dominates test time otherwise."""
    return rsa.generate_private_key(public_exponent=65537, key_size=bits)


@functools.lru_cache(maxsize=2)
def ec_key(slot: int = 0) -> ec.EllipticCurvePrivateKey:
    return ec.generate_private_key(ec.SECP256R1())


@functools.lru_cache(maxsize=2)
def ed25519_key(slot: int = 0) -> ed25519.Ed25519PrivateKey:
    return ed25519.Ed25519PrivateKey.generate()


def name(cn: str | None = None, **attrs: str) -> x509.Name:
    """Build an X.509 name from CN plus keyword attrs (o, c, st, l, ou, email)."""
    oid_by_kw = {
        "o": NameOID.ORGANIZATION_NAME,
        "c": NameOID.COUNTRY_NAME,
        "st": NameOID.STATE_OR_PROVINCE_NAME,
        "l": NameOID.LOCALITY_NAME,
        "ou": NameOID.ORGANIZATIONAL_UNIT_NAME,
        "email": NameOID.EMAIL_ADDRESS,
    }
    parts = []
    if cn is not None:
        parts.append(x509.NameAttribute(NameOID.COMMON_NAME, cn))
    for kw, value in attrs.items():
        parts.append(x509.NameAttribute(oid_by_kw[kw], value))
    return x509.Name(parts)


def patch_md5_oid(der: bytes) -> bytes:
    """Swap both sha256WithRSAEncryption OIDs for md5WithRSAEncryption."""
    if der.count(_SHA256_RSA_OID_DER) != 2:
        raise ValueError("expected exactly two signature algorithm OIDs")
    return der.replace(_SHA256_RSA_OID_DER, _MD5_RSA_OID_DER)


def make_cert(
    subject: x509.Name | str,
    issuer_cert: x509.Certificate | None = None,
    issuer_key: rsa.RSAPrivateKey | None = None,
    key: rsa.RSAPrivateKey | None = None,
    serial: int | None = None,
    not_before: int = T0 - 30 * DAY,
    not_after: int | None = None,
    days: int | None = None,
    md5: bool = False,
    ca: bool = False,
    issuer_name: x509.Name | None = None,
    pss: bool = False,
) -> tuple[bytes, rsa.RSAPrivateKey]:
    """Build one certificate; returns (der_bytes, subject_key).

    With no issuer the certificate is self-signed.  issuer_name without
    issuer_key makes the name claim an issuer while still signing with the
    subject key (a deliberately broken link for verification tests).  An
    RSA signer signs with PKCS#1 v1.5, or PSS if pss is set; an Ed25519
    signer takes no hash.
    """
    if isinstance(subject, str):
        subject = name(subject)
    if key is None:
        key = rsa_key(0)
    if days is not None:
        not_after = not_before + days * DAY
    if not_after is None:
        not_after = not_before + 395 * DAY
    if serial is None:
        serial = x509.random_serial_number()

    if issuer_cert is not None:
        signer_name = issuer_cert.subject
    elif issuer_name is not None:
        signer_name = issuer_name
    else:
        signer_name = subject
    signer_key = issuer_key if issuer_key is not None else key

    builder = (
        x509.CertificateBuilder()
        .subject_name(subject)
        .issuer_name(signer_name)
        .public_key(key.public_key())
        .serial_number(serial)
        .not_valid_before(datetime.datetime.fromtimestamp(not_before, tz=UTC))
        .not_valid_after(datetime.datetime.fromtimestamp(not_after, tz=UTC))
    )
    if ca:
        builder = builder.add_extension(
            x509.BasicConstraints(ca=True, path_length=None), critical=True
        )
    if isinstance(signer_key, ed25519.Ed25519PrivateKey):
        cert = builder.sign(signer_key, None)
    elif pss:
        pss_padding = padding.PSS(padding.MGF1(hashes.SHA256()), padding.PSS.DIGEST_LENGTH)
        cert = builder.sign(signer_key, hashes.SHA256(), rsa_padding=pss_padding)
    else:
        cert = builder.sign(signer_key, hashes.SHA256())
    der = cert.public_bytes(serialization.Encoding.DER)
    if md5:
        der = patch_md5_oid(der)
    return der, key


def tamper_signature(der: bytes) -> bytes:
    """The certificate with its signature's last byte flipped: it still
    parses, but no key verifies it."""
    return der[:-1] + bytes([der[-1] ^ 1])


def to_pem(der: bytes) -> bytes:
    return x509.load_der_x509_certificate(der).public_bytes(
        serialization.Encoding.PEM
    )


def key_pem(key: rsa.RSAPrivateKey) -> bytes:
    return key.private_bytes(
        serialization.Encoding.PEM,
        serialization.PrivateFormat.TraditionalOpenSSL,
        serialization.NoEncryption(),
    )


def _der(tag: int, content: bytes) -> bytes:
    """One DER element: a one-byte tag, the definite length, the content."""
    size = len(content)
    if size < 0x80:
        return bytes([tag, size]) + content
    width = (size.bit_length() + 7) // 8
    return bytes([tag, 0x80 | width]) + size.to_bytes(width, "big") + content


def _elements(content: bytes) -> list[tuple[int, bytes]]:
    """The (tag, content) of each DER element that content holds in a row."""
    elements, at = [], 0
    while at < len(content):
        tag, size, at = content[at], content[at + 1], at + 2
        if size & 0x80:
            width = size & 0x7F
            size, at = int.from_bytes(content[at:at + width], "big"), at + width
        elements.append((tag, content[at:at + size]))
        at += size
    return elements


def _extension(oid: str, value: bytes, critical: bool = False) -> bytes:
    """An Extension SEQUENCE for a dotted OID whose arcs after the first
    two are each below 128, with value as its extnValue's content."""
    first, second, *rest = (int(arc) for arc in oid.split("."))
    body = _der(0x06, bytes([40 * first + second, *rest]))
    return _der(0x30, body + (_der(0x01, b"\xff") if critical else b"") + _der(0x04, value))


# TBS elements of make_cert's certificates, which are v3 without extensions:
# version, serial, signature algorithm, issuer, validity, subject, key
_SERIAL, _VALIDITY, _SUBJECT = 1, 4, 5


def _put(at: int, element: tuple[int, bytes]):
    return lambda tbs: tbs[:at] + [element] + tbs[at + 1:]


def _extended(*extensions: bytes):
    return lambda tbs: tbs + [(0xA3, _der(0x30, b"".join(extensions)))]


# Certificate shapes that harvested servers serve and that cryptography's
# builder refuses to make, as edits of a self-signed certificate's TBS
# elements: the serials RFC 5280 forbids, names and dates at their limits,
# extensions whose values do not decode, and a v1 certificate, which has
# no version element and no extensions.
SHAPES = {
    "negative serial": _put(_SERIAL, (0x02, bytes.fromhex("8f1122334455"))),
    "zero serial": _put(_SERIAL, (0x02, b"\x00")),
    "21-byte serial": _put(_SERIAL, (0x02, bytes(range(1, 22)))),
    "v1": lambda tbs: tbs[1:],
    "empty subject": _put(_SUBJECT, (0x30, b"")),
    "notBefore equals notAfter": lambda tbs: _put(_VALIDITY, (
        0x30, 2 * _der(*_elements(tbs[_VALIDITY][1])[0])))(tbs),
    "garbage basicConstraints": _extended(_extension("2.5.29.19", b"garbage")),
    "garbage keyUsage": _extended(_extension("2.5.29.15", b"garbage")),
    "garbage subjectAltName": _extended(_extension("2.5.29.17", b"garbage")),
    "duplicated extension": _extended(*2 * [_extension("2.5.29.19", _der(0x30, b""))]),
    "unknown critical extension": _extended(
        _extension("1.3.6.1.4.1.99.1", _der(0x05, b""), critical=True)),
}


@functools.lru_cache(maxsize=None)
def shape_certificate(shape: str, cn: str = "shape.test") -> bytes:
    """A self-signed certificate for cn in one of SHAPES, its TBS edited and
    signed again (RSA PKCS#1 v1.5, SHA-256), so its signature verifies."""
    der, key = make_cert(cn, serial=4242, not_before=T0 - 30 * DAY, days=365)
    ((_, cert),) = _elements(der)
    (_, tbs), algorithm, _ = _elements(cert)
    tbs = _der(0x30, b"".join(_der(*element) for element in SHAPES[shape](_elements(tbs))))
    signature = key.sign(tbs, padding.PKCS1v15(), hashes.SHA256())
    return _der(0x30, tbs + _der(*algorithm) + _der(0x03, b"\x00" + signature))


# what cryptography warns, through Python's warnings, when it loads the
# negative-serial certificate of chain_corpus, or a certificate with a zero
# serial; certsift logs it instead, and then its own note on the former
NEGATIVE_SERIAL_WARNING = (
    "Parsed a serial number which wasn't positive (i.e., it was negative or zero), which is "
    "disallowed by RFC 5280. Loading this certificate will cause an exception in a future "
    "release of cryptography.")
NEGATIVE_SERIAL_NOTE = "negative serial -124171225709483 normalized to absolute value"


def record_warning(domain: str, role: str, der: bytes, message: str) -> str:
    """A certificate's parse warning as extraction logs it, naming the
    record: the domain, the certificate's role there (leaf or chain) and the
    first 16 hex digits of its SHA-256."""
    return f"{domain}: {role} certificate {hashlib.sha256(der).hexdigest()[:16]}: {message}"


@functools.lru_cache(maxsize=1)
def chain_corpus() -> tuple[tuple, bytes]:
    """(records, anchor DER): a corpus of the cases extraction must tell
    apart, every record built from this module.  Leaves chain through a
    shared intermediate (so CA links repeat) or a tampered one, or are
    self-signed, expired, not yet valid, under a root outside the store,
    served without their intermediate, or tampered; some leaves and chain certificates do not parse, one chain
    certificate carries a negative serial, one certificate and one serial
    are shared between domains, and some domains were harvested twice.
    Harvest times of one domain differ, so the newest record never ties."""
    from certsift import DomainRecord

    root_der, root_key = make_cert(name("Corpus Root", o="Test Roots"), key=rsa_key(1),
                                   ca=True, serial=1, days=3650)
    root = x509.load_der_x509_certificate(root_der)
    inter_der, inter_key = make_cert(name("Corpus Intermediate"), issuer_cert=root,
                                     issuer_key=root_key, key=rsa_key(2), ca=True,
                                     serial=2, days=1825)
    inter = x509.load_der_x509_certificate(inter_der)
    bad_inter_der, bad_inter_key = make_cert(name("Tampered Intermediate"), issuer_cert=root,
                                             issuer_key=root_key, key=rsa_key(3), ca=True,
                                             serial=3, days=1825)
    bad_inter = x509.load_der_x509_certificate(bad_inter_der)
    stray_der, stray_key = make_cert(name("Stray Root"), key=rsa_key(3), ca=True, serial=4)
    stray = x509.load_der_x509_certificate(stray_der)
    negative_der, _ = make_cert(name("Negative Intermediate"), issuer_cert=root,
                                issuer_key=root_key, key=rsa_key(2), ca=True,
                                serial=0x7F1122334455)
    at = negative_der.index(bytes.fromhex("7f1122334455"))
    negative_der = negative_der[:at] + b"\x8f" + negative_der[at + 1:]
    junk = b"\x30\x03bad"

    def leaf(domain, serial, issuer=None, key_slot=4, **kwargs):
        signer = {"issuer_cert": issuer[0], "issuer_key": issuer[1]} if issuer else {}
        return make_cert(domain, serial=serial, key=rsa_key(key_slot), **signer, **kwargs)[0]

    by_root, by_inter = (root, root_key), (inter, inter_key)
    shared = leaf("shared.test", 200, by_root)
    served = {  # domain -> (leaf DER, chain certificates after the leaf)
        **{f"inter{i}.test": (leaf(f"inter{i}.test", 100 + i, by_inter), (inter_der,))
           for i in range(6)},
        **{f"tampered-ca{i}.test": (
            leaf(f"tampered-ca{i}.test", 110 + i, (bad_inter, bad_inter_key)),
            (tamper_signature(bad_inter_der),)) for i in range(2)},
        "root.test": (leaf("root.test", 120, by_root), ()),
        "self.test": (leaf("self.test", 121), ()),
        "expired.test": (leaf("expired.test", 122, by_root, not_before=T0 - 400 * DAY,
                              days=30), ()),
        "early.test": (leaf("early.test", 123, by_inter, not_before=T0 + 10 * DAY),
                       (inter_der,)),
        "stray.test": (leaf("stray.test", 124, (stray, stray_key)), (stray_der,)),
        "orphan.test": (leaf("orphan.test", 128, by_inter), ()),
        "tampered.test": (tamper_signature(leaf("tampered.test", 125, by_root)), ()),
        "junk-leaf.test": (junk, ()),
        "junk-chain.test": (leaf("junk-chain.test", 126, by_inter), (junk, inter_der)),
        "negative-chain.test": (leaf("negative-chain.test", 127, by_inter),
                                (negative_der, inter_der)),
        "shared-a.test": (shared, ()),
        "shared-b.test": (shared, ()),
        "serial-a.test": (leaf("serial-a.test", 4242, by_root), ()),
        "serial-b.test": (leaf("serial-b.test", 4242, by_inter), (inter_der,)),
        "anchor.test": (root_der, ()),
    }
    records = [
        DomainRecord(domain=domain, http_ok=True, https_ok=True, harvest_time=T0 + i,
                     cert_der=der, presented_chain_der=(der, *chain))
        for i, (domain, (der, chain)) in enumerate(served.items())
    ]
    records += [  # older harvests, which the newest records replace
        DomainRecord(domain="inter0.test", http_ok=True, https_ok=True, harvest_time=T0 - DAY,
                     cert_der=shared, presented_chain_der=(shared,)),
        DomainRecord(domain="self.test", http_ok=True, https_ok=False, harvest_time=T0 - DAY),
        DomainRecord(domain="nocert.test", http_ok=True, https_ok=False, harvest_time=T0),
    ]
    return tuple(records), root_der
