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
