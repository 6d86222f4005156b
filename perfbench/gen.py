"""Seeded inputs for the benchmark workloads, with their ground truth.

Everything here is a pure function of the workload seed: certificates are
signed with Ed25519 keys derived from the seed (Ed25519 signatures are
deterministic) and the one RSA key, needed for MD5-OID leaves, is built
from seeded primes.  The same seed therefore yields byte-identical corpora,
trust stores, farm certificates and domain lists.

Ground truth is what the generator intended, computed without certsift:
the feature rows below come from the plan of each certificate, and f15
from an independent bigram-Jaccard oracle.
"""

from __future__ import annotations

import base64
import csv
import datetime
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field

from cryptography import x509
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ed25519, rsa
from cryptography.x509.oid import NameOID

UTC = datetime.timezone.utc
DAY = 86400
# Fixed epoch so validity windows, harvest times and therefore the feature
# CSV are byte-reproducible from the seed alone.
T0 = int(datetime.datetime(2024, 6, 1, 12, 0, 0, tzinfo=UTC).timestamp())

MISSING = "JustNone"
BOGUS = frozenset({
    "--", "somestate", "somecity", "someorganization", "someorganizationalunit",
    "localhost", "internet widgits pty ltd", "some-state", "default city",
    "example", "test",
})
_SHA256_RSA_OID_DER = bytes.fromhex("06092a864886f70d01010b")
_MD5_RSA_OID_DER = bytes.fromhex("06092a864886f70d010104")

_COUNTRIES = ("US", "DE", "GB", "FR", "NL", "JP", "CN", "RU", "BR", "AU", "CA", "IT")
_WORDS = (
    "alpha", "bravo", "cedar", "delta", "ember", "falcon", "garnet", "harbor",
    "iris", "juniper", "kestrel", "lumen", "maple", "nimbus", "onyx", "pioneer",
    "quartz", "raven", "summit", "tundra", "umber", "vertex", "willow", "zephyr",
)
_TLDS = ("com", "net", "org", "info", "biz", "de", "co.uk", "ru")
_VALIDITY_DAYS = (90, 365, 398, 730, 1095, 1096, 1825, 3650)


# --- key material --------------------------------------------------------


def ed_key(rng: random.Random) -> ed25519.Ed25519PrivateKey:
    return ed25519.Ed25519PrivateKey.from_private_bytes(rng.randbytes(32))


def _probable_prime(n: int, rng: random.Random) -> bool:
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for _ in range(24):
        x = pow(rng.randrange(2, n - 2), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def rsa_key(rng: random.Random, bits: int = 1024) -> rsa.RSAPrivateKey:
    """An RSA key from seeded primes (cryptography cannot seed its own)."""
    e = 65537

    def prime() -> int:
        while True:
            n = rng.getrandbits(bits // 2) | (3 << (bits // 2 - 2)) | 1
            if math.gcd(e, n - 1) == 1 and _probable_prime(n, rng):
                return n

    p, q = prime(), prime()
    while q == p:
        q = prime()
    d = pow(e, -1, (p - 1) * (q - 1))
    return rsa.RSAPrivateNumbers(
        p, q, d, rsa.rsa_crt_dmp1(d, p), rsa.rsa_crt_dmq1(d, q),
        rsa.rsa_crt_iqmp(p, q), rsa.RSAPublicNumbers(e, p * q),
    ).private_key()


def dn(attrs: tuple[tuple[str, str], ...]) -> x509.Name:
    oids = {
        "CN": NameOID.COMMON_NAME, "O": NameOID.ORGANIZATION_NAME,
        "C": NameOID.COUNTRY_NAME, "ST": NameOID.STATE_OR_PROVINCE_NAME,
        "OU": NameOID.ORGANIZATIONAL_UNIT_NAME,
    }
    return x509.Name([x509.NameAttribute(oids[k], v) for k, v in attrs])


def first(attrs: tuple[tuple[str, str], ...], kind: str) -> str:
    for k, v in attrs:
        if k == kind and v.strip():
            return v
    return MISSING


def make_cert(
    subject: tuple[tuple[str, str], ...],
    issuer: tuple[tuple[str, str], ...],
    public_key,
    signer,
    serial: int,
    not_before: int,
    not_after: int,
    ca: bool = False,
    md5: bool = False,
) -> bytes:
    """DER of one certificate; md5 needs an RSA signer and patches both OIDs."""
    builder = (
        x509.CertificateBuilder()
        .subject_name(dn(subject))
        .issuer_name(dn(issuer))
        .public_key(public_key)
        .serial_number(serial)
        .not_valid_before(datetime.datetime.fromtimestamp(not_before, tz=UTC))
        .not_valid_after(datetime.datetime.fromtimestamp(not_after, tz=UTC))
    )
    if ca:
        builder = builder.add_extension(
            x509.BasicConstraints(ca=True, path_length=None), critical=True
        )
    algorithm = hashes.SHA256() if isinstance(signer, rsa.RSAPrivateKey) else None
    der = builder.sign(signer, algorithm).public_bytes(serialization.Encoding.DER)
    if md5:
        if der.count(_SHA256_RSA_OID_DER) != 2:
            raise ValueError("expected exactly two signature algorithm OIDs")
        der = der.replace(_SHA256_RSA_OID_DER, _MD5_RSA_OID_DER)
    return der


def pem(der: bytes) -> bytes:
    body = base64.encodebytes(der).replace(b"\n", b"")
    lines = [body[i : i + 64] for i in range(0, len(body), 64)]
    return b"-----BEGIN CERTIFICATE-----\n" + b"\n".join(lines) + b"\n-----END CERTIFICATE-----\n"


# --- the f15 oracle --------------------------------------------------------


def _normalize(name: str) -> str:
    text = name.strip().lower().rstrip(".")
    for prefix in ("www.", "*."):
        if text.startswith(prefix):
            return text[len(prefix) :]
    return text


def similarity(domain: str, cn: str) -> float:
    """Bigram Jaccard of the normalized names (README, feature f15)."""
    def grams(text: str) -> set[str]:
        return set(text) if len(text) < 2 else {text[i : i + 2] for i in range(len(text) - 1)}

    a, b = grams(_normalize(domain)), grams(_normalize(cn))
    union = len(a | b)
    return 1.0 if union == 0 else len(a & b) / union


# --- the certificate corpus (extract-classify) ---------------------------


@dataclass
class _CA:
    name: tuple[tuple[str, str], ...]
    key: ed25519.Ed25519PrivateKey
    der: bytes
    parent: "_CA | None" = None


@dataclass
class _Leaf:
    """One served certificate and what the generator meant it to be."""

    der: bytes
    serial: int
    subject: tuple[tuple[str, str], ...]
    issuer: tuple[tuple[str, str], ...]
    not_before: int
    not_after: int
    md5: bool
    chain_ok: bool  # the presented chain reaches an anchor; validity windows aside
    chain: list[bytes]  # presented chain, leaf first when present
    fraud_bias: float  # probability of a fraud label in training rows

    @property
    def fingerprint(self) -> str:
        return hashlib.sha256(self.der).hexdigest()


@dataclass
class Corpus:
    trust_pem: bytes
    lines: list[str]  # NDJSON records, in file order
    expected: dict[str, list[str]]  # domain -> feature CSV fields f1..f15
    labels: dict[str, str] = field(default_factory=dict)  # training label per domain

    def training_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["domain"] + [f"f{i}" for i in range(1, 16)] + ["label"])
        for domain in sorted(self.expected):
            writer.writerow([domain, *self.expected[domain], self.labels[domain]])
        return out.getvalue()


def _ca_tree(rng: random.Random, anchors: int, intermediates: int, unknown: int):
    nb, na = T0 - 10 * 365 * DAY, T0 + 15 * 365 * DAY
    roots, inters, strangers = [], [], []
    for i in range(anchors):
        word = _WORDS[i % len(_WORDS)].capitalize()
        name = (("C", rng.choice(_COUNTRIES)), ("O", f"{word} Trust {i}"), ("CN", f"{word} Root CA {i}"))
        key = ed_key(rng)
        der = make_cert(name, name, key.public_key(), key, 1000 + i, nb, na, ca=True)
        roots.append(_CA(name, key, der))
    for i in range(intermediates):
        parent = rng.choice(roots)
        name = (("C", first(parent.name, "C")), ("O", first(parent.name, "O")),
                ("CN", f"{first(parent.name, 'O')} Issuing CA {i}"))
        key = ed_key(rng)
        der = make_cert(name, parent.name, key.public_key(), parent.key, 5000 + i, nb, na, ca=True)
        inters.append(_CA(name, key, der, parent))
    for i in range(unknown):
        name = (("O", f"Shady Certs {i}"), ("CN", f"Shady Root {i}"))
        key = ed_key(rng)
        der = make_cert(name, name, key.public_key(), key, 9000 + i, nb, na, ca=True)
        strangers.append(_CA(name, key, der))
    return roots, inters, strangers


# Profiles of a served certificate: (name, weight, fraud bias).  Together
# they reach all seven verdicts of certsift.Verdict.
_PROFILES = (
    ("anchor", 0.24, 0.1),  # issued by an anchor -> Verified
    ("intermediate", 0.22, 0.1),  # anchor -> intermediate -> leaf -> Verified
    ("no_intermediate", 0.03, 0.4),  # intermediate not presented -> UntrustedRoot
    ("unknown", 0.08, 0.6),  # unknown issuer -> UntrustedRoot
    ("unknown_root", 0.02, 0.6),  # untrusted root presented -> MalformedChain (loop)
    ("self_signed", 0.12, 0.7),  # SelfSigned
    ("expired", 0.06, 0.5),  # Expired
    ("not_yet_valid", 0.02, 0.5),  # NotYetValid
    ("bad_signature", 0.03, 0.6),  # claims an anchor, other key -> BadSignature
    ("md5", 0.06, 0.8),  # MD5 OID: self-signed or claims an anchor
    ("duplicate_chain", 0.02, 0.5),  # intermediate presented twice -> MalformedChain
    ("torn_chain", 0.02, 0.2),  # unparseable chain member, still Verified
    ("shared_serial", 0.04, 0.7),  # reuses another leaf's serial -> f7
    ("shared_cert", 0.04, 0.7),  # serves another domain's exact leaf -> f6, f7
)


def generate_corpus(seed: int, n_records: int, anchors: int = 150, stream: str = "corpus") -> Corpus:
    """A harvested corpus of about n_records NDJSON lines, plus trust store.

    Besides the profiles above, some domains carry placeholder subjects,
    some were probed twice (only the newest record counts), some newest
    records hold no certificate and some hold unparseable bytes.
    """
    rng = random.Random(f"{stream}:{seed}")
    roots, inters, strangers = _ca_tree(rng, anchors, max(4, anchors // 5), 10)
    leaf_keys = [ed_key(rng) for _ in range(8)]
    md5_key = rsa_key(rng)
    names = [p[0] for p in _PROFILES]
    weights = [p[1] for p in _PROFILES]
    bias = {p[0]: p[2] for p in _PROFILES}

    served: list[_Leaf] = []
    records: list[tuple[str, int, _Leaf | None | bytes, bool]] = []
    serials: set[int] = set()

    def fresh_serial() -> int:
        while True:
            s = rng.getrandbits(rng.choice((16, 32, 64, 96, 128, 159))) or 1
            if s not in serials:
                serials.add(s)
                return s

    def subject_for(domain: str) -> tuple[tuple[str, str], ...]:
        attrs: list[tuple[str, str]] = []
        if rng.random() < 0.6:
            attrs.append(("C", rng.choice(_COUNTRIES)))
        if rng.random() < 0.1:
            attrs += [("ST", "Some-State"), ("O", "Internet Widgits Pty Ltd")]
        elif rng.random() < 0.5:
            attrs.append(("O", f"{rng.choice(_WORDS).capitalize()} Ltd"))
        cn = rng.random()
        if cn < 0.45:
            attrs.append(("CN", domain))
        elif cn < 0.65:
            attrs.append(("CN", "www." + domain))
        elif cn < 0.8:
            attrs.append(("CN", "*." + domain))
        elif cn < 0.95:
            attrs.append(("CN", f"{rng.choice(_WORDS)}-{rng.randrange(999)}.{rng.choice(_TLDS)}"))
        if not attrs:
            attrs.append(("OU", "ops"))
        return tuple(attrs)

    def leaf(domain: str, harvest: int, profile: str) -> _Leaf:
        if profile == "shared_cert":
            if served:
                return rng.choice(served)
            profile = "anchor"  # nothing served yet to share
        subject = subject_for(domain)
        days = rng.choice(_VALIDITY_DAYS)
        not_before = harvest - rng.randrange(1, min(days, 365)) * DAY - rng.randrange(DAY)
        if profile == "expired":
            not_before = harvest - (days + rng.randrange(1, 400)) * DAY
        elif profile == "not_yet_valid":
            not_before = harvest + rng.randrange(1, 30) * DAY
        not_after = not_before + days * DAY + rng.randrange(DAY)
        serial = fresh_serial()
        if profile == "shared_serial" and served:
            serial = rng.choice(served).serial
        pub, md5, chain_ok = rng.choice(leaf_keys).public_key(), False, False
        intermediate = None
        if profile in ("intermediate", "no_intermediate", "duplicate_chain", "torn_chain"):
            intermediate = rng.choice(inters)
            issuer, signer = intermediate.name, intermediate.key
            chain_ok = profile in ("intermediate", "torn_chain")
        elif profile in ("unknown", "unknown_root"):
            stranger = rng.choice(strangers)
            issuer, signer = stranger.name, stranger.key
        elif profile == "self_signed":
            key = rng.choice(leaf_keys)
            issuer, signer, pub = subject, key, key.public_key()
        elif profile == "md5":
            issuer = subject if rng.random() < 0.5 else rng.choice(roots).name
            signer, pub, md5 = md5_key, md5_key.public_key(), True
        elif profile == "bad_signature":
            issuer, signer = rng.choice(roots).name, rng.choice(leaf_keys)
        else:  # anchor, expired, not_yet_valid, shared_serial
            root = rng.choice(roots)
            issuer, signer = root.name, root.key
            chain_ok = True
        der = make_cert(subject, issuer, pub, signer, serial, not_before, not_after, md5=md5)
        chain = [der] if rng.random() < 0.8 else []
        if profile == "intermediate":
            chain.append(intermediate.der)
            if rng.random() < 0.3:
                chain.append(intermediate.parent.der)
        elif profile == "duplicate_chain":
            chain += [intermediate.der, intermediate.der]
        elif profile == "torn_chain":
            chain += [b"\x30\x82\x01\x00torn", intermediate.der]
        elif profile == "unknown_root":
            chain.append(stranger.der)
        elif profile == "anchor" and rng.random() < 0.3:
            chain.append(root.der)
        return _Leaf(der, serial, subject, issuer, not_before, not_after, md5,
                     chain_ok, chain, bias[profile])

    i = 0
    while len(records) < n_records:
        domain = f"{rng.choice(_WORDS)}{rng.choice(_WORDS)}{i}.{rng.choice(_TLDS)}"
        i += 1
        harvest = T0 + rng.randrange(30 * DAY)
        if rng.random() < 0.08:  # probed before: an older record that no longer counts
            older = harvest - rng.randrange(1, 60) * DAY
            records.append((domain, older, leaf(domain, older, rng.choice(names)), False))
        outcome = rng.random()
        if outcome < 0.06:
            records.append((domain, harvest, None, rng.random() < 0.5))
        elif outcome < 0.09:
            records.append((domain, harvest, rng.randbytes(rng.randrange(8, 64)), False))
        else:
            served_leaf = leaf(domain, harvest, rng.choices(names, weights)[0])
            served.append(served_leaf)
            records.append((domain, harvest, served_leaf, False))

    latest: dict[str, tuple[int, _Leaf | None | bytes]] = {}
    for domain, harvest, cert, _ in records:
        latest[domain] = (harvest, cert)
    counted = {d: (h, c) for d, (h, c) in latest.items() if isinstance(c, _Leaf)}
    by_fp: dict[str, set[str]] = {}
    by_serial: dict[int, set[tuple[str, str]]] = {}
    for domain, (_, c) in counted.items():
        by_fp.setdefault(c.fingerprint, set()).add(domain)
        by_serial.setdefault(c.serial, set()).add((domain, c.fingerprint))

    expected: dict[str, list[str]] = {}
    labels: dict[str, str] = {}
    for domain, (harvest, c) in counted.items():
        days = (c.not_after - c.not_before) // DAY
        self_signed = sorted(c.subject) == sorted(c.issuer)
        in_window = c.not_before <= harvest <= c.not_after
        row = [
            c.md5,
            any(v.strip().lower() in BOGUS for _, v in c.subject),
            self_signed,
            harvest > c.not_after,
            not (c.chain_ok and in_window),
            len(by_fp[c.fingerprint]) >= 2,
            len(by_serial[c.serial]) >= 2,
            days > 1095,
        ]
        expected[domain] = ["1" if b else "0" for b in row] + [
            first(c.issuer, "CN"), first(c.issuer, "O"), first(c.issuer, "C"),
            first(c.subject, "C"), str(days), str(len(str(c.serial))),
            f"{similarity(domain, first(c.subject, 'CN')):.6f}",
        ]
        labels[domain] = "pos" if rng.random() < c.fraud_bias else "neg"

    lines = []
    for domain, harvest, cert, http_ok in records:
        doc = {
            "domain": domain,
            "http_ok": http_ok or cert is not None,
            "https_ok": cert is not None,
            "harvest_time": datetime.datetime.fromtimestamp(harvest, tz=UTC).strftime("%Y-%m-%dT%H:%M:%SZ"),
        }
        if cert is not None:
            der = cert.der if isinstance(cert, _Leaf) else cert
            doc["cert_der_b64"] = base64.b64encode(der).decode("ascii")
            if isinstance(cert, _Leaf) and cert.chain:
                doc["chain_der_b64"] = [base64.b64encode(d).decode("ascii") for d in cert.chain]
        lines.append(json.dumps(doc, separators=(",", ":")))
    trust = b"".join(pem(r.der) for r in roots)
    return Corpus(trust, lines, expected, labels)


# --- the loopback farm (probe-loopback) ----------------------------------

FARM_ADDRESSES = {
    "both": "127.0.1.1",
    "https_only": "127.0.1.2",
    "http_only": "127.0.1.3",
    "neither": "127.0.1.4",
}
_KIND_WEIGHTS = {"both": 0.4, "https_only": 0.25, "http_only": 0.2, "neither": 0.15}


@dataclass
class FarmPlan:
    domains: list[str]
    kinds: dict[str, str]  # domain -> category
    leaf_fp: dict[str, str]  # category -> SHA-256 of the served leaf
    chain_fps: dict[str, list[str]]  # category -> SHA-256 of the presented chain
    pems: dict[str, bytes]  # category -> PEM chain followed by PKCS#8 key


def generate_farm(seed: int, n_domains: int) -> FarmPlan:
    """Hostnames over four kinds of loopback host, and the hosts' certificates."""
    rng = random.Random(f"farm:{seed}")
    now = T0
    root_key, both_key, tls_key = ed_key(rng), ed_key(rng), ed_key(rng)
    root = (("O", "Farm"), ("CN", "Farm Root CA"))
    root_der = make_cert(root, root, root_key.public_key(), root_key, 1, now - 30 * DAY, now + 7300 * DAY, ca=True)
    both = (("CN", "both.farm"),)
    both_der = make_cert(both, both, both_key.public_key(), both_key, 2, now - 30 * DAY, now + 7300 * DAY)
    tls = (("CN", "tls.farm"),)
    tls_der = make_cert(tls, root, tls_key.public_key(), root_key, 3, now - 30 * DAY, now + 7300 * DAY)

    def key_pem(key) -> bytes:
        return key.private_bytes(serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8,
                                 serialization.NoEncryption())

    def sha(der: bytes) -> str:
        return hashlib.sha256(der).hexdigest()

    kinds = {}
    domains = []
    for i in range(n_domains):
        domain = f"{rng.choice(_WORDS)}-{i}.{rng.choice(('test', 'farm', 'example'))}"
        kinds[domain] = rng.choices(list(_KIND_WEIGHTS), list(_KIND_WEIGHTS.values()))[0]
        domains.append(domain)
    return FarmPlan(
        domains=domains,
        kinds=kinds,
        leaf_fp={"both": sha(both_der), "https_only": sha(tls_der)},
        chain_fps={"both": [sha(both_der)], "https_only": [sha(tls_der), sha(root_der)]},
        pems={
            "both": pem(both_der) + key_pem(both_key),
            "https_only": pem(tls_der) + pem(root_der) + key_pem(tls_key),
        },
    )
