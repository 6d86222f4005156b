"""Certificate parsing, name comparison, and chain verdicts."""

from __future__ import annotations

import hashlib

import pytest
from cryptography import x509
from cryptography.hazmat.primitives.asymmetric import x25519
from cryptography.x509.oid import NameOID

from certbuild import (
    DAY,
    T0,
    dsa_key,
    ec_key,
    ed25519_key,
    make_cert,
    name,
    patch_md5_oid,
    rsa_key,
    tamper_signature,
    to_pem,
)
from certsift import (
    DistinguishedName,
    DomainRecord,
    IssuerIndex,
    Verdict,
    dn_equal,
    extract_corpus,
    load_trust_store,
    parse_certificate,
    verify_chain,
)
from certsift import certs as certs_module
from certsift.errors import MalformedInput


class TestParseCertificate:
    def test_der_fields(self):
        der, _ = make_cert(
            name("example.com", o="Example Org", c="US"),
            serial=123456789,
            not_before=T0,
            days=365,
        )
        summary = parse_certificate(der)
        assert summary.subject.get("CN") == "example.com"
        assert summary.subject.get("O") == "Example Org"
        assert summary.subject.get("C") == "US"
        assert summary.serial == 123456789
        assert summary.signature_algorithm.name == "sha256WithRSAEncryption"
        assert summary.not_before == T0
        assert summary.not_after == T0 + 365 * DAY
        assert summary.der_bytes == der
        assert summary.fingerprint == hashlib.sha256(der).hexdigest()

    def test_pem_input_fingerprints_the_transported_der(self):
        der, _ = make_cert("pem.example")
        pem = to_pem(der).decode()
        summary = parse_certificate(pem)
        assert summary.der_bytes == der
        assert summary.fingerprint == hashlib.sha256(der).hexdigest()

    def test_pem_bytes_input(self):
        der, _ = make_cert("pemb.example")
        assert parse_certificate(to_pem(der)).der_bytes == der

    def test_md5_oid_is_reported(self):
        der, _ = make_cert("weak.example", md5=True)
        summary = parse_certificate(der)
        assert summary.signature_algorithm.oid == "1.2.840.113549.1.1.4"
        assert summary.signature_algorithm.name == "md5WithRSAEncryption"

    def test_truncated_der_rejected(self):
        der, _ = make_cert("short.example")
        with pytest.raises(MalformedInput):
            parse_certificate(der[: len(der) // 2])

    def test_garbage_rejected(self):
        with pytest.raises(MalformedInput):
            parse_certificate(b"\x00\x01\x02not a certificate")

    def test_empty_rejected(self):
        with pytest.raises(MalformedInput):
            parse_certificate(b"")

    def test_multi_block_pem_rejected(self):
        der, _ = make_cert("a.example")
        pem = to_pem(der) * 2
        with pytest.raises(MalformedInput):
            parse_certificate(pem)

    @pytest.mark.parametrize("ou", [
        "-----BEGIN CERTIFICATE-----",  # no whole block
        "-----BEGIN CERTIFICATE-----AAAA-----END CERTIFICATE-----",  # one in subject and issuer
    ])
    def test_der_holding_the_pem_armor_text_is_der(self, ou):
        der, _ = make_cert(name("evil.example", ou=ou))
        summary = parse_certificate(der)
        assert summary.subject.get("OU") == ou
        assert summary.der_bytes == der
        assert parse_certificate(to_pem(der)).der_bytes == der

    def test_fingerprint_is_lowercase_hex(self):
        der, _ = make_cert("fp.example")
        fp = parse_certificate(der).fingerprint
        assert len(fp) == 64 and fp == fp.lower()
        int(fp, 16)


class TestDnEqual:
    def test_order_does_not_matter(self):
        a = DistinguishedName((("CN", "x"), ("O", "org")))
        b = DistinguishedName((("O", "org"), ("CN", "x")))
        assert dn_equal(a, b)

    def test_values_are_trimmed(self):
        a = DistinguishedName((("CN", "  x "),))
        b = DistinguishedName((("CN", "x"),))
        assert dn_equal(a, b)

    def test_multiset_counts_matter(self):
        a = DistinguishedName((("OU", "a"), ("OU", "a")))
        b = DistinguishedName((("OU", "a"),))
        assert not dn_equal(a, b)

    def test_differing_values(self):
        a = DistinguishedName((("CN", "x"),))
        b = DistinguishedName((("CN", "y"),))
        assert not dn_equal(a, b)

    def test_case_sensitive_values(self):
        a = DistinguishedName((("CN", "X"),))
        b = DistinguishedName((("CN", "x"),))
        assert not dn_equal(a, b)


def _ca(cn: str, key_slot: int):
    der, key = make_cert(
        name(cn, o="Test Roots"), key=rsa_key(key_slot), ca=True, days=3650
    )
    cert = x509.load_der_x509_certificate(der)
    return parse_certificate(der), cert, key


@pytest.fixture(scope="module")
def root():
    return _ca("Trusted Root", 1)


@pytest.fixture(scope="module")
def other_root():
    return _ca("Unrelated Root", 2)


class TestVerifyChain:
    def test_verified_via_presented_intermediate(self, root):
        root_summary, root_cert, root_key = root
        inter_der, inter_key = make_cert(
            name("Intermediate", o="Test Roots"),
            issuer_cert=root_cert,
            issuer_key=root_key,
            key=rsa_key(3),
            ca=True,
            days=1825,
        )
        inter_cert = x509.load_der_x509_certificate(inter_der)
        leaf_der, _ = make_cert(
            "site.example", issuer_cert=inter_cert, issuer_key=inter_key, key=rsa_key(4)
        )
        outcome = verify_chain(
            parse_certificate(leaf_der),
            [parse_certificate(inter_der)],
            [root_summary],
            at_time=T0,
        )
        assert outcome.verdict is Verdict.VERIFIED
        assert outcome.ok

    def test_direct_issue_by_anchor(self, root):
        root_summary, root_cert, root_key = root
        leaf_der, _ = make_cert(
            "direct.example", issuer_cert=root_cert, issuer_key=root_key, key=rsa_key(3)
        )
        outcome = verify_chain(parse_certificate(leaf_der), [], [root_summary], T0)
        assert outcome.verdict is Verdict.VERIFIED

    def test_self_signed(self, root):
        der, _ = make_cert("selfie.example")
        outcome = verify_chain(parse_certificate(der), [], [root[0]], T0)
        assert outcome.verdict is Verdict.SELF_SIGNED

    def test_self_signed_beats_expiry(self, root):
        der, _ = make_cert("old-selfie.example", not_before=T0 - 400 * DAY, days=30)
        outcome = verify_chain(parse_certificate(der), [], [root[0]], T0)
        assert outcome.verdict is Verdict.SELF_SIGNED

    def test_untrusted_root(self, root, other_root):
        _, other_cert, other_key = other_root
        leaf_der, _ = make_cert(
            "stray.example", issuer_cert=other_cert, issuer_key=other_key, key=rsa_key(3)
        )
        outcome = verify_chain(parse_certificate(leaf_der), [], [root[0]], T0)
        assert outcome.verdict is Verdict.UNTRUSTED_ROOT

    def test_expired_leaf(self, root):
        root_summary, root_cert, root_key = root
        leaf_der, _ = make_cert(
            "stale.example",
            issuer_cert=root_cert,
            issuer_key=root_key,
            key=rsa_key(3),
            not_before=T0 - 400 * DAY,
            days=30,
        )
        outcome = verify_chain(parse_certificate(leaf_der), [], [root_summary], T0)
        assert outcome.verdict is Verdict.EXPIRED

    def test_not_yet_valid_leaf(self, root):
        root_summary, root_cert, root_key = root
        leaf_der, _ = make_cert(
            "early.example",
            issuer_cert=root_cert,
            issuer_key=root_key,
            key=rsa_key(3),
            not_before=T0 + 10 * DAY,
            days=30,
        )
        outcome = verify_chain(parse_certificate(leaf_der), [], [root_summary], T0)
        assert outcome.verdict is Verdict.NOT_YET_VALID

    def test_bad_signature(self, root):
        root_summary, _, _ = root
        # claims the trusted root as issuer but is signed by its own key
        leaf_der, _ = make_cert(
            "forged.example",
            issuer_name=name("Trusted Root", o="Test Roots"),
            key=rsa_key(3),
        )
        outcome = verify_chain(parse_certificate(leaf_der), [], [root_summary], T0)
        assert outcome.verdict is Verdict.BAD_SIGNATURE

    def test_expiry_out_ranks_bad_signature(self, root):
        root_summary, _, _ = root
        leaf_der, _ = make_cert(
            "forged-stale.example",
            issuer_name=name("Trusted Root", o="Test Roots"),
            key=rsa_key(3),
            not_before=T0 - 400 * DAY,
            days=30,
        )
        outcome = verify_chain(parse_certificate(leaf_der), [], [root_summary], T0)
        assert outcome.verdict is Verdict.EXPIRED

    def test_duplicate_presented_certificates_malformed(self, root):
        root_summary, root_cert, root_key = root
        inter_der, inter_key = make_cert(
            name("Dup Intermediate", o="Test Roots"),
            issuer_cert=root_cert,
            issuer_key=root_key,
            key=rsa_key(3),
            ca=True,
        )
        inter_cert = x509.load_der_x509_certificate(inter_der)
        leaf_der, _ = make_cert(
            "dup.example", issuer_cert=inter_cert, issuer_key=inter_key, key=rsa_key(4)
        )
        inter = parse_certificate(inter_der)
        outcome = verify_chain(
            parse_certificate(leaf_der), [inter, inter], [root_summary], T0
        )
        assert outcome.verdict is Verdict.MALFORMED_CHAIN

    def test_issuer_loop_malformed(self, root):
        # A claims B as issuer, B claims A; neither reaches the store
        key_a, key_b = rsa_key(3), rsa_key(4)
        a_der, _ = make_cert(
            name("Loop A"), issuer_name=name("Loop B"), key=key_a
        )
        b_der, _ = make_cert(
            name("Loop B"), issuer_name=name("Loop A"), key=key_b
        )
        leaf_der, _ = make_cert(
            "loop.example", issuer_name=name("Loop A"), key=rsa_key(5)
        )
        outcome = verify_chain(
            parse_certificate(leaf_der),
            [parse_certificate(a_der), parse_certificate(b_der)],
            [root[0]],
            T0,
        )
        assert outcome.verdict is Verdict.MALFORMED_CHAIN

    def test_anchor_served_as_leaf_verifies(self, root):
        root_summary, _, _ = root
        outcome = verify_chain(root_summary, [], [root_summary], T0)
        assert outcome.verdict is Verdict.VERIFIED
        assert "path length 1" in outcome.detail

    def test_md5_patched_signature_is_bad(self, root):
        root_summary, root_cert, root_key = root
        # OID patching invalidates the signature bytes' meaning
        leaf_der, _ = make_cert(
            "weakling.example",
            issuer_cert=root_cert,
            issuer_key=root_key,
            key=rsa_key(3),
            md5=True,
        )
        outcome = verify_chain(parse_certificate(leaf_der), [], [root_summary], T0)
        assert outcome.verdict is Verdict.BAD_SIGNATURE

    @pytest.mark.parametrize("signer_first", [False, True])
    def test_first_anchor_with_issuer_subject_is_chosen(self, signer_first):
        # two anchors share a subject; only the second signed the leaf
        twin = name("Twin Root", o="Test Roots")
        first, _ = make_cert(twin, key=rsa_key(1), ca=True)
        signer_der, signer_key = make_cert(twin, key=rsa_key(2), ca=True)
        leaf_der, _ = make_cert(
            "twin.example", issuer_name=twin, issuer_key=signer_key, key=rsa_key(3)
        )
        anchors = [parse_certificate(first), parse_certificate(signer_der)]
        if signer_first:
            anchors.reverse()
        outcome = verify_chain(parse_certificate(leaf_der), [], anchors, T0)
        want = Verdict.VERIFIED if signer_first else Verdict.BAD_SIGNATURE
        assert outcome.verdict is want

    @pytest.mark.parametrize("signer_first", [False, True])
    def test_first_presented_with_issuer_subject_is_chosen(self, root, signer_first):
        root_summary, root_cert, root_key = root
        twin = name("Twin Intermediate", o="Test Roots")
        inters = [
            make_cert(twin, issuer_cert=root_cert, issuer_key=root_key,
                      key=rsa_key(slot), ca=True)[0]
            for slot in (3, 4)
        ]
        leaf_der, _ = make_cert(
            "twin-inter.example", issuer_name=twin, issuer_key=rsa_key(4), key=rsa_key(5)
        )
        presented = [parse_certificate(der) for der in inters]
        if signer_first:
            presented.reverse()
        outcome = verify_chain(parse_certificate(leaf_der), presented, [root_summary], T0)
        want = Verdict.VERIFIED if signer_first else Verdict.BAD_SIGNATURE
        assert outcome.verdict is want

    def test_anchor_found_despite_attribute_order_and_spaces(self):
        spaced = x509.Name([
            x509.NameAttribute(NameOID.ORGANIZATION_NAME, " Test Roots"),
            x509.NameAttribute(NameOID.COMMON_NAME, "Spaced Root  "),
        ])
        anchor_der, anchor_key = make_cert(spaced, key=rsa_key(1), ca=True)
        leaf_der, _ = make_cert(
            "spaced.example",
            issuer_name=name("Spaced Root", o="Test Roots"),
            issuer_key=anchor_key,
            key=rsa_key(3),
        )
        outcome = verify_chain(
            parse_certificate(leaf_der), [], [parse_certificate(anchor_der)], T0
        )
        # the link follows the name rule; only the signature is checked on it
        assert outcome.verdict is Verdict.VERIFIED

    # signing key and make_cert options of each signature algorithm checked
    SIGNERS = {
        "rsa-pkcs1v15": (lambda: rsa_key(1), {}),
        "rsa-pss": (lambda: rsa_key(1), {"pss": True}),
        "ecdsa-p256": (ec_key, {}),
        "ed25519": (ed25519_key, {}),
        "dsa": (dsa_key, {}),
    }

    @pytest.mark.parametrize("tampered", [False, True])
    @pytest.mark.parametrize("algorithm", sorted(SIGNERS))
    def test_signature_checked_for_each_algorithm(self, algorithm, tampered):
        make_key, options = self.SIGNERS[algorithm]
        anchor_key = make_key()
        anchor_der, _ = make_cert(
            name("Algorithm Root", o="Test Roots"), key=anchor_key, ca=True, **options
        )
        leaf_der, _ = make_cert(
            "algorithm.example",
            issuer_cert=x509.load_der_x509_certificate(anchor_der),
            issuer_key=anchor_key,
            key=rsa_key(3),
            **options,
        )
        if tampered:
            leaf_der = tamper_signature(leaf_der)
        outcome = verify_chain(
            parse_certificate(leaf_der), [], [parse_certificate(anchor_der)], T0
        )
        assert outcome.verdict is (Verdict.BAD_SIGNATURE if tampered else Verdict.VERIFIED)

    def test_issuer_key_that_cannot_sign_is_bad_signature(self, root):
        root_summary, root_cert, root_key = root
        ca_der, _ = make_cert(
            name("X25519 Intermediate"),
            issuer_cert=root_cert,
            issuer_key=root_key,
            key=x25519.X25519PrivateKey.generate(),
            ca=True,
        )
        # claims the X25519 CA as issuer; no signature verifies under its key
        leaf_der, _ = make_cert(
            "x25519.example", issuer_name=name("X25519 Intermediate"), key=rsa_key(3)
        )
        outcome = verify_chain(
            parse_certificate(leaf_der), [parse_certificate(ca_der)], [root_summary], T0
        )
        assert outcome.verdict is Verdict.BAD_SIGNATURE
        assert "'CN=X25519 Intermediate'" in outcome.detail

    def test_path_longer_than_sixteen_is_malformed(self, root):
        root_summary, issuer_cert, issuer_key = root
        presented = []
        for depth in range(17):
            der, issuer_key = make_cert(
                name(f"Deep Intermediate {depth}"),
                issuer_cert=issuer_cert,
                issuer_key=issuer_key,
                key=rsa_key(3),
                ca=True,
            )
            issuer_cert = x509.load_der_x509_certificate(der)
            presented.append(parse_certificate(der))
        leaf_der, _ = make_cert(
            "deep.example", issuer_cert=issuer_cert, issuer_key=issuer_key, key=rsa_key(4)
        )
        outcome = verify_chain(parse_certificate(leaf_der), presented, [root_summary], T0)
        assert outcome.verdict is Verdict.MALFORMED_CHAIN
        assert outcome.detail == "path longer than 16"

    def test_anchor_leaf_whose_self_signature_fails(self):
        anchor_der, _ = make_cert(name("Tampered Root", o="Test Roots"), key=rsa_key(1), ca=True)
        anchor = parse_certificate(tamper_signature(anchor_der))
        outcome = verify_chain(anchor, [], [anchor], T0)
        assert outcome.verdict is Verdict.BAD_SIGNATURE
        assert outcome.detail == "trust anchor self-signature does not verify"

    def test_empty_trust_store_is_untrusted(self):
        root_summary, root_cert, root_key = _ca("Lonely Root", 1)
        leaf_der, _ = make_cert(
            "lonely.example", issuer_cert=root_cert, issuer_key=root_key, key=rsa_key(3)
        )
        outcome = verify_chain(parse_certificate(leaf_der), [], [], T0)
        assert outcome.verdict is Verdict.UNTRUSTED_ROOT


@pytest.fixture
def checked_links(monkeypatch):
    """Every (child, parent) fingerprint pair whose signature gets checked."""
    calls = []
    real = certs_module._signature_valid

    def counting(child, parent):
        calls.append((child.fingerprint, parent.fingerprint))
        return real(child, parent)

    monkeypatch.setattr(certs_module, "_signature_valid", counting)
    return calls


def _intermediate(root, subject="Memo Intermediate", key_slot=3, tampered=False):
    """An intermediate issued by root: (summary, certificate, key)."""
    _, root_cert, root_key = root
    der, key = make_cert(
        name(subject, o="Test Roots"),
        issuer_cert=root_cert,
        issuer_key=root_key,
        key=rsa_key(key_slot),
        ca=True,
        days=1825,
    )
    cert = x509.load_der_x509_certificate(der)
    if tampered:
        der = tamper_signature(der)
    return parse_certificate(der), cert, key


def _leaves(issuer, count, key_slot=4):
    _, issuer_cert, issuer_key = issuer
    return [
        parse_certificate(
            make_cert(f"memo{i}.example", issuer_cert=issuer_cert,
                      issuer_key=issuer_key, key=rsa_key(key_slot))[0]
        )
        for i in range(count)
    ]


class TestLinkMemo:
    """The anchors' IssuerIndex checks each link above the leaf once."""

    def test_leaves_sharing_an_intermediate_check_it_once(self, root, checked_links):
        inter = _intermediate(root)
        records = [
            DomainRecord(
                domain=f"memo{i}.example", http_ok=True, https_ok=True, harvest_time=T0,
                cert_der=leaf.der_bytes,
                presented_chain_der=(leaf.der_bytes, inter[0].der_bytes),
            )
            for i, leaf in enumerate(_leaves(inter, 3))
        ]
        vectors = extract_corpus(records, [root[0]])
        assert [v.f5 for v in vectors] == [False] * 3
        # three leaf links, and the intermediate's link once, not three times
        assert len(checked_links) == 4
        assert checked_links.count((inter[0].fingerprint, root[0].fingerprint)) == 1

    def test_bad_intermediate_link_is_checked_once(self, root, checked_links):
        inter = _intermediate(root, "Tampered Intermediate", tampered=True)
        anchors = IssuerIndex([root[0]])
        outcomes = [
            verify_chain(leaf, [inter[0]], anchors, T0) for leaf in _leaves(inter, 2)
        ]
        assert [o.verdict for o in outcomes] == [Verdict.BAD_SIGNATURE] * 2
        assert outcomes[0].detail == outcomes[1].detail
        assert "Tampered Intermediate" in outcomes[0].detail
        assert checked_links.count((inter[0].fingerprint, root[0].fingerprint)) == 1

    def test_one_child_under_twin_parents(self, root):
        # two presented parents share a subject; only the first signed the child
        signer = _intermediate(root, "Twin Parent", key_slot=3)
        other = _intermediate(root, "Twin Parent", key_slot=5)
        child = _intermediate(signer, "Memo Child", key_slot=6)
        leaf = _leaves(child, 1)[0]
        anchors = IssuerIndex([root[0]])
        first = verify_chain(leaf, [child[0], signer[0]], anchors, T0)
        second = verify_chain(leaf, [child[0], other[0]], anchors, T0)
        assert first.verdict is Verdict.VERIFIED
        assert second.verdict is Verdict.BAD_SIGNATURE
        assert "Memo Child" in second.detail

    def test_memo_holds_no_leaf_link(self, root):
        inter = _intermediate(root)
        leaves = _leaves(inter, 2) + _leaves(root, 1)
        anchors = IssuerIndex([root[0]])
        for leaf in leaves:
            assert verify_chain(leaf, [inter[0]], anchors, T0).ok
        assert verify_chain(root[0], [], anchors, T0).ok  # an anchor served as leaf
        assert anchors.link_verdicts == {
            (inter[0].fingerprint, root[0].fingerprint): True,
            (root[0].fingerprint, root[0].fingerprint): True,
        }


class TestTrustStore:
    def test_load_bundle(self, tmp_path, root, other_root):
        bundle = tmp_path / "anchors.pem"
        bundle.write_bytes(to_pem(root[0].der_bytes) + to_pem(other_root[0].der_bytes))
        anchors = load_trust_store(str(bundle))
        assert [a.fingerprint for a in anchors] == [
            root[0].fingerprint,
            other_root[0].fingerprint,
        ]

    def test_text_outside_the_armor_may_be_any_bytes(self, tmp_path, root):
        # RFC 7468 section 2: explanatory text around a block is not decoded
        bundle = tmp_path / "anchors.pem"
        bundle.write_bytes(b"caf\xe9 \xff\n" + to_pem(root[0].der_bytes) + b"\x80\n")
        assert [a.fingerprint for a in load_trust_store(str(bundle))] == [root[0].fingerprint]

    def test_empty_bundle_rejected(self, tmp_path):
        empty = tmp_path / "nothing.pem"
        empty.write_text("no anchors here\n", encoding="utf-8")
        with pytest.raises(MalformedInput):
            load_trust_store(str(empty))
