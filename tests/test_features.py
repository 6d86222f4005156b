"""Feature semantics: the fifteen per-certificate signals."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import logging
import os
import pickle
import re
import sys
import threading

import pytest
from cryptography import x509

from certbuild import (
    DAY,
    NEGATIVE_SERIAL_NOTE,
    NEGATIVE_SERIAL_WARNING,
    T0,
    chain_corpus,
    make_cert,
    name,
    record_warning,
    rsa_key,
    shape_certificate,
)
from certsift import (
    BogusValueList,
    DomainRecord,
    FeatureVector,
    build_corpus_index,
    extract_corpus,
    extract_features,
    jaccard,
    normalize_hostname,
    parse_certificate,
    read_features_csv,
    serial_digit_count,
    write_features_csv,
)
from certsift import certs, features, parts
from certsift.certs import IssuerIndex
from certsift.errors import IndexMismatch, SerializationFailure
from certsift.features import (
    BOOLEAN_FEATURES,
    CATEGORICAL_FEATURES,
    CSV_HEADER,
    FEATURE_KINDS,
    FEATURE_NAMES,
    MISSING,
    NUMERIC_FEATURES,
    is_bogus_subject,
)


class TestNormalizeHostname:
    def test_lower_trim_dot_and_www(self):
        assert normalize_hostname(" WWW.Example.COM. ") == "example.com"

    def test_wildcard_label_dropped(self):
        assert normalize_hostname("*.example.com") == "example.com"

    def test_inner_labels_untouched(self):
        assert normalize_hostname("mail.example.com") == "mail.example.com"

    def test_only_one_leading_label_dropped(self):
        assert normalize_hostname("www.www.example.com") == "www.example.com"

    def test_identity(self):
        assert normalize_hostname("plain.example") == "plain.example"


class TestJaccard:
    def test_identical_strings(self):
        assert jaccard("paypal.com", "paypal.com") == 1.0

    def test_disjoint_strings(self):
        assert jaccard("abc.com", "xyz.net") == 0.0

    def test_known_overlap(self):
        # bigrams of bank.com and banc.com share 5 of 9 distinct shingles
        assert jaccard("bank.com", "banc.com") == 5 / 9

    def test_symmetry(self):
        assert jaccard("aaab", "abab") == jaccard("abab", "aaab")

    def test_short_string_falls_back_to_characters(self):
        # "a" is shorter than a bigram, so its shingle set is its character
        # set {a}; "ab" still shingles to {ab}, and the two are disjoint
        assert jaccard("a", "ab") == 0.0
        assert jaccard("a", "a") == 1.0
        assert jaccard("b", "ba") == 0.0

    def test_both_empty(self):
        assert jaccard("", "") == 1.0

    def test_one_empty(self):
        assert jaccard("", "abc") == 0.0

    def test_shingle_sizes(self):
        assert jaccard("abcd", "abcd", shingle_size=1) == 1.0
        assert jaccard("abcd", "bcda", shingle_size=3) == pytest.approx(1 / 3)

    def test_bad_shingle_size(self):
        with pytest.raises(ValueError):
            jaccard("a", "b", shingle_size=4)

    def test_range(self):
        import random

        rng = random.Random(7)
        alphabet = "abcdefg.-"
        for _ in range(200):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
            value = jaccard(a, b)
            assert 0.0 <= value <= 1.0
            assert jaccard(a, a) == 1.0


class TestSerialDigitCount:
    @pytest.mark.parametrize(
        "serial,expected",
        [(0, 1), (7, 1), (10, 2), (999, 3), (1000, 4), (10**38, 39), (12345, 5)],
    )
    def test_counts(self, serial, expected):
        assert serial_digit_count(serial) == expected


class TestBogusValues:
    def test_default_entries_match_case_insensitively(self):
        bogus = BogusValueList.default()
        assert bogus.matches("SomeState")
        assert bogus.matches("  Internet Widgits Pty Ltd ")
        assert bogus.matches("--")
        assert not bogus.matches("Example Corp GmbH")

    def test_subject_scan(self):
        bogus = BogusValueList.default()
        der, _ = make_cert(name("realsite.example", o="SomeOrganization", c="US"))
        assert is_bogus_subject(parse_certificate(der).subject, bogus)
        der2, _ = make_cert(name("realsite.example", o="Real Org Inc", c="US"))
        assert not is_bogus_subject(parse_certificate(der2).subject, bogus)

    def test_custom_list_from_file(self, tmp_path):
        listing = tmp_path / "bogus.txt"
        listing.write_text("Weird Placeholder\n\n  another one  \n", encoding="utf-8")
        bogus = BogusValueList.from_file(listing)
        assert bogus.matches("weird placeholder")
        assert bogus.matches("ANOTHER ONE")
        assert not bogus.matches("somestate")

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            BogusValueList.of([])


def _corpus_record(domain: str, der: bytes, time_: int = T0) -> DomainRecord:
    return DomainRecord(
        domain=domain, http_ok=True, https_ok=True, harvest_time=time_, cert_der=der
    )


def _extract_single(der: bytes, domain: str, time_: int = T0, **kwargs):
    records = [_corpus_record(domain, der, time_)]
    index = build_corpus_index(records)
    return extract_features(
        parse_certificate(der), domain, time_, index, trust_store=[], **kwargs
    )


class TestExtractFeatures:
    def test_benign_self_signed_baseline(self):
        der, _ = make_cert(
            name("plain.example", o="Plain Org", c="US"),
            serial=123456,
            not_before=T0 - 30 * DAY,
            days=365,
        )
        fv = _extract_single(der, "plain.example")
        assert fv.domain == "plain.example"
        assert not fv.f1  # sha256, not md5
        assert not fv.f2
        assert fv.f3  # self-signed
        assert not fv.f4
        assert fv.f5  # nothing verifies against an empty store
        assert not fv.f6 and not fv.f7
        assert not fv.f8
        assert fv.f9 == "plain.example"  # issuer CN == subject CN here
        assert fv.f10 == "Plain Org"
        assert fv.f11 == "US"
        assert fv.f12 == "US"
        assert fv.f13 == 365
        assert fv.f14 == 6
        assert fv.f15 == 1.0
        assert fv.label is None

    def test_f1_md5_signature(self):
        der, _ = make_cert("weak.example", md5=True)
        assert _extract_single(der, "weak.example").f1

    def test_f2_placeholder_subject(self):
        der, _ = make_cert(name("ph.example", st="SomeState"))
        assert _extract_single(der, "ph.example").f2

    def test_f3_f5_issued_certificate(self):
        ca_der, ca_key = make_cert(name("Issuing CA"), key=rsa_key(1), ca=True)
        ca_cert = x509.load_der_x509_certificate(ca_der)
        leaf_der, _ = make_cert(
            "issued.example", issuer_cert=ca_cert, issuer_key=ca_key
        )
        ca_summary = parse_certificate(ca_der)
        records = [_corpus_record("issued.example", leaf_der)]
        index = build_corpus_index(records)
        fv = extract_features(
            parse_certificate(leaf_der),
            "issued.example",
            T0,
            index,
            trust_store=[ca_summary],
        )
        assert not fv.f3
        assert not fv.f5  # verifies against the store
        fv_untrusted = extract_features(
            parse_certificate(leaf_der), "issued.example", T0, index, trust_store=[]
        )
        assert fv_untrusted.f5

    def test_f4_expired(self):
        der, _ = make_cert("late.example", not_before=T0 - 400 * DAY, days=365)
        fv = _extract_single(der, "late.example")
        assert fv.f4
        # and f5 follows, since an expired chain cannot verify
        assert fv.f5

    def test_f4_boundary_is_strict(self):
        der, _ = make_cert("edge.example", not_before=T0 - 365 * DAY, days=365)
        fv = _extract_single(der, "edge.example", time_=T0)
        assert not fv.f4  # harvested exactly at not_after
        fv_after = _extract_single(der, "edge.example", time_=T0 + 1)
        assert fv_after.f4

    def test_f6_f7_duplicates(self):
        der, _ = make_cert("twin.example", serial=5555)
        records = [
            _corpus_record("twin-a.example", der),
            _corpus_record("twin-b.example", der),
        ]
        index = build_corpus_index(records)
        fv = extract_features(
            parse_certificate(der), "twin-a.example", T0, index, trust_store=[]
        )
        assert fv.f6
        assert fv.f7  # same serial via the same cert on two domains

    def test_f7_without_f6(self):
        a_der, _ = make_cert("serial-a.example", serial=31337)
        b_der, _ = make_cert("serial-b.example", serial=31337, key=rsa_key(1))
        records = [
            _corpus_record("serial-a.example", a_der),
            _corpus_record("serial-b.example", b_der),
        ]
        index = build_corpus_index(records)
        fv = extract_features(
            parse_certificate(a_der), "serial-a.example", T0, index, trust_store=[]
        )
        assert not fv.f6
        assert fv.f7

    def test_f8_tracks_f13(self):
        just_under, _ = make_cert("u.example", days=1095)
        over, _ = make_cert("o.example", days=1096)
        fv_u = _extract_single(just_under, "u.example")
        fv_o = _extract_single(over, "o.example")
        assert fv_u.f13 == 1095 and not fv_u.f8
        assert fv_o.f13 == 1096 and fv_o.f8

    def test_f13_floors_partial_days(self):
        der, _ = make_cert("frac.example", not_before=T0, not_after=T0 + 365 * DAY + 7)
        assert _extract_single(der, "frac.example").f13 == 365

    def test_f9_to_f12_sentinel_for_missing(self):
        der, _ = make_cert(name("bare.example"))  # CN only, nothing else
        fv = _extract_single(der, "bare.example")
        assert fv.f9 == "bare.example"
        assert fv.f10 == MISSING
        assert fv.f11 == MISSING
        assert fv.f12 == MISSING

    def test_f15_uses_subject_cn(self):
        der, _ = make_cert(name("bank.com", o="Bank"), key=rsa_key(0))
        fv = _extract_single(der, "banc.com")
        assert fv.f15 == 5 / 9

    def test_f15_missing_cn_compares_sentinel(self):
        der, _ = make_cert(name(None, o="No CN Org"))
        fv = _extract_single(der, "nocn.example")
        assert fv.f9 == MISSING  # self-signed and the name has no CN
        assert fv.f15 == jaccard("nocn.example", "justnone")

    def test_shingle_size_changes_f15(self):
        der, _ = make_cert(name("bank.com"))
        fv1 = _extract_single(der, "banc.com", shingle_size=1)
        assert fv1.f15 == jaccard("banc.com", "bank.com", shingle_size=1)

    def test_index_mismatch_rejected(self):
        der, _ = make_cert("present.example")
        other_der, _ = make_cert("absent.example", key=rsa_key(1))
        index = build_corpus_index([_corpus_record("present.example", der)])
        with pytest.raises(IndexMismatch):
            extract_features(
                parse_certificate(other_der), "absent.example", T0, index, trust_store=[]
            )

    def test_domain_case_normalized_before_lookup(self):
        der, _ = make_cert("case.example")
        index = build_corpus_index([_corpus_record("case.example", der)])
        fv = extract_features(
            parse_certificate(der), "CASE.Example", T0, index, trust_store=[]
        )
        assert fv.domain == "case.example"

    def test_www_alias_affects_f15_but_not_identity(self):
        der, _ = make_cert(name("site.example"))
        index = build_corpus_index([_corpus_record("www.site.example", der)])
        fv = extract_features(
            parse_certificate(der), "www.site.example", T0, index, trust_store=[]
        )
        # the record keeps its full name, but f15 sees the stripped alias
        assert fv.domain == "www.site.example"
        assert fv.f15 == 1.0

    def test_f15_invariant_under_wildcard_cn(self):
        plain_der, _ = make_cert(name("match.example"))
        wild_der, _ = make_cert(name("*.match.example"), key=rsa_key(1))
        plain = _extract_single(plain_der, "match.example")
        wild = _extract_single(wild_der, "match.example")
        assert plain.f15 == wild.f15 == 1.0


class TestExtractCorpus:
    def test_full_pipeline_sorted_and_deduplicated(self):
        a_der, _ = make_cert("alpha.example")
        b_der, _ = make_cert("beta.example", key=rsa_key(1))
        newer_a, _ = make_cert("alpha.example", serial=2, key=rsa_key(2))
        records = [
            _corpus_record("beta.example", b_der),
            _corpus_record("alpha.example", a_der, time_=T0),
            _corpus_record("alpha.example", newer_a, time_=T0 + 60),
            DomainRecord(
                domain="nocert.example", http_ok=True, https_ok=False, harvest_time=T0
            ),
        ]
        vectors = extract_corpus(records)
        assert [fv.domain for fv in vectors] == ["alpha.example", "beta.example"]
        # alpha's features come from the newer certificate
        alpha = vectors[0]
        assert alpha.f14 == 1  # serial 2 has one digit

    def test_spellings_of_one_name_are_one_domain(self):
        # DNS names ignore case and imply the final dot, so both records
        # name one domain, and the newer one gives its only row
        old_der, _ = make_cert("example.com", serial=1111)
        new_der, _ = make_cert("example.com", serial=2, key=rsa_key(1))
        records = [
            _corpus_record("Example.COM", old_der, time_=T0 + 60),
            _corpus_record("example.com.", new_der, time_=T0 + 120),
        ]
        vectors = extract_corpus(records)
        assert [fv.domain for fv in vectors] == ["example.com"]
        assert vectors[0].f14 == 1  # serial 2, of the newer record
        assert not vectors[0].f6  # the older record no longer counts

    def test_unparseable_certificates_skipped(self):
        records = [
            DomainRecord(
                domain="junk.example", http_ok=False, https_ok=True,
                harvest_time=T0, cert_der=b"\xde\xad",
            )
        ]
        assert extract_corpus(records) == []

    def test_unparseable_certificates_warned_once_per_domain(self, caplog):
        good_der, _ = make_cert("good.example")
        records = [
            DomainRecord(
                domain=domain, http_ok=False, https_ok=True, harvest_time=T0,
                cert_der=b"\xde\xad",
            )
            for domain in ("junk-a.example", "junk-b.example")
        ] + [
            DomainRecord(
                domain=domain, http_ok=True, https_ok=True, harvest_time=T0,
                cert_der=good_der, presented_chain_der=(good_der, b"\xbe\xef"),
            )
            for domain in ("good.example", "good-too.example")
        ]
        with caplog.at_level(logging.WARNING):
            vectors = extract_corpus(records)
        assert [fv.domain for fv in vectors] == ["good-too.example", "good.example"]
        warned = sorted(
            domain
            for record in caplog.records
            for domain in ("junk-a", "junk-b", "good", "good-too")
            if f" {domain}.example" in record.getMessage()
        )
        assert warned == ["good", "good-too", "junk-a", "junk-b"]

    def test_presented_chain_feeds_verification(self):
        root_der, root_key = make_cert(name("Chain Root"), key=rsa_key(1), ca=True)
        root_cert = x509.load_der_x509_certificate(root_der)
        inter_der, inter_key = make_cert(
            name("Chain Inter"), issuer_cert=root_cert, issuer_key=root_key,
            key=rsa_key(2), ca=True,
        )
        inter_cert = x509.load_der_x509_certificate(inter_der)
        leaf_der, _ = make_cert(
            "chained.example", issuer_cert=inter_cert, issuer_key=inter_key, key=rsa_key(3)
        )
        record = DomainRecord(
            domain="chained.example", http_ok=True, https_ok=True, harvest_time=T0,
            cert_der=leaf_der, presented_chain_der=(leaf_der, inter_der),
        )
        with_anchor = extract_corpus([record], trust_store=[parse_certificate(root_der)])
        assert not with_anchor[0].f5
        without_chain = extract_corpus(
            [
                DomainRecord(
                    domain="chained.example", http_ok=True, https_ok=True,
                    harvest_time=T0, cert_der=leaf_der,
                )
            ],
            trust_store=[parse_certificate(root_der)],
        )
        assert without_chain[0].f5  # intermediate missing, path cannot build


class TestBuildCorpusIndex:
    """build_corpus_index runs extract_corpus's own leaf step, so it skips
    and warns as extraction does."""

    def test_a_certificate_two_domains_serve_is_warned_about_once(self, caplog):
        (negative,) = [r for r in chain_corpus()[0] if r.domain == "negative-chain.test"]
        der = negative.presented_chain_der[1]  # the negative-serial certificate
        with caplog.at_level(logging.WARNING):
            index = build_corpus_index(
                [_corpus_record(domain, der) for domain in ("a.example", "b.example")])
        assert [r.getMessage() for r in caplog.records] == [
            record_warning("a.example", "leaf", der, NEGATIVE_SERIAL_WARNING),
            record_warning("a.example", "leaf", der, NEGATIVE_SERIAL_NOTE),
        ]
        assert index.by_fingerprint == {hashlib.sha256(der).hexdigest(): 2}
        assert index.by_serial == {"124171225709483": 2}

    def test_an_unparseable_leaf_is_skipped_as_extraction_skips_it(self, caplog):
        good_der, _ = make_cert("good.example")
        records = [_corpus_record("junk.example", b"\xde\xad"),
                   _corpus_record("good.example", good_der)]
        with caplog.at_level(logging.WARNING):
            extract_corpus(records[1:], index_records=records)
        skipped = [(r.name, r.getMessage()) for r in caplog.records]
        assert len(skipped) == 1 and "junk.example" in skipped[0][1]
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            index = build_corpus_index(records)
        assert [(r.name, r.getMessage()) for r in caplog.records] == skipped
        assert list(index.fingerprints) == ["good.example"]


@pytest.mark.skipif(sys.platform != "linux", reason="extraction forks on Linux alone")
class TestExtractionInShares:
    """extract_corpus's verify-and-feature loop, run in forked shares, makes
    one process's vectors and log records, and leaves the caller's trust
    store as it came."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pid of every child forked, each running as it would."""
        pids, fork = [], os.fork

        def counted():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        return pids

    @staticmethod
    def extracted(monkeypatch, caplog, cpus, **kwargs):
        """(vectors or the IndexMismatch text, warning records) of one
        extract_corpus call over chain_corpus, every loop past the threshold,
        on cpus usable CPUs (None: those usable_cpus finds), against its
        anchor unless kwargs name a trust_store.  The tests' farm threads
        may be alive, so the count is set here."""
        corpus, root_der = chain_corpus()
        kwargs.setdefault("trust_store", [parse_certificate(root_der)])
        caplog.clear()
        with monkeypatch.context() as patch, caplog.at_level(logging.WARNING):
            patch.setattr(features, "_FORK_RECORDS", 1)
            if cpus is not None:
                patch.setattr(parts, "usable_cpus", lambda: cpus)
            try:
                vectors = extract_corpus(corpus, **kwargs)
            except IndexMismatch as exc:
                vectors = str(exc)
        return vectors, [(r.name, r.levelno, r.getMessage()) for r in caplog.records]

    def test_shares_equal_one_process(self, monkeypatch, caplog, forks):
        checked, check = [], certs._signature_valid
        with monkeypatch.context() as patch:
            patch.setattr(certs, "_signature_valid",
                          lambda child, parent: checked.append(child) or check(child, parent))
            want = self.extracted(monkeypatch, caplog, 1)
        vectors, logged = want
        assert not forks
        assert len(vectors) == 22 and sum(v.f5 for v in vectors) == 8
        (negative,) = [r for r in chain_corpus()[0] if r.domain == "negative-chain.test"]
        der = negative.presented_chain_der[1]
        assert [m for _, _, m in logged if "chain" in m or "negative" in m] == [
            "skipping unparseable chain certificate for junk-chain.test",
            record_warning("negative-chain.test", "chain", der, NEGATIVE_SERIAL_WARNING),
            record_warning("negative-chain.test", "chain", der, NEGATIVE_SERIAL_NOTE),
        ]
        # the call's own memo checks each CA link once: 16 leaf links, and the
        # links of the shared intermediate (nine leaves reach it), the tampered
        # one (two) and the anchor under itself; 28 checks without the memo
        assert len(checked) == 16 + 3
        for cpus in (2, 3):
            assert self.extracted(monkeypatch, caplog, cpus) == want
            assert len(forks) == cpus - 1
            forks.clear()

    def test_first_index_mismatch_is_raised_after_the_same_records(
            self, monkeypatch, caplog, forks):
        # the index lacks a domain in the middle: one process logs the
        # warnings of the records before it, then raises its IndexMismatch
        records = chain_corpus()[0]
        index_records = [r for r in records if r.domain != "inter3.test"]
        want = self.extracted(monkeypatch, caplog, 1, index_records=index_records)
        assert "inter3.test" in want[0]
        # the index corpus's skipped leaf, then nothing of a later record
        assert len(want[1]) == 1 and want[1][0][2].startswith("skipping junk-leaf.test: ")
        for cpus in (2, 3):
            assert self.extracted(monkeypatch, caplog, cpus,
                                  index_records=index_records) == want
            assert len(forks) == cpus - 1
            forks.clear()

    def test_extraction_leaves_the_callers_trust_store_as_it_came(
            self, monkeypatch, caplog, forks):
        # the call reads the caller's memo and keeps the links it checks in a
        # copy of its own, whether it returns or raises an IndexMismatch
        records, root_der = chain_corpus()
        index_records = [r for r in records if r.domain != "inter3.test"]
        seeded = {("0" * 64, "1" * 64): False}  # a link no chain here reaches
        for kwargs in ({}, {"index_records": index_records}):
            for cpus in (1, 2, 3):
                anchors = IssuerIndex([parse_certificate(root_der)])
                anchors.link_verdicts.update(seeded)
                vectors, _ = self.extracted(monkeypatch, caplog, cpus, trust_store=anchors,
                                            **kwargs)
                assert isinstance(vectors, str) == bool(kwargs)
                assert anchors.link_verdicts == seeded
                assert len(forks) == cpus - 1
                forks.clear()

    def test_each_record_logs_its_leaf_then_its_chain_in_domain_order(
            self, monkeypatch, caplog, forks):
        # every domain serves a zero-serial leaf and a negative-serial CA
        # certificate of its own, then an unparseable one, in any share cut
        root_der = chain_corpus()[1]
        domains = [f"{letter}.test" for letter in "fbdaec"]
        served = {domain: (shape_certificate("zero serial", domain),
                           shape_certificate("negative serial", f"ca.{domain}"))
                  for domain in domains}
        records = [DomainRecord(domain=domain, http_ok=True, https_ok=True, harvest_time=T0,
                                cert_der=leaf, presented_chain_der=(leaf, ca, b"\x30\x03bad"))
                   for domain, (leaf, ca) in served.items()]
        want = []
        for domain in sorted(domains):
            leaf, ca = served[domain]
            want += [record_warning(domain, "leaf", leaf, NEGATIVE_SERIAL_WARNING),
                     record_warning(domain, "chain", ca, NEGATIVE_SERIAL_WARNING),
                     record_warning(domain, "chain", ca, NEGATIVE_SERIAL_NOTE),
                     f"skipping unparseable chain certificate for {domain}"]
        for cpus in (1, 2, 3):
            caplog.clear()
            with monkeypatch.context() as patch, caplog.at_level(logging.WARNING):
                patch.setattr(features, "_FORK_RECORDS", 1)
                patch.setattr(parts, "usable_cpus", lambda: cpus)
                extract_corpus(records, [parse_certificate(root_der)])
            assert [r.getMessage() for r in caplog.records] == want
            assert len(forks) == cpus - 1
            forks.clear()

    def test_a_certificate_in_two_shares_is_warned_about_once(self, monkeypatch, caplog, forks):
        # the negative-serial chain certificate, presented by a domain at
        # each end of the corpus
        records, root_der = chain_corpus()
        (negative,) = [r for r in records if r.domain == "negative-chain.test"]
        der = negative.presented_chain_der[1]
        records += (dataclasses.replace(negative, domain="a-negative-chain.test"),
                    dataclasses.replace(negative, domain="z-negative-chain.test"))
        for cpus in (1, 2, 3):
            caplog.clear()
            with monkeypatch.context() as patch, caplog.at_level(logging.WARNING):
                patch.setattr(features, "_FORK_RECORDS", 1)
                patch.setattr(parts, "usable_cpus", lambda: cpus)
                extract_corpus(records, [parse_certificate(root_der)])
            warned = [r.getMessage() for r in caplog.records if "negative" in r.getMessage()]
            assert warned == [  # named after the first record in domain order
                record_warning("a-negative-chain.test", "chain", der, NEGATIVE_SERIAL_WARNING),
                record_warning("a-negative-chain.test", "chain", der, NEGATIVE_SERIAL_NOTE)]
        assert len(forks) == 1 + 2

    @pytest.mark.parametrize("failure", ["exits 1", "short data"])
    def test_a_failed_child_leaves_its_share_to_the_parent(self, monkeypatch, caplog, failure):
        want = self.extracted(monkeypatch, caplog, 1)
        descriptors = sorted(os.listdir("/proc/self/fd"))
        pids, fork = [], os.fork

        def failing():
            pid = fork()
            if pid == 0 and failure == "exits 1":
                os._exit(1)  # before writing anything
            if pid:
                pids.append(pid)
            return pid

        def short(fn, share, write):  # half of what it would send, then exit 0
            sent = pickle.dumps(fn(share))
            os.write(write, sent[:len(sent) // 2])
            os._exit(0)

        monkeypatch.setattr(os, "fork", failing)
        monkeypatch.setattr(parts, "_send", short)
        assert self.extracted(monkeypatch, caplog, 3) == want
        assert len(pids) == 2
        for pid in pids:  # each reaped
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        assert sorted(os.listdir("/proc/self/fd")) == descriptors

    def test_one_share_while_another_thread_is_alive(self, monkeypatch, caplog, forks):
        want = self.extracted(monkeypatch, caplog, 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        done = threading.Event()
        waiting = threading.Thread(target=done.wait)
        waiting.start()
        try:
            got = self.extracted(monkeypatch, caplog, None)
        finally:
            done.set()
            waiting.join()
        assert got == want
        assert not forks

    def test_one_share_below_the_threshold_or_with_no_anchor(self, monkeypatch, forks):
        records, root_der = chain_corpus()
        monkeypatch.setattr(parts, "usable_cpus", lambda: 2)
        monkeypatch.setattr(features, "_FORK_RECORDS", 23)  # one more than the leaves
        extract_corpus(records, [parse_certificate(root_der)])
        assert not forks
        monkeypatch.setattr(features, "_FORK_RECORDS", 22)
        extract_corpus(records)  # no path reaches an empty store: no signature to check
        assert not forks
        extract_corpus(records, [parse_certificate(root_der)])
        assert len(forks) == 1


class TestFeatureLayout:
    def test_kind_table_gives_the_name_tuples_and_the_vector_fields(self):
        assert FEATURE_NAMES == tuple(f"f{i}" for i in range(1, 16)) == tuple(FEATURE_KINDS)
        assert BOOLEAN_FEATURES == ("f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8")
        assert CATEGORICAL_FEATURES == ("f9", "f10", "f11", "f12")
        assert NUMERIC_FEATURES == ("f13", "f14", "f15")
        fields = tuple(field.name for field in dataclasses.fields(FeatureVector))
        assert fields == ("domain",) + FEATURE_NAMES + ("label",)


class TestFeatureCsv:
    def _vectors(self):
        der, _ = make_cert(name("csv.example", o='Quote "Heavy", Inc.', c="US"))
        fv = _extract_single(der, "csv.example")
        import dataclasses

        return [fv, dataclasses.replace(fv, domain="labeled.example", label="pos")]

    def test_round_trip(self):
        vectors = self._vectors()
        buffer = io.StringIO()
        assert write_features_csv(buffer, vectors) == 2
        back = read_features_csv(io.StringIO(buffer.getvalue()))
        assert len(back) == 2
        for original, loaded in zip(vectors, back):
            assert loaded.domain == original.domain
            assert loaded.label == original.label
            for i in range(1, 15):
                assert loaded.value(f"f{i}") == original.value(f"f{i}")
            assert loaded.f15 == pytest.approx(original.f15, abs=1e-6)

    def test_header_and_formats(self):
        buffer = io.StringIO()
        write_features_csv(buffer, self._vectors()[:1])
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "domain,f1,f2,f3,f4,f5,f6,f7,f8,f9,f10,f11,f12,f13,f14,f15,label"
        cells = lines[1].split(",")
        assert cells[1] in "01" and cells[8] in "01"
        assert cells[-2].count(".") == 1 and len(cells[-2].split(".")[1]) == 6

    def test_quoted_categoricals_survive(self):
        vectors = self._vectors()
        buffer = io.StringIO()
        write_features_csv(buffer, vectors)
        back = read_features_csv(io.StringIO(buffer.getvalue()))
        assert back[0].f10 == 'Quote "Heavy", Inc.'

    def test_bare_carriage_return_round_trips_as_one_row(self, tmp_path):
        ordinary = self._vectors()
        vectors = [dataclasses.replace(ordinary[0], domain="x\revil.example"), *ordinary]
        path = tmp_path / "cr.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            assert write_features_csv(fh, vectors) == 3
        assert [fv.domain for fv in read_features_csv(path)] == [fv.domain for fv in vectors]
        with open(path, encoding="utf-8", newline="") as fh:
            records = list(csv.reader(fh))
        assert len(records) == 4 and records[1][0] == "x\revil.example"
        # the other rows keep their bytes
        alone = io.StringIO()
        write_features_csv(alone, ordinary)
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
        assert "\n".join(lines[:1] + lines[2:]) == alone.getvalue()
        assert lines[1].startswith('"x\revil.example","')

    def test_bad_header_rejected(self):
        with pytest.raises(SerializationFailure):
            read_features_csv(io.StringIO("domain,oops\nx,1\n"))

    def test_bad_boolean_rejected(self):
        vectors = self._vectors()[:1]
        buffer = io.StringIO()
        write_features_csv(buffer, vectors)
        broken = buffer.getvalue().replace("csv.example,0", "csv.example,2", 1)
        with pytest.raises(SerializationFailure):
            read_features_csv(io.StringIO(broken))

    @pytest.mark.parametrize(
        "column,cell",
        [("f1", "2"), ("f13", "365.7"), ("f14", ""), ("f15", "1.5"), ("f15", "nan"),
         # int() reads these, but write_features_csv never writes them
         ("f13", "1_000"), ("f14", " +7 "), ("f13", "+7"), ("f14", "007"), ("f13", "-0"),
         ("f14", "\u0661\u0662")],
    )
    def test_bad_cell_error_names_line_and_column(self, column, cell):
        good = "x,0,0,0,0,0,0,0,0,a,b,c,d,1,1,0.000000,pos"
        row = dict(zip(CSV_HEADER, good.split(",")), **{column: cell})
        text = "\n".join([",".join(CSV_HEADER), good, ",".join(row.values())]) + "\n"
        with pytest.raises(SerializationFailure, match=f"line 3, column {column}:"):
            read_features_csv(io.StringIO(text))

    def test_line_break_in_unquoted_cell_names_the_line(self):
        header = ",".join(CSV_HEADER)
        with pytest.raises(SerializationFailure, match="^line 2: "):
            read_features_csv(io.StringIO(header + "\na\rb\n"))

    def test_row_error_names_the_file(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text(",".join(CSV_HEADER) + "\nx,2\n", encoding="utf-8")
        with pytest.raises(SerializationFailure, match=f"^{re.escape(str(path))}: line 2: "):
            read_features_csv(path)
        path.write_text("domain,oops\n", encoding="utf-8")
        with pytest.raises(SerializationFailure, match=f"^{re.escape(str(path))}: unexpected "):
            read_features_csv(path)

    def test_integer_cells_as_written_accepted(self):
        good = "x,0,0,0,0,0,0,0,0,a,b,c,d,{},{},0.000000,pos"
        text = "\n".join([",".join(CSV_HEADER), good.format(-365, 0), good.format(0, 10**20)]) + "\n"
        rows = read_features_csv(io.StringIO(text))
        assert [(fv.f13, fv.f14) for fv in rows] == [(-365, 0), (0, 10**20)]
        buffer = io.StringIO()
        write_features_csv(buffer, rows)
        assert buffer.getvalue() == text

    def test_bad_label_rejected(self):
        text = (
            "domain,f1,f2,f3,f4,f5,f6,f7,f8,f9,f10,f11,f12,f13,f14,f15,label\n"
            "x,0,0,0,0,0,0,0,0,a,b,c,d,1,1,0.000000,maybe\n"
        )
        with pytest.raises(SerializationFailure):
            read_features_csv(io.StringIO(text))
