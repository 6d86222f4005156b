"""What certsift makes of each certificate shape in certbuild.SHAPES.

Certsift reads whatever the installed cryptography accepts, so these pins
hold its leniency in place: a release that refuses a shape, reads it
differently or warns about it otherwise fails the test named after it.
"""

from __future__ import annotations

import io
import logging

import pytest

from certbuild import (
    DAY,
    NEGATIVE_SERIAL_NOTE,
    NEGATIVE_SERIAL_WARNING,
    SHAPES,
    T0,
    record_warning,
    shape_certificate,
)
from certsift import DomainRecord, extract_corpus, parse_certificate, write_features_csv
from certsift.certs import Verdict, verify_chain

NOT_BEFORE = T0 - 30 * DAY
NOT_AFTER = NOT_BEFORE + 365 * DAY
SERIAL_21_BYTES = int.from_bytes(bytes(range(1, 22)), "big")

# shape -> (serial, subject, not_after, the parse's warnings); the issuer is
# CN=shape.test, the signature sha256WithRSAEncryption, notBefore NOT_BEFORE
SUMMARIES = {
    "negative serial": (124171225709483, "CN=shape.test", NOT_AFTER,
                        [NEGATIVE_SERIAL_WARNING, NEGATIVE_SERIAL_NOTE]),
    "zero serial": (0, "CN=shape.test", NOT_AFTER, [NEGATIVE_SERIAL_WARNING]),
    "21-byte serial": (SERIAL_21_BYTES, "CN=shape.test", NOT_AFTER, []),
    "v1": (4242, "CN=shape.test", NOT_AFTER, []),
    "empty subject": (4242, "", NOT_AFTER, []),
    "notBefore equals notAfter": (4242, "CN=shape.test", NOT_BEFORE, []),
    "garbage basicConstraints": (4242, "CN=shape.test", NOT_AFTER, []),
    "garbage keyUsage": (4242, "CN=shape.test", NOT_AFTER, []),
    "garbage subjectAltName": (4242, "CN=shape.test", NOT_AFTER, []),
    "duplicated extension": (4242, "CN=shape.test", NOT_AFTER, []),
    "unknown critical extension": (4242, "CN=shape.test", NOT_AFTER, []),
}

# shape -> its features CSV row, harvested at T0 by shape.test, no anchor:
# self-signed (f3) unless the names differ, so f5 is always set
ROW = "shape.test,0,0,1,0,1,0,0,0,shape.test,JustNone,JustNone,JustNone,365,4,1.000000,"
ROWS = {
    **dict.fromkeys(SHAPES, ROW),
    "negative serial": ROW.replace(",365,4,", ",365,15,"),
    "zero serial": ROW.replace(",365,4,", ",365,1,"),
    "21-byte serial": ROW.replace(",365,4,", ",365,49,"),
    "empty subject": "shape.test,0,0,0,0,1,0,0,0,shape.test,JustNone,JustNone,JustNone,"
                     "365,4,0.066667,",
    "notBefore equals notAfter": "shape.test,0,0,1,1,1,0,0,0,shape.test,JustNone,JustNone,"
                                 "JustNone,0,4,1.000000,",
}


def test_every_shape_is_pinned():
    assert set(SUMMARIES) == set(ROWS) == set(SHAPES)


@pytest.mark.parametrize("shape", SHAPES)
def test_parse(shape, caplog):
    der = shape_certificate(shape)
    with caplog.at_level(logging.WARNING):
        summary = parse_certificate(der)
    got = (summary.serial, summary.subject.text(), summary.not_after,
           [r.getMessage() for r in caplog.records])
    assert got == SUMMARIES[shape]
    assert (summary.issuer.text(), summary.not_before, summary.signature_algorithm.name) == (
        "CN=shape.test", NOT_BEFORE, "sha256WithRSAEncryption")
    # its signature verifies over the edited bytes, the shape its own anchor
    assert verify_chain(summary, (), [summary], NOT_BEFORE).verdict is Verdict.VERIFIED


@pytest.mark.parametrize("shape", SHAPES)
def test_extraction_row(shape, caplog):
    der = shape_certificate(shape)
    record = DomainRecord(domain="shape.test", http_ok=True, https_ok=True, harvest_time=T0,
                          cert_der=der, presented_chain_der=(der,))
    with caplog.at_level(logging.WARNING):
        vectors = extract_corpus([record])
    out = io.StringIO()
    write_features_csv(out, vectors)
    assert out.getvalue().splitlines()[1:] == [ROWS[shape]]
    assert [r.getMessage() for r in caplog.records] == [
        record_warning("shape.test", "leaf", der, message) for message in SUMMARIES[shape][3]]
