"""Property-based tests: hostile file contents end in a CertsiftError that
names the file, or in a result.

Every property runs derandomized with no example database, so its
examples depend on the hypothesis version and the code alone.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from certbuild import make_cert, to_pem
from certsift import BogusValueList, CertsiftError, load_trust_store
from certsift.features import (
    CSV_HEADER,
    FEATURE_KINDS,
    KIND_BOOLEAN,
    KIND_CATEGORICAL,
    KIND_INTEGER,
    KIND_REAL,
    FeatureVector,
    read_features_csv,
    write_features_csv,
)
from certsift.ml import (
    FeatureColumn,
    FeatureSchema,
    Dataset,
    default_schema,
    load_model,
    train,
)
from certsift.ml.persist import model_from_json, model_to_json
from certsift.ml.schema import Encoder
from certsift.report import feature_cdf
from certsift.synth import load_spec, sample_corpus, spec_to_json

PROPERTY = settings(
    derandomize=True,
    database=None,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# --- strategies -------------------------------------------------------------

# integers as CSV cells, out to well past what a float64 holds
big_integers = st.one_of(
    st.integers(min_value=-1000, max_value=10**6),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.integers(min_value=300, max_value=320).map(lambda e: 10**e),
)

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    big_integers,
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "zz", "f1", "f9", "f14", "pos", "neg", "tree", "knn",
                     "boolean", "categorical", "integer", "real"]),
    st.text(max_size=8),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=10,
)


# a well-formed CSV cell of each kind
cells = {
    KIND_BOOLEAN: st.sampled_from(["0", "1"]),
    KIND_CATEGORICAL: st.text(max_size=6),
    KIND_INTEGER: big_integers.map(str),
    KIND_REAL: st.floats(min_value=0.0, max_value=1.0).map("{:.6f}".format),
}


@st.composite
def feature_csv_text(draw) -> str:
    """Feature CSV text whose cells are well formed, but for at most one."""
    rows = []
    for i in range(draw(st.integers(min_value=1, max_value=6))):
        row = [f"d{i}.test", *(draw(cells[kind]) for kind in FEATURE_KINDS.values())]
        rows.append(row + [draw(st.sampled_from(["pos", "neg", ""]))])
    if draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(min_value=0, max_value=len(row) - 1))] = draw(st.text(max_size=5))
    out = io.StringIO()
    # the writer quotes a cell holding a comma or a line break
    csv.writer(out, lineterminator="\n").writerows([CSV_HEADER, *rows])
    return out.getvalue()


def _written(content: bytes | str, check) -> None:
    """Run check(path) on a file holding content; a CertsiftError it raises
    must start with the path."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "input")
        with open(path, "wb") as fh:
            fh.write(content.encode("utf-8") if isinstance(content, str) else content)
        try:
            check(path)
        except CertsiftError as exc:
            assert str(exc).startswith(f"{path}: "), str(exc)


# --- one shared small training run ------------------------------------------


@pytest.fixture(scope="module")
def rows():
    dataset = sample_corpus(load_spec("phishing"), load_spec("alexa"), 20, 5)
    return dataset.rows


@pytest.fixture(scope="module")
def trained_docs(rows):
    hyperparameters = {"tree": {}, "forest": {"n_trees": 3}, "knn": {"k": 3}}
    return {
        kind: model_to_json(train(Dataset(rows), kind, hp, seed=1))
        for kind, hp in hyperparameters.items()
    }


# --- every file reader names the file ---------------------------------------

anchor_pem = to_pem(make_cert("Anchor")[0])
pem_blocks = st.builds(
    lambda before, body, after: before + b"-----BEGIN CERTIFICATE-----\n" + body
    + b"\n-----END CERTIFICATE-----\n" + after,
    st.binary(max_size=12),
    st.one_of(st.binary(max_size=40), st.just(b"MIIB"),
              st.just(anchor_pem.split(b"\n", 1)[1].rsplit(b"-----END", 1)[0])),
    st.one_of(st.binary(max_size=12), st.just(anchor_pem)),
)


def _spec_documents():
    base = spec_to_json(load_spec("phishing"))
    sections = st.sampled_from(["booleans", "categoricals", "numerics"])

    def mutate(section, key, value):
        doc = copy.deepcopy(base)
        doc[section][key] = value
        return json.dumps(doc)

    keys = st.sampled_from([f"f{i}" for i in range(1, 16)] + ["zz"])
    return st.builds(mutate, sections, keys, json_values)


READERS = {
    "features": (read_features_csv, st.one_of(st.binary(max_size=60), feature_csv_text())),
    "model": (load_model, st.one_of(
        st.binary(max_size=40),
        json_values.map(json.dumps),
        st.builds(lambda v, k: json.dumps({"format_version": v, "kind": k}),
                  json_scalars, json_scalars),
    )),
    "spec": (load_spec, st.one_of(
        st.binary(max_size=40), json_values.map(json.dumps), _spec_documents()
    )),
    "bogus": (BogusValueList.from_file, st.binary(max_size=40)),
    "trust_store": (load_trust_store, st.one_of(st.binary(max_size=60), pem_blocks)),
}


@pytest.mark.parametrize("reader", list(READERS))
def test_a_file_reader_loads_or_names_the_file(reader):
    check, contents = READERS[reader]

    @PROPERTY
    @given(contents)
    def run(content):
        _written(content, check)

    run()


# --- what the CSV reader accepts, the encoder and the CDF take ----------------


@PROPERTY
@given(feature_csv_text())
def test_accepted_csv_encodes_and_gives_a_cdf(text):
    try:
        rows = read_features_csv(io.StringIO(text, newline=""))
    except CertsiftError:
        return
    matrix = Encoder(default_schema(), rows).encode_rows(rows)
    assert matrix.shape == (len(rows), len(default_schema().included()))
    series = feature_cdf(rows, "f14")
    assert series[-1][1] == 1.0


@PROPERTY
@given(st.lists(
    st.builds(
        FeatureVector,
        domain=st.text(max_size=8),
        f1=st.booleans(), f2=st.booleans(), f3=st.booleans(), f4=st.booleans(),
        f5=st.booleans(), f6=st.booleans(), f7=st.booleans(), f8=st.booleans(),
        f9=st.text(max_size=6), f10=st.text(max_size=6),
        f11=st.text(max_size=6), f12=st.text(max_size=6),
        f13=st.integers(min_value=-(10**30), max_value=10**30),
        f14=st.integers(min_value=-(10**30), max_value=10**30),
        f15=st.floats(min_value=0.0, max_value=1.0).map(lambda x: round(x, 6)),
        label=st.sampled_from(["pos", "neg", None]),
    ),
    max_size=5,
))
def test_written_vectors_read_back_unchanged(vectors):
    out = io.StringIO(newline="")
    write_features_csv(out, vectors)
    out.seek(0)
    assert read_features_csv(out) == vectors


# --- a tampered model document is refused or predicts -------------------------


def _paths(doc, prefix=()):
    """The path to every value in a JSON document, the document itself first."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


def _refingerprint(doc) -> None:
    schema = doc.get("schema")
    try:
        columns = tuple(FeatureColumn(str(c["name"]), str(c["kind"]), bool(c["included"]))
                        for c in schema["columns"])
        schema["fingerprint"] = FeatureSchema(columns).fingerprint()
    except (KeyError, TypeError, AttributeError):
        pass  # the mutation broke the schema itself; loading must refuse it


@pytest.mark.parametrize("kind", ["tree", "forest", "knn"])
def test_one_field_mutation_of_a_model_is_refused_or_predicts(kind, trained_docs, rows):
    original = trained_docs[kind]
    paths = [p for p in _paths(original) if p]
    schema_paths = [p for p in paths if p[0] == "schema" and p[-1] in ("name", "kind")]

    @PROPERTY
    @given(st.one_of(st.sampled_from(paths), st.sampled_from(schema_paths)),
           st.one_of(json_values, st.sampled_from(list(FEATURE_KINDS.values())
                                                  + list(FEATURE_KINDS) + ["zz"])))
    def run(path, value):
        doc = copy.deepcopy(original)
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        if path[0] == "schema" and path[-1] != "fingerprint":
            _refingerprint(doc)
        try:
            model = model_from_json(json.loads(json.dumps(doc)))
            labels, scores = model.predict_batch(rows)
        except CertsiftError:
            return
        assert len(labels) == len(scores) == len(rows)

    run()
