"""Property-based tests: hostile file contents end in a CertsiftError that
names the file, or in a result; a model file loads as the model or the
error its text gives; any certificate blob parses or raises
MalformedInput; any corpus line loads or raises a CertsiftError, and a
written record loads back equal; the order of a feature CSV's rows never
reaches the model file, nor the order of a corpus's lines the features.

Every property runs derandomized with no example database, so its
examples depend on the hypothesis version and the code alone.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from certbuild import chain_corpus, make_cert, to_pem
from certsift import (BogusValueList, CertsiftError, DomainRecord, features, load_trust_store,
                      parts)
from certsift.certs import CertificateSummary, parse_certificate
from certsift.corpus import load_corpus_stream, record_to_json, record_to_line
from certsift.errors import MalformedInput
from certsift.features import (
    BOOLEAN_FEATURES,
    CATEGORICAL_FEATURES,
    CSV_HEADER,
    FEATURE_KINDS,
    KIND_BOOLEAN,
    KIND_CATEGORICAL,
    KIND_INTEGER,
    KIND_REAL,
    FeatureVector,
    extract_corpus,
    read_features_csv,
    write_features_csv,
)
from certsift.ml import (
    MODEL_KINDS,
    FeatureColumn,
    FeatureSchema,
    Dataset,
    default_schema,
    load_model,
    train,
)
from certsift.ml import tree
from certsift.ml.persist import model_from_json, model_to_json, write_model
from certsift.ml.schema import Encoder
from certsift.report import feature_cdf
from certsift.synth import MarginalSpec, load_spec, sample_corpus, spec_from_json, spec_to_json

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


# --- specs and models round trip through their JSON --------------------------


@st.composite
def distributions(draw, values) -> tuple:
    """(value, probability) pairs of distinct values, summing to 1."""
    support = draw(st.lists(values, min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.integers(min_value=1, max_value=1000),
                            min_size=len(support), max_size=len(support)))
    return tuple((value, weight / sum(weights)) for value, weight in zip(support, weights))


whole_numbers = st.one_of(st.integers(min_value=-(10**6), max_value=10**6),
                          st.integers(min_value=-(10**300), max_value=10**300)).map(float)
specs = st.builds(
    MarginalSpec,
    label=st.sampled_from(["pos", "neg"]),
    booleans=st.dictionaries(st.sampled_from(BOOLEAN_FEATURES),
                             st.floats(min_value=0.0, max_value=1.0)),
    categoricals=st.dictionaries(st.sampled_from(CATEGORICAL_FEATURES),
                                 distributions(st.text(max_size=6))),
    numerics=st.fixed_dictionaries({}, optional={
        "f13": distributions(whole_numbers), "f14": distributions(whole_numbers),
        "f15": distributions(st.floats(min_value=0.0, max_value=1.0)),
    }),
)


@PROPERTY
@given(specs)
def test_a_spec_round_trips_through_its_json(spec):
    assert spec_from_json(json.loads(json.dumps(spec_to_json(spec)))) == spec


query_vectors = st.lists(
    st.builds(
        FeatureVector,
        domain=st.just("q.test"),
        f1=st.booleans(), f2=st.booleans(), f3=st.booleans(), f4=st.booleans(),
        f5=st.booleans(), f6=st.booleans(), f7=st.booleans(), f8=st.booleans(),
        # categories seen in training, and others
        f9=st.one_of(st.sampled_from(["JustNone", "Let's Encrypt"]), st.text(max_size=6)),
        f10=st.text(max_size=6), f11=st.one_of(st.sampled_from(["US", "JustNone"]),
                                               st.text(max_size=3)),
        f12=st.text(max_size=3),
        f13=st.integers(min_value=-(10**300), max_value=10**300),
        f14=st.integers(min_value=-(10**20), max_value=10**20),
        f15=st.floats(min_value=0.0, max_value=1.0),
    ),
    min_size=1, max_size=6,
)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_a_model_round_trips_through_its_json_to_equal_scores(kind, rows):
    hyperparameters = {"knn": {"k": 3}}.get(kind, {"n_trees": 3} if kind != "tree" else {})
    model = train(Dataset(rows), kind, hyperparameters, seed=1)
    loaded = model_from_json(json.loads(json.dumps(model_to_json(model))))

    @PROPERTY
    @given(query_vectors)
    def run(vectors):
        labels, scores = model.predict_batch(vectors)
        again, rescored = loaded.predict_batch(vectors)
        assert again == labels and rescored.tobytes() == scores.tobytes()

    run()


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


def _mutations(original):
    """The strategies of a one-field mutation of a model document: a path
    to any of its values (or to a schema column's name or kind), and the
    value put there."""
    paths = [p for p in _paths(original) if p]
    schema_paths = [p for p in paths if p[0] == "schema" and p[-1] in ("name", "kind")]
    return (st.one_of(st.sampled_from(paths), st.sampled_from(schema_paths)),
            st.one_of(json_values, st.sampled_from(list(FEATURE_KINDS.values())
                                                   + list(FEATURE_KINDS) + ["zz"])))


def _mutated(original, path, value) -> dict:
    doc = copy.deepcopy(original)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    if path[0] == "schema" and path[-1] != "fingerprint":
        _refingerprint(doc)
    return doc


@pytest.mark.parametrize("kind", ["tree", "forest", "knn"])
def test_one_field_mutation_of_a_model_is_refused_or_predicts(kind, trained_docs, rows):
    original = trained_docs[kind]

    @PROPERTY
    @given(*_mutations(original))
    def run(path, value):
        doc = _mutated(original, path, value)
        try:
            model = model_from_json(json.loads(json.dumps(doc)))
            labels, scores = model.predict_batch(rows)
        except CertsiftError:
            return
        assert len(labels) == len(scores) == len(rows)

    run()


# --- a model file loads as its text does ---------------------------------------

NODE_ARRAYS = ("column", "value", "left", "fraction", "count")
# whole numbers about 2^53, where a float64 stops holding every one
near_2_53 = st.one_of(st.integers(min_value=2**53 - 2, max_value=2**53 + 3),
                      st.sampled_from([2.0**53 - 1, 2.0**53, 2.0**53 + 2]))


def _outcome(call, *args):
    try:
        return call(*args)
    except CertsiftError as exc:
        return exc


def _float64_reading(payload) -> list:
    """A tree payload's node arrays as loading always read them: each cell
    as float64, a leaf's left as -1, then in the table's dtypes."""
    column, value, left, fraction, count = (np.array(payload[name]).astype(np.float64)
                                            for name in NODE_ARRAYS)
    left = np.where(column < 0, -1.0, left)
    return [column.astype(np.intp), value, left.astype(np.intp), fraction, count.astype(np.int64)]


@pytest.mark.parametrize("kind", ["tree", "forest", "knn"])
def test_a_model_file_loads_as_its_text_does(kind, trained_docs, tmp_path):
    # load_model turns payload lists into arrays as the decoder closes each
    # payload; model_from_json takes the lists: the same model, or the same
    # error with the file's name in front
    original = trained_docs[kind]
    mutations = st.tuples(*_mutations(original))
    leaves = []
    if kind != "knn":
        leaves = [i for i, column in enumerate(original["nodes"]["column"]) if column < 0]
        mutations |= st.tuples(st.sampled_from(leaves).map(lambda i: ("nodes", "count", i)),
                               near_2_53)
    path = str(tmp_path / "model.json")

    @PROPERTY
    @given(mutations, query_vectors)
    def run(mutation, vectors):
        text = json.dumps(_mutated(original, *mutation))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        loaded = _outcome(load_model, path)
        read = _outcome(model_from_json, json.loads(text))
        where, value = mutation
        if (where[:2] == ("nodes", "count") and where[2] in leaves
                and type(value) in (int, float) and abs(value - 2**53) <= 3):
            # a leaf count is read as a float64, which must be at most 2^53
            assert isinstance(read, CertsiftError) == (float(value) > 2**53), read
        if isinstance(read, CertsiftError):
            assert type(loaded) is type(read) and str(loaded) == f"{path}: {read}"
            return
        assert not isinstance(loaded, CertsiftError), loaded
        doc = json.loads(text)
        if read.kind == "knn":
            want = [np.array(doc["instances"][name], dtype=np.float64)
                    for name in ("matrix", "labels")]
            got = [[model.matrix, model.labels] for model in (loaded, read)]
        else:
            want = _float64_reading(doc["nodes"])
            got = [[getattr(model.table, name) for name in NODE_ARRAYS] for model in (loaded, read)]
        for arrays in got:
            assert [(a.dtype, a.tobytes()) for a in arrays] == [(a.dtype, a.tobytes()) for a in want]
        scored = [_outcome(model.predict_batch, vectors) for model in (loaded, read)]
        if isinstance(scored[1], CertsiftError):
            assert str(scored[0]) == str(scored[1])
        else:
            (labels, scores), (again, rescored) = scored
            assert labels == again and scores.tobytes() == rescored.tobytes()

    run()


# --- a certificate parses to a summary or raises MalformedInput --------------

fuzz_der = make_cert("Fuzz")[0]


def _one_byte_mutations(blob: bytes):
    """blob with the byte at one position set to one value."""
    return st.builds(lambda at, value: blob[:at] + bytes([value]) + blob[at + 1:],
                     st.integers(min_value=0, max_value=len(blob) - 1),
                     st.integers(min_value=0, max_value=255))


@settings(PROPERTY, max_examples=300)
@given(st.one_of(st.binary(max_size=80), st.text(max_size=40),
                 _one_byte_mutations(fuzz_der), _one_byte_mutations(to_pem(fuzz_der))))
def test_parse_certificate_returns_a_summary_or_raises_malformed_input(blob):
    try:
        summary = parse_certificate(blob)
    except MalformedInput:
        return
    assert isinstance(summary, CertificateSummary)


# --- a corpus line loads as a record or raises a CertsiftError ---------------

# names as hostile servers and hand edits spell them, with cased letters and
# final dots and spaces
domains = st.builds(lambda name, end: name + end, st.text(max_size=8),
                    st.sampled_from(["", ".", " ", ". .", " .\t.", "\u0130."]))
# every second a datetime holds (years 1 to 9999), and far past them
harvest_times = st.one_of(st.integers(min_value=-62135596800, max_value=253402300799),
                          st.integers(min_value=-(2**70), max_value=2**70))
records = st.builds(
    lambda domain, http_ok, https_ok, harvest_time, cert_der, chain, tls_error: DomainRecord(
        domain, http_ok, https_ok or cert_der is not None, harvest_time, cert_der, chain,
        tls_error),
    domains, st.booleans(), st.booleans(), harvest_times,
    st.one_of(st.none(), st.binary(max_size=12)),
    st.one_of(st.none(), st.lists(st.binary(max_size=6), max_size=3).map(tuple)),
    st.one_of(st.none(), st.text(max_size=8)),
)


def _mutated_record_line(record, key, value) -> str:
    doc = record_to_json(record)
    doc[key] = value
    return json.dumps(doc)


corpus_lines = st.one_of(
    st.binary(max_size=40),
    json_values.map(json.dumps),
    st.builds(_mutated_record_line, st.sampled_from(chain_corpus()[0]),
              st.sampled_from(["domain", "http_ok", "https_ok", "harvest_time",
                               "cert_der_b64", "chain_der_b64", "tls_error", "zz"]),
              json_values),
    st.integers(min_value=1, max_value=100_000).map(lambda depth: "[" * depth),
    st.integers(min_value=1, max_value=6_000).map(lambda digits: '{"harvest_time": '
                                                  + "9" * digits + "}"),
).map(lambda line: line if isinstance(line, bytes) else line.encode("utf-8"))


@PROPERTY
@given(st.lists(corpus_lines, max_size=4), st.booleans())
def test_corpus_lines_load_or_raise_a_certsift_error(lines, final_newline):
    data = b"\n".join(lines) + (b"\n" if final_newline else b"")
    try:
        loaded = list(load_corpus_stream(io.BytesIO(data), name="corpus"))
    except CertsiftError as exc:
        assert str(exc).startswith("corpus: line "), str(exc)
        return
    assert all(isinstance(record, DomainRecord) for record in loaded)


@settings(PROPERTY, max_examples=200)
@given(records)
def test_a_written_record_loads_back_equal(record):
    try:
        line = record_to_line(record)
    except CertsiftError:
        return  # a record the wire form cannot hold is refused, not mangled
    assert list(load_corpus_stream(io.BytesIO(line.encode("utf-8") + b"\n"))) == [record]


# --- row order never reaches the model file ----------------------------------


def _forest_file(rows) -> str:
    out = io.StringIO()
    write_model(train(Dataset(rows), "forest", {"n_trees": 4}, seed=3), out)
    return out.getvalue()


@pytest.mark.skipif(sys.platform != "linux", reason="batches grow in parts on Linux alone")
def test_shuffled_csv_rows_train_the_same_forest_file_in_parts(rows, monkeypatch):
    want = _forest_file(rows)  # in one part: 160 bootstrap rows
    forks, examples, fork = [], [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(parts, "usable_cpus", lambda: 2)  # the farm's threads may be alive
    monkeypatch.setattr(tree, "_FORK_ROWS", 1)

    @settings(PROPERTY, max_examples=20)
    @given(st.permutations(range(len(rows))))
    def run(order):
        examples.append(order)
        out = io.StringIO(newline="")
        write_features_csv(out, [rows[i] for i in order])
        out.seek(0)
        assert _forest_file(read_features_csv(out)) == want

    run()
    assert len(forks) == len(examples) > 1  # each forest grown in two parts


def _features_csv(records) -> str:
    out = io.StringIO(newline="")
    write_features_csv(out, extract_corpus(records, [parse_certificate(chain_corpus()[1])]))
    return out.getvalue()


@pytest.mark.skipif(sys.platform != "linux", reason="extraction forks on Linux alone")
def test_shuffled_corpus_lines_extract_the_same_features_csv_in_shares(monkeypatch):
    records = chain_corpus()[0]
    want = _features_csv(records)  # in one share: below the threshold
    lines = [record_to_line(record).encode("utf-8") + b"\n" for record in records]
    forks, examples, fork = [], [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(parts, "usable_cpus", lambda: 2)  # the farm's threads may be alive
    monkeypatch.setattr(features, "_FORK_RECORDS", 1)

    @settings(PROPERTY, max_examples=20)
    @given(st.permutations(range(len(lines))))
    def run(order):
        examples.append(order)
        shuffled = load_corpus_stream(io.BytesIO(b"".join(lines[i] for i in order)))
        assert _features_csv(shuffled) == want

    run()
    assert len(forks) == len(examples) > 1  # each extracted in two shares
