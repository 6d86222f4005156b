"""End-to-end runs of every subcommand, exit codes, and output atomicity."""

from __future__ import annotations

import base64
import csv
import dataclasses
import hashlib
import ipaddress
import json
import logging
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import pytest
from cryptography import x509

from certbuild import (
    DAY, NEGATIVE_SERIAL_NOTE, NEGATIVE_SERIAL_WARNING, T0, chain_corpus, make_cert, name,
    record_warning, rsa_key, to_pem,
)
from certsift import (
    DomainRecord,
    Verdict,
    load_corpus,
    read_features_csv,
    verify_chain,
    write_corpus,
)
from certsift import features, parts, probe
from certsift.cli import _atomic_output, main
from certsift.corpus import CorpusFile, record_to_line
from certsift.ml import FeatureColumn, FeatureSchema, default_schema, load_model
from certsift.synth import load_spec, spec_to_json

from conftest import (
    DOMAIN_BOTH,
    DOMAIN_DEAD,
    DOMAIN_HTTP_ONLY,
    DOMAIN_TLS_ONLY,
)


DATA = Path(__file__).parent / "data"


def run(*argv: str) -> int:
    return main(list(argv))


@pytest.fixture
def synth_csv(tmp_path):
    path = tmp_path / "synth.csv"
    assert run(
        "synth", "--pos-spec", "phishing", "--neg-spec", "alexa",
        "--n", "40", "--seed", "3", "--out", str(path),
    ) == 0
    return path


class TestSynthCommand:
    def test_writes_balanced_labeled_csv(self, synth_csv):
        rows = read_features_csv(synth_csv)
        assert len(rows) == 80
        assert sum(1 for fv in rows if fv.label == "pos") == 40
        assert sum(1 for fv in rows if fv.label == "neg") == 40

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["synth", "--pos-spec", "phishing", "--neg-spec", "com", "--n", "25"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        base = ["synth", "--pos-spec", "typosquatting", "--neg-spec", "net", "--n", "25"]
        assert main(base + ["--seed", "1", "--out", str(a)]) == 0
        assert main(base + ["--seed", "2", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_stdout_default(self, capsys):
        assert run("synth", "--pos-spec", "phishing", "--neg-spec", "alexa", "--n", "2") == 0
        out = capsys.readouterr().out
        assert out.startswith("domain,f1,")
        assert len(out.splitlines()) == 5

    def test_swapped_spec_labels_rejected(self, tmp_path, capsys):
        code = run("synth", "--pos-spec", "alexa", "--neg-spec", "phishing", "--n", "2")
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_custom_spec_file(self, tmp_path):
        spec_path = tmp_path / "pos.json"
        doc = {
            "label": "pos",
            "booleans": {f"f{i}": 1.0 for i in range(1, 9) if f"f{i}" != "f5"},
            "categoricals": {name: [["OnlyValue", 1.0]] for name in ("f9", "f10", "f11", "f12")},
            "numerics": {"f13": [[10.0, 1.0]], "f14": [[3.0, 1.0]], "f15": [[0.5, 1.0]]},
        }
        doc["booleans"]["f5"] = 1.0
        spec_path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "c.csv"
        assert run(
            "synth", "--pos-spec", str(spec_path), "--neg-spec", "alexa",
            "--n", "3", "--out", str(out),
        ) == 0
        rows = read_features_csv(out)
        assert all(fv.f1 for fv in rows if fv.label == "pos")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["numerics"].__setitem__("f15", [[2.0, 1.0]]),
            lambda doc: doc["numerics"].__setitem__("f13", [[float("nan"), 1.0]]),
            lambda doc: doc["numerics"].__setitem__("f13", [[365.7, 1.0]]),
            lambda doc: doc.__setitem__("booleans", []),
            lambda doc: doc["categoricals"].__setitem__("f11", {"U1": 0.3}),
        ],
        ids=["f15-2.0", "f13-nan", "f13-365.7", "booleans-list", "f11-mapping"],
    )
    def test_spec_it_cannot_sample_exit_3(self, edit, tmp_path, capsys):
        doc = spec_to_json(load_spec("phishing"))
        edit(doc)
        spec_path = tmp_path / "pos.json"
        spec_path.write_text(json.dumps(doc), encoding="utf-8")  # NaN as a bare literal
        code = run("synth", "--pos-spec", str(spec_path), "--neg-spec", "alexa", "--n", "3")
        assert code == 3
        assert "SpecIncomplete" in capsys.readouterr().err


class TestTrainAndEval:
    def test_train_writes_model(self, synth_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert run(
            "train", "--features", str(synth_csv), "--algo", "forest",
            "--trees", "10", "--model-out", str(model_path),
        ) == 0
        assert "seed 17" in capsys.readouterr().err
        doc = json.loads(model_path.read_text(encoding="utf-8"))
        assert doc["format_version"] == 2
        assert doc["kind"] == "forest"
        assert doc["hyperparameters"]["n_trees"] == 10
        assert load_model(model_path).table.n_trees == 10

    def test_train_byte_identical_reruns(self, synth_csv, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = ["train", "--features", str(synth_csv), "--algo", "bagging", "--trees", "5"]
        assert main(argv + ["--model-out", str(a)]) == 0
        assert main(argv + ["--model-out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_eval_report_json(self, synth_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(
            "eval", "--features", str(synth_csv), "--algo", "tree",
            "--cv", "5", "--out", str(out),
        ) == 0
        err = capsys.readouterr().err
        assert "pos_recall" in err  # table goes to the error stream
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["classifier"] == "tree"
        assert doc["folds"] == 5
        assert doc["seed"] == 17
        assert doc["rows"] == 80
        metrics = doc["metrics"]
        assert set(metrics) == {
            "positive_recall", "positive_precision",
            "negative_recall", "negative_precision", "accuracy",
        }

    def test_eval_byte_identical_reruns(self, synth_csv, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = [
            "eval", "--features", str(synth_csv), "--algo", "knn",
            "--cv", "4", "--k", "3",
        ]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    # SHA-256 of the `eval` JSON report for each kind, on synth phishing vs
    # alexa (60 per class, seed 5), at 5 folds (24 rows each) and at 7 folds
    # (16 or 18 rows: unequal training sets).  Recorded before
    # cross-validation grew the folds' trees together; the report bytes must
    # never change without a stated reason.
    GOLDEN_EVAL = {
        ("tree", 5): "e2dc159b667877f72ea651e87a104ae47d08b455266b5f07153d0b782499ca1c",
        ("tree", 7): "6051ece3f31e055f38d31dda66101d7aad8a87f4206890066ffd9a13fc836794",
        ("bagging", 5): "d8dc39396658399c79bf12336e9a6c73dd5d34960bcd8f1b90a5a05786daeddb",
        ("bagging", 7): "a4619650ac85f179d92a00c9b30e817e04a2596e71339cee9f8f69ade311fa25",
        ("forest", 5): "29766fe4d06adeeabd6362d7c59796e10cd22bae863de39c83c64957d959238e",
        ("forest", 7): "bb0db997dba62c64e0e25c45e7c65c82ad030c58ea0ba6b6c909337cb87789c8",
        ("knn", 5): "da17605084e18a5f074722cf136cb84324d26ce3339611e9a8441186d7442514",
        ("knn", 7): "fabd812d9579c954ba7194d94d8e75661a230f8fdd9f5125d940cf84a5066a78",
    }

    @pytest.fixture(scope="class")
    def eval_csv(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("eval") / "synth.csv"
        assert run(
            "synth", "--pos-spec", "phishing", "--neg-spec", "alexa",
            "--n", "60", "--seed", "5", "--out", str(path),
        ) == 0
        return path

    @pytest.mark.parametrize("kind,folds", sorted(GOLDEN_EVAL))
    def test_eval_report_golden(self, kind, folds, eval_csv, tmp_path):
        out = tmp_path / "report.json"
        argv = ["eval", "--features", str(eval_csv), "--algo", kind, "--cv", str(folds)]
        if kind in ("bagging", "forest"):
            argv += ["--trees", "15"]
        assert main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GOLDEN_EVAL[(kind, folds)]

    def test_unlabeled_rows_exit_3(self, synth_csv, tmp_path, capsys):
        text = synth_csv.read_text(encoding="utf-8").splitlines()
        stripped = [text[0]] + [line.rsplit(",", 1)[0] + "," for line in text[1:]]
        unlabeled = tmp_path / "unlabeled.csv"
        unlabeled.write_text("\n".join(stripped) + "\n", encoding="utf-8")
        code = run("train", "--features", str(unlabeled), "--algo", "tree")
        assert code == 3
        assert "DegenerateDataset" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("train", "--algo", "bagging", "--trees", "0"),
        ("eval", "--algo", "forest", "--trees", "0"),
        ("eval", "--algo", "forest", "--k", "3"),
    ])
    def test_out_of_range_hyperparameter_exit_1(self, argv, synth_csv, capsys):
        assert run(*argv, "--features", str(synth_csv)) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("eval", "--algo", "forest", "--cv", "1", "--features", "{missing}"),
        ("eval", "--algo", "tree", "--cv", "0", "--features", "{missing}"),
        ("synth", "--pos-spec", "{missing}", "--neg-spec", "{missing}", "--n", "0"),
    ])
    def test_out_of_range_count_exit_1_before_any_file_is_read(self, argv, tmp_path, capsys):
        missing = str(tmp_path / "missing")  # read first, it would exit 2
        assert run(*(arg.format(missing=missing) for arg in argv)) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "Traceback" not in err

    def test_missing_features_file_exit_2(self, tmp_path, capsys):
        code = run("train", "--features", str(tmp_path / "nope.csv"), "--algo", "tree")
        assert code == 2
        assert "i/o error" in capsys.readouterr().err

    def test_malformed_csv_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("domain,oops\nx,1\n", encoding="utf-8")
        assert run("train", "--features", str(bad), "--algo", "tree") == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("train", "--algo", "forest", "--model-out", "{out}"),
        ("report", "--mode", "cdf", "--column", "f14", "--out", "{out}"),
    ])
    def test_integer_cell_beyond_float64_exit_3(self, argv, synth_csv, tmp_path, capsys):
        # int() takes 401 digits, but the encoders and the CDF need a float64
        with synth_csv.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[3][rows[0].index("f14")] = "9" * 401
        big = tmp_path / "big.csv"
        with big.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        out = tmp_path / "out"
        assert run(*(arg.format(out=out) for arg in argv), "--features", str(big)) == 3
        err = capsys.readouterr().err
        assert f"error: SerializationFailure: {big}: line 4, column f14: " in err
        assert not out.exists()


class TestClassifyCommand:
    @pytest.fixture
    def model_path(self, synth_csv, tmp_path):
        path = tmp_path / "model.json"
        assert run(
            "train", "--features", str(synth_csv), "--algo", "tree",
            "--model-out", str(path),
        ) == 0
        return path

    def test_classify_features(self, synth_csv, model_path, tmp_path):
        out = tmp_path / "predictions.csv"
        assert run(
            "classify", "--model", str(model_path),
            "--features", str(synth_csv), "--out", str(out),
        ) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "domain,label,score"
        assert len(lines) == 81
        model = load_model(model_path)
        rows = {fv.domain: fv for fv in read_features_csv(synth_csv)}
        for line in lines[1:4]:
            domain, label, score = line.split(",")
            want_label, want_score = model.predict(rows[domain])
            assert label == want_label
            assert score == f"{want_score:.6f}"

    def test_bare_carriage_return_in_a_domain_stays_one_row(self, synth_csv, model_path, tmp_path):
        vectors = read_features_csv(synth_csv)
        vectors[0] = dataclasses.replace(vectors[0], domain="x\revil.example")
        features_csv = tmp_path / "cr.csv"
        with open(features_csv, "w", encoding="utf-8", newline="") as fh:
            features.write_features_csv(fh, vectors)
        out = tmp_path / "predictions.csv"
        assert run("classify", "--model", str(model_path),
                   "--features", str(features_csv), "--out", str(out)) == 0
        with open(out, encoding="utf-8", newline="") as fh:
            records = list(csv.reader(fh))
        assert len(records) == len(vectors) + 1
        assert [r[0] for r in records[1:]] == [fv.domain for fv in vectors]

    def test_requires_exactly_one_input(self, model_path, synth_csv, tmp_path, capsys):
        assert run("classify", "--model", str(model_path)) == 1
        corpus = tmp_path / "c.ndjson"
        corpus.write_text("", encoding="utf-8")
        assert run(
            "classify", "--model", str(model_path),
            "--features", str(synth_csv), "--corpus", str(corpus),
        ) == 1

    @pytest.mark.parametrize("flag,value", [
        ("--trust-store", "roots.pem"), ("--bogus-list", "bogus.txt"),
        ("--index-corpus", "index.ndjson"), ("--shingle", "2")])
    def test_extraction_flags_with_features_are_a_usage_error(
            self, flag, value, synth_csv, tmp_path, capsys):
        # refused before the model loads: a missing model would exit 2
        model = tmp_path / "missing.json"
        assert run("classify", "--model", str(model), "--features", str(synth_csv),
                   flag, value) == 1
        assert f"usage error: {flag} extracts from --corpus" in capsys.readouterr().err

    # SHA-256 of `classify` output for each kind, trained on synth phishing vs
    # alexa (60 per class, seed 5) and applied to a fresh sample (seed 6).
    # Recorded before classify moved to batch prediction; the output bytes
    # must never change without a stated reason.
    GOLDEN_CLASSIFY = {
        "tree": "9487f9a6f2909efa264b951fafb2befb0f5b7cc8c04e708d078521ea7e3a7d39",
        "bagging": "7a01e64efc17dcf1b6f1879c1783a660521e83f92e74a89098f4007551cbf769",
        "forest": "53e73c2afa4728a6be24f04fd3813a2873cfddb32d1c3c4eaa25245b7a866d90",
        "knn": "71fe79a5668de62e37cab94c171c38eb2a6dd426cafa7f775e60d766cdca38da",
    }

    # SHA-256 of the version-1 model files under tests/data, written by the
    # version-1 writer from the GOLDEN_CLASSIFY training sample (bagging and
    # forest with 15 trees); each must still classify to its golden digest.
    V1_MODELS = {
        "tree": "e7456eb7730cff9ad836fce4a42c965fc022956370b1c80b304963163e9d8f5f",
        "bagging": "07542db47a50aa494914d799f768fc78e37726a6cf58047dc05e6fcb48b63e07",
        "forest": "9bbbe92e02ace1eef37692a5b4a2a5a48ad70255b79d4ec61b620b6c43a09ef8",
        "knn": "c7f177da8e57ffa4ccfd9907b9bcf86d314ae0d240917737fb96a9e6d344e631",
    }

    @pytest.mark.parametrize("kind", sorted(V1_MODELS))
    def test_v1_model_file_classifies_to_golden(self, kind, tmp_path):
        model = DATA / f"v1-{kind}.json"
        assert hashlib.sha256(model.read_bytes()).hexdigest() == self.V1_MODELS[kind]
        query_csv = tmp_path / "query.csv"
        assert run(
            "synth", "--pos-spec", "phishing", "--neg-spec", "alexa",
            "--n", "40", "--seed", "6", "--out", str(query_csv),
        ) == 0
        out = tmp_path / "classify.csv"
        assert run(
            "classify", "--model", str(model), "--features", str(query_csv), "--out", str(out),
        ) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GOLDEN_CLASSIFY[kind]

    @pytest.mark.parametrize("kind", sorted(GOLDEN_CLASSIFY))
    def test_classify_output_golden(self, kind, tmp_path):
        train_csv, query_csv = tmp_path / "train.csv", tmp_path / "query.csv"
        for path, n, seed in ((train_csv, "60", "5"), (query_csv, "40", "6")):
            assert run(
                "synth", "--pos-spec", "phishing", "--neg-spec", "alexa",
                "--n", n, "--seed", seed, "--out", str(path),
            ) == 0
        model = tmp_path / "model.json"
        argv = ["train", "--features", str(train_csv), "--algo", kind, "--model-out", str(model)]
        if kind in ("bagging", "forest"):
            argv += ["--trees", "15"]
        assert main(argv) == 0
        assert json.loads(model.read_text(encoding="utf-8"))["format_version"] == 2
        out = tmp_path / "classify.csv"
        assert run(
            "classify", "--model", str(model), "--features", str(query_csv), "--out", str(out),
        ) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GOLDEN_CLASSIFY[kind]

    def test_tree_deeper_than_the_recursion_limit_round_trips(self, tmp_path):
        # alternating labels along f15 grow a chain about 1,200 splits deep
        n = 1200
        rows = [features.FeatureVector(
            domain=f"r{i:04d}.example", f1=False, f2=False, f3=False, f4=False, f5=False,
            f6=False, f7=False, f8=False, f9="CA", f10="Org", f11="US", f12="US",
            f13=365, f14=5, f15=i / n, label="pos" if i % 2 else "neg",
        ) for i in range(n)]
        csv_path, model_path, out = (tmp_path / name for name in ("deep.csv", "deep.json", "out.csv"))
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            features.write_features_csv(fh, rows)
        assert run("train", "--features", str(csv_path), "--algo", "tree", "--depth", "12000",
                   "--min-leaf", "1", "--model-out", str(model_path)) == 0
        assert run("classify", "--model", str(model_path), "--features", str(csv_path),
                   "--out", str(out)) == 0
        model = load_model(model_path)
        assert model.table.column.size > 2000
        _, scores = model.predict_batch(read_features_csv(csv_path))
        lines = out.read_text(encoding="utf-8").splitlines()[1:]
        assert [line.rsplit(",", 1)[1] for line in lines] == [f"{s:.6f}" for s in scores]

    def test_domains_holding_delimiters_stay_one_row(self, synth_csv, model_path, tmp_path):
        rows = read_features_csv(synth_csv)
        rows[0] = dataclasses.replace(rows[0], domain="evil,pos,1.000000\nx.example")
        rows[1] = dataclasses.replace(rows[1], domain='quoted"name.example')
        forged = tmp_path / "forged.csv"
        with open(forged, "w", encoding="utf-8", newline="") as fh:
            features.write_features_csv(fh, rows)
        out = tmp_path / "predictions.csv"
        assert run("classify", "--model", str(model_path), "--features", str(forged),
                   "--out", str(out)) == 0
        with open(out, encoding="utf-8", newline="") as fh:
            got = list(csv.reader(fh))
        assert got[0] == ["domain", "label", "score"]
        assert [row[0] for row in got[1:]] == [fv.domain for fv in rows]
        assert all(len(row) == 3 for row in got)

    def test_inputs_checked_before_the_model_is_read(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text("{\"format_version\": 1, \"kind\": \"tree\"", encoding="utf-8")
        assert run("classify", "--model", str(broken)) == 1
        assert capsys.readouterr().err.startswith("usage error:")

    def test_corrupt_model_exit_3(self, synth_csv, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text("{\"format_version\": 1, \"kind\": \"tree\"", encoding="utf-8")
        code = run("classify", "--model", str(broken), "--features", str(synth_csv))
        assert code == 3
        assert "CorruptModel" in capsys.readouterr().err

    def test_deeply_nested_model_exit_3(self, model_path, synth_csv, tmp_path, capsys):
        # a well-formed version-1 tree model whose tree nests 3,000 splits deep
        doc = json.loads(model_path.read_text(encoding="utf-8"))
        assert doc["schema"]["fingerprint"] == default_schema().fingerprint()
        leaf = '{"node": "leaf", "positive_fraction": 1.0, "count": 1}'
        split = '{"node": "split", "feature": "f1", "test": "eq", "value": true, "left": '
        del doc["nodes"]
        doc.update(format_version=1, tree="TREE")
        deep = tmp_path / "deep.json"
        deep.write_text(json.dumps(doc).replace(
            '"TREE"', split * 3000 + leaf + (', "right": ' + leaf + "}") * 3000
        ), encoding="utf-8")
        code = run("classify", "--model", str(deep), "--features", str(synth_csv))
        assert code == 3
        assert "CorruptModel" in capsys.readouterr().err

    def test_model_not_utf8_exit_3(self, model_path, synth_csv, capsys):
        model_path.write_bytes(model_path.read_bytes().replace(b'"tree"', b'"tr\xffe"', 1))
        code = run("classify", "--model", str(model_path), "--features", str(synth_csv))
        assert code == 3
        assert "CorruptModel" in capsys.readouterr().err

    def test_features_not_utf8_exit_3(self, model_path, synth_csv, capsys):
        synth_csv.write_bytes(synth_csv.read_bytes().replace(b".example", b".ex\xffample", 1))
        code = run("classify", "--model", str(model_path), "--features", str(synth_csv))
        assert code == 3
        assert "SerializationFailure" in capsys.readouterr().err

    def test_bad_cell_names_the_file_exit_3(self, model_path, synth_csv, tmp_path, capsys):
        lines = synth_csv.read_text(encoding="utf-8").split("\n")
        cells = lines[2].split(",")
        cells[3] = "maybe"  # f3
        lines[2] = ",".join(cells)
        synth_csv.write_text("\n".join(lines), encoding="utf-8")
        out = tmp_path / "predictions.csv"
        code = run("classify", "--model", str(model_path), "--features", str(synth_csv),
                   "--out", str(out))
        assert code == 3
        err = capsys.readouterr().err
        assert f"error: SerializationFailure: {synth_csv}: line 3, column f3: " in err
        assert not out.exists()

    @pytest.mark.parametrize("k", [0, "5"])
    def test_bad_knn_k_exit_3(self, k, synth_csv, tmp_path, capsys):
        # a k no prediction can use (0 scores nan, "5" is no number) fails at load
        path = tmp_path / "knn.json"
        argv = ["train", "--features", str(synth_csv), "--algo", "knn", "--model-out", str(path)]
        assert run(*argv) == 0
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["hyperparameters"]["k"] = k
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "predictions.csv"
        code = run("classify", "--model", str(path), "--features", str(synth_csv), "--out", str(out))
        assert code == 3
        assert "CorruptModel" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("algo, column, field, value", [
        ("tree", "f1", "name", "zz"), ("tree", "f9", "kind", "real"),
        ("tree", "f14", "kind", "boolean"), ("knn", "f1", "name", "zz"),
    ])
    def test_schema_naming_no_feature_of_its_kind_exit_3(
        self, algo, column, field, value, synth_csv, tmp_path, capsys
    ):
        # the fingerprint is recomputed, so the file loads; encoding refuses it
        # (a k-NN file whose kinds change fails its own payload check instead)
        path = tmp_path / "model.json"
        assert run("train", "--features", str(synth_csv), "--algo", algo,
                   "--model-out", str(path)) == 0
        doc = json.loads(path.read_text(encoding="utf-8"))
        columns = doc["schema"]["columns"]
        next(c for c in columns if c["name"] == column)[field] = value
        doc["schema"]["fingerprint"] = FeatureSchema(
            tuple(FeatureColumn(c["name"], c["kind"], c["included"]) for c in columns)
        ).fingerprint()
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "predictions.csv"
        code = run("classify", "--model", str(path), "--features", str(synth_csv),
                   "--out", str(out))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: SchemaError: ") and "Traceback" not in err
        assert not out.exists()

    def test_unknown_feature_model_exit_3(self, model_path, synth_csv, tmp_path, capsys):
        doc = json.loads(model_path.read_text(encoding="utf-8"))
        assert doc["nodes"]["column"][0] >= 0  # the root is a split
        doc["nodes"]["column"][0] = 99
        bad = tmp_path / "f99.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code = run("classify", "--model", str(bad), "--features", str(synth_csv))
        assert code == 3
        assert "CorruptModel" in capsys.readouterr().err


class TestReportCommand:
    def test_table_mode(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run("synth", "--pos-spec", "phishing", "--neg-spec", "alexa",
                   "--n", "30", "--seed", "5", "--out", str(a)) == 0
        assert run("synth", "--pos-spec", "typosquatting", "--neg-spec", "com",
                   "--n", "20", "--seed", "5", "--out", str(b)) == 0
        out = tmp_path / "table.csv"
        assert run(
            "report", "--mode", "table",
            "--features", f"first={a}", "--features", f"second={b}",
            "--out", str(out),
        ) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "feature,first (60),second (40)"
        assert len(lines) == 9
        assert all(line.count(",") == 2 for line in lines)
        for line in lines[1:]:
            for cell in line.split(",")[1:]:
                assert cell.endswith("%")

    def test_cdf_mode(self, synth_csv, tmp_path):
        out = tmp_path / "cdf.csv"
        assert run(
            "report", "--mode", "cdf", "--features", str(synth_csv),
            "--column", "f15", "--out", str(out),
        ) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "value,cum_frac"
        assert lines[-1].endswith("1.000000")

    def test_table_mode_wants_named_paths(self, synth_csv, capsys):
        assert run("report", "--mode", "table", "--features", str(synth_csv)) == 1
        assert run("report", "--mode", "table") == 1

    def test_cdf_mode_usage_errors(self, synth_csv, capsys):
        assert run("report", "--mode", "cdf", "--features", f"x={synth_csv}",
                   "--column", "f15") == 1
        assert run("report", "--mode", "cdf", "--features", str(synth_csv)) == 1


def _write_fixture_corpus(path, shared: bool):
    """Two-domain corpus; with shared=True both serve one certificate."""
    der_a, _ = make_cert("first.test", serial=1111)
    der_b = der_a if shared else make_cert("second.test", serial=2222, key=rsa_key(1))[0]
    records = [
        DomainRecord(domain="first.test", http_ok=True, https_ok=True,
                     harvest_time=T0, cert_der=der_a,
                     presented_chain_der=(der_a,)),
        DomainRecord(domain="second.test", http_ok=False, https_ok=True,
                     harvest_time=T0 + 5, cert_der=der_b,
                     presented_chain_der=(der_b,)),
    ]
    write_corpus(path, records)
    return records


def _feed(fifo, chunks) -> threading.Thread:
    """Make the named pipe fifo and start a thread writing the byte chunks
    into it, one at a time (daemonic: blocked for good if nothing reads)."""
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return writer


@pytest.fixture
def spool(tmp_path, monkeypatch):
    """An empty directory that TMPDIR names, where a piped input is copied."""
    spool = tmp_path / "spool"
    spool.mkdir()
    monkeypatch.setenv("TMPDIR", str(spool))
    monkeypatch.setattr(tempfile, "tempdir", None)  # read TMPDIR again
    return spool


class TestExtractCommand:
    def test_extract_features_from_corpus(self, tmp_path):
        corpus = tmp_path / "corpus.ndjson"
        _write_fixture_corpus(corpus, shared=False)
        out = tmp_path / "features.csv"
        assert run("extract", "--corpus", str(corpus), "--out", str(out)) == 0
        rows = read_features_csv(out)
        assert [fv.domain for fv in rows] == ["first.test", "second.test"]
        assert not rows[0].f6 and not rows[0].f7
        assert rows[0].f3  # self-signed fixtures

    def test_shared_certificate_sets_duplicate_flags(self, tmp_path):
        corpus = tmp_path / "corpus.ndjson"
        _write_fixture_corpus(corpus, shared=True)
        out = tmp_path / "features.csv"
        assert run("extract", "--corpus", str(corpus), "--out", str(out)) == 0
        rows = read_features_csv(out)
        assert all(fv.f6 and fv.f7 for fv in rows)

    def test_index_corpus_widens_duplicate_scope(self, tmp_path):
        # the probed corpus holds one domain; the index corpus also knows a
        # second domain serving the same certificate, so f6 turns on
        full = tmp_path / "full.ndjson"
        records = _write_fixture_corpus(full, shared=True)
        solo = tmp_path / "solo.ndjson"
        write_corpus(solo, records[:1])
        out = tmp_path / "features.csv"
        assert run(
            "extract", "--corpus", str(solo), "--index-corpus", str(full),
            "--out", str(out),
        ) == 0
        rows = read_features_csv(out)
        assert len(rows) == 1 and rows[0].f6

    def test_index_corpus_parses_each_leaf_once_per_corpus(self, tmp_path, monkeypatch, caplog):
        # one corpus as both inputs: no parse outlives its record, so each
        # leaf is parsed for extraction and again for the index, and the
        # one that does not parse is warned about once
        corpus = tmp_path / "corpus.ndjson"
        records = _write_fixture_corpus(corpus, shared=False)
        records.append(DomainRecord(domain="junk.test", http_ok=False, https_ok=True,
                                    harvest_time=T0, cert_der=b"\x30\x03bad"))
        write_corpus(corpus, records)
        parsed, parse = [], features._parse_certificate

        def counting_parse(der, warnings):
            parsed.append(der)
            return parse(der, warnings)

        monkeypatch.setattr(features, "_parse_certificate", counting_parse)
        with caplog.at_level(logging.WARNING):
            assert run(
                "extract", "--corpus", str(corpus), "--index-corpus", str(corpus),
                "--out", str(tmp_path / "features.csv"),
            ) == 0
        assert sorted(parsed) == sorted(2 * [r.cert_der for r in records])
        assert sum("junk.test" in r.getMessage() for r in caplog.records) == 1

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_corpus_from_a_pipe_extracts_as_from_a_file(self, tmp_path):
        # a pipe cannot be read twice, so it is copied to TMPDIR and read there
        corpus = tmp_path / "corpus.ndjson"
        _write_fixture_corpus(corpus, shared=True)
        from_file = tmp_path / "file.csv"
        assert run("extract", "--corpus", str(corpus), "--out", str(from_file)) == 0
        pipe = tmp_path / "corpus.pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=lambda: pipe.write_bytes(corpus.read_bytes()),
                                  daemon=True)  # blocked for good if nothing reads
        writer.start()
        try:
            from_pipe = tmp_path / "pipe.csv"
            assert run("extract", "--corpus", str(pipe), "--out", str(from_pipe)) == 0
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert from_pipe.read_bytes() == from_file.read_bytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_piped_corpus_streams_through_a_copy(self, tmp_path, monkeypatch, spool):
        # 20,000 records of 2 KiB each after the fixture's two: held as
        # records they take tens of MiB, but the pipe is copied to TMPDIR in
        # chunks and read from there in two passes, and the copy is removed
        fixture = tmp_path / "fixture.ndjson"
        _write_fixture_corpus(fixture, shared=True)

        def lines():
            yield fixture.read_bytes()
            for i in range(20_000):
                yield (record_to_line(DomainRecord(
                    domain=f"filler{i % 100}.test", http_ok=False, https_ok=False,
                    harvest_time=T0 + i, tls_error=f"{i:08d}" * 256)) + "\n").encode()

        corpus = tmp_path / "corpus.ndjson"
        corpus.write_bytes(b"".join(lines()))
        from_file = tmp_path / "file.csv"
        assert run("extract", "--corpus", str(corpus), "--out", str(from_file)) == 0
        copies = []
        monkeypatch.setattr("certsift.cli.CorpusFile", lambda path, name: copies.append(
            os.listdir(spool)) or CorpusFile(path, name))
        pipe = tmp_path / "corpus.pipe"
        tracemalloc.start()
        try:
            writer = _feed(pipe, lines())
            from_pipe = tmp_path / "pipe.csv"
            code = run("extract", "--corpus", str(pipe), "--out", str(from_pipe))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        writer.join(timeout=10)
        assert code == 0 and not writer.is_alive()
        assert peak < 2 * 2**20, peak  # 0.2 MiB streamed, 45 MiB held
        assert from_pipe.read_bytes() == from_file.read_bytes()
        assert [len(names) for names in copies] == [1]
        assert os.listdir(spool) == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("failure", ["damaged middle line", "missing trust store"])
    def test_a_failing_run_removes_the_copy_of_a_piped_corpus(
            self, failure, tmp_path, monkeypatch, capsys, spool):
        corpus = tmp_path / "corpus.ndjson"
        _write_fixture_corpus(corpus, shared=False)
        lines = corpus.read_bytes().splitlines(keepends=True)
        argv = ["extract", "--corpus", str(tmp_path / "corpus.pipe")]
        if failure == "damaged middle line":
            lines.insert(1, b"{not json\n")
            monkeypatch.setattr("certsift.cli.extract_corpus", None)  # no work is begun
        else:
            argv += ["--trust-store", str(tmp_path / "missing.pem")]
        writer = _feed(tmp_path / "corpus.pipe", lines)
        code = run(*argv)
        writer.join(timeout=10)
        assert not writer.is_alive()
        err = capsys.readouterr().err
        if failure == "damaged middle line":
            assert code == 3
            assert f"CorruptRecord: {tmp_path / 'corpus.pipe'}: line 2 does not parse" in err
        else:
            assert code == 2 and "missing.pem" in err
        assert os.listdir(spool) == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_torn_piped_corpus_is_warned_about_by_its_own_name(
            self, tmp_path, capsys, caplog, spool):
        corpus = tmp_path / "corpus.ndjson"
        _write_fixture_corpus(corpus, shared=False)
        torn = corpus.read_bytes().splitlines(keepends=True)[0][:40]  # a crash mid-append
        pipe = tmp_path / "corpus.pipe"
        writer = _feed(pipe, [corpus.read_bytes(), torn])
        with caplog.at_level(logging.WARNING):
            code = run("extract", "--corpus", str(pipe), "--out", str(tmp_path / "out.csv"))
        writer.join(timeout=10)
        assert code == 0 and not writer.is_alive()
        messages = [record.getMessage() for record in caplog.records]
        assert f"{pipe}: dropping torn final line 3" in messages
        assert not [text for text in (*messages, *capsys.readouterr()) if "certsift-" in text]

    def test_disjoint_index_corpus_exit_3(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.ndjson"
        _write_fixture_corpus(corpus, shared=False)
        other = tmp_path / "other.ndjson"
        der, _ = make_cert("elsewhere.test", key=rsa_key(2))
        write_corpus(other, [DomainRecord(domain="elsewhere.test", http_ok=True,
                                          https_ok=True, harvest_time=T0, cert_der=der)])
        code = run("extract", "--corpus", str(corpus), "--index-corpus", str(other))
        assert code == 3
        assert "IndexMismatch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value",
        [("harvest_time", T0), ("http_ok", "false"), ("domain", 7),
         ("chain_der_b64", {"QUJD": 1})],
    )
    def test_mistyped_record_field_exit_3(self, field, value, tmp_path, capsys):
        corpus = tmp_path / "corpus.ndjson"
        _write_fixture_corpus(corpus, shared=False)
        lines = corpus.read_text(encoding="utf-8").splitlines()
        doc = json.loads(lines[0])
        doc[field] = value
        lines[0] = json.dumps(doc)
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run("extract", "--corpus", str(corpus))
        assert code == 3
        assert "CorruptRecord" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["[" * 100_000, '{"harvest_time": ' + "9" * 5000 + "}"],
                             ids=["nested", "5000 digits"])
    def test_json_line_past_the_decoder_limits_exit_3_unless_torn(self, line, tmp_path, capsys):
        corpus = tmp_path / "corpus.ndjson"
        _write_fixture_corpus(corpus, shared=False)
        good = corpus.read_bytes()
        corpus.write_bytes(line.encode() + b"\n" + good)
        assert run("extract", "--corpus", str(corpus)) == 3
        err = capsys.readouterr().err
        assert "CorruptRecord" in err and f"{corpus}: line 1 does not parse" in err
        corpus.write_bytes(good + line.encode())  # a torn final line is dropped
        out = tmp_path / "features.csv"
        assert run("extract", "--corpus", str(corpus), "--out", str(out)) == 0
        assert len(read_features_csv(out)) == 2

    def test_extract_deterministic(self, tmp_path):
        corpus = tmp_path / "corpus.ndjson"
        _write_fixture_corpus(corpus, shared=False)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run("extract", "--corpus", str(corpus), "--out", str(a)) == 0
        assert run("extract", "--corpus", str(corpus), "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    # SHA-256 of the feature CSV for the corpus below, recorded before chain
    # verification moved to a subject-keyed issuer index and extraction to
    # one parse per certificate; the bytes must never change without a
    # stated reason.  Keys are random per run, so every serial is fixed and
    # no feature depends on key or signature bytes.
    GOLDEN_EXTRACT = "00f7334cebd830d2f8957e826f51fd2a471815579a098a4626d5c12a1e9194cb"

    @staticmethod
    def _golden_inputs(tmp_path) -> tuple[Path, Path]:
        """The corpus and trust store whose features GOLDEN_EXTRACT pins."""
        root_der, root_key = make_cert(
            name("Golden Root", o="Test Roots", c="US"), key=rsa_key(1), ca=True,
            serial=1, days=3650,
        )
        root = x509.load_der_x509_certificate(root_der)
        inter_der, inter_key = make_cert(
            name("Golden Intermediate", o="Test Roots"), issuer_cert=root,
            issuer_key=root_key, key=rsa_key(2), ca=True, serial=2, days=1825,
        )
        inter = x509.load_der_x509_certificate(inter_der)
        stray_der, stray_key = make_cert(
            name("Stray Root"), key=rsa_key(3), ca=True, serial=3, days=3650,
        )
        stray = x509.load_der_x509_certificate(stray_der)
        by_root = {"issuer_cert": root, "issuer_key": root_key, "key": rsa_key(4)}
        by_inter = {"issuer_cert": inter, "issuer_key": inter_key, "key": rsa_key(4)}
        leaves = {
            "verified.test": make_cert("verified.test", serial=1001, **by_root)[0],
            "chained.test": make_cert("chained.test", serial=1002, **by_inter)[0],
            "www.chained-too.test": make_cert(
                "chained-too.test", serial=1003, days=1500, **by_inter)[0],
            "selfsigned.test": make_cert(
                name("localhost", o="Internet Widgits Pty Ltd"), serial=1004,
                key=rsa_key(4))[0],
            "untrusted.test": make_cert(
                "untrusted.test", issuer_cert=stray, issuer_key=stray_key,
                key=rsa_key(4), serial=1005)[0],
            "expired.test": make_cert(
                "expired.test", serial=1006, not_before=T0 - 400 * DAY, days=30,
                **by_root)[0],
            "early.test": make_cert(
                "early.test", serial=1007, not_before=T0 + 10 * DAY, days=30,
                **by_root)[0],
            "forged.test": make_cert(
                "forged.test", issuer_name=root.subject, key=rsa_key(4), serial=1008)[0],
            "weak.test": make_cert("weak.test", serial=1009, md5=True, **by_root)[0],
            "duplicated.test": make_cert("duplicated.test", serial=1010, **by_inter)[0],
            "shared-a.test": make_cert("shared.test", serial=1011, **by_root)[0],
            "serial-a.test": make_cert("serial-a.test", serial=4242, **by_root)[0],
            "serial-b.test": make_cert("serial-b.test", serial=4242, **by_inter)[0],
            "badchain.test": make_cert("badchain.test", serial=1012, **by_root)[0],
            "anchor.test": root_der,
            "badleaf.test": b"\x30\x03bad",
        }
        leaves["shared-b.test"] = leaves["shared-a.test"]
        chains = {
            "chained.test": (inter_der,),
            "www.chained-too.test": (inter_der,),
            "duplicated.test": (inter_der, inter_der),
            "serial-b.test": (inter_der,),
            "badchain.test": (b"\x30\x03bad",),
        }
        records = [
            DomainRecord(domain="verified.test", http_ok=True, https_ok=True,
                         harvest_time=T0 - DAY, cert_der=leaves["forged.test"]),
            DomainRecord(domain="nocert.test", http_ok=True, https_ok=False,
                         harvest_time=T0),
        ]
        records += [
            DomainRecord(domain=domain, http_ok=True, https_ok=True, harvest_time=T0,
                         cert_der=der, presented_chain_der=(der,) + chains.get(domain, ()))
            for domain, der in sorted(leaves.items())
        ]
        corpus, bundle = tmp_path / "corpus.ndjson", tmp_path / "anchors.pem"
        write_corpus(corpus, records)
        other_der, _ = make_cert(name("Other Anchor"), key=rsa_key(5), ca=True, serial=5)
        bundle.write_bytes(to_pem(other_der) + to_pem(root_der))
        return corpus, bundle

    def test_extract_output_golden(self, tmp_path, monkeypatch):
        corpus, bundle = self._golden_inputs(tmp_path)
        verdicts = []

        def recording_verify(*args):
            outcome = verify_chain(*args)
            verdicts.append(outcome.verdict)
            return outcome

        monkeypatch.setattr(features, "verify_chain", recording_verify)
        out = tmp_path / "features.csv"
        assert run(
            "extract", "--corpus", str(corpus), "--trust-store", str(bundle),
            "--out", str(out),
        ) == 0
        assert set(verdicts) == set(Verdict)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GOLDEN_EXTRACT

    @pytest.mark.skipif(sys.platform != "linux", reason="extraction forks on Linux alone")
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_extract_output_golden_in_shares(self, tmp_path, monkeypatch, cpus):
        corpus, bundle = self._golden_inputs(tmp_path)
        forks, fork = [], os.fork

        def counted():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        monkeypatch.setattr(parts, "usable_cpus", lambda: cpus)  # the farm's threads may be alive
        monkeypatch.setattr(features, "_FORK_RECORDS", 1)
        out = tmp_path / "features.csv"
        assert run(
            "extract", "--corpus", str(corpus), "--trust-store", str(bundle),
            "--out", str(out),
        ) == 0
        assert len(forks) == cpus - 1
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GOLDEN_EXTRACT

    @pytest.mark.skipif(sys.platform != "linux", reason="extraction forks on Linux alone")
    def test_extract_stderr_is_the_same_in_shares_and_holds_no_python_warning(self, tmp_path):
        # chain_corpus, plus a domain at each end serving its negative-serial
        # certificate, in a fresh interpreter each time, so that no warning
        # registry or filter of this one hides what a child prints
        records, root_der = chain_corpus()
        (chained,) = [r for r in records if r.domain == "negative-chain.test"]
        negative = chained.presented_chain_der[1]
        records += tuple(
            DomainRecord(domain=domain, http_ok=True, https_ok=True, harvest_time=T0,
                         cert_der=negative, presented_chain_der=(negative,))
            for domain in ("a-negative.test", "z-negative.test"))
        write_corpus(tmp_path / "corpus.ndjson", records)
        (tmp_path / "anchors.pem").write_bytes(to_pem(root_der))
        script = """
import os, sys
from certsift import features, parts
from certsift.cli import main
forks, fork = [], os.fork
def counted():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = counted
features._FORK_RECORDS = 1
parts.usable_cpus = lambda: int(sys.argv[1])
code = main(["extract", "--corpus", "corpus.ndjson", "--trust-store", "anchors.pem",
             "--out", "features.csv"])
print(len(forks))
sys.exit(code)
"""
        src = str(Path(features.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONWARNINGS", None)
        outputs = []
        for shares in (1, 2, 3):
            result = subprocess.run([sys.executable, "-c", script, str(shares)], cwd=tmp_path,
                                    env=env, capture_output=True, timeout=120)
            assert result.returncode == 0, result.stderr
            assert result.stdout == b"%d\n" % (shares - 1)
            outputs.append((result.stderr, (tmp_path / "features.csv").read_bytes()))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        stderr = outputs[0][0].decode("utf-8")
        assert "Warning" not in stderr
        assert stderr.count(NEGATIVE_SERIAL_WARNING) == 1
        assert stderr.count(NEGATIVE_SERIAL_NOTE) == 1
        # each names the first record in domain order that served it
        lines = stderr.splitlines()
        for message in (NEGATIVE_SERIAL_WARNING, NEGATIVE_SERIAL_NOTE):
            assert record_warning("a-negative.test", "leaf", negative, message) in lines


class TestProbeCommand:
    def _probe_argv(self, farm, domains_file, out_path, resolve=None):
        argv = [
            "probe", "--domains", str(domains_file), "--out", str(out_path),
            "--timeout", "2000", "--retries", "0", "--concurrency", "4",
            "--http-port", str(farm.http_port), "--https-port", str(farm.https_port),
        ]
        for domain, address in (resolve or farm.addresses).items():
            argv += ["--resolve", f"{domain}={address}"]
        return argv

    def test_farm_end_to_end(self, farm, tmp_path, capsys):
        domains_file = tmp_path / "domains.txt"
        domains_file.write_text(
            "# harvest targets\n"
            + "\n".join([DOMAIN_BOTH, DOMAIN_TLS_ONLY, DOMAIN_HTTP_ONLY, DOMAIN_DEAD])
            + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "corpus.ndjson"
        assert main(self._probe_argv(farm, domains_file, out)) == 0
        err = capsys.readouterr().err
        assert "probed 4 domains" in err
        assert "1 both" in err and "1 neither" in err

        records = {r.domain: r for r in load_corpus(out)}
        assert records[DOMAIN_BOTH].cert_der == farm.leaf_der[DOMAIN_BOTH]
        assert records[DOMAIN_TLS_ONLY].cert_der == farm.leaf_der[DOMAIN_TLS_ONLY]
        assert set(records[DOMAIN_TLS_ONLY].presented_chain_der or ()) == set(
            farm.chain_der[DOMAIN_TLS_ONLY]
        )
        assert records[DOMAIN_HTTP_ONLY].cert_der is None
        assert records[DOMAIN_DEAD].category == "neither"

        # wire format carries base64 of the exact harvested DER
        for line in out.read_text(encoding="utf-8").splitlines():
            doc = json.loads(line)
            if doc["domain"] == DOMAIN_BOTH:
                assert base64.b64decode(doc["cert_der_b64"]) == farm.leaf_der[DOMAIN_BOTH]

    def test_probe_then_extract_with_trust_store(self, farm, tmp_path):
        domains_file = tmp_path / "domains.txt"
        domains_file.write_text(f"{DOMAIN_BOTH}\n{DOMAIN_TLS_ONLY}\n", encoding="utf-8")
        corpus = tmp_path / "corpus.ndjson"
        assert main(self._probe_argv(farm, domains_file, corpus)) == 0
        anchors = tmp_path / "anchors.pem"
        anchors.write_bytes(farm.root_pem)
        out = tmp_path / "features.csv"
        assert run(
            "extract", "--corpus", str(corpus),
            "--trust-store", str(anchors), "--out", str(out),
        ) == 0
        rows = {fv.domain: fv for fv in read_features_csv(out)}
        assert rows[DOMAIN_TLS_ONLY].f5 is False  # chains to the farm root
        assert rows[DOMAIN_BOTH].f5 is True  # self-signed stranger
        assert rows[DOMAIN_BOTH].f3 is True

    def test_reprobe_appends_to_corpus(self, farm, tmp_path):
        domains = [DOMAIN_BOTH, DOMAIN_TLS_ONLY, DOMAIN_HTTP_ONLY, DOMAIN_DEAD]
        domains_file = tmp_path / "domains.txt"
        domains_file.write_text("\n".join(domains) + "\n", encoding="utf-8")
        corpus = tmp_path / "corpus.ndjson"
        assert main(self._probe_argv(farm, domains_file, corpus)) == 0
        assert main(self._probe_argv(farm, domains_file, corpus)) == 0
        records = load_corpus(corpus)
        assert sorted(r.domain for r in records) == sorted(domains * 2)
        out = tmp_path / "features.csv"
        assert run("extract", "--corpus", str(corpus), "--out", str(out)) == 0
        # only the two domains that served a certificate yield a vector
        assert sorted(fv.domain for fv in read_features_csv(out)) == sorted(
            [DOMAIN_BOTH, DOMAIN_TLS_ONLY]
        )

    def test_reprobe_after_a_crash_mid_append_keeps_the_corpus_readable(self, farm, tmp_path):
        domains_file = tmp_path / "domains.txt"
        domains_file.write_text(f"{DOMAIN_BOTH}\n{DOMAIN_TLS_ONLY}\n", encoding="utf-8")
        corpus = tmp_path / "corpus.ndjson"
        assert main(self._probe_argv(farm, domains_file, corpus)) == 0
        whole = corpus.read_bytes()
        corpus.write_bytes(whole[: whole.rindex(b"\n", 0, -1) + 40])  # cut inside line 2
        assert main(self._probe_argv(farm, domains_file, corpus)) == 0
        assert len(load_corpus(corpus)) == 3
        out = tmp_path / "features.csv"
        assert run("extract", "--corpus", str(corpus), "--out", str(out)) == 0
        assert sorted(fv.domain for fv in read_features_csv(out)) == sorted(
            [DOMAIN_BOTH, DOMAIN_TLS_ONLY]
        )

    def test_resolve_key_in_any_spelling_names_the_domain(self, farm, tmp_path, monkeypatch):
        real_getaddrinfo = socket.getaddrinfo

        def literals_only(host, *args, **kwargs):  # a missed key never reaches DNS
            try:
                ipaddress.ip_address(host)
            except ValueError:
                raise socket.gaierror(socket.EAI_NONAME, f"no lookups here: {host}") from None
            return real_getaddrinfo(host, *args, **kwargs)

        monkeypatch.setattr(socket, "getaddrinfo", literals_only)
        domains_file = tmp_path / "domains.txt"
        domains_file.write_text(f"{DOMAIN_BOTH}\n", encoding="utf-8")
        out = tmp_path / "corpus.ndjson"
        resolve = {f"{DOMAIN_BOTH.upper()}.": farm.addresses[DOMAIN_BOTH]}
        assert main(self._probe_argv(farm, domains_file, out, resolve)) == 0
        (record,) = load_corpus(out)
        assert record.domain == DOMAIN_BOTH
        assert record.category == "both"

    def test_bad_resolve_syntax_exit_1(self, tmp_path, capsys):
        domains_file = tmp_path / "domains.txt"
        domains_file.write_text("a.test\n", encoding="utf-8")
        code = run("probe", "--domains", str(domains_file), "--resolve", "nonsense")
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["file", pytest.param("fifo", marks=pytest.mark.skipif(
        not hasattr(os, "mkfifo"), reason="needs named pipes"))])
    def test_a_long_domain_list_streams_into_the_probes(
            self, source, tmp_path, monkeypatch, capsys, spool):
        # the list is read as probe_corpus asks for names, not held, from a
        # pipe through its copy in TMPDIR: at the 2,000th probe the traced
        # peak stays far below the 200,000 names' 13.5 MiB as strings in a
        # list, and no more threads than the concurrency are started
        n, concurrency = 200_000, 2
        domains_file = tmp_path / "domains.txt"
        text = ("# targets\n" + "".join(f"d{i}.test\n\n" for i in range(n))).encode("utf-8")
        if source == "file":
            domains_file.write_bytes(text)
        else:
            writer = _feed(domains_file, [text])
        before = threading.active_count()
        started, calls, peak = [], [], []

        def stub(domain, config):
            started.append(threading.active_count() - before)
            calls.append(None)
            if len(calls) == 2000:
                peak.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            return DomainRecord(domain=domain, http_ok=True, https_ok=False, harvest_time=T0)

        monkeypatch.setattr(probe, "probe_domain", stub)
        out = tmp_path / "corpus.ndjson"
        tracemalloc.start()
        try:
            code = run("probe", "--domains", str(domains_file), "--out", str(out),
                       "--concurrency", str(concurrency))
        finally:
            tracemalloc.stop()
        assert code == 0
        assert f"probed {n} domains: 0 both, 0 https_only, {n} http_only" in capsys.readouterr().err
        assert peak[0] < 2 * 2**20, peak
        assert max(started) <= concurrency
        with open(out, encoding="utf-8") as fh:
            assert [json.loads(line)["domain"] for line in fh] == [f"d{i}.test" for i in range(n)]
        if source == "fifo":
            writer.join(timeout=10)
            assert not writer.is_alive()
        assert os.listdir(spool) == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_piped_domain_list_that_is_not_utf8_exits_3_before_any_probe(
            self, tmp_path, monkeypatch, capsys, spool):
        fifo = tmp_path / "domains.fifo"
        writer = _feed(fifo, [b"a.test\n", "caf\xe9.test\n".encode("latin-1")])
        monkeypatch.setattr(probe, "probe_domain", None)  # no probe is begun
        out = tmp_path / "corpus.ndjson"
        code = run("probe", "--domains", str(fifo), "--out", str(out))
        writer.join(timeout=10)
        assert code == 3 and not writer.is_alive()
        assert f"MalformedInput: {fifo}: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()
        assert os.listdir(spool) == []

    def test_a_domain_list_from_a_pipe_is_read_once(self, tmp_path, monkeypatch):
        fifo = tmp_path / "domains.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text,
                                  args=("a.test\n# comment\n  B.test \n",), kwargs={"encoding": "utf-8"})
        writer.start()
        monkeypatch.setattr(probe, "probe_domain", lambda domain, config: DomainRecord(
            domain=domain, http_ok=True, https_ok=False, harvest_time=T0))
        out = tmp_path / "corpus.ndjson"
        try:
            assert run("probe", "--domains", str(fifo), "--out", str(out)) == 0
        finally:
            writer.join()
        assert [r.domain for r in load_corpus(out)] == ["a.test", "b.test"]

    def test_zero_concurrency_exit_1(self, tmp_path, capsys):
        domains_file = tmp_path / "domains.txt"
        domains_file.write_text("a.test\n", encoding="utf-8")
        out = tmp_path / "corpus.ndjson"
        code = run("probe", "--domains", str(domains_file), "--concurrency", "0",
                   "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists()


class TestExitCodesAndPlumbing:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["harvest"]) == 1

    def test_unknown_algo_choice(self, synth_csv, capsys):
        assert run("train", "--features", str(synth_csv), "--algo", "svm") == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "COMMAND" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["probe", "extract", "synth"])
    def test_text_input_not_utf8_exit_3(self, command, tmp_path, capsys):
        # the domain list, the bogus list and a spec file are UTF-8 text
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("caf\xe9.test\n".encode("latin-1"))
        empty_corpus = tmp_path / "corpus.ndjson"
        empty_corpus.write_bytes(b"")
        out = tmp_path / "out"
        argv = {
            "probe": ["probe", "--domains", str(latin1), "--out", str(out)],
            "extract": ["extract", "--corpus", str(empty_corpus), "--bogus-list", str(latin1),
                        "--out", str(out)],
            "synth": ["synth", "--pos-spec", str(latin1), "--neg-spec", "alexa", "--n", "5",
                      "--out", str(out)],
        }[command]
        assert run(*argv) == 3
        assert str(latin1) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["spec_not_json", "spec_too_deep", "bogus_list_empty"])
    def test_bad_input_file_exit_3(self, case, tmp_path, capsys):
        # cut-off JSON, JSON nested past the decoder's recursion limit, a list of blank lines
        bad = tmp_path / "input"
        bad.write_text({"spec_not_json": '{"label": "pos", ', "spec_too_deep": "[" * 100_000,
                        "bogus_list_empty": " \n\n"}[case], encoding="utf-8")
        out = tmp_path / "out"
        if case == "bogus_list_empty":
            corpus = tmp_path / "corpus.ndjson"
            corpus.write_bytes(b"")
            argv = ["extract", "--corpus", str(corpus), "--bogus-list", str(bad), "--out", str(out)]
        else:
            argv = ["synth", "--pos-spec", str(bad), "--neg-spec", "alexa", "--n", "5",
                    "--out", str(out)]
        assert run(*argv) == 3
        assert str(bad) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["model_kind", "spec_probability", "trust_store_block"])
    def test_bad_document_names_the_file_exit_3(self, case, tmp_path, capsys):
        # each file decodes, then fails a check of its content
        bad = tmp_path / "input"
        out = tmp_path / "out"
        if case == "model_kind":
            bad.write_text('{"format_version": 2, "kind": "zz"}', encoding="utf-8")
            features_csv = tmp_path / "f.csv"
            features_csv.write_text(",".join(features.CSV_HEADER) + "\n", encoding="utf-8")
            argv = ["classify", "--model", str(bad), "--features", str(features_csv)]
            expected = "CorruptModel"
        elif case == "spec_probability":
            doc = spec_to_json(load_spec("phishing"))
            doc["booleans"]["f1"] = 2.0
            bad.write_text(json.dumps(doc), encoding="utf-8")
            argv = ["synth", "--pos-spec", str(bad), "--neg-spec", "alexa", "--n", "5"]
            expected = "SpecIncomplete"
        else:
            anchor = to_pem(make_cert("Anchor")[0])
            broken = b"-----BEGIN CERTIFICATE-----\nMIIB\n-----END CERTIFICATE-----\n"
            bad.write_bytes(anchor + broken)
            corpus = tmp_path / "corpus.ndjson"
            corpus.write_bytes(b"")
            argv = ["extract", "--corpus", str(corpus), "--trust-store", str(bad)]
            expected = "MalformedInput"
        assert run(*argv, "--out", str(out)) == 3
        assert capsys.readouterr().err.startswith(f"error: {expected}: {bad}: ")
        assert not out.exists()

    def test_out_into_missing_directory_exit_2(self, synth_csv, tmp_path, capsys):
        target = tmp_path / "missing" / "deep" / "out.json"
        code = run("eval", "--features", str(synth_csv), "--algo", "tree",
                   "--cv", "2", "--out", str(target))
        assert code == 2
        assert "i/o error" in capsys.readouterr().err

    def test_atomic_output_discards_partial_file(self, tmp_path):
        target = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            with _atomic_output(str(target)) as out:
                out.write("partial data")
                raise RuntimeError("simulated failure mid-write")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_atomic_output_writes_on_success(self, tmp_path):
        target = tmp_path / "out.txt"
        with _atomic_output(str(target)) as out:
            out.write("complete\n")
        assert target.read_text(encoding="utf-8") == "complete\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_atomic_output_replaces_existing(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old", encoding="utf-8")
        with _atomic_output(str(target)) as out:
            out.write("new")
        assert target.read_text(encoding="utf-8") == "new"

    def test_feature_row_commands_load_no_certificate_or_network_library(self, tmp_path):
        # a fresh interpreter, since this one imported cryptography already
        corpus = tmp_path / "corpus.ndjson"
        _write_fixture_corpus(corpus, shared=False)
        script = f"""
import json, sys
import certsift, certsift.cli
heavy = ("cryptography", "ssl", "http.client", "concurrent.futures")
def loaded():
    return [name for name in heavy if name in sys.modules]
seen = {{"import": loaded()}}
main = certsift.cli.main
assert main(["synth", "--pos-spec", "phishing", "--neg-spec", "alexa", "--n", "20",
             "--out", "rows.csv"]) == 0
assert main(["train", "--features", "rows.csv", "--algo", "tree", "--model-out", "m.json"]) == 0
assert main(["eval", "--features", "rows.csv", "--algo", "tree", "--cv", "2",
             "--out", "report.json"]) == 0
seen["synth, train, eval"] = loaded()
assert main(["extract", "--corpus", {str(corpus)!r}, "--out", "features.csv"]) == 0
seen["extract"] = loaded()
print(json.dumps(seen))
"""
        src = str(Path(features.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                                capture_output=True, encoding="utf-8", timeout=120)
        assert result.returncode == 0, result.stderr
        seen = json.loads(result.stdout.splitlines()[-1])
        assert seen["import"] == []
        assert seen["synth, train, eval"] == []
        assert "cryptography" in seen["extract"]

    def test_console_script_installed(self, tmp_path):
        exe = shutil.which("certsift")
        assert exe, "console script should be on PATH after installation"
        result = subprocess.run(
            [exe, "synth", "--pos-spec", "phishing", "--neg-spec", "alexa", "--n", "2"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("domain,f1,")
