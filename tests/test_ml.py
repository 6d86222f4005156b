"""Classifier training, prediction, evaluation, and persistence."""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import pickle
import random
import subprocess
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from certsift import FeatureVector, parts
from certsift.errors import (
    CorruptModel,
    DegenerateDataset,
    SchemaError,
    TooFewRows,
    VersionMismatch,
)
from certsift.features import FEATURE_KINDS, NUMERIC_FEATURES
from certsift.ml import (
    DEFAULT_SEED,
    KIND_BAGGING,
    KIND_FOREST,
    KIND_KNN,
    KIND_TREE,
    Dataset,
    DecisionTreeModel,
    FeatureColumn,
    FeatureSchema,
    NearestNeighborModel,
    RandomForestModel,
    cross_validate,
    default_schema,
    load_model,
    predict,
    resolve_hyperparameters,
    save_model,
    stratified_fold_indices,
    train,
)
from certsift.ml import classifiers, evaluate, tree
from certsift.ml.persist import TEST_EQ, TEST_LE, model_to_json, write_model
from certsift.ml.schema import Encoder, canonical_key, encode_labels
from certsift.ml.tree import (
    _MIN_GAIN,
    NodeTable,
    grow_trees,
)
from certsift.synth import boolean_only_variant, load_spec, sample_corpus


def fv(domain: str, label: str | None = None, **overrides) -> FeatureVector:
    base = dict(
        f1=False, f2=False, f3=False, f4=False, f5=False, f6=False, f7=False,
        f8=False, f9="Root CA", f10="Root Org", f11="US", f12="US",
        f13=365, f14=5, f15=0.5,
    )
    base.update(overrides)
    return FeatureVector(domain=domain, label=label, **base)


def reference_leaf_fraction(node: dict, fv: FeatureVector) -> float:
    """Per-row walk of a decoded tree: the reference for batch prediction.

    Equality tests route any value not equal to the stored one (including
    categorical values never seen in training) to the right branch.
    """
    while node["node"] == "split":
        value = fv.value(node["feature"])
        if node["test"] == "eq":
            go_left = value == node["value"]
        else:
            go_left = float(value) <= node["value"]
        node = node["left"] if go_left else node["right"]
    return node["positive_fraction"]


def decoded_trees(model) -> list[dict]:
    """A tree model's trees as nested dicts of feature names and raw values
    (a version-1 file's trees), read off its table and encoder."""
    table, encoder = model.table, model.encoder
    values = {name: {code: v for v, code in vocab.items()} for name, vocab in encoder.vocabs.items()}

    def tree(i: int) -> dict:
        j = int(table.column[i])
        if j < 0:
            return {"node": "leaf", "positive_fraction": float(table.fraction[i]),
                    "count": int(table.count[i])}
        col, value = encoder.columns[j], float(table.value[i])
        if col.kind == "boolean":
            value = bool(value)
        elif col.kind == "categorical":
            value = values[col.name][int(value)]
        left = int(table.left[i])
        return {"node": "split", "feature": col.name,
                "test": TEST_EQ if encoder.eq_mask[j] else TEST_LE, "value": value,
                "left": tree(left), "right": tree(left + 1)}

    return [tree(t) for t in range(table.n_trees)]


def v1_document(model) -> dict:
    """The version-1 document of a tree model: its trees nested as dicts."""
    doc = model_to_json(model)
    del doc["nodes"]
    trees = decoded_trees(model)
    doc["format_version"] = 1
    if model.kind == KIND_TREE:
        doc["tree"] = trees[0]
    else:
        doc["trees"] = trees
    return doc


def reference_knn_encode(model: NearestNeighborModel, fv: FeatureVector) -> np.ndarray:
    """Per-cell k-NN encoding of one row: the reference for Encoder.encode_rows
    followed by the model's clamped min-max scaling of numeric columns."""
    out = []
    for col in model.schema.included():
        value = fv.value(col.name)
        if col.kind == "boolean":
            out.append(1.0 if value else 0.0)
        elif col.kind == "categorical":
            out.append(float(model.encoder.vocabs[col.name].get(value, -1)))
        else:
            lo, hi = model.ranges[col.name]
            if hi == lo:
                out.append(0.0)
            else:
                out.append(min(max((float(value) - lo) / (hi - lo), 0.0), 1.0))
    return np.array(out, dtype=np.float64)


def reference_knn_distance(model: NearestNeighborModel, a: FeatureVector, b: FeatureVector) -> float:
    """Mean per-feature mismatch of two reference-encoded rows."""
    ea, eb = reference_knn_encode(model, a), reference_knn_encode(model, b)
    kinds = [col.kind for col in model.schema.included()]
    parts = [
        float(x != y) if kind in ("boolean", "categorical") else abs(x - y)
        for kind, x, y in zip(kinds, ea, eb)
    ]
    return float(np.mean(parts))


def reference_knn_scores(model: NearestNeighborModel, X: np.ndarray) -> list[float]:
    """The per-row scan that chunked k-NN prediction replaced: each encoded
    query row's distances to every training row, a stable argsort, and the
    mean label of the first k."""
    scores = []
    for row in X:
        cells = np.where(model.encoder.eq_mask, model.matrix != row, np.abs(model.matrix - row))
        dists = cells.mean(axis=-1)
        k = min(model.hyperparameters["k"], dists.size)
        nearest = np.argsort(dists, kind="stable")[:k]
        scores.append(float(model.labels[nearest].mean()))
    return scores


def reference_predict(model, fv: FeatureVector, dataset: Dataset) -> tuple[str, float]:
    """One row through the dict walk (tree kinds) or a pairwise k-NN scan
    over the training dataset."""
    if isinstance(model, DecisionTreeModel):
        score = reference_leaf_fraction(decoded_trees(model)[0], fv)
    elif isinstance(model, NearestNeighborModel):
        rows = [dataset.rows[i] for i in dataset.canonical_order()]
        dists = [reference_knn_distance(model, fv, row) for row in rows]
        nearest = sorted(range(len(rows)), key=lambda i: (dists[i], i))
        nearest = nearest[: model.hyperparameters["k"]]
        score = sum(rows[i].label == "pos" for i in nearest) / len(nearest)
    else:
        trees = decoded_trees(model)
        votes = sum(reference_leaf_fraction(root, fv) >= 0.5 for root in trees)
        score = votes / len(trees)
    return ("pos" if score >= 0.5 else "neg"), score


def reference_scan_columns(X, y, tests, cols, min_leaf):
    """Best (column, test, encoded value) over the given columns, or None.

    The per-column sort-and-scan split search: the reference the
    histogram search in grow_trees is checked against, exactly.
    """
    n = y.size
    pos = float(y.sum())
    parent = 2.0 * (pos / n) * (1.0 - pos / n)
    best = None
    best_gain = _MIN_GAIN
    for j in cols:
        col = X[:, j]
        if tests[j] == TEST_EQ:
            uniq, inverse = np.unique(col, return_inverse=True)
            if uniq.size < 2:
                continue
            n_left = np.bincount(inverse).astype(np.float64)
            pos_left = np.bincount(inverse, weights=y)
            candidates = uniq
        else:
            order = np.argsort(col, kind="stable")
            sorted_values = col[order]
            boundaries = np.nonzero(sorted_values[1:] != sorted_values[:-1])[0]
            if boundaries.size == 0:
                continue
            n_left = (boundaries + 1).astype(np.float64)
            pos_left = np.cumsum(y[order])[boundaries]
            lo, hi = sorted_values[boundaries], sorted_values[boundaries + 1]
            mid = lo / 2.0 + hi / 2.0  # halfway, or lo where that rounds up to hi
            candidates = np.where(mid < hi, mid, lo)
        n_right = n - n_left
        pos_right = pos - pos_left
        valid = (n_left >= min_leaf) & (n_right >= min_leaf)
        if not valid.any():
            continue
        frac_left = np.divide(pos_left, n_left, out=np.zeros_like(n_left), where=n_left > 0)
        frac_right = np.divide(pos_right, n_right, out=np.zeros_like(n_right), where=n_right > 0)
        gain = (
            parent
            - (n_left / n) * 2.0 * frac_left * (1.0 - frac_left)
            - (n_right / n) * 2.0 * frac_right * (1.0 - frac_right)
        )
        gain[~valid] = -np.inf
        k = int(np.argmax(gain))
        if gain[k] > best_gain:
            best_gain = float(gain[k])
            best = (j, tests[j], float(candidates[k]))
    return best


def reference_grow_tree(X, y, tests, max_depth, min_leaf, rng=None, n_sample_features=None):
    """Depth-first growth over reference_scan_columns, drawing the forest's
    feature subset at the same points, in the same order, as grow_trees."""
    n, d = X.shape
    all_cols = list(range(d))
    subsampling = rng is not None and n_sample_features is not None and n_sample_features < d

    def leaf(idx):
        return {"node": "leaf", "positive_fraction": float(y[idx].sum()) / idx.size,
                "count": int(idx.size)}

    def grow(idx, depth):
        y_node = y[idx]
        count = idx.size
        positive = y_node.sum()
        if positive == 0 or positive == count or depth >= max_depth or count < 2 * min_leaf:
            return leaf(idx)
        if subsampling:
            sampled = sorted(rng.choice(d, size=n_sample_features, replace=False).tolist())
            blocks = [sampled, sorted(set(all_cols) - set(sampled))]
        else:
            blocks = [all_cols]
        X_node = X[idx]
        best = None
        for cols in blocks:
            best = reference_scan_columns(X_node, y_node, tests, cols, min_leaf)
            if best is not None:
                break
        if best is None:
            return leaf(idx)
        j, test, value = best
        column = X_node[:, j]
        mask = column == value if test == TEST_EQ else column <= value
        return {
            "node": "split", "col": j, "test": test, "value": value,
            "left": grow(idx[mask], depth + 1),
            "right": grow(idx[~mask], depth + 1),
        }

    return grow(np.arange(n), 0)


def nested_trees(table: NodeTable) -> list[dict]:
    """Every tree of a grown table as the encoded nested dicts
    reference_grow_tree builds, so that the two compare with ==.  Checks the
    layout on the way: node t is tree t's root, a split's children are
    left and left + 1, and every node belongs to exactly one tree."""
    seen = []

    def tree(i: int) -> dict:
        seen.append(i)
        j = int(table.column[i])
        if j < 0:
            return {"node": "leaf", "positive_fraction": float(table.fraction[i]),
                    "count": int(table.count[i])}
        assert table.fraction[i] == table.count[i] == 0.0
        left = int(table.left[i])
        return {"node": "split", "col": j, "test": TEST_EQ if table.eq_mask[j] else TEST_LE,
                "value": float(table.value[i]), "left": tree(left), "right": tree(left + 1)}

    roots = [tree(t) for t in range(table.n_trees)]
    assert sorted(seen) == list(range(table.column.size))
    return roots


def reference_walk(table: NodeTable, X: np.ndarray, root: int) -> np.ndarray:
    """The leaf fraction each row of X reaches from root, one row and one
    node at a time."""
    fractions = []
    for x in X:
        i = root
        while (j := int(table.column[i])) >= 0:
            goes_left = x[j] == table.value[i] if table.eq_mask[j] else x[j] <= table.value[i]
            i = int(table.left[i]) + (not goes_left)
        fractions.append(table.fraction[i])
    return np.array(fractions, dtype=np.float64)


def random_encoded_matrix(rng: np.random.Generator):
    """A small encoded matrix with the awkward cases split search meets:
    tied values, duplicated rows, constant and single-valued columns, mixed
    eq/le columns, and labels that follow a column or are pure noise."""
    n = int(rng.integers(2, 70))
    d = int(rng.integers(1, 7))
    tests = [TEST_EQ if rng.random() < 0.5 else TEST_LE for _ in range(d)]
    X = np.empty((n, d), dtype=np.float64)
    for j, test in enumerate(tests):
        shape = rng.integers(0, 4)
        if shape == 0:  # constant (single-valued)
            X[:, j] = float(rng.integers(0, 3))
        elif test == TEST_EQ:  # boolean or categorical codes, with gaps
            X[:, j] = rng.choice(rng.permutation(8)[: int(rng.integers(2, 6))], size=n)
        elif shape == 1:  # few distinct reals, many ties
            X[:, j] = rng.choice(np.round(rng.normal(size=4), 3), size=n)
        else:  # integers over a wide range
            X[:, j] = rng.integers(-20, 400, size=n)
    if rng.random() < 0.5:
        y = (rng.random(n) < 0.5).astype(np.float64)
    else:  # labels driven by one column, with noise
        j = int(rng.integers(0, d))
        y = ((X[:, j] > np.median(X[:, j])) ^ (rng.random(n) < 0.15)).astype(np.float64)
    if rng.random() < 0.3:  # a bootstrap, as ensembles grow on: duplicated rows
        boot = rng.integers(0, n, size=n)
        X, y = X[boot], y[boot]
    return X, y, tests


def eq_mask(tests: list[str]) -> np.ndarray:
    """grow_trees's column mask for the reference's per-column test names."""
    return np.array([test == TEST_EQ for test in tests], dtype=bool)


def node_cells(i: int, **cells):
    """A mutation setting node i's cells of a version-2 document's arrays."""
    def mutate(doc: dict) -> None:
        for name, value in cells.items():
            doc["nodes"][name][i] = value
    return mutate


def f3_dataset(n_per_class: int = 20) -> Dataset:
    rows = []
    for i in range(n_per_class):
        rows.append(fv(f"pos-{i:03d}.example", "pos", f3=True))
        rows.append(fv(f"neg-{i:03d}.example", "neg", f3=False))
    return Dataset(rows)


class TestSchema:
    def test_default_layout(self):
        schema = default_schema()
        assert len(schema.columns) == 15
        included = {c.name for c in schema.included()}
        assert "f5" not in included and "f13" not in included
        assert len(included) == 13
        kinds = {c.name: c.kind for c in schema.columns}
        assert kinds["f1"] == "boolean"
        assert kinds["f9"] == "categorical"
        assert kinds["f14"] == "integer"
        assert kinds["f15"] == "real"

    def test_fingerprint_tracks_layout(self):
        a = default_schema()
        b = default_schema()
        assert a.fingerprint() == b.fingerprint()
        flipped = FeatureSchema(
            tuple(
                FeatureColumn(c.name, c.kind, not c.included if c.name == "f5" else c.included)
                for c in a.columns
            )
        )
        assert flipped.fingerprint() != a.fingerprint()

    def test_require_labeled(self):
        with pytest.raises(DegenerateDataset):
            Dataset([fv("x.example")]).require_labeled()
        with pytest.raises(DegenerateDataset):
            Dataset([fv("x.example", "pos"), fv("y.example", "pos")]).require_labeled()
        Dataset([fv("x.example", "pos"), fv("y.example", "neg")]).require_labeled()

    def test_canonical_order_ignores_input_order(self):
        rows = [fv(f"d{i}.example", "pos" if i % 2 else "neg", f14=i) for i in range(9)]
        rows.append(fv("z.example", "neg"))
        rows.append(fv("a.example", "pos"))
        forward = Dataset(rows)
        backward = Dataset(list(reversed(rows)))
        assert [forward.rows[i] for i in forward.canonical_order()] == [
            backward.rows[i] for i in backward.canonical_order()
        ]

    def test_canonical_key_distinguishes_floats(self):
        a = fv("same.example", f15=0.1)
        b = fv("same.example", f15=0.1 + 1e-18)  # below the ulp, same double
        c = fv("same.example", f15=0.30000000000000004)
        d = fv("same.example", f15=0.3)
        assert 0.1 + 1e-18 == 0.1
        assert canonical_key(a) == canonical_key(b)
        assert canonical_key(c) != canonical_key(d)

    def test_encoder_vocab_and_unseen(self):
        rows = [fv("a.example", f9="Beta"), fv("b.example", f9="Alpha")]
        encoder = Encoder(default_schema(), rows)
        assert encoder.vocabs["f9"] == {"Alpha": 0, "Beta": 1}
        col = next(c for c in encoder.columns if c.name == "f9")
        j = encoder.columns.index(col)
        queries = [fv("q1.example", f9="Alpha"), fv("q2.example", f9="Gamma")]
        assert encoder.encode_rows(queries)[:, j].tolist() == [0.0, -1.0]

    def test_encoder_from_stored_vocabs(self):
        rows = [fv("a.example", f9="Beta", f1=True), fv("b.example", f9="Alpha", f15=0.25)]
        fitted = Encoder(default_schema(), rows)
        # as a model file holds them, here with each vocabulary's entries reversed
        stored_vocabs = {n: dict(reversed(v.items())) for n, v in fitted.vocabs.items()}
        stored = Encoder(default_schema(), vocabs=json.loads(json.dumps(stored_vocabs)))
        assert stored.vocabs == fitted.vocabs
        assert stored.eq_mask.tolist() == fitted.eq_mask.tolist()
        queries = rows + [fv("q.example", f9="Gamma", f14=99)]
        assert stored.encode_rows(queries).tobytes() == fitted.encode_rows(queries).tobytes()

    def test_encoder_matrix_shape(self):
        rows = [fv("a.example"), fv("b.example", f1=True)]
        encoder = Encoder(default_schema(), rows)
        X = encoder.encode_rows(rows)
        assert X.shape == (2, 13)
        assert X[0, 0] == 0.0 and X[1, 0] == 1.0


class TestHyperparameters:
    def test_defaults_applied(self):
        assert resolve_hyperparameters("tree", None) == {"max_depth": 12, "min_leaf": 2}
        assert resolve_hyperparameters("forest", {"n_trees": 7})["n_trees"] == 7

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            resolve_hyperparameters("svm", None)

    def test_unknown_or_bad_value(self):
        with pytest.raises(ValueError):
            resolve_hyperparameters("knn", {"depth": 3})
        with pytest.raises(ValueError):
            resolve_hyperparameters("tree", {"max_depth": 0})


class TestDecisionTree:
    def test_perfectly_separable_single_split(self):
        model = train(f3_dataset(), KIND_TREE)
        (root,) = decoded_trees(model)
        assert root["node"] == "split"
        assert root["feature"] == "f3"
        assert root["left"]["node"] == "leaf"
        assert root["right"]["node"] == "leaf"
        for row in f3_dataset().rows:
            label, score = model.predict(row)
            assert label == row.label
            assert score in (0.0, 1.0)

    def test_tie_broken_by_first_column(self):
        # f1 and f2 both separate perfectly; the earlier column wins
        rows = []
        for i in range(10):
            rows.append(fv(f"p{i}.example", "pos", f1=True, f2=True))
            rows.append(fv(f"n{i}.example", "neg", f1=False, f2=False))
        model = train(Dataset(rows), KIND_TREE)
        assert decoded_trees(model)[0]["feature"] == "f1"

    def test_numeric_threshold_split(self):
        rows = []
        for i in range(10):
            rows.append(fv(f"hi{i}.example", "pos", f15=0.9))
            rows.append(fv(f"lo{i}.example", "neg", f15=0.2))
        model = train(Dataset(rows), KIND_TREE)
        (root,) = decoded_trees(model)
        assert root["feature"] == "f15"
        assert root["test"] == "le"
        assert root["value"] == pytest.approx(0.55)
        assert model.predict(fv("q.example", f15=0.3))[0] == "neg"
        assert model.predict(fv("q.example", f15=0.8))[0] == "pos"

    def test_max_depth_caps_growth(self):
        # label = f1 AND f2 needs depth 2; a stump must stop at one
        rows = []
        for i in range(8):
            rows.append(fv(f"a{i}.example", "pos", f1=True, f2=True))
            rows.append(fv(f"b{i}.example", "neg", f1=True, f2=False))
            rows.append(fv(f"c{i}.example", "neg", f1=False, f2=True))
            rows.append(fv(f"d{i}.example", "neg", f1=False, f2=False))
        stump = train(Dataset(rows), KIND_TREE, {"max_depth": 1})
        depths = set()

        def walk(node, depth):
            if node["node"] == "leaf":
                depths.add(depth)
            else:
                walk(node["left"], depth + 1)
                walk(node["right"], depth + 1)

        walk(decoded_trees(stump)[0], 0)
        assert max(depths) <= 1
        deep = train(Dataset(rows), KIND_TREE, {"max_depth": 4})
        assert all(deep.predict(r)[0] == r.label for r in rows)

    def test_min_leaf_respected(self):
        rows = [fv(f"p{i}.example", "pos", f1=True) for i in range(3)]
        rows += [fv(f"n{i}.example", "neg") for i in range(17)]
        model = train(Dataset(rows), KIND_TREE, {"min_leaf": 5})

        def check(node):
            if node["node"] == "leaf":
                assert node["count"] >= 5
            else:
                check(node["left"])
                check(node["right"])

        check(decoded_trees(model)[0])

    def test_unseen_category_routes_to_right(self):
        rows = []
        for i in range(10):
            rows.append(fv(f"p{i}.example", "pos", f9="Known Issuer A"))
            rows.append(fv(f"n{i}.example", "neg", f9="Known Issuer B"))
        model = train(Dataset(rows), KIND_TREE)
        (root,) = decoded_trees(model)
        assert root["feature"] == "f9"
        assert root["test"] == "eq"
        assert root["value"] == "Known Issuer A"
        label, _ = model.predict(fv("new.example", f9="Never Seen CA"))
        assert label == "neg"

    def test_pure_noise_is_a_leaf(self):
        rows = [fv(f"p{i}.example", "pos") for i in range(5)]
        rows += [fv(f"n{i}.example", "neg") for i in range(5)]
        model = train(Dataset(rows), KIND_TREE)
        (root,) = decoded_trees(model)
        assert root["node"] == "leaf"
        assert root["positive_fraction"] == 0.5

    def test_batch_predictions_match_reference_walk(self):
        rng = random.Random(5)
        rows = [
            fv(
                f"r{i}.example",
                "pos" if rng.random() < 0.5 else "neg",
                f1=rng.random() < 0.3,
                f3=rng.random() < 0.4,
                f9=rng.choice(["CA One", "CA Two", "CA Three"]),
                f14=rng.randrange(1, 40),
                f15=round(rng.random(), 3),
            )
            for i in range(60)
        ]
        dataset = Dataset(rows)
        model = train(dataset, KIND_TREE)
        queries = rows[::3]
        labels, scores = model.predict_batch(queries)
        for query, label, score in zip(queries, labels, scores):
            assert (label, score) == reference_predict(model, query, dataset)


class TestHistogramGrowth:
    """grow_trees on one whole-data bootstrap against the sort-and-scan
    reference: equal dicts, exact floats."""

    CASES = 400

    def test_matches_reference(self):
        cases = np.random.default_rng(2024)
        for _ in range(self.CASES):
            X, y, tests = random_encoded_matrix(cases)
            max_depth = int(cases.integers(1, 7))
            min_leaf = int(cases.integers(1, 5))
            want = reference_grow_tree(X, y, tests, max_depth, min_leaf)
            (got,) = grow_trees(X, y, eq_mask(tests), [np.arange(len(X))], max_depth, min_leaf)
            assert nested_trees(got) == [want]

    def test_no_columns_grows_a_leaf(self):
        X, y = np.empty((6, 0)), np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        (got,) = grow_trees(X, y, eq_mask([]), [np.arange(len(X))], 3, 1)
        assert nested_trees(got) == [reference_grow_tree(X, y, [], 3, 1)]

    @pytest.mark.parametrize("lo,hi,value", [
        (1 + 2**-52, 1 + 2**-51, 1 + 2**-52),  # adjacent doubles: the midpoint rounds up to hi
        (1e308, 1.5e308, 1.25e308),  # lo + hi overflows to inf
    ])
    def test_threshold_between_adjacent_or_huge_values(self, lo, hi, value):
        X, y = np.array([[lo], [lo], [hi], [hi]]), np.array([0.0, 0.0, 1.0, 1.0])
        (got,) = grow_trees(X, y, eq_mask([TEST_LE]), [np.arange(len(X))], 3, 1)
        (root,) = nested_trees(got)
        assert root == reference_grow_tree(X, y, [TEST_LE], 3, 1)
        assert (root["node"], root["value"]) == ("split", value)
        assert (root["left"]["count"], root["right"]["count"]) == (2, 2)

    def test_matches_reference_with_feature_subsampling(self):
        cases = np.random.default_rng(2025)
        for _ in range(self.CASES):
            X, y, tests = random_encoded_matrix(cases)
            max_depth = int(cases.integers(1, 7))
            min_leaf = int(cases.integers(1, 5))
            n_sample = int(cases.integers(1, X.shape[1] + 1))
            seed = int(cases.integers(0, 2**32))
            want = reference_grow_tree(
                X, y, tests, max_depth, min_leaf, np.random.default_rng(seed), n_sample
            )
            (got,) = grow_trees(
                X, y, eq_mask(tests), [np.arange(len(X))], max_depth, min_leaf,
                [np.random.default_rng(seed)], n_sample,
            )
            assert nested_trees(got) == [want]

    @pytest.mark.parametrize("shape", ["opposite labels", "one repeated row", "every row twice"])
    def test_matches_reference_on_weight_heavy_bootstraps(self, shape):
        # bootstraps that make whole-number weights of many rows: a distinct
        # (row, label) pair grows as one sample row of its multiplicity
        cases = np.random.default_rng(2029)
        for _ in range(self.CASES // 4):
            X, y, tests = random_encoded_matrix(cases)
            n = X.shape[0]
            if shape == "opposite labels":  # equal feature rows, both labels
                X, y = np.concatenate([X, X]), np.concatenate([y, 1.0 - y])
                boots = [np.arange(2 * n), cases.integers(0, 2 * n, size=2 * n)]
            elif shape == "one repeated row":  # alone, and outweighing a few others
                row = int(cases.integers(0, n))
                boots = [np.full(n, row), np.concatenate([np.full(n, row), cases.integers(0, n, size=3)])]
            else:
                boots = [np.repeat(np.arange(n), 2), np.tile(cases.integers(0, n, size=n), 2)]
            max_depth, min_leaf = int(cases.integers(1, 7)), int(cases.integers(1, 5))
            n_sample = int(cases.integers(1, X.shape[1] + 1))
            seeds = cases.integers(0, 2**32, size=len(boots))
            for subsample in (False, True):
                rngs = [np.random.default_rng(s) if subsample else None for s in seeds]
                want = [reference_grow_tree(X[b], y[b], tests, max_depth, min_leaf, rng, n_sample)
                        for b, rng in zip(boots, rngs)]
                rngs = [np.random.default_rng(s) for s in seeds] if subsample else None
                (got,) = grow_trees(X, y, eq_mask(tests), boots, max_depth, min_leaf, rngs, n_sample)
                assert nested_trees(got) == want

    def test_trees_that_outgrow_the_first_stack_match_reference(self):
        # a tree's search stack starts 16 nodes tall.  Here each split peels
        # one impure 4-row chunk off the left spine (column j marks chunk j);
        # every chunk waits on the stack while the spine below it is
        # searched, so 24 chunks outgrow it
        chunks, base = 24, 40
        X = np.zeros((base + 4 * chunks, chunks))
        for j in range(chunks):
            X[base + 4 * j:base + 4 * j + 4, j] = 1.0
        y = np.concatenate([np.zeros(base), np.tile([0.0, 0.0, 1.0, 1.0], chunks)])
        tests, max_depth = [TEST_LE] * chunks, 40
        want = reference_grow_tree(X, y, tests, max_depth, 1)
        spine, node = 0, want
        while node["node"] == "split" and 0 < node["right"]["positive_fraction"] < 1:
            spine, node = spine + 1, node["left"]
        assert spine > 16
        (got,) = grow_trees(X, y, eq_mask(tests), [np.arange(len(X))], max_depth, 1)
        assert nested_trees(got) == [want]
        # a lockstep batch of bootstraps, each drawing a forest's column subsets
        rng = np.random.default_rng(2033)
        boots = [rng.integers(0, len(X), size=len(X)) for _ in range(4)]
        seeds = rng.integers(0, 2**32, size=len(boots))
        want = [reference_grow_tree(X[b], y[b], tests, max_depth, 1, np.random.default_rng(s), 5)
                for b, s in zip(boots, seeds)]
        rngs = [np.random.default_rng(s) for s in seeds]
        (got,) = grow_trees(X, y, eq_mask(tests), boots, max_depth, 1, rngs, 5)
        assert nested_trees(got) == want

    @pytest.mark.parametrize("d", [*range(2, 17), 40])
    def test_bulk_column_draws_equal_numpy_choice(self, d):
        # a forest's column subsets are drawn in bulk, a block of them per
        # rng at a time, and must be choice(d, m, replace=False)'s, draw for
        # draw, leaving each rng where as many choice calls would
        assert 2**32 % (13 - 4 + 1) == 6  # so a first uint32 of 0 is redrawn at d=13, m=4
        for m in sorted({1, math.ceil(math.sqrt(d)), d - 1}):
            rngs = [np.random.default_rng(seed) for seed in (11, 12, 13)]
            rngs[1].integers(0, 320, size=319)  # a bootstrap, as forests draw first
            assert rngs[1].bit_generator.state["has_uint32"] == 1  # a buffered half
            state = rngs[2].bit_generator.state
            state.update(has_uint32=1, uinteger=0)  # redrawn where 2^32 mod bound > 0
            rngs[2].bit_generator.state = state
            rngs.append(np.random.Generator(np.random.MT19937(14)))  # not PCG64
            twins = [np.random.Generator(type(rng.bit_generator)()) for rng in rngs]
            for twin, rng in zip(twins, rngs):
                twin.bit_generator.state = rng.bit_generator.state
            draws = tree._ColumnDraws(rngs, d, m)
            for block in (1, 5, 2, 9):  # drawn in uneven blocks
                draws.extend(block, np.arange(len(rngs)))
            want = np.zeros((len(twins), 17, d), dtype=bool)
            for g, twin in enumerate(twins):
                for k in range(17):
                    want[g, k, twin.choice(d, m, replace=False)] = True
            assert np.array_equal(draws.masks, want), (d, m)
            assert [repr(rng.bit_generator.state) for rng in rngs] == [
                repr(twin.bit_generator.state) for twin in twins], (d, m)

    def test_matches_reference_when_most_sampled_columns_offer_no_split(self, monkeypatch):
        # one sampled column, most of them constant: most nodes find no split
        # in their subset and fall back to the other columns
        scanned = []  # the columns of each reference scan
        scan = reference_scan_columns

        def counted(X, y, tests, cols, min_leaf):
            scanned.append(len(cols))
            return scan(X, y, tests, cols, min_leaf)

        monkeypatch.setitem(globals(), "reference_scan_columns", counted)
        cases = np.random.default_rng(2031)
        for _ in range(self.CASES // 8):
            X, y, tests = random_encoded_matrix(cases)
            n, pad = X.shape[0], int(cases.integers(6, 11))
            order = cases.permutation(X.shape[1] + pad)
            X = np.column_stack([X, np.ones((n, pad))])[:, order]
            tests = [(tests + [TEST_EQ, TEST_LE] * pad)[i] for i in order]
            max_depth, min_leaf = int(cases.integers(1, 7)), int(cases.integers(1, 4))
            boots = [cases.integers(0, n, size=n) for _ in range(4)]
            seeds = cases.integers(0, 2**32, size=len(boots))
            want = [reference_grow_tree(X[b], y[b], tests, max_depth, min_leaf,
                                        np.random.default_rng(s), 1) for b, s in zip(boots, seeds)]
            rngs = [np.random.default_rng(s) for s in seeds]
            (got,) = grow_trees(X, y, eq_mask(tests), boots, max_depth, min_leaf, rngs, 1)
            assert nested_trees(got) == want
        searched, fell_back = scanned.count(1), len(scanned) - scanned.count(1)
        assert fell_back > searched / 2 > 0

    def test_lockstep_equals_one_tree_at_a_time(self, monkeypatch):
        keyed = []  # the rows each weighted (histogram) bincount keys
        bincount = np.bincount

        def recording(keys, *args, **kwargs):
            if kwargs.get("weights") is not None:
                keyed.append(keys.size)
            return bincount(keys, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", recording)
        cases = np.random.default_rng(2026)
        for _ in range(self.CASES // 2):
            X, y, tests = random_encoded_matrix(cases)
            (n, d), mask = X.shape, eq_mask(tests)
            max_depth = int(cases.integers(1, 7))
            min_leaf = int(cases.integers(1, 5))
            n_sample = int(cases.integers(1, d + 1))
            # five full bootstraps put more than 4n rows in the first steps
            boots = [cases.integers(0, n, size=n) for _ in range(5)]
            # a root that is already a leaf and a shallow tree, anywhere among them
            boots.insert(int(cases.integers(0, 6)), np.flatnonzero(y == y[0]))
            shallow = cases.integers(0, n, size=int(cases.integers(1, 9)))
            boots.insert(int(cases.integers(0, 7)), shallow)
            seeds = cases.integers(0, 2**32, size=len(boots))
            for subsample in (True, False):
                # each tree has its own rng, seeded alike on both sides
                rngs = [np.random.default_rng(s) if subsample else None for s in seeds]
                want = [
                    reference_grow_tree(X[b], y[b], tests, max_depth, min_leaf, rng, n_sample)
                    for b, rng in zip(boots, rngs)
                ]
                rngs = [np.random.default_rng(s) for s in seeds] if subsample else None
                keyed.clear()
                (got,) = grow_trees(X, y, mask, boots, max_depth, min_leaf, rngs, n_sample)
                assert nested_trees(got) == want
                # a histogram keys each sample row of a step once: at most
                # one row per distinct (row, label) pair of each tree
                held = sum(len(np.unique(np.column_stack([X[b], y[b]]), axis=0)) for b in boots)
                assert max(keyed, default=0) <= held

        # the first step keys every tree's distinct pairs once per column, in
        # one piece, or in pieces of whole nodes when they exceed _STEP_ROWS
        X, y, tests = random_encoded_matrix(np.random.default_rng(7))
        (n, d), mask = X.shape, eq_mask(tests)
        assert d and 0 < y.sum() < n
        pairs = len(np.unique(np.column_stack([X, y]), axis=0))
        want = reference_grow_tree(X, y, tests, 6, 1)
        for n_trees, step_rows, first_steps in ((4, tree._STEP_ROWS, [4 * pairs] * d),
                                                (5, pairs, [pairs] * (5 * d))):
            monkeypatch.setattr(tree, "_STEP_ROWS", step_rows)
            keyed.clear()
            (got,) = grow_trees(X, y, mask, [np.arange(n)] * n_trees, 6, 1)
            assert nested_trees(got) == [want] * n_trees
            assert keyed[: len(first_steps)] == first_steps


class TestGoldenModels:
    """SHA-256 of the model file for fixed data and seed.

    DIGESTS are of the version-2 file, recorded when the format changed to
    version 2.  V1_DIGESTS are of the version-1 file, recorded before the
    histogram split search replaced the per-column sort-and-scan, and
    unchanged by it and by the format change: the same trees, written as
    the version-1 writer wrote them (json.dumps with indent=1 and a
    newline), must still give these bytes.  A change to either is a change
    in the trees grown.
    """

    DIGESTS = {
        ("full", KIND_TREE): "81f98b35ec69130c2fa54a75dfaf1821183aa30126f39794ff8ff37b3ebf8458",
        ("full", KIND_BAGGING): "9fdbb01452fe17ddf2ffcc92869008aab5eecb4a680d292362666a49a7341856",
        ("full", KIND_FOREST): "f56dc87bf4034a43f80ef0b92b873ee0030d606fc46188ad2a47c3ccf4dc701f",
        ("boolean", KIND_TREE): "2c7184f32f8584457813d544dba54b6baf13fdba1d6eeeea32489885d11fdffc",
        ("boolean", KIND_BAGGING): "8c05c034abe3f574cf064518f559558e327348651f308fa15db74068ae7b053e",
        ("boolean", KIND_FOREST): "0c875d4821f80e0bbbb381163143cdfc9e1c91e2301be46690fadf273922188e",
    }

    V1_DIGESTS = {
        ("full", KIND_TREE): "6ee37c438233af75f4145541b468339b1b0c6f609eecc153b75272ad6bbfb885",
        ("full", KIND_BAGGING): "77ba59ff529fb095837b7c631f2b005976307a91b1f5b277494fd3f63395e7bf",
        ("full", KIND_FOREST): "e81ecc0953d9dba9378b4a64a5a2169c1bb954293b9611739d323a7f1c64d8f3",
        ("boolean", KIND_TREE): "78dfd74f0182cc83f52ca1b5646ceb9f81d5457544b369cb094b53f64919d168",
        ("boolean", KIND_BAGGING): "35dfc27604f0f9b0da93c618f530874a7554122cad25c8cfcd4f802f1d3920d5",
        ("boolean", KIND_FOREST): "dba41f2f641c048bc064a24a384ee177d45b7c82c5e9f882d739fc5b7c015616",
    }

    @pytest.fixture(scope="class")
    def datasets(self):
        pos, neg = load_spec("phishing"), load_spec("alexa")
        return {
            "full": sample_corpus(pos, neg, 150, seed=17),
            "boolean": sample_corpus(
                boolean_only_variant(pos), boolean_only_variant(neg), 150, seed=17
            ),
        }

    @pytest.mark.parametrize("data", ["full", "boolean"])
    @pytest.mark.parametrize("kind", [KIND_TREE, KIND_BAGGING, KIND_FOREST])
    def test_model_file_digest(self, datasets, data, kind):
        hp = None if kind == KIND_TREE else {"n_trees": 15}
        model = train(datasets[data], kind, hp)
        buf = io.StringIO()
        write_model(model, buf)
        digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
        assert digest == self.DIGESTS[(data, kind)]
        v1 = json.dumps(v1_document(model), indent=1) + "\n"
        assert hashlib.sha256(v1.encode("utf-8")).hexdigest() == self.V1_DIGESTS[(data, kind)]


class TestEnsembles:
    def test_vote_fraction_semantics(self):
        model = train(f3_dataset(5), KIND_BAGGING, {"n_trees": 9})
        label, score = model.predict(fv("q.example", f3=True))
        assert label == "pos"
        assert score == pytest.approx(1.0)
        assert model.table.n_trees == 9

    def test_forest_feature_subsampling_still_separates(self):
        model = train(f3_dataset(30), KIND_FOREST, {"n_trees": 25})
        correct = sum(
            model.predict(row)[0] == row.label for row in f3_dataset(30).rows
        )
        assert correct == 60

    def test_single_member_forest_equals_bagging(self):
        # with one included column the ⌈√d⌉ subsample covers everything,
        # so one bagged tree and one forest tree see identical draws
        schema = FeatureSchema(
            tuple(
                FeatureColumn(c.name, c.kind, c.name == "f3")
                for c in default_schema().columns
            )
        )
        rows = f3_dataset(15).rows
        bagged = train(Dataset(rows, schema), KIND_BAGGING, {"n_trees": 1}, seed=23)
        forest = train(Dataset(rows, schema), KIND_FOREST, {"n_trees": 1}, seed=23)
        assert model_to_json(bagged)["nodes"] == model_to_json(forest)["nodes"]

    # the v2 model file of each ensemble grown in four batches, recorded
    # while the batch loop still lived in classifiers
    SEVERAL_CALLS_DIGESTS = {
        KIND_BAGGING: "4a58dc13b39abcd5ea1b4d3f68394563df1d6fd0126830d3cbe4e41b4d2d2e14",
        KIND_FOREST: "1e2d1056fbd84cbbd1d8a42be298bf8c477747fb7d7d27cb19a01a60f2e2ecde",
    }

    def test_trees_grown_in_several_calls_join_into_one_table(self, monkeypatch):
        dataset = TestPersistence()._mixed_dataset()  # 40 rows: 40-row bootstraps
        queries = dataset.rows + [fv("fresh.example", f9="Never Seen CA", f14=200, f15=0.123456)]
        grow = classifiers.grow_trees
        for kind in (KIND_BAGGING, KIND_FOREST):
            whole = train(dataset, kind, {"n_trees": 7})
            calls = []  # the trees of each batch grown

            def counted(*args):
                for table in grow(*args):
                    calls.append(table.n_trees)
                    yield table

            with monkeypatch.context() as patch:
                patch.setattr(classifiers, "grow_trees", counted)
                patch.setattr(tree, "_GROW_ROWS", 100)  # two bootstraps a batch
                joined = train(dataset, kind, {"n_trees": 7})
            assert calls == [2, 2, 2, 1]
            table = joined.table
            splits = np.flatnonzero(table.column >= 0)
            assert (table.left[splits] > splits).all()
            assert nested_trees(table) == nested_trees(whole.table)
            assert (joined.predict_batch(queries)[1].tobytes()
                    == whole.predict_batch(queries)[1].tobytes())
            buf = io.StringIO()
            write_model(joined, buf)
            digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
            assert digest == self.SEVERAL_CALLS_DIGESTS[kind]

    def test_bins_and_pairs_rows_once_however_many_batches(self, monkeypatch):
        dataset = TestPersistence()._mixed_dataset()  # 40 rows, 13 included columns
        unique = np.unique
        pairings, binnings = [], []  # np.unique over rows, and over one column

        def counted(values, *args, **kwargs):
            (pairings if kwargs.get("axis") == 0 else binnings).append(values.shape)
            return unique(values, *args, **kwargs)

        batches = []
        grow = classifiers.grow_trees

        def batched(*args):
            for table in grow(*args):
                batches.append(table.n_trees)
                yield table

        monkeypatch.setattr(np, "unique", counted)
        monkeypatch.setattr(classifiers, "grow_trees", batched)
        monkeypatch.setattr(tree, "_GROW_ROWS", 100)
        for run in (lambda: train(dataset, KIND_FOREST, {"n_trees": 7}),
                    lambda: cross_validate(dataset, KIND_BAGGING, 4, {"n_trees": 3})):
            pairings.clear(), binnings.clear(), batches.clear()
            run()
            assert len(batches) > 2
            assert pairings == [(40, 14)]  # 13 columns and the label
            assert binnings == [(40,)] * 13

    def test_walk_budget_groups_roots_and_keeps_every_fraction(self, monkeypatch):
        cases = np.random.default_rng(2032)
        for _ in range(20):
            X, y, tests = random_encoded_matrix(cases)
            n = X.shape[0]
            boots = [cases.integers(0, n, size=n) for _ in range(7)]
            (table,) = grow_trees(X, y, eq_mask(tests), boots, 6, 1)
            queries = np.vstack([X, X + 0.5])  # training values, and values between
            roots = [6, 0, 3, 3, 5, 1]
            want = [reference_walk(table, queries, root).tobytes() for root in roots]
            # one root a pass, four then two, and all six
            for cells in (1, 4 * len(queries) + 1, tree._WALK_CELLS):
                monkeypatch.setattr(tree, "_WALK_CELLS", cells)
                walked = table.walk_encoded(queries, iter(roots))
                assert [fractions.tobytes() for fractions in walked] == want
                assert [f.size for f in table.walk_encoded(queries[:0], roots)] == [0] * 6

    def test_deterministic_across_row_order(self):
        rng = random.Random(11)
        rows = [
            fv(
                f"r{i}.example",
                "pos" if rng.random() < 0.5 else "neg",
                f1=rng.random() < 0.4,
                f2=rng.random() < 0.2,
                f15=round(rng.random(), 3),
            )
            for i in range(40)
        ]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        for kind in (KIND_TREE, KIND_BAGGING, KIND_FOREST, KIND_KNN):
            a = train(Dataset(rows), kind, {"n_trees": 5} if "tree" not in kind and kind != "knn" else None)
            b = train(Dataset(shuffled), kind, {"n_trees": 5} if "tree" not in kind and kind != "knn" else None)
            assert model_to_json(a) == model_to_json(b), kind

    def test_seed_changes_ensemble(self):
        rows = f3_dataset(10).rows
        a = train(Dataset(rows), KIND_FOREST, {"n_trees": 5}, seed=1)
        b = train(Dataset(rows), KIND_FOREST, {"n_trees": 5}, seed=1)
        assert model_to_json(a) == model_to_json(b)


class TestNearestNeighbor:
    def test_distance_counts_mismatched_features(self):
        model = train(f3_dataset(3), KIND_KNN)
        a = fv("a.example")
        b = fv("b.example", f1=True)
        # 13 included columns, one boolean differs
        assert model.distance(a, b) == pytest.approx(1 / 13)
        assert model.distance(a, a) == 0.0

    def test_distance_scales_numerics(self):
        rows = [
            fv("lo.example", "neg", f15=0.0),
            fv("lo2.example", "neg", f15=0.0),
            fv("hi.example", "pos", f15=1.0),
            fv("hi2.example", "pos", f15=1.0),
        ]
        model = train(Dataset(rows), KIND_KNN)
        a = fv("a.example", f15=0.25)
        b = fv("b.example", f15=0.75)
        assert model.distance(a, b) == pytest.approx(0.5 / 13)

    def test_out_of_range_numeric_clamps(self):
        rows = [
            fv("a.example", "neg", f14=10),
            fv("b.example", "pos", f14=20),
        ]
        model = train(Dataset(rows), KIND_KNN)
        inside = fv("q1.example", f14=20)
        outside = fv("q2.example", f14=500)
        assert model.distance(inside, outside) == 0.0

    def test_span_beyond_the_float_range_scales_finitely(self, tmp_path):
        # 10**308 - -10**308 overflows; a warning would fail this test
        rows = [
            fv("a.example", "pos", f14=-10**308),
            fv("b.example", "neg", f14=0),
            fv("c.example", "pos", f14=10**308),
        ]
        model = train(Dataset(rows), KIND_KNN, {"k": 1})
        j = [col.name for col in model.schema.included()].index("f14")
        assert model.matrix[:, j].tolist() == [0.0, 0.5, 1.0]
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)  # the load check rejects NaN cells
        for row in rows:
            query = fv("q.example", f14=row.f14)
            score = 1.0 if row.label == "pos" else 0.0
            assert loaded.predict(query) == model.predict(query) == (row.label, score)

    def test_k_nearest_vote(self):
        values = [0.0, 0.1, 0.2, 0.8, 0.9, 1.0]
        labels = ["pos", "pos", "pos", "neg", "neg", "neg"]
        rows = [
            fv(f"r{i}.example", lab, f15=val)
            for i, (val, lab) in enumerate(zip(values, labels))
        ]
        model = train(Dataset(rows), KIND_KNN)
        label, score = model.predict(fv("q.example", f15=0.05))
        assert label == "pos"
        assert score == pytest.approx(3 / 5)

    def test_k1_self_prediction(self):
        rng = random.Random(3)
        rows = [
            fv(
                f"r{i}.example",
                "pos" if i % 2 else "neg",
                f1=rng.random() < 0.5,
                f14=rng.randrange(1, 40),
                f15=round(rng.random(), 6),
            )
            for i in range(30)
        ]
        model = train(Dataset(rows), KIND_KNN, {"k": 1})
        assert all(model.predict(r)[0] == r.label for r in rows)

    def test_equidistant_ties_resolve_by_canonical_order(self):
        # six feature-identical rows; canonical order sorts neg-* domains
        # first, so the k=5 cut keeps three neg and two pos votes
        rows = [fv(f"neg-{i}.example", "neg") for i in range(3)]
        rows += [fv(f"pos-{i}.example", "pos") for i in range(3)]
        model = train(Dataset(rows), KIND_KNN)
        label, score = model.predict(fv("q.example"))
        assert score == pytest.approx(2 / 5)
        assert label == "neg"

    def test_k_larger_than_dataset_uses_all_rows(self):
        rows = [fv("a.example", "pos"), fv("b.example", "neg"), fv("c.example", "pos")]
        model = train(Dataset(rows), KIND_KNN, {"k": 50})
        _, score = model.predict(fv("q.example"))
        assert score == pytest.approx(2 / 3)

    @staticmethod
    def _edge_dataset() -> Dataset:
        # f14 is constant over training; f15 spans [0.1, 0.9]; f9 has two CAs
        rows = [
            fv(f"r{i}.example", "pos" if i % 3 else "neg", f1=i % 2 == 0,
               f9=("CA Alpha", "CA Beta")[i % 2], f14=7, f15=0.1 + 0.8 * i / 11)
            for i in range(12)
        ]
        return Dataset(rows)

    def test_batch_encoding_matches_reference_on_edge_values(self):
        dataset = self._edge_dataset()
        model = train(dataset, KIND_KNN, {"k": 3})
        queries = [
            fv("unseen.example", f9="Never Seen CA"),
            fv("above.example", f15=1.0, f14=400),
            fv("below.example", f15=0.0, f14=0),
            fv("inside.example", f9="CA Beta", f15=0.37, f14=7),
        ]
        encoded = model.encode(queries)
        for row, query in zip(encoded, queries):
            assert row.tobytes() == reference_knn_encode(model, query).tobytes()
        names = [c.name for c in model.schema.included()]
        f9, f14, f15 = (names.index(name) for name in ("f9", "f14", "f15"))
        assert encoded[0, f9] == -1.0
        assert encoded[:, f14].tolist() == [0.0] * 4
        assert encoded[1, f15] == 1.0 and encoded[2, f15] == 0.0
        labels, scores = model.predict_batch(queries)
        for query, label, score in zip(queries, labels, scores):
            assert (label, float(score)) == reference_predict(model, query, dataset)

    @staticmethod
    def _model(matrix: np.ndarray, labels, k: int, ranges=None) -> NearestNeighborModel:
        """A model on a matrix in the default schema's 13 encoded and scaled
        columns, categories a, b and c coded 0, 1 and 2."""
        encoder = Encoder(default_schema(), vocabs={f"f{i}": {"a": 0, "b": 1, "c": 2} for i in (9, 10, 11, 12)})
        ranges = ranges or {"f14": (0.0, 3.0), "f15": (0.0, 1.0)}
        return NearestNeighborModel(encoder, {"k": k}, 0, ranges, matrix,
                                    np.asarray(labels, dtype=np.float64))

    @classmethod
    def _tied_model(cls, rng: np.random.Generator, n: int, k: int, ranges=None) -> NearestNeighborModel:
        """A model on a random n-row matrix where most distances tie: codes
        from {-1, 0, 1, 2}, booleans 0/1, scaled numerics from {0, 1/3, 2/3, 1}."""
        matrix = np.column_stack([
            rng.integers(0, 2, n) if col.kind == "boolean"
            else rng.integers(-1, 3, n) if col.kind == "categorical"
            else rng.integers(0, 4, n) / 3
            for col in default_schema().included()
        ]).astype(np.float64)
        return cls._model(matrix, rng.integers(0, 2, n), k, ranges)

    @staticmethod
    def _tied_queries(rng: np.random.Generator, m: int) -> list[FeatureVector]:
        """m query rows on the same grid; category z is unseen (code -1)."""
        return [
            fv(f"q{i}.example", **{f"f{j}": bool(rng.integers(0, 2)) for j in range(1, 9)},
               **{f"f{j}": str(rng.choice(list("abcz"))) for j in (9, 10, 11, 12)},
               f14=int(rng.integers(0, 4)), f15=int(rng.integers(0, 4)) / 3)
            for i in range(m)
        ]

    def test_chunked_scores_equal_per_row_reference(self, monkeypatch):
        rng = np.random.default_rng(2027)
        for case in range(300):
            n = int(rng.integers(1, 40))
            k = int(rng.choice([1, 2, 3, 5, n, n + 3]))  # k = 1, and k >= n
            model = self._tied_model(rng, n, k)
            queries = self._tied_queries(rng, int(rng.integers(0, 30)))  # empty batches too
            # the default budget; one query row per chunk; a few rows, so batches cross chunks
            budget = (classifiers._CHUNK_CELLS, 1, int(rng.integers(2, 6)) * n)
            monkeypatch.setattr(classifiers, "_CHUNK_CELLS", budget[case % 3])
            labels, scores = model.predict_batch(queries)
            want = reference_knn_scores(model, model.encode(queries))
            assert scores.dtype == np.float64 and scores.tolist() == want
            assert labels == [("pos" if s >= 0.5 else "neg") for s in want]

    def test_nan_distances_rank_last_like_the_per_row_scan(self):
        # a range whose span overflows (training f14 near -1e308 and 1e308;
        # here an infinite one, which loading rejects) scales f14 to NaN, so
        # every distance is NaN and a stable argsort keeps the first k rows
        rng = np.random.default_rng(5)
        model = self._tied_model(rng, 12, 5, ranges={"f14": (-np.inf, np.inf), "f15": (0.0, 1.0)})
        queries = self._tied_queries(rng, 4)
        with np.errstate(invalid="ignore"):
            X = model.encode(queries)
            _, scores = model.predict_batch(queries)
        assert np.isnan(X[:, [c.name for c in model.encoder.columns].index("f14")]).all()
        assert scores.tolist() == reference_knn_scores(model, X) == [model.labels[:5].mean()] * 4

    def test_sums_one_ulp_apart_tie_in_the_distance(self):
        # rows 0 and 1 differ from the all-zero query in f15 alone, so S is
        # their f15 value: row 0's is one ulp above row 1's, yet both divide
        # by 13 columns to the same distance, so the stable argsort picks row
        # 0; a cut on S rather than on S / d would keep row 1 alone
        x = next(v for v in np.linspace(0.5, 0.9, 1001) if np.nextafter(v, 1.0) / 13 == v / 13)
        matrix = np.zeros((3, 13))
        matrix[:, 12] = [np.nextafter(x, 1.0), x, 1.0]
        model = self._model(matrix, [1, 0, 0], k=1)
        X = np.zeros((1, 13))
        assert model.score_encoded(X).tolist() == reference_knn_scores(model, X) == [1.0]

    @staticmethod
    def _layout_model(names, ranges, k: int) -> NearestNeighborModel:
        """A model over a schema that includes the named columns, in that
        order, categories a, b and c coded 0, 1 and 2; its matrix is empty
        until the caller encodes training rows into it."""
        schema = FeatureSchema(tuple(FeatureColumn(name, FEATURE_KINDS[name], True) for name in names))
        encoder = Encoder(schema, vocabs={f"f{i}": {"a": 0, "b": 1, "c": 2} for i in (9, 10, 11, 12)})
        return NearestNeighborModel(encoder, {"k": k}, 0, ranges, np.empty((0, len(names))),
                                    np.empty(0))

    @staticmethod
    def _layout_terms(model: NearestNeighborModel, a: FeatureVector, b: FeatureVector) -> np.ndarray:
        """Each column's term of the distance between a and b: a mismatch
        (0/1) on an equality column, |a - b| on a numeric one."""
        x, y = model.encode([a, b])
        return np.where(model.encoder.eq_mask, x != y, np.abs(x - y))

    @classmethod
    def _layout_distance(cls, model: NearestNeighborModel, a: FeatureVector, b: FeatureVector) -> float:
        """The distance's definition, in Python floats: the mismatches
        counted, then each numeric term added in column order, over the
        column count."""
        terms, eq = cls._layout_terms(model, a, b), model.encoder.eq_mask
        total = float(terms[eq].sum())  # whole numbers, exact in any order
        for term in terms[~eq]:
            total += float(term)
        return total / len(terms)

    @staticmethod
    def _grid_row(rng: np.random.Generator, domain: str, label=None, categories="abc") -> FeatureVector:
        """A row whose every feature is drawn from a small grid, so distances
        tie often: numerics from 0-3 (f15 in thirds), categories from
        categories."""
        return fv(domain, label, **{f"f{j}": bool(rng.integers(0, 2)) for j in range(1, 9)},
                  **{f"f{j}": str(rng.choice(list(categories))) for j in (9, 10, 11, 12)},
                  f13=int(rng.integers(0, 4)), f14=int(rng.integers(0, 4)),
                  f15=int(rng.integers(0, 4)) / 3)

    def test_distance_adds_numeric_terms_in_column_order(self):
        # (f14, f15, f1): numpy's mean adds the first two terms first, and
        # lands one ulp away from the definition's count-first sum
        model = self._layout_model(["f14", "f15", "f1"], {"f14": (0.0, 1000.0), "f15": (0.0, 1.0)}, 1)
        a = fv("a.example", f14=1, f15=0.2, f1=True)
        b = fv("b.example", f14=0, f15=0.0, f1=False)
        assert model.distance(a, b) == ((1 + 0.001) + 0.2) / 3 == self._layout_distance(model, a, b)
        assert model.distance(a, b) != np.mean([0.001, 0.2, 1.0])

    def test_scores_are_a_stable_sort_over_distance_on_any_layout(self, monkeypatch):
        rng = np.random.default_rng(33)
        spans = [(0.0, 3.0), (0.0, 1.0), (-np.inf, np.inf)]  # the last scales to NaN
        off_mean = 0
        for case in range(120):
            names = [str(name) for name in rng.permutation(list(FEATURE_KINDS))]
            names = names[:int(rng.integers(1, len(names) + 1))]
            ranges = {name: spans[int(rng.choice(3, p=[0.45, 0.45, 0.1]))]
                      for name in names if name in NUMERIC_FEATURES}
            n = int(rng.integers(1, 20))
            k = int(rng.choice([1, 2, 3, 5, n, n + 3]))
            model = self._layout_model(names, ranges, k)
            rows = [self._grid_row(rng, f"r{i}.example", ("neg", "pos")[int(rng.integers(0, 2))])
                    for i in range(n)]
            queries = [self._grid_row(rng, f"q{i}.example", categories="abcz")
                       for i in range(int(rng.integers(0, 10)))]
            budget = (classifiers._CHUNK_CELLS, 1, int(rng.integers(2, 6)) * n)
            monkeypatch.setattr(classifiers, "_CHUNK_CELLS", budget[case % 3])
            with np.errstate(invalid="ignore"):
                model.matrix, model.labels = model.encode(rows), encode_labels(rows)
                scores = model.predict_batch(queries)[1].tolist()
                want = []
                for query in queries:
                    dists = [model.distance(query, r) for r in rows]
                    for r, dist in zip(rows, dists):
                        want_dist = self._layout_distance(model, query, r)
                        assert dist == want_dist or math.isnan(dist) and math.isnan(want_dist)
                        mean = self._layout_terms(model, query, r).mean()
                        off_mean += dist != mean and not math.isnan(dist)
                    nearest = sorted(range(n), key=lambda i: (np.inf if math.isnan(dists[i])
                                                              else dists[i], i))[:k]
                    want.append(float(model.labels[nearest].mean()))
            assert scores == want, case
        assert off_mean  # some layouts put a distance off numpy's mean

    def test_all_ties_under_a_budget_of_one_pair(self, monkeypatch):
        # every row ties with every query, so each query keeps every pair,
        # and a chunk holds one query
        rng = np.random.default_rng(11)
        matrix = np.tile(rng.integers(0, 2, 13).astype(np.float64), (40, 1))
        model = self._model(matrix, rng.integers(0, 2, 40), k=7)
        X = np.tile(matrix[:1], (5, 1))
        X[1:, 0] = 1 - X[1:, 0]  # one mismatch more, for every row alike
        monkeypatch.setattr(classifiers, "_CHUNK_CELLS", 1)
        want = [model.labels[:7].mean()] * 5
        assert model.score_encoded(X).tolist() == reference_knn_scores(model, X) == want

    def test_stored_matrix_is_reference_scaling_of_training_rows(self):
        for dataset in (self._edge_dataset(), TestPersistence()._mixed_dataset()):
            model = train(dataset, KIND_KNN)
            rows = [dataset.rows[i] for i in dataset.canonical_order()]
            want = np.array([reference_knn_encode(model, row) for row in rows])
            assert model.matrix.tobytes() == want.tobytes()


class TestTrainErrors:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            train(f3_dataset(2), "svm")

    def test_single_class(self):
        rows = [fv(f"p{i}.example", "pos") for i in range(4)]
        with pytest.raises(DegenerateDataset):
            train(Dataset(rows), KIND_TREE)

    def test_unlabeled_rows(self):
        rows = [fv("a.example", "pos"), fv("b.example", "neg"), fv("c.example")]
        with pytest.raises(DegenerateDataset):
            train(Dataset(rows), KIND_TREE)

    def test_schema_mismatch_on_predict(self):
        model = train(f3_dataset(3), KIND_TREE)
        other = FeatureSchema(
            tuple(
                FeatureColumn(c.name, c.kind, c.name != "f1" and c.included)
                for c in default_schema().columns
            )
        )
        with pytest.raises(SchemaError):
            predict(model, fv("q.example"), schema=other)
        label, _ = predict(model, fv("q.example", f3=True), schema=default_schema())
        assert label == "pos"


class TestStratifiedFolds:
    @pytest.mark.parametrize("n_pos,n_neg,k", [(30, 70, 10), (15, 15, 3), (11, 47, 5)])
    def test_partition_properties(self, n_pos, n_neg, k):
        labels = ["pos"] * n_pos + ["neg"] * n_neg
        folds = stratified_fold_indices(labels, k, seed=9)
        assert len(folds) == k
        everything = [i for fold in folds for i in fold]
        assert sorted(everything) == list(range(n_pos + n_neg))
        for label in ("pos", "neg"):
            sizes = [sum(1 for i in fold if labels[i] == label) for fold in folds]
            assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        labels = ["pos"] * 20 + ["neg"] * 30
        assert stratified_fold_indices(labels, 10, seed=4) == stratified_fold_indices(
            labels, 10, seed=4
        )

    def test_too_few_folds(self):
        with pytest.raises(TooFewRows):
            stratified_fold_indices(["pos", "neg"], 1)

    def test_class_smaller_than_k(self):
        labels = ["pos"] * 3 + ["neg"] * 50
        with pytest.raises(TooFewRows):
            stratified_fold_indices(labels, 5)


class TestCrossValidate:
    def _noisy_dataset(self, n=60):
        rng = random.Random(21)
        rows = []
        for i in range(n):
            positive = i % 2 == 0
            rows.append(
                fv(
                    f"r{i:03d}.example",
                    "pos" if positive else "neg",
                    f1=positive if rng.random() < 0.9 else not positive,
                    f15=round(rng.random(), 3),
                )
            )
        return Dataset(rows)

    def test_report_shape_and_formulas(self):
        report = cross_validate(self._noisy_dataset(), KIND_TREE, k=5)
        c = report.confusion
        assert c.total == 60
        assert len(report.per_fold) == 5
        summed = (
            sum(f.tp for f in report.per_fold),
            sum(f.fp for f in report.per_fold),
            sum(f.tn for f in report.per_fold),
            sum(f.fn for f in report.per_fold),
        )
        assert summed == (c.tp, c.fp, c.tn, c.fn)
        assert report.positive_recall == pytest.approx(c.tp / (c.tp + c.fn))
        assert report.positive_precision == pytest.approx(c.tp / (c.tp + c.fp))
        assert report.negative_recall == pytest.approx(c.tn / (c.tn + c.fp))
        assert report.negative_precision == pytest.approx(c.tn / (c.tn + c.fn))
        assert report.accuracy == pytest.approx((c.tp + c.tn) / c.total)
        assert report.hyperparameters == {"max_depth": 12, "min_leaf": 2}

    def test_strong_signal_scores_high(self):
        report = cross_validate(f3_dataset(25), KIND_TREE, k=10)
        assert report.accuracy == 1.0

    def test_row_order_does_not_matter(self):
        dataset = self._noisy_dataset()
        shuffled = Dataset(list(reversed(dataset.rows)), dataset.schema)
        a = cross_validate(dataset, KIND_FOREST, k=5, hyperparameters={"n_trees": 5})
        b = cross_validate(shuffled, KIND_FOREST, k=5, hyperparameters={"n_trees": 5})
        assert a.to_json() == b.to_json()

    def test_undefined_metric_rendering(self):
        # indistinguishable features with a 1:2 class skew: every fold
        # predicts the majority class, so no positive is ever predicted
        rows = [fv(f"p{i}.example", "pos") for i in range(3)]
        rows += [fv(f"n{i}.example", "neg") for i in range(6)]
        report = cross_validate(Dataset(rows), KIND_TREE, k=3)
        assert report.confusion.tp == 0 and report.confusion.fp == 0
        assert report.positive_precision is None
        assert report.positive_recall == 0.0
        table = report.to_table()
        assert "undefined" in table
        doc = json.loads(report.to_json())
        assert doc["metrics"]["positive_precision"] is None
        assert doc["confusion"]["tn"] == 6

    def test_json_document_fields(self):
        report = cross_validate(self._noisy_dataset(), KIND_KNN, k=5, seed=3)
        doc = json.loads(report.to_json())
        assert doc["classifier"] == "knn"
        assert doc["folds"] == 5
        assert doc["seed"] == 3
        assert doc["hyperparameters"] == {"k": 5}
        assert doc["rows"] == 60
        assert len(doc["per_fold"]) == 5

    def test_default_k_and_seed(self):
        report = cross_validate(f3_dataset(12), KIND_TREE)
        assert report.k == 10
        assert report.seed == DEFAULT_SEED


def reference_fold_scores(dataset: Dataset, kind: str, hp: dict | None, k: int, seed: int):
    """The per-fold loop cross-validation replaced: train on the
    other folds, predict_batch the fold.  Returns the canonical rows, the
    folds and each fold's scores."""
    rows = [dataset.rows[i] for i in dataset.canonical_order()]
    folds = stratified_fold_indices([fv.label for fv in rows], k, seed)
    scores = []
    for test_positions in folds:
        test_set = set(test_positions)
        train_rows = [fv for i, fv in enumerate(rows) if i not in test_set]
        model = train(Dataset(train_rows, dataset.schema), kind, hp, seed)
        scores.append(model.predict_batch([rows[i] for i in test_positions])[1])
    return rows, folds, scores


class TestCrossValidateGrowsFoldsTogether:
    """Every kind cross-validates over one encoding, tree kinds growing every
    fold's trees in shared grow_trees calls; scores must equal the per-fold
    reference to the bit."""

    @pytest.fixture(scope="class")
    def datasets(self):
        pos, neg = load_spec("phishing"), load_spec("alexa")
        rng = random.Random(8)
        # many categories and numerics, so folds miss values others hold
        rows = [
            fv(
                f"m{i:03d}.example",
                "pos" if rng.random() < 0.45 else "neg",
                f1=rng.random() < 0.4,
                f9=rng.choice([f"CA {c}" for c in "ABCDEFGH"]),
                f10=rng.choice(["Org 1", "Org 2", "Org 3", "Org 4", "Org 5"]),
                f14=rng.randrange(1, 30),
                f15=round(rng.random(), 2),
            )
            for i in range(47)
        ]
        return {
            "synth": sample_corpus(pos, neg, 23, seed=11),
            "boolean": sample_corpus(
                boolean_only_variant(pos), boolean_only_variant(neg), 30, seed=12
            ),
            "mixed": Dataset(rows),
        }

    @pytest.mark.parametrize("data", ["synth", "boolean", "mixed"])
    @pytest.mark.parametrize("kind", [KIND_TREE, KIND_BAGGING, KIND_FOREST, KIND_KNN])
    @pytest.mark.parametrize("k,seed", [(3, 5), (4, 17), (7, 9)])
    def test_scores_equal_training_fold_by_fold(self, datasets, data, kind, k, seed):
        dataset = datasets[data]
        overrides = {"n_trees": 6} if kind in (KIND_BAGGING, KIND_FOREST) else None
        rows, folds, want = reference_fold_scores(dataset, kind, overrides, k, seed)
        hp, _, encoder, X, y = classifiers._prepare(dataset, kind, overrides)
        got = evaluate._fold_scores(encoder, X, y, kind, hp, seed, folds)
        assert [s.tobytes() for s in got] == [s.tobytes() for s in want]
        report = cross_validate(dataset, kind, k, overrides, seed)
        for fold, test_positions, scores in zip(report.per_fold, folds, want):
            labels = [rows[i].label for i in test_positions]
            predicted = ["pos" if s >= 0.5 else "neg" for s in scores]
            assert fold.tp == sum(a == b == "pos" for a, b in zip(labels, predicted))
            assert fold.tn == sum(a == b == "neg" for a, b in zip(labels, predicted))
            assert fold.total == len(test_positions)

    def test_knn_categories_and_ranges_a_fold_never_saw(self):
        # one row's CA and extreme f14 exist in no other row, so the fold
        # holding it tests a category and a value outside its training rows
        rng = random.Random(21)
        rows = [
            fv(f"u{i:02d}.example", "pos" if i % 2 else "neg", f1=rng.random() < 0.5,
               f9=rng.choice(["CA A", "CA B"]), f14=rng.randrange(1, 9), f15=rng.random())
            for i in range(20)
        ]
        rows.append(fv("unique.example", "pos", f9="CA Unique", f14=10**6, f15=1.0))
        dataset = Dataset(rows)
        for k, seed, hp in ((3, 5, {"k": 3}), (4, 2, None), (5, 8, {"k": 1})):
            _, folds, want = reference_fold_scores(dataset, KIND_KNN, hp, k, seed)
            resolved, _, encoder, X, y = classifiers._prepare(dataset, KIND_KNN, hp)
            got = evaluate._fold_scores(encoder, X, y, KIND_KNN, resolved, seed, folds)
            assert [s.tobytes() for s in got] == [s.tobytes() for s in want]

    @pytest.mark.parametrize("budget", [1, 100, 400])
    def test_small_budget_forces_several_calls_and_the_same_report(
        self, datasets, budget, monkeypatch
    ):
        # 30 to 40 training rows per fold: a budget of 1 grows each tree
        # alone, 100 three trees at once, and 400 up to ten, each tree of all
        # three folds together, so every ensemble spans several batches
        dataset = datasets["boolean"] if budget == 400 else datasets["synth"]
        want = {kind: cross_validate(dataset, kind, 3, {"n_trees": 5}) for kind in
                (KIND_BAGGING, KIND_FOREST)}
        calls = []  # the bootstrap rows of each batch grown
        grow = classifiers.grow_trees

        def counted(X, y, eq_mask, boots, *args):
            sizes = []  # each bootstrap's rows, as grow_trees draws it

            def drawn():
                for boot in boots:
                    sizes.append(len(boot))
                    yield boot

            done = 0  # the trees of the batches already grown
            for table in grow(X, y, eq_mask, drawn(), *args):
                calls.append(sum(sizes[done:done + table.n_trees]))
                done += table.n_trees
                yield table

        monkeypatch.setattr(classifiers, "grow_trees", counted)
        monkeypatch.setattr(tree, "_GROW_ROWS", budget)
        for kind, report in want.items():
            calls.clear()
            assert cross_validate(dataset, kind, 3, {"n_trees": 5}) == report
            assert len(calls) > 1
            assert budget == 1 or max(calls) <= budget

    def test_one_bootstrap_alive_at_a_time(self, datasets, monkeypatch):
        alive, peers = set(), []  # bootstraps not yet freed; how many as each is drawn
        grow = classifiers.grow_trees

        def watched(X, y, eq_mask, boots, *args):
            def drawn():
                for t, boot in enumerate(boots):
                    peers.append(len(alive))
                    alive.add(t)
                    weakref.finalize(boot, alive.discard, t)
                    yield boot

            yield from grow(X, y, eq_mask, drawn(), *args)

        monkeypatch.setattr(classifiers, "grow_trees", watched)
        for budget in (tree._GROW_ROWS, 100):
            monkeypatch.setattr(tree, "_GROW_ROWS", budget)
            for kind in (KIND_BAGGING, KIND_FOREST):
                peers.clear()
                cross_validate(datasets["synth"], kind, 3, {"n_trees": 5})
                train(datasets["synth"], kind, {"n_trees": 5})
                assert peers == [0] * 20

    def test_equal_rng_states_share_draws_exactly(self):
        cases = np.random.default_rng(2027)
        for _ in range(60):
            X, y, tests = random_encoded_matrix(cases)
            n, d = X.shape
            max_depth = int(cases.integers(1, 7))
            min_leaf = int(cases.integers(1, 4))
            n_sample = int(cases.integers(1, d + 1))
            seed = int(cases.integers(0, 2**32))
            # rngs spawned twice from one seed: the i-th of each pair starts alike
            children = np.random.SeedSequence(seed).spawn(3) * 2
            rngs = [np.random.default_rng(child) for child in children]
            boots = [cases.integers(0, n, size=int(cases.integers(1, 2 * n))) for _ in children]
            want = [
                reference_grow_tree(X[b], y[b], tests, max_depth, min_leaf,
                                    np.random.default_rng(child), n_sample)
                for b, child in zip(boots, children)
            ]
            untouched = [rng.bit_generator.state for rng in rngs]
            (got,) = grow_trees(X, y, eq_mask(tests), boots, max_depth, min_leaf, rngs, n_sample)
            assert nested_trees(got) == want
            # the second spawn only replayed the first's draws
            assert [rng.bit_generator.state for rng in rngs[3:]] == untouched[3:]


@pytest.mark.skipif(sys.platform != "linux", reason="batches grow in parts on Linux alone")
class TestGrowthInParts:
    """grow_trees with each batch cut into parts, all but the last grown in
    forked children, must give the NodeTables of one lockstep batch, array
    for array, and leave no child process or descriptor behind."""

    TREES = 12  # in batches of six, each cut into parts

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

    def case(self, cases: np.random.Generator, kind: str, layout: str):
        """A matrix, and twelve bootstraps of its n rows with the seeds of
        their rngs: in runs of two equal seeds ("cv", as cross-validation
        lays out the same tree of every fold) or three seeds repeated
        ("spread", so equal states stand apart in a batch)."""
        while True:
            X, y, tests = random_encoded_matrix(cases)
            if 0 < y.sum() < len(y) and len(X) > 8:
                break
        n = len(X)
        boots = [cases.integers(0, n, size=n) for _ in range(self.TREES)]
        seeds = cases.integers(0, 2**32, size=self.TREES // (2 if layout == "cv" else 4))
        seeds = np.repeat(seeds, 2) if layout == "cv" else np.tile(seeds, 4)
        forest = kind == KIND_FOREST and X.shape[1] > 1
        n_sample = int(cases.integers(1, X.shape[1])) if forest else None
        return X, y, eq_mask(tests), boots, None if kind == KIND_TREE else seeds, n_sample

    def grown(self, monkeypatch, cpus, X, y, mask, boots, seeds, n_sample):
        """grow_trees's tables with six trees a batch, every batch past the
        threshold, on cpus usable CPUs (None: those usable_cpus finds).  The
        tests' farm threads may be alive, so the count is set here."""
        with monkeypatch.context() as patch:
            patch.setattr(tree, "_GROW_ROWS", 6 * len(X))
            patch.setattr(tree, "_FORK_ROWS", 1)
            if cpus is not None:
                patch.setattr(parts, "usable_cpus", lambda: cpus)
            rngs = None if seeds is None else [np.random.default_rng(s) for s in seeds]
            return list(grow_trees(X, y, mask, boots, 5, 1, rngs, n_sample))

    @staticmethod
    def assert_same_tables(got, want):
        assert len(got) == len(want) == 2
        for a, b in zip(got, want):
            assert a.n_trees == b.n_trees == 6
            for name in ("column", "value", "left", "fraction", "count"):
                x, w = getattr(a, name), getattr(b, name)
                assert x.dtype == w.dtype and x.tobytes() == w.tobytes(), name

    def test_growth_in_parts_loads_no_numpy_ma(self, tmp_path):
        # a fresh interpreter, since this one may have imported numpy.ma
        script = """
import sys
from certsift import parts
from certsift.ml import Dataset, train, tree
from certsift.synth import load_spec, sample_corpus
parts.usable_cpus = lambda: 2
tree._FORK_ROWS = 1
print("numpy.ma" in sys.modules)
rows = sample_corpus(load_spec("phishing"), load_spec("alexa"), 40, 3).rows
train(Dataset(rows), "forest", {"n_trees": 4}, seed=1)
print("numpy.ma" in sys.modules)
"""
        src = os.path.dirname(os.path.dirname(parts.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                                capture_output=True, encoding="utf-8", timeout=120)
        assert result.returncode == 0, result.stderr
        loaded_by_import, loaded = result.stdout.split()
        if loaded_by_import == "True":
            pytest.skip("this numpy loads numpy.ma when it is imported")
        assert loaded == "False"

    @pytest.mark.parametrize("kind", [KIND_TREE, KIND_BAGGING, KIND_FOREST])
    @pytest.mark.parametrize("layout", ["cv", "spread"])
    def test_grown_parts_equal_one_lockstep_batch(self, monkeypatch, forks, kind, layout):
        split = []  # per batch cut in parts: whether a cut falls inside a run of equal states
        grow_parts = parts.in_parts

        def spied(grow, parts):
            states = [[repr(rng and rng.bit_generator.state) for *_, rng in part]
                      for part in parts]
            split.append(any(a[-1] == b[0] for a, b in zip(states, states[1:])))
            return grow_parts(grow, parts)

        monkeypatch.setattr(parts, "in_parts", spied)
        cases = np.random.default_rng(2034)
        for _ in range(4):
            data = self.case(cases, kind, layout)
            want = self.grown(monkeypatch, 1, *data)
            assert not forks and not split
            for cpus in (2, 3):
                got = self.grown(monkeypatch, cpus, *data)
                self.assert_same_tables(got, want)
                assert len(forks) == 2 * (cpus - 1)  # each batch in cpus parts
                forks.clear()
            if data[-1] is not None and layout == "cv":  # a forest's cut at tree 3 of 6
                # (two CPUs) splits a run of equal states, each part drawing it anew
                assert any(split)
            split.clear()

    @pytest.mark.parametrize("failure", ["exits 1", "short data"])
    def test_a_failed_child_leaves_its_part_to_the_parent(self, monkeypatch, failure):
        data = self.case(np.random.default_rng(2035), KIND_FOREST, "cv")
        want = self.grown(monkeypatch, 1, *data)
        descriptors = sorted(os.listdir("/proc/self/fd"))
        pids, fork = [], os.fork

        def failing():
            pid = fork()
            if pid == 0 and failure == "exits 1":
                os._exit(1)  # before writing anything
            if pid:
                pids.append(pid)
            return pid

        def short(grow, part, write):  # half of what it would send, then exit 0
            sent = pickle.dumps(grow(part))
            os.write(write, sent[:len(sent) // 2])
            os._exit(0)

        monkeypatch.setattr(os, "fork", failing)
        monkeypatch.setattr(parts, "_send", short)
        self.assert_same_tables(self.grown(monkeypatch, 2, *data), want)
        assert len(pids) == 2
        for pid in pids:  # each reaped
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        assert sorted(os.listdir("/proc/self/fd")) == descriptors

    def test_one_part_while_another_thread_is_alive(self, monkeypatch, forks):
        data = self.case(np.random.default_rng(2036), KIND_FOREST, "spread")
        want = self.grown(monkeypatch, 1, *data)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        done = threading.Event()
        waiting = threading.Thread(target=done.wait)
        waiting.start()
        try:
            got = self.grown(monkeypatch, None, *data)
        finally:
            done.set()
            waiting.join()
        self.assert_same_tables(got, want)
        assert not forks

    def test_usable_cpus_are_the_affinity_on_linux_with_one_thread(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        assert parts.usable_cpus() == 3
        monkeypatch.setattr(threading, "active_count", lambda: 2)
        assert parts.usable_cpus() == 1
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        monkeypatch.setattr(sys, "platform", "darwin")
        assert parts.usable_cpus() == 1

    def test_shares_cut_each_sequence_alongside(self, monkeypatch):
        ten, three = list(range(10)), "abc"
        monkeypatch.setattr(parts, "usable_cpus", lambda: 3)
        assert parts.shares(ten, three, worth=True) == [
            ([0, 1, 2], "a"), ([3, 4, 5], "b"), ([6, 7, 8, 9], "c")]
        # never more shares than the first sequence has items, and one for none
        assert parts.shares(ten[:2], three, worth=True) == [([0], "a"), ([1], "bc")]
        assert parts.shares([], three, worth=True) == [([], "abc")]
        assert parts.shares(ten, three, worth=False) == [(ten, three)]
        monkeypatch.setattr(parts, "usable_cpus", lambda: 1)
        assert parts.shares(ten, three, worth=True) == [(ten, three)]


class TestPersistence:
    def _mixed_dataset(self):
        rng = random.Random(13)
        rows = []
        for i in range(40):
            positive = rng.random() < 0.5
            rows.append(
                fv(
                    f"r{i:03d}.example",
                    "pos" if positive else "neg",
                    f1=positive,
                    f2=rng.random() < 0.3,
                    f9=rng.choice(["CA Alpha", "CA Beta"]),
                    f14=rng.randrange(1, 40),
                    f15=round(rng.random(), 4),
                )
            )
        return Dataset(rows)

    @pytest.mark.parametrize("kind", [KIND_TREE, KIND_BAGGING, KIND_FOREST, KIND_KNN])
    def test_round_trip_identical_predictions(self, kind, tmp_path):
        dataset = self._mixed_dataset()
        hp = {"n_trees": 5} if kind in (KIND_BAGGING, KIND_FOREST) else None
        model = train(dataset, kind, hp, seed=29)
        path = tmp_path / f"{kind}.model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind == kind
        assert loaded.seed == 29
        assert loaded.schema.fingerprint() == model.schema.fingerprint()
        queries = dataset.rows[::4] + [
            fv("fresh.example", f9="Never Seen CA", f14=200, f15=0.123456)
        ]
        for query in queries:
            assert loaded.predict(query) == model.predict(query)
        again = tmp_path / "again.json"
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_grown_tables_round_trip_bit_identically(self, tmp_path):
        cases = np.random.default_rng(2028)
        path = tmp_path / "model.json"
        for _ in range(TestHistogramGrowth.CASES // 2):
            X, y, tests = random_encoded_matrix(cases)
            n = X.shape[0]
            # equality columns as categoricals over the codes 0..7, the rest as reals
            names = [f"c{j}" for j in range(len(tests))]
            schema = FeatureSchema(tuple(
                FeatureColumn(name, "categorical" if test == TEST_EQ else "real", True)
                for name, test in zip(names, tests)
            ))
            encoder = Encoder(schema, vocabs={name: {f"v{code}": code for code in range(8)}
                                              for name, test in zip(names, tests) if test == TEST_EQ})
            boots = [cases.integers(0, n, size=n) for _ in range(int(cases.integers(1, 4)))]
            (table,) = grow_trees(X, y, encoder.eq_mask, boots, int(cases.integers(1, 7)),
                                  int(cases.integers(1, 5)))
            cls = DecisionTreeModel if len(boots) == 1 else RandomForestModel
            save_model(cls(table, encoder, {}, 0), path)
            loaded = load_model(path).table
            for name in ("column", "value", "left", "fraction", "count", "eq_mask"):
                assert getattr(loaded, name).tobytes() == getattr(table, name).tobytes()
            roots = range(table.n_trees)
            assert ([w.tobytes() for w in loaded.walk_encoded(X, roots)]
                    == [w.tobytes() for w in table.walk_encoded(X, roots)])

    def test_reloaded_knn_encodes_bit_identically(self, tmp_path):
        dataset = self._mixed_dataset()
        model = train(dataset, KIND_KNN)
        path = tmp_path / "knn.model.json"
        save_model(model, path)
        loaded = load_model(path)
        queries = dataset.rows[::3] + [
            fv("fresh.example", f9="Never Seen CA", f14=500, f15=1.0)
        ]
        assert loaded.encode(queries).tobytes() == model.encode(queries).tobytes()
        assert loaded.matrix.tobytes() == model.matrix.tobytes()

    def test_loading_holds_each_payload_as_lists_once_and_copies_no_array(self, tmp_path):
        # a 100-tree forest and a k-NN model at the benchmark's size (1,020
        # training rows).  The forest's number lists become arrays as its
        # payload closes and reach the table uncopied: about 130 traced bytes
        # a node at the peak, where lists held through the checks and their
        # float64 copies took 245.  A k-NN matrix's lists all exist when its
        # payload closes, so its peak is nearly the lists' (about 57 bytes a
        # cell, 61 before).
        rows = sample_corpus(load_spec("phishing"), load_spec("alexa"), 510, 5).rows
        for kind, hp in ((KIND_FOREST, {"n_trees": 100}), (KIND_KNN, None)):
            path = tmp_path / f"{kind}.json"
            save_model(train(Dataset(rows), kind, hp, seed=5), path)
            tracemalloc.start()
            try:
                model = load_model(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if kind == KIND_FOREST:
                assert model.table.column.size > 20_000
                assert peak < 160 * model.table.column.size, peak
                arrays = [getattr(model.table, name) for name in
                          ("column", "value", "left", "fraction", "count")]
            else:
                assert peak < 64 * model.matrix.size, peak
                arrays = [model.matrix, model.labels]
            assert all(a.flags.owndata and a.base is None for a in arrays)

    def test_round_trip_preserves_document(self, tmp_path):
        model = train(self._mixed_dataset(), KIND_KNN)
        path = tmp_path / "knn.model.json"
        save_model(model, path)
        assert model_to_json(load_model(path)) == model_to_json(model)

    @pytest.mark.parametrize("kind,payload", [(KIND_FOREST, "nodes"), (KIND_KNN, "instances")])
    def test_editing_a_document_leaves_the_model_unchanged(self, kind, payload, tmp_path):
        dataset = self._mixed_dataset()
        model = train(dataset, kind, {"n_trees": 3} if kind == KIND_FOREST else None)
        path = tmp_path / "before.json"
        save_model(model, path)
        doc = model_to_json(model)
        doc[payload]["vocabs"]["f9"]["Injected CA"] = 99
        doc[payload]["vocabs"].pop("f9")
        doc["hyperparameters"]["edited"] = 1
        assert "f9" in model.encoder.vocabs and "Injected CA" not in model.encoder.vocabs["f9"]
        assert "edited" not in model.hyperparameters
        again = tmp_path / "after.json"
        save_model(model, again)
        assert again.read_bytes() == path.read_bytes()
        loaded = load_model(again)
        assert [loaded.predict(row) for row in dataset.rows] == [model.predict(row) for row in dataset.rows]

    def test_truncated_file(self, tmp_path):
        model = train(f3_dataset(3), KIND_TREE)
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        model = train(f3_dataset(3), KIND_TREE)
        doc = model_to_json(model)
        doc["format_version"] = 3
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(VersionMismatch):
            load_model(path)

    @pytest.mark.parametrize(
        "version,mutate",
        [
            (2, lambda doc: doc.__setitem__("format_version", "one")),
            (2, lambda doc: doc.__setitem__("kind", "perceptron")),
            (2, lambda doc: doc.pop("seed")),
            (2, lambda doc: doc["schema"].__setitem__("fingerprint", "0" * 16)),
            # version 1: the root is an eq split on boolean f3; each split
            # below is one that prediction could not walk
            (1, lambda doc: doc["tree"].__setitem__("node", "branch")),
            (1, lambda doc: doc["tree"]["left"].__setitem__("positive_fraction", 7.5)),
            (1, lambda doc: doc["tree"].pop("right")),
            (1, lambda doc: doc["tree"].__setitem__("feature", "f99")),
            (1, lambda doc: doc["tree"].update(feature="f13", test="le", value=365.0)),
            (1, lambda doc: doc["tree"].pop("value")),
            (1, lambda doc: doc["tree"].update(feature="f9", value=3)),
            (1, lambda doc: doc["tree"].__setitem__("value", 1)),
            (1, lambda doc: doc["tree"].update(feature="f14", test="le", value="5")),
            (1, lambda doc: doc["tree"].update(feature="f14", test="le", value=10**400)),
            (1, lambda doc: doc["tree"].update(feature="f15", test="le", value=float("nan"))),
            # version 2: nodes 0 (the f3 split, column 2), 1 and 2 (leaves);
            # the arrays decode as equal-length lists of numbers
            (2, lambda doc: doc["nodes"].pop("count")),
            (2, lambda doc: doc["nodes"]["vocabs"].pop("f9")),
            (2, lambda doc: doc["nodes"]["left"].pop()),
            (2, node_cells(0, value="1")),
            (2, node_cells(1, count=10**400)),
            # columns lie in range (13 included) and are whole
            (2, node_cells(0, column=13)),
            (2, node_cells(0, column=-2)),
            (2, node_cells(0, column=1.5)),
            # values fit the column's kind: boolean f3, categorical f9 (one
            # category), numeric f15
            (2, node_cells(0, value=0.5)),
            (2, node_cells(0, value=2)),
            (2, node_cells(0, column=7, value=1)),
            (2, node_cells(0, column=7, value=-1)),
            (2, node_cells(0, column=7, value=0.5)),
            (2, node_cells(0, column=12, value=float("nan"))),
            # a split's children follow it inside the table
            (2, node_cells(0, left=0)),
            (2, node_cells(0, left=2)),
            (2, node_cells(0, left=0.5)),
            # node 3 is its own left child: each non-root is reached once, but
            # through a loop
            (2, lambda doc: doc["nodes"].update(column=[2, -1, -1, 2, -1], value=[1.0, 0, 0, 1.0, 0],
                                                left=[1, -1, -1, 3, -1], fraction=[0, 1.0, 0.5, 0, 0.5],
                                                count=[0, 3, 3, 0, 3])),
            # roots first, every other node reached exactly once
            (2, lambda doc: [doc["nodes"][name].append(cell) for name, cell in
                             zip(("column", "value", "left", "fraction", "count"), (-1, 0.0, -1, 1.0, 3))]),
            (2, lambda doc: doc["nodes"].update(column=[2, 0, -1, -1, -1], value=[1.0, 1.0, 0, 0, 0],
                                                left=[3, 3, -1, -1, -1], fraction=[0, 0, 1.0, 0.5, 0.5],
                                                count=[0, 0, 3, 3, 3])),
            # a tree model holds one tree (this table is a valid two-tree ensemble)
            (2, lambda doc: doc["nodes"].update(column=[2, -1, -1, -1], value=[1.0, 0, 0, 0],
                                                left=[2, -1, -1, -1], fraction=[0, 0.5, 1.0, 0],
                                                count=[0, 6, 3, 3])),
            # leaves hold a fraction in [0, 1] and a whole count >= 1
            (2, node_cells(1, fraction=7.5)),
            (2, node_cells(1, fraction=-0.5)),
            (2, node_cells(1, fraction=float("nan"))),
            (2, node_cells(1, count=0)),
            (2, node_cells(1, count=1.5)),
            # vocabulary codes are the JSON integers 0..n-1
            (2, lambda doc: doc["nodes"]["vocabs"].__setitem__("f9", {"CA A": 0, "CA B": 0})),
            (2, lambda doc: doc["nodes"]["vocabs"].__setitem__("f9", {"CA A": 1.7, "CA B": 0.2})),
            (2, lambda doc: doc["nodes"]["vocabs"].__setitem__("f9", {"CA A": 5, "CA B": -3})),
            # counts fit the int64 the table stores: at most 2^53 at a leaf,
            # 0 at a split
            (2, node_cells(1, count=10**19)),
            (2, node_cells(0, count=3)),
        ],
    )
    def test_corrupt_documents(self, version, mutate, tmp_path):
        model = train(f3_dataset(3), KIND_TREE)
        assert model_to_json(model)["nodes"]["column"] == [2, -1, -1]
        document = model_to_json if version == 2 else v1_document
        doc = document(model)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert document(load_model(path)) == doc  # unmutated, it loads
        mutate(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_corrupt_knn_matrix(self, tmp_path):
        model = train(f3_dataset(3), KIND_KNN)
        doc = model_to_json(model)
        doc["instances"]["matrix"] = [row[:-1] for row in doc["instances"]["matrix"]]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(CorruptModel):
            load_model(path)

    @pytest.mark.parametrize("section,name", [("vocabs", "f9"), ("ranges", "f15")])
    def test_knn_missing_vocab_or_range(self, section, name, tmp_path):
        # caught at load, not as a KeyError at the first prediction
        model = train(self._mixed_dataset(), KIND_KNN)
        doc = model_to_json(model)
        del doc["instances"][section][name]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(CorruptModel):
            load_model(path)

    # columns 0, 7 and 12 of the mixed dataset's k-NN matrix: boolean f1,
    # categorical f9 over two CAs, numeric f15
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda inst, hp: hp.__setitem__("k", 0),
            lambda inst, hp: hp.__setitem__("k", "5"),
            lambda inst, hp: hp.__setitem__("k", True),
            lambda inst, hp: hp.__setitem__("k", 5.0),
            lambda inst, hp: hp.pop("k"),
            lambda inst, hp: inst["labels"].__setitem__(0, 0.5),
            lambda inst, hp: inst["labels"].__setitem__(0, -1.0),
            lambda inst, hp: inst["matrix"][0].__setitem__(0, float("nan")),
            lambda inst, hp: inst["matrix"][0].__setitem__(12, float("inf")),
            lambda inst, hp: inst["matrix"][0].__setitem__(0, 0.5),
            lambda inst, hp: inst["matrix"][0].__setitem__(0, 2.0),
            lambda inst, hp: inst["matrix"][0].__setitem__(7, 2.0),
            lambda inst, hp: inst["matrix"][0].__setitem__(7, 0.5),
            lambda inst, hp: inst["matrix"][0].__setitem__(7, -1.0),
            lambda inst, hp: inst["matrix"][0].__setitem__(12, 1.5),
            lambda inst, hp: inst["matrix"][0].__setitem__(12, -0.25),
            lambda inst, hp: inst["ranges"]["f14"].__setitem__(0, float("-inf")),
            lambda inst, hp: inst["vocabs"].__setitem__("f9", {"CA A": 0, "CA B": 0}),
            lambda inst, hp: inst["vocabs"].__setitem__("f9", {"CA A": 1.7, "CA B": 0.2}),
            lambda inst, hp: inst["vocabs"].__setitem__("f9", {"CA A": 5, "CA B": -3}),
            lambda inst, hp: inst["ranges"]["f15"].reverse(),
            # a range of one number, and a whole number past what a float64
            # holds: no IndexError or OverflowError escapes
            lambda inst, hp: inst["ranges"]["f15"].pop(),
            lambda inst, hp: inst["ranges"]["f14"].__setitem__(1, 10**400),
            lambda inst, hp: inst["matrix"][0].__setitem__(12, 10**400),
        ],
    )
    def test_corrupt_knn_documents(self, mutate, tmp_path):
        model = train(self._mixed_dataset(), KIND_KNN)
        names = [c.name for c in model.encoder.columns]
        assert (names[0], names[7], names[12]) == ("f1", "f9", "f15")
        assert len(model.encoder.vocabs["f9"]) == 2
        path = tmp_path / "model.json"
        doc = model_to_json(model)
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert model_to_json(load_model(path)) == doc  # a trained model loads
        mutate(doc["instances"], doc["hyperparameters"])
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_save_load_and_predict_a_chain_deeper_than_the_recursion_limit(self, tmp_path):
        encoder = Encoder(default_schema(), vocabs={f"f{i}": {} for i in (9, 10, 11, 12)})
        j = [col.name for col in encoder.columns].index("f14")
        # splits at even nodes 0, 2, ..., 9998 test f14 <= 0, 1, ..., 4999;
        # each sends left to the leaf after it and right to the next split
        splits = np.arange(0, 10000, 2)
        column = np.full(10001, -1)
        column[splits] = j
        value = np.zeros(10001)
        value[splits] = np.arange(5000)
        left = np.full(10001, -1)
        left[splits] = splits + 1
        fraction = np.where(column < 0, np.arange(10001) % 7 / 6, 0.0)
        table = NodeTable(column, value, left, fraction, np.where(column < 0, 2.0, 0.0),
                          encoder.eq_mask)
        model = DecisionTreeModel(table, encoder, {"max_depth": 5000, "min_leaf": 1}, 0)
        path = tmp_path / "deep.json"
        save_model(model, path)
        loaded = load_model(path)
        for name in ("column", "value", "left", "fraction", "count"):
            assert getattr(loaded.table, name).tobytes() == getattr(table, name).tobytes()
        # a row at f14 = v >= 0 goes right v times, then to a leaf
        queries = [fv(f"q{v}.example", f14=v) for v in (-1, 0, 1, 2500, 4998, 4999, 10**9)]
        depth = np.array([0, 0, 1, 2500, 4998, 4999, 5000])
        want = np.where(depth < 5000, 2 * depth + 1, 10000) % 7 / 6
        assert loaded.predict_batch(queries)[1].tolist() == want.tolist()
        assert model.predict_batch(queries)[1].tolist() == want.tolist()

    def test_saved_file_is_plain_json(self, tmp_path):
        model = train(f3_dataset(3), KIND_FOREST, {"n_trees": 2})
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text(encoding="utf-8")
        assert text.count("\n") == 1 and text.endswith("\n")
        doc = json.loads(text)
        assert doc["format_version"] == 2
        assert doc["kind"] == "forest"
        column = doc["nodes"]["column"]
        assert len(column) - 2 * sum(j >= 0 for j in column) == 2  # trees: nodes - 2 x splits


class TestBatchAgreement:
    def test_all_kinds_batch_equals_reference(self):
        # exact equality: the references do the same arithmetic row by row
        dataset = TestPersistence()._mixed_dataset()
        queries = dataset.rows[::5] + [
            fv("fresh.example", f9="Never Seen CA", f14=200, f15=0.123456)
        ]
        for kind in (KIND_TREE, KIND_BAGGING, KIND_FOREST, KIND_KNN):
            hp = {"n_trees": 4} if kind in (KIND_BAGGING, KIND_FOREST) else None
            model = train(dataset, kind, hp)
            labels, scores = model.predict_batch(queries)
            for query, label, score in zip(queries, labels, scores):
                want = reference_predict(model, query, dataset)
                assert (label, float(score)) == want, kind
                assert model.predict(query) == want, kind
