"""Classifier training, prediction, evaluation, and persistence."""

from __future__ import annotations

import hashlib
import io
import json
import random

import numpy as np
import pytest

from certsift import FeatureVector
from certsift.errors import (
    CorruptModel,
    DegenerateDataset,
    SchemaError,
    TooFewRows,
    VersionMismatch,
)
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
    cross_validate,
    default_schema,
    load_model,
    predict,
    resolve_hyperparameters,
    save_model,
    stratified_fold_indices,
    train,
)
from certsift.ml.persist import model_to_json, write_model
from certsift.ml.schema import Encoder, canonical_key
from certsift.ml.tree import _MIN_GAIN, TEST_EQ, TEST_LE, decode_tree, grow_tree, grow_trees
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


def reference_predict(model, fv: FeatureVector, dataset: Dataset) -> tuple[str, float]:
    """One row through the dict walk (tree kinds) or a pairwise k-NN scan
    over the training dataset."""
    if isinstance(model, DecisionTreeModel):
        score = reference_leaf_fraction(model.root, fv)
    elif isinstance(model, NearestNeighborModel):
        rows = [dataset.rows[i] for i in dataset.canonical_order()]
        dists = [reference_knn_distance(model, fv, row) for row in rows]
        nearest = sorted(range(len(rows)), key=lambda i: (dists[i], i))
        nearest = nearest[: model.hyperparameters["k"]]
        score = sum(rows[i].label == "pos" for i in nearest) / len(nearest)
    else:
        votes = sum(reference_leaf_fraction(root, fv) >= 0.5 for root in model.members)
        score = votes / len(model.members)
    return ("pos" if score >= 0.5 else "neg"), score


def reference_scan_columns(X, y, tests, cols, min_leaf):
    """Best (column, test, encoded value) over the given columns, or None.

    The per-column sort-and-scan split search: the reference the
    histogram search in grow_tree is checked against, exactly.
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
            candidates = (sorted_values[boundaries] + sorted_values[boundaries + 1]) / 2.0
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
    feature subset at the same points, in the same order, as grow_tree."""
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
    """grow_tree's column mask for the reference's per-column test names."""
    return np.array([test == TEST_EQ for test in tests], dtype=bool)


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
        assert encoder.decode_value(col, 1.0) == "Beta"
        for unknown in (2.0, -1.0):
            with pytest.raises(SchemaError):
                encoder.decode_value(col, unknown)

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
        col = next(c for c in stored.columns if c.name == "f9")
        assert [stored.decode_value(col, code) for code in (0.0, 1.0)] == ["Alpha", "Beta"]
        with pytest.raises(SchemaError):
            stored.decode_value(col, 2.0)

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
        assert model.root["node"] == "split"
        assert model.root["feature"] == "f3"
        assert model.root["left"]["node"] == "leaf"
        assert model.root["right"]["node"] == "leaf"
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
        assert model.root["feature"] == "f1"

    def test_numeric_threshold_split(self):
        rows = []
        for i in range(10):
            rows.append(fv(f"hi{i}.example", "pos", f15=0.9))
            rows.append(fv(f"lo{i}.example", "neg", f15=0.2))
        model = train(Dataset(rows), KIND_TREE)
        assert model.root["feature"] == "f15"
        assert model.root["test"] == "le"
        assert model.root["value"] == pytest.approx(0.55)
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

        walk(stump.root, 0)
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

        check(model.root)

    def test_unseen_category_routes_to_right(self):
        rows = []
        for i in range(10):
            rows.append(fv(f"p{i}.example", "pos", f9="Known Issuer A"))
            rows.append(fv(f"n{i}.example", "neg", f9="Known Issuer B"))
        model = train(Dataset(rows), KIND_TREE)
        assert model.root["feature"] == "f9"
        assert model.root["test"] == "eq"
        assert model.root["value"] == "Known Issuer A"
        label, _ = model.predict(fv("new.example", f9="Never Seen CA"))
        assert label == "neg"

    def test_pure_noise_is_a_leaf(self):
        rows = [fv(f"p{i}.example", "pos") for i in range(5)]
        rows += [fv(f"n{i}.example", "neg") for i in range(5)]
        model = train(Dataset(rows), KIND_TREE)
        assert model.root["node"] == "leaf"
        assert model.root["positive_fraction"] == 0.5

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

    def test_decode_a_chain_deeper_than_the_recursion_limit(self):
        encoder = Encoder(default_schema(), vocabs={f"f{i}": {} for i in (9, 10, 11, 12)})
        j = [col.name for col in encoder.columns].index("f15")
        leaf = {"node": "leaf", "positive_fraction": 0.5, "count": 2}
        node = leaf
        for depth in range(5000):
            node = {"node": "split", "col": j, "test": TEST_LE, "value": depth,
                    "left": leaf, "right": node}
        node = decode_tree(node, encoder)
        for depth in reversed(range(5000)):
            assert list(node) == ["node", "feature", "test", "value", "left", "right"]
            assert (node["feature"], node["value"], node["left"]) == ("f15", float(depth), leaf)
            node = node["right"]
        assert node == leaf


class TestHistogramGrowth:
    """grow_tree against the sort-and-scan reference: equal dicts, exact floats."""

    CASES = 400

    def test_matches_reference(self):
        cases = np.random.default_rng(2024)
        for _ in range(self.CASES):
            X, y, tests = random_encoded_matrix(cases)
            max_depth = int(cases.integers(1, 7))
            min_leaf = int(cases.integers(1, 5))
            want = reference_grow_tree(X, y, tests, max_depth, min_leaf)
            assert grow_tree(X, y, eq_mask(tests), max_depth, min_leaf) == want

    def test_no_columns_grows_a_leaf(self):
        X, y = np.empty((6, 0)), np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        assert grow_tree(X, y, eq_mask([]), 3, 1) == reference_grow_tree(X, y, [], 3, 1)

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
            got = grow_tree(
                X, y, eq_mask(tests), max_depth, min_leaf, np.random.default_rng(seed), n_sample
            )
            assert got == want

    def test_lockstep_equals_one_tree_at_a_time(self, monkeypatch):
        keyed = []  # the cells (rows x columns) each bincount keys
        bincount = np.bincount

        def recording(keys, *args, **kwargs):
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
                got = grow_trees(X, y, mask, boots, max_depth, min_leaf, rngs, n_sample)
                assert got == want
                assert max(keyed, default=0) <= 4 * n * d

        # a step of exactly 4n rows takes one bincount; one more tree cuts it
        X, y, tests = random_encoded_matrix(np.random.default_rng(7))
        (n, d), mask = X.shape, eq_mask(tests)
        assert d and 0 < y.sum() < n
        want = reference_grow_tree(X, y, tests, 6, 1)
        for n_trees, first_steps in ((4, [4 * n * d]), (5, [4 * n * d, n * d])):
            keyed.clear()
            assert grow_trees(X, y, mask, [np.arange(n)] * n_trees, 6, 1) == [want] * n_trees
            assert keyed[: len(first_steps)] == first_steps


class TestGoldenModels:
    """SHA-256 of the model file for fixed data and seed.

    Recorded before the histogram split search replaced the per-column
    sort-and-scan, and unchanged by it: any change to these bytes is a
    change in the trees grown.
    """

    DIGESTS = {
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
        buf = io.StringIO()
        write_model(train(datasets[data], kind, hp), buf)
        digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
        assert digest == self.DIGESTS[(data, kind)]


class TestEnsembles:
    def test_vote_fraction_semantics(self):
        model = train(f3_dataset(5), KIND_BAGGING, {"n_trees": 9})
        label, score = model.predict(fv("q.example", f3=True))
        assert label == "pos"
        assert score == pytest.approx(1.0)
        assert len(model.members) == 9

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
        assert model_to_json(bagged)["trees"] == model_to_json(forest)["trees"]

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

    def test_round_trip_preserves_document(self, tmp_path):
        model = train(self._mixed_dataset(), KIND_KNN)
        path = tmp_path / "knn.model.json"
        save_model(model, path)
        assert model_to_json(load_model(path)) == model_to_json(model)

    def test_truncated_file(self, tmp_path):
        model = train(f3_dataset(3), KIND_TREE)
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        model = train(f3_dataset(3), KIND_TREE)
        doc = model_to_json(model)
        doc["format_version"] = 2
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionMismatch):
            load_model(path)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc.__setitem__("format_version", "one"),
            lambda doc: doc.__setitem__("kind", "perceptron"),
            lambda doc: doc.pop("seed"),
            lambda doc: doc["schema"].__setitem__("fingerprint", "0" * 16),
            lambda doc: doc["tree"].__setitem__("node", "branch"),
            lambda doc: doc["tree"]["left"].__setitem__("positive_fraction", 7.5),
            lambda doc: doc["tree"].pop("right"),
            # the root is an eq split on boolean f3; each split below is one
            # that prediction could not walk
            lambda doc: doc["tree"].__setitem__("feature", "f99"),
            lambda doc: doc["tree"].update(feature="f13", test="le", value=365.0),
            lambda doc: doc["tree"].pop("value"),
            lambda doc: doc["tree"].update(feature="f9", value=3),
            lambda doc: doc["tree"].__setitem__("value", 1),
            lambda doc: doc["tree"].update(feature="f14", test="le", value="5"),
            lambda doc: doc["tree"].update(feature="f14", test="le", value=10**400),
        ],
    )
    def test_corrupt_documents(self, mutate, tmp_path):
        model = train(f3_dataset(3), KIND_TREE)
        doc = model_to_json(model)
        mutate(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_corrupt_knn_matrix(self, tmp_path):
        model = train(f3_dataset(3), KIND_KNN)
        doc = model_to_json(model)
        doc["instances"]["matrix"] = [row[:-1] for row in doc["instances"]["matrix"]]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptModel):
            load_model(path)

    @pytest.mark.parametrize("section,name", [("vocabs", "f9"), ("ranges", "f15")])
    def test_knn_missing_vocab_or_range(self, section, name, tmp_path):
        # caught at load, not as a KeyError at the first prediction
        model = train(self._mixed_dataset(), KIND_KNN)
        doc = model_to_json(model)
        del doc["instances"][section][name]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_saved_file_is_plain_json(self, tmp_path):
        model = train(f3_dataset(3), KIND_FOREST, {"n_trees": 2})
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 1
        assert doc["kind"] == "forest"
        assert len(doc["trees"]) == 2


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
