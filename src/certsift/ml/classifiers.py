"""The four classifiers: single tree, bagged trees, random forest, k-NN.

All models predict a (label, score) pair where score is the fraction of
positive votes (ensembles), the leaf positive fraction (single tree), or
the positive fraction among the k nearest training rows (k-NN).  Training
is deterministic for a given dataset content and seed: rows are put in a
content-defined canonical order before any randomness is drawn, so input
file order never matters.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import compress

import numpy as np

from ..errors import SchemaError
from ..features import LABEL_NEGATIVE, LABEL_POSITIVE, FeatureVector
from .schema import Dataset, Encoder, FeatureSchema, encode_labels
from .tree import NodeTable, decode_tree, grow_tree, grow_trees

DEFAULT_SEED = 17

KIND_TREE = "tree"
KIND_BAGGING = "bagging"
KIND_FOREST = "forest"
KIND_KNN = "knn"

MODEL_KINDS = (KIND_TREE, KIND_BAGGING, KIND_FOREST, KIND_KNN)

DEFAULT_HYPERPARAMETERS: dict[str, dict[str, int]] = {
    KIND_TREE: {"max_depth": 12, "min_leaf": 2},
    KIND_BAGGING: {"n_trees": 50, "max_depth": 12, "min_leaf": 2},
    KIND_FOREST: {"n_trees": 100, "max_depth": 12, "min_leaf": 2},
    KIND_KNN: {"k": 5},
}


def _label(score: float) -> str:
    return LABEL_POSITIVE if score >= 0.5 else LABEL_NEGATIVE


def resolve_hyperparameters(kind: str, overrides: dict | None) -> dict[str, int]:
    if kind not in DEFAULT_HYPERPARAMETERS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    merged = dict(DEFAULT_HYPERPARAMETERS[kind])
    for key, value in (overrides or {}).items():
        if key not in merged:
            raise ValueError(f"unknown hyperparameter {key!r} for {kind}")
        value = int(value)
        if value < 1:
            raise ValueError(f"hyperparameter {key} must be positive, got {value}")
        merged[key] = value
    return merged


class _Model:
    """State every model kind carries, and prediction of a single vector.

    Subclasses implement predict_batch; predict is a batch of one, so the
    two can never disagree.
    """

    kind: str

    def __init__(self, schema: FeatureSchema, hyperparameters: dict, seed: int):
        self.schema = schema
        self.hyperparameters = dict(hyperparameters)
        self.seed = seed

    def predict(self, fv: FeatureVector) -> tuple[str, float]:
        labels, scores = self.predict_batch([fv])
        return labels[0], float(scores[0])


class DecisionTreeModel(_Model):
    kind = KIND_TREE

    def __init__(self, root: dict, schema: FeatureSchema, hyperparameters: dict, seed: int):
        super().__init__(schema, hyperparameters, seed)
        self.root = root
        self._table = NodeTable([root], schema)

    def predict_batch(self, rows: Sequence[FeatureVector]) -> tuple[list[str], np.ndarray]:
        (scores,) = self._table.walk(rows)
        return [_label(s) for s in scores], scores


class TreeEnsembleModel(_Model):
    """Shared behavior of bagged trees and random forests.

    Every member tree casts one vote (its leaf majority); the ensemble
    score is the fraction of positive votes and the label follows the
    majority.
    """

    def __init__(
        self,
        members: list[dict],
        schema: FeatureSchema,
        hyperparameters: dict,
        seed: int,
    ):
        super().__init__(schema, hyperparameters, seed)
        self.members = members
        self._table = NodeTable(members, schema)

    def predict_batch(self, rows: Sequence[FeatureVector]) -> tuple[list[str], np.ndarray]:
        votes = np.zeros(len(rows), dtype=np.float64)
        for fractions in self._table.walk(rows):
            votes += fractions >= 0.5
        scores = votes / len(self.members)
        return [_label(s) for s in scores], scores


class BaggedTreesModel(TreeEnsembleModel):
    kind = KIND_BAGGING


class RandomForestModel(TreeEnsembleModel):
    kind = KIND_FOREST


def _min_max(X: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Columns scaled from [lo, hi] onto [0, 1], values outside clamped to
    the edges; a constant column (lo == hi) scales to 0."""
    span = np.where(hi == lo, 1.0, hi - lo)
    return np.where(hi == lo, 0.0, np.clip((X - lo) / span, 0.0, 1.0))


class NearestNeighborModel(_Model):
    """k nearest training rows under a mean per-feature mismatch distance.

    Query rows go through the two steps that made the stored matrix: an
    Encoder rebuilt from the training vocabularies, then min-max scaling
    of numeric columns over the training ranges.  Boolean and categorical
    features contribute 0 on match and 1 on mismatch (an unseen category
    matches nothing); numeric features contribute the absolute difference
    of their scaled values (values outside the training range clamp to
    the edges, and a constant training column contributes 0).  Equidistant
    neighbors at the cut resolve by training row order, which is canonical.
    """

    kind = KIND_KNN

    def __init__(
        self,
        schema: FeatureSchema,
        hyperparameters: dict,
        seed: int,
        vocabs: dict[str, dict[str, int]],
        ranges: dict[str, tuple[float, float]],
        matrix: np.ndarray,
        labels: np.ndarray,
    ):
        super().__init__(schema, hyperparameters, seed)
        self.encoder = Encoder(schema, vocabs=vocabs)
        self.ranges = ranges
        self.matrix = matrix
        self.labels = labels
        numeric = compress(self.encoder.columns, ~self.encoder.eq_mask)
        self._lo, self._hi = np.array([ranges[c.name] for c in numeric]).reshape(-1, 2).T

    def encode(self, rows: Sequence[FeatureVector]) -> np.ndarray:
        """Rows encoded and scaled into the space of the stored matrix."""
        X = self.encoder.encode_rows(rows)
        numeric = ~self.encoder.eq_mask
        X[:, numeric] = _min_max(X[:, numeric], self._lo, self._hi)
        return X

    def _distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Mean per-feature mismatch between encoded rows, over the last axis."""
        return np.where(self.encoder.eq_mask, a != b, np.abs(a - b)).mean(axis=-1)

    def distance(self, a: FeatureVector, b: FeatureVector) -> float:
        """Distance between two vectors under this model's fitted scaling."""
        return float(self._distances(*self.encode([a, b])))

    def _score(self, encoded: np.ndarray) -> float:
        dists = self._distances(self.matrix, encoded)
        k = min(self.hyperparameters["k"], dists.size)
        nearest = np.argsort(dists, kind="stable")[:k]
        return float(self.labels[nearest].mean())

    def predict_batch(self, rows: Sequence[FeatureVector]) -> tuple[list[str], np.ndarray]:
        scores = np.array([self._score(encoded) for encoded in self.encode(rows)])
        return [_label(s) for s in scores], scores


TrainedModel = DecisionTreeModel | BaggedTreesModel | RandomForestModel | NearestNeighborModel


def _canonical_rows(dataset: Dataset) -> list[FeatureVector]:
    return [dataset.rows[i] for i in dataset.canonical_order()]


def _grow_ensemble(
    X: np.ndarray,
    y: np.ndarray,
    eq_mask: np.ndarray,
    hp: dict,
    seed: int,
    subsample_features: bool,
) -> list[dict]:
    n, d = X.shape
    n_sample = math.ceil(math.sqrt(d)) if subsample_features else None
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(hp["n_trees"])]
    # each tree's rng draws its bootstrap first, then its feature subsets
    boots = [rng.integers(0, n, size=n) for rng in rngs]
    return grow_trees(
        X,
        y,
        eq_mask,
        boots,
        hp["max_depth"],
        hp["min_leaf"],
        rngs=rngs if subsample_features else None,
        n_sample_features=n_sample,
    )


def train(
    dataset: Dataset,
    kind: str,
    hyperparameters: dict | None = None,
    seed: int = DEFAULT_SEED,
) -> TrainedModel:
    """Fit one classifier on a fully labeled dataset.

    Raises DegenerateDataset when rows are unlabeled or a class is absent,
    and ValueError for an unknown kind or hyperparameter.
    """
    hp = resolve_hyperparameters(kind, hyperparameters)
    dataset.require_labeled()
    rows = _canonical_rows(dataset)
    schema = dataset.schema
    encoder = Encoder(schema, rows)
    X = encoder.encode_rows(rows)
    y = encode_labels(rows)

    if kind == KIND_TREE:
        root = grow_tree(X, y, encoder.eq_mask, hp["max_depth"], hp["min_leaf"])
        return DecisionTreeModel(decode_tree(root, encoder), schema, hp, seed)
    if kind in (KIND_BAGGING, KIND_FOREST):
        subsample = kind == KIND_FOREST
        # the encoded trees are freed once decoded, before the model builds its table
        members = _grow_ensemble(X, y, encoder.eq_mask, hp, seed, subsample)
        decoded = [decode_tree(members.pop(0), encoder) for _ in range(len(members))]
        cls = RandomForestModel if subsample else BaggedTreesModel
        return cls(decoded, schema, hp, seed)
    # k-NN: scale numeric columns to [0, 1] over the training rows, through
    # the helper queries use (clamping leaves training values as they are)
    numeric = ~encoder.eq_mask
    lo, hi = X[:, numeric].min(axis=0), X[:, numeric].max(axis=0)
    columns = compress(encoder.columns, numeric)
    ranges = {c.name: (float(a), float(b)) for c, a, b in zip(columns, lo, hi)}
    X[:, numeric] = _min_max(X[:, numeric], lo, hi)
    return NearestNeighborModel(schema, hp, seed, encoder.vocabs, ranges, X, y)


def predict(
    model: TrainedModel, fv: FeatureVector, schema: FeatureSchema | None = None
) -> tuple[str, float]:
    """Predict one vector; rejects a schema that differs from training."""
    if schema is not None and schema.fingerprint() != model.schema.fingerprint():
        raise SchemaError(
            "feature schema does not match the one the model was trained on"
        )
    return model.predict(fv)
