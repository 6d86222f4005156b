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
from collections.abc import Iterator, Sequence
from itertools import compress, cycle

import numpy as np

from ..errors import SchemaError
from ..features import LABEL_NEGATIVE, LABEL_POSITIVE, FeatureVector
from .schema import Dataset, Encoder, FeatureSchema, encode_labels
from .tree import NodeTable, grow_tree, grow_trees  # noqa: F401 (grow_tree re-exported)

DEFAULT_SEED = 17

KIND_TREE = "tree"
KIND_BAGGING = "bagging"
KIND_FOREST = "forest"
KIND_KNN = "knn"

MODEL_KINDS = (KIND_TREE, KIND_BAGGING, KIND_FOREST, KIND_KNN)
TREE_KINDS = (KIND_TREE, KIND_BAGGING, KIND_FOREST)

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


class _TreeModel(_Model):
    """A tree kind's trees as one NodeTable, with the Encoder whose codes its
    values are: the training Encoder, or the one a model file stores."""

    def __init__(self, table: NodeTable, encoder: Encoder, hyperparameters: dict, seed: int):
        super().__init__(encoder.schema, hyperparameters, seed)
        self.table = table
        self.encoder = encoder


class DecisionTreeModel(_TreeModel):
    kind = KIND_TREE

    def predict_batch(self, rows: Sequence[FeatureVector]) -> tuple[list[str], np.ndarray]:
        (scores,) = self.table.walk_encoded(self.encoder.encode_rows(rows), [0])
        return [_label(s) for s in scores], scores


class TreeEnsembleModel(_TreeModel):
    """Shared behavior of bagged trees and random forests.

    Every member tree casts one vote (its leaf majority); the ensemble
    score is the fraction of positive votes and the label follows the
    majority.
    """

    def predict_batch(self, rows: Sequence[FeatureVector]) -> tuple[list[str], np.ndarray]:
        votes = np.zeros(len(rows), dtype=np.float64)
        X = self.encoder.encode_rows(rows)
        for fractions in self.table.walk_encoded(X, range(self.table.n_trees)):
            votes += fractions >= 0.5
        scores = votes / self.table.n_trees
        return [_label(s) for s in scores], scores


class BaggedTreesModel(TreeEnsembleModel):
    kind = KIND_BAGGING


class RandomForestModel(TreeEnsembleModel):
    kind = KIND_FOREST


def _min_max(X: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Columns scaled from [lo, hi] onto [0, 1], values outside clamped to
    the edges; a constant column (lo == hi) scales to 0.

    Where hi - lo overflows, every term is halved first, (X/2 - lo/2) /
    (hi/2 - lo/2), which keeps the span finite.  Elsewhere nothing is
    halved, since halving rounds away the low bit of a subnormal value.  A
    value far outside [lo, hi] may overflow to an infinity on the way,
    which clamps to the edge it lies beyond.
    """
    with np.errstate(over="ignore"):
        span = hi - lo
        wide = np.isinf(span)
        offset = np.where(wide, X / 2 - lo / 2, X - lo)
        span = np.where(wide, hi / 2 - lo / 2, np.where(hi == lo, 1.0, span))
        return np.where(hi == lo, 0.0, np.clip(offset / span, 0.0, 1.0))


# Distance cells (query rows x training rows x columns) that one pass of
# predict_batch scores: 19 query rows against the 1,020 x 13 seed-7
# benchmark matrix.  Timed alone on its 836 queries (2-CPU Xeon VM), chunks
# of 4 to 64 rows took 65-70 ms, 1 row 95 ms and 256 rows 92 ms, against
# 134 ms for a scan row by row; the tracemalloc peak grows with the chunk,
# 2.7 MiB at 19 rows and 8.8 MiB at 64.
_CHUNK_CELLS = 2**18


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

    predict_batch scores query rows in chunks of about _CHUNK_CELLS
    distance cells: one broadcast distance block per chunk, np.partition
    for each row's k-th smallest distance, then every training row strictly
    below it plus the lowest-indexed rows equal to it, up to k, and the sum
    of their labels over k.  This is exact, not approximate: the kept rows
    are the first k of a stable argsort of the row's distances (a NaN
    distance counts as the largest, as it sorts there), and the score is
    their mean label to the bit, given what the load check (persist.py)
    holds a stored model to.  Codes are whole numbers, so the per-column
    cap min(|a - b|, 1) is a != b on equality columns; each distance is
    reduced along the same contiguous last axis as a row scored alone, so
    it has the same bits; and labels are 0/1, so their sum is exact in any
    order.
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
        # the most a column contributes: 1 on an equality column, else unbounded
        self._cap = np.where(self.encoder.eq_mask, 1.0, np.inf)

    def encode(self, rows: Sequence[FeatureVector]) -> np.ndarray:
        """Rows encoded and scaled into the space of the stored matrix."""
        return self.scale(self.encoder.encode_rows(rows))

    def scale(self, X: np.ndarray) -> np.ndarray:
        """Encoded rows with their numeric columns scaled, in place, over the
        training ranges."""
        numeric = ~self.encoder.eq_mask
        X[:, numeric] = _min_max(X[:, numeric], self._lo, self._hi)
        return X

    def _distances(self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Mean per-feature mismatch between encoded rows, over the last axis;
        out, if given, holds the per-feature cells."""
        cells = np.abs(np.subtract(a, b, out=out), out=out)
        return np.minimum(cells, self._cap, out=cells).mean(axis=-1)

    def distance(self, a: FeatureVector, b: FeatureVector) -> float:
        """Distance between two vectors under this model's fitted scaling."""
        return float(self._distances(*self.encode([a, b])))

    def predict_batch(self, rows: Sequence[FeatureVector]) -> tuple[list[str], np.ndarray]:
        scores = self.score_encoded(self.encode(rows))
        return [_label(s) for s in scores], scores

    def score_encoded(self, X: np.ndarray) -> np.ndarray:
        """The score of each row of X, encoded and scaled as encode does."""
        k = min(self.hyperparameters["k"], self.labels.size)
        chunk = max(1, _CHUNK_CELLS // self.matrix.size)
        cells = np.empty((min(chunk, len(X)), *self.matrix.shape))
        scores = np.empty(len(X))
        for start in range(0, len(X), chunk):
            block = X[start:start + chunk, None, :]
            dists = self._distances(block, self.matrix, cells[:len(block)])
            # NaN sorts last in an argsort; every number here is at most 1
            dists[np.isnan(dists)] = np.inf
            kth = np.partition(dists, k - 1, axis=1)[:, k - 1, None]
            below = dists < kth
            ties = dists == kth
            # the lowest-indexed ties, as many as the rows below leave room for
            room = k - np.count_nonzero(below, axis=1)
            keep = below | (ties & (np.cumsum(ties, axis=1) <= room[:, None]))
            scores[start:start + chunk] = (keep @ self.labels) / k
        return scores


TREE_CLASSES = {KIND_TREE: DecisionTreeModel, KIND_BAGGING: BaggedTreesModel,
                KIND_FOREST: RandomForestModel}

TrainedModel = DecisionTreeModel | BaggedTreesModel | RandomForestModel | NearestNeighborModel


def _canonical_rows(dataset: Dataset) -> list[FeatureVector]:
    return [dataset.rows[i] for i in dataset.canonical_order()]


def _grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    eq_mask: np.ndarray,
    kind: str,
    hp: dict,
    seed: int,
    row_sets: Sequence[np.ndarray],
) -> Iterator[NodeTable]:
    """The trees train grows for a tree kind on each row set alone (ascending
    positions of rows of X, which is in canonical order), in grow_trees's
    batches.  Trees come in ensemble order, each for every row set in turn,
    so tree t grows on row set t % len(row_sets), and a batch holds the same
    tree of several row sets, whose rngs start alike.

    Each row set's trees are the ones its rows alone would give (see the
    tree module): its rows, in its own canonical order, are those rows of X
    in ascending position, and its bootstraps are those positions at the
    draws train makes, from rngs spawned from seed as train spawns them.
    """
    if kind == KIND_TREE:
        return grow_trees(X, y, eq_mask, row_sets, hp["max_depth"], hp["min_leaf"])
    rngs = [np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(hp["n_trees"]) for _ in row_sets]
    # each tree's rng draws its bootstrap first, then its feature subsets
    boots = (positions[rng.integers(0, positions.size, size=positions.size)]
             for rng, positions in zip(rngs, cycle(row_sets)))
    n_sample = math.ceil(math.sqrt(X.shape[1])) if kind == KIND_FOREST else None
    return grow_trees(X, y, eq_mask, boots, hp["max_depth"], hp["min_leaf"], rngs, n_sample)


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

    if kind in TREE_KINDS:
        grown = _grow_trees(X, y, encoder.eq_mask, kind, hp, seed, [np.arange(len(rows))])
        return TREE_CLASSES[kind](NodeTable.join(list(grown)), encoder, hp, seed)
    return _fit_knn(encoder, hp, seed, X, y)


def _fit_knn(encoder: Encoder, hp: dict, seed: int, X: np.ndarray, y: np.ndarray
             ) -> NearestNeighborModel:
    """The k-NN model of rows X (encoded by encoder, in canonical order) and
    labels y: numeric columns scaled in place to [0, 1] over X's ranges,
    through the helper queries use (clamping leaves training values as they
    are)."""
    numeric = ~encoder.eq_mask
    lo, hi = X[:, numeric].min(axis=0), X[:, numeric].max(axis=0)
    columns = compress(encoder.columns, numeric)
    ranges = {c.name: (float(a), float(b)) for c, a, b in zip(columns, lo, hi)}
    X[:, numeric] = _min_max(X[:, numeric], lo, hi)
    return NearestNeighborModel(encoder.schema, hp, seed, encoder.vocabs, ranges, X, y)


def predict(
    model: TrainedModel, fv: FeatureVector, schema: FeatureSchema | None = None
) -> tuple[str, float]:
    """Predict one vector; rejects a schema that differs from training."""
    if schema is not None and schema.fingerprint() != model.schema.fingerprint():
        raise SchemaError(
            "feature schema does not match the one the model was trained on"
        )
    return model.predict(fv)
