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
from collections.abc import Iterable, Iterator, Sequence
from itertools import compress, cycle

import numpy as np

from ..errors import SchemaError
from ..features import LABEL_NEGATIVE, LABEL_POSITIVE, FeatureVector
from .schema import Dataset, Encoder, FeatureSchema, encode_labels
from .tree import NodeTable, grow_trees

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
    """State every model kind carries, and its one prediction path: rows are
    encoded into the model's space (encode), then scored (score_encoded).
    predict is a batch of one, so the two can never disagree.
    """

    kind: str

    def __init__(self, encoder: Encoder, hyperparameters: dict, seed: int):
        self.encoder = encoder
        self.schema = encoder.schema
        self.hyperparameters = dict(hyperparameters)
        self.seed = seed

    def encode(self, rows: Sequence[FeatureVector]) -> np.ndarray:
        return self.encoder.encode_rows(rows)

    def predict_batch(self, rows: Sequence[FeatureVector]) -> tuple[list[str], np.ndarray]:
        scores = self.score_encoded(self.encode(rows))
        return [_label(s) for s in scores], scores

    def predict(self, fv: FeatureVector) -> tuple[str, float]:
        labels, scores = self.predict_batch([fv])
        return labels[0], float(scores[0])


def tree_votes(table: NodeTable, X: np.ndarray, roots: Iterable[int], kind: str) -> np.ndarray:
    """Per row of X (encoded as the table's values are), the sum over roots
    of its leaf's positive fraction (kind tree) or of its vote (an
    ensemble's: 1 where that fraction is >= 0.5).  Votes are 0/1, so their
    sum is exact in any order."""
    total = np.zeros(len(X))
    for fractions in table.walk_encoded(X, roots):
        total += fractions if kind == KIND_TREE else fractions >= 0.5
    return total


class _TreeModel(_Model):
    """A tree kind's trees as one NodeTable, with the Encoder whose codes its
    values are: the training Encoder, or the one a model file stores.  The
    score is a single tree's leaf fraction, or the fraction of an ensemble's
    trees that vote positive (each its leaf majority)."""

    def __init__(self, table: NodeTable, encoder: Encoder, hyperparameters: dict, seed: int):
        super().__init__(encoder, hyperparameters, seed)
        self.table = table

    def score_encoded(self, X: np.ndarray) -> np.ndarray:
        n_trees = self.table.n_trees
        return tree_votes(self.table, X, range(n_trees), self.kind) / n_trees


class DecisionTreeModel(_TreeModel):
    kind = KIND_TREE


class TreeEnsembleModel(_TreeModel):
    """Shared behavior of bagged trees and random forests."""


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


# (query row, training row) pairs whose distances one pass of score_encoded
# holds: 32 query rows against the 1,020-row seed-7 benchmark matrix.  Timed
# alone (2-CPU VM, three sweeps), its 836 queries took 9-13 ms from 2^14 to
# 2^17 pairs and 18 ms at 2^12, while the tracemalloc peak doubles with the
# budget: 0.74 MiB at 2^15, 1.31 at 2^16.  1,000 queries against random
# 10,000- and 24,000-row matrices took 59-67 and 153-185 ms at 2^15, 48-59
# and 132-148 ms at 2^16, and 96-119 and 132-152 ms at 2^17.  Above 16,384
# training rows a chunk holds one query row.
_CHUNK_CELLS = 2**15


class NearestNeighborModel(_Model):
    """k nearest training rows under a mean per-feature mismatch distance.

    Query rows go through the two steps that made the stored matrix: the
    training Encoder (or the one a model file stores), then min-max scaling
    of numeric columns over the training ranges.  Boolean and categorical
    features contribute 0 on match and 1 on mismatch (an unseen category
    matches nothing); numeric features contribute the absolute difference
    of their scaled values (values outside the training range clamp to
    the edges, and a constant training column contributes 0).  Equidistant
    neighbors at the cut resolve by training row order, which is canonical.

    The distance is S / d over the d columns, where S is the count of
    mismatched equality columns plus each numeric column's |a - b|, added
    in column order.  The count is a whole number, exact in any order, so
    on the default schema, whose two numeric columns come last, S / d is
    numpy's mean of the per-feature terms to the bit; a numeric column
    before an equality column, or among the first eight, can put it one
    ulp from that mean.

    score_encoded takes the distances of about _CHUNK_CELLS (query,
    training row) pairs at a time from _distances, the array distance()
    reads too, so its selection is exact: a query's first k rows in a
    stable argsort of its distances (a NaN one counting as the largest, as
    it sorts there) are its first k by (distance, row) among the rows at or
    below its k-th smallest distance.  Labels are 0/1, so the sum of the
    first k is exact in any order.
    """

    kind = KIND_KNN

    def __init__(
        self,
        encoder: Encoder,
        hyperparameters: dict,
        seed: int,
        ranges: dict[str, tuple[float, float]],
        matrix: np.ndarray,
        labels: np.ndarray,
    ):
        super().__init__(encoder, hyperparameters, seed)
        self.ranges = ranges
        self.matrix = matrix
        self.labels = labels
        numeric = compress(self.encoder.columns, ~self.encoder.eq_mask)
        self._lo, self._hi = np.array([ranges[c.name] for c in numeric]).reshape(-1, 2).T

    def encode(self, rows: Sequence[FeatureVector]) -> np.ndarray:
        """Rows encoded and scaled into the space of the stored matrix."""
        return self.scale(self.encoder.encode_rows(rows))

    def scale(self, X: np.ndarray) -> np.ndarray:
        """Encoded rows with their numeric columns scaled, in place, over the
        training ranges."""
        numeric = ~self.encoder.eq_mask
        X[:, numeric] = _min_max(X[:, numeric], self._lo, self._hi)
        return X

    def _columns(self, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The columns of encoded and scaled rows that _distances reads, one
        array row a column: the numeric ones, and the equality ones as the
        narrowest integers that hold every code and -1, which compare fastest
        (codes are whole numbers, as the load check in persist.py holds a
        stored model's to)."""
        eq = self.encoder.eq_mask
        width = np.min_scalar_type(-self.encoder.code_counts().max(initial=2))
        return matrix[:, eq].T.astype(width), np.ascontiguousarray(matrix[:, ~eq].T)

    def _distances(self, X: np.ndarray, codes: np.ndarray, numeric: np.ndarray) -> np.ndarray:
        """The distances from the rows of X, encoded and scaled, to the rows
        whose columns _columns gave as codes and numeric: one array row per
        row of X."""
        eq = self.encoder.eq_mask
        shape = (len(X), codes.shape[1])
        count = np.zeros(shape, np.uint8)  # at most 15 columns
        miss = np.empty(shape, bool)
        for a, b in zip(X[:, eq].T.astype(codes.dtype), codes):
            count += np.not_equal(a[:, None], b, out=miss).view(np.uint8)
        sums = count.astype(np.float64)
        cell = np.empty(shape)
        for a, b in zip(X[:, ~eq].T, numeric):
            sums += np.abs(np.subtract(a[:, None], b, out=cell), out=cell)
        sums /= X.shape[1]
        return sums

    def distance(self, a: FeatureVector, b: FeatureVector) -> float:
        """Distance between two vectors under this model's fitted scaling."""
        X = self.encode([a, b])
        return float(self._distances(X[:1], *self._columns(X[1:]))[0, 0])

    def score_encoded(self, X: np.ndarray) -> np.ndarray:
        """The score of each row of X, encoded and scaled as encode does."""
        n = len(self.matrix)
        k = min(self.hyperparameters["k"], n)
        columns = self._columns(self.matrix)
        chunk = max(1, _CHUNK_CELLS // n)
        scores = np.empty(len(X))
        for start in range(0, len(X), chunk):
            block = X[start:start + chunk]
            dists = self._distances(block, *columns)
            # NaN sorts last in an argsort; every number here is at most 1
            dists[np.isnan(dists)] = np.inf
            cut = np.partition(dists, k - 1, axis=1)[:, [k - 1]]
            # each query's pairs at or below its k-th smallest distance, by
            # query, then row; the block goes once they are taken
            kept = np.flatnonzero(dists <= cut)
            dists = dists.ravel()[kept]
            query, row = np.divmod(kept, n)
            # by query, then distance, then row: a stable sort of pairs that
            # come by query, then row
            order = np.lexsort((dists, query))
            # every query keeps at least k pairs, in one run; its first k
            first = np.searchsorted(query, np.arange(len(block)))
            nearest = order[first[:, None] + np.arange(k)]
            scores[start:start + chunk] = self.labels[row[nearest]].sum(axis=1) / k
        return scores


TREE_CLASSES = {KIND_TREE: DecisionTreeModel, KIND_BAGGING: BaggedTreesModel,
                KIND_FOREST: RandomForestModel}

TrainedModel = DecisionTreeModel | BaggedTreesModel | RandomForestModel | NearestNeighborModel


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
    hp, _, encoder, X, y = _prepare(dataset, kind, hyperparameters)
    if kind in TREE_KINDS:
        grown = _grow_trees(X, y, encoder.eq_mask, kind, hp, seed, [np.arange(len(X))])
        return TREE_CLASSES[kind](NodeTable.join(list(grown)), encoder, hp, seed)
    return _fit_knn(encoder, hp, seed, X, y)


def _prepare(dataset: Dataset, kind: str, hyperparameters: dict | None
             ) -> tuple[dict[str, int], list[FeatureVector], Encoder, np.ndarray, np.ndarray]:
    """What every fit starts from (train's, and cross-validation's): kind's
    resolved hyperparameters, the rows in canonical order, the Encoder built
    over them, and their matrix X and 0/1 labels y.  Raises as train does."""
    hp = resolve_hyperparameters(kind, hyperparameters)
    dataset.require_labeled()
    rows = [dataset.rows[i] for i in dataset.canonical_order()]
    encoder = Encoder(dataset.schema, rows)
    return hp, rows, encoder, encoder.encode_rows(rows), encode_labels(rows)


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
    return NearestNeighborModel(encoder, hp, seed, ranges, X, y)


def predict(
    model: TrainedModel, fv: FeatureVector, schema: FeatureSchema | None = None
) -> tuple[str, float]:
    """Predict one vector; rejects a schema that differs from training."""
    if schema is not None and schema.fingerprint() != model.schema.fingerprint():
        raise SchemaError(
            "feature schema does not match the one the model was trained on"
        )
    return model.predict(fv)
