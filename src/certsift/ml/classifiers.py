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
    """State every model kind carries, and its one prediction path: rows are
    encoded into the model's space (encode), then scored (score_encoded).
    predict is a batch of one, so the two can never disagree.
    """

    kind: str

    def __init__(self, schema: FeatureSchema, hyperparameters: dict, seed: int):
        self.schema = schema
        self.hyperparameters = dict(hyperparameters)
        self.seed = seed

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
        super().__init__(encoder.schema, hyperparameters, seed)
        self.table = table
        self.encoder = encoder

    def encode(self, rows: Sequence[FeatureVector]) -> np.ndarray:
        return self.encoder.encode_rows(rows)

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


# (query row, training row) pairs that one pass of score_encoded filters:
# 32 query rows against the 1,020-row seed-7 benchmark matrix.  Timed alone
# on its 836 queries (2-CPU VM, median of 25), 2^14 to 2^17 pairs took
# 12-16 ms, 2^12 32 ms and 2^18 25 ms, against 61-88 ms for the distance
# scan this replaced; the tracemalloc peak doubles with the budget, 0.89 MiB
# at 2^15.  Where every row ties at the cut, the refine step holds about 75
# bytes a pair, so 2^16 would peak above that scan's 2.6 MiB.
_CHUNK_CELLS = 2**15

# How far above a query's k-th smallest S a training row's S may lie and
# still be refined: more than twice the rounding between S and d times the
# distance (under 1e-12, see the class).  A larger slack is exact too, but
# refines more pairs.
_SLACK = 1e-9


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

    score_encoded filters, then refines (the multi-step search of Korn et
    al., VLDB 1996, and Seidl and Kriegel, SIGMOD 1998), over chunks of
    about _CHUNK_CELLS (query, training row) pairs.  The filter sums, one
    column at a time, each pair's mismatched equality columns and its
    numeric |a - b|: S, which is d times the pair's distance up to rounding
    (d columns).  Each query keeps the rows whose S is at most its k-th
    smallest, S_k, plus _SLACK.  The refine step takes the distances of the
    kept pairs only, orders each query's pairs by (distance, row), and
    scores the sum of the first k labels over k.

    This is exact, not approximate: the rows scored are the first k of a
    stable argsort of the query's distances to every row (a NaN distance,
    or a NaN S, counts as the largest, as it sorts there), and the score is
    their mean label to the bit, given what the load check (persist.py)
    holds a stored model to (cells in [0, 1] or whole-number codes, finite
    ranges, 0/1 labels).  Codes are whole numbers, so the per-column cap
    min(|a - b|, 1) is a != b on equality columns, and they compare as the
    narrow integers the filter reads them as; so S and d * distance sum the
    same at most 15 terms in [0, 1] in other orders, and differ by some
    delta < 1e-12.  Let D_k be the query's k-th smallest distance.  The
    k rows of smallest S have d * distance <= S_k + delta, so d * D_k <= S_k
    + delta; a row among the argsort's first k has distance <= D_k, so
    S <= d * D_k + delta <= S_k + 2 delta, and it is kept.  A dropped row has
    d * distance >= S - delta > S_k + _SLACK - delta > d * D_k, so it never
    competes at the cut.  If fewer than k distances are finite, S_k is inf
    and every row is kept.  Each kept distance is reduced along the same
    contiguous last axis as a row scored alone, so it has the same bits;
    and labels are 0/1, so their sum is exact in any order.
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

    def _candidates(self, X: np.ndarray, k: int, codes: np.ndarray, numeric: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
        """The filter: the (row of X, training row) pairs whose S is at most
        that row's k-th smallest S plus _SLACK, by row of X, then training
        row.  S is a pair's mismatched equality columns plus its numeric
        |a - b|, with NaN as inf; codes and numeric are those columns of the
        matrix, one a row."""
        eq = self.encoder.eq_mask
        shape = (len(X), len(self.matrix))
        count = np.zeros(shape, np.uint8)  # at most 15 columns
        miss = np.empty(shape, bool)
        for a, b in zip(X[:, eq].T.astype(codes.dtype), codes):
            count += np.not_equal(a[:, None], b, out=miss).view(np.uint8)
        sums = count.astype(np.float64)
        cell = np.empty(shape)
        for a, b in zip(X[:, ~eq].T, numeric):
            sums += np.abs(np.subtract(a[:, None], b, out=cell), out=cell)
        sums[np.isnan(sums)] = np.inf
        cut = np.partition(sums, k - 1, axis=1)[:, k - 1, None] + _SLACK
        return np.divmod(np.flatnonzero(sums <= cut), shape[1])

    def score_encoded(self, X: np.ndarray) -> np.ndarray:
        """The score of each row of X, encoded and scaled as encode does."""
        n, d = self.matrix.shape
        k = min(self.hyperparameters["k"], n)
        # the equality columns as the narrowest integers that hold every code
        # and -1, which compare fastest
        eq = self.encoder.eq_mask
        sizes = [2, *map(len, self.encoder.vocabs.values())]
        codes = self.matrix[:, eq].T.astype(np.min_scalar_type(-max(sizes)))
        numeric = np.ascontiguousarray(self.matrix[:, ~eq].T)
        chunk = max(1, _CHUNK_CELLS // n)
        # kept pairs refined a pass: the two arrays gathered for them hold
        # _CHUNK_CELLS / 4 cells, however many pairs tie at the cut
        step = max(1, _CHUNK_CELLS // (8 * d))
        scores = np.empty(len(X))
        for start in range(0, len(X), chunk):
            block = X[start:start + chunk]
            query, row = self._candidates(block, k, codes, numeric)
            dists = np.empty(query.size)
            for at in range(0, query.size, step):
                pairs = block[query[at:at + step]]
                dists[at:at + step] = self._distances(pairs, self.matrix[row[at:at + step]], pairs)
            # NaN sorts last in an argsort; every number here is at most 1
            dists[np.isnan(dists)] = np.inf
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
