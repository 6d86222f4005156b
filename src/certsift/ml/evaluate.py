"""Stratified k-fold cross-validation and the four-metric report.

Folds are assigned per class by round-robin over a seeded shuffle, so
class proportions differ by at most one row between folds and the
assignment is reproducible from (labels, k, seed) alone.  Metrics are
computed from the confusion matrix summed over all folds: recall and
precision of the positive class and of the negative class.  A ratio whose
denominator is zero is reported as None and rendered as "undefined".
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import asdict, dataclass

import numpy as np

from ..errors import TooFewRows
from .classifiers import DEFAULT_SEED, TREE_KINDS, _fit_knn, _grow_trees, _prepare, tree_votes
from .schema import Dataset, Encoder


@dataclass(frozen=True)
class Confusion:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __add__(self, other: "Confusion") -> "Confusion":
        return Confusion(
            self.tp + other.tp,
            self.fp + other.fp,
            self.tn + other.tn,
            self.fn + other.fn,
        )

    @classmethod
    def of(cls, truth: np.ndarray, predicted: np.ndarray) -> "Confusion":
        """The counts of two boolean arrays: each row's true class and its
        prediction, True for positive."""
        tn, fp, fn, tp = np.bincount(2 * truth + predicted, minlength=4).tolist()
        return cls(tp, fp, tn, fn)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float | None:
        return _ratio(self.tp + self.tn, self.total)


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


def stratified_fold_indices(
    labels: Sequence[str], k: int, seed: int = DEFAULT_SEED
) -> list[list[int]]:
    """Assign row positions to k folds, stratified by label.

    Within each label (labels visited in sorted order) the positions are
    shuffled with a generator seeded from `seed`, then dealt round-robin
    to folds 0..k-1.  Raises TooFewRows if k < 2 or any class has fewer
    than k rows.
    """
    if k < 2:
        raise TooFewRows(f"need at least 2 folds, got {k}")
    by_label: dict[str, list[int]] = {}
    for i, label in enumerate(labels):
        by_label.setdefault(label, []).append(i)
    for label, positions in sorted(by_label.items()):
        if len(positions) < k:
            raise TooFewRows(
                f"class {label!r} has {len(positions)} rows, fewer than {k} folds"
            )
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for label in sorted(by_label):
        positions = np.array(by_label[label], dtype=np.int64)
        shuffled = positions[rng.permutation(positions.size)]
        for slot, position in enumerate(shuffled):
            folds[slot % k].append(int(position))
    return [sorted(fold) for fold in folds]


@dataclass(frozen=True)
class EvalReport:
    """Cross-validation outcome: summed confusion plus the four metrics."""

    kind: str
    k: int
    seed: int
    hyperparameters: dict
    confusion: Confusion
    per_fold: tuple[Confusion, ...]

    @property
    def positive_recall(self) -> float | None:
        return _ratio(self.confusion.tp, self.confusion.tp + self.confusion.fn)

    @property
    def positive_precision(self) -> float | None:
        return _ratio(self.confusion.tp, self.confusion.tp + self.confusion.fp)

    @property
    def negative_recall(self) -> float | None:
        return _ratio(self.confusion.tn, self.confusion.tn + self.confusion.fp)

    @property
    def negative_precision(self) -> float | None:
        return _ratio(self.confusion.tn, self.confusion.tn + self.confusion.fn)

    @property
    def accuracy(self) -> float | None:
        return self.confusion.accuracy

    def metrics(self) -> dict[str, float | None]:
        return {
            "positive_recall": self.positive_recall,
            "positive_precision": self.positive_precision,
            "negative_recall": self.negative_recall,
            "negative_precision": self.negative_precision,
            "accuracy": self.accuracy,
        }

    def to_json(self) -> str:
        doc = {
            "classifier": self.kind,
            "folds": self.k,
            "seed": self.seed,
            "hyperparameters": self.hyperparameters,
            "rows": self.confusion.total,
            "confusion": asdict(self.confusion),
            "metrics": self.metrics(),
            "per_fold": [asdict(c) for c in self.per_fold],
        }
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"

    def to_table(self) -> str:
        def cell(value: float | None) -> str:
            return "undefined" if value is None else f"{value:.3f}"

        header = (
            f"{'classifier':<12}{'pos_recall':>12}{'pos_precision':>15}"
            f"{'neg_recall':>12}{'neg_precision':>15}"
        )
        row = (
            f"{self.kind:<12}{cell(self.positive_recall):>12}"
            f"{cell(self.positive_precision):>15}{cell(self.negative_recall):>12}"
            f"{cell(self.negative_precision):>15}"
        )
        return header + "\n" + row + "\n"


def cross_validate(
    dataset: Dataset,
    kind: str,
    k: int = 10,
    hyperparameters: dict | None = None,
    seed: int = DEFAULT_SEED,
) -> EvalReport:
    """k-fold cross-validation of one classifier kind over a labeled dataset.

    Rows are put in canonical order before fold assignment, so the same
    data in a different file order produces the same folds.  Each fold's
    model trains on the other k-1 folds with the same seed; the report
    aggregates the per-fold confusion matrices.

    The rows are encoded once, over all of them.  The tree kinds grow every
    fold's trees together (tree.grow_trees, in batches), and each batch, as
    it is grown, walks each fold's test rows, in the same encoding, down that
    fold's trees; k-NN fits each fold on its training rows of the one matrix
    and scores its test rows there.
    Predictions are those of train(...).predict_batch on each fold, to the
    bit:
    - A fold's rows in canonical order are already in its own canonical
      order, so its rows, bootstraps and labels are the ones train sees.
    - Whole-data category codes are a strictly increasing relabelling of a
      fold's own codes, so every column's bins keep their order, and with
      it every tie-break of the split search.
    - Values absent from a fold only add bins that are empty in every node
      of its trees; empty (node, bin) pairs are never scored, and a
      threshold lies halfway to the next non-empty bin in the node, so the
      splits and thresholds are the fold's own.
    - An equality test on the codes of one injective encoding is an
      equality test on the raw values; so a test row whose category the
      fold never saw matches no split and goes right, as the model's -1
      code does.  Leaf fractions are the same floats, and a vote sum of
      0/1 is exact in any order.
    - For k-NN, such a category's whole-data code is one no training row
      of the fold holds, so it mismatches every one of them, as -1 does;
      codes are whole numbers, so every mismatch counts 1 either way.
      Numeric columns pass through the encoding unchanged and are scaled
      over the fold's own training ranges through the same helper, so
      every distance, and with it every neighbour, is the fold model's.
    """
    hp, rows, encoder, X, y = _prepare(dataset, kind, hyperparameters)
    folds = stratified_fold_indices([fv.label for fv in rows], k, seed)
    scores = _fold_scores(encoder, X, y, kind, hp, seed, folds)
    per_fold = [Confusion.of(y[test] > 0, fold_scores >= 0.5)
                for test, fold_scores in zip(folds, scores)]
    return EvalReport(kind=kind, k=k, seed=seed, hyperparameters=hp,
                      confusion=sum(per_fold, Confusion()), per_fold=tuple(per_fold))


def _fold_scores(
    encoder: Encoder,
    X: np.ndarray,
    y: np.ndarray,
    kind: str,
    hp: dict,
    seed: int,
    folds: Sequence[Sequence[int]],
) -> list[np.ndarray]:
    """Each fold's scores for its test rows, from the model of a kind fitted
    on the other folds' rows, all over X, the rows (in canonical order) as
    encoder encodes them, with their 0/1 labels y."""
    tests = [np.array(test_positions, dtype=np.intp) for test_positions in folds]
    row_sets = [np.delete(np.arange(len(X)), test) for test in tests]
    if kind not in TREE_KINDS:
        scores = []
        for test, kept in zip(tests, row_sets):
            model = _fit_knn(encoder, hp, seed, X[kept], y[kept])
            scores.append(model.score_encoded(model.scale(X[test])))
        return scores
    sums = [np.zeros(test.size) for test in tests]
    grown = 0  # the trees of the batches before
    for table in _grow_trees(X, y, encoder.eq_mask, kind, hp, seed, row_sets):
        for f, test in enumerate(tests):  # batch root r grows on row set (grown + r) % k
            roots = range((f - grown) % len(tests), table.n_trees, len(tests))
            sums[f] += tree_votes(table, X[test], roots, kind)
        grown += table.n_trees
    return [total / (grown // len(tests)) for total in sums]  # over each fold's trees
