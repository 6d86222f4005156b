"""CART-style decision tree growth on encoded feature matrices.

Splits minimize Gini impurity.  Boolean and categorical columns split on
equality against one observed value; numeric columns split on thresholds
halfway between consecutive distinct observed values.  Ties are broken
deterministically: the first strictly-best candidate wins, scanning
columns in ascending order and candidate values in ascending order.

Grown trees are stored decoded (feature names and raw values), so a
persisted tree predicts without the training vocabulary.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import CorruptModel
from .schema import KIND_BOOLEAN, KIND_CATEGORICAL, Encoder

TEST_EQ = "eq"
TEST_LE = "le"

_MIN_GAIN = 1e-12


def column_tests(encoder: Encoder) -> list[str]:
    return [
        TEST_EQ if col.kind in (KIND_BOOLEAN, KIND_CATEGORICAL) else TEST_LE
        for col in encoder.columns
    ]


def _scan_columns(
    X: np.ndarray,
    y: np.ndarray,
    tests: Sequence[str],
    cols: Sequence[int],
    min_leaf: int,
) -> tuple[tuple[int, str, float] | None, float]:
    """Best (column, test, encoded value) over the given columns, or None."""
    n = y.size
    pos = float(y.sum())
    parent = 2.0 * (pos / n) * (1.0 - pos / n)
    best: tuple[int, str, float] | None = None
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
    return best, best_gain


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    tests: Sequence[str],
    max_depth: int,
    min_leaf: int,
    rng: np.random.Generator | None = None,
    n_sample_features: int | None = None,
) -> dict:
    """Grow a tree on encoded data; returns the root node (encoded values).

    When n_sample_features is set, each split first searches a random
    subset of that many columns and falls back to the remaining columns
    only if the subset offers no impurity reduction, so a usable split is
    never passed over just because the draw missed it.
    """
    n, d = X.shape
    all_cols = list(range(d))
    subsampling = (
        rng is not None and n_sample_features is not None and n_sample_features < d
    )

    def leaf(idx: np.ndarray) -> dict:
        count = int(idx.size)
        positive = float(y[idx].sum())
        return {"node": "leaf", "positive_fraction": positive / count, "count": count}

    def grow(idx: np.ndarray, depth: int) -> dict:
        y_node = y[idx]
        count = idx.size
        positive = y_node.sum()
        if (
            positive == 0
            or positive == count
            or depth >= max_depth
            or count < 2 * min_leaf
        ):
            return leaf(idx)
        if subsampling:
            sampled = sorted(rng.choice(d, size=n_sample_features, replace=False).tolist())
            blocks = [sampled, sorted(set(all_cols) - set(sampled))]
        else:
            blocks = [all_cols]
        X_node = X[idx]
        best = None
        for cols in blocks:
            best, _ = _scan_columns(X_node, y_node, tests, cols, min_leaf)
            if best is not None:
                break
        if best is None:
            return leaf(idx)
        j, test, value = best
        column = X_node[:, j]
        mask = column == value if test == TEST_EQ else column <= value
        return {
            "node": "split",
            "col": j,
            "test": test,
            "value": value,
            "left": grow(idx[mask], depth + 1),
            "right": grow(idx[~mask], depth + 1),
        }

    return grow(np.arange(n), 0)


def decode_tree(node: dict, encoder: Encoder) -> dict:
    """Replace column indices and encoded values with names and raw values."""
    if node["node"] == "leaf":
        return dict(node)
    col = encoder.columns[node["col"]]
    if node["test"] == TEST_EQ:
        value = encoder.decode_value(col, node["value"])
    else:
        value = float(node["value"])
    return {
        "node": "split",
        "feature": col.name,
        "test": node["test"],
        "value": value,
        "left": decode_tree(node["left"], encoder),
        "right": decode_tree(node["right"], encoder),
    }


def leaf_fractions(node: dict, columns: dict[str, np.ndarray], n: int) -> np.ndarray:
    """Positive fraction at the leaf each row lands in (decoded tree).

    columns maps each feature name to its values over the n rows.  Equality
    tests route any value not equal to the stored one (including
    categorical values never seen in training) to the right branch.
    """
    out = np.empty(n, dtype=np.float64)

    def walk(node: dict, idx: np.ndarray) -> None:
        while node["node"] == "split" and idx.size:
            arr = columns[node["feature"]][idx]
            if node["test"] == TEST_EQ:
                mask = arr == node["value"]
            else:
                mask = arr <= node["value"]
            walk(node["left"], idx[mask])
            node, idx = node["right"], idx[~mask]
        if idx.size:
            out[idx] = node["positive_fraction"]

    walk(node, np.arange(n))
    return out


def validate_node(node, path: str = "root") -> None:
    """Structural check for trees loaded from disk; raises CorruptModel."""
    if not isinstance(node, dict):
        raise CorruptModel(f"{path}: node is not an object")
    kind = node.get("node")
    if kind == "leaf":
        fraction = node.get("positive_fraction")
        count = node.get("count")
        if not isinstance(fraction, (int, float)) or not 0.0 <= fraction <= 1.0:
            raise CorruptModel(f"{path}: bad positive_fraction {fraction!r}")
        if not isinstance(count, int) or count < 1:
            raise CorruptModel(f"{path}: bad count {count!r}")
        return
    if kind != "split":
        raise CorruptModel(f"{path}: unknown node type {kind!r}")
    if node.get("test") not in (TEST_EQ, TEST_LE):
        raise CorruptModel(f"{path}: unknown test {node.get('test')!r}")
    if not isinstance(node.get("feature"), str):
        raise CorruptModel(f"{path}: bad feature {node.get('feature')!r}")
    if node["test"] == TEST_LE and not isinstance(node.get("value"), (int, float)):
        raise CorruptModel(f"{path}: threshold must be numeric")
    for side in ("left", "right"):
        if side not in node:
            raise CorruptModel(f"{path}: missing {side} child")
        validate_node(node[side], f"{path}.{side}")
