"""CART-style decision tree growth on encoded feature matrices.

Splits minimize Gini impurity.  Boolean and categorical columns split on
equality against one observed value; numeric columns split on thresholds
halfway between consecutive distinct observed values.

Split search is an exact histogram search (after LightGBM, Ke et al.
2017).  Each column is binned once per tree, one bin per distinct value,
all columns sharing one id space (column by column, values ascending).
Per node, one bincount gives the rows and positives of every bin; an
equality candidate sends its bin left, a threshold candidate its column's
bins up to its own, and one vectorised expression scores them all.

Ties are broken deterministically: the first strictly-best candidate wins,
scanning columns in ascending order and candidate values in ascending
order, which is index order in the bin space, so argmax keeps it.  A bin
none of the node's rows fall in never wins: as an equality candidate it
sends no row left, and as a threshold it ties with the non-empty bin
below it.  A threshold lies halfway to the next non-empty bin of its
column, so every split is the one a per-node sort-and-scan would pick.

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


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    tests: Sequence[str],
    max_depth: int,
    min_leaf: int,
    rng: np.random.Generator | None = None,
    n_sample_features: int | None = None,
) -> dict:
    """Grow a tree on encoded data and 0/1 labels (min_leaf >= 1); returns
    the root node (encoded values).

    When n_sample_features is set, each split first searches a random
    subset of that many columns and falls back to the remaining columns
    only if the subset offers no impurity reduction, so a usable split is
    never passed over just because the draw missed it.
    """
    n, d = X.shape
    subsampling = rng is not None and n_sample_features is not None and n_sample_features < d
    # bin each column once; bin ids run column by column, values ascending
    binned = [np.unique(column, return_inverse=True) for column in X.T]
    bin_value = np.concatenate([np.empty(0), *(values for values, _ in binned)])
    bin_col = np.repeat(np.arange(d), [values.size for values, _ in binned])
    n_bins = bin_value.size
    first = np.searchsorted(bin_col, np.arange(d))  # each column's first bin
    inverse = np.array([inv for _, inv in binned], dtype=np.intp).reshape(d, n).T
    # every cell's bin id, a positive row's in a second copy of the id space
    labelled = inverse + first + np.where(y > 0, n_bins, 0)[:, None]
    # left side of candidate b: bin b alone (eq) or its column's bins up to b (le)
    is_le = np.array([t == TEST_LE for t in tests], dtype=bool)[bin_col]
    base = np.where(is_le, first[bin_col], np.arange(n_bins))

    def best_split(idx: np.ndarray, count: int, positive: float) -> tuple[int, float] | None:
        """Best (column, encoded value) for the node's rows, or None."""
        if subsampling:
            sampled = np.zeros(d, dtype=bool)
            sampled[rng.choice(d, size=n_sample_features, replace=False)] = True
        hist = np.bincount(labelled[idx].ravel(), minlength=2 * n_bins).reshape(2, n_bins)
        running = np.zeros((2, n_bins + 1), dtype=hist.dtype)
        np.cumsum(hist, axis=1, out=running[:, 1:])
        neg_left, pos_left = running[:, 1:] - running[:, base]
        n_left = neg_left + pos_left
        n_right = count - n_left
        # candidates that leave min_leaf rows on each side, in scan order
        cand = np.flatnonzero((n_left >= min_leaf) & (n_right >= min_leaf))
        n_left, n_right, pos_left = n_left[cand], n_right[cand], pos_left[cand]
        parent = 2.0 * (positive / count) * (1.0 - positive / count)
        frac_left = pos_left / n_left
        frac_right = (positive - pos_left) / n_right
        gain = (
            parent
            - (n_left / count) * 2.0 * frac_left * (1.0 - frac_left)
            - (n_right / count) * 2.0 * frac_right * (1.0 - frac_right)
        )
        if subsampling:
            in_block = sampled[bin_col[cand]]
            blocks = [np.where(in_block, gain, -np.inf), np.where(in_block, -np.inf, gain)]
        else:
            blocks = [gain]
        for block in blocks:
            if block.size and block.max() > _MIN_GAIN:
                k = int(cand[np.argmax(block)])
                break
        else:
            return None
        j = int(bin_col[k])
        if tests[j] == TEST_EQ:
            return j, float(bin_value[k])
        upper = k + 1 + int(np.argmax(hist[:, k + 1 :].any(axis=0)))
        return j, float((bin_value[k] + bin_value[upper]) / 2.0)

    def grow(idx: np.ndarray, depth: int) -> dict:
        count = idx.size
        positive = float(y[idx].sum())
        leaf = {"node": "leaf", "positive_fraction": positive / count, "count": count}
        if positive in (0, count) or depth >= max_depth or count < 2 * min_leaf:
            return leaf
        best = best_split(idx, count, positive)
        if best is None:
            return leaf
        j, value = best
        column = X[idx, j]
        mask = column == value if tests[j] == TEST_EQ else column <= value
        return {
            "node": "split",
            "col": j,
            "test": tests[j],
            "value": value,
            "left": grow(idx[mask], depth + 1),
            "right": grow(idx[~mask], depth + 1),
        }

    root = grow(np.arange(n), 0)
    del grow  # a recursive closure is a reference cycle; free its arrays now
    return root


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
