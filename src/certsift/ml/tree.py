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
persisted tree predicts without the training vocabulary, through a
NodeTable that checks and walks a model's trees without recursion.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from ..errors import CorruptModel
from ..features import FeatureVector
from .schema import KIND_BOOLEAN, KIND_CATEGORICAL, Encoder, FeatureSchema

TEST_EQ = "eq"
TEST_LE = "le"

_MIN_GAIN = 1e-12

# the test and the value types of a split, by column kind (else numeric)
_SPLIT_FORM = {KIND_BOOLEAN: (TEST_EQ, (bool,)), KIND_CATEGORICAL: (TEST_EQ, (str,))}


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    eq_mask: np.ndarray,
    max_depth: int,
    min_leaf: int,
    rng: np.random.Generator | None = None,
    n_sample_features: int | None = None,
) -> dict:
    """Grow a tree on encoded data and 0/1 labels (min_leaf >= 1); returns
    the root node (encoded values).  eq_mask marks the equality-tested
    columns (Encoder.eq_mask); the others are split on thresholds.

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
    base = np.where(eq_mask[bin_col], np.arange(n_bins), first[bin_col])

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
        if eq_mask[j]:
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
        mask = column == value if eq_mask[j] else column <= value
        return {
            "node": "split",
            "col": j,
            "test": TEST_EQ if eq_mask[j] else TEST_LE,
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


class NodeTable:
    """A model's decoded trees as flat node arrays (scikit-learn's Tree layout,
    sklearn/tree/_tree.pyx); node t is tree t's root.  A split sends a row to
    left[i] if its encoded column[i] equals value[i] (boolean, categorical)
    or is <= value[i] (numeric), else to right[i]; a leaf has column -1.

    Building the table breadth first checks a loaded tree: it raises
    CorruptModel on any node prediction could not walk.  A category no split
    tests encodes as -1, so it matches nothing and goes right.
    """

    def __init__(self, roots: Sequence, schema: FeatureSchema):
        columns = schema.included()
        where = {col.name: j for j, col in enumerate(columns)}
        vocabs = {col.name: {} for col in columns if col.kind == KIND_CATEGORICAL}
        table = []  # column, value and fraction of each node in turn
        nodes = list(roots)
        for i, node in enumerate(nodes):  # children are queued as parents are read
            kind = node.get("node") if isinstance(node, dict) else type(node).__name__
            if kind == "leaf":
                share, count = node.get("positive_fraction"), node.get("count")
                if not (isinstance(share, (int, float)) and 0.0 <= share <= 1.0
                        and isinstance(count, int) and count >= 1):
                    raise CorruptModel(f"node {i}: bad leaf {share!r} of {count!r} rows")
                table += (-1, 0.0, share)
                continue
            if kind != "split":
                raise CorruptModel(f"node {i}: {kind!r} is not a node type")
            name, test, value = node.get("feature"), node.get("test"), node.get("value")
            j = where.get(name) if isinstance(name, str) else None
            if j is None:
                raise CorruptModel(f"node {i}: {name!r} is not a feature the model reads")
            want_test, types = _SPLIT_FORM.get(columns[j].kind, (TEST_LE, (int, float)))
            if test != want_test or type(value) not in types:
                raise CorruptModel(f"node {i}: {test!r} test of {name} against {value!r}")
            if "left" not in node or "right" not in node:
                raise CorruptModel(f"node {i}: missing child")
            if name in vocabs:
                value = vocabs[name].setdefault(value, len(vocabs[name]))
            table += (j, value, 0.0)
            nodes += (node["left"], node["right"])
        self.n_trees = len(roots)
        self.encoder = Encoder(schema, vocabs=vocabs)
        try:
            column, self.value, self.fraction = np.array(table, dtype=np.float64).reshape(-1, 3).T
        except OverflowError:
            raise CorruptModel("a split threshold is out of float range") from None
        self.column = column.astype(np.intp)
        # children were queued in order, two per split, after the roots
        self.left = np.full(column.size, -1, dtype=np.intp)
        self.left[self.column >= 0] = np.arange(len(roots), column.size, 2)
        self.right = np.where(self.left < 0, -1, self.left + 1)

    def walk(self, rows: Sequence[FeatureVector]) -> Iterator[np.ndarray]:
        """Per tree in turn, the positive fraction of the leaf each row lands in."""
        X = self.encoder.encode_rows(rows)
        for root in range(self.n_trees):
            node, live = np.full(len(rows), root, dtype=np.intp), np.arange(len(rows))
            # step the rows still at a split one level down, until none is
            while (live := live[self.column[node[live]] >= 0]).size:
                at = node[live]
                col, value = self.column[at], self.value[at]
                x = X[live, col]
                go_left = np.where(self.encoder.eq_mask[col], x == value, x <= value)
                node[live] = np.where(go_left, self.left[at], self.right[at])
            yield self.fraction[node]
