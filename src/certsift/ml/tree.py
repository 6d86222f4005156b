"""CART-style decision tree growth on encoded feature matrices.

Splits minimize Gini impurity.  Boolean and categorical columns split on
equality against one observed value; numeric columns split on thresholds
halfway between consecutive distinct observed values.

Split search is an exact histogram search (after LightGBM, Ke et al.
2017).  Each column of X is binned once per grow_trees call, one bin per
distinct value, all columns sharing one id space (column by column, values
ascending); a tree grows on a bootstrap given as row indices into X.  The
rows and positives of each (node, bin) pair come from one bincount; an
equality candidate sends its bin left, a threshold candidate its column's
bins up to its own, and one vectorised expression scores them all.

Ties are broken deterministically: the first strictly-best candidate wins,
scanning columns in ascending order and candidate values in ascending
order, which is index order in the bin space.  Only the non-empty (node,
bin) pairs are scored, and skipping the empty ones changes no split: an
empty equality bin sends no row left, and an empty threshold bin ties with
the non-empty bin below it, which comes first.  A threshold lies halfway
to the next non-empty bin of its column in the node, so every split is the
one a per-node sort-and-scan would pick.

The trees of an ensemble grow in lockstep.  Each keeps its own depth-first
stack and rng; each step takes from every tree the next node in preorder
that needs a split search, draws that node's column subset from the tree's
own rng, and scores all the step's nodes together.  A tree's nodes are
searched in the preorder of growing it alone, and its rng is drawn only at
its own nodes, so each rng stream, and with it each tree, is unchanged:
lockstep forests are byte-identical to forests grown one tree at a time.
A step holding more than 4n rows (n = rows of X) is cut into several
bincounts.  Training the 1,020-row, 100-tree seed-7 benchmark forest
(2-CPU VM), cutting at 4n kept the process's peak RSS at 59 MiB (60 MiB
growing tree by tree), where no cut reached 79 MiB for about 15% less
time; cutting at n was about 1.25x slower than at 4n.

Grown trees are stored decoded (feature names and raw values), so a
persisted tree predicts without the training vocabulary, through a
NodeTable that checks and walks a model's trees.  Growth, decoding and
the table all keep explicit stacks or queues, so no tree depth recurses.
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
    """Grow one tree on every row of X: grow_trees with a single bootstrap."""
    rngs = None if rng is None else [rng]
    (root,) = grow_trees(
        X, y, eq_mask, [np.arange(X.shape[0])], max_depth, min_leaf, rngs, n_sample_features
    )
    return root


def grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    eq_mask: np.ndarray,
    boots: Sequence[np.ndarray],
    max_depth: int,
    min_leaf: int,
    rngs: Sequence[np.random.Generator] | None = None,
    n_sample_features: int | None = None,
) -> list[dict]:
    """Grow one tree per bootstrap on encoded data and 0/1 labels (min_leaf
    >= 1); returns the root nodes (encoded values).  A bootstrap is an array
    of row indices into X, repeats allowed.  eq_mask marks the
    equality-tested columns (Encoder.eq_mask); the others are split on
    thresholds.

    When rngs (one per tree) and n_sample_features are set, each split first
    searches a random subset of that many columns and falls back to the
    remaining columns only if the subset offers no impurity reduction, so a
    usable split is never passed over just because the draw missed it.
    """
    n, d = X.shape
    subsampling = rngs is not None and n_sample_features is not None and n_sample_features < d
    # bin each column once; bin ids run column by column, values ascending
    binned = [np.unique(column, return_inverse=True) for column in X.T]
    bin_value = np.concatenate([np.empty(0), *(values for values, _ in binned)])
    bin_col = np.repeat(np.arange(d), [values.size for values, _ in binned])
    n_bins = bin_value.size
    first = np.searchsorted(bin_col, np.arange(d))  # each column's first bin
    inverse = np.array([inv for _, inv in binned], dtype=np.intp).reshape(d, n).T
    # every cell's bin id, a positive row's in a second copy of the id space
    labelled = inverse + first + np.where(y > 0, n_bins, 0)[:, None]

    def best_splits(nodes: list[tuple], sampled: np.ndarray | None) -> list:
        """Best (column, encoded value) of each node, or None, from one
        bincount keyed by (node, bin) over all the nodes' rows."""
        _, idxs, _, _, _, counts, positives = zip(*nodes)
        counts, positives = np.array(counts), np.array(positives)
        keys = labelled[np.concatenate(idxs)]
        keys += np.repeat(np.arange(len(nodes)) * (2 * n_bins), counts)[:, None]
        hist = np.bincount(keys.ravel(), minlength=2 * n_bins * len(nodes))
        hist = hist.reshape(len(nodes), 2, n_bins)
        # the non-empty (node, bin) entries, in scan order within each node
        node_of, bin_of = np.nonzero(hist.any(axis=1))
        pos_in = hist[node_of, 1, bin_of]
        n_in = hist[node_of, 0, bin_of] + pos_in
        col = bin_col[bin_of]
        # left side of an entry: itself (eq) or its run of the node's column so far (le)
        run = node_of * d + col
        run_first = np.searchsorted(run, run)  # the first entry of each entry's run
        n_seen = np.concatenate([[0], np.cumsum(n_in)])
        pos_seen = np.concatenate([[0], np.cumsum(pos_in)])
        eq = eq_mask[col]
        n_left = np.where(eq, n_in, n_seen[1:] - n_seen[run_first])
        pos_left = np.where(eq, pos_in, pos_seen[1:] - pos_seen[run_first])
        count, positive = counts[node_of], positives[node_of]
        n_right = count - n_left
        # candidates that leave min_leaf rows on each side, in scan order
        cand = np.flatnonzero((n_left >= min_leaf) & (n_right >= min_leaf))
        if not cand.size:
            return [None] * len(nodes)
        n_left, n_right, pos_left = n_left[cand], n_right[cand], pos_left[cand]
        count, positive, node_of = count[cand], positive[cand], node_of[cand]
        impurity = 2.0 * (positive / count) * (1.0 - positive / count)
        frac_left = pos_left / n_left
        frac_right = (positive - pos_left) / n_right
        gain = (
            impurity
            - (n_left / count) * 2.0 * frac_left * (1.0 - frac_left)
            - (n_right / count) * 2.0 * frac_right * (1.0 - frac_right)
        )
        if sampled is not None:
            in_block = sampled[node_of, col[cand]]
            blocks = [np.where(in_block, gain, -np.inf), np.where(in_block, -np.inf, gain)]
        else:
            blocks = [gain]
        starts = np.flatnonzero(np.diff(node_of, prepend=-1))  # each node's candidates
        owner = node_of[starts]
        won = np.full(len(nodes), -1)  # each node's winning candidate
        for block in blocks:
            top = np.maximum.reduceat(block, starts)
            # the first candidate reaching its node's best gain
            hits = np.flatnonzero(block == np.repeat(top, np.diff(starts, append=cand.size)))
            firsts = hits[np.diff(node_of[hits], prepend=-1) != 0]
            take = (won[owner] < 0) & (top > _MIN_GAIN)
            won[owner[take]] = firsts[take]
        splits = [None] * len(nodes)
        for i in np.flatnonzero(won >= 0).tolist():
            k = int(cand[won[i]])
            j, b = int(col[k]), int(bin_of[k])
            if eq_mask[j]:
                splits[i] = j, float(bin_value[b])
            else:  # halfway to the node's next non-empty bin, in the same column
                low, high = float(bin_value[b]), float(bin_value[bin_of[k + 1]])
                # halving first keeps the midpoint finite where low + high
                # overflows (for values of normal size it is (low + high) / 2);
                # where it rounds up to high (adjacent doubles), low keeps
                # high on the right
                mid = low / 2.0 + high / 2.0
                splits[i] = j, mid if mid < high else low
        return splits

    holders = [{} for _ in boots]
    # each tree's nodes still to grow, in preorder: (rows, depth, parent, side)
    stacks = [[(np.asarray(boot, dtype=np.intp), 0, holder, "root")]
              for boot, holder in zip(boots, holders)]

    def next_split(t: int) -> tuple | None:
        """Tree t's next node that needs a split search, settling the leaves
        before it: (t, rows, depth, parent, side, count, positive)."""
        stack = stacks[t]
        while stack:
            idx, depth, parent, side = stack.pop()
            count = idx.size
            positive = float(y[idx].sum())
            parent[side] = {"node": "leaf", "positive_fraction": positive / count, "count": count}
            if not (positive in (0, count) or depth >= max_depth or count < 2 * min_leaf):
                return t, idx, depth, parent, side, count, positive
        return None

    step = [node for node in map(next_split, range(len(boots))) if node is not None]
    while step:
        sampled = None
        if subsampling:  # each tree draws from its own rng, in its own preorder
            sampled = np.zeros((len(step), d), dtype=bool)
            for s, node in enumerate(step):
                sampled[s, rngs[node[0]].choice(d, size=n_sample_features, replace=False)] = True
        # score the step's nodes (count is node[5]), at most 4n rows per bincount
        splits, lo, held = [], 0, 0
        for hi, node in enumerate(step):
            if held + node[5] > 4 * n and hi > lo:
                splits += best_splits(step[lo:hi], None if sampled is None else sampled[lo:hi])
                lo, held = hi, 0
            held += node[5]
        splits += best_splits(step[lo:], None if sampled is None else sampled[lo:])
        for (t, idx, depth, parent, side, _, _), split in zip(step, splits):
            if split is None:
                continue  # the node stays the leaf next_split made it
            j, value = split
            column = X[idx, j]
            mask = column == value if eq_mask[j] else column <= value
            test = TEST_EQ if eq_mask[j] else TEST_LE
            node = parent[side] = {"node": "split", "col": j, "test": test, "value": value}
            stacks[t] += [(idx[~mask], depth + 1, node, "right"),
                          (idx[mask], depth + 1, node, "left")]
        step = [node for node in map(next_split, [node[0] for node in step]) if node is not None]
    return [holder["root"] for holder in holders]


def decode_tree(root: dict, encoder: Encoder) -> dict:
    """Replace column indices and encoded values with names and raw values."""
    holder: dict = {}
    stack = [(root, holder, "root")]
    while stack:  # left pops first, so its key precedes right's
        node, parent, side = stack.pop()
        if node["node"] == "leaf":
            parent[side] = dict(node)
            continue
        col = encoder.columns[node["col"]]
        if node["test"] == TEST_EQ:
            value = encoder.decode_value(col, node["value"])
        else:
            value = float(node["value"])
        parent[side] = split = {
            "node": "split", "feature": col.name, "test": node["test"], "value": value
        }
        stack += [(node["right"], split, "right"), (node["left"], split, "left")]
    return holder["root"]


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
