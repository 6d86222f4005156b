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
one a per-node sort-and-scan would pick.  The same argument makes a tree
independent of the rows of X its bootstrap never draws: their values only
add bins that are empty in every node of it.  So a tree grown on a subset
of X's rows equals the tree grown on a matrix of that subset alone, with
the same numeric values and category codes in the same order.

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

Every draw is choice(d, n_sample_features, replace=False), so a tree's
k-th draw depends only on its rng's starting state.  Trees whose rngs
start in equal states (the same tree of several cross-validation folds
with equal training sizes) therefore draw once and replay: exact, and
never the case for the distinct rngs of one ensemble.

Growth writes nodes straight into one flat NodeTable (typed buffers while
it grows, numpy arrays once done), in the encoding of X.  A trained model
keeps that table with its training Encoder, and a version-2 model file
stores the table's arrays and the Encoder's vocabularies as they are, so
training, the file and prediction share one representation; walk_encoded
scores rows in that encoding without decoding anything.  Only
NodeTable.from_dicts, the reader of version-1 files, meets nested trees.
Growth, the table and that reader all keep explicit stacks or queues, so
no tree depth recurses.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from ..errors import CorruptModel
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
) -> NodeTable:
    """Grow one tree on every row of X: grow_trees with a single bootstrap."""
    rngs = None if rng is None else [rng]
    return grow_trees(
        X, y, eq_mask, [np.arange(X.shape[0])], max_depth, min_leaf, rngs, n_sample_features
    )


def grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    eq_mask: np.ndarray,
    boots: Sequence[np.ndarray],
    max_depth: int,
    min_leaf: int,
    rngs: Sequence[np.random.Generator] | None = None,
    n_sample_features: int | None = None,
) -> NodeTable:
    """Grow one tree per bootstrap on encoded data and 0/1 labels (min_leaf
    >= 1); returns one NodeTable of them all, whose values are X's codes and
    whose node t is the root of the tree grown on boots[t].  A bootstrap is
    an array of row indices into X, repeats allowed.  eq_mask marks the
    equality-tested columns (Encoder.eq_mask); the others are split on
    thresholds.

    When rngs (one per tree, each used by that tree alone) and
    n_sample_features are set, each split first searches a random subset of
    that many columns and falls back to the remaining columns only if the
    subset offers no impurity reduction, so a usable split is never passed
    over just because the draw missed it.  Trees whose rngs are in equal
    states share their draws (below); an rng that only replays is not
    advanced.
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
        """Best (column, encoded value, positives sent left) of each node, or
        None, from one bincount keyed by (node, bin) over all the nodes' rows."""
        _, idxs, _, _, counts, positives = zip(*nodes)
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
            j, b, left_positive = int(col[k]), int(bin_of[k]), float(pos_left[won[i]])
            if eq_mask[j]:
                splits[i] = j, float(bin_value[b]), left_positive
            else:  # halfway to the node's next non-empty bin, in the same column
                low, high = float(bin_value[b]), float(bin_value[bin_of[k + 1]])
                # halving first keeps the midpoint finite where low + high
                # overflows (for values of normal size it is (low + high) / 2);
                # where it rounds up to high (adjacent doubles), low keeps
                # high on the right
                mid = low / 2.0 + high / 2.0
                splits[i] = j, mid if mid < high else low, left_positive
        return splits

    n_trees = len(boots)
    if subsampling:
        # choice's output depends only on the rng's state and its arguments,
        # which are the same at every node, so trees whose rngs start in
        # equal states draw equal subsets in equal order: such a group draws
        # each subset once, from its first tree's rng, and the others replay it
        leader: dict[str, int] = {}
        lead = [leader.setdefault(repr(rng.bit_generator.state), t) for t, rng in enumerate(rngs)]
        replay = {t: [] for t, members in Counter(lead).items() if members > 1}
        drawn = [0] * n_trees  # subsets each replaying tree has used

        def subset(t: int) -> np.ndarray:
            """Tree t's column subset for its next node searched."""
            if (shared := replay.get(lead[t])) is None:
                return rngs[t].choice(d, size=n_sample_features, replace=False)
            if drawn[t] == len(shared):
                shared.append(rngs[lead[t]].choice(d, size=n_sample_features, replace=False))
            drawn[t] += 1
            return shared[drawn[t] - 1]

    # the node table, grown in place: node t is tree t's root, and a split's
    # two children are appended together, left first, when it splits
    node_column, node_left = array("q", [-1]) * n_trees, array("q", [-1]) * n_trees
    node_value, node_fraction, node_count = (array("d", [0.0]) * n_trees for _ in range(3))
    # each tree's nodes still to grow, in preorder: (rows, depth, node,
    # positive rows); a split's search counted its children's positives
    stacks = [[(idx, 0, t, float(y[idx].sum()))]
              for t, idx in enumerate(np.asarray(boot, dtype=np.intp) for boot in boots)]

    def next_split(t: int) -> tuple | None:
        """Tree t's next node that needs a split search, settling the leaves
        before it: (t, rows, depth, node, count, positive)."""
        stack = stacks[t]
        while stack:
            idx, depth, i, positive = stack.pop()
            count = idx.size
            node_fraction[i], node_count[i] = positive / count, count
            if not (positive in (0, count) or depth >= max_depth or count < 2 * min_leaf):
                return t, idx, depth, i, count, positive
        return None

    step = [node for node in map(next_split, range(n_trees)) if node is not None]
    while step:
        sampled = None
        if subsampling:  # each tree draws in its own preorder
            sampled = np.zeros((len(step), d), dtype=bool)
            for s, node in enumerate(step):
                sampled[s, subset(node[0])] = True
        # score the step's nodes (count is node[4]), at most 4n rows per bincount
        splits, lo, held = [], 0, 0
        for hi, node in enumerate(step):
            if held + node[4] > 4 * n and hi > lo:
                splits += best_splits(step[lo:hi], None if sampled is None else sampled[lo:hi])
                lo, held = hi, 0
            held += node[4]
        splits += best_splits(step[lo:], None if sampled is None else sampled[lo:])
        for (t, idx, depth, i, _, positive), split in zip(step, splits):
            if split is None:
                continue  # the node stays the leaf next_split made it
            j, value, left_positive = split
            column = X[idx, j]
            mask = column == value if eq_mask[j] else column <= value
            child = len(node_column)
            node_column[i], node_value[i], node_left[i] = j, value, child
            node_fraction[i] = node_count[i] = 0.0
            node_column.extend((-1, -1))
            node_left.extend((-1, -1))
            for cells in (node_value, node_fraction, node_count):
                cells.extend((0.0, 0.0))
            stacks[t] += [(idx[~mask], depth + 1, child + 1, positive - left_positive),
                          (idx[mask], depth + 1, child, left_positive)]
        step = [node for node in map(next_split, [node[0] for node in step]) if node is not None]
    return NodeTable(node_column, node_value, node_left, node_fraction, node_count, eq_mask)


class NodeTable:
    """Trees as flat node arrays (scikit-learn's Tree layout,
    sklearn/tree/_tree.pyx); node t is tree t's root.  A split sends a row to
    left[i] if its encoded column[i] equals value[i] (an eq_mask column) or
    is <= value[i], else to left[i] + 1; a leaf has column -1, and fraction
    and count hold its positive fraction and training rows (0 at a split).

    Values are codes of the encoding the table was built over: the training
    Encoder's for a table grow_trees returns (and a model file of version 2
    stores), a vocabulary of the tested values for one from_dicts reads from
    a version-1 file.  Walking never touches a dict.
    """

    def __init__(self, column, value, left, fraction, count, eq_mask: np.ndarray):
        self.column = np.asarray(column, dtype=np.intp)
        self.value = np.asarray(value, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.intp)
        self.fraction = np.asarray(fraction, dtype=np.float64)
        self.count = np.asarray(count, dtype=np.float64)
        self.eq_mask = eq_mask
        # every node but a root is one of a split's two children
        self.n_trees = self.column.size - 2 * int(np.count_nonzero(self.column >= 0))

    @classmethod
    def join(cls, tables: Sequence[NodeTable]) -> NodeTable:
        """The trees of several tables over one encoding as one table: every
        table's roots first, in order, then every table's other nodes.  Nodes
        keep their order within each part, so every child still follows its
        parent."""
        offsets = np.cumsum([0] + [table.column.size for table in tables])
        column, value, left, fraction, count = (np.concatenate(cells) for cells in zip(
            *((t.column, t.value, t.left + k, t.fraction, t.count) for t, k in zip(tables, offsets))
        ))
        order = np.concatenate(
            [k + np.arange(t.n_trees) for t, k in zip(tables, offsets)]
            + [k + np.arange(t.n_trees, t.column.size) for t, k in zip(tables, offsets)]
        )
        place = np.empty_like(order)  # each node's index in the joined table
        place[order] = np.arange(order.size)
        column = column[order]
        left = np.where(column >= 0, place[left[order]], -1)
        return cls(column, value[order], left, fraction[order], count[order], tables[0].eq_mask)

    @classmethod
    def from_dicts(cls, roots: Sequence, schema: FeatureSchema) -> tuple[NodeTable, Encoder]:
        """The reader of a version-1 model file's nested trees: their table,
        laid out breadth first, and the Encoder of query rows whose codes its
        values are.  A category no split tests encodes as -1, so it matches
        nothing and goes right.

        Building the table checks a loaded tree: it raises CorruptModel on
        any node prediction could not walk.
        """
        columns = schema.included()
        where = {col.name: j for j, col in enumerate(columns)}
        vocabs = {col.name: {} for col in columns if col.kind == KIND_CATEGORICAL}
        table = []  # column, value, fraction and count of each node in turn
        nodes = list(roots)
        for i, node in enumerate(nodes):  # children are queued as parents are read
            kind = node.get("node") if isinstance(node, dict) else type(node).__name__
            if kind == "leaf":
                share, count = node.get("positive_fraction"), node.get("count")
                if not (isinstance(share, (int, float)) and 0.0 <= share <= 1.0
                        and isinstance(count, int) and count >= 1):
                    raise CorruptModel(f"node {i}: bad leaf {share!r} of {count!r} rows")
                table += (-1, 0.0, share, count)
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
            table += (j, value, 0.0, 0)
            nodes += (node["left"], node["right"])
        encoder = Encoder(schema, vocabs=vocabs)
        try:
            column, value, fraction, count = np.array(table, dtype=np.float64).reshape(-1, 4).T
        except OverflowError:
            raise CorruptModel("a split threshold or leaf count is out of float range") from None
        # children were queued in order, two per split, after the roots
        left = np.full(column.size, -1, dtype=np.intp)
        left[column >= 0] = np.arange(len(roots), column.size, 2)
        return cls(column, value, left, fraction, count, encoder.eq_mask), encoder

    def walk_encoded(self, X: np.ndarray, roots: Iterable[int]) -> Iterator[np.ndarray]:
        """Per root in turn, the positive fraction of the leaf each row of X
        lands in; X is encoded as the table's values are."""
        for root in roots:
            node, live = np.full(len(X), root, dtype=np.intp), np.arange(len(X))
            # step the rows still at a split one level down, until none is
            while (live := live[self.column[node[live]] >= 0]).size:
                at = node[live]
                col, value = self.column[at], self.value[at]
                x = X[live, col]
                go_left = np.where(self.eq_mask[col], x == value, x <= value)
                node[live] = self.left[at] + ~go_left  # a right child follows its left
            yield self.fraction[node]
