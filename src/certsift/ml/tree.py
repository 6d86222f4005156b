"""CART-style decision tree growth on encoded feature matrices.

Splits minimize Gini impurity.  Boolean and categorical columns split on
equality against one observed value; numeric columns split on thresholds
halfway between consecutive distinct observed values.

Split search is an exact histogram search (after LightGBM, Ke et al.
2017).  Each column of X is binned once per grow_trees call, one bin per
distinct value, all columns sharing one id space (column by column, values
ascending).  The rows of X are mapped, once per call, to their distinct
(row, label) pairs, and a tree grows on the pairs its bootstrap draws, each
weighted by how many times it is drawn: a bootstrap as a multiplicity per
row (Breiman, Bagging Predictors, 1996).  The weight and positive weight of
each (node, bin) pair come from one weighted bincount per column; an
equality candidate sends its bin left, a threshold candidate its column's
bins up to its own, and one vectorised expression scores them all.
Weights are whole numbers in float64, and so is every sum of them (below
2^53), so each count, positive count, Gini term and leaf fraction is, to the
bit, the one the bootstrap's repeated rows give; a node's count is its
weight.

Every tree's pairs and weights share one sample array (scikit-learn's
splitter, sklearn/tree/_splitter.pyx, partitions one samples array the same
way): a tree holds a range of it, a node is a range of its tree's, and a
split reorders its node's range in place, left rows first, by a stable
linear partition.  A node waiting on a stack is a few numbers, not an array
of rows.

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
A step gathers its nodes' rows with one index, and scores and partitions
them in pieces of whole nodes of at most _STEP_ROWS rows, which bounds the
memory a step takes.  Training the 1,020-row, 100-tree seed-7 benchmark
forest (2-CPU Xeon VM) peaked at 5.1 MiB of traced memory in 0.45 s with
2^13 rows; 2^11 gave 4.5 MiB in 0.61 s, 2^14 5.2 MiB in 0.41 s, and no
cut 10.8 MiB in 0.48 s.

Every draw is choice(d, n_sample_features, replace=False), so a tree's
k-th draw depends only on its rng's starting state.  Trees whose rngs
start in equal states (the same tree of several cross-validation folds
with equal training sizes) therefore draw once and replay: exact, and
never the case for the distinct rngs of one ensemble.

Growth writes nodes straight into one flat NodeTable (numpy arrays grown
in place, trimmed once done), in the encoding of X.  A trained model
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

# Rows of the sample array that one piece of a lockstep step gathers: a
# step is scored and partitioned in node-aligned pieces of at most this many
# rows (or one node, if it holds more), which bounds the step's temporaries.
_STEP_ROWS = 2**13


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
    width = np.array([values.size for values, _ in binned], dtype=np.intp)
    bin_col = np.repeat(np.arange(d), width)
    n_bins = bin_value.size
    first = np.cumsum(width) - width  # each column's first bin
    local = np.array([inv for _, inv in binned], dtype=np.intp).reshape(d, n)
    # the distinct (row, label) pairs of X, each standing for its first row
    positive_row = y > 0
    _, rep, pair_of = np.unique(
        np.vstack([local, positive_row]).T, axis=0, return_index=True, return_inverse=True
    )
    pair_of = pair_of.reshape(-1)
    pair_positive = positive_row[rep]
    # per column, each pair's bin id and its cell in a node's histogram block
    # of the column (negatives, then positives)
    pair_bin = local[:, rep] + first[:, None]
    pair_key = pair_bin - first[:, None] + np.where(pair_positive, width[:, None], 0)

    def search(row_node: np.ndarray, rows: np.ndarray, w: np.ndarray, counts: np.ndarray,
               positives: np.ndarray, sampled: np.ndarray | None) -> tuple[np.ndarray, ...]:
        """The best split of each node of a piece, from one weighted bincount
        per column keyed by (node, label, bin) over its rows (pairs, with
        weights w, of node row_node): the splitting nodes and their column,
        bin, value, and the weight and positive weight they send left."""
        k = counts.size
        hist = np.empty((k, 2, n_bins))
        for j in range(d):
            keys = row_node * (2 * width[j]) + pair_key[j][rows]
            hist[:, :, first[j]:first[j] + width[j]] = np.bincount(
                keys, weights=w, minlength=k * 2 * width[j]
            ).reshape(k, 2, width[j])
        # the non-empty (node, bin) entries, in scan order within each node
        node_of, bin_of = np.nonzero(hist.any(axis=1))
        pos_in = hist[node_of, 1, bin_of]
        n_in = hist[node_of, 0, bin_of] + pos_in
        del hist
        col = bin_col[bin_of]
        # left side of an entry: itself (eq) or its run of the node's column so far (le)
        run_first = np.searchsorted(node_of * d + col, node_of * d + col)  # each run's first entry
        eq = eq_mask[col]
        seen = np.concatenate([[0.0], np.cumsum(n_in)])
        n_left = np.where(eq, n_in, seen[1:] - seen[run_first])
        seen = np.concatenate([[0.0], np.cumsum(pos_in)])
        pos_left = np.where(eq, pos_in, seen[1:] - seen[run_first])
        del run_first, eq, seen, n_in, pos_in
        count, positive = counts[node_of], positives[node_of]
        n_right = count - n_left
        # candidates that leave min_leaf rows on each side, in scan order
        cand = np.flatnonzero((n_left >= min_leaf) & (n_right >= min_leaf))
        if not cand.size:
            return (np.empty(0, dtype=np.intp),) * 6
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
        won = np.full(counts.size, -1)  # each node's winning candidate
        for block in blocks:
            top = np.maximum.reduceat(block, starts)
            # the first candidate reaching its node's best gain
            hits = np.flatnonzero(block == np.repeat(top, np.diff(starts, append=cand.size)))
            firsts = hits[np.diff(node_of[hits], prepend=-1) != 0]
            take = (won[owner] < 0) & (top > _MIN_GAIN)
            won[owner[take]] = firsts[take]
        split = np.flatnonzero(won >= 0)
        won = won[split]
        entry = cand[won]
        j, b = col[entry], bin_of[entry]
        # an eq split tests its bin's value; a threshold lies halfway to the
        # node's next non-empty bin, in the same column.  Halving first keeps
        # the midpoint finite where low + high overflows (for values of
        # normal size it is (low + high) / 2); where it rounds up to high
        # (adjacent doubles), low keeps high on the right
        low = bin_value[b]
        high = bin_value[bin_of[np.minimum(entry + 1, bin_of.size - 1)]]
        with np.errstate(invalid="ignore"):
            mid = low / 2.0 + high / 2.0
        value = np.where(eq_mask[j] | ~(mid < high), low, mid)
        return split, j, b, value, n_left[won], pos_left[won]

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

        def draw(rng: np.random.Generator) -> np.ndarray:
            mask = np.zeros(d, dtype=bool)
            mask[rng.choice(d, size=n_sample_features, replace=False)] = True
            return mask

        def subset(t: int) -> np.ndarray:
            """Tree t's column subset for its next node searched, as a mask."""
            if (shared := replay.get(lead[t])) is None:
                return draw(rngs[t])
            if drawn[t] == len(shared):
                shared.append(draw(rngs[lead[t]]))
            drawn[t] += 1
            return shared[drawn[t] - 1]

    # The sample array: each tree's range holds the pairs its bootstrap
    # draws, ascending, and weight their multiplicities.  A node is a range
    # of its tree's, and a split reorders the range in place, left rows first.
    samples, weights = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    roots, start = [], 0  # one row per tree, as the stacks hold nodes below
    for t, boot in enumerate(boots):
        drawn_pairs = np.bincount(pair_of[np.asarray(boot, dtype=np.intp)], minlength=rep.size)
        held = np.flatnonzero(drawn_pairs)
        samples.append(held)
        weights.append(drawn_pairs[held].astype(np.float64))
        positive = float(drawn_pairs[held] @ pair_positive[held])
        roots.append((t, start, start + held.size, 0, t, float(len(boot)), positive))
        start += held.size
    sample, weight = np.concatenate(samples), np.concatenate(weights)
    del samples, weights

    # The node table, grown in place: node t is tree t's root, and a split's
    # two children are numbered together, left first, when it splits.
    node_column, node_left = np.full(n_trees, -1), np.full(n_trees, -1)
    node_value, node_fraction, node_count = np.zeros(n_trees), np.zeros(n_trees), np.zeros(n_trees)
    n_nodes = n_trees

    def add_children(n_splits: int) -> int:
        """Number the children of n_splits splits; returns the first."""
        nonlocal n_nodes
        first_child, n_nodes = n_nodes, n_nodes + 2 * n_splits
        if n_nodes > node_column.size:  # grow by at least a quarter; new cells are 0
            size, old = max(n_nodes, node_column.size * 5 // 4), node_column.size
            for cells in (node_column, node_left, node_value, node_fraction, node_count):
                cells.resize(size, refcheck=False)
            node_column[old:] = node_left[old:] = -1
        return first_child

    def make_leaves(nodes: np.ndarray) -> None:
        i = nodes[:, 4].astype(np.intp)
        node_fraction[i], node_count[i] = nodes[:, 6] / nodes[:, 5], nodes[:, 5]

    # each tree's nodes still to search, in preorder, as rows of (tree,
    # start, end, depth, node, weight, positive weight)
    stacks: list[list] = [[] for _ in range(n_trees)]

    def settle(nodes: np.ndarray) -> None:
        """Push each node row that needs a split search onto its tree's
        stack, in order, and make the others leaves."""
        depth, count, positive = nodes[:, 3], nodes[:, 5], nodes[:, 6]
        leaf = (positive == 0) | (positive == count) | (depth >= max_depth) | (count < 2 * min_leaf)
        make_leaves(nodes[leaf])
        for node in nodes[~leaf].tolist():
            stacks[int(node[0])].append(node)

    def grow_piece(nodes: np.ndarray, sampled: np.ndarray | None) -> None:
        """Search one piece of a step's nodes, and split those a split suits."""
        k = len(nodes)
        start, end = nodes[:, 1].astype(np.intp), nodes[:, 2].astype(np.intp)
        lengths = end - start
        offset = np.cumsum(lengths) - lengths  # each node's first row in the piece
        node_of = np.repeat(np.arange(k), lengths)
        at = np.arange(node_of.size) + np.repeat(start - offset, lengths)
        rows, w = sample[at], weight[at]
        del at
        split, j, b, value, n_left, pos_left = search(node_of, rows, w, nodes[:, 5], nodes[:, 6],
                                                      sampled)
        searched = np.ones(k, dtype=bool)
        searched[split] = False  # the nodes no split suits stay leaves
        make_leaves(nodes[searched])
        if not split.size:
            return
        # each row's side: a node that does not split keeps every row left, in place
        col_of, is_eq = np.zeros(k, dtype=np.intp), np.zeros(k, dtype=bool)
        col_of[split], is_eq[split] = j, eq_mask[j]
        bound = np.full(k, n_bins)
        bound[split] = b
        bins, bound = pair_bin[col_of[node_of], rows], bound[node_of]
        left = np.where(is_eq[node_of], bins == bound, bins <= bound)
        del bins, bound
        # a stable partition of each node's range, its left rows first
        lefts = np.concatenate([[0], np.cumsum(left)])
        n_left_rows = lefts[offset + lengths] - lefts[offset]
        rank = np.arange(node_of.size) - offset[node_of]
        left_rank = lefts[:-1] - lefts[offset][node_of]
        placed = start[node_of] + np.where(
            left, left_rank, n_left_rows[node_of] + rank - left_rank
        )
        sample[placed], weight[placed] = rows, w
        # the children, right before left on each stack so left pops first
        parent = nodes[split]
        i = parent[:, 4].astype(np.intp)
        child = add_children(split.size) + 2 * np.arange(split.size)
        node_column[i], node_value[i], node_left[i] = j, value, child
        middle = start[split] + n_left_rows[split]
        depth = parent[:, 3] + 1
        right_nodes = np.column_stack([parent[:, 0], middle, end[split], depth, child + 1,
                                       parent[:, 5] - n_left, parent[:, 6] - pos_left])
        left_nodes = np.column_stack([parent[:, 0], start[split], middle, depth, child,
                                      n_left, pos_left])
        settle(np.stack([right_nodes, left_nodes], axis=1).reshape(-1, 7))

    settle(np.array(roots, dtype=np.float64).reshape(-1, 7))
    live = [t for t in range(n_trees) if stacks[t]]
    while live:
        # each live tree's next node in preorder, scored in pieces of rows
        step = np.array([stacks[t].pop() for t in live])
        # each tree draws in its own preorder
        sampled = np.array([subset(t) for t in live]) if subsampling else None
        lengths = step[:, 2] - step[:, 1]
        ends = np.cumsum(lengths)
        lo = 0
        while lo < len(live):
            cut = ends[lo] - lengths[lo] + _STEP_ROWS
            hi = max(lo + 1, int(np.searchsorted(ends, cut, side="right")))
            grow_piece(step[lo:hi], None if sampled is None else sampled[lo:hi])
            lo = hi
        live = [t for t in live if stacks[t]]
    for cells in (node_column, node_left, node_value, node_fraction, node_count):
        cells.resize(n_nodes, refcheck=False)
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
