"""CART-style decision tree growth on encoded feature matrices.

Splits minimize Gini impurity.  Boolean and categorical columns split on
equality against one observed value; numeric columns split on thresholds
halfway between consecutive distinct observed values.

Split search is an exact histogram search (after LightGBM, Ke et al.
2017).  Each column of X is binned once per grow_trees call (one per train
or cross-validation), one bin per distinct value, all columns sharing one
id space (column by column, values ascending).  The rows of X are mapped,
once per call, to their distinct (row, label) pairs, and a tree grows on
the pairs its bootstrap draws, each weighted by how many times it is drawn:
a bootstrap as a multiplicity per row (Breiman, Bagging Predictors, 1996),
collapsed as it is drawn.  The weight and positive weight of each (node,
bin) pair come from one weighted bincount per column; an equality candidate
sends its bin left, a threshold candidate its column's bins up to its own
(a run of the node's column, found by a linear scan), and one vectorised
expression scores them.  With column subsets, a node's entries in its
sampled columns are scored first, and its others only if those offer no
split: in the seed-7 cv-forest benchmark 31% of the non-empty entries lie
in sampled columns, and 535 of 7,762 searched nodes fall back.
Weights are whole numbers in float64, and so is every sum of them (below
2^53), so each count, positive count, Gini term and leaf fraction is, to the
bit, the one the bootstrap's repeated rows give; a node's count is its
weight.

The pairs and weights of a batch's trees (below) share one sample array
(scikit-learn's splitter, sklearn/tree/_splitter.pyx, partitions one
samples array the same way): a tree holds a range of it, a node is a range
of its tree's, and a split reorders its node's range in place, left rows
first, by a stable linear partition.  A node waiting on a stack is a few
numbers, not an array of rows.

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

The trees grow in lockstep batches of at most _GROW_ROWS bootstrap rows,
each with its own sample array and NodeTable.  Each tree keeps its own
depth-first stack, a row of one stack array with a height per tree, so a
step pops and pushes with array operations; each step takes from every
tree of the batch the next node in preorder that needs a split search,
takes that node's column subset from the tree's own draws, and scores all
the step's nodes together.  A tree's nodes are searched in the preorder of
growing it alone, and its k-th searched node gets its k-th subset, so each
tree is unchanged: lockstep forests are byte-identical to forests grown one
tree at a time.  A step gathers its nodes' rows with one index, and scores
and partitions them in pieces of whole nodes of at most _STEP_ROWS rows,
which bounds the memory a step takes.  Training the 1,020-row, 100-tree
seed-7 benchmark forest (2-CPU Xeon VM) peaked at 4.8 MiB of traced memory
in 0.32 s with 2^13 rows; 2^11 gave 4.2 MiB in 0.43 s, 2^14 4.8 MiB in
0.31 s, and no cut 7.7 MiB in 0.34 s.

A batch of at least _FORK_ROWS bootstrap rows grows in parts of whole
trees, cut by the rule that cuts extraction's records (parts.shares): one
contiguous part per usable CPU (on Linux, while no other thread is alive),
of about equal tree counts.  A cut may fall inside a group of trees whose
rngs start in equal states (below); each part then draws the group's
subsets from its own first tree of it, whose equal state gives equal
subsets.  Forest trees are independent (Breiman 2001), and each here has
its own rng and bootstrap, so the parts grow apart, each by the one
lockstep code of a batch, through the fork helper that extraction shares
(parts.in_parts): all but the last in forked children, which send their
tables back through a pipe, and the last in the parent.  A part whose child
fails grows in the parent after.  The merge is exact.  In one batch every
live tree searches one node a step, so a tree's k-th searched node is
searched at step k whatever its batch-mates, and the children of a step's
splits are numbered together, in tree order.  So the one-batch table is the
parts' roots in part order, then their other nodes stably sorted by the
step that numbered them (NodeTable.join, given that order).  One part
against two, alternating (2-CPU Xeon VM, medians of 20): 5-fold 25-tree
forest cross-validation of 16,000 rows took 53 against 57 ms, of 24,000 79
against 72, of 32,000 108 against 97 (two parts won 17 of 20), and of
50,000 170 against 147; a 100-tree forest train of 16,000 rows 69 against
75 ms, of 24,000 94 against 90, and of 32,000 124 against 108 (15 of 16).
Each part pays each step's fixed cost, a fork about 1 ms, and the
copy-on-write faults after it a few ms in each process.

A tree's k-th column subset is the k-th choice(d, n_sample_features,
replace=False) of its rng, so it depends only on the rng's starting state.
_ColumnDraws makes those subsets in bulk, as masks indexed by draw, with
one Generator.integers call per rng and extension, which draws each value
as choice does: no call per node, and any bit generator.  Trees grown
together whose rngs start in equal states (the same tree of several
cross-validation folds with equal training sizes) form one group, which
draws from its first tree's rng alone, and every tree reads the group's
masks at its own draw count: exact, and never the case for the distinct
rngs of one ensemble.

Growth writes nodes straight into one flat NodeTable per batch (numpy
arrays grown in place, trimmed once done), in the encoding of X.  A
trained model keeps its batches' tables, joined, with its training
Encoder, and a version-2 model file stores the table's arrays and the
Encoder's vocabularies as they are, so training, the file and prediction
share one representation; walk_encoded scores rows in that encoding
without decoding anything, several roots a pass (at most _WALK_CELLS
(root, row) cells).  Growth and the table keep explicit stacks, so no
tree depth recurses.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat

import numpy as np

from .. import parts

_MIN_GAIN = 1e-12

# Rows of the sample array that one piece of a lockstep step gathers: a
# step is scored and partitioned in node-aligned pieces of at most this many
# rows (or one node, if it holds more), which bounds the step's temporaries.
_STEP_ROWS = 2**13

# Bootstrap rows one batch of grow_trees holds at most (or one tree): a
# batch's memory grows with it, and its count of lockstep steps shrinks.
# 10-fold 100-tree forest cross-validation, timed alone (2-CPU Xeon VM), on
# test_06's 10,000 boolean-only rows: 65 MiB RSS in 2.4-2.7 s; 2^17 rows 61
# MiB in 9.3-10.0 s, 2^19 63 MiB in 3.4-4.3 s, 2^21 67 MiB in 2.0 s, no
# budget 79 MiB in 1.4-1.6 s.  On 4,000 full-feature rows: 91 MiB in 7.1 s;
# 2^19 75 MiB in 8.2 s, 2^21 103 MiB in 7.2 s, no budget 133 MiB in 6.8 s.
_GROW_ROWS = 2**20

# Bootstrap rows from which a batch grows in parts, one per usable CPU: the
# sweep in the module docstring puts the break-even near 24,000 rows.
_FORK_ROWS = 2**15

# (root, row) cells one pass of NodeTable.walk_encoded steps together.
# Classify's 100-tree seed-7 benchmark forest over its 836 rows, timed alone
# (2-CPU Xeon VM): 36 ms at a 0.7 MiB traced peak (9 roots a pass); 2^11
# cells 46 ms at 0.2 MiB, 2^15 35 ms at 2.7 MiB, no budget 37 ms at 5.9
# MiB, and one root a pass 52 ms.
_WALK_CELLS = 2**13


def grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    eq_mask: np.ndarray,
    boots: Iterable[np.ndarray],
    max_depth: int,
    min_leaf: int,
    rngs: Iterable[np.random.Generator] | None = None,
    n_sample_features: int | None = None,
) -> Iterator[NodeTable]:
    """Grow one tree per bootstrap on encoded data and 0/1 labels (min_leaf
    >= 1), in batches of at most _GROW_ROWS bootstrap rows grown in lockstep
    (from _FORK_ROWS rows in parts of whole trees, cut by parts.shares as
    extraction is; module docstring); yields each batch's NodeTable, whose
    values are X's codes and whose node t is the root of the batch's t-th
    tree, batches and trees in the order of boots.  A bootstrap is an array
    of row indices into X, repeats allowed.  boots is read once, each
    bootstrap collapsed to weights as it is drawn, so a generator of
    bootstraps has one alive at a time.  eq_mask marks the equality-tested
    columns (Encoder.eq_mask); the others are split on thresholds.

    When rngs (one per tree, read in step with boots, each used by that tree
    alone) and n_sample_features are set, each split first searches a random
    subset of that many columns and falls back to the remaining columns only
    if the subset offers no impurity reduction, so a usable split is never
    passed over just because the draw missed it; any bit generator will do.
    Trees of one part whose rngs are in equal states share their draws
    (below), and each part of a group cut in two draws them anew: an rng
    that only replays is not advanced, and one that draws ends where as
    many choice calls as subsets it drew leave it, in blocks of at least 16
    (or unadvanced, where its part grew in a child process).
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
        weights w, of node row_node): the splitting nodes, ascending, and
        their column, bin, value, and the weight and positive weight they
        send left.  With column subsets (sampled, a mask per node), a node's
        sampled columns are scored first, and its others only if they offer
        no split."""
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
        if sampled is None:
            return best(counts, positives, node_of, bin_of, n_in, pos_in)
        entries = (node_of, bin_of, n_in, pos_in)
        in_sample = sampled[node_of, bin_col[bin_of]]
        found = best(counts, positives, *(cells[in_sample] for cells in entries))
        rest = np.ones(k, dtype=bool)  # the nodes to search again, in their other columns
        rest[found[0]] = False
        if not rest.any():
            return found
        other = ~in_sample & rest[node_of]
        fallback = best(counts, positives, *(cells[other] for cells in entries))
        order = np.argsort(np.concatenate([found[0], fallback[0]]), kind="stable")
        return tuple(np.concatenate(pair)[order] for pair in zip(found, fallback))

    def best(counts: np.ndarray, positives: np.ndarray, node_of: np.ndarray, bin_of: np.ndarray,
             n_in: np.ndarray, pos_in: np.ndarray) -> tuple[np.ndarray, ...]:
        """search's result over some non-empty (node, bin) entries of a
        piece, in scan order, each with its weight and positive weight; a
        node's column is among them whole or not at all."""
        col = bin_col[bin_of]
        # left side of an entry: itself (eq) or its run of the node's column so far (le)
        run_first = _run_first(node_of * d + col)
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
        count, positive, owner = count[cand], positive[cand], node_of[cand]
        impurity = 2.0 * (positive / count) * (1.0 - positive / count)
        frac_left = pos_left / n_left
        frac_right = (positive - pos_left) / n_right
        gain = (
            impurity
            - (n_left / count) * 2.0 * frac_left * (1.0 - frac_left)
            - (n_right / count) * 2.0 * frac_right * (1.0 - frac_right)
        )
        starts = _starts(owner)  # each node's first candidate
        top = np.maximum.reduceat(gain, np.flatnonzero(starts))
        # the first candidate reaching its node's best gain, where that gains
        hits = np.flatnonzero(gain == top[np.cumsum(starts) - 1])
        won = hits[_starts(owner[hits])][top > _MIN_GAIN]
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
        return owner[won], j, b, value, n_left[won], pos_left[won]

    def grow(trees: list[tuple]) -> tuple[NodeTable, np.ndarray]:
        """Grow a batch of trees (each its pairs, their weights, its rows and
        positive rows, and its rng) into one NodeTable, emptying trees; with
        it, the table's node count after each lockstep step, so that the
        children numbered at step s are the nodes from the count after step
        s - 1 (or the root count) up to its count after step s."""
        n_trees = len(trees)
        if subsampling:
            # choice's output depends only on the rng's state and its arguments,
            # which are the same at every node, so trees whose rngs start in
            # equal states draw equal subsets in equal order: such a group draws
            # its subsets once, from its first tree's rng, and the others replay
            # them.  Tree t's k-th subset is draws.masks[group[t], k].
            heads: dict[str, tuple[int, np.random.Generator]] = {}  # group, first rng
            group = np.array([heads.setdefault(repr(rng.bit_generator.state), (len(heads), rng))[0]
                              for *_, rng in trees], dtype=np.intp)
            draws = _ColumnDraws([rng for _, rng in heads.values()], d, n_sample_features)
            drawn = np.zeros(n_trees, dtype=np.intp)  # subsets each tree has used

        # The sample array: each tree's range holds the pairs its bootstrap
        # draws, ascending, and weight their multiplicities.  A node is a range
        # of its tree's, and a split reorders the range in place, left rows first.
        roots, start = [], 0  # one row per tree, as the stacks hold nodes below
        for t, (held, _, size, positive, _) in enumerate(trees):
            roots.append((t, start, start + held.size, 0, t, float(size), positive))
            start += held.size
        sample = np.concatenate([held for held, *_ in trees])
        weight = np.concatenate([w for _, w, *_ in trees])
        trees.clear()  # the per-tree arrays, now in the sample array

        # The node table, grown in place: node t is tree t's root, and a split's
        # two children are numbered together, left first, when it splits.
        node_column, node_left = np.full(n_trees, -1), np.full(n_trees, -1)
        node_value, node_fraction, node_count = (np.zeros(n_trees) for _ in range(3))
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

        # each tree's depth-first stack of nodes still to search, its top at
        # stack[t, height[t] - 1], as rows of (tree, start, end, depth, node,
        # weight, positive weight)
        stack = np.empty((n_trees, 16, 7))
        height = np.zeros(n_trees, dtype=np.intp)

        def settle(nodes: np.ndarray) -> None:
            """Push each node row that needs a split search onto its tree's
            stack, in order (each tree's rows together), and make the others
            leaves."""
            nonlocal stack
            depth, count, positive = nodes[:, 3], nodes[:, 5], nodes[:, 6]
            leaf = ((positive == 0) | (positive == count) | (depth >= max_depth)
                    | (count < 2 * min_leaf))
            make_leaves(nodes[leaf])
            nodes = nodes[~leaf]
            if not nodes.size:
                return
            t = nodes[:, 0].astype(np.intp)
            at = height[t] + np.arange(t.size) - _run_first(t)
            if at.max() >= stack.shape[1]:
                stack = np.concatenate([stack, np.empty_like(stack)], axis=1)
            stack[t, at] = nodes
            height[:] += np.bincount(t, minlength=n_trees)

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
            split, j, b, value, n_left, pos_left = search(
                node_of, rows, w, nodes[:, 5], nodes[:, 6], sampled
            )
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
        step_ends = []
        while (live := np.flatnonzero(height)).size:
            # each live tree's next node in preorder, scored in pieces of rows
            height[live] -= 1
            step = stack[live, height[live]]
            sampled = None
            if subsampling:  # each tree draws in its own preorder
                if drawn[live].max() == draws.masks.shape[1]:  # for the groups still growing
                    growing = np.zeros(draws.masks.shape[0], dtype=bool)
                    growing[group[live]] = True
                    draws.extend(max(draws.masks.shape[1], 16), np.flatnonzero(growing))
                sampled = draws.masks[group[live], drawn[live]]
                drawn[live] += 1
            lengths = step[:, 2] - step[:, 1]
            ends = np.cumsum(lengths)
            lo = 0
            while lo < live.size:
                cut = ends[lo] - lengths[lo] + _STEP_ROWS
                hi = max(lo + 1, int(np.searchsorted(ends, cut, side="right")))
                grow_piece(step[lo:hi], None if sampled is None else sampled[lo:hi])
                lo = hi
            step_ends.append(n_nodes)
        for cells in (node_column, node_left, node_value, node_fraction, node_count):
            cells.resize(n_nodes, refcheck=False)
        table = NodeTable(node_column, node_value, node_left, node_fraction, node_count, eq_mask)
        return table, np.array(step_ends, dtype=np.int64)

    def grow_batch(trees: list[tuple]) -> NodeTable:
        """grow's table of a batch, emptying trees: grown in parts
        (parts.shares) once the batch holds _FORK_ROWS bootstrap rows."""
        rows = sum(size for _, _, size, *_ in trees)
        split = [share for share, in parts.shares(trees, worth=rows >= _FORK_ROWS)]
        trees.clear()
        if len(split) == 1:
            return grow(split[0])[0]
        tables, step_ends = zip(*parts.in_parts(grow, split))
        # the children each step numbered, as one batch numbers them: in step
        # order, and within a step in tree order, which is part order
        born = [np.repeat(np.arange(ends.size), np.diff(ends, prepend=table.n_trees))
                for table, ends in zip(tables, step_ends)]
        return NodeTable.join(tables, np.argsort(np.concatenate(born), kind="stable"))

    rngs = repeat(None) if rngs is None else iter(rngs)  # read in step with boots
    batch, batch_rows = [], 0
    for boot in boots:
        drawn_pairs = np.bincount(pair_of[np.asarray(boot, dtype=np.intp)], minlength=rep.size)
        held, size = np.flatnonzero(drawn_pairs), len(boot)
        del boot  # so that a generator of bootstraps has one alive at a time
        if batch and batch_rows + size > _GROW_ROWS:
            yield grow_batch(batch)  # which empties batch
            batch_rows = 0
        batch.append((held, drawn_pairs[held].astype(np.float64), size,
                      float(drawn_pairs[held] @ pair_positive[held]), next(rngs)))
        batch_rows += size
    if batch:
        yield grow_batch(batch)


def _starts(keys: np.ndarray) -> np.ndarray:
    """Marks the first of each run of equal keys."""
    starts = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return starts


def _run_first(keys: np.ndarray) -> np.ndarray:
    """The index of the first of each key's run of equal keys."""
    return np.maximum.accumulate(np.where(_starts(keys), np.arange(keys.size), 0))


class _ColumnDraws:
    """The column subsets each of several Generators draws as
    Generator.choice(d, m, replace=False), one call per subset, made in
    bulk: masks[g, k] marks the columns of rng g's k-th subset (1 <= m < d
    <= 10,000).

    For such d, numpy's choice is Floyd's algorithm: for j = d - m, ...,
    d - 1 it draws v in [0, j] and picks v, or j if v is already picked;
    then it shuffles the m picks with m - 1 more draws, in [0, i] for i =
    m - 1, ..., 1, which only consume the stream.  choice makes each draw
    with the bounded-integer routine that Generator.integers runs for each
    value of an array of bounds, so one integers call per rng draws all its
    new subsets, over any bit generator, and leaves the rng where as many
    choice calls would.
    """

    def __init__(self, rngs: Sequence[np.random.Generator], d: int, m: int):
        self.rngs, self.d, self.m = rngs, d, m
        # the bounds of one subset's draws: Floyd's, then the shuffle's
        self.bounds = np.concatenate([np.arange(d - m + 1, d + 1), np.arange(m, 1, -1)])
        self.masks = np.zeros((len(rngs), 0, d), dtype=bool)

    def extend(self, count: int, which: np.ndarray) -> None:
        """Draw count more subsets from each rng listed in which; the other
        rngs' masks of those draws stay empty."""
        bounds = np.tile(self.bounds, count)
        values = np.stack([self.rngs[g].integers(0, bounds, dtype=np.int64) for g in which])
        # Floyd's draws; the shuffle's only consume
        picks = values.reshape(-1, self.bounds.size)[:, :self.m]
        masks = np.zeros((picks.shape[0], self.d), dtype=bool)
        subset = np.arange(picks.shape[0])
        for i, j in enumerate(range(self.d - self.m, self.d)):  # Floyd's steps, every subset at once
            v = picks[:, i]
            masks[subset, np.where(masks[subset, v], j, v)] = True
        drawn = self.masks.shape[1]
        grown = np.zeros((len(self.rngs), drawn + count, self.d), dtype=bool)
        grown[:, :drawn] = self.masks
        grown[which, drawn:] = masks.reshape(which.size, count, self.d)
        self.masks = grown


class NodeTable:
    """Trees as flat node arrays (scikit-learn's Tree layout,
    sklearn/tree/_tree.pyx); node t is tree t's root.  A split sends a row to
    left[i] if its encoded column[i] equals value[i] (an eq_mask column) or
    is <= value[i], else to left[i] + 1; a leaf has column -1, and fraction
    and count hold its positive fraction and training rows (0 at a split).

    Values are codes of the encoding the table was built over: the training
    Encoder's for a table grow_trees returns, the stored vocabularies' for
    one a model file holds.  Walking never touches a dict.
    """

    def __init__(self, column, value, left, fraction, count, eq_mask: np.ndarray):
        self.column = np.asarray(column, dtype=np.intp)
        self.value = np.asarray(value, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.intp)
        self.fraction = np.asarray(fraction, dtype=np.float64)
        self.count = np.asarray(count, dtype=np.int64)
        self.eq_mask = eq_mask
        # every node but a root is one of a split's two children
        self.n_trees = self.column.size - 2 * int(np.count_nonzero(self.column >= 0))

    @classmethod
    def join(cls, tables: Sequence[NodeTable], rest: np.ndarray | None = None) -> NodeTable:
        """The trees of several tables over one encoding as one table: every
        table's roots first, in order, then every table's other nodes, in
        order, or in the order rest (indices into them, so ordered) gives.
        Nodes keep their order within each table, so every child still
        follows its parent; a rest must keep that too."""
        offsets = np.cumsum([0] + [table.column.size for table in tables])
        others = np.concatenate([k + np.arange(t.n_trees, t.column.size)
                                 for t, k in zip(tables, offsets)])
        order = np.concatenate([k + np.arange(t.n_trees) for t, k in zip(tables, offsets)]
                               + [others if rest is None else others[rest]])
        place = np.empty_like(order)  # each node's index in the joined table
        place[order] = np.arange(order.size)
        del others, order
        # each table's nodes put in place, which copies no table whole
        column, left, count, value, fraction = (
            np.empty(place.size, dtype=t) for t in (np.intp, np.intp, np.int64, float, float))
        for t, k in zip(tables, offsets):
            at = place[k:k + t.column.size]
            column[at], value[at], fraction[at], count[at] = t.column, t.value, t.fraction, t.count
            left[at] = np.where(t.column >= 0, place[t.left + k], -1)
        return cls(column, value, left, fraction, count, tables[0].eq_mask)

    def walk_encoded(self, X: np.ndarray, roots: Iterable[int]) -> Iterator[np.ndarray]:
        """Per root in turn, the positive fraction of the leaf each row of X
        lands in; X is encoded as the table's values are.  Roots are walked
        together in groups of at most _WALK_CELLS (root, row) cells."""
        roots = np.fromiter(roots, dtype=np.intp)
        n = len(X)
        per = max(1, _WALK_CELLS // max(n, 1))
        for lo in range(0, roots.size, per):
            group = roots[lo:lo + per]
            node, row = np.repeat(group, n), np.tile(np.arange(n), group.size)
            live = np.arange(node.size)
            # step the cells still at a split one level down, until none is
            while (live := live[self.column[node[live]] >= 0]).size:
                at = node[live]
                col, value = self.column[at], self.value[at]
                x = X[row[live], col]
                go_left = np.where(self.eq_mask[col], x == value, x <= value)
                node[live] = self.left[at] + ~go_left  # a right child follows its left
            yield from self.fraction[node].reshape(group.size, n)
