"""Versioned JSON persistence for trained models.

The on-disk document records a format version, the model kind, the seed,
the resolved hyperparameters, the full feature schema (with fingerprint),
and the kind-specific payload.  Version 2, the one written, nests nothing
below its payload: a tree kind's "nodes" are the five arrays of its
NodeTable (column, value, left, fraction and count, in the training
encoding) with the vocabularies of that encoding, and a k-NN model's
"instances" are its vocabularies, numeric ranges, scaled matrix and
labels.  A file is one compact json.dumps of the document and a newline.

Loading validates all of it: a file that is not UTF-8 JSON or fails
structural checks raises CorruptModel; a version this code does not speak
raises VersionMismatch.  Version-1 files, whose trees are nested dicts,
are read (never written) by turning their trees into a version-2 payload,
which then passes the one check every version-2 payload passes.
"""

from __future__ import annotations

import json
import os
from itertools import compress
from typing import TextIO

import numpy as np

from ..errors import CorruptModel, VersionMismatch, reading
from ..features import FEATURE_KINDS, KIND_BOOLEAN, KIND_CATEGORICAL
from .classifiers import (
    KIND_TREE,
    MODEL_KINDS,
    TREE_CLASSES,
    NearestNeighborModel,
    TrainedModel,
)
from .schema import Encoder, FeatureColumn, FeatureSchema
from .tree import NodeTable

FORMAT_VERSION = 2

# a version-2 tree payload's arrays, one cell per node
_NODE_ARRAYS = ("column", "value", "left", "fraction", "count")

# a version-1 split's test, and the types of its value, by column kind
TEST_EQ = "eq"
TEST_LE = "le"
_SPLIT_FORM = {KIND_BOOLEAN: (TEST_EQ, (bool,)), KIND_CATEGORICAL: (TEST_EQ, (str,))}


def _schema_to_json(schema: FeatureSchema) -> dict:
    return {
        "columns": [
            {"name": c.name, "kind": c.kind, "included": c.included}
            for c in schema.columns
        ],
        "fingerprint": schema.fingerprint(),
    }


def _schema_from_json(doc: dict) -> FeatureSchema:
    try:
        columns = tuple(
            FeatureColumn(str(c["name"]), str(c["kind"]), bool(c["included"]))
            for c in doc["columns"]
        )
    except (KeyError, TypeError) as exc:
        raise CorruptModel(f"schema does not decode: {exc}") from exc
    for col in columns:
        if col.kind not in FEATURE_KINDS.values():
            raise CorruptModel(f"unknown column kind {col.kind!r}")
    schema = FeatureSchema(columns)
    if schema.fingerprint() != doc.get("fingerprint"):
        raise CorruptModel("schema fingerprint does not match its columns")
    return schema


def model_to_json(model: TrainedModel) -> dict:
    """The model's document, sharing no mutable object with the model."""
    vocabs = {name: dict(vocab) for name, vocab in model.encoder.vocabs.items()}
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "seed": model.seed,
        "hyperparameters": dict(model.hyperparameters),
        "schema": _schema_to_json(model.schema),
    }
    if isinstance(model, NearestNeighborModel):
        doc["instances"] = {
            "vocabs": vocabs,
            "ranges": {name: list(r) for name, r in model.ranges.items()},
            "matrix": model.matrix.tolist(),
            "labels": model.labels.tolist(),
        }
    else:
        doc["nodes"] = {"vocabs": vocabs,
                        **{name: getattr(model.table, name).tolist() for name in _NODE_ARRAYS}}
    return doc


def write_model(model: TrainedModel, fh: TextIO) -> None:
    """Write the model file (compact JSON and a final newline) to a text stream."""
    fh.write(json.dumps(model_to_json(model), separators=(",", ":")) + "\n")


def save_model(model: TrainedModel, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_model(model, fh)


def model_from_json(doc: dict) -> TrainedModel:
    if not isinstance(doc, dict):
        raise CorruptModel("model document is not a JSON object")
    version = doc.get("format_version")
    if not isinstance(version, int):
        raise CorruptModel(f"bad format_version {version!r}")
    if version not in (1, FORMAT_VERSION):
        raise VersionMismatch(
            f"model format version {version} is not supported (this code "
            f"reads versions 1 and {FORMAT_VERSION})"
        )
    kind = doc.get("kind")
    if kind not in MODEL_KINDS:
        raise CorruptModel(f"unknown model kind {kind!r}")
    try:
        seed = int(doc["seed"])
        hyperparameters = dict(doc["hyperparameters"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptModel(f"model header does not decode: {exc}") from exc
    schema = _schema_from_json(doc.get("schema") or {})

    if kind in TREE_CLASSES:
        payload = doc.get("nodes")
        if version == 1:
            roots = [doc.get("tree")] if kind == KIND_TREE else doc.get("trees")
            if not isinstance(roots, list) or not roots:
                raise CorruptModel("ensemble model holds no trees")
            payload = _v1_payload(roots, schema)
        table, encoder = _nodes_from_json(payload, kind, schema)
        return TREE_CLASSES[kind](table, encoder, hyperparameters, seed)

    instances = doc.get("instances")
    if not isinstance(instances, dict):
        raise CorruptModel("nearest-neighbor model holds no instances")
    try:
        encoder = _encoder_from_json(instances, schema)
        ranges = {
            str(name): (float(pair[0]), float(pair[1]))
            for name, pair in instances["ranges"].items()
        }
        matrix = np.array(instances["matrix"], dtype=np.float64)
        labels = np.array(instances["labels"], dtype=np.float64)
        # a missing range fails here, not at the first prediction
        model = NearestNeighborModel(encoder, hyperparameters, seed, ranges, matrix, labels)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CorruptModel(f"nearest-neighbor payload does not decode: {exc}") from exc
    if matrix.ndim != 2 or labels.ndim != 1 or matrix.shape[0] != labels.size:
        raise CorruptModel("nearest-neighbor matrix and labels disagree")
    if matrix.shape[1] != len(schema.included()):
        raise CorruptModel("nearest-neighbor matrix width does not match schema")
    _check_knn(model)
    return model


def _encoder_from_json(payload: dict, schema: FeatureSchema) -> Encoder:
    """The Encoder of a payload's stored vocabularies, each of which must
    code its values as the JSON integers 0..n-1; raises ValueError on other
    codes, and what a malformed or missing one raises (KeyError, TypeError,
    ValueError or AttributeError)."""
    vocabs = payload["vocabs"]
    for name, vocab in vocabs.items():
        codes = list(vocab.values())
        if any(type(code) is not int for code in codes) or sorted(codes) != list(range(len(codes))):
            raise ValueError(f"vocabulary {name!r} does not code its values 0..n-1")
    return Encoder(schema, vocabs={str(name): {str(v): code for v, code in vocab.items()}
                                   for name, vocab in vocabs.items()})


def _v1_payload(roots: list, schema: FeatureSchema) -> dict:
    """A version-1 file's nested trees as a version-2 tree payload: the node
    arrays, laid out breadth first, and vocabularies of the values its splits
    test (a category no split tests encodes as -1, so it matches nothing and
    goes right).  Only the nesting is checked here (node types, included
    features, each split's test and value type, both children, whole leaf
    counts); _nodes_from_json checks the arrays."""
    columns = schema.included()
    where = {col.name: j for j, col in enumerate(columns)}
    vocabs = {col.name: {} for col in columns if col.kind == KIND_CATEGORICAL}
    cells = []  # column, value, left, fraction and count of each node in turn
    nodes = list(roots)
    for i, node in enumerate(nodes):  # children are queued as parents are read
        kind = node.get("node") if isinstance(node, dict) else type(node).__name__
        if kind == "leaf":
            share, count = node.get("positive_fraction"), node.get("count")
            if not isinstance(count, int):
                raise CorruptModel(f"node {i}: leaf count {count!r} is not a whole number")
            cells.append((-1, 0.0, -1, share, count))
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
        cells.append((j, value, len(nodes), 0.0, 0))
        nodes += (node["left"], node["right"])
    return {"vocabs": vocabs, **{name: list(cell) for name, cell in zip(_NODE_ARRAYS, zip(*cells))}}


def _code_counts(encoder: Encoder) -> np.ndarray:
    """The codes each column's values can take: 2 on a boolean (0/1), its
    vocabulary's size on a categorical, none on a numeric column."""
    return np.array([2 if col.kind == KIND_BOOLEAN else len(encoder.vocabs[col.name])
                     if col.kind == KIND_CATEGORICAL else 0 for col in encoder.columns])


def _are_codes(values: np.ndarray, counts) -> np.ndarray:
    """Which values are whole numbers in [0, counts); NaN never is."""
    return (values >= 0) & (values < counts) & (values == np.floor(values))


def _nodes_from_json(payload, kind: str, schema: FeatureSchema) -> tuple[NodeTable, Encoder]:
    """The table and Encoder of a version-2 tree payload, checked array-wide
    against what growth always writes and walking relies on: vocabularies
    code their values 0..n-1; each split tests an included column against a
    value of its kind (0/1, a code inside the vocabulary, a threshold that
    is not NaN) and has both children after it inside the table; nodes
    0..n_trees-1 are the roots and every other node is the child of exactly
    one split; a tree model holds one tree; a leaf holds a fraction in [0, 1]
    and a whole count in [1, 2^53], a split the count 0."""
    try:
        encoder = _encoder_from_json(payload, schema)
        arrays = [np.array(payload[name]) for name in _NODE_ARRAYS]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CorruptModel(f"tree payload does not decode: {exc}") from exc
    size = arrays[0].size
    if not size or any(a.ndim != 1 or a.size != size or a.dtype.kind not in "iuf" for a in arrays):
        raise CorruptModel("tree payload arrays are not equal-length lists of numbers")
    column, value, left, fraction, count = (a.astype(np.float64) for a in arrays)
    if not np.isin(column, np.arange(-1, len(encoder.columns))).all():
        raise CorruptModel("a split tests a column the model does not read")
    split = np.flatnonzero(column >= 0)
    j, value_at, left_at = column[split].astype(np.intp), value[split], left[split]
    fits = np.where(encoder.eq_mask[j], _are_codes(value_at, _code_counts(encoder)[j]),
                    ~np.isnan(value_at))
    if not fits.all():
        raise CorruptModel("a split value does not fit its column's kind")
    if not (_are_codes(left_at, size - 1) & (left_at > split)).all():
        raise CorruptModel("a split's children do not follow it inside the table")
    n_trees = size - 2 * split.size
    hits = np.bincount(np.concatenate([left_at, left_at + 1]).astype(np.intp), minlength=size)
    if n_trees < 1 or hits[:n_trees].any() or (hits[n_trees:] != 1).any():
        raise CorruptModel("the nodes are not trees whose roots come first")
    if kind == KIND_TREE and n_trees != 1:
        raise CorruptModel(f"a tree model holds {n_trees} trees")
    leaf = column < 0
    share, rows = fraction[leaf], count[leaf]
    if not ((share >= 0.0) & (share <= 1.0) & _are_codes(rows - 1, 2**53)).all():
        raise CorruptModel("a leaf's fraction or count is out of range")
    if count[~leaf].any():
        raise CorruptModel("a split holds a count")
    left = np.where(leaf, -1.0, left)  # a leaf's left is never read
    return NodeTable(column, value, left, fraction, count, encoder.eq_mask), encoder


def _check_knn(model: NearestNeighborModel) -> None:
    """Reject what training never writes and exact filter-and-refine prediction
    relies on (classifiers.NearestNeighborModel): k a whole number >= 1,
    0/1 labels, finite numeric ranges with lo <= hi, and matrix cells that
    are codes of their column's kind (0/1 booleans, categories below the
    vocabulary's size) or scaled numerics in [0, 1].  NaN and infinities
    fail every kind."""
    k = model.hyperparameters.get("k")
    if type(k) is not int or k < 1:
        raise CorruptModel(f"nearest-neighbor k {k!r} is not a whole number >= 1")
    if not np.isin(model.labels, (0.0, 1.0)).all():
        raise CorruptModel("nearest-neighbor labels are not all 0 or 1")
    ranges = np.array(list(model.ranges.values()), dtype=np.float64).reshape(-1, 2)
    if not (np.isfinite(ranges).all() and (ranges[:, 0] <= ranges[:, 1]).all()):
        raise CorruptModel("nearest-neighbor numeric ranges are not all finite with lo <= hi")
    X = model.matrix
    fits = np.where(model.encoder.eq_mask, _are_codes(X, _code_counts(model.encoder)),
                    (X >= 0.0) & (X <= 1.0))
    bad = [col.name for col in compress(model.encoder.columns, ~fits.all(axis=0))]
    if bad:
        raise CorruptModel(f"nearest-neighbor column {bad[0]} holds a value out of its kind")


def load_model(path: str | os.PathLike) -> TrainedModel:
    with reading(path, CorruptModel) as fh:
        return model_from_json(json.load(fh))
