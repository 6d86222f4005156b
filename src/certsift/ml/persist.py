"""Versioned JSON persistence for trained models.

The on-disk document records a format version, the model kind, the seed,
the resolved hyperparameters, the full feature schema (with fingerprint),
and the kind-specific payload.  Loading validates all of it: a file that
does not parse or fails structural checks raises CorruptModel; a version
this code does not speak raises VersionMismatch.
"""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii
from typing import TextIO

import numpy as np

from ..errors import CorruptModel, VersionMismatch
from .classifiers import (
    KIND_BAGGING,
    KIND_FOREST,
    KIND_KNN,
    KIND_TREE,
    MODEL_KINDS,
    BaggedTreesModel,
    DecisionTreeModel,
    NearestNeighborModel,
    RandomForestModel,
    TrainedModel,
)
from .schema import FeatureColumn, FeatureSchema, KIND_BOOLEAN, KIND_CATEGORICAL, KIND_INTEGER, KIND_REAL

FORMAT_VERSION = 1

_ENSEMBLE_CLASSES = {KIND_BAGGING: BaggedTreesModel, KIND_FOREST: RandomForestModel}


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
    valid_kinds = {KIND_BOOLEAN, KIND_CATEGORICAL, KIND_INTEGER, KIND_REAL}
    for col in columns:
        if col.kind not in valid_kinds:
            raise CorruptModel(f"unknown column kind {col.kind!r}")
    schema = FeatureSchema(columns)
    if schema.fingerprint() != doc.get("fingerprint"):
        raise CorruptModel("schema fingerprint does not match its columns")
    return schema


def model_to_json(model: TrainedModel) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "seed": model.seed,
        "hyperparameters": model.hyperparameters,
        "schema": _schema_to_json(model.schema),
    }
    if isinstance(model, DecisionTreeModel):
        doc["tree"] = model.root
    elif isinstance(model, (BaggedTreesModel, RandomForestModel)):
        doc["trees"] = model.members
    elif isinstance(model, NearestNeighborModel):
        doc["instances"] = {
            "vocabs": model.encoder.vocabs,
            "ranges": {name: list(r) for name, r in model.ranges.items()},
            "matrix": model.matrix.tolist(),
            "labels": model.labels.tolist(),
        }
    else:
        raise ValueError(f"cannot serialize model of type {type(model).__name__}")
    return doc


def write_model(model: TrainedModel, fh: TextIO) -> None:
    """Write the model file (indented JSON and a final newline) to a text stream."""
    _write_json(model_to_json(model), fh)
    fh.write("\n")


# pieces of text joined into each write, which bounds what a save holds
_WRITE_PARTS = 4096

_DONE = object()

# json's names for the floats whose repr is not JSON
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write_json(doc, fh: TextIO) -> None:
    """Write doc to fh as the bytes of json.dump(doc, fh, indent=1), for
    documents whose keys are all str.  Open containers sit on an explicit
    stack, where the json encoder keeps one generator per nesting level,
    so no depth of nesting recurses."""
    parts: list[str] = []
    stack = []  # open containers: (item iterator, is a dict, separator, closing text)
    value, lead = doc, ""  # the next value to write and the text before it
    while True:
        first = None  # the separator before an opened container's first item
        if isinstance(value, str):
            parts.append(lead + encode_basestring_ascii(value))
        elif value is None:
            parts.append(lead + "null")
        elif value is True:
            parts.append(lead + "true")
        elif value is False:
            parts.append(lead + "false")
        elif isinstance(value, int):
            parts.append(lead + int.__repr__(value))
        elif isinstance(value, float):
            text = float.__repr__(value)
            parts.append(lead + _NON_FINITE.get(text, text))
        elif isinstance(value, (list, tuple, dict)):
            is_dict = isinstance(value, dict)
            if not value:
                parts.append(lead + ("{}" if is_dict else "[]"))
            else:
                parts.append(lead + ("{" if is_dict else "["))
                first = "\n" + " " * (len(stack) + 1)
                close = first[:-1] + ("}" if is_dict else "]")
                stack.append((iter(value.items() if is_dict else value), is_dict, "," + first, close))
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        if len(parts) >= _WRITE_PARTS:
            fh.write("".join(parts))
            parts.clear()
        # the next value is the next item of the innermost open container
        while stack:
            items, is_dict, separator, close = stack[-1]
            item = next(items, _DONE)
            if item is not _DONE:
                break
            parts.append(close)
            stack.pop()
        else:
            break
        lead = first or separator
        if is_dict:
            key, value = item
            lead += encode_basestring_ascii(key) + ": "
        else:
            value = item
    fh.write("".join(parts))


def save_model(model: TrainedModel, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_model(model, fh)


def model_from_json(doc: dict) -> TrainedModel:
    if not isinstance(doc, dict):
        raise CorruptModel("model document is not a JSON object")
    version = doc.get("format_version")
    if not isinstance(version, int):
        raise CorruptModel(f"bad format_version {version!r}")
    if version != FORMAT_VERSION:
        raise VersionMismatch(
            f"model format version {version} is not supported (this code "
            f"reads version {FORMAT_VERSION})"
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

    if kind == KIND_TREE:
        return DecisionTreeModel(doc.get("tree"), schema, hyperparameters, seed)
    if kind in _ENSEMBLE_CLASSES:
        members = doc.get("trees")
        if not isinstance(members, list) or not members:
            raise CorruptModel("ensemble model holds no trees")
        return _ENSEMBLE_CLASSES[kind](members, schema, hyperparameters, seed)

    instances = doc.get("instances")
    if not isinstance(instances, dict):
        raise CorruptModel("nearest-neighbor model holds no instances")
    try:
        vocabs = {
            str(name): {str(v): int(code) for v, code in vocab.items()}
            for name, vocab in instances["vocabs"].items()
        }
        ranges = {
            str(name): (float(pair[0]), float(pair[1]))
            for name, pair in instances["ranges"].items()
        }
        matrix = np.array(instances["matrix"], dtype=np.float64)
        labels = np.array(instances["labels"], dtype=np.float64)
        # a missing vocabulary or range fails here, not at the first prediction
        model = NearestNeighborModel(
            schema, hyperparameters, seed, vocabs, ranges, matrix, labels
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CorruptModel(f"nearest-neighbor payload does not decode: {exc}") from exc
    if matrix.ndim != 2 or labels.ndim != 1 or matrix.shape[0] != labels.size:
        raise CorruptModel("nearest-neighbor matrix and labels disagree")
    if matrix.shape[1] != len(schema.included()):
        raise CorruptModel("nearest-neighbor matrix width does not match schema")
    _check_knn(model)
    return model


def _check_knn(model: NearestNeighborModel) -> None:
    """Reject what training never writes and exact chunked prediction
    relies on (classifiers.NearestNeighborModel): k a whole number >= 1,
    0/1 labels, finite numeric ranges, and matrix cells that are codes of
    their column's kind (0/1 booleans, categories below the vocabulary's
    size) or scaled numerics in [0, 1].  NaN and infinities fail every kind."""
    k = model.hyperparameters.get("k")
    if type(k) is not int or k < 1:
        raise CorruptModel(f"nearest-neighbor k {k!r} is not a whole number >= 1")
    if not np.isin(model.labels, (0.0, 1.0)).all():
        raise CorruptModel("nearest-neighbor labels are not all 0 or 1")
    if not np.isfinite(list(model.ranges.values())).all():
        raise CorruptModel("nearest-neighbor numeric ranges are not all finite")
    for col, values in zip(model.encoder.columns, model.matrix.T):
        if col.kind == KIND_BOOLEAN:
            fits = np.isin(values, (0.0, 1.0))
        elif col.kind == KIND_CATEGORICAL:
            size = len(model.encoder.vocabs[col.name])
            fits = (values >= 0) & (values < size) & (values == np.floor(values))
        else:
            fits = (values >= 0.0) & (values <= 1.0)
        if not fits.all():
            raise CorruptModel(f"nearest-neighbor column {col.name} holds a value out of its kind")


def load_model(path: str | os.PathLike) -> TrainedModel:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return model_from_json(doc)
    except json.JSONDecodeError as exc:
        raise CorruptModel(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError:
        # the JSON decoder recurses once per nesting level; nothing else does
        raise CorruptModel(f"{path}: nested too deeply to load") from None
