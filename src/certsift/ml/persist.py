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
from .tree import validate_node

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
    json.dump(model_to_json(model), fh, indent=1)
    fh.write("\n")


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
        root = doc.get("tree")
        validate_node(root)
        return DecisionTreeModel(root, schema, hyperparameters, seed)
    if kind in _ENSEMBLE_CLASSES:
        members = doc.get("trees")
        if not isinstance(members, list) or not members:
            raise CorruptModel("ensemble model holds no trees")
        for i, member in enumerate(members):
            validate_node(member, path=f"tree[{i}]")
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
    return model


def load_model(path: str | os.PathLike) -> TrainedModel:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return model_from_json(doc)
    except json.JSONDecodeError as exc:
        raise CorruptModel(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError:
        # the decoder and the tree check recurse once per nesting level
        raise CorruptModel(f"{path}: nested too deeply to load") from None
