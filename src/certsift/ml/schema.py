"""Feature schema, dataset container, and numeric encoding for classifiers.

The default schema feeds thirteen of the fifteen features to the
classifiers: the verification verdict stays out because it aggregates
several of the other signals, and raw validity days stay out in favor of
the three-year boolean.  Each schema has a stable fingerprint so persisted
models can refuse vectors from a different feature layout.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateDataset, SchemaError
from ..features import (
    FEATURE_KINDS,
    FEATURE_NAMES,
    KIND_BOOLEAN,
    KIND_CATEGORICAL,
    LABEL_NEGATIVE,
    LABEL_POSITIVE,
    FeatureVector,
)

_DEFAULT_EXCLUDED = frozenset({"f5", "f13"})


@dataclass(frozen=True)
class FeatureColumn:
    name: str
    kind: str
    included: bool


@dataclass(frozen=True)
class FeatureSchema:
    columns: tuple[FeatureColumn, ...]

    def included(self) -> tuple[FeatureColumn, ...]:
        return tuple(c for c in self.columns if c.included)

    def fingerprint(self) -> str:
        text = ";".join(
            f"{c.name}:{c.kind}:{int(c.included)}" for c in self.columns
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def default_schema() -> FeatureSchema:
    return FeatureSchema(
        tuple(
            FeatureColumn(name, kind, name not in _DEFAULT_EXCLUDED)
            for name, kind in FEATURE_KINDS.items()
        )
    )


def canonical_key(fv: FeatureVector) -> tuple[str, ...]:
    """Content-based sort key making row order independent of input order."""
    parts = [fv.domain]
    for name in FEATURE_NAMES:
        value = fv.value(name)
        if isinstance(value, bool):
            parts.append("1" if value else "0")
        elif isinstance(value, float):
            parts.append(f"{value:.17g}")
        else:
            parts.append(str(value))
    parts.append(fv.label or "")
    return tuple(parts)


@dataclass
class Dataset:
    """Feature vectors plus the schema describing which columns train."""

    rows: list[FeatureVector]
    schema: FeatureSchema = field(default_factory=default_schema)

    def __len__(self) -> int:
        return len(self.rows)

    def class_counts(self) -> dict[str, int]:
        counts = {LABEL_POSITIVE: 0, LABEL_NEGATIVE: 0}
        for fv in self.rows:
            if fv.label in counts:
                counts[fv.label] += 1
        return counts

    def require_labeled(self) -> None:
        unlabeled = sum(1 for fv in self.rows if fv.label is None)
        if unlabeled:
            raise DegenerateDataset(f"{unlabeled} rows have no label")
        counts = self.class_counts()
        missing = [label for label, n in counts.items() if n == 0]
        if missing:
            raise DegenerateDataset(f"no rows labeled {', '.join(missing)}")

    def canonical_order(self) -> list[int]:
        """Row indices sorted by content, ties by original position."""
        return sorted(range(len(self.rows)), key=lambda i: (canonical_key(self.rows[i]), i))


class Encoder:
    """The one path from feature vectors to the float matrix the learners use.

    Booleans become 0/1.  Categorical values get integer codes from a
    vocabulary, sorted lexically; values not in it encode as -1, which
    matches no code.  Numerics pass through unchanged.  The vocabulary is
    built over the training rows, or given as a model stored it.  eq_mask
    marks the columns compared by equality (booleans and categoricals), the
    rest by order.
    """

    def __init__(
        self,
        schema: FeatureSchema,
        rows: Sequence[FeatureVector] = (),
        vocabs: dict[str, dict[str, int]] | None = None,
    ):
        self.schema = schema
        self.columns = schema.included()
        categorical = [col.name for col in self.columns if col.kind == KIND_CATEGORICAL]
        if vocabs is None:
            vocabs = {}
            for name in categorical:
                values = sorted({fv.value(name) for fv in rows})
                vocabs[name] = {v: i for i, v in enumerate(values)}
        self.vocabs = {name: vocabs[name] for name in categorical}
        self.eq_mask = np.array(
            [col.kind in (KIND_BOOLEAN, KIND_CATEGORICAL) for col in self.columns],
            dtype=bool,
        )

    def encode_rows(self, rows: Sequence[FeatureVector]) -> np.ndarray:
        """Rows as the float matrix; a column that is not a feature of its
        kind (a model file may declare one) raises SchemaError."""
        for col in self.columns:
            if FEATURE_KINDS.get(col.name) != col.kind:
                raise SchemaError(f"column {col.name} is not a {col.kind} feature")
        matrix = np.empty((len(rows), len(self.columns)), dtype=np.float64)
        for j, col in enumerate(self.columns):
            values = [fv.value(col.name) for fv in rows]
            if col.kind == KIND_CATEGORICAL:
                code = self.vocabs[col.name].get
                values = [code(v, -1) for v in values]
            matrix[:, j] = values
        return matrix


def encode_labels(rows: Sequence[FeatureVector]) -> np.ndarray:
    return np.array(
        [1.0 if fv.label == LABEL_POSITIVE else 0.0 for fv in rows], dtype=np.float64
    )
