"""Synthetic labeled feature corpora drawn from per-feature marginals.

A MarginalSpec gives, for one class, a Bernoulli probability for every
boolean feature and a finite support distribution for every categorical
and numeric feature.  Features are sampled independently, which makes the
class-conditional likelihood of any feature subset a product of marginals;
that is what lets bayes_optimal_accuracy compute the exact ceiling any
classifier can reach on data sampled this way.

Ready-made specs digitized from measurements of live certificate
populations ship with the package: alexa, com, net (legitimate traffic)
and phishing, typosquatting (fraud).
"""

from __future__ import annotations

import importlib.resources
import itertools
import json
import math
import os
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import EmptyClass, SpecIncomplete, SubsetTooLarge
from .features import (
    BOOLEAN_FEATURES,
    CATEGORICAL_FEATURES,
    F15_RANGE,
    FEATURE_KINDS,
    KIND_BOOLEAN,
    KIND_CATEGORICAL,
    KIND_INTEGER,
    LABEL_NEGATIVE,
    LABEL_POSITIVE,
    NUMERIC_FEATURES,
    FeatureVector,
)
from .ml.schema import Dataset, default_schema

_PROB_TOLERANCE = 1e-9

MAX_ENUM_FEATURES = 20

SHIPPED_SPEC_NAMES = ("alexa", "com", "net", "phishing", "typosquatting")


def _check_distribution(name: str, pairs: Sequence[tuple], what: str) -> None:
    if not pairs:
        raise SpecIncomplete(f"{what} {name} has no support")
    total = 0.0
    seen = set()
    for value, prob in pairs:
        if value in seen:
            raise SpecIncomplete(f"{what} {name} repeats value {value!r}")
        seen.add(value)
        if not (0.0 <= prob <= 1.0):
            raise SpecIncomplete(f"{what} {name}: probability {prob} out of range")
        total += prob
    if abs(total - 1.0) > _PROB_TOLERANCE:
        raise SpecIncomplete(f"{what} {name}: probabilities sum to {total}, not 1")


def _holds(name: str, value: float) -> bool:
    """Whether a numeric feature can hold value: whole and finite, or in F15_RANGE."""
    if FEATURE_KINDS[name] == KIND_INTEGER:
        return float(value).is_integer()
    return F15_RANGE[0] <= value <= F15_RANGE[1]


@dataclass(frozen=True)
class MarginalSpec:
    """Per-feature marginal distributions for one class label."""

    label: str
    booleans: dict[str, float]
    categoricals: dict[str, tuple[tuple[str, float], ...]]
    numerics: dict[str, tuple[tuple[float, float], ...]]

    def __post_init__(self) -> None:
        if self.label not in (LABEL_POSITIVE, LABEL_NEGATIVE):
            raise ValueError(f"label must be pos or neg, not {self.label!r}")
        for name, prob in self.booleans.items():
            if name not in BOOLEAN_FEATURES:
                raise SpecIncomplete(f"{name} is not a boolean feature")
            if not (0.0 <= prob <= 1.0):
                raise SpecIncomplete(f"boolean {name}: probability {prob} out of range")
        for name, pairs in self.categoricals.items():
            if name not in CATEGORICAL_FEATURES:
                raise SpecIncomplete(f"{name} is not a categorical feature")
            _check_distribution(name, pairs, "categorical")
        for name, pairs in self.numerics.items():
            if name not in NUMERIC_FEATURES:
                raise SpecIncomplete(f"{name} is not a numeric feature")
            _check_distribution(name, pairs, "numeric")
            for value, _ in pairs:
                if not _holds(name, value):
                    raise SpecIncomplete(f"numeric {name}: {value!r} is not a value {name} can hold")

    def require_complete(self) -> None:
        """Check every one of the fifteen features has a distribution."""
        given = self.booleans.keys() | self.categoricals.keys() | self.numerics.keys()
        missing = [name for name in FEATURE_KINDS if name not in given]
        if missing:
            raise SpecIncomplete(f"spec lacks distributions for {', '.join(missing)}")


def _pairs(name: str, entry) -> list:
    """A distribution entry of a spec document: a list of [value,
    probability] lists, or SpecIncomplete."""
    if not isinstance(entry, list) or any(not isinstance(p, list) or len(p) != 2 for p in entry):
        raise SpecIncomplete(f"{name} must be a list of [value, probability] lists")
    return entry


def spec_from_json(doc: dict) -> MarginalSpec:
    sections = ("booleans", "categoricals", "numerics")
    if not isinstance(doc, dict) or any(not isinstance(doc.get(k, {}), dict) for k in sections):
        raise SpecIncomplete(f"a spec and each of its {', '.join(sections)} must be JSON objects")
    try:
        return MarginalSpec(
            label=doc["label"],
            booleans={str(k): float(v) for k, v in doc.get("booleans", {}).items()},
            categoricals={
                str(k): tuple((str(v), float(p)) for v, p in _pairs(k, pairs))
                for k, pairs in doc.get("categoricals", {}).items()
            },
            numerics={
                str(k): tuple((float(v), float(p)) for v, p in _pairs(k, pairs))
                for k, pairs in doc.get("numerics", {}).items()
            },
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecIncomplete(f"spec document does not decode: {exc}") from exc


def spec_to_json(spec: MarginalSpec) -> dict:
    return {
        "label": spec.label,
        "booleans": dict(spec.booleans),
        "categoricals": {k: [list(p) for p in v] for k, v in spec.categoricals.items()},
        "numerics": {k: [list(p) for p in v] for k, v in spec.numerics.items()},
    }


def load_spec(source: str | os.PathLike) -> MarginalSpec:
    """Load a spec from a JSON file path or a shipped spec name."""
    name = os.fspath(source)
    if name in SHIPPED_SPEC_NAMES:
        resource = importlib.resources.files("certsift.specs").joinpath(f"{name}.json")
        doc = json.loads(resource.read_text(encoding="utf-8"))
    else:
        with open(name, encoding="utf-8") as fh:
            doc = json.load(fh)
    return spec_from_json(doc)


def boolean_only_variant(spec: MarginalSpec) -> MarginalSpec:
    """Keep the boolean marginals; pin everything else to shared constants.

    Both classes' variants share the same point-mass categoricals and
    numerics, so data sampled from them carries class signal only in the
    booleans.  That makes a boolean-feature enumeration the exact accuracy
    ceiling for any classifier trained on such data.
    """
    return MarginalSpec(
        label=spec.label,
        booleans=dict(spec.booleans),
        categoricals={name: (("JustNone", 1.0),) for name in CATEGORICAL_FEATURES},
        numerics={"f13": ((365.0, 1.0),), "f14": ((13.0, 1.0),), "f15": ((0.0, 1.0),)},
    )


def _sample_distribution(
    rng: np.random.Generator, pairs: Sequence[tuple], n: int
) -> list:
    values = [value for value, _ in pairs]
    probs = np.array([prob for _, prob in pairs], dtype=np.float64)
    probs = probs / probs.sum()  # sums to 1 within tolerance; make it exact
    picks = rng.choice(len(values), size=n, p=probs)
    return [values[i] for i in picks]


def sample_class(
    spec: MarginalSpec, n: int, rng: np.random.Generator, domain_prefix: str | None = None
) -> list[FeatureVector]:
    """Draw n labeled rows from one class spec (all fifteen features)."""
    if n < 1:
        raise EmptyClass(f"cannot sample {n} rows")
    spec.require_complete()
    prefix = domain_prefix if domain_prefix is not None else spec.label
    columns = []
    for name, kind in FEATURE_KINDS.items():
        if kind == KIND_BOOLEAN:
            column = (rng.random(n) < spec.booleans[name]).tolist()
        elif kind == KIND_CATEGORICAL:
            column = _sample_distribution(rng, spec.categoricals[name], n)
        else:
            cast = int if kind == KIND_INTEGER else float
            column = [cast(v) for v in _sample_distribution(rng, spec.numerics[name], n)]
        columns.append(column)
    return [
        FeatureVector(f"{prefix}-{i:06d}.example", *values, spec.label)
        for i, values in enumerate(zip(*columns))
    ]


def sample_corpus(
    positive: MarginalSpec,
    negative: MarginalSpec,
    n_per_class: int,
    seed: int,
) -> Dataset:
    """Sample a balanced two-class dataset; deterministic in the seed."""
    if positive.label != LABEL_POSITIVE:
        raise ValueError(f"positive spec is labeled {positive.label!r}")
    if negative.label != LABEL_NEGATIVE:
        raise ValueError(f"negative spec is labeled {negative.label!r}")
    rng = np.random.default_rng(seed)
    rows = sample_class(positive, n_per_class, rng, domain_prefix="pos")
    rows += sample_class(negative, n_per_class, rng, domain_prefix="neg")
    return Dataset(rows, default_schema())


def fit_marginals(rows: Iterable[FeatureVector], label: str) -> MarginalSpec:
    """Estimate a MarginalSpec from the rows carrying the given label."""
    selected = [fv for fv in rows if fv.label == label]
    if not selected:
        raise EmptyClass(f"no rows labeled {label!r}")
    n = len(selected)
    booleans = {
        name: sum(1 for fv in selected if fv.value(name)) / n
        for name in BOOLEAN_FEATURES
    }

    def tally(name: str) -> tuple[tuple, ...]:
        counts: dict = {}
        for fv in selected:
            value = fv.value(name)
            counts[value] = counts.get(value, 0) + 1
        return tuple((value, counts[value] / n) for value in sorted(counts))

    categoricals = {name: tally(name) for name in CATEGORICAL_FEATURES}
    numerics = {
        name: tuple((float(v), p) for v, p in tally(name)) for name in NUMERIC_FEATURES
    }
    return MarginalSpec(
        label=label, booleans=booleans, categoricals=categoricals, numerics=numerics
    )


def _boolean_marginals(
    positive: MarginalSpec, negative: MarginalSpec, features: Sequence[str]
) -> tuple[list[float], list[float]]:
    """Each spec's probability for each of the given boolean features."""
    for name in features:
        if name not in BOOLEAN_FEATURES:
            raise SpecIncomplete(f"{name} is not a boolean feature")
        if name not in positive.booleans or name not in negative.booleans:
            raise SpecIncomplete(f"both specs must give a probability for {name}")
    return [positive.booleans[n] for n in features], [negative.booleans[n] for n in features]


def _likelihoods(bits: Iterable, p_pos: list[float], p_neg: list[float]) -> tuple[float, float]:
    """Each class's likelihood of these feature values, multiplied in feature order."""
    like_pos = 1.0
    like_neg = 1.0
    for bit, pp, pn in zip(bits, p_pos, p_neg):
        like_pos *= pp if bit else 1.0 - pp
        like_neg *= pn if bit else 1.0 - pn
    return like_pos, like_neg


def bayes_optimal_accuracy(
    positive: MarginalSpec,
    negative: MarginalSpec,
    features: Sequence[str],
) -> float:
    """Exact best possible accuracy on balanced data from these specs.

    Enumerates every assignment of the given boolean features, assuming
    class-balanced sampling and feature independence (which is how
    sample_corpus draws data).  The optimum classifier picks the likelier
    class at each point, so the accuracy is the mean of max(P_pos, P_neg)
    over the enumeration; the terms are combined with exact float
    summation so the result is reproducible to the last bit.  Identical
    specs come out at 0.5.
    """
    features = list(features)
    if not features:
        raise SpecIncomplete("no features to enumerate")
    if len(features) > MAX_ENUM_FEATURES:
        raise SubsetTooLarge(
            f"{len(features)} features would enumerate 2^{len(features)} points "
            f"(limit {MAX_ENUM_FEATURES})"
        )
    p_pos, p_neg = _boolean_marginals(positive, negative, features)
    terms = [
        max(_likelihoods(assignment, p_pos, p_neg))
        for assignment in itertools.product((False, True), repeat=len(features))
    ]
    return math.fsum(terms) / 2.0


def bayes_rule(
    positive: MarginalSpec,
    negative: MarginalSpec,
    features: Sequence[str],
):
    """The classifier bayes_optimal_accuracy assumes: likelier class wins.

    Returns a callable mapping a FeatureVector to pos or neg; ties go to
    pos, matching the max() in the accuracy enumeration.
    """
    features = list(features)
    p_pos, p_neg = _boolean_marginals(positive, negative, features)

    def classify(fv: FeatureVector) -> str:
        like_pos, like_neg = _likelihoods(map(fv.value, features), p_pos, p_neg)
        return LABEL_POSITIVE if like_pos >= like_neg else LABEL_NEGATIVE

    return classify
