"""Output checks against the ground truth the benchmark generated.

Each check reads one pass's output files, never certsift, and returns the
set of items (domains, or the pass's rows for cv-forest) whose output is
wrong, together with a few messages saying why.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import itertools
import json
import math
import os

FEATURE_HEADER = ["domain"] + [f"f{i}" for i in range(1, 16)] + ["label"]


def digest(path: str, drop: tuple[str, ...] = ()) -> str:
    """SHA-256 of a file; for NDJSON, optionally of the records minus some keys."""
    with open(path, "rb") as fh:
        data = fh.read()
    if drop:
        docs = [json.loads(line) for line in data.splitlines() if line.strip()]
        data = "\n".join(
            json.dumps({k: v for k, v in d.items() if k not in drop}, sort_keys=True) for d in docs
        ).encode()
    return hashlib.sha256(data).hexdigest()


def _rows(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def boolean_ceiling(positive: dict, negative: dict) -> float:
    """Best accuracy any rule on f1..f8 alone reaches on balanced data.

    positive and negative are synth spec documents; the features are
    independent, so each of the 256 assignments is a product of marginals.
    """
    names = [f"f{i}" for i in range(1, 9)]
    best = []
    for bits in itertools.product((False, True), repeat=len(names)):
        like = [1.0, 1.0]
        for name, bit in zip(names, bits):
            for side, spec in enumerate((positive, negative)):
                p = spec["booleans"][name]
                like[side] *= p if bit else 1.0 - p
        best.append(max(like))
    return math.fsum(best) / 2


def accuracy_floor(ceiling: float, n_per_class: int) -> float:
    """A forest may fall short of the boolean ceiling by 0.05 plus three
    binomial standard errors of an accuracy measured on 2n rows."""
    return ceiling - 0.05 - 3 * math.sqrt(0.25 / (2 * n_per_class))


def check_cv(out: str, n_per_class: int, folds: int, floor: float) -> tuple[set, list[str]]:
    """Synth CSV and eval report agree with the row counts; accuracy >= floor."""
    why: list[str] = []
    rows = _rows(os.path.join(out, "synth.csv"))
    labels = [r[-1] for r in rows[1:]]
    if rows[:1] != [FEATURE_HEADER] or labels.count("pos") != n_per_class or labels.count("neg") != n_per_class:
        why.append(f"synth.csv: want {n_per_class} pos and neg rows under the feature header")
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    c = report["confusion"]
    if report["rows"] != 2 * n_per_class or c["tp"] + c["fn"] != n_per_class or c["tn"] + c["fp"] != n_per_class:
        why.append(f"report.json: confusion {c} does not total {n_per_class} per class")
    per_fold = report["per_fold"]
    sizes = {n_per_class // folds, -(-n_per_class // folds)}
    if len(per_fold) != folds or any(
        f["tp"] + f["fn"] not in sizes or f["tn"] + f["fp"] not in sizes for f in per_fold
    ):
        why.append("report.json: folds are not stratified")
    if {k: sum(f[k] for f in per_fold) for k in c} != c:
        why.append("report.json: per-fold matrices do not sum to the confusion")
    accuracy = (c["tp"] + c["tn"]) / (2 * n_per_class)
    if report["metrics"]["accuracy"] != accuracy or accuracy < floor:
        why.append(f"report.json: accuracy {report['metrics']['accuracy']} (recomputed {accuracy}, floor {floor})")
    return ({"all"} if why else set()), why


def check_extract(out: str, expected: dict[str, list[str]]) -> tuple[set, list[str]]:
    """Feature rows equal the intended ones; each classify row once, label from score."""
    bad: set[str] = set()
    why: list[str] = []
    rows = _rows(os.path.join(out, "features.csv"))
    if rows[:1] != [FEATURE_HEADER]:
        why.append("features.csv: wrong header")
    seen: set[str] = set()
    for row in rows[1:]:
        domain = row[0] if row else ""
        want = expected.get(domain)
        if want is None or domain in seen or row[1:] != want + [""]:
            bad.add(domain)
            if len(why) < 5:
                why.append(f"features.csv: {domain}: got {row[1:]}, want {want}")
        seen.add(domain)
    bad |= set(expected) - seen
    for kind in ("forest", "knn"):
        name = f"classify-{kind}.csv"
        rows = _rows(os.path.join(out, name))
        if rows[:1] != [["domain", "label", "score"]]:
            why.append(f"{name}: wrong header")
        seen = set()
        for row in rows[1:]:
            try:
                domain, label, score = row
                ok = (
                    domain in expected and domain not in seen and 0.0 <= float(score) <= 1.0
                    and label == ("pos" if float(score) >= 0.5 else "neg")
                )
            except ValueError:
                domain, ok = ",".join(row), False
            if not ok:
                bad.add(domain)
                if len(why) < 5:
                    why.append(f"{name}: bad row {row}")
            seen.add(domain)
        bad |= set(expected) - seen
    if bad and not why:
        why.append(f"{len(bad)} domains missing from the output")
    return bad, why


def check_probe(out: str, domains: list[str], kinds: dict[str, str],
                leaf_fp: dict[str, str], chain_fps: dict[str, list[str]]) -> tuple[set, list[str]]:
    """One record per domain in input order, with the farm's category and leaf."""
    with open(os.path.join(out, "corpus.ndjson"), encoding="utf-8") as fh:
        docs = [json.loads(line) for line in fh if line.strip()]
    bad: set[str] = set(domains[len(docs):])
    why: list[str] = []
    for position, doc in enumerate(docs):
        domain = domains[position] if position < len(domains) else f"#{position}"
        http, https = doc.get("http_ok"), doc.get("https_ok")
        category = {(True, True): "both", (False, True): "https_only",
                    (True, False): "http_only", (False, False): "neither"}.get((http, https))
        cert = doc.get("cert_der_b64")
        fp = hashlib.sha256(base64.b64decode(cert)).hexdigest() if cert else None
        chain = doc.get("chain_der_b64")
        chain = None if chain is None else [hashlib.sha256(base64.b64decode(c)).hexdigest() for c in chain]
        want = kinds.get(domain)
        if (
            doc.get("domain") != domain or category != want or fp != leaf_fp.get(want)
            or (chain is not None and chain != chain_fps.get(want))
        ):
            bad.add(domain)
            if len(why) < 5:
                why.append(f"corpus.ndjson line {position + 1}: {doc.get('domain')} is "
                           f"{category}/{fp}, want {domain} {want}/{leaf_fp.get(want)}")
    if bad and not why:
        why.append(f"{len(bad)} domains missing from the corpus")
    return bad, why
