"""Spans around certsift's layer boundaries, recorded from outside the program.

A Tracer replaces a public function or method where the calling module
looks it up (for example certsift.ml.classifiers.grow_tree, which is what
classifiers.train calls) with a wrapper that records a span: id, name,
start, end, parent span, pass and a tag.  Spans stay in memory until the
worker writes them out at the end.  A boundary whose name no longer exists
is listed in Tracer.missing instead of failing the run.

summarize() turns spans into per-pass numbers: total time per span name,
self time (duration minus the part covered by child spans), call counts
and tag histograms.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import threading
import time
from collections.abc import Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent, pass, tag)
        self.counts: dict[tuple[int, str], int] = {}
        self.missing: list[str] = []
        self.pass_id = -1  # -1 is set-up
        self.inflight = 0
        self.inflight_peak = 0
        self.waits: list[tuple[int, float]] = []  # (pass, seconds) per drained record
        self._finished: dict[int, float] = {}  # id(record) -> end of its probe
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = self._stack()  # spans of pool threads hang off this one
        self._patches: list[tuple[object, str, object, bool]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _patch(self, owner, attr: str, make: Callable) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        inherited = isinstance(owner, type) and attr not in vars(owner)
        wrapper = functools.wraps(original)(make(original))
        self._patches.append((owner, attr, original, inherited))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name, tag: Callable | None = None) -> None:
        """Record a span per call; name may be a function of the arguments.

        tag(args, result) labels the span; a call that raises is tagged
        "raised".
        """
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else (tracer._root[-1] if tracer._root else None)
                sid = next(tracer._ids)
                label = name(args) if callable(name) else name
                pass_id = tracer.pass_id
                stack.append(sid)
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    stack.pop()
                    tracer.spans.append((sid, label, start, time.perf_counter(), parent, pass_id, "raised"))
                    raise
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, label, start, end, parent, pass_id, tag(args, result) if tag else None)
                )
                return result

            return wrapper

        self._patch(owner, attr, make)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls only, for boundaries too hot for a span each."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                key = (tracer.pass_id, name)
                with tracer._lock:
                    tracer.counts[key] = tracer.counts.get(key, 0) + 1
                return original(*args, **kwargs)

            return wrapper

        self._patch(owner, attr, make)

    def gauge(self, owner, attr: str) -> None:
        """Track how many calls are in flight at once, and when each ended."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                with tracer._lock:
                    tracer.inflight += 1
                    tracer.inflight_peak = max(tracer.inflight_peak, tracer.inflight)
                try:
                    result = original(*args, **kwargs)
                finally:
                    with tracer._lock:
                        tracer.inflight -= 1
                tracer._finished[id(result)] = time.perf_counter()
                return result

            return wrapper

        self._patch(owner, attr, make)

    def drain(self, owner, attr: str) -> None:
        """At a sink, record how long each record waited since its probe ended."""
        tracer = self

        def make(original):
            def wrapper(writer, record, *args, **kwargs):
                end = tracer._finished.pop(id(record), None)
                if end is not None:
                    tracer.waits.append((tracer.pass_id, time.perf_counter() - end))
                return original(writer, record, *args, **kwargs)

            return wrapper

        self._patch(owner, attr, make)

    def uninstall(self) -> None:
        for owner, attr, original, inherited in reversed(self._patches):
            if inherited:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        self.missing.clear()


def _digest(blob) -> str:
    if isinstance(blob, str):
        blob = blob.encode("utf-8", errors="replace")
    return hashlib.sha256(bytes(blob)).hexdigest()[:16]


def _nodes(root: dict) -> int:
    count, todo = 0, [root]
    while todo:
        node = todo.pop()
        count += 1
        if node.get("node") == "split":
            todo += [node["left"], node["right"]]
    return count


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on.

    Names are patched in the module that calls them, which is where
    certsift imported them; methods are patched on their class.
    """
    import certsift.certs as certs
    import certsift.cli as cli
    import certsift.corpus as corpus
    import certsift.features as features
    import certsift.ml as ml
    import certsift.ml.classifiers as classifiers
    import certsift.ml.evaluate as evaluate
    import certsift.ml.persist as persist
    import certsift.ml.schema as schema
    import certsift.probe as probe

    tracer.span(cli, "main", lambda a: f"cli.{a[0][0] if a and a[0] else 'none'}")
    # synth and evaluate, as the CLI reaches them
    tracer.span(cli, "sample_corpus", "synth.sample")
    tracer.span(cli, "write_features_csv", "features.csv_write")
    tracer.span(cli, "read_features_csv", "features.csv_read")
    tracer.span(cli, "cross_validate", "evaluate.cross_validate")
    tracer.span(evaluate, "train", "classifiers.train")
    tracer.span(ml, "train", "classifiers.train")
    # classifiers, tree and schema
    tracer.span(classifiers, "grow_tree", "tree.grow", tag=lambda a, r: _nodes(r))
    tracer.span(classifiers, "decode_tree", "classifiers.decode")
    tracer.span(schema.Dataset, "canonical_order", "schema.canonical_order")
    tracer.span(schema.Encoder, "encode_rows", "schema.encode")
    for cls in (classifiers.DecisionTreeModel, classifiers.TreeEnsembleModel,
                classifiers.NearestNeighborModel):
        tracer.span(cls, "predict_batch", "classifiers.predict_batch")
        tracer.span(cls, "predict", lambda a: f"classifiers.predict.{a[0].kind}")
    # persistence
    tracer.span(persist, "save_model", "persist.save")
    tracer.span(cli, "load_model", "persist.load")
    # corpus reads and extraction
    tracer.span(cli, "load_corpus", "corpus.load", tag=lambda a, r: len(r))
    tracer.span(cli, "load_trust_store", "certs.trust_load")
    tracer.span(cli, "extract_corpus", "features.extract_corpus", tag=lambda a, r: len(r))
    tracer.span(features, "build_corpus_index", "corpus.index")
    for where in (certs, corpus, features):
        site = where.__name__.rsplit(".", 1)[-1]
        tracer.span(where, "parse_certificate", f"certs.parse@{site}",
                    tag=lambda a, r: _digest(a[0]))
    tracer.span(features, "verify_chain", "certs.verify", tag=lambda a, r: r.verdict.value)
    tracer.count(certs, "dn_equal", "certs.dn_equal")
    tracer.count(features, "dn_equal", "certs.dn_equal")
    # probe and corpus writes
    tracer.span(probe, "probe_corpus", "probe.corpus")
    tracer.gauge(probe, "probe_domain")
    tracer.span(probe, "probe_domain", "probe.domain", tag=lambda a, r: r.category)
    tracer.span(corpus.CorpusWriter, "append", "corpus.append")
    tracer.drain(corpus.CorpusWriter, "append")


def summarize(spans: list, counts: dict, pass_id: int) -> dict:
    """Per-name totals for one pass: seconds, self seconds, calls, tags."""
    mine = [s for s in spans if s[5] == pass_id]
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, name, start, end, parent, _, _ in mine:
        children.setdefault(parent, []).append((start, end))
    out: dict[str, dict] = {}
    for sid, name, start, end, parent, _, tag in mine:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "tags": []})
        entry["s"] += end - start
        entry["self_s"] += end - start - covered
        entry["calls"] += 1
        entry["tags"].append(tag)
    for (p, name), n in counts.items():
        if p == pass_id:
            out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "tags": []})["calls"] += n
    return out
