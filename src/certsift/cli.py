"""Command-line front end for the harvest/extract/train/report pipeline.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 data error (malformed
certificate, corrupt corpus or model, mismatched index, a text input that
is not UTF-8, and the like).
File outputs are written to a temporary file and renamed into place, so a
failing run never leaves a partial output file behind.  The exception is
the probe corpus, which is appended to record by record, so a re-probe
adds to it and a crash keeps every record already harvested.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import sys
import tempfile
from collections.abc import Iterator

# load_corpus is called nowhere here; perfbench/tracing.py still wraps cli.load_corpus
from .corpus import CorpusFile, CorpusWriter, load_corpus, record_to_line  # noqa: F401
from .errors import CertsiftError, MalformedInput, StorageFull, UsageError, reading
from .features import (
    BogusValueList,
    DEFAULT_SHINGLE_SIZE,
    NUMERIC_FEATURES,
    csv_row_writer,
    extract_corpus,
    read_features_csv,
    write_features_csv,
)
from .certs import load_trust_store
from .ml import (
    DEFAULT_SEED,
    Dataset,
    MODEL_KINDS,
    cross_validate,
    load_model,
    resolve_hyperparameters,
    train,
)
from .ml.persist import write_model
from .probe import ProbeConfig, canonical_domain, probe_corpus
from .report import boolean_feature_table, feature_cdf, write_cdf_csv
from .synth import load_spec, sample_corpus


@contextlib.contextmanager
def _atomic_output(path: str | None) -> Iterator:
    """Text stream that becomes `path` only if the writer finishes."""
    if path is None or path == "-":
        yield sys.stdout
        sys.stdout.flush()
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".certsift-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def _rereadable(path: str) -> Iterator[str]:
    """path if it is a regular file, else (a pipe, /dev/stdin) a copy of it
    in TMPDIR, made 64 KiB at a time and removed as the block ends: the one
    place that knows whether an input can be read twice.  An error raised
    in the block names path, not the copy."""
    if os.path.isfile(path):
        yield path
        return
    fd, copy = tempfile.mkstemp(prefix="certsift-")
    try:
        with os.fdopen(fd, "wb") as out, open(path, "rb") as source:
            shutil.copyfileobj(source, out, 1 << 16)
        yield copy
    except CertsiftError as exc:
        raise type(exc)(str(exc).replace(copy, path)) from exc
    finally:
        os.unlink(copy)


def _read_domain_list(path: str) -> Iterator[str]:
    """The names of a domain list, one a line, without blank lines and #
    comments, from a second read (see _rereadable) as probe_corpus asks;
    the first, a piece at a time, fails text that is not UTF-8 up front."""
    with reading(path, MalformedInput) as fh:
        while fh.read(1 << 16):
            pass
    return _domain_names(path)


def _domain_names(path: str) -> Iterator[str]:
    with reading(path, MalformedInput) as fh:
        for line in fh:
            name = line.strip()
            if name and not name.startswith("#"):
                yield name


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _pair(entry: str, flag: str, form: str) -> tuple[str, str]:
    """Split a KEY=VALUE flag value; either side empty is a usage error."""
    key, sep, value = entry.partition("=")
    if not sep or not key or not value:
        raise UsageError(f"{flag} wants {form}, got {entry!r}")
    return key, value


# --- subcommand handlers ----------------------------------------------------


def _cmd_probe(args: argparse.Namespace) -> int:
    pairs = [_pair(entry, "--resolve", "DOMAIN=ADDRESS") for entry in args.resolve or ()]
    mapping = {canonical_domain(domain): address for domain, address in pairs}
    resolver = (lambda host: mapping.get(host, host)) if mapping else None
    try:
        config = ProbeConfig(
            connect_timeout_ms=args.timeout,
            handshake_timeout_ms=args.timeout,
            max_concurrency=args.concurrency,
            retries=args.retries,
            http_port=args.http_port,
            https_port=args.https_port,
            resolver=resolver,
        )
    except ValueError as exc:  # an option out of range
        raise UsageError(str(exc)) from None
    with _rereadable(args.domains) as path:
        domains = _read_domain_list(path)
        if args.out in (None, "-"):
            summary = probe_corpus(domains, config, sink=lambda r: print(record_to_line(r)))
            sys.stdout.flush()
        else:
            with CorpusWriter(args.out, append=True) as writer:
                summary = probe_corpus(domains, config, sink=writer.append)
    _note(
        f"probed {summary.total} domains: {summary.both} both, "
        f"{summary.https_only} https_only, {summary.http_only} http_only, "
        f"{summary.neither} neither"
    )
    return 0


def _extract_vectors(args: argparse.Namespace) -> tuple[int, list]:
    """(record count of --corpus, its feature vectors); damage fails before any work."""
    with contextlib.ExitStack() as inputs:
        corpus = CorpusFile(inputs.enter_context(_rereadable(args.corpus)))
        index = (CorpusFile(inputs.enter_context(_rereadable(args.index_corpus)))
                 if args.index_corpus else None)
        trust = load_trust_store(args.trust_store) if args.trust_store else []
        bogus = BogusValueList.from_file(args.bogus_list) if args.bogus_list else None
        return corpus.records, extract_corpus(corpus, trust_store=trust, bogus=bogus,
                                              shingle_size=args.shingle, index_records=index)


def _cmd_extract(args: argparse.Namespace) -> int:
    records, vectors = _extract_vectors(args)
    with _atomic_output(args.out) as out:
        count = write_features_csv(out, vectors)
    _note(f"extracted {count} feature vectors from {records} records")
    return 0


def _hyperparameters(args: argparse.Namespace) -> dict:
    """The hyperparameters of --algo with the override flags given; a flag
    the kind has no use for, or a value below 1, is a usage error."""
    keys = ("n_trees", "max_depth", "min_leaf", "k")
    overrides = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    try:
        return resolve_hyperparameters(args.algo, overrides)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_train(args: argparse.Namespace) -> int:
    hyperparameters = _hyperparameters(args)
    dataset = Dataset(read_features_csv(args.features))
    model = train(dataset, args.algo, hyperparameters, seed=args.seed)
    with _atomic_output(args.model_out) as out:
        write_model(model, out)
    _note(
        f"trained {args.algo} on {len(dataset)} rows (seed {args.seed}); "
        f"model -> {args.model_out or 'stdout'}"
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    hyperparameters = _hyperparameters(args)
    if args.cv < 2:
        raise UsageError(f"--cv must be at least 2, got {args.cv}")
    dataset = Dataset(read_features_csv(args.features))
    report = cross_validate(
        dataset, args.algo, k=args.cv, hyperparameters=hyperparameters, seed=args.seed
    )
    with _atomic_output(args.out) as out:
        out.write(report.to_json())
    _note(report.to_table().rstrip("\n"))
    _note(f"cross-validated {args.algo} with {args.cv} folds (seed {args.seed})")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    if bool(args.features) == bool(args.corpus):
        raise UsageError("exactly one of --features or --corpus is required")
    model = load_model(args.model)
    vectors = read_features_csv(args.features) if args.features else _extract_vectors(args)[1]
    labels, scores = model.predict_batch(vectors)
    with _atomic_output(args.out) as out:
        writerow = csv_row_writer(out)
        writerow(("domain", "label", "score"))
        for fv, label, score in zip(vectors, labels, scores):
            writerow((fv.domain, label, f"{score:.6f}"))
    _note(f"classified {len(vectors)} rows with the {model.kind} model")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.mode == "table":
        if not args.features:
            raise UsageError("table mode wants at least one --features NAME=PATH")
        pairs = [_pair(entry, "--features", "NAME=PATH") for entry in args.features]
        table = boolean_feature_table([(name, read_features_csv(path)) for name, path in pairs])
        with _atomic_output(args.out) as out:
            table.write_csv(out)
        return 0
    # cdf mode
    if len(args.features) != 1 or "=" in args.features[0]:
        raise UsageError("cdf mode wants exactly one --features PATH")
    if not args.column:
        raise UsageError("cdf mode wants --column f13|f14|f15")
    rows = read_features_csv(args.features[0])
    series = feature_cdf(rows, args.column)
    with _atomic_output(args.out) as out:
        write_cdf_csv(out, series)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise UsageError(f"--n must be positive, got {args.n}")
    positive = load_spec(args.pos_spec)
    negative = load_spec(args.neg_spec)
    if positive.label != "pos":
        raise UsageError(f"--pos-spec {args.pos_spec} is labeled {positive.label!r}")
    if negative.label != "neg":
        raise UsageError(f"--neg-spec {args.neg_spec} is labeled {negative.label!r}")
    dataset = sample_corpus(positive, negative, args.n, args.seed)
    with _atomic_output(args.out) as out:
        count = write_features_csv(out, dataset.rows)
    _note(f"sampled {count} rows, {args.n} per class (seed {args.seed})")
    return 0


# --- parser -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="certsift",
        description="Harvest TLS certificates, extract fraud-signal features, "
        "and train fraud classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add_extraction_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trust-store", help="PEM bundle of trust anchors")
        p.add_argument("--bogus-list", help="file of placeholder subject values, one per line")
        p.add_argument("--shingle", type=int, default=DEFAULT_SHINGLE_SIZE, choices=(1, 2, 3),
                       help="shingle size for the name-similarity feature")
        p.add_argument("--index-corpus",
                       help="corpus to compute duplicate features against "
                       "(default: --corpus itself)")

    def add_training_flags(p: argparse.ArgumentParser, with_model_out: bool) -> None:
        p.add_argument("--features", required=True, help="labeled feature CSV")
        p.add_argument("--algo", required=True, choices=MODEL_KINDS)
        if with_model_out:
            p.add_argument("--model-out", help="model JSON output (default: stdout)")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--trees", type=int, dest="n_trees", metavar="TREES",
                       help="ensemble size override")
        p.add_argument("--depth", type=int, dest="max_depth", metavar="DEPTH",
                       help="tree depth override")
        p.add_argument("--min-leaf", type=int, help="minimum rows per leaf override")
        p.add_argument("--k", type=int, help="neighbor count override")

    p = sub.add_parser("probe", help="probe domains over HTTP/HTTPS and harvest certificates")
    p.add_argument("--domains", required=True, help="file with one domain per line")
    p.add_argument("--out", help="NDJSON corpus output (default: stdout)")
    p.add_argument("--timeout", type=int, default=5000, metavar="MS",
                   help="connect and handshake timeout in milliseconds")
    p.add_argument("--retries", type=int, default=1)
    p.add_argument("--concurrency", type=int, default=16)
    p.add_argument("--http-port", type=int, default=80)
    p.add_argument("--https-port", type=int, default=443)
    p.add_argument("--resolve", action="append", metavar="DOMAIN=ADDRESS",
                   help="dial ADDRESS for DOMAIN instead of resolving it (repeatable)")
    p.set_defaults(handler=_cmd_probe)

    p = sub.add_parser("extract", help="extract feature vectors from a harvested corpus")
    p.add_argument("--corpus", required=True, help="NDJSON corpus from probe")
    p.add_argument("--out", help="feature CSV output (default: stdout)")
    add_extraction_flags(p)
    p.set_defaults(handler=_cmd_extract)

    p = sub.add_parser("train", help="train a classifier on labeled features")
    add_training_flags(p, with_model_out=True)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("eval", help="cross-validate a classifier on labeled features")
    add_training_flags(p, with_model_out=False)
    p.add_argument("--cv", type=int, default=10, help="fold count")
    p.add_argument("--out", help="JSON report output (default: stdout)")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("classify", help="apply a trained model")
    p.add_argument("--model", required=True, help="model JSON from train")
    p.add_argument("--features", help="feature CSV to classify")
    p.add_argument("--corpus", help="NDJSON corpus to extract and classify")
    add_extraction_flags(p)
    p.add_argument("--out", help="CSV output (default: stdout)")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("report", help="summarize feature distributions")
    p.add_argument("--mode", required=True, choices=("table", "cdf"))
    p.add_argument("--features", action="append", default=[],
                   metavar="NAME=PATH|PATH",
                   help="table mode: NAME=PATH per corpus (repeatable); "
                   "cdf mode: one feature CSV path")
    p.add_argument("--column", choices=NUMERIC_FEATURES,
                   help="numeric feature for cdf mode")
    p.add_argument("--out", help="CSV output (default: stdout)")
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser("synth", help="sample a labeled synthetic feature corpus")
    p.add_argument("--pos-spec", required=True,
                   help="fraud-class spec: shipped name or JSON path")
    p.add_argument("--neg-spec", required=True,
                   help="legitimate-class spec: shipped name or JSON path")
    p.add_argument("--n", type=int, required=True, help="rows per class")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", help="feature CSV output (default: stdout)")
    p.set_defaults(handler=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (StorageFull, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except CertsiftError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
