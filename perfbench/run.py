"""certsift benchmark: three seeded, network-free workloads.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, all closed loop (one caller, or the program's own pool):
  cv-forest         synth phishing vs alexa, written to CSV, read back and
                    cross-validated: certsift eval --algo forest --cv 5
                    --trees 25.  Stresses ml.tree growth.
  extract-classify  a generated NDJSON certificate corpus and a 150-anchor
                    trust store through certsift extract --trust-store,
                    then classify with a 100-tree forest and with k-NN,
                    both trained in set-up.  Stresses certs, corpus reads,
                    features, ml.persist and per-row prediction.
  probe-loopback    probe_corpus at concurrency 2, retries 0, into a
                    CorpusWriter, against a loopback farm in its own
                    process.  Stresses probe and corpus writes.

Every input comes from --seed; every output is checked against the
generator's ground truth (checks.py), and a failed check makes the command
exit 1.  The workload runs in a worker process of its own (worker.py).

--trace 0 measures without layer wrappers (probe-loopback keeps one
timer around probe_domain) and prints the end-to-end metrics:
items_per_ref_s (median over passes of items per reference second, see
CAL_REF_S), setup_s (median of three set-ups, each in a fresh process,
in seconds at reference speed) and peak_rss_mib (the measuring worker's
peak).  Raw items per second and raw set-up seconds are printed too.
--trace 1 runs every workload, each for half of --seconds with untraced
and traced passes alternating, and prints the per-layer metrics
(tracing.py), among them trace.overhead_frac.<workload>.  Counts come
from the first traced pass and must repeat in every other traced pass.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it describe the
machine, the inputs, each metric and SHA-256 digests of the outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("cv-forest", "extract-classify", "probe-loopback")
SETUP_RUNS = 3
CONCURRENCY = 2
CV_FOLDS = 5
DEADLINE_S = 170
# A reference second is the time worker.calibrate() takes divided by this
# constant.  Each pass and each set-up is rescaled by calibrations made just
# before and after it, so that throughput and set-up time stay comparable
# while a shared host changes speed (by up to half, for minutes at a time).
CAL_REF_S = 0.1
VERDICTS = ("Verified", "SelfSigned", "UntrustedRoot", "Expired", "NotYetValid",
            "BadSignature", "MalformedChain")


def sizes(scale: float) -> dict[str, dict]:
    def n(value: int, least: int) -> int:
        return max(least, round(value * scale))

    return {
        "cv-forest": {"rows_per_class": n(200, 10)},
        "extract-classify": {"records": n(1000, 40), "train_records": n(1200, 40), "anchors": n(150, 4)},
        "probe-loopback": {"domains": n(500, 8)},
    }


class Failure(Exception):
    """The run cannot produce a result; the message says why."""


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise Failure(f"the run took longer than {DEADLINE_S} s")
    return left


# --- inputs ------------------------------------------------------------------


def make_inputs(workload: str, seed: int, size: dict, work: str) -> tuple[dict, object]:
    """Write the workload's inputs under work; returns (job inputs, ground truth)."""
    os.makedirs(work)
    if workload == "cv-forest":
        specs = []
        for name in ("phishing", "alexa"):
            with open(os.path.join("src", "certsift", "specs", f"{name}.json"), encoding="utf-8") as fh:
                specs.append(json.load(fh))
        return dict(size), checks.accuracy_floor(checks.boolean_ceiling(*specs), size["rows_per_class"])
    if workload == "extract-classify":
        corpus = gen.generate_corpus(seed, size["records"], size["anchors"])
        train = gen.generate_corpus(seed, size["train_records"], size["anchors"], stream="train")
        paths = {k: os.path.join(work, k) for k in ("corpus.ndjson", "trust.pem", "train.csv")}
        with open(paths["corpus.ndjson"], "w", encoding="utf-8") as fh:
            fh.write("\n".join(corpus.lines) + "\n")
        with open(paths["trust.pem"], "wb") as fh:
            fh.write(corpus.trust_pem)
        with open(paths["train.csv"], "w", encoding="utf-8") as fh:
            fh.write(train.training_csv())
        inputs = {"corpus": paths["corpus.ndjson"], "trust_store": paths["trust.pem"],
                  "train_csv": paths["train.csv"], "records": len(corpus.lines)}
        return inputs, corpus
    plan = gen.generate_farm(seed, size["domains"])
    for kind, blob in plan.pems.items():
        with open(os.path.join(work, f"{kind}.pem"), "wb") as fh:
            fh.write(blob)
    addresses = {d: gen.FARM_ADDRESSES[k] for d, k in plan.kinds.items()}
    if not all(a.startswith("127.") for a in addresses.values()):
        raise Failure("a probe address is not loopback")
    inputs = {"domains": plan.domains, "addresses": addresses, "concurrency": CONCURRENCY}
    return inputs, plan


# --- processes ---------------------------------------------------------------


class Farm:
    """The loopback farm process; closing its stdin stops it."""

    def __init__(self, certdir: str, log, deadline: float):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "farm.py"), certdir, json.dumps(gen.FARM_ADDRESSES)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log, text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], min(60.0, _remaining(deadline)))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.stop()
            raise Failure("the loopback farm did not start")
        self.ports = json.loads(line)
        self.start_s = time.perf_counter() - start

    def stop(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_worker(job: dict, work: str, tag: str, log, deadline: float) -> dict:
    job = dict(job, work=os.path.join(work, tag), result=os.path.join(work, f"{tag}.json"))
    os.makedirs(job["work"])
    job_path = os.path.join(work, f"{tag}.job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job_path],
                              stdout=log, stderr=log, timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        raise Failure(f"{job['workload']} worker ran past the deadline") from None
    if proc.returncode != 0:
        raise Failure(f"{job['workload']} worker exited with {proc.returncode}; see its log above")
    with open(job["result"], encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, scale: float, traced: bool,
                 work: str, log, deadline: float) -> dict:
    """Inputs, set-ups, the measured worker and the output checks of one workload."""
    work = os.path.join(work, workload)
    size = sizes(scale)[workload]
    inputs, truth = make_inputs(workload, seed, size, os.path.join(work, "inputs"))
    job = {"workload": workload, "seed": seed, "src": os.path.abspath("src"), "inputs": inputs,
           "trace": traced, "seconds": seconds,
           "phases": ["untraced", "traced"] if traced else ["untraced"]}
    setups = []
    for index in range(1 if traced else SETUP_RUNS):
        mode = "run" if index == (0 if traced else SETUP_RUNS - 1) else "setup"
        farm = None
        if workload == "probe-loopback":
            farm = Farm(os.path.join(work, "inputs"), log, deadline)
            job["farm"] = farm.ports
        try:
            result = run_worker(dict(job, mode=mode), work, f"{mode}-{index}", log, deadline)
        finally:
            if farm is not None:
                farm.stop()
        raw = result["setup_s"] + (farm.start_s if farm else 0.0)
        setups.append((raw, raw * CAL_REF_S / result["setup_calibration_s"]))
    result["setups_s"] = setups
    result["size"] = size

    failed, why = 0, []
    digests: dict[str, str] = {}
    for index, one in enumerate(result["passes"]):
        out = one["dir"]
        try:
            if workload == "cv-forest":
                bad, msgs = checks.check_cv(out, size["rows_per_class"], CV_FOLDS, truth)
                files = ["synth.csv", "report.json"]
            elif workload == "extract-classify":
                bad, msgs = checks.check_extract(out, truth.expected)
                files = ["features.csv", "classify-forest.csv", "classify-knn.csv"]
            else:
                bad, msgs = checks.check_probe(out, truth.domains, truth.kinds, truth.leaf_fp,
                                               truth.chain_fps)
                files = []  # records carry wall-clock harvest times
                if index == 0:
                    digests["corpus.ndjson (harvest_time dropped)"] = checks.digest(
                        os.path.join(out, "corpus.ndjson"), drop=("harvest_time",))
            for name in files:  # the same inputs must give the same bytes every pass
                value = checks.digest(os.path.join(out, name))
                if digests.setdefault(name, value) != value:
                    msgs.append(f"{name} differs from pass 0")
                    bad = {"all"}
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            bad, msgs = {"all"}, [f"output does not parse: {exc!r}"]
        failed += one["items"] if "all" in bad else min(len(bad), one["items"])
        why += [f"{workload} pass {index}: {m}" for m in msgs]
    for kind, path in result.get("models", {}).items():
        digests[f"{kind}.json (model)"] = checks.digest(path)
    result["model_bytes"] = sum(os.path.getsize(p) for p in result.get("models", {}).values())
    result.update(failed=failed, attempted=sum(p["items"] for p in result["passes"]),
                  why=why, digests=digests)
    return result


# --- metrics -----------------------------------------------------------------


def _rates(result: dict, phase: str, reference: bool = True) -> list[float]:
    """Items per second of each pass; with reference, per reference second."""
    return [p["items"] / p["seconds"] * (p["calibration_s"] / CAL_REF_S if reference else 1.0)
            for p in result["passes"] if p["phase"] == phase]


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(result: dict) -> dict:
    return {
        "items_per_ref_s": (statistics.median(_rates(result, "untraced")), "1/ref_s"),
        "setup_s": (statistics.median(ref for _, ref in result["setups_s"]), "s"),
        "peak_rss_mib": (result["peak_rss_kib"] / 1024, "MiB"),
    }


def per_layer(results: dict[str, dict]) -> tuple[dict, list[str], list[str]]:
    """Per-layer numbers of each workload's traced passes (see module doc).

    Returns the metrics, the problems that fail the run, and the boundaries
    that no longer exist in certsift (their numbers read 0).
    """
    metrics: dict[str, tuple[float, str]] = {}
    problems: list[str] = []
    missing: set[str] = set()

    for workload, result in results.items():
        trace = result["trace"]
        missing.update(trace["missing"])
        passes = [i for i, p in enumerate(result["passes"]) if p["phase"] == "traced"]
        per_pass = [tracing.summarize(trace["spans"], {(p, n): c for p, n, c in trace["counts"]}, i)
                    for i in passes]

        def total(name: str, field: str = "s", where=per_pass) -> list[float]:
            return [sum(v[field] for k, v in s.items() if k == name or k.startswith(name + "@"))
                    for s in where]

        def tags(name: str, where=per_pass) -> list[list]:
            return [[t for k, v in s.items() if k == name or k.startswith(name + "@") for t in v["tags"]]
                    for s in where]

        def timed(metric: str, values: list[float], unit: str = "s") -> None:
            metrics[metric] = (statistics.median(values), unit)

        def counted(metric: str, values: list, unit: str = "count") -> None:
            if any(v != values[0] for v in values):
                problems.append(f"{workload}: {metric} differs between traced passes: {values}")
            metrics[metric] = (values[0], unit)

        untraced = statistics.median(_rates(result, "untraced"))
        metrics[f"trace.overhead_frac.{workload}"] = (
            1 - statistics.median(_rates(result, "traced")) / untraced, "frac")
        cli_self = [sum(v["self_s"] for k, v in s.items() if k.startswith("cli.")) for s in per_pass]

        if workload == "cv-forest":
            timed("tree.grow_s", total("tree.grow"))
            counted("tree.grow_calls", total("tree.grow", "calls"))
            counted("tree.nodes", [sum(t) for t in tags("tree.grow")])
            timed("schema.canonical_order_s", total("schema.canonical_order"))
            timed("schema.encode_s", total("schema.encode"))
            timed("evaluate.cv_self_s", total("evaluate.cross_validate", "self_s"))
            timed("classifiers.decode_s", total("classifiers.decode"))
            timed("classifiers.predict_batch_s", total("classifiers.predict_batch"))
            timed("synth.sample_s", total("synth.sample"))
            timed("features.csv_write_s.cv-forest", total("features.csv_write"))
            timed("features.csv_read_s.cv-forest", total("features.csv_read"))
            timed("cli.self_s.cv-forest", cli_self)
        elif workload == "extract-classify":
            setup = [tracing.summarize(trace["spans"], {}, -1)]
            metrics["tree.grow_s.setup"] = (total("tree.grow", where=setup)[0], "s")
            metrics["tree.nodes.setup"] = (sum(tags("tree.grow", where=setup)[0]), "count")
            metrics["persist.save_s"] = (total("persist.save", where=setup)[0], "s")
            metrics["persist.model_bytes"] = (result["model_bytes"], "bytes")
            timed("persist.load_s", total("persist.load"))
            timed("corpus.load_s", total("corpus.load"))
            counted("corpus.records", [sum(t) for t in tags("corpus.load")])
            timed("corpus.index_s", total("corpus.index"))
            timed("certs.trust_load_s", total("certs.trust_load"))
            timed("certs.parse_s", total("certs.parse"))
            parse_calls = total("certs.parse", "calls")
            counted("certs.parse_calls", parse_calls)
            counted("certs.parse_per_cert", [c / max(1, len(set(t))) for c, t in
                                             zip(parse_calls, tags("certs.parse"))], "ratio")
            timed("certs.verify_s", total("certs.verify"))
            counted("certs.verify_calls", total("certs.verify", "calls"))
            counted("certs.dn_equal_calls", total("certs.dn_equal", "calls"))
            verdicts = tags("certs.verify")
            for verdict in VERDICTS:
                counted(f"certs.verdict.{verdict}", [t.count(verdict) for t in verdicts])
            timed("features.extract_self_s", total("features.extract_corpus", "self_s"))
            counted("features.vectors", [sum(t) for t in tags("features.extract_corpus")])
            counted("features.skipped", [t.count("raised") for t in tags("certs.parse@features")])
            timed("features.csv_write_s.extract-classify", total("features.csv_write"))
            timed("features.csv_read_s.extract-classify", total("features.csv_read"))
            for kind in ("forest", "knn"):
                spent = total(f"classifiers.predict.{kind}")
                rows = total(f"classifiers.predict.{kind}", "calls")
                timed(f"classifiers.predict_s.{kind}", spent)
                timed(f"classifiers.predict_us_per_row.{kind}",
                      [1e6 * s / max(1, n) for s, n in zip(spent, rows)], "us")
            timed("cli.self_s.extract-classify", cli_self)
        else:
            categories = tags("probe.domain")
            counted("probe.domains", [len(t) for t in categories])
            for category in ("both", "https_only", "http_only", "neither"):
                counted(f"probe.category.{category}", [t.count(category) for t in categories])
            metrics["probe.inflight_peak"] = (trace["inflight_peak"], "count")
            if trace["inflight_peak"] > CONCURRENCY:
                problems.append(f"probe had {trace['inflight_peak']} probes in flight, above {CONCURRENCY}")
            waits = [1000 * w for p, w in trace["waits"] if p in passes]
            metrics["probe.drain_wait_p50_ms"] = (statistics.median(waits) if waits else 0.0, "ms")
            metrics["probe.drain_wait_max_ms"] = (max(waits, default=0.0), "ms")
            latencies = [1000 * s for s in result["latencies_s"]]
            metrics["probe.domain_p50_ms"] = (statistics.median(latencies), "ms")
            metrics["probe.domain_p99_ms"] = (_quantile(latencies, 0.99), "ms")
            metrics["probe.domain_samples"] = (len(latencies), "count")
            timed("corpus.append_s", total("corpus.append"))
            counted("corpus.bytes_written", [os.path.getsize(os.path.join(result["passes"][i]["dir"], "corpus.ndjson"))
                                             for i in passes], "bytes")
    metrics["trace.missing_boundaries"] = (len(missing), "count")
    return metrics, problems, sorted(missing)


# --- output ------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; the smoke test uses a small one")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "certsift", "__init__.py")):
        print("run from the root of a certsift checkout: src/certsift is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.abspath(os.path.join(".perfbench_work", f"{args.workload}-{os.getpid()}"))
    os.makedirs(work)
    log_path = os.path.join(work, "log.txt")
    try:
        with open(log_path, "w", encoding="utf-8") as log:
            if args.trace:
                names = WORKLOADS
                seconds = args.seconds / 4
            else:
                names, seconds = (args.workload,), args.seconds
            results = {w: run_workload(w, args.seed, seconds, args.scale, bool(args.trace), work, log, deadline)
                       for w in names}
        if args.trace:
            metrics, problems, missing = per_layer(results)
        else:
            metrics, problems, missing = end_to_end(results[args.workload]), [], []
    except Failure as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        with open(log_path, encoding="utf-8") as fh:
            sys.stderr.write(fh.read()[-4000:])
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first = next(iter(results.values()))
    print(json.dumps({"seed": args.seed, "trace": args.trace, "nproc": os.cpu_count(), "cpu": _cpu_model(),
                      **first["versions"], "probe_traffic": "loopback only (127.0.1.1-127.0.1.4)"}))
    attempted = failed = 0
    for workload, result in results.items():
        rates = _rates(result, "untraced", reference=False)
        print(f"{workload}: input {result['size']}; {len(rates)} untraced passes "
              f"{[round(r, 1) for r in rates]} items/s (median {statistics.median(rates):.1f}); "
              f"set-ups {[round(raw, 3) for raw, _ in result['setups_s']]} s")
        print(f"  failed_frac {result['failed'] / result['attempted']:.6f} "
              f"({result['failed']} of {result['attempted']} items)")
        if workload == "probe-loopback" and not args.trace:
            latencies = [1000 * s for s in result["latencies_s"]]
            print(f"  item_p50_ms {statistics.median(latencies):.3f}  item_p99_ms "
                  f"{_quantile(latencies, 0.99):.3f}  (probe_domain, {len(latencies)} samples)")
        for name, value in result["digests"].items():
            print(f"  sha256 {name} {value}")
        for message in result["why"][:10]:
            print(f"  CHECK FAILED {message}", file=sys.stderr)
        attempted += result["attempted"]
        failed += result["failed"]
    for message in problems:
        print(f"  CHECK FAILED {message}", file=sys.stderr)
    for boundary in missing:
        print(f"trace boundary missing from certsift, its numbers read 0: {boundary}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
