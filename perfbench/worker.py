"""One workload in its own process: set up the program, then run timed passes.

Usage: python3 worker.py JOB_JSON

The job names the workload, the checkout's src directory, the inputs made
by run.py and the phases to run.  Set-up time runs from just after a first
calibrate() to the end of the program's preparation: importing certsift,
and for extract-classify also training and saving both classify models.
A second calibrate() follows, and mode "setup" stops there.  Otherwise
passes repeat, cycling through the job's phases, until each phase has had
its seconds (and at least one pass); each pass writes its outputs to a
directory of its own for run.py to check and is followed by a
calibrate().  In a "traced" pass the layer boundaries of tracing.py are
wrapped; set-up is traced too when the job asks for tracing.  The result, including every span, is written as
JSON to the path the job names.
"""

import time


def calibrate() -> float:
    """Seconds a fixed mix of interpreter work takes now: the machine's speed.

    About 0.1 s on a 2-CPU Xeon VM.  Shared hosts change speed by up to half
    for minutes at a time; run.py rescales the time of each pass and each
    set-up by the mean of the calibrations just before and after it.
    """
    start = time.perf_counter()
    table: dict[str, int] = {}
    for i in range(160_000):
        key = f"k{i % 4096}"
        table[key] = table.get(key, 0) + i * i % 97
    words = sorted(table, key=table.__getitem__)
    "".join(words).count("k1")
    return time.perf_counter() - start


CALIBRATION_AT_START = calibrate()
T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _cli(argv: list[str]) -> None:
    import certsift.cli

    code = certsift.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"certsift {argv[0]} exited with {code}")


def prepare_cv_forest(job: dict):
    import certsift.cli  # noqa: F401

    n, seed = job["inputs"]["rows_per_class"], job["seed"]

    def run(out: str) -> int:
        synth = os.path.join(out, "synth.csv")
        _cli(["synth", "--pos-spec", "phishing", "--neg-spec", "alexa",
              "--n", str(n), "--seed", str(seed), "--out", synth])
        _cli(["eval", "--features", synth, "--algo", "forest", "--cv", "5",
              "--trees", "25", "--seed", str(seed), "--out", os.path.join(out, "report.json")])
        return 2 * n

    return run, {}


def prepare_extract_classify(job: dict):
    import certsift.cli  # noqa: F401
    import certsift.features
    import certsift.ml
    import certsift.ml.persist

    inputs, work = job["inputs"], job["work"]
    rows = certsift.features.read_features_csv(inputs["train_csv"])
    models = {}
    for kind in ("forest", "knn"):
        model = certsift.ml.train(certsift.ml.Dataset(rows), kind, seed=job["seed"])
        models[kind] = os.path.join(work, f"{kind}.json")
        certsift.ml.persist.save_model(model, models[kind])

    def run(out: str) -> int:
        features = os.path.join(out, "features.csv")
        _cli(["extract", "--corpus", inputs["corpus"], "--trust-store", inputs["trust_store"],
              "--out", features])
        for kind, path in models.items():
            _cli(["classify", "--model", path, "--features", features,
                  "--out", os.path.join(out, f"classify-{kind}.csv")])
        return inputs["records"]

    return run, {"models": models}


def prepare_probe_loopback(job: dict):
    import certsift
    import certsift.corpus
    import certsift.probe

    inputs = job["inputs"]
    addresses = inputs["addresses"]
    config = certsift.ProbeConfig(
        connect_timeout_ms=2000,
        handshake_timeout_ms=2000,
        max_concurrency=inputs["concurrency"],
        retries=0,
        http_port=job["farm"]["http_port"],
        https_port=job["farm"]["https_port"],
        resolver=addresses.__getitem__,  # an unmapped name fails instead of using DNS
    )
    domains = inputs["domains"]

    def run(out: str) -> int:
        with certsift.corpus.CorpusWriter(os.path.join(out, "corpus.ndjson"), append=False) as writer:
            certsift.probe.probe_corpus(domains, config, writer.append)
        return len(domains)

    return run, {}


PREPARE = {
    "cv-forest": prepare_cv_forest,
    "extract-classify": prepare_extract_classify,
    "probe-loopback": prepare_probe_loopback,
}


def _timed_probes(latencies: list[float]):
    """Time each probe_domain call; the only wrapper in an untraced pass."""
    import certsift.probe

    original = certsift.probe.probe_domain

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            latencies.append(time.perf_counter() - start)

    certsift.probe.probe_domain = timed
    return lambda: setattr(certsift.probe, "probe_domain", original)


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import certsift

    if not os.path.abspath(certsift.__file__).startswith(job["src"] + os.sep):
        raise RuntimeError(f"certsift imported from {certsift.__file__}, not {job['src']}")
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    run, extras = PREPARE[job["workload"]](job)
    setup_s = time.perf_counter() - T_START
    before = calibrate()
    result = {"setup_s": setup_s, "setup_calibration_s": (CALIBRATION_AT_START + before) / 2,
              "passes": [], **extras}
    missing = set()
    if tracer is not None:
        missing.update(tracer.missing)
        tracer.uninstall()
    if job["mode"] == "run":
        # With tracing, untraced and traced passes alternate, so that the
        # overhead estimate does not drift with the host's speed.
        latencies: list[float] = []
        phases = job["phases"]
        budget, started = job["seconds"] * len(phases), time.perf_counter()
        while len(result["passes"]) < len(phases) or time.perf_counter() - started < budget:
            index = len(result["passes"])
            phase = phases[index % len(phases)]
            undo = None
            if phase == "traced":
                tracing.install(tracer)
                missing.update(tracer.missing)
                tracer.pass_id = index
                undo = tracer.uninstall
            elif job["workload"] == "probe-loopback":
                undo = _timed_probes(latencies)
            out = os.path.join(job["work"], f"pass-{index}")
            os.makedirs(out)
            start = time.perf_counter()
            items = run(out)
            seconds = time.perf_counter() - start
            if undo is not None:
                undo()
            after = calibrate()
            result["passes"].append({"phase": phase, "seconds": seconds, "items": items, "dir": out,
                                     "calibration_s": (before + after) / 2})
            before = after
        result["latencies_s"] = latencies
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import cryptography
    import numpy

    result["versions"] = {
        "python": sys.version.split()[0],
        "cryptography": cryptography.__version__,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["trace"] = {
            "spans": tracer.spans,
            "counts": [[p, name, n] for (p, name), n in tracer.counts.items()],
            "waits": tracer.waits,
            "inflight_peak": tracer.inflight_peak,
            "missing": sorted(missing),
        }
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
