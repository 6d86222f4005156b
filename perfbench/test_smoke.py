"""Smoke test of the benchmark itself, at tiny input sizes.

Run from anywhere:  python3 -m unittest perfbench/test_smoke.py
(or python3 perfbench/test_smoke.py).  Takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

SCALE = "0.02"
SEED = "5"
# Counts a later change may name in advance: the same seed must give the
# same value on every run.
EXACT = (
    "tree.grow_calls", "tree.nodes", "tree.nodes.setup", "persist.model_bytes",
    "corpus.records", "certs.parse_calls", "certs.parse_per_cert", "certs.verify_calls",
    "certs.dn_equal_calls", "features.vectors", "features.skipped", "probe.domains",
    "corpus.bytes_written",
)


def _bench(*args: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seed", SEED, "--scale", SCALE, *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else {})


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class SmokeTest(unittest.TestCase):
    def test_every_end_to_end_metric_printed_with_its_unit(self):
        want = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
        for workload in run.WORKLOADS:
            code, result = _bench("--workload", workload, "--seconds", "0.5", "--trace", "0")
            self.assertEqual(code, 0, workload)
            self.assertTrue(result["correct"], workload)
            self.assertEqual(result["failed"], 0)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, want, workload)
            self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()), workload)

    def test_traced_run_prints_every_per_layer_metric_and_repeats_its_counts(self):
        want = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
        runs = []
        for _ in range(2):
            code, result = _bench("--workload", "cv-forest", "--seconds", "1.5", "--trace", "1")
            self.assertEqual(code, 0)
            self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()}, want)
            self.assertEqual(result["metrics"]["trace.missing_boundaries"]["value"], 0)
            runs.append(result["metrics"])
        exact = [n for n in want if n in EXACT or n.startswith(("certs.verdict.", "probe.category."))]
        for name in exact:
            self.assertEqual(runs[0][name]["value"], runs[1][name]["value"], name)
        self.assertGreater(runs[0]["tree.nodes"]["value"], 0)
        self.assertGreater(runs[0]["certs.parse_calls"]["value"], 0)

    def test_one_corrupted_output_trips_the_check(self):
        def flip(text: str, a: str, b: str) -> str:
            """Swap whichever of a and b occurs first."""
            i, j = text.find(a), text.find(b)
            return text.replace(a, b, 1) if j == -1 or -1 < i < j else text.replace(b, a, 1)

        edits = {
            "cv-forest": ("report.json", lambda t: t.replace('"tp": ', '"tp": 1', 1)),
            "extract-classify": ("features.csv", lambda t: flip(t, ",0,", ",1,")),
            "probe-loopback": ("corpus.ndjson", lambda t: flip(t, '"http_ok":true', '"http_ok":false')),
        }

        def corrupt(workload: str, out: str) -> None:
            name, edit = edits[workload]
            path = os.path.join(out, name)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(edit(text))

        real = run.run_worker
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            for workload in run.WORKLOADS:
                def corrupting(job, work, tag, log, deadline, workload=workload):
                    result = real(job, work, tag, log, deadline)
                    if job["mode"] == "run":
                        corrupt(workload, result["passes"][0]["dir"])
                    return result

                run.run_worker = corrupting
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = run.main(["--workload", workload, "--seed", SEED, "--seconds", "0.2",
                                     "--trace", "0", "--scale", SCALE])
                result = json.loads(stdout.getvalue().strip().splitlines()[-1])
                self.assertEqual(code, 1, workload)
                self.assertFalse(result["correct"], workload)
                self.assertGreaterEqual(result["failed"], 1, workload)
                self.assertIn("CHECK FAILED", stderr.getvalue(), workload)
        finally:
            run.run_worker = real
            os.chdir(cwd)

    def test_refuses_a_directory_without_the_program(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "cv-forest",
             "--seed", SEED, "--seconds", "1"],
            cwd=HERE, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
