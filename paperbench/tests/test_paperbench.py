"""Tests of the paper-pipeline benchmark itself.

Run from the root of the repository (builds the benchmark first if needed):

    python3 -m unittest discover -s paperbench/tests -v

The cases run the workloads at a reduced machine size so they finish in
seconds; the golden files at the real sizes are exercised by every
benchmark run.
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "paperbench"))
import run as bench_run  # noqa: E402

SMALL_NODES = "128"
FIGURE_WORKLOADS = ["fig-solve", "fig-events", "fig-shuffle"]


def run_binary(*args):
    """Runs one short measurement at the reduced size; returns its stdout."""
    binary = bench_run.build()
    return subprocess.run(
        [str(binary), "--nodes", SMALL_NODES, "--seconds", "0", *args],
        capture_output=True, text=True, timeout=600, check=True).stdout


def measure(*args):
    """run_binary, returning (result line, stdout)."""
    out = run_binary(*args)
    return json.loads(out.strip().splitlines()[-1]), out


def data_lines(directory):
    """The one golden file in `directory`, without its provenance line
    (which names the threads)."""
    path, = directory.glob("*.csv")
    return [line for line in path.read_text().splitlines()
            if not line.startswith("#")]


class ThreadIdentity(unittest.TestCase):
    def test_rows_identical_at_one_and_four_threads(self):
        with tempfile.TemporaryDirectory() as tmp:
            for workload in FIGURE_WORKLOADS:
                rows = {}
                for threads in ("1", "4"):
                    directory = pathlib.Path(tmp) / f"{workload}-t{threads}"
                    directory.mkdir()
                    run_binary("--workload", workload, "--threads", threads,
                               "--golden-dir", str(directory), "--write-golden")
                    rows[threads] = data_lines(directory)
                self.assertGreater(len(rows["1"]), 26, workload)
                self.assertEqual(rows["1"], rows["4"], workload)


class GoldenCheck(unittest.TestCase):
    def test_perturbed_golden_row_is_counted_as_failed(self):
        with tempfile.TemporaryDirectory() as tmp:
            common = ("--workload", "fig-solve", "--golden-dir", tmp)
            run_binary(*common, "--write-golden")
            golden = next(pathlib.Path(tmp).glob("fig-solve-n*-seed42.csv"))
            result, out = measure(*common)
            self.assertIn("golden exact", out)
            self.assertEqual(result["failed"], 0)
            self.assertEqual(result["metrics"]["pass_frac"]["value"], 1)

            lines = golden.read_text().splitlines()
            row = next(i for i, line in enumerate(lines)
                       if line.startswith('"Fattree/flood",'))
            fields = lines[row].split(",")
            fields[2] = "%.17g" % (float(fields[2]) * (1 + 1e-12))  # makespan
            lines[row] = ",".join(fields)
            golden.write_text("\n".join(lines) + "\n")

            result, _ = measure(*common)
            self.assertFalse(result["correct"])
            self.assertEqual(result["failed"], 1)
            self.assertEqual(result["metrics"]["pass_frac"]["value"],
                             1 - 1 / result["attempted"])


class Deadline(unittest.TestCase):
    def test_call_past_the_deadline_is_counted_as_failed(self):
        with tempfile.TemporaryDirectory() as tmp:
            result, _ = measure("--workload", "fig-events", "--golden-dir", tmp,
                                "--deadline", "0.001")
            self.assertFalse(result["correct"])
            self.assertGreater(result["failed"], 0)
            self.assertEqual(result["failed"], result["attempted"])


class MetricNames(unittest.TestCase):
    def test_printed_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         bench_run.WORKLOADS)
        expected = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        with tempfile.TemporaryDirectory() as tmp:
            for workload in ("fig-shuffle", "table1-routes"):
                for trace in (0, 1):
                    spans = pathlib.Path(tmp) / f"{workload}.spans.jsonl"
                    result, _ = measure("--workload", workload,
                                        "--trace", str(trace),
                                        "--golden-dir", tmp,
                                        "--spans", str(spans))
                    self.assertTrue(result["correct"])
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected[trace], (workload, trace))
                    if trace:
                        self.check_spans(spans, result["metrics"])

    def check_spans(self, spans_path, metrics):
        header, *spans = [json.loads(line)
                          for line in spans_path.read_text().splitlines()]
        self.assertEqual(set(header["provenance"]),
                         {"git_sha", "compiler", "build_type",
                          "nproc", "seed", "threads"})
        for span in spans:
            self.assertEqual(set(span), {"id", "name", "start", "end",
                                         "parent", "cell", "timers"})
            self.assertLessEqual(span["start"], span["end"])
        cells = {s["cell"] for s in spans if s["name"] == "core.cell"}
        self.assertEqual(cells, {s["cell"] for s in spans if s["cell"] >= 0})
        # Self times of the layers account for the traced wall time.
        self.assertLess(abs(metrics["trace.unattributed_frac"]["value"]), 0.05)


if __name__ == "__main__":
    unittest.main()
