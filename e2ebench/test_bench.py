#!/usr/bin/env python3
"""Tests of the benchmark's own logic, plus a smoke run of each workload.

    python3 e2ebench/test_bench.py            # everything (a few minutes)
    python3 e2ebench/test_bench.py -k Unit    # pure-logic tests only

Run from the root of a checkout; the script and smoke tests build the
generator first, as run.py does.
"""
import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import analysis as A  # noqa: E402
import run  # noqa: E402


def span(sid, parent, start, end, layer="storage", name="op"):
    return {"trace": 1, "span": sid, "parent": parent, "layer": layer,
            "name": name, "start": start, "end": end, "value": 0}


class UnitSelfTime(unittest.TestCase):
    def test_nested_children(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 2, 20, 30)]
        self.assertEqual(A.self_times(spans), {1: 50, 2: 40, 3: 10})

    def test_overlapping_children_count_once(self):
        # Children on other threads may overlap; their union is 60, not 70.
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 50), span(3, 1, 40, 70)]
        self.assertEqual(A.self_times(spans)[1], 40)

    def test_child_clipped_to_parent(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 90, 130)]
        self.assertEqual(A.self_times(spans), {1: 90, 2: 40})

    def test_child_of_lost_parent_keeps_its_own_self_time(self):
        # Span 7's parent wrapped out of its ring before it was polled.
        spans = [span(1, 0, 0, 100), span(8, 7, 10, 30), span(9, 8, 12, 20)]
        self.assertEqual(A.self_times(spans), {1: 100, 8: 12, 9: 8})

    def test_split_reports_coverage_and_scales_by_layer(self):
        spans = [span(11, 0, 0, 100, "protocol", "get"),
                 span(12, 11, 10, 90, "dispatcher"),
                 span(13, 12, 20, 50, "storage"),
                 span(15, 14, 0, 10, "journal")]  # 14 was lost
        coverage, by_layer, roots, root_ns, names = A.span_split(spans, 10, 15)
        self.assertEqual(coverage, 4 / 5)
        self.assertEqual(by_layer["protocol"], 20)
        self.assertEqual(by_layer["dispatcher"], 50)
        self.assertEqual(by_layer["storage"], 30)
        self.assertEqual(by_layer["journal"], 10)
        self.assertEqual((roots, root_ns), (1, 100))
        self.assertEqual(names["protocol.get"], 1)

    def test_split_ignores_spans_outside_the_window(self):
        spans = [span(5, 0, 0, 10), span(20, 0, 0, 10)]
        coverage, by_layer, _, _, _ = A.span_split(spans, 5, 10)
        self.assertEqual(coverage, 0.0)
        self.assertEqual(by_layer["storage"], 0)


class UnitPercentiles(unittest.TestCase):
    def test_nearest_rank(self):
        self.assertEqual(A.percentile([4, 1, 3, 2], 50), 2)
        self.assertEqual(A.percentile(range(1, 101), 99), 99)
        self.assertEqual(A.percentile([7], 99), 7)

    def test_p99_needs_a_thousand_samples(self):
        self.assertIsNone(A.p99(list(range(999))))
        self.assertEqual(A.p99(list(range(1, 1001))), 990)

    def test_chunked_p99_is_the_median_over_chunks(self):
        self.assertIsNone(A.chunked_p99([(t, 1.0) for t in range(999)]))
        # Three chunks of 1000; only the middle one holds a slow burst.
        samples = [(t, 1.0) for t in range(3000)]
        for t in range(1000, 1100):
            samples[t] = (t, 50.0)
        self.assertEqual(A.chunked_p99(samples), 1.0)
        self.assertEqual(A.p99([v for _, v in samples]), 50.0)
        # Chunks follow completion time, not input order.
        self.assertEqual(A.chunked_p99(list(reversed(samples))), 1.0)

    def test_p50_of_nothing_is_none(self):
        self.assertIsNone(A.p50([]))

    def test_failed_ops_sort_last(self):
        lat = [1.0] * 989 + [float("inf")] * 11
        self.assertEqual(A.p99(lat), float("inf"))

    def test_median(self):
        self.assertEqual(A.median([3, 1, 2]), 2)
        self.assertEqual(A.median([4, 1, 2, 3]), 2.5)


class UnitProc(unittest.TestCase):
    # Field layout of proc(5): pid (comm) state ppid ... minflt(10)
    # cminflt(11) majflt cmajflt utime(14) stime cutime cstime ... threads(20)
    STAT = ("4242 (nest d) (x)) S 1 4242 4242 0 -1 4194560 "
            "111 222 0 0 10 20 30 40 20 0 17 0 100 0 0")

    def test_stat_fields_counted_from_last_paren(self):
        self.assertEqual(A.parse_proc_stat(self.STAT),
                         {"minflt": 111, "cminflt": 222, "utime": 10,
                          "stime": 20, "cutime": 30, "cstime": 40,
                          "threads": 17})

    def test_stat_of_this_process(self):
        with open("/proc/self/stat") as f:
            self.assertGreaterEqual(A.parse_proc_stat(f.read())["threads"], 1)

    def test_status(self):
        text = "Name:\tnestd\nVmHWM:\t  8192 kB\nVmRSS:\t 4096 kB\nThreads:\t18\n"
        self.assertEqual(A.parse_proc_status(text),
                         {"VmHWM": 8192, "VmRSS": 4096, "Threads": 18})

    def test_host_cpu(self):
        busy, total = A.parse_host_cpu("cpu  10 1 5 100 4 0 2 3 7 0")
        self.assertEqual((busy, total), (21, 125))


class UnitStats(unittest.TestCase):
    def test_histogram_delta_mean(self):
        h0 = {"count": 10, "mean_ms": 1.0}
        h1 = {"count": 30, "mean_ms": 2.0}
        self.assertAlmostEqual(A.hist_delta_mean_us(h0, h1), 2500.0)
        self.assertEqual(A.hist_delta_mean_us(h1, h1), 0.0)


class UnitCpuSets(unittest.TestCase):
    def test_server_and_client_get_disjoint_halves(self):
        server, client = run.cpu_sets()
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            self.assertEqual((server, client), (None, None))
            return
        self.assertFalse(set(server) & set(client))
        self.assertEqual(sorted(server + client), cpus)
        self.assertLessEqual(len(server), len(client))
        self.assertGreaterEqual(len(server), 1)


def script(workload, seed):
    out = subprocess.run([run.LOADGEN, "--workload", workload, "--seed",
                          str(seed), "--mode", "script", "--ops", "50"],
                         check=True, capture_output=True, text=True).stdout
    return out


class Script(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_same_seed_same_script_other_seed_other_script(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(script(workload, 5), script(workload, 5))
                self.assertNotEqual(script(workload, 5), script(workload, 6))

    def test_every_session_scripted(self):
        lines = script("small_mixed", 1).splitlines()
        sessions = {line.split()[0] for line in lines[:-1]}
        self.assertEqual(sessions, {"0", "1", "2", "3"})
        protocols = {line.split()[1] for line in lines[:-1]}
        self.assertEqual(protocols, {"chirp", "http", "ftp", "nfs"})


class Smoke(unittest.TestCase):
    """Each workload end to end: every metric BENCHMARK.json names is
    printed with its unit, and nothing fails."""

    def run_bench(self, workload, trace, seconds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "1", "--seconds", str(seconds), "--trace",
             str(trace)], capture_output=True, text=True, cwd=run.ROOT)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertIn("nestd_config", record)
        self.assertEqual(record["host"]["nproc"], os.cpu_count())
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)["per_layer" if trace else "end_to_end"]
        for m in spec:
            self.assertIn(m["name"], result["metrics"])
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        return result["metrics"]

    def test_workloads(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                m = self.run_bench(workload, 0, seconds)
                for name, v in m.items():
                    self.assertGreater(v["value"], 0, name)
            with self.subTest(workload=workload, trace=1):
                m = self.run_bench(workload, 1, 4)
                self.assertGreater(m["trace.span_coverage"]["value"], 0.5)


if __name__ == "__main__":
    unittest.main()
