#!/usr/bin/env python3
"""End-to-end benchmark of the NeST appliance through a live nestd.

    python3 e2ebench/run.py --workload small_mixed --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds nestd and the load generator from
source on first use (.bench_build/), then for the workload: starts nestd
on loopback with the workload's config and populates it through its own
write path, SETUP_REPS times (setup_s is the median); the last start then
warms up and measures. --trace 0 prints the client-observed metrics;
--trace 1 prints the per-layer split from /stats, /trace and /proc. The
last stdout line is one JSON object: correct, attempted, failed, metrics.
The line before it records the host and the exact nestd config. Exits
non-zero on any failed op or failed correctness check. See README.md.
"""
import argparse
import json
import math
import os
import platform
import select
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import analysis  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
RUNS = os.path.join(ROOT, ".bench_run")
NESTD = os.path.join(BUILD, "nest", "server", "nestd")
LOADGEN = os.path.join(BUILD, "e2e-load")
SETUP_REPS = 9
STEP_TIMEOUT_S = 120

WORKLOADS = ("small_mixed", "bulk_stream", "meta_durable")

# What each workload sets; everything else is nestd's default (fifo
# scheduler, adaptive concurrency over threads/processes/events, 64 KiB
# blocks, admission off, no journal). Data lives in nestd's in-memory
# backend: on the local backend, the host filesystem's own work (ext4
# writing each overwritten file to the device at close, journal
# checkpoints, online discard of freed blocks) swung figures several-fold
# from run to run on a shared disk. meta_durable journals every mutation
# to local disk, but with sync "none": under the default "always", its
# p99s followed the shared disk's fsync tail and spread 0.31-0.39 (IQR
# over median) across ten seeds, wider than the 0.25 a bound may be.
# README.md reports what "always" cost.
CAPACITY = {"small_mixed": "1G", "bulk_stream": "2G", "meta_durable": "1G"}
USERS = {
    "small_mixed": {"bench": "bench"},
    "bulk_stream": {"bench": "bench"},
    "meta_durable": {"u%d" % i: "k%d" % i for i in range(4)},
}



def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "server", "nestd.cpp")):
        log("no appliance sources under %s/src; nothing to benchmark" % ROOT)
        sys.exit(2)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target", "nestd", "e2e-load"],
                   check=True, stdout=sys.stderr)


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def host_fingerprint():
    cpu = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        rev = ""
    return {"nproc": os.cpu_count(), "cpu": cpu, "kernel": platform.release(),
            "compiler": compiler, "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
            "git_rev": rev or "unknown"}


def nestd_config(workload, rundir):
    lines = [
        "backend = mem",
        "capacity = " + CAPACITY[workload],
        "name = e2ebench",
        "chirp_port = 0", "http_port = 0", "ftp_port = 0",
        "gridftp_port = 0", "nfs_port = 0",
    ]
    if workload == "meta_durable":
        lines += ["journal = " + os.path.join(rundir, "journal"),
                  "journal_sync = none"]
    lines += ["user.%s = %s" % kv for kv in sorted(USERS[workload].items())]
    return "\n".join(lines) + "\n"


def cpu_sets():
    """Disjoint CPU sets for nestd and the load generator: the first half
    of the CPUs this process may use for the server, the rest for the
    client, so neither competes with the other for a core. On a shared
    virtual host this is what keeps runs steady: unpinned, nestd's threads
    (and the children it forks per GET) spread over every vCPU, each
    fork's TLB shootdown waits on any vCPU the hypervisor has preempted,
    and ops_per_s spread 0.14-0.40 (IQR over median) across ten seeds.
    None, None with fewer than two CPUs."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    half = len(cpus) // 2
    return cpus[:half], cpus[half:]


SERVER_CPUS, CLIENT_CPUS = cpu_sets()


def pinned(cpus):
    """A preexec_fn that confines the child to `cpus` (None: no change)."""
    if cpus is None:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


class Nestd:
    """nestd as a child process; ports come from its 'listening:' line."""

    def __init__(self, config_path, log_path):
        self.log = open(log_path, "w")
        self.proc = subprocess.Popen([NESTD, config_path],
                                     preexec_fn=pinned(SERVER_CPUS),
                                     stdout=subprocess.PIPE,
                                     stderr=self.log, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 30)
        line = self.proc.stdout.readline() if ready else ""
        if "listening:" not in line:
            self.stop()
            raise RuntimeError("nestd did not start (see %s)" % log_path)
        self.ports = dict(kv.split("=") for kv in line.split("listening:")[1]
                          .split() if "=" in kv)
        for key in list(self.ports):
            self.ports[key.split("(")[0]] = self.ports[key]

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def one_setup(args, repdir, measure):
    """Start a fresh nestd in `repdir` and drive it through population
    and, when `measure`, warm-up and the timed phases. Returns the
    generator's result and the set-up time: spawning nestd until the data
    is in place. The warm-up is a fixed op count chosen by the bench, not
    set-up work of the program, so it is left out."""
    for sub in ("journal", "out"):
        os.makedirs(os.path.join(repdir, sub))
    config_path = os.path.join(repdir, "nestd.conf")
    with open(config_path, "w") as f:
        f.write(nestd_config(args.workload, repdir))
    out = os.path.join(repdir, "out")
    t_spawn = time.monotonic_ns()
    server = Nestd(config_path, os.path.join(repdir, "nestd.log"))
    try:
        cmd = [LOADGEN, "--workload", args.workload, "--seed", str(args.seed),
               "--mode", "run" if measure else "setup", "--out", out,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--pid", str(server.proc.pid)]
        for proto in ("chirp", "http", "ftp", "nfs"):
            cmd += ["--" + proto, server.ports[proto]]
        gen = subprocess.run(cmd, stdout=sys.stderr,
                             preexec_fn=pinned(CLIENT_CPUS),
                             timeout=STEP_TIMEOUT_S + args.seconds)
        if gen.returncode != 0:
            raise RuntimeError("e2e-load exited with %d" % gen.returncode)
    finally:
        server.stop()
    with open(os.path.join(out, "result.json")) as f:
        result = json.load(f)
    return result, (result["t_populated_ns"] - t_spawn) / 1e9


def disk_counters():
    """(I/Os in flight, discards completed) summed over /proc/diskstats."""
    inflight = discards = 0
    with open("/proc/diskstats") as f:
        for line in f:
            fields = line.split()
            inflight += int(fields[11])
            if len(fields) > 14:
                discards += int(fields[14])
    return inflight, discards


def remove_run_data(rundir):
    """Delete every start's journal, commit the deletion, and wait (up to
    10 s) until the disk has finished discarding the freed blocks. On a
    filesystem mounted with online discard, that work otherwise lands on
    the next run's journal fsyncs."""
    for rep in range(SETUP_REPS):
        shutil.rmtree(os.path.join(rundir, "start%d" % rep, "journal"),
                      ignore_errors=True)
    fd = os.open(rundir, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    deadline = time.monotonic() + 10
    last = disk_counters()
    while time.monotonic() < deadline:
        time.sleep(0.2)
        now = disk_counters()
        if now == last and now[0] == 0:
            break
        last = now


def samples(out, phase):
    ops = analysis.load_ops(os.path.join(out, "ops_%s.f64" % phase))
    net = {k: analysis.load_f64(os.path.join(out, "net_%s_%s.f64" % (phase, k)))
           for k in ("connect", "first_byte")}
    return ops, net


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    # BENCHMARK.json names every metric a run must print, with its unit.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    rundir = os.path.join(RUNS, args.workload)
    shutil.rmtree(rundir, ignore_errors=True)
    setups = []
    try:
        for rep in range(SETUP_REPS):
            repdir = os.path.join(rundir, "start%d" % rep)
            result, setup_s = one_setup(args, repdir, rep == SETUP_REPS - 1)
            setups.append(setup_s)
    finally:
        remove_run_data(rundir)
    out = os.path.join(repdir, "out")
    phases = {p["name"]: p for p in result["phases"]}
    if args.trace == 0:
        ops, _ = samples(out, "timed")
        values = analysis.end_to_end(phases["timed"], ops, setups)
    else:
        ops, net = samples(out, "traced")
        spans = analysis.load_spans(os.path.join(out, "spans.txt"))
        values = analysis.per_layer(phases["untraced"], phases["traced"],
                                    ops, net, spans)
    with open(os.path.join(repdir, "nestd.conf")) as f:
        config = f.read()

    attempted = result["warmup"]["attempted"] + sum(
        p["attempted"] for p in result["phases"])
    failed = result["warmup"]["failed"] + sum(
        p["failed"] for p in result["phases"])
    correct = result["check_failures"] == 0
    if set(values) != set(units):
        raise RuntimeError("metrics %s do not match BENCHMARK.json"
                           % sorted(set(values) ^ set(units)))
    missing = [name for name, v in values.items()
               if v is None or not math.isfinite(v)]
    for msg in result["messages"]:
        log("finding: " + msg)
    if missing:
        log("too few samples for the percentile rule: " + ", ".join(missing))
    print(json.dumps({"host": host_fingerprint(), "workload": args.workload,
                      "seed": args.seed, "nestd_config": config,
                      "setup_runs_s": setups,
                      "cpus": {"nestd": SERVER_CPUS, "e2e-load": CLIENT_CPUS},
                      "checked": result["checked"]}))
    metrics = {name: {"value": v, "unit": units[name]}
               for name, v in values.items() if name not in missing}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 and not missing else 1


if __name__ == "__main__":
    sys.exit(main())
