"""Turns what e2e-load recorded into the benchmark's metrics.

Pure functions over plain data, so the rules they encode (the percentile
rule, self time, /proc parsing, /stats deltas) are unit-tested on
hand-built inputs in test_bench.py.
"""
import array
import math
import os

MIN_P99_SAMPLES = 1000
CLK_TCK = os.sysconf("SC_CLK_TCK")
MIB = 1024 * 1024
LAYERS = ("protocol", "dispatcher", "transfer", "storage", "journal")
PROTOCOLS = ("chirp", "http", "ftp", "nfs")


# --- percentiles ------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def p50(values):
    return percentile(values, 50) if values else None


def p99(values):
    """The 99th percentile, only when at least MIN_P99_SAMPLES samples hold
    it up (ten beyond it); None otherwise."""
    if len(values) < MIN_P99_SAMPLES:
        return None
    return percentile(values, 99)


def chunked_p99(samples):
    """p99 of (completion time, value) samples, as the median over up to
    ten consecutive chunks of at least MIN_P99_SAMPLES samples each: a
    short stall of the shared host then moves one chunk, not the figure.
    None with fewer than MIN_P99_SAMPLES samples."""
    n = len(samples)
    k = min(10, n // MIN_P99_SAMPLES)
    if k == 0:
        return None
    ordered = [v for _, v in sorted(samples)]
    return median([percentile(ordered[i * n // k:(i + 1) * n // k], 99)
                   for i in range(k)])


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def ratio(num, den):
    """num / den, or 0.0 where the denominator is empty (layer bypassed)."""
    return num / den if den else 0.0


def load_f64(path):
    data = array.array("d")
    with open(path, "rb") as f:
        data.frombytes(f.read())
    return list(data)


KINDS = ("get", "put", "meta")


def load_ops(path):
    """The generator's op log: (completion s, latency µs, kind, session,
    bytes) per op, latency +inf for a failed op."""
    flat = load_f64(path)
    return [(flat[i], flat[i + 1], KINDS[int(flat[i + 2])], int(flat[i + 3]),
             flat[i + 4]) for i in range(0, len(flat), 5)]


# --- /proc ------------------------------------------------------------------

def parse_proc_stat(text):
    """Fields of /proc/<pid>/stat by name. The command name sits in
    parentheses and may itself hold spaces and ')', so fields are counted
    from the last ')'."""
    rest = text[text.rindex(")") + 2:].split()
    field = lambda n: int(rest[n - 3])  # 1-based numbering as in proc(5)
    return {
        "minflt": field(10),
        "cminflt": field(11),
        "utime": field(14),
        "stime": field(15),
        "cutime": field(16),
        "cstime": field(17),
        "threads": field(20),
    }


def parse_proc_status(text):
    """Threads and VmHWM (kB) from /proc/<pid>/status."""
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key in ("Threads", "VmHWM", "VmRSS"):
            out[key] = int(value.split()[0])
    return out


def parse_host_cpu(line):
    """(busy, total) jiffies from the aggregate 'cpu' line of /proc/stat;
    idle and iowait count as not busy, guest time is already in user."""
    fields = [int(x) for x in line.split()[1:9]]
    total = sum(fields)
    idle = fields[3] + fields[4]
    return total - idle, total


def ticks_to_us(ticks):
    return ticks * 1e6 / CLK_TCK


# --- /stats -----------------------------------------------------------------

def hist_delta_mean_us(h0, h1):
    """Exact mean (µs) of the samples a /stats histogram took between two
    snapshots: the histograms export count and mean, so sums subtract."""
    n = h1["count"] - h0["count"]
    if n <= 0:
        return 0.0
    total_ms = h1["mean_ms"] * h1["count"] - h0["mean_ms"] * h0["count"]
    return max(0.0, total_ms * 1e3 / n)


# --- spans ------------------------------------------------------------------

def union_length(intervals):
    """Length of the union of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to its own. A child whose parent was lost
    (ring wraparound) still has its own self time; it just cannot be
    subtracted from a parent that is not there.

    spans: dicts with span, parent, start, end. Returns {span id: ns}.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = []
        for c in children.get(s["span"], ()):
            lo, hi = max(c["start"], s["start"]), min(c["end"], s["end"])
            if hi > lo:
                kids.append((lo, hi))
        out[s["span"]] = (s["end"] - s["start"]) - union_length(kids)
    return out


def load_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            trace, span, parent, layer, name, start, end, value = line.split()
            spans.append({"trace": int(trace), "span": int(span),
                          "parent": int(parent), "layer": layer,
                          "name": name, "start": int(start), "end": int(end),
                          "value": int(value)})
    return spans


# --- metrics ----------------------------------------------------------------

def phase_seconds(phase):
    return (phase["end"]["t_ns"] - phase["begin"]["t_ns"]) / 1e9


def server_cpu_us(stat):
    return ticks_to_us(stat["utime"] + stat["stime"] + stat["cutime"]
                       + stat["cstime"])


def end_to_end(phase, ops, setup_seconds):
    """The client-observed metrics of one timed phase, from its op log.

    A p50 pools every sample of the phase; a p99 is chunked_p99. There is
    no meta p99: the tail of a short op among bulk transfers followed the
    shared host's CPU contention, and its spread over ten seeds reached
    0.57 on bulk_stream and 0.32 on meta_durable. Returns {name: value}.
    """
    secs = phase_seconds(phase)
    p0 = parse_proc_stat(phase["begin"]["proc_stat"])
    p1 = parse_proc_stat(phase["end"]["proc_stat"])
    status = parse_proc_status(phase["end"]["proc_status"])
    m = {
        "ops_per_s": phase["ops"] / secs,
        "goodput_mib_s": phase["bytes"] / MIB / secs,
        "setup_s": median(setup_seconds),
        "server_cpu_us_per_op": ratio(server_cpu_us(p1) - server_cpu_us(p0),
                                      phase["ops"]),
        "server_rss_mib": status["VmHWM"] / 1024.0,
    }
    for kind in KINDS:
        # A failed op (latency +inf) misses every limit: it sorts last.
        samples = [(o[0], o[1]) for o in ops if o[2] == kind]
        m[kind + "_p50_us"] = p50([v for _, v in samples])
        if kind != "meta":
            m[kind + "_p99_us"] = chunked_p99(samples)
    return m


def span_split(spans, lo, hi):
    """Per-layer self time over the spans minted in (lo, hi].

    Returns (coverage, {layer: self ns}, root count, root ns, name counts).
    """
    window = [s for s in spans if lo < s["span"] <= hi]
    coverage = ratio(len(window), hi - lo)
    selfs = self_times(window)
    by_layer = {layer: 0 for layer in LAYERS}
    names = {}
    roots = root_ns = 0
    for s in window:
        by_layer[s["layer"]] = by_layer.get(s["layer"], 0) + selfs[s["span"]]
        key = s["layer"] + "." + s["name"]
        names[key] = names.get(key, 0) + 1
        if s["layer"] == "protocol" and s["parent"] == 0:
            roots += 1
            root_ns += s["end"] - s["start"]
    return coverage, by_layer, roots, root_ns, names


def per_layer(untraced, traced, op_log, net, spans):
    """The per-layer split of the traced phase.

    op_log: the traced phase's op log; net: bench-timed net samples
    {"connect": [...], "first_byte": [...]}.
    """
    tr = traced["trace"]
    s0, s1 = traced["begin"]["stats"], traced["end"]["stats"]
    m0, m1 = s0["metrics"], s1["metrics"]
    p0 = parse_proc_stat(traced["begin"]["proc_stat"])
    p1 = parse_proc_stat(traced["end"]["proc_stat"])
    ops = traced["ops"]
    client_ns = sum(o[1] for o in op_log if math.isfinite(o[1])) * 1e3

    coverage, by_layer, roots, root_ns, names = span_split(
        spans, tr["span_id_lo"], tr["span_id_hi"])
    scale = ratio(1.0, coverage)  # recovered spans stand for all minted
    m = {}
    for layer in ("protocol", "dispatcher", "transfer", "storage"):
        m[layer + ".self_us_per_req"] = ratio(by_layer[layer] / 1e3, roots)
        m[layer + ".share"] = ratio(by_layer[layer] * scale, client_ns)
    outside_ns = client_ns - root_ns * scale
    m["outside.us_per_req"] = ratio(outside_ns / 1e3, ops)
    m["outside.share"] = ratio(outside_ns, client_ns)

    # "journal" is null when nestd runs without one.
    j0, j1 = s0["journal"] or {}, s1["journal"] or {}
    dj = {k: j1.get(k, 0) - j0.get(k, 0) for k in ("appends", "fsyncs")}
    m["journal.fsyncs_per_mutation"] = ratio(dj["fsyncs"], traced["mutations"])
    m["journal.appends_per_fsync"] = ratio(dj["appends"], dj["fsyncs"])
    m["journal.fsync_wait_mean_us"] = hist_delta_mean_us(
        m0["journal_fsync_wait"], m1["journal_fsync_wait"])
    m["journal.share"] = ratio(by_layer["journal"] * scale, client_ns)

    m["transfer.quanta_per_transfer"] = ratio(
        names.get("transfer.quantum", 0), names.get("transfer.transfer", 0))
    m["transfer.sched_hold_mean_us"] = hist_delta_mean_us(
        m0["sched_hold"], m1["sched_hold"])
    m["transfer.latency_mean_us"] = hist_delta_mean_us(
        m0["transfer_latency"], m1["transfer_latency"])
    hot = m1["cache_hot"] - m0["cache_hot"]
    cold = m1["cache_cold"] - m0["cache_cold"]
    m["transfer.cache_hot_frac"] = ratio(hot, hot + cold)

    for proto in PROTOCOLS:
        m["protocol.req_mean_us." + proto] = hist_delta_mean_us(
            m0["request_latency_by_protocol"][proto],
            m1["request_latency_by_protocol"][proto])

    m["server.child_cpu_us_per_op"] = ratio(
        ticks_to_us(p1["cutime"] + p1["cstime"] - p0["cutime"] - p0["cstime"]),
        ops)
    m["server.cminflt_per_op"] = ratio(p1["cminflt"] - p0["cminflt"], ops)
    m["server.minflt_per_op"] = ratio(p1["minflt"] - p0["minflt"], ops)
    m["server.threads_peak"] = max(tr["threads_peak"], p0["threads"],
                                   p1["threads"])

    for what in ("connect", "first_byte"):
        m["net.%s_p50_us" % what] = p50(net[what]) or 0.0
        m["net.%s_p99_us" % what] = p99(net[what]) or 0.0
    m["net.drain_mib_s"] = ratio(traced["drain_bytes"] / MIB,
                                 traced["drain_ns"] / 1e9)

    client_cpu = (traced["end"]["client_cpu_us"]
                  - traced["begin"]["client_cpu_us"] - tr["poller_cpu_us"])
    m["client.cpu_us_per_op"] = ratio(client_cpu, ops)
    b0, t0 = parse_host_cpu(traced["begin"]["host_stat"])
    b1, t1 = parse_host_cpu(traced["end"]["host_stat"])
    m["host.cpu_busy_frac"] = ratio(b1 - b0, t1 - t0)

    m["trace.span_coverage"] = coverage
    m["trace.overhead_frac"] = ratio(
        ops / phase_seconds(traced),
        untraced["ops"] / phase_seconds(untraced)) - 1.0
    return m
