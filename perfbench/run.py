#!/usr/bin/env python3
"""End-to-end benchmark of the PrivateClean pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload ingest|oneshot|served --seed N \
        --seconds S --trace 0|1

Builds perfbench/ (the library sources plus perfbench.cc) in Release mode
under .bench_build/, runs the set-up pass several times in fresh processes
(seeded data generation, reference privatize, verify, reference answers,
ledger grants, server start, a checked burst of served queries), then the
workload's measured window in one more process, and prints a host stamp
line followed by the result as the last stdout line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
from spans the benchmark records around each call into a library layer.
Any failed check makes "correct" false and the exit code 1. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = "perfbench"
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_ROOT = ".bench_work"
PROCESS_TIMEOUT_S = 170
# Set-up passes per run; setup_s is their median.
SETUP_PASSES = 3

E2E_UNITS = {
    "setup_s": "s",
    "privatize_s": "s",
    "release_bytes_per_input_byte": "ratio",
    "oneshot_p50_ms": "ms",
    "verify_p50_ms": "ms",
    "served_qps": "1/s",
    "anon_p50_ms": "ms",
    "charged_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

SERVED_QUERIES = ["q1", "q2", "q3", "q4", "q5", "q6"]


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build(threads):
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("no library sources under src/: run from the repository root")
        return None
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(threads)])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            log("build failed: " + " ".join(step))
            return None
    return os.path.join(BUILD_DIR, "perfbench")


def run_process(argv, out_path):
    """Runs one benchmark process to completion (killed after the timeout).

    Returns (exit code, parsed last stdout line or None, peak RSS in MB).
    """
    with open(out_path, "w") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=sys.stderr)
    deadline = time.monotonic() + PROCESS_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid != 0:
            break
        if time.monotonic() > deadline:
            log("timed out: " + " ".join(argv))
            proc.send_signal(signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = open(out_path).read().strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else None
    except ValueError:
        report = None
    return proc.returncode, report, usage.ru_maxrss / 1024.0


def median(values):
    """Median; NaN (reported as a failed check) when there is no sample."""
    values = list(values)
    return statistics.median(values) if values else math.nan


def percentile(values, p):
    """Nearest-rank percentile; NaN when there is no sample."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def merged_series(reports, name):
    return [v for r in reports for v in r["series"].get(name, [])]


def scalar_sum(reports, name):
    return sum(r["scalars"].get(name, 0.0) for r in reports)


def served_latency(reports, session_class):
    """(p50, p99) of client-observed served latency for one session class.

    The six served queries form separate latency clusters, and with equal
    counts per query the pooled median falls in the gap between the third
    and fourth cluster, flipping between them from run to run. So the p50
    is each query's median combined by geometric mean; the p99 is pooled.
    """
    per_query = [merged_series(reports,
                               "served.%s_ms.%s" % (session_class, q))
                 for q in SERVED_QUERIES]
    p50 = math.exp(statistics.mean(math.log(median(v)) for v in per_query))
    if not all(per_query):
        p50 = math.nan
    return p50, percentile([x for v in per_query for x in v], 99)


def e2e_metrics(setups, run, peak_rss_mb):
    """Every end-to-end metric, over the samples of all passes: each is
    the median (or p99) of every op of its kind in the run."""
    reports = setups + [run]
    anon_p50, _ = served_latency(reports, "anon")
    charged_p50, _ = served_latency(reports, "charged")
    values = {
        "setup_s": median(r["scalars"]["setup_s"] for r in setups),
        "privatize_s": median(merged_series(reports, "privatize_ms")) / 1000.0,
        "release_bytes_per_input_byte":
            setups[0]["scalars"]["release_bytes"]
            / setups[0]["scalars"]["input_bytes"],
        "oneshot_p50_ms": median(merged_series(reports, "oneshot_ms")),
        "verify_p50_ms": median(merged_series(reports, "verify_ms")),
        "served_qps": scalar_sum(reports, "served_queries")
        / max(1e-9, scalar_sum(reports, "served_wall_s")),
        "anon_p50_ms": anon_p50,
        "charged_p50_ms": charged_p50,
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": E2E_UNITS[name]}
            for name in E2E_UNITS}


def load_spans(path):
    spans, counts = [], []
    if not os.path.isfile(path):
        return spans, counts
    for line in open(path):
        record = json.loads(line)
        (spans if "span" in record else counts).append(record)
    return spans, counts


def self_times(spans):
    """Span id -> (name, duration ms, self ms, parent id).

    Self time is the span minus the time its child spans cover; children
    of one span run on its thread, one after another."""
    child_ns = {}
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] = (child_ns.get(s["parent"], 0)
                                     + s["end_ns"] - s["start_ns"])
    out = {}
    for s in spans:
        duration = s["end_ns"] - s["start_ns"]
        out[s["id"]] = (s["span"], duration / 1e6,
                        (duration - child_ns.get(s["id"], 0)) / 1e6,
                        s["parent"])
    return out


def layer_metrics(span_files, setups, run, primary):
    """Every per-layer metric, from the spans of all passes."""
    self_ms = {}      # span name -> [self ms]
    duration = {}     # span name -> [duration ms]
    children = {}     # (file, parent id) -> {child name: duration ms}
    count_values = {}  # count name -> [value]
    roots = []        # (file, id, name, duration ms)
    for i, path in enumerate(span_files):
        spans, counts = load_spans(path)
        for span_id, (name, dur, own, parent) in self_times(spans).items():
            self_ms.setdefault(name, []).append(own)
            duration.setdefault(name, []).append(dur)
            if parent >= 0:
                children.setdefault((i, parent), {})[name] = dur
            else:
                roots.append((i, span_id, name, dur))
        for c in counts:
            count_values.setdefault(c["count"], []).append(c["value"])

    def med(series, name):
        return median(series.get(name, []))

    reports = setups + [run]
    regenerations = count_values.get("privacy.grr.regenerations", [])
    values = {
        "table.csv.infer_schema_ms": med(self_ms, "table.csv.infer_schema"),
        "table.csv.parse_ms": med(self_ms, "table.csv.parse"),
        "privacy.grr.apply_ms": med(self_ms, "privacy.grr.apply"),
        "privacy.grr.regenerations":
            statistics.mean(regenerations) if regenerations else math.nan,
        "privacy.grr.useful_per_attempt":
            len(regenerations) / (len(regenerations) + sum(regenerations))
            if regenerations else math.nan,
        "core.release.write_ms": med(self_ms, "core.release.write"),
        "core.release.bytes_written":
            med(count_values, "core.release.bytes_written"),
        "core.release.verify_ms": med(self_ms, "core.release.verify"),
        "core.release.read_ms": med(self_ms, "core.release.read"),
        "core.private_table.from_relation_ms":
            med(self_ms, "core.private_table.from_relation"),
        "core.release.bytes_read": med(count_values, "core.release.bytes_read"),
        "cleaning.clean_ms": med(self_ms, "cleaning.clean"),
        "core.sql.execute_ms": med(self_ms, "core.sql.execute"),
        "core.sql.render_ms": med(self_ms, "core.sql.render"),
        "core.query.arena_peak_bytes":
            med(count_values, "core.query.arena_peak_bytes"),
        "query.sql.parse_ms": med(self_ms, "query.sql.parse"),
        "core.admission.price_ms": med(self_ms, "core.admission.price"),
        "core.admission.admit_p50_ms": med(duration, "core.admission.admit"),
        "core.admission.admit_p99_ms":
            percentile(duration.get("core.admission.admit", []), 99),
        "privacy.ledger.records_per_charged_query":
            scalar_sum(reports, "ledger_records")
            / max(1.0, scalar_sum(reports, "ledger_charged")),
        "server.queries_served_per_sent":
            scalar_sum(reports, "served_queries")
            / max(1.0, scalar_sum(reports, "served_sent")),
    }
    # The served p99s do not repeat within a tenth across seeds, so they
    # are per-layer metrics rather than bounded end-to-end ones.
    values["served.anon_p99_ms"] = served_latency(reports, "anon")[1]
    values["served.charged_p99_ms"] = served_latency(reports, "charged")[1]
    for q in SERVED_QUERIES:
        values["core.sql.execute_ms." + q] = med(self_ms,
                                                 "core.sql.execute." + q)

    # The share of a one-shot query op spent opening the release (read +
    # decode into a PrivateTable), and server.self_ms: served latency minus
    # the layers' share of the same query (admit + execute + render), per
    # query and session class.
    open_share = []
    layer_sum = {}
    for i, span_id, name, dur in roots:
        kids = children.get((i, span_id), {})
        if name == "op.oneshot":
            open_share.append((kids.get("core.release.read", 0.0)
                               + kids.get("core.private_table.from_relation",
                                          0.0)) / dur)
        elif name.startswith("direct."):
            layer_sum.setdefault(name, []).append(sum(
                dur for kid, dur in kids.items()
                if kid == "core.admission.admit"
                or kid.startswith("core.sql.execute")
                or kid == "core.sql.render"))
    values["core.release.open_share_of_oneshot"] = median(open_share)
    gaps = []
    for name, sums in layer_sum.items():
        served = duration.get("served." + name[len("direct."):], [])
        if served:
            gaps.append(median(served) - median(sums))
    values["server.self_ms"] = median(gaps)

    traced = merged_series([run], primary + "_traced_ms")
    bare = merged_series([run], primary + "_bare_ms")
    # Means, not medians: traced and bare ops each cover the whole query
    # mix, whose per-query latencies differ by up to two orders of
    # magnitude.
    values["trace.overhead_pct"] = (
        100.0 * (statistics.mean(traced) / statistics.mean(bare) - 1.0)
        if traced and bare else math.nan)
    units = {name: ("ms" if name.endswith("_ms") or "_ms." in name
                    else "%" if name.endswith("_pct")
                    else "bytes" if "bytes" in name
                    else "count" if name == "privacy.grr.regenerations"
                    else "ratio")
             for name in values}
    return {name: {"value": values[name], "unit": units[name]}
            for name in sorted(values)}


def source_revision():
    """The git revision, or a hash of the sources when not in a checkout
    with git metadata."""
    if os.path.isdir(".git"):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if rev.returncode == 0:
                return rev.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("src", BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                digest.update(open(path, "rb").read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def cpu_model():
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def load_mark():
    """The machine's (busy, steal, total) clock ticks so far, from
    /proc/stat, and the ticks this process's children used; None where
    /proc/stat cannot be read."""
    try:
        fields = [int(x) for x in open("/proc/stat").readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    if len(fields) < 8:
        return None
    idle = fields[3] + fields[4]  # idle + iowait
    own = resource.getrusage(resource.RUSAGE_CHILDREN)
    own_ticks = (own.ru_utime + own.ru_stime) * os.sysconf("SC_CLK_TCK")
    return sum(fields) - idle - fields[7], fields[7], sum(fields), own_ticks


def host_load(start):
    """Share of the machine's CPU time since `start` (a load_mark()) that
    other processes were busy or the hypervisor stole: load this run did
    not make but that slows it down."""
    end = load_mark()
    if start is None or end is None or end[2] <= start[2]:
        return None
    total = end[2] - start[2]
    others = (end[0] - start[0]) - (end[3] - start[3])
    return {"others_busy_pct": round(max(0.0, 100.0 * others / total), 1),
            "steal_pct": round(100.0 * (end[1] - start[1]) / total, 1)}


def corrupt_reference(path):
    """Changes one digit of the first reference answer (same length), so
    every check against it must fail."""
    text = open(path).read()
    at = text.index("estimate: ") + len("estimate: ")
    digit = "1" if text[at] != "1" else "2"
    open(path, "w").write(text[:at] + digit + text[at + 1:])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "oneshot", "served"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Hooks for the benchmark's own tests: a tiny relation, and a corrupted
    # reference answer that every check must catch.
    parser.add_argument("--rows", type=int, default=1000000)
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args()

    threads = min(os.cpu_count() or 1, 4)
    binary = build(threads)
    if binary is None:
        return 2
    failpoints = subprocess.run([binary, "build-info"], capture_output=True,
                                text=True).stdout.strip()

    work = os.path.join(WORK_ROOT, "%s-%d-%d" % (args.workload, args.seed,
                                                 os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return measure(args, binary, threads, failpoints, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def measure(args, binary, threads, failpoints, work):
    load_at_start = load_mark()
    common = ["--seed", str(args.seed), "--threads", str(threads),
              "--trace", str(args.trace)]
    attempted, failed, errors = 0, 0, []
    setups, span_files = [], []
    for i in range(SETUP_PASSES):
        pass_dir = os.path.join(work, "pass%d" % i)
        code, report, _ = run_process(
            [binary, "setup", "--work", pass_dir, "--rows", str(args.rows)]
            + common,
            pass_dir + ".out")
        if code != 0 or report is None:
            log("set-up pass %d failed (exit %d): %s" % (
                i, code, report["errors"] if report else "no report"))
            return 1
        setups.append(report)
        span_files.append(os.path.join(pass_dir, "spans-setup.jsonl"))
        if i > 0:
            # Same seed, same inputs: every pass must produce the same
            # release and the same reference answers.
            for name in ("reference.txt", os.path.join("release", "MANIFEST")):
                attempted += 1
                first = open(os.path.join(work, "pass0", name), "rb").read()
                again = open(os.path.join(pass_dir, name), "rb").read()
                if first != again:
                    failed += 1
                    errors.append("set-up pass %d: %s differs" % (i, name))
            for name in ("data.csv", "release"):
                path = os.path.join(pass_dir, name)
                if os.path.isdir(path):
                    shutil.rmtree(path)
                elif os.path.exists(path):
                    os.remove(path)

    pass0 = os.path.join(work, "pass0")
    if args.corrupt_reference:
        corrupt_reference(os.path.join(pass0, "reference.txt"))
    code, run, peak_rss_mb = run_process(
        [binary, "run", "--work", pass0, "--workload", args.workload,
         "--seconds", str(args.seconds)] + common,
        os.path.join(work, "run.out"))
    if code != 0 or run is None:
        log("measured window failed (exit %d)" % code)
        return 1
    span_files.append(os.path.join(pass0, "spans-run.jsonl"))

    for report in setups + [run]:
        attempted += report["attempted"]
        failed += report["failed"]
        errors += report["errors"]
    for error in errors[:8]:
        log("check failed: " + error)

    if args.trace:
        primary = {"ingest": "op", "oneshot": "op", "served": "direct"}
        metrics = layer_metrics(span_files, setups, run,
                                primary[args.workload])
    else:
        metrics = e2e_metrics(setups, run, peak_rss_mb)

    stamp = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "revision": source_revision(),
        "build": "Release, " + failpoints,
        "threads": {"ingest_and_oneshot": threads, "server_pool": threads,
                    "per_served_query": 1, "client_sessions": 4},
        "rows": args.rows,
        "input_csv_bytes": int(setups[0]["scalars"]["input_bytes"]),
        "release_bytes": int(setups[0]["scalars"]["release_bytes"]),
        "setup_passes": SETUP_PASSES,
        "host_load": host_load(load_at_start),
        "ledger": "group commit, checkpoint_every=1024, grants as 1000 "
                  "records, fsync on the checkout's file system",
        "samples": {kind: sum(len(values) for r in setups + [run]
                              for name, values in r["series"].items()
                              if name.startswith(kind + "_ms"))
                    for kind in ("privatize", "verify", "oneshot",
                                 "served.anon", "served.charged")},
    }
    for name, metric in metrics.items():
        if not math.isfinite(metric["value"]):
            attempted += 1
            failed += 1
            log("no samples for metric " + name)
            metric["value"] = None
    print("# " + json.dumps(stamp, sort_keys=True))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
