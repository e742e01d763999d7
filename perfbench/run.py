#!/usr/bin/env python3
"""PapyrusKV benchmark: build the client, run one workload, print metrics.

  python3 perfbench/run.py --workload remote_get --seed 1 --seconds 10 --trace 0

Builds perfbench_client and papyrus_inspect from the repository's sources
into .bench_build/, runs the named workload (see README.md) and prints, as
the last line of stdout, one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of one untraced pass.  --trace 1
reports the per-layer ledger: an untraced pass with the layer probes, then
a traced pass (PAPYRUSKV_TRACE + papyrus_inspect --trace-merge), each
measuring half of --seconds.  The line before the result describes the run
(host, compiler, build type, seed, ranks, sizes).
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("remote_get", "local_sstable_get", "replicated_update")
DB = "db.perfbench."
# Load-phase store counters that must repeat exactly from run to run: each
# owner's data has one writer, applied in order, under a fixed flush policy,
# so nothing here depends on timing.
LEDGER_COUNTERS = (DB + "flushes", DB + "compactions", "store.flush_bytes",
                   "store.flush_entries", "store.compaction_read_bytes",
                   "store.compaction_written_bytes",
                   "sim.dev.nvme.bytes_written", "sim.dev.nvme.write_ops")
DEADLINE_S = 170  # every pass together; the run must end within 180 s

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "tools" / "papyrus_inspect.cc").is_file():
        fail(f"PapyrusKV sources not found under {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                        str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    "perfbench_client", "papyrus_inspect"],
                   stdout=sys.stderr, check=True)


def clean_env():
    # PAPYRUSKV_* / PAPYRUS_* settings would silently change the workload.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("PAPYRUS")}


def cpu_times():
    """Aggregate CPU jiffies from /proc/stat (empty where there is none)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_pct(before, after):
    # Field 8 is steal: time the hypervisor ran someone else on our CPUs.
    d = [b - a for a, b in zip(before, after)]
    return 100.0 * d[7] / sum(d) if len(d) > 7 and sum(d) else 0.0


def run_client(args, seconds, deadline, probes=False, trace_base=None):
    """One client process; a traced pass runs only the measured job, so the
    trace files hold its spans.  Records the host's CPU steal meanwhile."""
    repo = BUILD / "run" / args.workload
    shutil.rmtree(repo, ignore_errors=True)
    env = clean_env()
    if trace_base:
        env["PAPYRUSKV_TRACE"] = str(trace_base)
    cmd = [str(BUILD / "perfbench_client"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={seconds}", f"--repo={repo}",
           f"--probes={int(probes)}",
           f"--corrupt-expected={int(args.corrupt_expected)}",
           f"--measured-only={int(trace_base is not None)}"]
    before = cpu_times()
    try:
        out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                             timeout=max(1.0, deadline - time.monotonic()),
                             check=True).stdout
    except subprocess.TimeoutExpired:
        fail("client did not finish in time")
    except subprocess.CalledProcessError as e:
        fail(f"client exited with {e.returncode}")
    finally:
        shutil.rmtree(repo, ignore_errors=True)
    rec = json.loads(out)
    rec["steal_pct"] = steal_pct(before, cpu_times())
    return rec


# ---- stats-v1 helpers: counters and log2 histograms summed over ranks ----

def counter(rec, phase, name):
    return sum(r[phase]["counters"].get(name, 0) for r in rec["stats"])


def delta(rec, name, a, b):
    return counter(rec, b, name) - counter(rec, a, name)


def prefixed_delta(rec, a, b, pred):
    names = {n for r in rec["stats"] for n in r[b]["counters"] if pred(n)}
    return sum(delta(rec, n, a, b) for n in names)


def hist_buckets(rec, phase, name):
    merged = {}
    for r in rec["stats"]:
        h = r[phase]["histograms"].get(name)
        for upper, n in (h or {}).get("buckets", []):
            merged[upper] = merged.get(upper, 0) + n
    return merged


def hist_delta(rec, name, a, b):
    before = hist_buckets(rec, a, name)
    after = hist_buckets(rec, b, name)
    return {u: n - before.get(u, 0) for u, n in after.items()}


def hist_field(rec, name, field, a, b):
    return sum(r[b]["histograms"].get(name, {}).get(field, 0) -
               r[a]["histograms"].get(name, {}).get(field, 0)
               for r in rec["stats"])


def hist_p50(buckets):
    # Same interpolation as obs::HistogramData::Percentile (log2 buckets,
    # bucket upper bounds 2^k - 1).
    count = sum(buckets.values())
    if count == 0:
        return 0.0
    rank = max(1, int(0.5 * count + 0.5))
    cum = 0
    for upper in sorted(buckets):
        n = buckets[upper]
        if n and cum + n >= rank:
            lower = 0 if upper == 0 else (upper + 1) // 2
            return lower + (upper - lower) * (rank - cum) / n
        cum += n
    return float(max(buckets))


def ratio(num, den):
    return num / den if den else 0.0


# ---- metrics ----

# The client reports per-job and per-round figures, each for the slowest
# rank; a metric is their median.

def run_kops(rec):
    return statistics.median(rec["round_kops"])


def end_to_end(rec):
    # Only figures that stay steady when the host steals CPU: throughput,
    # p99 and space amplification move with host contention, so they are
    # reported in the per-layer ledger (core.*, store.space_amp) instead.
    return {
        "setup_s": (statistics.median(rec["setup_s"]), "s"),
        "get_p50_us": (rec["get_us"]["p50"], "us"),
        "put_p50_us": (rec["put_us"]["p50"], "us"),
        "rss_mb": (rec["rss_mb"], "MB"),
    }


def trace_columns(text):
    """Rows of papyrus_inspect's per-op critical-path table."""
    rows, in_table = {}, False
    for line in text.splitlines():
        cols = line.split()
        if cols[:2] == ["op", "count"]:
            in_table = True
        elif in_table and len(cols) == 7:
            rows[cols[0]] = dict(zip(
                ("count", "total", "queue", "service", "search", "wire_ack"),
                map(float, cols[1:])))
    return rows


def per_layer(rec, traced, rows, mismatches):
    gets = sum(rec["run_gets"])
    ops = gets + sum(rec["run_puts"])
    close_s = statistics.median(rec["close_s"])
    probes = rec["probes"]
    user_bytes = (rec["keys_per_rank"] * rec["ranks"] + sum(rec["run_puts"])
                  ) * (rec["key_bytes"] + rec["value_bytes"])
    batches = ("async.batch_size", "async.get_batch_size")
    frames = sum(hist_field(rec, h, "count", "open", "end") for h in batches)
    framed_ops = sum(hist_field(rec, h, "sum", "open", "end") for h in batches)
    bloom = delta(rec, DB + "bloom_checks", "load", "run")
    bloom_neg = delta(rec, DB + "bloom_negatives", "load", "run")
    hits = delta(rec, DB + "cache_local.hits", "load", "run")
    misses = delta(rec, DB + "cache_local.misses", "load", "run")
    m = {
        "core.load_kops": (statistics.median(
            rec["keys_per_rank"] / s / 1e3 for s in rec["load_s"]), "kops/s"),
        "core.run_kops": (run_kops(rec), "kops/s"),
        "core.get_p99_us": (rec["get_us"]["p99"], "us"),
        "core.put_p99_us": (rec["put_us"]["p99"], "us"),
        "core.get_remote_p50_us": (rec["get_remote_us"]["p50"], "us"),
        "core.get_local_p50_us": (rec["get_local_us"]["p50"], "us"),
        "core.barrier_s": (close_s if rec["close"] == "barrier" else 0.0,
                           "s"),
        "core.put_submit_p50_us": (rec["put_submit_us"]["p50"], "us"),
        "core.fence_s": (close_s if rec["close"] == "fence" else 0.0, "s"),
        "core.fail_frac": (ratio(rec["failed"], rec["attempted"]), "ratio"),
        "async.ops_per_frame": (ratio(framed_ops, frames), "ops/frame"),
        "async.get_op_p50_us": (
            hist_p50(hist_delta(rec, "async.get_op_us", "load", "run")), "us"),
        "net.rtt_p50_us": (probes["net_rtt_p50_us"], "us"),
        "net.msgs_per_op": (ratio(prefixed_delta(
            rec, "load", "run",
            lambda n: n.startswith("net.") and n.endswith(".msgs")), ops),
            "msgs/op"),
        "net.bytes_per_op": (ratio(prefixed_delta(
            rec, "load", "run",
            lambda n: n.startswith("net.") and n.endswith(".bytes")), ops),
            "B/op"),
        "net.retries": (delta(rec, "net.req.retries", "open", "end"), "count"),
        "net.timeouts": (delta(rec, "net.req.timeouts", "open", "end"),
                         "count"),
        "trace.overhead_pct": (
            100.0 * (1 - run_kops(traced) / run_kops(rec)), "%"),
        "store.bloom_neg_ratio": (ratio(bloom_neg, bloom), "ratio"),
        "store.sstables_per_get": (ratio(bloom - bloom_neg, gets),
                                   "tables/get"),
        "store.read_bytes_per_get": (ratio(prefixed_delta(
            rec, "load", "run",
            lambda n: n.startswith("sim.dev.") and n.endswith(".bytes_read")),
            gets), "B/get"),
        "store.cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "store.space_amp": (rec["repo_bytes"] / rec["live_user_bytes"],
                            "ratio"),
        "store.write_amp": (ratio(prefixed_delta(
            rec, "open", "end",
            lambda n: n.startswith("sim.dev.") and
            n.endswith(".bytes_written")), user_bytes), "ratio"),
        "store.flushes": (delta(rec, DB + "flushes", "open", "end"), "count"),
        "store.compactions": (delta(rec, DB + "compactions", "open", "end"),
                              "count"),
        "store.compaction_busy_s": (hist_field(
            rec, "store.compaction_us", "sum", "open", "end") / 1e6, "s"),
        "store.sstable_get_p50_us": (probes["sstable_get_p50_us"], "us"),
        "store.memtable_get_p50_ns": (probes["memtable_get_p50_ns"], "ns"),
        "store.ledger_mismatches": (mismatches, "count"),
        "repl.appends_per_frame": (ratio(
            delta(rec, "repl.appends", "open", "end"),
            delta(rec, "net.req.repl_append.msgs", "open", "end")),
            "appends/frame"),
        "repl.lag_ops_max": (max(rec["repl_lag_max"]), "ops"),
        "common.crc32c_mbps": (probes["crc32c_mbps"], "MB/s"),
    }
    for op, row in (("get", "get_multi"), ("put", "put_batch")):
        r = rows.get(row, {})
        for col in ("queue", "service", "search", "wire_ack"):
            m[f"trace.{op}.{col}_us"] = (r.get(col, 0.0), "us")
    return m


def ledger_mismatches(rec):
    """Compares the load-phase store counters with the previous run's of the
    same workload in this checkout; returns how many differ."""
    now = {n: delta(rec, n, "open", "load") for n in LEDGER_COUNTERS}
    path = BUILD / "ledger" / f"{rec['workload']}.json"
    before = json.loads(path.read_text()) if path.is_file() else now
    differ = [n for n in LEDGER_COUNTERS if before.get(n) != now[n]]
    for n in differ:
        print(f"perfbench: store counter {n} changed from {before.get(n)} "
              f"to {now[n]} since the previous run", file=sys.stderr)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(now))
    return len(differ)


def run_info(args, rec, extra):
    cache = (BUILD / "CMakeCache.txt").read_text()
    entry = lambda key: next((ln.split("=", 1)[1] for ln in cache.splitlines()
                              if ln.startswith(key + ":")), "")
    compiler = entry("CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                             text=True).stdout.splitlines()[:1]
    info = {
        "host.cores": os.cpu_count(), "compiler": " ".join(version),
        "build_type": entry("CMAKE_BUILD_TYPE"), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "ranks": rec["ranks"], "keys_per_rank": rec["keys_per_rank"],
        "absent_keys_per_rank": rec["absent_keys_per_rank"],
        "key_bytes": rec["key_bytes"], "value_bytes": rec["value_bytes"],
        "update_share": rec["update_share"],
        "absent_share": rec["absent_share"], "replicas": rec["replicas"],
        "get_samples": rec["get_us"]["count"],
        "put_samples": rec["put_us"]["count"], "put_phase": rec["put_phase"],
        "load_jobs": rec["load_jobs"], "rounds": rec["rounds"],
        "setup_samples": len(rec["setup_s"]),
        "host.steal_pct": rec["steal_pct"],
    }
    info.update(extra)
    return info


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt-expected", action="store_true",
                   help="corrupt the expected value of every 16th key, to "
                        "show that the value check fires")
    args = p.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")
    deadline = time.monotonic() + DEADLINE_S

    seconds = args.seconds / 2 if args.trace else args.seconds
    rec = run_client(args, seconds, deadline, probes=bool(args.trace))
    mismatches = ledger_mismatches(rec)
    passes, extra = [rec], {}
    if args.trace:
        trace_dir = BUILD / "trace" / args.workload
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        base = trace_dir / "trace.json"
        traced = run_client(args, seconds, deadline, trace_base=base)
        merged = subprocess.run(
            [str(BUILD / "papyrus_inspect"), "--trace-merge", str(base),
             str(trace_dir / "merged.json")],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        shutil.rmtree(trace_dir, ignore_errors=True)
        rows = trace_columns(merged)
        passes.append(traced)
        metrics = per_layer(rec, traced, rows, mismatches)
        extra = {f"trace_{op}_samples": int(r["count"])
                 for op, r in rows.items()}
        for key in ("rtt_req_bytes", "rtt_resp_bytes", "sstable_lookups"):
            extra[f"probe_{key}"] = rec["probes"][key]
    else:
        metrics = end_to_end(rec)

    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    if args.trace:
        attempted += rec["probes"]["sstable_lookups"]
        failed += rec["probes"]["sstable_mismatches"]
    print(json.dumps({"run_info": run_info(args, rec, extra)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
