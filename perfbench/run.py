#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload fresh_chip --seed 1 --seconds 45 --trace 0

Builds perfbench/ (which builds the library from src/) into .bench_build,
runs the workload in its own process (perfbench_workload), checks its
outputs and prints one JSON object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones from the traced replay. A failed check prints
the reason on stderr and exits 1 without a result. See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench_workload")

WORKLOADS = ("fresh_chip", "warm_chip")

# Canonical campaign JSON + CSV of round 0 at the default seed. Any
# change that only claims speed must leave these byte-identical.
DEFAULT_SEED = 1
DIGESTS = {
    "fresh_chip":
        "fae6e751b91eab092bb500d410523a92604a3d2b0b712d29ecab4bbe3e3afd75",
    "warm_chip":
        "7d1d95475ff6431bf0f8e5315ddc7aff0158b074ba9164f928c10d97b4c667b7",
}

# Untraced runs keep going past --seconds until this many trials have
# completed, so trial_p90_ms has ten samples beyond it.
MIN_TRIALS = 100
# Named spans must cover this share of traced trial time per family.
MAX_UNATTRIBUTED_PCT = 5.0
WORKLOAD_TIMEOUT_S = 170
GUARDED_ENV = ("VOLTBOOT_FINGERPRINT_CACHE_MB", "VOLTBOOT_RETENTION_KERNEL")

FAMILIES = ("voltboot", "coldboot", "glitch", "static-extract",
            "voltage-coupling", "key-recovery")

# Per-layer span metrics: metric name -> span name. Each is the p50
# over trials of the trial's summed self time in that span.
SPAN_METRICS = {
    "soc.build_ms": "soc_build",
    "soc.power_on_ms": "power_on",
    "soc.teardown_ms": "soc_teardown",
    "os.victim_stage_ms": "victim_stage",
    "core.voltboot_ms": "attack.voltboot",
    "core.extract_ms": "extract",
    "crypto.score_ms": "score",
    "keyfind.priors_ms": "keyfind.priors",
    "keyfind.fuse_ms": "keyfind.fuse",
    "keyfind.recover_ms": "keyfind.recover",
    "fault.glitch_ms": "attack.glitch",
    "sidechannel.static_extract_ms": "attack.static_extract",
    "sidechannel.capture_ms": "sidechannel.capture",
    "sidechannel.cpa_ms": "sidechannel.cpa",
    "trace.to_jsonl_ms": "trace.to_jsonl",
    "report.read_trace_ms": "report.read_trace",
}
# Per power cycle, not per trial: key-recovery cycles several times.
PER_CALL_SPAN_METRICS = {"core.coldboot_ms": "attack.coldboot"}

# Telemetry counters reported per traced trial.
COUNTER_METRICS = {
    "sram.fp_misses_per_trial": "fingerprint_cache_misses",
    "sram.fp_hits_per_trial": "fingerprint_cache_hits",
    "sram.fp_evictions_per_trial": "fingerprint_cache_evictions",
    "sram.cells_per_trial": "cells_processed",
    "sim.hash_lanes_per_trial": "hash_lanes",
    "keyfind.offsets_per_trial": "keyfind_offsets_scanned",
    "sram.avx512_passes_per_trial": "kernel_invocations_avx512",
    "sram.scalar_passes_per_trial": "kernel_invocations_scalar",
}


class CheckFailed(Exception):
    """An output or environment check failed; no numbers are printed."""


# ---------------------------------------------------------------------
# Statistics helpers (unit-tested in tests/test_run.py).

def tail_rank(n):
    """1-based rank of the highest sample with at least ten beyond it,
    or None when n <= 10."""
    return n - 10 if n > 10 else None


def tail_percentile(n):
    """The highest percentile that has at least ten samples beyond it."""
    rank = tail_rank(n)
    return None if rank is None else 100.0 * rank / n


def percentile(values, p):
    """Nearest-rank percentile p (0 < p <= 100) of values."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, -(-p * len(ordered) // 100))  # ceil(p * n / 100)
    return ordered[int(rank) - 1]


def setup_estimate(reset_s, bringup_s, dies):
    """Set-up time: the median reset plus dies x the median die
    bring-up, so one slow bring-up cannot move it."""
    total = statistics.median(reset_s)
    if dies:
        total += dies * statistics.median(bringup_s)
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of it its
    direct children cover. spans: [trial, name, start, end, parent]
    rows, a trial's rows contiguous and in opening order, parent being
    the index of the enclosing row within the same trial (-1 = none).
    Returns a list of (trial, name, self_ns)."""
    out = []
    group = []

    def flush():
        child_ns = [0] * len(group)
        for row in group:
            if row[4] >= 0:
                child_ns[row[4]] += row[3] - row[2]
        for i, row in enumerate(group):
            out.append((row[0], row[1], row[3] - row[2] - child_ns[i]))

    for row in spans:
        if group and row[0] != group[0][0]:
            flush()
            group = []
        group.append(row)
    if group:
        flush()
    return out


# ---------------------------------------------------------------------
# Checks.

def digest(workdir):
    h = hashlib.sha256()
    for name in ("round0.json", "round0.csv"):
        with open(os.path.join(workdir, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def check_trials(raw):
    """Failures, statuses and the paper anchors these workloads touch."""
    trials = raw["trials"]
    failed = sum(1 for t in trials if t[2] in ("error", "skipped"))
    if failed:
        raise CheckFailed("%d of %d trials failed (error/skipped)"
                          % (failed, len(trials)))
    if not raw["rounds_consistent"]:
        raise CheckFailed("rounds of one campaign seed disagree")
    for t in trials:
        tid, family, status, _, accuracy, planted, exact, cpa = t
        where = "trial %d (%s)" % (tid, family)
        if status != "ok":
            raise CheckFailed("%s ended %s" % (where, status))
        if family == "voltboot" and not (accuracy == 1.0 and planted
                                         and exact):
            raise CheckFailed("%s: Volt Boot dcache must read back "
                              "exactly and find its planted key" % where)
        if family in ("coldboot", "key-recovery") and exact:
            raise CheckFailed("%s: SRAM has no chill, yet a cold-boot "
                              "key was recovered exactly" % where)
        if family == "voltage-coupling" and not (cpa == 16 and exact):
            raise CheckFailed("%s: CPA recovered %d/16 key bytes"
                              % (where, cpa))
    return len(trials), failed


def check_digest(workload, seed, workdir):
    if seed != DEFAULT_SEED:
        return
    want = DIGESTS[workload]
    got = digest(workdir)
    if want != got:
        raise CheckFailed("%s canonical output digest %s != recorded %s"
                          % (workload, got, want))


def check_environment():
    for name in GUARDED_ENV:
        if name in os.environ:
            raise CheckFailed("refusing to run with %s set" % name)


# ---------------------------------------------------------------------
# Metrics.

def end_to_end(raw):
    rounds = raw["rounds"]
    busy_s = sum(r["run_s"] + r["render_s"] for r in rounds)
    walls = [t[3] for t in raw["trials"]]
    if (tail_percentile(len(walls)) or 0.0) < 90.0:
        raise CheckFailed("%d trials leave fewer than ten beyond p90"
                          % len(walls))
    return {
        "trials_per_s": (sum(r["trials"] for r in rounds) / busy_s, "1/s"),
        "trial_p50_ms": (percentile(walls, 50), "ms"),
        "trial_p90_ms": (percentile(walls, 90), "ms"),
        "setup_s": (setup_estimate(raw["reset_s"], raw["bringup_s"],
                                   raw["warm_dies"]), "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(raw, spans):
    if not raw["replay_parity"]:
        raise CheckFailed("replayed trials differ from runTrial's")
    traced = raw["traced_trials"]
    n = len(traced)
    counters = raw["traced_counters"]
    if counters["kernel_invocations_reference"]:
        raise CheckFailed("the Reference retention kernel ran %d passes"
                          % counters["kernel_invocations_reference"])

    per_trial = {}  # (trial, span name) -> summed self ns
    per_call = {}   # span name -> [self ns]
    covered = {}    # trial -> ns covered by named top-level spans
    for trial, name, self_ns in self_times(spans):
        per_trial[(trial, name)] = per_trial.get((trial, name), 0) + self_ns
        per_call.setdefault(name, []).append(self_ns)
    for row in spans:
        if row[4] == 0:  # direct children of the trial root
            covered[row[0]] = covered.get(row[0], 0) + row[3] - row[2]

    def p50_ms(samples):
        return percentile(samples, 50) / 1e6 if samples else 0.0

    m = {}
    for metric, span in SPAN_METRICS.items():
        m[metric] = (p50_ms([v for (t, s), v in per_trial.items()
                             if s == span]), "ms")
    for metric, span in PER_CALL_SPAN_METRICS.items():
        m[metric] = (p50_ms(per_call.get(span, [])), "ms")
    for metric, counter in COUNTER_METRICS.items():
        m[metric] = (counters[counter] / n, "count")
    offsets = counters["keyfind_offsets_scanned"]
    m["keyfind.early_reject_ratio"] = (
        counters["keyfind_early_rejects"] / offsets if offsets else 0.0,
        "ratio")
    m["sram.fp_cache_mb"] = (raw["fp_cache_bytes"] / 2**20, "MB")
    m["sim.arena_mb_per_trial"] = (
        counters["plane_arena_bytes"] / 2**20 / n, "MB")
    m["sram.reference_passes"] = (
        counters["kernel_invocations_reference"], "count")
    coupling = sum(1 for t in traced if t[1] == "voltage-coupling")
    m["trace.events_per_trial"] = (
        raw["trace_events"] / coupling if coupling else 0.0, "count")
    m["report.jsonl_kb_per_trial"] = (
        raw["jsonl_bytes"] / 1024.0 / coupling if coupling else 0.0, "KB")

    rounds = raw["rounds"]
    trials = sum(r["trials"] for r in rounds)
    idle = sum(r["run_s"] * raw["jobs"] - r["trial_s"] for r in rounds)
    m["campaign.engine_ms"] = (1e3 * idle / trials, "ms")
    m["campaign.serialize_ms"] = (
        1e3 * sum(r["render_s"] for r in rounds) / trials, "ms")
    for family in FAMILIES:
        walls = [t[3] for t in raw["trials"] if t[1] == family]
        m["campaign.trial_ms." + family] = (
            percentile(walls, 50) if walls else 0.0, "ms")

    worst = 0.0
    for family in sorted({t[1] for t in traced}):
        ids = [t for t in traced if t[1] == family]
        total_ns = sum(t[3] * 1e6 for t in ids)
        named_ns = sum(covered.get(t[0], 0) for t in ids)
        pct = 100.0 * (total_ns - named_ns) / total_ns
        if pct > MAX_UNATTRIBUTED_PCT:
            raise CheckFailed("%s: %.2f%% of traced trial time is in no "
                              "named span" % (family, pct))
        worst = max(worst, pct)
    m["bench.unattributed_pct"] = (worst, "%")
    untraced_ms = sum(t[3] for t in raw["trials"])
    traced_ms = sum(t[3] for t in traced)
    m["bench.trace_overhead_pct"] = (
        100.0 * (traced_ms - untraced_ms) / untraced_ms, "%")
    return m


def provenance(raw):
    c = raw["counters"]
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": raw["nproc"],
        "workers": raw["jobs"],
        "kernel_passes": {
            "avx512": c["kernel_invocations_avx512"],
            "scalar": c["kernel_invocations_scalar"],
            "reference": c["kernel_invocations_reference"],
        },
        "build_type": raw["build_type"],
        "commit": commit,
    }


def evaluate(args, workdir):
    """Check one finished run and return (attempted, failed, metrics)."""
    with open(os.path.join(workdir, "result.json")) as f:
        raw = json.load(f)
    if not raw["optimized"]:
        raise CheckFailed("the workload binary is not an optimised build "
                          "(%s)" % raw["build_type"])
    attempted, failed = check_trials(raw)
    check_digest(args.workload, args.seed, workdir)
    if args.trace:
        spans = []
        with open(os.path.join(workdir, "spans.jsonl")) as f:
            for line in f:
                spans.append(json.loads(line))
        metrics = per_layer(raw, spans)
    else:
        metrics = end_to_end(raw)
    walls = [t[3] for t in raw["trials"]]
    n = len(walls)
    line = "workload %s: %d trials, p50 %.3f ms" % (
        args.workload, attempted, percentile(walls, 50))
    if tail_rank(n):
        line += ", p%.4g %.3f ms" % (tail_percentile(n),
                                     sorted(walls)[tail_rank(n) - 1])
    print(line + " (n=%d)" % n)
    print("provenance " + json.dumps(provenance(raw), sort_keys=True))
    return attempted, failed, metrics


# ---------------------------------------------------------------------
# Build and run.

def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        steps = [
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", BUILD_DIR, "--target",
             "perfbench_workload", "-j", str(min(4, os.cpu_count() or 1))],
        ]
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                raise CheckFailed("build failed:\n" + tail)


def run_workload(args):
    workdir = os.path.join(BUILD_DIR, "run", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", workdir, "--min-trials", str(MIN_TRIALS)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=WORKLOAD_TIMEOUT_S,
                              stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        raise CheckFailed("workload exceeded %d s" % WORKLOAD_TIMEOUT_S)
    if proc.returncode != 0:
        raise CheckFailed("workload exited with %d" % proc.returncode)
    return workdir


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_environment()
        build()
        workdir = run_workload(args)
        attempted, failed, metrics = evaluate(args, workdir)
    except CheckFailed as e:
        print("perfbench: check failed: %s" % e, file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print("%-36s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
