#!/usr/bin/env python3
"""Track bench-smoke throughput over time and catch regressions.

Appends one JSONL entry per invocation to a history file, built from
every ``BENCH_*.json`` artefact in the given directory: each numeric
``*_per_second`` field anywhere in an artefact becomes one keyed metric
(key = file stem + JSON path, e.g.
``BENCH_keyfind/jobs[1]/pipeline_offsets_per_second``). The new sample is then
compared against the rolling median of the last ``--window`` history
entries per metric: any metric that drops below
``(1 - threshold) * median`` fails the run.

An artefact whose top level carries a string ``"method"`` field (what
the bench times, e.g. ``"readback"``) keys its metrics as
``stem@method/path``. A bench that deliberately changes what it
measures changes its method tag, which starts a new series instead of
failing against numbers taken the old way; a drop under an unchanged
method still fails.

The first invocation (empty history) always passes — it only seeds the
history. Metrics that appear or disappear between runs are reported but
never fail the gate, so bench additions/renames don't break CI.

Usage:
  tools/bench_history.py ARTIFACT_DIR [--history FILE.jsonl]
      [--threshold 0.15] [--window 5] [--label TEXT]

Exit code 1 on any regression, 2 on usage/IO errors.
"""

import argparse
import json
import os
import statistics
import sys


def walk_metrics(node, path, out):
    """Collect every numeric *_per_second field under ``node``."""
    if isinstance(node, dict):
        for key, value in node.items():
            child = f"{path}/{key}" if path else key
            if (key.endswith("_per_second")
                    and isinstance(value, (int, float))
                    and not isinstance(value, bool)):
                out[child] = float(value)
            else:
                walk_metrics(value, child, out)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            walk_metrics(value, f"{path}[{i}]", out)


def collect_artifacts(artifact_dir):
    """Metric dict from every BENCH_*.json in ``artifact_dir``."""
    metrics = {}
    names = sorted(n for n in os.listdir(artifact_dir)
                   if n.startswith("BENCH_") and n.endswith(".json"))
    if not names:
        sys.exit(f"error: no BENCH_*.json artefacts in {artifact_dir}")
    for name in names:
        path = os.path.join(artifact_dir, name)
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            sys.exit(f"error: cannot read {path}: {e}")
        stem = name[:-len(".json")]
        method = doc.get("method") if isinstance(doc, dict) else None
        if isinstance(method, str) and method:
            stem = f"{stem}@{method}"
        walk_metrics(doc, stem, metrics)
    return metrics


def read_history(history_path):
    entries = []
    if not os.path.exists(history_path):
        return entries
    with open(history_path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                # Torn tail write from a killed CI job: keep what parses.
                print(f"note: skipping malformed history line {line_no}")
    return entries


def main():
    ap = argparse.ArgumentParser(
        description="append bench artefacts to a throughput history "
                    "and fail on regressions vs the rolling median")
    ap.add_argument("artifact_dir",
                    help="directory holding BENCH_*.json artefacts")
    ap.add_argument("--history", default=None,
                    help="history JSONL path (default: "
                         "ARTIFACT_DIR/BENCH_history.jsonl)")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="max allowed drop vs rolling median "
                         "(default 0.15 = 15%%)")
    ap.add_argument("--window", type=int, default=5,
                    help="history entries in the rolling median "
                         "(default 5)")
    ap.add_argument("--label", default="",
                    help="free-form tag stored with the entry "
                         "(commit SHA, CI run id)")
    args = ap.parse_args()
    if not os.path.isdir(args.artifact_dir):
        sys.exit(f"error: {args.artifact_dir} is not a directory")
    history_path = args.history or os.path.join(
        args.artifact_dir, "BENCH_history.jsonl")

    metrics = collect_artifacts(args.artifact_dir)
    history = read_history(history_path)
    window = history[-args.window:]

    regressions = []
    for key in sorted(metrics):
        value = metrics[key]
        past = [e["metrics"][key] for e in window
                if key in e.get("metrics", {})]
        if not past:
            print(f"new    {key} = {value:.3f}")
            continue
        median = statistics.median(past)
        floor = (1.0 - args.threshold) * median
        status = "ok    "
        if median > 0 and value < floor:
            status = "REGR  "
            regressions.append(
                f"{key}: {value:.3f} < {floor:.3f} "
                f"(median of last {len(past)}: {median:.3f}, "
                f"threshold {args.threshold:.0%})")
        print(f"{status} {key} = {value:.3f} "
              f"(median {median:.3f}, floor {floor:.3f})")
    for key in sorted(set().union(
            *(e.get("metrics", {}).keys() for e in window))
            - set(metrics)) if window else []:
        print(f"gone   {key} (present in history, absent now)")

    entry = {"label": args.label, "metrics": metrics}
    with open(history_path, "a", encoding="utf-8") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"appended {len(metrics)} metric(s) to {history_path} "
          f"({len(history) + 1} entries)")

    if regressions:
        print("\nthroughput regressions detected:")
        for r in regressions:
            print(f"  {r}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
