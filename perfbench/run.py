#!/usr/bin/env python3
"""Repository benchmark: build and run `perfbench`, compare runs, self-test.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload tune --seed 7 --seconds 10 --trace 0

Compare two sets of runs (each file holds the concatenated stdout of many
runs, e.g. of the parent commit and of a change):

    python3 perfbench/run.py compare parent.txt change.txt

Self-test every workload at a tiny scale:

    python3 perfbench/run.py selftest

Set VIA_GIT_REV to record the revision in each result's provenance.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
SPEC = os.path.join(HERE, os.pardir, "BENCHMARK.json")


def build():
    """Builds the benchmark binary; returns its path or None on failure.

    Cargo's messages go to stderr so that stdout carries only results."""
    proc = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", MANIFEST,
         "--message-format=json-render-diagnostics"],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True, check=False)
    if proc.returncode != 0:
        return None
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg.get("target", {}).get("name") == "perfbench":
            exe = msg["executable"]
    return exe


def load_spec():
    with open(SPEC, encoding="utf-8") as f:
        return json.load(f)


def parse_runs(path):
    """Yields (workload, result) for every run in a file of run outputs."""
    workload = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if "provenance" in obj:
                workload = obj["provenance"].get("workload")
            elif "metrics" in obj and "correct" in obj and workload:
                yield workload, obj


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, bound, lower_is_better):
    """better / no change / worse / unresolved, by the benchmark's bound.

    Better: the change wins at least nine tenths of the pairs and the
    medians differ by more than the base's quartile spread. Unresolved: the
    base's own spread is wider than the bound and the change does not read
    better on every run. Worse: the change's median is worse than the
    base's by more than the bound."""
    sign = 1.0 if lower_is_better else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (b - c) > 0)
    share = wins / len(pairs) if pairs else 0.0
    b1, bmed, b3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    gain = sign * (bmed - cmed)
    if share >= 0.9 and gain > (b3 - b1):
        return share, "better"
    all_better = all(sign * (b - c) > 0 for b in base for c in change)
    if bmed and (b3 - b1) / abs(bmed) > bound and not all_better:
        return share, "unresolved"
    if bmed and -gain / abs(bmed) > bound:
        return share, "worse"
    return share, "no change"


def compare(base_path, change_path):
    spec = load_spec()
    runs = {}
    for side, path in (("base", base_path), ("change", change_path)):
        for workload, res in parse_runs(path):
            for name, m in res["metrics"].items():
                runs.setdefault((workload, name), {"base": [], "change": []})[side] \
                    .append(m["value"])
            err = res["failed"] / max(res["attempted"], 1)
            runs.setdefault((workload, "error_rate"), {"base": [], "change": []})[side] \
                .append(err)
    print(f"{'workload':<10} {'metric':<12} {'base q1/med/q3':<36} "
          f"{'change q1/med/q3':<36} {'won':>5}  verdict")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            data = runs.get((w["name"], m["name"]))
            if not data or not data["base"] or not data["change"]:
                print(f"{w['name']:<10} {m['name']:<12} (no runs on one side)")
                continue
            share, v = verdict(data["base"], data["change"], m["bound"],
                               m["better"] == "lower")
            fmt = lambda vals: "/".join(f"{x:.4g}" for x in quartiles(vals))
            print(f"{w['name']:<10} {m['name']:<12} {fmt(data['base']):<36} "
                  f"{fmt(data['change']):<36} {share:>5.2f}  {v}")
        data = runs.get((w["name"], "error_rate"))
        if data:
            print(f"{w['name']:<10} {'error_rate':<12} base max {max(data['base'] or [0]):.4g}, "
                  f"change max {max(data['change'] or [0]):.4g}")
    return 0


def selftest(exe):
    """Runs every workload at a tiny scale, traced (twice) and untraced, and
    checks that every declared metric is emitted with its unit, that the
    cold/warm and traced/untraced identity checks held, and that the
    `model.*` counts repeat exactly."""
    spec = load_spec()
    failures = []
    for w in spec["workloads"]:
        models = []
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"]),
                                ("1", spec["per_layer"])):
            proc = subprocess.run(
                [exe, "--workload", w["name"], "--seed", "1", "--seconds", "1",
                 "--trace", trace, "--scale", "tiny"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False)
            label = f"{w['name']} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, ValueError):
                failures.append(f"{label}: no JSON result (exit {proc.returncode})\n"
                                f"{proc.stderr[-2000:]}")
                continue
            if proc.returncode != 0 or not res.get("correct") or res.get("failed"):
                failures.append(f"{label}: incorrect result {lines[-1]}\n{proc.stderr[-2000:]}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
            if got != want:
                failures.append(f"{label}: metrics {sorted(got.items())} != "
                                f"declared {sorted(want.items())}")
            if trace == "1":
                models.append({k: v["value"] for k, v in res["metrics"].items()
                               if k.startswith("model.")})
            print(f"selftest {label}: {'ok' if not failures else 'see failures'}")
        if len(models) == 2 and models[0] != models[1]:
            failures.append(f"{w['name']}: model counts differ between runs: {models}")
    for f in failures:
        print("FAILED:", f, file=sys.stderr)
    return 1 if failures else 0


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare BASE_RUNS CHANGE_RUNS", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if argv[:1] == ["selftest"]:
        return selftest(exe)
    sys.stdout.flush()
    return subprocess.run([exe] + argv, check=False).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
