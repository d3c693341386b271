#!/usr/bin/env python3
"""Repository-benchmark regression gate.

Runs the repository benchmark once per cell of a committed snapshot,

    python3 perfbench/run.py --workload W --seed S --seconds 0.1 --trace 0

and checks each run against the snapshot's record for (W, S):

  * the result line says correct == true and failed == 0, and the report
    says every round produced the same device_fingerprint;
  * every device metric that BENCHMARK.json bounds is no worse than the
    snapshot by more than that bound. The gate is one-sided: a better
    figure always passes.

Device metrics are simulated cycles and repeat exactly for a seed on any
host, so a 0.1 s run measures them as well as a long one. Host metrics
(set-up time, memory, simulator speed) depend on the machine and are
printed, never gated. The device_fingerprint is read from the report and
compared with the snapshot's; a change is noted, not failed, because every
intended device-visible change moves it. Rounds of one run that disagree on
it fail the run.

With --update the snapshot is rewritten from the fresh runs, and the values
it held before move to each record's "before" entry: that is how a change
records its before/after figures.

Exit status: 0 = gate passed, 1 = regression or failed run, 2 = usage.

    python3 tools/perfbench_gate.py --snapshot bench/BENCH_perfbench.json
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRIC_LINE = re.compile(r"^\s+(\S+)\s+(-?[0-9.]+)\s+\S+\s+\[(device|host)\]$")
FINGERPRINT = re.compile(
    r"device_fingerprint ([0-9a-f]{16}) \((identical|DIFFERS) across")
RUN_SECONDS = 0.1


def run_cell(workload, seed):
    """Runs one cell; returns (result, device, host, fingerprint, agree)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(RUN_SECONDS),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)}: no result line "
                           f"(exit status {proc.returncode})")
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    device, host = {}, {}
    fingerprint, agree = None, False
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            name, kind = m.group(1), m.group(3)
            # Full precision from the result line where it has the metric.
            value = values.get(name, float(m.group(2)))
            (device if kind == "device" else host)[name] = value
        f = FINGERPRINT.search(line)
        if f:
            fingerprint, agree = f.group(1), f.group(2) == "identical"
    return result, device, host, fingerprint, agree


def worse_by(snap, fresh, better):
    """Relative amount by which fresh is worse than snap (<= 0: not worse)."""
    if snap == 0:
        worse = fresh < 0 if better == "higher" else fresh > 0
        return float("inf") if worse else 0.0
    delta = (fresh - snap) / abs(snap)
    return -delta if better == "higher" else delta


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--snapshot", required=True,
                    help="committed snapshot, e.g. bench/BENCH_perfbench.json")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the snapshot from the fresh runs")
    args = ap.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
    with open(args.snapshot) as f:
        snapshot = json.load(f)
    records = snapshot.get("records", [])
    if not records:
        print(f"perfbench_gate: no records in {args.snapshot}",
              file=sys.stderr)
        return 2

    failures = broken = 0
    print(f"perfbench_gate: {len(records)} cell(s) vs {args.snapshot}, "
          "bounds from BENCHMARK.json")
    for rec in records:
        w, s = rec["workload"], rec["seed"]
        label = f"{w} seed {s}"
        try:
            result, device, host, fingerprint, agree = run_cell(w, s)
        except (RuntimeError, ValueError, KeyError) as e:
            print(f"  {label}: RUN FAILED: {e}")
            broken += 1
            continue
        if result.get("correct") is not True or result.get("failed") != 0:
            print(f"  {label}: FAIL correct={result.get('correct')} "
                  f"failed={result.get('failed')}")
            broken += 1
        if not agree:
            print(f"  {label}: FAIL device_fingerprint differs across rounds "
                  "(or is missing): the run is not deterministic")
            broken += 1
        for name, want in rec["device"].items():
            if name not in bounds:
                continue
            got = device.get(name)
            if got is None:
                print(f"  {label}: MISSING device metric {name}")
                failures += 1
                continue
            b = bounds[name]
            worse = worse_by(want, got, b["better"])
            verdict = "ok" if worse <= b["bound"] else "FAIL"
            if verdict == "FAIL":
                failures += 1
            print(f"  {label}: {name:<28} snapshot={want:<12.6g} "
                  f"fresh={got:<12.6g} worse_by={max(worse, 0.0) or 0.0:.1%} "
                  f"(bound {b['bound']:.0%}, {b['better']} is better)  "
                  f"{verdict}")
        print(f"  {label}: host (ungated) " + ", ".join(
            f"{k}={v:.6g}" for k, v in host.items()))
        if fingerprint != rec.get("device_fingerprint"):
            print(f"  {label}: note: device_fingerprint {fingerprint} != "
                  f"snapshot {rec.get('device_fingerprint')}")
        if args.update:
            rec["before"] = {"device_fingerprint": rec.get(
                "device_fingerprint"), "device": rec["device"]}
            rec["device_fingerprint"] = fingerprint
            rec["device"] = device
            rec["host_ungated"] = host

    if args.update and broken:
        print("perfbench_gate: not rewriting the snapshot from failed runs")
    elif args.update:
        with open(args.snapshot, "w") as f:
            json.dump(snapshot, f, indent=2)
            f.write("\n")
        print(f"perfbench_gate: rewrote {args.snapshot}")
    if failures or broken:
        print(f"perfbench_gate: FAILED ({failures + broken} check(s)); "
              "if a device metric moved on purpose, rerun with --update and "
              "say why")
        return 1
    print(f"perfbench_gate: passed ({len(records)} cell(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
