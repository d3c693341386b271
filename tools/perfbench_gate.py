#!/usr/bin/env python3
"""Repository-benchmark regression gate.

Runs the repository benchmark twice per cell of a committed snapshot,

    python3 perfbench/run.py --workload W --seed S --seconds 0.1 --trace T

for T = 0 (end-to-end metrics) and T = 1 (per-layer metrics), and checks
the runs against the snapshot's record for (W, S):

  * each result line says correct == true and failed == 0, and each
    report says every round produced the same device_fingerprint;
  * every end-to-end device metric that BENCHMARK.json bounds is no worse
    than the snapshot by more than that bound;
  * every per-layer device metric (the ladder rungs, the per-size AEAD
    latencies, the ring's cycle counts; the record's "layers") is no worse
    than the snapshot by more than the bound of the end-to-end metric in
    the same unit: ok_blocks_per_device_cycle for blocks/cycle,
    latency_p50_cycles for cycles. Which way is better comes from the
    metric's own BENCHMARK.json entry.

Every gate is one-sided: a better figure always passes.

Device metrics are simulated cycles and repeat exactly for a seed on any
host, so a 0.1 s run measures them as well as a long one. Host metrics
(set-up time, memory, simulator speed) depend on the machine and are
printed, never gated. The device_fingerprint is read from the report and
compared with the snapshot's; a change is noted, not failed, because every
intended device-visible change moves it. Rounds of one run that disagree on
it fail the run.

With --update the snapshot is rewritten from the fresh runs. A record whose
device figures moved keeps the values it held before under "before": that
is how a change records its before/after figures. A record whose device
figures did not move keeps its "before" as it was.

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
LAYER_LINE = re.compile(r"^\s+(\S+)\s+(-?[0-9.]+)\s+\S+\s+\[device\]\s+->")
# The end-to-end metric whose bound gates a per-layer metric, by unit.
LAYER_BOUND_BY_UNIT = {"blocks/cycle": "ok_blocks_per_device_cycle",
                       "cycles": "latency_p50_cycles"}
FINGERPRINT = re.compile(
    r"device_fingerprint ([0-9a-f]{16}) \((identical|DIFFERS) across")
RUN_SECONDS = 0.1


def run_cell(workload, seed, trace):
    """Runs one cell; returns (result, device, layers, host, fingerprint,
    agree)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(RUN_SECONDS),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)}: no result line "
                           f"(exit status {proc.returncode})")
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    device, layers, host = {}, {}, {}
    fingerprint, agree = None, False
    for line in lines:
        # Full precision from the result line where it has the metric.
        m = METRIC_LINE.match(line)
        if m:
            name, kind = m.group(1), m.group(3)
            value = values.get(name, float(m.group(2)))
            (device if kind == "device" else host)[name] = value
        m = LAYER_LINE.match(line)
        if m:
            layers[m.group(1)] = values.get(m.group(1), float(m.group(2)))
        f = FINGERPRINT.search(line)
        if f:
            fingerprint, agree = f.group(1), f.group(2) == "identical"
    return result, device, layers, host, fingerprint, agree


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
    ap.add_argument("--reason", default="",
                    help="with --update: why the moved figures moved, kept "
                    "in each moved record's before entry")
    args = ap.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        declared = json.load(f)
    bounds = {m["name"]: m for m in declared["end_to_end"]}
    layer_bounds = {}
    for m in declared["per_layer"]:
        e2e = bounds.get(LAYER_BOUND_BY_UNIT.get(m["unit"]))
        if e2e:
            layer_bounds[m["name"]] = {"better": m["better"],
                                       "bound": e2e["bound"]}
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
            runs = [run_cell(w, s, trace) for trace in (0, 1)]
        except (RuntimeError, ValueError, KeyError) as e:
            print(f"  {label}: RUN FAILED: {e}")
            broken += 1
            continue
        for trace, (result, _, _, _, fp, agree) in enumerate(runs):
            if result.get("correct") is not True or result.get("failed") != 0:
                print(f"  {label} trace {trace}: FAIL correct="
                      f"{result.get('correct')} failed={result.get('failed')}")
                broken += 1
            if not agree or fp != runs[0][4]:
                print(f"  {label} trace {trace}: FAIL device_fingerprint "
                      "differs across rounds or runs (or is missing): the "
                      "run is not deterministic")
                broken += 1
        _, device, _, host, fingerprint, _ = runs[0]
        layers = runs[1][2]
        for snap, fresh, gated in ((rec["device"], device, bounds),
                                   (rec.get("layers", {}), layers,
                                    layer_bounds)):
            for name, want in snap.items():
                if name not in gated:
                    continue
                got = fresh.get(name)
                if got is None:
                    print(f"  {label}: MISSING device metric {name}")
                    failures += 1
                    continue
                b = gated[name]
                worse = worse_by(want, got, b["better"])
                verdict = "ok" if worse <= b["bound"] else "FAIL"
                if verdict == "FAIL":
                    failures += 1
                print(f"  {label}: {name:<34} snapshot={want:<12.6g} "
                      f"fresh={got:<12.6g} "
                      f"worse_by={max(worse, 0.0) or 0.0:.1%} "
                      f"(bound {b['bound']:.0%}, {b['better']} is better)  "
                      f"{verdict}")
        print(f"  {label}: host (ungated) " + ", ".join(
            f"{k}={v:.6g}" for k, v in host.items()))
        if fingerprint != rec.get("device_fingerprint"):
            print(f"  {label}: note: device_fingerprint {fingerprint} != "
                  f"snapshot {rec.get('device_fingerprint')}")
        if args.update:
            old = {k: rec[k] for k in ("device_fingerprint", "device",
                                       "layers") if k in rec}
            new = {"device_fingerprint": fingerprint, "device": device,
                   "layers": layers}
            if any(old[k] != new[k] for k in old):
                rec["before"] = dict(old, reason=args.reason) if args.reason \
                    else old
            rec.update(new)
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
