#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload small_blocks --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first call configures and builds the
serving stack from ../src plus the benchmark program (Release, CMake) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only rebuild what changed. Build output goes to stderr. The program's report
goes to stdout and its last line is the JSON result. With --trace 1 the
recorded spans are written to <build dir>/../perfbench-traces/<workload>.json.

Exits non-zero without a result when the sources are missing, the build
fails, the arguments are wrong, or the program fails or times out.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("small_blocks", "bulk_ring", "aead_records")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_child(cmd, timeout, **kwargs):
    """Runs cmd in its own process group and waits for it. On timeout, or
    if this script is told to stop, the whole group (a build's compilers
    too) is killed and waited for first: nothing outlives us."""
    child = subprocess.Popen(cmd, start_new_session=True, **kwargs)

    def kill_group():
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()

    def stop(signum, _frame):
        kill_group()
        sys.exit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, stop)
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group()
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    return child.returncode, out


def run_quiet(cmd, timeout):
    """Runs a build step; its output is shown (on stderr) only on failure."""
    rc, out = run_child(cmd, timeout, stdout=subprocess.PIPE,
                        stderr=subprocess.STDOUT)
    if rc != 0:
        sys.stderr.write(out.decode(errors="replace"))
        fail(f"failed: {' '.join(cmd)}")


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources at {ROOT / 'src'}")
    if not (bdir / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(bdir),
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(bdir), "--target", "perfbench",
               "-j", jobs], BUILD_TIMEOUT_S)
    return bdir / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    bdir = build_dir()
    exe = build(bdir)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = bdir.parent / "perfbench-traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}.json")]
    sys.stdout.flush()
    rc, _ = run_child(cmd, RUN_TIMEOUT_S)
    sys.exit(rc)


if __name__ == "__main__":
    main()
