#!/usr/bin/env python3
"""Build and run the fpsnr end-to-end benchmark.

    python3 perfbench/run.py --workload snapshot|series|fpsnrd \
        --seed N --seconds S --trace 0|1 [benchmark flags...]

Run from the repository root. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later calls rebuild incrementally. Build output goes to stderr, so the
benchmark binary's result line stays the last line of stdout. Flags the wrapper
does not know (--tiny, --inject-corruption, ...) are passed
through to the benchmark binary. See perfbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configure (once) and build the benchmark; returns its path or None."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            # Leave no half-configured tree behind for the next call.
            if os.path.exists(cache):
                os.remove(cache)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "--target", "fpsnr_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(build_dir, "fpsnr_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["snapshot", "series", "fpsnrd"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, passthrough = parser.parse_known_args()

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, "perfbench"))
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # The socket path goes relative so it stays under the unix-socket
    # path limit wherever the checkout lives.
    work_dir = os.path.relpath(os.path.join(build_dir, "run"))
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir, "--trace-out", trace_dir] + passthrough
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
