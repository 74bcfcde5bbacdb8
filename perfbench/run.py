#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first call
configures and compiles, later calls only check that the build is current.
Build output goes to stderr, so the benchmark's last stdout line is its JSON
result. Traced runs write their spans to <build>/spans/. Any further
arguments are passed to the benchmark binary unchanged.
"""

import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no src/ beside perfbench/; run from a full "
                 "checkout of the repository")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench", "-j", "4"], check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def value_of(args, flag):
    """The value after `flag` in `args`, or None."""
    i = args.index(flag) if flag in args else -1
    return args[i + 1] if 0 <= i < len(args) - 1 else None


def main(argv):
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (ROOT / target / "perfbench").resolve()
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")

    args = list(argv)
    workload, seed = value_of(args, "--workload"), value_of(args, "--seed")
    if workload and seed and "--spans" not in args:
        spans = build_dir / "spans"
        spans.mkdir(exist_ok=True)
        args += ["--spans", str(spans / f"{workload}-seed{seed}.json")]
    try:
        done = subprocess.run([str(binary)] + args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
