#!/usr/bin/env python3
"""Build the end-to-end benchmark from source, then run it.

Usage (from the repository root):

    python3 e2ebench/run.py --workload stream|relay|fleet|figures \
        --seed N --seconds S --trace 0|1

The benchmark is a CMake package of its own (e2ebench/CMakeLists.txt) that
compiles the library sources under src/ in Release mode. It is configured
and built under $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench);
build output goes to standard error. Every argument is passed on to the
e2ebench binary, whose last line of standard output is the result JSON.
Traced runs write their Chrome trace into .../e2ebench-traces.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR")
    if target:
        return os.path.abspath(target)
    return os.path.join(ROOT, ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    build_dir = os.path.join(build_root(), "e2ebench")
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.join(build_root(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "e2ebench")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"e2ebench: build failed: {error}", file=sys.stderr)
        return 1
    traces = os.path.join(build_root(), "e2ebench-traces")
    sys.stdout.flush()
    return subprocess.run([binary, *sys.argv[1:], "--out", traces]).returncode


if __name__ == "__main__":
    sys.exit(main())
