#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload service-bulk --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout. The first call configures and builds the
libraries under src/ together with the benchmark program in this directory
(about a minute on 4 cores); later calls only re-check the build. Build
output goes to stderr, so the last line on stdout is the program's JSON
result. The build tree is $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset. See perfbench/README.md
for workloads and metrics.
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_rev():
    """Git revision when the checkout has one, else a hash of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        cmd = ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256-" + digest.hexdigest()[:12]


def build(build_dir):
    """Configure (once) and build the program; returns the binary path."""
    log = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: src/ not found next to perfbench/; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(ROOT, target)),
                             "perfbench")
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    args = [binary] + sys.argv[1:] + [
        "--rev", source_rev(),
        "--spans-dir", os.path.join(build_dir, "spans"),
    ]
    sys.stdout.flush()
    os.execv(binary, args)
    return 0  # not reached


if __name__ == "__main__":
    sys.exit(main())
