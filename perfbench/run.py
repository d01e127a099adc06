#!/usr/bin/env python3
"""Build and run the EchoImage end-to-end benchmark.

    python3 perfbench/run.py --workload auth_paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark is built from source (the
library under src/ plus perfbench/src/) in an optimised CMake tree under
$CARGO_TARGET_DIR, or .bench_build when that is unset. Build output goes
to stderr; the benchmark's last stdout line is its JSON result. The exit
code is the benchmark's, or non-zero without a result when the build
fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def revision():
    """The source revision: the git commit when there is one, otherwise a
    digest of every file the benchmark is built from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def build(build_dir, target):
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main(argv):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    selftest = argv == ["--selftest"]
    target = "perfbench_selftest" if selftest else "echoimage_perfbench"
    if not build(build_dir, target):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    env = dict(os.environ, PERFBENCH_REVISION=revision())
    cmd = [os.path.join(build_dir, target)] + ([] if selftest else argv)
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
