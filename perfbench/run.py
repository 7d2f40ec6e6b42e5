#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run it from the repository root. It configures the repository with
CMake (Release; perfbench/perfbench.cmake adds the benchmark target),
builds perfbench_e2e under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) and runs it. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. The pool size is
util::ThreadPool's default, or CULPEO_THREADS when set (refused above the
CPU count).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def commit_id():
    """The checkout's commit when it is a git work tree, else 'unknown'.

    Reads .git directly, so nothing outside the checkout is consulted.
    """
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                fields = line.split()
                if len(fields) == 2 and fields[1] == ref:
                    return fields[0]
    except OSError:
        pass
    return "unknown"


def build(build_dir, jobs):
    def step(cmd):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))

    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        step(["cmake", "-S", ROOT, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release",
              "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "perfbench.cmake")])
    step(["cmake", "--build", build_dir, "--target", "perfbench_e2e",
          "--parallel", str(jobs)])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no repository sources next to {HERE} "
             "(need CMakeLists.txt and src/)")

    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                            ".bench_build")
    build_dir = os.path.join(out_root, "perfbench")
    workdir = os.path.join(out_root, "tmp")
    os.makedirs(workdir, exist_ok=True)
    build(build_dir, len(os.sched_getaffinity(0)))

    cmd = [os.path.join(build_dir, "perfbench", "perfbench_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir,
           "--reference-dir", os.path.join(HERE, "reference")]
    env = dict(os.environ, PERFBENCH_COMMIT=commit_id())
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
