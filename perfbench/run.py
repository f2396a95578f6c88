#!/usr/bin/env python3
"""Build and run the hunt-and-soak benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload hunt-kube --seed 42 --seconds 20 --trace 0

Builds perfbench/bench.exe with dune (the first build compiles the whole
library stack), then runs it with the same arguments plus a source
identifier and the core count. The benchmark's stdout is passed through
unchanged: its last line is the JSON result. Exits non-zero when the
build fails, the run times out, or a correctness gate fails.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("hunt-kube", "hunt-rep-hbase", "soak-kube")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
SOURCE_DIRS = ("lib", "bin", "perfbench")


def source_id():
    """A digest of the sources the benchmark builds, standing in for the
    commit when the tree is not a git checkout."""
    digest = hashlib.sha256()
    paths = ["dune-project"]
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith(("_", ".")))
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        if os.path.isfile(path):
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    commit = "unknown"
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return "%s+src-%s" % (commit, digest.hexdigest()[:16])


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed (exit %d)" % build.returncode, file=sys.stderr)
        return 2

    command = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--commit", source_id(),
        "--nproc", str(nproc()),
    ]
    # bench.exe runs each hunt repetition in a child process; its own
    # session lets a timeout stop the children with it.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        # Stops whatever of the session is still running, on every path,
        # and waits until none of it is left.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        proc.wait()
        for _ in range(200):
            try:
                os.killpg(proc.pid, 0)
            except OSError:
                break
            time.sleep(0.05)
        # A killed bench.exe leaves its scratch directory behind.
        shutil.rmtree(os.path.join(".bench_build", "perfbench-%d" % proc.pid), ignore_errors=True)
    sys.stdout.buffer.write(stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        print("perfbench: benchmark exited with %d" % proc.returncode, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
