#!/usr/bin/env python3
"""Builds the corrobd benchmark driver and runs one workload.

    python3 perfbench/run.py --workload cold_read --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first call configures and
builds corrobd plus the driver under .bench_build/ (Release); later
calls rebuild incrementally. The driver's last stdout line is the
result object; see perfbench/README.md for the workloads and metrics.
Exit codes: the driver's own (0 ok, 1 failed check, 2 error), or 2
when the build fails or the checkout has no sources to build.
"""

import argparse
import ctypes
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = ".bench_build"
PR_SET_PDEATHSIG = 1


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds corrobd and the driver."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "corrob_perfbench", "corrobd"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed: " + " ".join(step))
    corrobd = os.path.join(build_dir, "corrob", "src", "server", "corrobd")
    driver = os.path.join(build_dir, "corrob_perfbench")
    for binary in (corrobd, driver):
        if not os.access(binary, os.X_OK):
            fail(f"build produced no {binary}")
    return driver, corrobd


def source_id():
    """The git commit when there is one, else a digest of src/."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def die_with_parent():
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold_read", "hot_read", "write_read"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"{ROOT} is not a corrob source checkout (no CMakeLists.txt/src)")
    os.chdir(ROOT)
    driver, corrobd = build(os.path.join(BUILD_ROOT, "perfbench"))

    # Relative, short work dir: corrobd's Unix socket lives in it.
    work_dir = os.path.join(BUILD_ROOT, "runs", str(os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    command = [driver, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--corrobd", corrobd,
               "--work-dir", work_dir, "--source-id", source_id()]
    # One CPU for the driver and every corrobd it starts: the closed
    # loops ping-pong on a CPU that never idles, so wakeups do not wait
    # for the host to reschedule a halted vCPU (README, steadiness).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    code = subprocess.run(command, preexec_fn=die_with_parent).returncode
    if code == 0:
        spans = os.path.join(work_dir, "trace.json")
        if os.path.exists(spans):
            os.replace(spans, os.path.join(
                BUILD_ROOT, f"trace-{args.workload}-{args.seed}.json"))
        shutil.rmtree(work_dir, ignore_errors=True)
    else:
        print(f"perfbench: driver exited {code}; logs kept in {work_dir}",
              file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
