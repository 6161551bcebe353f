#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload explore|throughput|serve|campaign \
        --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune, then runs it with the same
arguments from the repository root.  Build output goes to stderr; the
benchmark's own report goes to stdout, whose last line is the JSON
result.  Exits non-zero, without a result, when the repository sources
are missing or the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, **kw):
    """Run a child to completion; it is waited for even on interrupt."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kw)
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() or "none"


def main():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("repository source not found (missing %s)" % need)
    # no shared build cache: the build reads and writes only this tree
    env = dict(os.environ, DUNE_CACHE="disabled")
    status = run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if status != 0:
        sys.exit(status)
    sys.stdout.flush()
    sys.exit(run([EXE] + sys.argv[1:] + ["--commit", commit()]))


if __name__ == "__main__":
    main()
