#!/usr/bin/env python3
"""Build and run the offloadsim benchmark from a source checkout.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload offload-sweep --seed 1 --seconds 35 --trace 0

The benchmark is the Go program in this directory. It is built with the
committed default.pgo profile into the build directory (CARGO_TARGET_DIR
if set, else .bench_build), with the Go build cache and temporary files
kept there too, and then run with the given arguments and the moment
it was started, from which it times its set-up. Its last line of output
is the result JSON. Without the repository's sources next to this
directory the build fails and the script exits non-zero.
"""

import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def go_binary():
    """The go command: from PATH, else $GOROOT, else where the official
    Go distribution installs by default."""
    found = shutil.which("go")
    if found:
        return found
    return os.path.join(os.environ.get("GOROOT") or "/usr/local/go", "bin", "go")


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    pgo = os.path.join(ROOT, "default.pgo")
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(
        [go_binary(), "build", "-pgo=" + pgo, "-o", exe, "."],
        cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    ran = subprocess.run(
        [exe, "--root", ROOT] + sys.argv[1:] + ["--launched-ns", str(time.time_ns())],
        cwd=ROOT, env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
