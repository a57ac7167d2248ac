#!/usr/bin/env python3
"""Build perfbench from source and replace this process with it.

Run from the repository root:

    python3 perfbench/run.py --workload engine-hot --seed 1 --seconds 25 --trace 0

The Go build cache and the binary go under .bench_build/ in the
repository root (or $CARGO_TARGET_DIR when set), so a run reads and
writes nothing outside the checkout besides the Go toolchain itself.
The build is the only child process; once it has exited, the script
execs the benchmark, so the benchmark is the one process left and no
wrapper can outlive it. A failed build exits non-zero without printing
a result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def commit():
    """Returns the checkout's revision from .git, or "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def main():
    go = shutil.which("go")
    if go is None:
        sys.exit("perfbench: the go toolchain is not on PATH")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ,
               GOCACHE=os.path.join(out, "gocache"),
               GOMODCACHE=os.path.join(out, "gomodcache"),
               GOPATH=os.path.join(out, "gopath"),
               GOENV="off", GOFLAGS="-buildvcs=false", GOTOOLCHAIN="local",
               GOPROXY="off", GOWORK="off", CGO_ENABLED="0")
    binary = os.path.join(out, "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, timeout=850)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(binary, [binary] + sys.argv[1:] +
             ["--commit", commit(), "--workdir", out])


if __name__ == "__main__":
    main()
