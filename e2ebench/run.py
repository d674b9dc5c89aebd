#!/usr/bin/env python3
"""Build the e2ebench Go program from this checkout and run it.

    python3 e2ebench/run.py --workload detect-seq --seed 1 --seconds 15 --trace 0

Run from the root of the repository. The program is built into
.bench_build/ with a build cache there too, so nothing is read or written
outside the checkout. `--workload all` (or no --workload) runs every
workload, each in its own process, one after the other.
"""

import hashlib
import os
import subprocess
import sys

WORKLOADS = ["detect-seq", "detect-par", "jobs-standalone", "jobs-cluster"]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOENV="off",
        GOFLAGS="-mod=mod",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def source_id():
    """The commit, or a digest of the Go sources when there is no git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if out.returncode == 0:
            return "commit:" + out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def build(env):
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "e2ebench")
    out = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if out.returncode != 0:
        sys.exit("e2ebench: build failed")
    return binary


def main(argv):
    env = go_env()
    binary = build(env)
    env["E2EBENCH_SOURCE"] = source_id()
    if "--workload" in argv and argv[argv.index("--workload") + 1 :][:1] != ["all"]:
        return subprocess.run([binary] + argv, cwd=ROOT, env=env).returncode
    rest = list(argv)
    if "--workload" in rest:
        i = rest.index("--workload")
        del rest[i : i + 2]
    code = 0
    for w in WORKLOADS:
        code = subprocess.run([binary, "--workload", w] + rest, cwd=ROOT, env=env).returncode or code
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
