#!/usr/bin/env python3
"""Build the perfbench Go program from this checkout and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cohort-clean --seed 1 --seconds 10 --trace 0

The arguments are passed to the Go program unchanged. The build cache,
temporary files and the binary live under .bench_build/ in the checkout,
so a run writes nothing outside it. The exit code is the program's; a
failed build or a checkout without the xpro module exits non-zero with
no result line.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def stale(binary: str, root: str, build: str) -> bool:
    """True when the binary is missing or older than any Go source or module file."""
    if not os.path.exists(binary):
        return True
    built_at = os.path.getmtime(binary)
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if not d.startswith(".") and os.path.join(dirpath, d) != build]
        for f in filenames:
            if (f.endswith(".go") or f in ("go.mod", "go.sum")) and os.path.getmtime(os.path.join(dirpath, f)) > built_at:
                return True
    return False


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    gomod = os.path.join(root, "go.mod")
    if not os.path.isfile(gomod) or "module xpro\n" not in open(gomod).read():
        print("perfbench: run from the root of an xpro checkout (go.mod of module xpro not found)", file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for key, sub in [("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOMODCACHE", "gomod"),
                     ("GOPATH", "gopath"), ("XDG_CONFIG_HOME", "config"), ("HOME", "home")]:
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update({"GOTOOLCHAIN": "local", "GOPROXY": "off", "GOFLAGS": "-mod=readonly", "GOTELEMETRY": "off"})
    binary = os.path.join(build, "perfbench-bin")
    if stale(binary, root, build):
        try:
            built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: build timed out", file=sys.stderr)
            return 2
        if built.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
