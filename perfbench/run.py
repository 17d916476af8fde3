#!/usr/bin/env python3
"""Build and run the repo benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/main.exe with dune (inside the checkout, shared dune cache
off), runs it with the same arguments, and checks that its last output line
is a result object whose metrics are exactly those BENCHMARK.json lists for
the run's kind: end_to_end with --trace 0, per_layer with --trace 1. Exits
non-zero, without printing a result, when the build, the run or that check
fails.
"""

import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(1)


def arg(argv, key):
    try:
        return argv[argv.index(key) + 1]
    except (ValueError, IndexError):
        fail("missing %s" % key)


def expected_metrics(trace):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    section = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[section]}


def build(env):
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        fail("run from the root of a checkout of the repository")
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if p.returncode != 0:
        sys.stderr.write(p.stdout.decode(errors="replace"))
        fail("build failed")


def main():
    argv = sys.argv[1:]
    trace = arg(argv, "--trace")
    want = expected_metrics(trace)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build(env)
    try:
        p = subprocess.run([EXE] + argv, env=env, stdout=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run failed: %s" % e)
    lines = p.stdout.decode(errors="replace").rstrip("\n").split("\n")
    if p.returncode != 0:
        sys.stderr.write("\n".join(lines) + "\n")
        fail("benchmark exited with code %d" % p.returncode)
    try:
        result = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        fail("last line is not a result object: %r" % lines[-1])
    if got != want:
        fail("metrics %s do not match BENCHMARK.json %s"
             % (sorted(got.items()), sorted(want.items())))
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
