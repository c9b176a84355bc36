#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload population|tissue|jobs \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list-metrics
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which builds the limpet library from
the repository's sources) under .bench_build/perfbench; later calls only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Temporary files, compile caches and
daemon state stay under .bench_build and are removed when a run ends.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TARGETS = ["perfbench", "perfbench_selftest"]


def build():
    """Configures (once) and builds the benchmark; exits on failure."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] +
                 TARGETS)
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" %
                             " ".join(cmd))
            sys.exit(proc.returncode or 1)


def check_catalogue():
    """The catalogue's end-to-end and per-layer metrics must be exactly
    those BENCHMARK.json lists, with the same units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = {m["name"]: ("end-to-end", m["unit"])
              for m in spec["end_to_end"]}
    listed.update({m["name"]: ("per-layer", m["unit"])
                   for m in spec["per_layer"]})
    out = subprocess.run([os.path.join(BUILD, "perfbench"), "--list-metrics"],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    catalogued = {}
    for line in out.splitlines()[1:]:
        name, unit, kind = line.split()[:3]
        if kind != "diagnostic":
            catalogued[name] = (kind, unit)
    bad = 0
    for name in sorted(set(listed) | set(catalogued)):
        if listed.get(name) != catalogued.get(name):
            sys.stderr.write("catalogue/BENCHMARK.json mismatch: %s: %s vs %s\n"
                             % (name, catalogued.get(name), listed.get(name)))
            bad += 1
    return bad


def main(argv):
    build()
    if "--self-test" in argv:
        rc = subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
        if rc == 0 and check_catalogue():
            rc = 1
        return rc
    env = dict(os.environ)
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    # The native tier writes its generated sources under TMPDIR.
    env["TMPDIR"] = tmp
    proc = subprocess.run([os.path.join(BUILD, "perfbench")] + argv, cwd=ROOT,
                          env=env)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
