#!/usr/bin/env python3
"""Build and run the Tempura benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pdw-2step --seed 1 --seconds 10 --trace 0

The first run compiles the program's sources together with the benchmark
harness in perfbench/src (sbt, offline) and keeps the classpath under
.bench_build/; later runs reuse it while no source file changed. The harness
runs in one JVM with one local SparkSession. Its report goes to standard
output; the last line is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json, with --trace 1 the per_layer ones. Spans of the traced passes
are written to .bench_build/perfbench/spans-<workload>-<seed>.json.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("plan-sweep", "pdw-2step", "ivm-3step")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    """Every file the build reads, in a fixed order."""
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for top in (os.path.join(ROOT, "src", "main"), os.path.join(HERE, "src")):
        for d, _, names in sorted(os.walk(top)):
            files += [os.path.join(d, n) for n in sorted(names)]
    return files


def run_bounded(cmd, cwd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    p = subprocess.Popen(cmd, cwd=cwd, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, 9)
        p.wait()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    return p.returncode, out


def classpath():
    """Compile if any source changed since the last build; return the classpath."""
    h = hashlib.sha256()
    for f in sources():
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    stamp = h.hexdigest()
    cp_file = os.path.join(BUILD, "classpath.txt")
    if os.path.exists(cp_file):
        with open(cp_file) as fh:
            saved, cp = fh.read().split("\n", 1)
        if saved == stamp:
            return cp.strip()
    if shutil.which("sbt") is None:
        fail("sbt not found on PATH")
    os.makedirs(BUILD, exist_ok=True)
    code, out = run_bounded(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.offline=true",
         "-Dsbt.override.build.repos=true", "compile", "export Runtime/fullClasspath"],
        HERE, BUILD_TIMEOUT_S, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or "[error]" in lines[-1]:
        sys.stderr.write(out[-4000:])
        fail(f"build failed (exit {code})")
    cp = lines[-1].strip()
    with open(cp_file, "w") as fh:
        fh.write(stamp + "\n" + cp + "\n")
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail(f"no program sources under {ROOT}; run from the root of a checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if a.trace else "end_to_end"]

    cp = classpath()
    tag = f"{a.workload}-{a.seed}-{a.trace}-{os.getpid()}"
    out = os.path.join(BUILD, f"result-{tag}.json")
    spans = os.path.join(BUILD, f"spans-{a.workload}-{a.seed}.json")
    tmp = os.path.join(BUILD, f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    # a fixed heap keeps GC behaviour the same from run to run; temporary
    # files (Spark's block manager, DuckDB's native library) stay in the checkout
    cmd = [java, "-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:-UsePerfData",
           "-Dfile.encoding=UTF-8", f"-Djava.io.tmpdir={tmp}", f"-Dspark.local.dir={tmp}",
           "-Dspark.driver.host=127.0.0.1", "-cp", cp, "repro.perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--out", out, "--spans", spans]
    try:
        code, _ = run_bounded(cmd, ROOT, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if code != 0 or not os.path.exists(out):
        fail(f"benchmark exited with {code}")
    with open(out) as fh:
        res = json.load(fh)
    os.remove(out)

    measured = res["per_layer" if a.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            fail(f"metric {m['name']} was not measured")
        got = measured[m["name"]]
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} measured in {got['unit']}, declared in {m['unit']}")
        metrics[m["name"]] = got
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
