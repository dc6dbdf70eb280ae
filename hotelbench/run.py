#!/usr/bin/env python3
"""Run one workload of the hotel-service benchmark in a fresh JVM.

    python3 hotelbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: hotel-local, hotel-faas (see hotelbench/README.md).
Builds the program first if a source changed. The last line of stdout is
the result: {"correct", "attempted", "failed", "metrics"}; the line before
it records the machine, JVM and settings.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

WORKLOADS = ["hotel-local", "hotel-faas"]

# One heap size and one collector for every workload, so that neither heap
# sizing nor the choice of collector varies between runs. The metaspace
# starts large enough that class loading triggers no full collections.
# No perf-data file, which the JVM would write outside the checkout.
JVM_FLAGS = ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:MetaspaceSize=256m", "-XX:-UsePerfData"]

# The module openings Spark's own launcher passes on Java 17.
SPARK_FLAGS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    *(f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in [
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
        "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
        "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar"]),
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
    "-Dspark.driver.host=127.0.0.1",
]

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
JVM_TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()
    try:
        build.ensure()
        cp = build.classpath()
    except build.BuildError as e:
        print(f"[hotelbench] build failed: {e}", file=sys.stderr)
        return 1

    # A private temp directory: Spark's scratch space, the streaming
    # runtime's checkpoint directories and the JVM's working directory all
    # land here, and it is deleted when the run ends.
    tmp = build.OUT / "tmp" / f"run-{os.getpid()}-{int(time.time() * 1000)}"
    tmp.mkdir(parents=True)
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(tmp))
    cmd = [build.java(), *JVM_FLAGS, *SPARK_FLAGS,
           f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={build.BENCH / 'log4j2.properties'}",
           "-cp", cp, "hotelbench.Main",
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace]
    proc = subprocess.Popen(cmd, cwd=tmp, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    # A SIGTERM ends this process through the `finally` below, which stops
    # the JVM and removes the temp directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        out, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"[hotelbench] {a.workload} did not finish within {JVM_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)

    lines = [l for l in out.splitlines() if l.strip()]
    for l in lines[:-1]:
        print(l)
    if proc.returncode != 0 or not lines:
        print(f"[hotelbench] JVM exited with {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"[hotelbench] no result line: {lines[-1]!r}", file=sys.stderr)
        return 1
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        print(f"[hotelbench] malformed result: {lines[-1]!r}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
