#!/usr/bin/env python3
"""Test of the hotel-service benchmark itself.

Builds the benchmark and runs hotelbench.SelfTest: the reference replies
must equal those of BaselineHotel and of the unsplit Interpreter, and a
corrupted reply must count as a failed operation. Then checks that the
metric names and units the benchmark prints are those BENCHMARK.json
declares.

    python3 hotelbench/test.py
"""
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402


def main() -> int:
    build.ensure()
    res = subprocess.run([build.java(), "-XX:-UsePerfData", "-Xmx1g", "-cp", build.classpath(), "hotelbench.SelfTest"],
                         stdout=subprocess.PIPE, text=True, timeout=300)
    print(res.stdout, end="")
    if res.returncode != 0:
        print("FAIL: SelfTest", file=sys.stderr)
        return 1
    names = json.loads(res.stdout.strip().splitlines()[-1].removeprefix("names "))
    spec = json.loads((build.ROOT / "BENCHMARK.json").read_text())
    declared_e2e = [m["name"] for m in spec["end_to_end"]]
    declared_layers = [[m["name"], m["unit"]] for m in spec["per_layer"]]
    if sorted(declared_e2e) != sorted(names["end_to_end"]) or \
            sorted(declared_layers) != sorted(names["per_layer"]):
        print("FAIL: BENCHMARK.json and the benchmark name different metrics", file=sys.stderr)
        return 1
    print("ok: BENCHMARK.json names the metrics the benchmark prints")
    return 0


if __name__ == "__main__":
    sys.exit(main())
