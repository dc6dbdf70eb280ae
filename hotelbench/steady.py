#!/usr/bin/env python3
"""Steadiness of the hotel-service benchmark.

Runs a workload k times, untraced, each in a fresh JVM with seeds 1 to k,
and prints for every metric its median, first and third quartile and the
spread (Q3 - Q1) / median, with quartiles as statistics.quantiles(values,
n=4) gives them. The bounds in BENCHMARK.json are set from this output.

    python3 hotelbench/steady.py --workload hotel-local --runs 10 --seconds 30
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    a = ap.parse_args()

    values, units, failed_share = {}, {}, set()
    for i in range(a.runs):
        seed = 1 + i
        start = time.monotonic()
        res = subprocess.run([sys.executable, str(RUN), "--workload", a.workload, "--seed", str(seed),
                              "--seconds", str(a.seconds), "--trace", "0"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if res.returncode != 0:
            print(f"seed {seed}: run failed with exit code {res.returncode}", file=sys.stderr)
            return 1
        r = json.loads(res.stdout.strip().splitlines()[-1])
        failed_share.add((r["failed"], r["attempted"]) if r["failed"] else 0)
        print(f"seed {seed}: wall={time.monotonic() - start:.1f}s correct={r['correct']} "
              f"attempted={r['attempted']} failed={r['failed']} " +
              " ".join(f"{k}={m['value']:.6g}" for k, m in r["metrics"].items()), flush=True)
        for k, m in r["metrics"].items():
            values.setdefault(k, []).append(m["value"])
            units[k] = m["unit"]

    summary = {}
    print(f"\n{a.workload}, {a.runs} runs of {a.seconds} s")
    print(f"{'metric':32} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], None, vs[0])
        spread = (q3 - q1) / med if med else float("nan")
        summary[k] = {"unit": units[k], "median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{k:32} {units[k]:6} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}")
    print(f"failed shares seen: {sorted(map(str, failed_share))}")
    print(json.dumps({"workload": a.workload, "runs": a.runs, "seconds": a.seconds, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
