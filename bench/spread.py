"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload a5_warm --seeds 1-10 [--seconds 36] [--out FILE]

It runs untraced (`--trace 0`). For every end-to-end metric it prints the
median, the quartiles and the interquartile range as a share of the median,
which is the spread the benchmark's bounds are checked against. With --out, the per-seed results are saved as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(os.path.dirname(os.path.dirname(RUN)), "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=200)
        if done.returncode != 0:
            print(f"seed {seed}: exit code {done.returncode}", file=sys.stderr)
            return 1
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
        requests = next((l[len("request_s="):] for l in lines if l.startswith("request_s=")), "")
        runs.append({"seed": seed, "result": result, "env": env, "request_s": requests})
        values = " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              f"load={env['loadavg']['after_run'][0]:.2f} probe_ms={env['probe_ms']['after_run']:.1f} {values}",
              flush=True)
    names = runs[0]["result"]["metrics"]
    summary = {}
    for name in names:
        s = spread([r["result"]["metrics"][name]["value"] for r in runs])
        summary[name] = s
        print(f"{name}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} iqr/median {s['iqr_share']:.4f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "runs": runs, "summary": summary}, f, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
