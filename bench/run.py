"""dpsynth benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload a5_warm --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; dpsynth is imported from `src/`.
The run sets up the workload's inputs seven times, each in a fresh
interpreter, then measures it in one child process for `--seconds` seconds
(see `bench/workloads.py`). Child processes pin BLAS to one thread.

Human-readable lines come first: every metric by name and unit, the
failure share with both counts, and an environment record. The last line is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones from a traced run. `bench/README.md` defines each metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "workloads.py")
WORKLOADS = ("a5_warm", "glyph28_stages", "account_sweep")
SETUPS = 7
SETUP_TIMEOUT_S = 60.0
BLAS_THREADS = 1
DEADLINE_S = 170.0  # a run must end within 180 s


def summarise(values: list[float]) -> dict:
    """Median and 75th percentile of request times, with the sample counts."""
    if not values:
        raise ValueError("no timed requests")
    p75 = statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]
    return {
        "p50": statistics.median(values),
        "p75": p75,
        "n": len(values),
        "beyond_p75": sum(1 for v in values if v > p75),
    }


def probe_ms() -> float:
    """Median time of a fixed pure-Python loop, in ms.

    A neighbour outside this machine's view (another tenant on the host) does
    not show in the load average, but it slows this loop.
    """
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        sum(i * i for i in range(200_000))
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def timed_setup(cmd: list[str], env: dict) -> tuple[float, int]:
    """Run one set-up in a child; returns its wall time in s and its exit code.

    `Popen.wait(timeout)` polls in sleeps of up to 50 ms, which would round
    each set-up time up to that step, so the wait blocks and a timer kills a
    child that runs too long.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env)
    timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    return time.perf_counter() - t0, code


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def tree_digest(path: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(path)):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "dpsynth")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                h.update(name.encode() + hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    t_start = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "dpsynth", "__init__.py")):
        print(f"error: no dpsynth sources under {ROOT}/src", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 60:
        print("error: --seconds must be in (0, 60]", file=sys.stderr)
        return 2

    work = os.path.join(BENCH, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    env = child_env()
    load = {"before_setup": os.getloadavg()}
    probe = {"before_setup": probe_ms()}
    attempted = failed = 0
    try:
        # Set-up: interpreter start, `import dpsynth`, and writing the inputs.
        setup_times, digests = [], []
        for k in range(SETUPS):
            target = os.path.join(work, f"setup{k}")
            cmd = [sys.executable, WORKER, "setup", "--workload", args.workload,
                   "--seed", str(args.seed), "--dir", target]
            elapsed, code = timed_setup(cmd, env)
            setup_times.append(elapsed)
            attempted += 1
            if code != 0:
                print(f"error: set-up exited with code {code}", file=sys.stderr)
                return 1
            digests.append(tree_digest(os.path.join(target, "inputs")))
        if len(set(digests)) != 1:
            print("failure: one seed produced different inputs across set-ups", file=sys.stderr)
            failed += 1
        load["after_setup"] = os.getloadavg()

        run_dir = os.path.join(work, f"setup{SETUPS - 1}")
        cmd = [sys.executable, WORKER, "run", "--workload", args.workload, "--seed", str(args.seed),
               "--dir", run_dir, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(BENCH, ".traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--spans", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
        remaining = DEADLINE_S - (time.perf_counter() - t_start)
        try:
            done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            print(f"error: the measured run did not finish within {remaining:.0f} s", file=sys.stderr)
            return 1
        load["after_run"] = os.getloadavg()
        probe["after_run"] = probe_ms()
        if done.returncode != 0 or not done.stdout.strip():
            print(f"error: the measured run exited with code {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted += result["attempted"]
    failed += result["failed"]
    times = summarise(result["request_s"]) if result["request_s"] else None
    absent = set(result.get("absent", ()))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"requests={result['requests']} (request 0 untimed)")
    if args.trace:
        metrics = result["layers"]
        print(f"traced_requests={result['traced_requests']} spans={result['spans']}")
        # The JSON line must give every metric a number; absent ones read 0 there.
        print("absent=" + (",".join(sorted(absent)) or "none"))
    else:
        if times is None:
            print("error: no request finished without failing", file=sys.stderr)
            return 1
        metrics = {
            "setup_s": statistics.median(setup_times),
            "run_s": times["p50"],
            "run_p75_s": times["p75"],
            "peak_rss_mb": result["peak_rss_mib"],
        }
        print(f"timed_requests={times['n']} beyond_p75={times['beyond_p75']} setups={len(setup_times)}")
        print("request_s=" + ",".join(f"{t:.4f}" for t in result["request_s"]))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        units = {m["name"]: m["unit"] for m in json.load(f)["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        print(f"error: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"metric {name} = " + ("absent" if name in absent else f"{value:.6g} {units[name]}"))
    if result.get("frechet_final") is not None:
        print(f"frechet_final = {result['frechet_final']:.9g} (exact per seed)")
    print(f"failed_share = {failed}/{attempted} = {failed / attempted:.4g}")
    for message in result["failures"]:
        print(f"failure: {message}")
    record = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "loadavg": load,
        "probe_ms": probe,
        **result["env"],
    }
    print("env " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
