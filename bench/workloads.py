"""The three benchmark workloads, run in a child process by `bench/run.py`.

    python3 bench/workloads.py setup --workload W --seed N --dir D
    python3 bench/workloads.py run --workload W --seed N --dir D --seconds S --trace 0|1

`setup` writes the workload's inputs into D, generated from the seed alone.
`run` is a closed loop with one client: it sends the next request only after
the previous one has finished and been checked, until the next request would
end after S seconds. Each request is one or more operations (a `run_all`, a
CLI call); an operation fails when it raises, exits non-zero, or one of its
output checks fails. With --trace 1, every other request runs under the
tracer, so untraced and traced requests see the same inputs and machine
state. The last stdout line is a JSON summary for `bench/run.py`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import dpsynth  # noqa: E402
from dpsynth import cli, data_io, pipeline  # noqa: E402
from dpsynth.accounting import sgm_rdp_curve  # noqa: E402
from dpsynth.core import RngSeed  # noqa: E402
from dpsynth.diffusion import NoiseSchedule, ParamManifest, init_params, load_checkpoint, save_checkpoint  # noqa: E402

import tracing  # noqa: E402


class CheckFailed(Exception):
    """An operation's output broke one of the benchmark's checks."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def digest(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def call_cli(argv: list[str]) -> str:
    """Run one CLI call in-process; returns its stdout, fails on a non-zero exit."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    check(code == 0, f"dpsynth {argv[0]} exited with code {code}")
    return buf.getvalue()


def parse_kv(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def check_container(path, count: int) -> data_io.ContainerFile:
    c = data_io.load_container(path)  # verifies the payload checksum
    check(c.count == count, f"{path}: {c.count} records, expected {count}")
    return c


def check_unit_range(c: data_io.ContainerFile, path) -> None:
    check(bool(np.all(c.pixels >= 0.0) and np.all(c.pixels <= 1.0)), f"{path}: pixels outside [0, 1]")


class Workload:
    """A workload: inputs from a seed, and requests made of checked operations."""

    def __init__(self, work: str, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.inputs = os.path.join(work, "inputs")
        self.out = os.path.join(work, "out")
        self.first: dict = {}  # artifact digests of the first request, per operation

    def setup(self) -> None:
        raise NotImplementedError

    def operations(self, i: int) -> list:
        """The operations of request i, each a generator function (see `Counter.run`)."""
        raise NotImplementedError

    def same_as_first(self, op: str, digests: dict) -> None:
        """DP artifacts must be byte-identical across the repeats of one invocation."""
        ref = self.first.setdefault(op, digests)
        changed = sorted(k for k in ref.keys() | digests.keys() if ref.get(k) != digests.get(k))
        check(not changed, f"{op}: artifacts differ from the first request: {changed}")

    def finish(self) -> list:
        """Untimed operations run once after the loop."""
        return []


class A5Warm(Workload):
    """One `run_all` on the A5 acceptance config, warm start, shortened (see README)."""

    def config(self) -> pipeline.PipelineConfig:
        P = pipeline
        return P.PipelineConfig(
            seed=self.seed,
            output_dir=self.out,
            dataset=P.DatasetConfig(source="toy", n_per_class=200, num_classes=10, height=8, width=8),
            central=P.CentralConfig(kind="mean", count=50, sampling_rate=0.1, noise_scale=5.0, per_label=True),
            model=P.ModelConfig(hidden1=96, hidden2=96, time_dim=16, label_dim=8, diffusion_steps=50),
            privacy=P.PrivacyConfig(epsilon=10.0, delta=1e-5),
            warmup=P.WarmupConfig(iterations=64, batch_size=32, learning_rate=0.01),
            finetune=P.FinetuneConfig(
                steps=16, sampling_rate=0.15, clip_bound=0.5, learning_rate=0.05, checkpoint_every=8
            ),
            eval=P.EvalConfig(n_synthetic=250, feature_dim=16, loss_draws=10_000, probe=False),
        )

    def setup(self) -> None:
        os.makedirs(self.inputs, exist_ok=True)
        with open(os.path.join(self.inputs, "config.json"), "w") as f:
            f.write(dataclasses.replace(self.config(), output_dir="out").to_json() + "\n")

    def operations(self, i: int) -> list:
        return [self.run_all]

    def run_all(self):
        cfg = pipeline.PipelineConfig.from_json_file(os.path.join(self.inputs, "config.json"))
        cfg = dataclasses.replace(cfg, output_dir=self.out)
        shutil.rmtree(self.out, ignore_errors=True)
        yield  # time from here
        pipeline.run_all(cfg)
        yield  # to here; checks follow
        out = self.out
        with open(os.path.join(out, "metrics.json")) as f:
            metrics = json.load(f)
        with open(os.path.join(out, "ledger.json")) as f:
            ledger = json.load(f)
        target = cfg.privacy.epsilon
        eps = metrics["epsilon_spent"]
        check(0.999 * target <= eps <= target, f"epsilon_spent {eps} outside [0.999, 1] x {target}")
        kinds = [ev["kind"] for ev in ledger["events"]]
        check(kinds.count("mean_query") == cfg.central.count, f"{kinds.count('mean_query')} query events")
        check(kinds.count("dpsgd_step") == cfg.finetune.steps, f"{kinds.count('dpsgd_step')} step events")
        check(len(kinds) == cfg.central.count + cfg.finetune.steps, "ledger holds uncharged event kinds")
        for name in ("warmup.ckpt", "latest.ckpt", "final.ckpt"):
            load_checkpoint(os.path.join(out, name))  # verifies the payload checksum
        check_container(os.path.join(out, "central.dpc"), cfg.central.count)
        samples = check_container(os.path.join(out, "samples.dpc"), cfg.eval.n_synthetic)
        check_unit_range(samples, "samples.dpc")
        check(math.isfinite(metrics["frechet_final"]), "frechet_final is not finite")
        self.frechet_final = metrics["frechet_final"]
        self.same_as_first("run_all", {n: digest(os.path.join(out, n)) for n in sorted(os.listdir(out))})


class Glyph28Stages(Workload):
    """The stage CLI on 28x28 toy glyphs: ingest, two central queries, sample, evaluate."""

    PER_CLASS = 300  # glyphs per class, ten classes
    N_SAMPLES = 400  # images per `sample` call

    def path(self, name: str) -> str:
        return os.path.join(self.inputs if name in ("images.idx", "labels.idx", "model.ckpt") else self.out, name)

    def setup(self) -> None:
        os.makedirs(self.inputs, exist_ok=True)
        rng = RngSeed(self.seed)
        ds = data_io.generate_toy_glyphs(self.PER_CLASS, 10, (28, 28, 1), rng.derive(0))
        data_io.write_idx(ds, self.path("images.idx"), self.path("labels.idx"))
        manifest = ParamManifest(
            height=28, width=28, channels=1, hidden1=128, hidden2=128, time_dim=16, num_classes=10, label_dim=8
        )
        save_checkpoint(self.path("model.ckpt"), init_params(manifest, rng.derive(1)), NoiseSchedule.linear(50))

    def operations(self, i: int) -> list:
        return [self.ingest, self.query("mode"), self.query("mean"), self.sample, self.evaluate]

    def _start(self):
        os.makedirs(self.out, exist_ok=True)

    def ingest(self):
        self._start()
        real = self.path("real.dpc")
        yield
        stdout = call_cli(["ingest", "--images", self.path("images.idx"), "--labels", self.path("labels.idx"), "--out", real])
        yield
        check_unit_range(check_container(real, 10 * self.PER_CLASS), real)
        self.same_as_first("ingest", {"real.dpc": digest(real), "stdout": stdout})

    def query(self, kind: str):
        def op():
            out, events = self.path(f"{kind}.dpc"), self.path(f"{kind}.json")
            argv = [
                "query-central", "--data", self.path("real.dpc"), "--kind", kind, "--count", "50",
                "--sampling-rate", "0.1", "--noise-scale", "5.0", "--per-label",
                "--seed", str(self.seed), "--out", out, "--events-out", events,
            ]
            yield
            stdout = call_cli(argv)
            yield
            check_container(out, 50)
            with open(events) as f:
                check(len(json.load(f)) == 50, f"{events}: expected one charged event per query")
            self.same_as_first(f"query_{kind}", {"dpc": digest(out), "events": digest(events), "stdout": stdout})

        op.__name__ = f"query_{kind}"
        return op

    def sample(self):
        out = self.path("samples.dpc")
        argv = ["sample", "--checkpoint", self.path("model.ckpt"), "--count", str(self.N_SAMPLES),
                "--conditional", "--seed", str(self.seed), "--out", out]
        yield
        stdout = call_cli(argv)
        yield
        load_checkpoint(self.path("model.ckpt"))
        check_unit_range(check_container(out, self.N_SAMPLES), out)
        self.same_as_first("sample", {"samples.dpc": digest(out), "stdout": stdout})

    def evaluate(self):
        argv = ["evaluate", "--synthetic", self.path("samples.dpc"), "--real", self.path("real.dpc"),
                "--feature", "pca", "--checkpoint", self.path("model.ckpt"), "--seed", str(self.seed)]
        yield
        stdout = call_cli(argv)
        yield
        kv = parse_kv(stdout)
        for key in ("frechet", "acc", "loss_p"):
            check(key in kv and math.isfinite(float(kv[key])), f"evaluate printed no finite {key}")
        self.same_as_first("evaluate", {"stdout": stdout})


class AccountSweep(Workload):
    """`dpsynth account` over distinct feasible privacy specs, one spec per request."""

    N_SPECS = 1000  # a run that uses them all ends early
    BLOCK = 20  # every block of this many specs covers each stratum once

    def setup(self) -> None:
        os.makedirs(self.inputs, exist_ok=True)
        gen = np.random.default_rng(self.seed)
        b = self.BLOCK
        lines = []
        for start in range(0, self.N_SPECS, b):
            n = min(b, self.N_SPECS - start)
            # Stratified per block: steps, fine-tune rate and target each take one
            # draw from each of n equal slices, so any prefix of whole blocks has
            # the same mix of cheap and expensive specs whatever the seed.
            steps = 100 + (2900 * (np.arange(n) + gen.random(n)) / n).astype(int)
            rates = 0.005 + 0.045 * (np.arange(n) + gen.random(n)) / n
            targets = 2.0 + 8.0 * (np.arange(n) + gen.random(n)) / n
            gen.shuffle(steps)
            gen.shuffle(rates)
            gen.shuffle(targets)
            for j in range(n):
                events = [
                    {
                        "kind": ("mean_query", "mode_query")[k % 2],
                        "q": float(gen.uniform(0.01, 0.1)),
                        "sigma": float(gen.uniform(8.0, 20.0)),
                        "repetitions": int(gen.integers(1, 20)),
                    }
                    for k in range(j % 4)
                ]
                spec = {
                    "target_epsilon": float(targets[j]),
                    "delta": 1e-5,
                    "events": events,
                    "fine_tune": {"steps": int(steps[j]), "sampling_rate": float(rates[j])},
                }
                lines.append(json.dumps(spec, sort_keys=True) + "\n")
        with open(os.path.join(self.inputs, "specs.jsonl"), "w") as f:
            f.writelines(lines)

    def operations(self, i: int) -> list:
        if not hasattr(self, "specs"):
            with open(os.path.join(self.inputs, "specs.jsonl")) as f:
                self.specs = [json.loads(line) for line in f]
        return [lambda: self.account(i)] if i < len(self.specs) else []

    def account(self, i: int, replay: bool = False):
        os.makedirs(self.out, exist_ok=True)
        path = os.path.join(self.out, "spec.json")
        with open(path, "w") as f:
            json.dump(self.specs[i], f)
        target = self.specs[i]["target_epsilon"]
        yield
        stdout = call_cli(["account", "--spec", path])
        yield
        eps = float(parse_kv(stdout)["epsilon_total"])
        check(0.999 * target <= eps <= target, f"spec {i}: epsilon_total {eps} outside [0.999, 1] x {target}")
        if replay:
            check(stdout == self.first_stdout, f"spec {i}: a repeated call printed different output")
        elif i == 0:
            self.first_stdout = stdout

    def finish(self) -> list:
        return [lambda: self.account(0, replay=True)]


WORKLOADS = {"a5_warm": A5Warm, "glyph28_stages": Glyph28Stages, "account_sweep": AccountSweep}


class Counter:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def run(self, op, tracer: tracing.Tracer | None = None) -> float | None:
        """Run one operation; returns its timed duration, or None if it failed.

        `op()` is a generator: preparation, a yield, the timed call, a yield,
        then the output checks. Only the timed call runs under `tracer`.
        """
        self.attempted += 1
        try:
            steps = op()
            next(steps)
            with tracer or contextlib.nullcontext():
                t0 = time.perf_counter()
                next(steps)
                elapsed = time.perf_counter() - t0
            next(steps, None)
            return elapsed
        except Exception as exc:  # one failed operation must not stop the loop
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{getattr(op, '__name__', 'op')}: {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
            return None


def measure(w: Workload, seconds: float, trace: bool, spans_path: str | None = None) -> dict:
    counter = Counter()
    untraced: list[float] = []
    traced: list[float] = []
    request_walls: list[float] = []
    tracer = tracing.Tracer()
    traced_requests = hits = lookups = 0
    start = time.perf_counter()
    i = 0
    while True:
        with_trace = trace and i % 2 == 1
        before = sgm_rdp_curve.cache_info()
        t0 = time.perf_counter()
        durations = []
        ops = w.operations(i)
        if not ops:
            break
        if with_trace:
            tracer.request = i
            traced_requests += 1
        for op in ops:
            durations.append(counter.run(op, tracer if with_trace else None))
        request_walls.append(time.perf_counter() - t0)
        # Request 0 warms the process (allocator, lazy imports, small caches);
        # it is checked but not timed.
        if i > 0 and None not in durations:
            (traced if with_trace else untraced).append(sum(durations))
        if with_trace:
            after = sgm_rdp_curve.cache_info()
            hits += after.hits - before.hits
            lookups += after.hits + after.misses - before.hits - before.misses
        i += 1
        now = time.perf_counter()
        done = i >= (3 if trace else 2)
        if done and now + statistics.median(request_walls) > start + seconds:
            break
    for op in w.finish():
        counter.run(op)
    result = {
        "attempted": counter.attempted,
        "failed": counter.failed,
        "failures": counter.messages,
        "requests": i,
        "request_s": untraced,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "frechet_final": getattr(w, "frechet_final", None),
    }
    if trace:
        if spans_path:
            tracer.write(spans_path)
        # Divide by every traced request, also one that failed part-way, since its spans are kept.
        layers, absent = tracing.layer_metrics(tracer.spans, traced_requests, hits, lookups)
        overhead = (
            100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0) if untraced and traced else None
        )
        for name, value in (("pipeline.frechet_final", result["frechet_final"]), ("trace_overhead_pct", overhead)):
            layers[name] = 0.0 if value is None else value
            if value is None:
                absent.append(name)
        result["layers"] = layers
        result["absent"] = absent
        result["traced_requests"] = traced_requests
        result["spans"] = len(tracer.spans)
    return result


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "dpsynth": dpsynth.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("mode", choices=["setup", "run"])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--spans", default=None, help="with --trace 1, write the spans here at exit")
    args = p.parse_args(argv)
    w = WORKLOADS[args.workload](args.dir, args.seed)
    if args.mode == "setup":
        w.setup()
        return 0
    result = measure(w, args.seconds, bool(args.trace), args.spans)
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
