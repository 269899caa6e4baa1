"""Spans around the calls into dpsynth's modules, recorded from outside the package.

A `Tracer` replaces each traced function with a wrapper that records a span:
name, start, end, the index of the enclosing span and the request it belongs
to. Every name that binds
the function is patched, in every `dpsynth` module, because `pipeline`,
`metrics` and `cli` import functions such as `sample` into their own
namespace, and patching only the defining module would miss those calls.
Spans stay in memory until the caller writes them out.

`layer_metrics` turns the spans of the traced requests into the per-layer
metrics named in `bench/README.md`.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

# (module, attribute) of each traced boundary; "Class.method" patches the class.
TARGETS = {
    "core": [
        "RngSeed.generator",
        "gaussian_noise",
        "LabeledDataset.__post_init__",
        "LabeledDataset.from_arrays",
        "LabeledDataset.partition_by_label",
    ],
    "accounting": ["calibrate_sigma_f", "compose", "sgm_rdp_curve", "rdp_to_dp"],
    "central": ["query_central_set", "query_mean_image", "query_mode_image", "poisson_subsample"],
    "diffusion": [
        "loss_and_per_example_grads",
        "sample",
        "denoiser_forward",
        "_forward_cached",
        "save_checkpoint",
        "load_checkpoint",
    ],
    "augment": ["apply_chain"],
    "dpsgd": ["dp_step", "train"],
    "data_io": ["read_idx", "write_idx", "load_container", "save_container", "generate_toy_glyphs"],
    "metrics": [
        "FeatureExtractor.fit",
        "frechet_distance",
        "train_probe_classifier",
        "denoising_loss_estimate",
    ],
    "pipeline": ["run_all", "run_stage1", "run_stage2", "warmup_train", "load_dataset"],
    "cli": [
        "main",
        "cmd_account",
        "cmd_ingest",
        "cmd_query_central",
        "cmd_sample",
        "cmd_evaluate",
    ],
}
MODULES = tuple(TARGETS)
CLI_COMMANDS = ("account", "ingest", "query_central", "sample", "evaluate")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    request: int = -1  # index of the workload request the call was made in
    info: Optional[tuple] = None  # numbers the boundary reports, e.g. a batch size

    @property
    def duration(self) -> float:
        return self.end - self.start


def _path_size(path) -> int:
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


# Numbers recorded per call: f(args, kwargs, result) -> tuple of floats.
INFO = {
    "dpsgd.dp_step": lambda a, k, r: (r[2].batch_size,),
    "diffusion.loss_and_per_example_grads": lambda a, k, r: (
        len(r.per_example_losses),
        r.per_example_grads.nbytes,
    ),
    "diffusion.sample": lambda a, k, r: (len(r),),
    "data_io.read_idx": lambda a, k, r: (
        _path_size(_arg(a, k, 0, "images_path")) + _path_size(_arg(a, k, 1, "labels_path")),
    ),
    "data_io.load_container": lambda a, k, r: (_path_size(_arg(a, k, 0, "path")),),
    "data_io.write_idx": lambda a, k, r: (
        _path_size(_arg(a, k, 1, "images_path")) + _path_size(_arg(a, k, 2, "labels_path")),
    ),
    "data_io.save_container": lambda a, k, r: (_path_size(_arg(a, k, 0, "path")),),
    "accounting.compose": lambda a, k, r: (len(_arg(a, k, 0, "events")),),
}


class Tracer:
    """Patches the traced boundaries while installed; spans accumulate in `spans`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = -1  # set by the caller before each traced request
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, info: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.request)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = tuple(float(v) for v in info(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = {m: sys.modules[f"dpsynth.{m}"] for m in MODULES}
        namespaces = [sys.modules["dpsynth"], *modules.values()]
        for mod_name, attrs in TARGETS.items():
            for attr in attrs:
                name = f"{mod_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(modules[mod_name], cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        patched = classmethod(self.wrap(name, raw.__func__, INFO.get(name)))
                    else:
                        patched = self.wrap(name, raw, INFO.get(name))
                    self._patch(cls, meth, patched)
                    continue
                original = getattr(modules[mod_name], attr)
                wrapper = self.wrap(name, original, INFO.get(name))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "request", "info"],
                 "spans": [[s.name, s.start, s.end, s.parent, s.request, s.info] for s in self.spans]},
                f,
            )


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _as_set(names) -> set:
    return {names} if isinstance(names, str) else set(names)


class SpanIndex:
    """Parent/child queries over one list of spans."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.children: list[list[int]] = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s.parent >= 0:
                self.children[s.parent].append(i)

    def has_ancestor(self, i: int, names) -> bool:
        p = self.spans[i].parent
        while p >= 0:
            if self.spans[p].name in names:
                return True
            p = self.spans[p].parent
        return False

    def select(self, names, under=None) -> list[int]:
        """Outermost spans named in `names`, optionally inside a span named in `under`."""
        names = _as_set(names)
        return [
            i
            for i, s in enumerate(self.spans)
            if s.name in names
            and not self.has_ancestor(i, names)
            and (under is None or self.has_ancestor(i, _as_set(under)))
        ]

    def total(self, names, under=None) -> float:
        return sum(self.spans[i].duration for i in self.select(names, under))

    def count(self, names) -> int:
        names = _as_set(names)
        return sum(1 for s in self.spans if s.name in names)

    def info_values(self, names, k: int = 0) -> list[float]:
        names = _as_set(names)
        return [s.info[k] for s in self.spans if s.name in names and s.info is not None]

    def self_time(self, i: int, exclude=None) -> float:
        """Duration of span i minus the part its direct children cover.

        With `exclude`, only children with those names are subtracted.
        """
        kids = [
            (self.spans[c].start, self.spans[c].end)
            for c in self.children[i]
            if exclude is None or self.spans[c].name in exclude
        ]
        return self.spans[i].duration - _union_length(kids)

    def total_self(self, name: str, exclude=None) -> float:
        return sum(self.self_time(i, exclude) for i in self.select(name))


def layer_metrics(spans: list[Span], requests: int, cache_hits: int, cache_lookups: int) -> tuple[dict, list]:
    """Per-layer metrics from the spans of `requests` traced requests, failed ones included.

    Times and counts are per request. Returns the metrics and the names of
    those whose boundaries recorded no call. Those read 0 in the metrics, but
    they are absent, not zero: a change that routes work past a traced
    boundary must not read as a saving.
    """
    ix = SpanIndex(spans)
    n = max(requests, 1)
    m: dict = {}
    absent: list = []

    def put(name: str, calls: int, value: float) -> None:
        m[name] = value
        if calls == 0:
            absent.append(name)

    def timed(name: str, names, under=None) -> None:
        put(name, len(ix.select(names, under)), ix.total(names, under) / n)

    grad = "diffusion.loss_and_per_example_grads"
    steps = ix.select("dpsgd.dp_step")
    step_ms = [ix.spans[i].duration * 1e3 for i in steps]
    batches = ix.info_values("dpsgd.dp_step")
    grad_examples = ix.info_values(grad, 0)
    grad_bytes = ix.info_values(grad, 1)
    put("dpsgd.steps", len(steps), ix.count("dpsgd.dp_step") / n)
    put("dpsgd.step_p50_ms", len(steps), statistics.median(step_ms) if step_ms else 0.0)
    put("dpsgd.batch_mean", len(batches), statistics.fmean(batches) if batches else 0.0)
    put("dpsgd.self_s", len(steps), ix.total_self(
        "dpsgd.dp_step", exclude={grad, "central.poisson_subsample", "core.gaussian_noise"}) / n)
    timed("diffusion.grad_finetune_s", grad, under="dpsgd.dp_step")
    timed("diffusion.grad_warmup_s", grad, under="pipeline.warmup_train")
    put("diffusion.grad_examples", len(grad_examples), sum(grad_examples) / n)
    put("diffusion.grad_matrix_mb", len(grad_bytes), max(grad_bytes, default=0.0) / 2**20)
    timed("diffusion.sample_s", "diffusion.sample")
    images = ix.info_values("diffusion.sample")
    put("diffusion.sample_images", len(images), sum(images) / n)
    timed("diffusion.forward_s", {"diffusion.denoiser_forward", "diffusion._forward_cached"})
    timed("diffusion.checkpoint_s", {"diffusion.save_checkpoint", "diffusion.load_checkpoint"})
    chains = ix.count("augment.apply_chain")
    put("augment.chains", chains, chains / n)
    timed("augment.chain_s", "augment.apply_chain")
    streams = ix.count("core.RngSeed.generator")
    put("core.rng_streams", streams, streams / n)
    timed("core.rng_s", "core.RngSeed.generator")
    timed("core.noise_s", "core.gaussian_noise")
    timed("core.dataset_build_s", {"core.LabeledDataset.from_arrays", "core.LabeledDataset.__post_init__"})
    timed("core.partition_s", "core.LabeledDataset.partition_by_label")
    read, write = {"data_io.read_idx", "data_io.load_container"}, {"data_io.write_idx", "data_io.save_container"}
    timed("data_io.read_s", read)
    timed("data_io.write_s", write)
    put("data_io.bytes_read", ix.count(read), sum(ix.info_values(read)) / n)
    put("data_io.bytes_written", ix.count(write), sum(ix.info_values(write)) / n)
    timed("central.query_s", "central.query_central_set")
    queries = ix.count({"central.query_mean_image", "central.query_mode_image"})
    put("central.queries", queries, queries / n)
    timed("central.subsample_s", "central.poisson_subsample", under="central.query_central_set")
    timed("metrics.pca_fit_s", "metrics.FeatureExtractor.fit")
    timed("metrics.frechet_s", "metrics.frechet_distance")
    timed("metrics.probe_s", "metrics.train_probe_classifier")
    timed("metrics.loss_estimate_s", "metrics.denoising_loss_estimate")
    timed("accounting.calibrate_s", "accounting.calibrate_sigma_f")
    calibrations = ix.count("accounting.calibrate_sigma_f")
    put("accounting.calibrations", calibrations, calibrations / n)
    timed("accounting.compose_s", "accounting.compose")
    composed = ix.info_values("accounting.compose")
    put("accounting.compose_events", len(composed), sum(composed) / n)
    curves = ix.count("accounting.sgm_rdp_curve")
    put("accounting.curve_calls", curves, curves / n)
    put("accounting.curve_cache_hit_ratio", cache_lookups, cache_hits / cache_lookups if cache_lookups else 0.0)
    checks = ix.count("accounting.rdp_to_dp")
    put("accounting.epsilon_checks", checks, checks / n)
    timed("pipeline.stage1_s", "pipeline.run_stage1")
    timed("pipeline.warmup_s", "pipeline.warmup_train")
    timed("pipeline.stage2_s", "pipeline.run_stage2")
    runs = ix.select("pipeline.run_all")
    put("pipeline.self_s", len(runs), ix.total_self(
        "pipeline.run_all", exclude={"pipeline.run_stage1", "pipeline.run_stage2"}) / n)
    for cmd in CLI_COMMANDS:
        timed(f"cli.{cmd}_s", f"cli.cmd_{cmd}")
    mains = ix.select("cli.main")
    put("cli.self_s", len(mains), ix.total_self("cli.main", exclude={f"cli.cmd_{c}" for c in CLI_COMMANDS}) / n)
    for mod in MODULES:
        calls = sum(1 for s in spans if s.name.startswith(mod + "."))
        put(f"{mod}.calls", calls, calls / n)
    return m, absent
