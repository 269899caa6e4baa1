"""The two-stage recipe as stage functions: `run_all` runs them in order, the stage CLI one at a time.

Each stage takes the `RunState` (root stream, dataset, schedule, ledger,
weights) that the one before returned. `run_stage1` queries noisy central
images (mean or mode), charges them to the ledger and pre-trains the
denoiser on them with augmentation, which is post-processing and charges
nothing; `state_from_checkpoint` rebuilds its result from disk. `run_stage2`
calibrates the fine-tuning noise scale against the remaining budget and runs
DP-SGD on the sensitive images. `sample_stage` draws class-balanced samples;
`fit_frechet` and `probe_set` prepare their scoring. `run_all` also writes a
self-describing, re-playable run directory (config snapshot, ledger,
checkpoints, samples, metrics, per-checkpoint fidelity curve, training log).
No artifact embeds wall-clock state, so a rerun from the snapshot reproduces
every byte.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import data_io
from .accounting import MechanismEvent, PrivacySpec, calibrate_sigma_f
from .augment import AugmentationBag, apply_chain, default_bag
from .central import CentralConfig, CentralImageSet, query_central_set
from .core import InvalidArgumentError, LabeledDataset, RngSeed
from .diffusion import (
    DenoiserParams,
    NoiseSchedule,
    ParamManifest,
    init_params,
    load_checkpoint,
    loss_and_weighted_grad_sum,
    sample,
    save_checkpoint,
)
from .dpsgd import DpSgdConfig, TrainHooks, train
from .metrics import (
    FEATURE_KINDS,
    MAX_FEATURE_DIM,
    FeatureExtractor,
    denoising_loss_estimate,
    frechet_distance,
    train_probe_classifier,
)


class ConfigError(ValueError):
    """A pipeline configuration failed schema validation."""


def _is_json_type(value, hint) -> bool:
    """Whether a JSON-decoded `value` fits the field type `hint`.

    An int fits a float field; a bool fits only a bool field; a tuple field
    takes a JSON list.
    """
    if get_origin(hint) is Union:
        return any(_is_json_type(value, h) for h in get_args(hint))
    if get_origin(hint) is tuple:
        item = get_args(hint)[0]
        return isinstance(value, (list, tuple)) and all(_is_json_type(v, item) for v in value)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _check_json_types(cls, values: dict, prefix: str) -> None:
    """Refuse a value whose JSON type does not fit its dataclass field, naming `prefix` + key."""
    hints = get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if f.name in values and not _is_json_type(values[f.name], hints[f.name]):
            raise ConfigError(f"{prefix}{f.name} must be {f.type}, got {values[f.name]!r}")


@dataclass(frozen=True)
class DatasetConfig:
    source: str = "toy"  # "toy" | "idx" | "container"
    n_per_class: int = 200
    num_classes: int = 10
    height: int = 8
    width: int = 8
    channels: int = 1
    images_path: Optional[str] = None
    labels_path: Optional[str] = None
    path: Optional[str] = None


@dataclass(frozen=True)
class ModelConfig:
    hidden1: int = 128
    hidden2: int = 128
    time_dim: int = 16
    label_dim: int = 8
    diffusion_steps: int = 50
    beta_start: float = 1e-4
    beta_end: float = 0.02
    reference_steps: int = 1000


@dataclass(frozen=True)
class PrivacyConfig:
    epsilon: float = 10.0
    delta: float = 1e-5


@dataclass(frozen=True)
class WarmupConfig:
    iterations: int = 1500
    batch_size: int = 32
    learning_rate: float = 1e-3
    augment_k: int = 2
    augment_names: Optional[tuple[str, ...]] = None  # None -> full default bag
    augment_ranges: Optional[dict] = None  # name -> (lo, hi) magnitude overrides
    noise_multiplicity: int = 1


@dataclass(frozen=True)
class FinetuneConfig:
    steps: int = 300
    sampling_rate: float = 0.1
    clip_bound: float = 1.0
    learning_rate: float = 2e-3
    noise_multiplicity: int = 1
    checkpoint_every: int = 100


@dataclass(frozen=True)
class EvalConfig:
    n_synthetic: int = 300
    feature_kind: str = "downsample"
    feature_dim: int = 16
    loss_draws: int = 10_000
    probe: bool = True
    probe_iterations: int = 400


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    output_dir: str = "runs/default"
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    central: CentralConfig = field(default_factory=CentralConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    privacy: PrivacyConfig = field(default_factory=PrivacyConfig)
    warmup: WarmupConfig = field(default_factory=WarmupConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        # The sections are the fields whose default factory is their config class.
        sections = {f.name: f.default_factory for f in dataclasses.fields(cls) if callable(f.default_factory)}
        kwargs: dict = {}
        for key, value in raw.items():
            if key in sections:
                if not isinstance(value, dict):
                    raise ConfigError(f"section {key!r} must be an object")
                names = {f.name for f in dataclasses.fields(sections[key])}
                unknown = set(value) - names
                if unknown:
                    raise ConfigError(f"unknown keys in {key!r}: {sorted(unknown)}")
                _check_json_types(sections[key], value, f"{key}.")
                if key == "warmup" and value.get("augment_names") is not None:
                    value = dict(value, augment_names=tuple(value["augment_names"]))
                try:
                    kwargs[key] = sections[key](**value)
                except InvalidArgumentError as exc:  # a section that checks its own fields
                    raise ConfigError(f"{key}.{exc}") from exc
            elif key in ("seed", "output_dir"):
                kwargs[key] = value
            else:
                raise ConfigError(f"unknown top-level key {key!r}")
        _check_json_types(cls, kwargs, "")
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    @classmethod
    def from_json_file(cls, path) -> "PipelineConfig":
        with open(path) as f:
            try:
                raw = json.load(f)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(raw)

    def validate(self) -> None:
        if self.dataset.source not in ("toy", "idx", "container"):
            raise ConfigError(f"unknown dataset source {self.dataset.source!r}")
        if self.dataset.source == "idx" and not (
            self.dataset.images_path and self.dataset.labels_path
        ):
            raise ConfigError("idx datasets need images_path and labels_path")
        if self.dataset.source == "container" and not self.dataset.path:
            raise ConfigError("container datasets need path")
        if not (0 < self.privacy.delta < 1):
            raise ConfigError(f"privacy.delta must be in (0, 1), got {self.privacy.delta}")
        for name, v in (
            ("privacy.epsilon", self.privacy.epsilon),
            ("warmup.learning_rate", self.warmup.learning_rate),
            ("finetune.clip_bound", self.finetune.clip_bound),
            ("finetune.learning_rate", self.finetune.learning_rate),
        ):
            if not (v > 0 and math.isfinite(v)):
                raise ConfigError(f"{name} must be positive and finite, got {v}")
        for name, v in (
            ("warmup.iterations", self.warmup.iterations),
            ("finetune.steps", self.finetune.steps),
            ("eval.n_synthetic", self.eval.n_synthetic),
            ("finetune.checkpoint_every", self.finetune.checkpoint_every),
        ):
            if v < 0:
                raise ConfigError(f"{name} must be non-negative")
        for name, v in (
            ("warmup.batch_size", self.warmup.batch_size),
            ("warmup.augment_k", self.warmup.augment_k),
            ("warmup.noise_multiplicity", self.warmup.noise_multiplicity),
            ("finetune.noise_multiplicity", self.finetune.noise_multiplicity),
            ("eval.loss_draws", self.eval.loss_draws),
        ):
            if not v > 0:
                raise ConfigError(f"{name} must be positive")
        warmup_bag(self.warmup)
        if not (0 < self.finetune.sampling_rate <= 1):
            raise ConfigError("finetune.sampling_rate must be in (0, 1]")
        if self.eval.feature_kind not in FEATURE_KINDS:
            raise ConfigError(f"eval.feature_kind must be one of {FEATURE_KINDS}, got {self.eval.feature_kind!r}")
        if not (1 <= self.eval.feature_dim <= MAX_FEATURE_DIM):
            raise ConfigError(f"eval.feature_dim must be in [1, {MAX_FEATURE_DIM}]")


def load_dataset(cfg: DatasetConfig, rng: RngSeed) -> LabeledDataset:
    if cfg.source == "toy":
        return data_io.generate_toy_glyphs(
            cfg.n_per_class,
            cfg.num_classes,
            (cfg.height, cfg.width, cfg.channels),
            rng,
        )
    if cfg.source == "idx":
        return data_io.read_idx(cfg.images_path, cfg.labels_path)
    return data_io.load_container(cfg.path).to_dataset()


def build_manifest(cfg: ModelConfig, shape: tuple[int, int, int], num_classes: int) -> ParamManifest:
    h, w, c = shape
    return ParamManifest(
        height=h,
        width=w,
        channels=c,
        hidden1=cfg.hidden1,
        hidden2=cfg.hidden2,
        time_dim=cfg.time_dim,
        num_classes=num_classes,
        label_dim=cfg.label_dim,
    )


def build_schedule(cfg: ModelConfig) -> NoiseSchedule:
    return NoiseSchedule.linear(
        cfg.diffusion_steps, cfg.beta_start, cfg.beta_end, cfg.reference_steps
    )


@dataclass(frozen=True)
class RunState:
    """What one stage hands the next: root stream, data, schedule, ledger and current weights."""

    rng: RngSeed
    ds: LabeledDataset
    schedule: NoiseSchedule
    ledger: PrivacySpec
    params: DenoiserParams


def initial_state(cfg: PipelineConfig) -> RunState:
    """A run's starting point: root stream, dataset, schedule, empty ledger, initial params."""
    rng = RngSeed(cfg.seed)
    ds = load_dataset(cfg.dataset, rng.derive(0))
    params = init_params(build_manifest(cfg.model, ds.image_shape, ds.num_classes), rng.derive(10))
    ledger = PrivacySpec(cfg.privacy.epsilon, cfg.privacy.delta)
    return RunState(rng, ds, build_schedule(cfg.model), ledger, params)


def state_from_checkpoint(cfg: PipelineConfig, path, stage1_events: list[MechanismEvent]) -> RunState:
    """The state stage one left on disk: its checkpoint, with its charged events in the ledger."""
    state = initial_state(cfg)
    params, schedule = load_checkpoint(path)
    if (schedule.betas, params.manifest) != (state.schedule.betas, state.params.manifest):
        def side(s, p):
            return f"{s.num_steps} steps, betas {s.betas[0]:.6g}..{s.betas[-1]:.6g}, model {p.manifest.to_dict()}"

        raise InvalidArgumentError(
            f"checkpoint {path} has {side(schedule, params)}; the config builds {side(state.schedule, state.params)}"
        )
    state.ledger.record(*stage1_events)
    return dataclasses.replace(state, params=params)


def save_sensitive(path, ds: LabeledDataset, provenance: dict) -> None:
    data_io.save_container(path, "sensitive", ds.pixels, ds.image_shape, labels=ds.labels, provenance=provenance)


def save_central(path, central: CentralImageSet, shape: tuple[int, int, int]) -> None:
    """Central images in a container whose provenance names the query config and charged events."""
    data_io.save_container(
        path,
        "central",
        central.pixels,
        shape,
        labels=central.labels,
        provenance={
            "kind": central.kind,
            "config": central.config,
            "events": [ev.to_dict() for ev in central.events],
        },
    )


def warmup_bag(cfg: WarmupConfig) -> AugmentationBag:
    """The augmentation bag `cfg` names; a ConfigError naming the key if it names a bad one."""
    bag, key = default_bag(cfg.augment_k), "augment_names"
    try:
        if cfg.augment_names is not None:
            bag = bag.subset(list(cfg.augment_names))
        key = "augment_ranges"
        if cfg.augment_ranges is not None:
            bag = bag.with_ranges({k: tuple(v) for k, v in cfg.augment_ranges.items()})
    except (TypeError, ValueError) as exc:  # InvalidArgumentError is a ValueError
        raise ConfigError(f"warmup.{key}: {exc}") from exc
    return bag


def warmup_train(
    params: DenoiserParams,
    pixels: np.ndarray,
    labels: Optional[np.ndarray],
    schedule: NoiseSchedule,
    cfg: WarmupConfig,
    rng: RngSeed,
) -> DenoiserParams:
    """Plain (non-private) SGD on central images with chained augmentation."""
    if cfg.iterations == 0 or pixels.shape[0] == 0:
        return params
    bag = warmup_bag(cfg)
    m = params.manifest
    shape3d = (m.height, m.width, m.channels)
    n = pixels.shape[0]
    for it in range(cfg.iterations):
        gen = rng.derive(it).generator()
        idx = gen.integers(0, n, size=cfg.batch_size)
        batch = apply_chain(pixels[idx].reshape((-1,) + shape3d), bag, gen).reshape(len(idx), -1)
        batch_labels = labels[idx] if labels is not None else None
        grad, _, _ = loss_and_weighted_grad_sum(
            params,
            batch,
            batch_labels,
            schedule,
            rng.derive(it, 1),
            lambda norms: np.full(norms.shape, 1.0 / cfg.batch_size),
            noise_multiplicity=cfg.noise_multiplicity,
        )
        params = params.replace_vector(params.vector - cfg.learning_rate * grad)
    return params


def run_stage1(cfg: PipelineConfig, state: RunState) -> tuple[RunState, Optional[CentralImageSet]]:
    """Query central images (charged to the ledger) and pre-train on them."""
    if cfg.central.kind == "none":
        return state, None
    central = query_central_set(state.ds, cfg.central, state.rng.derive(1))
    state.ledger.record(*central.events)
    state.ledger.assert_within_budget()

    # Noisy central images can stray outside the pixel range; clamping is
    # post-processing and keeps the augmentation range contract intact.
    warm_pixels = np.clip(central.pixels, 0.0, 1.0)
    params = warmup_train(state.params, warm_pixels, central.labels, state.schedule, cfg.warmup, state.rng.derive(2))
    return dataclasses.replace(state, params=params), central


def run_stage2(
    cfg: PipelineConfig, state: RunState, hooks: Optional[TrainHooks] = None
) -> tuple[RunState, float]:
    """Calibrate the fine-tune noise scale, then train privately."""
    ledger = state.ledger
    sigma_f = calibrate_sigma_f(
        list(ledger.events),
        cfg.finetune.steps,
        cfg.finetune.sampling_rate,
        ledger.target_epsilon,
        ledger.delta,
        orders=ledger.orders,
    )
    ledger.sigma_f = sigma_f
    if cfg.finetune.steps == 0:
        return state, sigma_f
    sgd = DpSgdConfig(
        learning_rate=cfg.finetune.learning_rate,
        clip_bound=cfg.finetune.clip_bound,
        noise_scale=sigma_f,
        sampling_rate=cfg.finetune.sampling_rate,
        steps=cfg.finetune.steps,
    )

    def engine(p, x0, labels, erng, weights, example_ids=None):
        return loss_and_weighted_grad_sum(
            p,
            x0,
            labels,
            state.schedule,
            erng,
            weights,
            noise_multiplicity=cfg.finetune.noise_multiplicity,
            example_ids=example_ids,
        )

    params = train(state.params, state.ds, sgd, engine, ledger, state.rng.derive(3), hooks)
    return dataclasses.replace(state, params=params), sigma_f


def sample_stage(
    params: DenoiserParams, schedule: NoiseSchedule, n: int, rng: RngSeed,
    conditional: bool = True, out=None, provenance: Optional[dict] = None,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """`n` samples and their labels (classes in turn, or None); with `out`, also a synthetic container there."""
    m = params.manifest
    labels = np.arange(n, dtype=np.int64) % m.num_classes if conditional else None
    pixels = sample(params, schedule, n, rng, labels=labels)
    if out is not None:
        data_io.save_container(
            out, "synthetic", pixels, (m.height, m.width, m.channels), labels=labels, provenance=provenance
        )
    return pixels, labels


def fit_frechet(
    real_pixels: np.ndarray, shape: tuple[int, int, int], feature_kind: str, feature_dim: int
) -> Callable[[np.ndarray], float]:
    """Fréchet distance of an image set to the real pixels, in a feature space fitted on them once."""
    extractor = FeatureExtractor(feature_kind, feature_dim).fit(real_pixels)
    real_feats = extractor.extract(real_pixels, shape)
    return lambda pixels: frechet_distance(extractor.extract(pixels, shape), real_feats)


def probe_set(pixels: np.ndarray, labels: np.ndarray, real: LabeledDataset) -> LabeledDataset:
    """The probe's training set: synthetic images clipped to [0, 1], with the real set's classes and shape."""
    return LabeledDataset(np.clip(pixels, 0, 1), labels, real.num_classes, real.image_shape)


def run_all(cfg: PipelineConfig) -> str:
    """Full workflow; returns the run directory path."""
    cfg.validate()
    state = initial_state(cfg)
    ds, schedule, ledger = state.ds, state.schedule, state.ledger
    # Fitting the evaluation features first refuses, before anything is
    # charged or written, settings that do not fit this data: PCA with no
    # more images than dimensions, or fewer downsample dims than channels.
    try:
        frechet = fit_frechet(ds.pixels, ds.image_shape, cfg.eval.feature_kind, cfg.eval.feature_dim)
    except InvalidArgumentError as exc:
        raise ConfigError(
            f"eval.feature_kind {cfg.eval.feature_kind!r} with eval.feature_dim {cfg.eval.feature_dim} "
            f"does not fit {len(ds.labels)} images of shape {ds.image_shape}: {exc}"
        ) from exc
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    data_io.write_file(os.path.join(out, "config.json"), (cfg.to_json() + "\n").encode("utf-8"))

    state, central = run_stage1(cfg, state)
    save_checkpoint(os.path.join(out, "warmup.ckpt"), state.params, schedule)
    if central is not None:
        save_central(os.path.join(out, "central.dpc"), central, ds.image_shape)

    eval_rng = state.rng.derive(1000)

    def fidelity(p: DenoiserParams, n: int, sample_rng: RngSeed) -> float:
        n = max(n, cfg.eval.feature_dim + 1)  # Gaussian fit needs more samples than dims
        return frechet(sample_stage(p, schedule, n, sample_rng)[0])

    loss_p_start = denoising_loss_estimate(
        state.params, schedule, ds, eval_rng.derive(0), draws=cfg.eval.loss_draws
    )
    frechet_warmup = fidelity(state.params, cfg.eval.n_synthetic, eval_rng.derive(1))

    curve_rows: list[tuple[int, float]] = []
    log_lines: list[str] = []

    def on_step(stats):
        line = (
            f"step={stats.step} loss={stats.loss:.6f} batch={stats.batch_size} "
            f"gnorm_p10={stats.grad_norm_quantiles[0]:.6f} "
            f"gnorm_p50={stats.grad_norm_quantiles[1]:.6f} "
            f"gnorm_p90={stats.grad_norm_quantiles[2]:.6f}"
        )
        log_lines.append(line)

    def on_checkpoint(step: int, p: DenoiserParams):
        eps_now, _ = ledger.epsilon()
        curve_rows.append((step, fidelity(p, max(ds.num_classes + 1, cfg.eval.n_synthetic // 2), eval_rng.derive(2, step))))
        log_lines.append(f"checkpoint step={step} epsilon={eps_now:.6f}")
        save_checkpoint(os.path.join(out, "latest.ckpt"), p, schedule)

    hooks = TrainHooks(
        on_step=on_step,
        checkpoint_every=cfg.finetune.checkpoint_every,
        on_checkpoint=on_checkpoint,
        budget_check_every=max(1, cfg.finetune.checkpoint_every),
    )
    state, sigma_f = run_stage2(cfg, state, hooks)
    save_checkpoint(os.path.join(out, "final.ckpt"), state.params, schedule)

    n = cfg.eval.n_synthetic
    synth_pixels, labels = sample_stage(
        state.params, schedule, n, eval_rng.derive(3),
        out=os.path.join(out, "samples.dpc"), provenance={"seed": cfg.seed, "n": n},
    )
    # These samples are the fidelity draw itself unless the Gaussian fit needs more of them.
    if len(synth_pixels) > cfg.eval.feature_dim:
        frechet_final = frechet(synth_pixels)
    else:
        frechet_final = fidelity(state.params, n, eval_rng.derive(3))
    acc = None
    if cfg.eval.probe and n >= 2 * ds.num_classes:
        acc = train_probe_classifier(probe_set(synth_pixels, labels, ds), ds, iterations=cfg.eval.probe_iterations)

    eps_final, best_alpha = ledger.epsilon()
    metrics = {
        "loss_p_finetune_start": loss_p_start,
        "frechet_warmup": frechet_warmup,
        "frechet_final": frechet_final,
        "acc_probe": acc,
        "sigma_f": sigma_f,
        "epsilon_spent": eps_final,
        "best_alpha": best_alpha,
        "epsilon_target": cfg.privacy.epsilon,
        "delta": cfg.privacy.delta,
        "num_events": len(ledger.events),
    }
    data_io.write_json(os.path.join(out, "metrics.json"), metrics)
    data_io.write_json(os.path.join(out, "ledger.json"), ledger.to_dict())
    curve = "step,frechet\n" + "".join(f"{step},{value:.9g}\n" for step, value in curve_rows)
    data_io.write_file(os.path.join(out, "curve.csv"), curve.encode("utf-8"))
    log = "\n".join(log_lines) + ("\n" if log_lines else "")
    data_io.write_file(os.path.join(out, "train_log.txt"), log.encode("utf-8"))
    return out
