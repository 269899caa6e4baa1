"""Differentially private SGD over flat parameter vectors.

Each step Poisson-samples a batch, clips every per-example gradient to an L2
bound, sums, normalizes by the *expected* batch size, perturbs with Gaussian
noise scaled by bound / expected batch, and takes a plain gradient step. The
loss engine never hands back per-example gradients: it reports their norms,
this module turns them into clip factors (`core.clip_factors`, which fails
closed), and the engine returns the clipped sum directly. The
expected-batch normalization is what ties the added noise to the mechanism's
sensitivity; normalizing by the realized batch size would break the privacy
analysis, so it is never done here. Every step reports exactly one mechanism
event to the ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .accounting import MechanismEvent, PrivacySpec
from .central import poisson_subsample
from .core import InvalidArgumentError, LabeledDataset, RngSeed, clip_factors, gaussian_noise
from .diffusion import DenoiserParams

# engine(params, x0_batch, labels_batch, rng, weights, example_ids)
#   -> (sum_i weights(norms)_i g_i, pre-clip norms ||g_i||, mean loss);
# dp_step passes the clip factors as weights, so the sum comes back clipped.
LossEngine = Callable[..., tuple[np.ndarray, np.ndarray, float]]


@dataclass(frozen=True)
class DpSgdConfig:
    learning_rate: float
    clip_bound: float
    noise_scale: float
    sampling_rate: float
    steps: int

    def __post_init__(self) -> None:
        for name, v in (
            ("learning rate", self.learning_rate),
            ("clip bound", self.clip_bound),
            ("noise scale", self.noise_scale),
        ):
            if not (v > 0.0 and math.isfinite(v)):
                raise InvalidArgumentError(f"{name} must be positive and finite, got {v}")
        if not (0.0 < self.sampling_rate <= 1.0):
            raise InvalidArgumentError(f"sampling rate must be in (0, 1], got {self.sampling_rate}")
        if self.steps < 0:
            raise InvalidArgumentError("steps must be non-negative")

    def expected_batch(self, dataset_size: int) -> float:
        return self.sampling_rate * dataset_size


@dataclass(frozen=True)
class StepStats:
    step: int
    loss: float
    batch_size: int
    grad_norm_quantiles: tuple[float, float, float]  # pre-clip p10 / p50 / p90


def dp_step(
    params: DenoiserParams,
    ds: LabeledDataset,
    cfg: DpSgdConfig,
    engine: LossEngine,
    rng: RngSeed,
) -> tuple[DenoiserParams, MechanismEvent, StepStats]:
    """One private update; an empty Poisson batch yields a pure-noise step."""
    expected_batch = cfg.expected_batch(len(ds))
    idx = poisson_subsample(len(ds), cfg.sampling_rate, rng.derive(0))

    if len(idx):
        grad_sum, norms, loss = engine(
            params,
            ds.pixels[idx],
            ds.labels[idx],
            rng.derive(2),
            lambda norms: clip_factors(norms, cfg.clip_bound),
            example_ids=idx,
        )
        quantiles = tuple(float(v) for v in np.quantile(norms, [0.1, 0.5, 0.9]))
    else:
        grad_sum = np.zeros(params.manifest.num_params)
        loss = float("nan")
        quantiles = (float("nan"),) * 3

    noise = gaussian_noise(
        grad_sum.shape, cfg.clip_bound / expected_batch * cfg.noise_scale, rng.derive(1)
    )
    update = grad_sum / expected_batch + noise
    new_params = params.replace_vector(params.vector - cfg.learning_rate * update)

    event = MechanismEvent("dpsgd_step", q=cfg.sampling_rate, sigma=cfg.noise_scale)
    stats = StepStats(step=-1, loss=loss, batch_size=len(idx), grad_norm_quantiles=quantiles)
    return new_params, event, stats


@dataclass
class TrainHooks:
    """Optional callbacks fired during private training."""

    on_step: Optional[Callable[[StepStats], None]] = None
    checkpoint_every: int = 0
    on_checkpoint: Optional[Callable[[int, DenoiserParams], None]] = None
    budget_check_every: int = 200


def train(
    params: DenoiserParams,
    ds: LabeledDataset,
    cfg: DpSgdConfig,
    engine: LossEngine,
    ledger: Optional[PrivacySpec],
    rng: RngSeed,
    hooks: Optional[TrainHooks] = None,
    start_step: int = 0,
) -> DenoiserParams:
    """Run cfg.steps private updates, charging one event per step.

    Step i derives its randomness from (rng, i), so a run resumed from a
    checkpoint at step s reproduces the uninterrupted run bit for bit. The
    ledger is re-converted at checkpoint cadence; exceeding the target budget
    mid-run means calibration was wrong and aborts immediately.
    """
    hooks = hooks or TrainHooks()
    for step in range(start_step, cfg.steps):
        params, event, stats = dp_step(params, ds, cfg, engine, rng.derive(step))
        if ledger is not None:
            ledger.record(event)
            check_every = max(1, hooks.budget_check_every)
            if (step + 1) % check_every == 0 or step + 1 == cfg.steps:
                ledger.assert_within_budget()
        if hooks.on_step is not None:
            hooks.on_step(StepStats(step, stats.loss, stats.batch_size, stats.grad_norm_quantiles))
        if hooks.checkpoint_every and (step + 1) % hooks.checkpoint_every == 0:
            if hooks.on_checkpoint is not None:
                hooks.on_checkpoint(step + 1, params)
    return params
