"""DP central-image queries: noisy means and per-pixel histogram modes.

A central image is a privatized aggregate of a Poisson-sampled subset of the
sensitive dataset. The mean query clips each sampled image to an L2 ball,
averages by the *expected* batch size, and adds Gaussian noise scaled by the
sensitivity bound / expected batch. The mode query histograms every pixel
position, perturbs every histogram cell, and reads off per-pixel bin-midpoint
argmaxes. Each query emits the mechanism event that must be charged to the
privacy ledger.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .accounting import MechanismEvent
from .core import InvalidArgumentError, LabeledDataset, RngSeed, clip_factors, gaussian_noise


# Pixel range upper bound of every mode histogram: pixels are normalized to [0, 1].
P_MAX = 1.0


@dataclass(frozen=True)
class CentralConfig:
    """One central query stage: which query, how many, and its privacy parameters.

    Every field is checked on construction, whatever the kind, so a config
    that would release an uncharged or unbounded query cannot be built. A
    zero noise scale would release noise-free aggregates of sensitive images
    with no finite guarantee, so it is refused rather than left uncharged.
    """

    kind: str = "mean"  # "mean" | "mode" | "none"
    count: int = 50
    sampling_rate: float = 0.1
    noise_scale: float = 5.0
    norm_bound: Optional[float] = None  # None -> sqrt(H*W*C), the pixel-range bound
    bins: int = 2
    per_label: bool = True
    parallel_accounting: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("mean", "mode", "none"):
            raise InvalidArgumentError(f"kind must be mean, mode or none, got {self.kind!r}")
        if not self.count >= 1:
            raise InvalidArgumentError(f"count must be at least 1, got {self.count}")
        if not 0.0 < self.sampling_rate <= 1.0:
            raise InvalidArgumentError(f"sampling_rate must be in (0, 1], got {self.sampling_rate}")
        if not (self.noise_scale > 0.0 and math.isfinite(self.noise_scale)):
            raise InvalidArgumentError(f"noise_scale must be positive and finite, got {self.noise_scale}")
        if self.norm_bound is not None and not (self.norm_bound > 0.0 and math.isfinite(self.norm_bound)):
            raise InvalidArgumentError(f"norm_bound must be positive and finite when set, got {self.norm_bound}")
        if not self.bins >= 2:
            raise InvalidArgumentError(f"bins must be at least 2, got {self.bins}")


def _mean_norm_bound(cfg: CentralConfig, ds: LabeledDataset) -> float:
    """The mean query's L2 clip bound: the configured one, or sqrt(H*W*C) for pixels in [0, 1]."""
    return cfg.norm_bound if cfg.norm_bound is not None else math.sqrt(ds.pixels.shape[1])


@dataclass(frozen=True, eq=False)
class CentralImageSet:
    """Noisy central images as a (count, H*W*C) matrix, optional labels, and charged events.

    Noisy pixels may leave [0, 1] but must be finite: a noise draw that
    overflowed is refused rather than released.
    """

    pixels: np.ndarray
    labels: Optional[np.ndarray]
    kind: str
    config: dict = field(default_factory=dict)
    events: tuple[MechanismEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.labels is not None and len(self.labels) != len(self.pixels):
            raise InvalidArgumentError("labels must match images one to one")
        if self.kind not in ("mean", "mode"):
            raise InvalidArgumentError(f"unknown central image kind {self.kind!r}")
        if not np.isfinite(self.pixels).all():
            raise InvalidArgumentError("central images must be finite")

    def __len__(self) -> int:
        return len(self.pixels)


def poisson_subsample(n: int, rate: float, rng: RngSeed) -> np.ndarray:
    """Indices of an independent-inclusion sample; may be empty."""
    if not (0.0 < rate <= 1.0):
        raise InvalidArgumentError(f"sampling rate must be in (0, 1], got {rate}")
    if rate == 1.0:
        return np.arange(n, dtype=np.int64)
    mask = rng.generator().random(n) < rate
    return np.flatnonzero(mask).astype(np.int64)


def clip_rows(pixels: np.ndarray, norm_bound: float) -> np.ndarray:
    """Row-wise L2 clip of an (N, D) matrix; rows within the ball (and zero rows) unchanged.

    The package's one clip: central images and gradients alike go through it
    or through the `core.clip_factors` rule it applies.
    """
    return pixels * clip_factors(np.linalg.norm(pixels, axis=1), norm_bound)[:, None]


def mean_aggregate(pixels: np.ndarray, indices: np.ndarray, norm_bound: float, expected_batch: float) -> np.ndarray:
    """Pre-noise mean query: sum of clipped sampled rows / expected batch.

    An empty sample yields the zero vector (the mechanism's convention for
    f(empty set)); normalization always uses the expected batch size, which
    is what keeps the sensitivity bound norm_bound / expected_batch valid.
    """
    if expected_batch <= 0.0:
        raise InvalidArgumentError("expected batch must be positive")
    if len(indices) == 0:
        return np.zeros(pixels.shape[1], dtype=np.float64)
    return clip_rows(pixels[indices], norm_bound).sum(axis=0) / expected_batch


def query_mean_image(ds: LabeledDataset, cfg: CentralConfig, rng: RngSeed) -> tuple[np.ndarray, MechanismEvent]:
    """One noisy mean image, a flat (H*W*C,) vector, plus the mechanism event to charge."""
    expected_batch = cfg.sampling_rate * len(ds)
    bound = _mean_norm_bound(cfg, ds)
    idx = poisson_subsample(len(ds), cfg.sampling_rate, rng.derive(0))
    mean = mean_aggregate(ds.pixels, idx, bound, expected_batch)
    noisy = mean + gaussian_noise(mean.shape, cfg.noise_scale * (bound / expected_batch), rng.derive(1))
    return noisy, MechanismEvent("mean_query", q=cfg.sampling_rate, sigma=cfg.noise_scale)


def pixel_histogram(values: np.ndarray, bins: int, p_max: float) -> np.ndarray:
    """Counts over the bins ((k-1) p_max/bins, k p_max/bins], k = 1..bins.

    Zero belongs to bin 1 so that every in-range value lands in exactly one
    bin. Values outside [0, p_max] are rejected.
    """
    if bins < 2:
        raise InvalidArgumentError("need at least 2 histogram bins")
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    if v.size and (v.min() < 0.0 or v.max() > p_max):
        raise InvalidArgumentError(f"pixel values outside [0, {p_max}]")
    k = np.ceil(v * bins / p_max).astype(np.int64)
    k = np.clip(k, 1, bins)
    return np.bincount(k - 1, minlength=bins).astype(np.float64)


def stacked_pixel_histogram(pixels: np.ndarray, bins: int, p_max: float) -> np.ndarray:
    """(D, bins) histogram over every pixel position of an (N, D) sample.

    Column j is pixel_histogram of the j-th pixel across the sampled images;
    an empty sample yields the all-zero histogram.
    """
    n, d = pixels.shape
    if n == 0:
        return np.zeros((d, bins), dtype=np.float64)
    if pixels.min() < 0.0 or pixels.max() > p_max:
        raise InvalidArgumentError(f"pixel values outside [0, {p_max}]")
    k = np.ceil(pixels * bins / p_max).astype(np.int64)
    k = np.clip(k, 1, bins) - 1
    hist = np.zeros((d, bins), dtype=np.float64)
    cols = np.broadcast_to(np.arange(d), (n, d))
    np.add.at(hist, (cols.reshape(-1), k.reshape(-1)), 1.0)
    return hist


def mode_from_noisy_histogram(noisy_counts: np.ndarray, bins: int, p_max: float) -> float:
    """Midpoint of the argmax bin, (2 k* - 1)/2 * p_max/bins; ties take the lowest bin."""
    if bins < 2:
        raise InvalidArgumentError("need at least 2 histogram bins")
    counts = np.asarray(noisy_counts, dtype=np.float64).reshape(-1)
    if counts.size != bins:
        raise InvalidArgumentError(f"expected {bins} counts, got {counts.size}")
    k_star = int(np.argmax(counts)) + 1
    return (2.0 * k_star - 1.0) / 2.0 * p_max / bins


def query_mode_image(ds: LabeledDataset, cfg: CentralConfig, rng: RngSeed) -> tuple[np.ndarray, MechanismEvent]:
    """One noisy mode image, a flat (H*W*C,) vector, plus the mechanism event to charge.

    Gaussian noise with variance (W H C) sigma^2 is added to every histogram
    cell (the all-pixel histogram has L2 sensitivity sqrt(W H C)); each
    pixel's value is the midpoint of its noisiest-count bin.
    """
    idx = poisson_subsample(len(ds), cfg.sampling_rate, rng.derive(0))
    hist = stacked_pixel_histogram(ds.pixels[idx], cfg.bins, P_MAX)
    noise_std = cfg.noise_scale * np.sqrt(ds.pixels.shape[1])
    noisy = hist + gaussian_noise(hist.shape, noise_std, rng.derive(1))
    k_star = np.argmax(noisy, axis=1) + 1
    modes = (2.0 * k_star - 1.0) / 2.0 * P_MAX / cfg.bins
    return modes, MechanismEvent("mode_query", q=cfg.sampling_rate, sigma=cfg.noise_scale)


def _split_count(total: int, groups: int) -> list[int]:
    """Even split with the remainder distributed round-robin."""
    base = total // groups
    rem = total % groups
    return [base + (1 if i < rem else 0) for i in range(groups)]


def query_central_set(ds: LabeledDataset, cfg: CentralConfig, rng: RngSeed) -> CentralImageSet:
    """`cfg.count` central images, optionally split across label subsets.

    With `cfg.per_label`, the count is divided evenly over the disjoint label
    subsets (remainder round-robin) and each subset is queried independently;
    images carry their subset's label. `cfg.parallel_accounting` additionally
    tags the emitted events with their partition so the accountant composes
    them in parallel; otherwise every query is charged sequentially, which is
    the conservative reading.
    """
    if cfg.kind == "none":
        raise InvalidArgumentError("kind 'none' queries no central images")
    query = query_mean_image if cfg.kind == "mean" else query_mode_image
    # (dataset, query count, stream, accounting partition) per queried subset
    if cfg.per_label:
        parts = ds.partition_by_label()
        if not parts:
            raise InvalidArgumentError("per-label querying requires a non-empty dataset")
        counts = _split_count(cfg.count, len(parts))
        labels = np.repeat(np.fromiter(parts, dtype=np.int64), counts)
        jobs = [
            (sub, n, rng.derive(label), f"label={label}" if cfg.parallel_accounting else None)
            for (label, sub), n in zip(parts.items(), counts)
        ]
    else:
        labels = None
        jobs = [(ds, cfg.count, rng, None)]

    pixels = np.empty((cfg.count, math.prod(ds.image_shape)))
    events: list[MechanismEvent] = []
    row = 0
    for sub, n, sub_rng, partition in jobs:
        for i in range(n):
            pixels[row], ev = query(sub, cfg, sub_rng.derive(i))
            row += 1
            events.append(dataclasses.replace(ev, partition=partition))

    return CentralImageSet(
        pixels=pixels,
        labels=labels,
        kind=cfg.kind,
        config={
            "count": cfg.count,
            "sampling_rate": cfg.sampling_rate,
            "noise_scale": cfg.noise_scale,
            "per_label": cfg.per_label,
            "parallel_accounting": cfg.parallel_accounting,
            **(
                {"norm_bound": _mean_norm_bound(cfg, ds)}
                if cfg.kind == "mean"
                else {"bins": cfg.bins, "p_max": P_MAX}
            ),
        },
        events=tuple(events),
    )
