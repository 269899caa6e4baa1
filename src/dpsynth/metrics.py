"""Desk-scale fidelity and utility metrics.

Fidelity is the Frechet distance between Gaussian fits of feature vectors;
the feature map is pluggable (block-average downsampling or PCA fit on held
out real data) rather than a fixed pretrained network, so absolute values are
not comparable to published benchmark numbers and only orderings are used.
Utility is the test accuracy of a multinomial logistic probe trained on
synthetic images by deterministic full-batch gradient descent. The
denoising loss is a seeded Monte-Carlo estimate of the training objective.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import InvalidArgumentError, LabeledDataset, NumericError, RngSeed
from .diffusion import DenoiserParams, NoiseSchedule, denoiser_forward
from .diffusion import sample  # noqa: F401  bench/test_bench.py checks that the tracer patches this binding

EIGENVALUE_TRUNCATION = 1e-10
REGULARIZATION = 1e-6
LOSS_CHUNK = 1000  # draws per denoiser batch; the draw order depends on it
ROW_BLOCK_BYTES = 1024 * 1024  # bytes of input rows a blocked product takes at once
SMALL_PRODUCT = 10**6  # OpenBLAS runs an M*N*K at or below about this on another kernel, which rounds differently


FEATURE_KINDS = ("downsample", "pca")
MAX_FEATURE_DIM = 64


@dataclass
class FeatureExtractor:
    """Deterministic image-to-feature map, at most MAX_FEATURE_DIM output dimensions."""

    kind: str = "downsample"  # one of FEATURE_KINDS
    dim: int = 16
    _mean: Optional[np.ndarray] = None
    _components: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.kind not in FEATURE_KINDS:
            raise InvalidArgumentError(f"unknown feature extractor kind {self.kind!r}")
        if not (1 <= self.dim <= MAX_FEATURE_DIM):
            raise InvalidArgumentError(f"feature dimension must be in [1, {MAX_FEATURE_DIM}]")

    def fit(self, pixels: np.ndarray) -> "FeatureExtractor":
        """PCA fit on reference data; a no-op for the downsampling map.

        The components are the top eigenvectors of the D x D scatter matrix of
        the centred data, O(N*D^2 + D^3), summed over row blocks so that no
        N x D array is made. This assumes N >= D, as for a reference dataset;
        with fewer rows than pixels a thin SVD would be cheaper.
        """
        if self.kind != "pca":
            return self
        x = np.asarray(pixels, dtype=np.float64)
        if x.shape[0] <= self.dim:
            raise InvalidArgumentError("PCA fit needs more samples than output dimensions")
        self._mean = x.mean(axis=0)
        d = x.shape[1]
        scatter = np.zeros((d, d))
        for a, b in _row_blocks(len(x), d, d * d):
            xc = x[a:b] - self._mean
            scatter += xc.T @ xc
        _, vecs = np.linalg.eigh(scatter)
        # eigh sorts ascending: keep the last dim eigenvectors, largest first.
        comps = vecs[:, : -self.dim - 1 : -1].T
        # Fix signs so the largest-magnitude loading is positive: determinism.
        signs = np.sign(comps[np.arange(len(comps)), np.abs(comps).argmax(axis=1)])
        self._components = comps * signs[:, None]
        return self

    def extract(self, pixels: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
        """(N, D) pixels -> (N, d) features."""
        x = np.asarray(pixels, dtype=np.float64)
        if self.kind == "pca":
            if self._components is None:
                raise InvalidArgumentError("PCA extractor used before fit()")
            feats = np.empty((len(x), self.dim))
            for a, b in _row_blocks(len(x), x.shape[1], self._components.size):
                np.matmul(x[a:b] - self._mean, self._components.T, out=feats[a:b])
            return feats
        h, w, c = shape
        if self.dim < c:
            raise InvalidArgumentError(
                f"downsample features need at least {c} dims for {c}-channel images"
            )
        grid = max(1, int(math.sqrt(self.dim // c)))
        grid = min(grid, h, w)
        imgs = x.reshape(-1, h, w, c)
        ys = np.array_split(np.arange(h), grid)
        xs = np.array_split(np.arange(w), grid)
        feats = np.empty((imgs.shape[0], grid * grid * c))
        k = 0
        for yb in ys:
            for xb in xs:
                block = imgs[:, yb][:, :, xb].mean(axis=(1, 2))
                feats[:, k : k + c] = block
                k += c
        return feats


def _sym_sqrt(mat: np.ndarray) -> np.ndarray:
    """PSD square root by symmetric eigendecomposition with tiny-negative truncation."""
    vals, vecs = np.linalg.eigh(mat)
    if vals.min() < -EIGENVALUE_TRUNCATION * max(1.0, float(vals.max())):
        raise NumericError(f"matrix is not PSD within tolerance: min eigenvalue {vals.min():.3e}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _cross_trace(c1: np.ndarray, c2: np.ndarray) -> float:
    """Tr((c2^1/2 c1 c2^1/2)^1/2), the symmetric form of Tr((c1 c2)^1/2)."""
    root2 = _sym_sqrt(c2)
    inner = root2 @ c1 @ root2
    inner = (inner + inner.T) / 2.0
    vals = np.linalg.eigh(inner)[0]
    if vals.min() < -EIGENVALUE_TRUNCATION * max(1.0, float(vals.max())):
        raise NumericError(f"cross matrix not PSD: min eigenvalue {vals.min():.3e}")
    return float(np.sum(np.sqrt(np.clip(vals, 0.0, None))))


def frechet_distance(feats_a: np.ndarray, feats_b: np.ndarray) -> float:
    """||mu1-mu2||^2 + Tr(S1 + S2 - 2 (S1 S2)^(1/2)) between Gaussian fits.

    The cross-term trace uses the symmetric form Tr((S2^1/2 S1 S2^1/2)^1/2),
    computed entirely with symmetric eigendecompositions. Rank deficiency
    beyond the truncation tolerance triggers a reported regularization by
    1e-6 I on both covariances.
    """
    a = np.asarray(feats_a, dtype=np.float64)
    b = np.asarray(feats_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise InvalidArgumentError("feature sets must be 2-D with matching dimension")
    d = a.shape[1]
    if a.shape[0] < d + 1 or b.shape[0] < d + 1:
        raise InvalidArgumentError(f"need at least {d + 1} samples per side for a rank-{d} fit")
    mu1, mu2 = a.mean(axis=0), b.mean(axis=0)
    # np.cov returns a 0-d array for one feature; eigh needs (1, 1)
    s1 = np.atleast_2d(np.cov(a, rowvar=False))
    s2 = np.atleast_2d(np.cov(b, rowvar=False))

    mean_term = float(np.sum((mu1 - mu2) ** 2))
    try:
        cross = _cross_trace(s1, s2)
    except NumericError:
        warnings.warn(
            f"covariance rank deficiency beyond tolerance; regularizing by {REGULARIZATION} * I",
            RuntimeWarning,
        )
        s1 = s1 + REGULARIZATION * np.eye(d)
        s2 = s2 + REGULARIZATION * np.eye(d)
        cross = _cross_trace(s1, s2)
    dist = mean_term + float(np.trace(s1) + np.trace(s2)) - 2.0 * cross
    return max(0.0, dist)


def train_probe_classifier(
    synthetic: LabeledDataset,
    real_test: LabeledDataset,
    iterations: int = 400,
) -> float:
    """Holdout accuracy of a softmax probe trained on synthetic pixels.

    Deterministic full-batch gradient descent with step size 1 from zero
    weights for a fixed iteration count; the probe's role is relative
    utility ranking only.
    """
    if len(synthetic) == 0:
        raise InvalidArgumentError("cannot train a probe on an empty synthetic set")
    if synthetic.num_classes != real_test.num_classes:
        raise InvalidArgumentError("synthetic and test datasets disagree on num_classes")
    if synthetic.image_shape != real_test.image_shape:
        raise InvalidArgumentError("synthetic and test datasets disagree on image shape")
    y = synthetic.labels
    if np.unique(y).size < 2:
        raise InvalidArgumentError("synthetic set is single-class; probe training is degenerate")

    x = np.hstack([synthetic.pixels, np.ones((len(synthetic), 1))])
    n, d = x.shape
    L = synthetic.num_classes
    onehot = np.zeros((n, L))
    onehot[np.arange(n), y] = 1.0
    w = np.zeros((d, L))
    for _ in range(iterations):
        logits = x @ w
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        w -= x.T @ (p - onehot) / n

    pred = np.argmax(_probe_logits(real_test.pixels, w), axis=1)
    return float(np.mean(pred == real_test.labels))


def _row_blocks(n: int, width: int, weights: int):
    """(start, stop) row blocks over n rows of `width` floats, each multiplied by a matrix of `weights` entries.

    A block holds as many rows as ROW_BLOCK_BYTES does, or more where its
    product would not pass SMALL_PRODUCT multiply-adds, and the last one takes
    the tail (under two blocks), so a set of under two blocks is one whole
    product. Each row's product is then bit-equal to the whole product's.
    """
    rows = max(1, ROW_BLOCK_BYTES // (8 * width), SMALL_PRODUCT // weights + 1)
    bounds = [0, *range(rows, n // rows * rows, rows), n]
    return zip(bounds, bounds[1:])


def _probe_logits(pixels: np.ndarray, w: np.ndarray) -> np.ndarray:
    """[pixels, 1] @ w in row blocks; bit-equal to one product."""
    logits = np.empty((len(pixels), w.shape[1]))
    for a, b in _row_blocks(len(pixels), w.shape[0], w.size):
        np.matmul(np.hstack([pixels[a:b], np.ones((b - a, 1))]), w, out=logits[a:b])
    return logits


def denoising_loss_estimate(
    params: DenoiserParams,
    schedule: NoiseSchedule,
    ds: LabeledDataset,
    rng: RngSeed,
    draws: int = 10_000,
) -> float:
    """Monte-Carlo estimate of the label-conditional noise-prediction objective.

    Fixed number of (example, timestep, noise) triples drawn from one seeded
    stream, LOSS_CHUNK at a time, each chunk's forward pass in row blocks; the
    same seed always reproduces the same estimate.
    """
    if draws < 1:
        raise InvalidArgumentError("need at least one draw")
    if len(ds) == 0:
        raise InvalidArgumentError("cannot estimate the loss of an empty dataset")
    gen = rng.generator()
    pixels = ds.pixels
    labels = ds.labels
    abars = schedule.alpha_bars
    weights = min(math.prod(params.manifest.block_shapes()[k]) for k in ("W1", "W2", "W3"))
    total = 0.0
    for start in range(0, draws, LOSS_CHUNK):
        b = min(LOSS_CHUNK, draws - start)
        ex = gen.integers(0, len(ds), size=b)
        ts = gen.integers(1, schedule.num_steps + 1, size=b)
        es = gen.standard_normal((b, pixels.shape[1]))
        ab = abars[ts - 1][:, None]
        out = np.empty_like(es)
        for a, z in _row_blocks(b, pixels.shape[1], weights):
            x_t = pixels[ex[a:z]]  # x_t = sqrt(ab) * x0 + sqrt(1 - ab) * es, in the gathered rows
            x_t *= np.sqrt(ab[a:z])
            x_t += np.sqrt(1.0 - ab[a:z]) * es[a:z]
            out[a:z] = denoiser_forward(params, x_t, ts[a:z], labels[ex[a:z]])
        out -= es
        total += float(np.sum(np.square(out, out=out)))
    return total / draws
