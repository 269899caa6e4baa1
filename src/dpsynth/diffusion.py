"""Compact denoising diffusion model with hand-derived gradients.

The forward process corrupts an image in closed form,
``x_t = sqrt(abar_t) x_0 + sqrt(1 - abar_t) e`` with ``e ~ N(0, I)`` and
``abar_t`` the cumulative product of (1 - beta_s). A small fully-connected
network predicts the injected noise from (x_t, timestep, optional label); its
training objective is the squared error ``||e - predicted||^2`` averaged over
one or more noise draws per example. Gradients are reverse-mode by hand.
Training never materialises per-example gradients: every per-example
gradient of a dense layer is a sum of outer products, so one backward pass
yields each example's gradient norm from the layer activations and output
gradients, then a per-example weighted sum of gradients as one matmul per
layer ("ghost clipping"). `loss_and_per_example_grads` still builds the
(B, P) matrix; it is the reference the tests hold the fused pass to.
Generation runs the reverse process: estimate the clean image from the
predicted noise, re-noise to the previous timestep, repeat.

Parameters live in one flat float64 vector addressed through a shape
manifest, so checkpointing, clipping, and noising treat the model as a plain
vector.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import InvalidArgumentError, RngSeed, frozen_copy
from .data_io import read_framed, write_framed

CHECKPOINT_MAGIC = b"DPSYNCK1"
NOISE_BLOCK_BYTES = 2 * 1024 * 1024  # the sampler's noise buffer, unless one step of n chains needs more


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step corruption rates and their cumulative products."""

    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.betas:
            raise InvalidArgumentError("schedule needs at least one step")
        for b in self.betas:
            if not (0.0 <= b < 1.0):
                raise InvalidArgumentError(f"beta values must lie in [0, 1), got {b}")

    @property
    def num_steps(self) -> int:
        return len(self.betas)

    @functools.cached_property
    def alpha_bars(self) -> np.ndarray:
        bars = np.cumprod(1.0 - np.asarray(self.betas, dtype=np.float64))
        bars.setflags(write=False)
        return bars

    def alpha_bar(self, t: int) -> float:
        """Cumulative product through step t (1-indexed)."""
        if not (1 <= t <= self.num_steps):
            raise InvalidArgumentError(f"step {t} outside [1, {self.num_steps}]")
        return float(self.alpha_bars[t - 1])

    @classmethod
    def linear(
        cls,
        num_steps: int = 100,
        beta_start: float = 1e-4,
        beta_end: float = 0.02,
        reference_steps: int = 1000,
    ) -> "NoiseSchedule":
        """Linear schedule rescaled so shorter chains still end near-fully noised.

        beta_start/beta_end describe the schedule at `reference_steps`; fewer
        steps scale the rates up by reference_steps / num_steps (capped below
        1) so that the terminal cumulative product stays below 1e-3.
        """
        if num_steps < 1:
            raise InvalidArgumentError("num_steps must be positive")
        scale = reference_steps / num_steps
        betas = np.linspace(beta_start * scale, beta_end * scale, num_steps)
        betas = np.clip(betas, 0.0, 0.999)
        schedule = cls(tuple(float(b) for b in betas))
        terminal = schedule.alpha_bars[-1]
        if terminal >= 1e-3:
            raise InvalidArgumentError(
                f"schedule ends with cumulative product {terminal:.3g} >= 1e-3; "
                "increase num_steps or the beta range"
            )
        return schedule


@dataclass(frozen=True)
class ParamManifest:
    """Layer shapes of the denoiser; fixes the flat-vector layout.

    Layout order: W1, b1, W2, b2, W3, b3, label embedding table. The label
    table has num_classes + 1 rows; the last row is the unconditional
    sentinel used when no label is supplied.
    """

    height: int
    width: int
    channels: int
    hidden1: int = 128
    hidden2: int = 128
    time_dim: int = 16
    num_classes: int = 10
    label_dim: int = 8

    def __post_init__(self) -> None:
        if min(self.height, self.width, self.channels) < 1:
            raise InvalidArgumentError("image dimensions must be positive")
        if min(self.hidden1, self.hidden2, self.label_dim) < 1 or self.num_classes < 1:
            raise InvalidArgumentError("layer sizes must be positive")
        if self.time_dim < 2 or self.time_dim % 2:
            raise InvalidArgumentError("time embedding dimension must be even and >= 2")

    @property
    def data_dim(self) -> int:
        return self.height * self.width * self.channels

    @property
    def input_dim(self) -> int:
        return self.data_dim + self.time_dim + self.label_dim

    @property
    def unconditional_label(self) -> int:
        return self.num_classes

    def block_shapes(self) -> dict[str, tuple[int, ...]]:
        d, h1, h2 = self.input_dim, self.hidden1, self.hidden2
        return {
            "W1": (h1, d),
            "b1": (h1,),
            "W2": (h2, h1),
            "b2": (h2,),
            "W3": (self.data_dim, h2),
            "b3": (self.data_dim,),
            "emb": (self.num_classes + 1, self.label_dim),
        }

    @functools.cached_property
    def _layout(self) -> tuple[tuple[str, tuple[int, ...], int, int], ...]:
        """(name, shape, start, stop) of each block in the flat vector, computed once."""
        blocks, offset = [], 0
        for name, shape in self.block_shapes().items():
            blocks.append((name, shape, offset, offset + math.prod(shape)))
            offset += math.prod(shape)
        return tuple(blocks)

    @property
    def num_params(self) -> int:
        return self._layout[-1][3]

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Named reshaped views into a flat parameter vector (no copies)."""
        if vector.shape != (self.num_params,):
            raise InvalidArgumentError(
                f"parameter vector has shape {vector.shape}, expected ({self.num_params},)"
            )
        return {name: vector[start:stop].reshape(shape) for name, shape, start, stop in self._layout}

    def to_dict(self) -> dict:
        return {
            "height": self.height,
            "width": self.width,
            "channels": self.channels,
            "hidden1": self.hidden1,
            "hidden2": self.hidden2,
            "time_dim": self.time_dim,
            "num_classes": self.num_classes,
            "label_dim": self.label_dim,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ParamManifest":
        return cls(**{k: int(v) for k, v in d.items()})


@dataclass(frozen=True)
class DenoiserParams:
    """Flat trainable vector (a private read-only copy) plus its manifest."""

    manifest: ParamManifest
    vector: np.ndarray

    def __post_init__(self) -> None:
        v = frozen_copy(self.vector)
        if v.shape != (self.manifest.num_params,):
            raise InvalidArgumentError(
                f"vector length {v.size} != manifest total {self.manifest.num_params}"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidArgumentError("parameters must be finite")
        object.__setattr__(self, "vector", v)

    def replace_vector(self, vector: np.ndarray) -> "DenoiserParams":
        return DenoiserParams(self.manifest, vector)


def init_params(manifest: ParamManifest, rng: RngSeed) -> DenoiserParams:
    """Fan-in scaled Gaussian weights, zero biases, label embeddings with std 0.25."""
    gen = rng.generator()
    blocks = []
    for name, shape in manifest.block_shapes().items():
        if name.startswith("b"):
            blocks.append(np.zeros(shape))
        elif name == "emb":
            blocks.append(0.25 * gen.standard_normal(shape))
        else:
            fan_in = shape[1]
            blocks.append(gen.standard_normal(shape) * math.sqrt(2.0 / fan_in))
    return DenoiserParams(manifest, np.concatenate([b.reshape(-1) for b in blocks]))


def zero_params(manifest: ParamManifest) -> DenoiserParams:
    return DenoiserParams(manifest, np.zeros(manifest.num_params))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-x) overflows to inf below x = -709, where the sigmoid is exactly 0.0.
    # Above 40, exp(-x) < 2**-54 and 1 + exp(-x) rounds to 1.0, so the clamp
    # changes no value; it keeps exp off its slow underflow path (x > 745).
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.minimum(x, 40.0)))


def _silu(x: np.ndarray) -> np.ndarray:
    return x * _sigmoid(x)


def _silu_grad(x: np.ndarray) -> np.ndarray:
    s = _sigmoid(x)
    return s * (1.0 + x * (1.0 - s))


def time_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal embedding of integer timesteps, shape (len(t), dim)."""
    t = np.asarray(t, dtype=np.float64).reshape(-1, 1)
    half = dim // 2
    freqs = np.exp(-math.log(10_000.0) * np.arange(half) / half)[None, :]
    ang = t * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def corrupt(x0: np.ndarray, alpha_bar: float, noise: np.ndarray) -> np.ndarray:
    """Closed-form forward corruption for a given cumulative product."""
    return math.sqrt(alpha_bar) * x0 + math.sqrt(1.0 - alpha_bar) * noise


def forward_noise(
    x0: np.ndarray, t: int, schedule: NoiseSchedule, rng: RngSeed
) -> tuple[np.ndarray, np.ndarray]:
    """Single-step corruption of a flat image x0 to level t; returns (x_t, injected noise)."""
    abar = schedule.alpha_bar(t)
    x0 = np.asarray(x0, dtype=np.float64)
    e = rng.generator().standard_normal(x0.shape)
    return corrupt(x0, abar, e), e


def _label_rows(views: dict, manifest: ParamManifest, n: int, labels) -> tuple[np.ndarray, np.ndarray]:
    """Validated embedding indices (n,) of a batch and their embedding rows (n, label_dim)."""
    if labels is None:
        lab = np.full(n, manifest.unconditional_label, dtype=np.int64)
    else:
        lab = np.asarray(labels, dtype=np.int64)
        if lab.shape != (n,):
            raise InvalidArgumentError("labels must match the batch size")
        if lab.min() < 0 or lab.max() > manifest.unconditional_label:
            raise InvalidArgumentError("label outside the embedding table")
    return lab, views["emb"][lab]


def _forward_cached(views: dict, manifest: ParamManifest, x, temb, lab, rows):
    """Output and backward cache; `temb` is (n, time_dim) or one shared row, `lab, rows` from `_label_rows`."""
    z0 = np.concatenate([x, np.broadcast_to(temb, (len(x), manifest.time_dim)), rows], axis=1)
    a1 = z0 @ views["W1"].T + views["b1"]
    h1 = _silu(a1)
    a2 = h1 @ views["W2"].T + views["b2"]
    h2 = _silu(a2)
    out = h2 @ views["W3"].T + views["b3"]
    return out, (z0, a1, h1, a2, h2, lab)


def denoiser_forward(
    params: DenoiserParams,
    x_t: np.ndarray,
    t: np.ndarray | int,
    labels: Optional[np.ndarray | int] = None,
) -> np.ndarray:
    """Predicted noise for a batch (N, D) or a single flat image (D,)."""
    m = params.manifest
    x = np.asarray(x_t, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
        t = np.array([t])
        labels = None if labels is None else np.array([labels])
    if x.shape[1] != m.data_dim:
        raise InvalidArgumentError(f"input dim {x.shape[1]} != manifest data dim {m.data_dim}")
    views = m.views(params.vector)
    temb = time_embedding(np.asarray(t), m.time_dim)
    out, _ = _forward_cached(views, m, x, temb, *_label_rows(views, m, x.shape[0], labels))
    return out[0] if single else out


@dataclass(frozen=True)
class DiffusionBatchLoss:
    """Mean batch loss plus one flat gradient vector per example."""

    loss: float
    per_example_losses: np.ndarray
    per_example_grads: np.ndarray

    def __post_init__(self) -> None:
        if self.per_example_grads.shape[0] != self.per_example_losses.shape[0]:
            raise InvalidArgumentError("gradient count must equal the batch size")


def _backward(views, manifest, cache, dout):
    """Per-example gradients of sum-of-squares loss wrt every block."""
    z0, a1, h1, a2, h2, lab = cache
    n = dout.shape[0]

    g = {}
    g["W3"] = np.einsum("bd,bh->bdh", dout, h2)
    g["b3"] = dout
    dh2 = dout @ views["W3"]
    da2 = dh2 * _silu_grad(a2)
    g["W2"] = np.einsum("bh,bi->bhi", da2, h1)
    g["b2"] = da2
    dh1 = da2 @ views["W2"]
    da1 = dh1 * _silu_grad(a1)
    g["W1"] = np.einsum("bh,bi->bhi", da1, z0)
    g["b1"] = da1
    dz0 = da1 @ views["W1"]

    flat = np.zeros((n, manifest.num_params))
    for name, _, start, stop in manifest._layout:
        if name == "emb":
            demb = dz0[:, manifest.data_dim + manifest.time_dim :]
            cols = start + lab[:, None] * manifest.label_dim + np.arange(manifest.label_dim)[None, :]
            flat[np.arange(n)[:, None], cols] = demb
        else:
            flat[:, start:stop] = g[name].reshape(n, stop - start)
    return flat


def _noise_draws(
    manifest: ParamManifest,
    schedule: NoiseSchedule,
    rng: RngSeed,
    n: int,
    k: int,
    example_ids: Optional[Sequence[int]],
) -> tuple[np.ndarray, np.ndarray]:
    """(timesteps (n, k), noise (n, k, D)) for a batch of n examples.

    With `example_ids`, example i draws from its own stream rng.derive(id),
    so its draws do not depend on the rest of the batch; otherwise all draws
    come from rng's single sequential stream.
    """
    T = schedule.num_steps
    if example_ids is None:
        gen = rng.generator()
        return gen.integers(1, T + 1, size=(n, k)), gen.standard_normal((n, k, manifest.data_dim))
    streams = rng.derive_many(example_ids)
    if streams.shape != (n,):
        raise InvalidArgumentError("example_ids must match the batch size")
    ts = np.empty((n, k), dtype=np.int64)
    es = np.empty((n, k, manifest.data_dim))
    gen = None
    for i, stream in enumerate(streams):
        gen = RngSeed(rng.seed, int(stream)).generator(into=gen)
        # the scalar draw takes the same numbers from the stream as a draw of size 1, faster
        ts[i] = gen.integers(1, T + 1) if k == 1 else gen.integers(1, T + 1, size=k)
        gen.standard_normal(out=es[i])
    return ts, es


def loss_and_per_example_grads(
    params: DenoiserParams,
    x0: np.ndarray,
    labels: Optional[np.ndarray],
    schedule: NoiseSchedule,
    rng: RngSeed,
    noise_multiplicity: int = 1,
    example_ids: Optional[Sequence[int]] = None,
) -> DiffusionBatchLoss:
    """Noise-prediction loss and materialised per-example gradients for a batch.

    Each example draws `noise_multiplicity` (timestep, noise) pairs; its loss
    is the average squared error over the draws and its gradient is the exact
    gradient of that average. When `example_ids` is given, each example's
    draws come from its own derived stream keyed by its id, making the result
    independent of batch order; otherwise draws come from one sequential
    stream. Training uses `loss_and_weighted_grad_sum`, which yields the same
    sums without the (B, P) matrix; this function is its reference.
    """
    if noise_multiplicity < 1:
        raise InvalidArgumentError("noise multiplicity must be >= 1")
    m = params.manifest
    x0 = np.asarray(x0, dtype=np.float64)
    n = x0.shape[0]
    views = m.views(params.vector)
    abars = schedule.alpha_bars
    k = noise_multiplicity

    if n == 0:
        return DiffusionBatchLoss(0.0, np.zeros(0), np.zeros((0, m.num_params)))

    ts, es = _noise_draws(m, schedule, rng, n, k, example_ids)
    lab_rows = _label_rows(views, m, n, labels)
    losses = np.zeros(n)
    grads = np.zeros((n, m.num_params))
    for j in range(k):
        t_j = ts[:, j]
        e_j = es[:, j]
        ab = abars[t_j - 1][:, None]
        x_t = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * e_j
        out, cache = _forward_cached(views, m, x_t, time_embedding(t_j, m.time_dim), *lab_rows)
        resid = out - e_j
        losses += np.sum(resid * resid, axis=1) / k
        grads += _backward(views, m, cache, 2.0 * resid / k)
    return DiffusionBatchLoss(float(losses.mean()), losses, grads)


def _gram(a: np.ndarray) -> np.ndarray:
    """Per-example Gram matrices of the k draws: (n, k, d) -> (n, k, k)."""
    return np.einsum("nkd,nld->nkl", a, a)


def loss_and_weighted_grad_sum(
    params: DenoiserParams,
    x0: np.ndarray,
    labels: Optional[np.ndarray],
    schedule: NoiseSchedule,
    rng: RngSeed,
    weights: Callable[[np.ndarray], np.ndarray],
    noise_multiplicity: int = 1,
    example_ids: Optional[Sequence[int]] = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """(sum_i c_i g_i, per-example gradient norms ||g_i||, mean loss), with c = weights(norms).

    g_i is the gradient `loss_and_per_example_grads` would return for
    example i, from the same draws, but no g_i is ever formed. A dense
    layer's per-example gradient is sum_j delta_ij h_ij^T over the k draws,
    where delta are the layer's output gradients and h its inputs, so its
    squared norm is sum_jl (delta_ij . delta_il)(h_ij . h_il) and a bias
    contributes sum_jl delta_ij . delta_il. An example's label is the same in
    all its draws, so its embedding row gets sum_j demb_ij. The weighted sum
    is then one matmul (c * delta)^T h per layer. DP-SGD passes clip factors
    as weights; the non-private warm-up passes 1/B.
    """
    if noise_multiplicity < 1:
        raise InvalidArgumentError("noise multiplicity must be >= 1")
    m = params.manifest
    x0 = np.asarray(x0, dtype=np.float64)
    n = x0.shape[0]
    k = noise_multiplicity
    grad = np.zeros(m.num_params)
    if n == 0:
        return grad, np.zeros(0), 0.0

    # All n * k draws go through the network as one batch, row i * k + j.
    ts, es = _noise_draws(m, schedule, rng, n, k, example_ids)
    t = ts.reshape(-1)
    e = es.reshape(n * k, m.data_dim)
    ab = schedule.alpha_bars[t - 1][:, None]
    x_t = np.sqrt(ab) * np.repeat(x0, k, axis=0) + np.sqrt(1.0 - ab) * e
    rows_labels = None if labels is None else np.repeat(np.asarray(labels), k)
    views = m.views(params.vector)
    lab_rows = _label_rows(views, m, n * k, rows_labels)
    out, (z0, a1, h1, a2, h2, lab) = _forward_cached(views, m, x_t, time_embedding(t, m.time_dim), *lab_rows)
    resid = out - e
    losses = (np.sum(resid * resid, axis=1) / k).reshape(n, k).sum(axis=1)

    d3 = 2.0 * resid / k
    d2 = (d3 @ views["W3"]) * _silu_grad(a2)
    d1 = (d2 @ views["W2"]) * _silu_grad(a1)
    demb = (d1 @ views["W1"])[:, m.data_dim + m.time_dim :].reshape(n, k, m.label_dim).sum(axis=1)
    layers = (("W1", "b1", d1, z0), ("W2", "b2", d2, h1), ("W3", "b3", d3, h2))

    sq = np.sum(demb * demb, axis=1)
    for _, _, delta, h in layers:
        gd = _gram(delta.reshape(n, k, -1))
        # the + 1 adds the bias block's sum_jl delta_ij . delta_il
        sq += np.sum(gd * (_gram(h.reshape(n, k, -1)) + 1.0), axis=(1, 2))
    # the Gram forms are non-negative; rounding can dip a zero norm just below 0
    norms = np.sqrt(np.maximum(sq, 0.0))

    c = np.asarray(weights(norms), dtype=np.float64)
    if c.shape != (n,):
        raise InvalidArgumentError("weights must give one factor per example")
    g = m.views(grad)
    c_rows = np.repeat(c, k)[:, None]
    for w_name, b_name, delta, h in layers:
        cd = c_rows * delta
        g[w_name][...] = cd.T @ h
        g[b_name][...] = cd.sum(axis=0)
    np.add.at(g["emb"], lab[::k], c[:, None] * demb)
    return grad, norms, float(losses.mean())


def sample(
    params: DenoiserParams,
    schedule: NoiseSchedule,
    n: int,
    rng: RngSeed,
    labels: Optional[np.ndarray | int] = None,
) -> np.ndarray:
    """Ancestral sampling: estimate the clean image, re-noise, iterate.

    Returns an (n, H*W*C) matrix. Each of the n chains draws from its own
    derived stream, one vector per step, so sample i is reproducible
    independent of n. The draws are made K steps at a time into a buffer of
    at most max(NOISE_BLOCK_BYTES, n*D*8) bytes, which changes no value.
    Runs exactly one denoiser evaluation per step per image; the final
    output is the clean estimate from step 1, clamped to the pixel range
    [0, 1].
    """
    if n < 0:
        raise InvalidArgumentError("sample count must be non-negative")
    m = params.manifest
    if n == 0:
        return np.zeros((0, m.data_dim))
    if labels is not None and np.isscalar(labels):
        labels = np.full(n, int(labels), dtype=np.int64)
    elif labels is not None and np.shape(labels) != (n,):
        raise InvalidArgumentError("labels must match the sample count")

    T = schedule.num_steps
    abars = schedule.alpha_bars
    # Each step's inputs other than x are the same for every step: validate
    # and gather the labels' rows once, and embed the T timesteps once.
    views = m.views(params.vector)
    lab_rows = _label_rows(views, m, n, labels)
    temb = time_embedding(np.arange(1, T + 1), m.time_dim)
    gens = [RngSeed(rng.seed, int(s)).generator() for s in rng.derive_many(np.arange(n))]
    # A chain's T noise vectors come K at a time: one draw of K*D normals is
    # the same stream as K draws of D each, in 1/K of the calls.
    K = max(1, min(T, NOISE_BLOCK_BYTES // (n * m.data_dim * 8)))
    block = np.empty((n, K, m.data_dim))

    def noise(step: int) -> np.ndarray:
        """The (n, D) noise of the chain's step-th draw (0 is x_T), refilling the block every K steps."""
        j = step % K
        if j == 0:
            rows = min(K, T - step)
            for gen, chain in zip(gens, block):
                gen.standard_normal(out=chain[:rows])
        return block[:, j]

    x = noise(0).copy()  # x_T
    x0_hat = x
    for t in range(T, 0, -1):
        out, _ = _forward_cached(views, m, x, temb[t - 1], *lab_rows)
        ab_t = abars[t - 1]
        x0_hat = (x - math.sqrt(1.0 - ab_t) * out) / math.sqrt(ab_t)
        if t > 1:
            ab_prev = abars[t - 2]
            x = math.sqrt(ab_prev) * x0_hat + math.sqrt(1.0 - ab_prev) * noise(T - t + 1)
    return np.clip(x0_hat, 0.0, 1.0)


def save_checkpoint(path, params: DenoiserParams, schedule: NoiseSchedule) -> None:
    """Manifest header + float64 little-endian betas and weights, checksummed."""
    header = {
        "manifest": params.manifest.to_dict(),
        "num_steps": schedule.num_steps,
        "num_params": params.manifest.num_params,
    }
    betas = np.asarray(schedule.betas, dtype="<f8")
    write_framed(path, CHECKPOINT_MAGIC, header, betas, np.asarray(params.vector, dtype="<f8"))


def _checkpoint_payload_size(header: dict) -> int:
    ParamManifest.from_dict(header["manifest"])  # a malformed manifest is a format error too
    return 8 * (int(header["num_steps"]) + int(header["num_params"]))


def load_checkpoint(path) -> tuple[DenoiserParams, NoiseSchedule]:
    header, payload = read_framed(path, CHECKPOINT_MAGIC, _checkpoint_payload_size)
    t = 8 * int(header["num_steps"])
    betas = np.frombuffer(payload[:t], dtype="<f8")
    vector = np.frombuffer(payload[t:], dtype="<f8")
    manifest = ParamManifest.from_dict(header["manifest"])
    return DenoiserParams(manifest, vector), NoiseSchedule(tuple(float(b) for b in betas))
