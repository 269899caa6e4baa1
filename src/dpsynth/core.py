"""Shared value types: labeled datasets, a splittable RNG, and the L2 clip rule.

Everything downstream works on 64-bit floats. An image is a flat row-major,
channel-last vector, and a set of images is an (N, H*W*C) matrix, so that
parameter vectors and pixel vectors share one substrate. All types are
immutable values; operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1


class InvalidArgumentError(ValueError):
    """An argument violates an operation's precondition."""


class NumericError(RuntimeError):
    """A numerical routine failed to reach its accuracy target."""


class BudgetExhaustedError(RuntimeError):
    """The privacy budget cannot accommodate the requested mechanisms."""


def _splitmix64(z: int) -> int:
    """One round of the SplitMix64 mixer (stable 64-bit stream derivation)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RngSeed:
    """Deterministic RNG handle: a (seed, stream) pair.

    Identical (seed, stream) pairs reproduce identical draw sequences on all
    platforms. `derive` produces statistically independent child streams from
    integer indices; derivation is order-sensitive, so ``derive(a, b)`` and
    ``derive(b, a)`` differ. Backed by the counter-based Philox generator, so
    streams never need to be drawn in a particular order.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.seed <= _MASK64) or not (0 <= self.stream <= _MASK64):
            raise InvalidArgumentError("seed and stream must be unsigned 64-bit integers")

    def derive(self, *indices: int) -> "RngSeed":
        if not indices:
            raise InvalidArgumentError("derive() needs at least one index")
        s = self.stream
        for idx in indices:
            s = _splitmix64(s ^ (int(idx) & _MASK64))
        return RngSeed(self.seed, s)

    def derive_many(self, ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """``derive(i).stream`` for each i in `ids`, as one uint64 array (uint64 wraps as the masked ints do)."""
        z = np.array(ids, dtype=np.uint64) ^ np.uint64(self.stream)
        z += np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def generator(self, into: Optional[np.random.Generator] = None) -> np.random.Generator:
        """A generator at the start of this stream.

        With `into`, a Philox-backed generator from an earlier call, re-key
        that generator in place and return it: a fresh Philox costs an OS
        entropy read, and loops that open one stream per example pay it each
        time. The re-keyed state equals a fresh generator's (counter 0, empty
        buffer, no buffered 32-bit half), so it draws the same sequence.
        """
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        if into is None:
            return np.random.Generator(np.random.Philox(key=key))
        into.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return into


def frozen_copy(a: np.ndarray) -> np.ndarray:
    """A read-only C-contiguous float64 copy of `a`; the caller's array stays writable.

    An array that already is all that and owns its data is adopted: its builder gave up writing to it.
    """
    adoptable = isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.c_contiguous
    if adoptable and a.flags.owndata and not a.flags.writeable:
        return a
    a = np.array(a, dtype=np.float64, order="C")
    a.setflags(write=False)
    return a


def json_number(value, name: str) -> float:
    """A JSON number as a float; text and booleans are refused, never coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidArgumentError(f"{name} must be a number, got {value!r}")
    return float(value)


def gaussian_noise(shape: Sequence[int] | int, std: float, rng: RngSeed) -> np.ndarray:
    """I.i.d. N(0, std^2) samples; std == 0 returns exact zeros."""
    if std < 0:
        raise InvalidArgumentError(f"noise std must be non-negative, got {std}")
    if std == 0:
        return np.zeros(shape, dtype=np.float64)
    return std * rng.generator().standard_normal(shape)


def clip_factors(norms: np.ndarray, bound: float) -> np.ndarray:
    """Per-row L2 clip factors min(1, bound / norm); rows inside the ball get exactly 1.

    This is the one place every clip in the package is decided, so it fails
    closed: a non-finite norm, or a factor that would leave a row outside the
    ball, raises instead of releasing an unbounded contribution. The checks
    are explicit so that `python -O` keeps them.
    """
    if bound <= 0.0:
        raise InvalidArgumentError("clip bound must be positive")
    norms = np.asarray(norms, dtype=np.float64)
    if not np.all(np.isfinite(norms)):
        raise InvalidArgumentError("cannot clip: a norm is not finite")
    factors = np.minimum(1.0, bound / np.maximum(norms, 1e-300))
    if np.any(norms * factors > bound * (1.0 + 1e-9)):
        raise InvalidArgumentError("clip bound violated")
    return factors


def _first(mask: np.ndarray) -> int:
    return int(np.flatnonzero(mask)[0])


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Labeled images of one shape: an (N, H*W*C) pixel matrix in [0, 1] and N labels.

    Both arrays are read-only copies, except that `frozen_copy` adopts pixels
    a reader has just built, such as `load_container`'s. Every check is
    vectorised and raises InvalidArgumentError naming the first offending index.
    """

    pixels: np.ndarray
    labels: np.ndarray
    num_classes: int
    image_shape: tuple[int, int, int]

    def __post_init__(self) -> None:
        if self.num_classes < 1:
            raise InvalidArgumentError("num_classes must be positive")
        h, w, c = (int(v) for v in self.image_shape)
        if min(h, w, c) < 1:
            raise InvalidArgumentError("image dimensions must be positive")
        pixels = frozen_copy(self.pixels)
        labels = np.asarray(self.labels)
        if labels.size and labels.dtype.kind not in "iu":
            raise InvalidArgumentError(f"labels must be integers, got dtype {labels.dtype}")
        labels = labels.astype(np.int64)
        labels.setflags(write=False)
        if pixels.ndim != 2 or labels.ndim != 1:
            raise InvalidArgumentError(
                f"need an (N, D) pixel matrix and N labels, got shapes {pixels.shape} and {labels.shape}"
            )
        n, d = pixels.shape
        if n != len(labels):
            raise InvalidArgumentError(
                f"images and labels must have equal length: {n} vs {len(labels)}, "
                f"index {min(n, len(labels))} has no pair"
            )
        if d != h * w * c:
            raise InvalidArgumentError(f"pixel rows have {d} values, not {h}x{w}x{c}; first bad index 0")
        if n and not (pixels.min() >= 0.0 and pixels.max() <= 1.0):
            finite = np.isfinite(pixels).all(axis=1)
            if not finite.all():
                raise InvalidArgumentError(f"image {_first(~finite)} has a non-finite value")
            outside = ((pixels < 0.0) | (pixels > 1.0)).any(axis=1)
            raise InvalidArgumentError(f"image {_first(outside)} has values outside [0, 1]")
        bad = (labels < 0) | (labels >= self.num_classes)
        if bad.any():
            i = _first(bad)
            raise InvalidArgumentError(f"label {labels[i]} at index {i} outside [0, {self.num_classes})")
        object.__setattr__(self, "pixels", pixels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "image_shape", (h, w, c))

    def __len__(self) -> int:
        return self.pixels.shape[0]

    def subset(self, indices: Iterable[int]) -> "LabeledDataset":
        idx = np.fromiter(indices, dtype=np.int64)
        pixels = self.pixels[idx]
        pixels.setflags(write=False)  # a fresh array, so the dataset adopts it without a copy
        return LabeledDataset(pixels, self.labels[idx], self.num_classes, self.image_shape)

    def partition_by_label(self) -> dict[int, "LabeledDataset"]:
        """Disjoint per-label subsets in row order (labels keep their original values)."""
        return {int(l): self.subset(np.flatnonzero(self.labels == l)) for l in np.unique(self.labels)}

    @classmethod
    def from_arrays(
        cls,
        pixels: np.ndarray,
        labels: Sequence[int],
        num_classes: int,
        shape: tuple[int, int, int],
    ) -> "LabeledDataset":
        """Build from an (N, H*W*C) or (N, H, W, C) pixel array."""
        a = np.asarray(pixels, dtype=np.float64)
        if a.ndim > 2:
            a = a.reshape(len(a), math.prod(a.shape[1:]))
        return cls(a, labels, num_classes, shape)
