"""Augmentation bag applied to central images during warm-up.

A bag holds named parameterized transforms; each application samples k of
them with replacement, draws a magnitude per transform from its declared
range, and applies them in order. Every transform maps [0,1] images to [0,1]
images of the same shape, and works on a whole batch at once. Geometric
transforms use inverse-mapped nearest neighbor lookups with zero fill:
deterministic and interpolation free.

Augmentation is post-processing of already-privatized images, so nothing in
this module touches the privacy ledger.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import InvalidArgumentError

# fn(images, magnitudes, plan_ints) -> images. `images` is (..., H, W, C);
# `magnitudes` has the leading shape and `plan_ints` that shape plus
# (PLAN_INTS,), holding what the transform's `extra` returned for each image.
TransformFn = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
# extra(image_shape, magnitude, gen) -> up to PLAN_INTS integers, drawn after the magnitude.
ExtraFn = Callable[[tuple[int, int, int], float, np.random.Generator], tuple[int, ...]]
# inverse(magnitudes, image_shape) -> (a, b, c, d, dy, dx), each a scalar or shaped like magnitudes
InverseFn = Callable[[np.ndarray, tuple[int, int, int]], tuple]

PLAN_INTS = 3  # the most integers any transform plans per image: cutout's top, left and side


@dataclass(frozen=True)
class Transform:
    name: str
    lo: float
    hi: float
    fn: TransformFn
    extra: Optional[ExtraFn] = None


def _per_image(values) -> np.ndarray:
    """Per-image values shaped to broadcast against (..., H, W, C) images."""
    return np.asarray(values)[..., None, None, None]


def _stack(params, shape: tuple[int, ...]) -> np.ndarray:
    """An inverse map's (a, b, c, d, dy, dx), each a scalar or of `shape`, as one (6,) + shape array."""
    out = np.empty((6,) + shape)
    for i, v in enumerate(params):
        out[i] = v
    return out


def _warp(imgs: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Nearest-neighbour inverse map with zero fill; `params` is (6,) + the images' leading shape.

    Output pixel (y, x) reads source row rint(a*ys + b*xs + cy) - dy and
    column rint(c*ys + d*xs + cx) - dx, where (ys, xs) = (y - cy, x - cx)
    about the image centre (cy, cx) and (a, b, c, d, dy, dx) = params. A
    shift alone has a = d = 1 and b = c = 0, which reproduce (y, x) exactly
    before the shift.
    """
    h, w, c = imgs.shape[-3:]
    p = params[..., None, None]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys = (np.arange(h) - cy)[:, None]
    xs = np.arange(w) - cx
    centre = np.array([cy, cx]).reshape((2,) + (1,) * (p.ndim - 1))
    # rows and columns in one array, each element computed as in the docstring
    src = (np.rint(p[[0, 2]] * ys + p[[1, 3]] * xs + centre) - p[[4, 5]]).astype(np.int64)
    inside = (src[0].view(np.uint64) < h) & (src[1].view(np.uint64) < w)  # negatives wrap to huge
    n = imgs.size // c
    first = np.arange(0, n, h * w).reshape(imgs.shape[:-3] + (1, 1))  # each image's first pixel
    # pixel n is an appended zero: the fill of every lookup outside the image
    idx = np.where(inside, first + src[0] * w + src[1], n)
    return np.concatenate((imgs.reshape(n, c), np.zeros((1, c))))[idx]


@dataclass(frozen=True)
class Warp:
    """A geometric transform, given by its inverse map; calling it warps the images.

    `apply_chain` reads `inverse` instead, so that one `_warp` serves every
    image of a chain position that picked a geometric transform.
    """

    inverse: InverseFn

    def __call__(self, img, m, plan):
        return _warp(img, _stack(self.inverse(m, img.shape[-3:]), np.shape(m)))


def _translate(imgs: np.ndarray, dy, dx) -> np.ndarray:
    """Shift each image down by dy and right by dx pixels, zero-filling what is uncovered."""
    return _warp(imgs, _stack((1.0, 0.0, 0.0, 1.0, dy, dx), np.broadcast_shapes(np.shape(dy), np.shape(dx))))


def _t_identity(img, m, plan):
    return img


def _rotation(m, shape):
    # math's cos and sin per image: numpy's vector versions may round differently
    a = [math.radians(v) for v in np.ravel(m).tolist()]
    cos = np.reshape([math.cos(v) for v in a], np.shape(m))
    sin = np.reshape([math.sin(v) for v in a], np.shape(m))
    return cos, sin, -sin, cos, 0.0, 0.0


_t_translate_x = Warp(lambda m, shape: (1.0, 0.0, 0.0, 1.0, 0.0, np.rint(m * shape[1])))
_t_translate_y = Warp(lambda m, shape: (1.0, 0.0, 0.0, 1.0, np.rint(m * shape[0]), 0.0))
_t_rotate = Warp(_rotation)
_t_scale = Warp(lambda m, shape: (1.0 / m, 0.0, 0.0, 1.0 / m, 0.0, 0.0))
_t_shear_x = Warp(lambda m, shape: (1.0, 0.0, -m, 1.0, 0.0, 0.0))
_t_shear_y = Warp(lambda m, shape: (1.0, -m, 0.0, 1.0, 0.0, 0.0))


def _t_brightness(img, m, plan):
    return img + _per_image(m)


def _t_contrast(img, m, plan):
    return (img - 0.5) * _per_image(m) + 0.5


def _t_invert(img, m, plan):
    return 1.0 - img


def _cutout_square(shape, m, gen):
    h, w, _ = shape
    side = max(1, int(round(m * min(h, w))))
    top = int(gen.integers(0, h - side + 1))
    left = int(gen.integers(0, w - side + 1))
    return top, left, side


def _t_cutout(img, m, plan):
    h, w, _ = img.shape[-3:]
    top, left, side = (plan[..., i, None, None] for i in range(3))
    # a row is in [top, top + side) when row - top, read unsigned, is below side
    rows = (np.arange(h)[:, None] - top).view(np.uint64) < side
    cols = (np.arange(w) - left).view(np.uint64) < side
    return np.where((rows & cols)[..., None], 0.0, img)


def _running_mean3(x: np.ndarray, axis: int) -> np.ndarray:
    """Zero-padded size-3 running mean along `axis`.

    One running sum over the padded line p, started at p0 + p1 + p2 and
    advanced by p[i+2] - p[i-1]. `cumsum` adds in sequence, so every value
    is bit-identical to a constant-mode size-3 `uniform_filter1d`.
    """
    x = x.swapaxes(axis, 0)
    padded = np.zeros((x.shape[0] + 2,) + x.shape[1:])
    padded[1:-1] = x
    steps = np.empty_like(padded[2:])
    steps[0] = padded[0] + padded[1] + padded[2]
    np.subtract(padded[3:], padded[:-3], out=steps[1:])
    return (np.cumsum(steps, axis=0) / 3.0).swapaxes(0, axis)


def _t_sharpen(img, m, plan):
    # 3 x 3 box blur per channel: along the height, then along the width
    blurred = _running_mean3(_running_mean3(img, -3), -2)
    return img + _per_image(m) * (img - blurred)


def _t_posterize(img, m, plan):
    steps = _per_image(np.maximum(2.0, np.rint(m)) - 1.0)  # levels - 1
    return np.rint(img * steps) / steps


def _t_solarize(img, m, plan):
    return np.where(img >= _per_image(m), 1.0 - img, img)


def default_bag(k: int = 2) -> "AugmentationBag":
    """The standard 14-transform bag with fixed magnitude ranges."""
    return AugmentationBag(
        transforms=(
            Transform("identity", 0.0, 1.0, _t_identity),
            Transform("translate_x", -0.3, 0.3, _t_translate_x),
            Transform("translate_y", -0.3, 0.3, _t_translate_y),
            Transform("rotate", -30.0, 30.0, _t_rotate),
            Transform("scale", 0.7, 1.3, _t_scale),
            Transform("shear_x", -0.3, 0.3, _t_shear_x),
            Transform("shear_y", -0.3, 0.3, _t_shear_y),
            Transform("brightness", -0.3, 0.3, _t_brightness),
            Transform("contrast", 0.5, 1.5, _t_contrast),
            Transform("invert", 0.0, 1.0, _t_invert),
            Transform("cutout", 0.1, 0.4, _t_cutout, _cutout_square),
            Transform("sharpen", 0.2, 1.0, _t_sharpen),
            Transform("posterize", 2.0, 6.0, _t_posterize),
            Transform("solarize", 0.4, 0.9, _t_solarize),
        ),
        k=k,
    )


@dataclass(frozen=True)
class AugmentationBag:
    transforms: tuple[Transform, ...]
    k: int = 2

    def __post_init__(self) -> None:
        if not self.transforms:
            raise InvalidArgumentError("bag needs at least one transform")
        if self.k < 1:
            raise InvalidArgumentError("chain length k must be >= 1")

    def names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.transforms)

    def subset(self, names: list[str]) -> "AugmentationBag":
        by_name = {t.name: t for t in self.transforms}
        missing = [n for n in names if n not in by_name]
        if missing:
            raise InvalidArgumentError(f"unknown transforms {missing}; have {sorted(by_name)}")
        return AugmentationBag(tuple(by_name[n] for n in names), k=self.k)

    def with_ranges(self, ranges: dict[str, tuple[float, float]]) -> "AugmentationBag":
        """Copy of the bag with some transforms' magnitude ranges overridden."""
        by_name = {t.name: t for t in self.transforms}
        unknown = [n for n in ranges if n not in by_name]
        if unknown:
            raise InvalidArgumentError(f"unknown transforms {unknown}; have {sorted(by_name)}")
        out = []
        for t in self.transforms:
            if t.name in ranges:
                lo, hi = ranges[t.name]
                if hi < lo:
                    raise InvalidArgumentError(f"empty magnitude range for {t.name}: ({lo}, {hi})")
                t = dataclasses.replace(t, lo=float(lo), hi=float(hi))
            out.append(t)
        return AugmentationBag(tuple(out), k=self.k)


def apply_chain(images: np.ndarray, bag: AugmentationBag, gen: np.random.Generator) -> np.ndarray:
    """Chain k transforms per image, drawn with replacement, magnitudes from their ranges.

    `images` is one (H, W, C) image or a (B, H, W, C) batch. Image b draws
    from `gen` after images 0..b-1, in the order a single image would: its k
    picks, then per pick the magnitude and any integers the transform's
    `extra` draws. No draw depends on the pixels, so all of them are made
    first into a (B, k) plan; then each chain position is applied to the
    whole batch, one transform at a time over the images that picked it.
    Every image comes out bit for bit as a chain on that image alone would
    leave it.
    """
    if np.ndim(images) not in (3, 4):
        raise InvalidArgumentError(f"expected an (H, W, C) image or a (B, H, W, C) batch, got shape {np.shape(images)}")
    out = np.array(images, dtype=np.float64, ndmin=4)
    b, k = out.shape[0], bag.k
    shape = out.shape[1:]
    transforms = bag.transforms
    n_t = len(transforms)
    draws = [(t.lo, t.hi, t.extra) for t in transforms]
    integers, uniform = gen.integers, gen.uniform
    picks, mags, plan = [], [], np.zeros((b, k, PLAN_INTS), dtype=np.int64)
    for i in range(b):
        # k scalar draws take the same numbers from the stream as one draw of size k
        chain = [integers(0, n_t) for _ in range(k)]
        picks += chain
        for j, p in enumerate(chain):
            lo, hi, extra = draws[p]
            m = uniform(lo, hi)
            mags.append(m)
            if extra is not None:
                drawn = extra(shape, m, gen)
                plan[i, j, : len(drawn)] = drawn
    picks = np.array(picks, dtype=np.int64).reshape(b, k)
    mags = np.array(mags, dtype=np.float64).reshape(b, k)

    # Per chain position, sort the images by transform, warps first: each
    # transform then runs on one slice, and one `_warp` on all warped images.
    is_warp = [isinstance(t.fn, Warp) for t in transforms]
    rank = np.array([p if warp else n_t + p for p, warp in enumerate(is_warp)])
    for j in range(k):
        key = rank[picks[:, j]]
        order = np.argsort(key, kind="stable")
        batch, m, pl = out[order], mags[order, j], plan[order, j]
        params = np.empty((6, b))
        start = warped = 0
        for r, count in enumerate(np.bincount(key, minlength=2 * n_t).tolist()):
            if not count:
                continue
            p, s = r % n_t, slice(start, start + count)
            start += count
            if is_warp[p]:
                params[:, s] = _stack(transforms[p].fn.inverse(m[s], shape), (count,))
                warped = start
            else:
                batch[s] = transforms[p].fn(batch[s], m[s], pl[s])
        if warped:
            batch[:warped] = _warp(batch[:warped], params[:, :warped])
        out[order] = batch
    out = np.clip(out, 0.0, 1.0)
    return out if np.ndim(images) == 4 else out[0]
