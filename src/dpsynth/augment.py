"""Augmentation bag applied to central images during warm-up.

A bag holds named parameterized transforms; each application samples k of
them with replacement, draws a magnitude per transform from its declared
range, and applies them in order. Every transform maps [0,1] images to [0,1]
images of the same shape. Geometric transforms use inverse-mapped nearest
neighbor lookups with zero fill: deterministic and interpolation free.

Augmentation is post-processing of already-privatized images, so nothing in
this module touches the privacy ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import InvalidArgumentError

TransformFn = Callable[[np.ndarray, float, np.random.Generator], np.ndarray]


@dataclass(frozen=True)
class Transform:
    name: str
    lo: float
    hi: float
    fn: TransformFn


def _affine_nearest(img: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Inverse-map each output pixel through `matrix` about the image center."""
    h, w, _ = img.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rows, cols = np.mgrid[0:h, 0:w]
    ys = rows - cy
    xs = cols - cx
    src_y = matrix[0, 0] * ys + matrix[0, 1] * xs
    src_x = matrix[1, 0] * ys + matrix[1, 1] * xs
    sr = np.rint(src_y + cy).astype(np.int64)
    sc = np.rint(src_x + cx).astype(np.int64)
    valid = (sr >= 0) & (sr < h) & (sc >= 0) & (sc < w)
    out = np.zeros_like(img)
    out[valid] = img[sr[valid], sc[valid]]
    return out


def _translate(img: np.ndarray, dy: int, dx: int) -> np.ndarray:
    out = np.zeros_like(img)
    h, w, _ = img.shape
    ys = slice(max(dy, 0), min(h + dy, h))
    xs = slice(max(dx, 0), min(w + dx, w))
    ys_src = slice(max(-dy, 0), min(h - dy, h))
    xs_src = slice(max(-dx, 0), min(w - dx, w))
    out[ys, xs] = img[ys_src, xs_src]
    return out


def _t_identity(img, m, gen):
    return img


def _t_translate_x(img, m, gen):
    return _translate(img, 0, int(round(m * img.shape[1])))


def _t_translate_y(img, m, gen):
    return _translate(img, int(round(m * img.shape[0])), 0)


def _t_rotate(img, m, gen):
    a = math.radians(m)
    inv = np.array([[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]])
    return _affine_nearest(img, inv)


def _t_scale(img, m, gen):
    inv = np.array([[1.0 / m, 0.0], [0.0, 1.0 / m]])
    return _affine_nearest(img, inv)


def _t_shear_x(img, m, gen):
    inv = np.array([[1.0, 0.0], [-m, 1.0]])
    return _affine_nearest(img, inv)


def _t_shear_y(img, m, gen):
    inv = np.array([[1.0, -m], [0.0, 1.0]])
    return _affine_nearest(img, inv)


def _t_brightness(img, m, gen):
    return img + m


def _t_contrast(img, m, gen):
    return (img - 0.5) * m + 0.5


def _t_invert(img, m, gen):
    return 1.0 - img


def _t_cutout(img, m, gen):
    h, w, _ = img.shape
    side = max(1, int(round(m * min(h, w))))
    top = int(gen.integers(0, h - side + 1))
    left = int(gen.integers(0, w - side + 1))
    out = img.copy()
    out[top : top + side, left : left + side, :] = 0.0
    return out


def _running_mean3(x: np.ndarray) -> np.ndarray:
    """Zero-padded size-3 running mean along axis 0.

    One running sum over the padded line p, started at p0 + p1 + p2 and
    advanced by p[i+2] - p[i-1]. `cumsum` adds in sequence, so every value
    is bit-identical to a constant-mode size-3 `uniform_filter1d`.
    """
    padded = np.zeros((x.shape[0] + 2,) + x.shape[1:])
    padded[1:-1] = x
    steps = np.empty_like(x)
    steps[0] = padded[0] + padded[1] + padded[2]
    np.subtract(padded[3:], padded[:-3], out=steps[1:])
    return np.cumsum(steps, axis=0) / 3.0


def _t_sharpen(img, m, gen):
    # 3 x 3 box blur per channel: along the height, then along the width
    blurred = _running_mean3(_running_mean3(img).swapaxes(0, 1)).swapaxes(0, 1)
    return img + m * (img - blurred)


def _t_posterize(img, m, gen):
    levels = max(2, int(round(m)))
    return np.rint(img * (levels - 1)) / (levels - 1)


def _t_solarize(img, m, gen):
    return np.where(img >= m, 1.0 - img, img)


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
            Transform("cutout", 0.1, 0.4, _t_cutout),
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
                t = Transform(t.name, float(lo), float(hi), t.fn)
            out.append(t)
        return AugmentationBag(tuple(out), k=self.k)


def apply_chain(img3d: np.ndarray, bag: AugmentationBag, gen: np.random.Generator) -> np.ndarray:
    """Chain k transforms drawn with replacement, magnitudes from their ranges."""
    out = img3d
    picks = gen.integers(0, len(bag.transforms), size=bag.k)
    for i in picks:
        t = bag.transforms[i]
        magnitude = float(gen.uniform(t.lo, t.hi))
        out = t.fn(out, magnitude, gen)
    return np.clip(out, 0.0, 1.0)

