"""Independent oracles used to pin expected values in the test suite.

These deliberately avoid the library's own code paths: the RDP oracle uses
mpmath arbitrary-precision quadrature instead of the closed form / vectorized
float64 quadrature, gradients come from central finite differences, and
statistics come from first principles. Keep it that way; a shared code path
would turn the checks into tautologies.

Some oracles are frozen references instead, kept verbatim so the vectorized
code that replaced them can be held to bit-identity:
`integer_log_moment_minus_one` is the accountant's former per-order closed
form, `apply_chain` with its per-image transforms is the former one-image-at-
a-time augmentation (the tests now drive it with a stand-in generator that
answers its picks, magnitudes and cutout corners from the batch's two array
draws), `noise_draws` is the former per-example draw loop of
`diffusion._noise_draws`, `sigmoid` and `sample` are the ancestral
sampler as it was before its step invariants were hoisted and its sigmoid
clamped, `denoising_loss_estimate` is the loss estimate as it was before it
built its noisy inputs and squared errors in place, and `probe_logits` is
the probe's prediction in one product over the whole test set.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.special import gammaln, logsumexp


def sgm_rdp_oracle(q: float, sigma: float, alpha: float, dps: int = 40) -> float:
    """High-precision Renyi divergence of the sub-sampled Gaussian mechanism.

    Direct numerical integration of
    E_{x ~ N(0, sigma^2)}[((1-q) + q p1(x)/p0(x))^alpha]
    with mpmath; gamma = log(A) / (alpha - 1).
    """
    with mp.workdps(dps):
        qm = mp.mpf(q)
        sm = mp.mpf(sigma)
        am = mp.mpf(alpha)
        inv2s2 = 1 / (2 * sm * sm)

        def integrand(x):
            p0 = mp.exp(-x * x * inv2s2) / (sm * mp.sqrt(2 * mp.pi))
            ratio = (1 - qm) + qm * mp.exp((2 * x - 1) * inv2s2)
            return p0 * ratio ** am

        # split at the two integrand modes (x ~ 0 and x ~ alpha)
        a_val = mp.quad(integrand, [-mp.inf, 0, am, mp.inf])
        gamma = mp.log(a_val) / (am - 1)
        return float(gamma)


def integer_log_moment_minus_one(q: float, sigma: float, alpha: int) -> float:
    """log(E_{x~p0}[(mix/p0)^alpha] - 1) at one integer order, one scipy `logsumexp`.

    The binomial expansion sum_{k>=2} C(alpha,k) (1-q)^(alpha-k) q^k
    expm1((k^2 - k) / (2 sigma^2)), exactly as the accountant computed it
    order by order before its kernel was vectorized.
    """
    ks = np.arange(2, alpha + 1, dtype=np.float64)
    exponents = (ks * ks - ks) / (2.0 * sigma * sigma)
    # log(expm1(y)): y for huge y, log(expm1(y)) otherwise
    log_expm1 = np.where(exponents > 690.0, exponents, np.log(np.expm1(np.minimum(exponents, 690.0))))
    log_terms = (
        gammaln(alpha + 1.0)
        - gammaln(ks + 1.0)
        - gammaln(alpha - ks + 1.0)
        + ks * math.log(q)
        + (alpha - ks) * math.log1p(-q)
        + log_expm1
    )
    return float(logsumexp(log_terms))


def rdp_to_dp_oracle(gamma: float, alpha: float, delta: float) -> float:
    """Single-order conversion epsilon = gamma + log(1/delta) / (alpha - 1)."""
    return gamma + math.log(1.0 / delta) / (alpha - 1.0)


def finite_difference_gradient(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        grad[i] = (f(xp) - f(xm)) / (2.0 * step)
    return grad


def binomial_mean_bound(n: int, p: float, trials: int, z: float = 3.0) -> float:
    """z-sigma band half-width for the mean of `trials` Binomial(n, p) draws."""
    return z * math.sqrt(n * p * (1.0 - p) / trials)


def clt_mean_bound(std: float, n: int, z: float = 3.0) -> float:
    """z-sigma band half-width for an empirical mean of n i.i.d. draws."""
    return z * std / math.sqrt(n)


def clt_variance_bound(var: float, n: int, z: float = 3.0) -> float:
    """z-sigma band half-width for an empirical variance of n Gaussian draws.

    Var of the sample variance of N(mu, var) is 2 var^2 / (n - 1).
    """
    return z * var * math.sqrt(2.0 / (n - 1.0))


def frechet_diagonal_oracle(mu1, var1, mu2, var2) -> float:
    """Closed-form Frechet distance between diagonal Gaussians.

    ||mu1 - mu2||^2 + sum_i (sqrt(var1_i) - sqrt(var2_i))^2.
    """
    mu1, var1 = np.asarray(mu1, float), np.asarray(var1, float)
    mu2, var2 = np.asarray(mu2, float), np.asarray(var2, float)
    return float(
        np.sum((mu1 - mu2) ** 2) + np.sum((np.sqrt(var1) - np.sqrt(var2)) ** 2)
    )


# --- frozen per-image augmentation ------------------------------------------


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
    padded = np.zeros((x.shape[0] + 2,) + x.shape[1:])
    padded[1:-1] = x
    steps = np.empty_like(x)
    steps[0] = padded[0] + padded[1] + padded[2]
    np.subtract(padded[3:], padded[:-3], out=steps[1:])
    return np.cumsum(steps, axis=0) / 3.0


def _t_sharpen(img, m, gen):
    blurred = _running_mean3(_running_mean3(img).swapaxes(0, 1)).swapaxes(0, 1)
    return img + m * (img - blurred)


def _t_posterize(img, m, gen):
    levels = max(2, int(round(m)))
    return np.rint(img * (levels - 1)) / (levels - 1)


def _t_solarize(img, m, gen):
    return np.where(img >= m, 1.0 - img, img)


PER_IMAGE_TRANSFORMS = {
    "identity": _t_identity,
    "translate_x": _t_translate_x,
    "translate_y": _t_translate_y,
    "rotate": _t_rotate,
    "scale": _t_scale,
    "shear_x": _t_shear_x,
    "shear_y": _t_shear_y,
    "brightness": _t_brightness,
    "contrast": _t_contrast,
    "invert": _t_invert,
    "cutout": _t_cutout,
    "sharpen": _t_sharpen,
    "posterize": _t_posterize,
    "solarize": _t_solarize,
}


def apply_chain(img3d: np.ndarray, bag, gen: np.random.Generator) -> np.ndarray:
    """One (H, W, C) image's chain: the bag's names and ranges, the per-image transforms above."""
    out = img3d
    picks = gen.integers(0, len(bag.transforms), size=bag.k)
    for i in picks:
        t = bag.transforms[i]
        magnitude = float(gen.uniform(t.lo, t.hi))
        out = PER_IMAGE_TRANSFORMS[t.name](out, magnitude, gen)
    return np.clip(out, 0.0, 1.0)


def apply_chain_batch(images: np.ndarray, bag, gen: np.random.Generator) -> np.ndarray:
    """A (B, H, W, C) batch through `apply_chain`, one image after the other."""
    return np.stack([apply_chain(img, bag, gen) for img in images]) if len(images) else np.array(images, float)


# --- frozen per-example noise draws -----------------------------------------


def noise_draws(data_dim: int, num_steps: int, rng, n: int, k: int, example_ids):
    """(timesteps (n, k), noise (n, k, D)): the per-example loop, one array call each."""
    T = num_steps
    if example_ids is None:
        gen = rng.generator()
        return gen.integers(1, T + 1, size=(n, k)), gen.standard_normal((n, k, data_dim))
    ids = list(example_ids)
    ts = np.empty((n, k), dtype=np.int64)
    es = np.empty((n, k, data_dim))
    gen = None
    for i, ex in enumerate(ids):
        gen = rng.derive(int(ex)).generator(into=gen)
        ts[i] = gen.integers(1, T + 1, size=k)
        es[i] = gen.standard_normal((k, data_dim))
    return ts, es


# --- frozen ancestral sampler ------------------------------------------------


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The unclamped logistic: exp(-x) underflows to 0 above 745 and overflows below -709."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _time_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64).reshape(-1, 1)
    half = dim // 2
    freqs = np.exp(-math.log(10_000.0) * np.arange(half) / half)[None, :]
    ang = t * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def _denoise(blocks: dict, manifest, x: np.ndarray, t: int, lab: np.ndarray) -> np.ndarray:
    """One step's forward: each chain's time and label embedding rebuilt from scratch."""
    z0 = np.concatenate([x, _time_embedding(np.full(len(x), t), manifest.time_dim), blocks["emb"][lab]], axis=1)
    a1 = z0 @ blocks["W1"].T + blocks["b1"]
    h1 = a1 * sigmoid(a1)
    a2 = h1 @ blocks["W2"].T + blocks["b2"]
    h2 = a2 * sigmoid(a2)
    return h2 @ blocks["W3"].T + blocks["b3"]


def sample(params, schedule, n: int, rng, labels=None) -> np.ndarray:
    """Ancestral sampling, one noise vector per chain per step from the chain's stream rng.derive(i)."""
    m = params.manifest
    if n == 0:
        return np.zeros((0, m.data_dim))
    blocks, offset = {}, 0
    for name, shape in m.block_shapes().items():
        size = int(np.prod(shape))
        blocks[name] = params.vector[offset : offset + size].reshape(shape)
        offset += size
    if labels is None:
        lab = np.full(n, m.unconditional_label, dtype=np.int64)
    elif np.isscalar(labels):
        lab = np.full(n, int(labels), dtype=np.int64)
    else:
        lab = np.asarray(labels, dtype=np.int64)
    T = schedule.num_steps
    abars = np.cumprod(1.0 - np.asarray(schedule.betas, dtype=np.float64))
    gens = [rng.derive(i).generator() for i in range(n)]
    x = np.stack([gen.standard_normal(m.data_dim) for gen in gens])  # x_T
    x0_hat = x
    for t in range(T, 0, -1):
        out = _denoise(blocks, m, x, t, lab)
        ab_t = abars[t - 1]
        x0_hat = (x - math.sqrt(1.0 - ab_t) * out) / math.sqrt(ab_t)
        if t > 1:
            ab_prev = abars[t - 2]
            e = np.stack([gen.standard_normal(m.data_dim) for gen in gens])
            x = math.sqrt(ab_prev) * x0_hat + math.sqrt(1.0 - ab_prev) * e
    return np.clip(x0_hat, 0.0, 1.0)


def denoising_loss_estimate(params, schedule, pixels, labels, rng, draws: int, chunk: int = 1000) -> float:
    """Mean squared noise-prediction error over `draws` (example, step, noise) triples, `chunk` at a time."""
    m = params.manifest
    blocks, offset = {}, 0
    for name, shape in m.block_shapes().items():
        size = int(np.prod(shape))
        blocks[name] = params.vector[offset : offset + size].reshape(shape)
        offset += size
    abars = np.cumprod(1.0 - np.asarray(schedule.betas, dtype=np.float64))
    gen = rng.generator()
    total = 0.0
    for start in range(0, draws, chunk):
        b = min(chunk, draws - start)
        ex = gen.integers(0, len(pixels), size=b)
        ts = gen.integers(1, schedule.num_steps + 1, size=b)
        es = gen.standard_normal((b, pixels.shape[1]))
        ab = abars[ts - 1][:, None]
        x_t = np.sqrt(ab) * pixels[ex] + np.sqrt(1.0 - ab) * es
        out = _denoise(blocks, m, x_t, ts, labels[ex])
        total += float(np.sum((out - es) ** 2))
    return total / draws


def probe_logits(pixels: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The probe's test logits: the bias column appended to the whole set, one product."""
    return np.hstack([pixels, np.ones((len(pixels), 1))]) @ w


# --- frozen toy glyph generator ----------------------------------------------


def toy_glyph_pixels(n_per_class: int, num_classes: int, shape, rng) -> np.ndarray:
    """The (N, H*W*C) glyph pixels, built one image after the other from the class templates."""
    from dpsynth.data_io import _glyph_canvas

    h, w, c = shape
    gen = rng.generator()
    pixels = np.empty((num_classes * n_per_class, h * w * c))
    for cls in range(num_classes):
        src = _glyph_canvas(cls, h, w)
        for j in range(n_per_class):
            dy, dx = gen.integers(-1, 2, size=2)
            base = np.zeros((h, w))
            ys = slice(max(dy, 0), min(h + dy, h))
            xs = slice(max(dx, 0), min(w + dx, w))
            base[ys, xs] = src[max(-dy, 0) : min(h - dy, h), max(-dx, 0) : min(w - dx, w)]
            intensity = gen.uniform(0.7, 1.0)
            pixels[cls * n_per_class + j] = np.repeat((base * intensity)[:, :, None], c, axis=2).reshape(-1)
    return pixels
