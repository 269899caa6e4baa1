"""Renyi-DP privacy ledger for the sub-sampled Gaussian mechanism.

Computes the order-alpha Renyi divergence of the Poisson-sub-sampled Gaussian
mechanism in the add/remove-one adjacency direction,
``D_alpha((1-q) N(0, s^2) + q N(1, s^2) || N(0, s^2))``,
composes mechanism events into a cumulative curve, converts the curve to
(epsilon, delta), and calibrates the fine-tuning noise scale against a target
budget. All evaluation happens in the log domain: curves routinely mix gamma
values across twenty orders of magnitude.

Integer orders use the exact binomial expansion of the divergence moment
(Mironov, Talwar & Zhang, arXiv:1908.10530), every order of a grid in one
vectorized numpy pass whose log-sum-exp and log-factorials are our own code,
so the ledger's last bits do not depend on a scipy release; fractional orders use
adaptive composite Gauss-Legendre quadrature over the real line, refined by
node doubling until successive estimates agree. Both paths are cross-checked
against each other and against an independent high-precision oracle in the
test suite. Curves are cached per (q, sigma, orders) as read-only float64
arrays.

Epsilon is a minimum over the orders, and the composed curve never
decreases with the order, so the curve at an integer order bounds every
fractional order above it. Calibration and the CLI's total therefore price
every integer order in closed form but a fractional order only where that
bound can reach the integer minimum (`_FineTuneEpsilon`); the result is
`rdp_to_dp(compose(...))` bit for bit, because each priced order is
computed on the full grid's quadrature nodes.

The quadrature's exponentials go through `_exp`, which skips the lanes
whose result is exactly 0.0: numpy's exp is slow on arguments that
underflow, and the Gaussian tails are full of them. The result stays
`np.exp` bit for bit because numpy's exp gives each lane the same bits
whatever its neighbours are, and because NaN lanes still reach exp.

Two shortcuts keep every bit too. `_order_sums` adds all orders' terms at
once in the order of numpy's pairwise `.sum()` of each order's slice. The
quadrature decides its all-small branch from scalar bounds on every lane
(rounding is monotone), then runs that branch's ufuncs on its operands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .core import BudgetExhaustedError, InvalidArgumentError, NumericError, json_number

EVENT_KINDS = ("mean_query", "mode_query", "dpsgd_step")

SIGMA_SEARCH_RANGE = (1e-2, 1e3)
SIGMA_SEARCH_REL_TOL = 1e-4
QUADRATURE_ABS_TOL = 1e-12

# A fractional order is priced only if a lower bound on its epsilon is within
# this relative margin of the integer orders' minimum; the margin sits far
# above the quadrature's tolerance, so an order left out cannot hold or tie
# the minimum.
_PRUNE_MARGIN = 1e-6

# Above this log-moment peak the integrand is evaluated shifted by the peak;
# below it, the expm1 form preserves full relative precision of A - 1.
_SHIFT_CUT = 50.0

# exp(x) is exactly 0.0 at and below this cut: log(2**-1075), where float64
# rounds to zero, is about -745.13.
_EXP_ZERO_CUT = -746.0


def default_orders() -> tuple[float, ...]:
    """Integer orders 2..64 plus a fractional grid {1.25, 1.5, 1.75, 2.5, ..., 127.5}."""
    orders = {1.25, 1.5, 1.75}
    orders.update(float(a) for a in range(2, 65))
    orders.update(2.5 + k for k in range(126))  # 2.5, 3.5, ..., 127.5
    return tuple(sorted(orders))


def _validate_sgm_args(q: float, sigma: float, alpha: float) -> None:
    if not (0.0 < q <= 1.0):
        raise InvalidArgumentError(f"sampling rate must be in (0, 1], got {q}")
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise InvalidArgumentError(f"noise scale must be positive and finite, got {sigma}")
    if not (alpha > 1.0 and math.isfinite(alpha)):
        raise InvalidArgumentError(f"order must be finite and exceed 1, got {alpha}")


def _log1p_exp(x: float) -> float:
    """log(1 + exp(x)), stable for both signs of x."""
    if x <= 0.0:
        return math.log1p(math.exp(x))
    return x + math.log1p(math.exp(-x))


# Cephes `lgam`: Stirling-series coefficients, highest power first.
_LGAM_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LOG_SQRT_2PI = 0.91893853320467274178


def _lgam_positive_int(x: float) -> float:
    """log Gamma(x) for an integer-valued x >= 1, step for step as Cephes `lgam`.

    Below 13 it is the log of the exact falling product (x-1)(x-2)...2; from
    13 it is the Stirling series, with Cephes' branches at x >= 1000 and
    x > 1e8. The tests hold it bit-equal to the Cephes-based `gammaln` on
    every integer up to 200,000.
    """
    if x < 13.0:
        z = 1.0
        u = x - 1.0
        while u >= 2.0:
            z *= u
            u -= 1.0
        return math.log(z)
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        poly = (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333
        return q + poly / x
    poly = 0.0
    for c in _LGAM_STIRLING:
        poly = poly * p + c
    return q + poly / x


@lru_cache(maxsize=16)
def _binomial_layout(alphas: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Flat layout of every (alpha, k) term, k = 2..alpha, order after order.

    Returns each order's slice bounds, k, alpha - k, the index of k into a
    2..max(alphas) vector, and log C(alpha, k).
    """
    lengths = np.array([a - 1 for a in alphas], dtype=np.int64)
    bounds = np.concatenate(([0], np.cumsum(lengths)))
    a = np.repeat(np.array(alphas, dtype=np.int64), lengths)
    k = np.concatenate([np.arange(2, n + 1, dtype=np.int64) for n in alphas])
    # log n! = log Gamma(n + 1), evaluated once per n = 0..max(alphas)
    log_fact = np.array([_lgam_positive_int(n + 1.0) for n in range(max(alphas) + 1)])
    log_binom = log_fact[a] - log_fact[k] - log_fact[a - k]
    return bounds, k.astype(np.float64), (a - k).astype(np.float64), k - 2, log_binom


@lru_cache(maxsize=16)
def _pairwise_gather(alphas: tuple[int, ...]) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Indices that replay numpy's pairwise `.sum()` of every order's terms at once.

    On n <= 128 terms numpy adds 8 running sums over the whole blocks of 8
    as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest one at a time.
    Returns block b's (blocks, 8, orders) and rest term t's (7, orders)
    indices into the terms plus one 0.0 that pads shorter orders (x + 0.0
    is x for the non-negative terms here); None above 128 terms.
    """
    bounds = _binomial_layout(alphas)[0]
    start, n = bounds[:-1], np.diff(bounds)
    if n.max() > 128:
        return None
    whole, pad = n // 8, bounds[-1]
    b, j, t = np.arange(max(1, whole.max()))[:, None, None], np.arange(8)[:, None], np.arange(7)[:, None]
    return np.where(b < whole, start + 8 * b + j, pad), np.where(t < n - 8 * whole, start + 8 * whole + t, pad)


def _order_sums(terms: np.ndarray, alphas: tuple[int, ...]) -> np.ndarray:
    """Each order's `terms[b0:b1].sum()`, bit for bit, in a few array passes."""
    gather = _pairwise_gather(alphas)
    if gather is None:
        bounds = _binomial_layout(alphas)[0]
        return np.array([terms[b0:b1].sum() for b0, b1 in zip(bounds[:-1], bounds[1:])])
    blocks, rest = gather
    padded = np.append(terms, 0.0)
    parts = padded[blocks]
    r = parts[0]
    for block in parts[1:]:
        r += block
    s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for term in padded[rest]:
        s += term
    return s


def _integer_log_moments_minus_one(q: float, sigma: float, alphas: tuple[int, ...]) -> np.ndarray:
    """log(E_{x~p0}[(mix/p0)^alpha] - 1) at integer orders via the exact binomial expansion.

    E[(mix/p0)^alpha] = sum_k C(alpha,k) (1-q)^(alpha-k) q^k
    exp((k^2 - k) / (2 sigma^2)); subtracting the plain binomial identity
    kills the k = 0, 1 terms and leaves a cancellation-free positive sum,
    so tiny divergences keep full relative precision.

    All orders share one flat array of terms. Each order's log-sum-exp
    repeats scipy 1.17.1's `logsumexp` arithmetic step for step, and its sum
    adds in the order of numpy's `.sum()` of its own slice (`_order_sums`),
    so every value is bit-identical to a per-order `logsumexp` call (a
    segmented `np.add.reduceat` adds in another order).
    """
    bounds, k, a_minus_k, k_ix, log_binom = _binomial_layout(alphas)
    ks = np.arange(2, max(alphas) + 1, dtype=np.float64)
    exponents = (ks * ks - ks) / (2.0 * sigma * sigma)
    with np.errstate(divide="ignore", invalid="ignore"):
        # log(expm1(y)): y for huge y, log(expm1(y)) otherwise
        log_expm1 = np.where(exponents > 690.0, exponents, np.log(np.expm1(np.minimum(exponents, 690.0))))
        terms = log_binom + k * math.log(q) + a_minus_k * math.log1p(-q) + log_expm1[k_ix]
        # Split each order's maxima off the sum: log1p(sum / count) + log(count) + max.
        peak = np.maximum.reduceat(terms, bounds[:-1])
        peak_flat = np.repeat(peak, np.diff(bounds))
        is_max = terms == peak_flat
        count = np.add.reduceat(is_max.astype(np.float64), bounds[:-1])
        shifted = np.exp(np.where(is_max, -np.inf, terms) - peak_flat)
        s = _order_sums(shifted, alphas)
        s = np.where(s == 0, s, s / count)
        out = np.log1p(s) + np.log(count) + peak
        for i in np.flatnonzero(~np.isfinite(out)):  # direct sum where the shifted one fails
            out[i] = np.log(np.sum(np.exp(terms[bounds[i] : bounds[i + 1]])))
    return out


def _exp(x: np.ndarray) -> np.ndarray:
    """np.exp(x) bit for bit, without handing exp the lanes it would round to 0.0.

    numpy's exp takes a slow path on arguments whose result underflows; in the
    quadrature's Gaussian tails that is up to half of the lanes. Lanes at or
    below the cut are written as 0.0 directly. Subnormal results still come
    from exp, and NaN still reaches it (the mask is ~(x <= cut), not x > cut).
    """
    return np.exp(x, out=np.zeros_like(x), where=~(x <= _EXP_ZERO_CUT))


@lru_cache(maxsize=64)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _log_mix_ratio(u: np.ndarray, q: float, sigma: float) -> np.ndarray:
    """log((1-q) + q * p1(x)/p0(x)) at standardized x = sigma * u."""
    shift = u / sigma - 1.0 / (2.0 * sigma * sigma)
    return np.logaddexp(math.log1p(-q), math.log(q) + shift)


def _fractional_log_moments(
    q: float, sigma: float, alphas: np.ndarray, span: Optional[float] = None
) -> np.ndarray:
    """log moments for an array of (fractional) orders by adaptive quadrature.

    A single standardized node set covers all orders: the integrand for order
    alpha has its mass inside [-14, span/sigma + 14], where `span` (the
    largest of `alphas` if not given) is at least every order priced. Node
    density doubles until every order's estimate is stable to
    QUADRATURE_ABS_TOL (relative on the moment), which for this analytic
    integrand happens at the first check. Each order is then priced alone on
    the node set, so a subset of a grid priced with the grid's span gets the
    grid's bits.
    """
    u_hi = float(np.max(alphas) if span is None else span) / sigma + 14.0
    u_lo = -14.0
    panels = max(64, int((u_hi - u_lo) * 2.0))
    nodes16, weights16 = _gl_nodes(16)

    prev: Optional[np.ndarray] = None
    for _ in range(8):
        edges = np.linspace(u_lo, u_hi, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        u = (mid[:, None] + half[:, None] * nodes16[None, :]).reshape(-1)
        w = (half[:, None] * weights16[None, :]).reshape(-1)

        log_phi = -0.5 * u * u - 0.5 * math.log(2.0 * math.pi)
        phi = _exp(log_phi)
        logmix = _log_mix_ratio(u, q, sigma)
        # Rounding is monotone and alpha > 0, so alpha * mix_max bounds every
        # lane of ratio and phi_max + alpha * mix_max every lane of log_f (a
        # NaN bound fails both tests).
        mix_max, phi_max = float(logmix.max()), float(log_phi.max())
        buf = np.empty_like(logmix)

        log_a = np.empty(len(alphas), dtype=np.float64)
        for i, alpha in enumerate(alphas):
            bound = alpha * mix_max
            if bound <= 30.0 and phi_max + bound < _SHIFT_CUT:
                # certainly the all-small branch below, on the same operands
                np.multiply(logmix, alpha, out=buf)
                np.multiply(phi, np.expm1(buf, out=buf), out=buf)
                log_a[i] = math.log1p(float(np.dot(w, buf)))
                continue
            ratio = alpha * logmix
            log_f = log_phi + ratio
            peak = float(log_f.max())
            if peak < _SHIFT_CUT:
                # exact-precision path for small divergences: integrate A - 1,
                # as phi * expm1(ratio) where that cannot overflow
                small = ratio <= 30.0
                if small.all():
                    term = phi * np.expm1(ratio)
                else:
                    term = np.empty_like(ratio)
                    term[small] = phi[small] * np.expm1(ratio[small])
                    large = ~small
                    term[large] = _exp(log_f[large]) - phi[large]
                a_minus_1 = float(np.dot(w, term))
                log_a[i] = math.log1p(a_minus_1)
            else:
                integral = float(np.dot(w, _exp(log_f - peak)))
                if integral <= 0.0:
                    raise NumericError(
                        f"quadrature produced a non-positive moment for q={q}, "
                        f"sigma={sigma}, alpha={alpha}"
                    )
                log_a[i] = peak + math.log(integral)

        if prev is not None:
            scale = np.maximum(1.0, np.abs(log_a))
            if np.all(np.abs(log_a - prev) <= QUADRATURE_ABS_TOL * scale):
                return log_a
        prev = log_a
        panels *= 2
    raise NumericError(
        f"quadrature failed to converge for q={q}, sigma={sigma} "
        f"(final panel count {panels // 2}, orders {alphas.tolist()})"
    )


def _sgm_rdp_integer(q: float, sigma: float, alpha: int) -> float:
    """gamma at one integer order by the closed form."""
    return _log1p_exp(float(_integer_log_moments_minus_one(q, sigma, (alpha,))[0])) / (alpha - 1.0)


def sgm_rdp(q: float, sigma: float, alpha: float) -> float:
    """RDP cost gamma (nats) of one sub-sampled Gaussian release at one order."""
    return float(sgm_rdp_curve(float(q), float(sigma), (float(alpha),))[0])


@lru_cache(maxsize=16)
def _split_orders(orders: tuple[float, ...]) -> tuple[np.ndarray, tuple[int, ...], np.ndarray, np.ndarray]:
    """(positions, values) of the integer orders, then of the fractional ones."""
    is_int = np.array([float(a).is_integer() for a in orders], dtype=bool)
    grid = np.array(orders, dtype=np.float64)
    int_ix, frac_ix = np.flatnonzero(is_int), np.flatnonzero(~is_int)
    return int_ix, tuple(int(a) for a in grid[int_ix]), frac_ix, grid[frac_ix]


@lru_cache(maxsize=256)  # one `account` call uses at most a few dozen curves, and no hit crosses calls
def sgm_rdp_curve(q: float, sigma: float, orders: tuple[float, ...]) -> np.ndarray:
    """gamma(alpha) over a full order grid; the workhorse behind compose().

    q = 1 reduces to the analytic Gaussian divergence alpha / (2 sigma^2).
    Integer orders take the closed-form binomial path in one vectorized
    pass; fractional orders are evaluated in one vectorized adaptive
    quadrature pass, which keeps repeated calibration calls cheap. The
    cached result is a read-only float64 array shared by every caller.
    """
    q, sigma = float(q), float(sigma)
    for a in orders:
        _validate_sgm_args(q, sigma, a)
    gammas = np.empty(len(orders), dtype=np.float64)
    if q == 1.0:
        gammas[:] = [a / (2.0 * sigma * sigma) for a in orders]
    else:
        int_ix, int_alphas, frac_ix, frac_alphas = _split_orders(orders)
        if int_alphas:
            log_am1 = _integer_log_moments_minus_one(q, sigma, int_alphas)
            gammas[int_ix] = [_log1p_exp(float(x)) / (a - 1.0) for a, x in zip(int_alphas, log_am1)]
        if len(frac_alphas):
            g = _fractional_log_moments(q, sigma, frac_alphas) / (frac_alphas - 1.0)
            gammas[frac_ix] = np.where(g > 0.0, g, 0.0)  # max(0.0, g), NaN included
    gammas.flags.writeable = False
    return gammas


@lru_cache(maxsize=64)  # enough for a few calibrations replayed in turn
def _fractional_gammas(q: float, sigma: float, alphas: tuple[float, ...], span: float) -> np.ndarray:
    """gamma at fractional orders `alphas`, bit for bit as sgm_rdp_curve gives them
    on a grid whose largest fractional order is `span`."""
    if q == 1.0:
        return sgm_rdp_curve(q, sigma, alphas)  # analytic, no quadrature
    for a in alphas:
        _validate_sgm_args(q, sigma, a)
    frac = np.array(alphas, dtype=np.float64)
    g = _fractional_log_moments(q, sigma, frac, span) / (frac - 1.0)
    gammas = np.where(g > 0.0, g, 0.0)  # max(0.0, g), NaN included
    gammas.flags.writeable = False
    return gammas


@dataclass(frozen=True)
class RdpCurve:
    """Cumulative RDP ledger: gamma(alpha) over a fixed grid of orders."""

    orders: tuple[float, ...]
    gammas: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.orders) != len(self.gammas):
            raise InvalidArgumentError("orders and gammas must have equal length")
        prev = 1.0
        for a in self.orders:
            if a <= prev:
                raise InvalidArgumentError("orders must be strictly increasing and > 1")
            prev = a
        for g in self.gammas:
            if not (g >= 0.0 and math.isfinite(g)):
                raise InvalidArgumentError(f"gamma values must be finite and non-negative, got {g}")

    @classmethod
    def zero(cls, orders: Sequence[float]) -> "RdpCurve":
        return cls(tuple(orders), tuple(0.0 for _ in orders))

    def scaled(self, k: float) -> "RdpCurve":
        return RdpCurve(self.orders, tuple(k * g for g in self.gammas))

    def __add__(self, other: "RdpCurve") -> "RdpCurve":
        if self.orders != other.orders:
            raise InvalidArgumentError("cannot add curves over different order grids")
        return RdpCurve(self.orders, tuple(a + b for a, b in zip(self.gammas, other.gammas)))


@dataclass(frozen=True)
class MechanismEvent:
    """One charged mechanism: kind, sampling rate, noise scale, repetitions.

    `partition` optionally names the disjoint data subset the mechanism ran
    on; events on distinct partitions compose in parallel (max) rather than
    sequentially (sum).
    """

    kind: str
    q: float
    sigma: float
    repetitions: int = 1
    partition: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise InvalidArgumentError(f"unknown mechanism kind {self.kind!r}")
        if not (0.0 < self.q <= 1.0):
            raise InvalidArgumentError(f"sampling rate must be in (0, 1], got {self.q}")
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise InvalidArgumentError(f"noise scale must be positive and finite, got {self.sigma}")
        if self.repetitions < 1:
            raise InvalidArgumentError("repetitions must be >= 1")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "q": self.q,
            "sigma": self.sigma,
            "repetitions": self.repetitions,
            "partition": self.partition,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MechanismEvent":
        """The event a JSON object describes; a value of the wrong JSON type is refused, never coerced."""
        q, sigma = json_number(d["q"], "event q"), json_number(d["sigma"], "event sigma")
        repetitions, partition = d.get("repetitions", 1), d.get("partition")
        if isinstance(repetitions, bool) or not isinstance(repetitions, int):
            raise InvalidArgumentError(f"event repetitions must be an integer, got {repetitions!r}")
        if partition is not None and not isinstance(partition, str):
            raise InvalidArgumentError(f"event partition must be a string or null, got {partition!r}")
        return cls(d["kind"], q, sigma, repetitions, partition)


def compose(events: Sequence[MechanismEvent], orders: Sequence[float] | None = None) -> RdpCurve:
    """Cumulative RDP curve of a list of mechanism events.

    Unpartitioned events add linearly (sequential composition, repetitions
    multiply). Events carrying a partition label are grouped by label, summed
    within a label, and contribute the maximum across labels (parallel
    composition over disjoint subsets). An empty event list yields the zero
    curve.
    """
    orders = tuple(orders) if orders is not None else default_orders()
    total = np.zeros(len(orders), dtype=np.float64)
    partitioned: dict[str, np.ndarray] = {}
    for ev in events:
        curve = ev.repetitions * sgm_rdp_curve(ev.q, ev.sigma, orders)
        if ev.partition is None:
            total += curve
        elif ev.partition in partitioned:
            partitioned[ev.partition] += curve
        else:
            partitioned[ev.partition] = curve
    if partitioned:
        total += np.max(np.stack(list(partitioned.values())), axis=0)
    return RdpCurve(orders, tuple(float(g) for g in total))


def rdp_to_dp(curve: RdpCurve, delta: float) -> tuple[float, float]:
    """Tightest (epsilon, minimizing order) conversion of an RDP curve.

    epsilon = min over stored orders of gamma(alpha) + log(1/delta)/(alpha-1).
    """
    if not (0.0 < delta < 1.0):
        raise InvalidArgumentError(f"delta must be in (0, 1), got {delta}")
    if not curve.orders:
        raise InvalidArgumentError("cannot convert an empty curve")
    log_inv_delta = math.log(1.0 / delta)
    best_eps = math.inf
    best_alpha = curve.orders[0]
    for a, g in zip(curve.orders, curve.gammas):
        eps = g + log_inv_delta / (a - 1.0)
        if eps < best_eps:
            best_eps = eps
            best_alpha = a
    return best_eps, best_alpha


@lru_cache(maxsize=16)
def _pruning_layout(orders: tuple[float, ...]) -> tuple:
    """The integer orders (positions, values), the fractional ones (positions, values),
    the quadrature span, each fractional order's largest integer order below
    (its position, and whether there is one), and the grid as an array."""
    int_ix, int_alphas, frac_ix, frac_alphas = _split_orders(orders)
    int_orders = tuple(orders[i] for i in int_ix)
    span = float(frac_alphas.max()) if len(frac_alphas) else 0.0
    below = np.searchsorted(np.array(int_alphas, dtype=np.float64), frac_alphas) - 1
    grid = np.array(orders, dtype=np.float64)
    return int_ix, int_orders, frac_ix, frac_alphas, span, np.maximum(below, 0), below >= 0, grid


class _FineTuneEpsilon:
    """sigma -> rdp_to_dp of the curve (before + steps * gamma) + after, bit for bit.

    `before` and `after` (None: nothing) are curves over `orders`; gamma is
    the curve of one release at rate `q` and noise scale sigma. The sums are
    compose()'s, per order and in its order. Integer orders take the closed
    form. The composed curve never decreases with the order (Renyi
    divergence is monotone in alpha, and sums and maxima keep that), so at a
    fractional alpha epsilon is at least the curve at the largest integer
    order below alpha (0 if there is none) plus log(1/delta)/(alpha-1). Only
    the fractional orders whose bound comes within _PRUNE_MARGIN of the
    integer orders' minimum are priced, on the grid's quadrature span; the
    others cannot hold or tie the minimum. A priced gamma that is not finite
    is refused, as RdpCurve refuses it.
    """

    def __init__(
        self,
        before: Sequence[float],
        after: Optional[Sequence[float]],
        q: float,
        steps: int,
        delta: float,
        orders: tuple[float, ...],
    ) -> None:
        self.q, self.steps, self.orders = q, steps, orders
        (self.int_ix, self.int_orders, self.frac_ix, self.frac_alphas, self.span, self.floor_ix, self.has_floor,
         grid) = _pruning_layout(orders)
        conv = math.log(1.0 / delta) / (grid - 1.0)  # rdp_to_dp's divisions, lane by lane
        self.conv_int, self.conv_frac = conv[self.int_ix], conv[self.frac_ix]
        base = np.array(before, dtype=np.float64)
        self.base_int, self.base_frac = base[self.int_ix], base[self.frac_ix]
        self.tail = None if after is None else np.array(after, dtype=np.float64)

    def _curve(self, ix: np.ndarray, base: np.ndarray, gammas: np.ndarray) -> np.ndarray:
        total = base + self.steps * gammas
        if self.tail is not None:
            total = total + self.tail[ix]
        if not total.max(initial=0.0) < math.inf:  # NaN fails too
            bad = total[~np.isfinite(total)][0]
            raise InvalidArgumentError(f"gamma values must be finite and non-negative, got {bad}")
        return total

    def _integer_part(self, sigma: float) -> tuple[np.ndarray, np.ndarray]:
        """Epsilon at the integer orders, and the lower bound at the fractional ones."""
        total = self._curve(self.int_ix, self.base_int, sgm_rdp_curve(self.q, sigma, self.int_orders))
        return total + self.conv_int, total[self.floor_ix] * self.has_floor + self.conv_frac

    def floor(self, sigma: float) -> float:
        """A lower bound on epsilon from the integer orders alone (closed form, no quadrature)."""
        eps_int, bound = self._integer_part(sigma)
        return float(min(eps_int.min(initial=math.inf), bound.min(initial=math.inf)))

    def __call__(self, sigma: float) -> tuple[float, float]:
        """(epsilon, the first order that attains it), as rdp_to_dp returns them."""
        best, at = math.inf, len(self.orders)
        cand = np.arange(len(self.frac_ix))
        if self.int_orders:
            eps, bound = self._integer_part(sigma)
            i = int(np.argmin(eps))
            best, at = float(eps[i]), int(self.int_ix[i])
            cand = np.flatnonzero(~(bound > best * (1.0 + _PRUNE_MARGIN)))
        if len(cand):
            gammas = _fractional_gammas(self.q, sigma, tuple(self.frac_alphas[cand].tolist()), self.span)
            eps = self._curve(self.frac_ix[cand], self.base_frac[cand], gammas) + self.conv_frac[cand]
            i = int(np.argmin(eps))
            if eps[i] < best or (eps[i] == best and self.frac_ix[cand[i]] < at):
                best, at = float(eps[i]), int(self.frac_ix[cand[i]])
        return best, self.orders[at]


def _compose_split(events: Sequence[MechanismEvent], orders: tuple[float, ...]) -> tuple:
    """compose() of the unpartitioned events, and of the partitioned ones (None: there are none).

    compose(events + [fine]), fine unpartitioned, adds fine's curve to the first, then the second.
    """
    parallel = [ev for ev in events if ev.partition is not None]
    after = compose(parallel, orders).gammas if parallel else None
    return compose([ev for ev in events if ev.partition is None], orders).gammas, after


def epsilon_with_fine_tuning(
    events: Sequence[MechanismEvent],
    fine: MechanismEvent,
    delta: float,
    orders: Sequence[float] | None = None,
) -> tuple[float, float]:
    """rdp_to_dp(compose(events + [fine], orders), delta), bit for bit.

    Only the fractional orders that can hold the minimum are priced by
    quadrature (see `_FineTuneEpsilon`); `fine` must be unpartitioned, as
    a DP-SGD stage is.
    """
    if fine.partition is not None:
        raise InvalidArgumentError("the fine-tuning event must not carry a partition")
    if not (0.0 < delta < 1.0):
        raise InvalidArgumentError(f"delta must be in (0, 1), got {delta}")
    orders = tuple(orders) if orders is not None else default_orders()
    if not orders:
        raise InvalidArgumentError("cannot convert an empty curve")
    epsilon = _FineTuneEpsilon(*_compose_split(events, orders), fine.q, fine.repetitions, delta, orders)
    return epsilon(fine.sigma)


@dataclass
class PrivacySpec:
    """Privacy target plus the running ledger of charged mechanisms."""

    target_epsilon: float
    delta: float
    events: list[MechanismEvent] = field(default_factory=list)
    sigma_f: Optional[float] = None
    orders: tuple[float, ...] = field(default_factory=default_orders)

    def __post_init__(self) -> None:
        if not (self.target_epsilon > 0.0 and math.isfinite(self.target_epsilon)):
            raise InvalidArgumentError(f"target epsilon must be positive and finite, got {self.target_epsilon}")
        if not (0.0 < self.delta < 1.0):
            raise InvalidArgumentError(f"delta must be in (0, 1), got {self.delta}")

    def record(self, *events: MechanismEvent) -> None:
        self.events.extend(events)

    def curve(self) -> RdpCurve:
        return compose(self.events, self.orders)

    def epsilon(self) -> tuple[float, float]:
        return rdp_to_dp(self.curve(), self.delta)

    def assert_within_budget(self) -> float:
        eps, _ = self.epsilon()
        if eps > self.target_epsilon * (1.0 + 1e-9):
            raise BudgetExhaustedError(
                f"ledger epsilon {eps:.6g} exceeds target {self.target_epsilon:.6g}"
            )
        return eps

    def to_dict(self) -> dict:
        return {
            "target_epsilon": self.target_epsilon,
            "delta": self.delta,
            "sigma_f": self.sigma_f,
            "events": [ev.to_dict() for ev in self.events],
        }


def _bracketed_secant(
    epsilon: Callable[[float], float],
    target: float,
    lo: float,
    eps_lo: float,
    hi: float,
    eps_hi: float,
    eps_floor: float,
) -> float:
    """Shrink [lo, hi] around the noise scale where `epsilon` crosses `target`.

    `lo` is infeasible (eps_lo > target) and `hi` feasible (eps_hi <= target),
    and both stay so. Each step is regula falsi with the Illinois
    modification on g(x) = log epsilon(e^x) - log target, x = log sigma:
    the secant root of the bracket, with the end that failed to move twice
    running having its g halved. A step stays half a tolerance inside the
    bracket, so once the secant sits next to the root the following step
    lands across it and closes the bracket. Without a usable secant (after a
    NaN epsilon, say) the step bisects. Returns `hi` once hi / lo - 1 is
    within SIGMA_SEARCH_REL_TOL and eps_hi >= eps_floor.
    """
    log_t = math.log(target)
    x_lo, g_lo = math.log(lo), math.log(eps_lo) - log_t
    x_hi, g_hi = math.log(hi), math.log(eps_hi) - log_t
    margin = 0.5 * math.log1p(SIGMA_SEARCH_REL_TOL)
    run = 0  # > 0: hi moved on that many steps running; < 0: lo did
    for _ in range(200):
        if hi / lo - 1.0 <= SIGMA_SEARCH_REL_TOL and eps_hi >= eps_floor:
            break
        x = 0.5 * (x_lo + x_hi)
        if g_lo > g_hi and x_hi - x_lo > 2.0 * margin:  # false when eps_lo was NaN
            x = x_hi - g_hi * (x_hi - x_lo) / (g_hi - g_lo)
            x = min(max(x, x_lo + margin), x_hi - margin)
        sigma = math.exp(x)
        if not lo < sigma < hi:
            sigma = math.sqrt(lo * hi)
        eps = epsilon(sigma)
        if eps <= target:
            hi, x_hi, g_hi, eps_hi = sigma, math.log(sigma), math.log(eps) - log_t, eps
            run = max(run, 0) + 1
            if run >= 2:
                g_lo *= 0.5
        else:
            lo, x_lo, g_lo = sigma, math.log(sigma), math.log(eps) - log_t
            run = min(run, 0) - 1
            if run <= -2:
                g_hi *= 0.5
    return hi


def calibrate_sigma_f(
    query_events: Sequence[MechanismEvent],
    steps: int,
    sampling_rate: float,
    target_epsilon: float,
    delta: float,
    orders: Sequence[float] | None = None,
) -> float:
    """Smallest fine-tuning noise scale keeping the total budget under target.

    The query-stage events are fixed; the fine-tuning stage contributes
    `steps` sub-sampled Gaussian releases at `sampling_rate`. A bracketed
    secant search (`_bracketed_secant`) over `SIGMA_SEARCH_RANGE` returns the
    feasible end of a bracket whose other end is infeasible and at most
    `SIGMA_SEARCH_REL_TOL` relatively below it. It runs first on the integer
    orders alone (closed form, cheap) and then on the full grid; interior
    solutions land in [0.999 * target, target]. If even the lower search
    bound satisfies the budget (e.g. zero steps) the bound itself is
    returned. Every feasibility test reads `epsilon <= target`, so a NaN
    epsilon is never feasible.
    """
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 0:
        raise InvalidArgumentError(f"steps must be a non-negative integer, got {steps!r}")
    if not (target_epsilon > 0.0 and math.isfinite(target_epsilon)):
        raise InvalidArgumentError(f"target epsilon must be positive and finite, got {target_epsilon}")
    if not (0.0 < delta < 1.0):
        raise InvalidArgumentError(f"delta must be in (0, 1), got {delta}")
    if not (0.0 < sampling_rate <= 1.0):
        raise InvalidArgumentError(f"sampling rate must be in (0, 1], got {sampling_rate}")
    orders = tuple(orders) if orders is not None else default_orders()
    sigma_lo, sigma_hi = SIGMA_SEARCH_RANGE

    warm_curve = compose(query_events, orders)
    eps_w, _ = rdp_to_dp(warm_curve, delta)
    if not eps_w < target_epsilon:
        raise BudgetExhaustedError(
            f"query stage alone costs epsilon {eps_w:.6g} >= target {target_epsilon:.6g}"
        )
    if steps == 0:
        return sigma_lo

    # The full-grid epsilon, computed once per noise scale and summed as the
    # ledger sums it (see _compose_split).
    full = _FineTuneEpsilon(*_compose_split(query_events, orders), sampling_rate, steps, delta, orders)
    by_sigma: dict[float, float] = {}

    def full_epsilon(sigma: float) -> float:
        if sigma not in by_sigma:
            by_sigma[sigma] = full(sigma)[0]
        return by_sigma[sigma]

    # Cheap pre-bracketing on the integer sub-grid (closed form only). The
    # full-grid epsilon is a min over a superset of orders, so it never
    # exceeds the integer-grid epsilon: the integer solution is a feasible
    # upper bracket, and probing small sigmas (where the fractional
    # quadrature gets expensive) is avoided entirely.
    int_orders = tuple(a for a in orders if float(a).is_integer()) or orders
    # x + 0.0 is x, as no gamma is -0.0
    int_before, int_after = (0.0 if g is None else np.array(g) for g in _compose_split(query_events, int_orders))
    log_inv_delta = math.log(1.0 / delta)
    int_conv = np.array([log_inv_delta / (a - 1.0) for a in int_orders])

    def int_epsilon(sigma: float) -> float:
        return float(np.min(int_before + steps * sgm_rdp_curve(sampling_rate, sigma, int_orders) + int_after + int_conv))

    hi = sigma_hi
    eps_hi = int_epsilon(sigma_hi)
    if eps_hi <= target_epsilon:
        eps_lo = int_epsilon(sigma_lo)
        if eps_lo <= target_epsilon:
            return sigma_lo  # feasible on the full grid too
        hi = _bracketed_secant(int_epsilon, target_epsilon, sigma_lo, eps_lo, sigma_hi, eps_hi, 0.0)
        step = 1.1  # the full-grid solution sits just below the integer one
    else:
        if not full_epsilon(sigma_hi) <= target_epsilon:
            raise BudgetExhaustedError(
                f"even noise scale {sigma_hi} leaves epsilon above target {target_epsilon:.6g} "
                f"for {steps} steps at rate {sampling_rate}"
            )
        # Only the fractional orders above the integer ones reach the target.
        # Where the closed-form floor exceeds it, so does epsilon: the first
        # step goes to the floor's crossing, or to sigma_lo if it has none.
        floor_lo = full.floor(sigma_lo)
        crossing = sigma_lo
        if floor_lo > target_epsilon:
            floor_hi = full.floor(sigma_hi)
            crossing = _bracketed_secant(full.floor, target_epsilon, sigma_lo, floor_lo, sigma_hi, floor_hi, 0.0)
            crossing /= 1.0 + SIGMA_SEARCH_REL_TOL  # at or below the floor's infeasible end
        step = sigma_hi / crossing

    # Descend to the full-grid solution, which can only sit at or below `hi`.
    # Each divisor after the first is the square of the one before, so an
    # infeasible lower end is reached in a few steps.
    while True:
        lo = max(sigma_lo, hi / step)
        eps_lo = full_epsilon(lo)
        if not eps_lo <= target_epsilon:
            break
        hi = lo
        if lo == sigma_lo:
            return sigma_lo
        step *= step

    hi = _bracketed_secant(full_epsilon, target_epsilon, lo, eps_lo, hi, full_epsilon(hi), 0.999 * target_epsilon)
    eps_final = full_epsilon(hi)
    if not (0.999 * target_epsilon <= eps_final <= target_epsilon):
        raise NumericError(
            f"calibration failed to land in the target window: epsilon {eps_final:.9g} "
            f"vs target {target_epsilon:.9g} at sigma {hi:.9g}"
        )
    return hi
