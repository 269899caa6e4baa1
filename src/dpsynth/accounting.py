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

The quadrature's exponentials go through `_exp`, which skips the lanes
whose result is exactly 0.0: numpy's exp is slow on arguments that
underflow, and the Gaussian tails are full of them. The result stays
`np.exp` bit for bit because numpy's exp gives each lane the same bits
whatever its neighbours are, and because NaN lanes still reach exp.
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


def _integer_log_moments_minus_one(q: float, sigma: float, alphas: tuple[int, ...]) -> np.ndarray:
    """log(E_{x~p0}[(mix/p0)^alpha] - 1) at integer orders via the exact binomial expansion.

    E[(mix/p0)^alpha] = sum_k C(alpha,k) (1-q)^(alpha-k) q^k
    exp((k^2 - k) / (2 sigma^2)); subtracting the plain binomial identity
    kills the k = 0, 1 terms and leaves a cancellation-free positive sum,
    so tiny divergences keep full relative precision.

    All orders share one flat array of terms. Each order's log-sum-exp
    repeats scipy 1.17.1's `logsumexp` arithmetic step for step, and sums
    its own contiguous slice, so every value is bit-identical to a per-order
    `logsumexp` call (a segmented `np.add.reduceat` adds in another order).
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
        s = np.array([shifted[b0:b1].sum() for b0, b1 in zip(bounds[:-1], bounds[1:])])
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


def _fractional_log_moments(q: float, sigma: float, alphas: np.ndarray) -> np.ndarray:
    """log moments for an array of (fractional) orders by adaptive quadrature.

    A single standardized node set covers all orders: the integrand for order
    alpha has its mass inside [-14, alpha/sigma + 14]. Node density doubles
    until every order's estimate is stable to QUADRATURE_ABS_TOL (relative on
    the moment), which for this analytic integrand happens at the first check.
    """
    u_hi = float(np.max(alphas)) / sigma + 14.0
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

        log_a = np.empty(len(alphas), dtype=np.float64)
        for i, alpha in enumerate(alphas):
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


@lru_cache(maxsize=4096)
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

    log_inv_delta = math.log(1.0 / delta)

    def epsilon_on(grid: tuple[float, ...], warm: RdpCurve):
        """Total epsilon on `grid` as a function of the fine-tuning noise scale."""
        warm_gammas = np.array(warm.gammas)
        conv = np.array([log_inv_delta / (a - 1.0) for a in grid])
        return lambda sigma: float(np.min(warm_gammas + steps * sgm_rdp_curve(sampling_rate, sigma, grid) + conv))

    total_epsilon = epsilon_on(orders, warm_curve)
    if not total_epsilon(sigma_hi) <= target_epsilon:
        raise BudgetExhaustedError(
            f"even noise scale {sigma_hi} leaves epsilon above target {target_epsilon:.6g} "
            f"for {steps} steps at rate {sampling_rate}"
        )

    # Cheap pre-bracketing on the integer sub-grid (closed form only). The
    # full-grid epsilon is a min over a superset of orders, so it never
    # exceeds the integer-grid epsilon: the integer solution is a feasible
    # upper bracket, and probing small sigmas (where the fractional
    # quadrature gets expensive) is avoided entirely. If the integer orders
    # miss the target even at sigma_hi, the descent starts from sigma_hi.
    int_orders = tuple(a for a in orders if float(a).is_integer()) or orders
    int_epsilon = epsilon_on(int_orders, compose(query_events, int_orders))
    hi = sigma_hi
    eps_hi = int_epsilon(sigma_hi)
    if eps_hi <= target_epsilon:
        eps_lo = int_epsilon(sigma_lo)
        if eps_lo <= target_epsilon:
            return sigma_lo  # feasible on the full grid too
        hi = _bracketed_secant(int_epsilon, target_epsilon, sigma_lo, eps_lo, sigma_hi, eps_hi, 0.0)

    # Descend to the full-grid solution, which can only sit at or below `hi`.
    lo = hi
    for _ in range(200):
        cand = max(sigma_lo, lo / 1.1)
        eps_cand = total_epsilon(cand)
        if not eps_cand <= target_epsilon:
            lo = cand
            break
        hi = cand
        lo = cand
        if cand == sigma_lo:
            return sigma_lo

    hi = _bracketed_secant(total_epsilon, target_epsilon, lo, eps_cand, hi, total_epsilon(hi), 0.999 * target_epsilon)
    eps_final = total_epsilon(hi)
    if not (0.999 * target_epsilon <= eps_final <= target_epsilon):
        raise NumericError(
            f"calibration failed to land in the target window: epsilon {eps_final:.9g} "
            f"vs target {target_epsilon:.9g} at sigma {hi:.9g}"
        )
    return hi
