"""Independent oracles used to pin expected values in the test suite.

These deliberately avoid the library's own code paths: the RDP oracle uses
mpmath arbitrary-precision quadrature instead of the closed form / vectorized
float64 quadrature, gradients come from central finite differences, and
statistics come from first principles. Keep it that way; a shared code path
would turn the checks into tautologies.

One oracle is a frozen reference instead: `integer_log_moment_minus_one` is
the accountant's former per-order closed form, kept verbatim so the
vectorized kernel that replaced it can be held to bit-identity.
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
