"""The accountant's two shortcuts give the bits of the code they skip.

`_order_sums` adds each integer order's terms in the order of numpy's
pairwise `.sum()` of the order's slice, in a few array passes over all
orders. The quadrature takes the all-small branch without forming
log f, its peak or the masks when a scalar bound on every lane already
decides that branch. Both are held to the straightforward code here, bit
for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsynth import accounting
from dpsynth.accounting import _binomial_layout, _order_sums, _pairwise_gather

TINY = 5e-324  # the smallest subnormal


def slice_sums(terms: np.ndarray, alphas: tuple) -> np.ndarray:
    bounds = _binomial_layout(alphas)[0]
    return np.array([terms[b0:b1].sum() for b0, b1 in zip(bounds[:-1], bounds[1:])])


def bits(x: np.ndarray) -> list:
    return np.asarray(x, dtype=np.float64).view(np.int64).tolist()


def draw_terms(gen: np.random.Generator, n: int) -> np.ndarray:
    """Values in [0, 1] with zeros, subnormals and values spread over 300 decades."""
    x = gen.random(n) * np.exp(gen.uniform(-690.0, 0.0, n))
    kind = gen.random(n)
    subnormal = TINY * gen.integers(1, 2**40, n)
    return np.where(kind < 0.15, 0.0, np.where(kind < 0.25, subnormal, x))


class TestOrderSums:
    EVERY_LENGTH = tuple(range(2, 130))  # orders 2..129 have 1..128 terms

    def test_every_length_up_to_128(self):
        alphas = self.EVERY_LENGTH
        assert _pairwise_gather(alphas) is not None
        gen = np.random.default_rng(1)
        for _ in range(20):
            terms = draw_terms(gen, _binomial_layout(alphas)[0][-1])
            assert bits(_order_sums(terms, alphas)) == bits(slice_sums(terms, alphas))

    def test_nan_terms(self):
        alphas = self.EVERY_LENGTH
        gen = np.random.default_rng(2)
        terms = draw_terms(gen, _binomial_layout(alphas)[0][-1])
        terms[gen.random(len(terms)) < 0.02] = np.nan
        got, want = _order_sums(terms, alphas), slice_sums(terms, alphas)
        assert np.isnan(want).any() and not np.isnan(want).all()
        assert bits(got) == bits(want)

    def test_grid_in_any_order_with_repeats(self):
        alphas = (64, 2, 9, 9, 17, 128, 8, 3)
        terms = draw_terms(np.random.default_rng(3), _binomial_layout(alphas)[0][-1])
        assert bits(_order_sums(terms, alphas)) == bits(slice_sums(terms, alphas))

    def test_longer_segments_fall_back_to_slice_sums(self):
        # numpy splits a slice of more than 128 terms in halves; the gather does not.
        alphas = (2, 64, 130, 300)
        assert _pairwise_gather(alphas) is None
        terms = draw_terms(np.random.default_rng(4), _binomial_layout(alphas)[0][-1])
        assert bits(_order_sums(terms, alphas)) == bits(slice_sums(terms, alphas))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.lists(
                st.one_of(
                    st.floats(0.0, 1.0),
                    st.sampled_from([0.0, TINY, 2.2250738585072014e-308, 1.0, math.nan]),
                    st.floats(0.0, 2.2250738585072014e-308),  # subnormals
                ),
                min_size=1,
                max_size=128,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_equals_slice_sums(self, segments):
        alphas = tuple(len(s) + 1 for s in segments)
        terms = np.array([x for s in segments for x in s], dtype=np.float64)
        assert bits(_order_sums(terms, alphas)) == bits(slice_sums(terms, alphas))


def quadrature_without_shortcut(q, sigma, alphas, span=None):
    """`_fractional_log_moments` as it was before the shortcut: every order forms
    log f and its peak, reading the module's `_SHIFT_CUT` at call time."""
    u_hi = float(np.max(alphas) if span is None else span) / sigma + 14.0
    u_lo = -14.0
    panels = max(64, int((u_hi - u_lo) * 2.0))
    nodes16, weights16 = accounting._gl_nodes(16)
    prev = None
    for _ in range(8):
        edges = np.linspace(u_lo, u_hi, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        u = (mid[:, None] + half[:, None] * nodes16[None, :]).reshape(-1)
        w = (half[:, None] * weights16[None, :]).reshape(-1)
        log_phi = -0.5 * u * u - 0.5 * math.log(2.0 * math.pi)
        phi = accounting._exp(log_phi)
        logmix = accounting._log_mix_ratio(u, q, sigma)
        log_a = np.empty(len(alphas), dtype=np.float64)
        for i, alpha in enumerate(alphas):
            ratio = alpha * logmix
            log_f = log_phi + ratio
            peak = float(log_f.max())
            if peak < accounting._SHIFT_CUT:
                small = ratio <= 30.0
                if small.all():
                    term = phi * np.expm1(ratio)
                else:
                    term = np.empty_like(ratio)
                    term[small] = phi[small] * np.expm1(ratio[small])
                    large = ~small
                    term[large] = accounting._exp(log_f[large]) - phi[large]
                log_a[i] = math.log1p(float(np.dot(w, term)))
            else:
                log_a[i] = peak + math.log(float(np.dot(w, accounting._exp(log_f - peak))))
        if prev is not None:
            scale = np.maximum(1.0, np.abs(log_a))
            if np.all(np.abs(log_a - prev) <= accounting.QUADRATURE_ABS_TOL * scale):
                return log_a
        prev = log_a
        panels *= 2
    raise AssertionError("no convergence")


class TestQuadratureShortcut:
    Q, SIGMA, SPAN = 0.02, 5.0, 127.5

    @classmethod
    def first_pass(cls) -> tuple[np.ndarray, np.ndarray]:
        """log phi and log mix at the nodes of the quadrature's first pass."""
        seen = []
        real = accounting._log_mix_ratio

        def spy(u, q, sigma):
            seen.append((u, real(u, q, sigma)))
            return seen[-1][1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(accounting, "_log_mix_ratio", spy)
            accounting._fractional_log_moments(cls.Q, cls.SIGMA, np.array([2.5]), cls.SPAN)
        u, logmix = seen[0]
        return -0.5 * u * u - 0.5 * math.log(2.0 * math.pi), logmix

    def same_bits(self, alphas):
        alphas = np.array(alphas, dtype=np.float64)
        got = accounting._fractional_log_moments(self.Q, self.SIGMA, alphas, self.SPAN)
        assert bits(got) == bits(quadrature_without_shortcut(self.Q, self.SIGMA, alphas, self.SPAN))

    def test_ratio_bound_at_and_just_above_30(self):
        _, logmix = self.first_pass()
        mix_max = float(logmix.max())
        alpha = 30.0 / mix_max
        while alpha * mix_max > 30.0:
            alpha = math.nextafter(alpha, 0.0)
        while math.nextafter(alpha, math.inf) * mix_max <= 30.0:
            alpha = math.nextafter(alpha, math.inf)
        above = math.nextafter(alpha, math.inf)
        assert alpha * mix_max <= 30.0 < above * mix_max and 1.0 < alpha < self.SPAN
        for alphas in ([alpha], [above], [alpha, above, 2.5, 60.5]):
            self.same_bits(alphas)

    @pytest.mark.parametrize("edge", ["bound just below the cut", "bound at the cut", "peak at the cut",
                                      "peak just below the cut"])
    def test_shift_cut_edges(self, monkeypatch, edge):
        # With the real cut (50) the second test is implied by the first, as
        # log phi <= -log(sqrt(2 pi)); a lowered cut reaches its edge.
        log_phi, logmix = self.first_pass()
        alpha = 3.5
        bound = float(log_phi.max()) + alpha * float(logmix.max())
        peak = float((log_phi + alpha * logmix).max())
        assert peak < bound < 30.0
        cut = {
            "bound just below the cut": math.nextafter(bound, math.inf),
            "bound at the cut": bound,
            "peak at the cut": peak,  # the branch below takes the shifted form
            "peak just below the cut": math.nextafter(peak, math.inf),
        }[edge]
        monkeypatch.setattr(accounting, "_SHIFT_CUT", cut)
        self.same_bits([alpha])
        self.same_bits([1.25, alpha, 40.5])

    def test_random_cases(self):
        gen = np.random.default_rng(11)
        grid = np.array([a for a in accounting.default_orders() if not float(a).is_integer()])
        for _ in range(40):
            q = float(np.exp(gen.uniform(math.log(1e-4), math.log(0.9))))
            sigma = float(np.exp(gen.uniform(math.log(0.5), math.log(300.0))))
            alphas = np.sort(gen.choice(grid, int(gen.integers(1, 8)), replace=False))
            got = accounting._fractional_log_moments(q, sigma, alphas, float(grid.max()))
            assert bits(got) == bits(quadrature_without_shortcut(q, sigma, alphas, float(grid.max()))), (q, sigma)
