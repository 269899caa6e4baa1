import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from dpsynth import BudgetExhaustedError, InvalidArgumentError, MechanismEvent, PrivacySpec, RdpCurve, accounting
from dpsynth.accounting import (
    SIGMA_SEARCH_RANGE,
    SIGMA_SEARCH_REL_TOL,
    _EXP_ZERO_CUT,
    _exp,
    _integer_log_moments_minus_one,
    _log1p_exp,
    _sgm_rdp_integer,
    _fractional_log_moments,
    calibrate_sigma_f,
    compose,
    default_orders,
    rdp_to_dp,
    sgm_rdp,
    sgm_rdp_curve,
)

from oracles import integer_log_moment_minus_one, sgm_rdp_oracle

# Frozen from the mpmath quadrature oracle (tests/oracles.py, dps=40),
# computed before wiring up this test.
SGM_RDP_Q001_S2_A8 = 1.157561479299e-04


class TestSgmRdp:
    def test_full_sampling_analytic(self):
        # q=1 reduces to the Gaussian divergence alpha / (2 sigma^2)
        assert sgm_rdp(1.0, 1.0, 2.0) == pytest.approx(1.0, rel=1e-12)
        assert sgm_rdp(1.0, 2.0, 8.0) == pytest.approx(1.0, rel=1e-12)

    def test_vanishing_sampling_rate(self):
        assert sgm_rdp(1e-12, 1.0, 2.0) < 1e-10

    def test_frozen_oracle_value(self):
        assert sgm_rdp(0.01, 2.0, 8.0) == pytest.approx(SGM_RDP_Q001_S2_A8, rel=1e-6)

    def test_live_oracle_match(self):
        for q, s, a in [(0.05, 1.5, 4.0), (0.02, 3.0, 2.5), (0.3, 0.8, 16.5)]:
            assert sgm_rdp(q, s, a) == pytest.approx(sgm_rdp_oracle(q, s, a), rel=1e-9)

    @pytest.mark.parametrize(
        "q,sigma,alpha",
        [(0.0, 1.0, 2.0), (1.5, 1.0, 2.0), (0.1, 0.0, 2.0), (0.1, -1.0, 2.0), (0.1, 1.0, 1.0)],
    )
    def test_invalid_arguments(self, q, sigma, alpha):
        with pytest.raises(InvalidArgumentError):
            sgm_rdp(q, sigma, alpha)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_noise_scale_is_refused(self, sigma):
        with pytest.raises(InvalidArgumentError, match="^noise scale must be positive and finite"):
            sgm_rdp(0.1, sigma, 2.5)
        with pytest.raises(InvalidArgumentError, match="^noise scale must be positive and finite"):
            sgm_rdp_curve(0.1, sigma, default_orders())

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_order_is_refused(self, alpha):
        with pytest.raises(InvalidArgumentError, match="^order must be finite and exceed 1"):
            sgm_rdp(0.1, 1.0, alpha)
        with pytest.raises(InvalidArgumentError, match="^order must be finite and exceed 1"):
            sgm_rdp_curve(0.1, 1.0, (2.0, alpha))

    def test_refusal_order_is_rate_then_noise_then_first_bad_order(self):
        with pytest.raises(InvalidArgumentError, match="^sampling rate must be in"):
            sgm_rdp_curve(0.0, math.nan, (math.nan, 2.0))
        with pytest.raises(InvalidArgumentError, match="^noise scale must be positive and finite"):
            sgm_rdp_curve(0.5, math.nan, (math.nan, 2.0))
        for _ in range(2):  # a refused grid is refused again, not remembered as checked
            with pytest.raises(InvalidArgumentError, match="^order must be finite and exceed 1, got 0.5$"):
                sgm_rdp_curve(0.5, 1.0, (2.0, 0.5, math.nan))
        assert sgm_rdp_curve(0.0, math.nan, ()).shape == (0,)  # an empty grid checks nothing, as before

    def test_monotone_in_q_and_alpha_antitone_in_sigma(self):
        gen = np.random.default_rng(13)
        for _ in range(20):
            q = gen.uniform(1e-4, 0.9)
            sigma = gen.uniform(0.5, 10)
            alpha = float(gen.choice([1.5, 2.0, 3.5, 8.0, 16.5, 32.0]))
            up_q = sgm_rdp(min(1.0, q * 1.5), sigma, alpha)
            up_a = sgm_rdp(q, sigma, alpha + 1.0)
            up_s = sgm_rdp(q, sigma * 1.5, alpha)
            base = sgm_rdp(q, sigma, alpha)
            assert up_q >= base * (1 - 1e-12)
            assert up_a >= base * (1 - 1e-12)
            assert up_s <= base * (1 + 1e-12)

    def test_integer_closed_form_vs_quadrature(self):
        # The two independent internal evaluators agree at integer orders.
        gen = np.random.default_rng(3)
        for _ in range(15):
            q = float(gen.uniform(1e-3, 0.8))
            sigma = float(gen.uniform(0.5, 12))
            alpha = int(gen.integers(2, 64))
            closed = _sgm_rdp_integer(q, sigma, alpha)
            log_a = _fractional_log_moments(q, sigma, np.array([float(alpha)]))[0]
            quad = log_a / (alpha - 1.0)
            assert quad == pytest.approx(closed, rel=1e-8)

    def test_noise_scale_too_small_to_price_is_refused_before_allocating(self):
        # The quadrature's first pass would hold 41M-node arrays of about 326 MB each.
        tracemalloc.start()
        try:
            with pytest.raises(InvalidArgumentError, match="^noise scale 0.0001 at sampling rate 0.5 is too small"):
                sgm_rdp_curve(0.5, 1e-4, default_orders())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_search_floor_is_priced_on_the_default_span(self):
        # sigma 0.01 on the largest default order takes 25,556 panels in the first pass.
        assert sgm_rdp_curve(0.5, SIGMA_SEARCH_RANGE[0], (127.5,))[0] > 0.0

    def test_curve_matches_scalar_path(self):
        orders = default_orders()
        curve = sgm_rdp_curve(0.05, 3.0, orders)
        for a, g in zip(orders, curve):
            assert g == pytest.approx(sgm_rdp(0.05, 3.0, a), rel=1e-12)


def _old_curve(q, sigma, orders):
    """gamma over `orders` order by order: the frozen scipy-`logsumexp` kernel at integer
    orders, the quadrature at fractional ones, the analytic form at q = 1."""
    if q == 1.0:
        return [a / (2.0 * sigma * sigma) for a in orders]
    frac = np.array([a for a in orders if not float(a).is_integer()])
    frac_gammas = iter(_fractional_log_moments(q, sigma, frac) / (frac - 1.0) if len(frac) else ())
    return [
        _log1p_exp(integer_log_moment_minus_one(q, sigma, int(a))) / (a - 1.0)
        if float(a).is_integer()
        else max(0.0, next(frac_gammas))
        for a in orders
    ]


class TestIntegerPassBitIdentity:
    """The one-pass integer kernel reproduces the per-order scipy `logsumexp` kernel bit for bit."""

    PAIRS = 2000
    DEFAULT_INTEGERS = tuple(int(a) for a in default_orders() if float(a).is_integer())

    @staticmethod
    def pairs(seed, n):
        gen = np.random.default_rng(seed)
        q = np.exp(gen.uniform(math.log(5e-4), math.log(0.9), n))
        sigma = np.exp(gen.uniform(math.log(0.02), math.log(500.0), n))
        return [(float(a), float(b)) for a, b in zip(q, sigma)]

    def test_random_pairs_on_every_grid(self):
        grids = [(2.0,), (64.0,), tuple(float(a) for a in range(2, 129))]
        for i, (q, sigma) in enumerate(self.pairs(71, self.PAIRS)):
            for j, orders in enumerate(grids):
                if j == 2 and i % 40:  # the 2..128 grid on every 40th pair
                    continue
                assert sgm_rdp_curve(q, sigma, orders).tolist() == _old_curve(q, sigma, orders), (q, sigma, orders)
            if i % 10 == 0:  # the default grid's integer orders on every 10th pair
                old = [integer_log_moment_minus_one(q, sigma, a) for a in self.DEFAULT_INTEGERS]
                assert _integer_log_moments_minus_one(q, sigma, self.DEFAULT_INTEGERS).tolist() == old, (q, sigma)

    def test_default_grid_full_curves(self):
        orders = default_orders()
        for q, sigma in self.pairs(72, 10):
            sigma = max(sigma, 0.5)  # the quadrature's cost grows as 1/sigma
            assert sgm_rdp_curve(q, sigma, orders).tolist() == _old_curve(q, sigma, orders), (q, sigma)

    def test_grid_without_integer_orders_and_full_sampling(self):
        fractional = (1.25, 2.5, 7.75, 31.5)
        for q, sigma in self.pairs(73, 20):
            sigma = max(sigma, 0.5)
            assert sgm_rdp_curve(q, sigma, fractional).tolist() == _old_curve(q, sigma, fractional)
            for orders in (default_orders(), (2.0,), fractional):
                assert sgm_rdp_curve(1.0, sigma, orders).tolist() == _old_curve(1.0, sigma, orders)

    def test_underflowing_exponents_take_the_direct_sum(self):
        # 2 sigma^2 overflows, every exponent is 0, every term is -inf: scipy's fallback path.
        with np.errstate(divide="ignore"):
            old = [integer_log_moment_minus_one(0.1, 1e200, a) for a in (2, 3, 64)]
        assert _integer_log_moments_minus_one(0.1, 1e200, (2, 3, 64)).tolist() == old == [-math.inf] * 3

    def test_cached_curve_is_read_only(self):
        curve = sgm_rdp_curve(0.05, 3.0, default_orders())
        assert curve.dtype == np.float64 and not curve.flags.writeable
        with pytest.raises(ValueError):
            curve[0] = 1.0
        with pytest.raises(ValueError):
            curve *= 2.0
        assert sgm_rdp_curve(0.05, 3.0, default_orders()) is curve


class TestExpHelper:
    """`_exp` is np.exp bit for bit: the cut only skips lanes exp rounds to 0.0."""

    @staticmethod
    def inputs() -> np.ndarray:
        cut = _EXP_ZERO_CUT
        edges = [cut, np.nextafter(cut, -np.inf), np.nextafter(cut, np.inf), -745.13, -745.14, -np.inf, np.inf,
                 np.nan, -np.nan, 709.78, 709.79, 710.0, 1e308, -1e308, 0.0, -0.0]
        gen = np.random.default_rng(5)
        x = np.concatenate([
            edges,
            np.linspace(-745.2, -708.0, 4001),  # subnormal results and the edge of the normal range
            gen.uniform(-745.2, -708.0, 2000),
            gen.normal(0.0, 300.0, 4000),
            gen.uniform(-3000.0, 750.0, 4000),
        ])
        gen.shuffle(x)  # every kind of lane next to every other kind
        return x

    @staticmethod
    def bits(x: np.ndarray) -> np.ndarray:
        return x.view(np.int64)

    def test_full_array_is_exp_bit_for_bit(self):
        x = self.inputs()
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(self.bits(_exp(x)), self.bits(np.exp(x)))

    def test_gathered_subset_is_exp_bit_for_bit(self):
        x = self.inputs()
        sub = x[np.random.default_rng(6).random(len(x)) < 0.5]
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(self.bits(_exp(sub)), self.bits(np.exp(sub)))


# sha256 of the raw float64 bytes of sgm_rdp_curve(q, sigma, default_orders()),
# frozen before the quadrature's exp skipped underflowing lanes. The contract
# test pins sigmas in [0.52, 3.2]; these reach every branch of
# _fractional_log_moments: sigmas 0.3 and 0.47 the mixed and the shifted
# branch, 17 and 300 the all-small one.
FRACTIONAL_PINS = [
    (1e-4, 0.3, "a7c00cf3d501f9a67ecd30ea176d3204dd2200d8632bd17bc273ea5072bfeb1a"),
    (0.02, 0.3, "120ebc5347e676be3d3cc56dac73878d3808bc263f200b0170e519e1dffda12e"),
    (0.3, 0.3, "cf1b8e1fb99fdffed95d6ac8bd51c727b3965d747994c8090c62e75deea4fbc9"),
    (1e-4, 0.47, "317fb73b038c82fe28200f57a8a7181e63440da15c540f3d2b30a50661cd6955"),
    (0.02, 0.47, "0ffdccc21be5d3fb06237a2cb4013e7f3a387ee57c1970402b7332525381c554"),
    (0.3, 0.47, "3430bd81b276c662c553e3f70a49d1905c9f373e6b441594e8d0ec3b4e7efba2"),
    (1e-4, 17.0, "a3f11385c30db1c7d54d625451330fe4b84119231bcd2390d62974869af60fdc"),
    (0.02, 17.0, "14cc75a53d9ee7f7acc571c08e7f4b83d80b0eb3a6ecbe4025a2453eb5f12483"),
    (0.3, 17.0, "6d22c39061f4bb6cd7deeb29a9603f21c6f6bdfc0c3ef8e74e3f0139e616b414"),
    (1e-4, 300.0, "2406e8b37082568700bdc8e380107a46a47995e01b28830ffc14283230ac4687"),
    (0.02, 300.0, "a8a7bd46737ff9520e45a67e598ddbdc512dc101922bbcc080c5c7e71a7433fb"),
    (0.3, 300.0, "bc72f6ecb772af5b17ff07575668287f7bcae407eb9b8e6ae4d43f1d0c4e6c91"),
]


@pytest.mark.parametrize("q,sigma,sha", FRACTIONAL_PINS, ids=[f"q={q}-sigma={s}" for q, s, _ in FRACTIONAL_PINS])
def test_curve_outside_the_contract_range_is_pinned(q, sigma, sha):
    assert hashlib.sha256(sgm_rdp_curve(q, sigma, default_orders()).tobytes()).hexdigest() == sha


class TestCompose:
    def test_two_identical_events_double(self):
        ev = MechanismEvent("mean_query", q=0.1, sigma=4.0)
        single = compose([ev])
        double = compose([ev, ev])
        for g1, g2 in zip(single.gammas, double.gammas):
            assert g2 == pytest.approx(2 * g1, rel=1e-12)

    def test_repetitions_float64_cannot_hold_are_refused(self):
        MechanismEvent("mean_query", q=0.1, sigma=4.0, repetitions=2**53)
        for reps in (2**53 + 1, 2**1100):
            with pytest.raises(InvalidArgumentError, match=r"^repetitions must be in \[1, 2\*\*53\]"):
                MechanismEvent("mean_query", q=0.1, sigma=4.0, repetitions=reps)

    def test_repetitions_multiply(self):
        ev5 = MechanismEvent("dpsgd_step", q=0.1, sigma=4.0, repetitions=5)
        ev1 = MechanismEvent("dpsgd_step", q=0.1, sigma=4.0)
        assert compose([ev5]).gammas == compose([ev1] * 5).gammas

    def test_parallel_composition_over_partitions(self):
        events = [
            MechanismEvent("mean_query", q=0.1, sigma=4.0, partition=f"label={l}")
            for l in range(10)
        ]
        combined = compose(events)
        single = compose([MechanismEvent("mean_query", q=0.1, sigma=4.0)])
        assert combined.gammas == single.gammas

    def test_mixed_partitioned_and_sequential(self):
        seq = MechanismEvent("dpsgd_step", q=0.2, sigma=2.0, repetitions=3)
        par = [
            MechanismEvent("mean_query", q=0.1, sigma=4.0, partition="label=0", repetitions=2),
            MechanismEvent("mean_query", q=0.1, sigma=4.0, partition="label=1"),
        ]
        total = compose([seq] + par)
        expect = compose([seq]) + compose(
            [MechanismEvent("mean_query", q=0.1, sigma=4.0, repetitions=2)]
        )
        for g, e in zip(total.gammas, expect.gammas):
            assert g == pytest.approx(e, rel=1e-12)

    def test_empty_event_list_is_zero_curve(self):
        curve = compose([])
        assert all(g == 0.0 for g in curve.gammas)

    def test_desk_scale_composition_vs_oracle(self):
        # Central-query batch plus fine-tune steps on a reduced order grid;
        # the composed curve must equal the oracle-recomputed sum per order.
        orders = (1.5, 2.0, 3.5, 8.0, 16.0, 32.5, 64.0)
        q_c, sigma_c, n_c = 6000 / 55000, 5.0, 50
        q_f, sigma_f, t_f = 4096 / 55000, 13.2, 2200
        events = [
            MechanismEvent("mean_query", q=q_c, sigma=sigma_c, repetitions=n_c),
            MechanismEvent("dpsgd_step", q=q_f, sigma=sigma_f, repetitions=t_f),
        ]
        curve = compose(events, orders)
        for a, g in zip(curve.orders, curve.gammas):
            oracle = n_c * sgm_rdp_oracle(q_c, sigma_c, a) + t_f * sgm_rdp_oracle(q_f, sigma_f, a)
            assert g == pytest.approx(oracle, rel=1e-9)


class TestRdpToDp:
    def test_hand_case(self):
        curve = RdpCurve(orders=(32.0,), gammas=(0.5,))
        eps, alpha = rdp_to_dp(curve, 1e-5)
        assert alpha == 32.0
        assert eps == pytest.approx(0.5 + math.log(1e5) / 31.0, rel=1e-12)

    def test_zero_curve_prefers_largest_order(self):
        orders = (2.0, 8.0, 64.0)
        eps, alpha = rdp_to_dp(RdpCurve.zero(orders), 1e-5)
        assert alpha == 64.0
        assert eps == pytest.approx(math.log(1e5) / 63.0, rel=1e-12)

    def test_adding_an_order_never_hurts(self):
        base = RdpCurve(orders=(4.0, 16.0), gammas=(0.3, 0.8))
        wider = RdpCurve(orders=(4.0, 8.0, 16.0), gammas=(0.3, 0.5, 0.8))
        assert rdp_to_dp(wider, 1e-5)[0] <= rdp_to_dp(base, 1e-5)[0]

    def test_scaling_curve_up_never_helps(self):
        ev = MechanismEvent("dpsgd_step", q=0.1, sigma=2.0, repetitions=100)
        curve = compose([ev])
        for k in (1.0, 1.5, 3.0):
            assert rdp_to_dp(curve.scaled(k), 1e-5)[0] >= rdp_to_dp(curve, 1e-5)[0]

    def test_invalid_delta_and_empty_curve(self):
        with pytest.raises(InvalidArgumentError):
            rdp_to_dp(RdpCurve(orders=(2.0,), gammas=(0.1,)), 0.0)
        with pytest.raises(InvalidArgumentError):
            rdp_to_dp(RdpCurve(orders=(), gammas=()), 1e-5)


class TestRdpCurveValidation:
    def test_orders_must_increase(self):
        with pytest.raises(InvalidArgumentError):
            RdpCurve(orders=(2.0, 2.0), gammas=(0.1, 0.1))

    def test_orders_above_one(self):
        with pytest.raises(InvalidArgumentError):
            RdpCurve(orders=(1.0, 2.0), gammas=(0.1, 0.1))

    def test_negative_gamma_rejected(self):
        with pytest.raises(InvalidArgumentError):
            RdpCurve(orders=(2.0,), gammas=(-0.1,))


QUERY_EVENTS = [MechanismEvent("mean_query", q=0.1, sigma=5.0, repetitions=50)]


class TestCalibration:
    def test_zero_steps_returns_lower_bound(self):
        sigma = calibrate_sigma_f(QUERY_EVENTS, 0, 0.1, 5.0, 1e-5)
        assert sigma == pytest.approx(1e-2)

    def test_doubling_steps_increases_sigma(self):
        s1 = calibrate_sigma_f(QUERY_EVENTS, 400, 0.1, 2.0, 1e-5)
        s2 = calibrate_sigma_f(QUERY_EVENTS, 800, 0.1, 2.0, 1e-5)
        assert s2 > s1

    def test_replay_lands_in_window(self):
        target = 1.0
        sigma = calibrate_sigma_f(QUERY_EVENTS, 500, 0.07, target, 1e-5)
        events = QUERY_EVENTS + [
            MechanismEvent("dpsgd_step", q=0.07, sigma=sigma, repetitions=500)
        ]
        eps, _ = rdp_to_dp(compose(events), 1e-5)
        assert 0.999 * target <= eps <= target

    def test_target_only_fractional_orders_reach(self):
        # Every integer order's epsilon exceeds log(1/delta)/63 = 0.183, so the
        # integer pre-bracket fails and the full-grid descent starts at sigma 1000.
        sigma = calibrate_sigma_f([], 20, 0.01, 0.15, 1e-5)

        def replay(s: float) -> float:
            return rdp_to_dp(compose([MechanismEvent("dpsgd_step", q=0.01, sigma=s, repetitions=20)]), 1e-5)[0]

        assert 0.999 * 0.15 <= replay(sigma) <= 0.15
        assert replay(sigma / (1.0 + SIGMA_SEARCH_REL_TOL)) > 0.15

    def test_search_from_the_top_prices_few_noise_scales(self, monkeypatch):
        # The call above, whose window and tightness it checks: a descent from
        # sigma 1000 by a fixed 1.1 computed 70 full-grid epsilons.
        price = accounting._FineTuneEpsilon.__call__
        full_grid_sigmas = []

        def counting(self, sigma):
            if self.orders == default_orders():
                full_grid_sigmas.append(sigma)
            return price(self, sigma)

        monkeypatch.setattr(accounting._FineTuneEpsilon, "__call__", counting)
        calibrate_sigma_f([], 20, 0.01, 0.15, 1e-5)
        assert len(full_grid_sigmas) <= 15, full_grid_sigmas

    @pytest.mark.parametrize("target", [math.nan, math.inf, 0.0, -1.0])
    def test_target_is_refused_before_any_curve(self, monkeypatch, target):
        # A NaN or infinite target used to calibrate to the least noise the search allows.
        monkeypatch.setattr(accounting, "sgm_rdp_curve", self.no_curve)
        with pytest.raises(InvalidArgumentError, match="^target epsilon must be positive and finite"):
            calibrate_sigma_f(QUERY_EVENTS, 100, 0.1, target, 1e-5)

    @pytest.mark.parametrize("steps", [-1, 2.5, True, "100"])
    def test_steps_are_refused_before_any_curve(self, monkeypatch, steps):
        monkeypatch.setattr(accounting, "sgm_rdp_curve", self.no_curve)
        with pytest.raises(InvalidArgumentError, match="^steps must be a non-negative integer"):
            calibrate_sigma_f(QUERY_EVENTS, steps, 0.1, 2.0, 1e-5)

    @pytest.mark.parametrize("steps", [2**53 + 1, 10**400], ids=["2**53+1", "10**400"])
    def test_steps_float64_cannot_hold_are_refused_before_any_curve(self, monkeypatch, steps):
        monkeypatch.setattr(accounting, "sgm_rdp_curve", self.no_curve)
        with pytest.raises(InvalidArgumentError, match=r"^steps must be a non-negative integer of at most 2\*\*53"):
            calibrate_sigma_f(QUERY_EVENTS, steps, 0.1, 2.0, 1e-5)

    @pytest.mark.parametrize("rate,delta", [(math.nan, 1e-5), (0.0, 1e-5), (0.1, math.nan), (0.1, 1.0)])
    def test_rate_and_delta_are_refused_before_any_curve(self, monkeypatch, rate, delta):
        monkeypatch.setattr(accounting, "sgm_rdp_curve", self.no_curve)
        with pytest.raises(InvalidArgumentError, match="^(sampling rate|delta) must be in"):
            calibrate_sigma_f(QUERY_EVENTS, 100, rate, 2.0, delta)

    @staticmethod
    def no_curve(*args):
        raise AssertionError("a curve was computed for refused arguments")

    def test_query_stage_overdraft_names_epsilon(self):
        greedy = [MechanismEvent("mean_query", q=0.5, sigma=0.5, repetitions=200)]
        with pytest.raises(BudgetExhaustedError, match="query stage"):
            calibrate_sigma_f(greedy, 100, 0.1, 1.0, 1e-5)

    def test_certifies_the_epsilon_the_ledger_charges(self, monkeypatch):
        # compose(), and so the ledger, adds the fine-tuning curve after the
        # unpartitioned events and before the maximum over partitions. Summing
        # (unpartitioned + maximum) + fine-tuning instead moved the last bits
        # of the certified epsilon on specs 4, 5 and 6 below.
        price = accounting._FineTuneEpsilon.__call__
        priced = {}

        def recording(self, sigma):
            result = price(self, sigma)
            priced[sigma] = result[0]
            return result

        monkeypatch.setattr(accounting._FineTuneEpsilon, "__call__", recording)
        gen = np.random.default_rng(3)
        for i in range(8):
            events = [
                MechanismEvent("mean_query", float(gen.uniform(0.01, 0.2)), float(gen.uniform(2, 20)),
                               int(gen.integers(1, 20)))
                for _ in range(int(gen.integers(1, 3)))
            ]
            events += [
                MechanismEvent("mode_query", float(gen.uniform(0.01, 0.2)), float(gen.uniform(2, 20)),
                               int(gen.integers(1, 20)), f"label={k % 3}")
                for k in range(int(gen.integers(1, 5)))
            ]
            steps, rate, target = int(gen.integers(100, 3000)), float(gen.uniform(0.005, 0.05)), float(gen.uniform(2, 10))
            priced.clear()
            sigma = calibrate_sigma_f(events, steps, rate, target, 1e-5)
            fine = MechanismEvent("dpsgd_step", q=rate, sigma=sigma, repetitions=steps)
            charged, _ = rdp_to_dp(compose(events + [fine]), 1e-5)
            assert float.hex(priced[sigma]) == float.hex(charged), i


class TestPrivacySpec:
    def test_ledger_soundness(self):
        spec = PrivacySpec(target_epsilon=2.0, delta=1e-5)
        spec.record(*QUERY_EVENTS)
        sigma = calibrate_sigma_f(spec.events, 300, 0.1, 2.0, 1e-5)
        spec.sigma_f = sigma
        spec.record(MechanismEvent("dpsgd_step", q=0.1, sigma=sigma, repetitions=300))
        eps = spec.assert_within_budget()
        assert eps <= 2.0

    def test_budget_violation_raises(self):
        spec = PrivacySpec(target_epsilon=0.5, delta=1e-5)
        spec.record(MechanismEvent("dpsgd_step", q=0.5, sigma=0.6, repetitions=500))
        with pytest.raises(BudgetExhaustedError):
            spec.assert_within_budget()

    def test_event_validation(self):
        with pytest.raises(InvalidArgumentError):
            MechanismEvent("unknown", q=0.1, sigma=1.0)
        with pytest.raises(InvalidArgumentError):
            MechanismEvent("mean_query", q=0.0, sigma=1.0)
        with pytest.raises(InvalidArgumentError):
            MechanismEvent("mean_query", q=0.1, sigma=0.0)
        with pytest.raises(InvalidArgumentError):
            MechanismEvent("mean_query", q=0.1, sigma=1.0, repetitions=0)
        for sigma in (math.nan, math.inf):
            with pytest.raises(InvalidArgumentError, match="^noise scale must be positive and finite"):
                MechanismEvent("mean_query", q=0.1, sigma=sigma)

    @pytest.mark.parametrize("target", [0.0, -1.0, math.inf, math.nan])
    def test_target_must_be_positive_and_finite(self, target):
        with pytest.raises(InvalidArgumentError, match="^target epsilon must be positive and finite"):
            PrivacySpec(target_epsilon=target, delta=1e-5)
