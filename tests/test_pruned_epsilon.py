"""The pruned (epsilon, order) conversion is the full-grid one, bit for bit.

`epsilon_with_fine_tuning` prices every integer order but only the
fractional orders whose lower bound (the curve at the integer order below,
plus log(1/delta)/(alpha-1)) can reach the integer minimum. These tests hold
its result, order included, equal to `rdp_to_dp(compose(...))` on the full
grid, and hold a quadrature over a subset of a grid, on the grid's span, to
the full grid's bits.
"""

import numpy as np
import pytest

from dpsynth import InvalidArgumentError, MechanismEvent
from dpsynth.accounting import (
    _fractional_log_moments,
    compose,
    default_orders,
    epsilon_with_fine_tuning,
    rdp_to_dp,
)

GRIDS = {
    "default": default_orders(),
    "integers": tuple(float(a) for a in range(2, 65)),
    "fractional": (1.25, 1.5, 1.75, 2.5, 3.25, 4.5, 6.5, 9.75, 16.5, 31.5, 63.5),
    # fractional orders below 2, between integers, and above the largest one
    "mixed": (1.1, 1.5, 2.0, 3.0, 3.5, 4.0, 6.0, 6.25, 6.5, 8.0, 12.0, 12.5, 20.0, 24.75, 40.5, 90.5, 127.5),
}


def draw_case(gen: np.random.Generator, partitions: list) -> tuple:
    """(query events, fine-tuning event, delta): rates include q = 1, noise 0.6-20 (log-uniform)."""

    def rate() -> float:
        return 1.0 if gen.random() < 0.2 else float(np.exp(gen.uniform(np.log(1e-3), np.log(0.2))))

    def sigma() -> float:
        return float(np.exp(gen.uniform(np.log(0.6), np.log(20.0))))

    events = [
        MechanismEvent(
            "mean_query", q=rate(), sigma=sigma(), repetitions=int(gen.integers(1, 51)),
            partition=partitions[gen.integers(len(partitions))],
        )
        for _ in range(gen.integers(0, 4))
    ]
    fine = MechanismEvent("dpsgd_step", q=rate(), sigma=sigma(), repetitions=int(gen.integers(1, 3001)))
    return events, fine, float(gen.choice([1e-5, 1e-3, 0.1]))


def full_grid(evs, fine, delta, orders):
    return rdp_to_dp(compose(evs + [fine], orders), delta)


def check(evs, fine, delta, orders):
    eps, alpha = epsilon_with_fine_tuning(evs, fine, delta, orders)
    want_eps, want_alpha = full_grid(evs, fine, delta, orders)
    assert float.hex(eps) == float.hex(want_eps), (evs, fine, delta)
    assert alpha == want_alpha, (evs, fine, delta)


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize(
    "partitions", [[None], [None, "label=0", "label=1"]], ids=["unpartitioned", "partitioned"]
)
def test_random_cases(grid, partitions):
    gen = np.random.default_rng([sorted(GRIDS).index(grid), len(partitions)])
    for _ in range(20):
        check(*draw_case(gen, partitions), GRIDS[grid])


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("sigma", [0.7, 1.3, 4.0])
def test_fractional_minimum_is_found(grid, sigma):
    # Low noise over many steps: the minimum sits well inside the grid, often at a fractional order.
    query = [MechanismEvent("mean_query", q=0.05, sigma=10.0, repetitions=7)]
    check(query, MechanismEvent("dpsgd_step", q=0.02, sigma=sigma, repetitions=1500), 1e-5, GRIDS[grid])


def test_minimum_below_two_and_above_the_integers():
    mixed = GRIDS["mixed"]
    # Heavy noise: the minimising order is the largest, 127.5, above every integer order.
    heavy = MechanismEvent("dpsgd_step", q=0.01, sigma=60.0, repetitions=10)
    assert full_grid([], heavy, 1e-5, mixed)[1] == 127.5
    check([], heavy, 1e-5, mixed)
    # One costly full-batch release at a loose delta: the minimum sits at an order below 2.
    costly = MechanismEvent("dpsgd_step", q=1.0, sigma=0.5, repetitions=1)
    assert full_grid([], costly, 0.5, mixed)[1] < 2.0
    check([], costly, 0.5, mixed)


def test_partitioned_fine_tuning_and_empty_grid_are_refused():
    fine = MechanismEvent("dpsgd_step", q=0.02, sigma=1.0, repetitions=10)
    with pytest.raises(InvalidArgumentError, match="partition"):
        epsilon_with_fine_tuning([], MechanismEvent("dpsgd_step", 0.02, 1.0, 10, "label=0"), 1e-5)
    with pytest.raises(InvalidArgumentError, match="delta"):
        epsilon_with_fine_tuning([], fine, 1.0)
    with pytest.raises(InvalidArgumentError, match="empty curve"):
        epsilon_with_fine_tuning([], fine, 1e-5, ())


FRACTIONAL = np.array([a for a in default_orders() if not float(a).is_integer()])
SUBSETS = [
    [0, 1, 2],  # the orders below 2
    list(range(10, 16)),
    [3, 40, 77, 128],
    [128],  # the largest order, which fixes the span
    list(range(0, 129, 5)),
]


@pytest.mark.parametrize("q,sigma", [(1e-4, 0.3), (0.3, 0.47), (0.02, 1.2), (0.3, 17.0), (0.02, 300.0)])
def test_subset_on_the_grid_span_has_the_grid_bits(q, sigma):
    full = _fractional_log_moments(q, sigma, FRACTIONAL)
    for ix in SUBSETS:
        sub = _fractional_log_moments(q, sigma, FRACTIONAL[ix], float(FRACTIONAL.max()))
        np.testing.assert_array_equal(sub.view(np.int64), full[ix].view(np.int64))
