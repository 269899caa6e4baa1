import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dpsynth import (
    BudgetExhaustedError,
    DpSgdConfig,
    LabeledDataset,
    MechanismEvent,
    PrivacySpec,
    RngSeed,
    TrainHooks,
    clip_rows,
)
from dpsynth.core import InvalidArgumentError, clip_factors, gaussian_noise
from dpsynth.diffusion import (
    NoiseSchedule,
    ParamManifest,
    init_params,
    loss_and_per_example_grads,
    loss_and_weighted_grad_sum,
    zero_params,
)
from dpsynth.dpsgd import dp_step, train

MANIFEST = ParamManifest(
    height=4, width=4, channels=1, hidden1=8, hidden2=7, time_dim=4, num_classes=3, label_dim=3
)
SCHED = NoiseSchedule.linear(10)


@pytest.fixture(scope="module")
def ds():
    gen = np.random.default_rng(11)
    pixels = gen.random((24, 16))
    return LabeledDataset.from_arrays(pixels, gen.integers(0, 3, 24).tolist(), 3, (4, 4, 1))


def diffusion_engine(p, x0, labels, erng, weights, example_ids=None):
    return loss_and_weighted_grad_sum(p, x0, labels, SCHED, erng, weights, 1, example_ids)


def zero_engine(p, x0, labels, erng, weights, example_ids=None):
    return np.zeros(p.manifest.num_params), np.zeros(x0.shape[0]), 0.0


class TestClipGradient:
    """One gradient clipped as a 1-row matrix by `clip_rows`."""

    def test_norm_halved_to_bound(self):
        g = np.full((1, 16), 1.0)  # norm 4
        out = clip_rows(g, 2.0)
        assert np.linalg.norm(out) == pytest.approx(2.0, rel=1e-12)

    def test_inactive_inside_ball(self):
        g = np.array([[0.3, 0.4]])  # norm 0.5
        assert np.array_equal(clip_rows(g, 1.0), g)

    def test_zero_gradient(self):
        assert np.all(clip_rows(np.zeros((1, 5)), 1.0) == 0.0)


class TestClipFactors:
    def test_factors_and_inactive_rows(self):
        f = clip_factors(np.array([0.0, 0.5, 1.0, 4.0]), 1.0)
        assert np.array_equal(f, [1.0, 1.0, 1.0, 0.25])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_norm_fails_closed(self, bad):
        with pytest.raises(InvalidArgumentError, match="not finite"):
            clip_factors(np.array([0.3, bad]), 1.0)

    def test_non_finite_norm_fails_closed_under_optimize(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import numpy as np\n"
            "from dpsynth.core import InvalidArgumentError, clip_factors\n"
            "try:\n"
            "    clip_factors(np.array([1.0, np.nan]), 0.5)\n"
            "except InvalidArgumentError:\n"
            "    print('raised')\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(InvalidArgumentError):
            clip_factors(np.ones(3), 0.0)


class TestFusedClippedSum:
    def test_neighbouring_datasets_differ_by_at_most_clip_bound(self):
        """D versus D + {x}: the clipped sums differ by x's clipped gradient alone."""
        gen = np.random.default_rng(404)
        worst = 0.0
        for pair in range(200):
            params = init_params(MANIFEST, RngSeed(pair % 7))
            n = int(gen.integers(0, 20))
            pixels = gen.random((n + 1, MANIFEST.data_dim))
            labels = gen.integers(0, MANIFEST.num_classes, n + 1)
            ids = gen.permutation(1000)[: n + 1]
            shared = np.flatnonzero(gen.random(n) < gen.uniform(0.1, 0.9))
            with_new = np.append(shared, n)
            bound = float(gen.uniform(0.05, 3.0))
            k = int(gen.choice([1, 2]))
            erng = RngSeed(77).derive(pair)

            def clipped_sum(rows):
                s, _, _ = loss_and_weighted_grad_sum(
                    params, pixels[rows], labels[rows], SCHED, erng,
                    lambda norms: clip_factors(norms, bound), k, ids[rows],
                )
                return s

            diff = float(np.linalg.norm(clipped_sum(with_new) - clipped_sum(shared)))
            worst = max(worst, diff / bound)
            assert diff <= bound * (1 + 1e-12), f"pair {pair}: {diff} > {bound}"
        assert worst > 0.5  # the bound is reached, not trivially satisfied


class TestDpSgdConfig:
    @pytest.mark.parametrize("scale", [0.0, -1.0, float("inf"), float("nan")])
    def test_noise_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(InvalidArgumentError, match="^noise scale must be positive and finite"):
            DpSgdConfig(learning_rate=0.1, clip_bound=1.0, noise_scale=scale, sampling_rate=0.5, steps=1)

    @pytest.mark.parametrize("name", ["learning_rate", "clip_bound"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan")])
    def test_rates_must_be_positive_and_finite(self, name, value):
        kwargs = dict(learning_rate=0.1, clip_bound=1.0, noise_scale=1.0, sampling_rate=0.5, steps=1)
        with pytest.raises(InvalidArgumentError, match=f"^{name.replace('_', ' ')} must be positive and finite"):
            DpSgdConfig(**{**kwargs, name: value})

    def test_zero_noise_is_refused_under_optimize(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "from dpsynth.dpsgd import DpSgdConfig\n"
            "from dpsynth.core import InvalidArgumentError\n"
            "try:\n"
            "    DpSgdConfig(learning_rate=0.1, clip_bound=1.0, noise_scale=0, sampling_rate=0.5, steps=1)\n"
            "except InvalidArgumentError as exc:\n"
            "    print(exc)\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "noise scale must be positive and finite, got 0"


class TestDpStep:
    def test_is_full_batch_sgd_plus_its_noise_draw(self, ds):
        params = init_params(MANIFEST, RngSeed(1))
        big_clip = 1e9  # inactive
        scale = 1e-15  # a zero scale is refused; the step's noise std is big_clip / 24 * scale
        cfg = DpSgdConfig(learning_rate=0.1, clip_bound=big_clip, noise_scale=scale, sampling_rate=1.0, steps=1)
        stepped, event, stats = dp_step(params, ds, cfg, diffusion_engine, RngSeed(2))
        assert (event.kind, event.q, event.sigma) == ("dpsgd_step", 1.0, scale)
        assert stats.batch_size == len(ds)
        args = (params, ds.pixels, ds.labels, SCHED, RngSeed(2).derive(2))
        ids = np.arange(len(ds))
        grad_sum, _, _ = loss_and_weighted_grad_sum(*args, np.ones_like, 1, ids)
        noise = gaussian_noise(grad_sum.shape, big_clip / len(ds) * scale, RngSeed(2).derive(1))
        expected = params.vector - 0.1 * (grad_sum / len(ds) + noise)
        # with q = 1 the private step IS the plain SGD step plus its noise draw, bit for bit
        assert np.array_equal(stepped.vector, expected)
        # and the engine's unclipped sum is the materialised per-example sum
        reference = loss_and_per_example_grads(*args, 1, ids).per_example_grads.sum(axis=0)
        assert np.abs(grad_sum - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_single_example_closed_form_clipped(self, ds):
        params = init_params(MANIFEST, RngSeed(3))
        one = ds.subset([5])
        scale = 1e-9  # a zero scale is refused; the step's noise std is 0.5 * scale
        cfg = DpSgdConfig(learning_rate=1.0, clip_bound=0.5, noise_scale=scale, sampling_rate=1.0, steps=1)
        stepped, event, _ = dp_step(params, one, cfg, diffusion_engine, RngSeed(4))
        assert (event.kind, event.q, event.sigma) == ("dpsgd_step", 1.0, scale)
        g = loss_and_per_example_grads(
            params, one.pixels, one.labels, SCHED, RngSeed(4).derive(2), 1, [0]
        ).per_example_grads[0]
        clipped = g * min(1.0, 0.5 / np.linalg.norm(g))
        noise = gaussian_noise(g.shape, 0.5 * scale, RngSeed(4).derive(1))
        assert np.allclose(stepped.vector, params.vector - (clipped + noise), rtol=1e-12, atol=1e-15)

    def test_noise_statistics_oracle(self, ds):
        # zero gradients: updates are pure Gaussian with std C sigma / B*
        params = zero_params(MANIFEST)
        cfg = DpSgdConfig(learning_rate=2.0, clip_bound=3.0, noise_scale=1.5, sampling_rate=0.5, steps=1)
        b_star = cfg.expected_batch(len(ds))
        draws = []
        p = params
        for step in range(500):
            p2, _, _ = dp_step(p, ds, cfg, zero_engine, RngSeed(6).derive(step))
            draws.append((p2.vector - p.vector) / -cfg.learning_rate)
            p = p2
        draws = np.concatenate(draws)
        target = cfg.clip_bound * cfg.noise_scale / b_star
        assert abs(draws.std() - target) / target < 0.05

    def test_empty_batch_is_pure_noise_step(self, ds):
        params = zero_params(MANIFEST)
        cfg = DpSgdConfig(learning_rate=1.0, clip_bound=1.0, noise_scale=1.0, sampling_rate=1e-9, steps=1)
        stepped, event, stats = dp_step(params, ds, cfg, diffusion_engine, RngSeed(7))
        assert stats.batch_size == 0
        assert event is not None
        assert not np.array_equal(stepped.vector, params.vector)


class TestTrain:
    def test_zero_steps_no_events(self, ds):
        params = init_params(MANIFEST, RngSeed(8))
        cfg = DpSgdConfig(learning_rate=0.1, clip_bound=1.0, noise_scale=1.0, sampling_rate=0.5, steps=0)
        ledger = PrivacySpec(10.0, 1e-5)
        out = train(params, ds, cfg, diffusion_engine, ledger, RngSeed(9))
        assert np.array_equal(out.vector, params.vector)
        assert ledger.events == []

    def test_one_event_per_step(self, ds):
        params = init_params(MANIFEST, RngSeed(8))
        cfg = DpSgdConfig(learning_rate=0.1, clip_bound=1.0, noise_scale=5.0, sampling_rate=0.5, steps=7)
        ledger = PrivacySpec(10.0, 1e-5)
        train(params, ds, cfg, diffusion_engine, ledger, RngSeed(9))
        assert len(ledger.events) == 7
        assert all(ev.kind == "dpsgd_step" and ev.sigma == 5.0 for ev in ledger.events)

    def test_resumption_equivalence(self, ds):
        params = init_params(MANIFEST, RngSeed(8))
        cfg20 = DpSgdConfig(learning_rate=0.1, clip_bound=1.0, noise_scale=2.0, sampling_rate=0.5, steps=20)
        cfg10 = DpSgdConfig(learning_rate=0.1, clip_bound=1.0, noise_scale=2.0, sampling_rate=0.5, steps=10)
        straight = train(params, ds, cfg20, diffusion_engine, None, RngSeed(9))
        half = train(params, ds, cfg10, diffusion_engine, None, RngSeed(9))
        resumed = train(half, ds, cfg20, diffusion_engine, None, RngSeed(9), start_step=10)
        assert np.array_equal(straight.vector, resumed.vector)

    def test_budget_overrun_aborts(self, ds):
        params = init_params(MANIFEST, RngSeed(8))
        cfg = DpSgdConfig(learning_rate=0.1, clip_bound=1.0, noise_scale=0.6, sampling_rate=1.0, steps=50)
        ledger = PrivacySpec(target_epsilon=1.0, delta=1e-5)
        with pytest.raises(BudgetExhaustedError):
            train(params, ds, cfg, diffusion_engine, ledger, RngSeed(9), hooks=TrainHooks(budget_check_every=1))

    def test_ledger_replay_within_target_after_calibration(self, ds):
        from dpsynth.accounting import calibrate_sigma_f

        query = [MechanismEvent("mean_query", q=0.2, sigma=6.0, repetitions=5)]
        sigma_f = calibrate_sigma_f(query, 30, 0.5, 3.0, 1e-5)
        ledger = PrivacySpec(3.0, 1e-5, events=list(query), sigma_f=sigma_f)
        cfg = DpSgdConfig(learning_rate=0.1, clip_bound=1.0, noise_scale=sigma_f, sampling_rate=0.5, steps=30)
        params = init_params(MANIFEST, RngSeed(8))
        train(params, ds, cfg, diffusion_engine, ledger, RngSeed(9))
        eps = ledger.assert_within_budget()
        assert eps <= 3.0

    def test_step_callback_sees_every_step(self, ds):
        seen = []
        hooks = TrainHooks(on_step=lambda s: seen.append(s.step))
        params = init_params(MANIFEST, RngSeed(8))
        cfg = DpSgdConfig(learning_rate=0.1, clip_bound=1.0, noise_scale=2.0, sampling_rate=0.5, steps=5)
        train(params, ds, cfg, diffusion_engine, None, RngSeed(9), hooks=hooks)
        assert seen == [0, 1, 2, 3, 4]
