import inspect
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import dpsynth.diffusion as diffusion_mod
from dpsynth import InvalidArgumentError, RngSeed
from dpsynth.core import clip_factors
from dpsynth.diffusion import (
    DenoiserParams,
    NoiseSchedule,
    ParamManifest,
    corrupt,
    denoiser_forward,
    forward_noise,
    init_params,
    load_checkpoint,
    loss_and_per_example_grads,
    loss_and_weighted_grad_sum,
    sample,
    save_checkpoint,
    zero_params,
)

import oracles
from oracles import clt_mean_bound, clt_variance_bound, finite_difference_gradient, noise_draws

TINY = ParamManifest(
    height=4, width=4, channels=1, hidden1=8, hidden2=7, time_dim=4, num_classes=3, label_dim=3
)


class TestNoiseSchedule:
    def test_hand_computed_alpha_bars(self):
        sched = NoiseSchedule(betas=(0.5, 0.5))
        assert np.allclose(sched.alpha_bars, [0.5, 0.25])

    def test_beta_range_enforced(self):
        with pytest.raises(InvalidArgumentError):
            NoiseSchedule(betas=(1.0,))
        with pytest.raises(InvalidArgumentError):
            NoiseSchedule(betas=(-0.1,))

    def test_alpha_bars_strictly_decreasing(self):
        sched = NoiseSchedule.linear(100)
        bars = sched.alpha_bars
        assert np.all(np.diff(bars) < 0)

    def test_default_linear_terminates_near_zero(self):
        for steps in (50, 100, 1000):
            assert NoiseSchedule.linear(steps).alpha_bars[-1] < 1e-3

    def test_linear_rejects_insufficient_corruption(self):
        with pytest.raises(InvalidArgumentError):
            NoiseSchedule.linear(100, reference_steps=100)  # literal 1e-4..0.02 over 100 steps


class TestForwardNoise:
    def test_no_corruption_at_unit_alpha_bar(self):
        x0 = np.array([0.2, 0.8, 0.4, 0.6])
        e = np.array([5.0, -5.0, 3.0, 1.0])
        assert np.allclose(corrupt(x0, 1.0, e), x0)

    def test_hand_arithmetic(self):
        # alpha_bars [0.5, 0.25]; x0 = 0, e = ones, t = 2 -> sqrt(0.75)
        sched = NoiseSchedule(betas=(0.5, 0.5))
        out = corrupt(np.zeros(4), sched.alpha_bar(2), np.ones(4))
        assert np.allclose(out, np.sqrt(0.75))

    def test_out_of_range_step(self, rng):
        sched = NoiseSchedule(betas=(0.5, 0.5))
        img = np.zeros(4)
        with pytest.raises(InvalidArgumentError):
            forward_noise(img, 0, sched, rng)
        with pytest.raises(InvalidArgumentError):
            forward_noise(img, 3, sched, rng)

    def test_moment_oracle(self):
        sched = NoiseSchedule.linear(50)
        x0_img = np.array([0.3, 0.9])
        n = 20_000
        t = 10
        abar = sched.alpha_bar(t)
        draws = np.stack(
            [forward_noise(x0_img, t, sched, RngSeed(1).derive(i))[0] for i in range(n)]
        )
        std = np.sqrt(1 - abar)
        for j in range(2):
            mean_err = abs(draws[:, j].mean() - np.sqrt(abar) * x0_img[j])
            var_err = abs(draws[:, j].var() - (1 - abar))
            assert mean_err < clt_mean_bound(std, n)
            assert var_err < clt_variance_bound(1 - abar, n)

    def test_returns_matching_noise(self, rng):
        sched = NoiseSchedule.linear(50)
        img = np.full(4, 0.5)
        xt, e = forward_noise(img, 7, sched, rng)
        assert np.allclose(xt, corrupt(img, sched.alpha_bar(7), e))


class TestDenoiserParams:
    def test_vector_is_a_read_only_copy(self):
        v = np.zeros(TINY.num_params)
        params = DenoiserParams(TINY, v)
        v[0] = 1.0  # the caller's array stays writable ...
        assert params.vector[0] == 0.0  # ... and does not alias the parameters
        with pytest.raises(ValueError):
            params.vector[0] = 2.0


class TestDenoiserForward:
    def test_zero_params_zero_output(self):
        params = zero_params(TINY)
        out = denoiser_forward(params, np.random.default_rng(0).random(16), 3)
        assert np.all(out == 0.0)

    def test_label_conditioning_changes_output(self, rng):
        params = init_params(TINY, rng)
        x = rng.derive(1).generator().random(16)
        out_class = denoiser_forward(params, x, 2, labels=1)
        out_uncond = denoiser_forward(params, x, 2)
        assert not np.allclose(out_class, out_uncond)

    def test_batch_permutation_equivariance(self, rng):
        params = init_params(TINY, rng)
        x = rng.derive(2).generator().random((5, 16))
        t = np.array([1, 2, 3, 4, 5])
        labels = np.array([0, 1, 2, 0, 1])
        perm = np.array([3, 0, 4, 1, 2])
        out = denoiser_forward(params, x, t, labels)
        out_perm = denoiser_forward(params, x[perm], t[perm], labels[perm])
        assert np.allclose(out[perm], out_perm, atol=0, rtol=0)

    def test_shape_mismatch_rejected(self, rng):
        params = init_params(TINY, rng)
        with pytest.raises(InvalidArgumentError):
            denoiser_forward(params, np.zeros(17), 1)


def _linear_tail_params() -> DenoiserParams:
    """Zero first two layers with chosen biases: output is linear in (W3, b3)."""
    gen = np.random.default_rng(8)
    vec = np.zeros(TINY.num_params)
    params = DenoiserParams(TINY, vec)
    v = params.vector.copy()
    views = TINY.views(v)
    views["b1"][:] = gen.standard_normal(TINY.hidden1)
    views["b2"][:] = gen.standard_normal(TINY.hidden2)
    views["W3"][:] = gen.standard_normal(views["W3"].shape)
    views["b3"][:] = gen.standard_normal(TINY.data_dim)
    return DenoiserParams(TINY, v)


class TestGradients:
    def test_hand_derived_linear_tail_gradient(self):
        # With W1 = W2 = 0 the hidden activations are constants, so the loss
        # is exactly least squares in (W3, b3); compare against the closed
        # form written out by hand.
        params = _linear_tail_params()
        views = TINY.views(params.vector)
        sched = NoiseSchedule(betas=(0.3,))
        x0 = np.random.default_rng(3).random((1, 16))
        res = loss_and_per_example_grads(
            params, x0, None, sched, RngSeed(5), noise_multiplicity=1, example_ids=[0]
        )
        # replay the single (t, e) draw the engine used
        gen = RngSeed(5).derive(0).generator()
        t = gen.integers(1, 2, size=1)
        e = gen.standard_normal((1, 16))

        def silu(x):
            return x / (1 + np.exp(-x))

        h1 = silu(views["b1"])
        h2 = silu(views["b2"] + views["W2"] @ h1)
        out = views["W3"] @ h2 + views["b3"]
        resid = out - e[0]
        grad_w3 = 2.0 * np.outer(resid, h2)
        grad_b3 = 2.0 * resid

        gviews = TINY.views(res.per_example_grads[0])
        assert np.allclose(gviews["W3"], grad_w3, rtol=1e-12, atol=1e-12)
        assert np.allclose(gviews["b3"], grad_b3, rtol=1e-12, atol=1e-12)
        assert res.loss == pytest.approx(float(resid @ resid), rel=1e-12)

    def test_finite_difference_oracle(self, rng):
        params = init_params(TINY, rng)
        sched = NoiseSchedule.linear(10)
        x0 = rng.derive(3).generator().random((3, 16))
        labels = np.array([0, 2, 1])

        def f(vec):
            p = params.replace_vector(vec)
            r = loss_and_per_example_grads(
                p, x0, labels, sched, rng.derive(4), noise_multiplicity=2, example_ids=[7, 8, 9]
            )
            return r.loss

        analytic = loss_and_per_example_grads(
            params, x0, labels, sched, rng.derive(4), noise_multiplicity=2, example_ids=[7, 8, 9]
        ).per_example_grads.mean(axis=0)
        fd = finite_difference_gradient(f, params.vector.copy(), 1e-5)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-3 * np.abs(fd).max())
        assert (np.abs(fd - analytic) / denom).max() < 1e-5

    def test_per_example_grads_match_singleton_batches(self, rng):
        params = init_params(TINY, rng)
        sched = NoiseSchedule.linear(10)
        x0 = rng.derive(5).generator().random((4, 16))
        labels = np.array([0, 1, 2, 0])
        ids = [11, 22, 33, 44]
        batched = loss_and_per_example_grads(
            params, x0, labels, sched, rng.derive(6), example_ids=ids
        )
        scale = np.abs(batched.per_example_grads).max()
        for i in range(4):
            single = loss_and_per_example_grads(
                params, x0[i : i + 1], labels[i : i + 1], sched, rng.derive(6), example_ids=[ids[i]]
            )
            assert np.allclose(
                single.per_example_grads[0],
                batched.per_example_grads[i],
                rtol=1e-12,
                atol=1e-12 * scale,
            )
        # batch loss is the mean of per-example losses
        assert batched.loss == pytest.approx(batched.per_example_losses.mean(), rel=1e-12)

    def test_noise_multiplicity_reduces_gradient_variance(self, rng):
        params = init_params(TINY, rng)
        sched = NoiseSchedule.linear(10)
        x0 = rng.derive(7).generator().random((1, 16))

        def grad_with(k, trial):
            r = loss_and_per_example_grads(
                params, x0, None, sched, rng.derive(100 + trial), noise_multiplicity=k
            )
            return r.per_example_grads[0]

        g1 = np.stack([grad_with(1, t) for t in range(100)])
        g4 = np.stack([grad_with(4, t) for t in range(100)])
        assert g4.var(axis=0).mean() < g1.var(axis=0).mean()


def _random_manifest(gen) -> ParamManifest:
    return ParamManifest(
        height=int(gen.integers(2, 5)),
        width=int(gen.integers(2, 5)),
        channels=int(gen.choice([1, 3])),
        hidden1=int(gen.integers(4, 10)),
        hidden2=int(gen.integers(4, 10)),
        time_dim=int(gen.choice([2, 4, 8])),
        num_classes=int(gen.integers(2, 5)),
        label_dim=int(gen.integers(2, 5)),
    )


def _close(a, b) -> bool:
    """Within 1e-12 of the largest entry of the reference b."""
    return np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1e-300)


class TestWeightedGradSum:
    """The fused path against the materialising reference, on A6-style manifests."""

    CASES = [
        (k, n, with_labels, with_ids)
        for k in (1, 2, 4)
        for n in (1, 6)
        for with_labels in (True, False)
        for with_ids in (True, False)
    ]

    @pytest.mark.parametrize("k,n,with_labels,with_ids", CASES)
    def test_matches_materialised_reference(self, k, n, with_labels, with_ids):
        gen = np.random.default_rng([k, n, with_labels, with_ids])
        m = _random_manifest(gen)
        schedule = NoiseSchedule.linear(int(gen.integers(5, 30)))
        params = init_params(m, RngSeed(int(gen.integers(1000))))
        x0 = gen.random((n, m.data_dim))
        # two classes at most, so a batch of 6 repeats labels (and None repeats the sentinel)
        labels = gen.integers(0, 2, n) if with_labels else None
        ids = gen.permutation(500)[:n] if with_ids else None
        args = (params, x0, labels, schedule, RngSeed(31).derive(k, n))

        ref = loss_and_per_example_grads(*args, k, ids)
        ref_norms = np.linalg.norm(ref.per_example_grads, axis=1)
        bound = float(np.median(ref_norms)) * 0.9  # clips some rows, not necessarily all

        def clip(norms):
            return clip_factors(norms, bound)

        total, norms, loss = loss_and_weighted_grad_sum(*args, clip, k, ids)
        expected = (ref.per_example_grads * clip(ref_norms)[:, None]).sum(axis=0)
        assert _close(norms, ref_norms)
        assert _close(total, expected)
        assert loss == pytest.approx(ref.loss, rel=1e-12)

        mean, _, _ = loss_and_weighted_grad_sum(*args, lambda nn: np.full(n, 1.0 / n), k, ids)
        assert _close(mean, ref.per_example_grads.mean(axis=0))

    def test_empty_batch(self, rng):
        params = init_params(TINY, rng)
        total, norms, loss = loss_and_weighted_grad_sum(
            params, np.zeros((0, 16)), None, NoiseSchedule.linear(10), rng, np.ones_like
        )
        assert np.array_equal(total, np.zeros(TINY.num_params)) and norms.shape == (0,) and loss == 0.0

    def test_weights_must_match_batch(self, rng):
        params = init_params(TINY, rng)
        with pytest.raises(InvalidArgumentError, match="one factor per example"):
            loss_and_weighted_grad_sum(
                params, np.zeros((3, 16)), None, NoiseSchedule.linear(10), rng, lambda nn: np.ones(2)
            )


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("example_ids", [None, [4, 0, 91, 4, 17]], ids=["one-stream", "per-example"])
def test_noise_draws_equal_the_per_example_loop(k, example_ids):
    sched = NoiseSchedule.linear(10)
    ts, es = diffusion_mod._noise_draws(TINY, sched, RngSeed(8), 5, k, example_ids)
    want_ts, want_es = noise_draws(TINY.data_dim, sched.num_steps, RngSeed(8), 5, k, example_ids)
    assert ts.dtype == want_ts.dtype and np.array_equal(ts, want_ts)
    assert np.array_equal(es, want_es)


def _sigmoid_grid() -> np.ndarray:
    """Every band edge of exp(-x) with its float neighbours, the extremes and some ordinary values."""
    tiny = np.finfo(np.float64).tiny
    points = [0.0, -0.0, 5e-324, -5e-324, tiny / 3, -tiny / 3, tiny, 1e300, -1e300, np.inf, -np.inf, np.nan]
    for edge in (40.0, 708.0, 709.78, 745.0):
        for x in (edge, -edge):
            points += [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]
    return np.concatenate([points, np.linspace(-800.0, 800.0, 3201)])


def test_sigmoid_is_bit_identical_to_the_unclamped_one():
    x = _sigmoid_grid()
    want = oracles.sigmoid(x)
    got = diffusion_mod._sigmoid(x)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(x, _sigmoid_grid(), equal_nan=True)  # the input is left alone


def test_sigmoid_keeps_exp_off_its_underflow_path():
    # Far above 745, exp(-x) underflows, one slow element at a time; the clamp
    # keeps exp's argument at -40 there. The unclamped form raises here.
    x = np.array([750.0, 1e300, np.inf])
    with np.errstate(under="raise"):
        assert np.array_equal(diffusion_mod._sigmoid(x), np.ones(3))
        with pytest.raises(FloatingPointError, match="underflow"):
            oracles.sigmoid(x)


def test_alpha_bars_are_computed_once_and_read_only():
    sched = NoiseSchedule.linear(20)
    assert sched.alpha_bars is sched.alpha_bars
    assert not sched.alpha_bars.flags.writeable
    with pytest.raises(ValueError):
        sched.alpha_bars[0] = 1.0


@pytest.mark.parametrize("n", [1, 7, 250])
@pytest.mark.parametrize("labels", ["unconditional", "scalar", "array"])
@pytest.mark.parametrize("shape", [(8, 8, 1), (28, 28, 1), (8, 8, 3)], ids=["8x8x1", "28x28x1", "8x8x3"])
def test_sample_is_bit_identical_to_the_per_step_sampler(monkeypatch, shape, labels, n):
    h, w, c = shape
    m = ParamManifest(height=h, width=w, channels=c, hidden1=12, hidden2=10, time_dim=6, num_classes=4, label_dim=3)
    sched = NoiseSchedule.linear(5)
    lab = {"unconditional": None, "scalar": 2, "array": np.arange(n) % (m.num_classes + 1)}[labels]
    seen = []
    sigmoid = diffusion_mod._sigmoid

    def recording_sigmoid(x):
        seen.append((x.min(), x.max()))
        return sigmoid(x)

    monkeypatch.setattr(diffusion_mod, "_sigmoid", recording_sigmoid)
    base = init_params(m, RngSeed(sum(shape) + n))
    step_bytes = n * m.data_dim * 8
    # two noise blocks of K = 1 step, of K = 2 < T = 5 with T mod K = 1, and of K = T
    for block_bytes in (2 * step_bytes, 4 * step_bytes, 10 * step_bytes):
        monkeypatch.setattr(diffusion_mod, "NOISE_BLOCK_BYTES", block_bytes)
        # ordinary weights, and weights scaled so that hidden inputs pass +-745
        for scale in (1.0, 60.0):
            params = base.replace_vector(scale * base.vector)
            got = sample(params, sched, n, RngSeed(9), labels=lab)
            want = oracles.sample(params, sched, n, RngSeed(9), labels=lab)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (block_bytes, scale)
    assert min(lo for lo, _ in seen) < -745.0 and max(hi for _, hi in seen) > 745.0


class TestSampling:
    def test_zero_model_matches_hand_rolled_chain(self, monkeypatch):
        # With a zero denoiser the chain is a deterministic function of the
        # injected Gaussians; replay it step by step, one draw per step.
        params = zero_params(TINY)
        sched = NoiseSchedule.linear(8)
        abars = sched.alpha_bars
        T = sched.num_steps
        expected = []
        for i in range(2):
            gen = RngSeed(77).derive(i).generator()
            x = gen.standard_normal(16)
            for t in range(T, 0, -1):
                x0_hat = x / np.sqrt(abars[t - 1])
                if t > 1:
                    x = np.sqrt(abars[t - 2]) * x0_hat + np.sqrt(1 - abars[t - 2]) * gen.standard_normal(16)
            expected.append(np.clip(x0_hat, 0.0, 1.0))
        step_bytes = 2 * 16 * 8  # one step's noise for both chains
        # two noise blocks of K = 1 step, K = 3 < T with T mod K = 2, and K = T (the default here)
        for block_bytes in (2 * step_bytes, 6 * step_bytes, diffusion_mod.NOISE_BLOCK_BYTES):
            monkeypatch.setattr(diffusion_mod, "NOISE_BLOCK_BYTES", block_bytes)
            out = sample(params, sched, 2, RngSeed(77))
            assert np.array_equal(out, np.array(expected)), block_bytes

    @pytest.mark.parametrize("block_bytes", [None, 1], ids=["default", "one-step"])
    def test_noise_buffer_stays_within_its_bound(self, monkeypatch, block_bytes):
        # Every allocation made on a line of `sample` and held while the
        # chains run, the pair of noise blocks included, is at most
        # max(NOISE_BLOCK_BYTES, 2*n*D*8) bytes, plus the array's header.
        # Here the whole chain's noise, n*T*D*8 = 3.1 MiB, would not be.
        if block_bytes is not None:
            monkeypatch.setattr(diffusion_mod, "NOISE_BLOCK_BYTES", block_bytes)
        manifest = ParamManifest(
            height=8, width=8, channels=1, hidden1=8, hidden2=8, time_dim=4, num_classes=3, label_dim=3
        )
        n, T = 64, 100
        bound = max(diffusion_mod.NOISE_BLOCK_BYTES, 2 * n * manifest.data_dim * 8)
        assert n * T * manifest.data_dim * 8 > bound
        lines, first = inspect.getsourcelines(diffusion_mod.sample)
        in_sample = [
            tracemalloc.Filter(True, diffusion_mod.__file__, lineno)
            for lineno in range(first, first + len(lines))
        ]
        calls, held = [], []
        forward = diffusion_mod._forward_cached

        def tracing_forward(*args):
            calls.append(1)
            if len(calls) % 7 in (1, 2):  # snapshots are slow: two steps in seven
                snapshot = tracemalloc.take_snapshot().filter_traces(in_sample)
                held.append(max(stat.size for stat in snapshot.statistics("lineno")))
            return forward(*args)

        monkeypatch.setattr(diffusion_mod, "_forward_cached", tracing_forward)
        tracemalloc.start()
        try:
            sample(zero_params(manifest), NoiseSchedule.linear(T), n, RngSeed(5))
        finally:
            tracemalloc.stop()
        assert len(calls) == T
        assert max(held) <= bound + 1024
        assert max(held) >= min(bound, n * T * manifest.data_dim * 8) // 2  # the buffer itself was seen

    def test_prefetch_is_exact_under_frequent_thread_switches(self, monkeypatch):
        # The worker writes one block while the calling thread reads the
        # other; switching threads every microsecond would expose a fill that
        # overwrote a block still being read.
        m = ParamManifest(height=8, width=8, channels=1, hidden1=12, hidden2=10, time_dim=6, num_classes=4, label_dim=3)
        params, sched, n = init_params(m, RngSeed(3)), NoiseSchedule.linear(12), 40
        want = oracles.sample(params, sched, n, RngSeed(4), labels=np.arange(n) % 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for k in (1, 5):
                monkeypatch.setattr(diffusion_mod, "NOISE_BLOCK_BYTES", 2 * k * n * m.data_dim * 8)
                got = sample(params, sched, n, RngSeed(4), labels=np.arange(n) % 5)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), k
        finally:
            sys.setswitchinterval(interval)

    def test_denoiser_error_propagates_and_the_worker_is_joined(self, monkeypatch):
        # One-step blocks, so a fill is in flight at every step.
        monkeypatch.setattr(diffusion_mod, "NOISE_BLOCK_BYTES", 1)
        calls = []

        def failing_forward(*args):
            calls.append(1)
            if len(calls) == 3:
                assert any(t.name.startswith("ThreadPoolExecutor") for t in threading.enumerate())
                raise ArithmeticError("denoiser failed")
            return forward(*args)

        forward = diffusion_mod._forward_cached
        monkeypatch.setattr(diffusion_mod, "_forward_cached", failing_forward)
        before = set(threading.enumerate())
        with pytest.raises(ArithmeticError, match="denoiser failed") as raised:
            sample(init_params(TINY, RngSeed(1)), NoiseSchedule.linear(8), 3, RngSeed(2))
        # `raised` holds sample's frame and so its executor: only a join has ended the worker.
        assert set(threading.enumerate()) == before, raised
        assert len(calls) == 3

    def test_fill_error_propagates(self, monkeypatch):
        # Each chain's second draw is the first made by the worker (block 1).
        raised_on = []

        class SecondDrawFails:
            def __init__(self, gen):
                self.gen, self.draws = gen, 0

            def standard_normal(self, *args, **kwargs):
                self.draws += 1
                if self.draws == 2:
                    raised_on.append(threading.current_thread())
                    raise OverflowError("noise draw failed")
                return self.gen.standard_normal(*args, **kwargs)

        params = init_params(TINY, RngSeed(1))
        real = RngSeed.generator
        monkeypatch.setattr(RngSeed, "generator", lambda self, *a, **k: SecondDrawFails(real(self, *a, **k)))
        monkeypatch.setattr(diffusion_mod, "NOISE_BLOCK_BYTES", 1)
        before = set(threading.enumerate())
        with pytest.raises(OverflowError, match="noise draw failed") as raised:
            sample(params, NoiseSchedule.linear(8), 3, RngSeed(2))
        assert raised_on and threading.main_thread() not in raised_on
        assert set(threading.enumerate()) == before, raised

    def test_empty_request(self, rng):
        params = zero_params(TINY)
        assert sample(params, NoiseSchedule.linear(8), 0, rng).shape == (0, 16)

    def test_determinism(self, rng):
        params = init_params(TINY, rng)
        sched = NoiseSchedule.linear(8)
        a = sample(params, sched, 3, RngSeed(5), labels=np.array([0, 1, 2]))
        b = sample(params, sched, 3, RngSeed(5), labels=np.array([0, 1, 2]))
        assert np.array_equal(a, b)

    def test_exactly_t_denoiser_evaluations(self, rng, monkeypatch):
        params = init_params(TINY, rng)
        sched = NoiseSchedule.linear(9)
        calls = []
        original = diffusion_mod._forward_cached

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(diffusion_mod, "_forward_cached", counting)
        sample(params, sched, 4, RngSeed(0))
        assert len(calls) == sched.num_steps

    def test_outputs_clamped_to_unit_range(self, rng):
        params = init_params(TINY, rng)
        out = sample(params, NoiseSchedule.linear(8), 5, rng)
        for img in out:
            assert img.min() >= 0.0 and img.max() <= 1.0


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path, rng):
        params = init_params(TINY, rng)
        sched = NoiseSchedule.linear(12)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, sched)
        loaded_params, loaded_sched = load_checkpoint(path)
        assert np.array_equal(loaded_params.vector, params.vector)
        assert loaded_sched.betas == sched.betas
        assert loaded_params.manifest == params.manifest
        first = path.read_bytes()
        save_checkpoint(path, loaded_params, loaded_sched)
        assert path.read_bytes() == first

    def test_truncated_checkpoint_rejected(self, tmp_path, rng):
        params = init_params(TINY, rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, NoiseSchedule.linear(12))
        data = path.read_bytes()
        path.write_bytes(data[:-17])
        with pytest.raises(InvalidArgumentError, match="truncated"):
            load_checkpoint(path)

    def test_corrupted_payload_rejected(self, tmp_path, rng):
        params = init_params(TINY, rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, NoiseSchedule.linear(12))
        data = bytearray(path.read_bytes())
        data[-5] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(InvalidArgumentError, match="checksum"):
            load_checkpoint(path)
