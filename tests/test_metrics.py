import tracemalloc

import numpy as np
import pytest

from dpsynth import InvalidArgumentError, LabeledDataset, RngSeed, generate_toy_glyphs
from dpsynth.diffusion import DenoiserParams, NoiseSchedule, ParamManifest, init_params, zero_params
from dpsynth import metrics as metrics_mod
from dpsynth.metrics import (
    LOSS_CHUNK,
    FeatureExtractor,
    denoising_loss_estimate,
    frechet_distance,
    train_probe_classifier,
)

import oracles
from oracles import frechet_diagonal_oracle


def _block_rows(width, weights):
    """Rows in each full block that `_row_blocks` makes."""
    (_, rows), *_ = metrics_mod._row_blocks(4 * 10**6, width, weights)
    return rows


def _traced_peak(fn):
    """Peak bytes that numpy and Python allocate while `fn()` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRowBlocks:
    @pytest.mark.parametrize("width,weights", [(785, 7850), (65, 130), (784, 784 * 784), (1, 1)])
    def test_blocks_cover_the_rows_and_none_is_small(self, width, weights):
        rows = _block_rows(width, weights)
        # As many rows as ROW_BLOCK_BYTES holds, or the fewest that make a product past SMALL_PRODUCT.
        assert rows * weights > metrics_mod.SMALL_PRODUCT
        assert rows == max(1, metrics_mod.ROW_BLOCK_BYTES // (8 * width)) or (rows - 1) * weights <= metrics_mod.SMALL_PRODUCT
        for n in (0, 1, rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows, 5 * rows + 3):
            blocks = list(metrics_mod._row_blocks(n, width, weights))
            assert blocks[0][0] == 0 and blocks[-1][1] == n
            assert all(b == c for (_, b), (c, _) in zip(blocks, blocks[1:]))
            # Every block is full, the last takes the tail, and a set of under two blocks is one.
            assert all(b - a == rows for a, b in blocks[:-1])
            assert len(blocks) == 1 or rows <= blocks[-1][1] - blocks[-1][0] < 2 * rows


class TestFrechetDistance:
    def test_self_distance_is_zero(self):
        feats = np.random.default_rng(0).standard_normal((50, 6))
        assert frechet_distance(feats, feats) < 1e-8

    def test_mean_shift_with_equal_covariance(self):
        feats = np.random.default_rng(1).standard_normal((80, 5))
        shift = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        d = frechet_distance(feats, feats + shift)
        assert d == pytest.approx(float(shift @ shift), rel=1e-8)

    def test_diagonal_gaussian_closed_form(self):
        # Four-point sets with exactly diagonal sample covariance:
        # {(+a,0),(-a,0),(0,+b),(0,-b)} has mean 0 and cov diag(2a^2/3, 2b^2/3).
        def quad(a, b, mu):
            return np.array([[a, 0], [-a, 0], [0, b], [0, -b]], dtype=float) + mu

        a1, b1 = 1.5, 0.7
        a2, b2 = 0.9, 2.0
        mu = np.array([0.4, -1.1])
        fa = quad(a1, b1, np.zeros(2))
        fb = quad(a2, b2, mu)
        expect = frechet_diagonal_oracle(
            np.zeros(2), [2 * a1**2 / 3, 2 * b1**2 / 3], mu, [2 * a2**2 / 3, 2 * b2**2 / 3]
        )
        assert frechet_distance(fa, fb) == pytest.approx(expect, rel=1e-6)

    def test_single_feature_is_the_one_dimensional_closed_form(self):
        # np.cov of one feature is 0-d; the distance is (mu1 - mu2)^2 + (s1 - s2)^2.
        gen = np.random.default_rng(3)
        fa = gen.standard_normal((60, 1))
        fb = gen.standard_normal((50, 1)) * 2.5 + 0.7
        expect = (fa.mean() - fb.mean()) ** 2 + (fa.std(ddof=1) - fb.std(ddof=1)) ** 2
        assert frechet_distance(fa, fb) == pytest.approx(expect, rel=1e-9)

    def test_symmetry(self):
        gen = np.random.default_rng(2)
        fa = gen.standard_normal((40, 4))
        fb = gen.standard_normal((40, 4)) * 2 + 1
        assert frechet_distance(fa, fb) == pytest.approx(frechet_distance(fb, fa), rel=1e-9)

    def test_exactly_singular_covariance_is_fine_without_regularization(self):
        # eigh is backward stable, so exact rank deficiency stays within the
        # truncation tolerance and needs no intervention
        gen = np.random.default_rng(3)
        fa = gen.standard_normal((30, 4))
        fa[:, 3] = 0.0
        fb = gen.standard_normal((30, 4))
        fb[:, 3] = 0.0
        d = frechet_distance(fa, fb * 1.5 + 0.3)
        assert np.isfinite(d) and d >= 0.0

    def test_indefinite_matrix_rejected_by_sqrt(self):
        from dpsynth.metrics import _sym_sqrt
        from dpsynth import NumericError

        with pytest.raises(NumericError, match="not PSD"):
            _sym_sqrt(np.diag([1.0, -1.0]))

    def test_rank_deficiency_beyond_tolerance_warns_and_regularizes(self, monkeypatch):
        # The genuinely indefinite branch needs pathological conditioning to
        # hit naturally; exercise the fallback wiring by making the first
        # cross-trace evaluation fail the PSD check.
        import dpsynth.metrics as metrics_mod
        from dpsynth import NumericError

        real = metrics_mod._cross_trace
        calls = []

        def flaky(c1, c2):
            calls.append(1)
            if len(calls) == 1:
                raise NumericError("cross matrix not PSD: min eigenvalue -1e-3")
            return real(c1, c2)

        monkeypatch.setattr(metrics_mod, "_cross_trace", flaky)
        gen = np.random.default_rng(3)
        fa = gen.standard_normal((30, 4))
        fb = gen.standard_normal((30, 4)) + 0.5
        with pytest.warns(RuntimeWarning, match="regulariz"):
            d = frechet_distance(fa, fb)
        assert len(calls) == 2
        assert np.isfinite(d) and d >= 0.0

    def test_insufficient_samples_rejected(self):
        with pytest.raises(InvalidArgumentError, match="samples"):
            frechet_distance(np.zeros((4, 6)), np.zeros((10, 6)))


class TestFeatureExtractor:
    def test_downsample_shape_and_determinism(self, toy_ds):
        ex = FeatureExtractor("downsample", 16)
        f1 = ex.extract(toy_ds.pixels, toy_ds.image_shape)
        f2 = ex.extract(toy_ds.pixels, toy_ds.image_shape)
        assert f1.shape == (len(toy_ds), 16)
        assert np.array_equal(f1, f2)

    def test_downsample_of_constant_image_is_constant(self):
        ex = FeatureExtractor("downsample", 16)
        feats = ex.extract(np.full((3, 64), 0.25), (8, 8, 1))
        assert np.allclose(feats, 0.25)

    def test_pca_requires_fit(self, toy_ds):
        ex = FeatureExtractor("pca", 8)
        with pytest.raises(InvalidArgumentError, match="fit"):
            ex.extract(toy_ds.pixels, toy_ds.image_shape)

    def test_pca_projection_shape(self, toy_ds):
        ex = FeatureExtractor("pca", 8).fit(toy_ds.pixels)
        feats = ex.extract(toy_ds.pixels, toy_ds.image_shape)
        assert feats.shape == (len(toy_ds), 8)

    def test_pca_matches_svd_oracle(self):
        # Decaying spectrum with distinct singular values, so the components are unique up to sign.
        gen = np.random.default_rng(11)
        n, d, dim = 600, 48, 12
        basis, _ = np.linalg.qr(gen.standard_normal((d, d)))
        x = 0.5 + (gen.standard_normal((n, d)) * 0.85 ** np.arange(d)) @ basis.T
        ex = FeatureExtractor("pca", dim).fit(x)
        _, _, vt = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)
        ref = vt[:dim]
        for got, want in zip(ex._components, ref):
            assert min(np.abs(got - want).max(), np.abs(got + want).max()) < 1e-9
        other = 0.5 + gen.standard_normal((300, d)) @ basis.T * 0.5
        shape = (6, 8, 1)
        fd = frechet_distance(ex.extract(other, shape), ex.extract(x, shape))
        mu = x.mean(axis=0)
        fd_ref = frechet_distance((other - mu) @ ref.T, (x - mu) @ ref.T)
        assert fd == pytest.approx(fd_ref, rel=1e-9)

    def test_pca_components_stay_close_to_the_whole_scatter(self):
        # The scatter is summed over row blocks, so its last bits differ from
        # one product's; the components and the distance barely move.
        gen = np.random.default_rng(12)
        n, d, dim = 6000, 96, 16
        assert n > 4 * _block_rows(d, d * d)
        basis, _ = np.linalg.qr(gen.standard_normal((d, d)))
        x = 0.5 + (gen.standard_normal((n, d)) * 0.9 ** np.arange(d)) @ basis.T
        ex = FeatureExtractor("pca", dim).fit(x)
        xc = x - x.mean(axis=0)
        vecs = np.linalg.eigh(xc.T @ xc)[1][:, : -dim - 1 : -1].T
        for got, want in zip(ex._components, vecs):
            assert min(np.abs(got - want).max(), np.abs(got + want).max()) < 1e-11
        other = 0.5 + gen.standard_normal((500, d)) @ basis.T * 0.5
        shape = (8, 12, 1)
        fd = frechet_distance(ex.extract(other, shape), ex.extract(x, shape))
        ref = np.where((vecs[np.arange(dim), np.abs(vecs).argmax(axis=1)] < 0)[:, None], -vecs, vecs)
        mu = x.mean(axis=0)
        assert fd == pytest.approx(frechet_distance((other - mu) @ ref.T, (x - mu) @ ref.T), rel=1e-12)

    def test_pca_projection_is_bit_identical_to_one_whole_product(self):
        gen = np.random.default_rng(13)
        d = 784
        ex = FeatureExtractor("pca", 16).fit(gen.random((1000, d)))
        rows = _block_rows(d, ex._components.size)
        pixels = gen.random((3000, d))
        for n in (0, rows - 1, rows + 1, 2 * rows + 1, 3000):
            got = ex.extract(pixels[:n], (28, 28, 1))
            want = (pixels[:n] - ex._mean) @ ex._components.T
            assert got.shape == (n, 16) and np.array_equal(got.view(np.uint64), want.view(np.uint64)), n

    def test_pca_fit_and_projection_hold_no_copy_of_the_set(self):
        # Blocks of rows only: from 2,000 to 8,000 rows of 784 pixels the peak
        # grows by the projected features, not by a centred copy.
        gen = np.random.default_rng(14)
        small, big = gen.random((2000, 784)), gen.random((8000, 784))
        peaks = [_traced_peak(lambda: FeatureExtractor("pca", 16).fit(x).extract(x, (28, 28, 1))) for x in (small, big)]
        assert peaks[1] - peaks[0] < 0.1 * (big.nbytes - small.nbytes), peaks

    def test_dimension_cap(self):
        with pytest.raises(InvalidArgumentError):
            FeatureExtractor("downsample", 65)


class TestProbeClassifier:
    def test_separable_data_near_perfect(self, toy_ds):
        holdout = generate_toy_glyphs(20, 10, (8, 8, 1), RngSeed(77))
        assert train_probe_classifier(toy_ds, holdout) >= 0.99

    def test_shuffled_labels_at_chance(self, toy_ds):
        gen = np.random.default_rng(5)
        labels = np.array(toy_ds.labels)
        gen.shuffle(labels)
        shuffled = LabeledDataset(toy_ds.pixels, labels, 10, toy_ds.image_shape)
        holdout = generate_toy_glyphs(50, 10, (8, 8, 1), RngSeed(78))
        acc = train_probe_classifier(shuffled, holdout)
        # 3-sigma binomial band around chance level 1/10
        n = len(holdout)
        assert abs(acc - 0.1) <= 3 * np.sqrt(0.1 * 0.9 / n)

    def test_empty_synthetic_rejected(self, toy_ds):
        empty = LabeledDataset(np.zeros((0, 64)), (), 10, (8, 8, 1))
        with pytest.raises(InvalidArgumentError, match="empty"):
            train_probe_classifier(empty, toy_ds)

    def test_single_class_rejected(self, toy_ds):
        single = toy_ds.subset([i for i, l in enumerate(toy_ds.labels) if l == 0])
        with pytest.raises(InvalidArgumentError, match="single-class"):
            train_probe_classifier(single, toy_ds)

    @pytest.mark.parametrize(
        "d,classes", [(784, 10), (784, 2), (64, 10), (64, 2)], ids=["28x28-10", "28x28-2", "8x8-10", "8x8-2"]
    )
    def test_logits_are_bit_identical_to_one_whole_product(self, d, classes):
        # Blocks of `rows`: one block (N = 1, rows - 1, rows + 1), a block and
        # a block of rows + 1, and a block and one of 2 * rows - 1.
        rows = _block_rows(d + 1, (d + 1) * classes)
        gen = np.random.default_rng(d)
        w = gen.standard_normal((d + 1, classes))
        for n in (1, rows - 1, rows + 1, 2 * rows + 1, 3 * rows - 1):
            pixels = gen.random((n, d))
            got = metrics_mod._probe_logits(pixels, w)
            want = oracles.probe_logits(pixels, w)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n

    def test_logits_hold_no_copy_of_the_test_set(self):
        gen = np.random.default_rng(15)
        w = gen.standard_normal((785, 10))
        small, big = gen.random((2000, 784)), gen.random((8000, 784))
        peaks = [_traced_peak(lambda: metrics_mod._probe_logits(x, w)) for x in (small, big)]
        assert peaks[1] - peaks[0] < 0.1 * (big.nbytes - small.nbytes), peaks


def _exact_linear_denoiser():
    """1x1 image, T=1: paired silu units implement out = c * x exactly.

    silu(x) - silu(-x) = x, so two mirrored units per layer reproduce a
    linear map with no approximation error.
    """
    m = ParamManifest(height=1, width=1, channels=1, hidden1=2, hidden2=2, time_dim=2, num_classes=1, label_dim=1)
    sched = NoiseSchedule(betas=(0.9,))
    c = 1.0 / np.sqrt(1.0 - sched.alpha_bars[0])
    vec = np.zeros(m.num_params)
    views = m.views(vec)
    views["W1"][0, 0] = 1.0
    views["W1"][1, 0] = -1.0
    views["W2"][0] = [1.0, -1.0]
    views["W2"][1] = [-1.0, 1.0]
    views["W3"][0] = [c, -c]
    return DenoiserParams(m, vec), sched


class TestDenoisingLossEstimate:
    def test_zero_model_closed_form_expectation(self):
        # For the zero predictor the loss is E||e||^2 = data dimension.
        m = ParamManifest(height=4, width=4, channels=1, hidden1=4, hidden2=4, time_dim=4, num_classes=2, label_dim=2)
        params = zero_params(m)
        sched = NoiseSchedule.linear(10)
        gen = np.random.default_rng(1)
        ds = LabeledDataset.from_arrays(gen.random((6, 16)), [0, 1] * 3, 2, (4, 4, 1))
        est = denoising_loss_estimate(params, sched, ds, RngSeed(3), draws=20_000)
        d = 16
        # 3-sigma band: Var ||e||^2 = 2d per draw
        assert abs(est - d) < 3 * np.sqrt(2 * d / 20_000) * np.sqrt(d)

    def test_perfect_linear_denoiser_reaches_zero_floor(self):
        # One-point dataset at the zero image: the injected noise is exactly
        # recoverable from x_t, and the paired-silu construction realizes the
        # recovery map, so the objective's floor (zero) is attained.
        params, sched = _exact_linear_denoiser()
        ds = LabeledDataset.from_arrays(np.zeros((1, 1)), [0], 1, (1, 1, 1))
        est = denoising_loss_estimate(params, sched, ds, RngSeed(4), draws=2000)
        assert est == pytest.approx(0.0, abs=1e-24)

    def test_determinism(self, toy_ds):
        m = ParamManifest(height=8, width=8, channels=1, hidden1=8, hidden2=8, time_dim=4, num_classes=10, label_dim=4)
        params = init_params(m, RngSeed(0))
        sched = NoiseSchedule.linear(10)
        a = denoising_loss_estimate(params, sched, toy_ds, RngSeed(5), draws=500)
        b = denoising_loss_estimate(params, sched, toy_ds, RngSeed(5), draws=500)
        assert a == b

    @pytest.mark.parametrize("draws", [1, LOSS_CHUNK - 1, LOSS_CHUNK + 1])
    @pytest.mark.parametrize("scale", [1.0, 60.0])  # 60 drives hidden inputs past the sigmoid's clamp
    def test_bit_identical_to_the_estimate_with_fresh_arrays(self, toy_ds, draws, scale):
        m = ParamManifest(height=8, width=8, channels=1, hidden1=12, hidden2=10, time_dim=4, num_classes=10, label_dim=3)
        base = init_params(m, RngSeed(6))
        params = base.replace_vector(scale * base.vector)
        sched = NoiseSchedule.linear(10)
        got = denoising_loss_estimate(params, sched, toy_ds, RngSeed(7), draws=draws)
        want = oracles.denoising_loss_estimate(params, sched, toy_ds.pixels, toy_ds.labels, RngSeed(7), draws)
        assert got == want

    @pytest.mark.parametrize("hidden", [16, 32, 128], ids=["h16", "h32", "glyph28"])
    def test_bit_identical_to_one_forward_per_chunk(self, hidden):
        # glyph28's model runs each chunk in row blocks; the narrow ones run it whole.
        m = ParamManifest(28, 28, 1, hidden1=hidden, hidden2=hidden, time_dim=16, num_classes=10, label_dim=8)
        params, sched = init_params(m, RngSeed(8)), NoiseSchedule.linear(50)
        ds = generate_toy_glyphs(30, 10, (28, 28, 1), RngSeed(9))
        for draws in (LOSS_CHUNK - 1, 2 * LOSS_CHUNK + 7, LOSS_CHUNK + 400):
            got = denoising_loss_estimate(params, sched, ds, RngSeed(10), draws=draws)
            want = oracles.denoising_loss_estimate(params, sched, ds.pixels, ds.labels, RngSeed(10), draws)
            assert got.hex() == want.hex(), draws

    def test_peak_is_one_chunk_of_draws_and_output_at_any_size(self):
        # The chunk's noise and output, plus its forward's row blocks; the
        # whole-chunk forward held about 5.7 chunks.
        m = ParamManifest(28, 28, 1, hidden1=128, hidden2=128, time_dim=16, num_classes=10, label_dim=8)
        params, sched = init_params(m, RngSeed(11)), NoiseSchedule.linear(50)
        gen = np.random.default_rng(16)
        chunk_bytes = LOSS_CHUNK * 784 * 8
        for n in (2000, 8000):
            ds = LabeledDataset(gen.random((n, 784)), gen.integers(0, 10, n), 10, (28, 28, 1))
            peak = _traced_peak(lambda: denoising_loss_estimate(params, sched, ds, RngSeed(12), draws=2 * LOSS_CHUNK))
            assert peak < 4 * chunk_bytes, (n, peak)
