import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dpsynth import (
    CentralConfig,
    CentralImageSet,
    InvalidArgumentError,
    LabeledDataset,
    RngSeed,
    clip_rows,
    mode_from_noisy_histogram,
    pixel_histogram,
    poisson_subsample,
    query_central_set,
    query_mean_image,
    query_mode_image,
)
from dpsynth.central import mean_aggregate, stacked_pixel_histogram

from oracles import binomial_mean_bound


class TestPoissonSubsample:
    def test_full_rate_includes_everything(self, rng):
        idx = poisson_subsample(100, 1.0, rng)
        assert np.array_equal(idx, np.arange(100))

    def test_binomial_statistics(self):
        n, q, trials = 100_000, 0.5, 100
        sizes = [len(poisson_subsample(n, q, RngSeed(0).derive(t))) for t in range(trials)]
        assert abs(np.mean(sizes) - n * q) < binomial_mean_bound(n, q, trials)

    def test_determinism(self):
        a = poisson_subsample(1000, 0.3, RngSeed(4, 2))
        b = poisson_subsample(1000, 0.3, RngSeed(4, 2))
        assert np.array_equal(a, b)

    def test_empty_sample_is_valid(self):
        # tiny rate on a tiny set: empty outcomes must simply come back empty
        empties = sum(
            len(poisson_subsample(3, 1e-6, RngSeed(0).derive(i))) == 0 for i in range(50)
        )
        assert empties == 50

    def test_invalid_rate(self, rng):
        with pytest.raises(InvalidArgumentError):
            poisson_subsample(10, 0.0, rng)


class TestClipImage:
    """One image clipped as a 1-row matrix by `clip_rows`."""

    def test_exact_halving(self):
        data = np.full((1, 16), 14.0)  # norm = 56
        out = clip_rows(data, 28.0)
        assert np.linalg.norm(out) == pytest.approx(28.0, rel=1e-12)
        assert np.allclose(out, data / 2.0)

    def test_inactive_clip(self):
        img = np.array([[1.0, 2.0, 2.0, 0.0]])
        assert np.array_equal(clip_rows(img, 28.0), img)

    def test_zero_image_passes_through(self):
        out = clip_rows(np.zeros((1, 4)), 1.0)
        assert np.all(out == 0.0)


# (field, a value its check refuses)
BAD_CENTRAL_FIELDS = [
    ("kind", "median"),
    ("count", 0),
    ("sampling_rate", 0.0),
    ("sampling_rate", 1.5),
    ("noise_scale", 0.0),
    ("noise_scale", -1.0),
    ("noise_scale", float("inf")),
    ("noise_scale", float("nan")),
    ("norm_bound", 0.0),
    ("norm_bound", float("inf")),
    ("bins", 1),
]


class TestCentralConfig:
    @pytest.mark.parametrize("kind", ["mean", "mode", "none"])
    @pytest.mark.parametrize("name,value", BAD_CENTRAL_FIELDS)
    def test_every_field_is_checked_whatever_the_kind(self, kind, name, value):
        with pytest.raises(InvalidArgumentError, match=f"^{name} "):
            CentralConfig(**{"kind": kind, name: value})

    def test_none_kind_queries_nothing(self, small_ds):
        with pytest.raises(InvalidArgumentError, match="none"):
            query_central_set(small_ds, CentralConfig(kind="none"), RngSeed(1))

    def test_zero_noise_is_refused_under_optimize(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "from dpsynth.central import CentralConfig\n"
            "from dpsynth.core import InvalidArgumentError\n"
            "try:\n"
            "    CentralConfig(noise_scale=0)\n"
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
        assert out.stdout.strip() == "noise_scale must be positive and finite, got 0"


def _uniform_dataset(value: float, n: int = 8, side: int = 4) -> LabeledDataset:
    pixels = np.full((n, side * side), value)
    return LabeledDataset.from_arrays(pixels, [0] * n, 1, (side, side, 1))


class TestMeanQuery:
    def test_noiseless_full_population_identity(self):
        # As near noiseless as a config can be built: a zero scale is refused.
        ds = _uniform_dataset(0.5)
        cfg = CentralConfig(kind="mean", count=1, sampling_rate=1.0, noise_scale=1e-9, norm_bound=28.0)
        img, event = query_mean_image(ds, cfg, RngSeed(3))
        assert (event.kind, event.q, event.sigma) == ("mean_query", 1.0, 1e-9)
        assert np.allclose(img, 0.5, atol=1e-6)

    def test_sensitivity_arithmetic(self):
        # norm bound 28 over expected batch 6000
        assert 28.0 / 6000.0 == pytest.approx(4.6667e-3, rel=1e-4)

    def test_event_emitted_with_config_parameters(self, small_ds):
        cfg = CentralConfig(kind="mean", count=1, sampling_rate=0.25, noise_scale=4.0, norm_bound=3.0)
        _, event = query_mean_image(small_ds, cfg, RngSeed(3))
        assert event.kind == "mean_query"
        assert event.q == 0.25
        assert event.sigma == 4.0

    def test_neighboring_pair_sensitivity(self):
        # Brute-force neighboring-dataset oracle: coupled samples differing in
        # one record never move the pre-noise output by more than bound/batch.
        gen = np.random.default_rng(17)
        bound, b_star = 3.0, 12.0
        for _ in range(100):
            n = int(gen.integers(5, 40))
            pixels = gen.random((n + 1, 25)) * gen.uniform(0.5, 4.0)
            shared = np.flatnonzero(gen.random(n) < 0.4)
            with_new = np.append(shared, n)  # the added record is sampled
            base = mean_aggregate(pixels, shared, bound, b_star)
            other = mean_aggregate(pixels, with_new, bound, b_star)
            assert np.linalg.norm(other - base) <= bound / b_star + 1e-12

    def test_prenoise_linearity(self, small_ds):
        # query(c * images) = c * query(images) when norms stay inside the bound
        pixels = small_ds.pixels
        idx = np.arange(10)
        big_bound = 100.0
        full = mean_aggregate(pixels, idx, big_bound, 10.0)
        half = mean_aggregate(0.5 * pixels, idx, big_bound, 10.0)
        assert np.allclose(half, 0.5 * full, rtol=1e-12)

    def test_empty_sample_yields_pure_noise(self):
        ds = _uniform_dataset(1.0, n=4)
        cfg = CentralConfig(kind="mean", count=1, sampling_rate=1e-9, noise_scale=2.0, norm_bound=4.0)
        img, event = query_mean_image(ds, cfg, RngSeed(11))
        sensitivity = 4.0 / (1e-9 * 4)
        # noise at that scale dwarfs any residual signal
        assert np.abs(img).max() > 1e6
        assert event.sigma == 2.0


class TestPixelHistogram:
    def test_worked_example(self):
        # pixel set {1, 3, 3, 4} over two bins of [0, 4]
        counts = pixel_histogram(np.array([1.0, 3.0, 3.0, 4.0]), bins=2, p_max=4.0)
        assert np.array_equal(counts, [1.0, 3.0])

    def test_empty_input(self):
        assert np.array_equal(pixel_histogram(np.array([]), 4, 1.0), np.zeros(4))

    def test_max_value_lands_in_last_bin(self):
        counts = pixel_histogram(np.array([1.0, 1.0, 1.0]), bins=5, p_max=1.0)
        assert np.array_equal(counts, [0, 0, 0, 0, 3])

    def test_zero_lands_in_first_bin(self):
        counts = pixel_histogram(np.array([0.0]), bins=3, p_max=1.0)
        assert np.array_equal(counts, [1, 0, 0])

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidArgumentError):
            pixel_histogram(np.array([1.5]), bins=2, p_max=1.0)
        with pytest.raises(InvalidArgumentError):
            pixel_histogram(np.array([-0.1]), bins=2, p_max=1.0)

    def test_total_count_preserved(self):
        gen = np.random.default_rng(2)
        values = gen.random(500)
        assert pixel_histogram(values, 16, 1.0).sum() == 500


class TestModeFromNoisyHistogram:
    def test_worked_example(self):
        assert mode_from_noisy_histogram(np.array([1.1, 2.4]), bins=2, p_max=4.0) == 3.0

    def test_bin_midpoint_arithmetic(self):
        counts = np.array([0.0, 0.0, 9.0] + [0.0] * 13)
        assert mode_from_noisy_histogram(counts, bins=16, p_max=1.0) == pytest.approx(5.0 / 32.0)

    def test_uniform_counts_tie_break_lowest(self):
        assert mode_from_noisy_histogram(np.ones(4), bins=4, p_max=1.0) == pytest.approx(1.0 / 8.0)


class TestModeQuery:
    def test_sensitivity_arithmetic(self):
        assert np.sqrt(28 * 28 * 1) == 28.0

    def test_noiseless_binary_dataset_maps_to_midpoints(self):
        # As near noiseless as a config can be built: a zero scale is refused.
        pixels = np.zeros((6, 16))
        pixels[:, :8] = 1.0
        ds = LabeledDataset.from_arrays(pixels, [0] * 6, 1, (4, 4, 1))
        cfg = CentralConfig(kind="mode", count=1, sampling_rate=1.0, noise_scale=1e-9, bins=2)
        img, event = query_mode_image(ds, cfg, RngSeed(5))
        assert (event.kind, event.q, event.sigma) == ("mode_query", 1.0, 1e-9)
        assert np.allclose(img[:8], 0.75)
        assert np.allclose(img[8:], 0.25)

    def test_output_on_midpoint_lattice(self, small_ds):
        cfg = CentralConfig(kind="mode", count=1, sampling_rate=0.5, noise_scale=3.0, bins=8)
        img, _ = query_mode_image(small_ds, cfg, RngSeed(6))
        lattice = (2 * np.arange(1, 9) - 1) / 2.0 * (1.0 / 8)
        assert np.all(np.isin(img, lattice))
        assert img.min() > 0.0 and img.max() < 1.0

    def test_histogram_neighboring_pair_sensitivity(self):
        gen = np.random.default_rng(23)
        bins, d = 4, 36
        for _ in range(100):
            n = int(gen.integers(4, 30))
            pixels = gen.random((n + 1, d))
            shared = np.flatnonzero(gen.random(n) < 0.5)
            with_new = np.append(shared, n)
            h1 = stacked_pixel_histogram(pixels[shared], bins, 1.0)
            h2 = stacked_pixel_histogram(pixels[with_new], bins, 1.0)
            assert np.linalg.norm(h1 - h2) <= np.sqrt(d) + 1e-12


class TestQueryCentralSet:
    def test_per_label_split_and_partitions(self, toy_ds):
        cfg = CentralConfig(
            kind="mean", count=50, sampling_rate=0.5, noise_scale=5.0, norm_bound=8.0, parallel_accounting=True
        )
        out = query_central_set(toy_ds, cfg, RngSeed(1))
        assert len(out) == 50
        labels = np.asarray(out.labels)
        for cls in range(10):
            assert (labels == cls).sum() == 5
        partitions = {ev.partition for ev in out.events}
        assert partitions == {f"label={l}" for l in range(10)}

    def test_global_accounting_has_no_partitions(self, toy_ds):
        cfg = CentralConfig(kind="mean", count=10, sampling_rate=0.5, noise_scale=5.0, norm_bound=8.0)
        out = query_central_set(toy_ds, cfg, RngSeed(1))
        assert all(ev.partition is None for ev in out.events)
        assert len(out.events) == 10

    def test_remainder_round_robin(self, toy_ds):
        cfg = CentralConfig(kind="mean", count=13, sampling_rate=0.5, noise_scale=5.0, norm_bound=8.0)
        out = query_central_set(toy_ds, cfg, RngSeed(1))
        counts = np.bincount(np.asarray(out.labels), minlength=10)
        assert counts.sum() == 13
        assert np.array_equal(np.sort(counts)[::-1], [2, 2, 2, 1, 1, 1, 1, 1, 1, 1])

    def test_single_query_base_case(self, small_ds):
        cfg = CentralConfig(kind="mode", count=1, sampling_rate=0.5, noise_scale=2.0, bins=4, per_label=False)
        out = query_central_set(small_ds, cfg, RngSeed(2))
        assert len(out) == 1
        assert out.labels is None
        assert len(out.events) == 1

    def test_determinism(self, toy_ds):
        cfg = CentralConfig(kind="mean", count=6, sampling_rate=0.3, noise_scale=5.0, norm_bound=8.0)
        a = query_central_set(toy_ds, cfg, RngSeed(9))
        b = query_central_set(toy_ds, cfg, RngSeed(9))
        assert np.array_equal(a.pixels, b.pixels)
        assert np.array_equal(a.labels, b.labels)

    def test_events_match_repetitions_invariant(self, small_ds):
        cfg = CentralConfig(kind="mean", count=7, sampling_rate=0.4, noise_scale=3.0, norm_bound=2.0, per_label=False)
        out = query_central_set(small_ds, cfg, RngSeed(2))
        assert len(out.events) == 7
        assert all(ev.q == 0.4 and ev.sigma == 3.0 for ev in out.events)

    def test_overflowing_noise_is_refused(self, small_ds):
        # noise std = 1e300 * (1e300 / expected batch) overflows to inf
        cfg = CentralConfig(kind="mean", count=2, sampling_rate=1.0, noise_scale=1e300, norm_bound=1e300, per_label=False)
        img, _ = query_mean_image(small_ds, cfg, RngSeed(3))
        assert np.isinf(img).all()
        with pytest.raises(InvalidArgumentError, match="finite"):
            query_central_set(small_ds, cfg, RngSeed(3))

    def test_non_finite_pixels_rejected(self):
        pixels = np.zeros((3, 4))
        pixels[2, 1] = np.nan
        with pytest.raises(InvalidArgumentError, match="finite"):
            CentralImageSet(pixels, None, "mean")
