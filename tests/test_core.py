import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dpsynth import InvalidArgumentError, LabeledDataset, RngSeed, gaussian_noise

from oracles import clt_mean_bound, clt_variance_bound


class TestGaussianNoise:
    def test_zero_std_is_exact_zeros(self, rng):
        out = gaussian_noise((7, 3), 0.0, rng)
        assert out.shape == (7, 3)
        assert np.all(out == 0.0)

    def test_negative_std_rejected(self, rng):
        with pytest.raises(InvalidArgumentError):
            gaussian_noise((3,), -1.0, rng)

    def test_statistical_moments(self, rng):
        n = 1_000_000
        draws = gaussian_noise((n,), 1.0, rng)
        assert abs(draws.mean()) < 5e-3
        assert abs(draws.var() - 1.0) < 0.01
        # and the declared bounds are consistent with CLT at 3 sigma
        assert 5e-3 > clt_mean_bound(1.0, n)
        assert 0.01 > clt_variance_bound(1.0, n)

    def test_determinism(self):
        a = gaussian_noise((100,), 2.0, RngSeed(9, 4))
        b = gaussian_noise((100,), 2.0, RngSeed(9, 4))
        assert np.array_equal(a, b)

    def test_stream_independence(self):
        a = gaussian_noise((100,), 1.0, RngSeed(9, 1))
        b = gaussian_noise((100,), 1.0, RngSeed(9, 2))
        assert not np.array_equal(a, b)


def _mixed_draws(gen):
    return (
        gen.integers(1, 1001, size=7),
        gen.integers(0, 1000, size=3, dtype=np.int32),
        gen.standard_normal((3, 5)),
        gen.random(4),
        gen.uniform(0.7, 1.0, size=2),
    )


class TestRngSeed:
    def test_derive_is_order_sensitive(self):
        root = RngSeed(1)
        assert root.derive(1, 2) != root.derive(2, 1)

    def test_derive_chain_matches_multi_index(self):
        root = RngSeed(1)
        assert root.derive(3).derive(4) == root.derive(3, 4)

    def test_derive_requires_index(self):
        with pytest.raises(InvalidArgumentError):
            RngSeed(1).derive()

    @pytest.mark.parametrize(
        "ids",
        [[0, 1, 2**63 - 1], [5, 5, 0, 5], [9, 3, 700, 2, 3], np.arange(300), []],
        ids=["extremes", "duplicates", "unsorted", "arange", "empty"],
    )
    def test_derive_many_matches_derive(self, ids):
        root = RngSeed(11, 2**64 - 3)
        streams = root.derive_many(ids)
        assert streams.dtype == np.uint64 and streams.shape == (len(ids),)
        assert [int(s) for s in streams] == [root.derive(int(i)).stream for i in ids]

    def test_generator_reproducible(self):
        g1 = RngSeed(7, 3).generator().standard_normal(10)
        g2 = RngSeed(7, 3).generator().standard_normal(10)
        assert np.array_equal(g1, g2)

    @pytest.mark.parametrize("odd_half", [False, True])
    def test_rekeyed_generator_matches_fresh(self, odd_half):
        meta = np.random.default_rng(2024)
        gen = RngSeed(1).generator()
        for _ in range(20):
            seed, stream, idx = (int(v) for v in meta.integers(0, 2**63, size=3, dtype=np.uint64))
            # Leave the previous stream part-way through, with a buffered 32-bit half if asked.
            gen.standard_normal(int(meta.integers(1, 9)))
            if odd_half:
                gen.integers(0, 1000, size=1, dtype=np.int32)
                assert gen.bit_generator.state["has_uint32"] == 1
            rng = RngSeed(seed, stream).derive(idx)
            reused = rng.generator(into=gen)
            assert reused is gen
            assert reused.bit_generator.state["state"]["key"].tolist() == [seed, rng.stream]
            for a, b in zip(_mixed_draws(rng.generator()), _mixed_draws(reused)):
                assert np.array_equal(a, b)


def _dataset_with(pixel=None, value=0.5, labels=(0, 1, 1, 0), width=4, num_classes=2):
    """Four 2x2 images of 0.5, optionally with one pixel (row, col) set to `value`."""
    pixels = np.full((4, width), 0.5)
    if pixel is not None:
        pixels[pixel] = value
    return LabeledDataset(pixels, labels, num_classes, (2, 2, 1))


class TestLabeledDataset:
    def test_a_writable_input_is_copied(self):
        pixels = np.full((4, 4), 0.5)
        ds = LabeledDataset(pixels, (0, 1, 1, 0), 2, (2, 2, 1))
        pixels[0, 0] = 1.0
        assert ds.pixels[0, 0] == 0.5 and not ds.pixels.flags.writeable

    def test_a_frozen_array_it_owns_is_adopted(self):
        pixels = np.full((4, 4), 0.5)
        pixels.setflags(write=False)
        assert LabeledDataset(pixels, (0, 1, 1, 0), 2, (2, 2, 1)).pixels is pixels
        view = pixels[:2]  # read-only, but its data is another array's
        assert LabeledDataset(view, (0, 1), 2, (2, 2, 1)).pixels is not view

    def test_subset_holds_one_copy_of_the_rows_it_gathers(self):
        gen = np.random.default_rng(4)
        ds = LabeledDataset(gen.random((1000, 784)), gen.integers(0, 10, 1000), 10, (28, 28, 1))
        rows = gen.permutation(1000)[:800]
        tracemalloc.start()
        try:
            sub = ds.subset(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.4 * sub.pixels.nbytes
        assert np.array_equal(sub.pixels, ds.pixels[rows]) and np.array_equal(sub.labels, ds.labels[rows])
        assert not sub.pixels.flags.writeable and not np.shares_memory(sub.pixels, ds.pixels)

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            LabeledDataset(np.zeros((1, 4)), (0, 1), 2, (2, 2, 1))

    def test_label_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            LabeledDataset(np.zeros((1, 4)), (2,), 2, (2, 2, 1))

    def test_pixel_range_enforced(self):
        with pytest.raises(InvalidArgumentError):
            LabeledDataset(np.array([[0.0, 0.5, 1.0, 1.5]]), (0,), 1, (2, 2, 1))

    def test_shape_uniformity(self):
        with pytest.raises(InvalidArgumentError):
            LabeledDataset(np.zeros((2, 6)), (0, 0), 1, (2, 2, 1))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(pixel=(2, 1), value=np.nan), "image 2 has a non-finite value"),
            (dict(pixel=(1, 3), value=np.inf), "image 1 has a non-finite value"),
            (dict(pixel=(3, 0), value=-np.inf), "image 3 has a non-finite value"),
            (dict(pixel=(2, 0), value=1.0 + 1e-12), "image 2 has values outside"),
            (dict(pixel=(1, 2), value=-1e-12), "image 1 has values outside"),
            (dict(labels=(0, 1, 2, 1)), "label 2 at index 2 outside"),
            (dict(labels=(0, -1, 0, 0)), "label -1 at index 1 outside"),
            (dict(labels=(0, 1, 1)), "index 3 has no pair"),
            (dict(labels=(0, 1, 1, 0, 1)), "index 4 has no pair"),
            (dict(width=5), "first bad index 0"),
        ],
    )
    def test_rejection_names_first_bad_index(self, kwargs, message):
        with pytest.raises(InvalidArgumentError, match=message):
            _dataset_with(**kwargs)

    def test_first_of_several_bad_rows_is_named(self):
        pixels = np.full((6, 4), 0.5)
        pixels[4, 0] = np.nan
        pixels[2, 3] = np.nan
        with pytest.raises(InvalidArgumentError, match="image 2 has"):
            LabeledDataset(pixels, np.zeros(6, dtype=int), 1, (2, 2, 1))

    def test_arrays_are_read_only_copies(self):
        pixels = np.full((2, 4), 0.25)
        labels = np.array([0, 1])
        ds = LabeledDataset(pixels, labels, 2, (2, 2, 1))
        pixels[0, 0] = 0.75
        labels[0] = 1
        assert ds.pixels[0, 0] == 0.25 and ds.labels[0] == 0
        assert ds.pixels.dtype == np.float64 and ds.labels.dtype == np.int64
        with pytest.raises(ValueError):
            ds.pixels[0, 0] = 1.0
        with pytest.raises(ValueError):
            ds.labels[0] = 1

    def test_nan_rejected_under_optimize(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import numpy as np\n"
            "from dpsynth.core import InvalidArgumentError, LabeledDataset\n"
            "pixels = np.zeros((3, 4))\n"
            "pixels[1, 2] = np.nan\n"
            "try:\n"
            "    LabeledDataset(pixels, (0, 0, 0), 1, (2, 2, 1))\n"
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
        assert out.stdout.strip() == "image 1 has a non-finite value"

    def test_subset_and_partition_keep_row_order(self, toy_ds):
        idx = [7, 3, 3, 250]
        sub = toy_ds.subset(idx)
        assert np.array_equal(sub.pixels, toy_ds.pixels[idx])
        assert np.array_equal(sub.labels, toy_ds.labels[idx])
        for label, part in toy_ds.partition_by_label().items():
            rows = np.flatnonzero(toy_ds.labels == label)
            assert np.array_equal(part.pixels, toy_ds.pixels[rows])

    def test_partition_by_label_is_disjoint_cover(self, toy_ds):
        parts = toy_ds.partition_by_label()
        assert sorted(parts) == list(range(10))
        assert sum(len(p) for p in parts.values()) == len(toy_ds)
        for label, part in parts.items():
            assert set(part.labels) == {label}
