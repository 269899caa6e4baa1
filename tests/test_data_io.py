import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from dpsynth import FormatError, RngSeed, generate_toy_glyphs, load_container, read_idx, save_container, write_idx
from dpsynth.cli import main
from dpsynth.data_io import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, write_json
from dpsynth import diffusion as diffusion_mod
from dpsynth.diffusion import NoiseSchedule, ParamManifest, init_params, load_checkpoint, save_checkpoint
from dpsynth.metrics import train_probe_classifier

import oracles


def _write_idx_fixture(tmp_path, pixel_bytes=(0, 128, 255, 0, 255, 0, 128, 128), labels=(1, 0)):
    """Hand-crafted 2-image 2x2 IDX pair."""
    images = tmp_path / "imgs.idx"
    lab = tmp_path / "labels.idx"
    images.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 2, 2, 2) + bytes(pixel_bytes))
    lab.write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, 2) + bytes(labels))
    return images, lab


class TestIdx:
    def test_hand_crafted_fixture_values(self, tmp_path):
        images, labels = _write_idx_fixture(tmp_path)
        ds = read_idx(images, labels)
        assert len(ds) == 2
        assert ds.image_shape == (2, 2, 1)
        assert np.allclose(ds.pixels[0], [0.0, 128 / 255, 1.0, 0.0])
        assert np.allclose(ds.pixels[1], [1.0, 0.0, 128 / 255, 128 / 255])
        assert ds.labels.tolist() == [1, 0]

    def test_round_trip_is_byte_identical(self, tmp_path):
        images, labels = _write_idx_fixture(tmp_path)
        ds = read_idx(images, labels)
        out_images = tmp_path / "out_imgs.idx"
        out_labels = tmp_path / "out_labels.idx"
        write_idx(ds, out_images, out_labels)
        assert out_images.read_bytes() == images.read_bytes()
        assert out_labels.read_bytes() == labels.read_bytes()

    def test_read_holds_one_copy_of_the_pixels(self, tmp_path):
        ds = generate_toy_glyphs(300, 10, (28, 28, 1), RngSeed(3))
        images, labels = tmp_path / "glyphs.idx", tmp_path / "glyph_labels.idx"
        write_idx(ds, images, labels)
        tracemalloc.start()
        try:
            loaded = read_idx(images, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.4 * ds.pixels.nbytes  # the float64 matrix, 3,000 x 784
        assert np.array_equal(loaded.pixels, np.rint(ds.pixels * 255.0) / 255.0)
        assert not loaded.pixels.flags.writeable

    def test_truncated_payload_names_offset(self, tmp_path):
        images, labels = _write_idx_fixture(tmp_path)
        data = images.read_bytes()
        images.write_bytes(data[:-3])
        with pytest.raises(FormatError, match="offset 16") as exc:
            read_idx(images, labels)
        assert exc.value.offset == 16

    def test_bad_magic_offset_zero(self, tmp_path):
        images, labels = _write_idx_fixture(tmp_path)
        images.write_bytes(b"\x00\x00\x08\x04" + images.read_bytes()[4:])
        with pytest.raises(FormatError, match="magic") as exc:
            read_idx(images, labels)
        assert exc.value.offset == 0

    def test_truncated_header(self, tmp_path):
        images, labels = _write_idx_fixture(tmp_path)
        images.write_bytes(images.read_bytes()[:10])
        with pytest.raises(FormatError):
            read_idx(images, labels)

    def test_label_out_of_range_names_record(self, tmp_path):
        images, labels = _write_idx_fixture(tmp_path, labels=(1, 7))
        with pytest.raises(FormatError, match="label 7") as exc:
            read_idx(images, labels, num_classes=2)
        assert exc.value.offset == 9

    def test_count_mismatch(self, tmp_path):
        images, labels = _write_idx_fixture(tmp_path)
        labels.write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, 1) + b"\x01")
        with pytest.raises(FormatError, match="label count"):
            read_idx(images, labels)


class TestContainer:
    def test_round_trip_bit_exact_with_provenance(self, tmp_path):
        gen = np.random.default_rng(0)
        pixels = gen.standard_normal((5, 12))
        labels = np.array([0, 1, 2, 1, 0])
        provenance = {"kind": "mean", "config": {"count": 5, "noise_scale": 5.0}}
        path = tmp_path / "set.dpc"
        save_container(path, "central", pixels, (3, 4, 1), labels, provenance)
        first = path.read_bytes()
        loaded = load_container(path)
        assert np.array_equal(loaded.pixels, pixels)
        assert np.array_equal(loaded.labels, labels)
        assert loaded.provenance == provenance
        assert (loaded.height, loaded.width, loaded.channels) == (3, 4, 1)
        save_container(
            path, loaded.kind, loaded.pixels, (3, 4, 1), loaded.labels, loaded.provenance
        )
        assert path.read_bytes() == first

    def test_unlabeled_container(self, tmp_path):
        path = tmp_path / "u.dpc"
        save_container(path, "synthetic", np.zeros((2, 4)), (2, 2, 1))
        loaded = load_container(path)
        assert loaded.labels is None
        with pytest.raises(Exception, match="no labels"):
            loaded.to_dataset()

    def test_corrupted_payload_rejected(self, tmp_path):
        path = tmp_path / "c.dpc"
        save_container(path, "sensitive", np.random.default_rng(1).random((3, 4)), (2, 2, 1))
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="checksum"):
            load_container(path)

    def test_truncation_names_offset(self, tmp_path):
        path = tmp_path / "t.dpc"
        save_container(path, "sensitive", np.random.default_rng(1).random((3, 4)), (2, 2, 1))
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(FormatError, match="truncated"):
            load_container(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.dpc"
        save_container(path, "sensitive", np.zeros((1, 4)), (2, 2, 1))
        path.write_bytes(b"NOTMAGIC" + path.read_bytes()[8:])
        with pytest.raises(FormatError) as exc:
            load_container(path)
        assert exc.value.offset == 0


    def test_load_keeps_one_copy_of_the_payload(self, tmp_path):
        gen = np.random.default_rng(3)
        pixels = gen.random((500, 784))
        labels = gen.integers(0, 10, size=500)
        path = tmp_path / "big.dpc"
        save_container(path, "sensitive", pixels, (28, 28, 1), labels)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            loaded = load_container(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * size
        assert np.array_equal(loaded.pixels.view(np.uint64), pixels.view(np.uint64))
        assert np.array_equal(loaded.labels, labels)
        assert not loaded.pixels.flags.writeable

    # An odd count makes the labels' 4 * count bytes, which precede the pixels, no multiple of 8.
    @pytest.mark.parametrize("count", [3000, 2999])
    def test_a_dataset_from_a_container_holds_one_copy_of_the_pixels(self, tmp_path, count):
        ds = generate_toy_glyphs(300, 10, (28, 28, 1), RngSeed(3))
        pixels, labels = ds.pixels[:count], ds.labels[:count]
        path = tmp_path / "real.dpc"
        save_container(path, "sensitive", pixels, (28, 28, 1), labels)
        tracemalloc.start()
        try:
            c = load_container(path)
            loaded = c.to_dataset()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.4 * pixels.nbytes
        assert loaded.pixels is c.pixels
        assert not loaded.pixels.flags.writeable and loaded.pixels.flags.aligned
        assert np.array_equal(loaded.pixels.view(np.uint64), pixels.view(np.uint64))
        assert np.array_equal(loaded.labels, labels)

    def test_a_model_from_a_checkpoint_holds_one_copy_of_the_weights(self, tmp_path, monkeypatch):
        params = init_params(ParamManifest(28, 28, 1), RngSeed(2))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, NoiseSchedule.linear(50))
        read, read_framed = [], diffusion_mod.read_framed

        def recording_read_framed(*args):
            header, arrays = read_framed(*args)
            read.extend(arrays)
            return header, arrays

        monkeypatch.setattr(diffusion_mod, "read_framed", recording_read_framed)
        tracemalloc.start()
        try:
            loaded, _ = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.4 * params.vector.nbytes
        assert loaded.vector is read[1]
        assert not loaded.vector.flags.writeable and loaded.vector.flags.aligned
        assert np.array_equal(loaded.vector.view(np.uint64), params.vector.view(np.uint64))


WRITERS = {
    "checkpoint": lambda path, seed: save_checkpoint(
        path, init_params(ParamManifest(4, 4, 1, hidden1=4, hidden2=4, time_dim=2), RngSeed(seed)),
        NoiseSchedule.linear(5),
    ),
    "container": lambda path, seed: save_container(
        path, "synthetic", np.random.default_rng(seed).random((3, 4)), (2, 2, 1)
    ),
    "json": lambda path, seed: write_json(path, {"seed": seed}),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_leaves_the_previous_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "out.bin"
    WRITERS[writer](path, 1)
    before = path.read_bytes()

    def replace_fails(src, dst):
        raise OSError("simulated failure before the rename")

    monkeypatch.setattr(os, "replace", replace_fails)
    with pytest.raises(OSError, match="simulated"):
        WRITERS[writer](path, 2)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["out.bin"]


def _set_version(data: bytes, version) -> bytes:
    """The framed file `data` with its header's version replaced, or removed when None."""
    (hlen,) = struct.unpack_from("<I", data, 8)
    header = json.loads(data[12 : 12 + hlen])
    del header["version"]
    if version is not None:
        header["version"] = version
    blob = json.dumps(header, sort_keys=True).encode()
    return data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + hlen :]


def _set_header_fields(data: bytes, **fields) -> bytes:
    """The framed file `data` with some header fields replaced."""
    (hlen,) = struct.unpack_from("<I", data, 8)
    header = dict(json.loads(data[12 : 12 + hlen]), **fields)
    blob = json.dumps(header, sort_keys=True).encode()
    return data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + hlen :]


@pytest.mark.parametrize("fields", [{"count": -1}, {"count": -3, "height": -2}, {"count": 2**40}, {"height": 2**40}])
def test_a_misstated_payload_size_is_refused_before_anything_is_allocated(tmp_path, fields):
    path = tmp_path / "c.dpc"
    save_container(path, "sensitive", np.zeros((3, 4)), (2, 2, 1), np.array([0, 1, 0]))
    path.write_bytes(_set_header_fields(path.read_bytes(), **fields))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="payload"):
            load_container(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_a_misstated_header_length_is_refused_before_anything_is_allocated(tmp_path):
    path = tmp_path / "c.dpc"
    save_container(path, "sensitive", np.zeros((3, 4)), (2, 2, 1))
    data = path.read_bytes()
    path.write_bytes(data[:8] + struct.pack("<I", 2**32 - 1) + data[12:])
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="truncated while reading header") as exc:
            load_container(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.offset == 12
    assert peak < 64 * 1024


class TestFramedVersion:
    """Only version-1 headers load; anything else fails at the header (byte offset 12)."""

    @pytest.mark.parametrize("version", [99, None, 2, "1", 1.0, True])
    def test_container(self, tmp_path, version):
        path = tmp_path / "v.dpc"
        save_container(path, "sensitive", np.zeros((2, 4)), (2, 2, 1))
        path.write_bytes(_set_version(path.read_bytes(), version))
        with pytest.raises(FormatError, match="unsupported header version") as exc:
            load_container(path)
        assert exc.value.offset == 12

    @pytest.mark.parametrize("version", [99, None])
    def test_checkpoint(self, tmp_path, capsys, version):
        ck = tmp_path / "model.ckpt"
        manifest = ParamManifest(8, 8, 1, hidden1=16, hidden2=16, time_dim=4)
        save_checkpoint(ck, init_params(manifest, RngSeed(1)), NoiseSchedule.linear(10))
        ck.write_bytes(_set_version(ck.read_bytes(), version))
        with pytest.raises(FormatError, match="unsupported header version") as exc:
            load_checkpoint(ck)
        assert exc.value.offset == 12
        out = tmp_path / "samples.dpc"
        assert main(["sample", "--checkpoint", str(ck), "--count", "4", "--out", str(out)]) == 1
        assert "unsupported header version" in capsys.readouterr().err
        assert not out.exists()


class TestToyGlyphs:
    def test_empty_request(self):
        ds = generate_toy_glyphs(0, 10, (8, 8, 1), RngSeed(0))
        assert len(ds) == 0

    def test_fixed_seed_reproducible(self):
        a = generate_toy_glyphs(5, 10, (8, 8, 1), RngSeed(3))
        b = generate_toy_glyphs(5, 10, (8, 8, 1), RngSeed(3))
        assert np.array_equal(a.pixels, b.pixels)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize(
        "n_per_class,num_classes,shape", [(200, 10, (8, 8, 1)), (30, 10, (28, 28, 1)), (40, 7, (8, 8, 3)), (25, 10, (9, 12, 2))]
    )
    def test_bit_identical_to_the_image_by_image_generator(self, n_per_class, num_classes, shape):
        for seed in (0, 4, 11):
            ds = generate_toy_glyphs(n_per_class, num_classes, shape, RngSeed(seed))
            want = oracles.toy_glyph_pixels(n_per_class, num_classes, shape, RngSeed(seed))
            assert np.array_equal(ds.pixels.view(np.uint64), want.view(np.uint64))
            assert ds.labels.tolist() == [k for k in range(num_classes) for _ in range(n_per_class)]

    def test_minimum_canvas_enforced(self):
        with pytest.raises(Exception, match="at least 8x8"):
            generate_toy_glyphs(1, 10, (6, 6, 1), RngSeed(0))

    def test_linear_separability_oracle(self):
        # The baseline-classifier oracle behind the desk-scale experiments:
        # a pixel-space softmax probe must separate the classes essentially
        # perfectly.
        train = generate_toy_glyphs(200, 10, (8, 8, 1), RngSeed(1))
        holdout = generate_toy_glyphs(40, 10, (8, 8, 1), RngSeed(2))
        assert train_probe_classifier(train, holdout) >= 0.99

    def test_values_in_unit_range_and_shape(self):
        ds = generate_toy_glyphs(3, 10, (10, 12, 3), RngSeed(4))
        assert ds.image_shape == (10, 12, 3)
        mat = ds.pixels
        assert mat.min() >= 0.0 and mat.max() <= 1.0
