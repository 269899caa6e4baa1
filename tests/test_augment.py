import numpy as np
import pytest

import dpsynth.augment as augment_mod
import dpsynth.pipeline as pipeline_mod
from dpsynth import InvalidArgumentError, RngSeed, default_bag
from dpsynth.augment import AugmentationBag, Transform, _translate, apply_chain
from dpsynth.diffusion import NoiseSchedule, ParamManifest, init_params
from dpsynth.pipeline import WarmupConfig, warmup_train

import oracles


@pytest.fixture
def glyph_image(toy_ds):
    return toy_ds.pixels[0].reshape(8, 8, 1)


class TestBagComposition:
    def test_default_bag_has_fourteen_transforms(self):
        bag = default_bag()
        assert len(bag.transforms) == 14
        assert len(set(bag.names())) == 14
        assert bag.k == 2

    def test_subset_selection(self):
        bag = default_bag().subset(["identity", "rotate"])
        assert bag.names() == ("identity", "rotate")

    def test_unknown_subset_name(self):
        with pytest.raises(Exception, match="unknown transforms"):
            default_bag().subset(["mixup"])

    def test_range_overrides(self):
        bag = default_bag().with_ranges({"rotate": (-5.0, 5.0)})
        rot = {t.name: t for t in bag.transforms}["rotate"]
        assert (rot.lo, rot.hi) == (-5.0, 5.0)
        with pytest.raises(Exception, match="unknown transforms"):
            default_bag().with_ranges({"mixup": (0, 1)})
        with pytest.raises(Exception, match="empty magnitude range"):
            default_bag().with_ranges({"rotate": (5.0, -5.0)})


class TestChainApplication:
    def test_identity_chain_is_noop(self, glyph_image):
        bag = default_bag(k=3).subset(["identity"])
        out = apply_chain(glyph_image, bag, RngSeed(4).generator())
        assert np.array_equal(out, glyph_image)

    def test_translate_round_trip_zero_fills_border(self):
        img = np.arange(64, dtype=float).reshape(8, 8, 1) / 64.0
        right = _translate(img, 0, 2)
        back = _translate(right, 0, -2)
        # interior restored, two border columns zeroed
        assert np.array_equal(back[:, :6], img[:, :6])
        assert np.all(back[:, 6:] == 0.0)

    def test_range_and_shape_contract(self, glyph_image):
        bag = default_bag()
        for i in range(1000):
            out = apply_chain(glyph_image, bag, RngSeed(0).derive(i).generator())
            assert out.shape == glyph_image.shape
            assert out.min() >= 0.0
            assert out.max() <= 1.0

    def test_determinism(self, glyph_image):
        bag = default_bag()
        a = apply_chain(glyph_image, bag, RngSeed(8, 1).generator())
        b = apply_chain(glyph_image, bag, RngSeed(8, 1).generator())
        assert np.array_equal(a, b)

    def test_sampling_with_replacement_possible(self):
        # With a one-element bag every chain repeats that transform.
        marks = []

        def marker(img, m, gen):
            marks.append(m)
            return img

        bag = AugmentationBag((Transform("marker", 0.0, 1.0, marker),), k=4)
        apply_chain(np.zeros((8, 8, 1)), bag, np.random.default_rng(0))
        assert len(marks) == 4


class TestIndividualTransforms:
    @pytest.mark.parametrize("name", [t.name for t in default_bag().transforms])
    def test_each_transform_preserves_contract(self, name, glyph_image):
        bag = default_bag(k=1).subset([name])
        for i in range(50):
            gen = RngSeed(1).derive(i).generator()
            out = apply_chain(glyph_image, bag, gen)
            assert out.shape == glyph_image.shape
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_invert(self):
        img = np.full((8, 8, 1), 0.2)
        bag = default_bag(k=1).subset(["invert"])
        out = apply_chain(img, bag, np.random.default_rng(0))
        assert np.allclose(out, 0.8)

    def test_rotation_zero_is_identity(self, glyph_image):
        from dpsynth.augment import _t_rotate

        out = _t_rotate(glyph_image, 0.0, None)
        assert np.array_equal(out, glyph_image)


ORACLE_SHAPES = [(8, 8, 1), (28, 28, 1), (8, 8, 3), (5, 7, 1), (1, 1, 1), (2, 2, 1)]
NAMES = default_bag().names()
# Ranges at the edges: fixed magnitudes (lo == hi), a half-pixel shift at
# width 8 (rint's tie), shifts up to the full side, shears past the border,
# a full cutout. (The per-image shift fails past the full side; see below.)
EDGE_RANGES = {
    "rotate": (45.0, 45.0),
    "translate_x": (0.0625, 0.0625),
    "translate_y": (-1.0, 1.0),
    "scale": (0.25, 4.0),
    "shear_x": (-2.0, 2.0),
    "shear_y": (0.5, 0.5),
    "brightness": (-1.0, 1.0),
    "contrast": (0.0, 3.0),
    "cutout": (1.0, 1.0),
    "sharpen": (0.0, 3.0),
    "posterize": (2.5, 2.5),
    "solarize": (0.0, 1.0),
}


def _same_as_per_image(images, bag, seed):
    """The batched chain equals the per-image oracle, and leaves the generator where it does."""
    batched_gen, oracle_gen = np.random.default_rng(seed), np.random.default_rng(seed)
    batched = apply_chain(images, bag, batched_gen)
    if images.ndim == 3:
        expected = oracles.apply_chain(images, bag, oracle_gen)
    else:
        expected = oracles.apply_chain_batch(images, bag, oracle_gen)
    assert batched.shape == images.shape
    assert np.array_equal(batched, expected)
    assert batched_gen.bit_generator.state == oracle_gen.bit_generator.state


@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=["x".join(map(str, s)) for s in ORACLE_SHAPES])
class TestBatchedChainEqualsPerImageOracle:
    def test_each_transform_alone(self, shape):
        for n, name in enumerate(NAMES):
            for k in (1, 2, 3):
                for b in (1, 5, 32):
                    images = np.random.default_rng(n).random((b,) + shape)
                    _same_as_per_image(images, default_bag(k).subset([name]), seed=100 * n + 10 * k + b)

    def test_random_subsets_and_range_overrides(self, shape):
        gen = np.random.default_rng(sum(shape))
        for trial in range(24):
            k, b = (1, 2, 3)[trial % 3], (1, 5, 32)[trial // 3 % 3]
            names = list(gen.choice(NAMES, size=int(gen.integers(1, len(NAMES) + 1)), replace=False))
            bag = default_bag(k).subset(names)
            if trial % 2:
                bag = bag.with_ranges({n: r for n, r in EDGE_RANGES.items() if n in names})
            _same_as_per_image(gen.random((b,) + shape), bag, seed=trial)

    def test_single_image_is_the_batch_of_one(self, shape):
        image = np.random.default_rng(7).random(shape)
        for seed in range(20):
            _same_as_per_image(image, default_bag(3), seed)
            one = apply_chain(image[None], default_bag(3), np.random.default_rng(seed))
            assert np.array_equal(apply_chain(image, default_bag(3), np.random.default_rng(seed)), one[0])


def test_chain_refuses_a_flat_row():
    with pytest.raises(InvalidArgumentError, match=r"\(H, W, C\) image or a \(B, H, W, C\) batch"):
        apply_chain(np.zeros(64), default_bag(), np.random.default_rng(0))


def test_shift_past_the_border_leaves_a_zero_image():
    # The per-image oracle's slices wrap round for a shift longer than the
    # side and raise; the gather zero-fills every pixel instead.
    img = np.random.default_rng(0).random((2, 5, 7, 1)) + 0.5
    assert not np.any(_translate(img, np.array([6, -9]), np.array([0, 1])))
    bag = default_bag(1).subset(["translate_x"]).with_ranges({"translate_x": (1.5, 1.5)})
    assert not np.any(apply_chain(img, bag, np.random.default_rng(1)))
    with pytest.raises(ValueError):
        oracles.apply_chain_batch(img, bag, np.random.default_rng(1))


WARMUP_SHAPES = [(28, 28, 1), (8, 8, 3)]


@pytest.mark.parametrize("shape", WARMUP_SHAPES, ids=["x".join(map(str, s)) for s in WARMUP_SHAPES])
def test_warmup_weights_equal_a_run_with_the_per_image_oracle(shape, monkeypatch):
    h, w, c = shape
    manifest = ParamManifest(
        height=h, width=w, channels=c, hidden1=16, hidden2=16, time_dim=4, num_classes=3, label_dim=3
    )
    params = init_params(manifest, RngSeed(1))
    gen = np.random.default_rng(2)
    pixels = gen.random((20, h * w * c))
    labels = gen.integers(0, 3, size=20)
    cfg = WarmupConfig(iterations=4, batch_size=6, learning_rate=0.01, augment_k=3)
    args = (params, pixels, labels, NoiseSchedule.linear(10), cfg, RngSeed(3))
    batched = warmup_train(*args)
    monkeypatch.setattr(pipeline_mod, "apply_chain", oracles.apply_chain_batch)
    per_image = warmup_train(*args)
    assert batched.vector.tobytes() == per_image.vector.tobytes()
    assert batched.vector.tobytes() != params.vector.tobytes()


class TestPrivacyIsolation:
    def test_module_never_touches_the_accountant(self):
        # Post-processing guarantee, enforced structurally: the augmentation
        # module must not import or reference privacy accounting machinery.
        import types

        referenced = {
            v.__name__ for v in vars(augment_mod).values() if isinstance(v, types.ModuleType)
        }
        assert "dpsynth.accounting" not in referenced
        src = open(augment_mod.__file__).read()
        assert "MechanismEvent" not in src
        assert "PrivacySpec" not in src
