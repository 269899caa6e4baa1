import numpy as np
import pytest

import dpsynth.augment as augment_mod
from dpsynth import RngSeed, default_bag
from dpsynth.augment import AugmentationBag, Transform, _translate, apply_chain


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
