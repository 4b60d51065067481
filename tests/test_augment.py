"""Resampling correctness and the camera-aware augmentation contracts."""

import numpy as np
import pytest

from camgeom import (
    AugmentationPolicy,
    DepthMap,
    Intrinsics,
    PixelTransform,
    RasterImage,
    Sample,
    augment,
    batch_augment,
    ray_preservation_check,
    resample,
    resample_depth,
)
from camgeom.errors import CropOutOfBounds
from camgeom.transforms import apply_transform, compose, invert


def _gradient_image(width=64, height=48) -> RasterImage:
    # affine in (u, v): bilinear resampling is exact on it up to quantization
    u, v = np.meshgrid(np.arange(width), np.arange(height))
    data = np.clip(2 * u + v, 0, 255).astype(np.uint8)
    return RasterImage(np.stack([data] * 3, axis=-1))


def _noise_image(rng, width=64, height=48) -> RasterImage:
    return RasterImage(rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8))


K = Intrinsics(500, 500, 32, 24, 64, 48)


class TestResample:
    def test_identity_is_bit_identical(self):
        image = _noise_image(np.random.default_rng(1))
        out = resample(image, PixelTransform.identity(64, 48))
        np.testing.assert_array_equal(out.data, image.data)

    def test_up_then_down_on_gradient(self):
        # crop mode clamps at the half-pixel border ring instead of mixing in
        # pad zeros, so the affine-exactness of bilinear holds everywhere
        image = _gradient_image()
        up = resample(image, PixelTransform.scaling(2.0, 64, 48), mode="crop")
        back = resample(up, PixelTransform.scaling(0.5, 128, 96), mode="crop")
        diff = np.abs(back.data.astype(int) - image.data.astype(int))
        assert diff.max() <= 2  # quantization only: 2/255 for 8-bit

    def test_up_then_down_on_gradient_pad_interior(self):
        image = _gradient_image()
        up = resample(image, PixelTransform.scaling(2.0, 64, 48))
        back = resample(up, PixelTransform.scaling(0.5, 128, 96))
        diff = np.abs(back.data.astype(int) - image.data.astype(int))
        assert diff[2:-2, 2:-2].max() <= 2

    def test_constant_image_stays_constant_interior(self):
        image = RasterImage(np.full((48, 64, 3), 77, dtype=np.uint8))
        out = resample(image, PixelTransform(1.3, 0.9, 5.0, -3.0, 80, 40))
        interior = out.data[10:-10, 10:-10]
        assert np.all(interior == 77)

    def test_pad_never_alters_source_covered_pixels(self):
        image = _noise_image(np.random.default_rng(2))
        out = resample(image, PixelTransform(1, 1, -10.0, 0.0, 64, 48), mode="pad")
        np.testing.assert_array_equal(out.data[:, 10:], image.data[:, :-10])
        assert np.all(out.data[:, :10] == 0)

    def test_crop_mode_rejects_out_of_bounds_window(self):
        image = _noise_image(np.random.default_rng(3))
        with pytest.raises(CropOutOfBounds):
            resample(image, PixelTransform(1, 1, -10.0, 0.0, 64, 48), mode="crop")
        # an in-bounds crop of the same size is fine
        resample(image, PixelTransform(1, 1, 10.0, 8.0, 40, 30), mode="crop")

    def test_float_raster_supported(self):
        rng = np.random.default_rng(4)
        image = RasterImage(rng.random((48, 64, 1), dtype=np.float32))
        out = resample(image, PixelTransform.identity(64, 48))
        np.testing.assert_array_equal(out.data, image.data)
        assert out.data.dtype == np.float32

    def test_depth_nearest_keeps_exact_values(self):
        rng = np.random.default_rng(5)
        depth = DepthMap.from_array(rng.uniform(1, 9, size=(48, 64)))
        out = resample_depth(depth, PixelTransform.scaling(2.0, 64, 48))
        # every output value must exist in the source (no interpolation)
        assert np.isin(out.values[out.valid], depth.values).all()

    def test_depth_out_of_source_becomes_invalid(self):
        depth = DepthMap.from_array(np.full((48, 64), 3.0))
        out = resample_depth(depth, PixelTransform(1, 1, -10.0, 0.0, 64, 48))
        assert not out.valid[:, :10].any()
        assert out.valid[:, 10:].all()


class TestAugment:
    def test_identity_policy_gives_identity_sample(self):
        image = _noise_image(np.random.default_rng(6))
        policy = AugmentationPolicy(scale_range=(1.0, 1.0), shift_fraction=0.0, seed=1)
        sample = Sample("s0", image, K)
        out = augment(sample, policy, np.random.default_rng(0))
        np.testing.assert_array_equal(out.image.data, image.data)
        assert out.intrinsics == K
        assert out.transform == PixelTransform.identity(64, 48)

    def test_intrinsics_reproduce_bit_exactly_from_transform(self):
        image = _noise_image(np.random.default_rng(7))
        policy = AugmentationPolicy(seed=3)
        out = augment(Sample("s0", image, K), policy, np.random.default_rng(3))
        again = apply_transform(K, out.transform)
        assert again == out.intrinsics  # dataclass equality on floats = bit equality

    def test_rays_preserved_for_every_draw(self):
        image = _noise_image(np.random.default_rng(8))
        for mode in ("pad", "crop"):
            policy = AugmentationPolicy(mode=mode, seed=11)
            for i in range(20):
                out = augment(Sample(f"s{i}", image, K), policy, np.random.default_rng([11, i]))
                assert ray_preservation_check(K, out.transform) < 1e-9

    def test_same_seed_bitwise_identical(self):
        image = _noise_image(np.random.default_rng(9))
        policy = AugmentationPolicy(seed=21)
        a = augment(Sample("s", image, K), policy, 21)
        b = augment(Sample("s", image, K), policy, 21)
        np.testing.assert_array_equal(a.image.data, b.image.data)
        assert a.intrinsics == b.intrinsics
        assert a.transform == b.transform

    def test_boxes_pass_through_untouched(self):
        from camgeom import Detection, OrientedBox3

        boxes = (Detection("chair", OrientedBox3((1, 2, 3), (1, 1, 1), 0.1, 0.2, 0.3)),)
        image = _noise_image(np.random.default_rng(10))
        out = augment(Sample("s", image, K, boxes=boxes), AugmentationPolicy(seed=5), 5)
        assert out.boxes is boxes  # same object: world geometry does not move

    def test_depth_travels_with_the_image(self):
        rng = np.random.default_rng(11)
        depth = DepthMap.from_array(rng.uniform(1, 9, size=(48, 64)))
        out = augment(Sample("s", _noise_image(rng), K, depth=depth), AugmentationPolicy(seed=7), 7)
        assert out.depth is not None
        assert (out.depth.height, out.depth.width) == (out.transform.out_height, out.transform.out_width)

    def test_scale_round_trip_restores_intrinsics(self):
        policy = AugmentationPolicy(seed=13)
        out = augment(Sample("s", _noise_image(np.random.default_rng(12)), K), policy, 13)
        t = out.transform
        restored = apply_transform(out.intrinsics, invert(t, K.width, K.height))
        for name in ("fx", "fy", "cx", "cy"):
            assert getattr(restored, name) == pytest.approx(getattr(K, name), rel=1e-12)


class TestBatch:
    def _samples(self, n=16):
        rng = np.random.default_rng(123)
        return [Sample(f"s{i:03d}", _noise_image(rng), K) for i in range(n)]

    @staticmethod
    def _fingerprint(results):
        return [
            (r.image.data.tobytes(), r.intrinsics.to_json(), r.transform.to_dict())
            for r in results
        ]

    def test_worker_count_does_not_change_bytes(self):
        samples = self._samples()
        policy = AugmentationPolicy(seed=42)
        solo, _ = batch_augment(samples, policy, workers=1)
        pooled, _ = batch_augment(samples, policy, workers=8)
        assert self._fingerprint(solo) == self._fingerprint(pooled)

    def test_empty_batch(self):
        results, report = batch_augment([], AugmentationPolicy(seed=1), workers=4)
        assert results == []
        assert report.n_samples == report.n_ok == report.n_failed == 0

    def test_failures_are_isolated(self):
        samples = self._samples(4)
        # a depth map with the wrong extent fails inside augment
        bad = Sample("bad", samples[0].image, K, depth=DepthMap.from_array(np.ones((5, 5))))
        samples.insert(2, bad)
        results, report = batch_augment(samples, AugmentationPolicy(seed=9), workers=2)
        assert report.n_failed == 1
        assert results[2] is None
        assert all(r is not None for i, r in enumerate(results) if i != 2)
        assert report.failures[0][1] == "bad"

    def test_none_entry_yields_none_and_keeps_indices(self):
        samples = self._samples(5)
        policy = AugmentationPolicy(seed=13)
        full, _ = batch_augment(samples, policy, workers=2)
        gapped, report = batch_augment([None, samples[1], samples[2], None, samples[4]], policy, workers=2)
        assert gapped[0] is None and gapped[3] is None
        assert report.failures == ()
        assert (report.n_samples, report.n_ok, report.n_failed) == (3, 3, 0)
        assert report.transforms[0] is None and report.transforms[3] is None
        kept = [1, 2, 4]
        assert self._fingerprint([gapped[i] for i in kept]) == self._fingerprint([full[i] for i in kept])
        assert [gapped[i].provenance.index for i in kept] == kept

    def test_report_carries_transforms_in_order(self):
        samples = self._samples(5)
        results, report = batch_augment(samples, AugmentationPolicy(seed=77), workers=3)
        assert len(report.transforms) == 5
        for r, meta in zip(results, report.transforms):
            assert r.transform.to_dict() == meta

    def test_per_sample_seeding_is_order_invariant(self):
        samples = self._samples(6)
        policy = AugmentationPolicy(seed=31)
        all_results, _ = batch_augment(samples, policy, workers=1)
        # augmenting sample 4 alone with its index reproduces the batch output
        lone = augment(samples[4], policy, np.random.default_rng([31, 4]), index=4)
        np.testing.assert_array_equal(lone.image.data, all_results[4].image.data)
        assert lone.transform == all_results[4].transform
