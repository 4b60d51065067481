"""Resampling correctness and the camera-aware augmentation contracts."""

import dataclasses
import hashlib
import sys
import threading
import time
import tracemalloc

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
from camgeom.augment import draw_transform
from camgeom.errors import BelowMinimum, CropOutOfBounds
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

    def test_adopted_array_is_kept_frozen_and_checked(self):
        data = np.zeros((4, 5, 3), dtype=np.uint8)
        assert RasterImage._adopt(data).data is data and not data.flags.writeable
        with pytest.raises(ValueError):
            RasterImage._adopt(np.zeros((4, 5, 2), dtype=np.uint8))

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


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# SHA-256 of resample(uint8 RGB), resample(float32) and resample_depth
# (values, then mask) for the transform that draw_transform gives each
# (mode, seed) policy on a 97x61 source.  Any change here is the resampler's
# output changing: a rounding or summation-order change, not noise.
PINNED_DIGESTS = {
    ("pad", 0): (
        "ca36ed785b0faa03d6e86c7dc84ed97350de48174835686cd8e122aa9b0a50c0",
        "b6d77f19293bc570066f51707b19de716580ad3d14cd83d547e68680f75bd2c5",
        "fca8345afede10ae66a91acde1c7f1858efcdc09abdeca50b582cc39cab9e5d3",
    ),
    ("pad", 1): (
        "0393f8a9288a51db967aaa10c6be42580c8568644ac8f88e4ee71ad065008363",
        "020912eeb28a31f30c9096b169bb1ddb315f9824945e033d65bda81f07dc0ac9",
        "812f19da20847d9610a1d1990341771fc78333472c77c4a547b6d653cadc7709",
    ),
    ("pad", 2): (
        "0c1058447b4eb4e8c96f728dd55763886c1dc5a313bafd6a3619f11adb4f5b5c",
        "7825df76457e73280ab49944da7ff29c532f08d80d392fa4d88b4f5ceb0c4219",
        "7321643f70434bcfcfe04e7ffd765c208d0dd3bbe3270e136c718f504fb195b4",
    ),
    ("pad", 3): (
        "e73d88987e6da4aa9098bb386dcd0c62375803dca136b16e78e3da1c57453b68",
        "cd95a4e9f9938fb7c884444f21f00f74c6efeb6ba5de2e99211cd0c6084b8d5b",
        "bfddb6647168c7d46f45ae43aa783905db0ac56b2e1b7612df509a11c159bb06",
    ),
    ("pad", 4): (
        "c9689b804666e840ee4d9c9e0e94201cb401b61abecaa5ebed0459cb694be669",
        "b2b796449a1ceba916035f4409e999d78569c2bf398f5f3769de2125ea99f8d7",
        "1bfd19adc1f3bf566918e151a2cedc33065e535c7c35d7b780220d636f0070f2",
    ),
    ("pad", 5): (
        "65b058b70516f03992d49d2d890f25086549e3f29aa466d045841dd5fab37191",
        "51e531ad4e2749641f36e2c62c95821b222ee50ae5a267de8b86abdf093de0f7",
        "fa882d2300fcac69f14e0c9f546019b12e2ec47c4fbb99682a920139e6997d47",
    ),
    ("crop", 0): (
        "fe67ab8ed9a21f63c60cbae0e49f19cc6f6d4947d2d7d5ec49e5c7fba52ea4e9",
        "50a659e842bc748bc994a2c11e2c02c37dedfc90ce0462ca497ebafd21d5062e",
        "9f1ac72df78533da05590fd8dc7f3c72b6b2b5b1ecaf2c4370fb6e878e6591ad",
    ),
    ("crop", 1): (
        "680b4e019df138b4bdd3f6e8509b8c465c7e3d9359166daa71c0182cda042400",
        "37b0321926447c936b7c782dd34d0e82299fdf818ee9015c310e9d79172f7634",
        "5a3de102acfeb830fffddfc450fc4eca1ad12d898483efa3624508a58c589af6",
    ),
    ("crop", 2): (
        "b6b78b1f6884f47d0b0ebfc551f68e6a2eab5251ca72149ec7330b640ea71857",
        "794e7a594113e6712d6fd79c6fda74aad56c365d5e3ff0b3e354fc71e18f4ac1",
        "92919324dc70a3dbb8a950b4eba0f3af145b6a26604ef844ded1a1bd95ecd547",
    ),
    ("crop", 3): (
        "4e51231ee840236f225c1195b1b93ba65a758f5386d59b95b90fd83dec518fe7",
        "cc304e345501d284d7313583bd1f29b9893a0e619e70c9070ead997ac16edc30",
        "a3327f13702598d6cae35f7490c8d9832c597f92db910648fa4a1f2dadf91a38",
    ),
    ("crop", 4): (
        "36e4e4d6cbb865b02c8b13d81f6ef92141ba7e4e787b768ad956ca8e9d8079d2",
        "06039a19d7bc35bbd5dafff480319e48795aa813bae781bd58c44a5d7f2861b3",
        "121f3ae590491acd74d5e9947e2ded063e3c149153621b194c9a3b4088d1e6d8",
    ),
    ("crop", 5): (
        "d2425d88a22fcac054bc51dcc38d45279e135c9d806bf09de564e22e0525e4e7",
        "b8fd139a2649095ae3f4fb368912e82b6d828c0528e6dd67e3ddb271cb603b1f",
        "4ba82370cd45ab13509e03940528c0a813b5bc32c9ae6f3e2824279def27b4fc",
    ),
}


class TestPinnedResample:
    @pytest.fixture(scope="class")
    def sources(self):
        rng = np.random.default_rng(61)
        rgb = RasterImage(rng.integers(0, 256, size=(61, 97, 3), dtype=np.uint8))
        gray = RasterImage(rng.random((61, 97, 1), dtype=np.float32))
        values = rng.uniform(0.5, 50.0, size=(61, 97))
        values[rng.random((61, 97)) < 0.15] = np.nan  # holes
        return rgb, gray, DepthMap.from_array(values)

    @pytest.mark.parametrize("mode, seed", sorted(PINNED_DIGESTS))
    def test_outputs_match_pinned_digests(self, sources, mode, seed):
        rgb, gray, depth = sources
        k = Intrinsics(90.0, 90.0, 48.5, 30.5, 97, 61)
        policy = AugmentationPolicy(scale_range=(0.6, 1.7), shift_fraction=0.2, mode=mode, seed=seed)
        t = draw_transform(k, policy, np.random.default_rng(seed))
        out_depth = resample_depth(depth, t)
        got = (
            _digest(resample(rgb, t, mode).data),
            _digest(resample(gray, t, mode).data),
            _digest(out_depth.values, out_depth.valid),
        )
        assert got == PINNED_DIGESTS[mode, seed]


# SHA-256 of resample(uint8 RGB) and resample(float32 gray) of a seeded 640 x 480
# frame, in pad mode (shifted) and then crop mode, taken before resample ran in bands
PINNED_FULL_FRAME_DIGESTS = {
    0.7: (
        "bf7c68a371c33f911c7201d64c568d6a88eec0b203482d9cd42ce605024965b4",
        "983a01979fb8e062d82cd4e2175cc1db933838a02a4e4a476b99c15b59501b0e",
        "6672955a5fab481e9d75a9944a3a46e8ef614cba1ea2ecff417ebc1daf73eb66",
        "1fe5f60cdc410b2c9cbbef9101a3f1277d196b37cf5b5f40549fd94563137e9f",
    ),
    1.0: (
        "6fae440860403f38da74fa1b9f959b163d52babb3823ebe21785d6c5d3bbaf95",
        "9cab06f5d376f342c2bc046245b8f29cbd672b33879cef9d82c949ef6523a523",
        "649c796c17cf6b04335c558892e3a68c0ca5fc6c4432ef22987743788c7396ee",
        "83d8797d7e83ac3edcfdf278bb0f1abd7fc79661cc246abb435f6e98ddcf4d9b",
    ),
    1.4: (
        "982564e54083f6a569c9055ace857a5ca6cc68bfcad9545fc05695b69ebe5541",
        "f09306a0b2998b8cb3dcb1f41c68299bcc77d1d234145c732f3a1783735f4240",
        "33d0c8d70f46eed4bf687149b42cbc6c0bf99af04bd18bc902ed70b73f9e2c72",
        "efee7c626663605dca47d485b47da4a71a1ad0bf80e0cc613268ae8463a12494",
    ),
}


class TestFullFrameResample:
    """640 x 480 frames span many bands of resample, where the pinned 97 x 61 source may fit in one."""

    @pytest.fixture(scope="class")
    def frames(self):
        rng = np.random.default_rng(640)
        return (RasterImage(rng.integers(0, 256, size=(480, 640, 3), dtype=np.uint8)),
                RasterImage(rng.random((480, 640, 1), dtype=np.float32)))

    @pytest.mark.parametrize("s", sorted(PINNED_FULL_FRAME_DIGESTS))
    def test_outputs_match_pinned_digests(self, frames, s):
        pad = dataclasses.replace(PixelTransform.scaling(s, 640, 480), du=-0.1 * s * 640 + 0.25, dv=0.1 * s * 480 - 0.5)
        crop = PixelTransform(s, s, 0.05 * s * 640 + 0.3, 0.15 * s * 480 - 0.7, int(s * 640 * 0.8), int(s * 480 * 0.8))
        got = tuple(_digest(resample(image, t, mode).data)
                    for t, mode in ((pad, "pad"), (crop, "crop")) for image in frames)
        assert got == PINNED_FULL_FRAME_DIGESTS[s]

    @pytest.mark.parametrize("dtype", [np.uint8, np.float32])
    def test_peak_memory_is_the_output_plus_a_band(self, dtype):
        image = RasterImage(np.zeros((480, 640, 3), dtype=dtype))
        tracemalloc.start()
        try:
            out = resample(image, PixelTransform.scaling(1.4, 640, 480))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.data.shape == (672, 896, 3) and peak <= out.data.nbytes + 4 * 2**20, peak


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

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_is_rejected(self, workers):
        with pytest.raises(BelowMinimum, match="workers"):
            batch_augment(self._samples(2), AugmentationPolicy(seed=1), workers=workers)

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

    def test_on_result_gets_each_result_on_its_pool_thread_and_none_is_kept(self):
        samples = self._samples(6)
        policy = AugmentationPolicy(seed=21)
        kept, kept_report = batch_augment(samples, policy, workers=3)
        given = {}

        def on_result(result):
            given[result.provenance.index] = (result, threading.current_thread())

        results, report = batch_augment(samples, policy, workers=3, on_result=on_result)
        assert results == [None] * 6
        assert sorted(given) == list(range(6))
        assert all(thread is not threading.main_thread() for _, thread in given.values())
        assert self._fingerprint([given[i][0] for i in range(6)]) == self._fingerprint(kept)
        assert (report.n_ok, report.n_failed, report.transforms) == (6, 0, kept_report.transforms)

    def test_on_result_that_raises_is_the_samples_failure(self):
        samples = self._samples(5)

        def on_result(result):
            if result.provenance.index in (1, 3):
                raise OSError(f"disk full at {result.provenance.source_id}")

        results, report = batch_augment(samples, AugmentationPolicy(seed=4), workers=2, on_result=on_result)
        assert report.failures == ((1, "s001", "OSError: disk full at s001"),
                                   (3, "s003", "OSError: disk full at s003"))
        assert (report.n_samples, report.n_ok, report.n_failed) == (5, 3, 2)
        assert [t is None for t in report.transforms] == [False, True, False, True, False]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_at_most_workers_samples_are_loaded_and_not_yet_handled(self, workers):
        sources = self._samples(12)
        lock = threading.Lock()
        live, peak = [0], [0]

        class Loading:
            def __len__(self):
                return len(sources)

            def __getitem__(self, index):
                time.sleep(0.002)  # a slow load, so that jobs overlap
                with lock:
                    live[0] += 1
                    peak[0] = max(peak[0], live[0])
                return sources[index]

        def on_result(result):
            time.sleep(0.002)
            with lock:
                live[0] -= 1

        _, report = batch_augment(Loading(), AugmentationPolicy(seed=8), workers=workers, on_result=on_result)
        assert report.n_ok == 12
        assert live[0] == 0
        assert 1 <= peak[0] <= workers

    def test_no_record_is_lost_under_frequent_thread_switches(self):
        rng = np.random.default_rng(5)
        small = Intrinsics(20, 20, 4, 3, 8, 6)
        bad_depth = DepthMap.from_array(np.ones((2, 2)))
        samples = [Sample(f"s{i:03d}", _noise_image(rng, 8, 6), small, depth=bad_depth if i % 3 == 0 else None)
                   for i in range(300)]
        handed = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.monotonic()
            _, report = batch_augment(samples, AugmentationPolicy(seed=6), workers=8,
                                      on_result=lambda r: handed.append(r.provenance.index))
            assert time.monotonic() - start < 60
        finally:
            sys.setswitchinterval(interval)
        failed = [i for i in range(300) if i % 3 == 0]
        assert [f[0] for f in report.failures] == failed
        assert sorted(handed) == [i for i in range(300) if i % 3]
        assert [t is None for t in report.transforms] == [i % 3 == 0 for i in range(300)]
        assert (report.n_ok, report.n_failed) == (200, 100)

    def test_failure_records_are_sorted_by_index(self):
        samples = self._samples(16)
        bad_depth = DepthMap.from_array(np.ones((5, 5)))
        for i in (2, 5, 6, 11, 15):
            samples[i] = Sample(f"bad{i}", samples[i].image, K, depth=bad_depth)
        _, report = batch_augment(samples, AugmentationPolicy(seed=3), workers=8)
        assert [f[0] for f in report.failures] == [2, 5, 6, 11, 15]

    def test_per_sample_seeding_is_order_invariant(self):
        samples = self._samples(6)
        policy = AugmentationPolicy(seed=31)
        all_results, _ = batch_augment(samples, policy, workers=1)
        # augmenting sample 4 alone with its index reproduces the batch output
        lone = augment(samples[4], policy, np.random.default_rng([31, 4]), index=4)
        np.testing.assert_array_equal(lone.image.data, all_results[4].image.data)
        assert lone.transform == all_results[4].transform
