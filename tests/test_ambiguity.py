"""Equivalence witnesses and the synthetic depth-bias experiments."""

import statistics

import numpy as np
import pytest

from camgeom import (
    Intrinsics,
    SizePrior,
    generate_scenes,
    make_witness,
    run_bias_experiment,
    run_mixed_pool_experiment,
)
from camgeom.ambiguity import fit_canonical_focal
from camgeom.errors import BelowMinimum, CamGeomError, NonPositiveFactor


def _camera(f: float, width=640, height=480) -> Intrinsics:
    return Intrinsics(f, f, width / 2, height / 2, width, height)


class TestWitness:
    def test_focal_depth_tradeoff(self):
        w = make_witness((500, 2, 4), "focal_depth", 2.0)
        assert w.variant == (1000, 2, 8)
        assert w.h_proj == 250.0
        assert w.variant[0] * w.variant[1] / w.variant[2] == 250.0

    def test_size_depth_tradeoff(self):
        w = make_witness((500, 2, 4), "size_depth", 0.5)
        assert w.variant == (500, 1, 2)
        assert w.h_proj == 250.0

    def test_identity_factor(self):
        w = make_witness((500, 2, 4), "focal_depth", 1.0)
        assert w.variant == w.base

    def test_coupled_general_case(self):
        w = make_witness((585, 1.3, 3.7), "coupled", (1.7, 0.4))
        assert w.variant[0] == pytest.approx(585 * 1.7)
        assert w.variant[1] == pytest.approx(1.3 * 0.4)
        assert w.variant[2] == pytest.approx(3.7 * 1.7 * 0.4)

    def test_randomized_verification(self):
        rng = np.random.default_rng(55)
        kinds = ("focal_depth", "size_depth", "coupled")
        for _ in range(2000):
            base = (rng.uniform(100, 5000), rng.uniform(0.05, 5), rng.uniform(0.2, 50))
            kind = kinds[int(rng.integers(3))]
            if kind == "coupled":
                factor = (10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1, 1))
            else:
                factor = 10 ** rng.uniform(-1, 1)
            w = make_witness(base, kind, factor)
            variant_h = w.variant[0] * w.variant[1] / w.variant[2]
            assert variant_h == pytest.approx(w.h_proj, rel=1e-9)

    def test_non_positive_factors_rejected(self):
        with pytest.raises(NonPositiveFactor):
            make_witness((500, 2, 4), "focal_depth", 0.0)
        with pytest.raises(NonPositiveFactor):
            make_witness((500, 2, -4), "size_depth", 1.0)
        with pytest.raises(NonPositiveFactor):
            make_witness((500, 2, 4), "coupled", (1.0, -1.0))


class TestScenes:
    def test_annotations_are_exact_projections(self):
        scenes = generate_scenes(3, [_camera(585)], seed=1)
        for scene in scenes:
            for obj in scene.objects:
                assert obj.h_proj == scene.camera.fy * obj.height / obj.depth
                assert obj.w_proj == scene.camera.fx * obj.width / obj.depth
                assert obj.box.center[2] == obj.depth

    def test_same_seed_identical_corpora(self):
        a = generate_scenes(5, [_camera(585), _camera(1000)], seed=9)
        b = generate_scenes(5, [_camera(585), _camera(1000)], seed=9)
        assert a == b

    def test_round_robin_camera_assignment(self):
        scenes = generate_scenes(6, [_camera(585), _camera(1000)], seed=2)
        assert [s.camera_index for s in scenes] == [0, 1, 0, 1, 0, 1]

    def test_cluster_h_proj_separates_while_geometry_matches(self):
        scenes = generate_scenes(200, [_camera(580), _camera(1000)], seed=3)
        by_cluster = {0: [], 1: []}
        heights = {0: [], 1: []}
        for scene in scenes:
            for obj in scene.objects:
                by_cluster[scene.camera_index].append(obj.h_proj)
                heights[scene.camera_index].append(obj.height)
        ratio = statistics.fmean(by_cluster[1]) / statistics.fmean(by_cluster[0])
        assert ratio == pytest.approx(1000 / 580, rel=0.1)
        assert statistics.fmean(heights[0]) == pytest.approx(statistics.fmean(heights[1]), rel=0.05)

    @pytest.mark.parametrize("mean, spread, names", [(0.85, float("nan"), "spread"), (0.85, -0.1, "spread"),
                                                     (0.0, 0.1, "mean"), (float("inf"), 0.1, "mean")])
    def test_size_prior_rejects_bad_values(self, mean, spread, names):
        with pytest.raises(CamGeomError, match=names):
            SizePrior(mean, spread)

    def test_fit_canonical_focal(self):
        scenes = generate_scenes(10, [_camera(580), _camera(1160)], seed=4)
        assert fit_canonical_focal(scenes) == 870.0
        assert fit_canonical_focal(scenes, mode="median") == 870.0

    def test_fit_canonical_focal_rejects_an_unknown_mode(self):
        scenes = generate_scenes(2, [_camera(580)], seed=4)
        with pytest.raises(CamGeomError, match="mode"):
            fit_canonical_focal(scenes, mode="x")

    @pytest.mark.parametrize("objects_per_scene", [0, -2])
    def test_at_least_one_object_per_scene(self, objects_per_scene):
        with pytest.raises(BelowMinimum, match="objects_per_scene"):
            generate_scenes(4, [_camera(580)], objects_per_scene=objects_per_scene)


class TestBiasExperiment:
    def test_no_resize_is_exact_for_both(self):
        scenes = generate_scenes(20, [_camera(585)], seed=5)
        for estimator in ("agnostic", "aware"):
            (row,) = run_bias_experiment(scenes, [1.0], estimator=estimator)
            assert row.ratio_mean == pytest.approx(1.0, abs=1e-12)
            assert row.f1 == 100.0

    def test_agnostic_ratio_is_inverse_scale(self):
        # with exact priors the bias is an algebraic identity, not a fit
        scenes = generate_scenes(20, [_camera(585)], seed=6)
        rows = run_bias_experiment(scenes, [0.8, 1.2], estimator="agnostic")
        assert rows[0].ratio_mean == pytest.approx(1.25, abs=1e-12)
        assert rows[1].ratio_mean == pytest.approx(1 / 1.2, abs=1e-12)
        # the displaced boxes stop matching: detection quality collapses
        assert rows[0].f1 < 50.0

    def test_aware_ratio_is_one_at_any_scale(self):
        scenes = generate_scenes(20, [_camera(585)], seed=7)
        for row in run_bias_experiment(scenes, [0.8, 1.0, 1.2], estimator="aware"):
            assert row.ratio_mean == pytest.approx(1.0, abs=1e-12)
            assert row.f1 == 100.0

    def test_noisy_priors_blur_but_keep_the_law(self):
        priors = {"chair": (0.85, 0.1), "table": (0.75, 0.1)}
        scenes = generate_scenes(300, [_camera(585)], size_priors=priors, seed=8)
        (row,) = run_bias_experiment(scenes, [0.8], estimator="agnostic")
        assert row.ratio_std > 0.01  # spread is real
        assert row.ratio_mean == pytest.approx(1.25, rel=0.05)  # law survives on average


class TestMixedPool:
    def test_two_cluster_conflict(self):
        scenes = generate_scenes(40, [_camera(580), _camera(1160)], seed=9)
        f_assumed, rows = run_mixed_pool_experiment(scenes, estimators=("agnostic",))
        assert f_assumed == 870.0
        by_focal = {row.cluster_focal: row for row in rows}
        assert by_focal[580].ratio_mean == pytest.approx(1.5, rel=0.01)
        assert by_focal[1160].ratio_mean == pytest.approx(0.75, rel=0.01)

    def test_single_cluster_is_unbiased(self):
        scenes = generate_scenes(10, [_camera(585)], seed=10)
        _, rows = run_mixed_pool_experiment(scenes, estimators=("agnostic", "aware"))
        for row in rows:
            assert row.ratio_mean == pytest.approx(1.0, abs=1e-9)

    def test_aware_is_exact_per_cluster(self):
        scenes = generate_scenes(40, [_camera(580), _camera(1160)], seed=11)
        _, rows = run_mixed_pool_experiment(scenes, estimators=("aware",))
        for row in rows:
            assert row.ratio_mean == pytest.approx(1.0, abs=1e-9)
            assert row.expected_ratio == 1.0
