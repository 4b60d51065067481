"""SHA-256 pins of the tokens path: ray embeddings, token points, geometric
embeddings, per-pixel unprojection, and the CLI files that write them.

The inputs are fixed and seeded, so any change to the arithmetic, the
channel layout or the on-disk bytes of these outputs shows here.
"""

import hashlib

import numpy as np
import pytest

from camgeom import DepthMap, Intrinsics, TokenGridSpec, embed, embed_points, ray_grid, token_point_grid, unproject
from camgeom.cli import main
from camgeom.fileio import save_intrinsics, sidecar_path, write_depth
from camgeom.rays import RayGrid

K = Intrinsics(512.5, 497.25, 31.75, 24.5, 64, 48)
# both zeros on both axes
SIGNED_ZEROS = RayGrid(np.array([0.0, -0.0, 0.25, -1e-300, 3.5]), np.array([-0.0, 0.5, 0.0, 1e-300]))


def _depth() -> DepthMap:
    """A 64 x 48 depth map with NaN, inf, zero and negative holes, some at token centers."""
    values = np.random.default_rng(16).uniform(0.5, 9.0, (48, 64))
    values[::5, ::3] = np.nan
    values[8, 8] = np.inf  # token (0, 0) at patch 16 samples pixel (8, 8)
    values[24, 40] = 0.0  # token (1, 2)
    values[40, 56] = -2.0  # token (2, 3)
    values[7, 20] = -np.inf  # token (0, 1) at patch 14 samples pixel (7, 21), next to this hole
    return DepthMap.from_array(values)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()[:16]


def _library_outputs():
    """Case name -> a call returning the arrays whose bytes are pinned."""
    depth = _depth()
    outputs = {
        "embed-signed-zeros": lambda: [embed(SIGNED_ZEROS, K, dim=32).data],
        "embed-signed-zeros-reference": lambda: [embed(SIGNED_ZEROS, K, dim=32, focal_reference=512.5).data],
        "unproject": lambda: unproject(depth, K),
    }
    for origin in ("center", "corner"):
        rays = ray_grid(K, TokenGridSpec.cover(K, 14.0), origin=origin)  # 4 x 5 tokens, partial last patches
        for dim in (8, 64, 256):
            outputs[f"embed-{origin}-{dim}"] = lambda rays=rays, dim=dim: [embed(rays, K, dim=dim).data]
    for patch in (14.0, 16.0):
        points = token_point_grid(depth, K, TokenGridSpec.cover(K, patch))
        outputs[f"token_point_grid-{patch:g}"] = lambda points=points: [points.points, points.valid]
        for dim in (12, 240):
            outputs[f"embed_points-{patch:g}-{dim}"] = lambda points=points, dim=dim: [embed_points(points, dim).data]
    return outputs


PINNED = {
    "embed-center-8": "7fdcef94e79bc4c8",
    "embed-center-64": "154d965e88f53872",
    "embed-center-256": "9f40d67cd7c3ddb4",
    "embed-corner-8": "cb36c985adc1bac2",
    "embed-corner-64": "5c9974cf9eac9c98",
    "embed-corner-256": "b3b997309d09bd50",
    "embed-signed-zeros": "6c96b6cc2efbbadb",
    "embed-signed-zeros-reference": "5d34d8b50a2f4468",
    "token_point_grid-14": "5bc4b4d67bcdbb81",
    "token_point_grid-16": "c1e945eac26ecdfe",
    "embed_points-14-12": "35c291774fb0160a",
    "embed_points-14-240": "4376f21f1d9692b6",
    "embed_points-16-12": "d6da1f7119f0913e",
    "embed_points-16-240": "6c7dbc2a077189a3",
    "unproject": "e8cf4c250323b9d0",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_library_output_bytes_are_pinned(name):
    assert _digest(*_library_outputs()[name]()) == PINNED[name]


def test_the_pinned_inputs_hold_invalid_tokens_and_signed_zeros():
    depth = _depth()
    for patch in (14.0, 16.0):
        assert 0 < np.count_nonzero(~token_point_grid(depth, K, TokenGridSpec.cover(K, patch)).valid) < 20
    for channel in (SIGNED_ZEROS.rx, SIGNED_ZEROS.ry):
        assert sorted(np.signbit(channel[channel == 0])) == [False, True]


# argv after the subcommand -> the file it writes
CLI_RUNS = {
    "embed": (["embed", "--intrinsics", "k.json", "--out", "ray/ray.cgem", "--patch", "14"], "ray/ray.cgem"),
    "embed-depth": (["embed", "--intrinsics", "k.json", "--depth", "depth.cgem", "--out", "geo/geo.cgem"],
                    "geo/geo.cgem"),
    "unproject": (["unproject", "--depth", "depth.cgem", "--out", "points/points.cgem"], "points/points.cgem"),
}
PINNED_CLI = {
    "embed": ["4965a8ffa0c03601", "8f4ab7b4a766412e"],
    "embed-depth": ["b982a44e902f2558", "cbd6263a0c6f36f9"],
    "unproject": ["a8962463afcd0711", "5f735843afaad920"],
}


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_output_files_are_pinned(tmp_path, monkeypatch, name):
    save_intrinsics(tmp_path / "k.json", K)
    write_depth(tmp_path / "depth.cgem", _depth(), K)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CAMGEOM_CONFIG", raising=False)
    argv, out = CLI_RUNS[name]
    assert main(argv) == 0
    blobs = [(tmp_path / out).read_bytes(), sidecar_path(tmp_path / out).read_bytes()]
    assert [hashlib.sha256(blob).hexdigest()[:16] for blob in blobs] == PINNED_CLI[name]
