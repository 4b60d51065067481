"""
Dense camera ray embeddings for token grids
===========================================

Vision-transformer tokens tile the image in patch x patch blocks.  Each
token's line of sight is ((u - cx)/fx, (v - cy)/fy) at its patch center;
encoding those components (plus the log-scaled focal lengths) with
sinusoids yields a per-token camera embedding that depends on geometry
only -- identical for any image content, and invariant when image,
intrinsics and patch size are rescaled together.
"""

import tempfile
from pathlib import Path

import numpy as np

from camgeom import Intrinsics, TokenGridSpec, embed, ray_grid, scale
from camgeom.fileio import read_cgem, read_sidecar, write_cgem, write_sidecar

k = Intrinsics(585.0, 585.0, 320.0, 240.0, 640, 480)
grid = TokenGridSpec.cover(k, patch=16)
print(f"{grid.rows} x {grid.cols} tokens of {grid.patch:g} px over {k.width} x {k.height}")

rays = ray_grid(k, grid)
print("rx range:", rays.rx.min(), "..", rays.rx.max())
print("ry range:", rays.ry.min(), "..", rays.ry.max())

emb = embed(rays, k, dim=256)
print("embedding:", emb.data.shape, "layout", emb.layout, "all in [-1, 1]:",
      bool(np.all(np.abs(emb.data) <= 1)))

# Consistent rescale leaves the ray channels untouched.
s = 0.5
k_s = scale(k, s)
emb_s = embed(ray_grid(k_s, TokenGridSpec(grid.rows, grid.cols, grid.patch * s)), k_s, dim=256)
ray_channels = emb.dim // 2
dev = np.abs(emb_s.data[:, :, :ray_channels] - emb.data[:, :, :ray_channels]).max()
print(f"ray-channel deviation after consistent x{s} rescale: {dev:.2e}")

# Export: flat binary tensor plus a JSON sidecar that makes it self-describing.
out = Path(tempfile.mkdtemp(prefix="camgeom_demo_")) / "e_cam.cgem"
write_cgem(out, emb.data)
write_sidecar(out, {
    "kind": "camera_ray_embedding",
    "channel_layout": list(emb.layout),
    "dims_per_channel": emb.dim // 4,
    "base_period": emb.meta["base_period"],
    "focal_reference": emb.meta["focal_reference"],
    "intrinsics": k.to_dict(),
    "token_grid": {"rows": grid.rows, "cols": grid.cols, "patch": grid.patch},
})
print("\nwrote", out, "->", read_cgem(out).shape, read_sidecar(out)["kind"])
