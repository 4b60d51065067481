"""Property tests of the pinhole core: unprojection, the resize rule, ray preservation.

Derandomized with no example database, so every run draws the same cases;
``conftest.py`` keeps Hypothesis's remaining cache out of the checkout.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from camgeom.camera import Intrinsics, project_array, unproject_array
from camgeom.transforms import PixelTransform, ray_preservation_check, scale

SETTINGS = settings(database=None, derandomize=True, deadline=None)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, allow_subnormal=False)


@st.composite
def intrinsics(draw):
    width = draw(st.integers(1, 4096))
    height = draw(st.integers(1, 4096))
    # principal points at 0 or at least 1e-3 px from it: the relative round-trip
    # bound below is meaningless for values that scaling pushes toward subnormals
    def principal(extent):
        return _floats(-extent, 2 * extent).filter(lambda c: c == 0 or abs(c) >= 1e-3)

    return Intrinsics(draw(_floats(50, 5000)), draw(_floats(50, 5000)),
                      draw(principal(width)), draw(principal(height)), width, height)


@SETTINGS
@given(intrinsics(), st.lists(st.tuples(_floats(0, 1), _floats(0, 1), _floats(1e-3, 1e4)), min_size=1, max_size=16))
def test_project_inverts_unproject(k, samples):
    fu, fv, z = (np.array(c) for c in zip(*samples))
    u, v = fu * k.width, fv * k.height
    uv = project_array(unproject_array(u, v, z, k), k)
    assert np.max(np.abs(uv - np.stack([u, v], axis=-1))) <= 1e-9


@SETTINGS
@given(intrinsics(), _floats(1 / 64, 64))
def test_scale_round_trip(k, s):
    back = scale(scale(k, s), 1 / s)
    for name in ("fx", "fy", "cx", "cy"):
        assert math.isclose(getattr(back, name), getattr(k, name), rel_tol=1e-12, abs_tol=0.0), name


@SETTINGS
@given(intrinsics(), _floats(0.05, 20), _floats(0.05, 20), _floats(-5000, 5000), _floats(-5000, 5000),
       st.integers(1, 8192), st.integers(1, 8192))
def test_consistent_update_preserves_rays(k, sx, sy, du, dv, out_width, out_height):
    t = PixelTransform(sx, sy, du, dv, out_width, out_height)
    assert ray_preservation_check(k, t, samples=16) < 1e-9
