"""Exception types shared across the toolkit.

Everything derives from :class:`CamGeomError` (a ``ValueError``) so callers
can catch toolkit validation failures with a single except clause.
"""


class CamGeomError(ValueError):
    """Base class for all camgeom validation errors."""


class NonPositiveDepth(CamGeomError):
    """Depth Z <= 0: the point is on or behind the image plane."""


class NonPositiveSize(CamGeomError):
    """A physical extent (height/width) must be > 0."""


class NonPositiveScale(CamGeomError):
    """A resize factor must be > 0."""


class NonPositiveInput(CamGeomError):
    """Depth-from-prior estimators require strictly positive inputs."""


class NonPositiveFactor(CamGeomError):
    """Equivalence-class factors (lambda, alpha, beta) must be > 0."""


class IntrinsicsError(CamGeomError):
    """Invalid intrinsics value or unparsable intrinsics JSON."""


class BelowMinimum(CamGeomError):
    """A count or extent below its minimum (token grid, scene count, camera pool)."""


class MalformedFile(CamGeomError):
    """Data or file bytes that do not fit their on-disk format (CGEM, PPM, depth)."""


class GridExceedsImage(CamGeomError):
    """Token grid extends more than one patch beyond the image."""


class BadDimension(CamGeomError):
    """Embedding dimension incompatible with the channel layout."""


class ExtentMismatch(CamGeomError):
    """Depth map extent does not match the intrinsics extent."""


class CropOutOfBounds(CamGeomError):
    """Crop-mode resample window reaches outside the scaled source."""


class DegenerateBox(CamGeomError):
    """Oriented box with non-positive size or non-finite parameters."""


class NoParsableJson(CamGeomError):
    """No JSON payload could be recovered from a detection transcript."""


class BadThreshold(CamGeomError):
    """IoU threshold outside (0, 1]."""
