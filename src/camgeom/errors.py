"""Exception types shared across the toolkit, and its one rule each for numbers and JSON.

Everything derives from :class:`CamGeomError` (a ``ValueError``) so callers
can catch toolkit validation failures with a single except clause.

A number taken from a caller is an int or a float (``np.float64`` is one),
never a bool or text, and finite: NaN, +-inf and ints too large for a float
are not.  A count is an int or an integral float.  :func:`_number`,
:func:`_positive`, :func:`_factors` and :func:`_count` apply this rule for
every value type and checker, raising the error class their caller names.
JSON from outside is decoded by :func:`_json` alone: text that is not JSON,
nests too deep or holds an over-long integer raises its reader's class.
"""

import json

_LARGEST = 1.7976931348623157e308


def _number(what: str, value, error: type) -> float:
    """``value`` as a float if it is a finite int or float; ``error`` otherwise."""
    if value.__class__ is float and -_LARGEST <= value <= _LARGEST:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{what}: must be a number, got {value!r}")
    if not abs(value) <= _LARGEST:  # false for NaN and inf, exact for ints of any size
        raise error(f"{what}: must be finite, got {value!r}")
    return float(value)


def _positive(what: str, value, error: type) -> float:
    """:func:`_number`, and > 0."""
    if value.__class__ is float and 0 < value <= _LARGEST:  # the common case, in one test
        return value
    if not _number(what, value, error) > 0:
        raise error(f"{what}: must be > 0, got {value!r}")
    return float(value)


def _factors(what: str, values, names: tuple[str, ...], error: type) -> tuple[float, ...]:
    """``values``, a tuple or list with one entry > 0 (:func:`_positive`) for each of ``names``."""
    if not isinstance(values, (tuple, list)) or len(values) != len(names):
        raise error(f"{what}: must be {len(names)} numbers {names}, got {values!r}")
    return tuple(_positive(n, v, error) for n, v in zip(names, values))


def _count(what: str, value, error: type, minimum: int = 1) -> int:
    """``value`` as an int if it is an int or an integral float (:func:`_number`), >= ``minimum``."""
    number = value if value.__class__ is int else _number(what, value, error)
    if not minimum <= number <= _LARGEST or number != int(number):
        raise error(f"{what}: must be an integer >= {minimum}, got {value!r}")
    return int(number)


def _json(what: str, text: str, error: type):
    """The JSON value in ``text``; ``error`` naming ``what`` if it cannot be decoded."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: not JSON or an over-long int; RecursionError: too deep
        raise error(f"{what}: invalid JSON ({exc})") from None


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
    """An array shape or dtype, or an embedding dimension, that does not fit its value type or channel layout."""


class InvalidValue(CamGeomError):
    """A value no narrower class covers that a type cannot hold: an empty label, a non-finite ray component."""


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
