"""On-disk formats: CGEM float tensors, binary PPM rasters, JSON sidecars.

CGEM is a minimal grid-tensor container used for embeddings, depth maps and
point grids: a 16-byte header (magic ``CGEM``, then u32 rows, cols, dim,
little-endian) followed by row-major float32 little-endian samples.  Depth
maps use dim = 1 with NaN encoding invalid pixels.  Every tensor travels
with a ``<name>.json`` sidecar describing how it was produced.

Every file is written to a short temporary name beside its target and then
renamed over it, so a reader never sees a partly written file and a failed
write leaves nothing behind.
"""

from __future__ import annotations

import json
import os
import re
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Any

import numpy as np

from .camera import Intrinsics
from .depthmap import DepthMap
from .errors import MalformedFile, _json

__all__ = [
    "write_cgem",
    "read_cgem",
    "sidecar_path",
    "write_json",
    "write_sidecar",
    "read_sidecar",
    "write_depth",
    "read_depth",
    "write_ppm",
    "read_ppm",
    "load_intrinsics",
    "save_intrinsics",
]

MAGIC = b"CGEM"
_HEADER = struct.Struct("<4sIII")
_PPM_HEADER = re.compile(rb"P6" + rb"(?:\s|#[^\n]*\n)*(\S*)" * 3)  # each field after whitespace and comment lines


@contextmanager
def _open_atomic(path: str | Path, mode: str = "wb", **kwargs):
    """A new file that replaces ``path`` when the block ends; if the block raises, it is removed.

    The temporary name is short, so a target name too long for the file system
    fails at the rename, and an error names the target, never the temporary
    file.  ``open`` creates the file with its usual mode (umask applied).
    """
    path = Path(path)
    temp = path.parent / f".camgeom-{os.urandom(6).hex()}.tmp"
    try:
        with open(temp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
        os.replace(temp, path)
    except BaseException as exc:
        temp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(temp):
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def write_cgem(path: str | Path, data: np.ndarray) -> None:
    """Write a (rows, cols) or (rows, cols, dim) array as CGEM; MalformedFile for a finite value past float32.

    C-ordered little-endian float32 data is written as it is, with no copy; any other is first converted in one
    more pass, each value rounded once to float32."""
    data = np.asarray(data)
    if data.ndim == 2:
        data = data[:, :, None]
    if data.ndim != 3:
        raise MalformedFile(f"{path}: CGEM tensors are rows x cols x dim, got shape {data.shape}")
    rows, cols, dim = data.shape
    try:
        with np.errstate(over="raise"):
            payload = np.ascontiguousarray(data, dtype="<f4")
    except FloatingPointError:
        raise MalformedFile(f"{path}: a finite value is past the float32 range") from None
    with _open_atomic(path) as fh:
        fh.write(_HEADER.pack(MAGIC, rows, cols, dim))
        fh.write(payload)


def read_cgem(path: str | Path) -> np.ndarray:
    """Read a CGEM tensor as float32, shape (rows, cols, dim): a read-only view of the bytes read, not a copy."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise MalformedFile(f"{path}: truncated CGEM header")
    magic, rows, cols, dim = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise MalformedFile(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    count = rows * cols * dim
    if len(raw) - _HEADER.size != 4 * count:
        raise MalformedFile(f"{path}: payload is {len(raw) - _HEADER.size} bytes, expected {4 * count}")
    try:
        return np.frombuffer(raw, "<f4", count=count, offset=_HEADER.size).reshape(rows, cols, dim)
    except ValueError:  # an empty tensor whose other two extents overflow numpy's size limit
        raise MalformedFile(f"{path}: shape {rows}x{cols}x{dim} is too large") from None


def _utf8(path: str | Path, raw: bytes) -> str:
    """``raw``, the bytes read from ``path``, as UTF-8 text; bytes that are not UTF-8 raise MalformedFile naming it."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_text(path: str | Path) -> str:
    """The UTF-8 text of a file (:func:`_utf8`), each line ending read as ``\\n``."""
    return _utf8(path, Path(path).read_bytes()).replace("\r\n", "\n").replace("\r", "\n")


def _read_json(path: str | Path) -> Any:
    """The JSON value in a UTF-8 file; text that is not JSON raises MalformedFile naming the file."""
    return _json(str(path), _read_text(path), MalformedFile)


def sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".json")


def write_json(path: str | Path, obj: Any) -> None:
    """Indented, key-sorted JSON with a trailing newline: sidecars, reports and config echoes."""
    with _open_atomic(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_sidecar(path: str | Path, meta: dict[str, Any]) -> None:
    write_json(sidecar_path(path), meta)


def read_sidecar(path: str | Path) -> dict[str, Any]:
    meta = _read_json(sidecar_path(path))
    if not isinstance(meta, dict):
        raise MalformedFile(f"{sidecar_path(path)}: a sidecar must be a JSON object")
    return meta


def write_depth(path: str | Path, depth: DepthMap, k: Intrinsics | None = None) -> None:
    """Depth map as CGEM dim=1 (NaN = invalid) with intrinsics in the sidecar."""
    write_cgem(path, depth.values)
    meta: dict[str, Any] = {"kind": "depth", "invalid": "nan", "units": "meters"}
    if k is not None:
        meta["intrinsics"] = k.to_dict()
    write_sidecar(path, meta)


def read_depth(path: str | Path) -> tuple[DepthMap, Intrinsics | None]:
    """Read a depth CGEM; returns the map, ``DepthMap.from_array``'s one float64 copy, and any sidecar intrinsics."""
    data = read_cgem(path)
    if data.shape[2] != 1:
        raise MalformedFile(f"{path}: depth tensors must have dim = 1, got {data.shape[2]}")
    depth = DepthMap.from_array(data[:, :, 0])
    k = None
    if sidecar_path(path).exists():
        meta = read_sidecar(path)
        if "intrinsics" in meta:
            k = Intrinsics.from_mapping(meta["intrinsics"], where=f"{sidecar_path(path)}:intrinsics")
    return depth, k


def write_ppm(path: str | Path, data: np.ndarray) -> None:
    """Binary PPM (P6) for 8-bit 3-channel images, shape (H, W, 3)."""
    data = np.asarray(data)
    if data.ndim != 3 or data.shape[2] != 3 or data.dtype != np.uint8:
        raise MalformedFile(f"{path}: PPM needs uint8 H x W x 3 data, got {data.dtype} {data.shape}")
    height, width = data.shape[:2]
    with _open_atomic(path) as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(data))


def read_ppm(path: str | Path) -> np.ndarray:
    """Read a binary PPM as uint8, shape (H, W, 3): a read-only view of the bytes read, not a copy."""
    raw = Path(path).read_bytes()
    if not raw.startswith(b"P6"):
        raise MalformedFile(f"{path}: not a binary PPM (P6) file")
    header = _PPM_HEADER.match(raw)
    try:
        width, height, maxval = (int(field) for field in header.groups())
    except ValueError:
        raise MalformedFile(f"{path}: malformed PPM header") from None
    if width < 1 or height < 1:
        raise MalformedFile(f"{path}: PPM extent must be at least 1x1, got {width}x{height}")
    if maxval != 255:
        raise MalformedFile(f"{path}: only maxval 255 supported, got {maxval}")
    pos = header.end() + 1  # single whitespace after maxval
    if len(raw) - pos < width * height * 3:
        raise MalformedFile(f"{path}: truncated pixel data")
    return np.frombuffer(raw, np.uint8, count=width * height * 3, offset=pos).reshape(height, width, 3)


def load_intrinsics(path: str | Path) -> Intrinsics:
    return Intrinsics.from_json(_read_text(path), where=str(path))


def save_intrinsics(path: str | Path, k: Intrinsics) -> None:
    with _open_atomic(path, "w") as fh:
        fh.write(k.to_json() + "\n")
