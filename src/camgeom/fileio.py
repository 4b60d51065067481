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
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Any

import numpy as np

from .camera import Intrinsics
from .depthmap import DepthMap
from .errors import MalformedFile

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
    """Write a (rows, cols) or (rows, cols, dim) array as a CGEM tensor."""
    data = np.asarray(data)
    if data.ndim == 2:
        data = data[:, :, None]
    if data.ndim != 3:
        raise MalformedFile(f"CGEM tensors are rows x cols x dim, got shape {data.shape}")
    rows, cols, dim = data.shape
    payload = np.ascontiguousarray(data, dtype="<f4")
    with _open_atomic(path) as fh:
        fh.write(_HEADER.pack(MAGIC, rows, cols, dim))
        fh.write(payload)


def read_cgem(path: str | Path) -> np.ndarray:
    """Read a CGEM tensor as float32, shape (rows, cols, dim)."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise MalformedFile(f"{path}: truncated CGEM header")
    magic, rows, cols, dim = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise MalformedFile(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    expected = rows * cols * dim * 4
    body = raw[_HEADER.size :]
    if len(body) != expected:
        raise MalformedFile(f"{path}: payload is {len(body)} bytes, expected {expected}")
    try:
        return np.frombuffer(body, dtype="<f4").reshape(rows, cols, dim).astype(np.float32)
    except ValueError:  # an empty tensor whose other two extents overflow numpy's size limit
        raise MalformedFile(f"{path}: shape {rows}x{cols}x{dim} is too large") from None


def _read_text(path: str | Path) -> str:
    """The UTF-8 text of a file; bytes that are not UTF-8 raise MalformedFile naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_json(path: str | Path) -> Any:
    """The JSON value in a UTF-8 file; text that is not JSON raises MalformedFile naming the file."""
    try:
        return json.loads(_read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise MalformedFile(f"{path}: invalid JSON ({exc})") from None


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
    """Read a depth CGEM; returns the map and the sidecar intrinsics if present."""
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
        raise MalformedFile(f"PPM needs uint8 H x W x 3 data, got {data.dtype} {data.shape}")
    height, width = data.shape[:2]
    with _open_atomic(path) as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(data))


def read_ppm(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if not raw.startswith(b"P6"):
        raise MalformedFile(f"{path}: not a binary PPM (P6) file")
    fields: list[bytes] = []
    pos = 2
    try:
        while len(fields) < 3:
            while pos < len(raw) and raw[pos : pos + 1].isspace():
                pos += 1
            if raw[pos : pos + 1] == b"#":  # comment line
                pos = raw.index(b"\n", pos) + 1
                continue
            start = pos
            while pos < len(raw) and not raw[pos : pos + 1].isspace():
                pos += 1
            fields.append(raw[start:pos])
        width, height, maxval = (int(f) for f in fields)
    except ValueError:
        raise MalformedFile(f"{path}: malformed PPM header") from None
    if width < 1 or height < 1:
        raise MalformedFile(f"{path}: PPM extent must be at least 1x1, got {width}x{height}")
    if maxval != 255:
        raise MalformedFile(f"{path}: only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace after maxval
    body = raw[pos : pos + width * height * 3]
    if len(body) != width * height * 3:
        raise MalformedFile(f"{path}: truncated pixel data")
    return np.frombuffer(body, dtype=np.uint8).reshape(height, width, 3).copy()


def load_intrinsics(path: str | Path) -> Intrinsics:
    return Intrinsics.from_json(_read_text(path), where=str(path))


def save_intrinsics(path: str | Path, k: Intrinsics) -> None:
    with _open_atomic(path, "w") as fh:
        fh.write(k.to_json() + "\n")
