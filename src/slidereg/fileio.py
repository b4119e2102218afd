"""File ingestion and export: binary PGM (P5), raw int16 volumes, landmarks.

Formats
-------
PGM: binary ``P5``, 8-bit for maxval <= 255 else 16-bit big-endian, as the
format prescribes. 2D only; geometry defaults to unit spacing at origin 0.

raw16: headerless little-endian signed 16-bit volume, row-major with axis 0
slowest, described by a mandatory JSON sidecar::

    {"dims": [94, 256, 256], "spacing": [2.5, 0.97, 0.97], "origin": [0, 0, 0]}

``origin`` is optional (defaults to zeros). :func:`read_image` looks for
the sidecar at ``<path>.json``, then at ``<stem>.json``.

Landmarks: plain text, one point per line, whitespace-separated numbers,
1-based indices by default.
"""
from __future__ import annotations

import json
import os

import numpy as np

from .errors import FormatError
from .geometry import GridGeometry, LandmarkSet, ScalarImage

__all__ = [
    "read_pgm",
    "write_pgm",
    "read_raw16",
    "read_image",
    "read_landmarks",
]


def _read_pgm_token(buf: bytes, pos: int, path: str) -> tuple[bytes, int]:
    # skip whitespace and '#' comment lines
    n = len(buf)
    while pos < n:
        c = buf[pos : pos + 1]
        if c == b"#":
            while pos < n and buf[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise FormatError(f"{path}: header ended prematurely at byte {pos}")
    start = pos
    while pos < n and not buf[pos : pos + 1].isspace():
        pos += 1
    return buf[start:pos], pos


def read_pgm(path) -> ScalarImage:
    """Read a binary (P5) PGM file into a 2D image."""
    path = os.fspath(path)
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:2] != b"P5":
        raise FormatError(f"{path}: not a binary PGM (magic {buf[:2]!r} at byte 0)")
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _read_pgm_token(buf, pos, path)
        try:
            fields.append(int(tok))
        except ValueError:
            raise FormatError(f"{path}: non-numeric header token {tok!r} at byte {pos}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"{path}: bad image size {width}x{height}")
    if not 0 < maxval < 65536:
        raise FormatError(f"{path}: maxval {maxval} out of range")
    pos += 1  # single whitespace byte after maxval
    two_byte = maxval > 255
    need = width * height * (2 if two_byte else 1)
    raster = buf[pos : pos + need]
    if len(raster) < need:
        raise FormatError(
            f"{path}: raster truncated, expected {need} bytes after byte {pos}, got {len(raster)}"
        )
    dtype = ">u2" if two_byte else "u1"
    values = np.frombuffer(raster, dtype=dtype).astype(float).reshape(height, width)
    geom = GridGeometry((height, width), (1.0, 1.0), (0.0, 0.0))
    return ScalarImage(geom, values)


def write_pgm(path, img: ScalarImage) -> None:
    """Write a 2D image as binary PGM; values must be integers in [0, 65535]."""
    if img.geometry.ndim != 2:
        raise ValueError("PGM export is 2D only")
    v = img.values
    r = np.rint(v)
    if not np.allclose(v, r, atol=1e-9):
        raise ValueError("PGM export requires integer-valued intensities")
    if r.min() < 0 or r.max() > 65535:
        raise ValueError(f"PGM intensities must lie in [0, 65535], got [{r.min()}, {r.max()}]")
    maxval = 255 if r.max() <= 255 else 65535
    height, width = img.geometry.dims
    header = f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
    raster = r.astype(">u2" if maxval > 255 else "u1").tobytes()
    with open(os.fspath(path), "wb") as fh:
        fh.write(header)
        fh.write(raster)


def read_raw16(path, meta_path) -> ScalarImage:
    """Read a little-endian int16 volume described by a JSON sidecar."""
    path = os.fspath(path)
    meta_path = os.fspath(meta_path)
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{meta_path}: invalid JSON sidecar at line {exc.lineno}") from None
    for key in ("dims", "spacing"):
        if key not in meta:
            raise FormatError(f"{meta_path}: sidecar missing required key {key!r}")
    dims = tuple(int(n) for n in meta["dims"])
    spacing = tuple(float(s) for s in meta["spacing"])
    origin = tuple(float(o) for o in meta.get("origin", [0.0] * len(dims)))
    endian = meta.get("endianness", "little")
    if endian != "little":
        raise FormatError(f"{meta_path}: unsupported endianness {endian!r}")
    need = int(np.prod(dims)) * 2
    size = os.path.getsize(path)
    if size != need:
        raise FormatError(
            f"{path}: file is {size} bytes but sidecar dims {dims} require {need}"
            f" (mismatch from byte {min(size, need)})"
        )
    values = np.fromfile(path, dtype="<i2").astype(float).reshape(dims)
    return ScalarImage(GridGeometry(dims, spacing, origin), values)


def read_image(path, sidecar=None) -> ScalarImage:
    """Read a ``.pgm`` file, or else a raw16 volume whose sidecar is
    ``sidecar`` if given, else ``<path>.json`` if it exists, else ``<stem>.json``."""
    path = os.fspath(path)
    if path.endswith(".pgm"):
        return read_pgm(path)
    if sidecar is None:
        sidecar = path + ".json"
        if not os.path.exists(sidecar):
            sidecar = os.path.splitext(path)[0] + ".json"
    return read_raw16(path, sidecar)


def read_landmarks(path, index_base: int = 1, dims=None) -> LandmarkSet:
    """Read whitespace-separated landmark coordinates, one point per line.

    ``index_base`` is subtracted so stored points are 0-based. If ``dims``
    is given, every normalized point is bounds-checked against the grid.
    """
    path = os.fspath(path)
    rows = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                coords = [float(p) for p in parts]
            except ValueError:
                raise FormatError(f"{path}: non-numeric landmark on line {lineno}") from None
            if width is None:
                width = len(coords)
                if width not in (2, 3):
                    raise FormatError(f"{path}: line {lineno} has {width} coordinates, need 2 or 3")
            elif len(coords) != width:
                raise FormatError(
                    f"{path}: line {lineno} has {len(coords)} coordinates, expected {width}"
                )
            rows.append(coords)
    if not rows:
        raise FormatError(f"{path}: no landmarks found")
    pts = np.asarray(rows, float) - float(index_base)
    if dims is not None:
        dims_arr = np.asarray(dims, float)
        bad = np.nonzero(np.any((pts < 0) | (pts > dims_arr - 1), axis=1))[0]
        if bad.size:
            raise FormatError(
                f"{path}: landmark on line {int(bad[0]) + 1} at "
                f"{(pts[bad[0]] + index_base).tolist()} outside grid dims {tuple(dims)}"
            )
    return LandmarkSet(pts, index_base=index_base)
