"""Binary PPM (P6) and PGM (P5) readers/writers, 8-bit only, and the file
primitives the whole package shares: the atomic writer, the CSV writer,
directory creation and the JSON document reader.

Images map [0, 1] floats to bytes by round(v * 255) and back to float32 by
/255, so a write-read round trip is lossless at 8-bit quantization; masks
round-trip bitwise.
"""

from __future__ import annotations

import csv
import io
import json
import os

import numpy as np

from .errors import ConfigError, FormatError, IoError

MAXVAL = 255


def atomic_write(path: str, payload: bytes) -> None:
    """Write ``payload`` to ``path`` all at once or not at all.

    The bytes go to ``<path>.tmp.<pid>`` and are renamed over ``path``, so a
    reader sees either the old file or the complete new one. On failure the
    temp file is removed and the ``OSError`` becomes an ``IoError``. Every file
    the package writes goes through here.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except OSError as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_csv(path: str, fieldnames: list[str], rows: list[dict]) -> None:
    """Write ``rows`` under a header of ``fieldnames`` through ``atomic_write``."""
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)
    atomic_write(path, buf.getvalue().encode())


def make_dirs(path: str) -> None:
    """``os.makedirs(path, exist_ok=True)`` with failures raised as ``IoError``."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {path}: {exc}") from exc


def read_json(path: str) -> dict:
    """Parse a JSON document whose root is an object: a config or a manifest.

    An unreadable file is an ``IoError``; bad JSON, non-UTF-8 bytes or
    another root type are a ``ConfigError``.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON, not UTF-8 ({exc.reason})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: JSON root must be an object")
    return doc


def _read_header(data: bytes, magic: bytes, path: str) -> tuple[int, int, int]:
    """Parse 'P6/P5 <w> <h> <maxval>' allowing comments; returns (w, h, offset)."""
    if not data.startswith(magic):
        raise FormatError(f"{path}: expected magic {magic.decode()}")
    pos = len(magic)
    fields = []
    while len(fields) < 3:
        if pos >= len(data):
            raise FormatError(f"{path}: truncated header")
        ch = data[pos : pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        elif ch.isdigit():
            start = pos
            while pos < len(data) and data[pos : pos + 1].isdigit():
                pos += 1
            fields.append(int(data[start:pos]))
        else:
            raise FormatError(f"{path}: unexpected byte {ch!r} in header")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise FormatError(f"{path}: missing whitespace after maxval")
    pos += 1
    w, h, maxval = fields
    if maxval != MAXVAL:
        raise FormatError(f"{path}: only 8-bit files supported (maxval {maxval})")
    if w <= 0 or h <= 0:
        raise FormatError(f"{path}: bad dimensions {w}x{h}")
    return w, h, pos


def write_ppm(path: str, image: np.ndarray) -> None:
    """Write an (h, w, 3) float image in [0, 1] as binary P6."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3:
        raise FormatError(f"expected (h, w, 3) image, got {img.shape}")
    h, w, _ = img.shape
    quantized = np.clip(np.rint(img * MAXVAL), 0, MAXVAL).astype(np.uint8)
    header = f"P6\n{w} {h}\n{MAXVAL}\n".encode()
    atomic_write(path, header + quantized.tobytes())


def _read_raster(path: str, magic: bytes, depth: int) -> np.ndarray:
    """The (h, w, depth) uint8 payload of a binary netpbm file; an ``IoError``
    if it cannot be read, a ``FormatError`` for a bad header or length."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    w, h, pos = _read_header(data, magic, path)
    need = w * h * depth
    payload = data[pos : pos + need]
    if len(payload) != need:
        raise FormatError(f"{path}: payload is {len(payload)} bytes, need {need}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, depth)


def read_ppm(path: str) -> np.ndarray:
    """Read a binary P6 file as an (h, w, 3) float32 image: byte k becomes
    float32(k) / 255. float32 is the precision the backbone then runs at."""
    return _read_raster(path, b"P6", 3).astype(np.float32) / MAXVAL


def write_pgm(path: str, mask: np.ndarray) -> None:
    """Write an (h, w) integer mask (values 0..255) as binary P5."""
    m = np.asarray(mask)
    if m.ndim != 2:
        raise FormatError(f"expected (h, w) mask, got {m.shape}")
    if m.min() < 0 or m.max() > MAXVAL:
        raise FormatError("mask values must fit in one byte")
    h, w = m.shape
    header = f"P5\n{w} {h}\n{MAXVAL}\n".encode()
    atomic_write(path, header + m.astype(np.uint8).tobytes())


def read_pgm(path: str) -> np.ndarray:
    """Read a binary P5 file as an (h, w) int64 mask."""
    return _read_raster(path, b"P5", 1)[:, :, 0].astype(np.int64)
