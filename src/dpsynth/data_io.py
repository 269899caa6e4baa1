"""Bit-exact dataset ingestion and emission, and the one file writer.

Two binary formats: the classic IDX pair (big-endian magics 0x00000803 for
image stacks, 0x00000801 for label vectors, unsigned bytes scaled into
[0, 1] on read), and one framed format for image containers and model
checkpoints (8-byte magic, u32 LE header length, sorted-JSON header carrying
its version and the payload's sha256, payload). A deterministic toy-glyph generator stands
in for real datasets at desk scale. Readers reject malformed input with a
`FormatError` naming the failing byte offset.

Every file dpsynth writes goes through `write_file`, which renames a
finished temporary file over the target: a killed run leaves each file old
or complete, plus at most a stray `*.tmp` file. There is no fsync, so a
power loss can still lose a file.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import InvalidArgumentError, LabeledDataset, RngSeed

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
CONTAINER_MAGIC = b"DPSYNIC1"
CONTAINER_KINDS = ("sensitive", "central", "synthetic")
FRAMED_VERSION = 1  # the only header version `read_framed` accepts


class FormatError(InvalidArgumentError):
    """Malformed file; `offset` is the byte position of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def write_file(path, *chunks) -> None:
    """Write the bytes-like `chunks` in order to a temporary file renamed over `path`.

    On failure the temporary file is removed and `path` is left untouched.
    """
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "xb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_json(path, obj) -> None:
    """`obj` as sorted, indented JSON plus a newline."""
    write_file(path, (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8"))


def write_framed(path, magic: bytes, header: dict, *chunks) -> None:
    """Magic, u32 LE header length, sorted-JSON header plus version and payload sha256, payload chunks.

    The chunks are hashed and written one by one, never joined into one copy.
    """
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    header = dict(header, version=FRAMED_VERSION, payload_sha256=digest.hexdigest())
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    write_file(path, magic, struct.pack("<I", len(blob)), blob, *chunks)


def read_framed(path, magic: bytes, layout: Callable[[dict], list]) -> tuple[dict, list[np.ndarray]]:
    """(header, payload arrays) of a file written by `write_framed`; `layout(header)` lists their (dtype, shape).

    Checks the magic, the header length, the header and its version, that exactly
    the listed arrays' bytes follow it, before allocating any, and the checksum.
    `layout` raises KeyError, TypeError or ValueError when the header gives no
    sizes. Each array is read from the file into aligned memory it owns, then
    made read-only, so that a dataset or model adopts it without a copy.
    """
    with open(path, "rb") as f:
        file_size = os.fstat(f.fileno()).st_size
        data = f.read(len(magic) + 4)
        if _read_exact(data, 0, len(magic), "magic") != magic:
            raise FormatError(f"bad magic {bytes(data[: len(magic)])!r}, expected {magic!r}", 0)
        start = len(magic) + 4
        (hlen,) = struct.unpack("<I", _read_exact(data, len(magic), 4, "header length"))
        blob = _read_exact(data + f.read(min(hlen, file_size)), start, hlen, "header")  # read(n) allocates n
        try:
            header = json.loads(blob.decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise FormatError(f"undecodable header: {exc}", start) from exc
        version = header.get("version") if isinstance(header, dict) else None
        if type(version) is not int or version != FRAMED_VERSION:
            raise FormatError(f"unsupported header version {version!r}, expected {FRAMED_VERSION}", start)
        try:
            specs = [(np.dtype(dtype), tuple(int(d) for d in shape)) for dtype, shape in layout(header)]
            if any(d < 0 for _, shape in specs for d in shape):
                raise ValueError(f"negative dimension in {specs}")
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"header gives no payload size: {exc!r}", start) from exc
        off = start + hlen
        size = sum(dtype.itemsize * np.prod(shape, dtype=object) for dtype, shape in specs)  # Python ints
        if off + size > file_size:
            raise FormatError(f"truncated while reading payload: need {size} bytes", off)
        if off + size < file_size:
            raise FormatError("trailing bytes after payload", off + size)
        digest, arrays = hashlib.sha256(), []  # hashed in payload order: the whole payload's digest
        for dtype, shape in specs:
            a = np.empty(shape, dtype)
            if f.readinto(a) != a.nbytes:  # the file shrank while being read
                raise FormatError(f"truncated while reading payload: need {size} bytes", off)
            digest.update(a)
            a.setflags(write=False)
            arrays.append(a)
    if digest.hexdigest() != header.get("payload_sha256"):
        raise FormatError("payload checksum mismatch", off)
    return header, arrays


def _read_exact(data: bytes | memoryview, offset: int, n: int, what: str) -> bytes | memoryview:
    if n < 0 or offset + n > len(data):
        raise FormatError(f"truncated while reading {what}: need {n} bytes", offset)
    return data[offset : offset + n]


def _parse_idx_images(data: bytes | memoryview) -> tuple[np.ndarray, int, int]:
    magic = struct.unpack(">I", _read_exact(data, 0, 4, "image magic"))[0]
    if magic != IDX_IMAGE_MAGIC:
        raise FormatError(f"bad image magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}", 0)
    n, rows, cols = struct.unpack(">III", _read_exact(data, 4, 12, "image dimensions"))
    payload = _read_exact(data, 16, n * rows * cols, "image payload")
    if len(data) != 16 + n * rows * cols:
        raise FormatError(f"trailing bytes after image payload", 16 + n * rows * cols)
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(n, rows * cols).astype(np.float64)
    pixels /= 255.0
    pixels.setflags(write=False)  # so that the dataset adopts it without a copy
    return pixels, rows, cols


def _parse_idx_labels(data: bytes) -> np.ndarray:
    magic = struct.unpack(">I", _read_exact(data, 0, 4, "label magic"))[0]
    if magic != IDX_LABEL_MAGIC:
        raise FormatError(f"bad label magic 0x{magic:08x}, expected 0x{IDX_LABEL_MAGIC:08x}", 0)
    (n,) = struct.unpack(">I", _read_exact(data, 4, 4, "label count"))
    payload = _read_exact(data, 8, n, "label payload")
    if len(data) != 8 + n:
        raise FormatError(f"trailing bytes after label payload", 8 + n)
    return np.frombuffer(payload, dtype=np.uint8).astype(np.int64)


def read_idx(images_path, labels_path, num_classes: Optional[int] = None) -> LabeledDataset:
    """Paired IDX image/label files -> dataset with pixels in [0, 1]."""
    with open(images_path, "rb") as f:
        pixels, rows, cols = _parse_idx_images(memoryview(f.read()))
    with open(labels_path, "rb") as f:
        labels = _parse_idx_labels(f.read())
    n = pixels.shape[0]
    if len(labels) != n:
        raise FormatError(f"label count {len(labels)} != image count {n}", 4)
    if num_classes is None:
        num_classes = int(labels.max()) + 1 if n else 1
    bad = np.flatnonzero(labels >= num_classes)
    if bad.size:
        raise FormatError(
            f"label {labels[bad[0]]} at record {bad[0]} >= num_classes {num_classes}",
            8 + int(bad[0]),
        )
    return LabeledDataset(pixels, labels, num_classes, (rows, cols, 1))


def write_idx(ds: LabeledDataset, images_path, labels_path) -> None:
    """Write a single-channel dataset as an IDX pair (inverse of read_idx)."""
    h, w, c = ds.image_shape
    if c != 1:
        raise InvalidArgumentError("IDX image stacks are single-channel")
    if ds.num_classes > 256:
        raise InvalidArgumentError("IDX labels are single bytes; need num_classes <= 256")
    pixels = np.rint(ds.pixels * 255.0)
    if pixels.min() < 0 or pixels.max() > 255:
        raise InvalidArgumentError("pixel values outside [0, 1] cannot round-trip through IDX")
    write_file(images_path, struct.pack(">IIII", IDX_IMAGE_MAGIC, len(ds), h, w), pixels.astype(np.uint8))
    write_file(labels_path, struct.pack(">II", IDX_LABEL_MAGIC, len(ds)), ds.labels.astype(np.uint8))


@dataclass(frozen=True)
class ContainerFile:
    """Decoded native container: pixels, optional labels, provenance."""

    kind: str
    height: int
    width: int
    channels: int
    pixels: np.ndarray  # (count, H*W*C) float64
    labels: Optional[np.ndarray]
    provenance: dict

    @property
    def count(self) -> int:
        return self.pixels.shape[0]

    def to_dataset(self, num_classes: Optional[int] = None) -> LabeledDataset:
        if self.labels is None:
            raise InvalidArgumentError("container carries no labels")
        if num_classes is None:
            num_classes = int(self.labels.max()) + 1 if self.count else 1
        return LabeledDataset(self.pixels, self.labels, num_classes, (self.height, self.width, self.channels))


def save_container(
    path,
    kind: str,
    pixels: np.ndarray,
    shape: tuple[int, int, int],
    labels: Optional[np.ndarray] = None,
    provenance: Optional[dict] = None,
) -> None:
    """Write kind + shape + optional labels + float64 LE pixels, checksummed."""
    if kind not in CONTAINER_KINDS:
        raise InvalidArgumentError(f"unknown container kind {kind!r}")
    h, w, c = shape
    pix = np.ascontiguousarray(pixels, dtype="<f8").reshape(-1, h * w * c)
    chunks = [pix] if labels is None else [np.ascontiguousarray(labels, dtype="<u4"), pix]
    header = {
        "kind": kind,
        "height": h,
        "width": w,
        "channels": c,
        "count": int(pix.shape[0]),
        "has_labels": labels is not None,
        "provenance": provenance or {},
    }
    write_framed(path, CONTAINER_MAGIC, header, *chunks)


def _container_layout(header: dict) -> list:
    count = int(header["count"])
    pixels = ("<f8", (count, int(header["height"]) * int(header["width"]) * int(header["channels"])))
    return [("<u4", (count,)), pixels] if header["has_labels"] else [pixels]


def load_container(path) -> ContainerFile:
    header, arrays = read_framed(path, CONTAINER_MAGIC, _container_layout)
    kind = header.get("kind")
    if kind not in CONTAINER_KINDS:
        raise FormatError(f"unknown container kind {kind!r}", len(CONTAINER_MAGIC) + 4)
    h, w, c = (int(header[k]) for k in ("height", "width", "channels"))
    labels = arrays[0].astype(np.int64) if len(arrays) == 2 else None
    return ContainerFile(
        kind=kind,
        height=h,
        width=w,
        channels=c,
        pixels=arrays[-1],
        labels=labels,
        provenance=header.get("provenance", {}),
    )


def _glyph_canvas(cls: int, h: int, w: int) -> np.ndarray:
    """Centered template for one of ten glyph classes."""
    img = np.zeros((h, w))
    cy, cx = h // 2, w // 2
    t = max(1, h // 8)  # stroke thickness
    if cls == 0:  # horizontal bar
        img[cy - t // 2 : cy + (t + 1) // 2, 1 : w - 1] = 1.0
    elif cls == 1:  # vertical bar
        img[1 : h - 1, cx - t // 2 : cx + (t + 1) // 2] = 1.0
    elif cls == 2:  # cross
        img[cy - t // 2 : cy + (t + 1) // 2, 1 : w - 1] = 1.0
        img[1 : h - 1, cx - t // 2 : cx + (t + 1) // 2] = 1.0
    elif cls == 3:  # main diagonal
        for i in range(min(h, w)):
            img[i, max(0, i - t + 1) : min(w, i + t)] = 1.0
    elif cls == 4:  # anti-diagonal
        for i in range(min(h, w)):
            j = w - 1 - i
            img[i, max(0, j - t + 1) : min(w, j + t)] = 1.0
    elif cls == 5:  # filled disk
        yy, xx = np.mgrid[0:h, 0:w]
        r = min(h, w) * 0.3
        img[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = 1.0
    elif cls == 6:  # ring
        yy, xx = np.mgrid[0:h, 0:w]
        d2 = (yy - cy) ** 2 + (xx - cx) ** 2
        r = min(h, w) * 0.38
        img[(d2 <= r * r) & (d2 >= (r - t) ** 2)] = 1.0
    elif cls == 7:  # top-left corner block
        img[1 : h // 2, 1 : w // 2] = 1.0
    elif cls == 8:  # frame
        img[1:-1, 1:-1] = 1.0
        img[1 + t : h - 1 - t, 1 + t : w - 1 - t] = 0.0
    elif cls == 9:  # two vertical bars
        img[1 : h - 1, 1 : 1 + t] = 1.0
        img[1 : h - 1, w - 1 - t : w - 1] = 1.0
    else:
        raise InvalidArgumentError(f"glyph class {cls} not defined (have 0..9)")
    return img


def generate_toy_glyphs(
    n_per_class: int,
    num_classes: int = 10,
    shape: tuple[int, int, int] = (8, 8, 1),
    rng: RngSeed = RngSeed(0),
) -> LabeledDataset:
    """Deterministic jittered glyph dataset, linearly separable by class.

    Each sample shifts its class template by up to one pixel and scales its
    intensity into [0.7, 1.0]; classes stay far apart in pixel space, so a
    pixel-feature linear classifier separates them essentially perfectly.
    """
    h, w, c = shape
    if h < 8 or w < 8:
        raise InvalidArgumentError("glyph canvas must be at least 8x8")
    if not (1 <= num_classes <= 10):
        raise InvalidArgumentError("glyph classes available: 1..10")
    gen = rng.generator()
    n = num_classes * n_per_class
    shifts, intensity = np.empty((n, 2), dtype=np.int64), np.empty(n)
    for i in range(n):
        # two scalar draws take the same numbers from the stream as one draw of size 2, faster
        shifts[i] = gen.integers(-1, 2), gen.integers(-1, 2)
        intensity[i] = gen.uniform(0.7, 1.0)
    # Each template sits in a zero border one pixel wide, so a shifted glyph is a window of it.
    padded = np.pad(np.stack([_glyph_canvas(k, h, w) for k in range(num_classes)]), ((0, 0), (1, 1), (1, 1)))
    labels = np.repeat(np.arange(num_classes), n_per_class)
    rows = 1 - shifts[:, 0, None, None] + np.arange(h)[:, None]
    cols = 1 - shifts[:, 1, None, None] + np.arange(w)
    pixels = np.empty((n, h * w * c))
    pixels.reshape(n, h, w, c)[...] = (padded[labels[:, None, None], rows, cols] * intensity[:, None, None])[..., None]
    pixels.setflags(write=False)  # a fresh array, so the dataset adopts it without a copy
    return LabeledDataset(pixels, labels, num_classes, shape)
