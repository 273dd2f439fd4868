"""Grayscale frame ingestion, integral images, and synthetic test sequences.

Frames are 8-bit single-channel rasters. Sequences on disk are a directory
of binary PGM (P5) files plus an optional ``manifest.tsv`` assigning a
millisecond timestamp to each file; without a manifest, files sort
lexicographically and a frames-per-second rate assigns uniform timestamps.
``read_sequence`` checks the names, files and timestamps of a sequence up
front and returns a ``FrameSequence``, which decodes each frame only when
it is reached and keeps none: a loop over a sequence holds about two
frames at a time, the one in hand and the one being read, however long
the sequence is.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from speedcam.errors import (
    BoundsError,
    ConfigError,
    FormatError,
    StorageError,
    TimeOrderError,
    read_file,
    write_file,
)

# largest frame side. The scan's uint32 prefix tables rest on it: a 3x3
# block grid lies inside its frame, so a block holds at most
# (MAX_DIM // 3) ** 2 pixels, and 255 times that is below 2**32
MAX_DIM = 8192

MANIFEST_NAME = "manifest.tsv"


def round_half_up(x: float) -> int:
    """Round to nearest integer, ties away from zero for positive values.

    This is the package-wide rounding convention (feature scaling, window
    sizes, rect averaging, window speeds); Python's built-in banker's
    rounding is deliberately not used.
    """
    return int(math.floor(x + 0.5))


def finite_positive(name: str, value: float) -> float:
    """value, when it is a finite number above zero; else a ConfigError naming it.

    The rule for a frame rate or frame interval from outside: a zero one
    divides by zero, and a NaN or infinite one gives timestamps that
    cannot be rounded.
    """
    if not 0.0 < value < math.inf:  # false for NaN too
        raise ConfigError(f"{name} {value} must be finite and positive")
    return value


@dataclass(eq=False)
class Frame:
    """One 8-bit grayscale raster with a millisecond timestamp."""

    width: int
    height: int
    pixels: np.ndarray  # (height, width) uint8, read-only
    timestamp_ms: int = 0

    def __post_init__(self):
        if not (1 <= self.width <= MAX_DIM and 1 <= self.height <= MAX_DIM):
            raise ConfigError(
                f"frame dimensions {self.width}x{self.height} outside 1..{MAX_DIM}"
            )
        px = np.asarray(self.pixels)
        if px.size != self.width * self.height:
            raise ConfigError(
                f"pixel count {px.size} does not equal width*height "
                f"({self.width}*{self.height})"
            )
        if px.dtype != np.uint8:
            if px.size and (px.min() < 0 or px.max() > 255):
                raise ConfigError("pixel values outside 0..255")
            px = px.astype(np.uint8)
        px = np.ascontiguousarray(px.reshape(self.height, self.width))
        px.setflags(write=False)
        self.pixels = px
        if self.timestamp_ms < 0:
            raise ConfigError("timestamp_ms must be non-negative")


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle, top-left origin at the image's (0,0)."""

    x: int
    y: int
    w: int
    h: int

    @property
    def area(self) -> int:
        return self.w * self.h


def load_pgm(data: bytes) -> Frame:
    """Parse a binary (P5) portable graymap into a Frame.

    Comments (``#`` to end of line) are allowed anywhere in the header.
    The loaded frame gets timestamp 0; sequence readers assign real times.
    Its pixels are a read-only view of data, not a copy.
    """
    pos = 0
    n = len(data)

    def next_token(name):
        nonlocal pos
        while pos < n:
            c = data[pos]
            if c == 0x23:  # '#' comment to end of line
                while pos < n and data[pos] not in (0x0A, 0x0D):
                    pos += 1
            elif c in (0x20, 0x09, 0x0A, 0x0D, 0x0B, 0x0C):
                pos += 1
            else:
                break
        start = pos
        while pos < n and data[pos] not in (0x20, 0x09, 0x0A, 0x0D, 0x0B, 0x0C):
            pos += 1
        if start == pos:
            raise FormatError(f"truncated PGM header: missing {name}")
        return data[start:pos]

    magic = next_token("magic")
    if magic != b"P5":
        raise FormatError(f"bad magic {magic!r}: expected binary graymap 'P5'")

    def next_int(name, limit):
        tok = next_token(name)
        try:
            value = int(tok)
        except ValueError:
            raise FormatError(f"bad {name} {tok!r}: not an integer") from None
        if not (1 <= value <= limit):
            raise FormatError(f"bad {name} {value}: outside 1..{limit}")
        return value

    width = next_int("width", MAX_DIM)
    height = next_int("height", MAX_DIM)
    maxval_tok = next_token("maxval")
    try:
        maxval = int(maxval_tok)
    except ValueError:
        raise FormatError(f"bad maxval {maxval_tok!r}: not an integer") from None
    if maxval <= 0 or maxval > 255:
        raise FormatError(f"unsupported maxval {maxval}: must be 1..255")
    # exactly one whitespace byte separates the header from the raster
    pos += 1
    need = width * height
    if n - pos < need:
        raise FormatError(
            f"truncated pixel data: expected {need} bytes, got {max(n - pos, 0)}"
        )
    px = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)
    return Frame(width, height, px, timestamp_ms=0)


def save_pgm(frame: Frame) -> bytes:
    """Serialize a Frame as a binary (P5) graymap; inverse of load_pgm."""
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    return header + frame.pixels.tobytes()


def prefix_sums(pixels: np.ndarray, dtype=np.int64) -> np.ndarray:
    """Read-only prefix sums over the two leading axes of pixels.

    pixels is a (h, w, *trailing) uint8 array; the table is shaped
    (h+1, w+1, *trailing), and sums[r, c, ...] is the sum of pixels[:r, :c, ...],
    so any rectangle sum takes four lookups. A stack of frames on the last
    axis gives one table per frame, each equal to that frame's ``integral``.

    The sums are taken in dtype. An int64 table holds every sum exactly. A
    uint32 table wraps mod 2**32, and a rectangle sum from four of its
    entries, taken in uint32, is exact whenever the true sum is below
    2**32, that is for any rectangle of at most 2**32 // 255 pixels.
    """
    h, w, *trailing = pixels.shape
    sat = np.zeros((h + 1, w + 1, *trailing), dtype=dtype)
    body = sat[1:, 1:]
    # widen first: a cumsum from uint8 into the table's dtype casts through a buffer
    body[...] = pixels
    np.cumsum(body, axis=0, dtype=dtype, out=body)
    np.cumsum(body, axis=1, dtype=dtype, out=body)
    sat.setflags(write=False)
    return sat


def integral(frame: Frame, dtype=np.int64) -> np.ndarray:
    """The read-only (h+1, w+1) prefix-sum table of a frame, in dtype.

    sums[r, c] is the sum of the pixels in rows [0, r) and columns [0, c),
    mod 2**32 in a uint32 table (see ``prefix_sums``).
    """
    return prefix_sums(frame.pixels, dtype)


def rect_sum(s: np.ndarray, r: Rect) -> int:
    """Exact pixel sum inside r from four lookups in the int64 prefix table s.

    Any other table is a ConfigError: a rect can hold more than 2**32 // 255
    pixels, past what a wrapping uint32 table sums exactly.
    """
    if s.dtype != np.int64:
        raise ConfigError(f"rect_sum reads an int64 prefix table, not {s.dtype}")
    height, width = s.shape[0] - 1, s.shape[1] - 1
    if r.w < 1 or r.h < 1 or r.x < 0 or r.y < 0:
        raise BoundsError(f"rect {r} is empty or has a negative corner")
    if r.x + r.w > width or r.y + r.h > height:
        raise BoundsError(
            f"rect {r} exceeds image bounds {width}x{height}"
        )
    return int(
        s[r.y + r.h, r.x + r.w]
        - s[r.y, r.x + r.w]
        - s[r.y + r.h, r.x]
        + s[r.y, r.x]
    )


@dataclass
class SynthConfig:
    """Moving textured patch on a flat background, for end-to-end tests."""

    frame_w: int
    frame_h: int
    patch: Rect
    velocity: tuple[float, float]  # pixels per frame (vx, vy)
    n_frames: int
    frame_interval_ms: float = 1000.0 / 30.0
    texture_seed: int = 0
    background: int = 8

    def __post_init__(self):
        finite_positive("frame_interval_ms", self.frame_interval_ms)
        # the last frame's patch origin and time bound every earlier frame's
        last = self.n_frames - 1
        vx, vy = self.velocity
        ends = (self.patch.x + last * vx, self.patch.y + last * vy, last * self.frame_interval_ms)
        if not all(map(math.isfinite, ends)):
            raise ConfigError(
                f"velocity {self.velocity} px/frame at {self.frame_interval_ms} ms over "
                f"{self.n_frames} frames must keep every patch origin and timestamp finite"
            )

    def ground_truth_px_s(self) -> float:
        vx, vy = self.velocity
        return math.hypot(vx, vy) * 1000.0 / self.frame_interval_ms


def _patch_positions(cfg: SynthConfig):
    x0, y0 = cfg.patch.x, cfg.patch.y
    vx, vy = cfg.velocity
    return [
        (round_half_up(x0 + k * vx), round_half_up(y0 + k * vy))
        for k in range(cfg.n_frames)
    ]


def synth_sequence(cfg: SynthConfig) -> list[Frame]:
    """Generate frames with a high-contrast patch translating at constant velocity.

    Timestamps are k*frame_interval_ms rounded to integer milliseconds.
    Raises before generating anything if the patch would exit the frame.
    """
    if cfg.n_frames < 1:
        raise ConfigError("n_frames must be at least 1")
    if cfg.frame_interval_ms < 1.0:
        raise ConfigError("frame_interval_ms must be >= 1 for distinct timestamps")
    if cfg.patch.w < 1 or cfg.patch.h < 1:
        raise ConfigError("patch must have positive size")
    positions = _patch_positions(cfg)
    for k, (x, y) in enumerate(positions):
        if x < 0 or y < 0 or x + cfg.patch.w > cfg.frame_w or y + cfg.patch.h > cfg.frame_h:
            raise ConfigError(
                f"patch exits frame bounds at frame {k}: origin ({x},{y})"
            )
    rng = np.random.default_rng(cfg.texture_seed)
    texture = rng.integers(96, 256, size=(cfg.patch.h, cfg.patch.w), dtype=np.uint8)
    frames = []
    for k, (x, y) in enumerate(positions):
        img = np.full((cfg.frame_h, cfg.frame_w), cfg.background, dtype=np.uint8)
        img[y : y + cfg.patch.h, x : x + cfg.patch.w] = texture
        frames.append(
            Frame(
                cfg.frame_w,
                cfg.frame_h,
                img,
                timestamp_ms=round_half_up(k * cfg.frame_interval_ms),
            )
        )
    return frames


def draw_rect(frame: Frame, r: Rect, value: int = 255) -> Frame:
    """Copy of frame with a one-pixel rectangle outline drawn (clipped)."""
    img = frame.pixels.copy()
    x0 = max(r.x, 0)
    y0 = max(r.y, 0)
    x1 = min(r.x + r.w, frame.width)
    y1 = min(r.y + r.h, frame.height)
    if x1 > x0 and y1 > y0:
        img[y0, x0:x1] = value
        img[y1 - 1, x0:x1] = value
        img[y0:y1, x0] = value
        img[y0:y1, x1 - 1] = value
    return Frame(frame.width, frame.height, img, timestamp_ms=frame.timestamp_ms)


def write_sequence(directory, frames: list[Frame]) -> None:
    """Write frames as frame_<k>.pgm files plus a manifest.tsv of timestamps."""
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StorageError(f"cannot create sequence directory {directory}: {exc}") from None
    lines = []
    for k, frame in enumerate(frames):
        name = f"frame_{k:05d}.pgm"
        write_file(directory / name, save_pgm(frame), StorageError, "frame")
        lines.append(f"{name}\t{frame.timestamp_ms}\n")
    write_file(directory / MANIFEST_NAME, "".join(lines), StorageError, "manifest")


class FrameSequence(Sequence):
    """The frames of a sequence directory, each decoded when it is reached.

    It holds only the directory and the (file name, timestamp_ms) pairs
    that ``read_sequence`` checked. Each index, and each step of an
    iteration, reads and decodes one frame through ``load_pgm``; nothing is
    cached, so a loop over the frames holds only the frames it keeps, and a
    frame reached twice is decoded twice. A file that is not a valid PGM is
    a FormatError naming it when its frame is reached.
    """

    def __init__(self, directory: Path, entries: tuple):
        self._directory = directory
        self._entries = entries

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index: int) -> Frame:
        return self._decode(*self._entries[index])

    def __iter__(self):
        # not the mixin's loop over indices: it ends the iteration at the
        # first IndexError, even one raised while decoding a frame
        for name, ts in self._entries:
            yield self._decode(name, ts)

    def _decode(self, name: str, ts: int) -> Frame:
        path = self._directory / name
        data = read_file(path, FormatError, binary=True)
        try:
            frame = load_pgm(data)  # looked up at each call, so a wrapper sees it
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from None
        frame.timestamp_ms = ts
        return frame


def read_sequence(directory, fps: float | None = None) -> FrameSequence:
    """The frames of a sequence, timestamped from manifest.tsv or a uniform rate.

    Without a manifest, .pgm files are taken in lexicographic order and
    timestamps are round(k * 1000/fps); fps is then required, and a rate
    that gives two frames the same timestamp is a ConfigError. A manifest
    name must be a bare file name in the directory: one that is absolute
    or has a directory part is a FormatError.

    These checks, and those that each named file exists and that the
    timestamps increase, are all made here, before any frame is read. No
    frame is decoded here: the returned ``FrameSequence`` decodes each one
    when it is reached, so a file that is not a valid PGM is a FormatError,
    naming the file, only when its frame is reached.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FormatError(f"sequence directory not found: {directory}")
    manifest = directory / MANIFEST_NAME
    entries = []
    if manifest.is_file():
        for lineno, raw in enumerate(read_file(manifest, FormatError).splitlines(), 1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise FormatError(
                    f"{MANIFEST_NAME}:{lineno}: expected '<filename>\\t<timestamp_ms>'"
                )
            name, ts_text = parts
            if Path(name).name != name or name == "..":
                raise FormatError(
                    f"{MANIFEST_NAME}:{lineno}: frame name {name!r} must be a file "
                    "in the sequence directory, with no directory part"
                )
            try:
                ts = int(ts_text)
            except ValueError:
                raise FormatError(
                    f"{MANIFEST_NAME}:{lineno}: timestamp {ts_text!r} is not an integer"
                ) from None
            if ts < 0:
                raise FormatError(f"{MANIFEST_NAME}:{lineno}: negative timestamp")
            entries.append((name, ts))
        if not entries:
            raise FormatError(f"{manifest} names no frames")
    else:
        names = sorted(p.name for p in directory.glob("*.pgm"))
        if not names:
            raise FormatError(f"no .pgm files in {directory}")
        if fps is None:
            raise ConfigError(
                f"{directory} has no {MANIFEST_NAME}; a positive fps is required"
            )
        finite_positive("fps", fps)
        # the last frame's time bounds every earlier frame's
        if not math.isfinite((len(names) - 1) * 1000.0 / fps):
            raise ConfigError(f"fps {fps} puts frame {len(names) - 1} at no finite time")
        entries = [(name, round_half_up(k * 1000.0 / fps)) for k, name in enumerate(names)]
        for (first, ts), (second, next_ts) in zip(entries, entries[1:]):
            if next_ts == ts:
                raise ConfigError(
                    f"fps {fps:g} gives {first} and {second} the same whole-millisecond "
                    f"timestamp {ts}; a rate above 1000 needs a {MANIFEST_NAME}"
                )

    last_ts = -1
    for name, ts in entries:
        try:
            present = (directory / name).exists()
        except OSError:  # a name the file system refuses, such as one too long
            present = False
        if not present:
            raise FormatError(f"manifest names missing file {name}")
        if ts <= last_ts:
            raise TimeOrderError(
                f"timestamp {ts} for {name} does not exceed previous {last_ts}"
            )
        last_ts = ts
    return FrameSequence(directory, tuple(entries))
