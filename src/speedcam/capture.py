"""Capture records: construction, append-only persistence, search, delete-all.

A store is a directory holding records.log (one JSON object per line,
the five-column schema: id, vehicle_speed, location, capture_time,
picture_filename, plus a speed_unit tag disambiguating what the stored
speed means), an images/ subdirectory keyed by picture_filename, and a
persisted high-water mark so ids keep increasing across restarts and
never recycle after a delete-all.
"""

import contextlib
import json
import os
import re
import threading
from dataclasses import dataclass, replace
from pathlib import Path

from speedcam.errors import (
    CollisionError,
    ConfigError,
    FormatError,
    RefusedError,
    StorageError,
    parse_json,
    read_file,
)

TIME_PATTERN = re.compile(r"\d{4}-\d{2}-\d{2}_\d{2}_\d{2}_\d{2}")

FILENAME_PREFIX = "vehicle_picture_"
FILENAME_SUFFIX = ".jpg"

LOG_NAME = "records.log"
IMAGES_DIR = "images"
HWM_NAME = "hwm"

APP_READING_UNIT = "app_reading"


def picture_filename_for(capture_time: str) -> str:
    return f"{FILENAME_PREFIX}{capture_time}{FILENAME_SUFFIX}"


@dataclass(frozen=True)
class CaptureRecord:
    """One five-column row; id is None until a store assigns it."""

    vehicle_speed: float
    location: str
    capture_time: str
    picture_filename: str
    speed_unit: str = APP_READING_UNIT
    id: int | None = None

    def __post_init__(self):
        if not TIME_PATTERN.fullmatch(self.capture_time):
            raise FormatError(
                f"capture_time {self.capture_time!r} does not match "
                "YYYY-MM-DD_hh_mm_ss"
            )
        if self.picture_filename != picture_filename_for(self.capture_time):
            raise FormatError(
                f"picture_filename {self.picture_filename!r} must be "
                f"{picture_filename_for(self.capture_time)!r}"
            )
        if self.id is not None and self.id < 1:
            raise FormatError(f"record id {self.id} must be positive")


def make_record(
    speed: float, location: str, capture_time: str, speed_unit: str = APP_READING_UNIT
) -> CaptureRecord:
    """Build an unassigned record; the picture filename is derived from time."""
    return CaptureRecord(
        vehicle_speed=float(speed),
        location=location,
        capture_time=capture_time,
        picture_filename=picture_filename_for(capture_time),
        speed_unit=speed_unit,
    )


def _record_to_line(r: CaptureRecord) -> str:
    return (
        json.dumps(
            {
                "id": r.id,
                "vehicle_speed": r.vehicle_speed,
                "location": r.location,
                "capture_time": r.capture_time,
                "picture_filename": r.picture_filename,
                "speed_unit": r.speed_unit,
            }
        )
        + "\n"
    )


def _record_from_doc(doc: dict) -> CaptureRecord:
    return CaptureRecord(
        vehicle_speed=float(doc["vehicle_speed"]),
        location=str(doc["location"]),
        capture_time=str(doc["capture_time"]),
        picture_filename=str(doc["picture_filename"]),
        speed_unit=str(doc.get("speed_unit", APP_READING_UNIT)),
        id=int(doc["id"]),
    )


class RecordStore:
    """Append-only single-writer store over a directory.

    Appends serialize through an internal lock; readers get snapshot
    copies. Ids are monotone via the high-water mark file, which
    delete_all deliberately keeps.

    A record counts once its log line ends in a newline. A last line
    without one is what an interrupted append leaves: opening the store
    ignores it, and the next append truncates it away before writing.
    The mark already covers its id, so that id is skipped, not reused.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.images_dir = self.directory / IMAGES_DIR
        self._log_path = self.directory / LOG_NAME
        self._hwm_path = self.directory / HWM_NAME
        self._hwm_tmp_path = self.directory / (HWM_NAME + ".tmp")
        self._lock = threading.Lock()
        self._records: list[CaptureRecord] = []
        self._filenames: set[str] = set()
        self._hwm = 0
        self._torn_at = None  # log length without its torn last line, if it has one
        try:
            self.images_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StorageError(f"cannot create record store {self.directory}: {exc}") from None
        self._load()

    def _load(self):
        if self._hwm_path.is_file():
            text = read_file(self._hwm_path, StorageError).strip()
            try:
                self._hwm = int(text)
            except ValueError:
                raise StorageError(f"corrupt high-water mark {text!r}") from None
        if self._log_path.is_file():
            data = read_file(self._log_path, StorageError, binary=True)
            # a final line with no newline is an interrupted append: skip it,
            # and cut it off before the next append
            whole = data.rfind(b"\n") + 1
            self._torn_at = whole if whole < len(data) else None
            try:
                lines = data[:whole].decode("utf-8").splitlines()
            except UnicodeDecodeError as exc:
                raise StorageError(f"cannot read {self._log_path}: {exc}") from None
            for lineno, line in enumerate(lines, 1):
                if not line.strip():
                    continue
                where = f"{self._log_path}:{lineno}: bad record"
                doc = parse_json(line, StorageError, where)
                try:
                    rec = _record_from_doc(doc)
                except (KeyError, TypeError, ValueError, OverflowError, FormatError) as exc:
                    raise StorageError(f"{where}: {exc}") from None
                self._records.append(rec)
                self._filenames.add(rec.picture_filename)
            self._records.sort(key=lambda r: r.id)
            if self._records:
                self._hwm = max(self._hwm, self._records[-1].id)

    def image_path(self, record: CaptureRecord) -> Path:
        return self.images_dir / record.picture_filename

    def append(self, record: CaptureRecord, image_bytes: bytes) -> int:
        """Persist a record plus its image; returns the assigned id.

        The time-suffixed filename scheme makes a collision a double
        capture within the same second.
        """
        return self.append_batch([(record, image_bytes)])[0]

    def append_batch(self, items) -> list[int]:
        """Persist several (record, image_bytes) pairs all-or-nothing.

        All validation (unassigned ids, filename collisions, including
        within the batch) happens before anything is written. The images
        land first, then the high-water mark, then all log lines in one
        append, so a log line never names an id the mark does not cover.
        The mark goes to a temporary file that then replaces it, so the
        old mark survives a failed or interrupted write.
        A failed write unlinks the batch's images, leaves the in-memory
        state unchanged and raises StorageError naming the path.
        """
        with self._lock:
            names = [rec.picture_filename for rec, _ in items]
            if len(set(names)) != len(names):
                raise CollisionError("duplicate picture filenames within one batch")
            for rec, _ in items:
                if rec.id is not None:
                    raise ConfigError(f"record already has id {rec.id}")
                if (
                    rec.picture_filename in self._filenames
                    or (self.images_dir / rec.picture_filename).exists()
                ):
                    raise CollisionError(
                        f"image {rec.picture_filename} already exists"
                    )
            assigned = [
                replace(rec, id=self._hwm + 1 + k) for k, (rec, _) in enumerate(items)
            ]
            hwm = assigned[-1].id if assigned else self._hwm
            written = []
            try:
                for rec, (_, image_bytes) in zip(assigned, items):
                    path = self.images_dir / rec.picture_filename
                    path.write_bytes(image_bytes)
                    written.append(path)
                path = self._hwm_tmp_path
                path.write_text(f"{hwm}\n", encoding="utf-8")
                path = self._hwm_path
                os.replace(self._hwm_tmp_path, path)
                path = self._log_path
                if self._torn_at is not None:
                    os.truncate(path, self._torn_at)
                    self._torn_at = None
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write("".join(_record_to_line(rec) for rec in assigned))
            except BaseException as exc:
                for leftover in [*written, self._hwm_tmp_path]:
                    with contextlib.suppress(OSError):
                        leftover.unlink(missing_ok=True)
                if isinstance(exc, OSError):
                    raise StorageError(f"cannot write {path}: {exc}") from None
                raise
            self._hwm = hwm
            self._records.extend(assigned)
            self._filenames.update(rec.picture_filename for rec in assigned)
            return [rec.id for rec in assigned]

    def list_all(self) -> list[CaptureRecord]:
        """All records, ascending id. Images are not loaded."""
        with self._lock:
            return list(self._records)

    def search_by_time(self, needle: str) -> list[CaptureRecord]:
        """Records whose capture_time contains needle (case-sensitive)."""
        return [r for r in self.list_all() if needle in r.capture_time]

    def delete_all(self, confirm: bool) -> int:
        """Remove every record and its image; ids do not restart.

        Refuses (changing nothing) unless confirm is True. A failed unlink
        or log write raises StorageError naming the path and leaves the
        in-memory records as they were.
        """
        if not confirm:
            raise RefusedError("delete_all requires explicit confirmation")
        with self._lock:
            count = len(self._records)
            try:
                for rec in self._records:
                    (self.images_dir / rec.picture_filename).unlink(missing_ok=True)
                self._log_path.write_text("", encoding="utf-8")
                self._torn_at = None
            except OSError as exc:
                raise StorageError(f"cannot delete records in {self.directory}: {exc}") from None
            self._records.clear()
            self._filenames.clear()
            return count
