"""Exception hierarchy shared across the package.

Everything raised on bad input or bad state derives from SpeedcamError so
the CLI can map domain failures to a single exit code. ``read_file`` is the
one reader for files that come from outside the program, ``parse_json`` the
one parser of JSON documents from outside, and ``write_file`` the one writer
of files at paths given from outside.
"""

import json
from pathlib import Path


class SpeedcamError(Exception):
    """Base class for all package errors."""


class FormatError(SpeedcamError):
    """Malformed document or value (PGM header, model JSON/XML, time string)."""


class BoundsError(SpeedcamError):
    """A rectangle or feature grid does not lie inside the image."""


class ConfigError(SpeedcamError):
    """Invalid configuration or parameter value."""


class NoScaleError(ConfigError):
    """The frame is smaller than the minimum detection window."""


class UnsupportedModelError(SpeedcamError):
    """The cascade document is valid but not a supported variant."""


class ModelReferenceError(SpeedcamError):
    """A weak classifier references a feature index that does not resolve."""


class TimeOrderError(SpeedcamError):
    """Timestamps are not strictly increasing."""


class InsufficientDataError(SpeedcamError):
    """Not enough samples or windows to produce a result."""


class CollisionError(SpeedcamError):
    """A record with the same picture filename already exists."""


class RefusedError(SpeedcamError):
    """A destructive operation was attempted without confirmation."""


class DecodeError(SpeedcamError):
    """Base64 payload text cannot be decoded."""


class PayloadSizeError(SpeedcamError):
    """Serialized payload exceeds the configured byte ceiling."""


class TransportError(SpeedcamError):
    """HTTP request failed or returned a non-2xx status."""

    def __init__(self, message, status=None):
        super().__init__(message)
        self.status = status


class ProtocolError(SpeedcamError):
    """Server response did not match the expected JSON shape."""


class StorageError(SpeedcamError):
    """A record store or output path cannot be created, read or written."""


def read_file(path, error: type[SpeedcamError], what: str = "", binary: bool = False):
    """A file's UTF-8 text, or its bytes when binary.

    Any failure to read or decode raises ``error`` naming ``what`` and the path.
    """
    try:
        return Path(path).read_bytes() if binary else Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what + ' ' if what else ''}{path}: {exc}") from None


def parse_json(data, error: type[SpeedcamError], what: str):
    """The JSON document in data, text or UTF-8 bytes.

    Data that is not UTF-8 or not JSON, an integer past the digit limit
    (all ``ValueError``) and nesting too deep to parse (``RecursionError``)
    raise ``error`` naming ``what``.
    """
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what}: not valid JSON: {exc}") from None


def write_file(path, data, error: type[SpeedcamError], what: str = "") -> None:
    """Write text as UTF-8, or bytes as they are, to path.

    Any failure to write raises ``error`` naming ``what`` and the path.
    """
    try:
        Path(path).write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    except OSError as exc:
        raise error(f"cannot write {what + ' ' if what else ''}{path}: {exc}") from None
