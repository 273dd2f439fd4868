"""Batch upload of capture records and the matching local ingest server.

Images travel as standard Base64 with every '/' swapped for '_' (the
substituted alphabet avoids path-like sequences in the JSON body). The
whole store uploads as one POST <endpoint>/uploadData with a JSON
payload; the server validates the entire batch before persisting
anything, so a request either lands completely or not at all.

``serve_ingest`` returns the running ``ingest_http.IngestHTTPServer``.
It and ``post_upload`` refuse a malformed address before any socket opens.

The HTTP modules load on first use, not with this module: ``post_upload``
imports the client modules when it is called, and ``serve_ingest`` imports
``speedcam.ingest_http``, the request handler and server classes, when it
is called. A process that never uploads or serves never loads them.
"""

import base64
import binascii
import json
import re
from dataclasses import dataclass
from urllib.parse import urlsplit

from speedcam.capture import CaptureRecord, RecordStore
from speedcam.errors import (
    ConfigError,
    DecodeError,
    FormatError,
    PayloadSizeError,
    ProtocolError,
    StorageError,
    TransportError,
    json_field,
    parse_json,
)

DEFAULT_MAX_BYTES = 4 * 1024 * 1024  # the classic server-side ceiling

# seconds a socket may stall: the client's connect and reads, and each read
# or write of an ingest handler, which then drops the connection
TIMEOUT_S = 30.0

UPLOAD_PATH = "/uploadData"

INGEST_SPEED_UNIT = "unspecified"  # the wire schema carries no unit tag

_B64_SUBSTITUTED = re.compile(r"[A-Za-z0-9+_=]*")


def encode_image(data: bytes) -> str:
    """Base64 with '/' replaced by '_'; no line breaks, standard padding."""
    return base64.b64encode(data).decode("ascii").replace("/", "_")


def decode_image(text: str) -> bytes:
    """Invert encode_image; invalid characters report their offset."""
    match = _B64_SUBSTITUTED.match(text)
    if match.end() != len(text):
        bad = text[match.end()]
        raise DecodeError(f"invalid character {bad!r} at offset {match.end()}")
    try:
        return base64.b64decode(text.replace("_", "/"), validate=True)
    except binascii.Error as exc:
        raise DecodeError(f"invalid Base64 payload: {exc}") from None


@dataclass(frozen=True)
class PayloadRecord:
    """One record on the wire; field names map to the camelCase JSON keys."""

    vehicle_speed: float
    location: str
    capture_time: str
    picture_filename: str
    picture_base64: str

    def to_doc(self) -> dict:
        return {
            "vehicleSpeed": self.vehicle_speed,
            "location": self.location,
            "captureTime": self.capture_time,
            "pictureFilename": self.picture_filename,
            "pictureBase64": self.picture_base64,
        }


@dataclass(frozen=True)
class UploadPayload:
    records: tuple

    def to_doc(self) -> dict:
        return {"records": [r.to_doc() for r in self.records]}

    def to_json(self) -> str:
        return json.dumps(self.to_doc())


@dataclass(frozen=True)
class UploadResponse:
    message: str
    received: int


def build_payload(store: RecordStore):
    """(UploadPayload, warnings) over every record in id order.

    A record whose image file is missing still uploads, with an empty
    pictureBase64 and a warning line; other read failures abort.
    """
    entries = []
    warnings = []
    for rec in store.list_all():
        path = store.image_path(rec)
        try:
            encoded = encode_image(path.read_bytes())
        except FileNotFoundError:
            warnings.append(
                f"record {rec.id}: image {rec.picture_filename} missing, "
                "uploading without picture"
            )
            encoded = ""
        except OSError as exc:
            raise StorageError(f"cannot read {path}: {exc}") from None
        entries.append(
            PayloadRecord(
                vehicle_speed=rec.vehicle_speed,
                location=rec.location,
                capture_time=rec.capture_time,
                picture_filename=rec.picture_filename,
                picture_base64=encoded,
            )
        )
    return UploadPayload(tuple(entries)), warnings


def post_upload(
    endpoint: str, payload: UploadPayload, max_bytes: int = DEFAULT_MAX_BYTES
) -> UploadResponse:
    """POST the payload to <endpoint>/uploadData and parse the response.

    The endpoint and the serialized size are checked before any network
    I/O: an endpoint that is not an http or https URL with a host is a
    ConfigError, and an oversize batch never leaves the machine. A server
    that does not answer within TIMEOUT_S is a TransportError.
    """
    try:
        parts = urlsplit(endpoint)
        parts.port  # noqa: B018 - raises ValueError unless a number in 0..65535
    except ValueError:
        parts = None
    if parts is None or parts.scheme not in ("http", "https") or not parts.hostname:
        raise ConfigError(f"endpoint {endpoint!r} must be an http or https URL with a host")
    body = payload.to_json().encode("utf-8")
    if len(body) > max_bytes:
        raise PayloadSizeError(
            f"serialized payload is {len(body)} bytes, limit {max_bytes}"
        )
    import http.client
    import urllib.error
    import urllib.request

    url = endpoint.rstrip("/") + UPLOAD_PATH
    request = urllib.request.Request(
        url,
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=TIMEOUT_S) as response:
            raw = response.read()
    except urllib.error.HTTPError as exc:
        try:  # the server's message is a best-effort detail
            with exc:
                doc = parse_json(exc.read(), ProtocolError, "error body")
            detail = ": " + json_field(doc, "message", str, ProtocolError, "error body")
        except (OSError, http.client.HTTPException, ProtocolError):
            detail = ""
        raise TransportError(
            f"upload rejected with status {exc.code}{detail}", status=exc.code
        ) from None
    except urllib.error.URLError as exc:
        raise TransportError(f"cannot reach {url}: {exc.reason}") from None
    except (OSError, http.client.HTTPException) as exc:  # a stalled or broken reply
        raise TransportError(f"no reply from {url}: {exc!r}") from None
    what = "malformed upload response"
    doc = parse_json(raw, ProtocolError, what)
    return UploadResponse(
        message=json_field(doc, "message", str, ProtocolError, what),
        received=json_field(doc, "received", int, ProtocolError, what),
    )


def _parse_payload_records(doc) -> list[tuple[CaptureRecord, bytes]]:
    """Validate a request document fully; nothing is persisted on failure."""
    out = []
    for i, entry in enumerate(json_field(doc, "records", list, FormatError, "payload")):
        filename = json_field(entry, "pictureFilename", str, FormatError, f"records[{i}]")
        where = f"record {filename}"
        speed = json_field(entry, "vehicleSpeed", float, FormatError, where)
        location = json_field(entry, "location", str, FormatError, where)
        capture_time = json_field(entry, "captureTime", str, FormatError, where)
        encoded = json_field(entry, "pictureBase64", str, FormatError, where)
        try:
            image = decode_image(encoded)
        except DecodeError as exc:
            raise DecodeError(f"{where}: {exc}") from None
        try:
            record = CaptureRecord(
                vehicle_speed=speed,
                location=location,
                capture_time=capture_time,
                picture_filename=filename,
                speed_unit=INGEST_SPEED_UNIT,
            )
        except FormatError as exc:
            raise FormatError(f"{where}: {exc}") from None
        out.append((record, image))
    return out


def serve_ingest(bind: str, data_dir, max_bytes: int = DEFAULT_MAX_BYTES):
    """The running ``ingest_http.IngestHTTPServer`` on host:port.

    Port 0 picks a free port. The server's store uses the same directory
    layout as local capture, so the usual record tools work on the ingested
    data. An address that cannot be bound is a TransportError naming it.
    """
    host, _, port_text = bind.rpartition(":")
    if not host or not re.fullmatch(r"[0-9]{1,5}", port_text) or int(port_text) > 65535:
        raise FormatError(f"bind address {bind!r} must be host:port")
    from speedcam.ingest_http import IngestHTTPServer

    store = RecordStore(data_dir)
    try:
        return IngestHTTPServer((host, int(port_text)), store, max_bytes)
    except (OSError, TypeError) as exc:  # TypeError: a host name idna cannot encode
        raise TransportError(f"cannot serve on {bind!r}: {exc}") from None
