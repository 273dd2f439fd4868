"""Batch upload of capture records and the matching local ingest server.

Images travel as standard Base64 with every '/' swapped for '_' (the
substituted alphabet avoids path-like sequences in the JSON body). The
whole store uploads as one POST <endpoint>/uploadData with a JSON
payload; the server validates the entire batch before persisting
anything, so a request either lands completely or not at all.
"""

import base64
import binascii
import http.client
import json
import re
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from speedcam.capture import CaptureRecord, RecordStore
from speedcam.errors import (
    DecodeError,
    FormatError,
    PayloadSizeError,
    ProtocolError,
    StorageError,
    TransportError,
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

    The serialized size is checked against max_bytes before any network
    I/O so an oversize batch never leaves the machine. A server that does
    not answer within TIMEOUT_S is a TransportError.
    """
    body = payload.to_json().encode("utf-8")
    if len(body) > max_bytes:
        raise PayloadSizeError(
            f"serialized payload is {len(body)} bytes, limit {max_bytes}"
        )
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
        detail = ""
        try:
            doc = json.loads(exc.read().decode("utf-8"))
            detail = f": {doc.get('message', '')}"
        except Exception:
            pass
        raise TransportError(
            f"upload rejected with status {exc.code}{detail}", status=exc.code
        ) from None
    except urllib.error.URLError as exc:
        raise TransportError(f"cannot reach {url}: {exc.reason}") from None
    except (OSError, http.client.HTTPException) as exc:  # a stalled or broken reply
        raise TransportError(f"no reply from {url}: {exc!r}") from None
    doc = parse_json(raw, ProtocolError, "malformed upload response")
    try:
        return UploadResponse(message=str(doc["message"]), received=int(doc["received"]))
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ProtocolError(f"malformed upload response: {exc}") from None


def _parse_payload_records(doc) -> list[tuple[CaptureRecord, bytes]]:
    """Validate a request document fully; nothing is persisted on failure."""
    if not isinstance(doc, dict) or not isinstance(doc.get("records"), list):
        raise FormatError('payload must be an object with a "records" list')
    out = []
    for i, entry in enumerate(doc["records"]):
        if not isinstance(entry, dict):
            raise FormatError(f"records[{i}] must be an object")
        name = entry.get("pictureFilename", f"records[{i}]")
        try:
            speed = float(entry["vehicleSpeed"])
            location = str(entry["location"])
            capture_time = str(entry["captureTime"])
            filename = str(entry["pictureFilename"])
            encoded = entry["pictureBase64"]
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"record {name}: bad field: {exc}") from None
        if not isinstance(encoded, str):
            raise FormatError(f"record {name}: pictureBase64 must be a string")
        try:
            image = decode_image(encoded)
        except DecodeError as exc:
            raise DecodeError(f"record {filename}: {exc}") from None
        try:
            record = CaptureRecord(
                vehicle_speed=speed,
                location=location,
                capture_time=capture_time,
                picture_filename=filename,
                speed_unit=INGEST_SPEED_UNIT,
            )
        except FormatError as exc:
            raise FormatError(f"record {filename}: {exc}") from None
        out.append((record, image))
    return out


class _IngestHandler(BaseHTTPRequestHandler):
    @property
    def timeout(self):  # read by the base class as each connection opens
        return TIMEOUT_S

    def _respond(self, status: int, doc: dict):
        body = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        self._respond(405, {"message": "uploads must use POST", "received": 0})

    def do_POST(self):
        if self.path != UPLOAD_PATH:
            self._respond(404, {"message": f"unknown path {self.path}", "received": 0})
            return
        length = self.headers.get("Content-Length")
        if length is None:
            self._respond(411, {"message": "Content-Length required", "received": 0})
            return
        try:
            length = int(length)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True  # the body's extent is unknown
            self._respond(
                400,
                {
                    "message": "Content-Length must be a non-negative integer",
                    "received": 0,
                },
            )
            return
        if length > self.server.max_bytes:
            self.close_connection = True
            self._respond(
                413,
                {
                    "message": f"payload {length} bytes exceeds "
                    f"limit {self.server.max_bytes}",
                    "received": 0,
                },
            )
            return
        body = self.rfile.read(length)
        try:
            doc = parse_json(body, FormatError, "payload")
            items = _parse_payload_records(doc)
            ids = self.server.store.append_batch(items)
        except (ValueError, FormatError, DecodeError) as exc:
            self._respond(400, {"message": str(exc), "received": 0})
            return
        except Exception as exc:  # noqa: BLE001 - surface as a server error
            self._respond(500, {"message": str(exc), "received": 0})
            return
        self._respond(
            200, {"message": f"stored {len(ids)} records", "received": len(ids)}
        )

    def log_message(self, format, *args):  # noqa: A002 - base class signature
        pass  # keep test and CLI output clean


class _IngestHTTPServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, store, max_bytes):
        super().__init__(address, _IngestHandler)
        self.store = store
        self.max_bytes = max_bytes


class IngestServer:
    """Running ingest server handle; usable as a context manager."""

    def __init__(self, httpd: _IngestHTTPServer, thread: threading.Thread):
        self._httpd = httpd
        self._thread = thread

    @property
    def store(self) -> RecordStore:
        return self._httpd.store

    @property
    def endpoint(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown(self):
        self._httpd.shutdown()
        self._thread.join()
        self._httpd.server_close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False


def serve_ingest(
    bind: str, data_dir, max_bytes: int = DEFAULT_MAX_BYTES
) -> IngestServer:
    """Start the mirror server on host:port (port 0 picks a free one).

    The server's store uses the same directory layout as local capture,
    so the usual record tools work on the ingested data.
    """
    host, _, port_text = bind.rpartition(":")
    if not host or not port_text.isdigit():
        raise FormatError(f"bind address {bind!r} must be host:port")
    store = RecordStore(data_dir)
    httpd = _IngestHTTPServer((host, int(port_text)), store, max_bytes)
    thread = threading.Thread(target=httpd.serve_forever, name="ingest", daemon=True)
    thread.start()
    return IngestServer(httpd, thread)
