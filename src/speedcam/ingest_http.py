"""The HTTP side of the ingest server: its request handler and server class.

``uplink.serve_ingest`` imports this module when it is first called, so
that a process which never serves loads no HTTP server module. The handler
reads ``uplink.TIMEOUT_S`` as each connection opens, not once at import,
so a changed timeout holds for the next connection. It checks a whole
body with ``uplink._parse_payload_records`` before it stores any record.
"""

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from speedcam import uplink
from speedcam.errors import DecodeError, FormatError, parse_json


class IngestHandler(BaseHTTPRequestHandler):
    @property
    def timeout(self):  # read by the base class as each connection opens
        return uplink.TIMEOUT_S

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
        if self.path != uplink.UPLOAD_PATH:
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
            items = uplink._parse_payload_records(doc)
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


class IngestHTTPServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, store, max_bytes):
        super().__init__(address, IngestHandler)
        self.store = store
        self.max_bytes = max_bytes
