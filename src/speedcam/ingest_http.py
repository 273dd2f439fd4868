"""The ingest server: its request handler and the server that runs it.

``uplink.serve_ingest`` imports this module when it is first called, so
that a process which never serves loads no HTTP server module. An
``IngestHTTPServer`` serves on its own daemon thread from the moment it is
made; ``shutdown()``, or leaving a ``with`` block, stops it, joins the
thread and closes the socket. The handler reads ``uplink.TIMEOUT_S`` as
each connection opens, not once at import, so a changed timeout holds for
the next connection. It checks a whole body with
``uplink._parse_payload_records`` before it stores any record.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from speedcam import uplink
from speedcam.errors import DecodeError, FormatError, parse_json


class IngestHandler(BaseHTTPRequestHandler):
    # protocol_version stays the base class's HTTP/1.0, so each connection
    # closes after its one response: a refusal never has to read or skip a
    # body it did not take.

    @property
    def timeout(self):  # read by the base class as each connection opens
        return uplink.TIMEOUT_S

    def _respond(self, status: int, message: str, received: int):
        body = json.dumps({"message": message, "received": received}).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _refuse(self, status: int, message: str):
        self._respond(status, message, 0)

    def do_GET(self):
        self._refuse(405, "uploads must use POST")

    def do_POST(self):
        if self.path != uplink.UPLOAD_PATH:
            self._refuse(404, f"unknown path {self.path}")
            return
        length = self.headers.get("Content-Length")
        if length is None:
            self._refuse(411, "Content-Length required")
            return
        try:
            length = int(length)
        except ValueError:
            length = -1
        if length < 0:
            self._refuse(400, "Content-Length must be a non-negative integer")
            return
        if length > self.server.max_bytes:
            self._refuse(413, f"payload {length} bytes exceeds limit {self.server.max_bytes}")
            return
        body = self.rfile.read(length)
        try:
            doc = parse_json(body, FormatError, "payload")
            items = uplink._parse_payload_records(doc)
            ids = self.server.store.append_batch(items)
        except (ValueError, FormatError, DecodeError) as exc:
            self._refuse(400, str(exc))
            return
        except Exception as exc:  # noqa: BLE001 - surface as a server error
            self._refuse(500, str(exc))
            return
        self._respond(200, f"stored {len(ids)} records", len(ids))

    def log_message(self, format, *args):  # noqa: A002 - base class signature
        pass  # keep test and CLI output clean


class IngestHTTPServer(ThreadingHTTPServer):
    """A running ingest server over ``store``; usable as a context manager."""

    daemon_threads = True

    def __init__(self, address, store, max_bytes):
        super().__init__(address, IngestHandler)
        self.store = store
        self.max_bytes = max_bytes
        self._thread = threading.Thread(target=self.serve_forever, name="ingest", daemon=True)
        self._thread.start()

    @property
    def endpoint(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown(self):
        super().shutdown()
        self._thread.join()
        self.server_close()

    def __exit__(self, *exc):
        self.shutdown()
