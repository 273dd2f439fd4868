"""Image transport encoding, payload build, POST upload, and the ingest server."""

import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest

import speedcam
from speedcam import ingest_http, uplink  # noqa: F401 - loaded before any patch
from speedcam.capture import RecordStore, make_record
from speedcam.errors import (
    DecodeError,
    FormatError,
    PayloadSizeError,
    ProtocolError,
    TransportError,
)
from speedcam.uplink import (
    UploadPayload,
    build_payload,
    decode_image,
    encode_image,
    post_upload,
    serve_ingest,
)

TIMES = [
    "2016-09-26_09_17_32",
    "2016-09-26_10_05_01",
    "2016-09-26_11_30_59",
    "2016-09-26_12_47_43",
    "2016-09-26_13_00_00",
]


def _filled_store(root, rng=None):
    store = RecordStore(root)
    images = []
    for k, t in enumerate(TIMES):
        if rng is None:
            img = b"img-" + bytes([k]) * 40
        else:
            img = rng.integers(0, 256, int(rng.integers(1, 4096)), dtype=np.uint8).tobytes()
        store.append(make_record(100.0 + k, "Main St", t), img)
        images.append(img)
    return store, images


# --- encoding ---


def test_encode_known_vectors():
    assert encode_image(b"Man") == "TWFu"
    assert encode_image(b"") == ""
    assert encode_image(b"\xff\xef") == "_+8="  # standard alphabet would say /+8=


def test_encode_never_emits_slash_or_newline():
    rng = np.random.default_rng(61)
    for _ in range(200):
        data = rng.integers(0, 256, int(rng.integers(0, 300)), dtype=np.uint8).tobytes()
        text = encode_image(data)
        assert "/" not in text
        assert "\n" not in text
        assert set(text) <= set(
            "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+_="
        )


def test_decode_inverts_encode_up_to_64k():
    rng = np.random.default_rng(62)
    sizes = [0, 1, 2, 3, 4, 5, 63, 64, 65, 4096, 65536]
    sizes += [int(v) for v in rng.integers(0, 2048, 200)]
    for size in sizes:
        data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        assert decode_image(encode_image(data)) == data


def test_decode_rejects_bad_characters_with_offset():
    with pytest.raises(DecodeError, match="offset 2"):
        decode_image("TW/u")
    with pytest.raises(DecodeError, match=r"'\$' at offset 0"):
        decode_image("$Wfu")
    with pytest.raises(DecodeError):
        decode_image("TWF")  # truncated quantum
    with pytest.raises(DecodeError):
        decode_image("====")


# --- payload build ---


def test_build_payload_empty_store(tmp_path):
    payload, warnings = build_payload(RecordStore(tmp_path / "s"))
    assert payload.records == ()
    assert warnings == []
    assert json.loads(payload.to_json()) == {"records": []}


def test_build_payload_orders_and_encodes(tmp_path):
    store, images = _filled_store(tmp_path / "s")
    payload, warnings = build_payload(store)
    assert warnings == []
    assert [r.capture_time for r in payload.records] == TIMES
    for rec, img in zip(payload.records, images):
        assert decode_image(rec.picture_base64) == img
    doc = json.loads(payload.to_json())
    assert sorted(doc["records"][0]) == [
        "captureTime",
        "location",
        "pictureBase64",
        "pictureFilename",
        "vehicleSpeed",
    ]


def test_build_payload_missing_image_warns(tmp_path):
    store, _ = _filled_store(tmp_path / "s")
    victim = store.list_all()[2]
    store.image_path(victim).unlink()
    payload, warnings = build_payload(store)
    assert len(payload.records) == 5
    assert payload.records[2].picture_base64 == ""
    assert len(warnings) == 1
    assert victim.picture_filename in warnings[0]


# --- loopback upload ---


def test_upload_round_trip_preserves_bytes(tmp_path):
    rng = np.random.default_rng(63)
    store, images = _filled_store(tmp_path / "client", rng)
    payload, _ = build_payload(store)
    with serve_ingest("127.0.0.1:0", tmp_path / "server") as server:
        response = post_upload(server.endpoint, payload)
        assert response.received == 5
        assert "5" in response.message
        landed = server.store.list_all()
        assert [r.capture_time for r in landed] == TIMES
        assert [r.vehicle_speed for r in landed] == [100.0, 101.0, 102.0, 103.0, 104.0]
        assert [r.id for r in landed] == [1, 2, 3, 4, 5]
        for rec, img in zip(landed, images):
            assert server.store.image_path(rec).read_bytes() == img
        assert all(r.speed_unit == "unspecified" for r in landed)


def test_upload_request_body_has_no_slash(tmp_path):
    rng = np.random.default_rng(64)
    store, _ = _filled_store(tmp_path / "client", rng)
    payload, _ = build_payload(store)
    assert "/" not in payload.to_json()
    for rec in payload.records:
        assert "/" not in rec.picture_base64


def test_server_rejects_get_and_wrong_path(tmp_path):
    with serve_ingest("127.0.0.1:0", tmp_path / "server") as server:
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.endpoint + "/uploadData")
        err.value.close()
        assert err.value.code == 405
        req = urllib.request.Request(
            server.endpoint + "/other",
            data=b"{}",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        err.value.close()
        assert err.value.code == 404
        assert server.store.list_all() == []


def test_post_upload_wraps_http_errors(tmp_path):
    store, _ = _filled_store(tmp_path / "client")
    payload, _ = build_payload(store)
    with serve_ingest("127.0.0.1:0", tmp_path / "server") as server:
        bad = UploadPayload(records=payload.records[:1])
        post_upload(server.endpoint, bad)
        with pytest.raises(TransportError) as err:
            post_upload(server.endpoint, bad)  # same filename: collision = 500
        assert err.value.status == 500
        assert len(server.store.list_all()) == 1


def test_oversize_payload_never_reaches_server(tmp_path):
    store, _ = _filled_store(tmp_path / "client")
    payload, _ = build_payload(store)
    with serve_ingest("127.0.0.1:0", tmp_path / "server") as server:
        with pytest.raises(PayloadSizeError, match="limit 100"):
            post_upload(server.endpoint, payload, max_bytes=100)
        assert server.store.list_all() == []


def test_server_enforces_its_own_ceiling(tmp_path):
    store, _ = _filled_store(tmp_path / "client")
    payload, _ = build_payload(store)
    with serve_ingest("127.0.0.1:0", tmp_path / "server", max_bytes=64) as server:
        with pytest.raises(TransportError) as err:
            post_upload(server.endpoint, payload)
        assert err.value.status == 413
        assert server.store.list_all() == []


def test_corrupt_record_rejects_whole_batch(tmp_path):
    store, _ = _filled_store(tmp_path / "client")
    payload, _ = build_payload(store)
    doc = payload.to_doc()
    doc["records"][3]["pictureBase64"] = "no$good"
    body = json.dumps(doc).encode()
    with serve_ingest("127.0.0.1:0", tmp_path / "server") as server:
        req = urllib.request.Request(
            server.endpoint + "/uploadData",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400
        with err.value:
            detail = json.loads(err.value.read())
        assert doc["records"][3]["pictureFilename"] in detail["message"]
        # atomicity: earlier records in the batch must not have landed
        assert server.store.list_all() == []
        assert list(server.store.images_dir.iterdir()) == []


def test_malformed_json_and_bad_time_are_400(tmp_path):
    with serve_ingest("127.0.0.1:0", tmp_path / "server") as server:
        for body in [
            b"{nope",
            b"[" * 200_000,  # nesting past the recursion limit
            b'{"records": 5}',
            json.dumps(
                {
                    "records": [
                        {
                            "vehicleSpeed": 1.0,
                            "location": "x",
                            "captureTime": "2016/09/26 09:17:32",
                            "pictureFilename": "vehicle_picture_x.jpg",
                            "pictureBase64": "",
                        }
                    ]
                }
            ).encode(),
        ]:
            req = urllib.request.Request(
                server.endpoint + "/uploadData",
                data=body,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req)
            err.value.close()
            assert err.value.code == 400
        assert server.store.list_all() == []


@pytest.mark.parametrize(
    "speed, says",
    [
        ('"nan"', 'field "vehicleSpeed" must be a number'),
        ('"-inf"', 'field "vehicleSpeed" must be a number'),
        ("true", 'field "vehicleSpeed" must be a number'),
        ('"12"', 'field "vehicleSpeed" must be a number'),
        ("NaN", "vehicle_speed must be finite"),
    ],
    ids=["nan-text", "inf-text", "true", "number-text", "NaN"],
)
def test_ingest_refuses_a_speed_that_is_not_a_finite_number(tmp_path, speed, says):
    entry = {
        "vehicleSpeed": "SPEED",
        "location": "x",
        "captureTime": TIMES[0],
        "pictureFilename": f"vehicle_picture_{TIMES[0]}.jpg",
        "pictureBase64": encode_image(b"img"),
    }
    body = json.dumps({"records": [entry]}).replace('"SPEED"', speed)
    with serve_ingest("127.0.0.1:0", tmp_path / "server") as server:
        req = urllib.request.Request(
            server.endpoint + "/uploadData",
            data=body.encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        with err.value:
            assert err.value.code == 400
            assert says in json.loads(err.value.read())["message"]
        assert server.store.list_all() == []
    assert not (tmp_path / "server" / "records.log").exists()


@pytest.mark.parametrize("length", ["abc", "-1"])
def test_bad_content_length_is_400(tmp_path, length):
    with serve_ingest("127.0.0.1:0", tmp_path / "server") as server:
        netloc = urllib.parse.urlsplit(server.endpoint).netloc
        conn = http.client.HTTPConnection(netloc, timeout=10)
        try:
            conn.putrequest("POST", "/uploadData")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            assert json.loads(resp.read())["received"] == 0
        finally:
            conn.close()
        assert server.store.list_all() == []


def test_post_upload_unreachable_host():
    payload = UploadPayload(records=())
    with pytest.raises(TransportError, match="cannot reach"):
        post_upload("http://127.0.0.1:9", payload)  # discard port: nothing listens


def test_post_upload_rejects_non_json_response():
    class BogusHandler(BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            body = self.server.reply
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    httpd = HTTPServer(("127.0.0.1", 0), BogusHandler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = httpd.server_address[:2]
        # a page, nesting past the recursion limit, a count past int range
        replies = (b"<html>ok</html>", b"[" * 200_000, b'{"message": "", "received": 1e400}')
        for httpd.reply in replies:
            with pytest.raises(ProtocolError, match="malformed upload response"):
                post_upload(f"http://{host}:{port}", UploadPayload(records=()))
        # a field of another JSON type is refused, not coerced
        for key, value in [
            ("received", "true"),
            ("received", "1.9"),
            ("received", '"5"'),
            ("message", '{"a": 1}'),
        ]:
            fields = {"message": '"ok"', "received": "0", key: value}
            httpd.reply = ('{"message": %(message)s, "received": %(received)s}' % fields).encode()
            with pytest.raises(ProtocolError, match=f'malformed upload response: field "{key}"'):
                post_upload(f"http://{host}:{port}", UploadPayload(records=()))
    finally:
        httpd.shutdown()
        thread.join()
        httpd.server_close()


@pytest.mark.parametrize(
    "reply",
    [b"", b"HTTP/1.0 200 OK\r\nContent-Length: 99\r\n\r\n{", b"bogus\r\n\r\n"],
    ids=["silent", "stalls-mid-body", "not-http"],
)
def test_post_upload_wraps_a_stalled_or_broken_reply(monkeypatch, reply):
    # a loopback server that takes the request, sends `reply` and then stalls
    monkeypatch.setattr(uplink, "TIMEOUT_S", 0.2)
    listener = socket.create_server(("127.0.0.1", 0))
    done = threading.Event()

    def stall():
        conn, _ = listener.accept()
        with conn:
            conn.recv(65536)
            conn.sendall(reply)
            done.wait(10)

    thread = threading.Thread(target=stall, daemon=True)
    thread.start()
    host, port = listener.getsockname()
    start = time.monotonic()
    try:
        with pytest.raises(TransportError):
            post_upload(f"http://{host}:{port}", UploadPayload(records=()))
        assert time.monotonic() - start < 5
    finally:
        done.set()
        listener.close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_ingest_drops_a_client_that_stalls_mid_body(monkeypatch, tmp_path):
    # this file imports ingest_http before the patch: a copy of TIMEOUT_S
    # taken when it was imported would keep the old 30 s
    monkeypatch.setattr(uplink, "TIMEOUT_S", 0.2)
    with serve_ingest("127.0.0.1:0", tmp_path / "server") as server:
        netloc = urllib.parse.urlsplit(server.endpoint).netloc
        host, port = netloc.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=5) as client:
            client.sendall(b"POST /uploadData HTTP/1.1\r\nContent-Length: 100\r\n\r\n{")
            start = time.monotonic()
            assert client.recv(1) == b""  # the handler timed out and closed
            assert time.monotonic() - start < 5
        assert server.store.list_all() == []


def test_no_module_but_ingest_http_loads_an_http_module():
    # every module of the package, the command line among them, imported
    # in a fresh process; the HTTP modules load only when upload or serve runs
    code = (
        "import pkgutil, sys, speedcam\n"
        "for m in pkgutil.iter_modules(speedcam.__path__):\n"
        "    if m.name != 'ingest_http':\n"
        "        __import__('speedcam.' + m.name)\n"
        "print(sorted({'http.client', 'http.server', 'urllib.request'} & set(sys.modules)))\n"
    )
    src = str(Path(speedcam.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src), check=True,
    )
    assert proc.stdout == "[]\n"


def test_serve_ingest_validates_bind():
    with pytest.raises(FormatError):
        serve_ingest("localhost", "/tmp/nope")
    with pytest.raises(FormatError):
        serve_ingest("localhost:http", "/tmp/nope")


@pytest.mark.parametrize("stop", ["shutdown", "with"])
def test_a_stopped_server_refuses_connections_and_leaves_no_thread(tmp_path, stop):
    def ingest_threads():
        return [t for t in threading.enumerate() if t.name == "ingest" and t.is_alive()]

    server = serve_ingest("127.0.0.1:0", tmp_path / "server")
    assert isinstance(server, ingest_http.IngestHTTPServer)
    assert len(ingest_threads()) == 1
    if stop == "shutdown":
        server.shutdown()
    else:
        with server:
            pass
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(server.server_address[:2], timeout=5).close()
    assert ingest_threads() == []


@pytest.mark.parametrize(
    "headers, status",
    [
        ("Content-Length: abc", 400),
        ("Content-Length: 1000", 413),
        ("Transfer-Encoding: chunked", 411),
    ],
    ids=["bad-length", "over-limit", "chunked"],
)
def test_a_refused_http11_client_reads_eof_after_the_response(tmp_path, headers, status):
    # the handler speaks HTTP/1.0, so even a client that asked for 1.1 gets
    # one response and then the end of the connection
    with serve_ingest("127.0.0.1:0", tmp_path / "server", max_bytes=64) as server:
        address = urllib.parse.urlsplit(server.endpoint)
        request = f"POST /uploadData HTTP/1.1\r\nHost: x\r\n{headers}\r\n\r\n"
        with socket.create_connection((address.hostname, address.port), timeout=5) as client:
            client.sendall(request.encode("ascii"))
            received = b""
            while chunk := client.recv(65536):
                received += chunk
    head, _, body = received.partition(b"\r\n\r\n")
    assert head.startswith(f"HTTP/1.0 {status} ".encode())
    assert f"Content-Length: {len(body)}".encode() in head.split(b"\r\n")
    assert json.loads(body)["received"] == 0
