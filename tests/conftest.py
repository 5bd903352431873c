from __future__ import annotations

import json
import socket
import struct
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def corpus20_dir() -> Path:
    return FIXTURES / "corpus20"


@pytest.fixture(scope="session")
def e2e_dir() -> Path:
    return FIXTURES / "e2e"


@pytest.fixture
def e2e_config_factory(e2e_dir):
    """RunConfig factory for the 50-task end-to-end fixture."""
    from solrepair.harness import RunConfig

    def make(out_dir: str, **overrides) -> RunConfig:
        base = dict(
            task_file=str(e2e_dir / "tasks.jsonl"),
            out_dir=out_dir,
            source_root=str(e2e_dir / "sources"),
            context_budget=2048,
            counter="bytes4",
            mock_client=str(e2e_dir / "mock_client.json"),
            mock_executor=str(e2e_dir / "mock_executor.json"),
            executor="mock",
        )
        base.update(overrides)
        return RunConfig(**base)

    return make


@pytest.fixture(scope="session")
def waiting_client():
    """A `harness.build_client` stand-in: it replays the config's client
    fixture through a ScriptedModelClient declared to wait, as a networked
    client does, so that a run with more than one worker drains a thread
    pool."""
    from solrepair.context import get_counter
    from solrepair.repair import ScriptedModelClient

    class WaitingScriptedClient(ScriptedModelClient):
        waits = True

    def build(config, rate_limiter=None) -> WaitingScriptedClient:
        fixture = json.loads(Path(config.mock_client).read_text(encoding="utf-8"))
        return WaitingScriptedClient(fixture, counter=get_counter(config.counter))

    return build


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Answers each POST with the next scripted reply: (status, JSON value),
    "reset" (a reply cut off by a connection reset) or "garbled" (no valid
    status line)."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.received.append((dict(self.headers), json.loads(body)))
        reply = self.server.replies.pop(0)
        if reply == "garbled":
            self.wfile.write(b"garbage\r\n\r\n")
        elif reply == "reset":
            self.wfile.write(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"choi")
            # A zero linger time makes the close send a reset, not a FIN.
            self.connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            self.connection.close()
        else:
            status, payload = reply
            data = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        self.close_connection = True

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    """A loopback HTTP server on an ephemeral port. Append replies to
    `server.replies`; `server.received` holds each request's (headers,
    JSON body); `server.url` is its address."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.replies, server.received = [], []
    server.url = f"http://127.0.0.1:{server.server_address[1]}/v1"
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join()


@pytest.fixture
def refused_url():
    """The address of a loopback port that nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}/v1"
