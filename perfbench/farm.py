"""Loopback web farm for the probe-loopback workload (standard library only).

Four kinds of host, one loopback address each, after tests/conftest.py:
"both" serves HTTP and HTTPS, "https_only" serves HTTPS with a presented
chain, "http_only" serves HTTP, and "neither" has no listener, so every
connection to it is refused.  All HTTP listeners share one port and all
HTTPS listeners another.

Usage: python3 farm.py CERTDIR ADDRESSES_JSON
CERTDIR holds both.pem and https_only.pem (certificate chain, then key).
The farm prints one JSON line {"http_port": .., "https_port": ..} once it
is listening and serves until its standard input closes.
"""

from __future__ import annotations

import json
import os
import socket
import ssl
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class _Handler(BaseHTTPRequestHandler):
    def do_GET(self) -> None:
        body = b"ok\n"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        pass


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    request_queue_size = 64
    tls_context: ssl.SSLContext | None = None

    def finish_request(self, request, client_address) -> None:
        if self.tls_context is not None:
            request = self.tls_context.wrap_socket(request, server_side=True)
        super().finish_request(request, client_address)

    def handle_error(self, request, client_address) -> None:
        pass  # probes hang up right after the handshake on purpose


def _free_port(ip: str) -> int:
    with socket.socket() as sock:
        sock.bind((ip, 0))
        return sock.getsockname()[1]


def start(certdir: str, addresses: dict[str, str]) -> tuple[list[_Server], int, int]:
    plan = [
        (addresses["both"], "http", None),
        (addresses["http_only"], "http", None),
        (addresses["both"], "https", os.path.join(certdir, "both.pem")),
        (addresses["https_only"], "https", os.path.join(certdir, "https_only.pem")),
    ]
    last_error: OSError | None = None
    for _ in range(5):
        ports = {"http": _free_port(addresses["both"]), "https": _free_port(addresses["both"])}
        if ports["http"] == ports["https"]:
            continue
        servers: list[_Server] = []
        try:
            for ip, scheme, pem in plan:
                server = _Server((ip, ports[scheme]), _Handler)
                servers.append(server)
                if pem is not None:
                    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
                    context.load_cert_chain(pem)
                    server.tls_context = context
            return servers, ports["http"], ports["https"]
        except OSError as exc:
            last_error = exc
            for server in servers:
                server.server_close()
    raise RuntimeError(f"could not bind the farm: {last_error}")


def main(argv: list[str]) -> int:
    certdir, addresses = argv[0], json.loads(argv[1])
    servers, http_port, https_port = start(certdir, addresses)
    threads = [threading.Thread(target=s.serve_forever, daemon=True) for s in servers]
    for thread in threads:
        thread.start()
    print(json.dumps({"http_port": http_port, "https_port": https_port}), flush=True)
    try:
        sys.stdin.read()  # the parent closes our stdin to stop the farm
    finally:
        for server in servers:
            server.shutdown()
            server.server_close()
        for thread in threads:
            thread.join(timeout=10)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
