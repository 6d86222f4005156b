"""Shared fixtures: a loopback web farm for probe tests.

The farm binds HTTP and HTTPS listeners on distinct 127.0.1.x loopback
addresses sharing one port pair, so four hostnames exercise the four
reachability categories through a resolver override (no DNS involved).
Every connection passes through a shared gauge during a span the client
provably still holds its end open; the gauge's peak therefore never
exceeds the client's true connection concurrency, and it is what the
concurrency-bound assertions read.
"""

from __future__ import annotations

import socket
import ssl
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from certbuild import DAY, make_cert, key_pem, name, to_pem

IP_BOTH = "127.0.1.1"
IP_TLS_ONLY = "127.0.1.2"
IP_HTTP_ONLY = "127.0.1.3"
IP_DEAD = "127.0.1.4"

DOMAIN_BOTH = "both.test"
DOMAIN_TLS_ONLY = "tlsonly.test"
DOMAIN_HTTP_ONLY = "webonly.test"
DOMAIN_DEAD = "dead.test"


class ConnectionGauge:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.current = 0
        self.peak = 0

    def enter(self) -> None:
        with self._lock:
            self.current += 1
            self.peak = max(self.peak, self.current)

    def leave(self) -> None:
        with self._lock:
            self.current -= 1

    def reset(self) -> None:
        with self._lock:
            self.current = 0
            self.peak = 0


class _QuietHandler(BaseHTTPRequestHandler):
    def do_GET(self) -> None:
        body = b"ok\n"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        pass


class _FarmServer(ThreadingHTTPServer):
    daemon_threads = True
    gauge: ConnectionGauge | None = None
    tls_context: ssl.SSLContext | None = None

    def finish_request(self, request, client_address) -> None:
        # Gauge windows are strict subsets of the span the peer provably
        # holds its end open: from handler start until just before the
        # handshake reply for TLS, or until the response is written for
        # plain HTTP.  Windows that instead ran to connection teardown
        # would outlive a hit-and-run client and overstate concurrency.
        gauge = self.gauge
        if gauge is not None:
            gauge.enter()
        if self.tls_context is not None:
            if gauge is not None:
                gauge.leave()
                gauge = None  # the reply may outlive the peer's interest
            request = self.tls_context.wrap_socket(request, server_side=True)
        try:
            super().finish_request(request, client_address)
        finally:
            if gauge is not None:
                gauge.leave()
            if self.tls_context is not None:
                # wrapping detached the socket socketserver will close
                request.close()

    def handle_error(self, request, client_address) -> None:
        pass  # probes hang up mid-handshake on purpose; keep the log clean


@dataclass
class Farm:
    http_port: int
    https_port: int
    gauge: ConnectionGauge
    addresses: dict[str, str]
    leaf_der: dict[str, bytes]
    chain_der: dict[str, tuple[bytes, ...]]
    root_pem: bytes
    servers: list = field(default_factory=list)

    def resolver(self, host: str) -> str:
        return self.addresses[host]

    @property
    def domains(self) -> list[str]:
        return [DOMAIN_BOTH, DOMAIN_TLS_ONLY, DOMAIN_HTTP_ONLY, DOMAIN_DEAD]

    @property
    def categories(self) -> dict[str, str]:
        return {
            DOMAIN_BOTH: "both",
            DOMAIN_TLS_ONLY: "https_only",
            DOMAIN_HTTP_ONLY: "http_only",
            DOMAIN_DEAD: "neither",
        }


def _free_port(ip: str) -> int:
    with socket.socket() as probe:
        probe.bind((ip, 0))
        return probe.getsockname()[1]


def _start(server: ThreadingHTTPServer) -> None:
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()


@pytest.fixture(scope="session")
def farm(tmp_path_factory) -> Farm:
    certdir = tmp_path_factory.mktemp("farm-certs")

    # live probes stamp wall-clock harvest times, so the farm's leaves must
    # be valid around now rather than around the fixed fixture epoch
    fresh = int(time.time()) - 30 * DAY
    both_der, both_key = make_cert(DOMAIN_BOTH, not_before=fresh, days=365)
    root_der, root_key = make_cert(
        name("Farm Root CA", o="Farm"), ca=True, not_before=fresh, days=3650
    )
    from cryptography import x509

    root_cert = x509.load_der_x509_certificate(root_der)
    tls_der, tls_key = make_cert(
        DOMAIN_TLS_ONLY, issuer_cert=root_cert, issuer_key=root_key,
        not_before=fresh, days=365,
    )

    both_pem = certdir / "both.pem"
    both_pem.write_bytes(to_pem(both_der) + key_pem(both_key))
    tls_pem = certdir / "tlsonly.pem"
    tls_pem.write_bytes(to_pem(tls_der) + to_pem(root_der) + key_pem(tls_key))

    gauge = ConnectionGauge()
    servers: list[ThreadingHTTPServer] = []
    last_error: OSError | None = None
    for _ in range(5):
        http_port = _free_port(IP_BOTH)
        https_port = _free_port(IP_BOTH)
        if https_port == http_port:
            continue
        try:
            plan = [
                (IP_BOTH, http_port, None),
                (IP_HTTP_ONLY, http_port, None),
                (IP_BOTH, https_port, both_pem),
                (IP_TLS_ONLY, https_port, tls_pem),
            ]
            servers = []
            for ip, port, pem in plan:
                server = _FarmServer((ip, port), _QuietHandler)
                server.gauge = gauge
                if pem is not None:
                    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
                    context.load_cert_chain(pem)
                    server.tls_context = context
                servers.append(server)
            break
        except OSError as exc:
            last_error = exc
            for server in servers:
                server.server_close()
            servers = []
    if not servers:
        raise RuntimeError(f"could not bind the farm: {last_error}")
    for server in servers:
        _start(server)

    farm = Farm(
        http_port=http_port,
        https_port=https_port,
        gauge=gauge,
        addresses={
            DOMAIN_BOTH: IP_BOTH,
            DOMAIN_TLS_ONLY: IP_TLS_ONLY,
            DOMAIN_HTTP_ONLY: IP_HTTP_ONLY,
            DOMAIN_DEAD: IP_DEAD,
        },
        leaf_der={DOMAIN_BOTH: both_der, DOMAIN_TLS_ONLY: tls_der},
        chain_der={
            DOMAIN_BOTH: (both_der,),
            DOMAIN_TLS_ONLY: (tls_der, root_der),
        },
        root_pem=to_pem(root_der),
        servers=servers,
    )
    yield farm
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture
def farm_config(farm):
    from certsift import ProbeConfig

    farm.gauge.reset()
    return ProbeConfig(
        connect_timeout_ms=2000,
        handshake_timeout_ms=2000,
        max_concurrency=4,
        retries=0,
        http_port=farm.http_port,
        https_port=farm.https_port,
        resolver=farm.resolver,
    )
