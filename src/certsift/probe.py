"""HTTP/HTTPS reachability probing and leaf certificate harvest.

Each domain is probed twice: a plain HTTP GET to judge web liveness, and a
TLS handshake that accepts whatever certificate the server offers (no
validation, since invalid certificates are exactly what we want to
collect).  Verification happens later, offline, against the stored bytes.
"""

from __future__ import annotations

import functools
import http.client
import logging
import re
import socket
import ssl
import time
import warnings
from collections import deque
from collections.abc import Callable, Iterable
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

from .errors import InvalidDomainName

log = logging.getLogger(__name__)

CATEGORY_BOTH = "both"
CATEGORY_HTTPS_ONLY = "https_only"
CATEGORY_HTTP_ONLY = "http_only"
CATEGORY_NEITHER = "neither"

_LABEL = r"[a-z0-9]([a-z0-9-]{0,61}[a-z0-9])?"
_HOSTNAME_RE = re.compile(rf"^{_LABEL}(\.{_LABEL})*$")


def canonical_domain(name: str) -> str:
    """A domain name in the one form it is known by from the domain list to
    the feature row: trimmed, lowercased (DNS names ignore case, RFC 4343)
    and without the final dot.  Nothing is checked here."""
    return name.strip().lower().rstrip(".")


def validate_domain(domain: str) -> str:
    """canonical_domain, syntax-checked; raises InvalidDomainName."""
    name = canonical_domain(domain)
    if not name or len(name) > 253 or not _HOSTNAME_RE.match(name):
        raise InvalidDomainName(f"not a valid domain name: {domain!r}")
    return name


@dataclass(frozen=True)
class ProbeConfig:
    """Knobs for one probing run.

    resolver maps a domain to the address actually dialed; None means the
    system resolver.  Overriding it lets tests point real hostnames at
    loopback listeners without touching DNS.
    """

    connect_timeout_ms: int = 5000
    handshake_timeout_ms: int = 5000
    max_concurrency: int = 16
    retries: int = 1
    http_port: int = 80
    https_port: int = 443
    resolver: Callable[[str], str] | None = None

    def __post_init__(self) -> None:
        if self.connect_timeout_ms <= 0 or self.handshake_timeout_ms <= 0:
            raise ValueError("timeouts must be positive")
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be at least 1")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if not (0 < self.http_port < 65536 and 0 < self.https_port < 65536):
            raise ValueError("ports must be in 1..65535")


@dataclass(frozen=True)
class DomainRecord:
    """Outcome of probing one domain.

    domain is kept in canonical_domain form, whatever spelling the record
    was made or loaded with.  cert_der is present iff the TLS handshake
    delivered a certificate; presented_chain_der holds every certificate
    the server sent (leaf included) when the TLS stack exposes it.
    tls_error keeps the reason the handshake failed, for forensics.
    """

    domain: str
    http_ok: bool
    https_ok: bool
    harvest_time: int
    cert_der: bytes | None = None
    presented_chain_der: tuple[bytes, ...] | None = None
    tls_error: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain", canonical_domain(self.domain))
        if self.cert_der is not None and not self.https_ok:
            raise ValueError("cert_der present without https_ok")

    @property
    def category(self) -> str:
        if self.http_ok and self.https_ok:
            return CATEGORY_BOTH
        if self.https_ok:
            return CATEGORY_HTTPS_ONLY
        if self.http_ok:
            return CATEGORY_HTTP_ONLY
        return CATEGORY_NEITHER


@dataclass
class ProbeSummary:
    """Counts of probed domains per reachability category."""

    both: int = 0
    https_only: int = 0
    http_only: int = 0
    neither: int = 0

    def add(self, record: DomainRecord) -> None:
        setattr(self, record.category, getattr(self, record.category) + 1)

    @property
    def total(self) -> int:
        return self.both + self.https_only + self.http_only + self.neither

    def as_dict(self) -> dict[str, int]:
        return {
            "both": self.both,
            "https_only": self.https_only,
            "http_only": self.http_only,
            "neither": self.neither,
            "total": self.total,
        }


@functools.cache
def _harvest_context() -> ssl.SSLContext:
    """The one client context of every harvest in this process: building one
    costs about 0.37 ms per HTTPS attempt, and a context is never changed
    after this, so worker threads share it."""
    ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    ctx.check_hostname = False
    ctx.verify_mode = ssl.CERT_NONE
    try:
        with warnings.catch_warnings():
            # old protocol versions are exactly what misconfigured hosts speak
            warnings.simplefilter("ignore", DeprecationWarning)
            ctx.minimum_version = ssl.TLSVersion.TLSv1
    except (ValueError, ssl.SSLError):
        pass
    try:
        # permit legacy ciphers and weak keys; we are collecting, not trusting
        ctx.set_ciphers("DEFAULT:@SECLEVEL=0")
    except ssl.SSLError:
        pass
    return ctx


def _unverified_chain(tls_sock: ssl.SSLSocket) -> tuple[bytes, ...] | None:
    """Every certificate the peer sent, as DER, when the stack exposes it.

    Python only grew a public accessor for the unverified peer chain in
    3.13; on older interpreters this reaches into the _ssl object and
    falls back to None (leaf-only harvest) if the private API moved.
    """
    try:
        sslobj = tls_sock._sslobj
        raw = sslobj.get_unverified_chain()
        if raw is None:
            return None
        return tuple(c.public_bytes(2) for c in raw)  # 2 == _ssl.ENCODING_DER
    except Exception:
        return None


def _dial(address: str, port: int, config: ProbeConfig) -> socket.socket:
    """The one place a probe opens a socket: a TCP connection made under
    the connect timeout, left with the handshake timeout for what follows."""
    sock = socket.create_connection((address, port), timeout=config.connect_timeout_ms / 1000)
    sock.settimeout(config.handshake_timeout_ms / 1000)
    return sock


def _probe_http(address: str, host: str, config: ProbeConfig) -> bool:
    """True iff a GET / receives any well-formed HTTP response."""
    request = (
        f"GET / HTTP/1.1\r\nHost: {host}\r\n"
        f"User-Agent: certsift/0.1\r\nAccept: */*\r\nConnection: close\r\n\r\n"
    ).encode("ascii", errors="replace")
    for _ in range(config.retries + 1):
        try:
            with _dial(address, config.http_port, config) as sock:
                sock.sendall(request)
                http.client.HTTPResponse(sock, method="GET").begin()
                return True
        except (OSError, http.client.HTTPException):
            continue
    return False


def _probe_https(
    address: str, host: str, config: ProbeConfig
) -> tuple[bool, bytes | None, tuple[bytes, ...] | None, str | None]:
    last_error: str | None = None
    for _ in range(config.retries + 1):
        try:
            sock = _dial(address, config.https_port, config)
        except OSError as exc:
            last_error = f"connect: {exc}"
            continue
        # wrap_socket takes sock's descriptor over, handshake failed or not;
        # closing sock matters only if wrapping failed before that
        with sock:
            try:
                tls_sock = _harvest_context().wrap_socket(sock, server_hostname=host)
            except (ssl.SSLError, OSError) as exc:
                last_error = f"handshake: {exc}"
                continue
            with tls_sock:
                der = tls_sock.getpeercert(binary_form=True)
                if not der:
                    return True, None, None, "handshake succeeded without a certificate"
                return True, der, _unverified_chain(tls_sock), None
    return False, None, None, last_error


def probe_domain(domain: str, config: ProbeConfig, now: Callable[[], int] | None = None) -> DomainRecord:
    """Probe one domain over HTTP and HTTPS and harvest its certificate.

    Network failures never raise; they are encoded in the record.  Only a
    syntactically invalid domain raises (InvalidDomainName).
    """
    host = validate_domain(domain)
    address = config.resolver(host) if config.resolver is not None else host
    harvest_time = int(now() if now is not None else time.time())
    http_ok = _probe_http(address, host, config)
    https_ok, cert_der, chain, tls_error = _probe_https(address, host, config)
    return DomainRecord(
        domain=host,
        http_ok=http_ok,
        https_ok=https_ok,
        harvest_time=harvest_time,
        cert_der=cert_der,
        presented_chain_der=chain,
        tls_error=tls_error,
    )


def probe_corpus(
    domains: Iterable[str],
    config: ProbeConfig,
    sink: Callable[[DomainRecord], Any],
) -> ProbeSummary:
    """Probe many domains with bounded concurrency.

    At most config.max_concurrency probes are in flight at once, and
    domains are read from the iterable at most 4 * max_concurrency ahead
    of the sink, so memory stays flat however long the list is.  The sink
    is invoked from the calling thread, serially, in input order; every
    input domain yields exactly one record.  Syntactically invalid names
    are not dialed; they come back as unreachable with the reason in
    tls_error.
    """

    def one(domain: str) -> DomainRecord:
        try:
            return probe_domain(domain, config)
        except InvalidDomainName as exc:
            return DomainRecord(
                domain=domain,
                http_ok=False,
                https_ok=False,
                harvest_time=int(time.time()),
                tls_error=f"invalid domain name: {exc}",
            )

    def drain(future: Future[DomainRecord]) -> None:
        record = future.result()
        summary.add(record)
        sink(record)

    summary = ProbeSummary()
    window = 4 * config.max_concurrency
    pending: deque[Future[DomainRecord]] = deque()
    with ThreadPoolExecutor(max_workers=config.max_concurrency) as pool:
        for domain in domains:
            pending.append(pool.submit(one, domain))
            if len(pending) == window:
                drain(pending.popleft())
        while pending:
            drain(pending.popleft())
    return summary
