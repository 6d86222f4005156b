"""Probing behavior against the loopback farm."""

from __future__ import annotations

import dataclasses
import socket
import ssl
import threading
import time

import pytest

from certsift import DomainRecord, ProbeConfig, probe_corpus, probe_domain
from certsift.errors import InvalidDomainName, StorageFull
from certsift.probe import validate_domain
from conftest import (
    DOMAIN_BOTH,
    DOMAIN_DEAD,
    DOMAIN_HTTP_ONLY,
    DOMAIN_TLS_ONLY,
    IP_DEAD,
    IP_HTTP_ONLY,
)


class TestValidateDomain:
    def test_lowercases_and_strips(self):
        assert validate_domain(" Example.COM. ") == "example.com"

    def test_single_label_ok(self):
        assert validate_domain("localhost") == "localhost"

    @pytest.mark.parametrize(
        "bad",
        ["", "  ", "exa mple.com", "-bad.com", "bad-.com", "ex!.com", "a" * 300,
         "a..b", ".leading.dot"],
    )
    def test_rejects_bad_names(self, bad):
        with pytest.raises(InvalidDomainName):
            validate_domain(bad)


class TestProbeDomain:
    def test_both(self, farm, farm_config):
        record = probe_domain(DOMAIN_BOTH, farm_config)
        assert record.category == "both"
        assert record.cert_der == farm.leaf_der[DOMAIN_BOTH]
        assert record.tls_error is None

    def test_https_only_with_chain(self, farm, farm_config):
        record = probe_domain(DOMAIN_TLS_ONLY, farm_config)
        assert record.category == "https_only"
        assert record.cert_der == farm.leaf_der[DOMAIN_TLS_ONLY]
        # server presents leaf plus its issuing root
        assert record.presented_chain_der is not None
        assert set(record.presented_chain_der) == set(farm.chain_der[DOMAIN_TLS_ONLY])

    def test_http_only(self, farm, farm_config):
        record = probe_domain(DOMAIN_HTTP_ONLY, farm_config)
        assert record.category == "http_only"
        assert record.cert_der is None
        assert record.tls_error is not None

    def test_neither(self, farm, farm_config):
        record = probe_domain(DOMAIN_DEAD, farm_config)
        assert record.category == "neither"
        assert record.cert_der is None

    def test_non_tls_listener_yields_tls_error(self, farm):
        # an HTTP server answering on the TLS port: handshake must fail
        # but the HTTP probe against the same port succeeds
        config = ProbeConfig(
            connect_timeout_ms=2000,
            handshake_timeout_ms=2000,
            retries=0,
            http_port=farm.http_port,
            https_port=farm.http_port,
            resolver=farm.resolver,
        )
        record = probe_domain(DOMAIN_HTTP_ONLY, config)
        assert record.http_ok and not record.https_ok
        assert "handshake" in record.tls_error

    def test_invalid_domain_raises(self, farm_config):
        with pytest.raises(InvalidDomainName):
            probe_domain("not a domain", farm_config)


class TestDialPath:
    """Every attempt of either probe is one socket.create_connection call,
    and every socket it opens, TLS ones included, is closed by the time the
    probe returns.  Each socket is kept, so none is closed by collection."""

    @pytest.fixture
    def dials(self, monkeypatch):
        real_connect = socket.create_connection
        real_wrap = ssl.SSLContext.wrap_socket
        dialed: list[tuple[str, int]] = []
        sockets: list[socket.socket] = []

        def counting(address, *args, **kwargs):
            dialed.append(address)
            sock = real_connect(address, *args, **kwargs)
            sockets.append(sock)
            return sock

        def keeping(context, sock, *args, **kwargs):
            tls_sock = real_wrap(context, sock, *args, **kwargs)
            if not kwargs.get("server_side"):  # the farm's own sockets are not ours
                sockets.append(tls_sock)
            return tls_sock

        monkeypatch.setattr(socket, "create_connection", counting)
        monkeypatch.setattr(ssl.SSLContext, "wrap_socket", keeping)
        return dialed, sockets

    def test_refused_port_dials_each_protocol_twice(self, farm, farm_config, dials):
        dialed, sockets = dials
        config = dataclasses.replace(farm_config, retries=1)
        record = probe_domain(DOMAIN_DEAD, config)
        assert record.category == "neither"
        assert record.tls_error.startswith("connect: ")
        assert dialed == [(IP_DEAD, farm.http_port)] * 2 + [(IP_DEAD, farm.https_port)] * 2
        assert sockets == []

    def test_non_tls_listener_dials_https_twice(self, farm, farm_config, dials):
        dialed, sockets = dials
        config = dataclasses.replace(farm_config, retries=1, https_port=farm.http_port)
        record = probe_domain(DOMAIN_HTTP_ONLY, config)
        assert record.http_ok and not record.https_ok
        assert record.tls_error.startswith("handshake: ")
        # one HTTP dial that succeeds, then two HTTPS dials that fail
        assert dialed == [(IP_HTTP_ONLY, farm.http_port)] * 3
        assert [sock.fileno() for sock in sockets] == [-1] * 3

    @pytest.mark.parametrize(
        "domain,attempts",
        [(DOMAIN_BOTH, 2), (DOMAIN_TLS_ONLY, 3), (DOMAIN_HTTP_ONLY, 3), (DOMAIN_DEAD, 4)],
    )
    def test_every_dialed_socket_ends_closed(self, farm, farm_config, dials, domain, attempts):
        dialed, sockets = dials
        config = dataclasses.replace(farm_config, retries=1)
        record = probe_domain(domain, config)
        assert record.category == farm.categories[domain]
        assert len(dialed) == attempts
        assert [sock.fileno() for sock in sockets] == [-1] * len(sockets)


class TestTimeouts:
    @pytest.fixture
    def tarpit(self):
        """A listener that accepts and never speaks."""
        server = socket.socket()
        server.bind(("127.0.1.9", 0))
        server.listen(8)
        accepted = []

        def accept_loop():
            while True:
                try:
                    conn, _ = server.accept()
                except OSError:
                    return
                accepted.append(conn)

        thread = threading.Thread(target=accept_loop, daemon=True)
        thread.start()
        yield "127.0.1.9", server.getsockname()[1]
        server.close()
        for conn in accepted:
            conn.close()

    def test_handshake_timeout_budget(self, tarpit):
        address, port = tarpit
        config = ProbeConfig(
            connect_timeout_ms=500,
            handshake_timeout_ms=500,
            retries=1,
            http_port=port,
            https_port=port,
            resolver=lambda host: address,
        )
        start = time.monotonic()
        record = probe_domain("tarpit.test", config)
        elapsed = time.monotonic() - start
        assert record.category == "neither"
        assert record.tls_error is not None
        # per scheme: (connect + handshake) x (1 + retries), plus slack
        budget = 2 * (0.5 + 0.5) * 2
        assert elapsed < budget + 1.0


class TestProbeCorpus:
    def test_every_domain_yields_one_record_in_order(self, farm, farm_config):
        domains = farm.domains + ["bad_name!", DOMAIN_BOTH]
        records: list[DomainRecord] = []
        summary = probe_corpus(domains, farm_config, records.append)
        assert len(records) == len(domains)
        assert [r.domain for r in records] == [
            DOMAIN_BOTH, DOMAIN_TLS_ONLY, DOMAIN_HTTP_ONLY, DOMAIN_DEAD,
            "bad_name!", DOMAIN_BOTH,
        ]
        assert records[4].category == "neither"
        assert "invalid domain name" in records[4].tls_error
        assert summary.as_dict() == {
            "both": 2, "https_only": 1, "http_only": 1, "neither": 2, "total": 6,
        }

    def test_concurrency_stays_bounded(self, farm, farm_config, monkeypatch):
        import certsift.probe as probe_module

        lock = threading.Lock()
        state = {"current": 0, "peak": 0}
        real_probe = probe_module.probe_domain

        def gauged(domain, config, now=None):
            with lock:
                state["current"] += 1
                state["peak"] = max(state["peak"], state["current"])
            try:
                return real_probe(domain, config)
            finally:
                with lock:
                    state["current"] -= 1

        monkeypatch.setattr(probe_module, "probe_domain", gauged)
        probe_corpus(farm.domains * 6, farm_config, lambda record: None)
        assert 1 <= state["peak"] <= farm_config.max_concurrency

    def test_sink_runs_single_threaded(self, farm, farm_config):
        sink_threads = set()
        probe_corpus(farm.domains * 2, farm_config, lambda r: sink_threads.add(threading.get_ident()))
        assert sink_threads == {threading.get_ident()}

    def test_long_list_is_read_a_window_ahead(self, monkeypatch):
        import certsift.probe as probe_module

        config = ProbeConfig(max_concurrency=3)
        window = 4 * config.max_concurrency
        baseline = threading.active_count()
        state = {"read": 0, "sunk": 0, "lead": 0, "threads": 0}

        def stub(domain, config, now=None):  # opens no sockets
            state["threads"] = max(state["threads"], threading.active_count())
            return DomainRecord(domain=domain, http_ok=False, https_ok=False, harvest_time=0)

        def names():
            for i in range(20_000):
                state["read"] += 1
                state["lead"] = max(state["lead"], state["read"] - state["sunk"])
                yield f"host{i}.test"

        order = []

        def sink(record):
            state["sunk"] += 1
            order.append(record.domain)

        monkeypatch.setattr(probe_module, "probe_domain", stub)
        summary = probe_corpus(names(), config, sink)
        assert summary.total == 20_000
        assert order == [f"host{i}.test" for i in range(20_000)]
        assert 1 <= state["lead"] <= window
        assert state["threads"] <= baseline + config.max_concurrency

    def test_a_failing_sink_cancels_the_queued_probes(self, monkeypatch):
        import certsift.probe as probe_module

        lock, started = threading.Lock(), []

        def stub(domain, config, now=None):  # the first returns at once, the others later
            with lock:
                started.append(domain)
            if domain != "host0.test":
                time.sleep(0.2)
            return DomainRecord(domain=domain, http_ok=False, https_ok=False, harvest_time=0)

        def sink(record):
            raise StorageFull("no space appending to corpus.ndjson")

        monkeypatch.setattr(probe_module, "probe_domain", stub)
        config = ProbeConfig(max_concurrency=2)
        with pytest.raises(StorageFull):
            probe_corpus([f"host{i}.test" for i in range(100)], config, sink)
        # host0, then at most one probe per thread before the sink raised; not the 8-domain window
        assert "host0.test" in started and len(started) <= 3


class TestDomainRecord:
    def test_cert_requires_https_ok(self):
        with pytest.raises(ValueError):
            DomainRecord(
                domain="x.test", http_ok=True, https_ok=False,
                harvest_time=0, cert_der=b"\x30",
            )
