"""The multiplexed TCP backend: TCP routing and failure semantics,
correlation ids, caller-driven reads, backpressure, connection reuse,
graceful drain, plain-frame interop, and the dispatch reentrancy
contract under genuinely concurrent handler entry."""

from __future__ import annotations

import socket as socket_mod
import threading
import time

import pytest

from repro.core import wire
from repro.core.dispatch import Endpoint
from repro.net.transport import AsyncTransport, RetryPolicy, asyncnet
from repro.exceptions import (AccessDenied, ParameterError,
                              TransientTransportError, TransportError)


def _recv_exact(conn: socket_mod.socket, nbytes: int) -> bytes:
    data = b""
    while len(data) < nbytes:
        chunk = conn.recv(nbytes - len(data))
        if not chunk:
            raise ConnectionError("peer closed mid-blob")
        data += chunk
    return data


def _recv_blob(conn: socket_mod.socket) -> bytes:
    """One length-prefixed blob off a raw blocking socket."""
    return _recv_exact(conn, int.from_bytes(_recv_exact(conn, 4), "big"))


def _send_blob(conn: socket_mod.socket, blob: bytes) -> None:
    conn.sendall(len(blob).to_bytes(4, "big") + blob)


class EchoEndpoint:
    """Minimal dispatch surface: echoes fields, or raises on demand."""

    def __init__(self) -> None:
        self.seen: list[bytes] = []

    def attach(self, transport) -> None:
        self.transport = transport

    def handle_frame(self, frame: bytes) -> bytes:
        self.seen.append(frame)
        opcode, fields = wire.parse_frame(frame)
        if opcode == b"boom":
            return wire.error_response(AccessDenied("no such privilege"))
        if opcode == b"refuse":
            return wire.error_response(
                TransientTransportError("endpoint saturated"))
        return wire.ok_response(b"".join(fields))


class GateEndpoint:
    """Blocks every handler on one event; records concurrent entries."""

    def __init__(self) -> None:
        self.release = threading.Event()
        self.entered: list[bytes] = []
        self._lock = threading.Lock()

    def attach(self, transport) -> None:
        pass

    def handle_frame(self, frame: bytes) -> bytes:
        _opcode, fields = wire.parse_frame(frame)
        with self._lock:
            self.entered.append(fields[0])
        assert self.release.wait(20.0), "gate never released"
        return wire.ok_response(fields[0])


class TestCorrelationCodec:
    def test_id_zero_is_identity(self):
        frame = wire.make_frame(b"op", b"payload")
        assert wire.wrap_corr(0, frame) == frame
        assert wire.unwrap_corr(frame) == (0, frame)

    def test_nonzero_round_trip(self):
        frame = wire.make_frame(b"op", b"payload")
        for frame_id in (1, 2, 0xDEADBEEF, wire.MAX_CORR_ID):
            blob = wire.wrap_corr(frame_id, frame)
            assert blob != frame
            assert wire.unwrap_corr(blob) == (frame_id, frame)

    def test_out_of_range_ids_rejected(self):
        for bad in (-1, wire.MAX_CORR_ID + 1):
            with pytest.raises(ParameterError):
                wire.wrap_corr(bad, b"frame")

    def test_truncated_prefix_rejected(self):
        with pytest.raises(TransportError, match="truncated"):
            wire.unwrap_corr(wire.CORR_MAGIC + b"\x00\x00")

    def test_explicit_zero_id_rejected(self):
        # Only the identity encoding may carry id 0; an explicit prefix
        # with id 0 is a peer bug, not a frame.
        with pytest.raises(TransportError, match="reserved"):
            wire.unwrap_corr(wire.CORR_MAGIC + b"\x00" * 4 + b"frame")

    def test_magic_cannot_collide_with_legacy_traffic(self):
        # Legacy frames start with the u32-BE length of their opcode
        # field (first byte 0x00 for any sane opcode); responses start
        # with the 0x00/0x01 status byte.  Neither can begin 0xff.
        assert wire.make_frame(b"phi-search", b"x")[0] == 0
        assert wire.ok_response(b"body")[0] == 0
        assert wire.error_response(ValueError("x"))[0] == 1
        assert wire.CORR_MAGIC[0] == 0xFF


class TestAsyncRoundTrip:
    def test_request_over_real_tcp(self):
        net = AsyncTransport()
        try:
            net.bind("svc://a", EchoEndpoint())
            response = net.request("cli://x", "svc://a",
                                   wire.make_frame(b"echo", b"async-bytes"),
                                   label="step")
            assert wire.parse_response(response) == b"async-bytes"
        finally:
            net.close()

    def test_server_errors_cross_the_wire(self):
        net = AsyncTransport()
        try:
            net.bind("svc://a", EchoEndpoint())
            response = net.notify("cli://x", "svc://a",
                                  wire.make_frame(b"boom"), label="l")
            with pytest.raises(AccessDenied):
                wire.parse_response(response)
        finally:
            net.close()

    def test_handler_exception_returns_error_response(self, caplog):
        """An endpoint that *raises* (instead of returning an error
        response) must not kill the connection — the client gets a
        typed error frame back and the server logs the failure."""

        class Exploding:
            def handle_frame(self, frame: bytes) -> bytes:
                raise RuntimeError("endpoint blew up")

        net = AsyncTransport()
        try:
            net.bind("svc://a", Exploding())
            response = net.notify("cli://x", "svc://a",
                                  wire.make_frame(b"any"), label="l")
            with pytest.raises(TransportError, match="endpoint blew up"):
                wire.parse_response(response)
        finally:
            net.close()
        assert any("frame handler raised" in record.getMessage()
                   for record in caplog.records)

    def test_static_route_reaches_endpoint_served_elsewhere(self):
        """A second transport connects via (host, port) only — the
        same split the two-process smoke test exercises."""
        server_side = AsyncTransport()
        client_side = AsyncTransport()
        try:
            server_side.bind("svc://a", EchoEndpoint())
            client_side.add_route("svc://a", "127.0.0.1",
                                  server_side.port_of("svc://a"))
            assert client_side.endpoint_at("svc://a") is None
            assert client_side.has_route("svc://a")
            response = client_side.request(
                "cli://x", "svc://a", wire.make_frame(b"echo", b"remote"),
                label="step")
            assert wire.parse_response(response) == b"remote"
        finally:
            client_side.close()
            server_side.close()

    def test_connection_refused_is_transient(self):
        server = AsyncTransport()
        server.bind("svc://a", EchoEndpoint())
        port = server.port_of("svc://a")
        server.close()
        net = AsyncTransport(connect_timeout_s=2.0)
        try:
            net.add_route("svc://a", "127.0.0.1", port)
            with pytest.raises(TransientTransportError,
                               match="cannot connect"):
                net.notify("c", "svc://a", wire.make_frame(b"echo"),
                           label="l")
        finally:
            net.close()

    def test_reply_record_has_direction_split_timestamps(self):
        """The reply FrameRecord must carry its own times, not a copy
        of the request's — reply latency used to equal the full RTT."""
        net = AsyncTransport()
        try:
            net.bind("svc://a", EchoEndpoint())
            mark = net.mark()
            net.request("cli://x", "svc://a",
                        wire.make_frame(b"echo", b"t"), label="step")
            request, reply = net.records_since(mark)
            assert request.sent_at <= request.arrived_at
            assert reply.sent_at == request.arrived_at
            assert reply.sent_at <= reply.arrived_at
            assert reply.latency <= (reply.arrived_at - request.sent_at)
        finally:
            net.close()

    def test_oversize_frame_answered_with_error_not_silence(self, caplog):
        """A header claiming an absurd length must earn a serialized
        error response, not a dropped connection."""
        net = AsyncTransport()
        try:
            net.bind("svc://a", EchoEndpoint())
            address = ("127.0.0.1", net.port_of("svc://a"))
            with socket_mod.create_connection(address, timeout=5.0) as conn:
                conn.sendall((1 << 31).to_bytes(4, "big") + b"junk")
                response = _recv_blob(conn)
        finally:
            net.close()
        with pytest.raises(TransportError, match="could not read frame"):
            wire.parse_response(response)
        assert any("unreadable frame" in record.getMessage()
                   for record in caplog.records)

    def test_serialized_transient_refusal_retries(self):
        """A remote endpoint's TransientTransportError rides back as a
        serialized error response — the retry template must treat it as
        the refusal it is, exactly like an in-process raise."""

        class RefuseOnce(EchoEndpoint):
            def handle_frame(self, frame: bytes) -> bytes:
                if not self.seen:
                    self.seen.append(frame)
                    return wire.error_response(
                        TransientTransportError("try again"))
                return super().handle_frame(frame)

        net = AsyncTransport()
        net.set_retry_policy(RetryPolicy(max_attempts=3,
                                         attempt_timeout_s=2.0,
                                         base_backoff_s=0.01))
        try:
            net.bind("svc://a", RefuseOnce())
            response = net.request("cli://x", "svc://a",
                                   wire.make_frame(b"echo", b"ok-now"),
                                   label="step")
            assert wire.parse_response(response) == b"ok-now"
        finally:
            net.close()

    def test_unrouted_address_raises(self):
        net = AsyncTransport()
        try:
            with pytest.raises(TransportError):
                net.notify("a", "svc://nowhere", b"frame", label="l")
            with pytest.raises(TransportError):
                net.port_of("svc://nowhere")
        finally:
            net.close()

    def test_closed_transport_refuses_frames(self):
        net = AsyncTransport()
        net.bind("svc://a", EchoEndpoint())
        net.close()
        net.close()  # idempotent
        with pytest.raises(TransportError, match="closed"):
            net.notify("cli://x", "svc://a", wire.make_frame(b"echo"),
                       label="l")


class _SpySocket(socket_mod.socket):
    """A client socket that notes the thread of every write and read."""

    writers: set = set()
    readers: set = set()

    def sendall(self, data, *args):
        self.writers.add(threading.get_ident())
        return super().sendall(data, *args)

    def recv(self, bufsize, *args):
        if not args:  # a peek at an idle connection is no reply read
            self.readers.add(threading.get_ident())
        return super().recv(bufsize, *args)


def _asyncnet_threads() -> list:
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("asyncnet")]


class TestCallerDrivenReads:
    """No event loop: callers write their own frames and read replies
    themselves."""

    def test_lone_caller_writes_and_reads_on_its_own_thread(self,
                                                            monkeypatch):
        create_connection = socket_mod.create_connection

        def spying(address, *args, **kwargs):
            sock = create_connection(address, *args, **kwargs)
            return _SpySocket(fileno=sock.detach())

        monkeypatch.setattr(_SpySocket, "writers", set())
        monkeypatch.setattr(_SpySocket, "readers", set())
        monkeypatch.setattr(socket_mod, "create_connection", spying)
        server_side = AsyncTransport()
        client_side = AsyncTransport()
        try:
            server_side.bind("svc://a", EchoEndpoint())
            client_side.add_route("svc://a", "127.0.0.1",
                                  server_side.port_of("svc://a"))
            for payload in (b"one", b"two"):
                response = client_side.request(
                    "cli://x", "svc://a", wire.make_frame(b"echo", payload),
                    label="step")
                assert wire.parse_response(response) == payload
        finally:
            client_side.close()
            server_side.close()
        caller = threading.get_ident()
        assert _SpySocket.writers == {caller}
        assert _SpySocket.readers == {caller}

    def test_no_event_loop_thread_and_none_left_after_close(self):
        before = set(_asyncnet_threads())
        client_only = AsyncTransport()
        assert set(_asyncnet_threads()) == before
        net = AsyncTransport()
        try:
            net.bind("svc://a", EchoEndpoint())
            client_only.add_route("svc://a", "127.0.0.1",
                                  net.port_of("svc://a"))
            for carrier in (net, client_only):
                carrier.request("cli://x", "svc://a",
                                wire.make_frame(b"echo", b"t"),
                                label="step")
            assert not [thread for thread in _asyncnet_threads()
                        if thread.name == "asyncnet-loop"]
        finally:
            client_only.close()
            net.close()
        assert set(_asyncnet_threads()) <= before


class _StallingServer:
    """Hand-rolled peer: reads ``expect`` frames off one connection,
    then sends half of the first reply and stalls."""

    def __init__(self, expect: int) -> None:
        self.expect = expect
        self.done = threading.Event()
        self._srv = socket_mod.socket()
        self._srv.bind(("127.0.0.1", 0))
        self._srv.listen(1)
        self.port = self._srv.getsockname()[1]
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self) -> None:
        conn, _addr = self._srv.accept()
        with conn, self._srv:
            frame_id, _frame = wire.unwrap_corr(_recv_blob(conn))
            for _ in range(self.expect - 1):
                _recv_blob(conn)
            blob = wire.wrap_corr(frame_id, wire.ok_response(b"x" * 64))
            conn.sendall((len(blob).to_bytes(4, "big") + blob)[:20])
            self.done.wait(20.0)


class TestMidFrameTimeout:
    def test_breaks_the_connection_for_every_pending_caller(self):
        callers = 3
        server = _StallingServer(expect=callers)
        net = AsyncTransport()
        net.set_retry_policy(RetryPolicy(max_attempts=1,
                                         attempt_timeout_s=0.5))
        net.add_route("svc://stall", "127.0.0.1", server.port)
        errors: dict[int, BaseException] = {}

        def call(index: int) -> None:
            try:
                net.request("cli://%d" % index, "svc://stall",
                            wire.make_frame(b"echo", b"p%d" % index),
                            label="step")
            except TransientTransportError as exc:
                errors[index] = exc

        threads = [threading.Thread(target=call, args=(i,))
                   for i in range(callers)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20.0)
            assert not any(thread.is_alive() for thread in threads)
            conn = net._conns["svc://stall"]
        finally:
            server.done.set()
            net.close()
        assert sorted(errors) == list(range(callers))
        assert conn.broken is not None
        assert sum("mid-frame" in str(exc) for exc in errors.values()) >= 1


class TestSocketTuning:
    """Both ends of every connection disable Nagle (small
    write-then-wait frames must not sit out a delayed ACK), and the
    listener allows address reuse (a restarted server rebinds its fixed
    port through TIME_WAIT)."""

    def test_accepted_and_client_connections_get_nodelay(self,
                                                         monkeypatch):
        seen = []
        original = asyncnet._set_nodelay

        def spy(sock):
            original(sock)
            seen.append((sock.getsockname(), sock.getpeername(),
                         sock.getsockopt(socket_mod.IPPROTO_TCP,
                                         socket_mod.TCP_NODELAY)))

        monkeypatch.setattr(asyncnet, "_set_nodelay", spy)
        net = AsyncTransport()
        try:
            net.bind("svc://a", EchoEndpoint())
            net.request("cli://x", "svc://a",
                        wire.make_frame(b"echo", b"t"), label="step")
        finally:
            net.close()
        assert all(nodelay for _local, _peer, nodelay in seen)
        # The client socket and the server's accepted socket are the
        # two ends of one connection, and both were tuned.
        ends = {local for local, _peer, _nodelay in seen}
        assert any(peer in ends for _local, peer, _nodelay in seen)

    def test_server_listener_reuses_address(self):
        net = AsyncTransport()
        try:
            net.bind("svc://a", EchoEndpoint())
            listener = net._listeners[0]
            assert listener.getsockopt(socket_mod.SOL_SOCKET,
                                       socket_mod.SO_REUSEADDR)
        finally:
            net.close()


class TestLegacyInterop:
    def test_blocking_socket_client_reaches_async_server(self):
        """Frame id 0 encodes as the identity bytes, so a plain blocking
        client — one length-prefixed frame out, one reply back, no
        correlation id — can talk to an AsyncTransport server, and the
        reply comes back as plain bytes too."""
        net = AsyncTransport()
        try:
            net.bind("svc://a", EchoEndpoint())
            address = ("127.0.0.1", net.port_of("svc://a"))
            with socket_mod.create_connection(address, timeout=5.0) as conn:
                _send_blob(conn, wire.make_frame(b"echo", b"legacy"))
                response = _recv_blob(conn)
        finally:
            net.close()
        assert not response.startswith(wire.CORR_MAGIC)
        assert wire.parse_response(response) == b"legacy"

    def test_wrapped_frame_is_opaque_to_a_legacy_endpoint(self):
        """The reverse pairing is intentionally unsupported: a mux
        client's nonzero correlation id reaches a legacy endpoint as
        opaque leading bytes, which its frame parser rejects — the
        upgrade order is servers first, exactly like any versioned
        envelope."""
        blob = wire.wrap_corr(7, wire.make_frame(b"echo", b"x"))
        with pytest.raises(ParameterError):
            wire.parse_frame(blob)


class _ReorderingServer:
    """Hand-rolled peer: reads ``expect`` frames off one connection,
    then answers them in *reverse* arrival order — the worst case for
    response correlation."""

    def __init__(self, expect: int) -> None:
        self.expect = expect
        self._srv = socket_mod.socket()
        self._srv.bind(("127.0.0.1", 0))
        self._srv.listen(1)
        self.port = self._srv.getsockname()[1]
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self) -> None:
        conn, _addr = self._srv.accept()
        with conn, self._srv:
            batch: list[tuple[int, bytes]] = []
            for _ in range(self.expect):
                frame_id, frame = wire.unwrap_corr(_recv_blob(conn))
                _opcode, fields = wire.parse_frame(frame)
                batch.append((frame_id,
                              wire.ok_response(b"echo:" + fields[0])))
            for frame_id, response in reversed(batch):
                _send_blob(conn, wire.wrap_corr(frame_id, response))


class TestOutOfOrderCorrelation:
    def test_each_caller_gets_its_own_payload(self):
        callers = 6
        server = _ReorderingServer(expect=callers)
        net = AsyncTransport()
        net.add_route("svc://reorder", "127.0.0.1", server.port)
        results: dict[int, bytes] = {}
        errors: list[BaseException] = []

        def call(index: int) -> None:
            try:
                response = net.request(
                    "cli://%d" % index, "svc://reorder",
                    wire.make_frame(b"echo", b"p%d" % index),
                    label="step-%d" % index)
                results[index] = wire.parse_response(response)
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        threads = [threading.Thread(target=call, args=(i,))
                   for i in range(callers)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20.0)
            server.thread.join(timeout=20.0)
            peak = net.peak_in_flight()
        finally:
            net.close()
        assert not errors
        # The acid test: responses came back in reverse order, yet every
        # caller was handed exactly its own payload.
        assert results == {i: b"echo:p%d" % i for i in range(callers)}
        assert peak == callers


class TestBackpressure:
    def test_pending_window_blocks_at_the_bound(self):
        window = 2
        endpoint = GateEndpoint()
        net = AsyncTransport(window=window)
        results: dict[int, bytes] = {}

        def call(index: int) -> None:
            response = net.request("cli://%d" % index, "svc://gate",
                                   wire.make_frame(b"op", b"p%d" % index),
                                   label="step")
            results[index] = wire.parse_response(response)

        threads = [threading.Thread(target=call, args=(i,))
                   for i in range(5)]
        try:
            net.bind("svc://gate", endpoint)
            for thread in threads:
                thread.start()
            deadline = time.time() + 10.0
            while len(endpoint.entered) < window and time.time() < deadline:
                time.sleep(0.01)
            # Both window slots are inside handlers (concurrent entry);
            # the remaining callers are parked in the client-side window,
            # so no further frame reaches the server.
            time.sleep(0.2)
            assert len(endpoint.entered) == window
        finally:
            endpoint.release.set()
            for thread in threads:
                thread.join(timeout=20.0)
            peak = net.peak_in_flight()
            net.close()
        assert results == {i: b"p%d" % i for i in range(5)}
        assert peak == window


    def test_parked_callers_are_admitted_in_arrival_order(self):
        endpoint = GateEndpoint()
        net = AsyncTransport(window=1)
        results: dict[int, bytes] = {}

        def call(index: int) -> None:
            response = net.request("cli://%d" % index, "svc://gate",
                                   wire.make_frame(b"op", b"p%d" % index),
                                   label="step")
            results[index] = wire.parse_response(response)

        def wait_for(condition) -> None:
            deadline = time.time() + 10.0
            while not condition() and time.time() < deadline:
                time.sleep(0.005)
            assert condition()

        threads = [threading.Thread(target=call, args=(i,))
                   for i in range(5)]
        try:
            net.bind("svc://gate", endpoint)
            threads[0].start()
            wait_for(lambda: endpoint.entered == [b"p0"])
            conn = net._conns["svc://gate"]
            for index in range(1, 5):
                threads[index].start()
                wait_for(lambda: len(conn._parked) == index)
        finally:
            endpoint.release.set()
            for thread in threads:
                thread.join(timeout=20.0)
            net.close()
        assert not any(thread.is_alive() for thread in threads)
        assert endpoint.entered == [b"p%d" % i for i in range(5)]
        assert results == {i: b"p%d" % i for i in range(5)}


class TestConnectionReuse:
    """A cached connection is checked before reuse: a route moved by
    ``add_route`` or a peer that hung up means a new connection."""

    def _served(self, port: int = 0):
        server, endpoint = AsyncTransport(), EchoEndpoint()
        server.bind("svc://a", endpoint, port=port)
        return server, endpoint

    def _echo(self, client, payload: bytes) -> bytes:
        return wire.parse_response(client.request(
            "cli://x", "svc://a", wire.make_frame(b"echo", payload),
            label="step"))

    def test_request_after_peer_restart_on_new_port(self):
        old, _ = self._served()
        client = AsyncTransport()
        new = None
        try:
            client.add_route("svc://a", "127.0.0.1", old.port_of("svc://a"))
            assert self._echo(client, b"before") == b"before"
            old.close()
            new, endpoint = self._served()
            client.add_route("svc://a", "127.0.0.1", new.port_of("svc://a"))
            # One attempt, no retry policy: the first request must land.
            assert self._echo(client, b"after") == b"after"
            assert endpoint.seen == [wire.make_frame(b"echo", b"after")]
        finally:
            client.close()
            if new is not None:
                new.close()

    def test_add_route_moves_an_idle_connection_to_a_live_peer(self):
        old, old_endpoint = self._served()
        new, new_endpoint = self._served()
        client = AsyncTransport()
        try:
            client.add_route("svc://a", "127.0.0.1", old.port_of("svc://a"))
            self._echo(client, b"first")
            client.add_route("svc://a", "127.0.0.1", new.port_of("svc://a"))
            self._echo(client, b"second")
        finally:
            client.close()
            old.close()
            new.close()
        assert [f for f in old_endpoint.seen] == [
            wire.make_frame(b"echo", b"first")]
        assert new_endpoint.seen == [wire.make_frame(b"echo", b"second")]

    def test_peer_restarted_on_the_same_port(self):
        old, _ = self._served()
        port = old.port_of("svc://a")
        client = AsyncTransport()
        new = None
        try:
            client.add_route("svc://a", "127.0.0.1", port)
            self._echo(client, b"before")
            old.close()
            new, _ = self._served(port=port)
            assert self._echo(client, b"after") == b"after"
        finally:
            client.close()
            if new is not None:
                new.close()


class TestStress:
    def test_many_callers_hand_the_reading_role_around(self):
        """More callers than cores and than window slots, with a short
        switch interval: every caller must get exactly its own replies,
        and the window must never be exceeded."""
        import sys

        callers, rounds, window = 16, 40, 4
        server, net = AsyncTransport(), AsyncTransport(window=window)
        errors: list[BaseException] = []

        def call(index: int) -> None:
            try:
                for n in range(rounds):
                    payload = b"c%d-r%d" % (index, n)
                    response = net.request(
                        "cli://%d" % index, "svc://a",
                        wire.make_frame(b"echo", payload), label="step")
                    if wire.parse_response(response) != payload:
                        raise AssertionError("caller %d got %r"
                                             % (index, response))
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        threads = [threading.Thread(target=call, args=(i,))
                   for i in range(callers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            server.bind("svc://a", EchoEndpoint())
            net.add_route("svc://a", "127.0.0.1", server.port_of("svc://a"))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            peak = net.peak_in_flight()
        finally:
            sys.setswitchinterval(interval)
            net.close()
            server.close()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert 2 <= peak <= window


class TestGracefulDrain:
    def test_close_answers_in_flight_frames(self):
        """Frames already pipelined when close() starts still get their
        responses before the connection dies."""
        endpoint = GateEndpoint()
        net = AsyncTransport(drain_timeout_s=10.0)
        results: dict[int, bytes] = {}

        def call(index: int) -> None:
            response = net.request("cli://%d" % index, "svc://gate",
                                   wire.make_frame(b"op", b"p%d" % index),
                                   label="step")
            results[index] = wire.parse_response(response)

        threads = [threading.Thread(target=call, args=(i,))
                   for i in range(3)]
        net.bind("svc://gate", endpoint)
        for thread in threads:
            thread.start()
        deadline = time.time() + 10.0
        while len(endpoint.entered) < 3 and time.time() < deadline:
            time.sleep(0.01)
        assert len(endpoint.entered) == 3

        closer = threading.Thread(target=net.close)
        closer.start()
        time.sleep(0.1)     # close() is now draining
        endpoint.release.set()
        closer.join(timeout=20.0)
        for thread in threads:
            thread.join(timeout=20.0)
        assert not closer.is_alive()
        assert not any(thread.is_alive() for thread in threads)
        assert results == {i: b"p%d" % i for i in range(3)}

    def test_close_refuses_new_connections(self):
        net = AsyncTransport()
        net.bind("svc://a", EchoEndpoint())
        port = net.port_of("svc://a")
        net.close()
        with pytest.raises(ConnectionRefusedError):
            socket_mod.create_connection(("127.0.0.1", port), timeout=2.0)


class _CountingEndpoint(Endpoint):
    """Dispatch endpoint whose handlers measure their own concurrency."""

    MUTATING_OPS = frozenset({b"write"})

    def __init__(self) -> None:
        super().__init__()
        self._gauge_lock = threading.Lock()
        self._in_read = 0
        self._in_write = 0
        self.peak_reads = 0
        self.peak_writes = 0
        self._ops[b"read"] = self._op_read
        self._ops[b"write"] = self._op_write

    def _enter(self, attr: str, peak: str) -> None:
        with self._gauge_lock:
            value = getattr(self, attr) + 1
            setattr(self, attr, value)
            setattr(self, peak, max(getattr(self, peak), value))

    def _exit(self, attr: str) -> None:
        with self._gauge_lock:
            setattr(self, attr, getattr(self, attr) - 1)

    def _op_read(self, fields: list[bytes]) -> bytes:
        self._enter("_in_read", "peak_reads")
        try:
            time.sleep(0.05)
            return fields[0]
        finally:
            self._exit("_in_read")

    def _op_write(self, fields: list[bytes]) -> bytes:
        self._enter("_in_write", "peak_writes")
        try:
            time.sleep(0.02)
            return fields[0]
        finally:
            self._exit("_in_write")


class TestDispatchReentrancy:
    def test_reads_concurrent_writes_single_writer(self):
        """The Endpoint contract under pipelined dispatch: read opcodes
        overlap, mutating opcodes never do."""
        endpoint = _CountingEndpoint()
        net = AsyncTransport(handler_threads=8)
        errors: list[BaseException] = []

        def call(opcode: bytes, index: int) -> None:
            try:
                response = net.request(
                    "cli://%d" % index, "svc://count",
                    wire.make_frame(opcode, b"p%d" % index), label="step")
                assert wire.parse_response(response) == b"p%d" % index
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        threads = ([threading.Thread(target=call, args=(b"read", i))
                    for i in range(6)]
                   + [threading.Thread(target=call, args=(b"write", i))
                      for i in range(6, 12)])
        try:
            net.bind("svc://count", endpoint)
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            net.close()
        assert not errors
        assert endpoint.peak_reads >= 2, "reads never overlapped"
        assert endpoint.peak_writes == 1, "two writers entered at once"
