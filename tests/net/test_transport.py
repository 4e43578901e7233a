"""Unit tests for the wire codec and the transport backends.

The TCP backend's mux, routing and failure semantics have their own
suite in ``tests/net/test_async.py``; here it is held to the same
record and error contract as the loopback.
"""

from __future__ import annotations

import pytest

from repro.core import wire
from repro.net.transport import (AsyncTransport, FrameRecord,
                                 LoopbackTransport)
from repro.exceptions import AccessDenied, ParameterError, TransportError


class EchoEndpoint:
    """Minimal dispatch surface: echoes fields, or raises on demand."""

    def __init__(self) -> None:
        self.seen: list[bytes] = []
        self.transport = None

    def attach(self, transport) -> None:
        self.transport = transport

    def handle_frame(self, frame: bytes) -> bytes:
        self.seen.append(frame)
        opcode, fields = wire.parse_frame(frame)
        if opcode == b"boom":
            return wire.error_response(AccessDenied("no such privilege"))
        if opcode == b"crash":
            return wire.error_response(RuntimeError("internal"))
        return wire.ok_response(b"".join(fields))


class TestWireCodec:
    def test_frame_round_trip(self):
        frame = wire.make_frame(b"op", b"alpha", b"", b"\x00" * 7)
        opcode, fields = wire.parse_frame(frame)
        assert opcode == b"op"
        assert fields == [b"alpha", b"", b"\x00" * 7]

    def test_empty_frame_rejected(self):
        with pytest.raises(ParameterError):
            wire.parse_frame(b"")

    def test_ok_response_round_trip(self):
        assert wire.parse_response(wire.ok_response(b"payload")) == b"payload"

    def test_error_response_reraises_same_class(self):
        response = wire.error_response(AccessDenied("no such privilege"))
        with pytest.raises(AccessDenied, match="no such privilege"):
            wire.parse_response(response)

    def test_unknown_exception_degrades_to_transport_error(self):
        response = wire.error_response(RuntimeError("internal"))
        with pytest.raises(TransportError, match="internal"):
            wire.parse_response(response)

    def test_empty_response_rejected(self):
        with pytest.raises(TransportError):
            wire.parse_response(b"")

    def test_timestamp_round_trip_is_exact(self):
        for ts in (0.0, 0.001, 1234.567, 1.7e9 + 0.123):
            assert wire.ts_from_bytes(wire.ts_to_bytes(ts)) == pytest.approx(
                ts, abs=5e-4)
            # float -> bytes -> float -> bytes is a fixed point
            again = wire.ts_from_bytes(wire.ts_to_bytes(ts))
            assert wire.ts_to_bytes(again) == wire.ts_to_bytes(ts)

    def test_files_codec_round_trip(self):
        files = {b"f" * 16: b"ciphertext-1", b"g" * 16: b""}
        assert wire.decode_files(wire.encode_files(files)) == files

    def test_files_entry_shorter_than_fid_rejected(self):
        from repro.core.protocols.messages import pack_fields
        with pytest.raises(ParameterError):
            wire.decode_files(pack_fields(b"short"))


class TestLoopbackTransport:
    def test_request_logs_request_and_reply(self):
        transport = LoopbackTransport()
        endpoint = EchoEndpoint()
        transport.bind("svc://a", endpoint)
        mark = transport.mark()
        frame = wire.make_frame(b"echo", b"hi")
        response = transport.request("cli://x", "svc://a", frame,
                                     label="step", reply_label="step-reply")
        assert wire.parse_response(response) == b"hi"
        records = transport.records_since(mark)
        assert [(r.src, r.dst, r.label) for r in records] == [
            ("cli://x", "svc://a", "step"),
            ("svc://a", "cli://x", "step-reply")]
        assert records[0].nbytes == len(frame)
        assert records[1].nbytes == len(response)

    def test_notify_logs_one_record_but_returns_response(self):
        transport = LoopbackTransport()
        transport.bind("svc://a", EchoEndpoint())
        mark = transport.mark()
        response = transport.notify("cli://x", "svc://a",
                                    wire.make_frame(b"echo", b"x"),
                                    label="push")
        assert wire.parse_response(response) == b"x"
        assert len(transport.records_since(mark)) == 1

    def test_deliver_logs_bytes_only(self):
        transport = LoopbackTransport()
        mark = transport.mark()
        transport.deliver("a", "b", 123, label="physical")
        (record,) = transport.records_since(mark)
        assert record.nbytes == 123
        assert record.label == "physical"

    def test_clock_strictly_advances_per_record(self):
        transport = LoopbackTransport()
        transport.bind("svc://a", EchoEndpoint())
        t0 = transport.now
        transport.notify("c", "svc://a", wire.make_frame(b"echo"), label="l")
        assert transport.now > t0

    def test_identical_seals_in_a_row_do_not_collide(self):
        """Each family retrieval seals the same request payloads; one
        clock tick per record must move every seal to a new millisecond,
        or the third retrieval is refused as a replay."""
        from repro.core.protocols.emergency import family_based_retrieval
        from repro.core.protocols.privilege import assign_privilege
        from repro.core.protocols.storage import private_phi_storage
        from repro.core.system import build_system
        from repro.ehr.records import Category
        system = build_system(seed=b"loopback-tick")
        transport = LoopbackTransport()
        patient, server = system.patient, system.sserver
        patient.add_record(Category.CARDIOLOGY, ["cardiology"], "Prior MI.",
                           server.address)
        private_phi_storage(patient, server, transport)
        assign_privilege(patient, system.family, server, transport)
        for _ in range(3):
            result = family_based_retrieval(system.family, server,
                                            transport, ["cardiology"])
            assert [f.medical_content for f in result.files] == ["Prior MI."]

    def test_unbound_address_raises(self):
        transport = LoopbackTransport()
        with pytest.raises(TransportError):
            transport.request("a", "svc://nowhere", b"frame", label="l")

    def test_bind_attaches_endpoint(self):
        transport = LoopbackTransport()
        endpoint = EchoEndpoint()
        transport.bind("svc://a", endpoint)
        assert endpoint.transport is transport
        assert transport.endpoint_at("svc://a") is endpoint
        assert transport.has_route("svc://a")


class TestSocketTransport:
    """AsyncTransport, the one real-socket backend, through the same
    calls the loopback tests above make."""

    def test_round_trip_over_real_tcp(self):
        transport = AsyncTransport()
        try:
            transport.bind("svc://a", EchoEndpoint())
            mark = transport.mark()
            frame = wire.make_frame(b"echo", b"tcp-bytes")
            response = transport.request("cli://x", "svc://a", frame,
                                         label="step",
                                         reply_label="step-reply")
            assert wire.parse_response(response) == b"tcp-bytes"
            records = transport.records_since(mark)
        finally:
            transport.close()
        # Records bill the logical frame, not the length prefix or the
        # correlation-id envelope the socket carries.
        assert [(r.src, r.dst, r.label, r.nbytes) for r in records] == [
            ("cli://x", "svc://a", "step", len(frame)),
            ("svc://a", "cli://x", "step-reply", len(response))]

    def test_server_errors_cross_the_socket(self):
        transport = AsyncTransport()
        try:
            transport.bind("svc://a", EchoEndpoint())
            denied = transport.notify("cli://x", "svc://a",
                                      wire.make_frame(b"boom"), label="l")
            crashed = transport.notify("cli://x", "svc://a",
                                       wire.make_frame(b"crash"), label="l")
        finally:
            transport.close()
        with pytest.raises(AccessDenied):
            wire.parse_response(denied)
        # A class the codec does not know still arrives typed.
        with pytest.raises(TransportError, match="internal"):
            wire.parse_response(crashed)

    def test_unrouted_address_raises(self):
        transport = AsyncTransport()
        try:
            assert not transport.has_route("svc://nowhere")
            assert transport.endpoint_at("svc://nowhere") is None
            with pytest.raises(TransportError):
                transport.request("a", "svc://nowhere", b"frame", label="l")
        finally:
            transport.close()

    def test_handler_exception_returns_error_response(self):
        """An endpoint that *raises* (instead of returning an error
        response) must not kill the connection: the client gets a typed
        error frame back, and the next frame is served."""

        class ExplodesOnce(EchoEndpoint):
            def handle_frame(self, frame: bytes) -> bytes:
                if not self.seen:
                    self.seen.append(frame)
                    raise RuntimeError("endpoint blew up")
                return super().handle_frame(frame)

        transport = AsyncTransport()
        try:
            transport.bind("svc://a", ExplodesOnce())
            first = transport.notify("cli://x", "svc://a",
                                     wire.make_frame(b"any"), label="l")
            second = transport.notify("cli://x", "svc://a",
                                      wire.make_frame(b"echo", b"alive"),
                                      label="l")
        finally:
            transport.close()
        with pytest.raises(TransportError, match="endpoint blew up"):
            wire.parse_response(first)
        assert wire.parse_response(second) == b"alive"


class TestFrameRecord:
    def test_latency_property(self):
        record = FrameRecord(src="a", dst="b", label="l", nbytes=1,
                             sent_at=1.0, arrived_at=1.5)
        assert record.latency == pytest.approx(0.5)
