"""In-process transport: direct dispatch, no simulated network.

The reference backend for parity testing — frames still serialize and
route through :meth:`handle_frame`, but delivery is a function call.  A
synthetic clock tick per record keeps envelope timestamps strictly
increasing (two seals of an identical payload must never collide in a
replay guard) while staying far inside the freshness window.  The tick
is 1 ms, the quantum of sealed timestamps: a finer one rounds away.
"""

from __future__ import annotations

from repro.net.transport.base import FrameRecord, Transport

_TICK_S = 1e-3


class LoopbackTransport(Transport):
    """Direct in-process frame dispatch with full accounting."""

    def __init__(self) -> None:
        self._endpoints: dict[str, object] = {}
        self._log: list[FrameRecord] = []
        self._now = 0.0

    # -- endpoint hosting ---------------------------------------------------
    def bind(self, address: str, endpoint) -> None:
        self._endpoints[address] = endpoint
        self._attach(endpoint)

    def endpoint_at(self, address: str):
        return self._endpoints.get(address)

    def has_route(self, address: str) -> bool:
        return address in self._endpoints

    # -- clock + accounting -------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    def mark(self) -> int:
        return len(self._log)

    def records_since(self, mark: int) -> list:
        return self._log[mark:]

    def _record(self, src: str, dst: str, label: str, nbytes: int) -> None:
        sent_at = self._now
        self._now += _TICK_S
        self._log.append(FrameRecord(src=src, dst=dst, label=label,
                                     nbytes=nbytes, sent_at=sent_at,
                                     arrived_at=self._now))

    def _wait(self, seconds: float) -> None:
        if seconds > 0:
            self._now += seconds

    # -- carrying frames ----------------------------------------------------
    def _dispatch(self, dst: str, frame: bytes) -> bytes:
        endpoint = self._endpoints.get(dst)
        if endpoint is None:
            raise self._no_endpoint(dst)
        return endpoint.handle_frame(frame)

    def _carry_frame(self, src: str, dst: str, frame: bytes, label: str,
                     reply_label: str, bill_reply: bool) -> bytes:
        self._record(src, dst, label, len(frame))
        response = self._dispatch(dst, frame)
        if bill_reply:
            self._record(dst, src, reply_label, len(response))
        return response

    def deliver(self, src: str, dst: str, nbytes: int, label: str) -> None:
        self._record(src, dst, label, nbytes)
