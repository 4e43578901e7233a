"""Async multiplexed TCP transport: pipelined frames, one connection.

:class:`AsyncTransport` keeps a *persistent multiplexed connection* per
destination and pipelines frames over it: every outbound frame carries a
correlation id (:func:`repro.core.wire.wrap_corr`), responses come back
in whatever order the server finishes them, and a reader task matches
each one to its caller by id.  Callers stay plain blocking threads — the
event loop runs on a private daemon thread and ``_carry_frame`` bridges
into it with ``run_coroutine_threadsafe`` — so all six protocols run
unchanged, and the :class:`~repro.net.transport.faults.RetryPolicy` /
:class:`~repro.net.transport.faults.FaultPolicy` template methods in the
transport base class compose exactly as they do on the in-process
backends.  ``routes={address: (host, port)}`` or :meth:`add_route`
points an address at an endpoint served by *another* process — the
two-process smoke test in ``tools/socket_smoke.py`` drives that split.

Frames travel with a 4-byte big-endian length prefix (64 MB cap).
Refused/reset/timed-out connections surface as
:class:`~repro.exceptions.TransientTransportError` (retryable), other
socket errors as :class:`~repro.exceptions.TransportError`.  The server
never answers a broken exchange with silence: an unreadable or oversize
frame, and any exception escaping the frame handler, is logged and
answered with a serialized error response.

Flow control is explicit on both sides of the wire:

* **client**: a per-connection window (``window``) bounds the pending
  frames in flight; the window-full caller blocks until a response
  frees a slot (backpressure, not unbounded queueing);
* **server**: a per-connection semaphore (``server_window``) stops
  *reading* a connection whose handlers have fallen behind, so a fast
  sender cannot balloon server memory.

Server handlers execute on a thread pool, which is what makes dispatch
entry genuinely concurrent — the endpoints' reentrancy contract
(mutating opcodes single-writer, read opcodes concurrent; see
``docs/architecture.md``) is exercised by every pipelined run.

Wire compatibility: frame id 0 encodes as the identity bytes, so a
plain length-prefixed client that sends one frame and waits for the
reply can talk to an :class:`AsyncTransport` server (plain frame in,
plain response out).  Billing counts the logical frame bytes only, so
every protocol's accounting matches the in-process backends byte for
byte — the transport parity suite pins this.

``close()`` drains gracefully: new connections are refused, in-flight
frames get their responses (bounded by ``drain_timeout_s``), then the
connections, loop, and handler pool are torn down.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import logging
import socket
import threading
import time

from repro.core import wire
from repro.net.transport.base import FrameRecord, Transport
from repro.exceptions import TransientTransportError, TransportError

__all__ = ["AsyncTransport"]

_LEN_BYTES = 4
_MAX_FRAME = 64 * 1024 * 1024
_DEFAULT_WINDOW = 64
_DEFAULT_SERVER_WINDOW = 128
_DEFAULT_HANDLER_THREADS = 8
_DEFAULT_DRAIN_TIMEOUT_S = 5.0

_LOG = logging.getLogger("repro.net.transport.asyncnet")

# OSErrors that a healthy peer may heal from on its own.
_TRANSIENT_OS_ERRORS = (ConnectionRefusedError, ConnectionResetError,
                        ConnectionAbortedError, BrokenPipeError,
                        TimeoutError)


async def _read_blob(reader: asyncio.StreamReader) -> bytes | None:
    """One length-prefixed blob; None on a clean EOF between frames."""
    try:
        header = await reader.readexactly(_LEN_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise TransientTransportError("connection closed mid-frame")
    length = int.from_bytes(header, "big")
    if length > _MAX_FRAME:
        raise TransportError("frame length %d exceeds limit" % length)
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise TransientTransportError("connection closed mid-frame")


def _write_blob(writer: asyncio.StreamWriter, blob: bytes) -> None:
    writer.write(len(blob).to_bytes(_LEN_BYTES, "big") + blob)


def _set_nodelay(writer: asyncio.StreamWriter) -> None:
    sock = writer.get_extra_info("socket")
    if sock is not None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP test doubles
            pass


class _MuxConnection:
    """One multiplexed client connection: id allocation, the pending
    id → future map, the bounded in-flight window, and the reader task
    that resolves responses out of order.

    Every attribute is touched only from coroutines on the owning
    transport's event loop — single-threaded by construction.
    """

    # Loop-affine: all state below is mutated only on the event loop
    # thread; cross-thread callers go through run_coroutine_threadsafe.

    def __init__(self, loop: asyncio.AbstractEventLoop, dst: str,
                 reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, window: int) -> None:
        self._loop = loop
        self.dst = dst
        self.reader = reader
        self.writer = writer
        self._pending: dict[int, asyncio.Future] = {}
        self._window = asyncio.Semaphore(window)
        self._write_lock = asyncio.Lock()
        self._counter = 0
        self.broken: BaseException | None = None
        self.closing = False
        #: High-water mark of frames awaiting a response (tests and the
        #: pipelined smoke assert real multiplexing happened).
        self.peak_in_flight = 0
        self._reader_task = loop.create_task(self._read_loop())

    def _next_id(self) -> int:
        while True:
            self._counter = self._counter % wire.MAX_CORR_ID + 1
            if self._counter not in self._pending:
                return self._counter

    async def roundtrip(self, frame: bytes,
                        timeout_s: float) -> tuple[bytes, float]:
        """Pipeline one frame; block (in the window) when the bound is
        reached; return (response, request-write-completion time)."""
        if self.broken is not None or self.closing:
            raise TransientTransportError(
                "connection to %r is %s" % (self.dst,
                                            "closing" if self.closing
                                            else "broken"))
        async with self._window:
            if self.broken is not None or self.closing:
                raise TransientTransportError(
                    "connection to %r went away under a queued frame"
                    % self.dst)
            frame_id = self._next_id()
            future = self._loop.create_future()
            self._pending[frame_id] = future
            self.peak_in_flight = max(self.peak_in_flight,
                                      len(self._pending))
            try:
                async with self._write_lock:
                    _write_blob(self.writer, wire.wrap_corr(frame_id, frame))
                    await self.writer.drain()
                request_done = time.time()
                # A call_later timer instead of asyncio.wait_for: wait_for
                # wraps the await in a fresh task per frame, which at
                # pipelined throughput is measurable scheduler overhead.
                timer = self._loop.call_later(timeout_s, self._expire,
                                              frame_id)
                try:
                    response = await future
                finally:
                    timer.cancel()
                return response, request_done
            finally:
                self._pending.pop(frame_id, None)

    def _expire(self, frame_id: int) -> None:
        future = self._pending.get(frame_id)
        if future is not None and not future.done():
            future.set_exception(asyncio.TimeoutError())

    async def _read_loop(self) -> None:
        try:
            while True:
                blob = await _read_blob(self.reader)
                if blob is None:
                    raise TransientTransportError(
                        "connection to %r closed by peer" % self.dst)
                frame_id, response = wire.unwrap_corr(blob)
                future = self._pending.get(frame_id)
                if future is not None and not future.done():
                    future.set_result(response)
                # An unknown id is a response whose caller already timed
                # out and retried on a fresh id: drop it.
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            self._break(exc)

    def _break(self, exc: BaseException) -> None:
        self.broken = exc
        failure = TransientTransportError(
            "connection to %r broke with pipelined frames in flight: %s"
            % (self.dst, exc))
        for future in self._pending.values():
            if not future.done():
                future.set_exception(failure)
        self.writer.close()

    async def aclose(self, drain_timeout_s: float) -> None:
        """Graceful drain: stop accepting frames, wait (bounded) for
        in-flight responses, then tear the connection down."""
        self.closing = True
        pending = [f for f in self._pending.values() if not f.done()]
        if pending:
            await asyncio.wait(pending, timeout=drain_timeout_s)
        self._break(TransientTransportError(
            "connection to %r closed" % self.dst))
        self._reader_task.cancel()
        try:
            await self.writer.wait_closed()
        except (OSError, asyncio.CancelledError):  # pragma: no cover
            pass


class AsyncTransport(Transport):
    """Frames pipelined over persistent multiplexed TCP connections."""

    #: Concurrent requests to one destination share a mux connection and
    #: genuinely pipeline — scatter-gather callers may fan out threads.
    CONCURRENT_REQUESTS = True

    def __init__(self, routes: dict[str, tuple[str, int]] | None = None,
                 host: str = "127.0.0.1",
                 window: int = _DEFAULT_WINDOW,
                 server_window: int = _DEFAULT_SERVER_WINDOW,
                 handler_threads: int = _DEFAULT_HANDLER_THREADS,
                 connect_timeout_s: float = 10.0,
                 connect_retries: int = 0,
                 connect_retry_delay_s: float = 0.2,
                 drain_timeout_s: float = _DEFAULT_DRAIN_TIMEOUT_S) -> None:
        self._routes: dict[str, tuple[str, int]] = dict(routes or {})
        self._endpoints: dict[str, object] = {}
        self._servers: list[asyncio.AbstractServer] = []
        self._host = host
        self._window_size = max(1, window)
        self._server_window = max(1, server_window)
        self._timeout = connect_timeout_s
        self._connect_retries = connect_retries
        self._connect_retry_delay_s = connect_retry_delay_s
        self._drain_timeout_s = drain_timeout_s
        self._log: list[FrameRecord] = []
        self._lock = threading.Lock()
        # Loop-affine state: created here, then touched only from
        # coroutines running on the loop thread.
        self._conns: dict[str, _MuxConnection] = {}
        self._conn_locks: dict[str, asyncio.Lock] = {}
        self._conn_tasks: set[asyncio.Task] = set()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(2, handler_threads),
            thread_name_prefix="asyncnet-handler")
        self._loop: asyncio.AbstractEventLoop | None = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run_loop,
                                        name="asyncnet-loop", daemon=True)
        self._thread.start()

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def _call(self, coro):
        """Run a coroutine on the loop thread; block for its result."""
        loop = self._loop
        if loop is None or not loop.is_running():
            coro.close()
            raise TransportError("async transport is closed")
        if threading.get_ident() == self._thread.ident:
            coro.close()
            raise TransportError(
                "blocking transport call issued from the event-loop "
                "thread would deadlock; handlers run on the pool")
        future = asyncio.run_coroutine_threadsafe(coro, loop)
        try:
            return future.result()
        except concurrent.futures.CancelledError:
            raise TransientTransportError(
                "transport closed with the frame in flight") from None

    # -- endpoint hosting ---------------------------------------------------
    def bind(self, address: str, endpoint, port: int = 0) -> None:
        """Serve ``endpoint`` on ``port`` (0 = ephemeral)."""
        server = self._call(self._start_server(endpoint, port))
        bound = server.sockets[0].getsockname()
        self._routes[address] = (bound[0], bound[1])
        self._endpoints[address] = endpoint
        self._attach(endpoint)

    async def _start_server(self, endpoint, port: int):
        # Loop-affine: the server table is owned by the loop thread —
        # servers are registered here and drained in _shutdown.
        server = await asyncio.start_server(
            lambda reader, writer: self._serve_connection(endpoint, reader,
                                                          writer),
            host=self._host, port=port)
        self._servers.append(server)
        return server

    def endpoint_at(self, address: str):
        return self._endpoints.get(address)

    def has_route(self, address: str) -> bool:
        return address in self._routes

    def add_route(self, address: str, host: str, port: int) -> None:
        """Point an address at an endpoint served by another process."""
        self._routes[address] = (host, port)

    def port_of(self, address: str) -> int:
        route = self._routes.get(address)
        if route is None:
            raise TransportError("no route to %r" % address)
        return route[1]

    def peak_in_flight(self) -> int:
        """Highest number of pipelined frames any connection held at
        once (1 on strictly serial traffic)."""
        return max((conn.peak_in_flight
                    for conn in list(self._conns.values())), default=0)

    # -- the server side ----------------------------------------------------
    async def _serve_connection(self, endpoint, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        _set_nodelay(writer)
        write_lock = asyncio.Lock()
        slots = asyncio.Semaphore(self._server_window)
        frame_tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    blob = await _read_blob(reader)
                except (TransportError, OSError) as exc:
                    # Never answer a broken exchange with silence.
                    _LOG.warning("unreadable frame from %s: %s",
                                 writer.get_extra_info("peername"), exc)
                    await self._write_reply(
                        writer, write_lock, 0, wire.error_response(
                            TransportError("server could not read frame: "
                                           "%s" % exc)))
                    break
                if blob is None:
                    break
                # Server-side backpressure: when `server_window` frames
                # from this connection are still being handled, stop
                # reading (TCP then pushes back on the sender).
                await slots.acquire()
                frame_task = asyncio.get_running_loop().create_task(
                    self._serve_frame(endpoint, blob, writer, write_lock,
                                      slots))
                frame_tasks.add(frame_task)
                frame_task.add_done_callback(frame_tasks.discard)
        except asyncio.CancelledError:
            pass
        finally:
            if frame_tasks:
                # Graceful drain: every frame already read gets its
                # response before the connection dies.
                await asyncio.gather(*frame_tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:  # pragma: no cover - peer already gone
                pass
            self._conn_tasks.discard(task)

    async def _serve_frame(self, endpoint, blob, writer, write_lock,
                           slots) -> None:
        try:
            try:
                frame_id, frame = wire.unwrap_corr(blob)
            except TransportError as exc:
                frame_id, response = 0, wire.error_response(exc)
            else:
                try:
                    # The thread pool is what makes handler entry
                    # concurrent: pipelined frames dispatch in parallel
                    # and may answer out of order.
                    response = await asyncio.get_running_loop().run_in_executor(
                        self._executor, endpoint.handle_frame, frame)
                except Exception as exc:
                    _LOG.warning("frame handler raised for %s: %s",
                                 writer.get_extra_info("peername"), exc)
                    response = wire.error_response(exc)
            await self._write_reply(writer, write_lock, frame_id, response)
        except OSError:  # pragma: no cover - client already gone
            pass
        finally:
            slots.release()

    async def _write_reply(self, writer, write_lock, frame_id: int,
                           response: bytes) -> None:
        async with write_lock:
            _write_blob(writer, wire.wrap_corr(frame_id, response))
            await writer.drain()

    # -- the client side ----------------------------------------------------
    async def _get_connection(self, dst: str) -> _MuxConnection:
        conn = self._conns.get(dst)
        if conn is not None and conn.broken is None and not conn.closing:
            return conn
        lock = self._conn_locks.setdefault(dst, asyncio.Lock())
        async with lock:
            conn = self._conns.get(dst)
            if conn is not None and conn.broken is None and not conn.closing:
                return conn
            route = self._routes.get(dst)
            if route is None:
                raise self._no_endpoint(dst)
            reader, writer = await self._open(dst, route)
            conn = _MuxConnection(asyncio.get_running_loop(), dst, reader,
                                  writer, self._window_size)
            self._conns[dst] = conn
            return conn

    async def _open(self, dst: str, route: tuple[str, int]):
        """Connect, retrying refusals a bounded number of times (a peer
        process may still be binding its port)."""
        last: BaseException | None = None
        for attempt in range(self._connect_retries + 1):
            if attempt:
                await asyncio.sleep(self._connect_retry_delay_s)
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(route[0], route[1]),
                    self._timeout)
                _set_nodelay(writer)
                return reader, writer
            except _TRANSIENT_OS_ERRORS as exc:
                last = exc
            except asyncio.TimeoutError as exc:
                last = exc
            except OSError as exc:
                raise TransportError("socket error connecting to %r: %s"
                                     % (dst, exc)) from exc
        raise TransientTransportError(
            "cannot connect to %r after %d attempt(s): %s"
            % (dst, self._connect_retries + 1, last)) from last

    async def _roundtrip(self, dst: str, frame: bytes) -> tuple[bytes, float]:
        timeout_s = (self._attempt_timeout_s()
                     if self._retry_policy is not None else self._timeout)
        conn = await self._get_connection(dst)
        try:
            return await conn.roundtrip(frame, timeout_s)
        except TransientTransportError:
            raise
        except asyncio.TimeoutError:
            raise TransientTransportError(
                "no response from %r within %.1fs (%d frames pipelined)"
                % (dst, timeout_s, len(conn._pending))) from None
        except TransportError:
            raise
        except _TRANSIENT_OS_ERRORS as exc:
            raise TransientTransportError(
                "transient socket error talking to %r: %s"
                % (dst, exc)) from exc
        except OSError as exc:
            raise TransportError("socket error talking to %r: %s"
                                 % (dst, exc)) from exc

    def _carry_frame(self, src: str, dst: str, frame: bytes, label: str,
                     reply_label: str, bill_reply: bool) -> bytes:
        sent_at = time.time()
        response, request_done = self._call(self._roundtrip(dst, frame))
        arrived_at = time.time()
        # Direction-split stamps, mirroring the simulator: the request
        # occupies [sent_at, request_done], the reply departs no earlier
        # than the request finished and lands at arrived_at.  Records
        # bill the logical frame bytes — the length prefix and
        # correlation-id envelope are stream framing, not payload.
        self._record(src, dst, label, len(frame), sent_at, request_done)
        if bill_reply:
            self._record(dst, src, reply_label, len(response),
                         request_done, arrived_at)
        return response

    def deliver(self, src: str, dst: str, nbytes: int, label: str) -> None:
        now = time.time()
        self._record(src, dst, label, nbytes, now, now)

    # -- clock + accounting -------------------------------------------------
    @property
    def now(self) -> float:
        return time.time()

    def mark(self) -> int:
        with self._lock:
            return len(self._log)

    def records_since(self, mark: int) -> list:
        with self._lock:
            return self._log[mark:]

    def _record(self, src: str, dst: str, label: str, nbytes: int,
                sent_at: float, arrived_at: float) -> None:
        with self._lock:
            self._log.append(FrameRecord(src=src, dst=dst, label=label,
                                         nbytes=nbytes, sent_at=sent_at,
                                         arrived_at=arrived_at))

    def _wait(self, seconds: float) -> None:
        # Real wall-clock backoff, capped so chaos tests stay quick.
        if seconds > 0:
            time.sleep(min(seconds, 0.05))

    # -- lifecycle ----------------------------------------------------------
    async def _shutdown(self) -> None:
        # Loop-affine: runs on the event loop thread, which owns the
        # connection table — the per-destination asyncio.Lock in
        # _get_connection only orders coroutines, never other threads.
        for server in self._servers:
            server.close()
        for conn in list(self._conns.values()):
            await conn.aclose(self._drain_timeout_s)
        self._conns.clear()
        if self._conn_tasks:
            _done, pending = await asyncio.wait(
                list(self._conn_tasks), timeout=self._drain_timeout_s)
            for task in pending:
                task.cancel()
        for server in self._servers:
            try:
                await asyncio.wait_for(server.wait_closed(), timeout=1.0)
            except (asyncio.TimeoutError, OSError):  # pragma: no cover
                pass
        self._servers.clear()

    def close(self) -> None:
        """Graceful drain, then tear down connections, loop, and pool."""
        loop = self._loop
        if loop is None:
            return
        self._loop = None
        try:
            future = asyncio.run_coroutine_threadsafe(self._shutdown(), loop)
            future.result(timeout=2 * self._drain_timeout_s + 5)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            self._thread.join(timeout=5)
            self._executor.shutdown(wait=False)
            if not self._thread.is_alive():
                loop.close()
