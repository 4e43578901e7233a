"""Multiplexed TCP transport: pipelined frames, one connection per
destination, driven by the threads that already exist.

:class:`AsyncTransport` keeps a *persistent multiplexed connection* per
destination and pipelines frames over it: every outbound frame carries a
correlation id (:func:`repro.core.wire.wrap_corr`), replies come back in
whatever order the server finishes them, and each one is matched to its
caller by id.  The replies are asynchronous; the code is not.  There is
no event loop and no I/O thread on the client: a caller writes its own
frame and, when no other caller is reading that connection, reads
replies itself — handing each to its caller — until its own arrives.
The reading role then passes to one waiting caller.  A lone caller thus
writes and reads on its own thread, with no thread hop per request.
Callers stay plain blocking threads, so all six protocols run unchanged,
and the :class:`~repro.net.transport.faults.RetryPolicy` /
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
  frees a slot, and parked callers are admitted in arrival order
  (backpressure, not unbounded queueing);
* **server**: a connection whose handlers hold ``server_window`` frames
  is not read further until one finishes, so a fast sender cannot
  balloon server memory.

The server runs one reader thread per accepted connection.  It passes
each frame to a handler thread pool, which is what makes dispatch entry
genuinely concurrent — the endpoints' reentrancy contract (mutating
opcodes single-writer, read opcodes concurrent; see
``docs/architecture.md``) is exercised by every pipelined run — and the
handler writes its own reply.

Wire compatibility: frame id 0 encodes as the identity bytes, so a
plain length-prefixed client that sends one frame and waits for the
reply can talk to an :class:`AsyncTransport` server (plain frame in,
plain response out).  Billing counts the logical frame bytes only, so
every protocol's accounting matches the in-process backends byte for
byte — the transport parity suite pins this.

``close()`` drains gracefully: listeners stop accepting, in-flight
frames get their responses (bounded by ``drain_timeout_s``), then every
socket is closed and every thread the transport started has ended.
"""

from __future__ import annotations

import collections
import concurrent.futures
import logging
import select
import socket
import threading
import time

from repro.core import wire
from repro.net.transport.base import FrameRecord, Transport
from repro.exceptions import TransientTransportError, TransportError

__all__ = ["AsyncTransport"]

_LEN_BYTES = 4
_MAX_FRAME = 64 * 1024 * 1024
_RECV_BYTES = 64 * 1024
_DEFAULT_WINDOW = 64
_DEFAULT_SERVER_WINDOW = 128
_DEFAULT_HANDLER_THREADS = 8
_DEFAULT_DRAIN_TIMEOUT_S = 5.0

_LOG = logging.getLogger("repro.net.transport.asyncnet")

# OSErrors that a healthy peer may heal from on its own.
_TRANSIENT_OS_ERRORS = (ConnectionRefusedError, ConnectionResetError,
                        ConnectionAbortedError, BrokenPipeError,
                        TimeoutError)


def _set_nodelay(sock: socket.socket) -> None:
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # pragma: no cover - non-TCP test doubles
        pass


def _shut(sock: socket.socket) -> None:
    """Wake every thread blocked on ``sock``, then close it."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:  # already disconnected
        pass
    sock.close()


def _prefixed(blob: bytes) -> bytes:
    return len(blob).to_bytes(_LEN_BYTES, "big") + blob


class _FrameBuffer:
    """Length-prefixed blobs cut out of a byte stream as it arrives."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, chunk: bytes) -> None:
        self._buf += chunk

    def holds_partial(self) -> bool:
        return bool(self._buf)

    def next_blob(self) -> bytes | None:
        """The next whole blob, or None until more bytes arrive."""
        buf = self._buf
        if len(buf) < _LEN_BYTES:
            return None
        length = int.from_bytes(buf[:_LEN_BYTES], "big")
        if length > _MAX_FRAME:
            raise TransportError("frame length %d exceeds limit" % length)
        end = _LEN_BYTES + length
        if len(buf) < end:
            return None
        blob = bytes(buf[_LEN_BYTES:end])
        del buf[:end]
        return blob


class _Call:
    """One frame awaiting its reply, with its caller's own wake-up."""

    __slots__ = ("wake", "reply", "failure")

    def __init__(self) -> None:
        #: Made once the caller waits on another's reading (a lone
        #: caller never does); set when the reply (or a failure) lands
        #: or when the reading role is passed to this caller.
        self.wake: threading.Event | None = None
        self.reply: bytes | None = None
        self.failure: BaseException | None = None

    @property
    def done(self) -> bool:
        return self.reply is not None or self.failure is not None

    def signal(self) -> None:
        if self.wake is not None:
            self.wake.set()


class _MuxConnection:
    """One multiplexed client connection: id allocation, the pending
    id → call map, the FIFO in-flight window, and the reading role its
    callers take turns at.

    ``_lock`` guards every field below that changes after ``__init__``.
    Writes serialize on ``_write_lock``; at most one caller (the one
    holding the reading role) reads the socket at a time.
    """

    def __init__(self, dst: str, route: tuple[str, int],
                 sock: socket.socket, window: int) -> None:
        self.dst = dst
        self.route = route
        self._sock = sock
        self._poll = select.poll()
        self._poll.register(sock, select.POLLIN)
        # A second poll object for the idle check, which runs under
        # _lock while the reader may be inside self._poll.
        self._idle_poll = select.poll()
        self._idle_poll.register(sock, select.POLLIN)
        self._frames = _FrameBuffer()
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._write_lock = threading.Lock()
        self._calls: dict[int, _Call] = {}
        self._reading = False
        self._free = window
        self._parked: collections.deque[threading.Event] = \
            collections.deque()
        self._counter = 0
        self.broken: BaseException | None = None
        self.closing = False
        #: High-water mark of frames awaiting a response (tests and the
        #: pipelined smoke assert real multiplexing happened).
        self.peak_in_flight = 0

    # -- reuse --------------------------------------------------------------
    def reusable(self, route: tuple[str, int] | None) -> bool:
        """False once broken or closing, once the destination moved to
        another route, or when the peer hung up on an idle connection —
        with no caller reading, nobody else would notice the EOF."""
        if self.broken is not None or self.closing or route != self.route:
            return False
        with self._lock:
            if self._calls or self.broken is not None \
                    or not self._idle_poll.poll(0):
                return self.broken is None
            try:
                return self._sock.recv(1, socket.MSG_PEEK
                                       | socket.MSG_DONTWAIT) != b""
            except OSError:
                return False

    # -- one frame ----------------------------------------------------------
    def roundtrip(self, frame: bytes,
                  timeout_s: float) -> tuple[bytes, float]:
        """Pipeline one frame; block (in the window) when the bound is
        reached; return (response, request-write-completion time)."""
        self._admit()
        frame_id = 0
        try:
            with self._lock:
                self._check_open()
                frame_id = self._next_id()
                call = self._calls[frame_id] = _Call()
                self.peak_in_flight = max(self.peak_in_flight,
                                          len(self._calls))
            self._send(wire.wrap_corr(frame_id, frame))
            request_done = time.time()
            self._await(call, timeout_s)
        finally:
            with self._lock:
                self._calls.pop(frame_id, None)
                self._release_slot()
                last_out = self.closing and not self._calls
                if last_out:
                    self._idle.notify_all()
            if last_out:
                self._break(TransientTransportError(
                    "connection to %r closed" % self.dst))
        if call.failure is not None:
            raise call.failure
        return call.reply, request_done

    def _check_open(self) -> None:
        # Caller holds self._lock.
        if self.broken is not None or self.closing:
            raise TransientTransportError(
                "connection to %r is %s" % (self.dst,
                                            "closing" if self.closing
                                            else "broken"))

    def _next_id(self) -> int:
        # Caller holds self._lock.
        while True:
            self._counter = self._counter % wire.MAX_CORR_ID + 1
            if self._counter not in self._calls:
                return self._counter

    def _admit(self) -> None:
        """Take a window slot.  Callers that find the window full park
        in arrival order and are handed slots in that order."""
        with self._lock:
            self._check_open()
            if self._free and not self._parked:
                self._free -= 1
                return
            turn = threading.Event()
            self._parked.append(turn)
        turn.wait()

    def _release_slot(self) -> None:
        # Caller holds self._lock.
        if self._parked:
            self._parked.popleft().set()
        else:
            self._free += 1

    def _send(self, blob: bytes) -> None:
        try:
            with self._write_lock:
                self._sock.sendall(_prefixed(blob))
        except OSError as exc:
            # A frame cut off mid-write leaves the stream unparseable.
            already_broken = self.broken is not None
            self._break(exc)
            if already_broken or isinstance(exc, _TRANSIENT_OS_ERRORS):
                raise TransientTransportError(
                    "transient socket error talking to %r: %s"
                    % (self.dst, exc)) from exc
            raise TransportError("socket error talking to %r: %s"
                                 % (self.dst, exc)) from exc

    # -- the reading role ---------------------------------------------------
    def _await(self, call: _Call, timeout_s: float) -> None:
        """Wait for ``call``'s reply, reading the socket whenever no
        other caller is."""
        deadline = time.monotonic() + timeout_s
        while True:
            with self._lock:
                if call.done:
                    return
                reader = not self._reading
                if reader:
                    self._reading = True
                elif call.wake is None:
                    call.wake = threading.Event()
                else:
                    call.wake.clear()
            if reader:
                try:
                    answered = self._read_until(call, deadline)
                finally:
                    with self._lock:
                        self._reading = False
                        if self.broken is not None:
                            self._sock.close()
                        else:
                            self._pass_reading(call)
                if answered:
                    return
                break
            if call.wake.wait(max(0.0, deadline - time.monotonic())):
                continue
            with self._lock:
                if call.done:
                    return
                if not self._reading:
                    # The role may have been passed to this caller just
                    # as it gave up: pass it on.
                    self._pass_reading(call)
            break
        raise TransientTransportError(
            "no response from %r within %.1fs (%d frames pipelined)"
            % (self.dst, timeout_s, len(self._calls)))

    def _pass_reading(self, leaving: _Call) -> None:
        # Caller holds self._lock.
        for call in self._calls.values():
            if call is not leaving and call.wake is not None \
                    and not call.done:
                call.wake.set()
                return

    def _read_until(self, call: _Call, deadline: float) -> bool:
        """Read replies, handing each to its caller, until ``call`` has
        one; False when ``deadline`` passes between two frames."""
        try:
            while not call.done:
                blob = self._frames.next_blob()
                if blob is not None:
                    self._deliver(*wire.unwrap_corr(blob))
                elif not self._fill(deadline):
                    if not self._frames.holds_partial():
                        return False
                    raise TransientTransportError(
                        "reply from %r timed out mid-frame" % self.dst)
        except (TransportError, OSError) as exc:
            self._break(exc)
        return True

    def _fill(self, deadline: float) -> bool:
        """Buffer the bytes that arrive before ``deadline``; False when
        none do."""
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not self._poll.poll(remaining * 1e3):
            return False
        chunk = self._sock.recv(_RECV_BYTES)
        if not chunk:
            raise TransientTransportError(
                "connection to %r closed by peer" % self.dst)
        self._frames.feed(chunk)
        return True

    def _deliver(self, frame_id: int, reply: bytes) -> None:
        with self._lock:
            call = self._calls.get(frame_id)
            if call is not None and not call.done:
                call.reply = reply
                call.signal()
        # An unknown id is a reply whose caller already timed out and
        # retried on a fresh id: drop it.

    # -- teardown -----------------------------------------------------------
    def _break(self, exc: BaseException) -> None:
        """Fail every pending caller, wake every parked one, and shut
        the socket.  Its descriptor closes now unless a caller is
        reading, which closes it on leaving the role."""
        with self._lock:
            if self.broken is not None:
                return
            self.broken = exc
            failure = TransientTransportError(
                "connection to %r broke with pipelined frames in flight: "
                "%s" % (self.dst, exc))
            for call in self._calls.values():
                if not call.done:
                    call.failure = failure
                    call.signal()
            while self._parked:
                self._parked.popleft().set()
            self._idle.notify_all()
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:  # the peer already hung up
                pass
            if not self._reading:
                self._sock.close()

    def retire(self) -> None:
        """Refuse new frames; tear down once the pending ones finish."""
        with self._lock:
            self.closing = True
            idle = not self._calls
        if idle:
            self._break(TransientTransportError(
                "connection to %r closed" % self.dst))

    def close(self, deadline: float) -> None:
        """Graceful drain: refuse new frames, wait (until ``deadline``)
        for in-flight responses, then tear the connection down."""
        with self._lock:
            self.closing = True
            self._idle.wait_for(lambda: not self._calls,
                                max(0.0, deadline - time.monotonic()))
        self._break(TransientTransportError(
            "connection to %r closed" % self.dst))


class _ServedConnection:
    """One accepted connection: its socket, its reply lock, and the
    frames its handlers have not answered yet."""

    def __init__(self, sock: socket.socket, peer, window: int) -> None:
        self.sock = sock
        self.peer = peer
        self._window = window
        self._write_lock = threading.Lock()
        self._handlers_lock = threading.Condition()
        self._in_handlers = 0

    def take_slot(self) -> None:
        """Server-side backpressure: with ``window`` frames from this
        connection still in handlers, stop reading (TCP then pushes
        back on the sender)."""
        with self._handlers_lock:
            while self._in_handlers >= self._window:
                self._handlers_lock.wait()
            self._in_handlers += 1

    def free_slot(self) -> None:
        with self._handlers_lock:
            self._in_handlers -= 1
            self._handlers_lock.notify()

    def drain(self, timeout_s: float) -> bool:
        """Wait for every handler to answer; False on timeout."""
        with self._handlers_lock:
            return self._handlers_lock.wait_for(
                lambda: not self._in_handlers, timeout_s)

    def reply(self, frame_id: int, response: bytes) -> None:
        blob = _prefixed(wire.wrap_corr(frame_id, response))
        with self._write_lock:
            self.sock.sendall(blob)

    def stop_reading(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RD)
        except OSError:  # already disconnected
            pass


class AsyncTransport(Transport):
    """Frames pipelined over persistent multiplexed TCP connections."""

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
        self._host = host
        self._window_size = max(1, window)
        self._server_window = max(1, server_window)
        self._timeout = connect_timeout_s
        self._connect_retries = connect_retries
        self._connect_retry_delay_s = connect_retry_delay_s
        self._drain_timeout_s = drain_timeout_s
        self._log: list[FrameRecord] = []
        self._lock = threading.Lock()
        # Connections, listeners and threads; guarded by _state_lock.
        self._state_lock = threading.Lock()
        self._closed = False
        self._conns: dict[str, _MuxConnection] = {}
        self._connect_locks: dict[str, threading.Lock] = {}
        self._listeners: list[socket.socket] = []
        self._accept_threads: list[threading.Thread] = []
        self._served: dict[_ServedConnection, threading.Thread] = {}
        self._handlers_stuck = False
        # Threads start on the first submitted frame, not here.
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(2, handler_threads),
            thread_name_prefix="asyncnet-handler")

    # -- endpoint hosting ---------------------------------------------------
    def bind(self, address: str, endpoint, port: int = 0) -> None:
        """Serve ``endpoint`` on ``port`` (0 = ephemeral)."""
        listener = socket.create_server((self._host, port))
        accept = threading.Thread(target=self._accept_loop,
                                  args=(listener, endpoint),
                                  name="asyncnet-accept", daemon=True)
        with self._state_lock:
            if self._closed:
                listener.close()
                raise TransportError("async transport is closed")
            self._listeners.append(listener)
            self._accept_threads.append(accept)
        accept.start()
        bound = listener.getsockname()
        self._routes[address] = (bound[0], bound[1])
        self._endpoints[address] = endpoint
        self._attach(endpoint)

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
    def _accept_loop(self, listener: socket.socket, endpoint) -> None:
        while True:
            try:
                sock, peer = listener.accept()
            except OSError as exc:
                if self._closed:
                    return  # close() shut the listener down
                _LOG.warning("accept failed on %s: %s",
                             listener.getsockname(), exc)
                time.sleep(0.1)
                continue
            _set_nodelay(sock)
            served = _ServedConnection(sock, peer, self._server_window)
            reader = threading.Thread(target=self._serve_connection,
                                      args=(served, endpoint),
                                      name="asyncnet-conn", daemon=True)
            with self._state_lock:
                if self._closed:
                    _shut(sock)
                    return
                self._served[served] = reader
            reader.start()

    def _serve_connection(self, served: _ServedConnection,
                          endpoint) -> None:
        frames = _FrameBuffer()
        try:
            while True:
                try:
                    blob = frames.next_blob()
                    if blob is None:
                        if self._closed:
                            break
                        chunk = served.sock.recv(_RECV_BYTES)
                        if chunk:
                            frames.feed(chunk)
                            continue
                        if frames.holds_partial():
                            raise TransientTransportError(
                                "connection closed mid-frame")
                        break
                except (TransportError, OSError) as exc:
                    # Never answer a broken exchange with silence.
                    _LOG.warning("unreadable frame from %s: %s",
                                 served.peer, exc)
                    try:
                        served.reply(0, wire.error_response(TransportError(
                            "server could not read frame: %s" % exc)))
                    except OSError:  # the client is already gone
                        pass
                    break
                served.take_slot()
                try:
                    self._executor.submit(self._serve_frame, served,
                                          endpoint, blob)
                except RuntimeError:  # close() already shut the pool
                    served.free_slot()
                    break
        finally:
            # Graceful drain: every frame already read gets its
            # response before the connection dies.
            drained = served.drain(self._drain_timeout_s)
            _shut(served.sock)
            with self._state_lock:
                self._served.pop(served, None)
                self._handlers_stuck |= not drained

    def _serve_frame(self, served: _ServedConnection, endpoint,
                     blob: bytes) -> None:
        try:
            try:
                frame_id, frame = wire.unwrap_corr(blob)
            except TransportError as exc:
                frame_id, response = 0, wire.error_response(exc)
            else:
                try:
                    response = endpoint.handle_frame(frame)
                except Exception as exc:
                    _LOG.warning("frame handler raised for %s: %s",
                                 served.peer, exc)
                    response = wire.error_response(exc)
            served.reply(frame_id, response)
        except OSError:  # pragma: no cover - client already gone
            pass
        finally:
            served.free_slot()

    # -- the client side ----------------------------------------------------
    def _connection(self, dst: str) -> _MuxConnection:
        conn = self._conns.get(dst)
        if conn is not None and conn.reusable(self._routes.get(dst)):
            return conn
        if dst not in self._routes:
            raise self._no_endpoint(dst)
        with self._state_lock:
            connect_lock = self._connect_locks.setdefault(dst,
                                                          threading.Lock())
        with connect_lock:
            route = self._routes.get(dst)
            conn = self._conns.get(dst)
            if conn is not None:
                if conn.reusable(route):
                    return conn
                conn.retire()
            fresh = _MuxConnection(dst, route, self._open(dst, route),
                                   self._window_size)
            with self._state_lock:
                if not self._closed:
                    self._conns[dst] = fresh
                    return fresh
            fresh.retire()
            raise TransportError("async transport is closed")

    def _open(self, dst: str, route: tuple[str, int]) -> socket.socket:
        """Connect, retrying refusals a bounded number of times (a peer
        process may still be binding its port)."""
        last: BaseException | None = None
        for attempt in range(self._connect_retries + 1):
            if attempt:
                time.sleep(self._connect_retry_delay_s)
            try:
                sock = socket.create_connection(route, self._timeout)
            except _TRANSIENT_OS_ERRORS as exc:
                last = exc
            except OSError as exc:
                raise TransportError("socket error connecting to %r: %s"
                                     % (dst, exc)) from exc
            else:
                sock.settimeout(None)
                _set_nodelay(sock)
                return sock
        raise TransientTransportError(
            "cannot connect to %r after %d attempt(s): %s"
            % (dst, self._connect_retries + 1, last)) from last

    def _carry_frame(self, src: str, dst: str, frame: bytes, label: str,
                     reply_label: str, bill_reply: bool) -> bytes:
        if self._closed:
            raise TransportError("async transport is closed")
        timeout_s = (self._attempt_timeout_s()
                     if self._retry_policy is not None else self._timeout)
        sent_at = time.time()
        response, request_done = self._connection(dst).roundtrip(frame,
                                                                 timeout_s)
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
    def close(self) -> None:
        """Graceful drain, then close every socket and join every
        thread the transport started."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            listeners, self._listeners = self._listeners, []
            accepts, self._accept_threads = self._accept_threads, []
            conns = list(self._conns.values())
            self._conns.clear()
        # No blocked accept may take another connection.
        for listener in listeners:
            _shut(listener)
        for thread in accepts:
            thread.join(timeout=5)
        # Client side: pipelined frames still get their replies — from
        # this transport's own server side too, which keeps reading
        # until the next step.
        deadline = time.monotonic() + self._drain_timeout_s
        for conn in conns:
            conn.close(deadline)
        # Server side: stop reading; each connection's reader answers
        # what it has read, then closes its socket.
        with self._state_lock:
            served = dict(self._served)
        for connection in served:
            connection.stop_reading()
        for thread in served.values():
            thread.join(timeout=self._drain_timeout_s + 5)
        with self._state_lock:
            stuck = self._handlers_stuck or bool(self._served)
        # A handler that outlived its connection's drain cannot be
        # joined; every other pool thread is.
        self._executor.shutdown(wait=not stuck, cancel_futures=stuck)
