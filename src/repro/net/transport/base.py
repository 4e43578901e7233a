"""The transport boundary: frames in, frames out, full accounting.

A :class:`Transport` carries opaque frames between addressed parties and
keeps the :class:`FrameRecord` log the communication-cost experiments
read.  Three primitives cover every HCPP interaction shape:

* :meth:`Transport.request` — a request/reply round (two records);
* :meth:`Transport.notify` — a one-message protocol step (one record);
  the dispatch ack still flows back so the caller learns errors and
  small results (e.g. the collection id), but the paper counts the step
  as a single transmission and so does the log;
* :meth:`Transport.deliver` — a physical/human hop (speech, typing a
  passcode, handing over plaintext): bytes are accounted, nothing is
  dispatched.

Both carrying verbs are template methods: the base class owns the
failure semantics — per-attempt fault injection (an installed
:class:`~repro.net.transport.faults.FaultPolicy`) and bounded retry with
backoff (an installed :class:`~repro.net.transport.faults.RetryPolicy`,
which retries only :class:`~repro.exceptions.TransientTransportError`)
— while backends implement the single-attempt :meth:`_carry_frame`.
With no policies installed the path is exactly one `_carry_frame` call,
so fault-free runs stay byte-identical across backends.

Backends: :class:`~repro.net.transport.loopback.LoopbackTransport`
(direct in-process dispatch), :class:`~repro.net.transport.simnet
.SimTransport` (the discrete-event simulator underneath), and
:class:`~repro.net.transport.asyncnet.AsyncTransport` (real TCP,
pipelined over one multiplexed connection per destination).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.core import wire
from repro.exceptions import TransientTransportError, TransportError

_DEFAULT_ATTEMPT_TIMEOUT_S = 5.0

LOST_SUFFIX = "/lost"
DUPLICATE_SUFFIX = "/dup"


@dataclass(frozen=True)
class FrameRecord:
    """One carried frame (mirrors :class:`repro.net.sim.MessageRecord`)."""

    src: str
    dst: str
    label: str
    nbytes: int
    sent_at: float
    arrived_at: float

    @property
    def latency(self) -> float:
        return self.arrived_at - self.sent_at


class Transport(abc.ABC):
    """Carries frames between addresses; hosts dispatch endpoints."""

    _retry_policy = None
    _fault_policy = None

    # -- endpoint hosting ---------------------------------------------------
    @abc.abstractmethod
    def bind(self, address: str, endpoint) -> None:
        """Serve ``endpoint.handle_frame`` at ``address``."""

    @abc.abstractmethod
    def endpoint_at(self, address: str):
        """The locally-bound endpoint object, or None (e.g. a route that
        points at another OS process)."""

    @abc.abstractmethod
    def has_route(self, address: str) -> bool:
        """True when frames to ``address`` can be dispatched somewhere."""

    # -- clock + accounting -------------------------------------------------
    @property
    @abc.abstractmethod
    def now(self) -> float:
        """The transport's clock (timestamps for envelopes + freshness)."""

    @abc.abstractmethod
    def mark(self) -> int:
        """Snapshot the log position (pair with :meth:`records_since`)."""

    @abc.abstractmethod
    def records_since(self, mark: int) -> list:
        """Log records appended after ``mark``."""

    # -- failure semantics --------------------------------------------------
    @property
    def retry_policy(self):
        return self._retry_policy

    def set_retry_policy(self, policy) -> None:
        """Retry frames that fail transiently (None = single attempt)."""
        self._retry_policy = policy

    @property
    def fault_policy(self):
        return self._fault_policy

    def install_faults(self, policy) -> None:
        """Consult ``policy`` on every frame attempt (None = clean wire)."""
        self._fault_policy = policy

    def _wait(self, seconds: float) -> None:
        """Let ``seconds`` of transport time pass (backoff, timeouts).
        Virtual-clock backends advance their clock; real ones sleep."""

    def _attempt_timeout_s(self) -> float:
        policy = self._retry_policy
        return (policy.attempt_timeout_s if policy is not None
                else _DEFAULT_ATTEMPT_TIMEOUT_S)

    # -- carrying frames ----------------------------------------------------
    def request(self, src: str, dst: str, frame: bytes, label: str,
                reply_label: str | None = None) -> bytes:
        """One request/reply round: dispatch ``frame``, return the
        response frame.  Logs two records (request and reply)."""
        return self._carry(src, dst, frame, label,
                           reply_label or label + "/reply", bill_reply=True)

    def notify(self, src: str, dst: str, frame: bytes, label: str) -> bytes:
        """One-message step: dispatch ``frame`` and log a single record.
        The dispatch ack is returned (errors propagate, small results
        ride back) but is not billed as a protocol message."""
        return self._carry(src, dst, frame, label, label + "/reply",
                           bill_reply=False)

    @abc.abstractmethod
    def deliver(self, src: str, dst: str, nbytes: int, label: str) -> None:
        """A physical/human hop: account ``nbytes``, dispatch nothing."""

    @abc.abstractmethod
    def _carry_frame(self, src: str, dst: str, frame: bytes, label: str,
                     reply_label: str, bill_reply: bool) -> bytes:
        """One delivery attempt: move ``frame``, account it (and the
        reply when ``bill_reply``), return the response frame."""

    def _carry(self, src: str, dst: str, frame: bytes, label: str,
               reply_label: str, bill_reply: bool) -> bytes:
        policy = self._retry_policy
        attempts = policy.max_attempts if policy is not None else 1
        deadline = (self.now + policy.deadline_s
                    if policy is not None else None)
        failure: TransientTransportError | None = None
        for attempt in range(1, attempts + 1):
            if attempt > 1:
                self._wait(policy.backoff_s(attempt - 1))
                if deadline is not None and self.now >= deadline:
                    break
            try:
                return self._attempt(src, dst, frame, label, reply_label,
                                     bill_reply)
            except TransientTransportError as exc:
                failure = exc
        if failure is None:
            failure = TransientTransportError(
                "deadline exceeded carrying %r to %r" % (label, dst))
        raise failure

    def _attempt(self, src: str, dst: str, frame: bytes, label: str,
                 reply_label: str, bill_reply: bool) -> bytes:
        faults = self._fault_policy
        if faults is None:
            return self._screen(self._carry_frame(src, dst, frame, label,
                                                  reply_label, bill_reply))
        plan = faults.plan(src, dst, label, frame)
        if plan.refused:
            raise TransientTransportError(
                "endpoint %r is down: connection refused" % dst)
        if plan.drop or plan.partitioned:
            # The bytes left the sender and died en route: account the
            # send, then burn the attempt timeout waiting for a reply
            # that will never come.
            self.deliver(src, dst, len(frame), label + LOST_SUFFIX)
            self._wait(self._attempt_timeout_s())
            raise TransientTransportError(
                "frame %r to %r %s (no reply within %.1fs)"
                % (label, dst,
                   "lost to a partition" if plan.partitioned else "dropped",
                   self._attempt_timeout_s()))
        if plan.delay_s:
            self._wait(plan.delay_s)
        response = self._carry_frame(src, dst, plan.frame, label,
                                     reply_label, bill_reply)
        if plan.duplicate:
            # The network delivered the same frame twice.  The receiver
            # processes both; whatever it answers the second time is
            # discarded here (the sender only ever consumes one reply)
            # but captured for the chaos tests to inspect.
            dup_reply = self._carry_frame(src, dst, plan.frame,
                                          label + DUPLICATE_SUFFIX,
                                          reply_label, False)
            faults.note_duplicate_reply(label, dup_reply)
        return self._screen(response)

    @staticmethod
    def _screen(response: bytes) -> bytes:
        """Re-raise a *serialized* transient refusal so retry fires.

        In-process backends let a crashed durable endpoint's
        ``TransientTransportError`` propagate up through the attempt;
        an async TCP server serializes the same exception into an error
        response.  Without this, remote refusals would dodge the retry
        loop and surface in protocol code instead.
        """
        message = wire.transient_error_in(response)
        if message is not None:
            raise TransientTransportError(message)
        return response

    # -- shared plumbing ----------------------------------------------------
    def _attach(self, endpoint) -> None:
        attach = getattr(endpoint, "attach", None)
        if attach is not None:
            attach(self)

    @staticmethod
    def _no_endpoint(dst: str) -> TransportError:
        return TransportError("no endpoint bound at %r" % dst)
