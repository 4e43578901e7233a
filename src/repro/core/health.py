"""Per-shard health state for the federation router.

Two small, deterministic primitives the router composes into
health-gated routing (docs/architecture.md, "Shard lifecycle"):

* :class:`CircuitBreaker` — the classic closed/open/half-open state
  machine over *consecutive* failures.  Time never comes from the wall
  clock: the clock is injected (the router passes the transport's
  ``now``), so a simulated-time chaos run drives breaker transitions
  deterministically.  The open→half-open reset timeout carries seeded
  jitter so N breakers tripped by the same outage do not re-probe a
  recovering shard in lockstep — and the jitter is derived from a
  SHA-256 counter stream, not :mod:`random` (this module sits below the
  transport layer, where the crypto-hygiene lint bans the stdlib RNG),
  so a seeded run replays the exact same timeout schedule.
* :class:`HealthTable` — one breaker per shard address.

Like :mod:`repro.core.shard`, this module is importable from anywhere:
stdlib plus :mod:`repro.exceptions` only (enforced by the hcpplint
layering contract).
"""

from __future__ import annotations

import hashlib
import threading

from repro.exceptions import ParameterError

__all__ = ["CircuitBreaker", "HealthTable",
           "STATE_CLOSED", "STATE_OPEN", "STATE_HALF_OPEN"]

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"


def _unit_draw(seed: int, name: bytes, counter: int) -> float:
    """The ``counter``-th deterministic uniform draw in [0, 1).

    A domain-separated SHA-256 counter stream: same (seed, name) →
    same sequence in every process, under every ``PYTHONHASHSEED``.
    """
    digest = hashlib.sha256(
        b"hcpp-health-jitter:%d:%s:%d" % (seed, name, counter)).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


class CircuitBreaker:
    """Consecutive-failure circuit breaker with an injected clock.

    * **closed** — requests flow; ``failure_threshold`` consecutive
      failures trip the breaker open.
    * **open** — :meth:`allow` refuses until the jittered reset timeout
      has elapsed on the injected clock, then transitions to half-open.
    * **half-open** — exactly one probe is allowed through; its success
      closes the breaker, its failure re-opens it (with a fresh
      jittered timeout).

    Thread-safe: concurrent requests through the router, one per
    transport handler thread, consult one breaker at once.
    """

    def __init__(self, clock, *, failure_threshold: int = 3,
                 reset_timeout_s: float = 1.0, jitter: float = 0.5,
                 seed: int = 0, name: bytes = b"") -> None:
        if failure_threshold < 1:
            raise ParameterError("failure_threshold must be >= 1")
        if reset_timeout_s < 0:
            raise ParameterError("reset_timeout_s cannot be negative")
        if not 0.0 <= jitter <= 1.0:
            raise ParameterError("jitter must be in [0, 1]")
        self._clock = clock
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.jitter = jitter
        self._seed = seed
        self._name = bytes(name)
        self._lock = threading.Lock()
        self._state = STATE_CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._timeout_s = reset_timeout_s
        self._probe_in_flight = False
        #: How many times this breaker has tripped open (diagnostics,
        #: and the counter that advances the jitter stream).
        self.trips = 0

    @property
    def state(self) -> str:
        """The current state, after applying any due open→half-open
        transition (so inspecting the state and calling :meth:`allow`
        agree on what the clock says)."""
        with self._lock:
            self._tick()
            return self._state

    def allow(self) -> bool:
        """May a request be sent to this shard right now?

        In half-open state the first caller takes the single probe
        slot; concurrent callers are refused until the probe's outcome
        is recorded.
        """
        with self._lock:
            self._tick()
            if self._state == STATE_CLOSED:
                return True
            if self._state == STATE_HALF_OPEN and not self._probe_in_flight:
                self._probe_in_flight = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = STATE_CLOSED
            self._failures = 0
            self._probe_in_flight = False

    def record_failure(self) -> None:
        with self._lock:
            self._tick()
            self._failures += 1
            if (self._state == STATE_HALF_OPEN
                    or self._failures >= self.failure_threshold):
                self._trip()

    def _tick(self) -> None:
        # Caller holds self._lock.
        if (self._state == STATE_OPEN
                and self._clock() - self._opened_at >= self._timeout_s):
            self._state = STATE_HALF_OPEN
            self._probe_in_flight = False

    def _trip(self) -> None:
        # Caller holds self._lock.  Full jitter on the reset timeout:
        # nominal · (1 + jitter·u), u ∈ [0, 1) from the seeded stream.
        self.trips += 1
        draw = _unit_draw(self._seed, self._name, self.trips)
        self._timeout_s = self.reset_timeout_s * (1.0 + self.jitter * draw)
        self._state = STATE_OPEN
        self._opened_at = self._clock()
        self._probe_in_flight = False


class HealthTable:
    """One circuit breaker per shard address, on the breaker defaults."""

    def __init__(self, addresses, clock) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: dict[str, CircuitBreaker] = {}
        for address in addresses:
            self.breaker(address)

    def breaker(self, address: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(address)
            if breaker is None:
                breaker = CircuitBreaker(self._clock, name=address.encode())
                self._breakers[address] = breaker
            return breaker

    def snapshot(self) -> "dict[str, str]":
        """Current breaker state per shard (diagnostics/CLI)."""
        with self._lock:
            breakers = dict(self._breakers)
        return {address: breaker.state
                for address, breaker in sorted(breakers.items())}
