"""Circuit-breaker and health-table unit tests (repro.core.health).

Everything runs on a fake injected clock: state transitions are a pure
function of recorded outcomes and clock reads, so each scenario is
exact — no sleeps, no wall-clock flakiness.
"""

from __future__ import annotations

import pytest

from repro.core.health import (STATE_CLOSED, STATE_HALF_OPEN, STATE_OPEN,
                               CircuitBreaker, HealthTable, _unit_draw)
from repro.exceptions import ParameterError


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def _breaker(clock, **kwargs):
    kwargs.setdefault("failure_threshold", 3)
    kwargs.setdefault("reset_timeout_s", 1.0)
    kwargs.setdefault("name", b"shard-a")
    return CircuitBreaker(clock, **kwargs)


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        breaker = _breaker(FakeClock())
        assert breaker.state == STATE_CLOSED
        assert breaker.allow()

    def test_opens_after_consecutive_failures(self):
        breaker = _breaker(FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED  # threshold is 3
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_the_failure_streak(self):
        breaker = _breaker(FakeClock())
        for _ in range(10):
            breaker.record_failure()
            breaker.record_failure()
            breaker.record_success()  # consecutive, not cumulative
        assert breaker.state == STATE_CLOSED

    def test_half_open_after_jittered_timeout(self):
        clock = FakeClock()
        breaker = _breaker(clock, jitter=0.5, seed=3)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == STATE_OPEN
        # The reset timeout is nominal·(1 + jitter·u), u ∈ [0, 1):
        # strictly before the nominal timeout the breaker stays open,
        # and by the jitter ceiling it must have gone half-open.
        clock.t = 0.999
        assert breaker.state == STATE_OPEN
        clock.t = 1.5
        assert breaker.state == STATE_HALF_OPEN

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = _breaker(clock, jitter=0.0)
        for _ in range(3):
            breaker.record_failure()
        clock.t = 1.0
        assert breaker.allow()       # the probe slot
        assert not breaker.allow()   # concurrent caller refused
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        assert breaker.allow() and breaker.allow()

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = _breaker(clock, jitter=0.0)
        for _ in range(3):
            breaker.record_failure()
        clock.t = 1.0
        assert breaker.allow()
        breaker.record_failure()     # the probe failed
        assert breaker.state == STATE_OPEN
        assert breaker.trips == 2
        # ...and the fresh timeout runs from the re-trip instant.
        clock.t = 1.5
        assert breaker.state == STATE_OPEN
        clock.t = 2.0
        assert breaker.state == STATE_HALF_OPEN

    def test_jitter_is_seeded_and_per_name(self):
        def tripped(seed, name):
            breaker = _breaker(FakeClock(), seed=seed, name=name)
            for _ in range(3):
                breaker.record_failure()
            return breaker._timeout_s

        assert tripped(7, b"shard-a") == tripped(7, b"shard-a")
        assert tripped(7, b"shard-a") != tripped(7, b"shard-b")
        assert tripped(7, b"shard-a") != tripped(8, b"shard-a")
        # And it matches the documented stream exactly.
        expected = 1.0 * (1.0 + 0.5 * _unit_draw(7, b"shard-a", 1))
        assert tripped(7, b"shard-a") == pytest.approx(expected)

    def test_parameters_validated(self):
        clock = FakeClock()
        with pytest.raises(ParameterError):
            CircuitBreaker(clock, failure_threshold=0)
        with pytest.raises(ParameterError):
            CircuitBreaker(clock, reset_timeout_s=-1.0)
        with pytest.raises(ParameterError):
            CircuitBreaker(clock, jitter=1.5)


class TestHealthTable:
    def _table(self):
        return HealthTable(["s://a", "s://b"], FakeClock())

    def test_breakers_precreated_and_stable(self):
        table = self._table()
        assert table.breaker("s://a") is table.breaker("s://a")
        assert table.breaker("s://a") is not table.breaker("s://b")
        assert table.snapshot() == {"s://a": "closed", "s://b": "closed"}

    def test_snapshot_reflects_trips(self):
        table = self._table()
        for _ in range(3):
            table.breaker("s://b").record_failure()
        assert table.snapshot() == {"s://a": "closed", "s://b": "open"}
