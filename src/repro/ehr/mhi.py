"""Monitored health information (MHI) — synthetic body-sensor substrate.

The paper defines MHI as *"the data collected by the monitoring equipments
(e.g., sensors) worn or carried by high-risk patients"*.  Real body-sensor
traces are not available offline, so per the substitution rule we generate
synthetic vital-sign streams that exercise the identical encrypt / PEKS /
retrieve code path:

* baseline physiology as slow sinusoids (circadian drift) plus Gaussian
  sensor noise,
* injectable *anomaly episodes* (tachycardia, hypertensive surge,
  desaturation) that model the "irregular heartbeat intervals, sudden
  surge in blood pressure" the paper says the emergency physician looks
  for in MHI,
* windowed packaging into :class:`MhiWindow` records, each tagged with
  the date keywords the P-device makes searchable (the paper's "the MHI
  collected on a particular day can be made searchable for each of the
  following, say, 5 days").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from repro.crypto.rng import HmacDrbg
from repro.exceptions import ParameterError


class VitalSign(Enum):
    HEART_RATE = "heart-rate"            # bpm
    SYSTOLIC_BP = "blood-pressure"       # mmHg
    SPO2 = "spo2"                        # %
    RESPIRATORY_RATE = "respiratory-rate"  # breaths/min


_BASELINES: dict[VitalSign, tuple[float, float, float]] = {
    # (mean, circadian amplitude, noise sigma)
    VitalSign.HEART_RATE: (72.0, 6.0, 2.5),
    VitalSign.SYSTOLIC_BP: (118.0, 8.0, 4.0),
    VitalSign.SPO2: (97.5, 0.5, 0.4),
    VitalSign.RESPIRATORY_RATE: (14.0, 2.0, 1.0),
}


class AnomalyKind(Enum):
    """Emergency-precursor episodes the generator can inject."""

    TACHYCARDIA = "tachycardia"          # HR spike
    HYPERTENSIVE = "hypertensive-surge"  # BP spike
    DESATURATION = "desaturation"        # SpO2 drop


_ANOMALY_EFFECTS: dict[AnomalyKind, dict[VitalSign, float]] = {
    AnomalyKind.TACHYCARDIA: {VitalSign.HEART_RATE: +65.0,
                              VitalSign.RESPIRATORY_RATE: +8.0},
    AnomalyKind.HYPERTENSIVE: {VitalSign.SYSTOLIC_BP: +55.0,
                               VitalSign.HEART_RATE: +15.0},
    AnomalyKind.DESATURATION: {VitalSign.SPO2: -9.0,
                               VitalSign.RESPIRATORY_RATE: +10.0},
}

#: clinically-motivated alarm thresholds used by detect_anomalies
ALARM_THRESHOLDS: dict[VitalSign, tuple[float, float]] = {
    VitalSign.HEART_RATE: (45.0, 120.0),
    VitalSign.SYSTOLIC_BP: (85.0, 160.0),
    VitalSign.SPO2: (92.0, 100.1),
    VitalSign.RESPIRATORY_RATE: (8.0, 24.0),
}


@dataclass(frozen=True)
class Sample:
    """One sensor reading: (seconds-from-start, vital, value)."""

    t: float
    vital: VitalSign
    value: float


@dataclass
class MhiWindow:
    """One day's worth of monitored data, ready for encryption.

    ``day`` is an ISO date string; ``searchable_days`` lists the dates
    under which this window should be findable (the paper's 5-day rule).
    """

    day: str
    samples: list[Sample] = field(default_factory=list)
    searchable_days: list[str] = field(default_factory=list)
    anomalies: list[tuple[float, AnomalyKind]] = field(default_factory=list)

    def to_bytes(self) -> bytes:
        """Plaintext encoding handed to IBE for role encryption."""
        rows = ["%s|%.1f|%s|%.2f" % (self.day, s.t, s.vital.value, s.value)
                for s in self.samples]
        header = "MHI;" + self.day + ";" + ",".join(self.searchable_days)
        return ("\n".join([header] + rows)).encode()

    @classmethod
    def from_bytes(cls, data: bytes) -> "MhiWindow":
        """Inverse of :meth:`to_bytes`.  The bytes come out of a role
        ciphertext the S-server returned, so every malformed encoding
        raises :class:`ParameterError`."""
        try:
            lines = data.decode().split("\n")
            if not lines[0].startswith("MHI;"):
                raise ParameterError("not an MHI window encoding")
            _, day, days_blob = lines[0].split(";")
            window = cls(day=day, searchable_days=[
                d for d in days_blob.split(",") if d])
            for row in lines[1:]:
                _, t, vital, value = row.split("|")
                window.samples.append(Sample(t=float(t),
                                             vital=VitalSign(vital),
                                             value=float(value)))
        except ValueError as exc:   # incl. UnicodeDecodeError
            raise ParameterError("malformed MHI window encoding") from exc
        return window

    def values_for(self, vital: VitalSign) -> list[float]:
        return [s.value for s in self.samples if s.vital is vital]


class VitalsGenerator:
    """Deterministic synthetic vitals for one monitored patient."""

    def __init__(self, rng: HmacDrbg, sample_interval_s: float = 300.0) -> None:
        if sample_interval_s <= 0:
            raise ParameterError("sample interval must be positive")
        self._rng = rng
        self.sample_interval_s = sample_interval_s

    def generate_day(self, day: str,
                     anomalies: list[tuple[float, AnomalyKind]] | None = None,
                     searchable_horizon_days: int = 5) -> MhiWindow:
        """One day of readings; ``anomalies`` = [(start_second, kind)].

        Each anomaly episode lasts 30 minutes with a raised-cosine onset
        and decay so the trace looks physiological rather than stepwise.
        """
        anomalies = list(anomalies or [])
        window = MhiWindow(day=day, anomalies=anomalies,
                           searchable_days=_horizon(day,
                                                    searchable_horizon_days))
        steps = int(86400 / self.sample_interval_s)
        episode_len = 1800.0
        for i in range(steps):
            t = i * self.sample_interval_s
            circadian = math.sin(2 * math.pi * (t / 86400.0 - 0.25))
            for vital, (mean, amplitude, sigma) in _BASELINES.items():
                value = mean + amplitude * circadian + self._rng.gauss(0, sigma)
                for start, kind in anomalies:
                    if start <= t < start + episode_len:
                        progress = (t - start) / episode_len
                        envelope = math.sin(math.pi * progress)
                        value += _ANOMALY_EFFECTS[kind].get(vital, 0.0) * envelope
                window.samples.append(Sample(t=t, vital=vital,
                                             value=round(value, 2)))
        return window


def _horizon(day: str, horizon: int) -> list[str]:
    """``day`` plus the following ``horizon``−1 ISO dates (no stdlib date
    arithmetic needed for the simple roll-over used in experiments)."""
    year, month, dom = (int(x) for x in day.split("-"))
    days_in_month = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
    if year % 4 == 0 and (year % 100 != 0 or year % 400 == 0):
        days_in_month[1] = 29
    result = []
    for _ in range(horizon):
        result.append("%04d-%02d-%02d" % (year, month, dom))
        dom += 1
        if dom > days_in_month[month - 1]:
            dom = 1
            month += 1
            if month > 12:
                month = 1
                year += 1
    return result


def detect_anomalies(window: MhiWindow) -> list[tuple[float, VitalSign, float]]:
    """Threshold-based alarm detection (what the ER physician scans for).

    Returns (time, vital, value) triples breaching
    :data:`ALARM_THRESHOLDS`.
    """
    alarms = []
    for sample in window.samples:
        low, high = ALARM_THRESHOLDS[sample.vital]
        if sample.value < low or sample.value > high:
            alarms.append((sample.t, sample.vital, sample.value))
    return alarms
