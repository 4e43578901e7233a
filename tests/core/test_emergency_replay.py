"""Replays of a captured OP_EMERGENCY_AUTH frame (§IV.E.2 step 1).

The A-server's duplicate check keys on the signed message
ID_i ‖ m′ ‖ t10, not on the bytes of the signature, and the request time
must lie within the freshness window of the A-server's clock.  A replay
in any form — the frame itself, its signature or timestamp re-encoded,
or the frame re-sent after later requests have moved the guard window
on — fails with ReplayError and leaves no trace: no TR, no new passcode,
no push.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core import wire
from repro.core.protocols.emergency import pdevice_emergency_retrieval
from repro.crypto.ec import Point
from repro.crypto.ibs import IbsSignature
from repro.exceptions import ParameterError, ReplayError
from repro.net.transport import LoopbackTransport

REQUEST = b"m':one-time-passcode"


@pytest.fixture()
def deployment(privileged_system):
    """One completed P-device break-glass over loopback: the P-device is
    registered with the A-server and every endpoint is bound."""
    system = privileged_system
    physician = system.any_physician()
    system.state.sign_in(physician.hospital, physician.physician_id)
    transport = LoopbackTransport()
    pdevice_emergency_retrieval(physician, system.pdevice, system.state,
                                system.sserver, transport, ["cardiology"])
    pushes = []
    notify = transport.notify

    def counting_notify(src, dst, frame, label):
        pushes.append(label)
        return notify(src, dst, frame, label)

    transport.notify = counting_notify
    return SimpleNamespace(
        physician=physician, aserver=system.state, transport=transport,
        pd_public=system.pdevice.package.pseudonym.public, pushes=pushes,
        curve=system.params.curve)


def _frame(dep, t_request: float, signature: bytes) -> bytes:
    return wire.make_frame(wire.OP_EMERGENCY_AUTH,
                           dep.physician.physician_id.encode(), REQUEST,
                           wire.ts_to_bytes(t_request), signature,
                           dep.pd_public.to_bytes())


def _signed_frame(dep) -> "tuple[bytes, IbsSignature, float]":
    t_request = dep.transport.now
    signature = dep.physician.sign_passcode_request(REQUEST, t_request)
    return _frame(dep, t_request, signature.to_bytes()), signature, t_request


def _send(dep, frame: bytes) -> bytes:
    return wire.parse_response(dep.transport.request(
        dep.physician.address, dep.aserver.address, frame,
        label="emergency/auth-request", reply_label="emergency/passcode"))


def _effects(dep):
    return (len(dep.aserver.traces), dict(dep.aserver._outstanding),
            len(dep.pushes))


def _assert_replay_rejected(dep, frame: bytes) -> None:
    before = _effects(dep)
    with pytest.raises(ReplayError):
        _send(dep, frame)
    assert _effects(dep) == before


def _encode_point(curve, x: int, y: int) -> bytes:
    length = curve.field_bytes
    return b"\x04" + x.to_bytes(length, "big") + y.to_bytes(length, "big")


def _above_p(curve, point: Point) -> "bytes | None":
    """``point`` with one coordinate written as itself + p, when that
    still fits the field width (None otherwise)."""
    limit = 1 << (8 * curve.field_bytes)
    if point.x + curve.p < limit:
        return _encode_point(curve, point.x + curve.p, point.y)
    if point.y + curve.p < limit:
        return _encode_point(curve, point.x, point.y + curve.p)
    return None


def _reencoded(signature: IbsSignature, u_bytes: bytes) -> bytes:
    return (len(u_bytes).to_bytes(2, "big") + u_bytes
            + signature.v.to_bytes(32, "big"))


class TestEmergencyAuthReplay:
    def test_identical_frame(self, deployment):
        frame, _, _ = _signed_frame(deployment)
        _send(deployment, frame)
        _assert_replay_rejected(deployment, frame)

    def test_signature_plus_the_two_torsion_point(self, deployment):
        """u + (0, 0) verifies like u; the guard must not tell them
        apart by their bytes."""
        dep = deployment
        frame, signature, t_request = _signed_frame(dep)
        _send(dep, frame)
        shifted = IbsSignature(u=signature.u + Point(0, 0, dep.curve),
                               v=signature.v)
        _assert_replay_rejected(dep,
                                _frame(dep, t_request, shifted.to_bytes()))

    def test_signature_with_a_coordinate_above_p(self, deployment):
        dep = deployment
        while True:
            frame, signature, t_request = _signed_frame(dep)
            u_bytes = _above_p(dep.curve, signature.u)
            if u_bytes is not None:
                break
            dep.transport._wait(1.0)
        _send(dep, frame)
        _assert_replay_rejected(
            dep, _frame(dep, t_request, _reencoded(signature, u_bytes)))

    def test_timestamp_with_a_leading_zero_byte(self, deployment):
        """t10 decodes from any width, so its bytes are no replay token
        either: the guard keys on the canonical signed message."""
        dep = deployment
        frame, signature, t_request = _signed_frame(dep)
        _send(dep, frame)
        wide = wire.make_frame(wire.OP_EMERGENCY_AUTH,
                               dep.physician.physician_id.encode(), REQUEST,
                               b"\x00" + wire.ts_to_bytes(t_request),
                               signature.to_bytes(), dep.pd_public.to_bytes())
        _assert_replay_rejected(dep, wide)

    def test_frame_resent_after_the_guard_window_moved_on(self, deployment):
        """A later request ages the first one's tag out of the 60 s
        window; the unchanged first frame must still be refused."""
        dep = deployment
        frame, _, _ = _signed_frame(dep)
        _send(dep, frame)
        dep.transport._wait(125.0)
        later, _, _ = _signed_frame(dep)
        _send(dep, later)
        _assert_replay_rejected(dep, frame)

    def test_stale_request_refused_by_the_aserver(self, deployment):
        dep = deployment
        t_request = dep.transport.now
        signature = dep.physician.sign_passcode_request(REQUEST, t_request)
        before = _effects(dep)
        with pytest.raises(ReplayError):
            dep.aserver.authenticate_emergency(
                dep.physician.physician_id, REQUEST, t_request, signature,
                dep.pd_public, t_request + 60.5)
        assert _effects(dep) == before


class TestCanonicalPointEncoding:
    def test_coordinate_at_or_above_p_is_refused(self, params):
        curve = params.curve
        point = next(pt for pt in (params.generator * k
                                   for k in range(1, 200))
                     if _above_p(curve, pt) is not None)
        assert Point.from_bytes(point.to_bytes(), curve) == point
        with pytest.raises(ParameterError):
            Point.from_bytes(_above_p(curve, point), curve)
        with pytest.raises(ParameterError):
            Point.from_bytes(_encode_point(curve, curve.p, 0), curve)
