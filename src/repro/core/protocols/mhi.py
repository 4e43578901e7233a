"""MHI storage and retrieval — paper §IV.E.2 (role-based, IBE + PEKS).

Storage (the P-device, in advance, offline-precomputable):

    P-device → S-server : TP_p, IBE_IDr(MHI) ‖ PEKS_σ(ID_r, kw), t12,
                          HMAC_ν(TP_p ‖ IBE_IDr ‖ PEKS_σ ‖ t12)

The role identity ID_r is a general descriptive string
``Date‖Duty‖ServiceArea`` — only the A-server can extract Γ_r, and it
does so only for an authenticated on-duty emergency caregiver.  Each
day's window is made searchable for the following 5 days.

Retrieval (after the physician has obtained Γ_r from the A-server):

    1. physician → S-server : ID_r, TD_r(kw), t13, HMAC_ρ(…)
    2. S-server → physician : IBE_IDr(MHI), t14, HMAC_ρ(…)

with ρ = ê(Γ_r, PK_S) = ê(PK_r, Γ_S) derived locally by both sides.
The role key travels sealed under ϖ (the physician's A-server session
key), so the role-key round is safe to carry over any transport.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto.ec import Point
from repro.crypto.hashes import h1_identity
from repro.crypto.ibe import FullIdent, IbeCiphertext, IdentityKeyPair
from repro.crypto.modes import AuthenticatedCipher
from repro.crypto.nike import shared_key_from_points
from repro.crypto.peks import MultiKeywordPeks, RolePeks
from repro.ehr.mhi import MhiWindow
from repro.net.transport import as_transport
from repro.core import dispatch, wire
from repro.core.aserver import StateAServer
from repro.core.entities import PDevice, Physician
from repro.core.protocols.base import ProtocolStats
from repro.core.protocols.messages import (Envelope, open_envelope,
                                           pack_fields, seal, unpack_fields)
from repro.core.sserver import StorageServer
from repro.exceptions import AccessDenied


def role_identity_for(date: str, duty: str = "emergency",
                      service_area: str = "default") -> str:
    """The paper's ID_r = "Date ‖ Duty ‖ ServiceArea" convention."""
    return "role:%s|%s|%s" % (date, duty, service_area)


@dataclass(frozen=True)
class MhiStoreResult:
    role_identity: str
    ciphertext_bytes: int
    tag_bytes: int
    stats: ProtocolStats


@dataclass(frozen=True)
class MhiRetrieveResult:
    role_identity: str
    keyword: str
    windows: list[MhiWindow]
    stats: ProtocolStats


def mhi_store(pdevice: PDevice, server: StorageServer,
              aserver_public: Point, network,
              window: MhiWindow, role_identity: str) -> MhiStoreResult:
    """Encrypt one MHI window under ID_r, tag it, upload it."""
    transport = as_transport(network)
    dispatch.bind_sserver(transport, server)
    started_at = transport.now
    mark = transport.mark()
    package = pdevice.package
    if package is None:
        raise AccessDenied("P-device has no ASSIGN package (no pseudonym)")

    ibe = FullIdent(pdevice.params, aserver_public)
    ciphertext = ibe.encrypt(role_identity, window.to_bytes(), pdevice.rng)
    peks = MultiKeywordPeks(pdevice.params, aserver_public)
    # Searchable under the date keywords (the paper's 5-day horizon).
    tag = peks.tag(role_identity, list(window.searchable_days), pdevice.rng)

    role_b = role_identity.encode()
    ct_b = ciphertext.to_bytes()
    tag_b = tag.to_bytes()
    # HMAC_ν binds the role and digests of what actually travels; the
    # server endpoint recomputes both digests over the received bytes.
    payload = pack_fields(role_b, hashlib.sha256(ct_b).digest(),
                          hashlib.sha256(tag_b).digest())
    envelope = seal(package.nu, "mhi-store", payload, transport.now)
    frame = wire.make_frame(wire.OP_MHI_STORE,
                            package.pseudonym.public.to_bytes(),
                            envelope.to_bytes(), role_b, ct_b, tag_b)
    wire.parse_response(transport.notify(
        pdevice.address, server.address, frame, label="mhi/store"))
    return MhiStoreResult(
        role_identity=role_identity,
        ciphertext_bytes=ciphertext.size_bytes(),
        tag_bytes=tag.size_bytes(),
        stats=ProtocolStats.capture("mhi-store", transport, mark,
                                    started_at))


def mhi_retrieve(physician: Physician, aserver: StateAServer,
                 server: StorageServer, network,
                 role_identity: str, keyword: str) -> MhiRetrieveResult:
    """Obtain Γ_r, search the encrypted MHI, decrypt the matches.

    The physician must already hold an authenticated emergency session at
    the A-server (the passcode flow) — :meth:`StateAServer.extract_role_key`
    enforces it server-side before Γ_r leaves, sealed under ϖ.
    """
    transport = as_transport(network)
    dispatch.bind_sserver(transport, server)
    dispatch.bind_aserver(transport, aserver)
    started_at = transport.now
    mark = transport.mark()

    # Role-key issuance (rides on the authenticated session; one round).
    frame = wire.make_frame(wire.OP_ROLE_KEY,
                            physician.physician_id.encode(),
                            role_identity.encode())
    sealed = wire.parse_response(transport.request(
        physician.address, aserver.address, frame,
        label="mhi/role-key-request", reply_label="mhi/role-key"))
    omega = physician.session_key_with(aserver.identity_key.public)
    role_private = Point.from_bytes(AuthenticatedCipher(omega).decrypt(sealed),
                                    physician.params.curve)
    role_key = IdentityKeyPair(
        identity=role_identity,
        public=h1_identity(physician.params, role_identity),
        private=role_private)

    # Step 1: ID_r, TD_r(kw) under HMAC_ρ.
    trapdoor = RolePeks.trapdoor(role_key.private, physician.params, keyword)
    rho = shared_key_from_points(server.identity_key.public,
                                 role_key.private)
    request = seal(rho, "mhi-search",
                   role_identity.encode() + trapdoor.point.to_bytes(),
                   transport.now)
    frame = wire.make_frame(wire.OP_MHI_SEARCH, role_identity.encode(),
                            request.to_bytes(), trapdoor.to_bytes(),
                            aserver.public_key.to_bytes())
    response = transport.request(physician.address, server.address, frame,
                                 label="mhi/search",
                                 reply_label="mhi/results")

    # Step 2: IBE_IDr(MHI) under HMAC_ρ.
    reply = Envelope.from_bytes(wire.parse_response(response))
    payload = open_envelope(rho, reply, transport.now,
                            expected_label="mhi-results")
    matches = [IbeCiphertext.from_bytes(ct_b, physician.params.curve)
               for ct_b in unpack_fields(payload)]

    ibe = FullIdent(physician.params, aserver.public_key)
    windows = [MhiWindow.from_bytes(ibe.decrypt(role_key, ct))
               for ct in matches]
    physician.received_mhi.extend(windows)
    return MhiRetrieveResult(
        role_identity=role_identity,
        keyword=keyword,
        windows=windows,
        stats=ProtocolStats.capture("mhi-retrieve", transport, mark,
                                    started_at))
