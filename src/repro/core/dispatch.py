"""Server-side dispatch: every remote party serves ``handle_frame``.

One :class:`Endpoint` wraps one entity (S-server, A-server, or a
privileged family member / P-device) and routes typed opcodes — parsed
exclusively with the :mod:`repro.core.wire` codecs — to the entity's
handlers.  Protocol code never touches a remote party's methods
directly; it builds a frame, hands it to a transport, and parses the
response.  That boundary is what lets the same protocol run unchanged
over in-process dispatch, the discrete-event simulator, or real TCP
between OS processes (and is enforced by
``python tools/hcpplint.py --rules layering``).

Server-side :class:`~repro.exceptions.ReproError` exceptions serialize
into error responses and re-raise client-side as the same class.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Callable

from repro.crypto.ec import Point
from repro.crypto.hibc import HibeCiphertext, HidsSignature
from repro.crypto.ibe import IbeCiphertext, decrypt_with_point
from repro.crypto.ibs import IbsSignature
from repro.crypto.modes import AuthenticatedCipher
from repro.crypto.peks import MultiKeywordTag, PeksTrapdoor
from repro.sse.index import SecureIndex
from repro.core import wire
from repro.core.accountability import tr_message
from repro.core.aserver import StateAServer
from repro.core.entities import AssignPackage, PDevice, _PrivilegedEntity
from repro.core.protocols.messages import (Envelope, ReplayGuard,
                                           open_envelope, pack_fields,
                                           unpack_fields)
from repro.core.router import RouterEndpoint
from repro.core.sserver import StorageServer, _deserialize_broadcast
from repro.exceptions import (AccessDenied, AuthenticationError,
                              IntegrityError, ParameterError, ReplayError,
                              ReproError, TransportError)

__all__ = ["Endpoint", "SServerEndpoint", "AServerEndpoint",
           "EntityEndpoint", "RouterEndpoint", "bind_sserver",
           "bind_aserver", "bind_entity"]


def _parse_epoch(epoch_b: bytes) -> int:
    """The 8-byte big-endian federation epoch a migrate frame targets."""
    if len(epoch_b) != 8:
        raise ParameterError("federation epoch must be 8 bytes, got %d"
                             % len(epoch_b))
    return int.from_bytes(epoch_b, "big")


class Endpoint:
    """Opcode routing + error serialization around one served entity.

    :attr:`MUTATING_OPS` names the opcodes that change state the entity
    must not lose across a crash — the durable layer journals exactly
    these frames (after they succeed) and replays them through the same
    handlers on recovery.  Read-only opcodes stay off the journal; their
    replay-guard commitments are persisted separately (see
    :meth:`guards`).

    **Reentrancy contract** (the multiplexed async backend dispatches
    pipelined frames from a thread pool, so ``handle_frame`` must
    tolerate concurrent entry): mutating opcodes are *single-writer* —
    they serialize on :attr:`_write_lock`, which keeps the durable
    layer's journal append order well-defined — while read-only opcodes
    run concurrently with each other and with at most one writer.
    Handlers for read opcodes must therefore never mutate shared state
    except through their own locks (:class:`ReplayGuard` is internally
    locked; the S-server's session table has
    :attr:`SServerEndpoint._sessions_lock`).
    """

    MUTATING_OPS: frozenset = frozenset()

    def __init__(self) -> None:
        self._transport = None
        self._ops: dict[bytes, Callable[[list[bytes]], bytes]] = {}
        # Single-writer lock: at most one mutating frame is in a handler
        # at any moment, so journal commits observe a total order.
        self._write_lock = threading.Lock()
        # Per-thread clock override set by :meth:`handle_frame_at`.
        self._pinned = threading.local()

    def guards(self) -> list:
        """The :class:`ReplayGuard` instances whose windows must survive
        a crash (satellite: a restarted endpoint must not reopen its
        replay window)."""
        return []

    def attach(self, transport) -> None:
        """Called by ``Transport.bind``: gives the endpoint its clock and
        the ability to originate frames (e.g. the A-server's step-3 push)."""
        self._transport = transport

    @property
    def now(self) -> float:
        pinned = getattr(self._pinned, "now", None)
        if pinned is not None:
            return pinned
        if self._transport is None:
            raise TransportError("endpoint is not attached to a transport")
        return self._transport.now

    def handle_frame_at(self, frame: bytes, now: float) -> bytes:
        """:meth:`handle_frame` with this thread's clock fixed at ``now``.

        The durable layer journals one timestamp per mutating frame and
        replays the frame under it.  Running the live handler under the
        same value makes replay mint byte-identical artifacts (the TR's
        t_issue, audit leaves) even on a clock that moves while the
        handler runs.  Other threads — concurrent read frames — keep the
        transport's clock.
        """
        self._pinned.now = now
        try:
            return self.handle_frame(frame)
        finally:
            del self._pinned.now

    def handle_frame(self, frame: bytes) -> bytes:
        try:
            opcode, fields = wire.parse_frame(frame)
            handler = self._ops.get(opcode)
            if handler is None:
                raise TransportError("unknown opcode %r" % opcode)
            if opcode in self.MUTATING_OPS:
                with self._write_lock:
                    return wire.ok_response(handler(fields))
            return wire.ok_response(handler(fields))
        except ReproError as exc:
            return wire.error_response(exc)
        except Exception as exc:  # defensive: never kill a server thread
            return wire.error_response(exc)

    @staticmethod
    def _expect(fields: list[bytes], count: int) -> list[bytes]:
        if len(fields) != count:
            raise ParameterError("expected %d frame fields, got %d"
                                 % (count, len(fields)))
        return fields


class SServerEndpoint(Endpoint):
    """The S-server's wire surface: storage, search, emergency, MHI, and
    (when it holds an HIBC credential) cross-domain sessions."""

    # Cross-domain handshakes (OP_XD_HANDSHAKE) also write `_sessions`,
    # but session keys are deliberately ephemeral: a crashed server
    # forgets them and the patient re-handshakes, which is the correct
    # security posture for a session secret.
    #
    # OP_MIGRATE_ACK is the journaled half of a shard handoff: the
    # `install` form must survive a destination crash (it is the
    # durable ack the source's release waits on) and the `release`
    # form must survive a source crash (or recovery would resurrect a
    # collection the ring no longer routes here).
    MUTATING_OPS = frozenset({wire.OP_STORE, wire.OP_GROUP_UPDATE,
                              wire.OP_MHI_STORE, wire.OP_MIGRATE_ACK})

    def __init__(self, server: StorageServer, hibc_node=None,
                 root_public: Point | None = None,
                 federation_key: bytes | None = None) -> None:
        super().__init__()
        self.server = server
        self.hibc_node = hibc_node
        self.root_public = root_public
        # Shards of a federation hold the shared internal-frame key; a
        # standalone server keeps None and rejects every SHARD/MERGE
        # frame (those opcodes are router→shard legs, never client ops).
        self.federation_key = federation_key
        # Established cross-domain session keys, by transcript handle.
        # OP_XD_HANDSHAKE is a *read* opcode (see MUTATING_OPS note), so
        # concurrent handshakes and searches race on this table; the
        # fine-grained lock keeps each access atomic.
        self._sessions: dict[bytes, bytes] = {}
        self._sessions_lock = threading.Lock()
        self._ops = {
            wire.OP_STORE: self._op_store,
            wire.OP_SEARCH: self._op_search,
            wire.OP_SEARCH_MULTI: self._op_search_multi,
            wire.OP_SEARCH_SHARD: self._op_search_shard,
            wire.OP_SEARCH_MERGE: self._op_search_merge,
            wire.OP_GET_BROADCAST: self._op_get_broadcast,
            wire.OP_SEARCH_WRAPPED: self._op_search_wrapped,
            wire.OP_GROUP_UPDATE: self._op_group_update,
            wire.OP_MHI_STORE: self._op_mhi_store,
            wire.OP_MHI_SEARCH: self._op_mhi_search,
            wire.OP_XD_HANDSHAKE: self._op_xd_handshake,
            wire.OP_XD_SEARCH: self._op_xd_search,
            wire.OP_MIGRATE_PULL: self._op_migrate_pull,
            wire.OP_MIGRATE_ACK: self._op_migrate_ack,
        }

    @property
    def _curve(self):
        return self.server.params.curve

    def guards(self) -> list:
        return [self.server._guard]

    def export_state(self) -> bytes:
        return self.server.export_state()

    def load_state(self, blob: bytes) -> None:
        self.server.load_state(blob)

    # -- §IV.B storage -------------------------------------------------------
    def _op_store(self, fields: list[bytes]) -> bytes:
        (pseud_b, env_b, index_b, files_blob, group_d,
         broadcast_b) = self._expect(fields, 6)
        envelope = Envelope.from_bytes(env_b)
        index = SecureIndex.from_bytes(index_b)
        files = wire.decode_files(files_blob)
        # Recompute the SI/Λ digests over what actually arrived and match
        # them against the MACed payload summary (§III.C data integrity).
        summary = pack_fields(pseud_b, index.digest(),
                              wire.files_digest(files))
        if summary != envelope.payload:
            raise IntegrityError("SI/Λ digest mismatch on upload")
        return self.server.handle_store(
            Point.from_bytes(pseud_b, self._curve), envelope, index, files,
            group_d, _deserialize_broadcast(broadcast_b), self.now)

    # -- §IV.D retrieval -----------------------------------------------------
    def _op_search(self, fields: list[bytes]) -> bytes:
        pseud_b, collection_id, env_b = self._expect(fields, 3)
        reply = self.server.handle_search(
            Point.from_bytes(pseud_b, self._curve), collection_id,
            Envelope.from_bytes(env_b), self.now)
        return reply.to_bytes()

    # -- multi-collection / federated search ----------------------------------
    def _op_search_multi(self, fields: list[bytes]) -> bytes:
        pseud_b, cids_b, env_b = self._expect(fields, 3)
        reply = self.server.handle_search_merge(
            Point.from_bytes(pseud_b, self._curve),
            list(unpack_fields(cids_b)), Envelope.from_bytes(env_b), {},
            self.now)
        return reply.to_bytes()

    def _op_search_shard(self, fields: list[bytes]) -> bytes:
        """Router→shard leg: guard-free sub-search, raw chunk reply.

        Federation-authenticated: the trailing tag must verify under
        the shared federation key *before* anything else happens — this
        leg skips the replay-guard commit and answers raw chunks, so an
        unauthenticated peer must never reach it.
        """
        fields = wire.open_internal_frame(self.federation_key,
                                          wire.OP_SEARCH_SHARD, fields)
        pseud_b, cids_b, env_b = self._expect(fields, 3)
        chunks = self.server.handle_search_shard(
            Point.from_bytes(pseud_b, self._curve),
            list(unpack_fields(cids_b)), Envelope.from_bytes(env_b),
            self.now)
        return pack_fields(*[pack_fields(*chunk) for chunk in chunks])

    def _op_search_merge(self, fields: list[bytes]) -> bytes:
        """Router→shard leg: single guarded open + spliced sealed reply.

        Federation-authenticated: the tag covers the cid list and every
        foreign chunk, so the spliced-and-sealed reply can only contain
        chunks the router gathered — never attacker-supplied data.
        """
        fields = wire.open_internal_frame(self.federation_key,
                                          wire.OP_SEARCH_MERGE, fields)
        pseud_b, cids_b, env_b, foreign_b = self._expect(fields, 4)
        foreign: dict[bytes, list[bytes]] = {}
        for entry in unpack_fields(foreign_b):
            cid, chunk_b = unpack_fields(entry, expected=2)
            foreign[cid] = list(unpack_fields(chunk_b))
        reply = self.server.handle_search_merge(
            Point.from_bytes(pseud_b, self._curve),
            list(unpack_fields(cids_b)), Envelope.from_bytes(env_b),
            foreign, self.now)
        return reply.to_bytes()

    # -- shard lifecycle (federation rebalance) ------------------------------
    def _op_migrate_pull(self, fields: list[bytes]) -> bytes:
        """Rebalancer→shard leg: list held keys, or export a slice.

        Federation-authenticated and read-only: the source keeps
        serving everything it exports until the destination's durable
        install is acked and the rebalancer sends the `release` ACK.
        One operand (the epoch) asks for the held-key listing; three
        operands (epoch, cids, roles) export the named slice.
        """
        fields = wire.open_internal_frame(self.federation_key,
                                          wire.OP_MIGRATE_PULL, fields)
        if len(fields) == 1:
            _parse_epoch(fields[0])
            cids, roles = self.server.held_keys()
            return pack_fields(pack_fields(*cids), pack_fields(*roles))
        epoch_b, cids_b, roles_b = self._expect(fields, 3)
        _parse_epoch(epoch_b)
        return self.server.export_partition(
            list(unpack_fields(cids_b)), list(unpack_fields(roles_b)))

    def _op_migrate_ack(self, fields: list[bytes]) -> bytes:
        """Rebalancer→shard leg: the journaled half of a handoff.

        ``install`` adopts an exported slice on the destination;
        ``release`` drops it from the source.  Both forms are mutating
        (the durable layer fsyncs the whole frame before the ack
        leaves) and idempotent, so a resumed migration or a journal
        replay re-applies them safely.  The epoch operand is sealed
        into the federation tag and journaled for audit; the handler
        does not order-check it — recovery replays frames from every
        historical epoch, and staleness is excluded by the rebalancer
        being the manifest's single writer.
        """
        fields = wire.open_internal_frame(self.federation_key,
                                          wire.OP_MIGRATE_ACK, fields)
        mode, epoch_b, payload = self._expect(fields, 3)
        _parse_epoch(epoch_b)
        if mode == b"install":
            self.server.install_partition(payload)
            return b""
        if mode == b"release":
            cids_b, roles_b = unpack_fields(payload, expected=2)
            self.server.release_partition(
                list(unpack_fields(cids_b)), list(unpack_fields(roles_b)))
            return b""
        raise ParameterError("unknown migrate-ack mode %r" % mode)

    # -- §IV.E.1 family-style emergency --------------------------------------
    def _op_get_broadcast(self, fields: list[bytes]) -> bytes:
        pseud_b, collection_id, env_b = self._expect(fields, 3)
        reply = self.server.handle_get_broadcast(
            Point.from_bytes(pseud_b, self._curve), collection_id,
            Envelope.from_bytes(env_b), self.now)
        return reply.to_bytes()

    def _op_search_wrapped(self, fields: list[bytes]) -> bytes:
        pseud_b, collection_id, env_b = self._expect(fields, 3)
        reply = self.server.handle_search_wrapped(
            Point.from_bytes(pseud_b, self._curve), collection_id,
            Envelope.from_bytes(env_b), self.now)
        return reply.to_bytes()

    # -- §IV.C group-state update (ASSIGN push / REVOKE) ---------------------
    def _op_group_update(self, fields: list[bytes]) -> bytes:
        pseud_b, collection_id, env_b = self._expect(fields, 3)
        self.server.handle_revoke(
            Point.from_bytes(pseud_b, self._curve), collection_id,
            Envelope.from_bytes(env_b), self.now)
        return b""

    # -- §IV.E.2 MHI ---------------------------------------------------------
    def _op_mhi_store(self, fields: list[bytes]) -> bytes:
        pseud_b, env_b, role_b, ct_b, tag_b = self._expect(fields, 5)
        envelope = Envelope.from_bytes(env_b)
        summary = pack_fields(role_b, hashlib.sha256(ct_b).digest(),
                              hashlib.sha256(tag_b).digest())
        if summary != envelope.payload:
            raise IntegrityError("MHI ciphertext/tag digest mismatch")
        self.server.handle_mhi_store(
            Point.from_bytes(pseud_b, self._curve), envelope,
            role_b.decode(), IbeCiphertext.from_bytes(ct_b, self._curve),
            MultiKeywordTag.from_bytes(tag_b, self._curve), self.now)
        return b""

    def _op_mhi_search(self, fields: list[bytes]) -> bytes:
        role_b, env_b, trapdoor_b, pkg_public_b = self._expect(fields, 4)
        reply, _matches = self.server.handle_mhi_search(
            role_b.decode(), Envelope.from_bytes(env_b),
            PeksTrapdoor.from_bytes(trapdoor_b, self._curve),
            Point.from_bytes(pkg_public_b, self._curve), self.now)
        return reply.to_bytes()

    # -- §V.A cross-domain ---------------------------------------------------
    def _op_xd_handshake(self, fields: list[bytes]) -> bytes:
        from repro.core.protocols import crossdomain
        if self.hibc_node is None or self.root_public is None:
            raise AuthenticationError(
                "this S-server holds no HIBC credential")
        tuple_b, ct_b, sig_b = self._expect(fields, 3)
        patient_tuple = tuple(tuple_b.decode().split("\x1f"))
        ciphertext = HibeCiphertext.from_bytes(ct_b, self._curve)
        handshake = crossdomain.CrossDomainHandshake(
            patient_tuple=patient_tuple, ciphertext=ciphertext,
            signature=HidsSignature.from_bytes(sig_b, self._curve))
        session_key = crossdomain.accept_session(
            self.hibc_node, handshake, self.server.params, self.root_public)
        handle = crossdomain.session_handle(
            patient_tuple, self.hibc_node.id_tuple, ciphertext)
        with self._sessions_lock:
            self._sessions[handle] = session_key
        return b""

    def _op_xd_search(self, fields: list[bytes]) -> bytes:
        handle, collection_id, env_b = self._expect(fields, 3)
        with self._sessions_lock:
            session_key = self._sessions.get(handle)
        if session_key is None:
            raise AuthenticationError("unknown cross-domain session")
        reply = self.server.handle_search_session(
            session_key, collection_id, Envelope.from_bytes(env_b), self.now)
        return reply.to_bytes()


class AServerEndpoint(Endpoint):
    """The state A-server's wire surface (emergency auth, role keys)."""

    # OP_ROLE_KEY only *reads* the outstanding-nounce table; the table
    # itself is written by OP_EMERGENCY_AUTH, which is journaled.
    MUTATING_OPS = frozenset({wire.OP_REGISTER_PDEVICE,
                              wire.OP_EMERGENCY_AUTH})

    def __init__(self, aserver: StateAServer) -> None:
        super().__init__()
        self.aserver = aserver
        # Registered P-devices' network addresses, for the step-3 push.
        self._pdevice_addresses: dict[bytes, str] = {}
        # Emergency-auth is NOT idempotent (each run mints a fresh
        # nounce and overwrites the outstanding one), so duplicate
        # deliveries from a faulty network must be absorbed here: the
        # signed message ID_i ‖ m′ ‖ t10 doubles as the replay token.
        # The signature's bytes cannot: u + (0, 0) verifies like u.
        self._auth_guard = ReplayGuard()
        self._ops = {
            wire.OP_REGISTER_PDEVICE: self._op_register,
            wire.OP_EMERGENCY_AUTH: self._op_emergency_auth,
            wire.OP_ROLE_KEY: self._op_role_key,
        }

    def guards(self) -> list:
        return [self._auth_guard]

    def export_state(self) -> bytes:
        addresses = [pack_fields(pd, address.encode())
                     for pd, address in
                     sorted(self._pdevice_addresses.items())]
        return pack_fields(self.aserver.export_state(),
                           pack_fields(*addresses),
                           self._auth_guard.pack_state())

    def load_state(self, blob: bytes) -> None:
        aserver_b, addresses_b, guard_b = unpack_fields(blob, expected=3)
        self.aserver.load_state(aserver_b)
        self._pdevice_addresses = {}
        for entry in unpack_fields(addresses_b):
            pd, address = unpack_fields(entry, expected=2)
            self._pdevice_addresses[pd] = address.decode()
        self._auth_guard.load_state(ReplayGuard.unpack_state(guard_b))

    def _op_register(self, fields: list[bytes]) -> bytes:
        pseud_b, address_b = self._expect(fields, 2)
        self.aserver.register_pdevice(
            Point.from_bytes(pseud_b, self.aserver.params.curve))
        self._pdevice_addresses[pseud_b] = address_b.decode()
        return b""

    def _op_emergency_auth(self, fields: list[bytes]) -> bytes:
        pid_b, request, t_req_b, sig_b, pd_b = self._expect(fields, 5)
        physician_id = pid_b.decode()
        t_request = wire.ts_from_bytes(t_req_b)
        token = tr_message(physician_id, request, t_request)
        if self._auth_guard.seen(token):
            raise ReplayError("duplicate emergency-auth request")
        curve = self.aserver.params.curve
        issue = self.aserver.authenticate_emergency(
            physician_id, request, t_request,
            IbsSignature.from_bytes(sig_b, curve),
            Point.from_bytes(pd_b, curve), self.now)
        # Step 3 rides to the registered P-device "simultaneously" with
        # the step-2 reply — one transmission over the wireless link.
        pd_address = self._pdevice_addresses.get(pd_b)
        if pd_address is None:
            raise AuthenticationError(
                "P-device registered no network address")
        passcode_frame = wire.make_frame(
            wire.OP_PASSCODE,
            issue.pdevice_ciphertext.to_bytes(),
            issue.pdevice_signature.to_bytes(),
            wire.ts_to_bytes(issue.t_issue))
        if self._transport is None:
            raise TransportError("endpoint is not attached to a transport")
        wire.parse_response(self._transport.notify(
            self.aserver.address, pd_address, passcode_frame,
            label="emergency/ibe-passcode"))
        # Remember only after the push succeeded: a client retrying a
        # transiently-failed push must be able to re-present the frame.
        self._auth_guard.check_and_remember(Envelope(
            label="emergency-auth", payload=b"", timestamp=t_request,
            tag=token))
        return pack_fields(issue.encrypted_for_physician,
                           issue.physician_signature.to_bytes(),
                           wire.ts_to_bytes(issue.t_issue))

    def _op_role_key(self, fields: list[bytes]) -> bytes:
        pid_b, role_b = self._expect(fields, 2)
        return self.aserver.seal_role_key(pid_b.decode(), role_b.decode())


class EntityEndpoint(Endpoint):
    """A privileged entity's wire surface: ASSIGN delivery, and for
    P-devices the step-3 IBE passcode push."""

    MUTATING_OPS = frozenset({wire.OP_ASSIGN, wire.OP_PASSCODE})

    def __init__(self, entity: _PrivilegedEntity, params,
                 preshared_key: bytes | None = None) -> None:
        super().__init__()
        self.entity = entity
        self.params = params
        self._mu = preshared_key
        self._guard = ReplayGuard()
        self._ops = {wire.OP_ASSIGN: self._op_assign}
        if isinstance(entity, PDevice):
            self._ops[wire.OP_PASSCODE] = self._op_passcode

    def rekey(self, preshared_key: bytes) -> None:
        self._mu = preshared_key

    def guards(self) -> list:
        return [self._guard]

    def export_state(self) -> bytes:
        # μ is re-established by the bind-time factory (it comes from the
        # patient, not from disk), so it is not part of the durable state.
        entity_blob = (self.entity.export_state()
                       if hasattr(self.entity, "export_state") else b"")
        return pack_fields(entity_blob, self._guard.pack_state())

    def load_state(self, blob: bytes) -> None:
        entity_blob, guard_b = unpack_fields(blob, expected=2)
        if entity_blob:
            self.entity.load_state(entity_blob)
        self._guard.load_state(ReplayGuard.unpack_state(guard_b))

    def _op_assign(self, fields: list[bytes]) -> bytes:
        (env_b,) = self._expect(fields, 1)
        if self._mu is None:
            raise AccessDenied(
                "%s shares no pre-established key μ" % self.entity.name)
        envelope = Envelope.from_bytes(env_b)
        payload = open_envelope(self._mu, envelope, self.now, self._guard,
                                expected_label="assign")
        plaintext = AuthenticatedCipher(self._mu).decrypt(payload)
        self.entity.receive_assign(
            AssignPackage.from_bytes(plaintext, self.params))
        return b""

    def _op_passcode(self, fields: list[bytes]) -> bytes:
        ct_b, sig_b, t_issue_b = self._expect(fields, 3)
        package = self.entity.package
        if package is None:
            raise AccessDenied("P-device holds no ASSIGN package")
        plaintext = decrypt_with_point(
            package.pseudonym.private,
            IbeCiphertext.from_bytes(ct_b, self.params.curve))
        pid_b, nounce, _t11 = unpack_fields(plaintext, expected=3)
        self.entity.receive_passcode(
            pid_b.decode(), nounce,
            t_issue=wire.ts_from_bytes(t_issue_b),
            signature=IbsSignature.from_bytes(sig_b, self.params.curve))
        return b""


# -- binding helpers ---------------------------------------------------------
def bind_sserver(transport, server: StorageServer, hibc_node=None,
                 root_public: Point | None = None,
                 federation_key: bytes | None = None):
    """Ensure an :class:`SServerEndpoint` serves ``server.address``.

    When the transport already routes the address to another process
    (static socket routes), nothing is bound locally and None returns.

    ``federation_key`` marks the server as a federation shard: the
    internal OP_SEARCH_SHARD/OP_SEARCH_MERGE legs are accepted when
    their tags verify under it (None — the default — rejects them all).
    """
    endpoint = transport.endpoint_at(server.address)
    if endpoint is None:
        if transport.has_route(server.address):
            return None
        endpoint = SServerEndpoint(server, hibc_node=hibc_node,
                                   root_public=root_public,
                                   federation_key=federation_key)
        transport.bind(server.address, endpoint)
        return endpoint
    if hibc_node is not None:
        endpoint.hibc_node = hibc_node
        endpoint.root_public = root_public
    if federation_key is not None:
        endpoint.federation_key = federation_key
    return endpoint


def bind_aserver(transport, aserver: StateAServer):
    endpoint = transport.endpoint_at(aserver.address)
    if endpoint is None:
        if transport.has_route(aserver.address):
            return None
        endpoint = AServerEndpoint(aserver)
        transport.bind(aserver.address, endpoint)
    return endpoint


def bind_entity(transport, entity: _PrivilegedEntity, params,
                preshared_key: bytes | None = None):
    endpoint = transport.endpoint_at(entity.address)
    if endpoint is None:
        if transport.has_route(entity.address):
            return None
        endpoint = EntityEndpoint(entity, params,
                                  preshared_key=preshared_key)
        transport.bind(entity.address, endpoint)
        return endpoint
    if preshared_key is not None:
        endpoint.rekey(preshared_key)
    return endpoint
