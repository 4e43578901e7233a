"""Durable endpoints: state-machine replication at the wire-frame boundary.

A :class:`DurableEndpoint` wraps a dispatch endpoint and journals every
*successful mutating frame* (the opcodes in the endpoint's
``MUTATING_OPS``) to an append-only journal — fsynced **before** the
response leaves, so an acknowledged mutation is on stable storage.
Because the journal replays through the very same ``handle_frame``
handlers, all six HCPP protocols gain crash consistency without a line
of per-protocol persistence code.

Recovery = load the newest usable snapshot (if any) + replay the journal
suffix.  Replay runs against a :class:`_RecoveryTransport` whose clock
reads each record's journaled timestamp (freshness windows judge frames
against their original time) and which absorbs outbound pushes (the
A-server's step-3 delivery already happened before the crash — the
P-device journals it on *its own* journal).

Three state surfaces are wrapped:

* S-server — collections, MHI blobs, broadcast headers;
* A-server — TR traces + audit-log leaves; recovery re-runs
  ``verify_chain()`` and cross-checks the rebuilt Merkle checkpoint
  against the one journaled with the last committed frame;
* P-device — RD records (journaled via the ``on_record`` hook, since
  RDs are minted client-side, not by an incoming frame), ASSIGN/REVOKE
  group state, and passcode-session state.

Replay-guard windows (satellite: a restarted endpoint must not reopen
its replay window) persist two ways: read-only frames journal their
guard commitments as ``K_GUARD`` records; mutating frames regenerate
theirs during replay, so guard journaling is suspended while one is
being handled.
"""

from __future__ import annotations

import contextlib
import os
import threading

from repro.core import wire
from repro.core.accountability import DeviceRecord
from repro.core.auditlog import AuditLog
from repro.core.dispatch import (AServerEndpoint, EntityEndpoint,
                                 SServerEndpoint)
from repro.core.protocols.messages import (ReplayGuard, pack_fields, ts_ms,
                                           unpack_fields)
from repro.exceptions import (JournalCorruptionError, RecoveryError,
                              TransientTransportError)
from repro.store.journal import (HEADER_SIZE, K_FRAME, K_GUARD, K_KEY,
                                 K_META, K_RD, K_ROSTER, K_SNAP,
                                 JournalWriter, read_journal)
from repro.store.snapshot import read_snapshot, write_snapshot

__all__ = ["DurableStore", "DurableEndpoint", "DurableSServerEndpoint",
           "DurableAServerEndpoint", "DurablePDeviceEndpoint",
           "bind_durable_sserver", "bind_durable_aserver",
           "bind_durable_pdevice"]

#: Default torn-write cut: header + the 9-byte body framing + 3 payload
#: bytes — deep enough that a prefix of the real record hits the disk.
DEFAULT_TORN_CUT = HEADER_SIZE + 12

_STATUS_OK = b"\x00"


class DurableStore:
    """One endpoint's durable home: ``<data_dir>/<name>.journal`` plus
    its ``<name>.snap.<id>`` snapshot series."""

    def __init__(self, data_dir: str, name: str, *,
                 fsync_policy: str = "always",
                 snapshot_every: int = 0) -> None:
        os.makedirs(data_dir, exist_ok=True)
        self.data_dir = data_dir
        self.name = name
        self.fsync_policy = fsync_policy
        #: Mutations between automatic snapshots (0 = journal-only).
        self.snapshot_every = snapshot_every
        self.journal_path = os.path.join(data_dir, name + ".journal")
        self._writer: JournalWriter | None = None
        self.torn_repairs = 0
        self.last_torn_loss = 0

    def writer(self) -> JournalWriter:
        if self._writer is None:
            self._writer = JournalWriter(self.journal_path,
                                         fsync_policy=self.fsync_policy)
        return self._writer

    def drop_writer(self) -> None:
        """Forget the open writer (crash simulation / pre-recovery)."""
        if self._writer is not None:
            try:
                self._writer.close()
            except OSError:  # pragma: no cover - already torn shut
                pass
            self._writer = None

    def read(self, *, repair: bool = True):
        def on_torn(tail_offset: int, size: int) -> None:
            self.torn_repairs += 1
            self.last_torn_loss = size - tail_offset
        return read_journal(self.journal_path, repair=repair,
                            on_torn=on_torn)


class _RecoveryTransport:
    """Stand-in transport during journal replay.

    ``now`` is set to each replayed record's journaled timestamp, so
    envelope freshness and replay-guard pruning behave exactly as they
    did originally.  Outbound traffic is absorbed with an OK ack: the
    original delivery happened before the crash, and the receiving
    durable endpoint owns that state on its own journal.
    """

    def __init__(self) -> None:
        self.now = 0.0

    def notify(self, src: str, dst: str, frame: bytes,
               label: str = "") -> bytes:
        return wire.ok_response()

    def request(self, src: str, dst: str, frame: bytes, label: str = "",
                reply_label: str | None = None) -> bytes:
        return wire.ok_response()


class DurableEndpoint:
    """Crash-consistent wrapper around one dispatch endpoint.

    The wrapped ("inner") endpoint is built by ``factory()`` — which
    must return it with *empty* mutable state — and every bit of its
    durable state is then reconstructed from disk.  ``crash()`` discards
    the inner endpoint entirely; ``recover()`` builds a fresh one and
    replays the journal into it.  The invariant: in-memory state is
    always a pure function of (factory, journal, snapshots).
    """

    def __init__(self, store: DurableStore, factory, address: str) -> None:
        self._store = store
        self._factory = factory
        self.address = address
        self._lock = threading.RLock()
        self._transport = None
        self._inner = None
        # Thread currently inside a mutating handler (guard journaling
        # is suspended for that thread only: replay regenerates its
        # commitments, but *concurrent* read-op guards must still land).
        self._suspend_thread: int | None = None
        self._fault_policy = None
        self._snapshot_id = 0
        self._mutations = 0
        self.recoveries = 0
        self.recover()

    # -- transport surface ---------------------------------------------------
    def attach(self, transport) -> None:
        self._transport = transport
        if self._inner is not None:
            self._inner.attach(transport)

    @property
    def now(self) -> float:
        return self._transport.now

    def __getattr__(self, name: str):
        # Delegate everything else (server/aserver/entity accessors,
        # MUTATING_OPS, ...) to the live inner endpoint.
        inner = object.__getattribute__(self, "_inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)

    # -- the wire boundary ---------------------------------------------------
    def handle_frame(self, frame: bytes) -> bytes:
        try:
            opcode, _ = wire.parse_frame(frame)
        except Exception:
            opcode = None
        with self._lock:
            inner = self._inner
            if inner is None:
                raise TransientTransportError(
                    "durable endpoint %r is down" % self.address)
            if opcode in type(inner).MUTATING_OPS:
                return self._handle_mutating(inner, frame)
        # Read-only frame: handled *outside* the wrapper lock, so the
        # pipelined async backend can run reads concurrently (with each
        # other and with at most one writer — the inner endpoint's
        # reentrancy contract).  Durability is untouched: the only disk
        # write a read can cause is its guard commitment, and the
        # on_remember listener takes this lock itself.
        response = inner.handle_frame(frame)
        with self._lock:
            # A guard-listener append may have torn mid-handling (an
            # armed crash): the inner endpoint's blanket exception
            # wrapper turned that into an error response, but a dead
            # process answers nothing — surface it as the transport
            # refusal it really is so the client's retry fires.
            if self._inner is None:
                raise TransientTransportError(
                    "durable endpoint %r crashed mid-write"
                    % self.address)
        return response

    def _handle_mutating(self, inner, frame: bytes) -> bytes:
        # Caller holds self._lock — mutations are single-writer through
        # here AND through the inner endpoint's own _write_lock, so the
        # journal append order is the order handlers ran in.
        #
        # Suspend guard journaling for this thread: replay will
        # regenerate the guard commitment through the same handler, and
        # journaling it separately would make the replayed tag collide
        # with the replayed frame.
        # The handler runs under exactly the (ms-quantized) timestamp
        # the journal records for it: the clock moves mid-handler — a
        # real clock on every read, nested pushes (the A-server's step
        # 3) on a simulated one — and replay, which sets the recovery
        # clock to the journaled value, must mint byte-identical
        # artifacts (t_issue in the TR, the audit leaf).
        started = self._now_ms() / 1000.0
        self._suspend_thread = threading.get_ident()
        try:
            response = inner.handle_frame_at(frame, started)
        finally:
            self._suspend_thread = None
        if response[:1] == _STATUS_OK:
            # Commit point: the record is fsynced before the ack
            # leaves.  An acknowledged mutation survives any crash.
            self._commit(frame, started)
        return response

    def _commit(self, frame: bytes, started: float) -> None:
        # Caller holds self._lock.
        with self._journal() as journal:
            journal.append(K_FRAME, pack_fields(frame, self._commit_extra()),
                           ts_ms(started))
        self._mutations += 1
        self._maybe_snapshot()

    @contextlib.contextmanager
    def _journal(self):
        """The journal writer, for the one append made inside the block.

        Every record this endpoint writes goes through here.  Caller
        holds self._lock.  A torn write (the armed crash firing) means
        the process died mid-append: the endpoint goes down and the
        caller sees the transport refusal a dead process gives.  The
        record was never acknowledged, so losing it is correct — the
        client's retry re-applies it after recovery truncates the torn
        tail.
        """
        try:
            yield self._store.writer()
        except JournalCorruptionError:
            self._die()
            raise TransientTransportError(
                "durable endpoint %r crashed mid-write" % self.address)

    def _now_ms(self) -> int:
        return ts_ms(self._transport.now) if self._transport else 0

    def _commit_extra(self) -> bytes:
        """Per-endpoint commitment journaled beside each mutating frame
        (the A-server stores its audit checkpoint here)."""
        return b""

    # -- crash / restart lifecycle -------------------------------------------
    def register_with(self, fault_policy) -> None:
        """Let a :class:`FaultPolicy` drive this endpoint's lifecycle:
        ``policy.crash(address)`` discards memory, ``restart`` recovers."""
        self._fault_policy = fault_policy
        fault_policy.register_recovery(self.address, self.crash,
                                       self.recover)

    def crash(self, during_write: bool = False) -> None:
        """Simulate process death.

        ``during_write=True`` arms the journal so the *next* mutation's
        append reaches disk only partially (the torn-tail path); the
        state discard then happens at that moment, mid-frame.
        """
        with self._lock:
            if during_write:
                self._store.writer().arm_torn_write(DEFAULT_TORN_CUT)
                return
            self._die(mark=False)

    def _die(self, mark: bool = True) -> None:
        # Caller holds self._lock.
        self._inner = None
        self._store.drop_writer()
        if mark and self._fault_policy is not None:
            self._fault_policy.mark_crashed(self.address)

    def recover(self) -> None:
        """Rebuild the endpoint from disk: snapshot + journal suffix."""
        with self._lock:
            self._store.drop_writer()
            records = self._store.read(repair=True)
            inner = self._factory()
            stub = _RecoveryTransport()
            inner.attach(stub)
            self._configure_inner(inner)

            # Latest usable snapshot wins; a damaged one falls back to
            # an earlier one (the journal is never truncated, so a full
            # replay from genesis always remains possible).  The next
            # id follows the last one a record names: it overwrites a
            # snapshot whose K_SNAP tore, never a named one.
            start = 0
            next_snapshot_id = 0
            for position, record in enumerate(records):
                if record.kind != K_SNAP:
                    continue
                snapshot_id = int.from_bytes(record.payload, "big")
                next_snapshot_id = snapshot_id + 1
                try:
                    body = read_snapshot(self._store.data_dir,
                                         self._store.name, snapshot_id)
                except JournalCorruptionError:
                    continue
                inner.load_state(body)
                start = position + 1

            # Wrapper-level config (the P-device's μ) is not part of the
            # snapshot body; re-apply the last value committed at or
            # before the replay start so the suffix decrypts.
            last_key = None
            for record in records[:start]:
                if record.kind == K_KEY:
                    last_key = record
            if last_key is not None:
                self._replay_record(inner, last_key)

            last_extra = None
            for record in records[start:]:
                if record.kind in (K_META, K_SNAP):
                    if (record.kind == K_META
                            and record.payload != self._store.name.encode()):
                        raise RecoveryError(
                            "journal %r belongs to endpoint %r"
                            % (self._store.journal_path,
                               record.payload.decode(errors="replace")))
                    continue
                if record.kind == K_FRAME:
                    frame, extra = unpack_fields(record.payload, expected=2)
                    stub.now = record.ts_ms / 1000.0
                    response = inner.handle_frame(frame)
                    if response[:1] != _STATUS_OK:
                        try:
                            wire.parse_response(response)
                        except Exception as exc:
                            raise RecoveryError(
                                "journaled frame no longer replays at %r: %s"
                                % (self.address, exc)) from exc
                    last_extra = extra
                elif record.kind == K_GUARD:
                    index_b, tag, ts_b = unpack_fields(record.payload,
                                                       expected=3)
                    guards = inner.guards()
                    if index_b[0] < len(guards):
                        guards[index_b[0]].insert(tag, float(ts_b.decode()))
                else:
                    self._replay_record(inner, record)

            self._verify_recovered(inner, last_extra)
            self._attach_listeners(inner)
            if self._transport is not None:
                inner.attach(self._transport)
            self._inner = inner
            self._mutations = 0
            self._snapshot_id = next_snapshot_id
            self.recoveries += 1
            if not records:
                with self._journal() as journal:
                    journal.append(K_META, self._store.name.encode())

    def _configure_inner(self, inner) -> None:
        """Re-apply bind-time configuration (credentials, pre-shared
        keys) that lives outside the journal."""

    def _replay_record(self, inner, record) -> None:
        """Replay an endpoint-specific record kind (K_RD, K_KEY, ...).

        Caller holds self._lock.
        """
        raise RecoveryError("unexpected %r record in %r journal"
                            % (record.kind, self._store.name))

    def _verify_recovered(self, inner, last_extra: bytes | None) -> None:
        """Post-replay integrity check (endpoint-specific)."""

    def _attach_listeners(self, inner) -> None:
        for index, guard in enumerate(inner.guards()):
            guard.on_remember = self._make_guard_listener(index)

    def _make_guard_listener(self, index: int):
        def on_remember(tag: bytes, timestamp: float) -> None:
            with self._lock:
                if (self._suspend_thread == threading.get_ident()
                        or self._inner is None):
                    return
                with self._journal() as journal:
                    journal.append(K_GUARD,
                                   pack_fields(bytes([index]), tag,
                                               repr(timestamp).encode()),
                                   ts_ms(timestamp))
        return on_remember

    # -- snapshots ------------------------------------------------------------
    def _maybe_snapshot(self) -> None:
        # Caller holds self._lock.
        if (self._store.snapshot_every > 0
                and self._mutations >= self._store.snapshot_every):
            self.snapshot()

    def snapshot(self) -> int:
        """Write an atomic snapshot now; returns its id.  Recovery after
        this point loads the snapshot and replays only the suffix."""
        with self._lock:
            if self._inner is None:
                raise RecoveryError("cannot snapshot a crashed endpoint")
            snapshot_id = self._snapshot_id
            body = self._inner.export_state()
            write_snapshot(self._store.data_dir, self._store.name,
                           snapshot_id, body)
            with self._journal() as journal:
                journal.append(K_SNAP, snapshot_id.to_bytes(4, "big"),
                               self._now_ms())
            self._snapshot_id += 1
            self._mutations = 0
            return snapshot_id


class DurableSServerEndpoint(DurableEndpoint):
    """Durable S-server: collections, MHI blobs, broadcast headers."""

    def __init__(self, store: DurableStore, factory, address: str, *,
                 hibc_node=None, root_public=None,
                 federation_key=None) -> None:
        # Bind-time configuration must be armed *before* the base
        # constructor runs recovery: a journal can hold federation-
        # sealed frames (a rebalance's OP_MIGRATE_ACK installs), which
        # only replay once the rebuilt endpoint holds the key.
        self._hibc_node = hibc_node
        self._root_public = root_public
        self._federation_key = federation_key
        super().__init__(store, factory, address)

    # bind_sserver assigns these on an already-bound endpoint when the
    # cross-domain flow hands the server an HIBC credential; remember
    # them on the wrapper so every post-crash rebuild re-applies them.
    @property
    def hibc_node(self):
        return self._hibc_node

    @hibc_node.setter
    def hibc_node(self, value) -> None:
        self._hibc_node = value
        if self._inner is not None:
            self._inner.hibc_node = value

    @property
    def root_public(self):
        return self._root_public

    @root_public.setter
    def root_public(self, value) -> None:
        self._root_public = value
        if self._inner is not None:
            self._inner.root_public = value

    # The federation-internal frame key, like the HIBC credential, is
    # bind-time configuration (re-derived from the identity key, never
    # journaled) — kept on the wrapper so recovery re-arms the rebuilt
    # endpoint's SHARD/MERGE authentication.
    @property
    def federation_key(self):
        return self._federation_key

    @federation_key.setter
    def federation_key(self, value) -> None:
        self._federation_key = value
        if self._inner is not None:
            self._inner.federation_key = value

    def _configure_inner(self, inner) -> None:
        inner.hibc_node = self._hibc_node
        inner.root_public = self._root_public
        inner.federation_key = self._federation_key


class DurableAServerEndpoint(DurableEndpoint):
    """Durable A-server: TR traces and the tamper-evident audit log.

    Every committed frame carries the post-append audit checkpoint;
    recovery re-verifies the whole hash chain *and* that the rebuilt
    Merkle root matches the committed checkpoint byte-for-byte — a
    journal that replays into a different audit history is corruption,
    never silently served.
    """

    def _commit_extra(self) -> bytes:
        checkpoint = self._inner.aserver.audit_log.checkpoint()
        return pack_fields(checkpoint.size.to_bytes(8, "big"),
                           checkpoint.merkle_root, checkpoint.chain_head)

    def _attach_listeners(self, inner) -> None:
        super()._attach_listeners(inner)
        inner.aserver.on_roster_change = self._on_roster_change

    def _on_roster_change(self, hospital: str, physician_id: str,
                          signed_in: bool) -> None:
        # Roster changes are local admin actions, not wire frames, so
        # they get their own record kind; replay re-applies them in
        # order, and replayed auths then see the roster that was in
        # force when they were originally committed.
        with self._lock:
            if self._inner is None:
                return
            with self._journal() as journal:
                journal.append(K_ROSTER,
                               pack_fields(b"+" if signed_in else b"-",
                                           hospital.encode(),
                                           physician_id.encode()),
                               self._now_ms())

    def _replay_record(self, inner, record) -> None:
        # Caller holds self._lock.
        if record.kind != K_ROSTER:
            super()._replay_record(inner, record)
        sense, hospital_b, pid_b = unpack_fields(record.payload, expected=3)
        if sense == b"+":
            inner.aserver.sign_in(hospital_b.decode(), pid_b.decode())
        else:
            inner.aserver.sign_out(hospital_b.decode(), pid_b.decode())

    def _verify_recovered(self, inner, last_extra: bytes | None) -> None:
        inner.aserver.audit_log.verify_chain()
        if not last_extra:
            return
        size_b, merkle_root, chain_head = unpack_fields(last_extra,
                                                        expected=3)
        checkpoint = inner.aserver.audit_log.checkpoint()
        if (checkpoint.size != int.from_bytes(size_b, "big")
                or checkpoint.merkle_root != merkle_root
                or checkpoint.chain_head != chain_head):
            raise RecoveryError(
                "recovered audit log does not match the checkpoint "
                "committed before the crash at %r" % self.address)


class DurablePDeviceEndpoint(DurableEndpoint):
    """Durable P-device: RD evidence, ASSIGN/REVOKE group state,
    passcode-session state.

    RD records are minted *client-side* (the emergency protocol calls
    ``record_transaction`` directly, no frame arrives), so they ride the
    journal as ``K_RD`` records via the entity's ``on_record`` hook.
    The pre-shared key μ is journaled as ``K_KEY`` when the patient
    (re)establishes it — the journal doubles as the device's keystore,
    so a from-disk recovery can decrypt replayed ASSIGN frames.
    """

    def __init__(self, store: DurableStore, factory, address: str,
                 preshared_key: bytes | None = None) -> None:
        self._mu_value = preshared_key
        super().__init__(store, factory, address)

    def rekey(self, preshared_key: bytes) -> None:
        with self._lock:
            if self._inner is not None and preshared_key != self._mu_value:
                # Journaled first: a torn K_KEY leaves the old μ in force.
                with self._journal() as journal:
                    journal.append(K_KEY, preshared_key)
            self._mu_value = preshared_key
            if self._inner is not None:
                self._inner.rekey(preshared_key)

    def _configure_inner(self, inner) -> None:
        if self._mu_value is not None:
            inner.rekey(self._mu_value)

    def _replay_record(self, inner, record) -> None:
        # Caller holds self._lock.
        if record.kind == K_KEY:
            self._mu_value = record.payload
            inner.rekey(record.payload)
            return
        if record.kind != K_RD:
            super()._replay_record(inner, record)
        # on_record is not attached yet during replay, so this does not
        # re-journal; record_transaction also regenerates the §VI.A
        # alert the patient saw.
        inner.entity.record_transaction(
            DeviceRecord.from_bytes(record.payload,
                                    inner.entity.params.curve))

    def _attach_listeners(self, inner) -> None:
        super()._attach_listeners(inner)
        inner.entity.on_record = self._on_record

    def _on_record(self, record: DeviceRecord) -> None:
        with self._lock:
            if self._inner is None:
                return
            with self._journal() as journal:
                journal.append(K_RD, record.to_bytes(), self._now_ms())
            self._mutations += 1
            self._maybe_snapshot()


# -- state resets ------------------------------------------------------------
# The factories reuse the *same* entity objects (client-side code holds
# references to them, and the A-server's PKG master secret cannot be
# re-drawn), but scrub every piece of mutable state a real process death
# would lose.  Recovery then reconstructs that state purely from disk.

def _reset_sserver(server) -> None:
    server._collections = {}
    server._mhi = []
    server._guard = ReplayGuard()
    server.observations = []
    server.deleted_abnormal = 0


def _reset_aserver(aserver) -> None:
    # The in-memory duty roster survives the reset (replaying K_ROSTER
    # records over it is idempotent: sign-in is a set add), so clients
    # holding a reference to the aserver see no roster flicker while
    # recovery runs; a fresh process rebuilds it purely from the journal.
    aserver.traces = []
    aserver.audit_log = AuditLog()
    aserver._pdevices = {}
    aserver._outstanding = {}
    aserver.on_roster_change = None


def _reset_pdevice(device) -> None:
    device.package = None
    device._sse = None
    device.records = []
    device._alert_log = []
    device.emergency_mode = False
    device.expected_physician = None
    device._expected_nounce = None
    device.pending_t_issue = None
    device.pending_signature = None
    device.on_record = None


# -- binding helpers ---------------------------------------------------------
def bind_durable_sserver(transport, server, store: DurableStore, *,
                         hibc_node=None, root_public=None,
                         fault_policy=None, federation_key=None,
                         **bind_kwargs) -> DurableSServerEndpoint:
    """Serve ``server`` durably at its address.

    Unlike :func:`repro.core.dispatch.bind_sserver`, this constructs the
    endpoint so that its whole state comes from ``store`` — binding over
    an existing data dir *is* recovery.
    """
    def factory():
        _reset_sserver(server)
        return SServerEndpoint(server)

    durable = DurableSServerEndpoint(store, factory, server.address,
                                     hibc_node=hibc_node,
                                     root_public=root_public,
                                     federation_key=federation_key)
    transport.bind(server.address, durable, **bind_kwargs)
    if fault_policy is not None:
        durable.register_with(fault_policy)
    return durable


def bind_durable_aserver(transport, aserver, store: DurableStore, *,
                         fault_policy=None,
                         **bind_kwargs) -> DurableAServerEndpoint:
    def factory():
        _reset_aserver(aserver)
        return AServerEndpoint(aserver)

    durable = DurableAServerEndpoint(store, factory, aserver.address)
    transport.bind(aserver.address, durable, **bind_kwargs)
    if fault_policy is not None:
        durable.register_with(fault_policy)
    return durable


def bind_durable_pdevice(transport, device, params, store: DurableStore, *,
                         preshared_key: bytes | None = None,
                         fault_policy=None,
                         **bind_kwargs) -> DurablePDeviceEndpoint:
    def factory():
        _reset_pdevice(device)
        return EntityEndpoint(device, params)

    durable = DurablePDeviceEndpoint(store, factory, device.address,
                                     preshared_key=preshared_key)
    transport.bind(device.address, durable, **bind_kwargs)
    if fault_policy is not None:
        durable.register_with(fault_policy)
    return durable
