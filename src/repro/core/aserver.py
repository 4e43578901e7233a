"""A-servers: the trusted government authentication infrastructure (§III.A).

* :class:`StateAServer` — one per state; runs the IBC domain (PKG),
  assigns physician / S-server key pairs and the hospitals' pools of
  temporary (pseudonym-seed) pairs, maintains the published "today's
  on-duty physicians" roster, authenticates emergency caregivers, issues
  one-time passcodes to P-devices, extracts MHI role keys, and keeps the
  TR accountability traces.
* :class:`FederalAServer` — the root PKG of the HIBC tree; creates state
  A-servers as level-2 children and hospitals at level 3, enabling
  cross-domain availability (§V.A).

The A-server *never* holds patient SSE keys — this is exactly the
difference from the Lee–Lee escrow baseline the paper critiques.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.ec import Point
from repro.crypto.hashes import h1_identity
from repro.crypto.hibc import HibcNode, HibcRoot
from repro.crypto.ibe import (IbeCiphertext, IdentityKeyPair,
                              PrivateKeyGenerator, encrypt_to_point)
from repro.crypto.ibs import IbsSignature, sign as ibs_sign
from repro.crypto.ibs import verify as ibs_verify
from repro.crypto.modes import AuthenticatedCipher
from repro.crypto.nike import StaticKeyCache
from repro.crypto.params import DomainParams
from repro.crypto.pseudonym import TemporaryKeyPair, issue_temporary_pair
from repro.crypto.rng import HmacDrbg
from repro.core.accountability import TraceRecord, rd_message, tr_message
from repro.core.auditlog import AuditLog
from repro.core.protocols.messages import (DEFAULT_MAX_SKEW_S, pack_fields,
                                           ts_ms, unpack_fields)
from repro.exceptions import (AccessDenied, AuthenticationError,
                              ParameterError, ReplayError)

NOUNCE_BYTES = 16  # the paper spells it "nounce"; we keep its name


@dataclass(frozen=True)
class PasscodeIssue:
    """The A-server's paired responses (steps 2 and 3 of §IV.E.2).

    ``to_physician``: E′_ϖ(nounce) with the A-server's IBS.
    ``to_pdevice``:  IBE_TPp(ID_i ‖ nounce ‖ t11) with the A-server's IBS.
    """

    physician_id: str
    encrypted_for_physician: bytes
    physician_signature: IbsSignature
    pdevice_ciphertext: IbeCiphertext
    pdevice_signature: IbsSignature
    t_issue: float

    def size_to_physician(self) -> int:
        return (len(self.encrypted_for_physician)
                + self.physician_signature.size_bytes())

    def size_to_pdevice(self) -> int:
        return (self.pdevice_ciphertext.size_bytes()
                + self.pdevice_signature.size_bytes())


class StateAServer:
    """One state's trusted authentication server."""

    def __init__(self, name: str, params: DomainParams, rng: HmacDrbg,
                 hibc_node: HibcNode | None = None) -> None:
        self.name = name
        self.address = "aserver://" + name
        self.params = params
        self._rng = rng
        self._pkg = PrivateKeyGenerator(params, rng)
        self.identity_key = self._pkg.extract("aserver:" + name)
        self.hibc_node = hibc_node
        # hospital -> set of physician ids currently signed in (the
        # published "today's on-duty physicians" lists, §IV.E.2).
        self._duty_roster: dict[str, set[str]] = {}
        # Registered P-devices: pseudonym bytes -> public point.
        self._pdevices: dict[bytes, Point] = {}
        self.traces: list[TraceRecord] = []
        # Tamper-evident commitment over the traces (accountability, §V.A).
        self.audit_log = AuditLog()
        # Issued nounces awaiting use: physician_id -> nounce.
        self._outstanding: dict[str, bytes] = {}
        # Optional listener ``(hospital, physician_id, signed_in)`` fired
        # on every roster change — the durable layer journals these so a
        # from-disk recovery can re-check replayed auths against the
        # roster that was in force when they were committed.
        self.on_roster_change = None
        # ϖ per physician, derived once (memory only, never snapshotted).
        self._static_keys = StaticKeyCache()

    # -- domain management (system setup, §IV.A) --------------------------------
    @property
    def public_key(self) -> Point:
        """P_pub = s0·P, the domain public key."""
        return self._pkg.public_key

    def enroll(self, identity: str) -> IdentityKeyPair:
        """Assign PK_i/Γ_i to a physician or S-server in this domain."""
        return self._pkg.extract(identity)

    def issue_temporary_pool(self, count: int) -> list[TemporaryKeyPair]:
        """The pool of temporary key pairs handed to hospitals for
        patients' pseudonym self-generation (§IV.A)."""
        return [issue_temporary_pair(self.params, self._pkg.master_secret,
                                     self._rng) for _ in range(count)]

    # -- duty roster --------------------------------------------------------
    def sign_in(self, hospital: str, physician_id: str) -> None:
        self._duty_roster.setdefault(hospital, set()).add(physician_id)
        if self.on_roster_change is not None:
            self.on_roster_change(hospital, physician_id, True)

    def sign_out(self, hospital: str, physician_id: str) -> None:
        self._duty_roster.get(hospital, set()).discard(physician_id)
        if self.on_roster_change is not None:
            self.on_roster_change(hospital, physician_id, False)

    def is_on_duty(self, physician_id: str) -> bool:
        return any(physician_id in ids for ids in self._duty_roster.values())

    def duty_roster(self, hospital: str) -> frozenset[str]:
        """The published on-duty list (public, checkable by anyone)."""
        return frozenset(self._duty_roster.get(hospital, set()))

    # -- P-device registration (emergency mode) ---------------------------------
    def register_pdevice(self, pseudonym: Point) -> None:
        """A P-device entering emergency mode connects and registers TP_p."""
        self._pdevices[pseudonym.to_bytes()] = pseudonym

    # -- emergency authentication (§IV.E.2 steps 1–3) ---------------------------
    def authenticate_emergency(self, physician_id: str, request: bytes,
                               t_request: float,
                               signature: IbsSignature,
                               pdevice_pseudonym: Point,
                               now: float) -> PasscodeIssue:
        """Verify the physician's signed request; issue the one-time passcode.

        Checks, in order: the freshness of t10 against this server's
        clock; the IBS on (ID_i ‖ m′ ‖ t10); the on-duty roster; P-device
        registration.  On success, generates the nounce, prepares both
        responses, and records the TR.
        """
        # Quantize to the millisecond wire resolution: every signed/stored
        # artifact then derives from the exact double a remote decoder
        # reconstructs, so signatures survive serialization.
        t_request = ts_ms(t_request) / 1000.0
        now = ts_ms(now) / 1000.0
        if abs(now - t_request) > DEFAULT_MAX_SKEW_S:
            raise ReplayError(
                "stale passcode request from %r: sent %.1f, now %.1f "
                "(skew limit %.0fs)" % (physician_id, t_request, now,
                                        DEFAULT_MAX_SKEW_S))
        if not ibs_verify(self.params, self.public_key, physician_id,
                          tr_message(physician_id, request, t_request),
                          signature):
            raise AuthenticationError(
                "physician %r: bad signature on passcode request"
                % physician_id)
        if not self.is_on_duty(physician_id):
            raise AccessDenied(
                "physician %r is not on any published duty roster"
                % physician_id)
        pd_key = pdevice_pseudonym.to_bytes()
        if pd_key not in self._pdevices:
            raise AuthenticationError("P-device pseudonym not registered "
                                      "(device not in emergency mode)")
        nounce = self._rng.random_bytes(NOUNCE_BYTES)
        self._outstanding[physician_id] = nounce

        # Step 2: E′_ϖ(nounce) to the physician under the SOK key ϖ.
        encrypted = AuthenticatedCipher(self._omega(physician_id)).encrypt(
            nounce, self._rng)
        sig_phys = ibs_sign(
            self.params, self.identity_key,
            pack_fields(physician_id.encode(), pd_key, encrypted,
                        ts_ms(now).to_bytes(8, "big")),
            self._rng)

        # Step 3: IBE_TPp(ID_i ‖ nounce ‖ t11) to the P-device.  The IBS on
        # the transaction (ID_i, TP_p, t11) doubles as the RD signature the
        # P-device stores as evidence (§IV.E.2).
        plaintext = pack_fields(physician_id.encode(), nounce,
                                ts_ms(now).to_bytes(8, "big"))
        ciphertext = encrypt_to_point(self.params, self.public_key,
                                      pdevice_pseudonym, plaintext, self._rng)
        sig_pd = ibs_sign(self.params, self.identity_key,
                          rd_message(physician_id, pd_key, now), self._rng)

        # Accountability: TR = (ID_i, TP_p, t10, t11, IBS_Γi), committed
        # into the tamper-evident audit log.
        trace = TraceRecord(
            physician_id=physician_id, patient_pseudonym=pd_key,
            request=request, t_request=t_request, t_issue=now,
            physician_signature=signature)
        self.traces.append(trace)
        self.audit_log.append(trace.to_bytes())
        return PasscodeIssue(
            physician_id=physician_id,
            encrypted_for_physician=encrypted,
            physician_signature=sig_phys,
            pdevice_ciphertext=ciphertext,
            pdevice_signature=sig_pd,
            t_issue=now)

    # -- MHI role keys (§IV.E.2) ---------------------------------------------
    def extract_role_key(self, physician_id: str,
                         role_identity: str) -> IdentityKeyPair:
        """Hand Γ_r for a role string to an *authenticated, on-duty*
        physician who holds an outstanding passcode.

        Role strings look like ``Date‖Duty‖ServiceArea``; only the
        A-server can produce their private keys, which is what makes the
        role-based access control bind.
        """
        if physician_id not in self._outstanding:
            raise AccessDenied(
                "physician %r has no authenticated emergency session"
                % physician_id)
        if not self.is_on_duty(physician_id):
            raise AccessDenied("physician %r went off duty" % physician_id)
        return self._pkg.extract(role_identity)

    def seal_role_key(self, physician_id: str, role_identity: str) -> bytes:
        """Γ_r wrapped for the wire: E′_ϖ(Γ_r) under the SOK key ϖ.

        The dispatch layer serves this to an authenticated physician; only
        the holder of Γ_i can derive ϖ = ê(Γ_A, PK_i) = ê(PK_A, Γ_i) and
        unwrap the role private point.
        """
        role_key = self.extract_role_key(physician_id, role_identity)
        return AuthenticatedCipher(self._omega(physician_id)).encrypt(
            role_key.private.to_bytes(), self._rng)

    def _omega(self, physician_id: str) -> bytes:
        """ϖ = ê(Γ_A, PK_i), the static SOK key with one physician."""
        return self._static_keys.get(self.identity_key.private,
                                     h1_identity(self.params, physician_id))

    def traces_for(self, patient_pseudonym: bytes) -> list[TraceRecord]:
        """The patient's post-emergency TR request (§V.A accountability)."""
        return [tr for tr in self.traces
                if tr.patient_pseudonym == patient_pseudonym]

    # -- durable state ------------------------------------------------------
    def export_state(self) -> bytes:
        """Serialize the protocol-critical state for a snapshot.

        The audit log is *not* serialized separately: its entries are
        exactly ``trace.to_bytes()`` in order, so :meth:`load_state`
        re-commits each recovered trace and rebuilds a byte-identical
        chain — the durable layer then cross-checks the recovered
        checkpoint against the one journaled before the crash.
        """
        roster = [pack_fields(hospital.encode(),
                              *[p.encode() for p in sorted(ids)])
                  for hospital, ids in sorted(self._duty_roster.items())]
        pdevices = sorted(self._pdevices)
        traces = [tr.to_bytes() for tr in self.traces]
        outstanding = [pack_fields(pid.encode(), nounce)
                       for pid, nounce in sorted(self._outstanding.items())]
        return pack_fields(pack_fields(*roster), pack_fields(*pdevices),
                           pack_fields(*traces), pack_fields(*outstanding))

    def load_state(self, blob: bytes) -> None:
        """Inverse of :meth:`export_state` — restore from a snapshot."""
        roster_b, pdevices_b, traces_b, outstanding_b = \
            unpack_fields(blob, expected=4)
        curve = self.params.curve
        self._duty_roster = {}
        for entry in unpack_fields(roster_b):
            fields = unpack_fields(entry)
            self._duty_roster[fields[0].decode()] = {
                f.decode() for f in fields[1:]}
        self._pdevices = {pd: Point.from_bytes(pd, curve)
                          for pd in unpack_fields(pdevices_b)}
        self.traces = [TraceRecord.from_bytes(tr, curve)
                       for tr in unpack_fields(traces_b)]
        self.audit_log = AuditLog()
        for trace in self.traces:
            self.audit_log.append(trace.to_bytes())
        self._outstanding = {}
        for entry in unpack_fields(outstanding_b):
            pid, nounce = unpack_fields(entry, expected=2)
            self._outstanding[pid.decode()] = nounce


class FederalAServer:
    """The federal root: level 1 of the HIBC tree (§IV.A).

    *"The A-server of the federal government act[s] as the root PKG.
    The federal A-server is at the same time an entity at level 1."*
    """

    def __init__(self, params: DomainParams, rng: HmacDrbg) -> None:
        self.params = params
        self._rng = rng
        self._root = HibcRoot(params, rng)
        self.entity_node = self._root.extract_child("federal-a-server", rng)
        self._states: dict[str, StateAServer] = {}
        self._state_nodes: dict[str, HibcNode] = {}

    @property
    def root_public(self) -> Point:
        """Q_0 = s_0·P: the tree-wide verification key."""
        return self._root.root_public

    def create_state_server(self, state_name: str) -> StateAServer:
        """Level-2 setup: a state A-server with its own IBC domain + HIBC key."""
        if state_name in self._states:
            raise ParameterError("state %r already exists" % state_name)
        node = self.entity_node.extract_child("state:" + state_name, self._rng)
        server = StateAServer(state_name, self.params,
                              self._rng.fork(state_name), hibc_node=node)
        self._states[state_name] = server
        self._state_nodes[state_name] = node
        return server

    def create_hospital_node(self, state_name: str,
                             hospital_name: str) -> HibcNode:
        """Level-3 setup: hospitals (and their physicians / S-servers)."""
        node = self._state_nodes.get(state_name)
        if node is None:
            raise ParameterError("unknown state %r" % state_name)
        return node.extract_child("hospital:" + hospital_name, self._rng)

    def issue_patient_node(self, hospital_node: HibcNode,
                           rng: HmacDrbg) -> HibcNode:
        """§V.A: a *temporary* level-4 HIBC pair for a patient, under the
        hospital he visited.  The leaf identity is a random pseudonym so
        the credential links to no person — it only proves membership in
        the federal tree, which is all cross-domain S-servers check."""
        pseudonym = "patient:" + rng.random_bytes(16).hex()
        return hospital_node.extract_child(pseudonym, self._rng)

    def state(self, state_name: str) -> StateAServer:
        server = self._states.get(state_name)
        if server is None:
            raise ParameterError("unknown state %r" % state_name)
        return server
