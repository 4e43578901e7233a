"""HCPP entities: patient, family, P-device, physician (§III.A).

Each entity is a state holder — keys, indexes, records — while the
message flows live in :mod:`repro.core.protocols`.  The paper's definitions:

* **Patient** = a person plus computing facilities (home PC for storage,
  cell phone for retrieval).  Holds the SSE secret S = {a,b,c,d,1^γ}, the
  file key s, the keyword index KI, the dictionary, and the privilege
  manager; self-generates pseudonyms from the hospital's temporary pair.
* **Family** = a trusted person holding everything needed to search
  (the ASSIGN package) and capable of *subjective judgment* about
  physician access rights.
* **P-device** = a patient-owned device: ASSIGN package + the dictionary
  gate + emergency mode + the RD record log + the MHI encryption duty.
* **Physician** = a licensed healthcare provider with an IBC key pair
  from the state A-server; in emergencies authenticates as the on-duty
  caregiver.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.broadcast import ReceiverSecret
from repro.crypto.ec import Point
from repro.crypto.hmac_impl import constant_time_equal, hmac_sha256
from repro.crypto.ibe import IdentityKeyPair
from repro.crypto.ibs import IbsSignature, sign as ibs_sign
from repro.crypto.memo import LruMemo
from repro.crypto.nike import (StaticKeyCache, derive_shared_key,
                               shared_key_from_points, sok_value)
from repro.crypto.params import DomainParams
from repro.crypto.pseudonym import TemporaryKeyPair, self_generate
from repro.crypto.rng import HmacDrbg
from repro.ehr.dictionary import KeywordDictionary, canonicalize
from repro.ehr.keyindex import KeywordIndex
from repro.ehr.mhi import MhiWindow, VitalsGenerator
from repro.ehr.phi import PhiCollection
from repro.ehr.records import Category, PhiFile, make_phi_file
from repro.sse.index import SecureIndex, Trapdoor
from repro.sse.multiuser import (PrivilegeManager, WrappedTrapdoor,
                                 recover_d, wrap_trapdoor)
from repro.sse.scheme import Sse1Scheme, SseKeys, keygen
from repro.core.accountability import DeviceRecord, tr_message
from repro.core.protocols.messages import ReplayGuard, pack_fields, ts_ms
from repro.exceptions import AccessDenied, ParameterError, SearchError

PRIVILEGE_CAPACITY = 8  # family members + devices per patient


@dataclass(frozen=True)
class AssignPackage:
    """The ASSIGN payload (paper §IV.C):

    E′_μ(TP_p ‖ ν ‖ a ‖ b ‖ c ‖ d ‖ SI ‖ KI ‖ dictionary ‖ s ‖ X)

    — serialized by :meth:`to_bytes` so the privilege-assignment protocol
    ships real bytes (and the experiments can weigh them).
    """

    pseudonym: TemporaryKeyPair       # TP_p (a per-entity derived pair)
    nu: bytes                         # ν: shared key with the S-server
    sse_keys: SseKeys                 # a, b, c, d(initial), s
    collection_id: bytes              # the handle standing in for "SI"
    keyword_index: KeywordIndex       # KI
    dictionary: KeywordDictionary
    be_secret: ReceiverSecret         # X
    be_capacity: int
    server_address: str

    def to_bytes(self, params: DomainParams) -> bytes:
        be_blob = pack_fields(
            self.be_secret.leaf.to_bytes(4, "big"),
            *self.be_secret.path_keys)
        return pack_fields(
            self.pseudonym.public.to_bytes(),
            self.pseudonym.private.to_bytes(),
            self.nu,
            self.sse_keys.to_bytes(),
            self.collection_id,
            self.keyword_index.to_bytes(),
            self.dictionary.to_bytes(),
            be_blob,
            self.be_capacity.to_bytes(4, "big"),
            self.server_address.encode(),
        )

    def size_bytes(self, params: DomainParams) -> int:
        return len(self.to_bytes(params))

    @classmethod
    def from_bytes(cls, data: bytes, params: DomainParams) -> "AssignPackage":
        """Parse the wire form (the receiving entity's side of ASSIGN)."""
        from repro.core.protocols.messages import unpack_fields
        fields = unpack_fields(data, expected=10)
        (pub, priv, nu, keys, collection_id, ki, dictionary, be_blob,
         capacity, server_address) = fields
        be_fields = unpack_fields(be_blob)
        be_secret = ReceiverSecret(
            leaf=int.from_bytes(be_fields[0], "big"),
            path_keys=tuple(be_fields[1:]))
        return cls(
            pseudonym=TemporaryKeyPair(
                public=Point.from_bytes(pub, params.curve),
                private=Point.from_bytes(priv, params.curve)),
            nu=nu,
            sse_keys=SseKeys.from_bytes(keys),
            collection_id=collection_id,
            keyword_index=KeywordIndex.from_bytes(ki),
            dictionary=KeywordDictionary.from_bytes(dictionary),
            be_secret=be_secret,
            be_capacity=int.from_bytes(capacity, "big"),
            server_address=server_address.decode(),
        )


class Patient:
    """The HCPP user: person + home PC + cell phone."""

    def __init__(self, name: str, params: DomainParams, pkg_public: Point,
                 temporary_pair: TemporaryKeyPair, rng: HmacDrbg) -> None:
        self.name = name
        self.address = "patient://" + name
        self.params = params
        self.pkg_public = pkg_public
        self.rng = rng
        self._base_pair = temporary_pair
        # g = ê(PK_S, Γ) per S-server key: ν of a pseudonym derived from Γ
        # is g^ρ.  Memory only, like every SOK value.
        self._server_values = LruMemo(StaticKeyCache.CAPACITY)
        # System setup (§IV.A): SSE keygen on the home PC.
        self.sse_keys: SseKeys = keygen(rng)
        self.sse = Sse1Scheme(self.sse_keys)
        self.collection = PhiCollection()
        self.dictionary = KeywordDictionary()
        self.privileges = PrivilegeManager(PRIVILEGE_CAPACITY, rng)
        # Pre-shared keys μ, one per privileged entity (§IV.C).
        self._mu: dict[str, bytes] = {}
        # Collection handles per S-server address.
        self.collection_ids: dict[str, bytes] = {}
        # The pseudonym currently bound to each stored collection.
        self.upload_pseudonyms: dict[str, TemporaryKeyPair] = {}
        # Client-side freshness window over server replies (§IV.B applies
        # to both directions: a recorded reply must not be replayable).
        self.replay_guard = ReplayGuard()

    # -- pseudonyms -----------------------------------------------------------
    def fresh_pseudonym(self) -> TemporaryKeyPair:
        """Self-generate an unlinkable pair TP′ = ρTP, Γ′ = ρΓ (§IV.B)."""
        return self_generate(self._base_pair, self.params, self.rng)

    def session_key_with(self, server_public: Point,
                         pseudonym: TemporaryKeyPair) -> bytes:
        """ν = ê(Γ_p, PK_S), derived locally — no key exchange messages.

        For a pseudonym derived here, Γ_p = ρΓ and ν's value is
        ê(PK_S, Γ)^ρ: one G2 power of a value paired once per S-server
        key.  Any other pair is paired as ê(PK_S, Γ_p) (the pairing is
        symmetric): the S-server's long-lived key takes the prepared
        slot, not the pseudonym's.
        """
        base = self._base_pair.private
        if pseudonym.rho is None or pseudonym.origin != base:
            return shared_key_from_points(server_public, pseudonym.private)
        value = self._server_values.get(server_public, sok_value,
                                        server_public, base)
        return derive_shared_key(value ** pseudonym.rho)

    # -- PHI authoring ----------------------------------------------------
    def add_record(self, category: Category, keywords: list[str],
                   medical_content: str, server_address: str,
                   created_at: float = 0.0) -> PhiFile:
        """Author one PHI file (after a diagnosis/test, §IV.B)."""
        canonical = [self.dictionary.add(kw) for kw in keywords]
        phi_file = make_phi_file(
            rng=self.rng, category=category, keywords=canonical,
            medical_content=medical_content,
            patient_fields={"name": self.name}, created_at=created_at)
        self.collection.add(phi_file, server_address)
        return phi_file

    def import_collection(self, collection: PhiCollection) -> None:
        """Adopt a pre-generated workload (benchmarks)."""
        self.collection = collection
        for keyword in collection.index.keywords():
            self.dictionary.add(keyword)

    # -- upload preparation (§IV.B) -----------------------------------------
    def build_upload(self) -> tuple[SecureIndex, dict[bytes, bytes]]:
        """BuildIndex + encrypt the collection: SI and Λ = E′_s(F)."""
        index = self.sse.build_index(self.collection.keyword_map(), self.rng)
        files = self.sse.encrypt_collection(self.collection.plaintext_map(),
                                            self.rng)
        return index, files

    # -- privilege assignment (§IV.C) ----------------------------------------
    def preshared_key(self, entity_name: str) -> bytes:
        """μ: established out of band (at home) with each trusted entity."""
        key = self._mu.get(entity_name)
        if key is None:
            key = self.rng.random_bytes(32)
            self._mu[entity_name] = key
        return key

    def make_assign_package(self, entity_name: str,
                            server_address: str) -> AssignPackage:
        """Everything a privileged entity needs to search on my behalf."""
        collection_id = self.collection_ids.get(server_address)
        if collection_id is None:
            raise ParameterError("no collection stored at %r yet"
                                 % server_address)
        return AssignPackage(
            pseudonym=self.fresh_pseudonym(),
            nu=b"",  # filled by the protocol, which knows the server key
            sse_keys=self.sse_keys,
            collection_id=collection_id,
            keyword_index=self.collection.index,
            dictionary=self.dictionary,
            be_secret=self.privileges.assign(entity_name),
            be_capacity=self.privileges.capacity,
            server_address=server_address,
        )

    # -- retrieval helpers -----------------------------------------------------
    def trapdoor(self, keyword: str) -> Trapdoor:
        if keyword not in self.dictionary:
            raise SearchError("keyword not in my dictionary")
        return self.sse.trapdoor(canonicalize(keyword))

    def decrypt_results(self, blobs: list[bytes]) -> list[PhiFile]:
        """E′⁻¹_s on fid-prefixed ciphertexts returned by the S-server."""
        files = []
        for blob in blobs:
            plaintext = self.sse.decrypt_file(blob[16:])
            files.append(PhiFile.from_bytes(plaintext))
        return files


class _PrivilegedEntity:
    """Shared behaviour of family and P-device once ASSIGN has run."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.package: AssignPackage | None = None
        self._sse: Sse1Scheme | None = None

    def receive_assign(self, package: AssignPackage) -> None:
        self.package = package
        self._sse = Sse1Scheme(package.sse_keys)

    def _require_package(self) -> AssignPackage:
        if self.package is None:
            raise AccessDenied("%s has no ASSIGN package" % self.name)
        return self.package

    @property
    def sse(self) -> Sse1Scheme:
        self._require_package()
        assert self._sse is not None
        return self._sse

    def recover_group_secret(self, broadcast_blob) -> bytes:
        """Open BE_U(d) with my X — raises RevokedError if I'm cut off."""
        package = self._require_package()
        return recover_d(broadcast_blob, package.be_secret,
                         package.be_capacity)

    def wrapped_trapdoor(self, keyword: str, d: bytes) -> WrappedTrapdoor:
        """TD_U(kw) = θ_d(TD(kw)) (§IV.E.1)."""
        return wrap_trapdoor(d, self.sse.trapdoor(keyword))

    def decrypt_results(self, blobs: list[bytes]) -> list[PhiFile]:
        return [PhiFile.from_bytes(self.sse.decrypt_file(blob[16:]))
                for blob in blobs]


class Family(_PrivilegedEntity):
    """A trusted family member (emergency contact).

    Carries *subjective judgment*: :meth:`approves` models the human
    decision whether a requesting physician looks legitimate (§IV.E.1).
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.address = "family://" + name

    @staticmethod
    def approves(physician_id: str, on_duty: bool) -> bool:
        """The family's access-rights judgment: trust on-duty caregivers."""
        return on_duty


class PDevice(_PrivilegedEntity):
    """The patient's monitoring device (smartphone / wearable / IMD)."""

    def __init__(self, name: str, params: DomainParams,
                 rng: HmacDrbg) -> None:
        super().__init__(name)
        self.address = "pdevice://" + name
        self.params = params
        self.rng = rng
        self.emergency_mode = False
        self.records: list[DeviceRecord] = []
        self.vitals = VitalsGenerator(rng.fork("vitals"))
        self._expected_nounce: bytes | None = None
        self._alert_log: list[str] = []  # §VI.A countermeasure: cell alerts
        # Step-3 delivery state (who the pending passcode was issued for,
        # plus the A-server's RD signature evidence).
        self.expected_physician: str | None = None
        self.pending_t_issue: float | None = None
        self.pending_signature: IbsSignature | None = None
        #: Optional listener invoked as ``on_record(record)`` after an RD
        #: is appended — the durable layer journals it there (RDs are
        #: minted client-side, not by an incoming wire frame).
        self.on_record = None

    def enter_emergency_mode(self) -> None:
        """The paper's emergency button."""
        self.emergency_mode = True

    def exit_emergency_mode(self) -> None:
        self.emergency_mode = False
        self._expected_nounce = None
        self.expected_physician = None
        self.pending_t_issue = None
        self.pending_signature = None

    def expect_nounce(self, nounce: bytes) -> None:
        self._expected_nounce = nounce

    def receive_passcode(self, physician_id: str, nounce: bytes,
                         t_issue: float, signature: IbsSignature) -> None:
        """Step 3 lands (§IV.E.2): the decrypted IBE passcode delivery.

        The device remembers which physician the passcode was issued for;
        the signature becomes the RD evidence once the transaction runs.
        """
        self.expected_physician = physician_id
        self._expected_nounce = nounce
        self.pending_t_issue = t_issue
        self.pending_signature = signature

    def check_passcode(self, entered: bytes) -> bool:
        """Constant-size comparison of the physician-entered passcode."""
        if self._expected_nounce is None:
            return False
        return constant_time_equal(hmac_sha256(b"pc", entered),
                                   hmac_sha256(b"pc",
                                               self._expected_nounce))

    def validate_keywords(self, keywords: list[str]) -> list[str]:
        """The dictionary gate before any emergency search (§IV.E.2)."""
        package = self._require_package()
        return package.dictionary.validate(keywords)

    def record_transaction(self, record: DeviceRecord) -> None:
        """Store the RD and fire the §VI.A alert to the patient's phone."""
        self.records.append(record)
        self._alert_log.append(
            "PHI-retrieval secrets accessed by %s at t=%.1f"
            % (record.physician_id, record.t_issue))
        if self.on_record is not None:
            self.on_record(record)

    @property
    def alerts(self) -> list[str]:
        return list(self._alert_log)

    # -- durable state ------------------------------------------------------
    def export_state(self) -> bytes:
        """Serialize the device's evidence + session state for a snapshot:
        the ASSIGN package (which carries the REVOKE group secret X and
        the current SSE keys), the RD log, emergency-mode/passcode state,
        and the alert log."""
        package = (self.package.to_bytes(self.params)
                   if self.package is not None else b"")
        records = [rd.to_bytes() for rd in self.records]
        pending = pack_fields(
            (self.expected_physician or "").encode(),
            self._expected_nounce or b"",
            b"" if self.pending_t_issue is None
            else ts_ms(self.pending_t_issue).to_bytes(8, "big"),
            b"" if self.pending_signature is None
            else self.pending_signature.to_bytes())
        return pack_fields(
            package,
            b"\x01" if self.emergency_mode else b"\x00",
            pack_fields(*records),
            pending,
            pack_fields(*[a.encode() for a in self._alert_log]))

    def load_state(self, blob: bytes) -> None:
        """Inverse of :meth:`export_state` — restore from a snapshot."""
        from repro.core.protocols.messages import unpack_fields
        package_b, emergency, records_b, pending_b, alerts_b = \
            unpack_fields(blob, expected=5)
        if package_b:
            self.receive_assign(AssignPackage.from_bytes(package_b,
                                                         self.params))
        self.emergency_mode = emergency == b"\x01"
        curve = self.params.curve
        self.records = [DeviceRecord.from_bytes(rd, curve)
                        for rd in unpack_fields(records_b)]
        physician, nounce, t_issue, signature = \
            unpack_fields(pending_b, expected=4)
        self.expected_physician = physician.decode() or None
        self._expected_nounce = nounce or None
        self.pending_t_issue = (int.from_bytes(t_issue, "big") / 1000.0
                                if t_issue else None)
        self.pending_signature = (IbsSignature.from_bytes(signature, curve)
                                  if signature else None)
        self._alert_log = [a.decode() for a in unpack_fields(alerts_b)]


class Physician:
    """A healthcare provider (person + workstation)."""

    def __init__(self, physician_id: str, hospital: str,
                 identity_key: IdentityKeyPair, params: DomainParams,
                 rng: HmacDrbg) -> None:
        self.physician_id = physician_id
        self.hospital = hospital
        self.identity_key = identity_key
        self.params = params
        self.rng = rng
        self.address = "physician://" + physician_id
        self.received_phi: list[PhiFile] = []
        self.received_mhi: list[MhiWindow] = []
        self._static_keys = StaticKeyCache()

    def sign_passcode_request(self, request: bytes,
                              t_request: float) -> IbsSignature:
        """Step 1 of §IV.E.2: IBS_Γi(ID_i ‖ m′ ‖ t10)."""
        return ibs_sign(self.params, self.identity_key,
                        tr_message(self.physician_id, request, t_request),
                        self.rng)

    def session_key_with(self, other_public: Point) -> bytes:
        """ϖ (or ρ) via SOK with my own private key, derived once per peer."""
        return self._static_keys.get(self.identity_key.private, other_public)
