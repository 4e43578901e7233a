"""Wire frames: the byte-level contract between clients and dispatch.

Every protocol interaction serializes to a *frame* — a
:func:`pack_fields`-encoded byte string whose first field is an opcode —
and every server answer is a *response* — a one-byte status followed by
either the result payload or a serialized exception.  The transport layer
(:mod:`repro.net.transport`) carries frames verbatim; the dispatch layer
(:mod:`repro.core.dispatch`) parses them back with the same codecs, so
what the experiments weigh is exactly what a real deployment would put on
a TCP socket.

Error transparency: a server-side :class:`~repro.exceptions.ReproError`
is serialized by name and message and re-raised client-side as the same
class, so protocol code keeps its natural ``try/except StorageError``
shape across process boundaries.
"""

from __future__ import annotations

import hashlib

import repro.exceptions as _exceptions
from repro.crypto.hmac_impl import constant_time_equal, hmac_sha256
from repro.core.protocols.messages import pack_fields, unpack_fields
from repro.exceptions import (AuthenticationError, ParameterError,
                              PartialResultError, ReproError,
                              TransportError)

__all__ = [
    "OP_STORE", "OP_SEARCH", "OP_GET_BROADCAST", "OP_SEARCH_WRAPPED",
    "OP_GROUP_UPDATE", "OP_MHI_STORE", "OP_MHI_SEARCH", "OP_XD_HANDSHAKE",
    "OP_XD_SEARCH", "OP_REGISTER_PDEVICE", "OP_EMERGENCY_AUTH",
    "OP_ROLE_KEY", "OP_ASSIGN", "OP_PASSCODE",
    "OP_SEARCH_MULTI", "OP_SEARCH_SHARD", "OP_SEARCH_MERGE",
    "OP_MIGRATE_PULL", "OP_MIGRATE_ACK",
    "make_frame", "parse_frame", "ok_response", "error_response",
    "partial_response", "parse_partial",
    "parse_response", "transient_error_in", "encode_files",
    "decode_files", "files_digest",
    "seal_internal_frame", "open_internal_frame",
    "ts_to_bytes", "ts_from_bytes",
    "CORR_MAGIC", "MAX_CORR_ID", "wrap_corr", "unwrap_corr",
]

# -- opcodes (first frame field; also the dispatch routing key) -------------
OP_STORE = b"phi-store"                  # §IV.B upload
OP_SEARCH = b"phi-search"                # §IV.D common-case retrieval
OP_GET_BROADCAST = b"get-broadcast"      # §IV.E.1 step 1
OP_SEARCH_WRAPPED = b"search-wrapped"    # §IV.E.1 step 3
OP_GROUP_UPDATE = b"group-update"        # §IV.C ASSIGN push / REVOKE
OP_MHI_STORE = b"mhi-store"              # §IV.E.2 MHI upload
OP_MHI_SEARCH = b"mhi-search"            # §IV.E.2 MHI retrieval
OP_XD_HANDSHAKE = b"xd-handshake"        # §V.A HIBC key establishment
OP_XD_SEARCH = b"xd-search"              # §V.A session-keyed retrieval
OP_REGISTER_PDEVICE = b"register-pdevice"  # §IV.E.2 emergency registration
OP_EMERGENCY_AUTH = b"emergency-auth"    # §IV.E.2 steps 1-2
OP_ROLE_KEY = b"role-key"                # §IV.E.2 Γ_r issuance
OP_ASSIGN = b"assign"                    # §IV.C ASSIGN to an entity
OP_PASSCODE = b"ibe-passcode"            # §IV.E.2 step 3 (server push)

# Multi-collection / federated search surface.  MULTI is a public op (the
# client's one trapdoor set over many collections); SHARD and MERGE
# are the router→shard internal legs of a cross-shard MULTI: SHARD
# verifies the envelope *without* consuming the replay window and
# returns raw per-collection chunks, MERGE performs the single guarded
# open on the owning shard and seals the one combined reply.  Both
# internal legs carry a trailing federation tag
# (:func:`seal_internal_frame`) and a shard rejects any SHARD/MERGE
# frame whose tag does not verify under the federation-internal key —
# a client (or a network attacker re-framing a captured envelope)
# cannot reach the guard-free/raw-chunk paths.
OP_SEARCH_MULTI = b"phi-search-multi"    # one trapdoor set, many Λ
OP_SEARCH_SHARD = b"phi-search-shard"    # internal: guard-free sub-search
OP_SEARCH_MERGE = b"phi-search-merge"    # internal: guarded splice + seal

# Shard-lifecycle legs (ring membership change).  Like SHARD/MERGE these
# are federation-internal, never client opcodes: every frame carries a
# trailing :func:`seal_internal_frame` tag.  PULL is read-only on the
# source (list the held keys, or export a slice of collections/MHI
# windows/guard entries); ACK is the journaled half of the handoff — the
# ``install`` form makes the destination durably adopt a slice, the
# ``release`` form makes the source durably drop it *after* the
# destination's ack, so a kill -9 at any point leaves every collection
# recoverable on at least one shard (see repro.core.federation).
OP_MIGRATE_PULL = b"migrate-pull"        # internal: list / export a slice
OP_MIGRATE_ACK = b"migrate-ack"          # internal: install / release (journaled)

_STATUS_OK = 0x00
_STATUS_ERROR = 0x01
# A scattered request answered by some-but-not-all shards: the payload
# is the spliced result over the shards that answered, plus an explicit
# list of the shards that did not.  Healthy replies never use this
# status, so an all-shards-up federation stays byte-identical to a
# single server; degraded replies are *typed* (PartialResultError from
# parse_response) so a client must opt in via parse_partial.
_STATUS_PARTIAL = 0x02

# Exceptions cross the wire by class name; anything outside the ReproError
# hierarchy (or unknown to this build) degrades to TransportError.
_EXCEPTIONS_BY_NAME = {
    name: cls for name, cls in vars(_exceptions).items()
    if isinstance(cls, type) and issubclass(cls, ReproError)
}


def make_frame(opcode: bytes, *fields: bytes) -> bytes:
    """One request frame: opcode + operand fields, length-prefixed."""
    return pack_fields(opcode, *fields)


def parse_frame(frame: bytes) -> tuple[bytes, list[bytes]]:
    """Split a frame into (opcode, operand fields)."""
    fields = unpack_fields(frame)
    if not fields:
        raise ParameterError("empty frame")
    return fields[0], fields[1:]


def ok_response(payload: bytes = b"") -> bytes:
    return bytes([_STATUS_OK]) + payload


def error_response(exc: BaseException) -> bytes:
    return bytes([_STATUS_ERROR]) + pack_fields(
        type(exc).__name__.encode(), str(exc).encode())


def partial_response(payload: bytes, unavailable: "list[bytes]") -> bytes:
    """A degraded scatter-gather reply: payload + unavailable shards.

    ``payload`` is the spliced result over the shards that answered —
    the same encoding an OK reply would carry; ``unavailable`` names
    the shards (addresses, as bytes) whose legs were skipped (open
    circuit breaker) or exhausted their retries.
    """
    if not unavailable:
        raise ParameterError("a partial response must name at least one "
                             "unavailable shard")
    return bytes([_STATUS_PARTIAL]) + pack_fields(
        payload, pack_fields(*unavailable))


def parse_partial(response: bytes) -> "tuple[bytes, list[bytes]]":
    """Degradation-tolerant response parse: (payload, unavailable shards).

    An OK response yields ``(payload, [])``; a PARTIAL response yields
    the available payload plus the unavailable shard list; an error
    response re-raises as usual.  This is the opt-in counterpart of
    :func:`parse_response`, which refuses partial results with a typed
    :class:`~repro.exceptions.PartialResultError`.
    """
    if response[:1] == bytes([_STATUS_PARTIAL]):
        payload, unavailable_b = unpack_fields(response[1:], expected=2)
        return payload, list(unpack_fields(unavailable_b))
    return parse_response(response), []


def parse_response(response: bytes) -> bytes:
    """Return the result payload, or re-raise the server's exception."""
    if not response:
        raise TransportError("empty response frame")
    status, body = response[0], response[1:]
    if status == _STATUS_OK:
        return body
    if status == _STATUS_PARTIAL:
        payload, unavailable_b = unpack_fields(body, expected=2)
        shards = b", ".join(unpack_fields(unavailable_b))
        raise PartialResultError(
            "scattered request degraded to a partial result set "
            "(unavailable shards: %s); use parse_partial to consume it"
            % shards.decode(errors="replace"))
    if status != _STATUS_ERROR:
        raise TransportError("unknown response status %d" % status)
    name, message = unpack_fields(body, expected=2)
    try:
        name_text = name.decode()
    except UnicodeDecodeError:
        # A corrupted/hostile error response must still yield a typed
        # error, never a raw codec exception.
        raise TransportError("undecodable exception name %r in error "
                             "response" % name) from None
    cls = _EXCEPTIONS_BY_NAME.get(name_text, TransportError)
    raise cls(message.decode(errors="replace"))


def transient_error_in(response: bytes) -> str | None:
    """The message of a serialized TransientTransportError, or None.

    Over the in-process loopback a refusal (a durable endpoint that is
    down, or one that crashed mid journal write) *raises* through the
    transport, where the retry layer catches it.  Over a real carrier
    the server's blanket handler serializes the same exception into an
    ordinary error response — the retry layer peeks with this helper so
    remote refusals retry exactly like in-process ones.
    """
    if len(response) < 2 or response[0] != _STATUS_ERROR:
        return None
    try:
        name, message = unpack_fields(response[1:], expected=2)
    except ReproError:
        return None
    if name != b"TransientTransportError":
        return None
    return message.decode(errors="replace")


# -- federation-internal frames ---------------------------------------------
# OP_SEARCH_SHARD / OP_SEARCH_MERGE bypass the per-request guarded-open
# path by design (the merge shard performs the single guarded open for
# the whole scattered request), so they must never be acceptable from a
# client: the router authenticates each internal leg with an HMAC over
# opcode ‖ operands under a federation-internal key (derived from the
# S-server's private identity key, repro.core.federation), and a shard
# verifies the tag before any handler state — replay guards included —
# is touched.  The tag covers the opcode and *every* operand field, so
# an active attacker can neither re-frame a captured client envelope as
# an internal leg nor rewrite an in-flight merge's spliced chunks.
_FED_FRAME_CONTEXT = b"hcpp-federation-frame:"


def seal_internal_frame(key: bytes, opcode: bytes, *fields: bytes) -> bytes:
    """An internal federation frame: operands + trailing federation tag."""
    tag = hmac_sha256(key, _FED_FRAME_CONTEXT + pack_fields(opcode, *fields))
    return make_frame(opcode, *fields, tag)


def open_internal_frame(key: bytes | None, opcode: bytes,
                        fields: list[bytes]) -> list[bytes]:
    """Verify and strip an internal frame's federation tag.

    Returns the operand fields.  Raises
    :class:`~repro.exceptions.AuthenticationError` when the serving
    endpoint holds no federation key (a standalone S-server never
    serves internal legs), when the tag is absent, or when it does not
    verify — uniformly, so a probing peer learns nothing about which
    check failed.
    """
    if key is None:
        raise AuthenticationError(
            "opcode %r is federation-internal and this endpoint holds "
            "no federation key" % opcode)
    if not fields:
        raise AuthenticationError(
            "internal frame %r carries no federation tag" % opcode)
    operands, tag = fields[:-1], fields[-1]
    expected = hmac_sha256(key,
                           _FED_FRAME_CONTEXT + pack_fields(opcode, *operands))
    if not constant_time_equal(expected, tag):
        raise AuthenticationError(
            "federation tag on %r does not verify" % opcode)
    return operands


# -- correlation ids (multiplexed transports) -------------------------------
# A multiplexing transport pipelines many frames over one connection and
# must match each response to its caller.  The envelope is versioned by
# its leading byte: id 0 encodes as the *identity* (the plain frame, so a
# peer that sends one length-prefixed frame and waits for the reply needs
# no upgrade, and the server answers it in kind), and nonzero ids prepend
# ``CORR_MAGIC ‖ u32-BE id``.  The magic starts with 0xff: a plain frame
# starts with the u32-BE length of its opcode field (a few dozen bytes)
# and a response starts with a 0x00/0x01 status byte, so neither can
# ever collide with the prefix.
CORR_MAGIC = b"\xffMX1"
MAX_CORR_ID = 0xFFFFFFFF


def wrap_corr(frame_id: int, blob: bytes) -> bytes:
    """Prefix ``blob`` with correlation id ``frame_id`` (0 = identity)."""
    if frame_id == 0:
        return blob
    if not 0 < frame_id <= MAX_CORR_ID:
        raise ParameterError("correlation id %r outside the u32 wire range"
                             % frame_id)
    return CORR_MAGIC + frame_id.to_bytes(4, "big") + blob


def unwrap_corr(blob: bytes) -> tuple[int, bytes]:
    """Split a wire blob into (correlation id, frame-or-response bytes)."""
    if not blob.startswith(CORR_MAGIC):
        return 0, blob
    if len(blob) < len(CORR_MAGIC) + 4:
        raise TransportError("truncated correlation-id prefix")
    frame_id = int.from_bytes(blob[4:8], "big")
    if frame_id == 0:
        raise TransportError("explicit correlation id 0 is reserved for "
                             "the identity encoding")
    return frame_id, blob[8:]


# -- timestamps -------------------------------------------------------------
def ts_to_bytes(timestamp: float) -> bytes:
    """Canonical 8-byte millisecond encoding (round, not truncate, so the
    float→ms→float round trip is exact on both sides of the wire)."""
    ms = int(round(timestamp * 1000))
    if ms < 0:
        raise ParameterError(
            "timestamp %r predates the epoch; the wire carries unsigned "
            "milliseconds" % timestamp)
    try:
        return ms.to_bytes(8, "big")
    except OverflowError:
        raise ParameterError("timestamp %r exceeds the 8-byte wire range"
                             % timestamp) from None


def ts_from_bytes(data: bytes) -> float:
    return int.from_bytes(data, "big") / 1000.0


# -- the encrypted collection Λ --------------------------------------------
def encode_files(files: dict[bytes, bytes]) -> bytes:
    """Λ on the wire: one field per file, fid (16 B) ‖ ciphertext."""
    return pack_fields(*(fid + ct for fid, ct in sorted(files.items())))


def decode_files(blob: bytes) -> dict[bytes, bytes]:
    files: dict[bytes, bytes] = {}
    for entry in unpack_fields(blob):
        if len(entry) < 16:
            raise ParameterError("file entry shorter than its fid")
        files[entry[:16]] = entry[16:]
    return files


def files_digest(files: dict[bytes, bytes]) -> bytes:
    """Order-independent digest of the encrypted collection Λ."""
    hasher = hashlib.sha256(b"encrypted-collection:")
    for fid in sorted(files):
        hasher.update(fid)
        hasher.update(hashlib.sha256(files[fid]).digest())
    return hasher.digest()
