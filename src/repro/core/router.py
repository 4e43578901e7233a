"""Federation router: one wire surface over N S-server shards.

The :class:`RouterEndpoint` is bound at the *logical* S-server address
(``sserver://hospital``) and speaks the exact opcoded wire protocol of
:class:`repro.core.dispatch.SServerEndpoint` — clients and protocol
flows cannot tell a router from a single server.  Behind it, every
frame is routed by the stable key its opcode carries:

====================  ==================================================
opcode                routing key
====================  ==================================================
OP_STORE              collection id re-derived from the envelope tag
                      (:func:`repro.core.shard.collection_id_for_tag`)
OP_SEARCH,            the collection id field (minted at store time, so
OP_GET_BROADCAST,     it lands on the shard that accepted the upload)
OP_SEARCH_WRAPPED,
OP_GROUP_UPDATE,
OP_XD_SEARCH
OP_MHI_STORE,         the role-identity bytes (every MHI op for a role
OP_MHI_SEARCH         meets the role's stored windows on one shard)
OP_XD_HANDSHAKE       scattered to *all* shards (session establishment
                      is deterministic and idempotent, so any shard can
                      later serve the session's searches)
OP_SEARCH_MULTI       per collection id; cross-shard sets scatter
====================  ==================================================

**Byte parity.**  Co-located shards (``transport.endpoint_at`` finds
them) are dispatched *directly* — no extra frame records, no simulated
clock ticks — so every response the router returns is byte-identical
to a single S-server holding all the data.  Scatter-gather merges are
deterministic: OP_SEARCH_MULTI results concatenate in the caller's
collection order, never in shard or completion order.

**Internal-leg authentication.**  The router→shard legs of a
cross-shard OP_SEARCH_MULTI (OP_SEARCH_SHARD / OP_SEARCH_MERGE) are
*not* client opcodes: each carries a trailing HMAC over opcode ‖
operands under the federation-internal key
(:func:`repro.core.wire.seal_internal_frame`), and shards reject the
opcodes outright unless the tag verifies — the guard-free raw-chunk
path and the chunk-splicing merge are unreachable for clients and
network attackers.  The router itself never routes those opcodes (they
are absent from its table), so they cannot arrive through the public
logical address either.

**Retry semantics.**  A crashed/torn shard raises
:class:`~repro.exceptions.TransientTransportError`; the router lets it
propagate (a serialized transient error from a remote shard is
re-raised the same way), so the client's standard
:class:`~repro.net.transport.faults.RetryPolicy` fires exactly as it
would against a single durable server.  For a scattered
OP_SEARCH_MULTI the guard-free shard legs run *first* and the single
guarded merge leg runs *last*: a transient failure anywhere leaves the
replay window unconsumed, so the client's retry replays cleanly.

This module sits below dispatch: it imports only the wire codecs, the
shard ring, and the exception hierarchy (enforced by the hcpplint
layering contract) — never entities, protocols, or the net backends.
"""

from __future__ import annotations

import repro.core.wire as wire
from repro.core.health import HealthTable
from repro.core.shard import DEFAULT_VNODES, HashRing
from repro.core.shard import collection_id_for_tag
from repro.exceptions import (AuthenticationError, ParameterError,
                              ReproError, TransientTransportError,
                              TransportError)

__all__ = ["RouterEndpoint"]


def _envelope_tag(env_b: bytes) -> bytes:
    """The HMAC tag field of a serialized Envelope.

    Envelopes serialize as ``pack_fields(label, payload, ts8, tag)``
    (:mod:`repro.core.protocols.messages`); the router peeks the tag to
    derive the collection id an OP_STORE will mint — without importing
    the protocol layer or verifying anything (the owning shard does the
    cryptographic checks).
    """
    fields = wire.unpack_fields(env_b, expected=4)
    return fields[3]


class RouterEndpoint:
    """A stateless scatter-gather front for a set of S-server shards.

    Not an :class:`~repro.core.dispatch.Endpoint` subclass: the router
    owns no entity, no replay guard, and no durable state — it is pure
    routing.  It still honours the endpoint wire contract
    (``attach``/``now``/``handle_frame``/``guards``) so ``bind`` and the
    server loops of every backend treat it like any other endpoint.
    """

    def __init__(self, address: str, shard_addresses: "list[str]",
                 vnodes: int = DEFAULT_VNODES,
                 federation_key: "bytes | None" = None,
                 allow_partial: bool = True) -> None:
        if not shard_addresses:
            raise ParameterError("a router needs at least one shard")
        self.address = address
        self.shard_addresses = tuple(shard_addresses)
        self.ring = HashRing(self.shard_addresses, vnodes=vnodes)
        # Authenticates the internal OP_SEARCH_SHARD/OP_SEARCH_MERGE
        # legs (wire.seal_internal_frame); shards reject those opcodes
        # from anyone who cannot produce the tag, so a router without
        # the key cannot scatter a cross-shard OP_SEARCH_MULTI.
        self._federation_key = federation_key
        # Degraded-mode scatter-gather: when True a scattered read that
        # loses a shard (open breaker, or retries exhausted) degrades
        # to a PARTIAL reply over the shards that answered instead of
        # failing outright.  Healthy replies are byte-identical either
        # way.  Single-key ops and the write path never degrade: a dead
        # owner keeps surfacing TransientTransportError.
        self.allow_partial = allow_partial
        # Per-shard breakers on the *transport* clock (deterministic
        # under simulated time).
        self.health = HealthTable(self.shard_addresses,
                                  clock=lambda: self.now)
        self._transport = None
        self._hibc_node = None
        self._root_public = None
        self._routes = {
            wire.OP_STORE: self._route_store,
            wire.OP_SEARCH: self._route_by_cid,
            wire.OP_GET_BROADCAST: self._route_by_cid,
            wire.OP_SEARCH_WRAPPED: self._route_by_cid,
            wire.OP_GROUP_UPDATE: self._route_by_cid,
            wire.OP_MHI_STORE: self._route_mhi_store,
            wire.OP_MHI_SEARCH: self._route_mhi_search,
            wire.OP_XD_HANDSHAKE: self._route_xd_handshake,
            wire.OP_XD_SEARCH: self._route_xd_search,
            wire.OP_SEARCH_MULTI: self._route_search_multi,
        }

    # -- endpoint wire contract ----------------------------------------------
    def attach(self, transport) -> None:
        self._transport = transport

    @property
    def now(self) -> float:
        if self._transport is None:
            raise TransportError("router is not attached to a transport")
        return self._transport.now

    def guards(self) -> list:
        return []  # stateless: nothing to persist across a crash

    # bind_sserver assigns an HIBC credential on an already-bound
    # endpoint (the cross-domain flow); a router propagates it to every
    # shard it can reach locally, so whichever shard serves the
    # scattered OP_XD_HANDSHAKE holds the credential.
    @property
    def hibc_node(self):
        return self._hibc_node

    @hibc_node.setter
    def hibc_node(self, value) -> None:
        self._hibc_node = value
        for endpoint in self._local_endpoints():
            endpoint.hibc_node = value

    @property
    def root_public(self):
        return self._root_public

    @root_public.setter
    def root_public(self, value) -> None:
        self._root_public = value
        for endpoint in self._local_endpoints():
            endpoint.root_public = value

    def _local_endpoints(self) -> list:
        if self._transport is None:
            return []
        endpoints = []
        for address in self.shard_addresses:
            endpoint = self._transport.endpoint_at(address)
            if endpoint is not None:
                endpoints.append(endpoint)
        return endpoints

    # -- frame handling ------------------------------------------------------
    def handle_frame(self, frame: bytes) -> bytes:
        try:
            opcode, fields = wire.parse_frame(frame)
            route = self._routes.get(opcode)
            if route is None:
                raise TransportError("unknown opcode %r" % opcode)
            return route(fields, frame)
        except TransientTransportError:
            # A down/torn shard must surface as a transport refusal so
            # the client's retry policy fires — never as a terminal
            # error response (mirrors DurableEndpoint).
            raise
        except ReproError as exc:
            return wire.error_response(exc)
        except Exception as exc:  # defensive: never kill a server thread
            return wire.error_response(exc)

    # -- the forwarding primitive --------------------------------------------
    def _forward(self, shard: str, frame: bytes,
                 label: str = "router/forward") -> bytes:
        """Deliver one frame to one shard and return its raw response.

        A co-located shard is dispatched directly — no frame records,
        no clock ticks, so the response bytes (seal timestamps
        included) are exactly a single server's.  A remote shard goes
        through ``transport.request``, inheriting the transport's retry
        policy; a serialized transient refusal is re-raised so the
        *client's* retry fires too.
        """
        breaker = self.health.breaker(shard)
        try:
            endpoint = self._transport.endpoint_at(shard)
            if endpoint is not None:
                response = endpoint.handle_frame(frame)
            else:
                response = self._transport.request(self.address, shard,
                                                   frame, label)
            message = wire.transient_error_in(response)
            if message is not None:
                raise TransientTransportError(message)
        except TransientTransportError:
            # Consecutive transient failures trip the shard's breaker;
            # a terminal error response is a healthy answer and does
            # not count.  The error still propagates — single-key ops
            # (writes included) always surface the refusal so the
            # client's retry policy fires.
            breaker.record_failure()
            raise
        breaker.record_success()
        return response

    def update_ring(self, shard_addresses: "list[str]") -> None:
        """Atomically swap the shard set (a federation rebalance commit).

        Safe against in-flight frames: the rebalance protocol keeps a
        moving collection on *both* its old and new owner between the
        copy and release phases, so a frame routed under either ring
        during the swap still lands on a shard that serves it.
        """
        addresses = tuple(shard_addresses)
        if not addresses:
            raise ParameterError("a router needs at least one shard")
        ring = HashRing(addresses, vnodes=self.ring.vnodes)
        self.ring = ring
        self.shard_addresses = addresses
        for address in addresses:
            self.health.breaker(address)  # pre-create: known from day one

    def _scatter(self, targets: "list[tuple[str, bytes]]", label: str,
                 tolerant: bool = False) -> "list[bytes | None]":
        """Forward one frame per (shard, frame) pair; responses by index.

        The legs run one after another on the calling thread, in target
        order, so the gathered list is indexed like ``targets`` and the
        merge order never depends on which shard answers first.  A
        co-located leg is Python work under the one interpreter lock,
        where a thread-pool fan-out measured no faster (EXPERIMENTS.md,
        "Decision record: one scatter path").

        ``tolerant`` turns a leg's transient failure into ``None`` at
        its index (degraded-mode callers account the loss); otherwise
        the failure propagates.
        """
        responses: "list[bytes | None]" = []
        for shard, frame in targets:
            try:
                responses.append(self._forward(shard, frame, label))
            except TransientTransportError:
                if not tolerant:
                    raise
                responses.append(None)
        return responses

    # -- per-opcode routing --------------------------------------------------
    def _route_store(self, fields: "list[bytes]", frame: bytes) -> bytes:
        self._expect(fields, 6)
        # The store frame carries no collection id (the server mints it
        # from the envelope tag on accept); re-derive it here so the
        # accepting shard is the shard every later search routes to.
        cid = collection_id_for_tag(_envelope_tag(fields[1]))
        return self._forward(self.ring.owner_str(cid), frame)

    def _route_by_cid(self, fields: "list[bytes]", frame: bytes) -> bytes:
        if len(fields) < 2:
            raise ParameterError("frame carries no collection id to route")
        return self._forward(self.ring.owner_str(fields[1]), frame)

    def _route_mhi_store(self, fields: "list[bytes]", frame: bytes) -> bytes:
        self._expect(fields, 5)
        return self._forward(self.ring.owner_str(fields[2]), frame)

    def _route_mhi_search(self, fields: "list[bytes]",
                          frame: bytes) -> bytes:
        if not fields:
            raise ParameterError("frame carries no role identity to route")
        return self._forward(self.ring.owner_str(fields[0]), frame)

    def _route_xd_search(self, fields: "list[bytes]", frame: bytes) -> bytes:
        self._expect(fields, 3)
        return self._forward(self.ring.owner_str(fields[1]), frame)

    def _route_xd_handshake(self, fields: "list[bytes]",
                            frame: bytes) -> bytes:
        """Scatter the handshake so every shard holds the session key.

        ``accept_session`` is a deterministic decryption + verification
        and storing the key is idempotent, so establishing the session
        on all shards is safe — and necessary, because the later
        OP_XD_SEARCH routes by collection id and must find the session
        on whichever shard owns the collection.  All responses are
        byte-identical (empty OK) on success; the first failure's
        response is returned as-is for error parity.

        This route stays *strict* even in degraded mode: a handshake
        that skipped an open-breaker shard would strand every later
        OP_XD_SEARCH whose collection that shard owns with an
        unknown-session AuthenticationError — a silent correctness
        failure, unlike a visibly PARTIAL search.  Better to fail the
        handshake loudly and let the client retry once the shard heals.
        """
        self._expect(fields, 3)
        responses = self._scatter(
            [(shard, frame) for shard in self.shard_addresses],
            "router/handshake")
        for response in responses:
            if response[:1] != b"\x00":
                return response
        return responses[0]

    def _route_search_multi(self, fields: "list[bytes]",
                            frame: bytes) -> bytes:
        """One trapdoor set over many collections, across shards.

        Single-shard sets forward verbatim.  A cross-shard set runs the
        guard-free OP_SEARCH_SHARD leg on every *foreign* shard first,
        then the single guarded OP_SEARCH_MERGE on the shard owning the
        first collection id — which splices every chunk back in the
        caller's collection order and seals the one combined reply.
        Merge-last ordering is the retry-safety contract: no replay
        window is consumed until every foreign leg has succeeded.
        """
        pseud_b, cids_b, env_b = self._expect(fields, 3)
        cids = wire.unpack_fields(cids_b)
        owners = [self.ring.owner_str(cid) for cid in cids]
        merge_shard = owners[0] if owners else self.shard_addresses[0]
        if all(owner == merge_shard for owner in owners):
            return self._forward(merge_shard, frame, "router/scatter")
        if self._federation_key is None:
            raise AuthenticationError(
                "router holds no federation key; cannot scatter a "
                "cross-shard search over authenticated internal legs")
        # Health gate (degraded mode): collections owned by an
        # open-breaker shard are dropped up front; their owners go on
        # the PARTIAL list.  The merge shard becomes the first cid's
        # *available* owner — any shard can do the guarded open, so a
        # dead owners[0] does not take the whole request down.
        allowed: dict[str, bool] = {}
        for owner in owners:
            if owner not in allowed:
                allowed[owner] = (not self.allow_partial
                                  or self.health.breaker(owner).allow())
        if not any(allowed[owner] for owner in owners):
            raise TransientTransportError(
                "all %d owning shards unavailable" % len(set(owners)))
        unavailable = sorted({owner for owner in owners
                              if not allowed[owner]})
        live = [(cid, owner) for cid, owner in zip(cids, owners)
                if allowed[owner]]
        merge_shard = live[0][1]
        foreign: dict[str, list[bytes]] = {}
        for cid, owner in live:
            if owner != merge_shard:
                foreign.setdefault(owner, []).append(cid)
        targets = [(shard, wire.seal_internal_frame(
                        self._federation_key, wire.OP_SEARCH_SHARD, pseud_b,
                        wire.pack_fields(*shard_cids), env_b))
                   for shard, shard_cids in sorted(foreign.items())]
        responses = self._scatter(targets, "router/scatter",
                                  tolerant=self.allow_partial)
        failed: set[str] = set()
        chunk_entries = []
        for (shard, _), response in zip(targets, responses):
            if response is None:
                failed.add(shard)
                continue
            shard_cids = foreign[shard]
            chunks = wire.unpack_fields(wire.parse_response(response))
            if len(chunks) != len(shard_cids):
                raise TransportError(
                    "shard answered %d collection chunks, expected %d"
                    % (len(chunks), len(shard_cids)))
            chunk_entries.extend(
                wire.pack_fields(cid, chunk)
                for cid, chunk in zip(shard_cids, chunks))
        if failed:
            unavailable = sorted(set(unavailable) | failed)
            live = [(cid, owner) for cid, owner in live
                    if owner not in failed]
        if unavailable:
            # The sealed merge reply covers exactly the surviving cid
            # subset, in the caller's original order; the PARTIAL
            # wrapper names what is missing.
            cids_b = wire.pack_fields(*[cid for cid, _ in live])
        merge_frame = wire.seal_internal_frame(
            self._federation_key, wire.OP_SEARCH_MERGE, pseud_b, cids_b,
            env_b, wire.pack_fields(*chunk_entries))
        # The merge is the single guarded leg and always runs last; its
        # transient failure propagates even in degraded mode (the replay
        # window is still unconsumed, so the client's retry is clean).
        response = self._forward(merge_shard, merge_frame, "router/merge")
        if unavailable:
            return wire.partial_response(
                wire.parse_response(response),
                [shard.encode() for shard in unavailable])
        return response

    @staticmethod
    def _expect(fields: "list[bytes]", count: int) -> "list[bytes]":
        if len(fields) != count:
            raise ParameterError("expected %d frame fields, got %d"
                                 % (count, len(fields)))
        return fields
