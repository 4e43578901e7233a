"""Federated S-server deployment: shards + router, wired to a transport.

:func:`bind_federated_sserver` turns one logical S-server into an
N-shard federation behind a :class:`~repro.core.router.RouterEndpoint`
bound at the logical address — so every existing protocol flow (which
resolves the S-server by ``server.address``) runs unchanged, and
``dispatch.bind_sserver`` finds the router and returns it like any
other already-bound endpoint.

Every shard is its own :class:`~repro.core.sserver.StorageServer`
holding the *same* SOK identity key as the logical server: ν =
KDF(ê(Γ_S, client_public)) depends only on that key, so a client's
sealed envelopes verify on whichever shard the router picks.  What the
shards do **not** share is mutable state — each has its own collection
map, replay guard, MHI store, and (when ``data_dir`` is given) its own
journal/snapshot series under ``sserver-shard-<i>.*``, so one shard
crashes, tears, and recovers independently of its peers.

``n_shards=1`` degenerates to a router fronting a single shard —
useful for parity testing; production-equivalent to a plain bind.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import repro.core.wire as wire
from repro.core import dispatch
from repro.core.router import RouterEndpoint
from repro.core.shard import DEFAULT_VNODES, HashRing
from repro.core.sserver import StorageServer
from repro.crypto.rng import HmacDrbg
from repro.exceptions import ParameterError, RecoveryError, TransportError
from repro.net.transport import as_transport
from repro.store.durable import DurableStore, bind_durable_sserver

__all__ = ["Federation", "federation_key_for", "shard_servers",
           "bind_federated_sserver", "rebalance", "MANIFEST_NAME"]

#: The federation manifest: ring geometry persisted beside the shard
#: journals, so recovering a data_dir under different ``--shards``/
#: ``vnodes`` fails loudly instead of silently stranding journals and
#: rerouting keys to different owners.  Since the rebalancing epoch
#: landed it is also the *migration journal*: a rebalance writes its
#: durable intent (``pending``) before moving a byte and its drain
#: obligation (``draining``) at commit, so a kill -9 anywhere inside a
#: rebalance leaves a manifest that names exactly how to roll forward.
MANIFEST_NAME = "federation.json"


def federation_key_for(identity_key) -> bytes:
    """The federation-internal frame key for one logical S-server.

    Derived (domain-separated SHA-256) from the server's private
    identity key Γ_S — the one secret every shard of the federation
    already shares and no client or network observer holds.  The router
    tags the internal OP_SEARCH_SHARD/OP_SEARCH_MERGE legs with an HMAC
    under this key; shards reject untagged or forged internal frames
    (:func:`repro.core.wire.open_internal_frame`).
    """
    return hashlib.sha256(b"hcpp-federation-key:"
                          + identity_key.private.to_bytes()).digest()


def _write_manifest(data_dir: str, manifest: dict) -> None:
    """Atomically (tmp + fsync + rename) persist the manifest.

    The manifest is the rebalance journal's ground truth: a torn write
    here could lose a ``pending``/``draining`` record and strand a
    half-migrated federation, so it gets the full durability treatment.
    """
    os.makedirs(data_dir, exist_ok=True)
    path = os.path.join(data_dir, MANIFEST_NAME)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _load_manifest(data_dir: str) -> "dict | None":
    path = os.path.join(data_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    # Pre-epoch manifests (PR 7) carried only the geometry triple.
    manifest.setdefault("epoch", 0)
    return manifest


def _check_manifest(data_dir: str, n_shards: int, vnodes: int,
                    shard_names: "list[str]") -> dict:
    """Load-or-init the manifest; reject a geometry mismatch.

    Journals are named per shard index and keys are placed by the ring,
    so binding an existing ``data_dir`` with a different shard count or
    vnode count would silently ignore journals for indexes ≥ N and
    route previously stored collections to different owners.  The
    manifest turns that into a loud :class:`RecoveryError`.

    The one *sanctioned* way the count changes is a rebalance: binding
    with ``n_shards`` equal to either the committed count or an
    interrupted rebalance's pending count is accepted, and the caller
    rolls the migration forward.  Returns the manifest dict.
    """
    manifest = {"epoch": 0, "n_shards": n_shards, "vnodes": vnodes,
                "shards": list(shard_names)}
    existing = _load_manifest(data_dir)
    if existing is None:
        _write_manifest(data_dir, manifest)
        return manifest
    pending = existing.get("pending")
    stem = shard_names[0].rsplit("-", 1)[0] if shard_names else ""
    expected_committed = ["%s-%d" % (stem, i)
                          for i in range(existing["n_shards"])]
    count_ok = (n_shards == existing["n_shards"]
                or (pending is not None
                    and n_shards == pending["n_shards"]))
    if (existing["vnodes"] != vnodes or not count_ok
            or existing["shards"] != expected_committed):
        raise RecoveryError(
            "federation manifest mismatch in %r: directory was laid "
            "out as %r, refusing to recover as %r (journals would be "
            "stranded and keys rerouted)" % (data_dir, existing,
                                             manifest))
    return existing


@dataclass
class Federation:
    """One bound federation: the router plus its shard deployment.

    A federation built by :func:`bind_federated_sserver` also carries
    its bind context (logical server, transport, durability settings),
    which is what makes :meth:`add_shard`/:meth:`remove_shard` possible
    after the fact — a rebalance re-derives shard names, journal
    prefixes, and the federation key from that context.
    """

    router: RouterEndpoint
    ring: HashRing
    shards: tuple
    endpoints: tuple
    server: "StorageServer | None" = None
    transport: object = None
    epoch: int = 0
    data_dir: "str | None" = None
    snapshot_every: int = 0
    fault_policy: object = None

    @property
    def shard_addresses(self) -> tuple:
        return tuple(shard.address for shard in self.shards)

    def add_shard(self, *, on_step=None) -> "Federation":
        """Grow the ring by one shard, migrating owned keys to it."""
        return rebalance(self, len(self.shards) + 1, on_step=on_step)

    def remove_shard(self, *, on_step=None) -> "Federation":
        """Shrink the ring by one shard, migrating its keys away."""
        if len(self.shards) < 2:
            raise ParameterError(
                "cannot remove the last shard of a federation")
        return rebalance(self, len(self.shards) - 1, on_step=on_step)


def _make_shard(server: StorageServer, name: str) -> StorageServer:
    # One ν cache for the whole logical server: the router sends a
    # client point's requests to different shards (the P-device's MHI
    # store goes by role, its retrievals by collection).
    return StorageServer(
        name, server.params, server.identity_key,
        HmacDrbg(b"hcpp-shard/" + name.encode()),
        session_keys=server._session_keys)


def _shard_name(server: StorageServer, index: int) -> str:
    return "%s-shard-%d" % (server.name, index)


def shard_servers(server: StorageServer, n_shards: int) -> list:
    """N shard servers for one logical S-server.

    Names and addresses derive from the logical server's
    (``hospital-a`` → ``hospital-a-shard-0`` …), deterministically, so a
    restarted deployment rebuilds the identical ring.  Each shard gets
    its own domain-separated DRBG; the identity key and the ν cache are
    shared with the logical server.
    """
    if n_shards < 1:
        raise ParameterError("a federation needs at least one shard")
    return [_make_shard(server, _shard_name(server, i))
            for i in range(n_shards)]


# -- the rebalance protocol ---------------------------------------------------
#
# Ring membership changes move data in three phases, journaled in the
# manifest so a kill -9 at any instant rolls *forward* on the next bind:
#
#   plan     manifest gains ``pending`` (target epoch + shard list)
#            before a byte moves — the durable intent record.
#   copy     for every source shard, the keys whose owner differs under
#            the new ring are exported (OP_MIGRATE_PULL) and installed
#            on their new owner (OP_MIGRATE_ACK install, journaled and
#            fsynced by the destination before it acks).  The source
#            keeps serving: a moving collection is owned by *both*
#            shards until release.
#   commit   manifest flips to the new epoch with a ``draining`` record
#            naming the old shard set, then the router's ring swaps.
#   release  every source drops its moved-away keys (OP_MIGRATE_ACK
#            release, journaled on the source), and the ``draining``
#            record is cleared.
#
# Every migration step is idempotent (install overwrites with identical
# bytes, release tolerates already-dropped keys) and the move set is
# recomputed from live state (held keys x ring delta), never journaled
# — so resuming is simply re-running the remaining phases.


def _epoch8(epoch: int) -> bytes:
    return epoch.to_bytes(8, "big")


def _relay(fed: Federation, address: str, frame: bytes) -> bytes:
    """Deliver one sealed migration frame to one shard.

    Mirrors the router's forwarding rule: co-located endpoints are
    dispatched directly (crash/fault injection still applies — it hooks
    ``handle_frame``), remote ones go through ``transport.request``.
    """
    endpoint = fed.transport.endpoint_at(address)
    if endpoint is not None:
        response = endpoint.handle_frame(frame)
    else:
        response = fed.transport.request(fed.router.address, address,
                                         frame, "federation/migrate")
    return wire.parse_response(response)


def _pull_keys(fed: Federation, key: bytes, address: str,
               epoch_b: bytes) -> "tuple[list[bytes], list[bytes]]":
    payload = _relay(fed, address, wire.seal_internal_frame(
        key, wire.OP_MIGRATE_PULL, epoch_b))
    cids_b, roles_b = wire.unpack_fields(payload, expected=2)
    return (list(wire.unpack_fields(cids_b)),
            list(wire.unpack_fields(roles_b)))


def _moves_from(fed: Federation, key: bytes, address: str, ring: HashRing,
                epoch_b: bytes) -> dict:
    """Keys held by ``address`` owned elsewhere under ``ring``, grouped
    by destination: ``{dest_address: (cids, roles)}``.  Computed from
    the shard's *live* key list, so re-running after a partial release
    naturally sees only what is left to move."""
    cids, roles = _pull_keys(fed, key, address, epoch_b)
    moves: "dict[str, tuple[list, list]]" = {}
    for cid in cids:
        dest = ring.owner_str(cid)
        if dest != address:
            moves.setdefault(dest, ([], []))[0].append(cid)
    for role in roles:
        dest = ring.owner_str(role)
        if dest != address:
            moves.setdefault(dest, ([], []))[1].append(role)
    return moves


def _copy_moves(fed: Federation, key: bytes, sources: "list[str]",
                new_ring: HashRing, epoch_b: bytes) -> int:
    moved = 0
    for source in sources:
        for dest, (cids, roles) in sorted(
                _moves_from(fed, key, source, new_ring, epoch_b).items()):
            blob = _relay(fed, source, wire.seal_internal_frame(
                key, wire.OP_MIGRATE_PULL, epoch_b,
                wire.pack_fields(*cids), wire.pack_fields(*roles)))
            _relay(fed, dest, wire.seal_internal_frame(
                key, wire.OP_MIGRATE_ACK, b"install", epoch_b, blob))
            moved += len(cids)
    return moved


def _release_moves(fed: Federation, key: bytes, sources: "list[str]",
                   new_ring: HashRing, epoch_b: bytes) -> None:
    for source in sources:
        moves = _moves_from(fed, key, source, new_ring, epoch_b)
        cids = [cid for mc, _ in moves.values() for cid in mc]
        roles = [role for _, mr in moves.values() for role in mr]
        if not cids and not roles:
            continue
        _relay(fed, source, wire.seal_internal_frame(
            key, wire.OP_MIGRATE_ACK, b"release", epoch_b,
            wire.pack_fields(wire.pack_fields(*cids),
                             wire.pack_fields(*roles))))


def _bind_shard(fed: Federation, shard: StorageServer):
    """Bind one shard endpoint, durably when the federation is durable.

    Binding over an existing journal *is* recovery (a resumed migration
    replays the destination's journaled installs), and an already-bound
    address is returned as-is — both of which make this safe to call
    from any resume point.
    """
    existing = fed.transport.endpoint_at(shard.address)
    if existing is not None:
        return existing
    fed_key = federation_key_for(fed.server.identity_key)
    if fed.data_dir is not None:
        index = int(shard.name.rsplit("-", 1)[1])
        store = DurableStore(fed.data_dir, "sserver-shard-%d" % index,
                             snapshot_every=fed.snapshot_every)
        return bind_durable_sserver(
            fed.transport, shard, store, hibc_node=fed.router.hibc_node,
            root_public=fed.router.root_public,
            fault_policy=fed.fault_policy, federation_key=fed_key)
    return dispatch.bind_sserver(
        fed.transport, shard, hibc_node=fed.router.hibc_node,
        root_public=fed.router.root_public, federation_key=fed_key)


def rebalance(fed: Federation, new_count: int, *,
              on_step=None) -> Federation:
    """Resize ``fed`` to ``new_count`` shards via journaled migration.

    Mutates and returns ``fed``: the router (bound at the logical
    address) swaps its ring in place, so clients never re-resolve
    anything.  ``on_step`` (tests/benchmarks) is called with
    ``"planned"``, ``"copied"``, ``"committed"``, ``"released"`` as each
    phase completes — raising from it abandons the rebalance exactly as
    a crash would, and the next bind of the same ``data_dir`` rolls the
    migration forward.
    """
    if fed.server is None or fed.transport is None:
        raise ParameterError(
            "this Federation carries no bind context (not built by "
            "bind_federated_sserver); cannot rebalance")
    if new_count < 1:
        raise ParameterError("a federation needs at least one shard")
    step = on_step if on_step is not None else (lambda phase: None)
    fed_key = federation_key_for(fed.server.identity_key)
    old_addresses = [shard.address for shard in fed.shards]
    common = min(len(fed.shards), new_count)
    new_shards = list(fed.shards[:common]) + [
        _make_shard(fed.server, _shard_name(fed.server, i))
        for i in range(common, new_count)]
    new_addresses = [shard.address for shard in new_shards]
    if new_addresses == old_addresses:
        return fed
    new_epoch = fed.epoch + 1
    if fed.data_dir is not None:
        manifest = _load_manifest(fed.data_dir)
        manifest["pending"] = {"epoch": new_epoch, "n_shards": new_count,
                               "shards": [s.name for s in new_shards]}
        _write_manifest(fed.data_dir, manifest)
    for shard in new_shards[common:]:
        _bind_shard(fed, shard)
    step("planned")
    epoch_b = _epoch8(new_epoch)
    new_ring = HashRing(new_addresses, vnodes=fed.ring.vnodes)
    _copy_moves(fed, fed_key, old_addresses, new_ring, epoch_b)
    step("copied")
    if fed.data_dir is not None:
        manifest = {"epoch": new_epoch, "n_shards": new_count,
                    "vnodes": fed.ring.vnodes,
                    "shards": [s.name for s in new_shards],
                    "draining": {"from_shards":
                                 [s.name for s in fed.shards]}}
        _write_manifest(fed.data_dir, manifest)
    fed.router.update_ring(new_addresses)
    fed.ring = fed.router.ring
    fed.shards = tuple(new_shards)
    fed.endpoints = tuple(fed.transport.endpoint_at(address)
                          for address in new_addresses)
    fed.epoch = new_epoch
    step("committed")
    _release_moves(fed, fed_key, old_addresses, new_ring, epoch_b)
    if fed.data_dir is not None:
        manifest.pop("draining", None)
        _write_manifest(fed.data_dir, manifest)
    step("released")
    return fed


def _finish_drain(fed: Federation, from_names: "list[str]") -> None:
    """Resume a rebalance that crashed between commit and full release.

    The committed ring is already the truth; what remains is dropping
    moved-away keys from the old shard set.  Shards that left the ring
    (a crashed ``remove_shard``) are re-bound so the release reaches
    their journals; they stay bound but empty, outside the ring.
    """
    fed_key = federation_key_for(fed.server.identity_key)
    sources = []
    for name in from_names:
        shard = _make_shard(fed.server, name)
        _bind_shard(fed, shard)
        sources.append(shard.address)
    _release_moves(fed, fed_key, sources, fed.ring, _epoch8(fed.epoch))
    manifest = _load_manifest(fed.data_dir)
    manifest.pop("draining", None)
    _write_manifest(fed.data_dir, manifest)


def bind_federated_sserver(transport, server: StorageServer, n_shards: int,
                           *, hibc_node=None, root_public=None,
                           data_dir: str | None = None,
                           snapshot_every: int = 0, fault_policy=None,
                           vnodes: int = DEFAULT_VNODES,
                           allow_partial: bool = True) -> Federation:
    """Serve ``server.address`` with an N-shard federation.

    With ``data_dir`` each shard binds durably (its own
    ``DurableStore`` under ``sserver-shard-<i>``; binding over an
    existing directory *is* recovery) and registers with
    ``fault_policy`` for crash/restart injection.  Without it, shards
    are plain in-memory endpoints.  The router itself is stateless and
    needs no durability.

    The ring geometry is pinned in ``<data_dir>/federation.json`` at
    first bind; recovering with a different ``n_shards`` or ``vnodes``
    raises :class:`~repro.exceptions.RecoveryError` instead of silently
    stranding journals — except across a rebalance, where the manifest
    epoch records the sanctioned resize.  A directory holding an
    *interrupted* rebalance (a ``pending`` or ``draining`` record) is
    rolled forward before this returns: the shard set bound is the
    migration's target, every collection ends up owned by exactly one
    ring position, and no journaled install or release is lost.

    ``allow_partial`` configures degraded-mode scatter-gather on the
    router (PARTIAL replies instead of outright failure when a shard is
    down); byte-for-byte identical responses while all shards answer.
    Router and shards share the federation frame key
    (:func:`federation_key_for`), which authenticates the internal
    OP_SEARCH_SHARD/OP_SEARCH_MERGE and migration legs.
    """
    transport = as_transport(transport)
    if transport.endpoint_at(server.address) is not None:
        raise TransportError("address %r is already served"
                             % server.address)
    manifest = None
    if data_dir is not None:
        manifest = _check_manifest(
            data_dir, n_shards, vnodes,
            [_shard_name(server, i) for i in range(n_shards)])
        # The manifest's committed shard list is the truth — after a
        # rebalance it differs from what this call's n_shards implies.
        shards = [_make_shard(server, name) for name in manifest["shards"]]
    else:
        shards = shard_servers(server, n_shards)
    router = RouterEndpoint(server.address,
                            [shard.address for shard in shards],
                            vnodes=vnodes,
                            federation_key=federation_key_for(
                                server.identity_key),
                            allow_partial=allow_partial)
    # Not attached yet, so these only record the credential; each shard
    # gets it from the router as _bind_shard binds it.
    router.hibc_node = hibc_node
    router.root_public = root_public
    fed = Federation(router=router, ring=router.ring,
                     shards=tuple(shards), endpoints=(),
                     server=server, transport=transport,
                     epoch=manifest["epoch"] if manifest else 0,
                     data_dir=data_dir, snapshot_every=snapshot_every,
                     fault_policy=fault_policy)
    fed.endpoints = tuple(_bind_shard(fed, shard) for shard in shards)
    transport.bind(server.address, router)
    if manifest is not None and manifest.get("pending") is not None:
        # Crashed before commit: roll the whole migration forward (all
        # steps are idempotent; already-journaled installs replayed
        # above, the rest re-run).
        rebalance(fed, manifest["pending"]["n_shards"])
    elif manifest is not None and manifest.get("draining") is not None:
        # Crashed after commit: the new ring is the truth, finish
        # dropping moved-away keys from the old shard set.
        _finish_drain(fed, manifest["draining"]["from_shards"])
    return fed
