"""Hierarchical IBC — the paper's federal → state → hospital tree (§IV.A).

The paper's lower-level setup is verbatim Gentry–Silverberg HIDE:

    *"PA computes K_j = H1(ID_1, …, ID_j) … and a private key for each
    child at level j as ψ_j = ψ_{j−1} + s_{j−1}·K_j where s_{j−1} is PA's
    randomly chosen secret, and distributes {Q_l : 1 ≤ l < j} to each child
    where Q_l = s_l·P."*

Levels in HCPP: level 1 = federal A-server (root PKG *and* a level-1
entity), level 2 = state A-servers, level 3 = hospitals/clinics with their
affiliated physicians and S-servers.

Implemented here:

* :class:`HibcRoot` — the federal root PKG (holds s_0).
* :class:`HibcNode` — an entity at level j holding (ψ_j, Q_1..Q_{j−1})
  plus its own issuing secret s_j; can extract children, decrypt, sign.
* :func:`hibe_encrypt` / :meth:`HibcNode.decrypt` — BasicHIDE encryption
  to any identity tuple, used for cross-domain availability: a patient
  given a level-3 temporary pair can talk to *any* S-server in the country.
* :meth:`HibcNode.sign` / :func:`hids_verify` — the GS hierarchical
  signature (message treated as a level-(j+1) child), used when protocol
  parties sit in different state domains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.ec import Point
from repro.crypto.hashes import h1_identity, h1_uncached, h_g2_to_bytes
from repro.crypto.mathutil import xor_bytes
from repro.crypto.pairing import final_exponentiation, miller_loop, prepared
from repro.crypto.params import DomainParams
from repro.crypto.rng import HmacDrbg
from repro.exceptions import DecryptionError, ParameterError, SignatureError

__all__ = ["HibcRoot", "HibcNode", "HibeCiphertext", "HidsSignature",
           "hibe_encrypt", "hids_verify", "id_tuple_hash"]


def id_tuple_hash(params: DomainParams, id_tuple: tuple[str, ...],
                  depth: int) -> Point:
    """K_j = H1(ID_1, …, ID_j): hash the length-``depth`` prefix to G1."""
    if depth < 1 or depth > len(id_tuple):
        raise ParameterError("bad depth for identity tuple")
    material = "\x1f".join(id_tuple[:depth]).encode()
    return h1_identity(params, b"hibc:" + depth.to_bytes(2, "big") + material)


@dataclass(frozen=True)
class HibeCiphertext:
    """BasicHIDE ciphertext (U_0 = rP, U_2..U_t = r·K_l, V = m ⊕ mask)."""

    U0: Point
    Us: tuple[Point, ...]  # U_2 … U_t (empty for depth-1 recipients)
    V: bytes

    def size_bytes(self) -> int:
        return (len(self.U0.to_bytes())
                + sum(len(u.to_bytes()) for u in self.Us) + len(self.V))

    def to_bytes(self) -> bytes:
        out = bytearray()
        u0 = self.U0.to_bytes()
        out += len(u0).to_bytes(2, "big") + u0
        out += len(self.Us).to_bytes(1, "big")
        for u in self.Us:
            encoded = u.to_bytes()
            out += len(encoded).to_bytes(2, "big") + encoded
        out += len(self.V).to_bytes(4, "big") + self.V
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes, curve) -> "HibeCiphertext":
        u0_len = int.from_bytes(data[:2], "big")
        offset = 2
        U0 = Point.from_bytes(data[offset:offset + u0_len], curve)
        offset += u0_len
        count = data[offset]
        offset += 1
        us = []
        for _ in range(count):
            u_len = int.from_bytes(data[offset:offset + 2], "big")
            offset += 2
            us.append(Point.from_bytes(data[offset:offset + u_len], curve))
            offset += u_len
        v_len = int.from_bytes(data[offset:offset + 4], "big")
        offset += 4
        V = data[offset:offset + v_len]
        if len(V) != v_len or offset + v_len != len(data):
            raise ParameterError("malformed HIBE ciphertext encoding")
        return cls(U0=U0, Us=tuple(us), V=V)


@dataclass(frozen=True)
class HidsSignature:
    """GS hierarchical signature: sig = ψ_t + s_t·H1(tuple ‖ m), plus Q_t."""

    sig: Point
    q_values: tuple[Point, ...]  # Q_1 … Q_t (signer's chain incl. its own)

    def size_bytes(self) -> int:
        return (len(self.sig.to_bytes())
                + sum(len(q.to_bytes()) for q in self.q_values))

    def to_bytes(self) -> bytes:
        out = bytearray()
        sig = self.sig.to_bytes()
        out += len(sig).to_bytes(2, "big") + sig
        out += len(self.q_values).to_bytes(1, "big")
        for q in self.q_values:
            encoded = q.to_bytes()
            out += len(encoded).to_bytes(2, "big") + encoded
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes, curve) -> "HidsSignature":
        sig_len = int.from_bytes(data[:2], "big")
        offset = 2
        sig = Point.from_bytes(data[offset:offset + sig_len], curve)
        offset += sig_len
        count = data[offset]
        offset += 1
        qs = []
        for _ in range(count):
            q_len = int.from_bytes(data[offset:offset + 2], "big")
            offset += 2
            qs.append(Point.from_bytes(data[offset:offset + q_len], curve))
            offset += q_len
        if offset != len(data):
            raise ParameterError("malformed HIDS signature encoding")
        return cls(sig=sig, q_values=tuple(qs))


class HibcRoot:
    """The federal A-server: root PKG of the HIBC tree (level 0 issuer).

    Holds the root secret s_0; publishes Q_0 = s_0·P as the tree-wide
    public key (``root_public``).
    """

    def __init__(self, params: DomainParams, rng: HmacDrbg) -> None:
        self.params = params
        self._s0 = params.random_scalar(rng)
        self.root_public = params.point_mul_generator(self._s0)  # Q_0

    def extract_child(self, identity: str, rng: HmacDrbg) -> "HibcNode":
        """Issue a level-1 entity (e.g. the federal A-server's own entity
        identity, or a state A-server directly under the root)."""
        id_tuple = (identity,)
        k1 = id_tuple_hash(self.params, id_tuple, 1)
        psi = k1 * self._s0  # ψ_1 = s_0 · K_1
        return HibcNode(params=self.params, root_public=self.root_public,
                        id_tuple=id_tuple, psi=psi, q_chain=(),
                        own_secret=self.params.random_scalar(rng))


@dataclass
class HibcNode:
    """An entity at level j of the HIBC tree.

    Private state: ψ_j (the GS private point), the Q-chain Q_1..Q_{j−1}
    received from ancestors, and this node's own issuing secret s_j.
    """

    params: DomainParams
    root_public: Point
    id_tuple: tuple[str, ...]
    psi: Point
    q_chain: tuple[Point, ...]  # Q_1 … Q_{j−1}
    own_secret: int = field(repr=False)

    @property
    def depth(self) -> int:
        return len(self.id_tuple)

    @property
    def own_q(self) -> Point:
        """Q_j = s_j·P for this node (published to children / verifiers)."""
        return self.params.point_mul_generator(self.own_secret)

    def extract_child(self, identity: str, rng: HmacDrbg) -> "HibcNode":
        """Level-(j+1) setup: ψ_{j+1} = ψ_j + s_j·K_{j+1}, hand down Q's."""
        child_tuple = self.id_tuple + (identity,)
        k_child = id_tuple_hash(self.params, child_tuple, len(child_tuple))
        child_psi = self.psi + k_child * self.own_secret
        return HibcNode(params=self.params, root_public=self.root_public,
                        id_tuple=child_tuple, psi=child_psi,
                        q_chain=self.q_chain + (self.own_q,),
                        own_secret=self.params.random_scalar(rng))

    # -- encryption ---------------------------------------------------------
    def decrypt(self, ciphertext: HibeCiphertext) -> bytes:
        """BasicHIDE decryption with ψ_j and the ancestor Q-chain.

        m = V ⊕ H( ê(U_0, ψ_t) / ∏_{l=2..t} ê(Q_{l−1}, U_l) ).
        Batched into one Miller-loop product with a single final
        exponentiation (Q's negated to realise the division).
        """
        t = self.depth
        if len(ciphertext.Us) != max(0, t - 1):
            raise DecryptionError("ciphertext depth does not match this node")
        # ψ_j is this node's long-lived point: prepared slot (symmetry of
        # ê and multiplicativity of the final exponentiation keep the
        # mask value unchanged).
        acc = prepared(self.psi).miller(ciphertext.U0)
        for l in range(2, t + 1):
            q_prev = self.q_chain[l - 2]  # Q_{l−1}
            u_l = ciphertext.Us[l - 2]
            if u_l.is_infinity or q_prev.is_infinity:
                raise DecryptionError("degenerate ciphertext component")
            acc = acc * miller_loop(-q_prev, u_l)
        mask_source = final_exponentiation(acc, self.params.curve)
        return xor_bytes(ciphertext.V, h_g2_to_bytes(mask_source,
                                                     len(ciphertext.V)))

    # -- signatures ----------------------------------------------------------
    def sign(self, message: bytes) -> HidsSignature:
        """GS HIDS: treat H1(tuple ‖ m) as a child and bind it with s_j."""
        p_m = _message_point(self.params, self.id_tuple, message)
        return HidsSignature(sig=self.psi + p_m * self.own_secret,
                             q_values=self.q_chain + (self.own_q,))


def _message_point(params: DomainParams, id_tuple: tuple[str, ...],
                   message: bytes) -> Point:
    """Hash a message, bound to the signer tuple, to a G1 point P_m
    (one-shot, so it bypasses the H1 memo)."""
    material = ("\x1f".join(id_tuple)).encode() + b"\x00" + message
    return h1_uncached(params, b"hids-msg:" + material)


def hibe_encrypt(params: DomainParams, root_public: Point,
                 id_tuple: tuple[str, ...], message: bytes,
                 rng: HmacDrbg) -> HibeCiphertext:
    """Encrypt to an identity tuple (any node in any domain of the tree)."""
    if not id_tuple:
        raise ParameterError("empty identity tuple")
    t = len(id_tuple)
    r = params.random_scalar(rng)
    U0 = params.point_mul_generator(r)
    Us = tuple(id_tuple_hash(params, id_tuple, l) * r for l in range(2, t + 1))
    k1 = id_tuple_hash(params, id_tuple, 1)
    mask_source = prepared(root_public).pair(k1) ** r
    V = xor_bytes(message, h_g2_to_bytes(mask_source, len(message)))
    return HibeCiphertext(U0=U0, Us=Us, V=V)


def hids_verify(params: DomainParams, root_public: Point,
                id_tuple: tuple[str, ...], message: bytes,
                signature: HidsSignature) -> bool:
    """Verify a GS hierarchical signature.

    Accept iff ê(P, sig) == ê(Q_0, K_1) · ∏_{l=2..t} ê(Q_{l−1}, K_l)
                           · ê(Q_t, P_m).
    One batched Miller product with the left side negated.
    """
    t = len(id_tuple)
    if len(signature.q_values) != t:
        return False
    if signature.sig.is_infinity:
        return False
    p_m = _message_point(params, id_tuple, message)
    acc = prepared(params.generator).miller(-signature.sig)
    acc = acc * prepared(root_public).miller(
        id_tuple_hash(params, id_tuple, 1))
    for l in range(2, t + 1):
        acc = acc * miller_loop(signature.q_values[l - 2],
                                id_tuple_hash(params, id_tuple, l))
    acc = acc * miller_loop(signature.q_values[t - 1], p_m)
    return final_exponentiation(acc, params.curve).is_one()


def hids_verify_or_raise(params: DomainParams, root_public: Point,
                         id_tuple: tuple[str, ...], message: bytes,
                         signature: HidsSignature) -> None:
    """Raise :class:`SignatureError` when HIDS verification fails."""
    if not hids_verify(params, root_public, id_tuple, message, signature):
        raise SignatureError("hierarchical signature failed for %r"
                             % (id_tuple,))
