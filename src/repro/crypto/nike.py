"""Sakai–Ohgishi–Kasai non-interactive key agreement.

HCPP derives every protocol-protecting shared key without any key-exchange
messages, exactly as the paper specifies:

* ν = ê(Γ_p, PK_S) = ê(TP_p, Γ_S)   — patient ↔ S-server (storage/retrieval)
* ϖ = ê(Γ_i, PK_A) = ê(PK_i, Γ_A)   — physician ↔ A-server (emergency auth)
* ρ = ê(Γ_r, PK_S) = ê(PK_r, Γ_S)   — role-key holder ↔ S-server (MHI)

Each party pairs *its own private key* with the *other's public key*;
bilinearity makes both sides equal (both are ê(PK_a, PK_b)^s0).  The raw
G2 element is passed through a KDF to obtain HMAC/AES key material.
The pairing is symmetric, so either point may go first; the long-lived
one does, because the first argument is the one whose Miller loop is
prepared and cached (see :func:`shared_key_from_points`).

ϖ is *static*: it depends only on two identity keys, so the physician
and the A-server each derive it once per peer and keep it in a
:class:`StaticKeyCache` on their long-lived object (memory only; it is
never journaled or snapshotted).  ν and ρ are not static for the
patient, whose every upload or search carries a fresh pseudonym, but
the S-server sees the same client point again and again: a family
member's or P-device's package pseudonym TP_p in each request of an
exchange and in later ones, and a role key PK_r in every search of its
window.  The S-server keeps them in a :class:`StaticKeyCache` too.

The patient's side of ν needs no pairing per pseudonym: it made Γ′ = ρΓ
itself, so ν's value ê(PK_S, Γ′) = g^ρ with g = ê(PK_S, Γ) fixed per
S-server key (bilinearity).  :func:`sok_value` gives g once per server and
:func:`derive_shared_key` turns g^ρ into ν, the same KDF as
:func:`shared_key_from_points`, so ν is byte-identical either way.
"""

from __future__ import annotations

import hashlib

from repro.crypto.ec import Point
from repro.crypto.fields import Fp2Element
from repro.crypto.ibe import IdentityKeyPair
from repro.crypto.memo import LruMemo
from repro.crypto.pairing import prepared
from repro.exceptions import ParameterError

__all__ = ["shared_key", "shared_key_from_points", "sok_value",
           "derive_shared_key", "StaticKeyCache", "SHARED_KEY_SIZE"]

SHARED_KEY_SIZE = 32


def shared_key_from_points(long_lived: Point, ephemeral: Point) -> bytes:
    """Derive the SOK shared key ê(long_lived, ephemeral) → 32 bytes.

    The first argument takes the prepared slot, so it must be the
    long-lived point of the two: the S-server pairs its fixed Γ_S against
    every client, and a patient pairs the S-server's fixed PK_S against
    each fresh Γ′ (the pairing is symmetric, so ê(Γ′, PK_S) = ê(PK_S, Γ′)
    byte for byte).  An ephemeral point in the first slot would build —
    and push into the bounded cache — a preparation used exactly once.
    """
    return derive_shared_key(sok_value(long_lived, ephemeral))


def sok_value(long_lived: Point, ephemeral: Point) -> Fp2Element:
    """The pairing value ê(long_lived, ephemeral) behind a SOK key."""
    if long_lived.is_infinity or ephemeral.is_infinity:
        raise ParameterError("NIKE inputs must be non-infinity points")
    return prepared(long_lived).pair(ephemeral)


def derive_shared_key(value: Fp2Element) -> bytes:
    """The KDF from a SOK pairing value to a 32-byte shared key."""
    return hashlib.sha256(b"HCPP-NIKE:" + value.to_bytes()).digest()[:SHARED_KEY_SIZE]


def shared_key(my_key: IdentityKeyPair, their_public: Point) -> bytes:
    """Convenience wrapper taking a full :class:`IdentityKeyPair`."""
    return shared_key_from_points(my_key.private, their_public)


class StaticKeyCache:
    """SOK keys of one long-lived party, derived once per peer point.

    Keyed by (own private point, peer public point), so an identity key
    that is replaced can never return the old key.  An
    :class:`~repro.crypto.memo.LruMemo` of ``CAPACITY`` peers.
    """

    CAPACITY = 64

    def __init__(self) -> None:
        self._keys = LruMemo(self.CAPACITY)

    def get(self, private: Point, peer_public: Point) -> bytes:
        """``shared_key_from_points(private, peer_public)``, memoised."""
        return self._keys.get((private, peer_public), shared_key_from_points,
                              private, peer_public)

    def __len__(self) -> int:
        return len(self._keys)
