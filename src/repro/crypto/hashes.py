"""Hash functions of the HCPP domain: H1, H2, H3 and companions.

The paper's system setup publishes:

* H1 : {0,1}* → G1 — identity hashing for IBC key pairs
  (PK_i = H1(ID_i)); implemented by try-and-increment onto the curve
  followed by cofactor multiplication so the output lies in the order-r
  subgroup.
* H2 : KW → G1 — keyword hashing for PEKS (same construction with a
  distinct domain-separation tag).  We additionally expose h2 : KW → Z*_q,
  the scalar variant needed by the consistent identity-based PEKS reading
  (see DESIGN.md substitution note).
* H3 : G2 → Z*_q — maps pairing values to scalars/search tokens.

Plus :func:`h_g2_to_bytes` (the BF-IBE masking hash G2 → {0,1}^n) and
:func:`h_to_scalar` (message hashing for signatures).

H1 of a public identity is memoised: the same physician, role and
A-server identities are hashed again on every break-glass request, and
each hash costs a square root and a cofactor multiplication.  Inputs
that must not be retained — keywords used as IBE identities, one-shot
message points — go through :func:`h1_uncached` instead.
"""

from __future__ import annotations

import hashlib

from repro.crypto import mathutil
from repro.crypto.ec import Point
from repro.crypto.fields import Fp2Element
from repro.crypto.memo import LruMemo
from repro.crypto.params import DomainParams

_H1_TAG = b"HCPP-H1-identity:"
_H2_TAG = b"HCPP-H2-keyword:"
_H3_TAG = b"HCPP-H3-pairing:"
_HS_TAG = b"HCPP-HS-scalar:"
_HM_TAG = b"HCPP-HM-mask:"


def _hash_to_point(params: DomainParams, tag: bytes, data: bytes) -> Point:
    """Try-and-increment hash onto the order-r subgroup of E(F_p).

    Each candidate x-coordinate is derived from SHA-256(tag ‖ counter ‖
    data) expanded to the field size; about half the candidates lift to the
    curve, and cofactor multiplication lands the point in G1.  The expected
    number of iterations is 2, and the loop is deterministic in ``data``.
    """
    curve = params.curve
    counter = 0
    while True:
        digest = b""
        block = 0
        while len(digest) < curve.field_bytes + 16:
            digest += hashlib.sha256(
                tag + counter.to_bytes(4, "big") + block.to_bytes(4, "big") + data
            ).digest()
            block += 1
        x = mathutil.bytes_to_int(digest) % curve.p
        lifted = Point.from_x(x, curve, parity=counter & 1)
        if lifted is not None:
            candidate = lifted * curve.h
            if not candidate.is_infinity:
                return candidate
        counter += 1


_h1_memo = LruMemo(256)  # emptied by pairing.clear_pairing_cache


def h1_identity(params: DomainParams, identity: str | bytes) -> Point:
    """H1: map a public identity string to its public key in G1.

    Served from a bounded LRU keyed by (curve, identity bytes), so only
    public identities may be passed here; see :func:`h1_uncached`.
    """
    if isinstance(identity, str):
        identity = identity.encode()
    return _h1_memo.get((params.curve, identity), _hash_to_point, params,
                        _H1_TAG, identity)


def h1_uncached(params: DomainParams, data: str | bytes) -> Point:
    """H1 without the memo, for inputs that must not be retained."""
    if isinstance(data, str):
        data = data.encode()
    return _hash_to_point(params, _H1_TAG, data)


def h2_keyword_point(params: DomainParams, keyword: str | bytes) -> Point:
    """H2: map a PEKS keyword to a point of G1."""
    if isinstance(keyword, str):
        keyword = keyword.encode()
    return _hash_to_point(params, _H2_TAG, keyword)


def h2_keyword_scalar(params: DomainParams, keyword: str | bytes) -> int:
    """h2: map a keyword to a scalar in Z*_r (identity-based PEKS variant)."""
    if isinstance(keyword, str):
        keyword = keyword.encode()
    return params.scalar_from_bytes(_H2_TAG + keyword)


def h3_pairing_to_scalar(params: DomainParams, value: Fp2Element) -> int:
    """H3: G2 → Z*_q, used for PEKS search tokens."""
    return params.scalar_from_bytes(_H3_TAG + value.to_bytes())


def sha256_stream(prefix: bytes, seed: bytes, length: int) -> bytes:
    """``length`` bytes of SHA-256(prefix ‖ counter ‖ seed), counter 0, 1, …"""
    blocks = -(-length // 32)
    return b"".join(
        hashlib.sha256(prefix + counter.to_bytes(4, "big") + seed).digest()
        for counter in range(blocks))[:length]


def h3_pairing_to_bytes(value: Fp2Element, length: int = 32) -> bytes:
    """H3 variant emitting a byte token (what the S-server stores/compares)."""
    return sha256_stream(_H3_TAG, value.to_bytes(), length)


def h_g2_to_bytes(value: Fp2Element, length: int) -> bytes:
    """The BF-IBE masking hash H : G2 → {0,1}^n (keystream from a pairing)."""
    return sha256_stream(_HM_TAG, value.to_bytes(), length)


def h_to_scalar(params: DomainParams, *parts: bytes) -> int:
    """Hash arbitrary byte strings to a scalar in Z*_r (signatures, FO)."""
    hasher = hashlib.sha256(_HS_TAG)
    for part in parts:
        hasher.update(len(part).to_bytes(8, "big"))
        hasher.update(part)
    return params.scalar_from_bytes(hasher.digest())
