"""Hess identity-based signatures (the paper's IBS, ref [28]).

HCPP uses IBS in the emergency path: the physician signs his passcode
request (step 1), the A-server signs the passcode delivery and the
P-device record RD (steps 2–3), and both signatures anchor the TR/RD
accountability evidence — a signature that verifies under ID_i proves ID_i
took part in the transaction.

Scheme (Hess, SAC 2002), with S_ID = s0·H1(ID) the signer's IBC key:

    Sign:    k ←$ Z*_q,  r = ê(H1(ID), P)^k,  v = H(m ‖ r),
             u = v·S_ID + k·H1(ID)
    Verify:  r' = ê(u, P) · ê(H1(ID), P_pub)^(−v),  accept iff v == H(m ‖ r')

Correctness: ê(u,P) = ê(S_ID,P)^v·ê(H1(ID),P)^k = ê(H1(ID),P_pub)^v · r.

Acceleration (all output-equivalent to the textbook formulas):

* ê(H1(ID), P) in signing and ê(H1(ID), P_pub) in verification pair a
  system point with a public identity, so both come from the memo of
  :func:`repro.crypto.pairing.identity_pairing` (the pairing is
  symmetric, so the system point takes the prepared first slot).
* Signing multiplies the signer's long-lived S_ID and H1(ID) through
  their fixed-base combs (:func:`repro.crypto.precompute.fixed_base_mul`),
  built on a signer's first signature and reused for every later one.
* Verification computes r' = ê(P, u) · ê(P_pub, PK)^(−v): one prepared
  pairing and one G2 power, where the textbook form ê(u, P)·ê(−v·PK,
  P_pub) spends a scalar multiplication and a second Miller loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.ec import Point
from repro.crypto.fields import Fp2Element
from repro.crypto.hashes import h1_identity, h_to_scalar
from repro.crypto.ibe import IdentityKeyPair
from repro.crypto.pairing import identity_pairing, prepared
from repro.crypto.params import DomainParams
from repro.crypto.precompute import fixed_base_mul
from repro.crypto.rng import HmacDrbg
from repro.exceptions import SignatureError

__all__ = ["IbsSignature", "sign", "verify"]


@dataclass(frozen=True)
class IbsSignature:
    """A Hess signature (u ∈ G1, v ∈ Z*_q)."""

    u: Point
    v: int

    def size_bytes(self) -> int:
        """Wire size (communication-cost experiments)."""
        return len(self.u.to_bytes()) + (self.v.bit_length() + 7) // 8

    def to_bytes(self) -> bytes:
        u = self.u.to_bytes()
        v = self.v.to_bytes(32, "big")
        return len(u).to_bytes(2, "big") + u + v

    @classmethod
    def from_bytes(cls, data: bytes, curve) -> "IbsSignature":
        u_len = int.from_bytes(data[:2], "big")
        if len(data) != 2 + u_len + 32:
            raise SignatureError("malformed IBS signature encoding")
        u = Point.from_bytes(data[2:2 + u_len], curve)
        v = int.from_bytes(data[2 + u_len:], "big")
        return cls(u=u, v=v)


def sign(params: DomainParams, key: IdentityKeyPair, message: bytes,
         rng: HmacDrbg) -> IbsSignature:
    """Produce a Hess IBS on ``message`` under the signer's identity key."""
    k = params.random_scalar(rng)
    r = identity_pairing(params.generator, key.public) ** k
    v = h_to_scalar(params, b"hess-ibs", message, r.to_bytes())
    u = fixed_base_mul(key.private, v) + fixed_base_mul(key.public, k)
    return IbsSignature(u=u, v=v)


def _recompute_r(params: DomainParams, pkg_public: Point, pk: Point,
                 signature: IbsSignature) -> Fp2Element:
    """r' = ê(P, u) · ê(P_pub, PK)^(−v).

    Equal, element for element, to the textbook ê(u, P) · ê(PK, P_pub)^(−v):
    ê is symmetric, and ê(P_pub, PK) is memoised per identity.
    """
    return (prepared(params.generator).pair(signature.u)
            * identity_pairing(pkg_public, pk) ** (-signature.v % params.r))


def verify(params: DomainParams, pkg_public: Point, identity: str,
           message: bytes, signature: IbsSignature) -> bool:
    """Check a Hess signature against ``identity`` (True/False)."""
    if signature.u.is_infinity:
        return False
    pk = h1_identity(params, identity)
    r_prime = _recompute_r(params, pkg_public, pk, signature)
    v_prime = h_to_scalar(params, b"hess-ibs", message, r_prime.to_bytes())
    return v_prime == signature.v


def verify_or_raise(params: DomainParams, pkg_public: Point, identity: str,
                    message: bytes, signature: IbsSignature) -> None:
    """Raise :class:`SignatureError` when verification fails."""
    if not verify(params, pkg_public, identity, message, signature):
        raise SignatureError("IBS verification failed for identity %r"
                             % identity)

