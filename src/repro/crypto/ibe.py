"""Boneh–Franklin identity-based encryption (the paper's IBE, ref [14]/[19]).

Both variants from the original paper are implemented:

* :class:`BasicIdent` — IND-ID-CPA secure; the textbook scheme
  (U = rP, V = m ⊕ H(ê(H1(ID), P_pub)^r)).
* :class:`FullIdent` — IND-ID-CCA secure via the Fujisaki–Okamoto
  transform; this is what HCPP uses on the wire (e.g. the A-server sending
  the one-time passcode ``IBE_TPp(ID_i ‖ nounce ‖ t11)`` to the P-device,
  and the P-device encrypting MHI under role identities).

The PKG role (master key generation + key extraction) is carried by
:class:`PrivateKeyGenerator`; HCPP's A-servers own one of these.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.ec import Point
from repro.crypto.hashes import (h1_identity, h_g2_to_bytes, h_to_scalar,
                                 sha256_stream)
from repro.crypto.mathutil import xor_bytes
from repro.crypto.pairing import identity_pairing, prepared, tate_pairing
from repro.crypto.params import DomainParams
from repro.crypto.rng import HmacDrbg
from repro.exceptions import DecryptionError, ParameterError

__all__ = ["PrivateKeyGenerator", "BasicIdent", "FullIdent",
           "IbeCiphertext", "IdentityKeyPair",
           "encrypt_to_point", "decrypt_with_point"]


@dataclass(frozen=True)
class IdentityKeyPair:
    """An extracted IBC key pair: PK = H1(ID), Γ = s·PK (paper notation)."""

    identity: str
    public: Point   # PK_i = H1(ID_i)
    private: Point  # Γ_i  = s0 · PK_i


@dataclass(frozen=True)
class IbeCiphertext:
    """A BF-IBE ciphertext (U ∈ G1, V, and W for FullIdent)."""

    U: Point
    V: bytes
    W: bytes = b""

    def size_bytes(self) -> int:
        """Wire size (used by the communication-cost experiments)."""
        return len(self.U.to_bytes()) + len(self.V) + len(self.W)

    def to_bytes(self) -> bytes:
        u = self.U.to_bytes()
        return (len(u).to_bytes(2, "big") + u
                + len(self.V).to_bytes(4, "big") + self.V
                + len(self.W).to_bytes(4, "big") + self.W)

    @classmethod
    def from_bytes(cls, data: bytes, curve) -> "IbeCiphertext":
        u_len = int.from_bytes(data[:2], "big")
        offset = 2
        U = Point.from_bytes(data[offset:offset + u_len], curve)
        offset += u_len
        v_len = int.from_bytes(data[offset:offset + 4], "big")
        offset += 4
        V = data[offset:offset + v_len]
        offset += v_len
        w_len = int.from_bytes(data[offset:offset + 4], "big")
        offset += 4
        W = data[offset:offset + w_len]
        if len(V) != v_len or len(W) != w_len or offset + w_len != len(data):
            raise ParameterError("malformed IBE ciphertext encoding")
        return cls(U=U, V=V, W=W)


class PrivateKeyGenerator:
    """The PKG: holds the IBC master secret s0 and extracts private keys.

    In HCPP each *state A-server* runs one of these for its domain; the
    public side (P_pub = s0·P) is published in the domain parameters.
    """

    def __init__(self, params: DomainParams, rng: HmacDrbg) -> None:
        self.params = params
        self._master_secret = params.random_scalar(rng)
        self.public_key = params.point_mul_generator(self._master_secret)  # P_pub

    @classmethod
    def from_secret(cls, params: DomainParams, secret: int) -> "PrivateKeyGenerator":
        """Rebuild a PKG from a known master secret (testing / HIBC levels)."""
        pkg = cls.__new__(cls)
        pkg.params = params
        pkg._master_secret = secret % params.r
        if pkg._master_secret == 0:
            raise ParameterError("master secret must be nonzero mod r")
        pkg.public_key = params.point_mul_generator(pkg._master_secret)
        return pkg

    def extract(self, identity: str) -> IdentityKeyPair:
        """Extract the key pair for ``identity``: Γ = s0·H1(ID)."""
        public = h1_identity(self.params, identity)
        private = public * self._master_secret
        return IdentityKeyPair(identity=identity, public=public, private=private)

    @property
    def master_secret(self) -> int:
        """Exposed for the HIBC construction; never sent on the wire."""
        return self._master_secret


class BasicIdent:
    """BF BasicIdent: IND-ID-CPA encryption to an identity."""

    def __init__(self, params: DomainParams, pkg_public: Point) -> None:
        self.params = params
        self.pkg_public = pkg_public

    def encrypt(self, identity: str, message: bytes, rng: HmacDrbg) -> IbeCiphertext:
        r = self.params.random_scalar(rng)
        U = self.params.point_mul_generator(r)
        # ê(H1(ID), P_pub) depends only on the public identity: memoised.
        g_id = identity_pairing(self.pkg_public,
                                h1_identity(self.params, identity))
        mask = h_g2_to_bytes(g_id ** r, len(message))
        return IbeCiphertext(U=U, V=xor_bytes(message, mask))

    def decrypt(self, key: IdentityKeyPair, ciphertext: IbeCiphertext) -> bytes:
        mask = h_g2_to_bytes(tate_pairing(key.private, ciphertext.U),
                             len(ciphertext.V))
        return xor_bytes(ciphertext.V, mask)


class FullIdent:
    """BF FullIdent: IND-ID-CCA encryption via Fujisaki–Okamoto.

    Encryption:  σ ←$ {0,1}^32;  r = H4(σ, m);  U = rP;
                 V = σ ⊕ H(ê(H1(ID), P_pub)^r);  W = m ⊕ H5(σ).
    Decryption recomputes r and rejects when U ≠ rP (ciphertext integrity).
    """

    SIGMA_BYTES = 32

    def __init__(self, params: DomainParams, pkg_public: Point) -> None:
        self.params = params
        self.pkg_public = pkg_public

    def _h4(self, sigma: bytes, message: bytes) -> int:
        return h_to_scalar(self.params, b"FO-H4", sigma, message)

    @staticmethod
    def _h5(sigma: bytes, length: int) -> bytes:
        return sha256_stream(b"FO-H5", sigma, length)

    def encrypt(self, identity: str, message: bytes, rng: HmacDrbg) -> IbeCiphertext:
        sigma = rng.random_bytes(self.SIGMA_BYTES)
        r = self._h4(sigma, message)
        U = self.params.point_mul_generator(r)
        g_id = identity_pairing(self.pkg_public,
                                h1_identity(self.params, identity))
        V = xor_bytes(sigma, h_g2_to_bytes(g_id ** r, self.SIGMA_BYTES))
        W = xor_bytes(message, self._h5(sigma, len(message)))
        return IbeCiphertext(U=U, V=V, W=W)

    def decrypt(self, key: IdentityKeyPair, ciphertext: IbeCiphertext) -> bytes:
        if len(ciphertext.V) != self.SIGMA_BYTES:
            raise DecryptionError("malformed FullIdent ciphertext (V size)")
        sigma = xor_bytes(
            ciphertext.V,
            h_g2_to_bytes(tate_pairing(key.private, ciphertext.U),
                          self.SIGMA_BYTES))
        message = xor_bytes(ciphertext.W, self._h5(sigma, len(ciphertext.W)))
        r = self._h4(sigma, message)
        if self.params.point_mul_generator(r) != ciphertext.U:
            raise DecryptionError("FullIdent FO check failed: ciphertext "
                                  "tampered or wrong identity key")
        return message


def encrypt_to_point(params: DomainParams, pkg_public: Point,
                     public_point: Point, message: bytes,
                     rng: HmacDrbg) -> IbeCiphertext:
    """BF encryption to a *raw public-key point* instead of an identity.

    HCPP's emergency step 3 sends ``IBE_TPp(ID_i ‖ nounce ‖ t11)`` where
    TP_p is the P-device's pseudonymous public key (a G1 point with
    private half Γ_p = s0·TP_p) — not a hashed identity.  The scheme is
    identical to BasicIdent with H1(ID) replaced by the point:
    U = rP, V = m ⊕ H(ê(TP_p, P_pub)^r); decryption uses ê(Γ_p, U).
    The point may be a pseudonym or a secret keyword point, so its
    pairing is not memoised (see :func:`identity_pairing`).
    """
    if public_point.is_infinity:
        raise ParameterError("cannot encrypt to the infinity point")
    r = params.random_scalar(rng)
    U = params.point_mul_generator(r)
    mask = h_g2_to_bytes(prepared(pkg_public).pair(public_point) ** r,
                         len(message))
    return IbeCiphertext(U=U, V=xor_bytes(message, mask))


def decrypt_with_point(private_point: Point,
                       ciphertext: IbeCiphertext) -> bytes:
    """Decrypt :func:`encrypt_to_point` output with Γ = s0·PK."""
    if private_point.is_infinity:
        raise ParameterError("infinity private key")
    mask = h_g2_to_bytes(tate_pairing(private_point, ciphertext.U),
                         len(ciphertext.V))
    return xor_bytes(ciphertext.V, mask)
