"""Public-key encryption with keyword search (PEKS) — paper §II.C and §IV.E.

Three constructions, all on the pairing substrate:

* :class:`BdopPeks` — the original Boneh–Di Crescenzo–Ostrovsky–Persiano
  scheme (EUROCRYPT'04), the paper's demonstration choice:
  ``PEKS(pk, W) = (σP, H3(ê(H2(W), αP)^σ))``, trapdoor ``T_W = α·H2(W)``.
* :class:`AbdallaPeks` — the Abdalla et al. (CRYPTO'05) transform that the
  paper notes is *computationally consistent* where naive IBE→PEKS is not:
  a random message R is BF-IBE-encrypted under the keyword-as-identity and
  shipped alongside R; the test decrypts and compares.
* :class:`RolePeks` — the identity-based PEKS used in HCPP's MHI path,
  where the "receiver" is a *role identity* string ``Date‖Duty‖ServiceArea``
  whose private key Γ_r only the A-server can extract.  The paper's
  ``TD_r(kw) = Γ_r·H2(kw)`` multiplies two G1 points, which is undefined;
  we implement the unique consistent completion with a scalar keyword hash
  (DESIGN.md records this substitution):

      PEKS_σ(ID_r, kw) = (σP, H3(ê(H1(ID_r), P_pub)^{σ·h2(kw)}))
      TD_r(kw)         = h2(kw)·Γ_r
      Test((A,B), TD)  : H3(ê(TD, A)) == B

  Correctness: ê(TD, σP) = ê(h2(kw)·s0·H1(ID_r), σP)
             = ê(H1(ID_r), P_pub)^{σ·h2(kw)}.

:class:`MultiKeywordPeks` (PECK, ref [29]) extends :class:`RolePeks` to
conjunctive multi-keyword tags sharing one σ.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.ec import Point
from repro.crypto.hashes import (h1_identity, h1_uncached, h2_keyword_point,
                                 h2_keyword_scalar, h3_pairing_to_bytes)
from repro.crypto.hmac_impl import constant_time_equal
from repro.crypto.ibe import (IbeCiphertext, PrivateKeyGenerator,
                              encrypt_to_point)
from repro.crypto.pairing import identity_pairing, prepared
from repro.crypto.params import DomainParams
from repro.crypto.rng import HmacDrbg
from repro.exceptions import ParameterError

__all__ = ["BdopPeks", "AbdallaPeks", "RolePeks", "MultiKeywordPeks",
           "PeksTag", "PeksTrapdoor"]

_TOKEN_BYTES = 32


@dataclass(frozen=True)
class PeksTag:
    """A searchable tag attached to a ciphertext: (A = σP, B = H3(⋯))."""

    A: Point
    B: bytes

    def size_bytes(self) -> int:
        return len(self.A.to_bytes()) + len(self.B)


@dataclass(frozen=True)
class PeksTrapdoor:
    """A keyword trapdoor T_W ∈ G1 handed to the searching server."""

    point: Point

    def size_bytes(self) -> int:
        return len(self.point.to_bytes())

    def to_bytes(self) -> bytes:
        return self.point.to_bytes()

    @classmethod
    def from_bytes(cls, data: bytes, curve) -> "PeksTrapdoor":
        return cls(point=Point.from_bytes(data, curve))


class BdopPeks:
    """The BDOP PEKS: receiver key pair (α, αP); server tests tags."""

    def __init__(self, params: DomainParams, rng: HmacDrbg) -> None:
        self.params = params
        self._alpha = params.random_scalar(rng)
        self.public_key = params.point_mul_generator(self._alpha)

    def tag(self, keyword: str, rng: HmacDrbg) -> PeksTag:
        """Sender-side: PEKS(pk, W) = (σP, H3(ê(H2(W), αP)^σ))."""
        sigma = self.params.random_scalar(rng)
        A = self.params.point_mul_generator(sigma)
        # The receiver key is the fixed argument across every tag; by
        # symmetry of the pairing it can take the prepared slot.
        value = prepared(self.public_key).pair(
            h2_keyword_point(self.params, keyword)) ** sigma
        return PeksTag(A=A, B=h3_pairing_to_bytes(value, _TOKEN_BYTES))

    def trapdoor(self, keyword: str) -> PeksTrapdoor:
        """Receiver-side: T_W = α·H2(W)."""
        return PeksTrapdoor(h2_keyword_point(self.params, keyword) * self._alpha)

    def test(self, tag: PeksTag, trapdoor: PeksTrapdoor) -> bool:
        """Server-side: H3(ê(T_W, A)) == B."""
        # One trapdoor is tested against many stored tags; prepare it.
        value = prepared(trapdoor.point).pair(tag.A)
        return constant_time_equal(
            h3_pairing_to_bytes(value, _TOKEN_BYTES), tag.B)


@dataclass(frozen=True)
class AbdallaTag:
    """Abdalla et al. tag: (IBE-encryption of R under keyword, R)."""

    ciphertext: IbeCiphertext
    reference: bytes

    def size_bytes(self) -> int:
        return self.ciphertext.size_bytes() + len(self.reference)


class AbdallaPeks:
    """The consistent IBE→PEKS transform (encrypt a random R, ship R).

    The receiver *is* the PKG: its secret α doubles as the IBE master key,
    and the trapdoor for keyword W is the IBE private key for identity W.
    """

    R_BYTES = 32

    def __init__(self, params: DomainParams, rng: HmacDrbg) -> None:
        self.params = params
        self._pkg = PrivateKeyGenerator(params, rng)
        self.public_key = self._pkg.public_key

    def _keyword_point(self, keyword: str) -> Point:
        # Keywords are secrets: hashed without the public-identity memo.
        return h1_uncached(self.params, "peks-kw:" + keyword)

    def tag(self, keyword: str, rng: HmacDrbg) -> AbdallaTag:
        """BasicIdent encryption of a random R to the keyword's point."""
        reference = rng.random_bytes(self.R_BYTES)
        ciphertext = encrypt_to_point(self.params, self.public_key,
                                      self._keyword_point(keyword),
                                      reference, rng)
        return AbdallaTag(ciphertext=ciphertext, reference=reference)

    def trapdoor(self, keyword: str) -> PeksTrapdoor:
        """The keyword's IBE private key α·H1(keyword)."""
        return PeksTrapdoor(self._keyword_point(keyword)
                            * self._pkg.master_secret)

    def test(self, tag: AbdallaTag, trapdoor: PeksTrapdoor) -> bool:
        # Decrypt with the keyword key and compare against the shipped R.
        from repro.crypto.hashes import h_g2_to_bytes
        from repro.crypto.mathutil import xor_bytes
        mask = h_g2_to_bytes(prepared(trapdoor.point).pair(tag.ciphertext.U),
                             len(tag.ciphertext.V))
        return constant_time_equal(xor_bytes(tag.ciphertext.V, mask),
                                   tag.reference)


class RolePeks:
    """HCPP's identity-based PEKS for MHI retrieval (role identities).

    The *tagger* (P-device) needs only public data: the role identity
    string and the domain public key P_pub.  The *trapdoor issuer* needs
    Γ_r = s0·H1(ID_r), which the physician obtains from the A-server after
    role-based authentication.
    """

    def __init__(self, params: DomainParams, pkg_public: Point) -> None:
        self.params = params
        self.pkg_public = pkg_public

    def tag(self, role_identity: str, keyword: str, rng: HmacDrbg) -> PeksTag:
        """PEKS_σ(ID_r, kw) = (σP, H3(ê(H1(ID_r), P_pub)^{σ·h2(kw)}))."""
        sigma = self.params.random_scalar(rng)
        A = self.params.point_mul_generator(sigma)
        base = identity_pairing(self.pkg_public,
                                h1_identity(self.params, role_identity))
        exponent = sigma * h2_keyword_scalar(self.params, keyword) % self.params.r
        return PeksTag(A=A, B=h3_pairing_to_bytes(base ** exponent,
                                                  _TOKEN_BYTES))

    @staticmethod
    def trapdoor(role_private: Point, params: DomainParams,
                 keyword: str) -> PeksTrapdoor:
        """TD_r(kw) = h2(kw)·Γ_r — computed by the physician."""
        if role_private.is_infinity:
            raise ParameterError("role private key is infinity")
        return PeksTrapdoor(role_private * h2_keyword_scalar(params, keyword))

    def test(self, tag: PeksTag, trapdoor: PeksTrapdoor) -> bool:
        """S-server-side: H3(ê(TD, A)) == B."""
        value = prepared(trapdoor.point).pair(tag.A)
        return constant_time_equal(
            h3_pairing_to_bytes(value, _TOKEN_BYTES), tag.B)


@dataclass(frozen=True)
class MultiKeywordTag:
    """A conjunctive tag: one shared A = σP, one token per keyword."""

    A: Point
    tokens: tuple[bytes, ...]

    def size_bytes(self) -> int:
        return len(self.A.to_bytes()) + sum(len(t) for t in self.tokens)

    def to_bytes(self) -> bytes:
        a = self.A.to_bytes()
        out = bytearray(len(a).to_bytes(2, "big") + a)
        for token in self.tokens:
            out += len(token).to_bytes(2, "big")
            out += token
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes, curve) -> "MultiKeywordTag":
        a_len = int.from_bytes(data[:2], "big")
        A = Point.from_bytes(data[2:2 + a_len], curve)
        tokens = []
        offset = 2 + a_len
        while offset < len(data):
            t_len = int.from_bytes(data[offset:offset + 2], "big")
            offset += 2
            token = data[offset:offset + t_len]
            if len(token) != t_len:
                raise ParameterError("malformed multi-keyword tag encoding")
            tokens.append(token)
            offset += t_len
        return cls(A=A, tokens=tuple(tokens))


class MultiKeywordPeks:
    """PECK-style multi-keyword extension of :class:`RolePeks` (ref [29]).

    Sharing one randomizer σ across n keywords makes the tag
    |G1| + n·|token| instead of n·(|G1| + |token|), and lets the server
    test any subset of keywords against a single tag.
    """

    def __init__(self, params: DomainParams, pkg_public: Point) -> None:
        self.params = params
        self._single = RolePeks(params, pkg_public)

    def tag(self, role_identity: str, keywords: list[str],
            rng: HmacDrbg) -> MultiKeywordTag:
        if not keywords:
            raise ParameterError("need at least one keyword")
        sigma = self.params.random_scalar(rng)
        A = self.params.point_mul_generator(sigma)
        base = identity_pairing(self._single.pkg_public,
                                h1_identity(self.params, role_identity))
        tokens = []
        for kw in keywords:
            exponent = sigma * h2_keyword_scalar(self.params, kw) % self.params.r
            tokens.append(h3_pairing_to_bytes(base ** exponent, _TOKEN_BYTES))
        return MultiKeywordTag(A=A, tokens=tuple(tokens))

    @staticmethod
    def trapdoor(role_private: Point, params: DomainParams,
                 keyword: str) -> PeksTrapdoor:
        return RolePeks.trapdoor(role_private, params, keyword)

    def test(self, tag: MultiKeywordTag, trapdoor: PeksTrapdoor) -> bool:
        """True when the trapdoor keyword matches *any* keyword in the tag."""
        token = h3_pairing_to_bytes(prepared(trapdoor.point).pair(tag.A),
                                    _TOKEN_BYTES)
        return token in tag.tokens

    def test_all(self, tag: MultiKeywordTag,
                 trapdoors: list[PeksTrapdoor]) -> bool:
        """Conjunctive test: every trapdoor keyword must appear in the tag."""
        return all(self.test(tag, td) for td in trapdoors)

