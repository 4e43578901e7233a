"""Pairing domain parameters — the paper's parameter generator PG.

System setup (paper §IV.A): *"Each A-server of a state performs IBC domain
initialization by inputting security parameter ξ into parameter generator
PG, which outputs public domain parameters (q, G1, G2, e, P)."*

This module is PG.  It provides:

* :data:`TYPE_A_512` — the de-facto standard "Type A" supersingular
  parameters shipped with the PBC library (512-bit base field, 160-bit
  Solinas group order r = 2¹⁵⁹ + 2¹⁰⁷ + 1), matching the security level the
  paper's timing reference [31] assumes ("similar … to 1024-bit RSA").
* :data:`TYPE_A_160` — a small (160-bit field / 80-bit r) parameter set for
  fast unit tests.  **Not secure**; test-only.
* :func:`generate_type_a` — deterministic fresh-parameter generation from a
  seed, for arbitrary security parameters ξ (used by property tests and by
  the parameter-generation benchmark).

A :class:`DomainParams` bundles the curve, the G1 generator P, and helper
methods (pairing, hashing, scalar sampling) so protocol code never touches
raw integers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache

from repro.crypto import mathutil
from repro.crypto.ec import CurveParams, Point
from repro.crypto.fields import Fp2Element
from repro.crypto.pairing import pairing_product, tate_pairing
from repro.exceptions import ParameterError

__all__ = ["DomainParams", "default_params", "test_params", "generate_type_a",
           "TYPE_A_512", "TYPE_A_160"]


@dataclass(frozen=True)
class DomainParams:
    """Public IBC domain parameters (q, G1, G2, ê, P) plus conveniences."""

    curve: CurveParams
    generator: Point
    name: str = field(default="custom")

    def __post_init__(self) -> None:
        if self.generator.is_infinity:
            raise ParameterError("generator must not be infinity")
        if not self.generator.is_in_subgroup():
            raise ParameterError("generator is not in the order-r subgroup")

    # -- group facts -------------------------------------------------------
    @property
    def p(self) -> int:
        """Base-field prime (the paper's q)."""
        return self.curve.p

    @property
    def r(self) -> int:
        """Prime order of G1 and G2 (the paper's q in Z*_q exponents)."""
        return self.curve.r

    @property
    def g1_bytes(self) -> int:
        """Size of a serialized G1 element (uncompressed)."""
        return 1 + 2 * self.curve.field_bytes

    @property
    def g2_bytes(self) -> int:
        """Size of a serialized G2 (F_p²) element."""
        return 2 * self.curve.field_bytes

    # -- operations ---------------------------------------------------------
    def pairing(self, P: Point, Q: Point) -> Fp2Element:
        """The symmetric pairing ê(P, Q)."""
        return tate_pairing(P, Q)

    def pairing_ratio_check(self, lhs: tuple[Point, Point],
                            rhs: tuple[Point, Point]) -> bool:
        """Test ê(lhs) == ê(rhs) with a single final exponentiation."""
        P1, Q1 = lhs
        P2, Q2 = rhs
        return pairing_product([(P1, Q1), (-P2, Q2)], self.curve).is_one()

    def scalar_from_bytes(self, data: bytes) -> int:
        """Map bytes to a nonzero scalar in Z*_r (for H3-style hashes)."""
        value = mathutil.bytes_to_int(
            hashlib.sha256(data).digest() + hashlib.sha256(b"\x01" + data).digest()
        ) % (self.r - 1)
        return value + 1

    def random_scalar(self, rng) -> int:
        """A uniform scalar in Z*_r drawn from ``rng`` (.randint-style)."""
        return rng.randint(1, self.r - 1)

    def point_mul_generator(self, scalar: int) -> Point:
        """scalar · P for the domain generator, via its fixed-base comb.

        Identical output to ``self.generator * scalar``; the first call
        builds (and registers) the generator's comb, every later call
        reuses it.
        """
        from repro.crypto.precompute import fixed_base_mul
        return fixed_base_mul(self.generator, scalar)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "DomainParams(%s, |p|=%d bits, |r|=%d bits)" % (
            self.name, self.p.bit_length(), self.r.bit_length())


# ---------------------------------------------------------------------------
# Standard parameter sets
# ---------------------------------------------------------------------------

# PBC library "a.param": p + 1 = h·r with r = 2^159 + 2^107 + 1 (Solinas).
_PBC_A_P = int(
    "8780710799663312522437781984754049815806883199414208211028653399266475"
    "6308802229570786251794226622214231558587695823174592777133673174813249"
    "25129998224791"
)
_PBC_A_R = (1 << 159) + (1 << 107) + 1
_PBC_A_H = (_PBC_A_P + 1) // _PBC_A_R


def _find_generator(curve: CurveParams, seed: bytes) -> Point:
    """Deterministically derive a G1 generator via try-and-increment.

    Hash the seed with a counter to an x-coordinate, lift to the curve, and
    clear the cofactor; the first non-infinity result is the generator.
    """
    counter = 0
    while True:
        digest = b""
        block = 0
        while len(digest) < curve.field_bytes + 16:
            digest += hashlib.sha256(
                seed + counter.to_bytes(4, "big") + block.to_bytes(4, "big")
            ).digest()
            block += 1
        x = mathutil.bytes_to_int(digest) % curve.p
        lifted = Point.from_x(x, curve, parity=0)
        if lifted is not None:
            candidate = lifted * curve.h
            if not candidate.is_infinity:
                return candidate
        counter += 1


@lru_cache(maxsize=None)
def _build(name: str, p: int, r: int) -> DomainParams:
    curve = CurveParams(p=p, r=r, h=(p + 1) // r)
    generator = _find_generator(curve, b"HCPP-generator:" + name.encode())
    return DomainParams(curve=curve, generator=generator, name=name)


def default_params() -> DomainParams:
    """The production-grade SS512 Type-A parameters (≈1024-bit-RSA level)."""
    return _build("type-a-512", _PBC_A_P, _PBC_A_R)


# Small parameters for fast tests: r is an 80-bit Solinas-style prime and
# p = h·r − 1 a 160-bit prime ≡ 3 (mod 4).  Found by the same search
# strategy as generate_type_a and hardcoded for instant import.
_TEST_R = (1 << 79) + (1 << 57) + 1          # 80-bit low-weight prime
_TEST_H = 1208925819614629174706500          # even cofactor, p ≡ 3 (mod 4)
_TEST_P = _TEST_H * _TEST_R - 1              # 160-bit prime


def test_params() -> DomainParams:
    """Small, fast, *insecure* parameters for unit tests."""
    return _build("type-a-160", _TEST_P, _TEST_R)


def generate_type_a(rbits: int, pbits: int, seed: bytes) -> DomainParams:
    """Generate fresh Type-A parameters deterministically from ``seed``.

    Search strategy: fix a low-Hamming-weight prime r of ``rbits`` bits
    (Solinas form 2^a + 2^b + 1 when possible, else next_prime), then scan
    even cofactors h of the right size until p = h·r − 1 is prime and
    ≡ 3 (mod 4).  Runs in seconds for the sizes used in tests/benchmarks.
    """
    if rbits < 16 or pbits <= rbits + 2:
        raise ParameterError("need rbits >= 16 and pbits > rbits + 2")
    # Deterministic r: prefer the Solinas form used by PBC.
    r = 0
    for b in range(rbits - 2, 0, -1):
        candidate = (1 << (rbits - 1)) + (1 << b) + 1
        if mathutil.is_probable_prime(candidate):
            r = candidate
            break
    if r == 0:
        r = mathutil.next_prime(1 << (rbits - 1))
    hbits = pbits - rbits
    base = mathutil.bytes_to_int(hashlib.sha256(seed).digest()) % (1 << hbits)
    base |= 1 << (hbits - 1)
    base &= ~1  # even
    h = base
    while True:
        p = h * r - 1
        if p % 4 == 3 and mathutil.is_probable_prime(p):
            break
        h += 2
    curve = CurveParams(p=p, r=r, h=h)
    generator = _find_generator(curve, b"HCPP-generator:" + seed)
    return DomainParams(curve=curve, generator=generator,
                        name="type-a-%d" % pbits)
