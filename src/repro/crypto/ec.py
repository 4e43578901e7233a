"""Elliptic-curve arithmetic on the supersingular curve E: y² = x³ + x.

This is the curve underlying the "Type A" pairing parameters popularised by
the PBC library and used as the standard instantiation of Boneh–Franklin
IBE — exactly the setting HCPP's protocols assume.  Over F_p with
``p ≡ 3 (mod 4)`` the curve is supersingular with ``#E(F_p) = p + 1`` and
embedding degree 2.  The prime-order-r subgroup of E(F_p) serves as G1.

Two point representations are provided:

* :class:`Point` — immutable affine points (or infinity).  Clear, safe,
  used at API boundaries and in tests.
* Jacobian-coordinate helpers (:func:`jacobian_double`,
  :func:`jacobian_add`, :func:`jacobian_add_affine`) — inversion-free
  arithmetic for the fixed-base combs of :mod:`repro.crypto.precompute`
  (doublings and mixed additions; the general :func:`jacobian_add` is
  the reference double-and-add of the tests and benchmarks).  The
  pairing module has its own fused Miller-loop arithmetic.

Every variable-base multiplication (:meth:`Point.__mul__`, hence also
the cofactor multiplication of hashing to G1) is the x-only Montgomery
ladder of :func:`scalar_mult_ladder`.  With A = 0 and B = 1 the curve is
already in Montgomery form B·y² = x³ + A·x² + x, so a ladder step costs
nine base-field products, and the Okeya–Sakurai formula recovers y from
the ladder's final pair with one inversion.

The distortion map ψ(x, y) = (−x, i·y) (with i² = −1 in F_p²) maps
E(F_p) points into a linearly independent subgroup of E(F_p²), turning the
Tate pairing into a symmetric pairing ê(P, Q) = e(P, ψ(Q)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto import mathutil
from repro.crypto.fields import Fp2Element
from repro.exceptions import NotOnCurveError, ParameterError


@dataclass(frozen=True)
class CurveParams:
    """Domain parameters (q, G1, G2, e, P) of the paper's setup.

    ``p`` is the base-field prime, ``r`` the prime order of G1, ``h`` the
    cofactor with ``p + 1 = h * r``.  The generator is stored separately by
    :class:`repro.crypto.params.DomainParams`.
    """

    p: int
    r: int
    h: int

    def __post_init__(self) -> None:
        if self.p % 4 != 3:
            raise ParameterError("supersingular curve requires p ≡ 3 (mod 4)")
        if (self.p + 1) != self.h * self.r:
            raise ParameterError("cofactor mismatch: p + 1 != h * r")

    @property
    def field_bytes(self) -> int:
        return mathutil.bit_length_bytes(self.p)


class Point:
    """An affine point on E: y² = x³ + x over F_p, or the point at infinity.

    Instances are immutable and hashable, so points can key dictionaries
    (e.g. precomputation tables).  ``Point.infinity(curve)`` is the identity.
    """

    __slots__ = ("x", "y", "curve", "_infinity")

    def __init__(self, x: int, y: int, curve: CurveParams, *,
                 infinity: bool = False, check: bool = True) -> None:
        self.curve = curve
        self._infinity = infinity
        if infinity:
            self.x = 0
            self.y = 0
            return
        p = curve.p
        self.x = x % p
        self.y = y % p
        if check and not self._on_curve():
            raise NotOnCurveError("point (%d, %d) not on y^2 = x^3 + x" % (x, y))

    # -- construction ------------------------------------------------------
    @classmethod
    def infinity_point(cls, curve: CurveParams) -> "Point":
        return cls(0, 0, curve, infinity=True, check=False)

    @classmethod
    def from_x(cls, x: int, curve: CurveParams, parity: int = 0) -> Optional["Point"]:
        """Lift ``x`` to a curve point, or ``None`` when x³+x is a non-residue.

        ``parity`` selects which of the two roots ±y is returned (matching
        ``y % 2``), making decompression deterministic.
        """
        p = curve.p
        rhs = (pow(x, 3, p) + x) % p
        if rhs == 0:
            return cls(x, 0, curve, check=False)
        # p ≡ 3 (mod 4): rhs^((p+1)/4) is a root exactly when rhs is a
        # square, so one exponentiation both finds and tests it.
        y = pow(rhs, (p + 1) // 4, p)
        if y * y % p != rhs:
            return None
        if y % 2 != parity:
            y = p - y
        return cls(x, y, curve, check=False)

    # -- predicates ----------------------------------------------------------
    def _on_curve(self) -> bool:
        p = self.curve.p
        return (self.y * self.y - (pow(self.x, 3, p) + self.x)) % p == 0

    @property
    def is_infinity(self) -> bool:
        return self._infinity

    def is_in_subgroup(self) -> bool:
        """True when the point lies in the order-r subgroup G1."""
        return (self * self.curve.r).is_infinity

    # -- group law -------------------------------------------------------
    def __neg__(self) -> "Point":
        if self._infinity:
            return self
        return Point(self.x, -self.y % self.curve.p, self.curve, check=False)

    def __add__(self, other: "Point") -> "Point":
        if self.curve is not other.curve and self.curve != other.curve:
            raise ParameterError("points on different curves")
        if self._infinity:
            return other
        if other._infinity:
            return self
        p = self.curve.p
        if self.x == other.x:
            if (self.y + other.y) % p == 0:
                return Point.infinity_point(self.curve)
            # Doubling: slope = (3x² + 1) / 2y   (curve a-coefficient is 1).
            slope = (3 * self.x * self.x + 1) * mathutil.inv_mod(2 * self.y, p) % p
        else:
            slope = (other.y - self.y) * mathutil.inv_mod(other.x - self.x, p) % p
        x3 = (slope * slope - self.x - other.x) % p
        y3 = (slope * (self.x - x3) - self.y) % p
        return Point(x3, y3, self.curve, check=False)

    def __sub__(self, other: "Point") -> "Point":
        return self + (-other)

    def double(self) -> "Point":
        """Double via the tangent formula directly (no generic-add dispatch)."""
        if self._infinity:
            return self
        p = self.curve.p
        if self.y == 0:
            # The tangent is vertical: 2P = O.
            return Point.infinity_point(self.curve)
        slope = (3 * self.x * self.x + 1) * mathutil.inv_mod(2 * self.y, p) % p
        x3 = (slope * slope - 2 * self.x) % p
        y3 = (slope * (self.x - x3) - self.y) % p
        return Point(x3, y3, self.curve, check=False)

    def __mul__(self, scalar: int) -> "Point":
        """Scalar multiplication by the x-only Montgomery ladder.

        Any point of E(F_p) is accepted, in G1 or not; the scalar is
        reduced modulo the group order p + 1 first.
        """
        scalar %= self.curve.r * self.curve.h  # group order p+1 bounds any scalar
        if scalar == 0 or self._infinity:
            return Point.infinity_point(self.curve)
        result = scalar_mult_ladder(self.x, self.y, scalar, self.curve.p)
        if result is None:
            return Point.infinity_point(self.curve)
        return Point(result[0], result[1], self.curve, check=False)

    __rmul__ = __mul__

    # -- equality / hashing / encoding ------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        if self._infinity or other._infinity:
            return self._infinity and other._infinity
        return (self.x, self.y, self.curve.p) == (other.x, other.y, other.curve.p)

    def __hash__(self) -> int:
        if self._infinity:
            return hash(("inf", self.curve.p))
        return hash((self.x, self.y, self.curve.p))

    def to_bytes(self) -> bytes:
        """Uncompressed encoding ``0x04 ‖ x ‖ y``; infinity is ``0x00``."""
        if self._infinity:
            return b"\x00"
        length = self.curve.field_bytes
        return (b"\x04" + mathutil.int_to_bytes(self.x, length)
                + mathutil.int_to_bytes(self.y, length))

    @classmethod
    def from_bytes(cls, data: bytes, curve: CurveParams) -> "Point":
        if data == b"\x00":
            return cls.infinity_point(curve)
        length = curve.field_bytes
        if len(data) != 1 + 2 * length or data[0] != 0x04:
            raise ParameterError("bad point encoding")
        x = mathutil.bytes_to_int(data[1:1 + length])
        y = mathutil.bytes_to_int(data[1 + length:])
        # One point, one encoding: x + p would otherwise decode as x.
        if x >= curve.p or y >= curve.p:
            raise ParameterError("non-canonical point encoding")
        return cls(x, y, curve)

    def distort(self) -> tuple[Fp2Element, Fp2Element]:
        """Apply the distortion map ψ(x, y) = (−x, i·y), yielding F_p² coords."""
        if self._infinity:
            raise ParameterError("cannot distort the point at infinity")
        p = self.curve.p
        return (Fp2Element(-self.x % p, 0, p), Fp2Element(0, self.y, p))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._infinity:
            return "Point(infinity)"
        return "Point(%d, %d)" % (self.x, self.y)


# ---------------------------------------------------------------------------
# Jacobian-coordinate kernels.  A Jacobian triple (X, Y, Z) represents the
# affine point (X/Z², Y/Z³); Z == 0 encodes infinity.  These avoid a field
# inversion per group operation, which dominates affine arithmetic cost.
# ---------------------------------------------------------------------------

Jacobian = tuple[int, int, int]


def jacobian_double(pt: Jacobian, p: int) -> Jacobian:
    """Double a Jacobian point on y² = x³ + x (a = 1)."""
    x, y, z = pt
    if z == 0 or y == 0:
        return (1, 1, 0)
    ysq = y * y % p
    s = 4 * x * ysq % p
    z2 = z * z % p
    # m = 3x² + a·z⁴ with a = 1.
    m = (3 * x * x + z2 * z2) % p
    nx = (m * m - 2 * s) % p
    ny = (m * (s - nx) - 8 * ysq * ysq) % p
    nz = 2 * y * z % p
    return (nx, ny, nz)


def jacobian_add(p1: Jacobian, p2: Jacobian, p: int) -> Jacobian:
    """Add two Jacobian points on y² = x³ + x."""
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    if z1 == 0:
        return p2
    if z2 == 0:
        return p1
    z1sq = z1 * z1 % p
    z2sq = z2 * z2 % p
    u1 = x1 * z2sq % p
    u2 = x2 * z1sq % p
    s1 = y1 * z2sq * z2 % p
    s2 = y2 * z1sq * z1 % p
    if u1 == u2:
        if s1 != s2:
            return (1, 1, 0)
        return jacobian_double(p1, p)
    h = (u2 - u1) % p
    r = (s2 - s1) % p
    hsq = h * h % p
    hcu = hsq * h % p
    u1hsq = u1 * hsq % p
    nx = (r * r - hcu - 2 * u1hsq) % p
    ny = (r * (u1hsq - nx) - s1 * hcu) % p
    nz = h * z1 * z2 % p
    return (nx, ny, nz)


def jacobian_add_affine(p1: Jacobian, x2: int, y2: int, p: int) -> Jacobian:
    """Mixed addition of a Jacobian point and an affine point (Z2 = 1).

    Specialising :func:`jacobian_add` to a unit second Z saves four field
    multiplications per addition — the common case when accumulating
    comb entries, which are stored in affine form.
    """
    x1, y1, z1 = p1
    if z1 == 0:
        return (x2, y2, 1)
    z1sq = z1 * z1 % p
    u2 = x2 * z1sq % p
    s2 = y2 * z1sq * z1 % p
    if x1 == u2:
        if (y1 - s2) % p != 0:
            return (1, 1, 0)
        return jacobian_double(p1, p)
    h = (u2 - x1) % p
    r = (s2 - y1) % p
    hsq = h * h % p
    hcu = hsq * h % p
    u1hsq = x1 * hsq % p
    nx = (r * r - hcu - 2 * u1hsq) % p
    ny = (r * (u1hsq - nx) - y1 * hcu) % p
    nz = h * z1 % p
    return (nx, ny, nz)


def jacobian_neg(pt: Jacobian, p: int) -> Jacobian:
    x, y, z = pt
    return (x, -y % p, z)


def jacobian_to_affine(pt: Jacobian, p: int) -> Optional[tuple[int, int]]:
    """Convert to affine coordinates; ``None`` for infinity."""
    x, y, z = pt
    if z == 0:
        return None
    z_inv = mathutil.inv_mod(z, p)
    z_inv_sq = z_inv * z_inv % p
    return (x * z_inv_sq % p, y * z_inv_sq * z_inv % p)


def scalar_mult_ladder(x: int, y: int, scalar: int,
                       p: int) -> Optional[tuple[int, int]]:
    """Compute ``scalar * (x, y)`` and return affine coords (None = infinity).

    The x-only Montgomery ladder keeps R0 = k·P and R1 = (k + 1)·P as
    (X : Z) pairs, so every step adds with the known difference P and
    doubles one of the two.  With A = 0 the doubling
    (X : Z) ↦ ((X² − Z²)² : 4XZ(X² + Z²)) is taken scaled by 2, as
    (2·AA·BB : (AA − BB)(AA + BB)) with AA = (X + Z)², BB = (X − Z)².
    Okeya–Sakurai then recovers k·P's y-coordinate:

        y_k = ((x·x_k + 1)(x_k + x) − (x_k − x)²·x_{k+1}) / 2y

    over one inversion.  Z0 = 0 means k·P = O and Z1 = 0 means
    k·P = −P.  Since −1 is a non-residue mod p, (0, 0) is the only point
    of order 2; the ladder cannot take it as the difference, and k·(0, 0)
    is (0, 0) for odd k and O for even k.
    """
    if scalar < 0:
        result = scalar_mult_ladder(x, y, -scalar, p)
        if result is None:
            return None
        return (result[0], -result[1] % p)
    if scalar == 0:
        return None
    if y == 0:
        return (x, y) if scalar & 1 else None
    # R0 = P, R1 = 2P; the leading bit of the scalar is consumed.
    x0, z0 = x, 1
    aa = (x + 1) * (x + 1) % p
    bb = (x - 1) * (x - 1) % p
    x1, z1 = (aa * bb << 1) % p, (aa - bb) * (aa + bb) % p
    for bit in bin(scalar)[3:]:
        s0, d0 = x0 + z0, x0 - z0
        s1, d1 = x1 + z1, x1 - z1
        da = d1 * s0 % p
        cb = s1 * d0 % p
        t = da + cb
        xa = t * t % p          # differential addition R0 + R1
        t = da - cb
        za = t * t % p * x % p
        if bit == "1":          # R0 ← R0 + R1, R1 ← 2·R1
            aa = s1 * s1 % p
            bb = d1 * d1 % p
            x0, z0 = xa, za
            x1, z1 = (aa * bb << 1) % p, (aa - bb) * (aa + bb) % p
        else:                   # R1 ← R0 + R1, R0 ← 2·R0
            aa = s0 * s0 % p
            bb = d0 * d0 % p
            x0, z0 = (aa * bb << 1) % p, (aa - bb) * (aa + bb) % p
            x1, z1 = xa, za
    if z0 == 0:
        return None
    if z1 == 0:
        return (x, -y % p)
    xz0 = x * z0 % p
    num = ((x0 + xz0) * (x * x0 + z0) % p * z1
           - (x0 - xz0) * (x0 - xz0) % p * x1) % p
    w = 2 * y * z0 * z1 % p
    inv = mathutil.inv_mod(w * z0 % p, p)
    return (x0 * w % p * inv % p, num * inv % p)
