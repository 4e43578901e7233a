"""Finite-field arithmetic for the pairing substrate.

Two fields are provided:

* :class:`Fp` — the prime field F_p, wrapping plain integers with an
  attached modulus so field elements carry their context.
* :class:`Fp2Element` — the quadratic extension F_p² = F_p[i] / (i² + 1),
  valid whenever ``p ≡ 3 (mod 4)`` so that −1 is a non-residue.  Elements
  are written ``a + b·i``.

The supersingular curve ``y² = x³ + x`` used throughout HCPP has embedding
degree 2, so the Tate pairing takes values in F_p²; the distortion map
``ψ(x, y) = (−x, i·y)`` moves curve points into E(F_p²).

Elements are immutable; all operators return new objects.  For hot loops
(the Miller loop) the pairing module works on raw integers for speed, using
these classes at API boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto import mathutil
from repro.exceptions import ParameterError


@dataclass(frozen=True)
class Fp:
    """An element of the prime field F_p."""

    value: int
    p: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value % self.p)

    # -- arithmetic ------------------------------------------------------
    def _check(self, other: "Fp") -> None:
        if self.p != other.p:
            raise ParameterError("mixed-field arithmetic (p mismatch)")

    def __add__(self, other: "Fp") -> "Fp":
        self._check(other)
        return Fp(self.value + other.value, self.p)

    def __sub__(self, other: "Fp") -> "Fp":
        self._check(other)
        return Fp(self.value - other.value, self.p)

    def __mul__(self, other: "Fp | int") -> "Fp":
        if isinstance(other, int):
            return Fp(self.value * other, self.p)
        self._check(other)
        return Fp(self.value * other.value, self.p)

    __rmul__ = __mul__

    def __neg__(self) -> "Fp":
        return Fp(-self.value % self.p, self.p)

    def __pow__(self, exponent: int) -> "Fp":
        if exponent < 0:
            return Fp(pow(mathutil.inv_mod(self.value, self.p), -exponent,
                          self.p), self.p)
        return Fp(pow(self.value, exponent, self.p), self.p)

    def inverse(self) -> "Fp":
        """Multiplicative inverse; raises if the element is zero."""
        return Fp(mathutil.inv_mod(self.value, self.p), self.p)

    def __truediv__(self, other: "Fp") -> "Fp":
        self._check(other)
        return self * other.inverse()

    def sqrt(self) -> "Fp":
        """A square root; raises :class:`ParameterError` for non-residues."""
        return Fp(mathutil.sqrt_mod(self.value, self.p), self.p)

    def is_square(self) -> bool:
        return self.value == 0 or mathutil.is_quadratic_residue(self.value, self.p)

    # -- conversions -----------------------------------------------------
    def __int__(self) -> int:
        return self.value

    def __bool__(self) -> bool:
        return self.value != 0

    def to_bytes(self) -> bytes:
        return mathutil.int_to_bytes(self.value, mathutil.bit_length_bytes(self.p))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Fp(%d mod %d-bit p)" % (self.value, self.p.bit_length())


class Fp2Element:
    """An element ``a + b·i`` of F_p² with ``i² = −1``.

    Implemented without :mod:`dataclasses` to keep attribute access cheap in
    the pairing's final exponentiation, which performs thousands of F_p²
    multiplications.
    """

    __slots__ = ("a", "b", "p")

    def __init__(self, a: int, b: int, p: int) -> None:
        if p % 4 != 3:
            raise ParameterError("F_p[i]/(i^2+1) requires p ≡ 3 (mod 4)")
        self.a = a % p
        self.b = b % p
        self.p = p

    # -- constructors ----------------------------------------------------
    @classmethod
    def one(cls, p: int) -> "Fp2Element":
        return cls(1, 0, p)

    @classmethod
    def zero(cls, p: int) -> "Fp2Element":
        return cls(0, 0, p)

    @classmethod
    def from_base(cls, value: int, p: int) -> "Fp2Element":
        """Embed an F_p element into F_p²."""
        return cls(value, 0, p)

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other: "Fp2Element") -> "Fp2Element":
        p = self.p
        return Fp2Element((self.a + other.a) % p, (self.b + other.b) % p, p)

    def __sub__(self, other: "Fp2Element") -> "Fp2Element":
        p = self.p
        return Fp2Element((self.a - other.a) % p, (self.b - other.b) % p, p)

    def __neg__(self) -> "Fp2Element":
        return Fp2Element(-self.a % self.p, -self.b % self.p, self.p)

    def __mul__(self, other: "Fp2Element | int") -> "Fp2Element":
        p = self.p
        if isinstance(other, int):
            return Fp2Element(self.a * other % p, self.b * other % p, p)
        # (a + bi)(c + di) = (ac − bd) + (ad + bc)i, via Karatsuba (3 mults).
        a, b = self.a, self.b
        c, d = other.a, other.b
        ac = a * c
        bd = b * d
        cross = (a + b) * (c + d) - ac - bd
        return Fp2Element((ac - bd) % p, cross % p, p)

    __rmul__ = __mul__

    def square(self) -> "Fp2Element":
        """Squaring with the complex-number shortcut (2 mults)."""
        p = self.p
        a, b = self.a, self.b
        # (a + bi)^2 = (a+b)(a−b) + 2ab·i
        return Fp2Element((a + b) * (a - b) % p, 2 * a * b % p, p)

    def conjugate(self) -> "Fp2Element":
        """The conjugate a − b·i, which equals the p-power Frobenius."""
        return Fp2Element(self.a, -self.b % self.p, self.p)

    def norm(self) -> int:
        """The norm a² + b² ∈ F_p (product with the conjugate)."""
        return (self.a * self.a + self.b * self.b) % self.p

    def inverse(self) -> "Fp2Element":
        """Inverse via the norm: (a+bi)^-1 = (a−bi) / (a²+b²)."""
        n = self.norm()
        if n == 0:
            raise ParameterError("zero has no inverse in F_p^2")
        n_inv = mathutil.inv_mod(n, self.p)
        return Fp2Element(self.a * n_inv % self.p, -self.b * n_inv % self.p, self.p)

    def __truediv__(self, other: "Fp2Element") -> "Fp2Element":
        return self * other.inverse()

    def __pow__(self, exponent: int) -> "Fp2Element":
        """Exponentiation; negative exponents invert.

        A norm-1 base — every pairing value is one — takes the Lucas
        ladder of :func:`_pow_norm1`; any other base square-and-multiply.
        """
        if self.norm() == 1:
            return _pow_norm1(self.a, self.b, self.p, exponent)
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Fp2Element.one(self.p)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base.square()
            exponent >>= 1
        return result

    def frobenius(self) -> "Fp2Element":
        """The p-power Frobenius endomorphism x ↦ x^p (== conjugation)."""
        return self.conjugate()

    # -- predicates / conversions ----------------------------------------
    def is_one(self) -> bool:
        return self.a == 1 and self.b == 0

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fp2Element):
            return NotImplemented
        return self.p == other.p and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.p))

    def to_bytes(self) -> bytes:
        """Fixed-length big-endian encoding ``a ‖ b``."""
        length = mathutil.bit_length_bytes(self.p)
        return (mathutil.int_to_bytes(self.a, length)
                + mathutil.int_to_bytes(self.b, length))

    @classmethod
    def from_bytes(cls, data: bytes, p: int) -> "Fp2Element":
        length = mathutil.bit_length_bytes(p)
        if len(data) != 2 * length:
            raise ParameterError("bad F_p^2 encoding length")
        return cls(mathutil.bytes_to_int(data[:length]),
                   mathutil.bytes_to_int(data[length:]), p)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Fp2(%d + %d*i)" % (self.a, self.b)


def _pow_norm1(a: int, b: int, p: int, exponent: int) -> Fp2Element:
    """x^e for x = a + b·i of norm 1, by a Lucas ladder on its trace.

    For norm-1 x the inverse is the conjugate, so V_k = x^k + x̄^k
    = 2·Re(x^k) obeys V_2k = V_k² − 2 and V_2k+1 = V_k·V_k+1 − V_1:
    two base-field products per exponent bit carry (V_k, V_k+1).  Then
    x^k = V_k/2 + (a·V_k − V_k+1)/(2b)·i, and x^−k is its conjugate.
    """
    k = -exponent if exponent < 0 else exponent
    if b == 0:  # x = ±1
        return Fp2Element(pow(a, k, p), 0, p)
    t = 2 * a % p
    v0, v1 = 2, t
    for bit in bin(k)[2:]:
        if bit == "1":
            v0, v1 = (v0 * v1 - t) % p, (v1 * v1 - 2) % p
        else:
            v0, v1 = (v0 * v0 - 2) % p, (v0 * v1 - t) % p
    imag = (a * v0 - v1) * pow(2 * b, -1, p)
    if exponent < 0:
        imag = -imag
    return Fp2Element(v0 * ((p + 1) // 2), imag, p)
