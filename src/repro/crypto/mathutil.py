"""Number-theoretic utilities used by the pairing substrate.

Pure-Python implementations of the handful of algorithms the elliptic-curve
and pairing code needs: modular inverse, modular square roots
(Tonelli–Shanks, with the fast ``p ≡ 3 (mod 4)`` path), Miller–Rabin
primality testing, deterministic prime generation from a seed, Jacobi
symbols, and integer-to-bytes helpers.

Everything here is deterministic given its inputs; randomized algorithms
(Miller–Rabin witnesses, prime search) draw from an explicitly passed
generator so experiments are reproducible.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable

from repro.exceptions import ParameterError

# Small primes used for cheap trial division before Miller-Rabin.
_SMALL_PRIMES: tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293,
)


def inv_mod(a: int, m: int) -> int:
    """Return the inverse of ``a`` modulo ``m``.

    Raises :class:`ParameterError` when the inverse does not exist.
    """
    a %= m
    if a == 0:
        raise ParameterError("0 has no inverse modulo %d" % m)
    try:
        return pow(a, -1, m)
    except ValueError as exc:
        raise ParameterError("%d has no inverse modulo %d" % (a, m)) from exc


def batch_inv_mod(values: list[int], m: int) -> list[int]:
    """Inverses of ``values`` modulo ``m`` with a single inversion.

    Montgomery's trick: invert the product of all values once, then peel
    each inverse off with two multiplications.  Raises
    :class:`ParameterError` when any value has no inverse.
    """
    if not values:
        return []
    prefix = []
    acc = 1
    for value in values:
        acc = acc * value % m
        prefix.append(acc)
    inv = inv_mod(acc, m)
    out = [0] * len(values)
    for i in range(len(values) - 1, 0, -1):
        out[i] = inv * prefix[i - 1] % m
        inv = inv * values[i] % m
    out[0] = inv
    return out


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return ``(g, x, y)`` with ``a*x + b*y == g``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive ``n``."""
    if n <= 0 or n % 2 == 0:
        raise ParameterError("Jacobi symbol requires odd positive n")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_quadratic_residue(a: int, p: int) -> bool:
    """True when ``a`` is a nonzero square modulo the odd prime ``p``."""
    a %= p
    if a == 0:
        return False
    return pow(a, (p - 1) // 2, p) == 1


def sqrt_mod(a: int, p: int) -> int:
    """A square root of ``a`` modulo the odd prime ``p``.

    Uses the direct exponentiation shortcut for ``p ≡ 3 (mod 4)`` (which
    holds for all supersingular-curve primes in this library) and falls back
    to Tonelli–Shanks otherwise.  Raises :class:`ParameterError` when ``a``
    is a non-residue.
    """
    a %= p
    if a == 0:
        return 0
    if not is_quadratic_residue(a, p):
        raise ParameterError("%d is not a quadratic residue mod p" % a)
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks for p ≡ 1 (mod 4).
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    # Find a non-residue z deterministically.
    z = 2
    while is_quadratic_residue(z, p):
        z += 1
    m = s
    c = pow(z, q, p)
    t = pow(a, q, p)
    r = pow(a, (q + 1) // 2, p)
    while t != 1:
        # Find least i with t^(2^i) == 1.
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
            if i == m:
                raise ParameterError("sqrt_mod internal failure")
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = b * b % p
        t = t * c % p
        r = r * b % p
    return r


def is_probable_prime(n: int, rounds: int = 40) -> bool:
    """Miller–Rabin primality test with deterministic witnesses.

    For reproducibility the witnesses are derived from SHA-256 of ``n``
    rather than drawn from a global RNG; 40 derived bases gives error
    probability far below 2^-80 for the sizes used here.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    seed = n.to_bytes((n.bit_length() + 7) // 8, "big")
    for i in range(rounds):
        digest = hashlib.sha256(seed + i.to_bytes(4, "big")).digest()
        a = int.from_bytes(digest, "big") % (n - 3) + 2
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than ``n``."""
    candidate = n + 1
    if candidate <= 2:
        return 2
    if candidate % 2 == 0:
        candidate += 1
    while not is_probable_prime(candidate):
        candidate += 2
    return candidate


def gen_prime(bits: int, rand: Callable[[int], int],
              condition: Callable[[int], bool] | None = None) -> int:
    """Generate a ``bits``-bit prime using ``rand(nbits) -> int``.

    ``condition`` optionally filters candidates (e.g. ``p % 4 == 3``).
    """
    if bits < 2:
        raise ParameterError("prime must have at least 2 bits")
    while True:
        candidate = rand(bits) | (1 << (bits - 1)) | 1
        if condition is not None and not condition(candidate):
            continue
        if is_probable_prime(candidate):
            return candidate


def int_to_bytes(n: int, length: int | None = None) -> bytes:
    """Big-endian byte encoding of a non-negative integer.

    When ``length`` is omitted, the minimal length is used (``b""`` encodes
    zero as a single zero byte so round-trips are unambiguous).
    """
    if n < 0:
        raise ParameterError("cannot encode negative integer")
    if length is None:
        length = max(1, (n.bit_length() + 7) // 8)
    return n.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    """Big-endian byte decoding to a non-negative integer."""
    return int.from_bytes(data, "big")


def bit_length_bytes(n: int) -> int:
    """Number of bytes needed to hold ``n``'s binary representation."""
    return max(1, (n.bit_length() + 7) // 8)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ParameterError("xor_bytes requires equal lengths (%d != %d)"
                             % (len(a), len(b)))
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(
        len(a), "big")


def ceil_div(a: int, b: int) -> int:
    """Ceiling of ``a / b`` for positive integers."""
    return -(-a // b)


def product(values: Iterable[int], mod: int | None = None) -> int:
    """Product of an iterable, optionally reduced modulo ``mod``."""
    result = 1
    for v in values:
        result *= v
        if mod is not None:
            result %= mod
    return result
