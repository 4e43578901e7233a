"""Pseudo-random function family — the paper's f : {0,1}^k × {0,1}^β → {0,1}^(γ+log₂α).

Section II.B defines a PRF family F_k = {f_s} indexed by seeds s with
efficiency and pseudorandomness.  We instantiate it with HMAC-SHA256 in
"expand" mode (as in HKDF-Expand), which is a PRF under the standard
assumption on the compression function, and expose bit-precise output
lengths because the SSE construction needs outputs of exactly
γ + log₂α bits to XOR-mask lookup-table entries.
"""

from __future__ import annotations

from repro.crypto.hmac_impl import HmacKey
from repro.exceptions import ParameterError


class Prf:
    """A member f_s of the PRF family, with a fixed output bit-length.

    ``Prf(seed, output_bits)`` fixes the seed (the paper's s ∈ {0,1}^k) and
    output length ℓ(k); calling the object evaluates f_s(x).
    """

    def __init__(self, seed: bytes, output_bits: int) -> None:
        if output_bits <= 0:
            raise ParameterError("PRF output length must be positive")
        self._mac = HmacKey(seed).mac
        self.output_bits = output_bits
        self.output_bytes = (output_bits + 7) // 8
        self._blocks = -(-self.output_bytes // 32)

    def __call__(self, x: bytes) -> bytes:
        """Evaluate f_s(x) to exactly ``output_bits`` bits (MSB-padded)."""
        mac = self._mac
        output = b"".join(mac(counter.to_bytes(4, "big") + x)
                          for counter in range(self._blocks))
        output = output[: self.output_bytes]
        # Mask excess high bits so the value fits output_bits exactly.
        excess = self.output_bytes * 8 - self.output_bits
        if excess:
            first = output[0] & (0xFF >> excess)
            output = bytes([first]) + output[1:]
        return output

    def as_int(self, x: bytes) -> int:
        """f_s(x) interpreted as an integer in [0, 2^output_bits)."""
        return int.from_bytes(self(x), "big")


def prf_int(seed: bytes, x: bytes, modulus: int) -> int:
    """One-shot PRF evaluation reduced into [0, modulus).

    Uses 128 bits of extra width before reduction so the modular bias is
    negligible (< 2^-128) for any modulus the library uses.
    """
    if modulus <= 0:
        raise ParameterError("modulus must be positive")
    width_bits = modulus.bit_length() + 128
    return Prf(seed, width_bits).as_int(x) % modulus
