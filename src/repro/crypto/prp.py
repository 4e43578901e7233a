"""Pseudo-random permutations — the paper's ℓ, φ and θ.

Section IV.A selects three PRPs:

* ℓ : {0,1}^k × {0,1}^β → {0,1}^β          (lookup-table virtual addresses)
* φ : {0,1}^k × {0,1}^log₂α → {0,1}^log₂α   (array-A physical addresses)
* θ : {0,1}^k × {0,1}^(β+γ+log₂α) → …        (multi-user trapdoor wrapping)

Two constructions are provided:

* :class:`FeistelPrp` — a balanced Luby–Rackoff network over bit strings of
  any even or odd length (the halves are split as ⌈n/2⌉ / ⌊n/2⌋, an
  unbalanced Feistel).  Luby–Rackoff proves 4 rounds give a strong PRP from
  a PRF; we use 10 for margin.  A round whose input half is at most
  ``_TABLE_BITS`` wide reads a per-instance table of its outputs, each
  entry made by the HMAC round function on first use: the round function
  is deterministic, so the table changes no output.  φ's halves are 3–4
  bits, so a 20-file index makes at most 5·2³ + 5·2⁴ = 120 round MACs
  where one per round per evaluation made about 1,000; ℓ's and θ's
  halves are 64 bits or more, and their rounds are MACed on every call.
* :class:`DomainPrp` — a permutation of the *integer* domain [0, N) for
  arbitrary N (not a power of two), built from a FeistelPrp over
  ⌈log₂N⌉ bits with cycle walking.  The SSE array A has α entries where α
  is "the total size of the plaintext file collection", rarely a power of
  two, so this is exactly what φ needs.

Both are bijections for every key, invertible, and deterministic.
"""

from __future__ import annotations

from repro.crypto.hmac_impl import HmacKey
from repro.exceptions import ParameterError

_DEFAULT_ROUNDS = 10
# Widest input half whose round outputs are tabled: at most 2^12 entries
# (32 KiB of slots) per round.
_TABLE_BITS = 12


class FeistelPrp:
    """An (un)balanced Feistel PRP over ``bits``-bit strings."""

    def __init__(self, key: bytes, bits: int, rounds: int = _DEFAULT_ROUNDS) -> None:
        if bits < 2:
            raise ParameterError("Feistel PRP needs a domain of >= 2 bits")
        if rounds < 4:
            raise ParameterError("fewer than 4 Feistel rounds is not a strong PRP")
        self.bits = bits
        self.rounds = rounds
        self._left_bits = (bits + 1) // 2
        self._right_bits = bits // 2
        # One keyed MAC per round (domain-separated round keys), with the
        # number of output blocks and the mask of the half it updates;
        # and per round a table of outputs by input, or None when the
        # input half is too wide to table.
        master = HmacKey(key)
        self._rounds = []
        self._tables: list[list[int | None] | None] = []
        for i in range(rounds):
            out_bits, in_bits = ((self._right_bits, self._left_bits) if i % 2
                                 else (self._left_bits, self._right_bits))
            round_key = master.mac(b"feistel-round" + i.to_bytes(4, "big"))
            self._rounds.append((HmacKey(round_key).mac, -(-out_bits // 256),
                                 (1 << out_bits) - 1))
            self._tables.append([None] * (1 << in_bits)
                                if in_bits <= _TABLE_BITS else None)

    def _round_function(self, round_index: int, value: int) -> int:
        mac, blocks, mask = self._rounds[round_index]
        data = value.to_bytes(max(16, (value.bit_length() + 7) // 8), "big")
        digest = b"".join(mac(counter.to_bytes(4, "big") + data)
                          for counter in range(blocks))
        return int.from_bytes(digest, "big") & mask

    def _round(self, round_index: int, value: int) -> int:
        """The round function, read from the round's table when it has one."""
        table = self._tables[round_index]
        if table is None:
            return self._round_function(round_index, value)
        output = table[value]
        if output is None:
            output = table[value] = self._round_function(round_index, value)
        return output

    def encrypt(self, x: int) -> int:
        """Apply the permutation to an integer in [0, 2^bits)."""
        if not 0 <= x < (1 << self.bits):
            raise ParameterError("input outside PRP domain")
        left = x >> self._right_bits
        right = x & ((1 << self._right_bits) - 1)
        for i in range(self.rounds):
            # Alternate half-sizes to realise the unbalanced network.
            if i % 2 == 0:
                left ^= self._round(i, right)
            else:
                right ^= self._round(i, left)
        return (left << self._right_bits) | right

    def decrypt(self, y: int) -> int:
        """Invert the permutation."""
        if not 0 <= y < (1 << self.bits):
            raise ParameterError("input outside PRP domain")
        left = y >> self._right_bits
        right = y & ((1 << self._right_bits) - 1)
        for i in reversed(range(self.rounds)):
            if i % 2 == 0:
                left ^= self._round(i, right)
            else:
                right ^= self._round(i, left)
        return (left << self._right_bits) | right

    # Byte-string convenience used by the multi-user SSE θ wrapping.
    def encrypt_bytes(self, data: bytes) -> bytes:
        nbytes = (self.bits + 7) // 8
        if len(data) != nbytes:
            raise ParameterError("input length mismatch for PRP domain")
        value = int.from_bytes(data, "big")
        if value >= (1 << self.bits):
            raise ParameterError("input exceeds PRP bit-domain")
        return self.encrypt(value).to_bytes(nbytes, "big")

    def decrypt_bytes(self, data: bytes) -> bytes:
        nbytes = (self.bits + 7) // 8
        if len(data) != nbytes:
            raise ParameterError("input length mismatch for PRP domain")
        return self.decrypt(int.from_bytes(data, "big")).to_bytes(nbytes, "big")


class DomainPrp:
    """A PRP over the integer domain [0, N) for arbitrary N ≥ 2.

    Cycle walking: apply the power-of-two Feistel permutation repeatedly
    until the value lands back inside [0, N).  Because the Feistel map is a
    permutation of the superset, the induced map on [0, N) is a permutation,
    and the expected number of walks is < 2.
    """

    def __init__(self, key: bytes, size: int, rounds: int = _DEFAULT_ROUNDS) -> None:
        if size < 2:
            raise ParameterError("domain PRP needs size >= 2")
        self.size = size
        self._feistel = FeistelPrp(key, max(2, (size - 1).bit_length()), rounds)

    def encrypt(self, x: int) -> int:
        if not 0 <= x < self.size:
            raise ParameterError("input outside [0, N)")
        y = self._feistel.encrypt(x)
        while y >= self.size:
            y = self._feistel.encrypt(y)
        return y

    def decrypt(self, y: int) -> int:
        if not 0 <= y < self.size:
            raise ParameterError("input outside [0, N)")
        x = self._feistel.decrypt(y)
        while x >= self.size:
            x = self._feistel.decrypt(x)
        return x
