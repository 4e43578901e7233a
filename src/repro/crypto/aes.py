"""AES (FIPS 197) block cipher implemented from scratch.

This is the instantiation of the paper's semantically secure symmetric
encryptions E (node encryption inside the secure index) and E′ (the PHI
file-collection cipher), via the CTR / encrypt-then-MAC modes in
:mod:`repro.crypto.modes`.

The S-box is generated at import time from the GF(2⁸) inverse + affine
map (rather than pasted as a magic table).  Encryption is byte-sliced:
:func:`encrypt_blocks` holds N blocks as one big-endian integer (block j
is bytes 16j…16j+15, byte 4c + r is state[r][c]) and runs each round
over all N lanes at once — SubBytes is one ``bytes.translate``,
ShiftRows, MixColumns and AddRoundKey are masked shifts and XORs — so
the per-block work runs in CPython's integer code, not in bytecode.
Every lane has its own round keys, so one pass serves many keys (the
secure index encrypts all of an upload's nodes in one call), and
:func:`expand_keys` runs the FIPS 197 §5.2 key schedule over many keys
the same way.  Decryption is the byte-oriented FIPS 197 §5.3 inverse
cipher, kept deliberately plain: it is the independent reference the
round-trip tests check the kernel against.  Supports 128/192/256-bit
keys.

Performance note: one AES-128 pass costs about 20 µs at one block,
35 µs at 11 and 0.3 ms at 190 (about 10 MB/s), and one key expansion
about 12 µs (CPython 3.11, 2-core x86-64 box; EXPERIMENTS.md E5).  Most
of a one-block pass is its fixed cost; no hot path encrypts lone
blocks.  The entire cipher stays inside the reproduction as the scope
rules require.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import ParameterError

BLOCK_SIZE = 16


def _generate_sbox() -> tuple[bytes, bytes]:
    """Build the AES S-box from first principles (GF(2⁸) inverse + affine)."""

    def gf_mul(a: int, b: int) -> int:
        result = 0
        for _ in range(8):
            if b & 1:
                result ^= a
            high = a & 0x80
            a = (a << 1) & 0xFF
            if high:
                a ^= 0x1B  # x^8 + x^4 + x^3 + x + 1
            b >>= 1
        return result

    # Multiplicative inverses via exponentiation: a^254 = a^-1 in GF(2^8).
    def gf_inv(a: int) -> int:
        if a == 0:
            return 0
        result = 1
        exponent = 254
        base = a
        while exponent:
            if exponent & 1:
                result = gf_mul(result, base)
            base = gf_mul(base, base)
            exponent >>= 1
        return result

    sbox = bytearray(256)
    for value in range(256):
        inv = gf_inv(value)
        transformed = 0
        for bit in range(8):
            transformed |= (
                ((inv >> bit) ^ (inv >> ((bit + 4) % 8)) ^ (inv >> ((bit + 5) % 8))
                 ^ (inv >> ((bit + 6) % 8)) ^ (inv >> ((bit + 7) % 8))
                 ^ (0x63 >> bit)) & 1
            ) << bit
        sbox[value] = transformed
    inv_sbox = bytearray(256)
    for i, s in enumerate(sbox):
        inv_sbox[s] = i
    return bytes(sbox), bytes(inv_sbox)


_SBOX, _INV_SBOX = _generate_sbox()


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gf_mul_small(a: int, b: int) -> int:
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


# Precomputed GF(2^8) multiply tables for the InvMixColumns coefficients.
_MUL9 = bytes(_gf_mul_small(i, 9) for i in range(256))
_MUL11 = bytes(_gf_mul_small(i, 11) for i in range(256))
_MUL13 = bytes(_gf_mul_small(i, 13) for i in range(256))
_MUL14 = bytes(_gf_mul_small(i, 14) for i in range(256))


_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36,
         0x6C, 0xD8, 0xAB, 0x4D)


def _block_mask(select) -> int:
    """One block's mask: 0xFF at each byte 4c + r where select(r, c)."""
    return int.from_bytes(bytes(0xFF if select(k % 4, k // 4) else 0
                                for k in range(16)), "big")


# One-block masks of the kernel, widened to N lanes on each call.
# ShiftRows moves row r left by r columns: in the lane, the row's bytes
# in columns c < 4 − r come from 32r bits lower (kept), the rest wrap
# around from 128 − 32r bits higher.  hi24/lo8 and hi16/lo16 rotate
# every column by one and two rows for MixColumns; low7/bit0 are xtime's.
_KERNEL_MASKS = (
    _block_mask(lambda r, c: r == 0),
    _block_mask(lambda r, c: r == 1 and c < 3),
    _block_mask(lambda r, c: r == 1 and c >= 3),
    _block_mask(lambda r, c: r == 2 and c < 2),
    _block_mask(lambda r, c: r == 2 and c >= 2),
    _block_mask(lambda r, c: r == 3 and c < 1),
    _block_mask(lambda r, c: r == 3 and c >= 1),
    _block_mask(lambda r, c: r != 3),
    _block_mask(lambda r, c: r == 3),
    _block_mask(lambda r, c: r < 2),
    _block_mask(lambda r, c: r >= 2),
    int.from_bytes(b"\x7f" * 16, "big"),
    int.from_bytes(b"\x01" * 16, "big"),
)


def encrypt_blocks(round_keys: Sequence[bytes], blocks: bytes) -> bytes:
    """Encrypt every 16-byte block of ``blocks`` in one byte-sliced pass.

    ``round_keys[r]`` is as long as ``blocks``: its bytes 16j…16j+15 are
    round key r of block j, so each block may have its own key (see
    :func:`expand_keys`; repeat an entry to share a key).  The lane masks
    are derived per call (one-block mask times the lanes' repunit), so
    the kernel keeps no state between calls.
    """
    size = len(blocks)
    lanes = size // BLOCK_SIZE
    if size % BLOCK_SIZE or any(map(size.__ne__, map(len, round_keys))):
        raise ParameterError("AES kernel needs whole blocks and one round "
                             "key per block")
    repunit = int.from_bytes((bytes(15) + b"\x01") * lanes, "big")
    (row0, kept1, wrap1, kept2, wrap2, kept3, wrap3,
     hi24, lo8, hi16, lo16, low7, bit0) = map(repunit.__mul__, _KERNEL_MASKS)
    sbox = _SBOX
    last = len(round_keys) - 1
    x = int.from_bytes(blocks, "big") ^ int.from_bytes(round_keys[0], "big")
    for r in range(1, last + 1):
        # SubBytes, then ShiftRows.
        x = int.from_bytes(x.to_bytes(size, "big").translate(sbox), "big")
        x = (x & row0 | (x << 32) & kept1 | (x >> 96) & wrap1
             | (x << 64) & kept2 | (x >> 64) & wrap2
             | (x << 96) & kept3 | (x >> 32) & wrap3)
        if r != last:
            # MixColumns: xtime(a ⊕ rot1 a) ⊕ rot1 a ⊕ rot2(a ⊕ rot1 a),
            # where rot_k moves row r + k of a column up to row r.
            rot1 = (x << 8) & hi24 | (x >> 24) & lo8
            t = x ^ rot1
            x = ((t & low7) << 1 ^ ((t >> 7) & bit0) * 0x1B ^ rot1
                 ^ (t << 16) & hi16 ^ (t >> 16) & lo16)
        x ^= int.from_bytes(round_keys[r], "big")
    return x.to_bytes(size, "big")


def _schedule_masks(size: int) -> tuple[int, ...]:
    """One lane of each :func:`expand_keys` mask for ``size``-byte keys."""
    pad = bytes(size - 4)
    return tuple(int.from_bytes(lane, "big") for lane in (
        pad + b"\xff\xff\xff\xff",          # the last word
        pad + b"\x00\x00\x00\xff",          # its low byte
        b"\xff" * (size - 1) + b"\x00",     # every byte but that one
        # The prefix XOR's shifts must not carry words into the lane below.
        bytes(4) + b"\xff" * (size - 4),
        bytes(8) + b"\xff" * (size - 8),
        bytes(16) + b"\xff" * (size - 16),
        b"\x01\x00\x00\x00" * (size // 4)))  # Rcon's byte in every word


_SCHEDULE_MASKS = {size: _schedule_masks(size) for size in (16, 24, 32)}


def expand_keys(keys: Sequence[bytes]) -> list[bytes]:
    """The FIPS 197 §5.2 key schedule for many equal-size keys at once.

    Entry r of the result holds round key r of ``keys[j]`` at bytes
    16j…16j+15 — the layout :func:`encrypt_blocks` takes.  Each lane is
    one key's Nk words; a step makes the next Nk words of every lane: a
    prefix XOR over the lane, then SubWord(RotWord(last word)) ⊕ Rcon
    XORed into every word.
    """
    size = len(keys[0]) if keys else 16
    if size not in _SCHEDULE_MASKS or len(set(map(len, keys))) > 1:
        raise ParameterError("AES keys must be 16, 24 or 32 bytes, "
                             "all one size")
    nk = size // 4
    rounds = nk + 6
    count = len(keys)
    width = size * count
    # A one-lane mask times the repunit is that mask in every lane.
    repunit = int.from_bytes((bytes(size - 1) + b"\x01") * count, "big")
    (last_word, low_byte, high_bytes, keep32, keep64, keep128,
     rcon_bytes) = map(repunit.__mul__, _SCHEDULE_MASKS[size])
    # t·rotate puts bytes 1–3 of the word t in every word of the lane
    # and byte 0 in the low byte of the word above: RotWord everywhere
    # but the lowest byte, which comes from t >> 24.
    rotate = int.from_bytes(b"\x00\x00\x01\x00" * nk, "big")
    sbox = _SBOX
    step = b"".join(keys)
    steps = [step]
    x = int.from_bytes(step, "big")
    for rcon in _RCON[:-(-4 * (rounds + 1) // nk) - 1]:
        t = int.from_bytes(step.translate(sbox), "big") & last_word
        x ^= (x >> 32) & keep32
        x ^= (x >> 64) & keep64
        if nk > 4:
            x ^= (x >> 128) & keep128
        x ^= ((t * rotate) & high_bytes ^ (t >> 24) & low_byte
              ^ rcon * rcon_bytes)
        if nk == 8:
            # Words 4–7 take SubWord(w3) in place of the new w3 itself.
            t = (x >> 128) & last_word
            t ^= int.from_bytes(t.to_bytes(width, "big").translate(sbox),
                                "big") & last_word
            x ^= t * 0x00000001_00000001_00000001_00000001
        step = x.to_bytes(width, "big")
        steps.append(step)
    if nk == 4:
        return steps
    # Regroup the Nk-word steps into four-word round keys.
    words = memoryview(b"".join(steps)).cast("I")
    out = bytearray(16 * count * (rounds + 1))
    view = memoryview(out).cast("I")
    for k in range(4 * (rounds + 1)):
        s, w = divmod(k, nk)    # word k is word w of step s
        r, c = divmod(k, 4)     # and column c of round key r
        view[4 * count * r + c:4 * count * (r + 1):4] = (
            words[nk * count * s + w:nk * count * (s + 1):nk])
    return [bytes(out[16 * count * r:16 * count * (r + 1)])
            for r in range(rounds + 1)]


class AES:
    """The AES block cipher with a fixed key.

    >>> cipher = AES(bytes(16))
    >>> cipher.decrypt_block(cipher.encrypt_block(b"sixteen byte msg"))
    b'sixteen byte msg'
    """

    def __init__(self, key: bytes) -> None:
        #: the 16-byte round keys, one lane for :func:`encrypt_blocks`
        self.round_keys = expand_keys([key])
        self.key_size = len(key)
        self.rounds = len(self.round_keys) - 1

    # -- block operations ---------------------------------------------------
    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ParameterError("AES block must be 16 bytes")
        return encrypt_blocks(self.round_keys, block)

    def decrypt_block(self, block: bytes) -> bytes:
        """The FIPS 197 §5.3 inverse cipher, byte by byte — the reference
        the round-trip tests hold :meth:`encrypt_block` to."""
        if len(block) != BLOCK_SIZE:
            raise ParameterError("AES block must be 16 bytes")
        rk = self.round_keys[self.rounds]
        state = [block[i] ^ rk[i] for i in range(16)]
        state = self._inv_shift_rows(state)
        state = [_INV_SBOX[b] for b in state]
        for round_index in range(self.rounds - 1, 0, -1):
            rk = self.round_keys[round_index]
            state = [state[i] ^ rk[i] for i in range(16)]
            state = self._inv_mix_columns(state)
            state = self._inv_shift_rows(state)
            state = [_INV_SBOX[b] for b in state]
        rk = self.round_keys[0]
        return bytes(state[i] ^ rk[i] for i in range(16))

    # -- round building blocks (state is a flat 16-list, column-major) ------
    @staticmethod
    def _inv_shift_rows(s: list[int]) -> list[int]:
        return [
            s[0], s[13], s[10], s[7],
            s[4], s[1], s[14], s[11],
            s[8], s[5], s[2], s[15],
            s[12], s[9], s[6], s[3],
        ]

    @staticmethod
    def _inv_mix_columns(s: list[int]) -> list[int]:
        out = [0] * 16
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = s[c], s[c + 1], s[c + 2], s[c + 3]
            out[c] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
            out[c + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
            out[c + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
            out[c + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]
        return out
