"""HMAC-DRBG (NIST SP 800-90A) — seedable, deterministic randomness.

All randomness in the library flows through :class:`HmacDrbg` so that every
experiment is exactly reproducible from a seed: key generation, pseudonym
self-generation, PEKS randomizers, the secure-index scrambling permutation,
workload generation, and the attack simulations all accept a DRBG.

The generator exposes the small ``random``-module-like surface the rest of
the code needs (:meth:`randint`, :meth:`random_bytes`, :meth:`choice`,
:meth:`shuffle`, :meth:`uniform`, :meth:`gauss`) on top of the SP 800-90A
update/generate core.

The core keeps the keyed :class:`~repro.crypto.hmac_impl.HmacKey` of its
current key K rather than the bytes of K: the generate step and the
update's first MAC share one K, and the next call's generate step uses
the K′ the update just made, so a :meth:`random_bytes` call of up to 32
bytes costs one key set-up and three MACs.  Live hashlib state cannot be
pickled, and so neither can a generator; nothing ships one to another
process.
"""

from __future__ import annotations

import math
from typing import MutableSequence, Sequence, TypeVar

from repro.crypto.hmac_impl import HmacKey
from repro.exceptions import ParameterError

T = TypeVar("T")


class HmacDrbg:
    """Deterministic random bit generator per NIST SP 800-90A (HMAC variant)."""

    def __init__(self, seed: bytes | str | int, personalization: bytes = b"") -> None:
        if isinstance(seed, str):
            seed = seed.encode()
        elif isinstance(seed, int):
            seed = seed.to_bytes(max(1, (seed.bit_length() + 7) // 8), "big")
        self._key = HmacKey(b"\x00" * 32)    # K, keyed
        self._value = b"\x01" * 32
        self._update(seed + personalization)
        self._gauss_spare: float | None = None

    # -- SP 800-90A core ---------------------------------------------------
    def _update(self, data: bytes = b"") -> None:
        self._key = HmacKey(self._key.mac(self._value + b"\x00" + data))
        self._value = self._key.mac(self._value)
        if data:
            self._key = HmacKey(self._key.mac(self._value + b"\x01" + data))
            self._value = self._key.mac(self._value)

    def reseed(self, data: bytes) -> None:
        """Mix additional entropy/domain-separation into the state."""
        self._update(data)

    def random_bytes(self, n: int) -> bytes:
        """Generate ``n`` pseudorandom bytes."""
        if n < 0:
            raise ParameterError("cannot generate a negative number of bytes")
        output = b""
        while len(output) < n:
            self._value = self._key.mac(self._value)
            output += self._value
        self._update()
        return output[:n]

    # -- convenience sampling ----------------------------------------------
    def getrandbits(self, k: int) -> int:
        """A uniform integer in [0, 2^k)."""
        if k <= 0:
            return 0
        nbytes = (k + 7) // 8
        value = int.from_bytes(self.random_bytes(nbytes), "big")
        return value >> (nbytes * 8 - k)

    def randint(self, a: int, b: int) -> int:
        """A uniform integer in the inclusive range [a, b] (rejection sampled)."""
        if a > b:
            raise ParameterError("randint requires a <= b")
        span = b - a + 1
        bits = span.bit_length()
        while True:
            candidate = self.getrandbits(bits)
            if candidate < span:
                return a + candidate

    def randrange(self, stop: int) -> int:
        """A uniform integer in [0, stop)."""
        if stop <= 0:
            raise ParameterError("randrange requires stop > 0")
        return self.randint(0, stop - 1)

    def random(self) -> float:
        """A float in [0, 1) with 53 bits of precision."""
        return self.getrandbits(53) / (1 << 53)

    def uniform(self, lo: float, hi: float) -> float:
        """A float uniform on [lo, hi)."""
        return lo + (hi - lo) * self.random()

    def expovariate(self, rate: float) -> float:
        """An exponential variate with the given rate (for network latency)."""
        if rate <= 0:
            raise ParameterError("rate must be positive")
        # 1 - random() is in (0, 1], avoiding log(0).
        return -math.log(1.0 - self.random()) / rate

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """A normal variate (Box–Muller, with spare caching)."""
        if self._gauss_spare is not None:
            spare, self._gauss_spare = self._gauss_spare, None
            return mu + sigma * spare
        while True:
            u1 = self.random()
            if u1 > 0.0:
                break
        u2 = self.random()
        radius = math.sqrt(-2.0 * math.log(u1))
        self._gauss_spare = radius * math.sin(2.0 * math.pi * u2)
        return mu + sigma * radius * math.cos(2.0 * math.pi * u2)

    def choice(self, seq: Sequence[T]) -> T:
        """A uniform element of a non-empty sequence."""
        if not seq:
            raise ParameterError("cannot choose from an empty sequence")
        return seq[self.randrange(len(seq))]

    def sample(self, seq: Sequence[T], k: int) -> list[T]:
        """k distinct elements, order randomized (Fisher–Yates prefix)."""
        if k > len(seq):
            raise ParameterError("sample size exceeds population")
        pool = list(seq)
        for i in range(k):
            j = self.randint(i, len(pool) - 1)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def shuffle(self, seq: MutableSequence[T]) -> None:
        """In-place Fisher–Yates shuffle."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randint(0, i)
            seq[i], seq[j] = seq[j], seq[i]

    def fork(self, label: bytes | str) -> "HmacDrbg":
        """A domain-separated child generator (independent stream)."""
        if isinstance(label, str):
            label = label.encode()
        return HmacDrbg(self.random_bytes(32), personalization=label)
