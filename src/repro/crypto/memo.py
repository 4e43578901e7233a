"""One bounded memo for values the crypto layer derives again and again:
H1 of public identities, prepared line tables, identity pairings, fixed-base
combs and SOK keys, each with its capacity fixed where it is built.

The policy: a least-recently-used bound under one lock, where a miss is
made outside the lock, so a slow derivation never stalls a hit.  Two
concurrent misses on one key may both make the value; the values are
equal, and the one kept last stays.  A ``make`` that raises keeps nothing.
Keys may hold private points and values may be shared keys, so the memo
never puts either into a repr, a log line or an exception.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, Iterator

__all__ = ["LruMemo"]


class LruMemo:
    """``get(key, make, *args)``: the kept value of ``key``, or
    ``make(*args)``, kept as the most recently used.  ``make`` must not
    return None, which reads as a miss."""

    __slots__ = ("capacity", "_entries", "_lock")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable, make: Callable, *args):
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                return value
        value = make(*args)
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator:
        """A snapshot of the kept keys, least recently used first."""
        with self._lock:
            return iter(list(self._entries))
