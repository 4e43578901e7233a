"""Fixed-base scalar-multiplication acceleration.

Every HCPP protocol round multiplies a *long-lived* point by a fresh
scalar: the domain generator P (pseudonym issuance, IBE/PEKS randomizers
U = rP, A = σP, HIBE U₀), the A-server master public key, and HIBC level
keys.  Generic double-and-add recomputes ~|r| doublings per call even
though the base never changes.

:class:`PrecomputedPoint` trades a one-time table build for an
addition-only evaluation: for window width w it stores

    T[i][d] = d · 2^{w·i} · P      for d ∈ [1, 2^w − 1]

so ``k·P = Σ_i T[i][k_i]`` where k_i are the base-2^w digits of k — about
⌈|order|/w⌉ *mixed* additions and **zero doublings** per multiplication.
Table entries are batch-normalised to affine coordinates with one shared
field inversion (Montgomery's trick), making every accumulation step a
cheap mixed addition.

Results are bit-identical to ``point * scalar``: when the base lies in the
order-r subgroup (every long-lived point in HCPP does), scalars reduce mod
r; otherwise mod the full group order r·h — exactly the reductions
:meth:`Point.__mul__` applies.

The module-level :func:`precomputed` registry memoises tables per (point,
window) with a bounded LRU so call sites simply route fixed-base products
through :func:`fixed_base_mul`; the first call on a base pays the build,
all later calls reuse it.  The registry is lock-protected — the parallel
S-server search path hits it from worker threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.crypto.ec import (CurveParams, Jacobian, Point, jacobian_add,
                             jacobian_add_affine, jacobian_double,
                             jacobian_to_affine)
from repro.crypto import mathutil
from repro.exceptions import ParameterError

__all__ = ["PrecomputedPoint", "precomputed", "fixed_base_mul",
           "clear_registry", "DEFAULT_WINDOW"]

DEFAULT_WINDOW = 4


def _batch_to_affine(entries: list[Jacobian], p: int) -> list[tuple[int, int]]:
    """Normalise Jacobian points to affine with one shared inversion.

    Montgomery's trick (:func:`mathutil.batch_inv_mod`) over the Z
    coordinates.  All entries must be non-infinity (guaranteed by the
    table structure: the digit multiples d·2^{w·i} never vanish mod an
    odd order).
    """
    affine: list[tuple[int, int]] = []
    z_invs = mathutil.batch_inv_mod([z for _, _, z in entries], p)
    for (x, y, _), z_inv in zip(entries, z_invs):
        z_inv_sq = z_inv * z_inv % p
        affine.append((x * z_inv_sq % p, y * z_inv_sq * z_inv % p))
    return affine


class PrecomputedPoint:
    """A fixed-base point with windowed multiple tables.

    ``multiply(k)`` returns exactly ``base * k`` (the same affine point,
    hence the same ``to_bytes()`` encoding) using only mixed additions.
    """

    __slots__ = ("point", "curve", "order", "window", "_table", "_windows")

    def __init__(self, point: Point, window: int = DEFAULT_WINDOW,
                 order: int | None = None) -> None:
        if point.is_infinity:
            raise ParameterError("cannot precompute the infinity point")
        if not 2 <= window <= 8:
            raise ParameterError("window width must be in [2, 8]")
        self.point = point
        self.curve: CurveParams = point.curve
        self.window = window
        p = self.curve.p
        if order is None:
            # Long-lived HCPP points live in G1; detect that once so
            # scalars reduce mod the 160-bit r instead of the 512-bit p+1.
            group = self.curve.r * self.curve.h
            order = self.curve.r if point.is_in_subgroup() else group
        if order <= 1:
            raise ParameterError("order must exceed 1")
        self.order = order

        digits_per_row = (1 << window) - 1
        windows = -(-order.bit_length() // window)
        jac: list[Jacobian] = []
        base: Jacobian = (point.x, point.y, 1)
        for i in range(windows):
            entry = base
            jac.append(entry)
            for _ in range(2, digits_per_row + 1):
                entry = jacobian_add(entry, base, p)
                jac.append(entry)
            if i + 1 < windows:
                for _ in range(window):
                    base = jacobian_double(base, p)
        self._table = _batch_to_affine(jac, p)
        self._windows = windows

    def multiply(self, scalar: int) -> Point:
        """``scalar * base`` — identical output to :meth:`Point.__mul__`."""
        k = scalar % self.order
        if k == 0:
            return Point.infinity_point(self.curve)
        p = self.curve.p
        mask = (1 << self.window) - 1
        table = self._table
        acc: Jacobian | None = None
        row = 0
        while k:
            d = k & mask
            if d:
                ax, ay = table[row * mask + (d - 1)]
                if acc is None:
                    acc = (ax, ay, 1)
                else:
                    acc = jacobian_add_affine(acc, ax, ay, p)
            k >>= self.window
            row += 1
        result = jacobian_to_affine(acc, p)  # type: ignore[arg-type]
        if result is None:
            return Point.infinity_point(self.curve)
        return Point(result[0], result[1], self.curve, check=False)

    def table_entries(self) -> int:
        """Number of stored affine multiples (memory accounting)."""
        return len(self._table)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PrecomputedPoint(w=%d, windows=%d, |order|=%d bits)" % (
            self.window, self._windows, self.order.bit_length())


# ---------------------------------------------------------------------------
# Bounded registry: table reuse across call sites without threading a cache
# object through every protocol signature.
# ---------------------------------------------------------------------------

_REGISTRY_CAPACITY = 64
_registry: "OrderedDict[tuple[int, int, int, int], PrecomputedPoint]" = OrderedDict()
_registry_lock = threading.Lock()


def precomputed(point: Point, window: int = DEFAULT_WINDOW) -> PrecomputedPoint:
    """The memoised :class:`PrecomputedPoint` for ``point`` (LRU-bounded)."""
    if point.is_infinity:
        raise ParameterError("cannot precompute the infinity point")
    key = (point.x, point.y, point.curve.p, window)
    with _registry_lock:
        hit = _registry.get(key)
        if hit is not None:
            _registry.move_to_end(key)
            return hit
    # Build outside the lock: table construction is the expensive part and
    # a rare duplicate build is harmless (last writer wins).
    built = PrecomputedPoint(point, window=window)
    with _registry_lock:
        _registry[key] = built
        _registry.move_to_end(key)
        while len(_registry) > _REGISTRY_CAPACITY:
            _registry.popitem(last=False)
    return built


def fixed_base_mul(point: Point, scalar: int) -> Point:
    """``scalar * point`` through the fixed-base table registry."""
    return precomputed(point).multiply(scalar)


def clear_registry() -> None:
    """Drop all cached tables (tests / memory pressure)."""
    with _registry_lock:
        _registry.clear()
