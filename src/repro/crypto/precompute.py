"""Fixed-base scalar multiplication by Lim–Lee combs.

Every HCPP protocol round multiplies a *long-lived* point by a fresh
scalar: the domain generator P (pseudonym issuance, IBE/PEKS randomizers
U = rP, A = σP, HIBE U₀), a signer's Hess key pair Γ and PK
(:func:`repro.crypto.ibs.sign`) and a patient's pool pair (TP, Γ)
(:func:`repro.crypto.pseudonym.self_generate`).  The Montgomery ladder of
:meth:`Point.__mul__` spends one step per scalar bit on each although the
base never changes.

:class:`PrecomputedPoint` is a Lim–Lee comb of width w.  With
d = ⌈|order|/w⌉, a scalar k is read as w rows of d bits, and the comb
stores, for every non-zero w-bit index i = (b_{w−1} … b_0),

    T[i] = Σ_j b_j · 2^{j·d} · P,

that is 2^w − 1 points.  Column c of the rows (one bit from each of the
w evenly spaced "teeth" of k) indexes T, so by Horner's rule

    k·P = Σ_c 2^c · T[column c]

costs d doublings and at most d mixed additions.  The entries are
normalised to affine coordinates with one shared field inversion
(Montgomery's trick), so every addition is a cheap mixed one.

Results are bit-identical to ``point * scalar``: when the base lies in
the order-r subgroup (every long-lived point in HCPP does), scalars
reduce mod r; otherwise mod the full group order r·h — exactly the
reductions :meth:`Point.__mul__` applies.  The comb tells the two cases
apart itself: it is first built over the bits of r and evaluates r·P,
which is O exactly on G1, and only a base outside G1 pays a second
build over r·h.

The module-level :func:`precomputed` registry memoises default-width
combs per point in a bounded :class:`~repro.crypto.memo.LruMemo`, so
call sites route fixed-base products through :func:`fixed_base_mul`: the
first call on a base pays the build, all later calls reuse it.  The
registry is locked, so threads may share it.
"""

from __future__ import annotations

from repro.crypto.ec import (CurveParams, Jacobian, Point,
                             jacobian_add_affine, jacobian_double,
                             jacobian_to_affine)
from repro.crypto import mathutil
from repro.crypto.memo import LruMemo
from repro.exceptions import ParameterError

__all__ = ["PrecomputedPoint", "precomputed", "fixed_base_mul",
           "clear_registry", "DEFAULT_WINDOW"]

#: The comb width w, picked from the ``scalar_mult`` leg of
#: ``benchmarks/run_bench_crypto.py``.
DEFAULT_WINDOW = 8

_INFINITY: Jacobian = (1, 1, 0)


def _batch_to_affine(entries: list[Jacobian],
                     p: int) -> list[tuple[int, int] | None]:
    """Normalise Jacobian points to affine with one shared inversion.

    Montgomery's trick (:func:`mathutil.batch_inv_mod`) over the non-zero
    Z coordinates; the point at infinity (Z = 0) maps to ``None``.  That
    is T[0] of every comb, and further entries only for a base of small
    order.
    """
    z_invs = iter(mathutil.batch_inv_mod([z for _, _, z in entries if z], p))
    affine: list[tuple[int, int] | None] = []
    for x, y, z in entries:
        if not z:
            affine.append(None)
            continue
        z_inv = next(z_invs)
        z_inv_sq = z_inv * z_inv % p
        affine.append((x * z_inv_sq % p, y * z_inv_sq * z_inv % p))
    return affine


class PrecomputedPoint:
    """A fixed-base point with a Lim–Lee comb of width ``window``.

    ``multiply(k)`` returns exactly ``base * k`` (the same affine point,
    hence the same ``to_bytes()`` encoding).
    """

    __slots__ = ("point", "curve", "order", "window", "_table", "_columns")

    def __init__(self, point: Point, window: int = DEFAULT_WINDOW,
                 order: int | None = None) -> None:
        if point.is_infinity:
            raise ParameterError("cannot precompute the infinity point")
        if not 2 <= window <= 8:
            raise ParameterError("window width must be in [2, 8]")
        self.point = point
        self.curve: CurveParams = point.curve
        self.window = window
        if order is None:
            # Long-lived HCPP points live in G1, where scalars reduce mod
            # the 160-bit r instead of the 512-bit p + 1.
            order = self.curve.r
            self._build(order)
            if self._evaluate(order) is not None:  # r·P ≠ O: not in G1
                order *= self.curve.h
                self._build(order)
        elif order > 1:
            self._build(order)
        else:
            raise ParameterError("order must exceed 1")
        self.order = order

    def _build(self, order: int) -> None:
        """The comb over ``order``'s bit length: the w teeth 2^{j·d}·P,
        then each T[i] as T[i without its lowest bit] plus that tooth."""
        p = self.curve.p
        columns = -(-order.bit_length() // self.window)
        tooth: Jacobian = (self.point.x, self.point.y, 1)
        teeth = [tooth]
        for _ in range(self.window - 1):
            for _ in range(columns):
                tooth = jacobian_double(tooth, p)
            teeth.append(tooth)
        affine_teeth = _batch_to_affine(teeth, p)
        jac = [_INFINITY]
        for i in range(1, 1 << self.window):
            low = i & -i
            rest = jac[i ^ low]
            add = affine_teeth[low.bit_length() - 1]
            jac.append(rest if add is None
                       else jacobian_add_affine(rest, add[0], add[1], p))
        self._table = _batch_to_affine(jac, p)
        self._columns = columns

    def _evaluate(self, k: int) -> tuple[int, int] | None:
        """Affine ``k·base`` (None = infinity) for 0 ≤ k < 2^{w·d}."""
        p = self.curve.p
        table = self._table
        columns = self._columns
        # MSB first, so bits[c::columns] is column c's index, tooth w−1
        # in its top bit.
        bits = format(k, "0%db" % (self.window * columns))
        acc = _INFINITY
        for c in range(columns):
            acc = jacobian_double(acc, p)
            entry = table[int(bits[c::columns], 2)]
            if entry is not None:
                acc = jacobian_add_affine(acc, entry[0], entry[1], p)
        return jacobian_to_affine(acc, p)

    def multiply(self, scalar: int) -> Point:
        """``scalar * base`` — identical output to :meth:`Point.__mul__`."""
        result = self._evaluate(scalar % self.order)
        if result is None:
            return Point.infinity_point(self.curve)
        return Point(result[0], result[1], self.curve, check=False)

    def table_entries(self) -> int:
        """Number of stored multiples, 2^w − 1 (memory accounting)."""
        return len(self._table) - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PrecomputedPoint(w=%d, columns=%d, |order|=%d bits)" % (
            self.window, self._columns, self.order.bit_length())


# Bounded registry: table reuse across call sites without threading a cache
# object through every protocol signature.
_registry = LruMemo(64)


def precomputed(point: Point) -> PrecomputedPoint:
    """The memoised default-width comb for ``point`` (LRU-bounded)."""
    if point.is_infinity:  # its key would be that of the point (0, 0)
        raise ParameterError("cannot precompute the infinity point")
    return _registry.get((point.x, point.y, point.curve.p), PrecomputedPoint,
                         point)


def fixed_base_mul(point: Point, scalar: int) -> Point:
    """``scalar * point`` through the fixed-base comb registry."""
    return precomputed(point).multiply(scalar)


def clear_registry() -> None:
    """Drop all cached tables (tests / memory pressure)."""
    _registry.clear()
