"""Fixed-base precomputation: byte-identical to generic scalar mult."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.ec import Point
from repro.crypto.params import test_params as _test_params
from repro.crypto.precompute import (DEFAULT_WINDOW, PrecomputedPoint,
                                     clear_registry, fixed_base_mul,
                                     precomputed)
from repro.exceptions import ParameterError

PARAMS = _test_params()
G = PARAMS.generator
R = PARAMS.r
P_FIELD = PARAMS.p

EDGE_SCALARS = [0, 1, 2, 3, 7, 15, 16, 17, 255, 1234567,
                R - 2, R - 1, R, R + 1, R + 5, 3 * R + 17,
                P_FIELD + 1, P_FIELD + 12345, (1 << 200) + 9]


class TestPrecomputedPoint:
    def test_matches_generic_mul_on_edge_scalars(self):
        table = PrecomputedPoint(G)
        for k in EDGE_SCALARS:
            expected = G * k
            got = table.multiply(k)
            assert got == expected, "k=%d" % k
            if not expected.is_infinity:
                assert got.to_bytes() == expected.to_bytes()

    @pytest.mark.parametrize("window", [2, 3, 4, 5, 6])
    def test_all_window_widths_agree(self, window):
        table = PrecomputedPoint(G, window=window)
        for k in (1, 37, R - 1, R + 2, (1 << 90) + 3):
            assert table.multiply(k) == G * k

    def test_non_generator_base(self):
        base = G * 987654321
        table = PrecomputedPoint(base)
        for k in (1, 2, R - 1, 55555):
            assert table.multiply(k) == base * k

    def test_non_subgroup_point_uses_full_order(self):
        # A curve point outside G1 (not cofactor-cleared): scalars must
        # reduce mod r·h, exactly as Point.__mul__ does.
        raw = None
        x = 2
        while raw is None:
            raw = Point.from_x(x, PARAMS.curve, parity=0)
            x += 1
        if raw.is_in_subgroup():  # pragma: no cover - seed-dependent
            pytest.skip("hit a subgroup point by chance")
        table = PrecomputedPoint(raw)
        assert table.order == PARAMS.curve.r * PARAMS.curve.h
        for k in (1, R, R + 7, PARAMS.curve.h, (1 << 170) + 11):
            assert table.multiply(k) == raw * k

    def test_zero_and_order_multiples_give_infinity(self):
        table = PrecomputedPoint(G)
        assert table.multiply(0).is_infinity
        assert table.multiply(R).is_infinity
        assert table.multiply(5 * R).is_infinity

    def test_infinity_base_rejected(self):
        with pytest.raises(ParameterError):
            PrecomputedPoint(Point.infinity_point(PARAMS.curve))

    def test_bad_window_rejected(self):
        with pytest.raises(ParameterError):
            PrecomputedPoint(G, window=1)
        with pytest.raises(ParameterError):
            PrecomputedPoint(G, window=9)

    def test_table_size(self):
        table = PrecomputedPoint(G, window=4)
        assert table.table_entries() == 2 ** 4 - 1


N_ORDER = PARAMS.curve.r * PARAMS.curve.h


def _lift(x):
    """The first curve point with x-coordinate ≥ x (mod p)."""
    while True:
        point = Point.from_x(x % P_FIELD, PARAMS.curve)
        if point is not None:
            return point
        x += 1


def _torsion(order, start):
    """A point whose order divides ``order`` (≠ O)."""
    x = start
    while True:
        candidate = _lift(x) * (N_ORDER // order)
        if not candidate.is_infinity:
            return candidate
        x += 1


WIDTHS = list(range(2, 9))
comb_scalars = st.lists(st.integers(min_value=-2 * N_ORDER,
                                    max_value=2 * N_ORDER),
                        min_size=1, max_size=4)
g1_bases = st.integers(min_value=1, max_value=R - 1).map(lambda a: G * a)
off_g1_bases = (st.integers(min_value=0, max_value=P_FIELD - 1).map(_lift)
                .filter(lambda point: not point.is_in_subgroup()))


class TestComb:
    """The comb against ``Point.__mul__`` at every width, k in [−2n, 2n]
    with n = r·h."""

    @pytest.mark.parametrize("window", WIDTHS)
    @given(base=g1_bases, ks=comb_scalars)
    @settings(max_examples=15, deadline=None)
    def test_g1_bases(self, window, base, ks):
        table = PrecomputedPoint(base, window=window)
        assert table.order == R
        for k in ks:
            assert table.multiply(k).to_bytes() == (base * k).to_bytes()

    @pytest.mark.parametrize("window", WIDTHS)
    @given(base=off_g1_bases, ks=comb_scalars)
    @settings(max_examples=15, deadline=None)
    def test_bases_outside_g1(self, window, base, ks):
        table = PrecomputedPoint(base, window=window)
        assert table.order == N_ORDER
        for k in ks:
            assert table.multiply(k).to_bytes() == (base * k).to_bytes()

    @pytest.mark.parametrize("window", WIDTHS)
    def test_small_order_bases(self, window):
        # Comb entries of a small-order base vanish (T[i] = O); they are
        # kept as empty slots, never normalised.
        bases = [Point(0, 0, PARAMS.curve), _torsion(4, 2), _torsion(5, 2),
                 _torsion(100, 2), _torsion(PARAMS.curve.h, 11)]
        for base in bases:
            table = PrecomputedPoint(base, window=window)
            for k in (0, 1, 2, 3, 4, 5, 99, 100, 101, -7, N_ORDER - 1,
                      N_ORDER + 3):
                assert table.multiply(k) == base * k, (base, k)


class TestRegistry:
    def test_same_point_returns_same_table(self):
        clear_registry()
        a = precomputed(G)
        b = precomputed(G)
        assert a is b

    def test_equal_points_share_table(self):
        clear_registry()
        assert precomputed(G * 5) is precomputed(G * 5)

    def test_fixed_base_mul_matches(self):
        for k in (1, 123, R - 1, R + 9):
            assert fixed_base_mul(G, k) == G * k

    def test_capacity_bounded(self):
        from repro.crypto import precompute
        clear_registry()
        for i in range(1, precompute._registry.capacity + 10):
            precomputed(G * i)
        assert len(precompute._registry) <= precompute._registry.capacity
        clear_registry()


class TestParamsWiring:
    def test_point_mul_generator_matches_naive(self):
        for k in (1, 42, R - 1, R + 3, (1 << 100) + 77):
            assert PARAMS.point_mul_generator(k) == G * k

    def test_default_window_sane(self):
        assert 2 <= DEFAULT_WINDOW <= 8
