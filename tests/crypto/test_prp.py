"""PRP tests: bijectivity, invertibility, key separation (hypothesis)."""

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.crypto.prp import DomainPrp, FeistelPrp
from repro.exceptions import ParameterError


class TestFeistelPrp:
    def test_is_permutation_small(self):
        prp = FeistelPrp(b"key", 10)
        images = {prp.encrypt(x) for x in range(1 << 10)}
        assert len(images) == 1 << 10

    def test_is_permutation_odd_bits(self):
        prp = FeistelPrp(b"key", 9)  # unbalanced halves (5/4)
        images = {prp.encrypt(x) for x in range(1 << 9)}
        assert len(images) == 1 << 9

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    @settings(max_examples=50)
    def test_invertible_48bit(self, x):
        prp = FeistelPrp(b"key", 48)
        assert prp.decrypt(prp.encrypt(x)) == x

    @given(st.integers(min_value=0, max_value=(1 << 320) - 1))
    @settings(max_examples=25)
    def test_invertible_wide_domain(self, x):
        """The θ wrap domain (β + γ + log₂α bits) is several hundred bits."""
        prp = FeistelPrp(b"key", 320)
        assert prp.decrypt(prp.encrypt(x)) == x

    def test_key_separation(self):
        a, b = FeistelPrp(b"k1", 32), FeistelPrp(b"k2", 32)
        collisions = sum(1 for x in range(256)
                         if a.encrypt(x) == b.encrypt(x))
        assert collisions < 4  # ~256/2^32 expected; allow slack

    def test_domain_bounds(self):
        prp = FeistelPrp(b"k", 8)
        with pytest.raises(ParameterError):
            prp.encrypt(256)
        with pytest.raises(ParameterError):
            prp.decrypt(-1)

    def test_too_few_rounds_rejected(self):
        with pytest.raises(ParameterError):
            FeistelPrp(b"k", 16, rounds=3)

    def test_too_small_domain_rejected(self):
        with pytest.raises(ParameterError):
            FeistelPrp(b"k", 1)

    def test_bytes_interface(self):
        prp = FeistelPrp(b"k", 64)
        data = bytes(range(8))
        assert prp.decrypt_bytes(prp.encrypt_bytes(data)) == data

    def test_bytes_length_mismatch(self):
        prp = FeistelPrp(b"k", 64)
        with pytest.raises(ParameterError):
            prp.encrypt_bytes(b"short")

    def test_bytes_overflow_rejected(self):
        prp = FeistelPrp(b"k", 15)  # 2 bytes but only 15 bits
        with pytest.raises(ParameterError):
            prp.encrypt_bytes(b"\xff\xff")


class TestDomainPrp:
    @pytest.mark.parametrize("size", [2, 3, 10, 100, 1000, 1023, 1025])
    def test_is_permutation(self, size):
        prp = DomainPrp(b"key", size)
        images = sorted(prp.encrypt(x) for x in range(size))
        assert images == list(range(size))

    @pytest.mark.parametrize("size", [7, 100, 999])
    def test_invertible(self, size):
        prp = DomainPrp(b"key", size)
        assert all(prp.decrypt(prp.encrypt(x)) == x for x in range(size))

    @given(st.integers(min_value=2, max_value=5000),
           st.binary(min_size=1, max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_random_domains_round_trip(self, size, key):
        prp = DomainPrp(key, size)
        probes = {0, size - 1, size // 2}
        for x in probes:
            assert prp.decrypt(prp.encrypt(x)) == x

    def test_out_of_domain(self):
        prp = DomainPrp(b"k", 10)
        with pytest.raises(ParameterError):
            prp.encrypt(10)
        with pytest.raises(ParameterError):
            prp.decrypt(-1)

    def test_size_one_rejected(self):
        with pytest.raises(ParameterError):
            DomainPrp(b"k", 1)

    def test_different_keys_differ(self):
        a, b = DomainPrp(b"k1", 1000), DomainPrp(b"k2", 1000)
        assert any(a.encrypt(x) != b.encrypt(x) for x in range(50))


def _untabled(prp: FeistelPrp, value: int, inverse: bool = False) -> int:
    """The Feistel network with every round MACed afresh, no table."""
    right_bits = prp.bits // 2
    left, right = value >> right_bits, value & ((1 << right_bits) - 1)
    for i in (reversed(range(prp.rounds)) if inverse else range(prp.rounds)):
        if i % 2 == 0:
            left ^= prp._round_function(i, right)
        else:
            right ^= prp._round_function(i, left)
    return (left << right_bits) | right


def _untabled_domain(prp: DomainPrp, value: int, inverse: bool) -> int:
    value = _untabled(prp._feistel, value, inverse)
    while value >= prp.size:
        value = _untabled(prp._feistel, value, inverse)
    return value


class TestRoundTables:
    """Narrow rounds read a table filled on first use: the same outputs
    as the untabled network, both ways, tabled or not."""

    @seed(20261022)
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_feistel_matches_untabled(self, data):
        bits = data.draw(st.integers(min_value=2, max_value=24))
        key = data.draw(st.binary(min_size=1, max_size=32))
        xs = data.draw(st.lists(st.integers(0, (1 << bits) - 1),
                                min_size=1, max_size=40))
        prp = FeistelPrp(key, bits)
        for x in xs + xs:  # the repeat reads filled entries
            assert prp.encrypt(x) == _untabled(prp, x)
            assert prp.decrypt(x) == _untabled(prp, x, inverse=True)

    @seed(20261023)
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_domain_prp_matches_untabled(self, data):
        size = data.draw(st.integers(min_value=2, max_value=1 << 24))
        key = data.draw(st.binary(min_size=1, max_size=32))
        xs = data.draw(st.lists(st.integers(0, size - 1),
                                min_size=1, max_size=40))
        prp = DomainPrp(key, size)
        for x in xs + xs:
            assert prp.encrypt(x) == _untabled_domain(prp, x, False)
            assert prp.decrypt(x) == _untabled_domain(prp, x, True)

    def test_narrow_halves_are_tabled_and_wide_ones_computed(self):
        """φ's halves are tabled; ℓ_c's and θ's are MACed per call."""
        assert all(table is not None for table in FeistelPrp(b"k", 7)._tables)
        assert all(len(table) == 1 << 12
                   for table in FeistelPrp(b"k", 24)._tables)
        wide = FeistelPrp(b"k", 64)._tables
        assert wide == [None] * 10
