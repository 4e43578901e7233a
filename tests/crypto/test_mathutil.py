"""Unit and property tests for the number-theory utilities."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.crypto import mathutil
from repro.crypto.fields import Fp
from repro.crypto.params import test_params as _test_params
from repro.exceptions import ParameterError

PRIMES = [3, 7, 11, 101, 65537, (1 << 61) - 1]

#: The pairing prime of the test parameters, where the field laws below
#: must hold for every operand, edge values 0, 1 and p − 1 included.
P = _test_params().curve.p
operand = st.integers(min_value=0, max_value=P - 1)


class TestInvMod:
    def test_basic(self):
        assert mathutil.inv_mod(3, 7) == 5

    def test_inverse_property(self):
        p = 65537
        for a in (1, 2, 17, 40000, p - 1):
            assert a * mathutil.inv_mod(a, p) % p == 1

    def test_zero_raises(self):
        with pytest.raises(ParameterError):
            mathutil.inv_mod(0, 7)

    def test_non_coprime_raises(self):
        with pytest.raises(ParameterError):
            mathutil.inv_mod(6, 9)

    @given(st.integers(min_value=1, max_value=(1 << 61) - 2))
    @settings(max_examples=50)
    def test_property_mersenne(self, a):
        p = (1 << 61) - 1
        assert a * mathutil.inv_mod(a, p) % p == 1


class TestPrimeFieldLaws:
    @settings(max_examples=100, deadline=None)
    @given(a=operand, b=operand)
    @example(a=0, b=P - 1)
    @example(a=P - 1, b=P - 1)
    def test_ring_laws(self, a, b):
        x, y = Fp(a, P), Fp(b, P)
        assert x + y == y + x
        assert (x - y).value == (P - (y - x).value) % P
        assert x * y == y * x
        assert (x - y) + y == x

    @settings(max_examples=50, deadline=None)
    @given(a=st.integers(min_value=1, max_value=P - 1))
    @example(a=1)
    @example(a=P - 1)
    def test_inverse_law(self, a):
        assert a * mathutil.inv_mod(a, P) % P == 1
        assert Fp(a, P) * Fp(a, P).inverse() == Fp(1, P)
        assert Fp(a, P) ** -1 == Fp(a, P).inverse()

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.integers(min_value=1, max_value=P - 1),
                           max_size=12))
    @example(values=[])
    @example(values=[P - 1])
    def test_batch_inverse_matches_one_by_one(self, values):
        assert (mathutil.batch_inv_mod(values, P)
                == [mathutil.inv_mod(v, P) for v in values])

    def test_batch_inverse_rejects_a_zero(self):
        with pytest.raises(ParameterError):
            mathutil.batch_inv_mod([3, 0, 5], P)

    def test_inverse_of_zero_and_p_rejected(self):
        for a in (0, P):  # p ≡ 0 (mod p)
            with pytest.raises(ParameterError):
                mathutil.inv_mod(a, P)
            with pytest.raises(ParameterError):
                Fp(a, P).inverse()

    @settings(max_examples=50, deadline=None)
    @given(a=operand)
    @example(a=0)
    @example(a=1)
    def test_sqrt_round_trip(self, a):
        square = a * a % P
        root = mathutil.sqrt_mod(square, P)
        assert root * root % P == square


class TestEgcd:
    @given(st.integers(min_value=0, max_value=10**9),
           st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=50)
    def test_bezout(self, a, b):
        g, x, y = mathutil.egcd(a, b)
        assert a * x + b * y == g
        if a and b:
            assert a % g == 0 and b % g == 0


class TestSqrtMod:
    @pytest.mark.parametrize("p", PRIMES)
    def test_squares_round_trip(self, p):
        for a in range(1, min(p, 25)):
            square = a * a % p
            root = mathutil.sqrt_mod(square, p)
            assert root * root % p == square

    def test_non_residue_raises(self):
        # 3 is a non-residue mod 7 (squares mod 7: 1, 2, 4).
        with pytest.raises(ParameterError):
            mathutil.sqrt_mod(3, 7)

    def test_zero(self):
        assert mathutil.sqrt_mod(0, 7) == 0

    def test_tonelli_shanks_p_1_mod_4(self):
        p = 13  # 13 ≡ 1 (mod 4), exercises the Tonelli-Shanks branch
        for a in range(1, 13):
            if mathutil.is_quadratic_residue(a, p):
                root = mathutil.sqrt_mod(a, p)
                assert root * root % p == a

    def test_large_p_3_mod_4(self):
        p = (1 << 127) - 1  # Mersenne prime, ≡ 3 (mod 4)
        a = 123456789
        root = mathutil.sqrt_mod(a * a % p, p)
        assert root * root % p == a * a % p


class TestJacobi:
    def test_known_values(self):
        assert mathutil.jacobi(1, 7) == 1
        assert mathutil.jacobi(3, 7) == -1
        assert mathutil.jacobi(7, 7) == 0

    def test_even_n_raises(self):
        with pytest.raises(ParameterError):
            mathutil.jacobi(3, 8)

    @pytest.mark.parametrize("p", [7, 11, 101])
    def test_matches_euler_criterion(self, p):
        for a in range(1, p):
            euler = pow(a, (p - 1) // 2, p)
            expected = 1 if euler == 1 else -1
            assert mathutil.jacobi(a, p) == expected


class TestPrimality:
    def test_known_primes(self):
        for p in PRIMES:
            assert mathutil.is_probable_prime(p)

    def test_known_composites(self):
        for n in (0, 1, 4, 561, 65536, (1 << 61) + 1):
            assert not mathutil.is_probable_prime(n)

    def test_carmichael_numbers_rejected(self):
        # Classic Fermat pseudoprimes must fail Miller-Rabin.
        for n in (561, 1105, 1729, 2465, 2821, 6601):
            assert not mathutil.is_probable_prime(n)

    def test_next_prime(self):
        assert mathutil.next_prime(1) == 2
        assert mathutil.next_prime(2) == 3
        assert mathutil.next_prime(14) == 17
        assert mathutil.next_prime(89) == 97

    def test_gen_prime_with_condition(self):
        from repro.crypto.rng import HmacDrbg
        rng = HmacDrbg(b"prime-test")
        p = mathutil.gen_prime(64, rng.getrandbits,
                               condition=lambda c: c % 4 == 3)
        assert p.bit_length() == 64
        assert p % 4 == 3
        assert mathutil.is_probable_prime(p)


class TestEncoding:
    def test_int_bytes_round_trip(self):
        for n in (0, 1, 255, 256, 1 << 128):
            assert mathutil.bytes_to_int(mathutil.int_to_bytes(n)) == n

    def test_fixed_length(self):
        assert mathutil.int_to_bytes(1, 4) == b"\x00\x00\x00\x01"

    def test_negative_raises(self):
        with pytest.raises(ParameterError):
            mathutil.int_to_bytes(-1)

    def test_xor_bytes(self):
        assert mathutil.xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"
        # Leading zero bytes and the empty string keep their length.
        assert (mathutil.xor_bytes(b"\x00\x01\x07", b"\x00\x00\x07")
                == b"\x00\x01\x00")
        assert mathutil.xor_bytes(b"ab", b"ab") == b"\x00\x00"
        assert mathutil.xor_bytes(b"", b"") == b""

    def test_xor_length_mismatch(self):
        with pytest.raises(ParameterError):
            mathutil.xor_bytes(b"ab", b"abc")


class TestMisc:
    def test_ceil_div(self):
        assert mathutil.ceil_div(10, 3) == 4
        assert mathutil.ceil_div(9, 3) == 3

    def test_product(self):
        assert mathutil.product([2, 3, 4]) == 24
        assert mathutil.product([2, 3, 4], mod=5) == 4
