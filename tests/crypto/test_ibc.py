"""IBC scheme tests: IBE (Basic/Full/point-keyed), Hess IBS, SOK NIKE,
pseudonym self-generation, and hash-to-group."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import hashes
from repro.crypto.ec import Point
from repro.crypto.hashes import (h1_identity, h1_uncached, h2_keyword_point,
                                 h2_keyword_scalar, h3_pairing_to_bytes,
                                 h3_pairing_to_scalar, h_to_scalar)
from repro.crypto.ibe import (BasicIdent, FullIdent, PrivateKeyGenerator,
                              decrypt_with_point, encrypt_to_point)
from repro.crypto.ibs import sign, verify, verify_or_raise
from repro.crypto.nike import shared_key, shared_key_from_points
from repro.crypto.pairing import clear_pairing_cache, tate_pairing
from repro.crypto.pseudonym import issue_temporary_pair, self_generate
from repro.crypto.rng import HmacDrbg
from repro.exceptions import (DecryptionError, ParameterError,
                              SignatureError)


@pytest.fixture()
def alice(pkg):
    return pkg.extract("alice@hospital")


@pytest.fixture()
def bob(pkg):
    return pkg.extract("bob@hospital")


class TestHashes:
    def test_h1_in_subgroup(self, params):
        pt = h1_identity(params, "some-identity")
        assert pt.is_in_subgroup()
        assert not pt.is_infinity

    def test_h1_deterministic_and_separated(self, params):
        assert h1_identity(params, "a") == h1_identity(params, "a")
        assert h1_identity(params, "a") != h1_identity(params, "b")

    def test_h1_bytes_and_str_agree(self, params):
        assert h1_identity(params, "xyz") == h1_identity(params, b"xyz")

    def test_h2_point_differs_from_h1(self, params):
        assert h2_keyword_point(params, "word") != h1_identity(params, "word")

    def test_h2_scalar_range(self, params):
        s = h2_keyword_scalar(params, "word")
        assert 1 <= s < params.r

    def test_h3_scalar_range(self, params):
        value = tate_pairing(params.generator, params.generator)
        s = h3_pairing_to_scalar(params, value)
        assert 1 <= s < params.r

    def test_h3_bytes_length(self, params):
        value = tate_pairing(params.generator, params.generator)
        assert len(h3_pairing_to_bytes(value, 48)) == 48

    def test_h_to_scalar_unambiguous(self, params):
        # Length prefixing: ("ab","c") must differ from ("a","bc").
        assert (h_to_scalar(params, b"ab", b"c")
                != h_to_scalar(params, b"a", b"bc"))


class TestH1Memo:
    """h1_identity's LRU: bounded, value-equal to the uncached hash, and
    never fed a keyword or a one-shot message point."""

    @given(st.lists(st.binary(max_size=12), min_size=1, max_size=30))
    @settings(max_examples=10, deadline=None)
    def test_bounded_and_equal_to_uncached(self, params, identities):
        clear_pairing_cache()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hashes._h1_memo, "capacity", 8)
            for identity in identities + identities[:3]:
                assert (h1_identity(params, identity)
                        == h1_uncached(params, identity))
                assert len(hashes._h1_memo) <= 8
        clear_pairing_cache()
        assert not hashes._h1_memo

    def test_concurrent_callers_keep_the_bound(self, params):
        import sys
        import threading
        clear_pairing_cache()
        identities = [b"id-%d" % i for i in range(24)]
        expected = {ident: h1_uncached(params, ident) for ident in identities}
        wrong, finished = [], []

        def worker(offset):
            for k in range(60):
                ident = identities[(offset + 5 * k) % len(identities)]
                if h1_identity(params, ident) != expected[ident]:
                    wrong.append(ident)
            finished.append(offset)  # not reached if a call raised

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(hashes._h1_memo, "capacity", 8)
                threads = [threading.Thread(target=worker, args=(i,))
                           for i in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert len(hashes._h1_memo) <= 8
        finally:
            sys.setswitchinterval(interval)
            clear_pairing_cache()
        assert wrong == [] and sorted(finished) == list(range(6))

    @given(st.text(max_size=16), st.binary(max_size=24))
    @settings(max_examples=5, deadline=None)
    def test_keywords_and_message_points_bypass_it(self, params, keyword,
                                                   message):
        from repro.crypto.hibc import HibcRoot, hids_verify
        from repro.crypto.peks import AbdallaPeks
        clear_pairing_cache()
        rng = HmacDrbg(b"memo-secrets")
        peks = AbdallaPeks(params, rng)
        assert peks.test(peks.tag(keyword, rng), peks.trapdoor(keyword))
        root = HibcRoot(params, rng)
        node = root.extract_child("federal", rng).extract_child("state", rng)
        assert hids_verify(params, root.root_public, node.id_tuple,
                           message, node.sign(message))
        held = [identity for _, identity in hashes._h1_memo]
        assert held  # the public HIBC tuple hashes are memoised
        assert not any(identity.startswith((b"peks-kw:", b"hids-msg:"))
                       for identity in held)


class TestIdentityPairingMemo:
    """The ê(A, PK) memo of repro.crypto.pairing takes only system points
    and public identity keys."""

    @given(st.text(max_size=16), st.binary(max_size=24))
    @settings(max_examples=5, deadline=None)
    def test_holds_only_public_points(self, params, keyword, message):
        from repro.crypto import pairing
        from repro.crypto.hibc import HibcRoot, _message_point, hids_verify
        from repro.crypto.peks import AbdallaPeks
        clear_pairing_cache()
        rng = HmacDrbg(b"memo-public")
        pkg = PrivateKeyGenerator(params, rng)
        key = pkg.extract("dr-memo")
        assert verify(params, pkg.public_key, "dr-memo", message,
                      sign(params, key, message, rng))
        scheme = FullIdent(params, pkg.public_key)
        assert scheme.decrypt(key, scheme.encrypt("dr-memo", message,
                                                  rng)) == message
        ciphertext = encrypt_to_point(params, pkg.public_key, key.public,
                                      message, rng)
        assert decrypt_with_point(key.private, ciphertext) == message
        peks = AbdallaPeks(params, rng)
        trapdoor = peks.trapdoor(keyword)
        assert peks.test(peks.tag(keyword, rng), trapdoor)
        root = HibcRoot(params, rng)
        node = root.extract_child("federal", rng).extract_child("state", rng)
        assert hids_verify(params, root.root_public, node.id_tuple,
                           message, node.sign(message))
        held = {point for memo_key in pairing._identity_pairings
                for point in memo_key[1:]}
        assert held == {params.generator, pkg.public_key, key.public}
        secret = {key.private, trapdoor.point, node.psi,
                  h1_uncached(params, "peks-kw:" + keyword),
                  _message_point(params, node.id_tuple, message)}
        assert not held & secret


class TestPkg:
    def test_extract_consistency(self, params, pkg, alice):
        """Γ = s0·PK, verifiable via ê(Γ, P) == ê(PK, P_pub)."""
        assert params.pairing_ratio_check(
            (alice.private, params.generator),
            (alice.public, pkg.public_key))

    def test_from_secret_round_trip(self, params, pkg):
        clone = PrivateKeyGenerator.from_secret(params, pkg.master_secret)
        assert clone.public_key == pkg.public_key
        assert clone.extract("x").private == pkg.extract("x").private

    def test_from_secret_zero_rejected(self, params):
        with pytest.raises(ParameterError):
            PrivateKeyGenerator.from_secret(params, 0)


class TestBasicIdent:
    def test_round_trip(self, params, pkg, alice, rng):
        scheme = BasicIdent(params, pkg.public_key)
        ct = scheme.encrypt("alice@hospital", b"PHI payload", rng)
        assert scheme.decrypt(alice, ct) == b"PHI payload"

    def test_wrong_key_garbles(self, params, pkg, alice, bob, rng):
        scheme = BasicIdent(params, pkg.public_key)
        ct = scheme.encrypt("alice@hospital", b"PHI payload", rng)
        assert scheme.decrypt(bob, ct) != b"PHI payload"

    def test_empty_message(self, params, pkg, alice, rng):
        scheme = BasicIdent(params, pkg.public_key)
        assert scheme.decrypt(alice, scheme.encrypt("alice@hospital", b"",
                                                    rng)) == b""

    def test_randomized(self, params, pkg, rng):
        scheme = BasicIdent(params, pkg.public_key)
        c1 = scheme.encrypt("alice@hospital", b"m", rng)
        c2 = scheme.encrypt("alice@hospital", b"m", rng)
        assert c1.U != c2.U


class TestFullIdent:
    def test_round_trip(self, params, pkg, alice, rng):
        scheme = FullIdent(params, pkg.public_key)
        ct = scheme.encrypt("alice@hospital", b"nounce-material", rng)
        assert scheme.decrypt(alice, ct) == b"nounce-material"

    def test_wrong_key_rejected(self, params, pkg, bob, rng):
        scheme = FullIdent(params, pkg.public_key)
        ct = scheme.encrypt("alice@hospital", b"nounce-material", rng)
        with pytest.raises(DecryptionError):
            scheme.decrypt(bob, ct)

    def test_tampered_rejected(self, params, pkg, alice, rng):
        from dataclasses import replace
        scheme = FullIdent(params, pkg.public_key)
        ct = scheme.encrypt("alice@hospital", b"nounce", rng)
        forged = replace(ct, W=bytes([ct.W[0] ^ 1]) + ct.W[1:])
        with pytest.raises(DecryptionError):
            scheme.decrypt(alice, forged)

    def test_malformed_v_rejected(self, params, pkg, alice, rng):
        from dataclasses import replace
        scheme = FullIdent(params, pkg.public_key)
        ct = scheme.encrypt("alice@hospital", b"nounce", rng)
        with pytest.raises(DecryptionError):
            scheme.decrypt(alice, replace(ct, V=b"short"))

    def test_ciphertext_serialization_size(self, params, pkg, rng):
        scheme = FullIdent(params, pkg.public_key)
        ct = scheme.encrypt("alice@hospital", b"x" * 100, rng)
        assert ct.size_bytes() == len(ct.U.to_bytes()) + 32 + 100
        assert len(ct.to_bytes()) > ct.size_bytes()


class TestPointKeyedIbe:
    def test_round_trip(self, params, pkg, rng):
        pair = issue_temporary_pair(params, pkg.master_secret, rng)
        ct = encrypt_to_point(params, pkg.public_key, pair.public,
                              b"one-time passcode", rng)
        assert decrypt_with_point(pair.private, ct) == b"one-time passcode"

    def test_derived_pseudonym_still_decrypts(self, params, pkg, rng):
        pair = issue_temporary_pair(params, pkg.master_secret, rng)
        derived = self_generate(pair, params, rng)
        ct = encrypt_to_point(params, pkg.public_key, derived.public,
                              b"secret", rng)
        assert decrypt_with_point(derived.private, ct) == b"secret"

    def test_wrong_private_garbles(self, params, pkg, rng):
        p1 = issue_temporary_pair(params, pkg.master_secret, rng)
        p2 = issue_temporary_pair(params, pkg.master_secret, rng)
        ct = encrypt_to_point(params, pkg.public_key, p1.public, b"m", rng)
        assert decrypt_with_point(p2.private, ct) != b"m"

    def test_infinity_rejected(self, params, pkg, rng):
        inf = Point.infinity_point(params.curve)
        with pytest.raises(ParameterError):
            encrypt_to_point(params, pkg.public_key, inf, b"m", rng)


class TestHessIbs:
    def test_sign_verify(self, params, pkg, alice, rng):
        sig = sign(params, alice, b"emergency request", rng)
        assert verify(params, pkg.public_key, "alice@hospital",
                      b"emergency request", sig)

    def test_rejects_wrong_message(self, params, pkg, alice, rng):
        sig = sign(params, alice, b"m1", rng)
        assert not verify(params, pkg.public_key, "alice@hospital", b"m2",
                          sig)

    def test_rejects_wrong_identity(self, params, pkg, alice, rng):
        sig = sign(params, alice, b"m", rng)
        assert not verify(params, pkg.public_key, "mallory@hospital", b"m",
                          sig)

    def test_rejects_wrong_domain(self, params, pkg, alice, rng):
        other_pkg = PrivateKeyGenerator(params, HmacDrbg(b"other"))
        sig = sign(params, alice, b"m", rng)
        assert not verify(params, other_pkg.public_key, "alice@hospital",
                          b"m", sig)

    def test_signatures_randomized(self, params, alice, rng):
        s1 = sign(params, alice, b"m", rng)
        s2 = sign(params, alice, b"m", rng)
        assert s1.u != s2.u

    def test_verify_or_raise(self, params, pkg, alice, rng):
        sig = sign(params, alice, b"m", rng)
        verify_or_raise(params, pkg.public_key, "alice@hospital", b"m", sig)
        with pytest.raises(SignatureError):
            verify_or_raise(params, pkg.public_key, "alice@hospital",
                            b"other", sig)

    def test_infinity_u_rejected(self, params, pkg):
        from repro.crypto.ibs import IbsSignature
        bogus = IbsSignature(u=Point.infinity_point(params.curve), v=1)
        assert not verify(params, pkg.public_key, "alice@hospital", b"m",
                          bogus)

    def test_size_accounting(self, params, alice, rng):
        sig = sign(params, alice, b"m", rng)
        assert sig.size_bytes() > 0
        assert len(sig.to_bytes()) >= sig.size_bytes()

    @given(st.binary(max_size=40),
           st.sampled_from(["valid", "u", "v", "v=0", "message", "identity",
                            "u outside G1"]))
    @settings(max_examples=25, deadline=None)
    def test_verify_agrees_with_textbook_r(self, params, pkg, message,
                                           tamper):
        """verify's r' = ê(P, u)·ê(P_pub, PK)^(−v) against the textbook
        two-pairing ê(u, P)·ê(−v·PK, P_pub), on valid and tampered
        signatures."""
        from repro.crypto.ibs import IbsSignature, _recompute_r
        alice = pkg.extract("alice@hospital")
        sig = sign(params, alice, message, HmacDrbg(message))
        identity = "alice@hospital"
        if tamper == "u":
            sig = IbsSignature(u=sig.u + params.generator, v=sig.v)
        elif tamper == "v":
            sig = IbsSignature(u=sig.u, v=sig.v + 1)
        elif tamper == "v=0":
            sig = IbsSignature(u=sig.u, v=0)
        elif tamper == "message":
            message += b"!"
        elif tamper == "identity":
            identity = "mallory@hospital"
        elif tamper == "u outside G1":
            lifted = next(pt for pt in (Point.from_x(x, params.curve)
                                        for x in range(5, 99))
                          if pt is not None)
            sig = IbsSignature(u=lifted, v=sig.v)
        pk = h1_identity(params, identity)
        textbook = (tate_pairing(sig.u, params.generator)
                    * tate_pairing(pk * (-sig.v % params.r), pkg.public_key))
        assert _recompute_r(params, pkg.public_key, pk, sig) == textbook
        expected = h_to_scalar(params, b"hess-ibs", message,
                               textbook.to_bytes()) == sig.v
        assert verify(params, pkg.public_key, identity, message,
                      sig) is expected
        assert expected is (tamper == "valid")


class TestNike:
    def test_symmetric(self, alice, bob):
        assert shared_key(alice, bob.public) == shared_key(bob, alice.public)

    def test_distinct_pairs_differ(self, pkg, alice, bob):
        carol = pkg.extract("carol@clinic")
        assert (shared_key(alice, bob.public)
                != shared_key(alice, carol.public))

    def test_infinity_rejected(self, params, alice):
        inf = Point.infinity_point(params.curve)
        with pytest.raises(ParameterError):
            shared_key_from_points(alice.private, inf)

    def test_cross_domain_keys_differ(self, params, alice, bob):
        """Keys under different masters must not collide."""
        other = PrivateKeyGenerator(params, HmacDrbg(b"other-state"))
        alice2 = other.extract("alice@hospital")
        assert (shared_key(alice, bob.public)
                != shared_key(alice2, bob.public))


class TestPseudonyms:
    def test_issued_pair_consistent(self, params, pkg, rng):
        pair = issue_temporary_pair(params, pkg.master_secret, rng)
        assert pair.verify_consistency(params, pkg.public_key)

    def test_derived_pair_consistent_and_unlinkable(self, params, pkg, rng):
        pair = issue_temporary_pair(params, pkg.master_secret, rng)
        derived = self_generate(pair, params, rng)
        assert derived.verify_consistency(params, pkg.public_key)
        assert derived.public != pair.public

    def test_derivation_chain(self, params, pkg, rng):
        pair = issue_temporary_pair(params, pkg.master_secret, rng)
        for _ in range(3):
            pair = self_generate(pair, params, rng)
            assert pair.verify_consistency(params, pkg.public_key)

    def test_forged_pair_fails_consistency(self, params, pkg, rng):
        from repro.crypto.pseudonym import TemporaryKeyPair
        forged = TemporaryKeyPair(public=params.generator * 5,
                                  private=params.generator * 7)
        assert not forged.verify_consistency(params, pkg.public_key)

    def test_nike_works_through_derivation(self, params, pkg, rng):
        """ν derived from a fresh pseudonym matches the server's side."""
        server = pkg.extract("sserver:h0")
        pair = self_generate(
            issue_temporary_pair(params, pkg.master_secret, rng),
            params, rng)
        client_side = shared_key_from_points(pair.private, server.public)
        server_side = shared_key_from_points(server.private, pair.public)
        assert client_side == server_side
