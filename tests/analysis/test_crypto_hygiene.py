"""crypto-hygiene fixtures: timing-unsafe compares, `random`, fixed IVs."""

from __future__ import annotations

import pytest

from repro.analysis import analyze_source, get_rule


@pytest.fixture()
def rule():
    return get_rule("crypto-hygiene")


def test_equality_on_tag_flags(rule):
    findings = analyze_source("""
def verify(tag, expected):
    return tag == expected
""", rule)
    assert findings and "constant_time_equal" in findings[0].message


def test_inequality_on_digest_flags(rule):
    assert analyze_source("""
def verify(body, digest):
    if sha256(body).digest() != digest:
        raise ValueError("mismatch")
""", rule)


def test_maclike_attribute_chain_flags(rule):
    # ``tag.B`` is MAC material even though the terminal attr is ``B``.
    assert analyze_source("""
def test(tag, value):
    return h3(value) == tag.B
""", rule)


def test_equality_on_keyed_mac_flags(rule):
    # The keyed HmacKey.mac output is MAC material whatever the other
    # side is called.
    findings = analyze_source("""
def verify(key, message, expected):
    return key.mac(message) == expected
""", rule)
    assert findings and "constant_time_equal" in findings[0].message


def test_keyed_mac_constant_time_is_clean(rule):
    assert not analyze_source("""
def verify(key, message, expected):
    return constant_time_equal(key.mac(message), expected)
""", rule)


def test_constant_time_helpers_are_clean(rule):
    assert not analyze_source("""
def verify(tag, expected):
    return constant_time_equal(tag, expected)

def verify2(tag, expected):
    return hmac.compare_digest(tag, expected)
""", rule)


def test_structural_compares_are_clean(rule):
    assert not analyze_source("""
def check(tag):
    if tag is None:
        return False
    return len(tag) == 32 and tag.kind == 3
""", rule)


def test_random_import_flags(rule):
    findings = analyze_source("import random\n", rule)
    assert findings and "HmacDrbg" in findings[0].message


def test_random_from_import_flags(rule):
    assert analyze_source("from random import randint\n", rule)


def test_faults_module_may_import_random(rule):
    assert not analyze_source(
        "import random\n", rule,
        path="src/repro/net/transport/faults.py")


def test_literal_iv_keyword_flags(rule):
    findings = analyze_source("""
def seal(key, data):
    return cbc_encrypt(key, data, iv=b"0000000000000000")
""", rule)
    assert findings and "IV/nonce" in findings[0].message


def test_literal_iv_positional_flags(rule):
    assert analyze_source("""
def seal(key, data):
    return ctr_transform(key, b"\\x00" * 16, data)
""", rule)


def test_fresh_iv_is_clean(rule):
    assert not analyze_source("""
def seal(key, data, rng):
    return cbc_encrypt(key, rng.bytes(16), data)
""", rule)


def test_literal_nonce_list_in_batch_flags(rule):
    findings = analyze_source("""
def seal_nodes(keys, nodes):
    return semantic_encrypt_many(keys, [b"\\x00" * 12] * len(keys), nodes)
""", rule)
    assert findings and "semantic_encrypt_many" in findings[0].message
    assert analyze_source("""
def seal_all(keys, messages):
    return ctr_transform_many(keys, nonces=[b"fixed-nonce!" for _ in keys],
                              messages=messages)
""", rule)


def test_drawn_nonce_list_in_batch_is_clean(rule):
    assert not analyze_source("""
def seal_nodes(keys, nodes, rng):
    nonces = [rng.random_bytes(12) for _ in keys]
    return semantic_encrypt_many(keys, nonces, nodes)
""", rule)
