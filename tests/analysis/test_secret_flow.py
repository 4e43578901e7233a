"""secret-flow fixtures: known-bad snippets flag, known-good stay quiet."""

from __future__ import annotations

import pytest

from repro.analysis import analyze_source, get_rule


@pytest.fixture()
def rule():
    return get_rule("secret-flow")


def _hits(rule, source):
    return analyze_source(source, rule)


def test_secret_param_logged(rule):
    findings = _hits(rule, """
def install(log, session_key):
    log.info("installed key %s", session_key)
""")
    assert len(findings) == 1
    assert "logging" in findings[0].message


def test_secret_printed(rule):
    assert _hits(rule, """
def show(passcode):
    print(passcode)
""")


def test_secret_in_percent_exception(rule):
    findings = _hits(rule, """
def check(nounce):
    raise ValueError("bad nounce %r" % nounce)
""")
    assert findings and "exception" in findings[0].message


def test_secret_in_fstring_exception(rule):
    assert _hits(rule, """
def check(master_secret):
    raise ValueError(f"got {master_secret}")
""")


def test_secret_in_format_exception(rule):
    assert _hits(rule, """
def check(preshared_key):
    raise ValueError("k={}".format(preshared_key))
""")


def test_taint_propagates_through_assignment(rule):
    findings = _hits(rule, """
def relay(group_secret):
    hidden = group_secret
    copy = hidden
    print(copy)
""")
    assert findings


def test_keywords_are_secrets_too(rule):
    # Keyword privacy is the point of the SSE layer (§IV.B/D).
    assert _hits(rule, """
def search(keyword):
    raise KeyError("no such keyword %r" % keyword)
""")


def test_journal_append_of_secret(rule):
    findings = _hits(rule, """
def persist(writer, preshared_key):
    writer.append(K_KEY, preshared_key)
""")
    assert findings and "journal" in findings[0].message


def test_snapshot_write_of_secret(rule):
    assert _hits(rule, """
def persist(sse_key):
    write_snapshot("dir", "name", 1, sse_key)
""")


def test_repr_of_secret(rule):
    assert _hits(rule, """
def debug(omega):
    return repr(omega)
""")


def test_repr_of_rho(rule):
    # ρ names the MHI SOK key and a pseudonym's scalar (ρ⁻¹Γ′ = Γ).
    assert _hits(rule, """
def debug(rho):
    return repr(rho)
""")


def test_sanitizers_stop_taint(rule):
    # Sizes/digests of secrets are public by design (the experiments
    # report them) — no finding.
    assert not _hits(rule, """
def report(log, session_key, passcode):
    log.info("key is %d bytes", len(session_key))
    print(hmac_sha256(b"pc", passcode))
""")


def test_plain_values_never_flag(rule):
    assert not _hits(rule, """
def handle(log, frame, address):
    log.debug("frame from %s", address)
    raise ValueError("bad frame length %d" % len(frame))
""")


def test_raising_without_interpolation_is_fine(rule):
    # A constant message mentioning the word "keyword" is fine — only
    # interpolated *values* leak.
    assert not _hits(rule, """
def check(keyword):
    if not keyword:
        raise ValueError("keyword not in my dictionary")
""")


# -- interprocedural layer (v2) ---------------------------------------------

def test_secret_returning_call_taints_the_caller(rule):
    findings = _hits(rule, """
def derive():
    return master_secret

def boot():
    key = derive()
    print(key)
""")
    assert len(findings) == 1
    assert "print" in findings[0].message


def test_secret_argument_into_a_sinking_parameter(rule):
    findings = _hits(rule, """
def emit(value):
    print(value)

def leak(session_key):
    emit(session_key)
""")
    assert len(findings) == 1
    assert "flows into emit()" in findings[0].message
    assert "'value'" in findings[0].message
    assert "print sink" in findings[0].message


def test_transitive_sink_through_two_hops(rule):
    findings = _hits(rule, """
def log_it(log, payload):
    log.info("got %r", payload)

def relay(log, item):
    log_it(log, item)

def leak(log, group_secret):
    relay(log, group_secret)
""")
    assert findings
    assert any("flows into relay()" in f.message for f in findings)


def test_attribute_store_taints_sibling_methods(rule):
    findings = _hits(rule, """
class Holder:
    def set_key(self, master_secret):
        self._k = master_secret

    def show(self):
        print(self._k)
""")
    assert len(findings) == 1
    assert "print" in findings[0].message


def test_aggregate_projection_is_not_a_secret(rule):
    # derive() returns an aggregate *containing* secrets; its public
    # metadata fields are fine to surface.
    assert not _hits(rule, """
def derive():
    return master_secret

def report(log):
    envelope = derive()
    log.info("label=%s", envelope.label)
    raise ValueError("bad envelope %s" % envelope.timestamp)
""")


def test_aggregate_itself_still_sinks(rule):
    assert _hits(rule, """
def derive():
    return master_secret

def dump():
    bundle = derive()
    print(bundle)
""")


def test_all_defs_must_return_secrets(rule):
    # Two defs share the name; one is benign, so calls stay untainted.
    assert not _hits(rule, """
def derive():
    return master_secret

class Other:
    def derive(self):
        return "public"

def boot():
    key = derive()
    print(key)
""")


def test_generic_container_names_never_taint(rule):
    # A lone project `def get` returning a secret must not turn every
    # dict .get() into a source.
    assert not _hits(rule, """
class KeyStore:
    def get(self, label):
        return self._master_secret

def lookup(table):
    value = table.get("federation")
    print(value)
""")


def test_keyed_mac_output_is_public(rule):
    # A MAC tag is public by design (it rides every envelope), whether
    # the one-shot or the keyed form produced it.
    assert not _hits(rule, """
def report(log, session_key, passcode):
    key = HmacKey(session_key)
    log.info("tag %s", key.mac(passcode))
""")


def test_mac_key_object_itself_still_sinks(rule):
    assert _hits(rule, """
def report(log, session_key):
    key = HmacKey(session_key)
    log.info("key %r", key)
""")


def test_sanitizer_stops_interprocedural_taint(rule):
    assert not _hits(rule, """
def derive():
    return master_secret

def report():
    key = derive()
    print(len(key))
""")


def test_sink_param_projection_does_not_condemn_the_parameter(rule):
    # open_envelope-style helper: raises about public metadata of the
    # aggregate it was handed — callers passing secret-bearing
    # aggregates are fine.
    assert not _hits(rule, """
def open_box(envelope):
    raise ValueError("bad label %r" % envelope.label)

def fetch(session_key):
    box = wrap(session_key)
    open_box(box)
""")
