"""crypto-hygiene: constant-time comparisons, no ``random``, no fixed IVs.

Three checks, all motivated by attacks the paper's threat model admits:

* **Timing-unsafe MAC/digest comparison** — ``==``/``!=`` on values that
  are (or are named like) MACs, tags, or digests short-circuits at the
  first differing byte; an attacker who can submit guesses measures the
  byte-position of the mismatch (the classic HMAC timing attack; the
  repo's own ``bench_timing_analysis.py`` demonstrates the channel).
  Verification must go through ``constant_time_equal`` (ours,
  ``crypto/hmac_impl.py``) or ``hmac.compare_digest`` (stdlib, for
  modules below the crypto layer).
* **``random`` module use** — Mersenne Twister is predictable from 624
  outputs; every key, nonce, and scalar must come from the seeded
  :class:`~repro.crypto.rng.HmacDrbg`.  The only allowed importer is
  the fault-injection plan (``net/transport/faults.py``), which *wants*
  a cheap seeded stream and never touches key material.
* **Literal IV/nonce** — a constant ``iv=``/``nonce=``/``nonces=``
  argument (or a bytes literal in the IV slot of ``ctr_transform``/
  ``cbc_encrypt``, or in the nonce list of the batch entry points
  ``ctr_transform_many``/``semantic_encrypt_many``) turns CTR into a
  two-time pad and CBC into a deterministic cipher.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.analysis.framework import Finding, Module, Rule, register

#: Names that smell like MAC/digest material.  CRCs are framing checksums,
#: not authenticators, and are deliberately not matched.
MACLIKE_NAME = re.compile(r"(^|_)(tag|mac|digest|hmac)(s)?($|_)|_tag$|^tag",
                          re.IGNORECASE)
#: Calls whose result is MAC/digest material (``mac`` is the keyed
#: :class:`~repro.crypto.hmac_impl.HmacKey` method).
MACLIKE_CALLS = frozenset({"hmac_sha256", "mac", "digest", "hexdigest"})

RANDOM_ALLOWED = frozenset({"src/repro/net/transport/faults.py"})

IV_PARAM_NAMES = frozenset({"iv", "nonce", "nonces"})
IV_POSITIONAL = {"ctr_transform": 1, "cbc_encrypt": 1, "cbc_decrypt": 1,
                 "ctr_transform_many": 1, "semantic_encrypt_many": 1}


def _terminal(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _literal_bytes(node: ast.AST) -> bool:
    """A bytes constant, including the ``b"\\x00" * 16`` idiom, or a
    nonce list holding one (``[b"..."] * n``, ``[b"..." for _ in xs]``)."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, bytes)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _literal_bytes(node.left) or _literal_bytes(node.right)
    if isinstance(node, (ast.List, ast.Tuple)):
        return any(_literal_bytes(element) for element in node.elts)
    if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
        return _literal_bytes(node.elt)
    return False


def _maclike(node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        name = _terminal(node.func)
        return name in MACLIKE_CALLS
    # Walk attribute chains: ``tag.B`` is MAC material even though the
    # terminal attribute is just ``B``.
    probe = node
    while True:
        name = _terminal(probe)
        if name and MACLIKE_NAME.search(name):
            return True
        if isinstance(probe, ast.Attribute):
            probe = probe.value
            continue
        return False


@register
class CryptoHygieneRule(Rule):
    id = "crypto-hygiene"
    description = ("MAC/digest comparisons must be constant-time; no "
                   "`random` outside fault injection; no literal IVs "
                   "or nonces")

    def check_module(self, module: Module) -> Iterable[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Compare):
                findings.extend(self._check_compare(module, node))
            elif isinstance(node, ast.Import):
                findings.extend(self._check_import(
                    module, node, [alias.name for alias in node.names]))
            elif isinstance(node, ast.ImportFrom):
                findings.extend(self._check_import(
                    module, node, [node.module or ""]))
            elif isinstance(node, ast.Call):
                findings.extend(self._check_call(module, node))
        return findings

    def _check_compare(self, module: Module,
                       node: ast.Compare) -> list[Finding]:
        if len(node.ops) != 1 or not isinstance(node.ops[0],
                                                (ast.Eq, ast.NotEq)):
            return []
        left, right = node.left, node.comparators[0]
        # Comparisons against None/len()/ints are structural, not secret.
        for side in (left, right):
            if isinstance(side, ast.Constant) and not isinstance(
                    side.value, (bytes, str)):
                return []
        if not (_maclike(left) or _maclike(right)):
            return []
        return [self.finding(
            module, node.lineno,
            "MAC/digest comparison %r uses ==/!= which short-circuits "
            "on the first differing byte — use constant_time_equal / "
            "hmac.compare_digest" % module.segment(node))]

    def _check_import(self, module: Module, node: ast.AST,
                      names: list[str]) -> list[Finding]:
        findings = []
        for name in names:
            if name == "random" or name.startswith("random."):
                if module.path in RANDOM_ALLOWED:
                    continue
                findings.append(self.finding(
                    module, node.lineno,
                    "the `random` module is predictable (Mersenne "
                    "Twister) — draw from crypto.rng.HmacDrbg; only the "
                    "fault-injection plan may import it"))
        return findings

    def _check_call(self, module: Module, node: ast.Call) -> list[Finding]:
        findings = []
        for keyword in node.keywords:
            if (keyword.arg in IV_PARAM_NAMES
                    and _literal_bytes(keyword.value)):
                findings.append(self.finding(
                    module, node.lineno,
                    "literal %s= passed to %s() — a fixed IV/nonce makes "
                    "the keystream reusable; draw it from the DRBG"
                    % (keyword.arg,
                       _terminal(node.func) or "a cipher call")))
        position = IV_POSITIONAL.get(_terminal(node.func) or "")
        if position is not None and len(node.args) > position:
            if _literal_bytes(node.args[position]):
                findings.append(self.finding(
                    module, node.lineno,
                    "literal IV/nonce in %s() — a fixed IV/nonce makes "
                    "the keystream reusable; draw it from the DRBG"
                    % _terminal(node.func)))
        return findings
