"""layering: declarative per-package import/call contracts.

The codebase is a strict layer cake.  This pass states it as a
contract table (run just this pass with
``python tools/hcpplint.py --rules layering``):

* ``repro.crypto`` is the bottom — it imports nothing above itself
  (stdlib, ``repro.crypto``, ``repro.exceptions`` only), so the whole
  cryptographic core stays auditable in isolation.
* ``repro.sse`` builds only on crypto.
* ``repro.store.journal`` / ``repro.store.snapshot`` are raw durability
  primitives that sit *below* ``repro.core`` (their docstrings already
  promise this); only ``repro.store.durable`` — the adapter at the wire
  boundary — may speak to dispatch and envelopes.  No store module may
  import the protocol *flows* (storage/retrieval/emergency/privilege/
  mhi/crossdomain): durability wraps frames, never re-runs protocols.
* ``repro.net`` knows frames and links, never entities or protocols
  (``repro.core.wire`` is the shared boundary language and is allowed).
* ``repro.core.protocols`` speaks only wire frames: no direct calls to
  a remote party's surface (``handle_*``, the A-server's issuance
  methods, entity install hooks, raw ``transmit``) and no import of the
  simulator behind the transport abstraction.
* ``repro.analysis`` (this package) imports stdlib only — the analyzer
  must sit below everything it judges.

A contract names a package prefix; the *longest matching prefix* wins,
so ``repro.store.journal`` gets the strict journal contract while
``repro.store.durable`` falls back to the broader store contract.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.framework import Finding, Module, Rule, register

# Remote-party surface: anything the other end of a wire would serve.
FORBIDDEN_METHOD_PREFIXES = ("handle_",)
FORBIDDEN_METHODS = frozenset({
    "authenticate_emergency",   # A-server, §IV.E.2 steps 1-2
    "extract_role_key",         # A-server, Γ_r issuance
    "seal_role_key",            # A-server, sealed Γ_r issuance
    "register_pdevice",         # A-server, emergency registration
    "receive_assign",           # entity-side ASSIGN install
    "receive_passcode",         # P-device-side step-3 install
    "transmit",                 # raw simulator access
})

PROTOCOL_FLOWS = tuple(
    "repro.core.protocols." + flow
    for flow in ("storage", "retrieval", "emergency", "privilege",
                 "mhi", "crossdomain"))


@dataclass(frozen=True)
class Contract:
    """Import/call obligations for one package prefix."""

    prefix: str                       # dotted module prefix this governs
    #: repro-internal prefixes this package may import (stdlib is always
    #: allowed; ``None`` means any repro import is fine).
    allowed: tuple | None = None
    #: repro-internal prefixes this package must never import, checked
    #: even when ``allowed`` is None.
    forbidden: tuple = ()
    #: enforce the frames-only call rule (no remote-party methods).
    frames_only: bool = False
    why: str = ""


CONTRACTS = (
    Contract(prefix="repro.analysis",
             allowed=("repro.analysis",),
             why="the analyzer must sit below every layer it judges"),
    Contract(prefix="repro.crypto",
             allowed=("repro.crypto", "repro.exceptions"),
             why="the cryptographic core is auditable in isolation"),
    Contract(prefix="repro.sse",
             allowed=("repro.sse", "repro.crypto", "repro.exceptions"),
             why="searchable encryption builds only on crypto"),
    Contract(prefix="repro.store.journal",
             allowed=("repro.exceptions",),
             why="the WAL sits below repro.core (its docstring promises "
                 "this); only durable.py adapts frames to records"),
    Contract(prefix="repro.store.snapshot",
             allowed=("repro.exceptions",),
             why="snapshots are raw durability primitives below "
                 "repro.core"),
    Contract(prefix="repro.store",
             forbidden=PROTOCOL_FLOWS,
             why="durability wraps acknowledged frames; it must never "
                 "re-run protocol flows"),
    Contract(prefix="repro.net",
             forbidden=("repro.core.aserver", "repro.core.sserver",
                        "repro.core.entities", "repro.core.dispatch",
                        "repro.core.protocols"),
             why="transports carry bytes; entities and protocols live "
                 "above the wire"),
    Contract(prefix="repro.core.shard",
             allowed=("repro.core.shard", "repro.exceptions"),
             why="the consistent-hash ring is pure placement math below "
                 "dispatch: no wire, no endpoints, no crypto"),
    Contract(prefix="repro.core.health",
             allowed=("repro.core.health", "repro.exceptions"),
             why="circuit breakers and latency accounting are pure "
                 "bookkeeping over an injected clock: no wire, no "
                 "endpoints, no crypto"),
    Contract(prefix="repro.core.router",
             allowed=("repro.core.router", "repro.core.wire",
                      "repro.core.shard", "repro.core.health",
                      "repro.exceptions"),
             why="the federation router forwards opaque frames by ring "
                 "position; it must never import entity or protocol "
                 "layers (it cannot open what it routes)"),
    Contract(prefix="repro.core.protocols",
             forbidden=("repro.net.sim",),
             frames_only=True,
             why="protocols speak only wire frames through a transport "
                 "(PR 2 dispatch boundary)"),
)


def contract_for(dotted: str) -> Contract | None:
    best: Contract | None = None
    for contract in CONTRACTS:
        if dotted == contract.prefix or dotted.startswith(
                contract.prefix + "."):
            if best is None or len(contract.prefix) > len(best.prefix):
                best = contract
    return best


def _imported_names(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        # ``from repro.core import wire`` imports repro.core.wire; list
        # both so either prefix can satisfy/violate a contract.
        return [node.module] + ["%s.%s" % (node.module, alias.name)
                                for alias in node.names]
    return []


def _matches(name: str, prefixes: tuple) -> bool:
    return any(name == prefix or name.startswith(prefix + ".")
               for prefix in prefixes)


@register
class LayeringRule(Rule):
    id = "layering"
    description = ("per-package import/call contracts: crypto at the "
                   "bottom, protocols frames-only, store below core")

    def check_module(self, module: Module) -> Iterable[Finding]:
        contract = contract_for(module.dotted)
        if contract is None:
            return []
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                findings.extend(self._check_import(module, contract, node))
            elif (contract.frames_only and isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                name = node.func.attr
                if (name in FORBIDDEN_METHODS
                        or name.startswith(FORBIDDEN_METHOD_PREFIXES)):
                    findings.append(self.finding(
                        module, node.lineno,
                        "direct remote-party call .%s() — build a frame "
                        "and go through the transport" % name))
        return findings

    def _check_import(self, module: Module, contract: Contract,
                      node: ast.AST) -> list[Finding]:
        findings = []
        for name in _imported_names(node):
            if not name.startswith("repro"):
                continue  # stdlib / third-party: out of scope here
            if contract.forbidden and _matches(name, contract.forbidden):
                findings.append(self.finding(
                    module, node.lineno,
                    "%s must not import %s (%s)"
                    % (contract.prefix, name, contract.why)))
                continue
            if contract.allowed is not None and not _matches(
                    name, contract.allowed):
                findings.append(self.finding(
                    module, node.lineno,
                    "%s may import only {%s} but imports %s (%s)"
                    % (contract.prefix, ", ".join(contract.allowed),
                       name, contract.why)))
        return findings
