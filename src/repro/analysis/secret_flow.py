"""secret-flow: secrets must never reach logs, exception text, or
plaintext journal/snapshot writes.

HCPP's whole design keeps key material and emergency passcodes away
from every untrusted surface: the S-server is honest-but-curious, wire
errors serialize exception text back to the peer
(``dispatch.Endpoint.handle_frame`` → ``wire.error_response``), and the
journal is plain bytes on disk.  A secret formatted into an exception
message therefore *crosses the wire*; a secret in a log line lands in
operator storage; a secret appended to the journal is plaintext
key-at-rest.

The pass is an intraprocedural name-based taint analysis:

* **Sources** — identifiers whose terminal name matches the secret
  taxonomy: the master/group secrets (``master_secret``, ``group_secret``,
  ``*_secret``, ``d_new``), SSE/SOK/session keys (``session_key``,
  ``sse_key*``, ``omega``, ``nu``, ``rho`` — the MHI SOK key and a
  pseudonym's scalar — ``preshared*``, ``_mu``/``mu_value``),
  emergency material (``nounce``, ``passcode``), private key points
  (``*private*``), and plaintext search keywords (``keyword``/``kw*`` —
  keyword privacy is the point of the SSE layer, §IV.B/D).
* **Propagation** — an assignment whose right-hand side mentions a
  tainted identifier taints its targets (iterated to a small fixpoint).
* **Sanitizers** — sizes and counts of secrets are public by design
  (the experiments report them): a tainted value inside a call to
  ``len``/``size_bytes``/``size``/``count``/``sum`` stops tainting.
* **Sinks** — ``logging``-style calls (``log.debug/info/.../critical``),
  ``print``, ``repr``/``!r``/``%r`` of a tainted value inside any
  formatted string, exception constructors whose message interpolates a
  tainted value (``%``, ``.format``, f-string, string concat), and
  journal/snapshot writes (``...writer().append(...)``,
  ``journal.append(...)``, ``write_snapshot(...)``) carrying a tainted
  payload.

v2 adds an **interprocedural layer** on the shared project call graph
(:mod:`repro.analysis.callgraph`), run in :meth:`finish`:

* **returns** — a function whose return expression is tainted makes
  every call to it a source (``derive()`` returning ``master_secret``
  taints ``key = derive()`` in another file); resolution is name-based
  and conservative: *every* definition of the name must return a
  secret, so ``dict.get`` lookalikes stay quiet;
* **arguments** — per function, each parameter is checked for a
  sink-reaching flow (directly or transitively through further calls);
  a call site passing a *tainted* argument into such a parameter is a
  finding at the call site, where the secret actually escapes;
* **attribute stores** — ``self.X = <tainted>`` marks ``X`` tainted
  for the whole class, so a secret stashed in one method and logged in
  a sibling is caught.

Interprocedurally-derived taint is **weak**: it marks an *aggregate
holder* (a system object, an envelope) rather than a proven secret, so
it does not project through attribute access — ``envelope.label`` is
public metadata even though the envelope contains ciphertext.  Name-
taxonomy taint stays **strong** and projects exactly as in v1.

The intraprocedural findings and their message text are unchanged —
the baseline keys on messages, and the interprocedural layer only adds
findings the per-function pass cannot see.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.analysis import callgraph
from repro.analysis.framework import (Finding, Module, Project, Rule,
                                      register)

SECRET_NAME = re.compile(
    r"(^|_)(secret|nounce|passcode|preshared|master|private)($|_)"
    r"|group_secret|session_key|sse_key|keystore"
    r"|^_?mu(_value)?$|^omega$|^nu$|^rho$|^d_new$"
    r"|^keyword(s)?$|^kw[0-9]?$",
    re.IGNORECASE)

#: Calls through which a secret stops being secret (public metrics).
SANITIZERS = frozenset({"len", "size_bytes", "size", "count", "sum",
                        "sha256", "hmac_sha256", "mac", "digest",
                        "hexdigest"})

LOG_METHODS = frozenset({"debug", "info", "warning", "error",
                         "exception", "critical", "log"})
LOG_RECEIVERS = re.compile(r"(^|_)(log|logger|logging)(ger)?$",
                           re.IGNORECASE)

JOURNAL_RECEIVERS = re.compile(r"(journal|writer)", re.IGNORECASE)
SNAPSHOT_WRITERS = frozenset({"write_snapshot"})


def _terminal_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_secret_name(name: str | None) -> bool:
    return bool(name) and bool(SECRET_NAME.search(name))


def _call_name(node: ast.Call) -> str | None:
    return _terminal_name(node.func)


class _TaintScope:
    """Tainted identifiers for one function body.

    v2 distinguishes two taint strengths.  **Strong** taint is the
    original kind — a name the secret taxonomy matches, or anything
    assigned from one — and projects through attribute access
    (``master_secret.bytes`` is as secret as ``master_secret``).
    **Weak** taint marks *aggregate holders*: a value returned by a
    secret-returning function, or a parameter under flow analysis.  The
    aggregate itself reaching a sink counts (``print(system)`` reprs
    the keys inside), but a projection of it does not —
    ``envelope.label`` and ``issue.t_issue`` are public metadata of an
    object that merely *contains* secrets, and treating them as secret
    drowned every real finding in noise.

    ``name_taxonomy`` switches the secret-name regex source on/off —
    parameter-flow scopes (``does *this* parameter reach a sink?``)
    taint exactly one name and nothing else.  ``secret_calls`` and
    ``self_attrs`` are the interprocedural extensions: call names whose
    return value is secret, and ``self.<attr>`` slots a method stored a
    tainted value into (mapped to that value's strength).
    """

    def __init__(self, name_taxonomy: bool = True) -> None:
        self.names: set[str] = set()          # strong
        self.weak_names: set[str] = set()     # aggregate holders
        self.name_taxonomy = name_taxonomy
        self.secret_calls: frozenset[str] = frozenset()
        self.self_attrs: dict[str, bool] = {}  # attr -> strong?

    def _scan(self, node: ast.AST) -> ast.AST | None:
        """The first tainted sub-expression, honoring sanitizers."""
        hit = self._scan_strength(node)
        return hit[0] if hit is not None else None

    def _scan_strength(self,
                       node: ast.AST) -> tuple[ast.AST, bool] | None:
        """(hit node, strong?) for the first tainted sub-expression."""
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in SANITIZERS:
                return None
            if name in self.secret_calls:
                return (node, False)
            for part in ([node.func] + node.args
                         + [kw.value for kw in node.keywords]):
                hit = self._scan_strength(part)
                if hit is not None:
                    return hit
            return None
        terminal = _terminal_name(node)
        if terminal is not None:
            if ((self.name_taxonomy and _is_secret_name(terminal))
                    or terminal in self.names):
                return (node, True)
            if isinstance(node, ast.Name) and terminal in self.weak_names:
                return (node, False)
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and terminal in self.self_attrs):
                return (node, self.self_attrs[terminal])
        if isinstance(node, ast.Attribute):
            # Projection: x.attr inherits only *strong* taint from x.
            inner = self._scan_strength(node.value)
            if inner is not None and inner[1]:
                return inner
            return None
        for child in ast.iter_child_nodes(node):
            hit = self._scan_strength(child)
            if hit is not None:
                return hit
        return None

    def add_assign(self, target_name: str, strong: bool) -> None:
        (self.names if strong else self.weak_names).add(target_name)


def _formatted_parts(node: ast.AST) -> list[ast.AST] | None:
    """The interpolated values of a string-formatting expression, or
    None when the expression is not a formatting construct."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        right = node.right
        if isinstance(right, ast.Tuple):
            return list(right.elts)
        return [right]
    if isinstance(node, ast.JoinedStr):
        return [part.value for part in node.values
                if isinstance(part, ast.FormattedValue)]
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "format"):
        return list(node.args) + [kw.value for kw in node.keywords]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        parts = []
        for side in (node.left, node.right):
            nested = _formatted_parts(side)
            parts.extend(nested if nested is not None else [side])
        return parts
    return None


#: message substring -> sink kind, for summarizing a callee's finding
#: at a caller-side call site.
_KIND_MARKERS = (
    ("reaches a logging sink", "logging"),
    ("reaches a print sink", "print"),
    ("repr() of secret", "repr"),
    ("written to the journal", "journal"),
    ("written to a snapshot", "snapshot"),
    ("exception message", "exception"),
)


def _finding_kind(message: str) -> str:
    for marker, kind in _KIND_MARKERS:
        if marker in message:
            return kind
    return "secret"


class _FuncInfo:
    """Per-function facts the interprocedural fixpoints consume."""

    def __init__(self, fn: "callgraph.FuncNode",
                 graph: "callgraph.CallGraph") -> None:
        self.fn = fn
        func = fn.node
        args = func.args
        params = [a.arg for a in args.posonlyargs + args.args
                  + args.kwonlyargs]
        if fn.is_method and params and params[0] in ("self", "cls"):
            params = params[1:]
        self.params = params
        self.callees = graph.callees(func)
        self.returns: list[ast.AST] = []
        self.attr_assigns: list[tuple[str, ast.AST]] = []
        for node in ast.walk(func):
            if isinstance(node, ast.Return) and node.value is not None:
                self.returns.append(node.value)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        self.attr_assigns.append((target.attr,
                                                  node.value))
        self.has_sink_heads = _has_sink_heads(fn.module, func)


def _has_sink_heads(module: Module, func: ast.AST) -> bool:
    """Cheap prescan: does the body contain any sink-shaped construct?
    Gates the per-parameter flow analysis to functions that could
    possibly sink anything."""
    for node in ast.walk(func):
        if (isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and any(_formatted_parts(arg) is not None
                        for arg in node.exc.args)):
            return True
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name in ("print", "repr") or name in SNAPSHOT_WRITERS:
            return True
        fn = node.func
        if (isinstance(fn, ast.Attribute) and fn.attr in LOG_METHODS
                and LOG_RECEIVERS.search(
                    _terminal_name(fn.value) or "")):
            return True
        if (name == "append" and isinstance(fn, ast.Attribute)
                and JOURNAL_RECEIVERS.search(
                    module.segment(fn.value) or "")):
            return True
    return False


@register
class SecretFlowRule(Rule):
    id = "secret-flow"
    version = 2          # v2: interprocedural layer in finish()
    cross_file = True
    description = ("secrets (keys, nounces, passcodes, search keywords) "
                   "must not flow into logs, exception messages, repr, "
                   "or journal/snapshot writes — traced through returns, "
                   "arguments, and attribute stores on the call graph")

    #: fixpoint round cap — taint chains deeper than this are beyond
    #: any code this repo grows (each round adds one call-graph hop).
    MAX_ROUNDS = 5

    def check_module(self, module: Module) -> Iterable[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(self._check_function(module, node))
        return findings

    # -- per-function taint -------------------------------------------------
    def _base_scope(self, func: ast.AST,
                    secret_calls: frozenset = frozenset(),
                    self_attrs: dict | None = None) -> _TaintScope:
        scope = _TaintScope()
        scope.secret_calls = secret_calls
        scope.self_attrs = dict(self_attrs or {})
        args = func.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs
                    + ([args.vararg] if args.vararg else [])
                    + ([args.kwarg] if args.kwarg else [])):
            if _is_secret_name(arg.arg):
                scope.names.add(arg.arg)
        # Two propagation passes reach a fixpoint for straight-line
        # assignment chains (a = secret; b = a; sink(b)).  The target
        # inherits the hit's strength: `key = derive()` holds an
        # aggregate, `key = master_secret` holds the secret itself.
        for _ in range(2):
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    hit = scope._scan_strength(node.value)
                    if hit is not None:
                        for target in node.targets:
                            name = _terminal_name(target)
                            if isinstance(target, ast.Name) and name:
                                scope.add_assign(name, hit[1])
        return scope

    def _scan_sinks(self, module: Module, scope: _TaintScope,
                    func: ast.AST) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                findings.extend(self._check_call(module, scope, node))
            elif isinstance(node, ast.Raise) and node.exc is not None:
                findings.extend(self._check_raise(module, scope, node))
        return findings

    def _check_function(self, module: Module,
                        func: ast.FunctionDef) -> list[Finding]:
        return self._scan_sinks(module, self._base_scope(func), func)

    # -- interprocedural layer ----------------------------------------------
    def finish(self, project: Project) -> Iterable[Finding]:
        graph = callgraph.for_project(project)
        infos = {id(fn.node): _FuncInfo(fn, graph)
                 for fn in graph.functions}
        returning, attr_taint = self._taint_fixpoint(graph, infos)
        secret_calls = self._secret_call_names(graph, returning)
        sink_params = self._sink_param_fixpoint(graph, infos)
        findings: list[Finding] = []
        for info in infos.values():
            findings.extend(self._report_function(
                graph, infos, info, secret_calls, attr_taint,
                sink_params))
        return findings

    #: call names never treated as secret-returning even when the only
    #: project definition of the name qualifies — these shadow stdlib
    #: container/IO methods, so most call sites resolve to builtins the
    #: analysis cannot see (``(bound or {}).get(...)`` is a dict, not
    #: the keystore's ``get``).
    GENERIC_CALL_NAMES = frozenset({
        "get", "pop", "popitem", "setdefault", "copy", "update",
        "items", "values", "keys", "read", "readline", "recv", "next",
    })

    @classmethod
    def _secret_call_names(cls, graph: "callgraph.CallGraph",
                           returning: set[int]) -> frozenset[str]:
        """Call names where *every* project definition returns a secret
        — ambiguous names (``get``, ``derive``) only qualify when all
        their definitions agree, so generic helpers stay quiet."""
        names = set()
        for name, defs in graph.by_name.items():
            if name in cls.GENERIC_CALL_NAMES:
                continue
            if defs and all(id(d.node) in returning for d in defs):
                names.add(name)
        return frozenset(names)

    def _extensions(self, info: _FuncInfo, secret_calls: frozenset,
                    attr_taint: dict) -> tuple[frozenset, dict]:
        """The interprocedural scope extensions relevant to one
        function: secret-returning callees it actually calls, tainted
        attrs of its own class (attr -> strong?)."""
        calls = (secret_calls & info.callees
                 if secret_calls else frozenset())
        attrs = (dict(attr_taint.get(id(info.fn.cls), {}))
                 if info.fn.cls is not None else {})
        return frozenset(calls), attrs

    def _taint_fixpoint(self, graph: "callgraph.CallGraph",
                        infos: dict) -> tuple[set[int], dict]:
        """Which functions return secrets, and which self-attributes
        hold them — iterated together since each feeds the other."""
        returning: set[int] = set()
        attr_taint: dict[int, dict[str, bool]] = {}
        for round_no in range(self.MAX_ROUNDS):
            changed = False
            secret_calls = self._secret_call_names(graph, returning)
            for info in infos.values():
                if not info.returns and not info.attr_assigns:
                    continue
                calls, attrs = self._extensions(info, secret_calls,
                                                attr_taint)
                if round_no > 0 and not calls and not attrs:
                    continue   # nothing new can have changed for it
                scope = self._base_scope(info.fn.node, calls, attrs)
                key = id(info.fn.node)
                if (key not in returning
                        and any(scope._scan(expr) is not None
                                for expr in info.returns)):
                    returning.add(key)
                    changed = True
                if info.fn.cls is not None:
                    stored = attr_taint.setdefault(id(info.fn.cls),
                                                   {})
                    for attr, value in info.attr_assigns:
                        hit = scope._scan_strength(value)
                        if hit is None:
                            continue
                        if stored.get(attr) is None or (hit[1]
                                                        and not
                                                        stored[attr]):
                            stored[attr] = hit[1]
                            changed = True
            if not changed:
                break
        return returning, attr_taint

    def _sink_param_fixpoint(self, graph: "callgraph.CallGraph",
                             infos: dict) -> dict[int, dict[str, str]]:
        """id(func node) -> {parameter name: sink kind} for parameters
        that reach a sink, directly or through further calls."""
        sink_params: dict[int, dict[str, str]] = {}
        for round_no in range(self.MAX_ROUNDS):
            changed = False
            for info in infos.values():
                if not info.params:
                    continue
                transitive = any(
                    sink_params.get(id(d.node))
                    for callee in info.callees
                    for d in graph.resolve(callee))
                if not info.has_sink_heads and not transitive:
                    continue
                known = sink_params.setdefault(id(info.fn.node), {})
                for param in info.params:
                    if param in known:
                        continue
                    kind = self._param_sink_kind(graph, info, param,
                                                 sink_params)
                    if kind is not None:
                        known[param] = kind
                        changed = True
            if not changed:
                break
        return {key: value for key, value in sink_params.items()
                if value}

    def _param_sink_kind(self, graph: "callgraph.CallGraph",
                         info: _FuncInfo, param: str,
                         sink_params: dict) -> str | None:
        func = info.fn.node
        scope = _TaintScope(name_taxonomy=False)
        # The parameter is an aggregate holder, not a proven secret:
        # weak taint, so sinks of its *projections* (``envelope.label``)
        # don't make the whole parameter a sink conduit.
        scope.weak_names.add(param)
        for _ in range(2):
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    hit = scope._scan_strength(node.value)
                    if hit is not None:
                        for target in node.targets:
                            name = _terminal_name(target)
                            if isinstance(target, ast.Name) and name:
                                scope.add_assign(name, hit[1])
        if info.has_sink_heads:
            hits = self._scan_sinks(info.fn.module, scope, func)
            if hits:
                return _finding_kind(hits[0].message)
        for name, call in graph.call_sites(func):
            defs = graph.resolve(name)
            if not defs:
                continue
            if any(not sink_params.get(id(d.node)) for d in defs):
                continue   # every definition must sink, or none count
            callee = defs[0]
            callee_sinks = sink_params[id(callee.node)]
            for pname, arg in graph.map_call_args(call, callee):
                if (pname in callee_sinks
                        and scope._scan(arg) is not None):
                    return callee_sinks[pname]
        return None

    def _report_function(self, graph: "callgraph.CallGraph",
                         infos: dict, info: _FuncInfo,
                         secret_calls: frozenset, attr_taint: dict,
                         sink_params: dict) -> list[Finding]:
        func = info.fn.node
        module = info.fn.module
        calls, attrs = self._extensions(info, secret_calls, attr_taint)
        scope = self._base_scope(func, calls, attrs)
        findings: list[Finding] = []
        # (a) sinks only the extended scope reaches — the intra pass
        # already reported everything the base scope taints, so a line
        # it flagged is skipped here (one finding per sink site).
        if info.has_sink_heads and (calls or attrs):
            base_lines = {f.line for f in self._scan_sinks(
                module, self._base_scope(func), func)}
            for found in self._scan_sinks(module, scope, func):
                if found.line not in base_lines:
                    findings.append(found)
        # (b) a tainted argument flowing into a parameter the callee
        # (transitively) sinks — reported at the call site, where the
        # secret actually escapes this function's control.
        for name, call in graph.call_sites(func):
            defs = graph.resolve(name)
            if not defs:
                continue
            if any(not sink_params.get(id(d.node)) for d in defs):
                continue
            callee = defs[0]
            callee_sinks = sink_params[id(callee.node)]
            for pname, arg in graph.map_call_args(call, callee):
                kind = callee_sinks.get(pname)
                if kind is None:
                    continue
                hit = scope._scan(arg)
                if hit is not None:
                    findings.append(self.finding(
                        module, call.lineno,
                        "secret %r flows into %s() whose parameter %r "
                        "reaches a %s sink — the secret escapes "
                        "through the call graph"
                        % (module.segment(hit) or _terminal_name(hit),
                           name, pname, kind)))
                    break
        return findings

    # -- sinks ---------------------------------------------------------------
    def _check_call(self, module: Module, scope: _TaintScope,
                    call: ast.Call) -> list[Finding]:
        findings: list[Finding] = []
        func = call.func
        name = _call_name(call)
        # logging / print
        is_log = (isinstance(func, ast.Attribute)
                  and func.attr in LOG_METHODS
                  and bool(LOG_RECEIVERS.search(
                      _terminal_name(func.value) or "")))
        if is_log or name == "print":
            for arg in call.args + [kw.value for kw in call.keywords]:
                hit = scope._scan(arg)
                if hit is not None:
                    findings.append(self.finding(
                        module, call.lineno,
                        "secret %r reaches a %s sink — secrets must "
                        "never be logged or printed"
                        % (module.segment(hit) or _terminal_name(hit),
                           "logging" if is_log else "print")))
                    break
        # repr(secret)
        if name == "repr" and call.args:
            hit = scope._scan(call.args[0])
            if hit is not None:
                findings.append(self.finding(
                    module, call.lineno,
                    "repr() of secret %r — the textual form will outlive "
                    "the variable" % (module.segment(hit)
                                      or _terminal_name(hit))))
        # journal append / snapshot write
        if name == "append" and isinstance(func, ast.Attribute):
            receiver = func.value
            receiver_src = module.segment(receiver)
            if JOURNAL_RECEIVERS.search(receiver_src or ""):
                for arg in call.args[1:] or call.args:
                    hit = scope._scan(arg)
                    if hit is not None:
                        findings.append(self.finding(
                            module, call.lineno,
                            "secret %r is written to the journal in "
                            "plaintext — journaled bytes are "
                            "key-material-at-rest"
                            % (module.segment(hit)
                               or _terminal_name(hit))))
                        break
        if name in SNAPSHOT_WRITERS:
            for arg in call.args + [kw.value for kw in call.keywords]:
                hit = scope._scan(arg)
                if hit is not None:
                    findings.append(self.finding(
                        module, call.lineno,
                        "secret %r is written to a snapshot in plaintext"
                        % (module.segment(hit) or _terminal_name(hit))))
                    break
        return findings

    def _check_raise(self, module: Module, scope: _TaintScope,
                     node: ast.Raise) -> list[Finding]:
        exc = node.exc
        if not isinstance(exc, ast.Call):
            return []
        findings: list[Finding] = []
        for arg in exc.args:
            parts = _formatted_parts(arg)
            if parts is None:
                continue
            for part in parts:
                hit = scope._scan(part)
                if hit is not None:
                    findings.append(self.finding(
                        module, node.lineno,
                        "secret %r is interpolated into an exception "
                        "message — dispatch serializes exception text "
                        "onto the wire"
                        % (module.segment(hit) or _terminal_name(hit))))
                    break
        return findings
