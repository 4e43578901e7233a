"""async-discipline: coroutines must not block, and loop-owned state
stays on the loop.

No module under ``src/`` runs an event loop today (the TCP transport is
driven by its calling threads); this pass guards coroutine code a
future change may add.  Code that multiplexes many in-flight frames
over one event loop thread has three mistakes that silently destroy
that concurrency — none of them crash, all of them show up only as
tail latency under load:

* **A blocking call inside ``async def``** (``time.sleep``, raw socket
  I/O, ``os.fsync``, ``subprocess``) parks the *entire* loop, not one
  coroutine.  Every other connection stalls for the duration.
* **``await`` while holding a synchronous lock**: the coroutine
  suspends with the lock held, any *thread* then touching the lock
  blocks until the loop resumes this coroutine — a cross-thread
  convoy, and a deadlock when the resume needs that very thread.
  ``async with`` on an :class:`asyncio.Lock` is the correct idiom and
  is not flagged.
* **Loop-affine state touched off-loop**: the concurrency pass accepts
  the ``# Loop-affine:`` marker as proof of single-threaded access.
  This pass enforces the other half of that bargain — attributes
  mutated inside a marked function are loop-owned, so a *synchronous*,
  unmarked method mutating them executes on some caller thread and
  races the loop.  ``async def`` methods run on the loop and are fine;
  ``__init__`` runs before the loop exists; a marker in the class body
  itself declares the whole class loop-affine (one thread owns the
  instance) and exempts it.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.callgraph import terminal
from repro.analysis.concurrency import (LOOP_MARKER, _MutationWalker,
                                        _is_lock_context)
from repro.analysis.framework import Finding, Module, Rule, register

#: module-level callables that block the calling thread.
BLOCKING_CALLS = {
    "sleep": ("time",),
    "fsync": ("os",),
    "run": ("subprocess",),
    "call": ("subprocess",),
    "check_call": ("subprocess",),
    "check_output": ("subprocess",),
    "Popen": ("subprocess",),
    "socket": ("socket",),
    "create_connection": ("socket",),
}

#: socket methods that block; only flagged on sock-named receivers so
#: that e.g. ``queue.get`` lookalikes stay quiet.
BLOCKING_SOCKET_METHODS = frozenset({
    "recv", "recv_into", "recvfrom", "send", "sendall", "sendto",
    "accept", "connect", "makefile",
})


def _blocking_call(node: ast.Call) -> str | None:
    """A human-readable name when the call blocks the thread."""
    func = node.func
    name = terminal(func)
    if name in BLOCKING_CALLS:
        owners = BLOCKING_CALLS[name]
        if isinstance(func, ast.Attribute):
            receiver = terminal(func.value)
            if receiver in owners:
                return "%s.%s" % (receiver, name)
        elif isinstance(func, ast.Name) and name in ("sleep", "fsync"):
            return name       # `from time import sleep` style
        return None
    if (isinstance(func, ast.Attribute)
            and func.attr in BLOCKING_SOCKET_METHODS):
        receiver = terminal(func.value)
        if receiver and "sock" in receiver.lower():
            return "%s.%s" % (receiver, func.attr)
    return None


class _AsyncBodyWalker:
    """Walk an async function's own body — nested defs excluded, they
    have their own execution context."""

    def __init__(self) -> None:
        self.blocking: list[tuple[str, int]] = []
        self.awaits_under_lock: list[tuple[str, int]] = []

    def walk(self, node: ast.AST, lock: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return
        if isinstance(node, ast.With):
            held = lock
            for item in node.items:
                if _is_lock_context(item):
                    probe = item.context_expr
                    if isinstance(probe, ast.Call):
                        probe = probe.func
                    held = terminal(probe) or "lock"
            for child in node.body:
                self.walk(child, held)
            return
        if isinstance(node, ast.Await) and lock is not None:
            self.awaits_under_lock.append((lock, node.lineno))
        if isinstance(node, ast.Call):
            blocked = _blocking_call(node)
            if blocked is not None:
                self.blocking.append((blocked, node.lineno))
        for child in ast.iter_child_nodes(node):
            self.walk(child, lock)


def _mutated_attrs(func: ast.AST) -> list[tuple[str, int]]:
    """Every ``self.X`` mutation in a function body (nested defs
    excluded), as (attr, line)."""
    walker = _MutationWalker()
    for stmt in getattr(func, "body", []):
        walker.walk(stmt, False)
    return [(attr, line) for attr, line, _locked in walker.mutations]


@register
class AsyncDisciplineRule(Rule):
    id = "async-discipline"
    version = 1
    description = ("async def bodies must not block the event loop, "
                   "must not await holding a sync lock, and loop-affine "
                   "state is only mutated from the loop")

    def check_module(self, module: Module) -> Iterable[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                findings.extend(self._check_async_body(module, node))
            elif isinstance(node, ast.ClassDef):
                findings.extend(self._check_loop_affinity(module, node))
        return findings

    def _check_async_body(self, module: Module,
                          func: ast.AsyncFunctionDef) -> list[Finding]:
        walker = _AsyncBodyWalker()
        for stmt in func.body:
            walker.walk(stmt, None)
        findings = []
        for name, line in walker.blocking:
            findings.append(self.finding(
                module, line,
                "blocking call %s inside async def %s stalls the whole "
                "event loop — use run_in_executor or the async "
                "equivalent" % (name, func.name)))
        for lock, line in walker.awaits_under_lock:
            findings.append(self.finding(
                module, line,
                "await while holding synchronous lock %r in %s — the "
                "lock stays held across the suspension and convoys "
                "every thread that touches it; use an asyncio.Lock with "
                "`async with`" % (lock, func.name)))
        return findings

    def _check_loop_affinity(self, module: Module,
                             cls: ast.ClassDef) -> list[Finding]:
        methods = [node for node in cls.body
                   if isinstance(node, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))]
        if not methods:
            return []
        class_segment = module.segment(cls)
        if not class_segment or not LOOP_MARKER.search(class_segment):
            return []      # no marker anywhere in the class
        # A marker lexically outside every method declares the whole
        # class loop-affine — nothing to cross-check.
        method_text = "".join(module.segment(m) for m in methods)
        markers_in_methods = len(LOOP_MARKER.findall(method_text))
        markers_total = len(LOOP_MARKER.findall(class_segment))
        if markers_total > markers_in_methods:
            return []
        affine: dict[str, str] = {}        # attr -> declaring method
        for method in methods:
            if method.name == "__init__":
                continue   # __init__ builds everything; not a claim
            if not LOOP_MARKER.search(module.segment(method)):
                continue
            for attr, _line in _mutated_attrs(method):
                affine.setdefault(attr, method.name)
        if not affine:
            return []
        findings = []
        for method in methods:
            if isinstance(method, ast.AsyncFunctionDef):
                continue   # coroutines run on the loop
            if method.name == "__init__":
                continue   # runs before the loop exists
            if LOOP_MARKER.search(module.segment(method)):
                continue
            for attr, line in _mutated_attrs(method):
                owner = affine.get(attr)
                if owner is not None:
                    findings.append(self.finding(
                        module, line,
                        "%s.%s is loop-affine (mutated under the "
                        "`# Loop-affine:` marker in %s) but sync method "
                        "%s mutates it from a caller thread — route the "
                        "mutation through run_coroutine_threadsafe or "
                        "call_soon_threadsafe"
                        % (cls.name, attr, owner, method.name)))
        return findings
