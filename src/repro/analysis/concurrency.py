"""concurrency: shared attributes mutate under their lock, or never race.

The threaded surfaces — ``StorageServer`` (PR 1's parallel search pool),
``ReplayGuard`` (consulted from dispatch on arbitrary transport
threads), and the durable store (journal writes racing snapshots) —
follow one convention: instance state that a lock protects is *only*
mutated inside ``with self._lock``.  A single unlocked mutation of a
locked attribute is a torn-write / lost-update bug waiting for the
fault-injected schedules PR 3 produces.

The check is per class: collect every mutation of ``self.<attr>``
(assignment, augmented assignment, subscript store, or a mutating
method call like ``.append``/``.pop``/``.update``) and whether it
happened lexically inside a ``with self.<...lock...>`` block.  An
attribute mutated both inside *and* outside lock blocks is flagged at
each unlocked site.  Attributes only ever touched unlocked are fine
(single-threaded state); ``__init__`` is exempt (no aliasing yet).

Private helpers that are *always called with the lock held* declare it
with a comment — ``# Caller holds self._lock.`` — the same marker
``ReplayGuard._prune`` already carries.  The pass treats the whole
function body as locked when the marker appears.

The async transport (PR 7) adds two idioms the pass understands:

* ``async with self._lock`` (an :class:`asyncio.Lock`) is a lock
  context exactly like its synchronous twin — before PR 7 the walker
  only special-cased ``ast.With``, so async code could neither take
  credit for its locks nor be caught mutating outside them;
* state owned by an event loop is serialized *by the loop*, not by a
  lock: a function whose body carries a ``# Loop-affine: ...`` marker
  (all mutations happen on the loop thread, cross-thread access goes
  through ``run_coroutine_threadsafe``) is treated as locked, the same
  way the caller-holds marker works.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.analysis.framework import Finding, Module, Rule, register

MUTATOR_METHODS = frozenset({
    "append", "add", "insert", "update", "pop", "remove", "clear",
    "extend", "setdefault", "popitem", "discard", "appendleft",
})

#: Lifecycle transitions on pooled resources (multiprocessing.Pool,
#: executors, transports).  ``self._pool.terminate()`` racing a
#: ``with self._lock: self._pool = ctx.Pool(...)`` is the same
#: lost-update shape as an unlocked ``.append`` — a worker can submit
#: to a pool another thread is tearing down.  The federation router
#: guards its scatter pool with a lock; this teaches the pass that
#: calling a lifecycle method *is* a mutation of the attribute holding
#: the pool.
LIFECYCLE_METHODS = frozenset({
    "close", "terminate", "join", "shutdown", "start", "cancel",
})

LOCK_NAME = re.compile(r"lock", re.IGNORECASE)
HELD_MARKER = re.compile(r"caller\s+holds\s+(self\.)?_?\w*lock",
                         re.IGNORECASE)
#: Event-loop affinity: the function's mutations all happen on the
#: owning event loop's thread, so the loop itself is the serializer.
LOOP_MARKER = re.compile(r"loop.affine", re.IGNORECASE)


def _self_attr(node: ast.AST) -> str | None:
    """``self.X`` → ``"X"`` (one level only — deeper chains are the
    contained object's problem, not this class's)."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _is_lock_context(item: ast.withitem) -> bool:
    expr = item.context_expr
    if isinstance(expr, ast.Call):       # e.g. self._lock.acquire_timeout()
        expr = expr.func
    probe = expr
    while isinstance(probe, ast.Attribute):
        if LOCK_NAME.search(probe.attr):
            return True
        probe = probe.value
    return isinstance(probe, ast.Name) and bool(LOCK_NAME.search(probe.id))


class _MutationWalker:
    """Record (attr, line, locked?) for every self-attribute mutation."""

    def __init__(self) -> None:
        self.mutations: list[tuple[str, int, bool]] = []

    def walk(self, node: ast.AST, locked: bool) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = locked or any(_is_lock_context(item)
                                  for item in node.items)
            for child in node.body:
                self.walk(child, inner)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return  # nested defs have their own locking story
        self._record(node, locked)
        for child in ast.iter_child_nodes(node):
            self.walk(child, locked)

    def _record(self, node: ast.AST, locked: bool) -> None:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._record_target(target, node.lineno, locked)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            self._record_target(node.target, node.lineno, locked)
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and (func.attr in MUTATOR_METHODS
                         or func.attr in LIFECYCLE_METHODS)):
                attr = _self_attr(func.value)
                if attr is not None:
                    self.mutations.append((attr, node.lineno, locked))

    def _record_target(self, target: ast.AST, line: int,
                       locked: bool) -> None:
        attr = _self_attr(target)
        if attr is not None:
            self.mutations.append((attr, line, locked))
            return
        if isinstance(target, ast.Subscript):
            attr = _self_attr(target.value)
            if attr is not None:
                self.mutations.append((attr, line, locked))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element, line, locked)


@register
class ConcurrencyRule(Rule):
    id = "concurrency"
    description = ("instance attributes mutated under `with self._lock` "
                   "must never also mutate outside it")

    def check_module(self, module: Module) -> Iterable[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(module, node))
        return findings

    def _check_class(self, module: Module,
                     cls: ast.ClassDef) -> list[Finding]:
        locked_attrs: set[str] = set()
        unlocked: dict[str, list[tuple[int, str]]] = {}
        for func in cls.body:
            if not isinstance(func, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            if func.name == "__init__":
                continue
            segment = module.segment(func)
            held = bool(HELD_MARKER.search(segment)
                        or LOOP_MARKER.search(segment))
            walker = _MutationWalker()
            for stmt in func.body:
                walker.walk(stmt, held)
            for attr, line, locked in walker.mutations:
                if LOCK_NAME.search(attr):
                    continue  # swapping the lock itself is out of scope
                if locked:
                    locked_attrs.add(attr)
                else:
                    unlocked.setdefault(attr, []).append((line, func.name))
        findings = []
        for attr in sorted(locked_attrs & set(unlocked)):
            for line, func_name in unlocked[attr]:
                findings.append(self.finding(
                    module, line,
                    "%s.%s is mutated under `with ...lock` elsewhere but "
                    "%s mutates it without the lock — either take the "
                    "lock or mark the helper `# Caller holds "
                    "self._lock.`" % (cls.name, attr, func_name)))
        return findings
