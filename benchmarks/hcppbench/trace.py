"""Span tracing for hcppbench, applied from outside the program.

Nothing under ``src/`` knows about this module.  :class:`Tracer` wraps
each layer's public entry points — dispatch/durable/router
``handle_frame``, ``Transport.request``/``notify``, the journal writer,
the secure index, envelope sealing, the protocol functions and the
crypto primitives — by rebinding the class attribute (methods) or every
``repro.*`` module global that *is* the original function (so
``from x import f`` call sites are caught too).

Two kinds of wrapper keep the trace both complete and small:

* **spans** (layer boundaries above the crypto primitives) are recorded
  one by one — name, start, end, parent span, attributes — and kept in
  memory until :meth:`Tracer.dump` writes them as JSONL;
* **leaves** (the crypto primitives, called thousands of times per
  upload) are not recorded individually: each call adds its count and
  self time to the innermost enclosing span's ``agg`` table.  Their wall
  time still counts as covered by a child when the enclosing span's
  self time is computed.

A span's self time is its duration minus the part of it covered by its
child spans (union of intervals, so concurrent scatter legs are not
double-subtracted) minus the time of its direct leaf calls.  Parent
links cross into worker threads through a wrapped
``ThreadPoolExecutor.submit``, which is how the federation router's
scatter legs stay children of the router span.

:func:`analyze` turns the client- and server-side spans of one measured
window into the per-layer metrics, the per-party cost table and the
per-opcode server table that ``run.py --trace 1`` prints.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, span name).  Layer = name up to its last dot.
SPAN_TARGETS = [
    ("repro.core.dispatch", "Endpoint.handle_frame",
     "core.dispatch.handle_frame"),
    ("repro.store.durable", "DurableEndpoint.handle_frame",
     "store.durable.handle_frame"),
    ("repro.core.router", "RouterEndpoint.handle_frame",
     "core.router.handle_frame"),
    ("repro.net.transport.base", "Transport.request",
     "net.transport.request"),
    ("repro.net.transport.base", "Transport.notify",
     "net.transport.notify"),
    ("repro.store.journal", "JournalWriter.append", "store.journal.append"),
    ("repro.store.journal", "JournalWriter.sync", "store.journal.sync"),
    ("repro.sse.index", "load_index_cached", "sse.index.load"),
    ("repro.sse.index", "build_secure_index", "sse.index.build"),
    ("repro.sse.index", "SecureIndex.search", "sse.index.search"),
    ("repro.core.protocols.messages", "seal", "core.messages.seal"),
    ("repro.core.protocols.messages", "open_envelope", "core.messages.open"),
    ("repro.core.aserver", "StateAServer.authenticate_emergency",
     "core.aserver.auth"),
    # Party markers: the physician's own computation inside flows that
    # otherwise run on the P-device's behalf.
    ("repro.core.entities", "Physician.sign_passcode_request",
     "core.entities.physician"),
    ("repro.core.entities", "Physician.session_key_with",
     "core.entities.physician"),
    ("repro.core.protocols.storage", "private_phi_storage",
     "core.protocols.storage"),
    ("repro.core.protocols.retrieval", "common_case_retrieval",
     "core.protocols.retrieval"),
    ("repro.core.protocols.emergency", "family_based_retrieval",
     "core.protocols.family"),
    ("repro.core.protocols.emergency", "pdevice_emergency_retrieval",
     "core.protocols.pdevice"),
    ("repro.core.protocols.mhi", "mhi_store", "core.protocols.mhi_store"),
    ("repro.core.protocols.mhi", "mhi_retrieve",
     "core.protocols.mhi_retrieve"),
    ("repro.core.protocols.privilege", "assign_privilege",
     "core.protocols.assign"),
    ("repro.core.protocols.privilege", "revoke_privilege",
     "core.protocols.revoke"),
]

# (module, attribute, counter name).  Layer = counter up to its last dot.
LEAF_TARGETS = [
    ("repro.crypto.pairing", "prepared", "crypto.pairing.prepared"),
    ("repro.crypto.pairing", "PreparedPairing.__init__",
     "crypto.pairing.prepare"),
    ("repro.crypto.pairing", "PreparedPairing.pair", "crypto.pairing.pair"),
    ("repro.crypto.pairing", "tate_pairing", "crypto.pairing.tate"),
    ("repro.crypto.pairing", "pairing_product", "crypto.pairing.product"),
    ("repro.crypto.ec", "Point.__mul__", "crypto.ec.mul"),
    ("repro.crypto.ec", "Point.from_bytes", "crypto.ec.decode"),
    ("repro.crypto.precompute", "PrecomputedPoint.multiply",
     "crypto.ec.fixed_base"),
    ("repro.crypto.hmac_impl", "hmac_sha256", "crypto.hmac.hmac"),
    ("repro.crypto.prf", "Prf.__call__", "crypto.hmac.prf"),
    ("repro.crypto.prp", "FeistelPrp.encrypt", "crypto.hmac.prp"),
    ("repro.crypto.prp", "FeistelPrp.decrypt", "crypto.hmac.prp"),
    ("repro.crypto.aes", "AES.__init__", "crypto.aes.key_schedule"),
    ("repro.crypto.aes", "AES.encrypt_block", "crypto.aes.block"),
    ("repro.crypto.aes", "AES.decrypt_block", "crypto.aes.block"),
]

# Work units a leaf call stands for, when one call is not one unit.
_LEAF_UNITS = {"crypto.pairing.product": lambda args: len(args[0])}

_HANDLE_FRAME_SPANS = ("core.dispatch.handle_frame",
                       "store.durable.handle_frame",
                       "core.router.handle_frame")


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


class Span:
    """One recorded span; ``agg`` holds the aggregated leaf calls."""

    __slots__ = ("id", "parent", "name", "t0", "t1", "attrs", "agg",
                 "leaf_cover")

    def __init__(self, span_id: int, parent: "int | None", name: str,
                 attrs: dict) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.attrs = attrs
        self.agg: dict = {}
        self.leaf_cover = 0.0
        self.t0 = self.t1 = 0.0

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "t0": self.t0, "t1": self.t1, "attrs": self.attrs,
                "agg": self.agg, "leaf_cover": self.leaf_cover}


def _party_attrs(endpoint) -> dict:
    """Which party a served frame belongs to, from the endpoint class."""
    names = {cls.__name__ for cls in type(endpoint).__mro__}
    if "DurableAServerEndpoint" in names or "AServerEndpoint" in names:
        return {"party": "aserver"}
    if "EntityEndpoint" in names:
        entity = type(endpoint.entity).__name__
        return {"party": "pdevice" if entity == "PDevice" else "family"}
    return {"party": "sserver"}


def _opcode(frame: bytes) -> str:
    from repro.core import wire
    try:
        return wire.parse_frame(frame)[0].decode(errors="replace")
    except Exception:
        return "?"


def _span_attrs(name: str, args: tuple, result) -> dict:
    """Attributes recorded after the call returns (outside the timing)."""
    if name in _HANDLE_FRAME_SPANS:
        attrs = _party_attrs(args[0])
        attrs["op"] = _opcode(args[1])
        attrs["status"] = result[:1].hex() if result else ""
        return attrs
    if name in ("net.transport.request", "net.transport.notify"):
        return {"dst": args[2], "bytes": len(args[3]),
                "reply_bytes": len(result) if result else 0}
    if name == "store.journal.append":
        return {"kind": args[1].decode(errors="replace"),
                "bytes": len(args[2])}
    return {}


class Tracer:
    """In-memory span recorder installed over the ``repro`` modules."""

    def __init__(self, side: str) -> None:
        self.side = side
        self.enabled = False
        self.spans: "list[Span]" = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list = []
        self._epoch = time.perf_counter()

    # -- thread-local stack ---------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _innermost_span(self, stack: list) -> "Span | None":
        if stack:
            top = stack[-1]
            return top if isinstance(top, Span) else top[2]
        return getattr(self._local, "inherited", None)

    # -- recording ------------------------------------------------------------
    def _enter(self, name: str, attrs: dict) -> Span:
        stack = self._stack()
        parent = self._innermost_span(stack)
        span = Span(next(self._ids), parent.id if parent else None, name,
                    attrs)
        stack.append(span)
        span.t0 = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def op(self, kind: str, op_id: int, party: str):
        """The client-side root span of one measured op."""
        if not self.enabled:
            yield
            return
        span = self._enter("bench.op", {"kind": kind, "op_id": op_id,
                                        "party": party})
        try:
            yield
        finally:
            self._exit(span)

    def _span_wrapper(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer._enter(name, {})
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._exit(span)
                span.attrs.update(_span_attrs(name, args, result))
        return traced

    def _leaf_wrapper(self, fn, counter: str):
        tracer = self
        units_of = _LEAF_UNITS.get(counter)

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            owner = tracer._innermost_span(stack)
            frame = [counter, 0.0, owner]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if isinstance(parent, list):
                    parent[1] += elapsed
                elif parent is not None:
                    parent.leaf_cover += elapsed
                if owner is not None:
                    entry = owner.agg.get(counter)
                    if entry is None:
                        entry = owner.agg[counter] = [0, 0.0, 0]
                    entry[0] += 1
                    entry[1] += elapsed - frame[1]
                    entry[2] += units_of(args) if units_of else 1
        return traced

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        for module_name, attribute, name in SPAN_TARGETS:
            self._wrap(module_name, attribute, name, self._span_wrapper)
        for module_name, attribute, counter in LEAF_TARGETS:
            self._wrap(module_name, attribute, counter, self._leaf_wrapper)
        self._wrap_submit()

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()

    def _wrap(self, module_name: str, attribute: str, name: str,
              make) -> None:
        module = importlib.import_module(module_name)
        if "." in attribute:
            cls_name, method = attribute.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(raw.__func__, name))
            else:
                wrapped = make(raw, name)
            # Rebind every alias in the class body (``__rmul__ = __mul__``).
            for alias, value in list(cls.__dict__.items()):
                if value is raw:
                    self._undo.append((cls, alias, raw))
                    setattr(cls, alias, wrapped)
            return
        original = getattr(module, attribute)
        wrapped = make(original, name)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for alias, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, alias, original))
                    setattr(mod, alias, wrapped)

    def _wrap_submit(self) -> None:
        """Carry the submitting thread's span into executor workers."""
        tracer = self
        cls = concurrent.futures.ThreadPoolExecutor
        original = cls.submit

        def submit(executor, fn, /, *args, **kwargs):
            parent = (tracer._innermost_span(tracer._stack())
                      if tracer.enabled else None)
            if parent is None:
                return original(executor, fn, *args, **kwargs)

            def linked(*a, **k):
                tracer._local.inherited = parent
                try:
                    return fn(*a, **k)
                finally:
                    tracer._local.inherited = None
            return original(executor, linked, *args, **kwargs)

        self._undo.append((cls, "submit", original))
        cls.submit = submit

    # -- output ---------------------------------------------------------------
    def take(self) -> "list[dict]":
        """Hand over (and forget) the spans recorded so far, as dicts."""
        spans, self.spans = self.spans, []
        return [span.to_dict() for span in spans]

    def dump(self, path: str, spans: "list[dict]") -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in spans:
                span = dict(span, side=self.side,
                            t0=span["t0"] - self._epoch,
                            t1=span["t1"] - self._epoch)
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def load_jsonl(path: str) -> "list[dict]":
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# -- analysis -----------------------------------------------------------------
def _covered(intervals: "list[tuple[float, float]]") -> float:
    total, end = 0.0, None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def self_times(spans: "list[dict]") -> "dict[int, float]":
    """Span id → duration minus child-span coverage minus leaf calls."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    result = {}
    for span in spans:
        t0, t1 = span["t0"], span["t1"]
        kids = [(max(t0, c["t0"]), min(t1, c["t1"]))
                for c in children.get(span["id"], ())]
        kids = [(a, b) for a, b in kids if b > a]
        result[span["id"]] = max(
            0.0, t1 - t0 - _covered(kids) - span["leaf_cover"])
    return result


def parties(spans: "list[dict]") -> "dict[int, str]":
    """Span id → the party it worked for (nearest ancestor marker)."""
    by_id = {span["id"]: span for span in spans}
    memo: "dict[int, str]" = {}

    def party_of(span: dict) -> str:
        found = memo.get(span["id"])
        if found is not None:
            return found
        if span["name"] == "core.entities.physician":
            found = "physician"
        elif "party" in span["attrs"]:
            found = span["attrs"]["party"]
        elif span["parent"] in by_id:
            found = party_of(by_id[span["parent"]])
        else:
            found = "other"
        memo[span["id"]] = found
        return found

    return {span["id"]: party_of(span) for span in spans}


class SideSummary:
    """Per-layer totals of one process's spans."""

    def __init__(self, spans: "list[dict]") -> None:
        self.spans = spans
        selfs = self_times(spans)
        owners = parties(spans)
        self.layer_self = defaultdict(float)     # layer -> seconds
        self.counter_calls = defaultdict(int)    # leaf counter -> calls
        self.counter_units = defaultdict(int)    # leaf counter -> units
        self.party_self = defaultdict(float)     # party -> seconds
        self.span_count = defaultdict(int)
        self.span_total = defaultdict(float)
        for span in spans:
            name, sid = span["name"], span["id"]
            layer = layer_of(name)
            self.layer_self[layer] += selfs[sid]
            self.span_count[name] += 1
            self.span_total[name] += span["t1"] - span["t0"]
            work = 0.0 if layer == "net.transport" else selfs[sid]
            for counter, (calls, self_s, units) in span["agg"].items():
                self.layer_self[layer_of(counter)] += self_s
                self.counter_calls[counter] += calls
                self.counter_units[counter] += units
                work += self_s
            self.party_self[owners[sid]] += work
        self.selfs = selfs

    def roots(self) -> "list[dict]":
        ids = {span["id"] for span in self.spans}
        return [span for span in self.spans
                if span["name"] in _HANDLE_FRAME_SPANS
                and span["parent"] not in ids]


def analyze(client: "list[dict]", server: "list[dict]", ops: int,
            window_s: float, frames: int, wire_bytes: int, user_bytes: int,
            proc: dict, generator: dict, overhead_pct: float):
    """Per-layer metrics ``{name: (value, unit, base)}`` plus report lines.

    ``frames``/``wire_bytes`` come from the client transport's frame log
    over the window, ``user_bytes`` is the request payload the load
    process sent to the S-server, ``proc`` the processes' CPU use.
    """
    cs, ss = SideSummary(client), SideSummary(server)
    per_op = 1.0 / max(ops, 1)
    ms_op = 1e3 * per_op
    base_ops = "%d ops" % ops
    metrics: dict = {}

    def put(name, value, unit, base=base_ops):
        metrics[name] = (float(value), unit, base)

    def both_calls(*counters):
        return sum(cs.counter_units[c] + ss.counter_units[c]
                   for c in counters)

    def both_self(layer):
        return cs.layer_self[layer] + ss.layer_self[layer]

    put("crypto.pairing.pairings_per_op",
        both_calls("crypto.pairing.pair", "crypto.pairing.tate",
                   "crypto.pairing.product") * per_op, "count")
    put("crypto.pairing.prepares_per_op",
        both_calls("crypto.pairing.prepare") * per_op, "count")
    put("crypto.pairing.self_ms_per_op",
        both_self("crypto.pairing") * ms_op, "ms")
    put("crypto.ec.scalar_mults_per_op",
        both_calls("crypto.ec.mul", "crypto.ec.fixed_base") * per_op,
        "count")
    put("crypto.ec.self_ms_per_op", both_self("crypto.ec") * ms_op, "ms")
    put("crypto.hmac.calls_per_op",
        both_calls("crypto.hmac.hmac") * per_op, "count")
    put("crypto.hmac.self_ms_per_op", both_self("crypto.hmac") * ms_op,
        "ms")
    put("crypto.aes.blocks_per_op",
        both_calls("crypto.aes.block") * per_op, "count")
    put("crypto.aes.self_ms_per_op", both_self("crypto.aes") * ms_op, "ms")
    index_ms = sum(cs.span_total[n] + ss.span_total[n]
                   for n in ("sse.index.build", "sse.index.search",
                             "sse.index.load"))
    put("sse.index.ms_per_op", index_ms * ms_op, "ms")
    put("core.messages.seal_open_ms_per_op",
        sum(cs.span_total[n] + ss.span_total[n]
            for n in ("core.messages.seal", "core.messages.open")) * ms_op,
        "ms")
    put("core.wire.frames_per_op", frames * per_op, "count")
    put("core.wire.bytes_per_op", wire_bytes * per_op, "B")

    requests = sum(s.span_total[n] for s in (cs, ss)
                   for n in ("net.transport.request", "net.transport.notify"))
    n_requests = sum(s.span_count[n] for s in (cs, ss)
                     for n in ("net.transport.request",
                               "net.transport.notify"))
    roots = cs.roots() + ss.roots()
    handled = sum(r["t1"] - r["t0"] for r in roots)
    base_frames = "%d frames" % max(n_requests, 1)
    put("net.transport.carry_ms_per_frame",
        1e3 * (requests - handled) / max(n_requests, 1), "ms", base_frames)

    server_roots = ss.roots()
    base_served = "%d frames" % len(server_roots)
    put("core.dispatch.handle_ms_per_frame",
        1e3 * sum(r["t1"] - r["t0"] for r in server_roots)
        / max(len(server_roots), 1), "ms", base_served)
    durable = [s for s in server if s["name"] == "store.durable.handle_frame"]
    by_parent = defaultdict(list)
    for span in server:
        by_parent[span["parent"]].append(span)
    lock_wait = 0.0
    for span in durable:
        inner = sum(c["t1"] - c["t0"] for c in by_parent[span["id"]]
                    if c["name"] in ("core.dispatch.handle_frame",
                                     "store.journal.append"))
        lock_wait += max(0.0, span["t1"] - span["t0"] - inner)
    put("core.dispatch.lock_wait_ms_per_frame",
        1e3 * lock_wait / max(len(durable), 1), "ms",
        "%d durable frames" % len(durable))
    routed = [s for s in server if s["name"] == "core.router.handle_frame"]
    put("core.router.self_ms_per_frame",
        1e3 * sum(ss.selfs[s["id"]] for s in routed) / max(len(routed), 1),
        "ms", "%d routed frames" % len(routed))

    appends = [s for s in server if s["name"] == "store.journal.append"]
    put("store.journal.appends_per_op", len(appends) * per_op, "count")
    put("store.journal.fsyncs_per_op",
        ss.span_count["store.journal.sync"] * per_op, "count")
    put("store.journal.append_ms_per_op",
        ss.span_total["store.journal.append"] * ms_op, "ms")
    journal_bytes = sum(s["attrs"].get("bytes", 0) for s in appends)
    put("store.journal.bytes_per_user_byte",
        journal_bytes / max(user_bytes, 1), "ratio",
        "%d user bytes" % user_bytes)

    party_ms = defaultdict(float)
    for side in (cs, ss):
        for party, seconds in side.party_self.items():
            party_ms[party] += seconds * ms_op
    put("party.patient_ms_per_op", party_ms["patient"], "ms")
    put("party.sserver_ms_per_op", party_ms["sserver"], "ms")
    put("proc.server_cpu_ratio", proc["server_cpu_s"] / window_s, "ratio",
        "%.1f s window" % window_s)
    put("proc.loadgen_cpu_ratio", proc["loadgen_cpu_s"] / window_s, "ratio",
        "%.1f s window" % window_s)
    put("bench.generator.late_ms_p99", generator["late_ms_p99"], "ms")
    put("bench.generator.backlog_max", generator["backlog_max"], "count")
    put("trace.overhead_pct", overhead_pct, "%",
        "op_ms_mean traced vs untraced, same seed")

    lines = _detail_lines(cs, ss, ops, party_ms, server_roots, routed,
                          appends, by_parent)
    return metrics, lines


def _detail_lines(cs, ss, ops, party_ms, server_roots, routed, appends,
                  by_parent) -> "list[str]":
    """The human-readable breakdown printed above the result line."""
    per_op = 1.0 / max(ops, 1)
    lines = ["per-layer self time, ms per op (base %d ops):" % ops,
             "  %-22s %10s %10s" % ("layer", "client", "server")]
    layers = sorted(set(cs.layer_self) | set(ss.layer_self),
                    key=lambda l: -(cs.layer_self[l] + ss.layer_self[l]))
    for layer in layers:
        lines.append("  %-22s %10.3f %10.3f"
                     % (layer, 1e3 * cs.layer_self[layer] * per_op,
                        1e3 * ss.layer_self[layer] * per_op))
    lines.append("per-party cost, ms per op (RSPP-style; excludes "
                 "time spent waiting on the wire):")
    for party in ("patient", "family", "physician", "pdevice", "sserver",
                  "aserver", "other"):
        lines.append("  %-10s %10.3f" % (party, party_ms.get(party, 0.0)))
    lines.append("server frames by opcode (root handle_frame):")
    by_op = defaultdict(list)
    for root in server_roots:
        by_op[root["attrs"].get("op", "?")].append(root["t1"] - root["t0"])
    for opcode, durations in sorted(by_op.items()):
        lines.append("  core.dispatch.handle_ms.%-18s %8.3f ms (base %d "
                     "frames)" % (opcode, 1e3 * sum(durations)
                                  / len(durations), len(durations)))
    multi = [s for s in routed
             if s["attrs"].get("op") == "phi-search-multi"]
    if multi:
        legs = sum(len([c for c in by_parent[s["id"]]
                        if c["name"] in _HANDLE_FRAME_SPANS])
                   for s in multi)
        lines.append("  core.router.legs_per_multi %.2f (base %d multi "
                     "frames)" % (legs / len(multi), len(multi)))
    partial = sum(1 for s in routed if s["attrs"].get("status") == "02")
    lines.append("  core.router.partial_replies %d (base %d routed frames)"
                 % (partial, len(routed)))
    guards = sum(1 for s in appends if s["attrs"].get("kind") == "G")
    searches = sum(1 for s in server_roots
                   if s["attrs"].get("op") in ("phi-search",
                                               "phi-search-multi",
                                               "search-wrapped"))
    lines.append("  store.journal.guard_appends_per_search %.2f (base %d "
                 "searches)" % (guards / max(searches, 1), searches))
    lookups = cs.span_count["sse.index.load"] + ss.span_count["sse.index.load"]
    lines.append("  sse.index.cache_lookups %d (hit ratio needs "
                 "index_cache_stats deltas; n/a when 0)" % lookups)
    for name in ("sse.index.build", "sse.index.search", "sse.index.load",
                 "core.aserver.auth"):
        count = cs.span_count[name] + ss.span_count[name]
        total = cs.span_total[name] + ss.span_total[name]
        lines.append("  %-28s %8.3f ms per op, %d calls"
                     % (name, 1e3 * total * per_op, count))
    prepared = cs.counter_calls["crypto.pairing.prepared"] \
        + ss.counter_calls["crypto.pairing.prepared"]
    prepares = cs.counter_calls["crypto.pairing.prepare"] \
        + ss.counter_calls["crypto.pairing.prepare"]
    lines.append("  crypto.pairing.prepares_per_prepared_call %.3f (base "
                 "%d prepared() calls)" % (prepares / max(prepared, 1),
                                           prepared))
    return lines
