"""Spans and counts at the program's layer boundaries, recorded from
outside the program.

:class:`Tracer` wraps public functions of ``repro`` in the namespace
where each is looked up at call time (a class attribute for methods,
the calling module's global for functions imported by name), so no line
of ``src/`` changes.  Spans live in memory — name, start, end, parent,
and the id of the operation they belong to — and are written out when
the run ends.  A span's *self time* is its duration minus the part of
it that its children cover.

Fan-out requests run on pool threads; a request whose thread has no
open span takes the ``fan_out`` span that submitted its message as its
parent, or else the benchmark operation's span.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable


def _ground_counts(_args, result) -> dict:
    return {"datalog.ground_rules": len(result.rules),
            "datalog.ground_atoms": result.atom_count}


def _model_counts(_args, result) -> dict:
    if result is None:  # stratified program with a violated denial
        return {"datalog.models": 0}
    if isinstance(result, list):
        return {"datalog.models": len(result)}
    return {"datalog.models": 1}


def _solution_counts(_args, result) -> dict:
    return {"core.solutions": len(result)}


def _eval_counts(_args, _result) -> dict:
    return {"relational.eval_calls": 1}


#: the boundaries the per-layer metrics are read at: (span name, module
#: the callee is looked up in, attribute, counter, kind).  A counter maps
#: (args, result) to {count name: increment}; "session" diffs the
#: session's cache_info() around the call.
BOUNDARIES = (
    ("datalog.ground", "repro.datalog.engine", "ground_program", _ground_counts, "function"),
    ("datalog.search", "repro.datalog.engine", "stratified_model", _model_counts, "function"),
    ("datalog.search", "repro.datalog.stable", "StableModelSolver.solve", _model_counts, "method"),
    ("datalog.prepare", "repro.datalog.engine", "AnswerSetEngine.__init__", None, "method"),
    ("datalog.order", "repro.datalog.engine", "AnswerSetEngine.answer_sets", None, "method"),
    ("core.translate", "repro.core.asp_gav", "GavSpecification.program", None, "property"),
    ("core.decode", "repro.core.asp_gav", "GavSpecification.solutions", _solution_counts, "method"),
    ("core.pca", "repro.core.methods", "pca_from_solutions", None, "function"),
    ("core.pca", "repro.core.methods", "possible_from_solutions", None, "function"),
    ("core.plan", "repro.core.methods", "AutoMethod.select", None, "method"),
    ("core.rewrite", "repro.core.fo_rewriting", "answers_via_rewriting", None, "function"),
    ("core.session", "repro.core.session", "PeerQuerySession.solutions", "session", "method"),
    ("core.version", "repro.core.system", "PeerSystem.version", None, "method"),
    ("relational.eval", "repro.relational.planner", "QueryPlanner.answers", _eval_counts, "method"),
    ("relational.eval", "repro.relational.planner", "QueryPlanner.holds", _eval_counts, "method"),
    ("net.request", "repro.net.network", "PeerNetwork.request", None, "method"),
    ("net.fan_out", "repro.net.network", "PeerNetwork.fan_out", None, "method"),
    ("net.sync", "repro.net.network", "PeerNetwork.sync", None, "method"),
    ("storage.replace", "repro.storage.base", "FactStore.replace", None, "method"),
)

#: per-layer time metrics: (metric, span names, self time or whole span)
TIME_METRICS = (
    ("datalog.ground_ms", ("datalog.ground",), False),
    ("datalog.search_ms", ("datalog.search",), False),
    ("datalog.prepare_ms", ("datalog.prepare",), True),
    ("datalog.order_ms", ("datalog.order",), True),
    ("core.translate_ms", ("core.translate",), False),
    ("core.decode_ms", ("core.decode",), True),
    ("core.pca_ms", ("core.pca",), False),
    ("core.plan_ms", ("core.plan",), False),
    ("core.rewrite_ms", ("core.rewrite",), False),
    ("core.version_ms", ("core.version",), False),
    ("relational.eval_ms", ("relational.eval",), False),
    ("net.request_ms", ("net.request", "net.fan_out"), True),
    ("net.sync_ms", ("net.sync",), False),
    ("storage.replace_ms", ("storage.replace",), False),
)

COUNT_METRICS = ("datalog.ground_rules", "datalog.ground_atoms",
                 "datalog.models", "core.solutions", "core.session_hits",
                 "core.session_misses", "relational.eval_calls")


class Tracer:
    """In-memory spans and counts for one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, start, end, op)
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = 0
        self.op_span = 0
        self._op_start = 0.0
        #: spans and counts are taken only inside benchmark operations,
        #: never while the benchmark checks their results
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._submitted: dict[int, int] = {}  # id(message) -> fan_out span
        self._lock = threading.Lock()  # guards counts from pool threads
        self._installed: list[tuple] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op_id: int) -> None:
        """Open the root span of one benchmark operation."""
        self.op_id = op_id
        self.op_span = next(self._ids)
        self._op_start = time.perf_counter()
        self._stack().append((self.op_span, "op"))
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self._stack().pop()
        self.spans.append((self.op_span, 0, "op", self._op_start,
                           time.perf_counter(), self.op_id))

    # ------------------------------------------------------------------
    def install(self) -> None:
        for name, module_name, path, counter, kind in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner, attr = module, path
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                if not isinstance(owner, type):
                    # registered answer methods are bound to instances
                    owner = type(owner)
            original = owner.__dict__[attr] if kind != "function" \
                else getattr(owner, attr)
            if kind == "property":
                replacement = property(self._wrap(original.fget, name,
                                                  counter))
            else:
                replacement = self._wrap(original, name, counter)
            setattr(owner, attr, replacement)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, original: Callable, name: str, counter) -> Callable:
        tracer = self
        fan_out = name == "net.fan_out"
        request = name == "net.request"

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            stack = tracer._stack()
            if stack and stack[-1][1] == name:
                # recursion (QueryPlanner.holds): one span per outermost
                # call, so self times are not double counted
                return original(*args, **kwargs)
            # every submitted message is claimed, inline or not, so no
            # stale entry outlives its message (ids are reused)
            submitted = tracer._submitted.pop(id(args[1]), None) \
                if request else None
            if stack:
                parent = stack[-1][0]
            else:
                parent = submitted or tracer.op_span
            span_id = next(tracer._ids)
            if fan_out:
                tracer._submitted.update(
                    {id(message): span_id for message in args[2]})
            before = args[0].cache_info() if counter == "session" else None
            stack.append((span_id, name))
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end,
                                     tracer.op_id))
            if counter == "session":
                after = args[0].cache_info()
                counts = {"core.session_hits": after.hits - before.hits,
                          "core.session_misses": after.misses - before.misses}
            elif counter is not None:
                counts = counter(args, result)
            else:
                return result
            with tracer._lock:  # pool threads count too
                for key, value in counts.items():
                    tracer.counts[key] += value
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        traced.__qualname__ = getattr(original, "__qualname__", name)
        return traced

    # ------------------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Seconds of each span not covered by its children's spans."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _id, parent, _name, start, end, _op in self.spans:
            children[parent].append((start, end))
        result = {}
        for span_id, _parent, _name, start, end, _op in self.spans:
            covered, cursor = 0.0, start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            result[span_id] = (end - start) - covered
        return result

    def layer_ms(self) -> dict[str, float]:
        """Total ms per time metric (whole spans or self times)."""
        own = self.self_times()
        totals = {}
        for metric, names, self_only in TIME_METRICS:
            total = 0.0
            for span_id, _parent, name, start, end, _op in self.spans:
                if name in names:
                    total += own[span_id] if self_only else end - start
            totals[metric] = total * 1000.0
        return totals

    def write(self, path) -> None:
        """Write every span as one JSON line (times in ms from the
        first span)."""
        origin = min((s[3] for s in self.spans), default=0.0)
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, name, start, end, op in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "op": op, "start_ms": (start - origin) * 1000.0,
                    "end_ms": (end - origin) * 1000.0,
                    "self_ms": own[span_id] * 1000.0}) + "\n")
