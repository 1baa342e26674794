"""Per-layer spans for the traced run, recorded from outside the library.

The tracer rebinds the public functions named in ``WRAPPED`` under every
name an ``iufst`` module holds them by (``iufst.decide.nfa_to_dfa``,
``iufst.oracle.run``, ``iufst.cli.in_copy``, ...), so calls between
library modules are seen too.  Each call records a span (name, start,
end, parent) in memory; spans are written out at the end, and a span's
self time is its duration minus the durations of its child spans.  The
``delta`` argument handed to ``build_transducer`` is wrapped as well.

A wrapped name that the library no longer defines is skipped and its
metrics read zero ("not called"), so the benchmark outlives renames.
Wrappers exist only between ``install`` and ``uninstall``; the timed run
never installs them and checks that none is left.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

# (span name, module, public function)
WRAPPED = (
    ("core.run", "core", "run"),
    ("core.find_accepting_trace", "core", "find_accepting_trace"),
    ("core.build_transducer", "core", "build_transducer"),
    ("convert.to_nfa", "convert", "to_nfa"),
    ("convert.sweep_reduce", "convert", "sweep_reduce"),
    ("convert.nfa_to_dfa", "convert", "nfa_to_dfa"),
    ("convert.dfa_product", "convert", "dfa_product"),
    ("convert.dfa_minimize", "convert", "dfa_minimize"),
    ("decide.equivalence_witness", "decide", "equivalence_witness"),
    ("decide.inclusion_witness", "decide", "inclusion_witness"),
    ("decide.universality_witness", "decide", "universality_witness"),
    ("decide.emptiness_witness", "decide", "emptiness_witness"),
    ("decide.infiniteness_witness", "decide", "infiniteness_witness"),
    ("oracle.compare_languages", "oracle", "compare_languages"),
    ("oracle.compare_on_words", "oracle", "compare_on_words"),
    ("witness.gen_d", "witness", "gen_d"),
    ("witness.predicates", "witness", "in_block"),
    ("witness.predicates", "witness", "in_copy"),
    ("witness.predicates", "witness", "in_d"),
    ("witness.predicates", "witness", "in_e"),
    ("witness.predicates", "witness", "in_uexpo"),
    ("witness.predicates", "witness", "in_unary"),
    ("hierarchy.combine_add", "hierarchy", "combine_add"),
    ("hierarchy.combine_mul", "hierarchy", "combine_mul"),
    ("hierarchy.build_lf", "hierarchy", "build_lf"),
    ("lba.compile_lba", "lba", "compile_lba"),
    ("textio.serialize_machine", "textio", "serialize_machine"),
    ("textio.parse_machine", "textio", "parse_machine"),
)
DELTA = "core.build_transducer.delta"
OP = "op"  # root span of one benchmark operation

# name -> unit; the order is the report order
LAYER_METRICS = {
    "core.run.calls": "count",
    "core.run.time_s": "s",
    "core.run.tapes_explored": "count",
    "core.run.cells": "count",
    "core.run.cells_per_s": "cells/s",
    "core.run.us_per_call": "us",
    "core.find_accepting_trace.time_s": "s",
    "core.build_transducer.calls": "count",
    "core.build_transducer.time_s": "s",
    "core.build_transducer.self_s": "s",
    "core.build_transducer.delta_calls": "count",
    "core.build_transducer.delta_s": "s",
    "core.build_transducer.states": "count",
    "core.build_transducer.transitions": "count",
    "convert.nfa_to_dfa.time_s": "s",
    "convert.nfa_to_dfa.subsets": "count",
    "convert.nfa_to_dfa.subsets_per_s": "1/s",
    "convert.dfa_product.time_s": "s",
    "convert.dfa_product.states": "count",
    "convert.dfa_minimize.time_s": "s",
    "convert.dfa_minimize.states_out": "count",
    "convert.sweep_reduce.time_s": "s",
    "convert.sweep_reduce.states": "count",
    "convert.sweep_reduce.universe_states": "count",
    "convert.to_nfa.time_s": "s",
    "convert.to_nfa.states": "count",
    "decide.equivalence_witness.time_s": "s",
    "decide.inclusion_witness.time_s": "s",
    "decide.universality_witness.time_s": "s",
    "decide.emptiness_witness.time_s": "s",
    "decide.infiniteness_witness.time_s": "s",
    "decide.unknown": "count",
    "oracle.compare_languages.time_s": "s",
    "oracle.compare_on_words.time_s": "s",
    "oracle.words": "count",
    "oracle.words_per_s": "1/s",
    "witness.predicates.time_s": "s",
    "witness.gen_d.time_s": "s",
    "hierarchy.combine_add.time_s": "s",
    "hierarchy.combine_mul.time_s": "s",
    "hierarchy.build_lf.time_s": "s",
    "lba.compile_lba.time_s": "s",
    "textio.serialize_machine.time_s": "s",
    "textio.parse_machine.time_s": "s",
    "textio.parse_machine.mb_per_s": "MB/s",
    "trace.overhead_ratio": "ratio",
}

# Counters that depend only on the inputs, so two traced runs with one
# seed must agree on them exactly.
DETERMINISTIC = (
    "core.run.tapes_explored",
    "core.run.cells",
    "convert.nfa_to_dfa.subsets",
    "core.build_transducer.states",
    "core.build_transducer.delta_calls",
    "oracle.words",
)


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _replace_arg(args, kwargs, i, name, value):
    if len(args) > i:
        return args[:i] + (value,) + args[i + 1:], kwargs
    return args, dict(kwargs, **{name: value})


class Tracer:
    """Spans and work counters for one traced pass over a round of ops."""

    def __init__(self, lib):
        self.lib = lib
        self.names: list[str] = []
        self.name_ix: dict[str, int] = {}
        # one entry per span, in opening order
        self.span_name = array("i")
        self.parent = array("i")
        self.outer = array("b")  # 0 when nested in a span of the same name
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.depth: list[int] = []
        self.counts: Counter = Counter()
        self.on = False
        self.installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.predicate_calls = 0
        self.marks: list[int] = []
        self.ops = 0  # ops run under the tracer
        self.mismatches: list[tuple[int, str]] = []  # (op index, work the library skipped)

    # -- recording ---------------------------------------------------------

    def _intern(self, name):
        if name not in self.name_ix:
            self.name_ix[name] = len(self.names)
            self.names.append(name)
            self.depth.append(0)
        return self.name_ix[name]

    def _open(self, ix):
        s = len(self.start)
        self.span_name.append(ix)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.outer.append(self.depth[ix] == 0)
        self.depth[ix] += 1
        self.stack.append(s)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return s

    def _close(self, s, ix):
        self.end[s] = time.perf_counter()
        self.stack.pop()
        self.depth[ix] -= 1

    def span(self, name, fn, prepare=None, count=None):
        """``fn`` wrapped to record a span while tracing is on.

        ``prepare(args, kwargs)`` may substitute arguments before the call;
        ``count(args, kwargs, result, exc)`` adds work counters after it.
        """
        ix = self._intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            s = self._open(ix)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(s, ix)
                if count is not None:
                    count(args, kwargs, None, exc)
                raise
            self._close(s, ix)
            if count is not None:
                count(args, kwargs, result, None)
            return result

        wrapper._perfbench_span = name
        return wrapper

    def op(self, call):
        """Run one benchmark op under a root span; its id ties the op's spans together."""
        ix = self._intern(OP)
        self.ops += 1
        s = self._open(ix)
        try:
            return call()
        finally:
            self._close(s, ix)

    # -- work counters -----------------------------------------------------

    def _hooks(self, span_name, fn):
        c = self.counts
        budget = self.lib.budget_errors

        def run(args, kwargs, report, exc):
            if report is not None:
                tape = len(_arg(args, kwargs, 1, "word")) + 1
                c["core.run.tapes_explored"] += report.tapes_explored
                c["core.run.cells"] += report.tapes_explored * tape

        def build_prepare(args, kwargs):
            delta = _arg(args, kwargs, 1, "delta")
            traced = self.span(DELTA, lambda state, x: tuple(delta(state, x)))
            return _replace_arg(args, kwargs, 1, "delta", traced)

        def build(args, kwargs, t, exc):
            if t is not None:
                c["core.build_transducer.states"] += len(t.states)
                c["core.build_transducer.transitions"] += sum(map(len, t.transitions.values()))

        cap_default = None
        if span_name == "convert.nfa_to_dfa":
            param = inspect.signature(fn).parameters.get("state_cap")
            cap_default = param.default if param is not None else 0

        def nfa_to_dfa(args, kwargs, d, exc):
            if d is not None:
                c["convert.nfa_to_dfa.subsets"] += len(d.states)
            elif isinstance(exc, budget):
                # the budget check fires with exactly state_cap subsets discovered
                c["convert.nfa_to_dfa.subsets"] += _arg(args, kwargs, 1, "state_cap", cap_default)

        def states(key):
            def count(args, kwargs, m, exc):
                if m is not None:
                    c[key] += len(m.states)
            return count

        def sweep_reduce(args, kwargs, t, exc):
            if t is not None:
                c["convert.sweep_reduce.states"] += len(t.states)
                c["convert.sweep_reduce.universe_states"] += t.meta.get("universe_states", 0)

        def decide(args, kwargs, result, exc):
            if isinstance(exc, budget):
                c["decide.unknown"] += 1

        # oracle.words counts the words the oracle feeds to the reference
        # predicate (outermost witness.predicates spans inside a comparison),
        # and checks them against the words the comparison was asked to cover
        def predicate(args, kwargs, result, exc):
            if self.depth[self.name_ix["witness.predicates"]] == 0:
                self.predicate_calls += 1

        def mark(args, kwargs):
            self.marks.append(self.predicate_calls)
            return args, kwargs

        def fed(expected, exc):
            n = self.predicate_calls - self.marks.pop()
            c["oracle.words"] += n
            if n and exc is None and n != expected:
                self.mismatches.append(
                    (self.ops - 1, f"oracle fed {n} words to the predicate, expected {expected}"))

        def compare_languages(args, kwargs, result, exc):
            alphabet = _arg(args, kwargs, 2, "alphabet")
            max_len = _arg(args, kwargs, 3, "max_len")
            fed(sum(len(alphabet) ** n for n in range(max_len + 1)), exc)

        def words_prepare(args, kwargs):
            # materialize the corpus once so it can be counted and still consumed
            words = list(_arg(args, kwargs, 2, "words"))
            return mark(*_replace_arg(args, kwargs, 2, "words", words))

        def compare_on_words(args, kwargs, result, exc):
            fed(len(_arg(args, kwargs, 2, "words")), exc)

        def parse(args, kwargs, result, exc):
            c["textio.parse_machine.bytes"] += len(_arg(args, kwargs, 0, "text"))

        if span_name.startswith("decide."):
            return None, decide
        return {
            "core.run": (None, run),
            "core.build_transducer": (build_prepare, build),
            "convert.nfa_to_dfa": (None, nfa_to_dfa),
            "convert.dfa_product": (None, states("convert.dfa_product.states")),
            "convert.dfa_minimize": (None, states("convert.dfa_minimize.states_out")),
            "convert.to_nfa": (None, states("convert.to_nfa.states")),
            "convert.sweep_reduce": (None, sweep_reduce),
            "oracle.compare_languages": (mark, compare_languages),
            "oracle.compare_on_words": (words_prepare, compare_on_words),
            "textio.parse_machine": (None, parse),
            "witness.predicates": (None, predicate),
        }.get(span_name, (None, None))

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "iufst" or n.startswith("iufst."))]
        for span_name, module, attr in WRAPPED:
            home = sys.modules.get("iufst." + module)
            fn = getattr(home, attr, None)
            if not callable(fn):
                self.missing.append(f"iufst.{module}.{attr}")
                continue
            prepare, count = self._hooks(span_name, fn)
            wrapper = self.span(span_name, fn, prepare, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)
                        self.installed.append((m, key, fn))
        self.on = True

    def uninstall(self):
        self.on = False
        for m, key, fn in reversed(self.installed):
            setattr(m, key, fn)
        self.installed.clear()

    # -- results -----------------------------------------------------------

    def totals(self):
        """Per span name: calls, time of outermost spans, self time."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for s in range(n):
            p = self.parent[s]
            if p >= 0:
                child[p] += self.end[s] - self.start[s]
        calls, time_s, self_s = Counter(), defaultdict(float), defaultdict(float)
        for s in range(n):
            name = self.names[self.span_name[s]]
            dur = self.end[s] - self.start[s]
            calls[name] += 1
            self_s[name] += dur - child[s]
            if self.outer[s]:
                time_s[name] += dur
        return calls, time_s, self_s

    def metrics(self, overhead_ratio):
        calls, time_s, self_s = self.totals()
        c = self.counts

        def per(a, b):
            return a / b if b else 0.0

        m = {f"{span}.time_s": time_s[span] for span, _module, _attr in WRAPPED}
        m.update(c)
        m.update({
            "core.run.calls": calls["core.run"],
            "core.run.cells_per_s": per(c["core.run.cells"], time_s["core.run"]),
            "core.run.us_per_call": per(time_s["core.run"] * 1e6, calls["core.run"]),
            "core.build_transducer.calls": calls["core.build_transducer"],
            "core.build_transducer.self_s": self_s["core.build_transducer"],
            "core.build_transducer.delta_calls": calls[DELTA],
            "core.build_transducer.delta_s": time_s[DELTA],
            "convert.nfa_to_dfa.subsets_per_s": per(c["convert.nfa_to_dfa.subsets"],
                                                    time_s["convert.nfa_to_dfa"]),
            "oracle.words_per_s": per(c["oracle.words"], time_s["oracle.compare_languages"]
                                      + time_s["oracle.compare_on_words"]),
            "textio.parse_machine.mb_per_s": per(c["textio.parse_machine.bytes"] / 1e6,
                                                 time_s["textio.parse_machine"]),
            "trace.overhead_ratio": overhead_ratio,
        })
        return {name: m.get(name, 0) for name in LAYER_METRICS}

    def not_called(self):
        calls, _t, _s = self.totals()
        return sorted({s for s, _m, _a in WRAPPED if calls[s] == 0})

    def write(self, path):
        """Write every span as a tab-separated row: id, name, start, end, parent."""
        base = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            for s in range(len(self.start)):
                fh.write(f"{s}\t{self.names[self.span_name[s]]}\t{self.start[s] - base:.9f}"
                         f"\t{self.end[s] - base:.9f}\t{self.parent[s]}\n")


def assert_untraced():
    """Fail if any library function is still wrapped (the timed run must be bare)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "iufst" or name.startswith("iufst.")):
            continue
        for key, value in vars(module).items():
            if getattr(value, "_perfbench_span", None):
                raise RuntimeError(f"{name}.{key} is still wrapped by the tracer")
