"""The four benchmark workloads.

Each workload turns a seed into one *round* of operations.  An operation
is one public library call (or one ``iufst.cli.main`` call for
``verify``) plus an independent check of its answer.  The timed loop
repeats the round, so every run sees the same mix of operations and only
the generated inputs depend on the seed: input sizes are fixed per
workload so that runs with different seeds do the same amount of work.
Each round holds an odd number of distinct ops: the median of the typical
round (see ``run.py``) then is the latency of one op, not an average across
the gap between two, which would swing with noise.

Operations call the library through module attributes looked up at call
time (``lib.core.run``, never a name bound in advance), so the traced run
sees every call once it has rebound those attributes.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import random
import sys
import types
from dataclasses import dataclass
from typing import Callable

OK, WRONG, UNKNOWN, RAISED = "ok", "wrong", "unknown", "raised"

# Subset budget of the decide workload.  Three of its questions exhaust it
# at the seed commit and end "unknown"; a faster decision procedure that
# answers them within the same budget shows as a higher answered ratio.
DECIDE_CAP = 2**16
# How often each small op of the decide and verify workloads appears in its
# round: one sample of a short op varies by a quarter from round to round.
DECIDE_SMALL_REPEATS = 5
VERIFY_SMALL_REPEATS = 3

MODULES = ("core", "convert", "decide", "witness", "hierarchy", "lba", "oracle", "textio", "cli")

# Payload tokens for the constructor workloads.  Plain letters: tokens
# holding the track-encoding characters hit a known collision in the
# string encoding, which is a defect of its own and not what this
# workload measures.
PAYLOADS = ("x", "y", "z", "p", "q", "v", "w", "c", "d", "e", "f", "g", "h")


@dataclass
class Op:
    """One operation of a round.

    ``call`` receives a dict shared by the ops of one round, so a later op
    can consume an earlier op's result (parse what was serialized).
    ``check`` maps the result to OK, WRONG or UNKNOWN.  ``documented``
    marks an op known to end unknown or raised at the seed commit; it is
    kept so that a fix shows, and its expected failure is not counted as
    an unexpected one.
    """

    label: str
    call: Callable[[dict], object]
    check: Callable[[object], str]
    documented: bool = False


def library_modules(replace=None):
    """The ``iufst`` entries of ``sys.modules``; with ``replace``, drop them
    and install ``replace`` in their place."""
    ours = {n: m for n, m in sys.modules.items() if n == "iufst" or n.startswith("iufst.")}
    if replace is not None:
        for name in ours:
            del sys.modules[name]
        sys.modules.update(replace)
    return ours


def load_library():
    """Import ``iufst`` afresh, dropping an earlier import, and return its modules."""
    library_modules(replace={})
    lib = types.SimpleNamespace(pkg=importlib.import_module("iufst"))
    for name in MODULES:
        setattr(lib, name, importlib.import_module("iufst." + name))
    lib.budget_errors = (lib.convert.ResourceBudgetError, lib.oracle.OracleBudgetError)
    return lib


def verdict(t, report, max_sweeps):
    """True, False, or None when the run's budget ran out before a definite answer.

    Same rule as ``iufst run``: a negative is definite when the search was
    exhausted, or when the machine declares a constant sweep bound that the
    budget covers and the tape cap was not hit.
    """
    if report.accepted:
        return True
    if report.exhausted or (
        isinstance(t.sweep_bound, int) and max_sweeps >= t.sweep_bound and not report.cap_hit
    ):
        return False
    return None


def _ab(rng, n):
    return tuple(rng.choice("ab") for _ in range(n))


def _flip(word, pos):
    w = list(word)
    w[pos] = "a" if w[pos] == "b" else "b"
    return tuple(w)


def _block_words(rng, k, count):
    """Seeded words over {0,1,#} with k-bit blocks, half of them members."""
    words = []
    for i in range(count):
        blocks = ["".join(rng.choice("01") for _ in range(k)) for _ in range(rng.randint(2, 5))]
        if i % 2 == 0:
            blocks[-1] = rng.choice(blocks[:-1])
        words.append(tuple("#".join(blocks)))
    return words


# ---------------------------------------------------------------------------
# simulate: run and find_accepting_trace on long tapes


def simulate(lib, rng):
    w = lib.witness
    uexpo, copy, e23 = w.gen_uexpo(), w.gen_copy(), w.gen_e(2, 3)
    source = lib.lba.lba_copy()
    compiled = lib.lba.compile_lba(source)
    ops = []

    def run_op(name, t, word, budget, expect):
        # expect() -> (member, sweeps on acceptance) from a reference
        def check(report):
            v = verdict(t, report, budget)
            if v is None:
                return UNKNOWN
            member, sweeps = expect()
            if v != member or (member and report.min_accept_sweeps != sweeps):
                return WRONG
            return OK

        ops.append(Op(f"run {name} |w|={len(word)}",
                      lambda s: lib.core.run(t, word, budget), check))

    def trace_op(name, t, word, budget, expect):
        def check(trace):
            if trace is None:
                return UNKNOWN
            _member, sweeps = expect()
            ok = (len(trace) == sweeps + 1
                  and trace[0] == tuple(word) + (t.endmarker,)
                  and all(len(tape) == len(word) + 1 for tape in trace))
            return OK if ok else WRONG

        ops.append(Op(f"trace {name} |w|={len(word)}",
                      lambda s: lib.core.find_accepting_trace(t, word, budget), check))

    # a^n: members 2^j and near-misses 2^j -+ 2^(j-3), which survive j-3
    # halvings and then stick on an odd count (no 2^12 + 2^9: it alone
    # would take a fifth of the round)
    for j in (10, 11, 12):
        for n in (2**j, 2**j - 2 ** (j - 3)) + ((2**j + 2 ** (j - 3),) if j < 12 else ()):
            word = ("a",) * n
            run_op("uexpo", uexpo, word, 4 * n + 16,
                   lambda word=word: (lib.witness.in_uexpo(word),
                                      max(1, int(math.log2(len(word))))))
    # u$u and a one-symbol mutation in the last tenth, so both take ~|u| sweeps
    for m in (100, 150, 200):
        u = _ab(rng, m)
        good = u + ("$",) + u
        bad = _flip(good, m + 1 + rng.randrange(m - m // 10, m))
        for word in (good, bad):
            expect = (lambda word=word: (lib.witness.in_copy(word), len(word) // 2 + 1))
            run_op("copy", copy, word, 4 * len(word) + 16, expect)
        trace_op("copy", copy, good, 4 * len(good) + 16, lambda m=m: (True, m + 1))
    # e(2,3): a member, and a non-member whose b's all sit where
    # |v| + 1 is not a multiple of 8; both fork once per b in sweep 1
    for m in (200, 300, 400):
        good = _ab(rng, m)
        if not lib.witness.in_e(2, 3, good):
            good = good[: m - 8] + ("b",) + good[m - 7:]
        bad = tuple("b" if (m - i) % 8 and rng.random() < 0.5 else "a" for i in range(m))
        for word in (good, bad):
            run_op("e(2,3)", e23, word, 3, lambda word=word: (lib.witness.in_e(2, 3, word), 3))
        trace_op("e(2,3)", e23, good, 3, lambda: (True, 3))
    # compiled LBA: hundreds of sweeps on a short tape, checked against the
    # LBA simulator (accepting sweeps = LBA steps + 1)
    for m in (8, 10, 12):
        u = _ab(rng, m)
        good = u + ("$",) + u
        bad = _flip(good, 2 * m)
        budget = 4 * len(good) ** 2 + 16

        def expect(word):
            r = lib.lba.run_lba(source, word)
            return r.accepted, (r.steps_to_accept + 1 if r.accepted else None)

        for word in (good, bad):
            run_op("lba(copy)", compiled, word, budget, lambda word=word: expect(word))
        trace_op("lba(copy)", compiled, good, budget, lambda good=good: expect(good))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# decide: determinization blow-ups, budget exhaustion, graph-only questions


def decide(lib, rng):
    w, cv = lib.witness, lib.convert
    e21, e22, e23, e32 = w.gen_e(2, 1), w.gen_e(2, 2), w.gen_e(2, 3), w.gen_e(3, 2)
    e33, e34 = w.gen_e(3, 3), w.gen_e(3, 4)
    b2, b3, b4 = w.gen_block(2), w.gen_block(3), w.gen_block(4)
    bnfa3 = w.gen_block_nfa(3)
    u23, u32 = w.gen_unary(2, 3), w.gen_unary(3, 2)
    e23r = cv.sweep_reduce(e23, 3, 2)
    e32r1, e32r2 = cv.sweep_reduce(e32, 2, 1), cv.sweep_reduce(e32, 2, 2)

    def in_e(n, k):
        return lambda x: w.in_e(n, k, x)

    def in_block(k):
        return lambda x: w.in_block(k, x)

    def accepts(t, k, word):
        return lib.core.run(t, word, k).accepted

    def none_expected(result):
        return OK if result is None else WRONG

    def rejected_by(t, k, pred):
        # universality witness: a word outside the language
        def check(word):
            ok = word is not None and not pred(word) and not accepts(t, k, word)
            return OK if ok else WRONG
        return check

    def separates(t1, k1, p1, t2, k2, p2, either_way=False):
        # inclusion witness: in L1 and not in L2; equivalence witness: in
        # exactly one of them.  Both machines must agree with their references.
        def check(word):
            if word is None:
                return WRONG
            a, b = p1(word), p2(word)
            ok = (a == accepts(t1, k1, word) and b == accepts(t2, k2, word)
                  and (a != b if either_way else a and not b))
            return OK if ok else WRONG
        return check

    samples = _block_words(rng, 3, 24)

    def min_dfa_check(dfa):
        ok = len(dfa.states) == 2221 and all(dfa.accepts(x) == w.in_block(3, x) for x in samples)
        return OK if ok else WRONG

    ops = [
        Op("equiv e(2,3) ~ reduce(e(2,3),3,2)",
           lambda s: lib.decide.equivalence_witness(e23, 3, e23r, 2, DECIDE_CAP), none_expected),
        Op("incl block(3) <= block(3)",
           lambda s: lib.decide.inclusion_witness(b3, 3, b3, 3, DECIDE_CAP), none_expected),
        Op("univ block(3)", lambda s: lib.decide.universality_witness(b3, 3, DECIDE_CAP),
           rejected_by(b3, 3, in_block(3))),
        Op("min-dfa block(3)",
           lambda s: lib.convert.dfa_minimize(lib.convert.nfa_to_dfa(lib.convert.to_nfa(b3, 3))),
           min_dfa_check),
        Op("min-dfa block-nfa(3)",
           lambda s: lib.convert.dfa_minimize(lib.convert.nfa_to_dfa(bnfa3)), min_dfa_check),
        # the three questions that exhaust DECIDE_CAP at the seed commit
        Op("equiv e(3,3) ~ e(3,3)",
           lambda s: lib.decide.equivalence_witness(e33, 3, e33, 3, DECIDE_CAP), none_expected,
           documented=True),
        Op("equiv e(3,4) ~ e(3,4)",
           lambda s: lib.decide.equivalence_witness(e34, 4, e34, 4, DECIDE_CAP), none_expected,
           documented=True),
        Op("univ block(4)", lambda s: lib.decide.universality_witness(b4, 4, DECIDE_CAP),
           rejected_by(b4, 4, in_block(4)), documented=True),
        # small determinizations
        Op("equiv e(3,2) ~ reduce(e(3,2),2,1)",
           lambda s: lib.decide.equivalence_witness(e32, 2, e32r1, 2), none_expected),
        Op("equiv e(3,2) ~ reduce(e(3,2),2,2)",
           lambda s: lib.decide.equivalence_witness(e32, 2, e32r2, 1), none_expected),
        Op("equiv e(2,2) ~ e(3,2)", lambda s: lib.decide.equivalence_witness(e22, 2, e32, 2),
           separates(e22, 2, in_e(2, 2), e32, 2, in_e(3, 2), either_way=True)),
    ]
    # questions of at most a few ms, repeated in the round (see below)
    small = [
        Op("incl e(2,2) <= e(2,1)", lambda s: lib.decide.inclusion_witness(e22, 2, e21, 1),
           none_expected),
        Op("incl e(2,1) <= e(2,2)", lambda s: lib.decide.inclusion_witness(e21, 1, e22, 2),
           separates(e21, 1, in_e(2, 1), e22, 2, in_e(2, 2))),
        Op("univ e(2,1)", lambda s: lib.decide.universality_witness(e21, 1),
           rejected_by(e21, 1, in_e(2, 1))),
        Op("univ e(2,2)", lambda s: lib.decide.universality_witness(e22, 2),
           rejected_by(e22, 2, in_e(2, 2))),
        Op("equiv e(2,2) ~ e(2,2)", lambda s: lib.decide.equivalence_witness(e22, 2, e22, 2),
           none_expected),
        Op("univ unary(2,3)", lambda s: lib.decide.universality_witness(u23, 3),
           rejected_by(u23, 3, lambda x: w.in_unary(2, 3, x))),
        Op("univ unary(3,2)", lambda s: lib.decide.universality_witness(u32, 2),
           rejected_by(u32, 2, lambda x: w.in_unary(3, 2, x))),
        Op("incl unary(2,3) <= unary(2,3)",
           lambda s: lib.decide.inclusion_witness(u23, 3, u23, 3), none_expected),
    ]
    # The round has 35 distinct ops, so that the median falls among the
    # many small questions of 1-2 ms, each repeated in the round.
    graph = [("e(2,1)", e21, 1, in_e(2, 1)), ("e(2,2)", e22, 2, in_e(2, 2)),
             ("e(2,3)", e23, 3, in_e(2, 3)), ("e(3,2)", e32, 2, in_e(3, 2)),
             ("unary(2,3)", u23, 3, lambda x: w.in_unary(2, 3, x)),
             ("unary(3,2)", u32, 2, lambda x: w.in_unary(3, 2, x)),
             ("block(2)", b2, 2, in_block(2)), ("block(3)", b3, 3, in_block(3))]
    for name, t, k, pred in graph:
        def member(word, t=t, k=k, pred=pred):
            ok = word is not None and pred(word) and accepts(t, k, word)
            return OK if ok else WRONG

        def pumpable(parts, t=t, k=k, pred=pred):
            if parts is None:
                return WRONG
            x, y, z = parts
            ok = (len(y) > 0 and all(pred(x + y * i + z) for i in range(3))
                  and accepts(t, k, x + y + z))
            return OK if ok else WRONG

        (ops if name == "block(3)" else small).extend([
            Op(f"empty {name}", lambda s, t=t, k=k: lib.decide.emptiness_witness(t, k), member),
            Op(f"finite {name}",
               lambda s, t=t, k=k: lib.decide.infiniteness_witness(t, k), pumpable)])
    ops += small * DECIDE_SMALL_REPEATS
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# verify: the CLI's oracle comparison, thousands of runs on short tapes

VERIFY_ARGS = (("copy", 10), ("e:2,3", 11), ("e:2,3", 12), ("d:2", None))
# Verifications of at most half a second, repeated in the round, so that the
# ops at the median and at p75 (block:3) have more samples.
VERIFY_SMALL_ARGS = (
    ("copy", 8), ("block:2", None), ("block:2", 8), ("block:3", None), ("e:2,3", None),
    ("uexpo", None), ("uexpo", 200), ("unary:2,3", None), ("unary:3,2", None),
)


def verify(lib, rng):
    def call(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = lib.cli.main(argv)
        return rc, out.getvalue()

    def check(result):
        rc, text = result
        if rc == 0:
            return OK if text.strip().endswith("ok") else WRONG
        return {1: WRONG, 3: UNKNOWN}.get(rc, RAISED)

    def op(lang, max_len):
        argv = ["verify", "--lang", lang] + ([] if max_len is None else ["--max-len", str(max_len)])
        return Op(" ".join(argv), lambda s: call(argv), check)

    ops = [op(*args) for args in VERIFY_ARGS]
    ops += [op(*args) for args in VERIFY_SMALL_ARGS] * VERIFY_SMALL_REPEATS
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# build: materialize constructions and round-trip them through the text format


def build(lib, rng):
    w = lib.witness
    px, py = rng.sample(PAYLOADS, 2)
    e_src = {(n, k): w.gen_e(n, k) for n, k in ((2, 3), (3, 4))}
    b_src = {k: w.gen_block(k) for k in (2, 3)}
    source_lba = lib.lba.lba_copy()

    def ctor(kind, payload):
        name = {"id": "identity_constructor", "expo": "expo_constructor"}[kind]
        return getattr(lib.hierarchy, name)((payload,))

    def runs(t, word, expected):
        budget = 4 * len(word) + 16
        return verdict(t, lib.core.run(t, word, budget), budget) == expected

    def keep(key, fn):
        def call(s):
            s[key] = fn()
            return s[key]
        return call

    def roundtrip(key):
        # serialize the machine an earlier op stored under key, then parse it back
        def kind(m):
            return "iufst" if m.is_deterministic else "niufst"

        def ser(s):
            m = s[key]
            s[key + ".text"] = lib.textio.serialize_machine(lib.textio.MachineFile(kind(m), m))
            return s[key + ".text"]

        def parse(s):
            # the last op of its group: drop what it consumed, so the heap
            # does not grow across the round
            return s.pop(key), lib.textio.parse_machine(s.pop(key + ".text"))

        def parse_check(pair):
            m, mf = pair
            return OK if mf.machine == m and mf.kind == kind(m) else WRONG

        return [Op(f"serialize {key}", ser, lambda text: OK if text else WRONG),
                Op(f"parse {key}", parse, parse_check)]

    groups = [[Op("gen_d", keep("d", lambda: lib.witness.gen_d()),
                  lambda m: OK if len(m.states) == 244 else WRONG)] + roundtrip("d")]

    def combine_check(op, cf, cg):
        # add: a^m x^f(m) y^g(m); mul: a^m (y x^f(m))^g(m); one symbol
        # short must reject
        m = 2
        x, y = cf.payload_alphabet[0], cg.payload_alphabet[0]
        if op == "add":
            word = ("a",) * m + (x,) * cf.fn(m) + (y,) * cg.fn(m)
        else:
            word = ("a",) * m + ((y,) + (x,) * cf.fn(m)) * cg.fn(m)

        def check(c):
            ok = runs(c.machine, word, True) and runs(c.machine, word[:-1], False)
            return OK if ok else WRONG
        return check

    for op in ("add", "mul"):
        for left in ("id", "expo"):
            for right in ("id", "expo"):
                key = f"{op}({left}[{px}],{right}[{py}])"

                def call(s, key=key, op=op, left=left, right=right):
                    c = getattr(lib.hierarchy, "combine_" + op)(ctor(left, px), ctor(right, py))
                    s[key] = c.machine
                    return c

                groups.append([Op(f"combine {key}", call,
                                  combine_check(op, ctor(left, px), ctor(right, py)))]
                              + roundtrip(key))

    def lf_check(c):
        # u$u v with |v| = f(2|u|+1), and the same word one symbol short
        u = ("a", "b")
        word = u + ("$",) + u + (c.payload_alphabet[0],) * c.fn(2 * len(u) + 1)

        def check(t):
            ok = (lib.hierarchy.in_lf(c.fn, c.payload_alphabet, word)
                  and runs(t, word, True) and runs(t, word[:-1], False))
            return OK if ok else WRONG
        return check

    for kind in ("id", "expo"):
        key = f"lf({kind}[{px}])"
        groups.append([Op(f"build_lf {key}",
                          keep(key, lambda kind=kind: lib.hierarchy.build_lf(ctor(kind, px))),
                          lf_check(ctor(kind, px)))]
                      + roundtrip(key))
    # Raises MachineError ("writes undeclared output symbol") at the seed
    # commit; kept so that a fix shows in the answered ratio.
    add_ie = lib.hierarchy.combine_add(ctor("id", px), ctor("expo", py))
    groups.append([Op(f"build_lf lf(add(id[{px}],expo[{py}]))",
                      lambda s: lib.hierarchy.build_lf(
                          lib.hierarchy.combine_add(ctor("id", px), ctor("expo", py))),
                      lf_check(add_ie), documented=True)])
    groups.append([Op("compile_lba lba_copy", keep("lba", lambda: lib.lba.compile_lba(source_lba)),
                      lambda t: OK if len(t.states) == 2 * len(source_lba.states) + 4 else WRONG)]
                  + roundtrip("lba"))

    def reduce_check(pred, words):
        def check(t):
            ok = (len(t.states) <= t.meta["universe_states"]
                  and all(runs(t, x, pred(x)) for x in words))
            return OK if ok else WRONG
        return check

    for (n, k), t in e_src.items():
        key = f"reduce(e({n},{k}),{k},{k})"
        words = [_ab(rng, rng.randint(n**k - 2, 3 * n**k)) for _ in range(6)]
        groups.append([Op(f"sweep_reduce {key}",
                          keep(key, lambda t=t, k=k: lib.convert.sweep_reduce(t, k, k)),
                          reduce_check(lambda x, n=n, k=k: lib.witness.in_e(n, k, x), words))]
                      + roundtrip(key))
    for k, t in b_src.items():
        key = f"reduce(block({k}),{k},{k})"
        groups.append([Op(f"sweep_reduce {key}",
                          keep(key, lambda t=t, k=k: lib.convert.sweep_reduce(t, k, k)),
                          reduce_check(lambda x, k=k: lib.witness.in_block(k, x),
                                       _block_words(rng, k, 6)))]
                      + roundtrip(key))
    rng.shuffle(groups)
    return [op for group in groups for op in group]


WORKLOADS = {"simulate": simulate, "decide": decide, "verify": verify, "build": build}


def setup(name, seed):
    """Import the library and build one round of ops for a workload."""
    lib = load_library()
    ops = WORKLOADS[name](lib, random.Random(f"{name}:{seed}"))
    return lib, ops
