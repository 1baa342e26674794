"""The sweep kernel and the tape search checked against the slow code
they replaced.

The ``ref_*`` functions below are the earlier implementations, kept
verbatim apart from their names: every branch copies its whole output
prefix at every cell, and each caller has its own search loop.  The
library must give the same ``RunReport`` field by field, the same traces,
the same ``sweep`` outcome sets and the same accept-mode reports.
``ref_sweep_ordered``, written in the same style, pins the order of the
kernel's completed pairs, which the search reads.
"""

import gc
import itertools
import random
import weakref
from collections import Counter
from dataclasses import replace
from typing import Callable, Iterable, Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iufst import (
    AcceptModeReport,
    AcceptModeViolation,
    Completed,
    MalformedInputError,
    RunReport,
    Stuck,
    Transducer,
    check_accept_mode,
    combine_add,
    compile_lba,
    expo_constructor,
    find_accepting_trace,
    gen_block,
    gen_block_nfa,
    gen_copy,
    gen_d,
    gen_e,
    gen_uexpo,
    gen_unary,
    identity_constructor,
    lba_anbn,
    lba_copy,
    nfa_to_1niufst,
    run,
    sweep,
    sweep_reduce,
)
from iufst import core
from iufst.cli import _d_corpus
from iufst.core import DEFAULT_TAPE_CAP, LaneNfa, Tape, Word, _decode, _encode, _run_traced, _set_step, _sweep

from test_decide import fuzz_machine


def ref_sweep(t: Transducer, tape: Sequence[str]) -> set:
    tape = tuple(tape)
    if not tape:
        raise MalformedInputError("tape must have at least one cell")
    bad = [x for x in tape if x not in t.symbol_set]
    if bad:
        raise MalformedInputError(f"tape symbols {bad!r} outside the machine alphabets")
    outcomes: set = set()
    frontier: set[tuple[str, Tape]] = {(t.initial, ())}
    trans = t.transitions
    for i, x in enumerate(tape):
        nxt: set[tuple[str, Tape]] = set()
        for q, out in frontier:
            choices = trans.get((q, x))
            if not choices:
                outcomes.add(Stuck(i, q))
                continue
            for p, y in choices:
                nxt.add((p, out + (y,)))
        frontier = nxt
        if not frontier:
            break
    for q, out in frontier:
        outcomes.add(Completed(q, out))
    return outcomes


def _ref_sweep_split(
    t: Transducer, tape: Tape
) -> tuple[list[tuple[str, Tape]], list[Completed]]:
    trans = t.transitions
    acc = t.accepting_set
    frontier: dict[tuple[str, Tape], None] = {(t.initial, ()): None}
    for i, x in enumerate(tape):
        nxt: dict[tuple[str, Tape], None] = {}
        for q, out in frontier:
            choices = trans.get((q, x))
            if not choices:
                continue
            for p, y in choices:
                nxt[(p, out + (y,))] = None
        frontier = nxt
        if not frontier:
            break
    continuing: list[tuple[str, Tape]] = []
    accepting: list[Completed] = []
    for q, out in frontier:
        if q in acc:
            accepting.append(Completed(q, out))
        else:
            continuing.append((q, out))
    return continuing, accepting


def ref_sweep_ordered(t: Transducer, tape: Tape) -> list[tuple[int, Tape]]:
    """``_sweep``'s completed (state index, output) pairs, order included:
    a frontier of (state, output) pairs deduplicated by a dict, every
    branch kept to the end, the pairs in frontier order."""
    index = {q: i for i, q in enumerate(t.states)}
    trans = t.transitions
    frontier: dict[tuple[str, Tape], None] = {(t.initial, ()): None}
    for x in tape:
        nxt: dict[tuple[str, Tape], None] = {}
        for q, out in frontier:
            for p, y in trans.get((q, x), ()):
                nxt[(p, out + (y,))] = None
        frontier = nxt
    return [(index[q], out) for q, out in frontier]


def kernel_sweep(t: Transducer, tape: Tape) -> list[tuple[int, Tape]]:
    """``_sweep`` on a tuple tape: the kernel takes and returns tapes in the
    machine's tape code, one character per cell, so the tape goes in encoded
    and each output comes out decoded, the list's order kept."""
    return [(q, _decode(t, out)) for q, out in _sweep(t, _encode(t, tape))]


def ref_run(
    t: Transducer,
    word: Sequence[str],
    max_sweeps: int,
    tape_cap: int = DEFAULT_TAPE_CAP,
) -> RunReport:
    if max_sweeps < 0 or tape_cap < 1:
        raise ValueError("max_sweeps must be >= 0 and tape_cap >= 1")
    tape0 = t.initial_tape(word)
    seen: set[Tape] = {tape0}
    frontier: list[Tape] = [tape0]
    explored = 0
    for s in range(1, max_sweeps + 1):
        if not frontier:
            return RunReport(False, None, explored, False, exhausted=True)
        nxt: list[Tape] = []
        for tape in frontier:
            if explored >= tape_cap:
                return RunReport(False, None, explored, True)
            explored += 1
            continuing, accepting = _ref_sweep_split(t, tape)
            if accepting:
                return RunReport(True, s, explored, False)
            for q, out in continuing:
                if out not in seen:
                    seen.add(out)
                    nxt.append(out)
        frontier = nxt
    return RunReport(False, None, explored, False, exhausted=not frontier)


def ref_find_accepting_trace(
    t: Transducer,
    word: Sequence[str],
    max_sweeps: int,
    tape_cap: int = DEFAULT_TAPE_CAP,
) -> Optional[list[Tape]]:
    tape0 = t.initial_tape(word)
    parent: dict[Tape, Optional[Tape]] = {tape0: None}
    frontier: list[Tape] = [tape0]
    explored = 0
    for _ in range(1, max_sweeps + 1):
        if not frontier:
            return None
        nxt: list[Tape] = []
        for tape in frontier:
            if explored >= tape_cap:
                return None
            explored += 1
            continuing, accepting = _ref_sweep_split(t, tape)
            if accepting:
                path = [accepting[0].output]
                cur: Optional[Tape] = tape
                while cur is not None:
                    path.append(cur)
                    cur = parent[cur]
                path.reverse()
                return path
            for q, out in continuing:
                if out not in parent:
                    parent[out] = tape
                    nxt.append(out)
        frontier = nxt
    return None


def ref_check_accept_mode(
    t: Transducer,
    words: Iterable[Sequence[str]],
    bound_fn: Callable[[int], int],
    sweep_cap: int = 200,
    tape_cap: int = DEFAULT_TAPE_CAP,
) -> AcceptModeReport:
    violations: list[AcceptModeViolation] = []
    inconclusive: list[Word] = []
    for w in words:
        word = tuple(w)
        bound = bound_fn(len(word))
        frontier: frozenset[Tape] = frozenset({t.initial_tape(word)})
        seen_frontiers: dict[frozenset[Tape], int] = {frontier: 0}
        explored = 0
        concluded = False
        for r in range(1, sweep_cap + 1):
            nxt: set[Tape] = set()
            accepted_this_round = False
            for tape in frontier:
                explored += 1
                if explored > tape_cap:
                    break
                continuing, accepting = _ref_sweep_split(t, tape)
                if accepting:
                    accepted_this_round = True
                for q, out in continuing:
                    nxt.add(out)
            if explored > tape_cap:
                break
            if accepted_this_round and r > bound:
                violations.append(AcceptModeViolation(word, r, bound))
                concluded = True
                break
            if not nxt:
                concluded = True
                break
            fnxt = frozenset(nxt)
            prev = seen_frontiers.get(fnxt)
            if prev is not None:
                if _ref_cycle_accepts(t, fnxt, r - prev):
                    violations.append(AcceptModeViolation(word, None, bound))
                concluded = True
                break
            seen_frontiers[fnxt] = r
            frontier = fnxt
        if not concluded:
            inconclusive.append(word)
    return AcceptModeReport(tuple(violations), tuple(inconclusive))


def _ref_cycle_accepts(t: Transducer, frontier: frozenset[Tape], period: int) -> bool:
    for _ in range(period):
        nxt: set[Tape] = set()
        for tape in frontier:
            continuing, accepting = _ref_sweep_split(t, tape)
            if accepting:
                return True
            for q, out in continuing:
                nxt.add(out)
        frontier = frozenset(nxt)
    return False


def assert_same_runs(t, words, max_sweeps, tape_caps):
    """The tape search (``_run_traced``) gives ``ref_run``'s report field by
    field and ``ref_find_accepting_trace``'s trace, on every word and cap,
    and so do ``run`` and ``find_accepting_trace`` past the lane walk's
    budgets.  Within them, both take the lane route where it answers:
    ``assert_run`` checks the report and ``assert_trace`` the trace against
    an uncapped ``ref_run``, whatever the cap."""
    lanes = 1 <= max_sweeps <= core._LANE_SWEEP_CAP
    for w in words:
        full = ref_run(t, w, max_sweeps) if lanes else None
        for cap in tape_caps:
            want = ref_run(t, w, max_sweeps, cap)
            report, trace = _run_traced(t, w, max_sweeps, cap)
            assert report == want, (w, cap)
            assert trace() == ref_find_accepting_trace(t, w, max_sweeps, cap), (w, cap)
            if lanes:
                assert_run(t, w, max_sweeps, cap, full)
                assert_trace(t, w, find_accepting_trace(t, w, max_sweeps, cap), full, (w, cap))
            else:
                assert run(t, w, max_sweeps, cap) == want, (w, cap)
                assert (find_accepting_trace(t, w, max_sweeps, cap)
                        == ref_find_accepting_trace(t, w, max_sweeps, cap)), (w, cap)


def assert_run(t, w, s, cap, full):
    """``run`` at a budget of 1 <= s <= ``_LANE_SWEEP_CAP`` sweeps, against
    ``full``, an uncapped ``ref_run`` at s: the lane report where it stands,
    the tape search's at ``cap`` only where it does not (not accepted, and
    no constant bound k <= s)."""
    report = run(t, w, s, cap)
    if report.tapes_explored:  # the tape search sweeps a tape at every budget of 1 or more
        assert not full.accepted and not (isinstance(t.sweep_bound, int) and t.sweep_bound <= s), w
        assert report == ref_run(t, w, s, cap), (w, cap)
    else:
        assert_lane_run(report, full, (w, s, cap))


def assert_lane_run(report, want, msg):
    """``run``'s lane-route ``report`` against ``want``, an uncapped
    ``ref_run`` at the same budget: the same answer and least accepting
    sweep count, no tape kept, and ``exhausted`` only where the reference
    is exhausted too (the reference also is when every tape k + 1 was seen
    before)."""
    assert not want.cap_hit, msg
    assert (report.accepted, report.min_accept_sweeps) == (want.accepted, want.min_accept_sweeps), msg
    assert report.tapes_explored == 0 and not report.cap_hit, msg
    assert want.exhausted or not report.exhausted, msg


def assert_trace(t, word, trace, want, msg):
    """``trace`` against ``want``, an uncapped ``ref_run`` at the same
    budget, checked through ``_ref_sweep_split`` alone: None exactly when
    the reference rejects; else it starts with the initial tape, has
    ``want.min_accept_sweeps`` + 1 tapes, and each tape is the output of a
    completed sweep over the one before, a rejecting sweep before the last
    step and an accepting one at the last."""
    assert not want.cap_hit, msg
    if not want.accepted:
        assert trace is None, msg
        return
    assert trace is not None and len(trace) == want.min_accept_sweeps + 1, msg
    assert trace[0] == t.initial_tape(word), msg
    for i in range(1, len(trace)):
        continuing, accepting = _ref_sweep_split(t, trace[i - 1])
        outs = [c.output for c in accepting] if i == len(trace) - 1 else [out for _, out in continuing]
        assert trace[i] in outs, (msg, i)


def assert_same_sweeps(t, tapes):
    for tape in tapes:
        assert sweep(t, tape) == ref_sweep(t, tape), tape


def assert_same_order(t, tapes, rounds=1):
    """``_sweep`` lists the reference's pairs in its order, on ``tapes``
    and on the non-accepting outputs of the next ``rounds - 1`` sweeps,
    each tape once."""
    acc = t._indexed[2]
    seen = set(tapes)
    for _ in range(rounds):
        nxt = []
        for tape in tapes:
            want = ref_sweep_ordered(t, tape)
            assert kernel_sweep(t, tape) == want, tape
            for q, out in want:
                if not acc[q] and out not in seen:
                    seen.add(out)
                    nxt.append(out)
        tapes = nxt


def most_runs(t, tape):
    """The most runs alive at any cell of a sweep over ``tape``: a bound on
    the branches both sweeps keep, without building them."""
    counts, most = {t.initial: 1}, 1
    for x in tape:
        nxt = Counter()
        for q, c in counts.items():
            for p, _ in t.transitions.get((q, x), ()):
                nxt[p] += c
        counts, most = nxt, max(most, sum(nxt.values()))
    return most


def rounds_fit(t, tape, sweeps, limit):
    """Whether each of the first ``sweeps`` rounds of a search from ``tape``,
    every round swept whole and deduplicated only within itself, keeps at
    most ``limit`` runs: ``most_runs`` summed over the round's tapes.  The
    first-sweep bound alone leaves the later sweeps that runs and traces
    make free to fork exponentially; a round's tapes are built only once
    the round before it fits."""
    frontier = [tape]
    for r in range(sweeps):
        if sum(most_runs(t, x) for x in frontier) > limit:
            return False
        if r + 1 < sweeps:
            nxt: dict[Tape, None] = {}
            for x in frontier:
                nxt.update(dict.fromkeys(out for _, out in _ref_sweep_split(t, x)[0]))
            frontier = list(nxt)
    return True


def random_tapes(rng, t, count, max_len):
    """Random tapes over every symbol on which no sweep keeps more than a
    few hundred branches (the reference would need exponential memory)."""
    syms = sorted(t.symbol_set)
    tapes = []
    for _ in range(50 * count):
        tape = tuple(rng.choice(syms) for _ in range(rng.randint(1, max_len)))
        if most_runs(t, tape) <= 300:
            tapes.append(tape)
            if len(tapes) == count:
                break
    return tapes


@pytest.fixture(scope="module")
def fuzz_machines():
    rng = random.Random(20261018)
    return [fuzz_machine(rng) for _ in range(200)]


WORDS_TO_6 = [w for n in range(7) for w in itertools.product("ab", repeat=n)]


class TestFuzzMachines:
    def test_runs_and_traces(self, fuzz_machines):
        # the tape cap of 3 stops many searches mid-round
        for t, k in fuzz_machines:
            assert_same_runs(t, WORDS_TO_6, k + 1, (3, 500))

    def test_sweep_outcomes(self, fuzz_machines):
        # tapes longer than a chunk of the output trie, over every symbol
        rng = random.Random(5)
        for t, _ in fuzz_machines:
            assert_same_sweeps(t, [t.initial_tape(w) for w in WORDS_TO_6])
            assert_same_sweeps(t, random_tapes(rng, t, 20, 60))

    def test_accept_mode(self, fuzz_machines):
        for t, k in fuzz_machines:
            for cap in (5, 50):
                assert (check_accept_mode(t, WORDS_TO_6, lambda n: k, 6, cap)
                        == ref_check_accept_mode(t, WORDS_TO_6, lambda n: k, 6, cap)), t


# name -> (machine factory, alphabet, longest word, sweep budget)
FAMILIES = {
    "block(2)": (lambda: gen_block(2), "01#", 7, 7),
    "unary(2,2)": (lambda: gen_unary(2, 2), "a", 12, 10),
    "e(2,3)": (lambda: gen_e(2, 3), "ab", 8, 3),
    "e(3,2)": (lambda: gen_e(3, 2), "ab", 6, 2),
    "copy": (gen_copy, "ab$", 5, 8),
    "uexpo": (gen_uexpo, "a", 17, 12),
    "d": (gen_d, "ab01", 4, 8),
    "lba(copy)": (lambda: compile_lba(lba_copy()), "ab$", 5, 80),
    "lba(anbn)": (lambda: compile_lba(lba_anbn()), "ab", 6, 80),
    "id+expo": (lambda: combine_add(identity_constructor(("x",)),
                                    expo_constructor(("y",))).machine, "axy", 5, 12),
}


class TestFamilies:
    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_short_words(self, name):
        make, alphabet, max_len, sweeps = FAMILIES[name]
        t = make()
        words = [w for n in range(max_len + 1) for w in itertools.product(alphabet, repeat=n)]
        words = words[:: max(1, len(words) // 400)]
        assert_same_runs(t, words, sweeps, (4, 100_000))
        assert_same_sweeps(t, [t.initial_tape(w) for w in words])
        assert_same_sweeps(t, random_tapes(random.Random(name), t, 30, 40))
        bound = lambda n: sweeps
        assert (check_accept_mode(t, words[:60], bound, 2 * sweeps, 2_000)
                == ref_check_accept_mode(t, words[:60], bound, 2 * sweeps, 2_000))

    def test_long_nondeterministic_words(self):
        # e(2,3) forks at every b: many branches cross several trie chunks
        t, rng = gen_e(2, 3), random.Random(3)
        words = [tuple(rng.choice("ab") for _ in range(n)) for n in (40, 63, 97)]
        words.append(("b",) * 70)
        assert_same_runs(t, words, 3, (50, 100_000))
        assert_same_sweeps(t, [t.initial_tape(w) for w in words])


class TestLongWords:
    def test_uexpo(self):
        t, w = gen_uexpo(), ("a",) * 2**10
        assert_same_runs(t, [w, w[:-1]], 4 * len(w), (100_000,))
        assert_same_sweeps(t, [t.initial_tape(w)])

    def test_copy(self):
        rng = random.Random(1)
        u = tuple(rng.choice("ab") for _ in range(100))
        good = u + ("$",) + u
        bad = good[:-1] + ("a" if good[-1] == "b" else "b",)
        t = gen_copy()
        assert_same_runs(t, [good, bad], 4 * len(good), (100_000,))
        assert_same_sweeps(t, [t.initial_tape(good)])


def words_to(alphabet, max_len):
    return [w for n in range(max_len + 1) for w in itertools.product(alphabet, repeat=n)]


def e_words(n, k):
    """Every word over a, b up to length 8, and long ones about n^k: random
    words and the member b a^(n^k - 1) with the non-member b a^(n^k - 2)."""
    rng, period = random.Random(n * 10 + k), n**k
    long = [tuple(rng.choice("ab") for _ in range(m)) for m in range(period - 1, period + 24, 2)]
    return words_to("ab", 8) + long + [("b",) + ("a",) * (period - 1), ("b",) + ("a",) * (period - 2)]


BLOCK_WORDS = [tuple(w) for w in ("01#10#01", "01#10#11", "001#010#001", "001#001", "001#010#011",
                                  "011#110#000#110", "000#000#", "#001")]

# name -> (machine factory, its constant bound, words)
LANE_FAMILIES = {
    "e(2,3)": (lambda: gen_e(2, 3), 3, e_words(2, 3)),
    "e(3,2)": (lambda: gen_e(3, 2), 2, e_words(3, 2)),
    "e(3,4)": (lambda: gen_e(3, 4), 4, e_words(3, 4)),
    "block(2)": (lambda: gen_block(2), 2, words_to("01#", 6) + BLOCK_WORDS),
    "block(3)": (lambda: gen_block(3), 3, words_to("01#", 5) + BLOCK_WORDS),
    "unary(2,2)": (lambda: gen_unary(2, 2), 2, [("a",) * m for m in range(20)]),
    "unary(3,4)": (lambda: gen_unary(3, 4), 4, [("a",) * m for m in range(170)]),
    **{f"sweep_reduce(e(2,3),3,{i})": (lambda i=i: sweep_reduce(gen_e(2, 3), 3, i), -(-3 // i),
                                       e_words(2, 3)) for i in (1, 2, 3)},
    "nfa_to_1niufst(block-nfa(2))": (lambda: nfa_to_1niufst(gen_block_nfa(2)), 1,
                                     words_to("01#", 6) + BLOCK_WORDS[:3]),
}


def rows_by_value(n: LaneNfa, states: Iterable[int]) -> dict:
    """Each of ``states`` of ``n`` as its lane tuple, mapped to its
    successor tuples per symbol, its acceptance and its completion: what
    no tuple numbering changes."""
    value, codes = n._tuples.__getitem__, range(len(n.alphabet))
    return {value(q): (tuple(tuple(map(value, n.rows[q][c])) for c in codes), n.accepting(q), n.completes(q))
            for q in states}


class TestLaneRoute:
    """``run`` and ``find_accepting_trace`` at a budget of 1 <= s <=
    ``_LANE_SWEEP_CAP`` sweeps step the set of s-lane tuples over the word
    and keep no tape: they must answer as the tape search of ``ref_run``
    does with no tape cap to stop it, under any cap of their own, and a
    trace must pass ``assert_trace``."""

    def test_fuzz_machines(self, fuzz_machines):
        for t, k in fuzz_machines:
            assert t.sweep_bound == k
            for s in range(1, k + 3):
                for w in WORDS_TO_6:
                    full = ref_run(t, w, s)
                    assert_run(t, w, s, 1, full)
                    assert_trace(t, w, find_accepting_trace(t, w, s, 1), full, (t, s, w))

    @pytest.mark.parametrize("name", list(LANE_FAMILIES))
    def test_families(self, name):
        make, k, words = LANE_FAMILIES[name]
        t = make()
        assert t.sweep_bound == k
        for s in range(1, k + 3):
            wants = [ref_run(t, w, s) for w in words]
            if s == k:
                assert any(want.accepted for want in wants) and not all(want.accepted for want in wants)
            for w, want in zip(words, wants):
                assert_run(t, w, s, 1, want)
                assert_trace(t, w, find_accepting_trace(t, w, s, 1), want, (s, w))

    def test_report_at_every_lane_count(self, fuzz_machines):
        # below, at and above a constant bound k, and without one: the set
        # that LaneNfa(t, s) reaches on a word reports as s sweeps of the tapes
        cases = [(t, k + 1, WORDS_TO_6) for t, k in fuzz_machines]
        for name in ("e(2,3)", "e(3,2)", "block(2)"):
            make, k, words = LANE_FAMILIES[name]
            cases.append((make(), k + 1, words))
        for name in ("copy", "uexpo"):
            make, alphabet, max_len, _ = FAMILIES[name]
            cases.append((make(), 3, words_to(alphabet, max_len)))
        for t, most, words in cases:
            for s in range(1, most + 1):
                n = LaneNfa(t, s)
                for w in words:
                    cur = frozenset((n.initial,))
                    for x in w:
                        cur = _set_step(n, cur, n.alphabet.index(x))
                    assert_lane_run(n.report(cur), ref_run(t, w, s), (t, s, w))

    def test_lazy_rows_equal_full_rows(self, fuzz_machines):
        # walks fill only the cells they read, so walking the words in two
        # orders numbers the tuples differently; by value, each discovered
        # tuple's row, acceptance and completion are those of an automaton
        # whose rows were all read up front, and those are one lane step of
        # the tuple on each symbol's character and on the endmarker's
        cases = [(t, k + 1, WORDS_TO_6) for t, k in fuzz_machines]
        for name in ("e(2,3)", "e(3,2)", "block(2)"):
            make, k, words = LANE_FAMILIES[name]
            cases.append((make(), k + 1, words))
        for t, most, words in cases:
            _q0, delta, acc = t._indexed
            end, *codes = _encode(t, (t.endmarker, *t.input_alphabet))
            for s in range(1, most + 1):
                full = LaneNfa(t, s)
                want = rows_by_value(full, core._bfs((full.initial,), core._edges(full))[0])
                for value, (cells, accepting, completes) in want.items():
                    ends = core._lane_step(delta, value, end)
                    assert cells == tuple(tuple(dict.fromkeys(p for p, _y in core._lane_step(delta, value, x)))
                                          for x in codes), (t, s, value)
                    assert accepting == any(acc[q] for p, _y in ends for q in p), (t, s, value)
                    assert completes == any(p[-1] != core._DUMMY_STATE for p, _y in ends), (t, s, value)
                reports = []
                for order in (words, words[::-1]):
                    n = LaneNfa(t, s)
                    reports.append(dict(zip(order, map(n.walk, order))))
                    got = rows_by_value(n, range(n.discovered))
                    assert got == {value: want[value] for value in got}, (t, s)
                assert reports[0] == reports[1], (t, s)

    def test_rows_form_no_cycle_with_their_automaton(self):
        # a row reaches its automaton through a weak proxy, so an automaton
        # whose walks filled rows is freed by reference counting alone
        make, k, words = LANE_FAMILIES["e(2,3)"]
        n = LaneNfa(make(), k)
        for w in words:
            n.walk(w)
        assert n.discovered > 1
        freed = weakref.ref(n)
        gc.disable()
        try:
            del n
            assert freed() is None
        finally:
            gc.enable()

    def test_traces_take_the_lane_walk(self, monkeypatch):
        # a trace within the lane walk's budgets searches no tape, and takes
        # the walk run takes, at its own lane count
        t, w = gen_e(2, 3), e_words(2, 3)[-2]
        monkeypatch.setattr(core, "_search", None)
        assert_trace(t, w, find_accepting_trace(t, w, 4), ref_run(t, w, 4), w)
        assert list(t._lane_walk) == [4]
        assert run(t, w, 3).accepted and list(t._lane_walk) == [4, 3]

    def test_traces_do_not_depend_on_earlier_calls(self, monkeypatch):
        # tuple numbers and set order follow the words a walk saw first;
        # traces must not, nor the memo caps that clear what it kept
        make, k, words = LANE_FAMILIES["e(2,3)"]
        words = [w for w in words if ref_run(make(), w, k).accepted]
        fresh = [find_accepting_trace(make(), w, s) for w in words for s in (k, k + 1)]
        t = make()
        for w in words[::-1]:
            run(t, w, k + 1)
            run(t, w, k)
        assert [find_accepting_trace(t, w, s) for w in words for s in (k, k + 1)] == fresh
        monkeypatch.setattr(core, "_LIVE_MEMO_CAP", 2)
        t = make()
        assert [find_accepting_trace(t, w, s) for w in words for s in (k, k + 1)] == fresh
        assert all(len(n._sets) <= 2 and len(n._trace_memo) <= 2 for n in t._lane_walk.values())

    def test_validator_fails_mutated_traces(self, monkeypatch):
        # a trace whose first sweep writes back what it read at one cell
        # fails assert_trace, and so does every trace of a walk whose lane
        # chains drop lane 1's written character, or whose chains at a fork
        # carry another branch's writes (a predecessor's chain that does not
        # lead to the tuple chosen)
        t, k = gen_e(2, 3), 3
        words = [w for w in words_to("ab", 8) if ref_run(t, w, k).accepted]
        for w in words:
            trace, want = find_accepting_trace(t, w, k), ref_run(t, w, k)
            assert_trace(t, w, trace, want, w)
            i = next(i for i, (x, y) in enumerate(zip(trace[1], trace[0])) if x != y)
            dropped = [trace[0], trace[1][:i] + trace[0][i:i + 1] + trace[1][i + 1:]] + trace[2:]
            with pytest.raises(AssertionError):
                assert_trace(t, w, dropped, want, w)
        chains = core._lane_chains
        mutants = {
            "dropped": lambda delta, state, x: [
                (lanes, (x,) + out[1:]) for lanes, out in chains(delta, state, x)],
            "crossed": lambda delta, state, x: [
                (lanes, out) for (lanes, _), (_, out) in zip(
                    chains(delta, state, x), chains(delta, state, x)[1:] + chains(delta, state, x)[:1])],
        }
        for name, mutant in mutants.items():
            monkeypatch.setattr(core, "_lane_chains", mutant)
            t, failed = gen_e(2, 3), 0
            for w in words:
                try:
                    assert_trace(t, w, find_accepting_trace(t, w, k), ref_run(t, w, k), w)
                except AssertionError:
                    failed += 1
            assert failed == len(words), name

    def test_budgets_outside_the_walk(self):
        # no sweep builds no LaneNfa, whose lane count must be positive;
        # negative budgets and tape caps below 1 raise as the search does
        t, w = gen_e(2, 3), tuple("baaaaaaa")
        assert run(t, w, 0) == ref_run(t, w, 0)
        assert find_accepting_trace(t, w, 0) is None
        assert not t._lane_walk
        for call in (run, find_accepting_trace):
            with pytest.raises(ValueError, match="max_sweeps must be >= 0"):
                call(t, w, -1)
            with pytest.raises(ValueError, match="tape_cap >= 1"):
                call(t, w, 3, 0)
        assert not t._lane_walk

    def test_lanes_are_the_budget_not_the_bound(self):
        # e(2,3) under a false bound of 2 rejects b a^7 at 2 sweeps and
        # accepts it at 3, which walks three lanes whatever the bound says
        t, w = replace(gen_e(2, 3), sweep_bound=2), tuple("baaaaaaa")
        assert run(t, w, 2) == RunReport(False, None, 0, False)
        assert run(t, w, 3) == RunReport(True, 3, 0, False)
        assert_trace(t, w, find_accepting_trace(t, w, 3), ref_run(t, w, 3), w)
        assert sorted(t._lane_walk) == [2, 3]

    def test_tuple_cap_falls_back_to_the_tape_search(self, monkeypatch):
        # e(2,3) has 9 lane tuples; past 4, the next step missing the memo
        # leaves the word to the tape search, whose report and trace are
        # the reference's
        monkeypatch.setattr(core, "_LANE_TUPLE_CAP", 4)
        t, words = gen_e(2, 3), e_words(2, 3)
        searched = 0
        for w in words:
            report, want = run(t, w, 3), ref_run(t, w, 3)
            trace = find_accepting_trace(t, w, 3)
            if report.tapes_explored:
                searched += 1
                assert report == want, w
                assert trace == ref_find_accepting_trace(t, w, 3), w
            else:
                assert_lane_run(report, want, w)
                assert_trace(t, w, trace, want, w)
        assert 0 < searched < len(words)
        assert t._lane_walk[3].discovered < 9

    def test_memo_cleared_mid_word(self, monkeypatch):
        # a cap of 2 empties the set memo on most misses
        monkeypatch.setattr(core, "_LIVE_MEMO_CAP", 2)
        make, k, words = LANE_FAMILIES["e(3,4)"]
        t = make()
        for w in words[::-1]:
            assert_lane_run(run(t, w, k), ref_run(t, w, k), w)
            assert len(t._lane_walk[k]._sets) <= 2


class TestWarmMemo:
    """One machine object answers word after word, so the live pass's
    masks and the fork memo carry entries over from earlier words.  Words
    go longest first: short words meet entries that long ones left."""

    def test_lba_copy_every_word(self):
        make, alphabet, max_len, sweeps = FAMILIES["lba(copy)"]
        t = make()
        words = [w for n in range(max_len + 1) for w in itertools.product(alphabet, repeat=n)]
        assert_same_runs(t, words[::-1], sweeps, (100_000,))
        assert t._forks

    def test_d_corpus(self):
        t, sweeps = gen_d(), FAMILIES["d"][3]
        assert_same_runs(t, _d_corpus(2)[:200][::-1], sweeps, (100_000,))
        assert t._forks

    def test_fuzz_machines(self, fuzz_machines):
        for t, k in fuzz_machines:
            assert_same_runs(t, WORDS_TO_6[::-1], k + 1, (500,))

    def test_sweep_reports_every_halt_after_a_run(self):
        # the tape of test_core's every-choice-dead case: a warm memo holds
        # the fork with no live choice, yet sweep() keeps every branch
        t = compile_lba(lba_copy())
        assert run(t, tuple("ab$ab"), 80).accepted
        tape = ("[_.>|_.a]", "[_.b]", "[_.$]", "[_.a]", "[_.b]", "[s1.<]")
        assert kernel_sweep(t, tape) == []
        assert any(not kept for kept, _ in t._forks.values())
        outcomes = sweep(t, tape)
        assert len(outcomes) == 46 and all(isinstance(o, Stuck) for o in outcomes)
        assert outcomes == ref_sweep(t, tape)


class TestKernelOrder:
    """``_search`` reads ``_sweep``'s pairs in order: the first accepting
    pair ends the trace, and the next round's tapes, where a tape cap
    cuts, come in that order.  Lone walks split at forks writing distinct
    symbols must keep frontier order."""

    def test_fuzz_machines(self, fuzz_machines):
        rng = random.Random(7)
        for t, _ in fuzz_machines:
            assert_same_order(t, [t.initial_tape(w) for w in WORDS_TO_6])
            assert_same_order(t, random_tapes(rng, t, 20, 60))

    def test_wide_forks(self):
        # fuzz machines fork two ways at most; here up to four ways, so
        # the order of the walks left waiting shows
        rng = random.Random(11)
        states, symbols = ("s0", "s1", "s2", "s3"), ("a", "b", "c", "<")
        for _ in range(60):
            trans = {(q, x): tuple(dict.fromkeys(
                         (rng.choice(states), rng.choice(symbols)) for _ in range(rng.randint(1, 4))))
                     for q in states for x in symbols if rng.random() < 0.8}
            t = Transducer(states, ("a", "b"), symbols[:3] + ("<",), "<", "s0",
                           (rng.choice(states),), trans)
            assert_same_order(t, random_tapes(rng, t, 10, 30))

    @pytest.mark.parametrize("n,k", [(2, 3), (3, 2)])
    def test_e_long_words(self, n, k):
        # every b of the first sweep forks into two symbols: many splits
        t, rng = gen_e(n, k), random.Random(n * 10 + k)
        words = [tuple(rng.choice("abb") for _ in range(m)) for m in (201, 233, 260)]
        words.append(("b",) * 210)
        assert_same_order(t, [t.initial_tape(w) for w in words], k)

    def test_d_corpus(self):
        t = gen_d()
        words = _d_corpus(2)[::16]
        assert_same_order(t, [t.initial_tape(w) for w in words], FAMILIES["d"][3])

    def test_lba_copy(self):
        make, alphabet, max_len, sweeps = FAMILIES["lba(copy)"]
        t = make()
        words = [w for n in range(max_len) for w in itertools.product(alphabet, repeat=n)]
        assert_same_order(t, [t.initial_tape(w) for w in words], sweeps)


def assert_kernel_edges(t, tapes, sweeps, rounds=2, deep=None):
    """``_sweep``'s pairs in order, ``sweep``'s outcomes, and runs and traces
    from each tape's word (the tape without its last cell), all against the
    references; ``_sweep`` skips identity runs only on tapes of
    ``_SKIP_TAPE`` cells or more.  The sweeps after the first, in the order
    check and in runs and traces, start only from the tapes in ``deep``
    (every tape when None): later sweeps of a forking machine can keep
    exponentially many tapes."""
    assert all(len(tape) >= core._SKIP_TAPE for tape in tapes)
    deep = tapes if deep is None else deep
    assert_same_order(t, [tape for tape in tapes if tape not in deep])
    assert_same_order(t, deep, rounds)
    assert_same_sweeps(t, tapes)
    words = [tape[:-1] for tape in deep if t.input_set.issuperset(tape[:-1])]
    assert_same_runs(t, words, sweeps, (4, 100_000))


def loop_machine() -> Transducer:
    """q writes back a, b and the endmarker, so its runs reach the end of the
    tape; c takes it to r, and d forks into q writing a and r writing b,
    which split.  r writes back a and d, returns to q on b, rewrites c as d
    and accepts at the endmarker."""
    return Transducer(
        states=("q", "r", "f"),
        input_alphabet=("a", "b", "c", "d"),
        output_alphabet=("a", "b", "c", "d", "<"),
        endmarker="<",
        initial="q",
        accepting=("f",),
        transitions={
            ("q", "a"): (("q", "a"),), ("q", "b"): (("q", "b"),), ("q", "<"): (("q", "<"),),
            ("q", "c"): (("r", "c"),), ("q", "d"): (("q", "a"), ("r", "b")),
            ("r", "a"): (("r", "a"),), ("r", "d"): (("r", "d"),), ("r", "b"): (("q", "b"),),
            ("r", "c"): (("r", "d"),), ("r", "<"): (("f", "<"),),
        },
    )


def wide_machine() -> Transducer:
    """127 input symbols after the endmarker, so their codes run through
    chr(1)..chr(127): p writes back every x_i but x_{7k+3}, which takes it to
    r, and r writes back the even ones and returns to p on the odd ones.  p
    loops on ``-``, ``\\``, ``]``, ``^``, ``[``, ``&``, ``|`` and ``~``."""
    xs = tuple(f"x{i}" for i in range(127))
    trans = {}
    for i, x in enumerate(xs):
        trans["p", x] = (("r", x),) if i % 7 == 3 else (("p", x),)
        trans["r", x] = (("r", x),) if i % 2 == 0 else (("p", x),)
    trans["p", "<"] = (("f", "<"),)
    trans["r", "<"] = (("r", "<"),)
    return Transducer(("p", "r", "f"), xs, xs + ("<",), "<", "p", ("f",), trans)


def runs_tape(rng, alphabet, cells):
    """A tape of ``cells`` cells over ``alphabet`` and the endmarker, in runs
    of one symbol of lengths 1 to 12."""
    tape = []
    while len(tape) < cells - 1:
        tape += [rng.choice(alphabet)] * rng.randint(1, 12)
    return tuple(tape[: cells - 1]) + ("<",)


class TestTapeCode:
    """The kernel on tapes in the tape code, one character per cell, where a
    lone walk copies a run of identity moves as one slice."""

    def test_identity_runs(self):
        t = loop_machine()
        ab = ("a", "b") * 40
        tapes = [
            ab + ("<",),  # one run from the first cell through the endmarker
            ("c",) + ("a",) * 70 + ("<",),  # r's run stops before the endmarker
            ("a", "c", "b") * 25 + ("<",),  # runs of one cell
            ("a", "a", "c", "b") * 20 + ("<",),  # runs of two cells
            ab[:70] + ("d",) + ab[:10] + ("<",),  # a run ending at a fork that splits
            ("c",) + ("a", "d") * 40 + ("<",),  # r's runs over two symbols
        ]
        rng = random.Random(22)
        tapes += [runs_tape(rng, "aabbc", rng.randint(64, 90)) for _ in range(30)]
        for tape in tapes[-10:]:  # two forks at most: the references keep every branch
            at = sorted(rng.sample(range(len(tape) - 1), 2))
            tapes.append(tuple("d" if i in at else x for i, x in enumerate(tape)))
        assert_kernel_edges(t, tapes, 6)
        assert set(t._runs) == {0, 1}  # both q and r skipped runs

    def test_class_metacharacters(self):
        # p's run pattern holds the characters a class treats specially
        t = wide_machine()
        loops = t._rows[0][t._code[0]["x0"]][3]
        assert set("-\\]^[&|~") <= loops
        rng = random.Random(95)
        xs = t.input_alphabet
        tapes = [runs_tape(rng, xs, rng.randint(64, 120)) for _ in range(40)]
        tapes.append(tuple(xs[:100]) + ("<",))
        assert_kernel_edges(t, tapes, 4)
        assert 0 in t._runs

    def test_codes_above_255(self):
        # the compiled copy LBA has 554 symbols; tapes met by runs of long
        # words and random ones hold cells coded above chr(255)
        t = compile_lba(lba_copy())
        u = ("a", "b") * 16
        words = [u + ("$",) + u, u + ("$",) + u[:-1] + ("a",)]
        tapes: dict = {}
        for w in words:
            for _, _, _, frontier in core._search(t, _encode(t, t.initial_tape(w)), 60, 2_000):
                tapes.update(dict.fromkeys(_decode(t, tape) for tape in frontier or ()))
        rng = random.Random(7)
        high = [x for x in t.output_alphabet if t._code[0][x] > "\xff"]
        for tape in list(tapes)[::25]:
            cells = list(tape)
            for i in rng.sample(range(len(cells) - 1), 3):
                cells[i] = rng.choice(high)
            if most_runs(t, cells) <= 300:
                tapes[tuple(cells)] = None
        tapes = list(tapes)
        assert any(max(_encode(t, tape)) > "\xff" for tape in tapes)
        assert_same_order(t, tapes)
        assert_same_sweeps(t, tapes)
        assert_same_runs(t, words, 4 * len(words[0]) ** 2, (100_000,))
        assert t._runs

    @settings(max_examples=40, deadline=None)
    @given(names=st.lists(st.text(".^$*+?{}[]\\|()-&~", min_size=1, max_size=3),
                          min_size=3, max_size=8, unique=True),
           seed=st.integers(0, 2**16))
    def test_symbol_names_with_metacharacters(self, names, seed):
        rng = random.Random(seed)
        *inputs, end = names
        states = ("s0", "s1", "s2")
        trans = {}
        for q in states:
            for x in names:
                r = rng.random()
                if r < 0.6:
                    trans[q, x] = ((q, x),)
                elif r < 0.9:
                    trans[q, x] = ((rng.choice(states), rng.choice(names)),)
                elif r < 0.95:
                    trans[q, x] = ((rng.choice(states), rng.choice(names)),
                                   (rng.choice(states), rng.choice(names)))
        t = Transducer(states, tuple(inputs), tuple(names), end, "s0", ("s2",), trans)
        tapes = [tape[:-1] + (end,) for tape in (runs_tape(rng, inputs, rng.randint(64, 80)) for _ in range(6))]
        tapes = [tape for tape in tapes if most_runs(t, tape) <= 300]
        assert_kernel_edges(t, tapes, 3, deep=[tape for tape in tapes if rounds_fit(t, tape, 3, 3_000)])
