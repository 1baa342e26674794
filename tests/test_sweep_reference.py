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

import itertools
import random
from collections import Counter
from typing import Callable, Iterable, Optional, Sequence

import pytest

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
    gen_copy,
    gen_d,
    gen_e,
    gen_uexpo,
    gen_unary,
    identity_constructor,
    lba_anbn,
    lba_copy,
    run,
    sweep,
)
from iufst.cli import _d_corpus
from iufst.core import DEFAULT_TAPE_CAP, Tape, Word, _sweep

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
    for w in words:
        for cap in tape_caps:
            assert run(t, w, max_sweeps, cap) == ref_run(t, w, max_sweeps, cap), (w, cap)
            assert (find_accepting_trace(t, w, max_sweeps, cap)
                    == ref_find_accepting_trace(t, w, max_sweeps, cap)), (w, cap)


def assert_same_sweeps(t, tapes):
    for tape in tapes:
        assert sweep(t, tape) == ref_sweep(t, tape), tape


def assert_same_order(t, tapes, rounds=1):
    """``_sweep`` lists the reference's pairs in its order, with and
    without a ``stuck`` list, on ``tapes`` and on the non-accepting
    outputs of the next ``rounds - 1`` sweeps, each tape once."""
    acc = t._indexed[2]
    seen = set(tapes)
    for _ in range(rounds):
        nxt = []
        for tape in tapes:
            want = ref_sweep_ordered(t, tape)
            assert _sweep(t, tape) == want, tape
            assert _sweep(t, tape, []) == want, tape
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


class TestWarmMemo:
    """One machine object answers word after word, so the live pass's
    masks and the fork memo carry entries over from earlier words.  Words
    go longest first: short words meet entries that long ones left."""

    def test_lba_copy_every_word(self):
        make, alphabet, max_len, sweeps = FAMILIES["lba(copy)"]
        t = make()
        words = [w for n in range(max_len + 1) for w in itertools.product(alphabet, repeat=n)]
        assert_same_runs(t, words[::-1], sweeps, (100_000,))
        assert t._back[2]

    def test_d_corpus(self):
        t, sweeps = gen_d(), FAMILIES["d"][3]
        assert_same_runs(t, _d_corpus(2)[:200][::-1], sweeps, (100_000,))
        assert t._back[2]

    def test_fuzz_machines(self, fuzz_machines):
        for t, k in fuzz_machines:
            assert_same_runs(t, WORDS_TO_6[::-1], k + 1, (500,))

    def test_sweep_reports_every_halt_after_a_run(self):
        # the tape of test_core's every-choice-dead case: a warm memo holds
        # the fork with no live choice, yet sweep() keeps every branch
        t = compile_lba(lba_copy())
        assert run(t, tuple("ab$ab"), 80).accepted
        tape = ("[_.>|_.a]", "[_.b]", "[_.$]", "[_.a]", "[_.b]", "[s1.<]")
        assert _sweep(t, tape) == []
        assert any(not kept for kept, _ in t._back[2].values())
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
