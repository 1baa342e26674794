"""Sweep reduction, acceptor conversions, and DFA plumbing."""

import itertools
import random

import pytest
from conftest import dfa_complement
from test_decide import fuzz_machine, paper_families

from iufst import (
    Dfa,
    MachineError,
    Nfa,
    ResourceBudgetError,
    dfa_minimize,
    gen_block,
    gen_block_nfa,
    gen_e,
    gen_unary,
    in_e,
    in_unary,
    min_dfa,
    nfa_to_1niufst,
    nfa_to_dfa,
    predicate_to_min_dfa,
    reduced_state_universe,
    run,
    sweep_reduce,
    to_nfa,
)
from iufst.convert import _moore
from iufst.core import _bfs, renderer


class TestSweepReduce:
    def test_universe_formula(self):
        # 3 original states, 2 lanes: 1 + 3 + 9 tuples
        assert reduced_state_universe(3, 2) == 13
        red = sweep_reduce(gen_e(2, 2), 2, 2)
        assert red.meta["universe_states"] == 13
        assert red.sweep_bound == 1

    def test_universe_within_2n_pow_i(self):
        for n, k in [(2, 2), (2, 4), (3, 2)]:
            t = gen_unary(n, k) if n >= 2 else None
            for i in range(1, k + 1):
                assert reduced_state_universe(n, i) <= 2 * n**i

    def test_lane_bounds_checked(self, e22):
        with pytest.raises(MachineError):
            sweep_reduce(e22, 2, 0)
        with pytest.raises(MachineError):
            sweep_reduce(e22, 2, 3)
        with pytest.raises(MachineError):
            sweep_reduce(e22, "log", 1)

    def test_single_lane_language_equivalent(self, e22):
        red = sweep_reduce(e22, 2, 1)
        assert red.sweep_bound == 2
        for length in range(9):
            for w in itertools.product("ab", repeat=length):
                assert run(red, w, 2, 10_000).accepted == run(e22, w, 2, 10_000).accepted

    def test_full_reduction_equivalent(self, e22):
        red = sweep_reduce(e22, 2, 2)
        for length in range(10):
            for w in itertools.product("ab", repeat=length):
                assert run(red, w, 1, 10_000).accepted == in_e(2, 2, w), w

    def test_determinism_preserved(self):
        t = gen_unary(2, 4)
        for i in (1, 2, 3, 4):
            red = sweep_reduce(t, 4, i)
            assert red.is_deterministic
            for m in range(33):
                w = ("a",) * m
                assert run(red, w, red.sweep_bound, 10_000).accepted == in_unary(2, 4, w)

    def test_nondeterminism_not_introduced_spuriously(self, e21):
        assert not sweep_reduce(e21, 1, 1).is_deterministic


class TestToNfa:
    def test_state_bound(self):
        for t, n, k in [(gen_e(2, 2), 3, 2), (gen_unary(2, 3), 2, 3)]:
            nfa = to_nfa(t, k)
            assert len(nfa.states) <= 2 * n**k

    def test_unary_language(self):
        nfa = to_nfa(gen_unary(2, 3), 3)
        for m in range(33):
            assert nfa.accepts(("a",) * m) == (m % 8 == 0)

    def test_accepts_empty_word_exactly_when_machine_does(self, e21, unary22):
        assert not to_nfa(e21, 1).accepts(())
        assert to_nfa(unary22, 2).accepts(())

    def test_keeps_input_reachable_tuples_only(self):
        from conftest import reference_nfa
        from iufst import gen_block

        cases = [(gen_block(3), 3), (gen_block(5), 5), (gen_e(4, 5), 5)]
        assert [len(to_nfa(t, k).states) for t, k in cases] == [62, 303, 1025]
        assert [len(reference_nfa(t, k).states) for t, k in cases] == [153, 704, 1380]

    def test_identity_acceptor_keeps_lambda(self):
        from test_core import identity_machine

        nfa = to_nfa(identity_machine(), 1)
        assert nfa.accepts(())
        for w in [("a",), ("a", "b")]:
            assert nfa.accepts(w)


class TestPowersetAndMinimize:
    def test_powerset_bound(self, block_nfa2):
        small = Nfa(
            states=("p", "q", "r"),
            alphabet=("a",),
            initial="p",
            accepting=("r",),
            transitions={("p", "a"): ("p", "q"), ("q", "a"): ("r",)},
        )
        dfa = nfa_to_dfa(small)
        assert len(dfa.states) <= 2**3
        assert dfa.is_complete

    def test_subset_names_escape_members(self):
        # the subset of a and b is {a,b}; the subset of the state a,b is not
        nfa = Nfa(
            states=("s", "a", "b", "a,b"),
            alphabet=("x",),
            initial="s",
            accepting=("a,b",),
            transitions={("s", "x"): ("a", "b"), ("a", "x"): ("a,b",)},
        )
        dfa = nfa_to_dfa(nfa)
        assert dfa.states == ("{s}", "{a,b}", "{a\\,b}", "{}")
        name = renderer(",", ("{", "}"))
        assert dfa.states == tuple(map(name, [("s",), ("a", "b"), ("a,b",), ()]))
        assert [dfa.accepts(("x",) * m) for m in range(4)] == [False, False, True, False]

    def test_minimal_unary_dfa(self):
        nfa = to_nfa(gen_unary(2, 3), 3)
        m = dfa_minimize(nfa_to_dfa(nfa))
        assert len(m.states) == 8
        assert m.meta["complete_states"] == 8

    def test_minimize_idempotent(self, block_nfa2):
        d = nfa_to_dfa(block_nfa2)
        m1 = dfa_minimize(d)
        m2 = dfa_minimize(m1)
        assert m1.states == m2.states and m1.transitions == m2.transitions

    def test_minimal_dfas_isomorphic(self):
        # two different presentations of multiples-of-4 over a
        d1 = predicate_to_min_dfa(lambda w: len(w) % 4 == 0, ("a",), 16)
        d2 = dfa_minimize(nfa_to_dfa(to_nfa(gen_unary(2, 2), 2)))
        assert dfa_minimize(d1) == dfa_minimize(d2)

    def test_complement_and_product(self):
        d1 = predicate_to_min_dfa(lambda w: len(w) % 2 == 0, ("a",), 10)
        comp = dfa_complement(d1)
        for m in range(13):
            assert comp.accepts(("a",) * m) == (m % 2 != 0)

    def test_dead_state_counted_separately(self):
        # language {a}: the minimal complete DFA needs a dead state
        d = predicate_to_min_dfa(lambda w: w == ("a",), ("a",), 8)
        assert d.meta["complete_states"] == 3
        assert d.meta["partial_states"] == 2


def dfa_fields(d):
    return d.states, d.alphabet, d.initial, d.accepting, d.transitions, d.meta


class TestMinDfa:
    """The fused ``min_dfa`` gives what ``dfa_minimize(nfa_to_dfa(n))``
    gives, field by field and ``meta`` included, or the same budget
    error."""

    CAP = 5000

    @classmethod
    def assert_same(cls, n, label):
        """Whether both routes exceeded the cap, after asserting that
        they agree."""

        def outcome(convert):
            try:
                return dfa_fields(convert(n, cls.CAP))
            except ResourceBudgetError as err:
                return str(err)

        slow = outcome(lambda n, cap: dfa_minimize(nfa_to_dfa(n, cap)))
        assert outcome(min_dfa) == slow, label
        return isinstance(slow, str)

    def test_fuzz_corpus(self):
        rng = random.Random(20240811)
        for _ in range(200):
            t, k = fuzz_machine(rng)
            assert not self.assert_same(to_nfa(t, k), (t, k))

    def test_paper_families(self):
        capped = [self.assert_same(to_nfa(t, k), (t, k)) for t, k in paper_families()]
        capped.append(self.assert_same(gen_block_nfa(3), "block-nfa(3)"))
        # block(4), e(2,4), e(3,3), e(3,4) and the reduced e(2,3) exceed the cap
        assert capped.count(True) == 5

    def test_state_cap(self):
        nfa = to_nfa(gen_block(3), 3)
        assert len(min_dfa(nfa, state_cap=4201).states) == 2221
        with pytest.raises(ResourceBudgetError) as err:
            min_dfa(nfa, state_cap=4200)
        assert str(err.value) == "powerset construction exceeded 4200 states"


def ref_powerset(n, state_cap):
    """Subset construction over frozensets, independent of ``_powerset``:
    subsets in breadth-first discovery order (symbols in alphabet order),
    each named by ``renderer`` over its members in the NFA's state order,
    the empty subset kept, and the same budget error."""
    position = {q: i for i, q in enumerate(n.states)}
    name = renderer(",", ("{", "}"))
    start = frozenset([n.initial])
    subsets, index, moves = [start], {start: 0}, {}
    for s in subsets:
        for x in n.alphabet:
            t = frozenset(r for q in s for r in n.transitions.get((q, x), ()))
            if t not in index:
                if len(subsets) >= state_cap:
                    raise ResourceBudgetError(f"powerset construction exceeded {state_cap} states")
                index[t] = len(subsets)
                subsets.append(t)
            moves[s, x] = t
    label = {s: name(tuple(sorted(s, key=position.__getitem__))) for s in subsets}
    return Dfa(
        states=tuple(label[s] for s in subsets),
        alphabet=n.alphabet,
        initial=label[start],
        accepting=tuple(label[s] for s in subsets if s & n.accepting_set),
        transitions={(label[s], x): label[moves[s, x]] for s in subsets for x in n.alphabet},
    )


def random_nfa(rng, size, symbols):
    """A sparse NFA over ``size`` states and ``symbols`` symbols whose
    state names mix plain ones with ones ``nfa_to_dfa`` must escape."""
    marks = ["", "", ",", "{", "}", "\\", "a,b", "{x}", "\\,", "("]
    states = tuple(f"q{i}{rng.choice(marks)}" for i in range(size))
    alphabet = tuple("abcd"[:symbols])
    transitions = {}
    fork = min(0.3, 3 / size)  # keeps most powersets of wide NFAs under the test cap
    for q in states:
        for x in alphabet:
            if rng.random() < 0.8:
                transitions[q, x] = tuple(rng.choice(states) for _ in range(1 + (rng.random() < fork)))
    accepting = tuple(q for q in states if rng.random() < 0.3)
    return Nfa(states, alphabet, rng.choice(states), accepting, transitions)


class TestPowersetReference:
    """``nfa_to_dfa`` agrees with ``ref_powerset`` field by field, key
    order included, on NFAs of 1 to 140 states, whose masks span several
    int digits, and ``state_cap`` admits exactly the subset count."""

    CAP = 1500

    def test_random_nfas(self):
        rng = random.Random(20261020)
        sizes = [1, 2, 7, 8, 9, 15, 16, 17, 31, 33, 63, 64, 65, 100, 140]
        counts, escaped = [], False
        for size in sizes + [rng.randint(1, 140) for _ in range(25)]:
            n = random_nfa(rng, size, rng.randint(0, 4))
            try:
                want = dfa_fields(ref_powerset(n, self.CAP))
            except ResourceBudgetError as ref_err:
                with pytest.raises(ResourceBudgetError) as err:
                    nfa_to_dfa(n, self.CAP)
                assert str(err.value) == str(ref_err)
                continue
            got = nfa_to_dfa(n, self.CAP)
            assert dfa_fields(got) == want, size
            assert list(got.transitions) == list(want[4]), size
            escaped = escaped or any("\\" in q for q in got.states)
            count = len(got.states)
            counts.append(count)
            assert dfa_fields(nfa_to_dfa(n, count)) == want
            if count > 1:
                with pytest.raises(ResourceBudgetError) as err:
                    nfa_to_dfa(n, count - 1)
                assert str(err.value) == f"powerset construction exceeded {count - 1} states"
        # the corpus reaches past one subset, some NFAs stay under the cap,
        # and some subset names escape a member's characters
        assert len(counts) > 20 and max(counts) > 100 and escaped

    @pytest.mark.parametrize("cap", [0, -1])
    def test_state_cap_below_one(self, cap):
        # one subset is always discovered, so no cap below 1 can hold
        n = Nfa(("p",), ("a",), "p", ("p",), {("p", "a"): ("p",)})
        for convert in (nfa_to_dfa, min_dfa):
            with pytest.raises(ValueError, match="state_cap must be at least 1"):
                convert(n, state_cap=cap)
            assert len(convert(n, state_cap=1).states) == 1


def ref_moore(succ, final, initial, alphabet):
    """Reference Moore kernel: each round renumbers the signatures densely
    by first appearance, in three hashing passes, and ``_bfs`` names the
    blocks reachable from ``initial``'s breadth-first."""
    block = [int(f) for f in final]
    count = len(set(block))
    while True:
        sigs = list(zip(block, *[list(map(block.__getitem__, col)) for col in succ]))
        # number the signatures by first appearance
        renum = dict(zip(dict.fromkeys(sigs), range(len(sigs))))
        block = list(map(renum.__getitem__, sigs))
        if len(renum) == count:
            break
        count = len(renum)
    # Blocks are numbered by first appearance, so each block's first
    # member comes up in block order and stands for the block.
    rep = []
    for i, b in enumerate(block):
        if b == len(rep):
            rep.append(i)
    moves = [[block[col[i]] for i in rep] for col in succ]
    order, _ = _bfs(
        (block[initial],), lambda b: [(row[b], x) for row, x in zip(moves, alphabet)]
    )
    names = {b: f"m{i}" for i, b in enumerate(order)}
    out = Dfa(
        states=tuple(names.values()),
        alphabet=alphabet,
        initial=names[block[initial]],
        accepting=tuple(names[b] for b in order if final[rep[b]]),
        transitions={
            (names[b], x): names[row[b]] for b in order for row, x in zip(moves, alphabet)
        },
    )
    # the states that reach no accepting state form one block, which
    # rejects and keeps itself on every move; the partial count leaves it out
    dead = any(not final[rep[b]] and all(row[b] == b for row in moves) for b in order)
    out.meta["complete_states"] = len(out.states)
    out.meta["partial_states"] = len(out.states) - dead
    return out


def random_table(rng, size, symbols):
    """A complete int table of ``size`` states: a random table of ``base``
    states, each repeated as often as fits, a copy moving into any copy
    of its successor, so that copies merge; successors drawn from a few
    low states leave many states unreachable.  Acceptance is none, all or
    some."""
    base = rng.choice((size, rng.randint(1, size)))
    top = rng.choice((base, max(1, base // 8)))
    moves = [[rng.randrange(top) for _ in range(base)] for _ in range(symbols)]
    p = rng.choice((0.0, 1.0, 0.2, 0.5, 0.5))
    accept = [rng.random() < p for _ in range(base)]

    def copy_of(r):
        return r + base * rng.randrange((size - 1 - r) // base + 1)

    succ = [[copy_of(col[i % base]) for i in range(size)] for col in moves]
    final = [accept[i % base] for i in range(size)]
    return succ, final, rng.randrange(size), tuple("abcd"[:symbols])


class TestMooreReference:
    """``_moore`` agrees with ``ref_moore`` field by field, ``meta`` and
    key order included."""

    def test_random_tables(self):
        rng = random.Random(1956)
        finals = set()
        for size in [1, 2, 3, 300] + [rng.randint(1, 300) for _ in range(80)]:
            table = random_table(rng, size, rng.randint(0, 4))
            got, want = _moore(*table), ref_moore(*table)
            assert dfa_fields(got) == dfa_fields(want), table
            assert list(got.transitions) == list(want.transitions)
            finals.add(frozenset(table[1]))
        # all-final and no-final tables both came up
        assert {frozenset([True]), frozenset([False])} <= finals

    def test_empty_alphabet(self):
        for final in ([True], [False], [False, True, False]):
            got, want = _moore([], final, 0, ()), ref_moore([], final, 0, ())
            assert dfa_fields(got) == dfa_fields(want)
            assert got.meta["partial_states"] == int(final[0])


class TestMinimizeSinkRow:
    """``dfa_minimize`` sends a partial DFA's missing moves to a sink row,
    whatever its states are named, and drops unreachable states."""

    def test_partial_with_unreachable_state(self):
        d = Dfa(("p", "q", "r", "u"), ("a", "b"), "p", ("q", "u"),
                {("p", "a"): "q", ("q", "b"): "p", ("u", "a"): "u", ("r", "a"): "p"})
        assert dfa_fields(dfa_minimize(d)) == (
            ("m0", "m1", "m2"), ("a", "b"), "m0", ("m1",),
            {("m0", "a"): "m1", ("m0", "b"): "m2", ("m1", "a"): "m2", ("m1", "b"): "m0",
             ("m2", "a"): "m2", ("m2", "b"): "m2"},
            {"complete_states": 3, "partial_states": 2},
        )

    def test_state_named_sink(self):
        d = Dfa(("p", "sink", "q"), ("a", "b"), "p", ("q",),
                {("p", "a"): "sink", ("sink", "b"): "q", ("q", "a"): "p"})
        assert dfa_fields(dfa_minimize(d)) == (
            ("m0", "m1", "m2", "m3"), ("a", "b"), "m0", ("m3",),
            {("m0", "a"): "m1", ("m0", "b"): "m2", ("m1", "a"): "m2", ("m1", "b"): "m3",
             ("m2", "a"): "m2", ("m2", "b"): "m2", ("m3", "a"): "m0", ("m3", "b"): "m2"},
            {"complete_states": 4, "partial_states": 3},
        )


class TestNfaEmbedding:
    def test_single_word_language(self):
        nfa = Nfa(
            states=("p", "q"),
            alphabet=("a",),
            initial="p",
            accepting=("q",),
            transitions={("p", "a"): ("q",)},
        )
        t = nfa_to_1niufst(nfa)
        assert len(t.states) == 3
        for m in range(7):
            assert run(t, ("a",) * m, 1, 1000).accepted == (m == 1)

    def test_state_count_exact(self, block_nfa2):
        t = nfa_to_1niufst(block_nfa2)
        assert len(t.states) == len(block_nfa2.states) + 1

    def test_roundtrip_language(self, block_nfa2):
        t = nfa_to_1niufst(block_nfa2)
        back = to_nfa(t, 1)
        for length in range(9):
            for w in itertools.product("01#", repeat=length):
                assert back.accepts(w) == block_nfa2.accepts(w), w


class TestDfaTokens:
    def test_symbol_with_whitespace_rejected(self):
        from iufst import Dfa

        with pytest.raises(MachineError, match="symbol must be a non-empty whitespace-free"):
            Dfa(("p",), ("a b",), "p", ("p",), {("p", "a b"): "p"})

    def test_accepts_checks_the_whole_word_first(self):
        from iufst import Dfa, MalformedInputError

        # no move on b, so a symbol-by-symbol check would stop before zz
        d = Dfa(("p",), ("a", "b"), "p", ("p",), {("p", "a"): "p"})
        with pytest.raises(MalformedInputError, match=r"symbols \['zz'\] outside the alphabet"):
            d.accepts(("b", "zz"))
