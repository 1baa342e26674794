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
from iufst.core import renderer


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
        from tests.test_core import identity_machine

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
