"""Brute-force oracle plumbing."""

import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iufst import (
    Dfa,
    MachineError,
    MalformedInputError,
    OracleBudgetError,
    Transducer,
    compare_languages,
    compare_on_words,
    compile_lba,
    dfa_minimize,
    enumerate_words,
    gen_block,
    gen_block_nfa,
    gen_copy,
    gen_d,
    gen_e,
    gen_unary,
    in_block,
    in_copy,
    in_d,
    in_e,
    in_unary,
    lba_copy,
    nfa_to_dfa,
    predicate_to_min_dfa,
    run,
)
from iufst.cli import _d_corpus
from iufst.core import verdict
from iufst.oracle import _known_answers, make_acceptor

from test_decide import fuzz_machine


class TestEnumerate:
    def test_binary_order(self):
        words = list(enumerate_words(("a", "b"), 2))
        assert words == [
            (), ("a",), ("b",),
            ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"),
        ]

    def test_unary_count(self):
        assert len(list(enumerate_words(("a",), 3))) == 4

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 7))
    def test_count_law(self, sigma, max_len):
        alphabet = tuple(f"s{i}" for i in range(sigma))
        count = len(list(enumerate_words(alphabet, max_len)))
        assert count == (sigma ** (max_len + 1) - 1) // (sigma - 1)


class TestCompare:
    def test_self_comparison_empty(self, e21):
        assert compare_languages((e21, 1), (e21, 1), ("a", "b"), 6) == []

    def test_machine_vs_predicate(self, e21):
        assert compare_languages((e21, 1), lambda w: in_e(2, 1, w), ("a", "b"), 10) == []

    def test_disagreements_in_order(self):
        one = lambda w: w == ("a",)
        two = lambda w: w in (("a",), ("a", "a"))
        assert compare_languages(one, two, ("a",), 5) == [("a", "a")]

    def test_symmetry(self, e21, e22):
        a = compare_languages((e21, 1), (e22, 2), ("a", "b"), 7)
        b = compare_languages((e22, 2), (e21, 1), ("a", "b"), 7)
        assert a == b and a  # the languages differ

    def test_answers_compared_by_truth_value(self):
        # a predicate may answer None or a match object
        assert compare_languages(lambda w: None, lambda w: False, ("a",), 2) == []
        pred = lambda w: re.fullmatch("(0|1)+", "".join(w)) and False
        assert compare_languages(gen_block_nfa(2), pred, "01#", 1) == []
        match = lambda w: re.fullmatch("a*", "".join(w))
        assert compare_on_words(match, lambda w: True, [(), ("a",), ("a", "a")]) == []
        assert compare_on_words(lambda w: None, lambda w: False, [(), ("a",)]) == []

    def test_budget_error_on_unbounded_inconclusive(self):
        with pytest.raises(OracleBudgetError):
            compare_languages(spin_machine(), lambda w: False, ("a",), 30, tape_cap=50)

    @pytest.mark.parametrize(
        "call,error,message",
        [
            (lambda: make_acceptor(5), MachineError, "cannot interpret 5 as a language acceptor"),
            # a binary counter passes 32 tapes on 5 cells, more than 5 + 8 sweeps
            (lambda: make_acceptor(counter_machine())(("a",) * 5), OracleBudgetError,
             "sweep budget 13 inconclusive on word of length 5"),
            (lambda: predicate_to_min_dfa(even, ("a",), 4, prefix_len=0), MachineError,
             "prefix_len must lie in 1..max_len"),
            (lambda: predicate_to_min_dfa(even, ("a",), 4, prefix_len=5), MachineError,
             "prefix_len must lie in 1..max_len"),
        ],
        ids=["not-an-acceptor", "sweep-budget", "prefix-len-0", "prefix-len-past-max-len"],
    )
    def test_messages(self, call, error, message):
        with pytest.raises(error) as err:
            call()
        assert type(err.value) is error and str(err.value) == message


def spin_machine():
    return Transducer(
        states=("q", "f"),
        input_alphabet=("a",),
        output_alphabet=("a", "b", "<"),
        endmarker="<",
        initial="q",
        accepting=("f",),
        transitions={
            ("q", "a"): (("q", "b"), ("q", "a")),
            ("q", "b"): (("q", "a"), ("q", "b")),
            ("q", "<"): (("q", "<"),),
        },
    )


def counter_machine():
    """A deterministic binary counter, least significant cell first (a is 0,
    b is 1), adding one per sweep and never accepting; no sweep bound."""
    return Transducer(
        states=("c", "n"),
        input_alphabet=("a",),
        output_alphabet=("a", "b", "<"),
        endmarker="<",
        initial="c",
        accepting=(),
        transitions={
            ("c", "a"): (("n", "b"),),
            ("c", "b"): (("c", "a"),),
            ("n", "a"): (("n", "a"),),
            ("n", "b"): (("n", "b"),),
            ("c", "<"): (("c", "<"),),
            ("n", "<"): (("n", "<"),),
        },
    )


def per_word(a, b, alphabet, max_len, tape_cap=200_000):
    """The reference comparison: every word asked of both acceptors."""
    fa = make_acceptor(a, tape_cap=tape_cap)
    fb = make_acceptor(b, tape_cap=tape_cap)
    return [w for w in enumerate_words(alphabet, max_len) if fa(w) != fb(w)]


def outcome(compare, *args, **kwargs):
    try:
        return compare(*args, **kwargs)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def assert_same(*args, **kwargs):
    expected = outcome(per_word, *args, **kwargs)
    assert outcome(compare_languages, *args, **kwargs) == expected, args
    return expected


@pytest.fixture(scope="module")
def fuzz_machines():
    """The 200 seeded machines of the decide tests' fuzz corpus."""
    rng = random.Random(20240811)
    return [fuzz_machine(rng) for _ in range(200)]


def even(w):
    return len(w) % 2 == 0


class TestWordTreeWalk:
    """``compare_languages`` skips words that the lane walk alone decides
    and still returns what asking every word of both sides gives."""

    def test_fuzz_corpus_pairs_and_bare_machines(self, fuzz_machines):
        differing = 0
        for (t1, k1), (t2, k2) in zip(fuzz_machines, fuzz_machines[1:] + fuzz_machines[:1]):
            differing += bool(assert_same((t1, k1), (t2, k2), ("a", "b"), 6))
            assert_same(t1, even, ("b", "a"), 6)
            assert_same(even, t1, ("a",), 6)
        assert differing > 100

    @pytest.mark.parametrize("name, make, alphabet, max_len, pred", [
        ("block(2)", lambda: gen_block(2), "01#", 7, lambda w: in_block(2, w)),
        ("copy", gen_copy, "ab$", 7, in_copy),
        ("d", gen_d, "ab01", 6, in_d),
        ("e(2,3)", lambda: gen_e(2, 3), "ab", 9, lambda w: in_e(2, 3, w)),
        # unbounded: len + 8 sweeps leave words of length 3 inconclusive
        ("lba(copy)", lambda: (compile_lba(lba_copy()), 80), "ab$", 5, in_copy),
    ])
    def test_paper_families(self, name, make, alphabet, max_len, pred):
        a = make()
        assert assert_same(a, pred, alphabet, max_len) == []
        assert assert_same(a, even, alphabet, max_len)
        t = a[0] if isinstance(a, tuple) else a
        assert_same(a, (t, 1), alphabet, max_len)

    def test_errors_match(self, fuzz_machines):
        t, k = fuzz_machines[0]
        block = gen_block(2)
        for a, alphabet in [(t, ("a", "b", "<")), (block, ("0", "_", "1")), ((t, k), ("a", "<"))]:
            assert assert_same(a, even, alphabet, 3)[0] is MalformedInputError
        assert assert_same(t, even, ("a", "b"), 3, tape_cap=0)[0] is ValueError
        assert assert_same((block, 2), (block, -1), "01#", 3)[0] is ValueError
        spin = assert_same(spin_machine(), lambda w: False, ("a",), 30, tape_cap=50)
        assert spin[0] is OracleBudgetError

    def test_zero_sweeps_and_empty_alphabet(self, fuzz_machines):
        block = gen_block(2)
        assert assert_same((block, 0), lambda w: False, "01#", 4) == []
        assert assert_same((block, 2), lambda w: True, (), 4) == [()]
        assert assert_same((block, 2), lambda w: True, "01#", -1) == []
        for t, k in fuzz_machines[:20]:
            assert_same((t, 0), (t, k), ("a", "b"), 4)
            assert_same((t, k), even, (), 3)


def partial_dfa():
    """A DFA with missing moves: a* b, then nothing."""
    return Dfa(states=("p", "f"), alphabet=("a", "b"), initial="p", accepting=("f",),
               transitions={("p", "a"): "p", ("p", "b"): "f"})


class TestAutomatonWalk:
    """An ``Nfa`` or ``Dfa`` acceptor is answered through its ``_view``,
    never asked, and gives what asking every word gives; where the walk
    is off, it is asked and raises at the same word."""

    @pytest.mark.parametrize("make, alphabet, max_len, pred", [
        (lambda: gen_block_nfa(2), "01#", 7, lambda w: in_block(2, w)),
        (lambda: nfa_to_dfa(gen_block_nfa(2)), "#10", 7, lambda w: in_block(2, w)),
        (partial_dfa, "ab", 6, lambda w: w[-1:] == ("b",) and "b" not in w[:-1]),
    ], ids=["nfa", "dfa", "partial-dfa"])
    def test_answers_without_accepts(self, monkeypatch, make, alphabet, max_len, pred):
        fa = make()
        expected = [per_word(fa, b, alphabet, max_len) for b in (pred, even)]
        assert expected[0] == [] and expected[1]

        def refuse(self, word):
            raise AssertionError(f"accepts asked of {word!r}")

        monkeypatch.setattr(type(fa), "accepts", refuse)
        assert compare_languages(fa, pred, alphabet, max_len) == expected[0]
        assert compare_languages(even, fa, alphabet, max_len) == expected[1]

    def test_walk_off_raises_at_the_same_word(self):
        for fa in [gen_block_nfa(2), nfa_to_dfa(gen_block_nfa(2)), partial_dfa()]:
            for alphabet in [("0", "_", "1"), ("a", "b", "<")]:
                error = assert_same(fa, even, alphabet, 3)[0]
                assert error is MalformedInputError
            assert assert_same(fa, lambda w: True, (), 3) == [()]


def run_answer(a, w, tape_cap=200_000):
    """What one ``run`` answers on ``w`` for the transducer acceptor ``a``,
    under the budget ``make_acceptor`` gives it: True, False or None
    (inconclusive), with no walk and nothing learned from other words."""
    t, k = a if isinstance(a, tuple) else (a, a.sweep_bound if isinstance(a.sweep_bound, int) else None)
    sweeps = k if k is not None else len(w) + 8
    return verdict(t, run(t, w, sweeps, tape_cap), sweeps, k)


def walk_against_run(a, alphabet, max_len):
    """Check every answer the lane-NFA walk gives against ``run`` on the
    same word; return how many words the walk answered."""
    answered = 0
    for w, known in zip(enumerate_words(alphabet, max_len),
                        _known_answers(a, alphabet, max_len, 200_000)):
        if known is not None:
            answered += 1
            assert known == run_answer(a, w), (a, w)
    return answered


def word_count(alphabet, max_len):
    return len(list(enumerate_words(alphabet, max_len)))


class TestLaneWalk:
    """The walk answers every word of a machine with a declared constant
    bound, as ``run`` does, and walks at most three lanes of a tagged
    bound."""

    def test_fuzz_corpus(self, fuzz_machines):
        everything = word_count("ab", 6)
        for t, k in fuzz_machines:
            for a in [(t, k), (t, k + 1), t]:
                assert walk_against_run(a, "ab", 6) == everything
            assert walk_against_run((t, k), "ba", 4) == word_count("ba", 4)

    @pytest.mark.parametrize("make, alphabet, max_len", [
        (lambda: gen_e(2, 3), "ab", 9),
        (lambda: gen_block(2), "01#", 7),
        (lambda: gen_block(3), "#10", 8),
        (lambda: gen_unary(2, 3), "a", 60),
        (lambda: gen_unary(3, 2), "a", 60),
    ])
    def test_constant_sweep_families(self, make, alphabet, max_len):
        t = make()
        assert isinstance(t.sweep_bound, int)
        assert walk_against_run(t, alphabet, max_len) == word_count(alphabet, max_len)
        assert walk_against_run((t, 1), alphabet, max_len) == word_count(alphabet, max_len)

    @pytest.mark.parametrize("make, alphabet, max_len", [
        (gen_copy, "ab$", 7),
        (gen_d, "ab01", 7),
    ])
    def test_tagged_families_filter_dead_prefixes(self, make, alphabet, max_len):
        answered, words = walk_against_run(make(), alphabet, max_len), word_count(alphabet, max_len)
        # three lanes answer every d word up to length 7, not every copy word
        assert answered == words if make is gen_d else 0 < answered < words

    def test_tagged_bound_walks_at_most_three_lanes(self, monkeypatch):
        import iufst.oracle

        made = []
        lane_nfa = iufst.oracle.LaneNfa

        def record(t, k):
            made.append(k)
            if not isinstance(t.sweep_bound, int) and k > 3:
                raise AssertionError(f"{k} lanes for bound {t.sweep_bound!r}")
            return lane_nfa(t, k)

        monkeypatch.setattr(iufst.oracle, "LaneNfa", record)
        lba = compile_lba(lba_copy())
        assert compare_languages((lba, 80), in_copy, "ab$", 4) == []
        assert compare_languages((lba, 40), gen_copy(), "ab$", 4) == []
        assert compare_languages((gen_e(2, 3), 5), (gen_e(2, 2), 4), "ab", 4)
        assert made == [3, 3, 3, 5, 4]

    def test_pair_walks_no_more_lanes_than_its_k(self):
        # three lanes would accept the copy words that need a third sweep
        t = gen_copy()
        words = list(enumerate_words("ab$", 8))
        at = {s: [run(t, w, s).accepted for w in words] for s in (2, 3)}
        assert at[2] != at[3]
        assert list(_known_answers((t, 2), "ab$", 8, 200_000)) == at[2]
        assert compare_languages((t, 2), lambda w: run(t, w, 2).accepted, "ab$", 8) == []

    def test_constant_bound_needs_no_tape_budget(self):
        # under tape_cap=1, a run at 9 sweeps, past the lane walk's
        # budgets, searches tapes and hits the cap on ba, which the oracle
        # turns into OracleBudgetError; the walk keeps no tapes and answers
        e23 = gen_e(2, 3)
        pred = lambda w: in_e(2, 3, w)
        with pytest.raises(OracleBudgetError, match="tape cap 1 hit on word of length 2"):
            per_word((e23, 9), pred, "ab", 6, tape_cap=1)
        assert compare_languages(e23, pred, "ab", 6, tape_cap=1) == []
        assert compare_languages(pred, (e23, 3), "ab", 6, tape_cap=1) == []


class TestLearnedDepth:
    """A bare nondeterministic machine without an int bound walks each word
    at the depth of its first accepted run, where the budget covers it, and
    answers what ``run`` answers."""

    def routes(self, monkeypatch):
        """Record the oracle's lane walks as (word length, depth) and its
        tape searches as word lengths."""
        import iufst.oracle

        walks, runs = [], []
        walk, real = iufst.oracle._run_lanes, iufst.oracle.run
        monkeypatch.setattr(iufst.oracle, "_run_lanes",
                            lambda t, w, s: walks.append((len(w), s)) or walk(t, w, s))
        monkeypatch.setattr(iufst.oracle, "run", lambda t, w, *a: runs.append(len(w)) or real(t, w, *a))
        return walks, runs

    def test_d_corpus_agrees_with_run(self, monkeypatch):
        t, corpus = gen_d(), _d_corpus(2)
        expected = [run_answer(t, w) for w in corpus]
        walks, runs = self.routes(monkeypatch)
        ask = make_acceptor(t)
        assert [ask(w) for w in corpus] == expected
        assert expected.count(True) == expected.count(False)
        # the first member learns 11 sweeps; the walk answers every other word
        assert runs == [26] and walks == [(len(w), 11) for w in corpus[1:]]

    def test_budget_below_the_depth_searches_tapes(self, monkeypatch):
        t = gen_d()
        member = _d_corpus(2)[0]
        short = list(enumerate_words("ab01", 3))
        expected = [outcome(make_acceptor(t), w) for w in short]
        walks, runs = self.routes(monkeypatch)
        ask = make_acceptor(t)
        assert ask(member)
        assert [outcome(ask, w) for w in short] == expected
        # a budget of len + 8 sweeps covers 11 lanes from length 3 on
        assert walks == [(3, 11)] * 4 ** 3
        assert runs == [len(member)] + [len(w) for w in short if len(w) < 3]

    def test_deterministic_machine_walks_no_deeper(self, monkeypatch):
        t = gen_copy()
        u = ("a", "b", "b", "a", "b")
        corpus = [u + ("$",) + u, u + ("$",) + u[::-1], ("a", "$", "a"), ("$",)]
        walks, runs = self.routes(monkeypatch)
        assert compare_on_words(t, in_copy, corpus) == []
        # three lanes leave 40 of these words open, and each runs
        assert compare_languages(t, in_copy, "ab$", 8) == []
        assert walks == [] and len(runs) == len(corpus) + 40
        assert all(s <= 3 for s in t._lane_walk)

    def test_tagged_fuzz_machines_agree_with_run(self, monkeypatch, fuzz_machines):
        tagged = [replace(t, sweep_bound="linear") for t, _k in fuzz_machines if not t.is_deterministic]
        words = list(enumerate_words("ab", 6))
        expected = [[run_answer(t, w) for w in words] for t in tagged]
        walks, runs = self.routes(monkeypatch)
        for t, answers in zip(tagged, expected):
            ask = make_acceptor(t)
            assert [outcome(ask, w) for w in words] == answers, t
        # the walks answered some words without a tape search
        assert walks and len(runs) < len(tagged) * len(words)


def ab_machine(transitions, sweep_bound="linear"):
    """A machine over a, b with states q (initial), p and f (accepting)."""
    return Transducer(
        states=("q", "p", "f"),
        input_alphabet=("a", "b"),
        output_alphabet=("a", "b", "<"),
        endmarker="<",
        initial="q",
        accepting=("f",),
        transitions=transitions,
        sweep_bound=sweep_bound,
    )


class TestFirstSweepAnswers:
    """Without an int bound, the walk answers a word when one of its first
    three sweeps accepts or they leave no fourth tape, and runs it only
    when a fourth tape exists and no sweep accepted."""

    def answers(self, monkeypatch, t, pred, max_len=6):
        """``compare_languages(t, pred)`` agrees with ``pred``; return the
        ``run`` calls it made and the walk's answers, each checked against
        ``run``."""
        import iufst.oracle

        ran = []
        real = iufst.oracle.run
        monkeypatch.setattr(iufst.oracle, "run", lambda *a: ran.append(a[1]) or real(*a))
        assert compare_languages(t, pred, "ab", max_len) == []
        monkeypatch.undo()
        assert walk_against_run(t, "ab", max_len) == word_count("ab", max_len) - len(ran)
        return ran, list(_known_answers(t, "ab", max_len, 200_000))

    def test_whole_word_read_without_an_endmarker_move(self, monkeypatch):
        # q reads every symbol and has no move on the endmarker
        t = ab_machine({("q", "a"): (("q", "a"),), ("q", "b"): (("q", "b"),)})
        ran, known = self.answers(monkeypatch, t, lambda w: False)
        assert ran == [] and set(known) == {False}

    def test_first_sweep_accepts_or_stops_short_of_the_endmarker(self, monkeypatch):
        # p means the last symbol read was b, and only p steps on the
        # endmarker, into f: a word ending in b is accepted in one sweep,
        # and any other is read to its end, where the sweep halts
        t = ab_machine({
            ("q", "a"): (("q", "a"),), ("q", "b"): (("p", "b"),),
            ("p", "a"): (("q", "a"),), ("p", "b"): (("p", "b"),), ("p", "<"): (("f", "<"),),
        }, sweep_bound=None)
        ran, known = self.answers(monkeypatch, t, lambda w: w[-1:] == ("b",))
        assert ran == [] and set(known) == {True, False}

    def test_completed_first_sweep_without_accepting_runs(self, monkeypatch):
        # q rewrites a to b and p reads b, so a sweep completes on a*b* and
        # halts inside any other word; it accepts from p.  A word a^i b^j
        # with j > 0 is accepted in one sweep, a^i with i > 0 in two, since
        # its first sweep completes in q on the tape b^i; only the empty
        # word completes every lane without accepting, and runs
        t = ab_machine({
            ("q", "a"): (("q", "b"),), ("q", "b"): (("p", "b"),), ("q", "<"): (("q", "<"),),
            ("p", "b"): (("p", "b"),), ("p", "<"): (("f", "<"),),
        })
        ran, known = self.answers(monkeypatch, t, lambda w: w != () and list(w) == sorted(w))
        assert set(known) == {True, False, None}
        assert ran == [w for w, x in zip(enumerate_words("ab", 6), known) if x is None]


class TestMinAcceptSweeps:
    def test_values(self, e22, uexpo_machine):
        for w in [("b", "a", "a", "a"), ("a", "b") + ("a",) * 7]:
            assert run(e22, w, 5).min_accept_sweeps == 2
        assert run(uexpo_machine, ("a",) * 8, 10).min_accept_sweeps == 3
        assert run(e22, ("a", "b"), 6).min_accept_sweeps is None


class TestPredicateToMinDfa:
    def test_unary_residues(self):
        d = predicate_to_min_dfa(lambda w: in_unary(2, 3, w), ("a",), 64)
        assert len(d.states) == 8

    def test_e21_lower_bound(self):
        d = predicate_to_min_dfa(lambda w: in_e(2, 1, w), ("a", "b"), 12)
        assert len(d.states) >= 4

    def test_all_words(self):
        d = predicate_to_min_dfa(lambda w: True, ("a", "b"), 6)
        assert len(d.states) == 1

    def test_match_object_answers(self):
        d = predicate_to_min_dfa(lambda w: re.fullmatch("(aa)*", "".join(w)), ("a",), 8)
        assert len(d.states) == 2 and d.accepts(("a", "a")) and not d.accepts(("a",))

    def test_stabilization_idempotence(self):
        d1 = predicate_to_min_dfa(lambda w: in_e(2, 1, w), ("a", "b"), 12)
        d2 = predicate_to_min_dfa(lambda w: in_e(2, 1, w), ("a", "b"), 14)
        assert dfa_minimize(d1) == dfa_minimize(d2)

    def test_budget_too_small_is_loud(self):
        # distinguishing a^9 from shorter words needs suffixes the
        # budget cannot reach; the verification pass must catch it
        with pytest.raises(OracleBudgetError):
            predicate_to_min_dfa(lambda w: len(w) == 9, ("a",), 10, prefix_len=2)

    def test_class_of_only_longest_prefixes_is_loud(self):
        # aa is the one prefix of its class and has length prefix_len, so
        # no prefix of the class can be extended to read its moves off
        with pytest.raises(OracleBudgetError, match="maximal-length"):
            predicate_to_min_dfa(lambda w: len(w) == 2, ("a",), 4, prefix_len=2)

    def test_agrees_with_predicate(self):
        d = predicate_to_min_dfa(lambda w: in_e(2, 2, w), ("a", "b"), 14)
        for w in enumerate_words(("a", "b"), 9):
            assert d.accepts(w) == in_e(2, 2, w)
