"""Decision procedures checked against brute-force enumeration on a
seeded fuzz corpus and on the hand-built examples."""

import itertools
import random

import pytest
from conftest import reference_nfa

from iufst import (
    Transducer,
    equivalent,
    gen_e,
    gen_unary,
    includes,
    is_empty,
    is_finite,
    is_universal,
    run,
    to_nfa,
)
from iufst.decide import (
    DEFAULT_SEARCH_CAP,
    LaneNfa,
    emptiness_witness,
    equivalence_witness,
    inclusion_witness,
    infiniteness_witness,
    universality_witness,
)


def no_accept_machine():
    return Transducer(
        states=("q",),
        input_alphabet=("a", "b"),
        output_alphabet=("a", "b", "<"),
        endmarker="<",
        initial="q",
        accepting=(),
        transitions={("q", "a"): (("q", "a"),), ("q", "<"): (("q", "<"),)},
        sweep_bound=1,
    )


def unreachable_accept_machine():
    return Transducer(
        states=("q", "f"),
        input_alphabet=("a",),
        output_alphabet=("a", "<"),
        endmarker="<",
        initial="q",
        accepting=("f",),
        transitions={("q", "a"): (("q", "a"),), ("q", "<"): (("q", "<"),)},
        sweep_bound=1,
    )


def sigma_star_machine():
    return Transducer(
        states=("q", "f"),
        input_alphabet=("a", "b"),
        output_alphabet=("a", "b", "<"),
        endmarker="<",
        initial="q",
        accepting=("f",),
        transitions={
            ("q", "a"): (("q", "a"),),
            ("q", "b"): (("q", "b"),),
            ("q", "<"): (("f", "<"),),
        },
        sweep_bound=1,
    )


def word_machine(words, alphabet=("a", "b")):
    """One-sweep acceptor of a finite word set, built as a trie."""
    words = [tuple(w) for w in words]
    prefixes = sorted({w[:i] for w in words for i in range(len(w) + 1)})
    name = {p: "r" + "".join(p) for p in prefixes}
    trans = {}
    for p in prefixes:
        for x in alphabet:
            if p + (x,) in name:
                trans[(name[p], x)] = ((name[p + (x,)], x),)
    for w in words:
        trans[(name[w], "<")] = (("F", "<"),)
    return Transducer(
        states=tuple(name[p] for p in prefixes) + ("F",),
        input_alphabet=tuple(alphabet),
        output_alphabet=tuple(alphabet) + ("<",),
        endmarker="<",
        initial=name[()],
        accepting=("F",),
        transitions=trans,
        sweep_bound=1,
    )


class TestExamples:
    def test_empty_cases(self, e21):
        assert is_empty(no_accept_machine(), 1)
        assert is_empty(unreachable_accept_machine(), 1)
        assert not is_empty(e21, 1)
        w = emptiness_witness(e21, 1)
        assert run(e21, w, 1, 1000).accepted

    def test_finite_cases(self, unary22):
        assert not is_finite(unary22, 2)
        assert is_finite(word_machine([()]), 1)  # exactly the empty word
        assert is_finite(no_accept_machine(), 1)

    def test_infiniteness_witness_pumps(self, unary22):
        pre, cyc, suf = infiniteness_witness(unary22, 2)
        assert cyc
        for j in (1, 2, 3):
            w = pre + cyc * j + suf
            assert run(unary22, w, 2, 10_000).accepted, j

    def test_universal(self):
        assert is_universal(sigma_star_machine(), 1)
        assert not is_universal(word_machine([("a",)]), 1)

    def test_includes(self):
        small = word_machine([("a",)])
        big = word_machine([("a",), ("a", "a")])
        assert includes(small, 1, big, 1)
        assert not includes(big, 1, small, 1)
        w = inclusion_witness(big, 1, small, 1)
        assert run(big, w, 1, 1000).accepted and not run(small, w, 1, 1000).accepted

    def test_equivalent_with_reduction(self, e22):
        from iufst import sweep_reduce

        red = sweep_reduce(e22, 2, 2)
        assert equivalent(e22, 2, red, red.sweep_bound)

    def test_finiteness_threshold_crosscheck(self, unary22):
        # infinite iff an accepted word has length in [2n^k, 4n^k)
        nfa = to_nfa(unary22, 2)
        threshold = 2 * len(nfa.states)
        accepted_in_window = any(
            nfa.accepts(("a",) * m) for m in range(threshold, 2 * threshold)
        )
        assert accepted_in_window == (not is_finite(unary22, 2))


def fuzz_machine(rng: random.Random) -> tuple[Transducer, int]:
    """Small random machine with n^k <= 4 so brute-force budgets stay
    exhaustive (full certainty needs enumeration to 4 n^k symbols)."""
    n, k = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
    states = tuple(f"s{i}" for i in range(n))
    inputs = ("a", "b")
    outputs = ("a", "b", "<")
    trans = {}
    for q in states:
        for x in inputs + ("<",):
            n_choices = rng.choices([0, 1, 2], weights=[3, 5, 1])[0]
            choices = []
            for _ in range(n_choices):
                choices.append((rng.choice(states), rng.choice(outputs)))
            if choices:
                trans[(q, x)] = tuple(dict.fromkeys(choices))
    accepting = tuple(q for q in states if rng.random() < 0.4)
    t = Transducer(
        states=states,
        input_alphabet=inputs,
        output_alphabet=outputs,
        endmarker="<",
        initial=states[0],
        accepting=accepting,
        transitions=trans,
        sweep_bound=k,
    )
    return t, k


def brute_language(t: Transducer, k: int, max_len: int) -> set:
    out = set()
    for length in range(max_len + 1):
        for w in itertools.product("ab", repeat=length):
            if run(t, w, k, 50_000).accepted:
                out.add(w)
    return out


def live_nfa_size(t: Transducer, k: int) -> int:
    from iufst.decide import _live

    return max(1, len(_live(reference_nfa(t, k)._view)[0]))


@pytest.fixture(scope="module")
def fuzz_corpus():
    """200 seeded machines with their brute-force languages.

    Enumeration budgets come from the pumping window of the trimmed
    equivalent NFA: the shortest accepted word is shorter than its live
    state count N, and the language is infinite exactly when a word
    with length in [N, 2N) is accepted, so enumerating to 2N - 1 settles
    emptiness and finiteness exactly (2 n^k is only the a-priori cap
    on N, and enumerating to twice that is out of desk range for the
    largest machines).
    """
    rng = random.Random(20240811)
    corpus = []
    while len(corpus) < 200:
        t, k = fuzz_machine(rng)
        size = live_nfa_size(t, k)
        budget = 2 * size - 1
        corpus.append((t, k, size, budget, brute_language(t, k, budget)))
    return corpus


class TestFuzzAgreement:
    def test_emptiness_and_finiteness_against_enumeration(self, fuzz_corpus):
        empties = infinites = 0
        for t, k, size, budget, lang in fuzz_corpus:
            assert is_empty(t, k) == (not lang), (t, k)
            infinite_by_window = any(len(w) >= size for w in lang)
            assert is_finite(t, k) == (not infinite_by_window), (t, k)
            empties += not lang
            infinites += infinite_by_window
            if infinite_by_window:
                pre, cyc, suf = infiniteness_witness(t, k)
                assert run(t, pre + cyc * 2 + suf, k, 50_000).accepted
        # the corpus must exercise all three outcomes
        assert empties and infinites and empties + infinites < len(fuzz_corpus)

    def test_equivalence_against_enumeration(self, fuzz_corpus):
        rng = random.Random(7)
        pairs = [
            (fuzz_corpus[rng.randrange(len(fuzz_corpus))],
             fuzz_corpus[rng.randrange(len(fuzz_corpus))])
            for _ in range(60)
        ]
        for (t1, k1, _s1, b1, l1), (t2, k2, _s2, b2, l2) in pairs:
            budget = min(b1, b2)
            verdict = equivalent(t1, k1, t2, k2)
            v1 = {w for w in l1 if len(w) <= budget}
            v2 = {w for w in l2 if len(w) <= budget}
            if verdict:
                assert v1 == v2, (t1, t2)
            else:
                w = equivalence_witness(t1, k1, t2, k2)
                assert run(t1, w, k1, 50_000).accepted != run(t2, w, k2, 50_000).accepted

    def test_equivalence_relation_properties(self, fuzz_corpus):
        sample = [(t, k) for t, k, *_ in fuzz_corpus[:12]]
        for t, k in sample:
            assert equivalent(t, k, t, k)
        rng = random.Random(99)
        for _ in range(25):
            (t1, k1), (t2, k2) = rng.sample(sample, 2)
            assert equivalent(t1, k1, t2, k2) == equivalent(t2, k2, t1, k1)
        for _ in range(25):
            (t1, k1), (t2, k2), (t3, k3) = rng.sample(sample, 3)
            if equivalent(t1, k1, t2, k2) and equivalent(t2, k2, t3, k3):
                assert equivalent(t1, k1, t3, k3)


class TestWitnessOrder:
    """Witnesses are the first qualifying word in length-lexicographic
    enumeration order, as breadth-first search in alphabet order finds them."""

    def test_emptiness_witness_is_first_accepted_word(self, fuzz_corpus):
        from iufst.oracle import enumerate_words

        for t, k, _size, budget, lang in fuzz_corpus:
            first = next((w for w in enumerate_words(("a", "b"), budget) if w in lang), None)
            if first is not None:
                assert emptiness_witness(t, k) == first, (t, k)

    def test_universality_witness_is_first_rejected_word(self, fuzz_corpus):
        from iufst.oracle import enumerate_words

        checked = 0
        for t, k, _size, budget, lang in fuzz_corpus:
            first = next((w for w in enumerate_words(("a", "b"), budget) if w not in lang), None)
            if first is not None:
                assert universality_witness(t, k) == first, (t, k)
                checked += 1
        assert checked


class TestDeepInfiniteness:
    def test_unary_2_10_pumps_without_recursion(self):
        # the lane NFA has 1,024 states; a recursive cycle search overflows the stack
        from iufst import in_unary

        x, y, z = infiniteness_witness(gen_unary(2, 10), 10)
        assert len(y) > 0
        for i in range(3):
            assert in_unary(2, 10, x + y * i + z), i


def powerset_inclusion(t1, k1, t2, k2):
    """First word of L1 minus L2 by determinizing both sides."""
    from conftest import dfa_difference_witness
    from iufst.convert import nfa_to_dfa

    d1, d2 = nfa_to_dfa(reference_nfa(t1, k1)), nfa_to_dfa(reference_nfa(t2, k2))
    return dfa_difference_witness(d1, d2)


class TestPowersetCrossCheck:
    """The antichain searches give the powerset construction's witnesses
    word for word."""

    def test_universality_on_fuzz_corpus(self, fuzz_corpus):
        from conftest import dfa_complement, dfa_shortest_accepted
        from iufst.convert import nfa_to_dfa

        universal = 0
        for t, k, *_ in fuzz_corpus:
            ref = dfa_shortest_accepted(dfa_complement(nfa_to_dfa(reference_nfa(t, k))))
            assert universality_witness(t, k) == ref, (t, k)
            universal += ref is None
        assert 0 < universal < len(fuzz_corpus)

    def test_inclusion_and_equivalence_on_seeded_pairs(self, fuzz_corpus):
        rng = random.Random(4)
        outcomes = {"equal": 0, "first": 0, "second": 0}
        for _ in range(160):
            (t1, k1, *_), (t2, k2, *_) = rng.choice(fuzz_corpus), rng.choice(fuzz_corpus)
            forward = powerset_inclusion(t1, k1, t2, k2)
            backward = powerset_inclusion(t2, k2, t1, k1)
            assert inclusion_witness(t1, k1, t2, k2) == forward, (t1, t2)
            assert inclusion_witness(t2, k2, t1, k1) == backward, (t1, t2)
            expected = forward if forward is not None else backward
            assert equivalence_witness(t1, k1, t2, k2) == expected, (t1, t2)
            key = "first" if forward is not None else "second" if backward is not None else "equal"
            outcomes[key] += 1
        assert all(outcomes.values()), outcomes

    def test_paper_families(self, e21, e22, unary22, block2):
        e32 = gen_e(3, 2)
        machines = [(e21, 1), (e22, 2), (e32, 2), (unary22, 2), (block2, 2)]
        for t1, k1 in machines:
            for t2, k2 in machines:
                if set(t1.input_alphabet) == set(t2.input_alphabet):
                    assert inclusion_witness(t1, k1, t2, k2) == powerset_inclusion(t1, k1, t2, k2)


def k_subset_machine(n, k, grow=False, rejecting=()):
    """One-sweep machine of an NFA whose reachable subsets are all
    k-subsets of n states, pairwise incomparable: a start state standing
    for {0..k-1}, ``a`` turns the n-cycle, ``b`` swaps 0 and 1; with
    ``grow``, ``c`` adds 1 to every set holding 0.  Every state but those
    in ``rejecting`` accepts."""
    from iufst.convert import Nfa, nfa_to_1niufst

    moves = {"a": lambda i: [(i + 1) % n], "b": lambda i: [{0: 1, 1: 0}.get(i, i)]}
    if grow:
        moves["c"] = lambda i: [i, 1] if i == 0 else [i]
    transitions = {}
    for x, move in moves.items():
        for i in range(n):
            transitions[str(i), x] = tuple(str(j) for j in move(i))
        transitions["s", x] = tuple(dict.fromkeys(str(j) for i in range(k) for j in move(i)))
    states = ("s",) + tuple(str(i) for i in range(n))
    return nfa_to_1niufst(Nfa(
        states=states, alphabet=tuple(moves), initial="s",
        accepting=tuple(q for q in states if q not in {str(i) for i in rejecting}),
        transitions=transitions,
    ))


class TestSearchBudget:
    """``state_cap`` counts the nodes of one inclusion search."""

    @pytest.mark.parametrize("grow", [False, True])
    def test_large_antichain_node_count(self, grow):
        # C(16,8) + 1 = 12,871 incomparable nodes; with grow, c turns each
        # 8-set holding 0 but not 1 into a 9-set, dropped against the 8-sets
        from iufst import ResourceBudgetError

        t = k_subset_machine(16, 8, grow)
        assert universality_witness(t, 1, state_cap=12_871) is None
        with pytest.raises(ResourceBudgetError, match="state_cap=12870"):
            universality_witness(t, 1, state_cap=12_870)

    def test_deep_witness_matches_powerset(self):
        from conftest import dfa_complement, dfa_shortest_accepted
        from iufst.convert import nfa_to_dfa

        t = k_subset_machine(12, 6, grow=True, rejecting=range(0, 12, 2))
        w = universality_witness(t, 1)
        assert len(w) > 10
        assert w == dfa_shortest_accepted(dfa_complement(nfa_to_dfa(reference_nfa(t, 1))))

    @pytest.fixture(scope="class")
    def e23_pair(self):
        from iufst import sweep_reduce

        e23 = gen_e(2, 3)
        return e23, sweep_reduce(e23, 3, 2)

    def test_former_unknowns_answer_within_small_cap(self, e23_pair):
        from iufst import gen_block, in_block

        cap = 2**10
        e23, red = e23_pair
        assert equivalence_witness(e23, 3, red, 2, state_cap=cap) is None
        for n, k in ((3, 3), (3, 4)):
            e = gen_e(n, k)
            assert equivalence_witness(e, k, e, k, state_cap=cap) is None
        b4 = gen_block(4)
        w = universality_witness(b4, 4, state_cap=cap)
        assert w == () and not in_block(4, w) and not run(b4, w, 4, 1000).accepted

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_is_rejected(self, cap):
        # not even the start node fits; e(2,1)'s start node is a goal,
        # which a search without the check reported as the witness
        e21 = gen_e(2, 1)
        with pytest.raises(ValueError, match="at least 1"):
            universality_witness(e21, 1, state_cap=cap)
        with pytest.raises(ValueError, match="at least 1"):
            equivalence_witness(e21, 1, e21, 1, state_cap=cap)
        assert universality_witness(e21, 1, state_cap=1) == ()

    def test_cap_exceeded_raises_and_names_the_cap(self, e23_pair):
        from iufst import ResourceBudgetError

        e23, red = e23_pair
        with pytest.raises(ResourceBudgetError) as info:
            equivalence_witness(e23, 3, red, 2, state_cap=4)
        msg = str(info.value)
        assert "state_cap=4" in msg and "5 search nodes" in msg


def record_lane_nfas(monkeypatch) -> list:
    """Make ``decide`` append every ``LaneNfa`` it constructs to the
    returned list."""
    import iufst.decide

    made = []
    lane_nfa = iufst.decide.LaneNfa
    monkeypatch.setattr(
        iufst.decide, "LaneNfa", lambda t, k: made.append(lane_nfa(t, k)) or made[-1]
    )
    return made


class TestEqualOperands:
    """Equal operands are converted to an NFA once, with the witnesses of
    two conversions."""

    def test_one_conversion(self, monkeypatch, e22, block2):
        calls = record_lane_nfas(monkeypatch)
        cases = [
            (lambda: equivalence_witness(e22, 2, e22, 2), None, 1),
            (lambda: equivalence_witness(e22, 2, gen_e(2, 2), 2), None, 1),
            (lambda: inclusion_witness(block2, 2, block2, 2), None, 1),
            (lambda: inclusion_witness(e22, 2, e22, 1), powerset_inclusion(e22, 2, e22, 1), 2),
            (lambda: equivalence_witness(e22, 1, e22, 2), powerset_inclusion(e22, 2, e22, 1), 2),
        ]
        assert powerset_inclusion(e22, 1, e22, 2) is None
        for ask, witness, conversions in cases:
            calls.clear()
            assert ask() == witness
            assert len(calls) == conversions

    def test_self_inclusion_of_one_object(self, block2):
        from iufst import gen_block
        from iufst.decide import _inclusion_witness

        for t, k in [(gen_block(3), 3), (block2, 2), (gen_e(2, 2), 2), (gen_e(3, 4), 4)]:
            n = reference_nfa(t, k)._view
            assert _inclusion_witness(n, n, 2**10) is None


class TestEquivalenceWitnessOrder:
    def test_first_word_of_left_difference_wins(self):
        # aaa is in L1 \ L2; the shorter a of L2 \ L1 comes only second
        l1, l2 = word_machine([("a", "a", "a")]), word_machine([("a",)])
        assert equivalence_witness(l1, 1, l2, 1) == ("a", "a", "a")
        assert equivalence_witness(l2, 1, l1, 1) == ("a",)
        sub = word_machine([("a",), ("b",)])
        assert equivalence_witness(l2, 1, sub, 1) == ("b",)


def outcome(ask):
    """The witness ``ask()`` returns, or the type and message it raises."""
    from iufst import MachineError

    try:
        return ask()
    except MachineError as err:
        return type(err), str(err)


def paper_families() -> list[tuple[Transducer, int]]:
    """The paper's constant-bound families at small sizes, with their
    bounds, and one reduced machine."""
    from iufst import gen_block, sweep_reduce

    machines = [(gen_block(k), k) for k in (2, 3, 4)]
    machines += [(gen_e(n, k), k) for n in (2, 3) for k in (1, 2, 3, 4)]
    machines += [(gen_unary(2, 2), 2), (gen_unary(2, 3), 3), (gen_unary(3, 2), 2)]
    machines.append((sweep_reduce(gen_e(2, 3), 3, 2), 2))
    return machines


class TestLaneCrossCheck:
    """Searching lane tuples expanded on demand gives the answers of
    searching the materialized ``reference_nfa`` through the same
    interface: the same witness, or the same exception and message."""

    CAPS = (3, 4, 7, DEFAULT_SEARCH_CAP)

    @staticmethod
    def agree(monkeypatch, questions):
        import iufst.decide

        fast = [outcome(ask) for ask in questions]
        nfas = {}  # (id of machine, k) -> (machine, view); holding the machine keeps its id

        def view(t, k):
            if (id(t), k) not in nfas:
                nfas[id(t), k] = t, reference_nfa(t, k)._view
            return nfas[id(t), k][1]

        with monkeypatch.context() as m:
            m.setattr(iufst.decide, "LaneNfa", view)
            reference = [outcome(ask) for ask in questions]
        assert fast == reference
        kinds = {"none" if a is None else "error" if a and isinstance(a[0], type) else "word"
                 for a in fast}
        assert kinds == {"none", "word", "error"}

    def questions(self, machines, pairs):
        asks = []
        for t, k in machines:
            asks.append(lambda t=t, k=k: emptiness_witness(t, k))
            asks.append(lambda t=t, k=k: infiniteness_witness(t, k))
            asks += [lambda t=t, k=k, c=c: universality_witness(t, k, c) for c in self.CAPS]
        for (t1, k1), (t2, k2) in pairs:
            for c in self.CAPS:
                asks.append(lambda t1=t1, k1=k1, t2=t2, k2=k2, c=c:
                            inclusion_witness(t1, k1, t2, k2, c))
                asks.append(lambda t1=t1, k1=k1, t2=t2, k2=k2, c=c:
                            equivalence_witness(t1, k1, t2, k2, c))
        return asks

    def test_fuzz_corpus(self, monkeypatch, fuzz_corpus):
        machines = [(t, k) for t, k, *_ in fuzz_corpus]
        rng = random.Random(8)
        pairs = [(rng.choice(machines), rng.choice(machines)) for _ in range(150)]
        self.agree(monkeypatch, self.questions(machines, pairs))

    def test_paper_families(self, monkeypatch):
        machines = paper_families()
        pairs = [(m1, m2) for m1 in machines for m2 in machines]
        self.agree(monkeypatch, self.questions(machines, pairs))


class TestToNfaRestrictsTheReference:
    """``to_nfa`` is ``reference_nfa`` restricted to the states reachable
    on input symbols: the same names, the same accepting set, and the
    same successor set per (state, symbol)."""

    @staticmethod
    def assert_restriction(t, k):
        from iufst.core import _bfs

        nfa, ref = to_nfa(t, k), reference_nfa(t, k)
        edges = lambda q: [(r, x) for x in ref.alphabet for r in ref.transitions.get((q, x), ())]
        reach = set(_bfs((ref.initial,), edges)[0])
        assert (nfa.alphabet, nfa.initial) == (ref.alphabet, ref.initial)
        assert set(nfa.states) == reach
        assert nfa.accepting_set == ref.accepting_set & reach
        for q in reach:
            for x in ref.alphabet:
                assert set(nfa.transitions.get((q, x), ())) == set(ref.transitions.get((q, x), ()))

    def test_fuzz_corpus(self, fuzz_corpus):
        for t, k, *_ in fuzz_corpus:
            self.assert_restriction(t, k)

    def test_paper_families(self):
        for t, k in paper_families():
            self.assert_restriction(t, k)


class TestLazyExpansion:
    """Work counters of the on-demand searches."""

    def test_universality_of_block4_expands_one_tuple(self, monkeypatch):
        from iufst import gen_block

        made = record_lane_nfas(monkeypatch)
        assert universality_witness(gen_block(4), 4) == ()
        assert [n.expanded for n in made] == [1]

    def test_emptiness_of_block5_discovers_fewer_tuples_than_to_nfa(self, monkeypatch):
        from iufst import gen_block, in_block, sweep_reduce

        b5 = gen_block(5)
        made = record_lane_nfas(monkeypatch)
        w = emptiness_witness(b5, 5)
        assert in_block(5, w)
        (n,) = made
        assert n.discovered < len(sweep_reduce(b5, 5, 5).states)

    def test_e45_equivalence_discovers_no_more_tuples_than_to_nfa(self, monkeypatch):
        from iufst import sweep_reduce

        e45 = gen_e(4, 5)
        red = sweep_reduce(e45, 5, 2)
        made = record_lane_nfas(monkeypatch)
        assert equivalence_witness(e45, 5, red, 3) is None
        assert len(made) == 2
        materialized = len(to_nfa(e45, 5).states) + len(to_nfa(red, 3).states)
        assert sum(n.discovered for n in made) <= materialized

    def test_infiniteness_of_block5_discovers_fewer_tuples_than_to_nfa(self, monkeypatch):
        from iufst import gen_block, sweep_reduce

        b5 = gen_block(5)
        made = record_lane_nfas(monkeypatch)
        assert infiniteness_witness(b5, 5) is not None
        (n,) = made
        assert n.discovered < len(sweep_reduce(b5, 5, 5).states)


def test_completes_needs_every_lane_on_the_endmarker():
    # q rewrites a to b and has no move on b: on a, the first lane reads on
    # and the second halts on the b it is fed; on b, both lanes halt.  A
    # tuple completes when its last lane steps on the endmarker, so after a
    # it accepts through its first lane but does not complete
    t = Transducer(
        states=("q",),
        input_alphabet=("a", "b"),
        output_alphabet=("a", "b", "<"),
        endmarker="<",
        initial="q",
        accepting=("q",),
        transitions={("q", "a"): (("q", "b"),), ("q", "<"): (("q", "<"),)},
        sweep_bound=2,
    )
    n = LaneNfa(t, 2)
    (after_a,), (after_b,) = n.step(n.initial)
    assert [n.completes(q) for q in (n.initial, after_a, after_b)] == [True, False, False]
    assert [n.accepting(q) for q in (n.initial, after_a, after_b)] == [True, True, False]
    one = LaneNfa(t, 1)
    assert [one.completes(q) for (q,) in one.step(one.initial)] == [True, False]


class TestCommaNamedStates:
    """State names holding commas: the searches never name a lane tuple,
    and ``to_nfa`` and ``sweep_reduce`` escape the commas, so tuples such
    as (p, p,p, p) and (p,p, p, p) keep distinct names."""

    @pytest.fixture
    def comma_machine(self):
        return Transducer(
            states=("p", "p,p", "q"),
            input_alphabet=("a",),
            output_alphabet=("a", "<"),
            endmarker="<",
            initial="p",
            accepting=("q",),
            transitions={
                ("p", "a"): (("p", "a"), ("p,p", "a")),
                ("p,p", "a"): (("p", "a"),),
                ("p", "<"): (("q", "<"),),
                ("p,p", "<"): (("q", "<"),),
            },
            sweep_bound=3,
        )

    def test_infiniteness_witness_pumps(self, comma_machine):
        pre, cyc, suf = infiniteness_witness(comma_machine, 3)
        assert (pre, cyc, suf) == ((), ("a",), ())
        for j in (0, 1, 2, 3):
            assert run(comma_machine, pre + cyc * j + suf, 3).accepted, j

    def test_to_nfa_and_sweep_reduce_answer(self, comma_machine):
        from iufst import MachineFile, parse_machine, serialize_machine, sweep_reduce

        nfa = to_nfa(comma_machine, 3)
        reduced = [sweep_reduce(comma_machine, 3, i) for i in (1, 2, 3)]
        for m in range(9):
            w = ("a",) * m
            expected = run(comma_machine, w, 3).accepted
            assert nfa.accepts(w) == expected, w
            for red in reduced:
                assert run(red, w, red.sweep_bound).accepted == expected, (red.meta, w)
        for mf in [MachineFile("nfa", nfa)] + [MachineFile("niufst", r) for r in reduced]:
            assert parse_machine(serialize_machine(mf)).machine == mf.machine


class TestHighCodeLanes:
    """A 2-sweep machine with 300 output-only symbols, whose names hold
    ``,``, ``(`` and ``\\``: its first sweep writes symbols coded above
    chr(255), which its second lane reads.  The first sweep copies a as A
    and guesses, at each b, a mark B1 or a plain B2; the second accepts
    when after the one marked b the number of A is odd."""

    @pytest.fixture(scope="class")
    def machine(self):
        xs = tuple(f"({i},x\\" for i in range(300))
        a_, b1, b2 = xs[-1], xs[-2], xs[-3]
        t = Transducer(
            states=("q", "u", "v", "f"),
            input_alphabet=("a", "b"),
            output_alphabet=("<",) + xs,
            endmarker="<",
            initial="q",
            accepting=("f",),
            transitions={
                ("q", "a"): (("q", a_),),
                ("q", "b"): (("q", b1), ("q", b2)),
                ("q", "<"): (("q", "<"),),
                ("q", a_): (("q", xs[0]),),
                ("q", b2): (("q", b2),),
                ("q", b1): (("u", xs[1]),),
                ("u", a_): (("v", xs[2]),),
                ("u", b2): (("u", b2),),
                ("v", a_): (("u", xs[3]),),
                ("v", b2): (("v", b2),),
                ("v", "<"): (("f", "<"),),
            },
            sweep_bound=2,
        )
        assert min(t._code[0][x] for x in (a_, b1, b2)) > "\xff"
        return t

    def test_lanes_agree_with_run(self, machine):
        from iufst import sweep_reduce

        words = [w for m in range(6) for w in itertools.product("ab", repeat=m)]
        expected = {w: run(machine, w, 2).accepted for w in words}
        assert expected[("b", "a")] and not expected[("b", "a", "a")]
        nfa = to_nfa(machine, 2)
        reduced = [sweep_reduce(machine, 2, i) for i in (1, 2)]
        for w in words:
            assert nfa.accepts(w) == expected[w], w
            for red in reduced:
                assert run(red, w, red.sweep_bound).accepted == expected[w], (red.meta, w)
        witness = emptiness_witness(machine, 2)
        assert run(machine, witness, 2).accepted
        assert len(witness) == min(len(w) for w in words if expected[w])
        for red in reduced:
            assert red.output_alphabet == machine.output_alphabet + ("d",)
