"""Linear bounded automata: direct simulation and compilation."""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iufst import (
    Lba,
    MachineError,
    compile_lba,
    lba_anbn,
    lba_copy,
    run,
    run_lba,
)


class TestRunLba:
    def test_anbn_examples(self):
        m = lba_anbn()
        assert run_lba(m, tuple("aabb")).accepted
        assert not run_lba(m, tuple("aab")).accepted
        assert not run_lba(m, ()).accepted

    def test_copy_examples(self):
        m = lba_copy()
        assert run_lba(m, tuple("ab$ab")).accepted
        assert not run_lba(m, tuple("ab$ba")).accepted
        assert run_lba(m, ("$",)).accepted

    def test_no_transitions_rejects_everything(self):
        m = Lba(
            states=("q",),
            input_alphabet=("a",),
            tape_alphabet=("a", ">", "<"),
            left_end=">",
            right_end="<",
            initial="q",
            accepting=(),
            transitions={},
        )
        for w in [(), ("a",), ("a", "a")]:
            report = run_lba(m, w)
            assert report.halted and not report.accepted

    def test_cyclic_lba_reported_as_unfinished(self):
        m = Lba(
            states=("q", "r"),
            input_alphabet=("a",),
            tape_alphabet=("a", ">", "<"),
            left_end=">",
            right_end="<",
            initial="q",
            accepting=(),
            transitions={
                ("q", ">"): (("r", "R"),),
                ("r", "a"): (("q", "L"),),
            },
        )
        # the visited set drains even this ping-pong (the configuration
        # space is finite), so the assumption violation surfaces only
        # when the step budget cuts exploration short; that must be
        # reported as unfinished, never as a definite rejection
        report = run_lba(m, ("a",), max_steps=0)
        assert not report.accepted and not report.halted
        report = run_lba(m, ("a",), max_steps=10)
        assert not report.accepted and report.halted

    def test_negative_budget_rejected(self):
        # a budget below 0 explores nothing, which would read as "ran out"
        with pytest.raises(ValueError, match="max_steps must be >= 0"):
            run_lba(lba_copy(), ("a", "$", "a"), max_steps=-1)

    def test_validation(self):
        with pytest.raises(MachineError, match="reserved"):
            Lba(
                states=("q",),
                input_alphabet=("a",),
                tape_alphabet=("a", "L", ">", "<"),
                left_end=">",
                right_end="<",
                initial="q",
                accepting=(),
                transitions={},
            )
        with pytest.raises(MachineError, match="move left"):
            Lba(
                states=("q",),
                input_alphabet=("a",),
                tape_alphabet=("a", ">", "<"),
                left_end=">",
                right_end="<",
                initial="q",
                accepting=(),
                transitions={("q", ">"): (("q", "L"),)},
            )
        with pytest.raises(MachineError, match="never overwritten"):
            Lba(
                states=("q",),
                input_alphabet=("a",),
                tape_alphabet=("a", ">", "<"),
                left_end=">",
                right_end="<",
                initial="q",
                accepting=(),
                transitions={("q", ">"): (("q", "a"),)},
            )


def anbn_with(states=(), tape=()):
    """``lba_anbn()`` with extra state and tape names; they add no move,
    but every state is a head flag and every tape symbol a track symbol
    of the compiled machine, so they shape its names."""
    m = lba_anbn()
    return replace(m, states=m.states + tuple(states), tape_alphabet=m.tape_alphabet + tuple(tape))


# names the compiled machine's own names must stay apart from
NAME_PROBES = {
    "dots": anbn_with(("s1.a",), ("a.A",)),  # [s1.a.A]: pair (s1, a.A) or (s1.a, A) unescaped
    "hat": anbn_with(("s1^",)),  # the hat state of s1
    "helper": anbn_with(("p0",)),
    "blank": anbn_with(("_",)),  # the blank head flag
}


def assert_agrees_with_source(machine, alphabet, max_len):
    compiled = compile_lba(machine)
    for length in range(max_len + 1):
        for w in itertools.product(alphabet, repeat=length):
            ref = run_lba(machine, w, 20_000)
            assert ref.halted
            got = run(compiled, w, 400, 400_000)
            assert got.accepted == ref.accepted, w
            if ref.accepted:
                assert got.min_accept_sweeps == ref.steps_to_accept + 1, w
            else:
                assert got.exhausted, w


class TestCompile:
    def test_state_count(self):
        for m in (lba_anbn(), lba_copy(), *NAME_PROBES.values()):
            c = compile_lba(m)
            assert len(c.states) == 2 * len(m.states) + 4

    def test_accepting_state_must_halt(self):
        m = Lba(
            states=("q", "f"),
            input_alphabet=("a",),
            tape_alphabet=("a", ">", "<"),
            left_end=">",
            right_end="<",
            initial="q",
            accepting=("f",),
            transitions={
                ("q", ">"): (("q", "R"),),
                ("q", "<"): (("f", "<"),),
                ("f", "<"): (("f", "<"),),
            },
        )
        with pytest.raises(MachineError, match="halt"):
            compile_lba(m)

    @pytest.mark.parametrize(
        "machine,alphabet,max_len",
        [
            (lba_anbn(), "ab", 8),
            (lba_copy(), "ab$", 7),
            *(pytest.param(m, "ab", 6, id=name) for name, m in NAME_PROBES.items()),
        ],
    )
    def test_differential_language_and_sweep_law(self, machine, alphabet, max_len):
        assert_agrees_with_source(machine, alphabet, max_len)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.text(".^[]|>\\_!aAbLRps01", min_size=1, max_size=4), min_size=1, max_size=2,
                 unique=True),
        st.lists(st.text(".^[]|>\\_!aAbLRps01", min_size=1, max_size=4), min_size=1, max_size=2,
                 unique=True),
    )
    def test_drawn_names_compile(self, states, tape):
        m = lba_anbn()
        m = anbn_with([q for q in states if q not in m.states],
                      [x for x in tape if x not in m.tape_alphabet and x not in ("L", "R")])
        assert len(compile_lba(m).states) == 2 * len(m.states) + 4
        assert_agrees_with_source(m, "ab", 6)

    def test_empty_word_follows_the_source(self):
        accepts_lambda = Lba(
            states=("s0", "sA"),
            input_alphabet=("a",),
            tape_alphabet=("a", ">", "<"),
            left_end=">",
            right_end="<",
            initial="s0",
            accepting=("sA",),
            transitions={
                ("s0", ">"): (("s0", "R"),),
                ("s0", "<"): (("sA", "<"),),
                ("sA", "a"): (("sA", "a"),),  # keeps sA out of the halt check on a only
            },
        )
        ref = run_lba(accepts_lambda, ())
        compiled = compile_lba(accepts_lambda)
        got = run(compiled, (), 20, 10_000)
        assert ref.accepted and got.accepted
        assert got.min_accept_sweeps == ref.steps_to_accept + 1

    def test_wrong_guesses_die_without_accepting(self):
        # every stuck state in the compiled machine is a failed left-move
        # guess; they must never fabricate acceptance
        m = lba_anbn()
        compiled = compile_lba(m)
        report = run(compiled, tuple("ab"), 9, 100_000)
        assert report.accepted and report.min_accept_sweeps == 9


# each tape symbol's actions the Lba rules allow: endmarkers are
# rewritten only with themselves and never crossed outwards
ENDMARKER_ACTIONS = {">": (">", "R"), "<": ("<", "L"), "a": ("a", "b", "L", "R"),
                     "b": ("a", "b", "L", "R")}


def endmarker_lba(rng):
    """A random LBA of 2-3 states over tape a b > <, using every action
    the rules allow; its last state accepts and has no move on <."""
    states = ("s0", "s1", "s2")[: rng.randint(2, 3)]
    transitions = {}
    for q in states:
        for x, actions in ENDMARKER_ACTIONS.items():
            if (q, x) != (states[-1], "<") and rng.random() < 0.7:
                choices = ((rng.choice(states), rng.choice(actions))
                           for _ in range(rng.randint(1, 2)))
                transitions[q, x] = tuple(dict.fromkeys(choices))
    return Lba(states, ("a", "b"), ("a", "b", ">", "<"), ">", "<", "s0", states[-1:], transitions)


class TestEndmarkerMoves:
    """``compile_lba``'s branches for the endmarkers' own moves: a left
    move off <, a rewrite of < that does not accept, a rewrite of >, and a
    right move off > into the accepting state (which accepts the empty
    word at once)."""

    def test_random_machines_agree_with_the_source(self):
        seen = set()
        for seed in range(60):
            m = endmarker_lba(random.Random(seed))
            for (q, x), choices in m.transitions.items():
                for r, act in choices:
                    if x in "<>":
                        seen.add((x, act, r in m.accepting_set))
            assert_agrees_with_source(m, "ab", 3)
        assert {("<", "L", True), ("<", "L", False), ("<", "<", False), (">", ">", True),
                (">", ">", False), (">", "R", True)} <= seen


def renamed(m, old, new):
    """``m`` with tape symbol ``old`` spelled ``new`` everywhere."""
    def ren(x):
        return new if x == old else x
    return replace(
        m,
        input_alphabet=tuple(map(ren, m.input_alphabet)),
        tape_alphabet=tuple(map(ren, m.tape_alphabet)),
        left_end=ren(m.left_end),
        right_end=ren(m.right_end),
        transitions={(q, ren(x)): tuple((r, ren(a)) for r, a in acts)
                     for (q, x), acts in m.transitions.items()},
    )


CELL = "[_.a]"  # the name of the blank-flagged cell on a in the default brackets


class TestRawSymbolSpelledLikeACell:
    """The output alphabet holds the input symbols and the right endmarker
    raw, beside the cells; a raw symbol spelled like a cell name must not
    clash with it."""

    @pytest.mark.parametrize("machine,alphabet", [
        pytest.param(replace(anbn_with((), (CELL,)), input_alphabet=("a", "b", CELL)),
                     ("a", "b", CELL), id="input"),
        pytest.param(renamed(lba_anbn(), "<", CELL), ("a", "b"), id="right-end"),
    ])
    def test_agrees_with_source(self, machine, alphabet):
        assert CELL in compile_lba(machine).output_alphabet
        assert_agrees_with_source(machine, alphabet, 4)
