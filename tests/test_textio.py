"""Text format: canonical serialization, structural round-trips, and
line-numbered diagnostics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iufst import (
    MachineError,
    MachineFile,
    MachineParseError,
    Transducer,
    gen_block_nfa,
    gen_copy,
    gen_e,
    gen_unary,
    lba_anbn,
    lba_copy,
    nfa_to_dfa,
    parse_machine,
    parse_word,
    serialize_machine,
)

IDENTITY = """\
kind niufst
states q
input a
output a <
endmarker <
initial q
accept q
trans q a -> q a
trans q < -> q <
"""

FA = "kind {}\nstates p q\ninput a\ninitial p\naccept q\ntrans p a -> q\n"
NFA, DFA = FA.format("nfa"), FA.format("dfa")
LBA = "kind lba\nstates p\ninput a\ntape a > <\nlend >\nrend <\ninitial p\naccept p\n"


class TestParse:
    def test_identity_file(self):
        mf = parse_machine(IDENTITY)
        assert mf.kind == "niufst"
        assert len(mf.machine.states) == 1

    def test_endmarker_in_input_rejected(self):
        bad = IDENTITY.replace("endmarker <", "endmarker a")
        with pytest.raises(MachineParseError, match="endmarker must not be an input"):
            parse_machine(bad)

    def test_unknown_directive(self):
        with pytest.raises(MachineParseError, match="unknown directive"):
            parse_machine(IDENTITY + "frobnicate q\n")

    def test_undeclared_state(self):
        with pytest.raises(MachineParseError, match="undeclared state"):
            parse_machine(IDENTITY + "trans q a -> zz a\n")

    def test_undeclared_symbol(self):
        with pytest.raises(MachineParseError, match="undeclared symbol"):
            parse_machine(IDENTITY + "trans q zz -> q a\n")

    def test_duplicate_dfa_transition(self):
        text = (
            "kind dfa\nstates p q\ninput a\ninitial p\naccept q\n"
            "trans p a -> q\ntrans p a -> p\n"
        )
        with pytest.raises(MachineParseError, match="duplicate dfa transition"):
            parse_machine(text)

    def test_bad_lba_action(self):
        text = (
            "kind lba\nstates p\ninput a\ntape a > <\nlend >\nrend <\n"
            "initial p\naccept\ntrans p a -> p Q\n"
        )
        with pytest.raises(MachineParseError, match="neither a tape symbol nor L/R"):
            parse_machine(text)

    @pytest.mark.parametrize(
        "text,line,message",
        [
            (IDENTITY + "trans q a -> zz a\n", 10, "undeclared state"),
            (IDENTITY + "% note\n\ntrans q a -> zz a\n", 12, "undeclared state"),
            (IDENTITY + "trans q a -> zz a", 10, "undeclared state"),
            ("kind niufst\nstates q\ninput a\noutput a <\n", 4, "unexpected end of file"),
            (IDENTITY.replace("initial q", "inital q"), 6, "expected directive 'initial'"),
            ((IDENTITY + "trans q a -> zz a\n").replace("\n", "\r\n"), 10, "undeclared state"),
            (IDENTITY.replace("accept q\n", "accept q\nsweeps \u00b2\n"), 8, "sweeps must be"),
            (IDENTITY.replace("accept q\n", "accept q\nsweeps \u0661\n"), 8, "sweeps must be"),
            (IDENTITY.replace("accept q\n", "accept q\nsweeps 01\n"), 8, "sweeps must be"),
            (IDENTITY.replace("input a", "input a a"), 3, "duplicate input symbol"),
            (IDENTITY.replace("output a <", "output a a <"), 4, "duplicate output symbol"),
            (IDENTITY.replace("output a <", "output a -> <"), 4,
             "output symbol '->' cannot be written in the text format"),
            (
                "kind lba\nstates p\ninput a\ntape a > < ->\nlend >\nrend <\n"
                "initial p\naccept\ntrans p a -> p R\n",
                4,
                "tape symbol '->' cannot be written in the text format",
            ),
            (NFA.replace("initial p", "initial z"), 4, "initial state 'z' not declared"),
            (NFA.replace("accept q", "accept q z"), 5, "accepting state 'z' not declared"),
            (NFA + "frobnicate p\n", 7, "unknown directive 'frobnicate'"),
            (NFA + "trans p a -> q q\n", 7, "finite-automaton transitions read"),
            (NFA + "trans p z -> q\n", 7, r"bad transition key \('p', 'z'\)"),
            (DFA.replace("initial p", "initial z"), 4, "initial state 'z' not declared"),
            (DFA.replace("accept q", "accept q z"), 5, "accepting state 'z' not declared"),
            (DFA + "frobnicate p\n", 7, "unknown directive 'frobnicate'"),
            (DFA + "trans p a -> q q\n", 7, "finite-automaton transitions read"),
            (DFA + "trans q a -> z\n", 7, r"bad transition \('q', 'a'\) -> 'z'"),
            (LBA.replace("initial p", "initial z"), 7, "initial state 'z' not declared"),
            (LBA.replace("accept p", "accept p z"), 8, "accepting state 'z' not declared"),
            (LBA + "trans p a -> p R\nfrobnicate p\n", 10, "unknown directive 'frobnicate'"),
            (LBA + "trans p a -> p\n", 9, "lba transitions read"),
            (LBA.replace("tape a > <", "tape a > < L"), 4, "tape symbols L and R are reserved"),
            (LBA.replace("input a", "input a >"), 6,
             "input symbol '>' must be a non-endmarker tape symbol"),
            (LBA.replace("lend >", "lend x"), 6, "both endmarkers must be tape symbols"),
            (LBA.replace("rend <", "rend >"), 6, "endmarkers must be distinct"),
            (LBA + "trans p a -> p R\ntrans p > -> p L\n", 10, "cannot move left on the left"),
            (LBA + "trans p a -> p R\ntrans p < -> p R\n", 10, "cannot move right on the right"),
            (LBA + "trans p a -> p R\ntrans p > -> p a\n", 10, "endmarkers are never overwritten"),
            (LBA + "trans p a -> p R\ntrans p a -> p <\n", 10, "may not be written elsewhere"),
            (IDENTITY.replace("kind niufst", "kind iufst") + "trans q a -> q <\ntrans q < -> q <\n",
             10, "iufst machines must have at most one choice per"),
            (IDENTITY + "trans q a => q a\n", 10, "transducer transitions read"),
            (NFA + "trans p a => q\n", 7, "finite-automaton transitions read"),
            (LBA + "trans p a => p R\n", 9, "lba transitions read"),
            ("", 1, "unexpected end of file"),
            ("% c\n% d\n", 1, "unexpected end of file"),
            (IDENTITY.replace("kind niufst", "kind tm"), 1,
             r"kind must be one of niufst, iufst, nfa, dfa, lba$"),
            (IDENTITY.replace("states q", "states"), 2, "at least one state is required$"),
            (IDENTITY.replace("output a <", "output"), 4,
             "transducers need a non-empty output alphabet$"),
            (IDENTITY.replace("endmarker <", "endmarker < a"), 5,
             r"directive 'endmarker' takes exactly 1 operand\(s\)$"),
            (NFA + "trans p a -> q\n", 7, r"duplicate transition \('p', 'a'\) -> 'q'$"),
            (LBA + "trans p a -> p R\ntrans p a -> p R\n", 10,
             r"duplicate lba transition for \('p', 'a'\)$"),
        ],
        ids=["transition", "after-comment-and-blank", "no-final-newline", "end-of-file",
             "expected-directive", "crlf", "superscript-two-sweeps", "arabic-indic-one-sweeps",
             "leading-zero-sweeps", "duplicate-input", "duplicate-output",
             "reserved-output", "reserved-tape",
             "nfa-initial", "nfa-accept", "nfa-directive", "nfa-arity", "nfa-move",
             "dfa-initial", "dfa-accept", "dfa-directive", "dfa-arity", "dfa-move",
             "lba-initial", "lba-accept", "lba-directive", "lba-arity",
             "lba-reserved-move", "lba-input", "lba-endmarker-off-tape", "lba-equal-endmarkers",
             "lba-left-of-lend", "lba-right-of-rend", "lba-overwrite-endmarker",
             "lba-write-endmarker", "iufst-second-choice",
             "transducer-arrow", "nfa-arrow", "lba-arrow",
             "empty-file", "comment-only-file",
             "unknown-kind", "no-states", "no-outputs", "endmarker-arity", "nfa-duplicate",
             "lba-duplicate"],
    )
    def test_line_numbers_in_errors(self, text, line, message):
        with pytest.raises(MachineParseError, match=message) as info:
            parse_machine(text)
        assert info.value.line == line

    def test_comments_and_blank_lines(self):
        text = "% header comment\n\n" + IDENTITY.replace(
            "trans q a -> q a", "trans q a -> q a % inline"
        )
        assert parse_machine(text).machine == parse_machine(IDENTITY).machine

    def test_nondeterministic_iufst_rejected(self):
        text = IDENTITY.replace("kind niufst", "kind iufst") + "trans q a -> q <\n"
        with pytest.raises(MachineParseError, match="one choice per"):
            parse_machine(text)


class TestMachineFile:
    @pytest.mark.parametrize(
        "machine", [gen_block_nfa(2), nfa_to_dfa(gen_block_nfa(2)), lba_copy()],
        ids=["nondeterministic-nfa", "dfa", "lba"],
    )
    def test_iufst_kind_needs_a_transducer(self, machine):
        with pytest.raises(MachineError, match="kind iufst requires a transducer"):
            MachineFile("iufst", machine)

    @pytest.mark.parametrize(
        "kind,machine,message",
        [
            ("tm", gen_e(2, 1), "unknown machine kind 'tm'"),
            ("iufst", gen_e(2, 1), "iufst files must be deterministic"),
        ],
        ids=["unknown-kind", "nondeterministic-iufst"],
    )
    def test_messages(self, kind, machine, message):
        with pytest.raises(MachineError) as err:
            MachineFile(kind, machine)
        assert type(err.value) is MachineError and str(err.value) == message


class TestRoundTrip:
    @pytest.mark.parametrize(
        "kind,machine",
        [
            ("iufst", gen_unary(2, 2)),
            ("iufst", gen_unary(3, 2)),
            ("niufst", gen_e(2, 2)),
            ("iufst", gen_copy()),
            ("nfa", gen_block_nfa(2)),
            ("dfa", nfa_to_dfa(gen_block_nfa(2))),
            ("lba", lba_anbn()),
            ("lba", lba_copy()),
        ],
    )
    def test_structural_roundtrip(self, kind, machine):
        mf = MachineFile(kind, machine)
        text = serialize_machine(mf)
        back = parse_machine(text)
        assert back.kind == kind
        assert back.machine == machine
        assert serialize_machine(back) == text  # canonical fixed point

    def test_empty_accepting_serializes_bare(self):
        t = Transducer(
            states=("q",),
            input_alphabet=("a",),
            output_alphabet=("a", "<"),
            endmarker="<",
            initial="q",
            accepting=(),
            transitions={},
        )
        text = serialize_machine(MachineFile("niufst", t))
        assert "\naccept\n" in text
        assert parse_machine(text).machine == t

    def test_nondeterministic_choices_multiple_lines(self):
        t = gen_e(2, 1)
        text = serialize_machine(MachineFile("niufst", t))
        assert text.count("trans q0 b ->") == 2


@st.composite
def random_machines(draw):
    n_states = draw(st.integers(1, 4))
    states = tuple(f"s{i}" for i in range(n_states))
    inputs = tuple(draw(st.sets(st.sampled_from("abc"), min_size=1, max_size=3)))
    outputs = tuple(sorted(set(inputs) | set(draw(
        st.sets(st.sampled_from("xyz"), min_size=0, max_size=2))))) + ("<",)
    transitions = {}
    for q in states:
        for x in inputs + outputs:
            choices = draw(
                st.lists(
                    st.tuples(st.sampled_from(states), st.sampled_from(outputs)),
                    max_size=2,
                    unique=True,
                )
            )
            if choices:
                transitions[(q, x)] = tuple(choices)
    accepting = tuple(draw(st.sets(st.sampled_from(states), max_size=n_states)))
    bound = draw(st.sampled_from([None, 1, 2, 3, "log", "linear", "unbounded"]))
    return Transducer(
        states=states,
        input_alphabet=inputs,
        output_alphabet=outputs,
        endmarker="<",
        initial=states[0],
        accepting=accepting,
        transitions=transitions,
        sweep_bound=bound,
    )


@settings(max_examples=100, deadline=None)
@given(random_machines())
def test_parse_serialize_identity_on_random_machines(t):
    kind = "iufst" if t.is_deterministic else "niufst"
    text = serialize_machine(MachineFile(kind, t))
    assert parse_machine(text).machine == t


class TestWords:
    def test_comma_separated(self):
        assert parse_word("a,b,a", ("a", "b")) == ("a", "b", "a")

    def test_unseparated_single_char(self):
        assert parse_word("aba", ("a", "b")) == ("a", "b", "a")

    def test_empty_word(self):
        assert parse_word("", ("a",)) == ()

    def test_multichar_requires_commas(self):
        assert parse_word("aa,<0", ("aa", "<0")) == ("aa", "<0")

    def test_one_multichar_symbol_needs_no_comma(self):
        # without a comma, a multi-character alphabet reads the text as one symbol
        from iufst import MalformedInputError

        assert parse_word("aa", ("aa", "<0")) == ("aa",)
        with pytest.raises(MalformedInputError, match=r"symbols \['aa<0'\] not in the alphabet"):
            parse_word("aa<0", ("aa", "<0"))

    def test_bad_symbol(self):
        from iufst import MalformedInputError

        with pytest.raises(MalformedInputError):
            parse_word("az", ("a", "b"))

    @pytest.mark.parametrize("text", ["a,,b", ",", "a,"])
    def test_empty_symbol(self, text):
        from iufst import MalformedInputError

        with pytest.raises(MalformedInputError, match=r"symbols \[''"):
            parse_word(text, ("a", "b"))
