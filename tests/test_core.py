"""Sweep semantics: outcomes, bounded runs, traces, accept-mode checks."""

import itertools
import random
import sys
from dataclasses import replace

import pytest

from iufst import (
    AcceptModeViolation,
    Completed,
    Dfa,
    Lba,
    MachineError,
    MalformedInputError,
    Nfa,
    NotDeterministicError,
    RunReport,
    Stuck,
    Transducer,
    check_accept_mode,
    compile_lba,
    find_accepting_trace,
    gen_e,
    lba_copy,
    materialize,
    run,
    run_deterministic,
    sweep,
    to_nfa,
)
from iufst import core
from iufst.core import _check_list, _check_token, _decode, _encode, _live, _run_traced, _search, verdict

from test_decide import fuzz_machine
from test_sweep_reference import (
    FAMILIES,
    WORDS_TO_6,
    kernel_sweep,
    random_tapes,
    ref_sweep,
    ref_sweep_ordered,
)


def identity_machine(accepting=("q",)):
    return Transducer(
        states=("q",),
        input_alphabet=("a", "b"),
        output_alphabet=("a", "b", "<"),
        endmarker="<",
        initial="q",
        accepting=accepting,
        transitions={
            ("q", "a"): (("q", "a"),),
            ("q", "b"): (("q", "b"),),
            ("q", "<"): (("q", "<"),),
        },
        sweep_bound=1,
    )


BLANK = "state must be a non-empty whitespace-free string, got {!r}"
# each bad token, with the message the token rule gives it
BAD_TOKENS = [
    ("", BLANK.format("")),
    (3, BLANK.format(3)),
    (None, BLANK.format(None)),
    (" q", BLANK.format(" q")),
    ("q\u2028", BLANK.format("q\u2028")),
    ("a%b", "state 'a%b' cannot be written in the text format"),
    ("%", "state '%' cannot be written in the text format"),
    ("->", "state '->' cannot be written in the text format"),
]
WHITESPACE = [c for c in range(sys.maxunicode + 1) if chr(c).isspace()]


class TestCheckToken:
    def test_rejects_exactly_the_whitespace_code_points(self):
        rejected = []
        for c in range(sys.maxunicode + 1):
            if c == ord("%"):
                continue  # rejected for the text format, below
            tok = "a" + chr(c) + "b"
            try:
                _check_token(tok, "state")
            except MachineError as err:
                assert str(err) == BLANK.format(tok)
                rejected.append(c)
        assert rejected == WHITESPACE

    @pytest.mark.parametrize("tok, message", BAD_TOKENS)
    def test_messages(self, tok, message):
        with pytest.raises(MachineError) as err:
            _check_token(tok, "state")
        assert str(err.value) == message

    def test_accepts_arrow_inside_a_token(self):
        _check_token("a->b", "state")
        _check_token("->>", "state")


class TestCheckList:
    """The joined pass accepts a list; the token rule names what it rejects."""

    def raises(self, items):
        with pytest.raises(MachineError) as err:
            _check_list(items, "state")
        return str(err.value)

    @pytest.mark.parametrize("tok, message", BAD_TOKENS)
    def test_bad_token_after_a_good_one(self, tok, message):
        assert self.raises(["q", tok]) == message
        assert self.raises(("q", tok, "r")) == message
        # past the first slice the joined pass takes
        assert self.raises([f"q{i}" for i in range(2 * core._LIST_CHUNK)] + [tok]) == message

    def test_whitespace_after_a_good_one(self):
        for c in WHITESPACE:
            tok = "a" + chr(c) + "b"
            assert self.raises(["q", tok]) == BLANK.format(tok)

    def test_bad_token_named_before_a_duplicate(self):
        assert self.raises(["q", "a%b", "q"]) == "state 'a%b' cannot be written in the text format"
        assert self.raises(["q", "q", " "]) == BLANK.format(" ")

    def test_accepts_good_tokens(self):
        assert _check_list(("q", "a->b", "->>", "r"), "state") == {"q", "a->b", "->>", "r"}
        assert _check_list([], "state") == set()

    def test_first_repeat_of_many(self):
        # a quadratic search for the repeat takes tens of seconds here
        items = [f"q{i}" for i in range(50_000)]
        assert self.raises(items + ["q17", items[-1]]) == "duplicate state 'q17'"
        assert self.raises(items + [items[-1]]) == f"duplicate state {items[-1]!r}"


# one valid record of each kind, each with the single state q
RECORDS = {
    "transducer": Transducer(("q",), ("a",), ("a", "<"), "<", "q", ("q",), {}),
    "nfa": Nfa(("q",), ("a",), "q", ("q",), {}),
    "dfa": Dfa(("q",), ("a",), "q", ("q",), {}),
    "lba": Lba(("q",), ("a",), ("a", ">", "<"), ">", "<", "q", ("q",), {}),
}


class TestConstruction:
    @pytest.mark.parametrize(
        "change,message",
        [
            ({"initial": "z"}, "initial state 'z' not declared"),
            ({"accepting": ("q", "z")}, "accepting state 'z' not declared"),
            ({"states": ("q", "q")}, "duplicate state 'q'"),
            ({"states": ("q", " ")}, "state must be a non-empty whitespace-free string, got ' '"),
        ],
        ids=["undeclared-initial", "undeclared-accepting", "duplicate-state", "blank-state"],
    )
    @pytest.mark.parametrize("kind", RECORDS)
    def test_header_messages(self, kind, change, message):
        with pytest.raises(MachineError) as err:
            replace(RECORDS[kind], **change)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "call,error,message",
        [
            (lambda: replace(RECORDS["transducer"], sweep_bound=0), MachineError, "bad sweep bound 0"),
            (lambda: replace(RECORDS["transducer"], endmarker="z"), MachineError,
             "endmarker must be an output symbol"),
            (lambda: replace(RECORDS["transducer"], transitions={("z", "a"): (("q", "a"),)}),
             MachineError, "transition from undeclared state 'z'"),
            (lambda: replace(RECORDS["transducer"], transitions={("q", "a"): ()}), MachineError,
             "empty transition set for ('q', 'a'); omit the key instead"),
            (lambda: replace(RECORDS["nfa"], transitions={("q", "a"): ("z",)}), MachineError,
             "transition into undeclared state 'z'"),
            (lambda: replace(RECORDS["lba"], transitions={("z", "a"): (("q", "R"),)}), MachineError,
             "bad transition key ('z', 'a')"),
            (lambda: replace(RECORDS["lba"], transitions={("q", "a"): ()}), MachineError,
             "empty transition set for ('q', 'a')"),
            (lambda: replace(RECORDS["lba"], transitions={("q", "a"): (("z", "R"),)}), MachineError,
             "transition into undeclared state 'z'"),
            (lambda: RunReport(True, None, 0, False), ValueError, "accepted runs must carry a sweep count"),
            (lambda: sweep(RECORDS["transducer"], ()), MalformedInputError, "tape must have at least one cell"),
        ],
        ids=["sweep-bound", "endmarker-output", "move-from", "empty-moves", "nfa-move-into",
             "lba-move-key", "lba-empty-moves", "lba-move-into", "accepted-sweeps", "empty-tape"],
    )
    def test_rule_messages(self, call, error, message):
        # the rules no other test reaches, each with its exception type and message
        with pytest.raises(error) as err:
            call()
        assert type(err.value) is error and str(err.value) == message

    def test_endmarker_must_not_be_input(self):
        with pytest.raises(MachineError):
            Transducer(
                states=("q",),
                input_alphabet=("a",),
                output_alphabet=("a",),
                endmarker="a",
                initial="q",
                accepting=(),
                transitions={},
            )

    def test_undeclared_states_rejected(self):
        with pytest.raises(MachineError):
            Transducer(
                states=("q",),
                input_alphabet=("a",),
                output_alphabet=("a", "<"),
                endmarker="<",
                initial="r",
                accepting=(),
                transitions={},
            )

    def test_transition_output_must_be_declared(self):
        with pytest.raises(MachineError):
            Transducer(
                states=("q",),
                input_alphabet=("a",),
                output_alphabet=("a", "<"),
                endmarker="<",
                initial="q",
                accepting=(),
                transitions={("q", "a"): (("q", "z"),)},
            )

    def test_is_deterministic(self):
        assert identity_machine().is_deterministic
        assert not gen_e(2, 1).is_deterministic


class TestSweep:
    def test_identity_sweep(self):
        t = identity_machine()
        outs = sweep(t, ("a", "b", "<"))
        assert outs == {Completed("q", ("a", "b", "<"))}

    def test_stuck_on_undefined(self):
        t = Transducer(
            states=("q0",),
            input_alphabet=("a",),
            output_alphabet=("a", "<"),
            endmarker="<",
            initial="q0",
            accepting=(),
            transitions={("q0", "<"): (("q0", "<"),)},
        )
        assert sweep(t, ("a", "<")) == {Stuck(0, "q0")}

    def test_gen_e_branching_outcomes(self, e21):
        # reading b allows blanking or starting a block; both branches
        # then halt at the endmarker (hand simulation of the rules)
        outs = sweep(e21, ("b", "<0"))
        assert outs == {Stuck(1, "q0"), Stuck(1, "q2")}

    def test_malformed_tape(self, e21):
        with pytest.raises(MalformedInputError):
            sweep(e21, ("a", "z"))

    def test_length_preservation(self, e22):
        rng = random.Random(7)
        syms = list(e22.symbol_set)
        for _ in range(50):
            tape = tuple(rng.choice(syms) for _ in range(rng.randint(1, 9)))
            for out in sweep(e22, tape):
                if isinstance(out, Completed):
                    assert len(out.output) == len(tape)
                else:
                    assert out.position < len(tape)

    def test_deterministic_single_outcome(self, unary22):
        for m in range(8):
            assert len(sweep(unary22, ("a",) * m + ("<0",))) <= 1


class TestRun:
    def test_gen_e_run_example(self, e21):
        report = run(e21, ("a", "b", "a"), 1)
        assert report.accepted and report.min_accept_sweeps == 1

    def test_unary_empty_word(self, unary22):
        report = run(unary22, (), 2)
        assert report.accepted

    def test_zero_sweeps(self, e21):
        report = run(e21, ("a", "b", "a"), 0)
        assert not report.accepted and not report.cap_hit

    def test_malformed_word(self, e21):
        with pytest.raises(MalformedInputError):
            run(e21, ("a", "_"), 2)

    def test_tape_cap_reported_not_rejected(self, e22):
        # accepted at sweep 2, but the cap stops exploration after the
        # first tape; the report must say unknown, not rejected.  A budget
        # of 9 lies past the lane walk's, so the tape search runs
        report = run(e22, ("b",) + ("a",) * 7, 9, tape_cap=1)
        assert report.cap_hit and not report.accepted and not report.exhausted

    def test_tape_cap_bounds_no_lane_walk(self, e22):
        # at the bound itself the lane walk keeps no tape and answers
        report = run(e22, ("b",) + ("a",) * 7, 2, tape_cap=1)
        assert report == RunReport(True, 2, 0, False)

    def test_monotonicity(self, e22):
        rng = random.Random(3)
        for _ in range(40):
            w = tuple(rng.choice("ab") for _ in range(rng.randint(0, 7)))
            r1 = run(e22, w, 2, 10_000)
            assert not r1.cap_hit
            if r1.accepted:
                r2 = run(e22, w, 5, 100_000)
                assert r2.accepted and r2.min_accept_sweeps <= r1.min_accept_sweeps


# a lane walk's rejection keeps no tape; the tape search's sweeps some
LANE_NO = RunReport(False, None, 0, False)
TAPES_NO = RunReport(False, None, 12, False)
CAP_HIT = RunReport(False, None, 1, True)


class TestVerdict:
    """``core.verdict``, the one rule for what a run's report answers."""

    @pytest.mark.parametrize("bound,report,budget,pair,answer", [
        (3, RunReport(True, 2, 0, False), 2, None, True),
        ("linear", RunReport(True, 5, 9, False), 9, None, True),
        # exhausted: no tape is left, whatever the bound
        (None, RunReport(False, None, 0, False, True), 2, None, False),
        ("linear", RunReport(False, None, 5, False, True), 2, None, False),
        # an int bound the budget covers, on either route
        (3, LANE_NO, 3, None, False), (3, TAPES_NO, 3, None, False), (3, LANE_NO, 4, None, False),
        # one it does not cover, or none
        (3, LANE_NO, 2, None, None), (3, TAPES_NO, 2, None, None),
        ("linear", LANE_NO, 8, None, None), (None, TAPES_NO, 8, None, None),
        (3, CAP_HIT, 3, None, None),
        # a pair's bound stands in for the machine's
        ("linear", LANE_NO, 2, 2, False), (3, TAPES_NO, 2, 2, False), (2, LANE_NO, 2, 3, None),
        (None, CAP_HIT, 2, 2, None),
    ])
    def test_table(self, bound, report, budget, pair, answer):
        t = replace(gen_e(2, 3), sweep_bound=bound)
        assert verdict(t, report, budget, pair) is answer

    def test_routes_agree(self):
        # run's lane reports and the tape search's answer alike at every budget
        for bound in (3, "linear"):
            t = replace(gen_e(2, 3), sweep_bound=bound)
            for w in itertools.chain.from_iterable(itertools.product("ab", repeat=n) for n in range(9)):
                for s in range(1, 6):
                    want = verdict(t, _run_traced(t, w, s, 10_000)[0], s)
                    assert verdict(t, run(t, w, s), s) is want, (bound, w, s)


class TestRunDeterministic:
    def test_requires_determinism(self, e21):
        with pytest.raises(NotDeterministicError):
            run_deterministic(e21, ("a",), 3)

    def test_negative_budget_rejected(self, copy_machine):
        with pytest.raises(ValueError, match="max_sweeps must be >= 0"):
            run_deterministic(copy_machine, ("a", "$", "a"), -1)

    def test_cycle_detection(self):
        # a fixed-point tape recurs at the first boundary already; the
        # run reports definite rejection instead of sweeping forever
        t = identity_machine(accepting=())
        report, trace = run_deterministic(t, ("a",), 10)
        assert not report.accepted and report.exhausted
        assert report.min_accept_sweeps is None
        assert trace == [("a", "<"), ("a", "<")]

    def test_unary_examples(self, unary22):
        report, trace = run_deterministic(unary22, ("a",) * 4, 5)
        assert report.accepted and report.min_accept_sweeps == 2
        assert trace[0] == ("a", "a", "a", "a", "<0")
        report, _ = run_deterministic(unary22, ("a",) * 3, 5)
        assert not report.accepted and report.exhausted

    def test_agrees_with_run(self, unary22, copy_machine, uexpo_machine):
        for t, alphabet in [
            (unary22, ("a",)),
            (copy_machine, ("a", "b", "$")),
            (uexpo_machine, ("a",)),
        ]:
            for length in range(0, 8):
                for w in itertools.product(alphabet, repeat=length):
                    det, _ = run_deterministic(t, w, 20)
                    nd = run(t, w, 20, 10_000)
                    assert det.accepted == nd.accepted, w
                    if det.accepted:
                        assert det.min_accept_sweeps == nd.min_accept_sweeps

    def test_repeated_choice_is_one_move(self):
        # the kernel deduplicates choices, so a key listing one choice twice
        # is deterministic: a -> b twice, then b -> q accepting on the endmarker
        t = Transducer(
            states=("p", "q"),
            input_alphabet=("a", "b"),
            output_alphabet=("a", "b", "<"),
            endmarker="<",
            initial="p",
            accepting=("q",),
            transitions={
                ("p", "a"): (("p", "b"), ("p", "b")),
                ("p", "b"): (("q", "b"),),
                ("p", "<"): (("p", "<"),),
                ("q", "<"): (("q", "<"),),
            },
        )
        assert t.is_deterministic
        # 9 sweeps lie past the lane walk's budgets: run searches tapes
        for w in [(), ("a",), ("b",), ("a", "a"), ("a", "b")]:
            report, trace = run_deterministic(t, w, 9)
            assert report == run(t, w, 9), w
            assert (trace if report.accepted else None) == find_accepting_trace(t, w, 9), w
            assert find_accepting_trace(t, w, 5) == find_accepting_trace(t, w, 9), w  # one run to trace
        assert run(t, ("a",), 9).min_accept_sweeps == 2


class TestTrace:
    def test_accepting_trace_shape(self, e21):
        trace = find_accepting_trace(e21, ("a", "b", "a"), 3, 1000)
        assert trace is not None
        assert trace[0] == ("a", "b", "a", "<0")
        assert len(trace) == 2  # one sweep: initial plus final tape

    def test_rejected_word_has_no_trace(self, e21):
        assert find_accepting_trace(e21, ("a", "b"), 5, 1000) is None

    def test_trace_matches_min_sweeps(self, e22):
        word = ("b",) + ("a",) * 3
        report = run(e22, word, 4, 10_000)
        trace = find_accepting_trace(e22, word, 4, 10_000)
        assert report.accepted
        assert len(trace) == report.min_accept_sweeps + 1


class TestAcceptMode:
    def test_empty_word_list(self, e21):
        assert check_accept_mode(e21, [], lambda n: 1).ok

    def test_gen_e_positives_within_bound(self, e22):
        words = [
            w
            for length in range(0, 9)
            for w in itertools.product("ab", repeat=length)
            if run(e22, w, 4, 10_000).accepted
        ]
        assert words
        report = check_accept_mode(e22, words, lambda n: 2)
        assert report.ok

    def test_violation_detected(self):
        # accepts at sweep 1 (straight to f) and at sweep 3 (detour
        # through b then c); bound 2 flags the late acceptance
        t = Transducer(
            states=("q0", "f"),
            input_alphabet=("a",),
            output_alphabet=("a", "b", "c", "<"),
            endmarker="<",
            initial="q0",
            accepting=("f",),
            transitions={
                ("q0", "a"): (("q0", "a"),),
                ("q0", "<"): (("f", "<"), ("q0", "b")),
                ("q0", "b"): (("q0", "c"),),
                ("q0", "c"): (("f", "c"),),
            },
        )
        report = check_accept_mode(t, [("a",)], lambda n: 2)
        assert not report.ok
        assert any(v.sweeps == 3 for v in report.violations)
        assert check_accept_mode(t, [("a",)], lambda n: 3).ok

    def test_unbounded_recurrence_flagged(self):
        # the tape cycles with period 2 and accepts inside the cycle, so
        # accepting halts happen at unboundedly many sweep counts
        t = Transducer(
            states=("q0", "f"),
            input_alphabet=("a",),
            output_alphabet=("a", "b", "<"),
            endmarker="<",
            initial="q0",
            accepting=("f",),
            transitions={
                ("q0", "a"): (("q0", "a"),),
                ("q0", "<"): (("f", "<"), ("q0", "b")),
                ("q0", "b"): (("q0", "<"),),
            },
        )
        report = check_accept_mode(t, [("a",)], lambda n: 50)
        assert not report.ok
        assert any(v.sweeps is None for v in report.violations)


def cycling_machine(accept_first: bool) -> Transducer:
    """Round 1 rewrites a< to c< and round 2 c< to cb; round 3 turns cb
    back into c<, so the frontier after round 3 repeats the one after
    round 1.  ``accept_first`` accepts in round 1 only (before the cycle),
    otherwise in round 2 only (the cycle's first round)."""
    first = (("f", "<"), ("q0", "<")) if accept_first else (("q0", "<"),)
    second = (("q1", "b"),) if accept_first else (("f", "<"), ("q1", "b"))
    return Transducer(
        states=("q0", "q1", "f"),
        input_alphabet=("a",),
        output_alphabet=("a", "b", "c", "<"),
        endmarker="<",
        initial="q0",
        accepting=("f",),
        transitions={
            ("q0", "a"): (("q0", "c"),),
            ("q0", "<"): first,
            ("q0", "c"): (("q1", "c"),),
            ("q1", "<"): second,
            ("q1", "b"): (("q1", "<"),),
        },
    )


class TestAcceptModeCycle:
    def test_acceptance_at_first_round_of_cycle(self):
        # the cycle spans rounds 2..3 (frontier after 3 == after 1); its
        # only acceptance is in round 2, so it recurs forever
        report = check_accept_mode(cycling_machine(False), [("a",)], lambda n: 50)
        assert report.violations == (AcceptModeViolation(("a",), None, 50),)

    def test_acceptance_before_cycle(self):
        # round 1 accepts, then the cycle 2..3 never does: bound 1 holds
        t = cycling_machine(True)
        assert check_accept_mode(t, [("a",)], lambda n: 1).ok
        assert run(t, ("a",), 5).min_accept_sweeps == 1


class TestLongTapes:
    """Answer checks on tapes long enough that a sweep costing quadratic
    time per branch would take tens of seconds."""

    def test_uexpo_2_14(self, uexpo_machine):
        word = ("a",) * 2**14
        report = run(uexpo_machine, word, 4 * 2**14)
        assert report.accepted and report.min_accept_sweeps == 14
        assert run_deterministic(uexpo_machine, word, 4 * 2**14)[0] == report

    def test_e23_b_800(self):
        report = run(gen_e(2, 3), ("b",) * 800, 3)
        assert report.accepted and report.min_accept_sweeps == 3


def test_one_sweep_machines_match_their_nfa(e21):
    nfa = to_nfa(e21, 1)
    for length in range(0, 9):
        for w in itertools.product("ab", repeat=length):
            assert nfa.accepts(w) == run(e21, w, 1, 10_000).accepted, w


class TestMaterialize:
    """The moves contract, on a mod-3 counter over tuple symbols."""

    A, B, C = ("in", "a"), ("in", "b"), ("in", "c")

    def moves(self, s):
        return [
            (self.A, (s + 1) % 3, ("out", "a")),
            (self.B, s, ("out", "b")),
            (self.B, (s + 2) % 3, ("out", "a")),
            ("<", s, "<"),
        ]

    def build(self, moves, symbol_name=lambda x: x if isinstance(x, str) else x[1] + "'" * (x[0] == "out"),
              name_of=lambda s: f"q{s}"):
        return materialize(
            start=0,
            moves=moves,
            input_alphabet=(self.A, self.B),
            output_alphabet=(("out", "a"), ("out", "b"), "<"),
            endmarker="<",
            accepting=lambda s: s == 0,
            name_of=name_of,
            symbol_name=symbol_name,
        )

    def test_moves_ordered_by_rank_of_symbol_read(self):
        t = self.build(self.moves)
        assert t.states == ("q0", "q1", "q2")
        assert t.input_alphabet == ("a", "b") and t.output_alphabet == ("a'", "b'", "<")
        assert t.transitions[("q0", "b")] == (("q0", "b'"), ("q2", "a'"))
        # the endmarker, then b's choices in order, then a: same machine
        shuffled = self.build(lambda s: [self.moves(s)[i] for i in (3, 1, 0, 2)])
        assert list(shuffled.transitions.items()) == list(t.transitions.items())

    def test_undeclared_read_skipped(self):
        t = self.build(lambda s: self.moves(s) + [(self.C, 7, ("out", "a"))])
        assert t == self.build(self.moves)

    def test_undeclared_read_skipped_before_its_write(self):
        # the move is dropped on its read symbol: its undeclared write raises nothing
        t = self.build(lambda s: [(self.C, 7, ("out", "d"))] + self.moves(s))
        assert t == self.build(self.moves)
        # nor is its next state or written symbol looked up: these cannot be
        t = self.build(lambda s: [(self.C, [7], ["d"])] + self.moves(s))
        assert t == self.build(self.moves)

    def test_moves_and_name_of_called_once_per_state(self):
        asked, named = [], []

        def moves(s):
            asked.append(s)
            return self.moves(s)

        def name_of(s):
            named.append(s)
            return f"q{s}"

        t = self.build(moves, name_of=name_of)
        assert asked == named == [0, 1, 2]
        assert t == self.build(self.moves)

    def test_undeclared_write_raises(self):
        # the first undeclared write in the rank of the symbol read is named
        extra = lambda s: [(self.B, s, ("out", "d")), (self.A, s, ("out", "c"))]
        with pytest.raises(MachineError, match="undeclared output symbol \"c'\""):
            self.build(lambda s: extra(s) + self.moves(s))

    def test_render_collision_raises(self):
        with pytest.raises(MachineError, match="both render 'a'"):
            self.build(self.moves, symbol_name=lambda x: x if isinstance(x, str) else x[1])

    def test_state_naming_not_injective_raises(self):
        # states 0 and 2 are both named q0; each is named when discovered
        with pytest.raises(MachineError, match="state naming is not injective"):
            self.build(self.moves, name_of=lambda s: f"q{s % 2}")


def assert_pruning_keeps_pairs(t, tapes):
    """The kernel drops branches that cannot finish the sweep; its
    completed pairs, in order, must be the slow reference's, which keeps
    every branch to the end."""
    for tape in tapes:
        assert kernel_sweep(t, tape) == ref_sweep_ordered(t, tape), tape


def reached_tapes(t, words, sweeps, cap=300):
    """The distinct tapes at the sweep boundaries of searches from
    ``words``, where a compiled LBA's head has moved into the tape."""
    tapes: dict = {}
    for w in words:
        for _, _, _, frontier in _search(t, _encode(t, t.initial_tape(w)), sweeps, cap):
            tapes.update(dict.fromkeys(_decode(t, tape) for tape in frontier or ()))
    return list(tapes)


class TestPrunedSweep:
    def test_fuzz_machines(self):
        rng, tape_rng = random.Random(20261018), random.Random(12)
        for _ in range(200):
            t, k = fuzz_machine(rng)
            tapes = [t.initial_tape(w) for w in WORDS_TO_6]
            assert_pruning_keeps_pairs(t, tapes + random_tapes(tape_rng, t, 20, 60))
            assert_pruning_keeps_pairs(t, reached_tapes(t, WORDS_TO_6, k + 1))

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_families(self, name):
        make, alphabet, max_len, sweeps = FAMILIES[name]
        t = make()
        words = [w for n in range(max_len + 1) for w in itertools.product(alphabet, repeat=n)]
        words = words[:: max(1, len(words) // 100)]
        tapes = [t.initial_tape(w) for w in words] + random_tapes(random.Random(name), t, 30, 40)
        assert_pruning_keeps_pairs(t, tapes + reached_tapes(t, words[-10:], sweeps))

    def test_every_choice_dead_at_the_fork(self):
        # the simulated head is in s1 on the right endmarker, where the LBA
        # has no move: the initial state's ten guesses at cell 0 all die
        t = compile_lba(lba_copy())
        tape = ("[_.>|_.a]", "[_.b]", "[_.$]", "[_.a]", "[_.b]", "[s1.<]")
        q0, delta, _ = t._indexed
        choices = delta[q0][_encode(t, tape)[0]]  # the move table is keyed by tape characters
        assert len(choices) == 10
        assert not any(_live(t, _encode(t, tape), 0)[1] >> p & 1 for p, _ in choices)
        assert kernel_sweep(t, tape) == [] == ref_sweep_ordered(t, tape)
        # sweep() finds every halted branch in its own pass
        outcomes = sweep(t, tape)
        assert len(outcomes) == 46
        assert all(isinstance(o, Stuck) for o in outcomes)
        assert outcomes == ref_sweep(t, tape)

    def test_memo_cleared_mid_run(self, monkeypatch):
        make, _, _, sweeps = FAMILIES["lba(copy)"]
        words = [tuple("ab$ab"), tuple("ab$aa"), tuple("ba$ba")]
        expected = [(run(make(), w, sweeps), find_accepting_trace(make(), w, sweeps))
                    for w in words]
        t = make()
        assert [(run(t, w, sweeps), find_accepting_trace(t, w, sweeps)) for w in words] == expected
        assert len(t._live_rows) > 2 and len(t._forks) > 2
        # e(2,3) members walk 3 and 4 lanes, filling each LaneNfa's walk and trace memos
        members = [tuple(w) for w in ("baaaaaaa", "abbaaaaaaa", "bababaaaaaaa")]

        def lane_runs(u):
            return [(run(u, w, s), find_accepting_trace(u, w, s)) for w in members for s in (3, 4)]

        u = gen_e(2, 3)
        lanes = lane_runs(u)
        assert all(report.accepted and report.tapes_explored == 0 for report, _ in lanes)
        assert all(len(n._sets) > 2 and len(n._trace_memo) > 2 for n in u._lane_walk.values())
        # a cap of 2 empties the live pass's masks, the fork memo and the
        # lanes' walk and trace memos on most misses: one cap bounds them all
        monkeypatch.setattr(core, "_LIVE_MEMO_CAP", 2)
        t = make()
        assert [(run(t, w, sweeps), find_accepting_trace(t, w, sweeps)) for w in words] == expected
        assert 0 < len(t._live_rows) <= 2
        assert 0 < len(t._forks) <= 2
        u = gen_e(2, 3)
        assert lane_runs(u) == lanes
        assert sorted(u._lane_walk) == [3, 4]
        assert all(0 < len(n._sets) <= 2 and 0 < len(n._trace_memo) <= 2 for n in u._lane_walk.values())
