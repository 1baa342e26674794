"""Linear bounded automata: a configuration-space simulator and the
compiler that turns an LBA into an iterated transducer.

The compiled transducer keeps two tracks per cell: the tape symbol of
the source machine and a head flag holding the current state when the
head sits there.  The first cell additionally carries the left
endmarker's track.  Each sweep advances the encoded configuration by
one step; left moves are handled by guessing, one cell early, that the
head will arrive from the right, and verifying the guess on the next
cell.  Sweep s+1 of the compiled machine therefore emits the source
configuration after step s, and acceptance happens exactly one sweep
after the source machine accepts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .core import MachineError, Transducer, _check_declared, _check_list, _fresh, _Record, name_table

# Actions are tape symbols (stationary rewrite) or the move tokens below.
MOVE_LEFT = "L"
MOVE_RIGHT = "R"


@dataclass(frozen=True)
class Lba(_Record):
    """Nondeterministic linear bounded automaton.

    The head stays between the endmarkers, which are never overwritten;
    acceptance means halting in an accepting state on the right
    endmarker.  ``transitions`` maps (state, tape symbol) to tuples of
    (state, action) where an action is a tape symbol to write in place
    or one of the move tokens ``L`` / ``R`` (these two tokens are
    reserved and may not be tape symbols).
    """

    states: tuple[str, ...]
    input_alphabet: tuple[str, ...]
    tape_alphabet: tuple[str, ...]
    left_end: str
    right_end: str
    initial: str
    accepting: tuple[str, ...]
    transitions: dict[tuple[str, str], tuple[tuple[str, str], ...]]
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        states = _check_list(self.states, "state")
        _check_list(self.input_alphabet, "input symbol")
        tape = self._check_tape(self.tape_alphabet)
        self._check_endmarkers(self.left_end, self.right_end, tape, self.input_alphabet)
        _check_declared(states, "initial", self.initial)
        _check_declared(states, "accepting", *self.accepting)
        self._check_moves(states, tape, self.left_end, self.right_end, self.transitions.items())

    @staticmethod
    def _check_tape(tape_alphabet: Sequence[str]) -> set[str]:
        tape = _check_list(tape_alphabet, "tape symbol")
        if MOVE_LEFT in tape or MOVE_RIGHT in tape:
            raise MachineError("tape symbols L and R are reserved for moves")
        return tape

    @staticmethod
    def _check_endmarkers(left_end: str, right_end: str, tape: set[str],
                          input_alphabet: Sequence[str]) -> None:
        if left_end not in tape or right_end not in tape:
            raise MachineError("both endmarkers must be tape symbols")
        if left_end == right_end:
            raise MachineError("endmarkers must be distinct")
        for a in input_alphabet:
            if a not in tape or a in (left_end, right_end):
                raise MachineError(f"input symbol {a!r} must be a non-endmarker tape symbol")

    @staticmethod
    def _check_moves(states: set[str], tape: set[str], left_end: str, right_end: str,
                     items: Iterable[tuple[tuple[str, str], tuple[tuple[str, str], ...]]]) -> None:
        """The per-move rule, over (key, actions) transition items in order."""
        ends = (left_end, right_end)
        for (q, x), acts in items:
            if q not in states or x not in tape:
                raise MachineError(f"bad transition key ({q!r}, {x!r})")
            if not acts:
                raise MachineError(f"empty transition set for ({q!r}, {x!r})")
            for r, act in acts:
                if r not in states:
                    raise MachineError(f"transition into undeclared state {r!r}")
                if act == MOVE_LEFT:
                    if x == left_end:
                        raise MachineError("cannot move left on the left endmarker")
                elif act == MOVE_RIGHT:
                    if x == right_end:
                        raise MachineError("cannot move right on the right endmarker")
                elif act in tape:
                    if x in ends and act != x:
                        raise MachineError("endmarkers are never overwritten")
                    if x not in ends and act in ends:
                        raise MachineError("endmarkers may not be written elsewhere")
                else:
                    raise MachineError(f"action {act!r} is neither a tape symbol nor L/R")


@dataclass(frozen=True)
class LbaRunReport:
    accepted: bool
    steps_to_accept: Optional[int]
    halted: bool  # exploration finished; False means the step budget ran out


def run_lba(m: Lba, word: Sequence[str], max_steps: int = 10_000) -> LbaRunReport:
    """Breadth-first search over configurations with a visited set.

    The configuration space is finite, so a machine honouring the
    always-halts assumption is explored exhaustively; ``steps_to_accept``
    is the minimum number of steps of an accepting halting computation.
    """
    m._check_input(word)
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    tape0 = (m.left_end,) + tuple(word) + (m.right_end,)
    last = len(tape0) - 1
    start = (m.initial, 0, tape0)
    seen = {start}
    frontier = [start]
    for depth in range(max_steps + 1):
        if not frontier:
            return LbaRunReport(False, None, True)
        nxt = []
        for state, pos, tape in frontier:
            acts = m.transitions.get((state, tape[pos]), ())
            if not acts:
                if state in m.accepting_set and pos == last:
                    return LbaRunReport(True, depth, True)
                continue
            for r, act in acts:
                if act == MOVE_LEFT:
                    cfg = (r, pos - 1, tape)
                elif act == MOVE_RIGHT:
                    cfg = (r, pos + 1, tape)
                else:
                    cfg = (r, pos, tape[:pos] + (act,) + tape[pos + 1 :])
                if cfg not in seen:
                    seen.add(cfg)
                    nxt.append(cfg)
        frontier = nxt
    return LbaRunReport(False, None, not frontier)


def compile_lba(m: Lba) -> Transducer:
    """Iterated transducer accepting the same language as the LBA.

    Requires the standard assumptions (head within endmarkers, halting
    acceptance on the right endmarker only); accepting states must have
    no outgoing transition on the right endmarker, which is checked
    statically.  The result has 2|Q| + 4 states, and on every accepted
    word its minimum accepting sweep count is the source machine's
    minimum accepting step count plus one.

    Cells (flag, symbol) and (left flag, ``>``, flag, symbol) are named
    ``[f.x]`` and ``[fl.>|f.x]`` by ``name_table``, in brackets doubled
    until no cell is spelled like an input symbol or the right endmarker,
    which the output alphabet holds raw; the blank flag ``_``, the helpers
    ``p0 ps p1 p+`` and each hat state ``q^`` are primed until fresh.
    """
    for q in m.accepting:
        if m.transitions.get((q, m.right_end)):
            raise MachineError(f"accepting state {q!r} must halt on the right endmarker")
    Q = m.states
    blank = _fresh("_", set(Q))
    flags = (blank,) + Q
    taken = set(Q)
    p0, ps, p1, pp = (_fresh(tok, taken) for tok in ("p0", "ps", "p1", "p+"))
    hat = {q: _fresh(q + "^", taken) for q in Q}

    lend, end = m.left_end, m.right_end
    inner = tuple(x for x in m.tape_alphabet if x != lend)
    raw, frame = {*m.input_alphabet, end}, ("[", "]")
    while True:
        pair = name_table(flags, inner, seps=".", frame=frame, delims="|")
        double = name_table(flags, (lend,), flags, inner, seps=".|.", frame=frame)
        if raw.isdisjoint(pair.values()) and raw.isdisjoint(double.values()):
            break
        frame = (frame[0] + "[", frame[1] + "]")
    output_alphabet = (*pair.values(), *double.values(), *m.input_alphabet, end)

    delta: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {}

    def add(q: str, x: str, *choices: tuple[str, str]) -> None:
        if choices:
            delta[(q, x)] = delta.get((q, x), ()) + tuple(choices)

    # First sweep: split the input into tracks; the head starts on the
    # left endmarker, carried by the first cell.
    for x in tuple(m.input_alphabet) + (end,):
        add(p0, x, (ps, double[m.initial, lend, blank, x]))
        add(ps, x, (ps, pair[blank, x]))

    src = m.transitions
    acc = m.accepting_set
    # With the halting-acceptance check above, a configuration is an
    # accepting halt exactly when its state is accepting and its head is
    # on the right endmarker.  Such configurations are detected both
    # when written (so the accepting sweep is the one simulating the
    # final step, keeping sweeps = steps + 1) and when read back.

    # Later sweeps: p0 walks right looking for the head flag, guessing
    # at each headless cell whether the head arrives here by a left move
    # from the next cell (hat states verify the guess and die if wrong).
    for x in inner:
        for q in Q:
            add(p0, pair[blank, x], (hat[q], pair[q, x]))
            add(p0, double[blank, lend, blank, x], (hat[q], double[blank, lend, q, x]))
        add(p0, pair[blank, x], (p0, pair[blank, x]))
        add(p0, double[blank, lend, blank, x], (p0, double[blank, lend, blank, x]))
        for q in Q:
            for r, act in src.get((q, x), ()):
                if act == MOVE_LEFT:
                    add(hat[r], pair[q, x], (p1, pair[blank, x]))

    # Head found with no pending guess: stationary and right moves.
    for x in inner:
        if x == end:
            continue
        for q in Q:
            choices = []
            for r, act in src.get((q, x), ()):
                if act == MOVE_RIGHT:
                    choices.append((r, pair[blank, x]))
                elif act != MOVE_LEFT:
                    choices.append((p1, pair[r, act]))
            add(p0, pair[q, x], *choices)

    # Right-move arrival: plant the head flag one cell later.  Arriving
    # on the right endmarker in an accepting state is an accepting halt.
    for x in inner:
        for p in Q:
            if x == end and p in acc:
                add(p, pair[blank, x], (pp, pair[blank, x]))
            else:
                add(p, pair[blank, x], (p1, pair[p, x]))
        add(p1, pair[blank, x], (p1, pair[blank, x]))

    # Steps on the right endmarker: stationary rewrites keep it intact,
    # entering the accepting state when the rewrite halts acceptingly;
    # reading back an accepting halt also accepts.
    for q in Q:
        choices = []
        for r, act in src.get((q, end), ()):
            if act == MOVE_LEFT:
                continue
            if r in acc:
                choices.append((pp, pair[blank, end]))
            else:
                choices.append((p1, pair[r, end]))
        if q in acc:
            choices.append((pp, pair[blank, end]))
        add(p0, pair[q, end], *choices)

    # First-cell doubles: steps on the left endmarker and on the first
    # real cell, including left moves onto the left endmarker (same
    # compiled cell, no guessing needed).  The x == end cases arise only
    # for the empty word, whose whole tape is the one double cell.
    for x in inner:
        for q in Q:
            choices = []
            for r, act in src.get((q, m.left_end), ()):
                if act == MOVE_RIGHT:
                    if x == end and r in acc:
                        choices.append((pp, double[blank, lend, blank, x]))
                    else:
                        choices.append((p1, double[blank, lend, r, x]))
                elif act != MOVE_LEFT:
                    choices.append((p1, double[r, lend, blank, x]))
            add(p0, double[q, lend, blank, x], *choices)
            choices = []
            for r, act in src.get((q, x), ()):
                if act == MOVE_LEFT:
                    choices.append((p1, double[r, lend, blank, x]))
                elif act == MOVE_RIGHT:
                    choices.append((r, double[blank, lend, blank, x]))
                elif x == end and r in acc:
                    choices.append((pp, double[blank, lend, blank, x]))
                else:
                    choices.append((p1, double[blank, lend, r, act]))
            if x == end and q in acc:
                choices.append((pp, double[blank, lend, blank, x]))
            add(p0, double[blank, lend, q, x], *choices)

    states = (p0, ps, p1, pp) + Q + tuple(hat[q] for q in Q)
    return Transducer(
        states=states,
        input_alphabet=tuple(m.input_alphabet),
        output_alphabet=output_alphabet,
        endmarker=end,
        initial=p0,
        accepting=(pp,),
        transitions=delta,
        sweep_bound="unbounded",
    )


def lba_anbn() -> Lba:
    """Marking LBA for words with n a's followed by n b's, n >= 1."""
    return Lba(
        states=("s0", "s1", "s2", "s3", "s4", "sA"),
        input_alphabet=("a", "b"),
        tape_alphabet=("a", "b", "A", "B", ">", "<"),
        left_end=">",
        right_end="<",
        initial="s0",
        accepting=("sA",),
        transitions={
            ("s0", ">"): (("s1", "R"),),
            ("s1", "A"): (("s1", "R"),),
            ("s1", "a"): (("s2", "A"),),
            ("s1", "B"): (("s4", "R"),),
            ("s2", "A"): (("s2", "R"),),
            ("s2", "a"): (("s2", "R"),),
            ("s2", "B"): (("s2", "R"),),
            ("s2", "b"): (("s3", "B"),),
            ("s3", "B"): (("s3", "L"),),
            ("s3", "a"): (("s3", "L"),),
            ("s3", "A"): (("s1", "R"),),
            ("s3", ">"): (("s1", "R"),),
            ("s4", "B"): (("s4", "R"),),
            ("s4", "<"): (("sA", "<"),),
        },
    )


def lba_copy() -> Lba:
    """Zigzag LBA for words u$u over {a, b}."""
    return Lba(
        states=("s0", "s1", "sa", "sb", "s2a", "s2b", "s3", "s4", "sA"),
        input_alphabet=("a", "b", "$"),
        tape_alphabet=("a", "b", "$", "X", ">", "<"),
        left_end=">",
        right_end="<",
        initial="s0",
        accepting=("sA",),
        transitions={
            ("s0", ">"): (("s1", "R"),),
            # Seek the leftmost unmarked symbol before $ and remember it.
            ("s1", "X"): (("s1", "R"),),
            ("s1", "a"): (("sa", "X"),),
            ("s1", "b"): (("sb", "X"),),
            ("s1", "$"): (("s4", "R"),),
            ("sa", "X"): (("sa", "R"),),
            ("sa", "a"): (("sa", "R"),),
            ("sa", "b"): (("sa", "R"),),
            ("sa", "$"): (("s2a", "R"),),
            ("sb", "X"): (("sb", "R"),),
            ("sb", "a"): (("sb", "R"),),
            ("sb", "b"): (("sb", "R"),),
            ("sb", "$"): (("s2b", "R"),),
            # Match against the leftmost unmarked symbol after $.
            ("s2a", "X"): (("s2a", "R"),),
            ("s2a", "a"): (("s3", "X"),),
            ("s2b", "X"): (("s2b", "R"),),
            ("s2b", "b"): (("s3", "X"),),
            # Return to the left end and restart.
            ("s3", "X"): (("s3", "L"),),
            ("s3", "a"): (("s3", "L"),),
            ("s3", "b"): (("s3", "L"),),
            ("s3", "$"): (("s3", "L"),),
            ("s3", ">"): (("s1", "R"),),
            # Left side exhausted: the right side must be fully marked.
            ("s4", "X"): (("s4", "R"),),
            ("s4", "<"): (("sA", "<"),),
        },
    )
