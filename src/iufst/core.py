"""Machine model and sweep-based execution for iterated uniform
finite-state transducers.

An iterated uniform finite-state transducer repeatedly applies one
length-preserving transduction to a fixed-length tape that initially
holds the input word followed by an endmarker.  Every sweep starts in
the initial state on the leftmost cell, rewrites the tape cell by cell,
and the machine accepts by finishing a sweep in an accepting state.
Both deterministic and nondeterministic machines are supported; the
transition relation maps (state, symbol) to a finite set of
(state, output symbol) choices and may be undefined, in which case the
current computation branch halts.

Execution has one kernel and one driver, over ``str`` tapes in the machine's
tape code (``Transducer._code``), one character per cell: the public functions
encode a word or tape where it enters and decode only tapes leaving as tuples.
The one move table, ``Transducer._indexed``, reads and writes tape characters,
so no sweep or lane translates a symbol.  ``_sweep``, the only loop over
cells, walks a lone branch along the table's per-state rows of single-choice
moves (``_rows``), copying a run of identity moves (the state stays and writes
what it reads) as one slice, and keeps forked branches in a trie of output
chunks of up to ``_CHUNK`` symbols, so each completed output costs time linear
in the tape.  It drops every choice into a state that cannot read the rest of
the tape, found by a backward pass (``_live``) memoized on the machine, so it
reports no halts.  A fork's live choices are memoized too, per (state, symbol,
live mask).  Branches writing different symbols never merge again, so there a
lone branch whose live choices write pairwise distinct symbols splits into
independent row walks, one per choice, taken one after another (a single live
choice just steps on); the merging frontier serves only choices writing a
common symbol.  ``_search``, the only search over the tapes at sweep
boundaries, yields its rounds to ``_run_traced`` (behind ``run``,
``traced_run`` and ``find_accepting_trace``) and ``check_accept_mode``;
``run_deterministic`` calls the kernel, and so does ``sweep``, which finds
the halts itself in a forward pass over the states each cell is reached in.

Beside the tape search, ``run`` has a lane route, and this module is its one
home.  The paper's reduction simulates several sweeps in parallel inside one,
as lanes of tuple states with a dummy lane for branches that died.
``_lane_step`` gives the moves of a tuple of lanes over the machine's state
indices; lanes read and write tape characters through the one move table, and
the dummy symbol is an int, which no character equals.  ``LaneNfa`` is the NFA
of k lanes over input symbols, read through ``alphabet``, ``initial``,
``rows`` and ``accepting(q)``, where ``rows[q][c]`` holds the successors of
state q on the automaton's c-th symbol: the one way every search and
conversion reads an automaton.  Its row store fills a (tuple, symbol) cell, or
a tuple's endmarker entry, on its first read, so a search steps a tuple only
on the symbols it reads.  Its ``report`` is the one rule for what a set of its
tuples reached on a word answers, and its ``walk`` steps that set over a word
in one pass by ``_set_step``, the one set step, which reads one cell per
tuple.  ``traced_run`` is the one route of ``run`` and traces: at a budget of
s sweeps, for s up to ``_LANE_SWEEP_CAP``, it sweeps no tape: ``_run_lanes``,
the lane route of ``traced_run`` and the oracle's learned depth, walks the
s-lane ``LaneNfa`` it keeps on the machine and lets the report stand where
``verdict``, the one rule for what a report answers, gives it an answer;
elsewhere the tape search runs.  A lane trace, ``LaneNfa.trace``, walks back
over the sets the walk reached to what lanes wrote, choosing tuples by value,
so it need not be the tape search's first hit in frontier order.  Accept-mode
checks keep the tape search.  ``convert`` renders lanes: ``sweep_reduce`` as a
transducer, ``to_nfa`` as an ``Nfa`` with named states.

Constructions build machines through ``materialize``, which explores the
enabled moves of abstract states breadth-first, in one pass.  A
construction's ``moves(state)`` yields (symbol read, next state, symbol
written) triples only for the moves that exist, over states and symbols
that may be tuples; it is called once per reachable state.  Each declared
symbol is rendered to its token once, so no construction parses token
strings, and each state is named once, when it is discovered, so every
move goes into the transition table as tokens when it is read.  A move
costs one lookup of its read symbol (its rank, which indexes the tokens),
one of its next state and one of its written symbol, since a tuple's
hash is recomputed on every lookup; ``_bfs`` receives only the newly named
states.  Moves reading an undeclared symbol are skipped before anything
else of them is read, writing one raises ``MachineError``, and moves are
ordered by the declared rank of the symbol read, so state names and
transition order do not depend on the order a construction yields them in.
``renderer`` names every tuple, escaping its format's characters in each
part; ``_fresh`` picks helper names.

The machine records ``Transducer``, ``Nfa``, ``Dfa`` and ``Lba`` derive
from ``_Record`` and are the one home of their rules.  A constructor runs
its header rules in the order of the text format's directives:
``_check_list`` per declared list (one pass over the joined list, in
slices, with ``_check_token``, the one token rule, run only to name a bad
token), the record's own endmarker or tape rules, and ``_check_declared``
for the initial and accepting states.  It then runs its one per-move
rule, ``_check_moves``, over its transition items.  ``textio`` calls the
same rules at the lines they read.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import chain, product
from operator import itemgetter, length_hint
from types import SimpleNamespace
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence
from weakref import proxy

Word = tuple[str, ...]
# a tape as the public functions take and return it; inside, a ``str`` in the tape code
Tape = tuple[str, ...]

DEFAULT_TAPE_CAP = 1_000_000

BOUND_TAGS = ("log", "linear", "unbounded")


class MachineError(ValueError):
    """A machine value violates a structural invariant."""


class MalformedInputError(MachineError):
    """A word or tape contains symbols outside the machine's alphabets."""


class NotDeterministicError(MachineError):
    """A deterministic-only operation was applied to a nondeterministic machine."""


class ResourceBudgetError(MachineError):
    """A construction exceeded its configured state budget."""


def _check_token(tok: str, what: str) -> None:
    # tokens must survive the whitespace-separated text format, where %
    # opens a comment and -> separates transition sides
    if not isinstance(tok, str) or not tok or tok.split() != [tok]:
        raise MachineError(f"{what} must be a non-empty whitespace-free string, got {tok!r}")
    if "%" in tok or tok == "->":
        raise MachineError(f"{what} {tok!r} cannot be written in the text format")


# tokens joined at a time by _check_list: a DFA's 4,201 subset names hold
# 860 KB, and joining and splitting them whole took 1.9 MB at the peak
# (69 KB in slices of 64, at the same speed)
_LIST_CHUNK = 64


def _check_list(items: Sequence[str], what: str) -> set[str]:
    """The rule for one declared list of ``what``s: every token first,
    then the first repeated one.  Returns the list as a set.

    One pass over the joined list, ``_LIST_CHUNK`` tokens at a time,
    accepts it when splitting each joined slice gives its tokens back and
    it holds no ``%`` and no ``->`` token; only in a slice where that fails
    does ``_check_token``, the one statement of the token rule, run per
    token to name the first bad one.  The first repeat is found in one pass
    over the tokens seen before it."""
    for i in range(0, len(items), _LIST_CHUNK):
        part = items[i : i + _LIST_CHUNK]
        try:
            joined = " ".join(part)
            split = joined.split()
            ok = split == list(part) and "%" not in joined and "->" not in split
        except TypeError:  # a token that is not a string
            ok = False
        if not ok:
            for tok in part:
                _check_token(tok, what)
    seen = set(items)
    if len(seen) != len(items):
        seen = set()
        for tok in items:
            if tok in seen:
                raise MachineError(f"duplicate {what} {tok!r}")
            seen.add(tok)
    return seen


def _check_declared(state_set: set[str], what: str, *states: str) -> None:
    """The rule that the ``what`` states (initial, accepting) are declared."""
    for q in states:
        if q not in state_set:
            raise MachineError(f"{what} state {q!r} not declared")


class _Record:
    """Base of the machine records ``Transducer``, ``Nfa``, ``Dfa`` and ``Lba``."""

    @cached_property
    def accepting_set(self) -> frozenset[str]:
        return frozenset(self.accepting)

    @cached_property
    def input_set(self) -> frozenset[str]:
        return frozenset(self.input_alphabet)

    def _check_input(self, word: Sequence[str]) -> None:
        """Reject a word over symbols outside ``input_alphabet`` (the
        records that have one: ``Transducer`` and ``Lba``)."""
        if not self.input_set.issuperset(word):
            bad = [a for a in word if a not in self.input_set]
            raise MalformedInputError(f"word symbols {bad!r} outside the input alphabet")


@dataclass(frozen=True)
class Transducer(_Record):
    """A length-preserving transducer iterated sweep by sweep.

    ``transitions`` maps (state, symbol over input or output alphabet) to
    an ordered tuple of (next state, output symbol) choices; a missing
    key means the machine halts there.  ``sweep_bound`` is the declared
    sweep complexity: a positive integer, one of the named tags
    ``log`` / ``linear`` / ``unbounded``, or ``None`` when undeclared.
    ``meta`` carries non-semantic annotations (construction constants,
    state-count formulas) and is ignored by equality.
    """

    states: tuple[str, ...]
    input_alphabet: tuple[str, ...]
    output_alphabet: tuple[str, ...]
    endmarker: str
    initial: str
    accepting: tuple[str, ...]
    transitions: dict[tuple[str, str], tuple[tuple[str, str], ...]]
    sweep_bound: int | str | None = None
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        states = _check_list(self.states, "state")
        inputs = _check_list(self.input_alphabet, "input symbol")
        outputs = _check_list(self.output_alphabet, "output symbol")
        self._check_endmarker(self.endmarker, inputs, outputs)
        _check_declared(states, "initial", self.initial)
        _check_declared(states, "accepting", *self.accepting)
        if self.sweep_bound is not None:
            if isinstance(self.sweep_bound, bool) or not (
                (isinstance(self.sweep_bound, int) and self.sweep_bound >= 1)
                or self.sweep_bound in BOUND_TAGS
            ):
                raise MachineError(f"bad sweep bound {self.sweep_bound!r}")
        self._check_moves(states, inputs | outputs, outputs, self.transitions.items())

    @staticmethod
    def _check_endmarker(endmarker: str, inputs: set[str], outputs: set[str]) -> None:
        if endmarker not in outputs:
            raise MachineError("endmarker must be an output symbol")
        if endmarker in inputs:
            raise MachineError("endmarker must not be an input symbol")

    @staticmethod
    def _check_moves(states: set[str], symbols: set[str], outputs: set[str],
                     items: Iterable[tuple[tuple[str, str], tuple[tuple[str, str], ...]]]) -> None:
        """The per-move rule, over (key, choices) transition items in order."""
        for (q, x), choices in items:
            if q not in states:
                raise MachineError(f"transition from undeclared state {q!r}")
            if x not in symbols:
                raise MachineError(f"transition on undeclared symbol {x!r}")
            if not choices:
                raise MachineError(f"empty transition set for ({q!r}, {x!r}); omit the key instead")
            for p, y in choices:
                if p not in states:
                    raise MachineError(f"transition into undeclared state {p!r}")
                if y not in outputs:
                    raise MachineError(f"transition writes undeclared output symbol {y!r}")

    @cached_property
    def symbol_set(self) -> frozenset[str]:
        return frozenset(self.input_alphabet) | frozenset(self.output_alphabet)

    @cached_property
    def is_deterministic(self) -> bool:
        # distinct choices, as in ``_indexed``: a repeated choice is one move
        return all(len(v) <= 1 or len(set(v)) == 1 for v in self.transitions.values())

    @cached_property
    def _indexed(self) -> tuple[int, list[dict[str, tuple[tuple[int, str], ...]]], list[bool]]:
        """(initial, delta, accepting) over indices into ``states``, the one move table:
        ``delta[q][c]`` holds the distinct (next state, character written) choices on tape
        character ``c``, in order; the dummy lane state, index -1 after the states, has no
        moves and does not accept.  Built lazily: sweeps and lane tuples use it."""
        index = {q: i for i, q in enumerate(self.states)}
        enc = self._code[0]
        delta: list[dict] = [{} for _ in range(len(self.states) + 1)]
        for (q, x), choices in self.transitions.items():
            if len(choices) == 1:
                (p, y), = choices
                delta[index[q]][enc[x]] = ((index[p], enc[y]),)
            else:
                delta[index[q]][enc[x]] = tuple(dict.fromkeys((index[p], enc[y]) for p, y in choices))
        return index[self.initial], delta, [q in self.accepting_set for q in self.states] + [False]

    @cached_property
    def _code(self) -> tuple[dict[str, str], dict[str, str], dict[int, str]]:
        """The tape code by rank, its inverse and its ``str.translate`` table of one-character
        symbols; the endmarker first, as a tape over the first 128 is ASCII, read fastest."""
        syms = dict.fromkeys((self.endmarker,) + self.input_alphabet + self.output_alphabet)
        enc = {x: chr(r) for r, x in enumerate(syms)}
        return enc, dict(zip(enc.values(), enc)), str.maketrans({x: c for x, c in enc.items() if len(x) == 1})

    @cached_property
    def _rows(self) -> list[dict[str, tuple[dict, int, str, Optional[frozenset[str]]]]]:
        """Per state, ``_indexed``'s single-choice moves ``_sweep`` walks: character read -> (next
        state's row, next state, character written, and on an identity move all its loops)."""
        rows: list[dict] = [{} for _ in self.states]
        for q, (row, moves) in enumerate(zip(self._indexed[1], rows)):
            loops = []
            for x, choices in row.items():
                if len(choices) == 1:
                    (p, y), = choices
                    if p == q and y == x:
                        loops.append(x)
                    else:
                        moves[x] = (rows[p], p, y, None)
            same = frozenset(loops)
            moves.update([(c, (moves, q, c, same)) for c in loops])
        return rows

    # ``_run_lanes``' ``LaneNfa(self, s)`` per lane count s, built on the
    # first walk at s, with its walk and trace memos
    _lane_walk = cached_property(lambda self: {})

    # filled as needed: ``_live``'s tables (per character, the states with a move on it and
    # the bitmask of their next states; a row per mask), ``_sweep``'s fork memo ((state,
    # character, live mask) -> (live choices in order, whether to split)), its run patterns
    _live_pre, _live_rows, _forks, _runs = (cached_property(lambda self: {}) for _ in range(4))

    def initial_tape(self, word: Sequence[str]) -> Tape:
        self._check_input(word)
        return tuple(word) + (self.endmarker,)


@dataclass(frozen=True)
class Completed:
    """A sweep that consumed the whole tape, ending in ``state``."""

    state: str
    output: Tape


@dataclass(frozen=True)
class Stuck:
    """A sweep halted mid-tape: no transition at ``position`` in ``state``."""

    position: int
    state: str


SweepOutcome = Completed | Stuck


@dataclass(frozen=True)
class RunReport:
    """Outcome of bounded nondeterministic execution.

    ``cap_hit`` means exploration stopped at the tape budget, so a
    negative ``accepted`` is "unknown beyond the cap", never a definite
    rejection.  ``exhausted`` means every reachable tape was explored
    within the budgets, so a negative answer is definite.

    On the lane route (``_run_lanes``, which ``run`` takes at a budget of
    s <= ``_LANE_SWEEP_CAP`` sweeps) the report is ``LaneNfa.report``'s, one
    object per outcome (``_lane_report``), whatever the tape budget:
    ``tapes_explored`` is 0 and ``cap_hit`` False.  Its ``exhausted``
    implies the tape search's, which also holds when every tape s + 1 was
    seen before.
    """

    accepted: bool
    min_accept_sweeps: Optional[int]
    tapes_explored: int
    cap_hit: bool
    exhausted: bool = False

    def __post_init__(self) -> None:
        if self.accepted and self.min_accept_sweeps is None:
            raise ValueError("accepted runs must carry a sweep count")


def sweep(t: Transducer, tape: Sequence[str]) -> set[SweepOutcome]:
    """All outcomes of one complete left-to-right pass over ``tape``.

    Branches fork at every nondeterministic choice; a branch completes
    when the last cell is rewritten and is stuck at the first cell whose
    transition set is empty.  Outcomes are deduplicated.  The kernel gives
    the completed pairs; a pass over the states each cell is reached in
    finds the halts: a reached state with no move on the cell's symbol.
    """
    tape = tuple(tape)
    if not tape:
        raise MalformedInputError("tape must have at least one cell")
    bad = [x for x in tape if x not in t.symbol_set]
    if bad:
        raise MalformedInputError(f"tape symbols {bad!r} outside the machine alphabets")
    q0, delta, _ = t._indexed
    name = t.states
    code = _encode(t, tape)
    stuck: set[SweepOutcome] = set()
    reached = {q0}
    for i, x in enumerate(code):
        stuck.update(Stuck(i, name[q]) for q in reached if x not in delta[q])
        reached = {p for q in reached for p, _ in delta[q].get(x, ())}
    return stuck | {Completed(name[q], _decode(t, out)) for q, out in _sweep(t, code)}


def _encode(t: Transducer, tape: Sequence[str]) -> str:
    """``tape`` in ``t``'s tape code (one cell's bare character joins to itself)."""
    return "".join(itemgetter(*tape)(t._code[0]))


def _initial(t: Transducer, word: Sequence[str]) -> str:
    """``t.initial_tape(word)`` in the tape code (endmarker chr(0)), by ``str.translate`` if it can."""
    t._check_input(word)
    joined = "".join(word)
    if len(joined) == len(word):
        return joined.translate(t._code[2]) + "\0"
    return _encode(t, (*word, t.endmarker))


def _decode(t: Transducer, tape: str) -> Tape:
    return itemgetter(*tape)(t._code[1]) if len(tape) > 1 else (t._code[1][tape],)  # one key: a bare item


def _sweep(t: Transducer, tape: str) -> list[tuple[int, str]]:
    """The completed (state index, output) pairs of one sweep over ``tape``,
    both ``str`` in the tape code, deduplicated per cell on (state, output so
    far), in declaration order (frontier order, then choice order).  A lone
    branch walks ``Transducer._rows`` and copies a run of identity moves from
    its second cell on as one slice, ended by the state's ``[loops]*``
    pattern.  A pattern call costs about ten steps of the walk: runs of one
    cell never make one, nor do tapes shorter than ``_SKIP_TAPE``, whose runs
    are short, nor a state whose run proved short earlier in the sweep.  Fork
    choices come from
    the memo ``_forks``; one into a state outside ``_live`` is
    dropped: it completes nothing and never merges with a kept branch (same
    state at a cell, same liveness), so pairs and order are unchanged.
    Branches whose outputs differ never merge, so kept choices writing
    pairwise distinct symbols split: the first steps on, the others wait on
    ``todo`` as lone walks, which, taken last in, first out, complete in
    frontier order.  Choices writing a common symbol merge in a frontier of
    (state, trie node, tail), node -1 being the end of ``head``."""
    q, delta, _ = t._indexed
    rows = t._rows
    forks = t._forks
    row = rows[q]
    head: list[str] = []  # the lone branch's output so far, in pieces
    n = len(tape)
    short, slow = n < _SKIP_TAPE, ()  # and the loops whose runs proved short
    live = loops = None
    done: list[tuple[int, str]] = []
    # lone walks still to take, the next one last: (state, next cell, the
    # head list holding its prefix, prefix length, character written)
    todo: list[tuple[int, int, list[str], int, str]] = []
    # a str iterates faster than it indexes: ``length_hint`` gives the index, ``__setstate__`` moves it
    cells = iter(tape)
    while True:
        for x in cells:
            move = row.get(x)
            if move is not None:
                prev = loops
                row, q, y, loops = move
                if loops is None or loops is not prev or short or loops in slow:
                    head.append(y)
                    continue
                # a second identity move in a row: copy the rest of the run
                i = n - length_hint(cells) - 1
                match = t._runs.get(q)
                if match is None:
                    match = t._runs[q] = re.compile(f"[{re.escape(''.join(loops))}]*").match
                j = match(tape, i).end()
                if j - i < 8:  # the call cost more than it saved: not again this sweep
                    slow += (loops,)
                head.append(tape[i:j])
                cells.__setstate__(j)
                continue
            # a fork or a halt at cell i: a memoized fork needs no move lookup
            i = n - length_hint(cells) - 1
            memo = live and forks.get((q, x, live[i + 1]))
            if not memo:
                choices = delta[q].get(x)
                if choices is None:  # kept choices are live: only a walk that never forked halts
                    return done
                if live is None:
                    live = _live(t, tape, i)
                m = live[i + 1]
                memo = forks.get((q, x, m))
                if memo is None:
                    if len(forks) >= _LIVE_MEMO_CAP:
                        forks.clear()
                    kept = tuple((p, y) for p, y in choices if m >> p & 1)
                    apart = 0 < len(kept) == len({y for _, y in kept})
                    memo = forks[q, x, m] = (kept, apart)
            kept, apart = memo
            if not apart:
                break
            if len(kept) > 1:
                at = len(head)
                for p, y in kept[:0:-1]:
                    todo.append((p, i + 1, head, at, y))
            q, y = kept[0]
            head.append(y)
            row = rows[q]
        else:
            done.append((q, "".join(head)))
            if not todo:
                return done
            q, i, head, at, y = todo.pop()
            head = head[:at]
            head.append(y)
            row = rows[q]
            cells = iter(tape)  # an exhausted iterator cannot be moved back
            cells.__setstate__(i)
            continue
        fork = i  # kept choices writing a common symbol merge; ``todo`` is empty
        i += 1
        nodes: dict[tuple[int, str], int] = {}  # (parent node, tail) -> node
        frontier = {(p, -1, y): None for p, y in kept}
        while len(frontier) > 1 and i < n:
            if (i - fork) % _CHUNK == 0:
                frontier = {(p, nodes.setdefault((node, tail), len(nodes)), ""): None
                            for p, node, tail in frontier}
            x = tape[i]
            i += 1
            m = live[i]
            nxt: dict[tuple[int, int, str], None] = {}
            for q, node, tail in frontier:
                for p, y in delta[q].get(x, ()):
                    if m >> p & 1:
                        nxt[p, node, tail + y] = None
            frontier = nxt
        if not frontier:
            return done
        chunks = list(nodes)
        *ended, (q, node, tail) = frontier
        if ended:  # the tape ended: the last branch completes as the lone walk
            h = "".join(head)
            done += [(p, h + _trie_path(chunks, c, tail)) for p, c, tail in ended]
        head.append(_trie_path(chunks, node, tail) if nodes else tail)
        row = rows[q]
        cells.__setstate__(i)


def _live(t: Transducer, tape: str, fork: int) -> list[int]:
    """``live[j]``, for ``fork < j <= len(tape)``, is the bitmask of the
    states from which some branch reads ``tape[j:]`` to the end.  Steps
    back are memoized on the machine, a row per mask from character to
    (next mask, its row), up to ``_LIVE_MEMO_CAP`` masks."""
    pre, memo, delta = t._live_pre, t._live_rows, t._indexed[1]
    j = len(tape)
    live = [0] * (j + 1)
    m = live[j] = (1 << len(t.states)) - 1
    row = memo.setdefault(m, {})
    for x in tape[:fork:-1]:  # str iteration is faster than indexing
        step = row.get(x)
        if step is None:
            if x not in pre:
                pre[x] = [(q, sum({1 << p for p, _ in r[x]})) for q, r in enumerate(delta) if x in r]
            p = sum(1 << q for q, succ in pre[x] if succ & m)
            if len(memo) >= _LIVE_MEMO_CAP:
                memo.clear()
            step = row[x] = (p, memo.setdefault(p, {}))
        m, row = step
        j -= 1
        live[j] = m
    return live


# the most entries each machine keeps in ``_live``'s masks (``_live_rows``) and
# ``_sweep``'s fork memo (``_forks``), and each ``LaneNfa`` in its walk and trace
# memos (``_sets``, ``_trace_memo``); a full memo is cleared before its next entry
_LIVE_MEMO_CAP = 1024
_CHUNK = 16
_SKIP_TAPE = 64


def _trie_path(chunks: list[tuple[int, str]], node: int, tail: str) -> str:
    parts = [tail]
    while node >= 0:
        node, part = chunks[node]
        parts.append(part)
    return "".join(reversed(parts))


def _search(
    t: Transducer, tape0: str, rounds: int, tape_cap: int, seen: Optional[dict] = None
) -> Iterator[tuple[int, int, Optional[tuple[str, str]], Optional[list[str]]]]:
    """Breadth-first search over sweep-boundary tapes in the tape code, yielding ``(r,
    explored, hit, frontier)`` after each round r <= ``rounds``: tapes swept
    so far, the round's first accepting (tape, output) or ``None``, and the
    next round's tapes.  With ``seen`` (tape -> tape it came from), tapes are
    deduplicated globally and a round ends at its first hit; without it, per
    round, and rounds are swept whole.  Once ``tape_cap`` tapes are swept it
    yields a ``None`` frontier; it stops after that or an empty frontier."""
    acc = t._indexed[2]
    frontier = [tape0]
    explored = 0
    for r in range(1, rounds + 1):
        known = {} if seen is None else seen
        nxt: list[str] = []
        hit = None
        for tape in frontier:
            if explored >= tape_cap:
                yield r, explored, hit, None
                return
            explored += 1
            for q, out in _sweep(t, tape):
                if acc[q]:
                    hit = hit or (tape, out)
                elif out not in known:
                    known[out] = tape
                    nxt.append(out)
            if hit is not None and seen is not None:
                break
        yield r, explored, hit, nxt
        if not nxt:
            return
        frontier = nxt


def run(
    t: Transducer,
    word: Sequence[str],
    max_sweeps: int,
    tape_cap: int = DEFAULT_TAPE_CAP,
) -> RunReport:
    """Whether ``t`` accepts ``word`` within ``max_sweeps`` sweeps.

    A budget s from 1 to ``_LANE_SWEEP_CAP`` first runs the s sweeps as the
    s lanes of ``LaneNfa`` (the paper's reduction, which holds for every s):
    one pass over the word steps the set of lane tuples (``_run_lanes``),
    keeping no tape, so ``tape_cap`` bounds nothing there.  Its report
    stands when ``verdict`` gives it an answer: accepted, ``exhausted``, or
    rejected under a constant bound k <= s.  Otherwise, and once the s-lane
    tuples outgrow ``_LANE_TUPLE_CAP``, the breadth-first search over tape
    sets at sweep boundaries answers, so no definite answer turns into
    "unknown".  Round s of the search sweeps
    every frontier tape; a branch finishing in an accepting state halts the
    whole search with ``min_accept_sweeps=s`` (rounds are explored in
    order, so the first hit is minimal).  Branches finishing in
    non-accepting states continue with their output tape.  Tapes are
    deduplicated globally: the sweep relation depends only on the tape, so
    a tape seen before yields nothing new.  The route is ``traced_run``'s.
    """
    return traced_run(t, word, max_sweeps, tape_cap)[0]


def traced_run(
    t: Transducer,
    word: Sequence[str],
    max_sweeps: int,
    tape_cap: int = DEFAULT_TAPE_CAP,
) -> tuple[RunReport, Callable[[], Optional[list[Tape]]]]:
    """``run``'s report and a function building ``find_accepting_trace``'s
    trace (None unless accepted): the one route of both, so one walk or
    search serves both, and only a caller that wants the trace pays for
    building it.  It checks the budgets, raising ``ValueError`` on those
    the tape search rejects, then walks s lanes for 1 <= s <=
    ``_LANE_SWEEP_CAP``, falling back to the tape search.  The lane route
    keeps the set reached at each position, shared objects of its memo,
    for ``_lane_trace``."""
    if max_sweeps < 0 or tape_cap < 1:
        raise ValueError("max_sweeps must be >= 0 and tape_cap >= 1")
    if 1 <= max_sweeps <= _LANE_SWEEP_CAP:
        sets: list[frozenset] = []
        report = _run_lanes(t, word, max_sweeps, sets)
        if report is not None:
            return report, lambda: _lane_trace(t, word, max_sweeps, sets, report)
    return _run_traced(t, word, max_sweeps, tape_cap)


def verdict(t: Transducer, report: RunReport, budget: int, bound: Optional[int] = None) -> Optional[bool]:
    """What ``report``, of a run of ``t`` within ``budget`` sweeps, answers:
    True (accept), False (reject) or None (unknown).  A rejection is
    definite when the run was ``exhausted``, or when no cap cut it and the
    budget covers the bound: ``bound`` when the caller asks for the words
    accepted within that many sweeps (as a ``(t, k)`` acceptor does), else
    ``t``'s constant sweep bound.  The one rule of ``iufst run``, the
    oracle and ``run``'s lane route."""
    if report.accepted:
        return True
    if report.exhausted:
        return False
    if bound is None and isinstance(t.sweep_bound, int):
        bound = t.sweep_bound
    if bound is not None and budget >= bound and not report.cap_hit:
        return False
    return None


def _run_lanes(
    t: Transducer, word: Sequence[str], s: int, sets: Optional[list[frozenset]] = None
) -> Optional[RunReport]:
    """The one lane route, of ``traced_run`` and the oracle's learned
    depth, for any s >= 1: ``t``'s s-lane ``LaneNfa``, built
    on the first walk at s and kept in ``Transducer._lane_walk``, walks
    ``word`` (``LaneNfa.walk``, appending to ``sets``).  Its report where
    ``verdict`` answers it; None where the tape search answers instead: a
    report ``verdict`` leaves unknown, or a walk that gives up."""
    t._check_input(word)
    n = t._lane_walk.get(s)
    if n is None:
        n = t._lane_walk[s] = LaneNfa(t, s)
    report = n.walk(word, sets)
    return report if report is not None and verdict(t, report, s) is not None else None


# the most lanes ``run`` and traces walk before they search tapes: tuples
# can grow like n^s, and each s keeps its own walk on the machine
_LANE_SWEEP_CAP = 8


def _lane_trace(
    t: Transducer, word: Sequence[str], s: int, sets: list[frozenset], report: RunReport
) -> Optional[list[Tape]]:
    """``find_accepting_trace`` from the sets ``_run_lanes`` reached on ``word`` (None unless
    ``report`` accepts): the initial tape, then what lanes 1 to j wrote (``LaneNfa.trace``)."""
    if not report.accepted:
        return None
    lanes = t._lane_walk[s].trace(word, sets, report.min_accept_sweeps)
    return [t.initial_tape(word)] + [_decode(t, lane) for lane in lanes]


# The dummy lane state and the dummy symbol of ``_lane_step``.  The state is
# index -1, which reads the entries ``Transducer._indexed`` appends to the
# machine's per-state lists: no moves and not accepting.  The symbol is an
# int, which no tape character equals, so no transition of the machine reads it.
_DUMMY_STATE = -1
_DUMMY_SYMBOL = -1
_DEAD = ((_DUMMY_STATE, _DUMMY_SYMBOL),)


def _check_lanes(k: int, i: int) -> None:
    if not isinstance(k, int) or k < 1:
        raise MachineError(f"declared sweep bound must be a positive integer, got {k!r}")
    if not 1 <= i <= k:
        raise MachineError(f"lane count i={i} must satisfy 1 <= i <= k={k}")


def _lane_step(delta: list[dict], state: tuple[int, ...], x) -> list[tuple[tuple[int, ...], object]]:
    """The moves of lane tuple ``state`` reading tape character ``x``: a
    (next tuple, character the last lane writes) pair per branch, in
    choice order.  Branches may repeat a pair; a caller merges what it
    reads (a ``LaneNfa`` row its successor tuples, ``sweep_reduce`` the
    pairs), so no step hashes pairs it does not need.

    Lane t of a tuple carries one sweep of a block of parallel sweeps and
    reads the character lane t-1 writes (lane 1 reads ``x``).  A lane
    without a move collapses to the dummy state and writes the dummy
    symbol, an int that no row is keyed by, so every later lane collapses
    as well.  ``delta`` is ``Transducer._indexed``'s.
    """
    moves = [((), x)]
    for s in state:
        row = delta[s]
        nxt = []
        for lanes, y in moves:
            for r, z in row.get(y, _DEAD):
                nxt.append((lanes + (r,), z))
        moves = nxt
    return moves


def _lane_chains(delta: list[dict], state: tuple[int, ...], x) -> list[tuple[tuple[int, ...], tuple]]:
    """The branches of ``_lane_step``, each with every lane's written
    character: (next tuple, characters lanes 1, 2, ... write), in choice
    order, so a trace can say what each sweep wrote."""
    moves = [((), (x,))]
    for s in state:
        row = delta[s]
        moves = [(lanes + (r,), out + (z,)) for lanes, out in moves for r, z in row.get(out[-1], _DEAD)]
    return [(lanes, out[1:]) for lanes, out in moves]


class LaneNfa:
    """The NFA of k sweeps run as k lanes of one sweep, over input
    symbols, its rows filled per symbol read.

    States are ints numbering the lane tuples in discovery order, the
    initial tuple being 0; a tuple is discovered when a cell that reaches
    it is filled.  ``rows`` is the one row store and the one way to read
    successors: per tuple a ``_LaneRow``, whose cell ``rows[q][c]`` for
    symbol code c (the index of a symbol in ``alphabet``) holds the
    successors, ``_lane_step`` on that symbol's character, and whose entry
    under None holds the endmarker's: the least lane that can reach an
    accepting state there (None when no lane can) and whether some branch
    ``completes``.  Each is filled on its first read, so a ``walk``,
    ``trace`` or search that reads one symbol per step fills one cell per
    step; ``accepting``, ``completes`` and ``report`` read the endmarker
    entry.  ``walk`` and ``trace`` keep memos of their own.
    """

    def __init__(self, t: Transducer, k: int) -> None:
        _check_lanes(k, k)
        q0, self._delta, self._acc = t._indexed
        self._end, *self._codes = _encode(t, (t.endmarker, *t.input_alphabet))
        self._tuples = [(q0,) * k]
        ids = {self._tuples[0]: 0}
        lanes = (self._delta, self._acc, self._end, self._codes, ids, self._tuples, proxy(self))
        self.rows = [_LaneRow(lanes, self._tuples[0])]
        self._sets: dict[frozenset[int], dict] = {}  # ``walk``'s memo
        self._trace_memo: dict[tuple, tuple[int, tuple]] = {}
        self.alphabet = t.input_alphabet
        self.initial = 0

    @property
    def discovered(self) -> int:
        """Lane tuples numbered so far: the initial one and those a filled cell reaches."""
        return len(self._tuples)

    @property
    def expanded(self) -> int:
        """Lane tuples with a filled cell or endmarker entry in their row."""
        return sum(map(bool, self.rows))

    def accepting(self, q: int) -> bool:
        return self.rows[q][None][0] is not None

    def report(self, s: frozenset[int]) -> RunReport:
        """What the set ``s`` of tuples reached on a word answers, as ``run``
        reports k sweeps: accepted at the least lane, counted from 1, that
        ends the endmarker step from a tuple in an accepting state; else
        rejected, ``exhausted`` exactly when no tuple ``completes`` its last
        lane, so no tape k + 1 exists.  No tape is kept: ``tapes_explored``
        is 0 and ``cap_hit`` False."""
        rows = self.rows
        ends = [rows[q][None] for q in s]
        least = min(filter(None, [lane for lane, _done in ends]), default=None)  # lanes count from 1
        return _lane_report(least, least is None and not any(done for _lane, done in ends))

    def completes(self, q: int) -> bool:
        """Some branch of ``q`` steps on the endmarker in every lane."""
        return self.rows[q][None][1]

    def walk(self, word: Sequence[str], sets: Optional[list[frozenset]] = None) -> Optional[RunReport]:
        """``report`` of the set of tuples reached on ``word``, over
        ``alphabet``, by Thompson's simulation made lazy: the set steps
        through ``_set_step``, which fills only the cells of the symbol
        read, and the memo ``_sets``, a row per set from input symbol to
        (next set, its row), up to ``_LIVE_MEMO_CAP`` sets; a row's
        ``None`` entry caches its set's report.  With ``sets``, the set
        reached after each symbol is appended to it.  None, the walk giving
        up, at a step missing the memo with more than ``_LANE_TUPLE_CAP``
        tuples discovered (they can grow like n^k).  The one walk loop."""
        rows = self._sets
        cur = frozenset((self.initial,))
        row = rows.setdefault(cur, {})
        for x in word:
            step = row.get(x)
            if step is None:
                if self.discovered > _LANE_TUPLE_CAP:
                    return None
                if len(rows) >= _LIVE_MEMO_CAP:
                    rows.clear()
                nxt = _set_step(self, cur, self.alphabet.index(x))
                step = row[x] = (nxt, rows.setdefault(nxt, {}))
            cur, row = step
            if sets is not None:
                sets.append(cur)
        report = row.get(None)
        if report is None:
            report = row[None] = self.report(cur)
        return report

    def trace(self, word: Sequence[str], sets: list[frozenset[int]], j: int) -> list[str]:
        """What lanes 1 to j wrote, in the tape code, on a run accepting
        ``word`` at lane j, the least, from the ``sets`` ``walk`` reached on
        it.  The last set gives its least tuple by value with an endmarker
        chain (``_lane_chains``) whose lane j accepts; then, one position at a
        time from the end, the set before gives the least tuple by value with
        a chain on the word's symbol to the tuple already chosen, the first
        such chain in choice order.  Every tuple of a set is reached, so the
        walk back never sticks, and lanes 1 to j - 1 end rejecting, as j is
        least.  The choice reads tuples by value, never by number or set
        order, which depend on the words the walk saw before; it is memoized
        per (set, symbol, chosen tuple) in ``_trace_memo``, up to
        ``_LIVE_MEMO_CAP`` entries."""
        tuples, rows, delta, acc, back = self._tuples, self.rows, self._delta, self._acc, self._trace_memo
        by_value = tuples.__getitem__
        path = [frozenset((self.initial,)), *sets]
        q, out = next((q, out) for q in sorted(path[-1], key=by_value)
                      for p, out in _lane_chains(delta, tuples[q], self._end) if acc[p[j - 1]])
        cols = [out]
        for before, x in zip(path[-2::-1], reversed(word)):
            hit = back.get((before, x, q))
            if hit is None:
                c = self.alphabet.index(x)
                p = min((p for p in before if q in rows[p][c]), key=by_value)
                target = tuples[q]
                out = next(out for lanes, out in _lane_chains(delta, tuples[p], self._codes[c]) if lanes == target)
                if len(back) >= _LIVE_MEMO_CAP:
                    back.clear()
                hit = back[before, x, q] = (p, out)
            q, out = hit
            cols.append(out)
        lanes = zip(*reversed(cols))
        return ["".join(next(lanes)) for _ in range(j)]


# the most lane tuples ``LaneNfa.walk`` lets an automaton discover before it
# gives up at the next step that misses its memo
_LANE_TUPLE_CAP = 1 << 14


class _LaneRow(dict):
    """A lane tuple's row in ``LaneNfa.rows``, each entry filled on its
    first read: symbol code c -> the successors of the tuple ``state`` on
    the automaton's ``alphabet[c]``, one ``_lane_step`` on its character,
    numbered (a new tuple gets the next number and a row), and None -> the
    endmarker entry, (least accepting lane or None, completes), from one
    ``_lane_step`` on the endmarker's.  ``__missing__`` is the one filler of
    both.  ``lanes`` is shared by an automaton's rows: its
    move table, accepting flags, endmarker and symbol characters, tuple
    numbering, and the automaton by weak proxy, so rows and automaton form
    no reference cycle and are freed without the cyclic collector."""

    __slots__ = ("lanes", "state")

    def __init__(self, lanes: tuple, state: tuple[int, ...]) -> None:
        self.lanes, self.state = lanes, state

    def __missing__(self, c: Optional[int]) -> tuple:
        delta, acc, end, codes, ids, tuples, nfa = self.lanes
        if c is not None:
            succ = []
            for p in dict.fromkeys([p for p, _y in _lane_step(delta, self.state, codes[c])]):
                i = ids.setdefault(p, len(tuples))
                if i == len(tuples):
                    tuples.append(p)
                    nfa.rows.append(_LaneRow(self.lanes, p))
                succ.append(i)
            self[c] = cell = tuple(succ)
            return cell
        ends = _lane_step(delta, self.state, end)
        least = min((i for p, _y in ends for i, s in enumerate(p, 1) if acc[s]), default=None)
        for p, _y in ends:  # a loop, not any(): every row's first report or acceptance runs it
            if p[-1] != _DUMMY_STATE:
                done = True
                break
        else:
            done = False
        self[c] = entry = (least, done)
        return entry


def _set_step(n, s: frozenset, c: int) -> frozenset:
    """The states of the automaton ``n`` reached from the set ``s`` on
    ``n.alphabet[c]``, read one cell per state from ``n.rows`` (a state's
    successors per symbol code: ``LaneNfa`` fills the cell on its first
    read, a ``_view`` holds every row): the one set step."""
    rows = n.rows
    return frozenset([r for q in s for r in rows[q][c]])


@cache
def _lane_report(least: Optional[int], exhausted: bool) -> RunReport:
    """``LaneNfa.report``'s value for an outcome, built once: a report is
    immutable, and building one costs more than finding the outcome."""
    return RunReport(least is not None, least, 0, False, exhausted)


def _run_traced(
    t: Transducer,
    word: Sequence[str],
    max_sweeps: int,
    tape_cap: int,
) -> tuple[RunReport, Callable[[], Optional[list[Tape]]]]:
    """``traced_run`` by the tape search alone: its report, and a function
    building the path to its first hit in frontier order (None unless
    accepted) from the parent map.  The caller checks the budgets."""
    tape0 = _initial(t, word)
    parent: dict[str, Optional[str]] = {tape0: None}
    explored, frontier = 0, [tape0]
    for s, explored, hit, frontier in _search(t, tape0, max_sweeps, tape_cap, parent):
        if hit is not None:
            return RunReport(True, s, explored, False), lambda: [_decode(t, tape) for tape in _path(parent, *hit)]
    # a None frontier means the tape cap stopped the search
    return RunReport(False, None, explored, frontier is None, exhausted=frontier == []), lambda: None


def _path(parent: dict[str, Optional[str]], tape: Optional[str], out: str) -> list[str]:
    """The tapes from the initial one to ``tape`` along ``parent``, then ``out``."""
    path = [out]
    while tape is not None:
        path.append(tape)
        tape = parent[tape]
    return path[::-1]


def run_deterministic(
    t: Transducer, word: Sequence[str], max_sweeps: int
) -> tuple[RunReport, list[Tape]]:
    """Single-path simulation of a deterministic machine with full trace.

    Every sweep restarts in the initial state, so a tape recurring at a
    sweep boundary proves divergence; the run then reports a definite
    rejection.  Returns the report and the tape at every sweep boundary
    visited, starting with the initial tape.
    """
    if not t.is_deterministic:
        raise NotDeterministicError("run_deterministic requires a deterministic machine")
    if max_sweeps < 0:
        raise ValueError("max_sweeps must be >= 0")
    tape = _initial(t, word)
    trace, seen, acc = [tape], {tape}, t._indexed[2]
    report = RunReport(False, None, max_sweeps, False)
    for s in range(1, max_sweeps + 1):
        done = _sweep(t, tape)
        if done:
            (q, tape), = done
            trace.append(tape)
            if acc[q]:
                report = RunReport(True, s, s, False)
                break
        if tape in seen:  # no sweep completed, or a tape recurs
            report = RunReport(False, None, s, False, exhausted=True)
            break
        seen.add(tape)
    return report, [_decode(t, tape) for tape in trace]


def find_accepting_trace(
    t: Transducer,
    word: Sequence[str],
    max_sweeps: int,
    tape_cap: int = DEFAULT_TAPE_CAP,
) -> Optional[list[Tape]]:
    """One sequence of sweep-boundary tapes realizing an accepting run.

    The first element is the initial tape and the length is the minimum
    accepting sweep count plus one.  ``None`` if no accepting run exists
    within the budgets.  The trace comes from the route ``run`` takes: on
    the lane route, ``LaneNfa.trace``'s walk back over the sets of
    lane tuples, which ``tape_cap`` does not bound; on the tape search, its
    first hit in frontier order.  Raises ``ValueError`` on the budgets
    ``run`` rejects.
    """
    return traced_run(t, word, max_sweeps, tape_cap)[1]()


@dataclass(frozen=True)
class AcceptModeViolation:
    word: Word
    sweeps: Optional[int]  # None: accepting halts recur at unboundedly many sweeps
    bound: int


@dataclass(frozen=True)
class AcceptModeReport:
    violations: tuple[AcceptModeViolation, ...]
    inconclusive: tuple[Word, ...]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.inconclusive


def check_accept_mode(
    t: Transducer,
    words: Iterable[Sequence[str]],
    bound_fn: Callable[[int], int],
    sweep_cap: int = 200,
    tape_cap: int = DEFAULT_TAPE_CAP,
) -> AcceptModeReport:
    """Report accepting halts later than ``bound_fn(len(word))``.

    Unlike ``run``, rounds are not deduplicated across sweep boundaries:
    an accepting halt at a late sweep must be observed even when the
    tape was first reached earlier.  The per-round frontier is a pure
    function of the previous one, so a repeated frontier set proves
    periodicity: any accepting halt inside the detected cycle recurs
    forever (a violation of every finite bound), and none means no
    accepting halt can occur later.  Words whose exploration exceeds the
    caps before either conclusion are flagged inconclusive.
    """
    violations: list[AcceptModeViolation] = []
    inconclusive: list[Word] = []
    for w in words:
        word = tuple(w)
        bound = bound_fn(len(word))
        tape0 = _initial(t, word)
        seen_frontiers: dict[frozenset[str], int] = {frozenset((tape0,)): 0}
        accepted = [False]  # accepted[r]: some branch accepted at sweep r
        for r, _, hit, frontier in _search(t, tape0, sweep_cap, tape_cap):
            if frontier is None:
                inconclusive.append(word)
                break
            accepted.append(hit is not None)
            if hit is not None and r > bound:
                violations.append(AcceptModeViolation(word, r, bound))
                break
            if not frontier:
                break
            prev = seen_frontiers.setdefault(frozenset(frontier), r)
            if prev != r:
                # Periodic from boundary `prev`: rounds prev+1..r repeat
                # forever.  Any accepting halt in that window therefore
                # happens at unboundedly many sweep counts.
                if any(accepted[prev + 1:]):
                    violations.append(AcceptModeViolation(word, None, bound))
                break
        else:
            inconclusive.append(word)
    return AcceptModeReport(tuple(violations), tuple(inconclusive))


def _fresh(base: str, taken: set[str]) -> str:
    """``base``, primed until it is not in ``taken``; it joins ``taken``."""
    tok = base
    while tok in taken:
        tok += "'"
    taken.add(tok)
    return tok


def renderer(sep: str = ",", frame: tuple[str, str] = ("(", ")"), delims: str = "") -> Callable[..., str]:
    """The one renderer of states and symbols: a function naming a tuple by
    its parts joined by ``sep`` (or a call's own, from ``delims``) inside
    ``frame``, nested tuples alike, and any other value by ``str`` of it.
    In a part, ``\\`` goes before ``\\`` and each character of ``sep``,
    ``frame`` and ``delims``: a part without them reads as it is, and no two
    tuples share a name (nested ones in an empty frame aside)."""
    opening, closing = frame
    chars = sep + opening + closing + delims
    escape = _escapes(chars)
    probe = frozenset("\\(" + chars)  # "(" starts the str of a nested tuple

    def name(value: Hashable, sep: str = sep) -> str:
        if value.__class__ is not tuple:
            return str(value)
        parts = list(map(str, value))
        if not probe.isdisjoint("".join(parts)):  # most names skip this
            parts = [name(p) if p.__class__ is tuple else str(p).translate(escape) for p in value]
        return opening + sep.join(parts) + closing
    return name


def name_table(*axes: Sequence[Hashable], seps: str, frame: tuple[str, str],
               delims: str = "") -> dict[tuple, str]:
    """The ``renderer`` name of every tuple in the product of ``axes`` of plain
    values, each escaped once; ``seps`` holds one separator per gap."""
    escape = _escapes(seps + "".join(frame) + delims)
    gaps = ("",) + tuple(seps)
    parts = [[gap + str(v).translate(escape) for v in axis] for gap, axis in zip(gaps, axes)]
    parts[0] = [frame[0] + p for p in parts[0]]
    parts[-1] = [p + frame[1] for p in parts[-1]]
    return dict(zip(product(*axes), map("".join, product(*parts))))


def _escapes(chars: str) -> dict[int, str]:
    """The table putting ``\\`` before ``\\`` and each of ``chars``."""
    return str.maketrans({c: "\\" + c for c in "\\" + chars})


def materialize(
    start: Hashable,
    moves: Callable[[Hashable], Iterable[tuple[Hashable, Hashable, Hashable]]],
    input_alphabet: Sequence[Hashable],
    output_alphabet: Sequence[Hashable],
    endmarker: Hashable,
    accepting: Callable[[Hashable], bool],
    name_of: Optional[Callable[[Hashable], str]] = None,
    symbol_name: Optional[Callable[[Hashable], str]] = None,
    sweep_bound: int | str | None = None,
    meta: Optional[dict] = None,
) -> Transducer:
    """Materialize a transducer from the enabled moves of abstract states.

    ``moves(state)`` yields the (symbol read, next state, symbol written)
    triples enabled in ``state``; it is called once per reachable state.
    States are explored breadth-first from ``start``; within a state, moves
    are taken in the declared rank of the symbol read (the input alphabet,
    then the output-only symbols), choice order kept per symbol, and each
    is appended to its key's choices as tokens at once.  States and symbols
    may be structured values: each declared symbol is rendered once through
    ``symbol_name`` and each state through ``name_of`` when it is discovered
    (both ``renderer()`` by default), and two values rendering alike raise
    ``MachineError``.  A move reading an undeclared symbol is skipped
    before its next state or written symbol is read; the first writing one,
    in that order, raises ``MachineError``.

    Each move looks up its read symbol once, for its rank, which indexes
    the symbols' tokens, its next state once, for its name, and its written
    symbol once, for its token.  ``_bfs`` gets only the states a move names
    for the first time, so it does not look up the others again.
    """
    name_of = name_of or renderer()
    symbol_name = symbol_name or renderer()
    rank = {x: r for r, x in enumerate(dict.fromkeys(chain(input_alphabet, output_alphabet)))}
    sym: dict[Hashable, str] = {}
    rendered: dict[str, Hashable] = {}
    for x in rank:
        sym[x] = tok = symbol_name(x)
        if rendered.setdefault(tok, x) != x:
            raise MachineError(f"symbols {rendered[tok]!r} and {x!r} both render {tok!r}")
    toks = list(sym.values())  # each symbol's token, by rank
    names = {start: name_of(start)}  # every state, in discovery order
    transitions: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {}

    def succ(state):
        q = names[state]
        ranked = []
        for m in moves(state):
            r = rank.get(m[0])
            if r is not None:
                ranked.append((r, m))
        ranked.sort(key=itemgetter(0))
        fresh = []
        for r, (_, p, y) in ranked:
            tok = sym.get(y)
            if tok is None:
                raise MachineError(f"transition writes undeclared output symbol {symbol_name(y)!r}")
            n = names.get(p)
            if n is None:
                names[p] = n = name_of(p)
                fresh.append((p, tok))
            key = (q, toks[r])
            transitions[key] = transitions.get(key, ()) + ((n, tok),)
        return fresh

    _bfs((start,), succ)
    if len(set(names.values())) != len(names):
        raise MachineError("state naming is not injective on reachable states")
    return Transducer(
        states=tuple(names.values()),
        input_alphabet=tuple(sym[x] for x in input_alphabet),
        output_alphabet=tuple(sym[y] for y in output_alphabet),
        endmarker=symbol_name(endmarker),
        initial=names[start],
        accepting=tuple(q for s, q in names.items() if accepting(s)),
        transitions=transitions,
        sweep_bound=sweep_bound,
        meta=meta or {},
    )


def _bfs(
    starts: Iterable[Hashable],
    succ: Callable[[Hashable], Iterable[tuple[Hashable, Hashable]]],
    goal: Optional[Callable[[Hashable], bool]] = None,
    limit: Optional[int] = None,
) -> tuple[dict, Optional[Hashable]]:
    """Breadth-first search from ``starts``; ``succ(node)`` lists the
    node's (successor, label) edges in a fixed order.

    Returns ``(parent, hit)``.  ``parent`` maps every discovered node, in
    discovery order, to the (node, label) edge that first reached it
    (``None`` for a start).  With ``goal`` the search stops at the first
    discovered node satisfying it, returned as ``hit``.  Discovering more
    than ``limit`` nodes raises ``ResourceBudgetError``, and a ``limit``
    below 1 raises ``ValueError``: a search always discovers its starts.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"search node budget must be at least 1, got {limit}")
    parent: dict = dict.fromkeys(starts)
    if goal is not None:
        for s in parent:
            if goal(s):
                return parent, s
    queue = deque(parent)
    while queue:
        q = queue.popleft()
        for r, x in succ(q):
            if r not in parent:
                if limit is not None and len(parent) >= limit:
                    raise ResourceBudgetError(f"search exceeded {limit} states")
                parent[r] = (q, x)
                if goal is not None and goal(r):
                    return parent, r
                queue.append(r)
    return parent, None


def _shortest_word(
    starts: Iterable[Hashable],
    succ: Callable[[Hashable], Iterable[tuple[Hashable, Hashable]]],
    goal: Callable[[Hashable], bool],
    limit: Optional[int] = None,
) -> Optional[Word]:
    """Labels along a shortest path to a ``goal`` node, breadth-first
    first-found; ``None`` when no goal node is reachable.  ``limit`` is
    ``_bfs``'s node budget."""
    parent, hit = _bfs(starts, succ, goal, limit)
    if hit is None:
        return None
    word = []
    while parent[hit] is not None:
        hit, x = parent[hit]
        word.append(x)
    return tuple(reversed(word))


def _edges(n: LaneNfa | SimpleNamespace):
    """Successor function of ``n`` for ``_bfs``: a state's (successor,
    symbol) edges in alphabet order, then choice order, read cell by cell
    from ``n.rows``."""
    sigma, rows = n.alphabet, n.rows

    def edges(q):
        row = rows[q]
        return [(r, x) for c, x in enumerate(sigma) for r in row[c]]
    return edges
