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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Hashable, Iterable, Optional, Sequence

Word = tuple[str, ...]
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
    if not isinstance(tok, str) or not tok or any(c.isspace() for c in tok):
        raise MachineError(f"{what} must be a non-empty whitespace-free string, got {tok!r}")
    if "%" in tok or tok == "->":
        raise MachineError(f"{what} {tok!r} cannot be written in the text format")


def _check_unique(items: Sequence[str], what: str) -> None:
    if len(set(items)) != len(items):
        raise MachineError(f"duplicate {what} in {items!r}")


@dataclass(frozen=True)
class Transducer:
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
        for s in self.states:
            _check_token(s, "state")
        for a in self.input_alphabet:
            _check_token(a, "input symbol")
        for a in self.output_alphabet:
            _check_token(a, "output symbol")
        _check_unique(self.states, "states")
        _check_unique(self.input_alphabet, "input symbols")
        _check_unique(self.output_alphabet, "output symbols")
        state_set = set(self.states)
        out_set = set(self.output_alphabet)
        if self.endmarker not in out_set:
            raise MachineError("endmarker must be an output symbol")
        if self.endmarker in self.input_alphabet:
            raise MachineError("endmarker must not be an input symbol")
        if self.initial not in state_set:
            raise MachineError(f"initial state {self.initial!r} not declared")
        for q in self.accepting:
            if q not in state_set:
                raise MachineError(f"accepting state {q!r} not declared")
        sym_set = set(self.input_alphabet) | out_set
        for (q, x), choices in self.transitions.items():
            if q not in state_set:
                raise MachineError(f"transition from undeclared state {q!r}")
            if x not in sym_set:
                raise MachineError(f"transition on undeclared symbol {x!r}")
            if not choices:
                raise MachineError(f"empty transition set for ({q!r}, {x!r}); omit the key instead")
            for p, y in choices:
                if p not in state_set:
                    raise MachineError(f"transition into undeclared state {p!r}")
                if y not in out_set:
                    raise MachineError(f"transition writes undeclared output symbol {y!r}")
        if self.sweep_bound is not None:
            if isinstance(self.sweep_bound, bool) or not (
                (isinstance(self.sweep_bound, int) and self.sweep_bound >= 1)
                or self.sweep_bound in BOUND_TAGS
            ):
                raise MachineError(f"bad sweep bound {self.sweep_bound!r}")

    @cached_property
    def symbol_set(self) -> frozenset[str]:
        return frozenset(self.input_alphabet) | frozenset(self.output_alphabet)

    @cached_property
    def input_set(self) -> frozenset[str]:
        return frozenset(self.input_alphabet)

    @cached_property
    def accepting_set(self) -> frozenset[str]:
        return frozenset(self.accepting)

    @cached_property
    def is_deterministic(self) -> bool:
        return all(len(v) <= 1 for v in self.transitions.values())

    def initial_tape(self, word: Sequence[str]) -> Tape:
        bad = [a for a in word if a not in self.input_set]
        if bad:
            raise MalformedInputError(f"word symbols {bad!r} outside the input alphabet")
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
    transition set is empty.  Outcomes are deduplicated.
    """
    tape = tuple(tape)
    if not tape:
        raise MalformedInputError("tape must have at least one cell")
    bad = [x for x in tape if x not in t.symbol_set]
    if bad:
        raise MalformedInputError(f"tape symbols {bad!r} outside the machine alphabets")
    outcomes: set[SweepOutcome] = set()
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


def _sweep_split(
    t: Transducer, tape: Tape
) -> tuple[list[tuple[str, Tape]], list[Completed]]:
    """Completed outcomes of one sweep, split into continuing and accepting.

    Deterministic insertion order (transition choices in declaration
    order) so exploration and traces are reproducible.
    """
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


def run(
    t: Transducer,
    word: Sequence[str],
    max_sweeps: int,
    tape_cap: int = DEFAULT_TAPE_CAP,
) -> RunReport:
    """Breadth-first exploration of tape sets at sweep boundaries.

    Round s sweeps every frontier tape; a branch finishing in an
    accepting state halts the whole search with ``min_accept_sweeps=s``
    (rounds are explored in order, so the first hit is minimal).
    Branches finishing in non-accepting states continue with their
    output tape.  Tapes are deduplicated globally: the sweep relation
    depends only on the tape, so a tape seen before yields nothing new.
    """
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
            continuing, accepting = _sweep_split(t, tape)
            if accepting:
                return RunReport(True, s, explored, False)
            for q, out in continuing:
                if out not in seen:
                    seen.add(out)
                    nxt.append(out)
        frontier = nxt
    return RunReport(False, None, explored, False, exhausted=not frontier)


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
    tape = t.initial_tape(word)
    trace = [tape]
    seen = {tape}
    acc = t.accepting_set
    trans = t.transitions
    for s in range(1, max_sweeps + 1):
        out: list[str] = []
        q = t.initial
        stuck = False
        for x in tape:
            choices = trans.get((q, x))
            if not choices:
                stuck = True
                break
            q, y = choices[0]
            out.append(y)
        if stuck:
            return RunReport(False, None, s, False, exhausted=True), trace
        tape = tuple(out)
        trace.append(tape)
        if q in acc:
            return RunReport(True, s, s, False), trace
        if tape in seen:
            return RunReport(False, None, s, False, exhausted=True), trace
        seen.add(tape)
    return RunReport(False, None, max_sweeps, False), trace


def find_accepting_trace(
    t: Transducer,
    word: Sequence[str],
    max_sweeps: int,
    tape_cap: int = DEFAULT_TAPE_CAP,
) -> Optional[list[Tape]]:
    """One sequence of sweep-boundary tapes realizing an accepting run.

    The first element is the initial tape and the length is the minimum
    accepting sweep count plus one.  ``None`` if no accepting run exists
    within the budgets.
    """
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
            continuing, accepting = _sweep_split(t, tape)
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
                continuing, accepting = _sweep_split(t, tape)
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
                # Periodic from boundary `prev`: rounds prev+1..r repeat
                # forever.  Any accepting halt in that window therefore
                # happens at unboundedly many sweep counts.
                if _cycle_accepts(t, fnxt, r - prev):
                    violations.append(AcceptModeViolation(word, None, bound))
                concluded = True
                break
            seen_frontiers[fnxt] = r
            frontier = fnxt
        if not concluded:
            inconclusive.append(word)
    return AcceptModeReport(tuple(violations), tuple(inconclusive))


def _cycle_accepts(t: Transducer, frontier: frozenset[Tape], period: int) -> bool:
    """Whether any accepting halt occurs within one period of the cycle."""
    for _ in range(period):
        nxt: set[Tape] = set()
        for tape in frontier:
            continuing, accepting = _sweep_split(t, tape)
            if accepting:
                return True
            for q, out in continuing:
                nxt.add(out)
        frontier = frozenset(nxt)
    return False


def build_transducer(
    start: Hashable,
    delta: Callable[[Hashable, str], Iterable[tuple[Hashable, str]]],
    input_alphabet: Sequence[str],
    output_alphabet: Sequence[str],
    endmarker: str,
    accepting: Callable[[Hashable], bool],
    name_of: Callable[[Hashable], str] = str,
    sweep_bound: int | str | None = None,
    meta: Optional[dict] = None,
) -> Transducer:
    """Materialize a transducer from a transition function over abstract states.

    Explores states reachable from ``start`` under every symbol of the
    input and output alphabets, in a deterministic breadth-first order,
    then renders states through ``name_of``.  Constructions can thus be
    written against structured state objects (tuples, small records)
    without committing to token names.
    """
    symbols = tuple(input_alphabet) + tuple(
        y for y in output_alphabet if y not in set(input_alphabet)
    )
    raw: dict[tuple[Hashable, str], tuple[tuple[Hashable, str], ...]] = {}

    def succ(state):
        edges: list[tuple[Hashable, str]] = []
        for x in symbols:
            choices = tuple(delta(state, x))
            if choices:
                raw[(state, x)] = choices
                edges += choices
        return edges

    order, _ = _bfs((start,), succ)
    names = {s: name_of(s) for s in order}
    if len(set(names.values())) != len(names):
        raise MachineError("state naming is not injective on reachable states")
    return Transducer(
        states=tuple(names[s] for s in order),
        input_alphabet=tuple(input_alphabet),
        output_alphabet=tuple(output_alphabet),
        endmarker=endmarker,
        initial=names[start],
        accepting=tuple(names[s] for s in order if accepting(s)),
        transitions={
            (names[q], x): tuple((names[p], y) for p, y in choices)
            for (q, x), choices in raw.items()
        },
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
    than ``limit`` nodes raises ``ResourceBudgetError``.
    """
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
) -> Optional[Word]:
    """Labels along a shortest path to a ``goal`` node, breadth-first
    first-found; ``None`` when no goal node is reachable."""
    parent, hit = _bfs(starts, succ, goal)
    if hit is None:
        return None
    word = []
    while parent[hit] is not None:
        hit, x = parent[hit]
        word.append(x)
    return tuple(reversed(word))
