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

Execution has one kernel and one driver.  ``_sweep``, the only loop over
cells, keeps a lone branch in a list and forked branches in a trie of
output chunks of up to ``_CHUNK`` symbols, so each completed output costs
time linear in the tape.  ``_search``, the only search over the tapes at
sweep boundaries, yields its rounds to ``_run_traced`` (behind ``run``
and ``find_accepting_trace``) and ``check_accept_mode``; ``sweep`` and
``run_deterministic`` call the kernel.

Constructions build machines through ``materialize``, which explores the
enabled moves of abstract states breadth-first.  A construction's
``moves(state)`` yields (symbol read, next state, symbol written) triples
only for the moves that exist, over states and symbols that may be tuples;
each declared symbol is rendered to its token once, so no construction
parses token strings.  Moves reading an undeclared symbol are skipped,
writing one raises ``MachineError``, and moves are ordered by the declared
rank of the symbol read, so state names and transition order do not depend
on the order a construction yields them in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

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
    if not isinstance(tok, str) or not tok or tok.split() != [tok]:
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

    @cached_property
    def _indexed(self) -> tuple[int, list[dict[str, tuple[tuple[int, str], ...]]], list[bool]]:
        """(initial, delta, accepting) over indices into ``states``; ``delta[q][x]``
        holds the distinct choices in order.  Built lazily: only sweeps use it."""
        index = {q: i for i, q in enumerate(self.states)}
        delta: list[dict] = [{} for _ in self.states]
        for (q, x), choices in self.transitions.items():
            delta[index[q]][x] = tuple(dict.fromkeys((index[p], y) for p, y in choices))
        return index[self.initial], delta, [q in self.accepting_set for q in self.states]

    def initial_tape(self, word: Sequence[str]) -> Tape:
        if not self.input_set.issuperset(word):
            bad = [a for a in word if a not in self.input_set]
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
    stuck: list[tuple[int, int]] = []
    done = _sweep(t, tape, stuck)
    name = t.states
    return {Stuck(i, name[q]) for i, q in stuck} | {Completed(name[q], out) for q, out in done}


def _sweep(
    t: Transducer, tape: Tape, stuck: Optional[list[tuple[int, int]]] = None
) -> list[tuple[int, Tape]]:
    """The completed (state index, output) pairs of one sweep over
    ``tape``, deduplicated per cell on (state, output so far), in
    declaration order (frontier order, then choice order); ``stuck``
    collects the (position, state index) of halted branches.  A forked
    branch is (state, trie node, tail), node -1 being the end of ``head``."""
    q, delta, _ = t._indexed
    head: list[str] = []
    n = len(tape)
    i = 0
    while i < n:
        choices = delta[q].get(tape[i])
        if choices is None:
            if stuck is not None:
                stuck.append((i, q))
            return []
        if len(choices) == 1:
            q, y = choices[0]
            head.append(y)
            i += 1
            continue
        fork = i
        nodes: dict[tuple[int, Tape], int] = {}  # (parent node, tail) -> node
        frontier: dict[tuple[int, int, Tape], None] = {(q, -1, ()): None}
        while True:
            x = tape[i]
            nxt: dict[tuple[int, int, Tape], None] = {}
            for q, node, tail in frontier:
                choices = delta[q].get(x)
                if choices is None:
                    if stuck is not None:
                        stuck.append((i, q))
                    continue
                for p, y in choices:
                    nxt[p, node, tail + (y,)] = None
            i += 1
            frontier = nxt
            if len(frontier) <= 1 or i == n:
                break
            if (i - fork) % _CHUNK == 0:
                frontier = {(p, nodes.setdefault((node, tail), len(nodes)), ()): None
                            for p, node, tail in nxt}
        if not frontier:
            return []
        chunks = list(nodes)
        if len(frontier) > 1:
            h = tuple(head)
            return [(p, h + _trie_path(chunks, c, tail)) for p, c, tail in frontier]
        (q, node, tail), = frontier
        head += _trie_path(chunks, node, tail)
    return [(q, tuple(head))]


_CHUNK = 16


def _trie_path(chunks: list[tuple[int, Tape]], node: int, tail: Tape) -> Tape:
    parts = [tail]
    while node >= 0:
        node, part = chunks[node]
        parts.append(part)
    return tuple(chain.from_iterable(reversed(parts)))


def _search(
    t: Transducer, tape0: Tape, rounds: int, tape_cap: int, seen: Optional[dict] = None
) -> Iterator[tuple[int, int, Optional[tuple[Tape, Tape]], Optional[list[Tape]]]]:
    """Breadth-first search over sweep-boundary tapes, yielding ``(r,
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
        nxt: list[Tape] = []
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
    """Breadth-first exploration of tape sets at sweep boundaries.

    Round s sweeps every frontier tape; a branch finishing in an
    accepting state halts the whole search with ``min_accept_sweeps=s``
    (rounds are explored in order, so the first hit is minimal).
    Branches finishing in non-accepting states continue with their
    output tape.  Tapes are deduplicated globally: the sweep relation
    depends only on the tape, so a tape seen before yields nothing new.
    """
    return _run_traced(t, word, max_sweeps, tape_cap)[0]


def _run_traced(
    t: Transducer,
    word: Sequence[str],
    max_sweeps: int,
    tape_cap: int,
) -> tuple[RunReport, Optional[list[Tape]]]:
    """``run``'s report and ``find_accepting_trace``'s path (None unless
    accepted) from one search."""
    if max_sweeps < 0 or tape_cap < 1:
        raise ValueError("max_sweeps must be >= 0 and tape_cap >= 1")
    tape0 = t.initial_tape(word)
    parent: dict[Tape, Optional[Tape]] = {tape0: None}
    explored, frontier = 0, [tape0]
    for s, explored, hit, frontier in _search(t, tape0, max_sweeps, tape_cap, parent):
        if hit is not None:
            path = [hit[1], hit[0]]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return RunReport(True, s, explored, False), path[::-1]
    # a None frontier means the tape cap stopped the search
    return RunReport(False, None, explored, frontier is None, exhausted=frontier == []), None


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
    acc = t._indexed[2]
    for s in range(1, max_sweeps + 1):
        done = _sweep(t, tape)
        if not done:
            return RunReport(False, None, s, False, exhausted=True), trace
        (q, tape), = done
        trace.append(tape)
        if acc[q]:
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
    within the budgets.  Raises ``ValueError`` on the budgets ``run``
    rejects.
    """
    return _run_traced(t, word, max_sweeps, tape_cap)[1]


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
        tape0 = t.initial_tape(word)
        seen_frontiers: dict[frozenset[Tape], int] = {frozenset((tape0,)): 0}
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


def materialize(
    start: Hashable,
    moves: Callable[[Hashable], Iterable[tuple[Hashable, Hashable, Hashable]]],
    input_alphabet: Sequence[Hashable],
    output_alphabet: Sequence[Hashable],
    endmarker: Hashable,
    accepting: Callable[[Hashable], bool],
    name_of: Callable[[Hashable], str] = str,
    symbol_name: Callable[[Hashable], str] = str,
    sweep_bound: int | str | None = None,
    meta: Optional[dict] = None,
) -> Transducer:
    """Materialize a transducer from the enabled moves of abstract states.

    ``moves(state)`` yields the (symbol read, next state, symbol written)
    triples enabled in ``state``.  States are explored breadth-first from
    ``start``; within a state, moves are taken in the declared rank of the
    symbol read (the input alphabet, then the output-only symbols), choice
    order kept per symbol.  States and symbols may be structured values:
    each declared symbol is rendered once through ``symbol_name`` and each
    reachable state through ``name_of``, and two values rendering alike
    raise ``MachineError``.  A move reading an undeclared symbol is
    skipped; one writing an undeclared symbol raises ``MachineError``.
    """
    rank = {x: r for r, x in enumerate(dict.fromkeys(chain(input_alphabet, output_alphabet)))}
    sym: dict[Hashable, str] = {}
    rendered: dict[str, Hashable] = {}
    for x in rank:
        sym[x] = tok = symbol_name(x)
        if rendered.setdefault(tok, x) != x:
            raise MachineError(f"symbols {rendered[tok]!r} and {x!r} both render {tok!r}")
    toks = tuple(sym.values())
    n = len(toks)
    # per state in BFS order, its moves as (next state, rank read * n + rank written)
    raw: list[tuple[Hashable, list[tuple[Hashable, int]]]] = []

    def succ(state):
        try:
            enabled = [(p, r * n + rank[y]) for x, p, y in moves(state)
                       if (r := rank.get(x)) is not None]
        except KeyError:
            undeclared = [(rank[x], y) for x, _, y in moves(state) if x in rank and y not in rank]
            if not undeclared:
                raise
            y = min(undeclared, key=itemgetter(0))[1]
            raise MachineError(f"transition writes undeclared output symbol {symbol_name(y)!r}") from None
        enabled.sort(key=lambda move: move[1] // n)
        raw.append((state, enabled))
        return enabled

    order, _ = _bfs((start,), succ)
    names = {s: name_of(s) for s in order}
    if len(set(names.values())) != len(names):
        raise MachineError("state naming is not injective on reachable states")
    transitions: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for state, enabled in raw:
        q = names[state]
        for p, code in enabled:
            r, y = divmod(code, n)
            transitions.setdefault((q, toks[r]), []).append((names[p], toks[y]))
    return Transducer(
        states=tuple(names.values()),
        input_alphabet=tuple(sym[x] for x in input_alphabet),
        output_alphabet=tuple(sym[y] for y in output_alphabet),
        endmarker=symbol_name(endmarker),
        initial=names[start],
        accepting=tuple(names[s] for s in order if accepting(s)),
        transitions={key: tuple(choices) for key, choices in transitions.items()},
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
