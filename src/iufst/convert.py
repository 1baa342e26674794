"""Conversions between iterated transducers and classical acceptors.

The central construction simulates several sweeps of a machine in
parallel inside one sweep, using tuple states with a dummy lane for
branches that died.  Reducing a k-sweep machine all the way to one
sweep and then dropping the endmarker yields an NFA, and the usual
powerset construction takes it to a DFA.  Standard DFA plumbing
(completion, minimization, complement, products) lives here too because
the lower-bound checks and ``iufst convert`` need it; the decision
procedures in ``decide`` search subsets on the fly instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

from .core import (
    MachineError,
    MalformedInputError,
    ResourceBudgetError,
    Transducer,
    _bfs,
    _check_token,
    _check_unique,
    _shortest_word,
    materialize,
)


@dataclass(frozen=True)
class Nfa:
    """Classical NFA; transitions map (state, symbol) to successor tuples."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    initial: str
    accepting: tuple[str, ...]
    transitions: dict[tuple[str, str], tuple[str, ...]]
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        for s in self.states:
            _check_token(s, "state")
        for a in self.alphabet:
            _check_token(a, "symbol")
        _check_unique(self.states, "states")
        _check_unique(self.alphabet, "symbols")
        state_set = set(self.states)
        alpha = set(self.alphabet)
        if self.initial not in state_set:
            raise MachineError(f"initial state {self.initial!r} not declared")
        for q in self.accepting:
            if q not in state_set:
                raise MachineError(f"accepting state {q!r} not declared")
        for (q, x), rs in self.transitions.items():
            if q not in state_set or x not in alpha:
                raise MachineError(f"bad transition key ({q!r}, {x!r})")
            for r in rs:
                if r not in state_set:
                    raise MachineError(f"transition into undeclared state {r!r}")

    @cached_property
    def accepting_set(self) -> frozenset[str]:
        return frozenset(self.accepting)

    @cached_property
    def alphabet_set(self) -> frozenset[str]:
        return frozenset(self.alphabet)

    @property
    def is_deterministic(self) -> bool:
        return all(len(v) <= 1 for v in self.transitions.values())

    def accepts(self, word: Sequence[str]) -> bool:
        bad = [a for a in word if a not in self.alphabet_set]
        if bad:
            raise MalformedInputError(f"symbols {bad!r} outside the alphabet")
        cur = {self.initial}
        for x in word:
            cur = {r for q in cur for r in self.transitions.get((q, x), ())}
            if not cur:
                return False
        return bool(cur & self.accepting_set)


@dataclass(frozen=True)
class Dfa:
    """Complete or partial DFA; at most one successor per (state, symbol)."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    initial: str
    accepting: tuple[str, ...]
    transitions: dict[tuple[str, str], str]
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        for s in self.states:
            _check_token(s, "state")
        _check_unique(self.states, "states")
        _check_unique(self.alphabet, "symbols")
        state_set = set(self.states)
        alpha = set(self.alphabet)
        if self.initial not in state_set:
            raise MachineError(f"initial state {self.initial!r} not declared")
        for q in self.accepting:
            if q not in state_set:
                raise MachineError(f"accepting state {q!r} not declared")
        for (q, x), r in self.transitions.items():
            if q not in state_set or x not in alpha or r not in state_set:
                raise MachineError(f"bad transition ({q!r}, {x!r}) -> {r!r}")

    @cached_property
    def accepting_set(self) -> frozenset[str]:
        return frozenset(self.accepting)

    @cached_property
    def alphabet_set(self) -> frozenset[str]:
        return frozenset(self.alphabet)

    @property
    def is_deterministic(self) -> bool:
        return True

    @property
    def is_complete(self) -> bool:
        return all((q, x) in self.transitions for q in self.states for x in self.alphabet)

    def accepts(self, word: Sequence[str]) -> bool:
        cur: Optional[str] = self.initial
        for x in word:
            if x not in self.alphabet_set:
                raise MalformedInputError(f"symbol {x!r} outside the alphabet")
            cur = self.transitions.get((cur, x))
            if cur is None:
                return False
        return cur in self.accepting_set


_DUMMY = "d"


def _fresh(base: str, taken: set[str]) -> str:
    tok = base
    while tok in taken:
        tok += "'"
    return tok


def _tuple_name(parts: tuple[str, ...]) -> str:
    return "(" + ",".join(parts) + ")"


def reduced_state_universe(n_states: int, i: int) -> int:
    """Size of the tuple-state universe for an i-fold parallel simulation.

    Tuples of arity i over the original states plus a dummy, where the
    dummy, once present, fills every later coordinate: sum of n^t for
    t = 0..i.
    """
    return sum(n_states**t for t in range(i + 1))


def sweep_reduce(t: Transducer, k: int, i: int) -> Transducer:
    """Equivalent machine running ceil(k/i) sweeps by simulating i at a time.

    Lane t of a tuple state carries sweep t of the current block of i
    sweeps; lane t reads lane t-1's output (lane 1 reads the tape).  A
    lane whose transition set is empty collapses to the dummy state and
    prints the dummy symbol, which forces every later lane of later
    sweeps into the dummy as well.  A tuple is accepting when any lane
    holds an accepting original state.  Determinism is preserved, and
    the full tuple-state universe has at most 2 n^i members for n >= 2
    (the constructed machine materializes only reachable tuples; the
    universe size is recorded in ``meta["universe_states"]``).
    """
    if not isinstance(k, int) or k < 1:
        raise MachineError(f"declared sweep bound must be a positive integer, got {k!r}")
    if not 1 <= i <= k:
        raise MachineError(f"lane count i={i} must satisfy 1 <= i <= k={k}")
    taken_states = set(t.states)
    taken_syms = set(t.input_alphabet) | set(t.output_alphabet)
    dummy_state = _fresh(_DUMMY, taken_states)
    dummy_sym = _fresh(_DUMMY, taken_syms)
    out_alpha = tuple(t.output_alphabet) + (dummy_sym,)
    trans = t.transitions
    accepting = t.accepting_set

    def delta(state: tuple[str, ...], x: str):
        results: list[tuple[tuple[str, ...], str]] = [((), x)]
        for lane in range(i):
            nxt: list[tuple[tuple[str, ...], str]] = []
            for prefix, y_prev in results:
                s_t = state[lane]
                if s_t == dummy_state or y_prev == dummy_sym:
                    nxt.append((prefix + (dummy_state,), dummy_sym))
                    continue
                choices = trans.get((s_t, y_prev))
                if not choices:
                    nxt.append((prefix + (dummy_state,), dummy_sym))
                else:
                    for r_t, y_t in choices:
                        nxt.append((prefix + (r_t,), y_t))
            results = nxt
        # Dedup while keeping declaration order stable.
        seen = set()
        out = []
        for tup, y in results:
            if (tup, y) not in seen:
                seen.add((tup, y))
                out.append((tup, y))
        return out

    symbols = tuple(dict.fromkeys(t.input_alphabet + out_alpha))
    return materialize(
        start=(t.initial,) * i,
        moves=lambda state: [(x, p, y) for x in symbols for p, y in delta(state, x)],
        input_alphabet=t.input_alphabet,
        output_alphabet=out_alpha,
        endmarker=t.endmarker,
        accepting=lambda tup: any(q in accepting for q in tup),
        name_of=_tuple_name,
        sweep_bound=-(-k // i),  # ceil(k / i)
        meta={
            "universe_states": reduced_state_universe(len(t.states), i),
            "lanes": i,
            "source_states": len(t.states),
            "source_bound": k,
        },
    )


def to_nfa(t: Transducer, k: int) -> Nfa:
    """NFA equivalent to a machine with declared constant sweep bound k.

    Reduce k sweeps into one, keep the input transitions, and drop the
    endmarker: a state is accepting when one endmarker step from it can
    reach a tuple containing an accepting original state.  Applying the
    same rule to the initial state makes the NFA accept the empty word
    exactly when the transducer does.  The state universe stays within
    2 n^k.
    """
    reduced = sweep_reduce(t, k, k)
    end = reduced.endmarker
    nfa_accepting = []
    reduced_acc = reduced.accepting_set
    for q in reduced.states:
        for r, _y in reduced.transitions.get((q, end), ()):
            if r in reduced_acc:
                nfa_accepting.append(q)
                break
    transitions: dict[tuple[str, str], tuple[str, ...]] = {}
    for (q, x), choices in reduced.transitions.items():
        if x not in reduced.input_set:
            continue
        seen: list[str] = []
        for r, _y in choices:
            if r not in seen:
                seen.append(r)
        transitions[(q, x)] = tuple(seen)
    return Nfa(
        states=reduced.states,
        alphabet=reduced.input_alphabet,
        initial=reduced.initial,
        accepting=tuple(nfa_accepting),
        transitions=transitions,
        meta=dict(reduced.meta),
    )


def nfa_to_1niufst(n: Nfa) -> Transducer:
    """Embed an NFA as a one-sweep transducer with one extra state.

    The transducer copies every symbol it reads; a fresh accepting state
    is entered exactly when the endmarker is read after the simulated
    NFA ended in one of its accepting states.
    """
    taken = set(n.states)
    acc_state = _fresh("qacc", taken)
    taken_syms = set(n.alphabet)
    end = _fresh("<", taken_syms)
    transitions: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {}
    for (q, x), rs in n.transitions.items():
        transitions[(q, x)] = tuple((r, x) for r in rs)
    for q in n.accepting:
        transitions[(q, end)] = ((acc_state, end),)
    return Transducer(
        states=tuple(n.states) + (acc_state,),
        input_alphabet=tuple(n.alphabet),
        output_alphabet=tuple(n.alphabet) + (end,),
        endmarker=end,
        initial=n.initial,
        accepting=(acc_state,),
        transitions=transitions,
        sweep_bound=1,
    )


def nfa_to_dfa(n: Nfa, state_cap: int = 2**20) -> Dfa:
    """Powerset construction over reachable subsets.

    The result is complete: the empty subset appears as an explicit dead
    state whenever some (subset, symbol) has no successor.  Raises
    ``ResourceBudgetError`` beyond ``state_cap`` discovered subsets.
    """
    order = {s: i for i, s in enumerate(n.states)}

    def name(subset: frozenset[str]) -> str:
        return "{" + ",".join(sorted(subset, key=order.__getitem__)) + "}"

    rows: dict[frozenset[str], list[tuple[frozenset[str], str]]] = {}

    def succ(cur: frozenset[str]) -> list[tuple[frozenset[str], str]]:
        rows[cur] = [
            (frozenset(r for q in cur for r in n.transitions.get((q, x), ())), x)
            for x in n.alphabet
        ]
        return rows[cur]

    start = frozenset({n.initial})
    try:
        subsets, _ = _bfs((start,), succ, limit=state_cap)
    except ResourceBudgetError:
        raise ResourceBudgetError(
            f"powerset construction exceeded {state_cap} states"
        ) from None
    names = {sub: name(sub) for sub in subsets}
    return Dfa(
        states=tuple(names.values()),
        alphabet=tuple(n.alphabet),
        initial=names[start],
        accepting=tuple(names[sub] for sub in subsets if sub & n.accepting_set),
        transitions={
            (names[cur], x): names[nxt] for cur, row in rows.items() for nxt, x in row
        },
    )


def dfa_complete(d: Dfa) -> Dfa:
    """Total version of a DFA; adds a dead sink only if needed."""
    if d.is_complete:
        return d
    sink = _fresh("sink", set(d.states))
    transitions = dict(d.transitions)
    for q in tuple(d.states) + (sink,):
        for x in d.alphabet:
            transitions.setdefault((q, x), sink)
    return Dfa(
        states=tuple(d.states) + (sink,),
        alphabet=d.alphabet,
        initial=d.initial,
        accepting=d.accepting,
        transitions=transitions,
    )


def _dfa_edges(d: Dfa):
    """Successor function of a (possibly partial) DFA for ``_bfs``."""
    return lambda q: [
        (d.transitions[(q, x)], x) for x in d.alphabet if (q, x) in d.transitions
    ]


def _reachable(d: Dfa) -> list[str]:
    return list(_bfs((d.initial,), _dfa_edges(d))[0])


def dfa_minimize(d: Dfa) -> Dfa:
    """Unique minimal complete DFA via Moore partition refinement.

    States are renumbered canonically (breadth-first from the initial
    state in alphabet order), so two minimal DFAs for the same language
    are structurally equal.  ``meta`` reports both the complete state
    count and the partial count (without a dead state, when one exists).
    """
    d = dfa_complete(d)
    reach = _reachable(d)
    acc = d.accepting_set
    block: dict[str, int] = {q: (1 if q in acc else 0) for q in reach}
    while True:
        signature = {
            q: (block[q],) + tuple(block[d.transitions[(q, x)]] for x in d.alphabet)
            for q in reach
        }
        renum: dict[tuple, int] = {}
        nxt: dict[str, int] = {}
        for q in reach:
            sig = signature[q]
            if sig not in renum:
                renum[sig] = len(renum)
            nxt[q] = renum[sig]
        if len(set(nxt.values())) == len(set(block.values())):
            block = nxt
            break
        block = nxt
    # Canonical renumbering by BFS from the initial block.
    rep: dict[int, str] = {}
    for q in reach:
        rep.setdefault(block[q], q)
    order, _ = _bfs(
        (block[d.initial],),
        lambda b: [(block[d.transitions[(rep[b], x)]], x) for x in d.alphabet],
    )
    names = {b: f"m{i}" for i, b in enumerate(order)}
    transitions = {
        (names[b], x): names[block[d.transitions[(rep[b], x)]]]
        for b in order
        for x in d.alphabet
    }
    accepting = tuple(names[b] for b in order if rep[b] in acc)
    out = Dfa(
        states=tuple(names[b] for b in order),
        alphabet=d.alphabet,
        initial=names[block[d.initial]],
        accepting=accepting,
        transitions=transitions,
    )
    dead = _dead_states(out)
    out.meta["complete_states"] = len(out.states)
    out.meta["partial_states"] = len(out.states) - len(dead)
    return out


def _dead_states(d: Dfa) -> set[str]:
    """States from which no accepting state is reachable."""
    rev: dict[str, list[tuple[str, str]]] = {q: [] for q in d.states}
    for (q, x), r in d.transitions.items():
        rev[r].append((q, x))
    return set(d.states).difference(_bfs(d.accepting, rev.__getitem__)[0])


def dfa_complement(d: Dfa) -> Dfa:
    d = dfa_complete(d)
    return Dfa(
        states=d.states,
        alphabet=d.alphabet,
        initial=d.initial,
        accepting=tuple(q for q in d.states if q not in d.accepting_set),
        transitions=d.transitions,
    )


def dfa_product(a: Dfa, b: Dfa, op: str = "intersection") -> Dfa:
    """Product automaton; ``op`` is intersection, union, or difference."""
    if op not in ("intersection", "union", "difference"):
        raise MachineError(f"unknown product op {op!r}")
    if set(a.alphabet) != set(b.alphabet):
        raise MachineError("product requires identical alphabets")
    a = dfa_complete(a)
    b = dfa_complete(b)
    start = (a.initial, b.initial)
    transitions: dict[tuple[str, str], str] = {}

    def name(pq: tuple[str, str]) -> str:
        return f"({pq[0]};{pq[1]})"

    def succ(pq: tuple[str, str]) -> list[tuple[tuple[str, str], str]]:
        p, q = pq
        edges = [((a.transitions[(p, x)], b.transitions[(q, x)]), x) for x in a.alphabet]
        for nxt, x in edges:
            transitions[(name(pq), x)] = name(nxt)
        return edges

    order, _ = _bfs((start,), succ)

    def accept(pq: tuple[str, str]) -> bool:
        ina = pq[0] in a.accepting_set
        inb = pq[1] in b.accepting_set
        if op == "intersection":
            return ina and inb
        if op == "union":
            return ina or inb
        return ina and not inb

    return Dfa(
        states=tuple(name(pq) for pq in order),
        alphabet=a.alphabet,
        initial=name(start),
        accepting=tuple(name(pq) for pq in order if accept(pq)),
        transitions=transitions,
    )


def dfa_shortest_accepted(d: Dfa) -> Optional[tuple[str, ...]]:
    """Length-lexicographically first accepted word, or None if L is empty."""
    return _shortest_word((d.initial,), _dfa_edges(d), d.accepting_set.__contains__)


def dfa_isomorphic(a: Dfa, b: Dfa) -> bool:
    """Structural equality after canonical minimization renumbering."""
    ca, cb = dfa_minimize(a), dfa_minimize(b)
    return (
        ca.states == cb.states
        and ca.alphabet == cb.alphabet
        and ca.initial == cb.initial
        and ca.accepting == cb.accepting
        and ca.transitions == cb.transitions
    )
