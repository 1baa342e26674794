"""Exact decision procedures for machines with a declared constant
sweep bound.

A machine that runs at most k sweeps accepts the language of the NFA
``to_nfa(t, k)``, whose states are the lane tuples of k sweeps simulated
in parallel in one (``convert._lane_step``).  Emptiness, universality,
inclusion and equivalence search that NFA without building it:
``LaneNfa`` expands a lane tuple, its successors on each input symbol
and its acceptance, only when a search first visits it, and numbers the
tuples as it discovers them.  Emptiness is a breadth-first search for an
accepting state.  Universality, inclusion and equivalence never
determinize: each is one or two inclusion checks, answered by a
breadth-first antichain search over pairs of a state of one NFA and a
subset of the other's states (De Wulf, Doyen, Henzinger & Raskin, CAV
2006), guarded by a configurable budget of search nodes.  The searches
read an automaton through ``alphabet``, ``initial``, ``step(q)`` and
``accepting(q)`` only; ``NfaView`` gives a materialized ``Nfa`` the same
four names.  Finiteness needs co-reachability, so it works on the
materialized ``to_nfa``.  Each predicate also produces a witness word
where one exists, so tests can validate answers independently.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from math import comb
from typing import Optional

from .convert import Nfa, _check_lanes, _lane_step, _lanes, to_nfa
from .core import MachineError, ResourceBudgetError, Transducer, _bfs, _shortest_word

# Budget of nodes (NFA state, subset) of one inclusion search.
DEFAULT_SEARCH_CAP = 2**20

Word = tuple[str, ...]


class LaneNfa:
    """The NFA ``to_nfa(t, k)``, expanded on demand.

    States are ints numbering the lane tuples in the order they are
    discovered, the initial tuple being 0.  The first ``step`` or
    ``accepting`` call on a tuple expands it: ``_lane_step`` on each
    input symbol gives its successors, numbered as they are discovered,
    and one endmarker step gives its acceptance, which holds when a lane
    can reach an accepting state.  Both are kept for later calls.
    """

    def __init__(self, t: Transducer, k: int) -> None:
        _check_lanes(k, k)
        q0, self._delta, self._acc = _lanes(t)
        self._end = t.endmarker
        self._tuples = [(q0,) * k]
        self._ids = {self._tuples[0]: 0}
        self._rows: dict[int, tuple[tuple[tuple[int, ...], ...], bool]] = {}
        self.alphabet = t.input_alphabet
        self.initial = 0

    @property
    def discovered(self) -> int:
        """Lane tuples numbered so far."""
        return len(self._tuples)

    @property
    def expanded(self) -> int:
        """Lane tuples whose successors and acceptance were computed."""
        return len(self._rows)

    def step(self, q: int) -> tuple[tuple[int, ...], ...]:
        """Successors of ``q`` per symbol of ``alphabet``, in choice order."""
        return (self._rows.get(q) or self._expand(q))[0]

    def accepting(self, q: int) -> bool:
        return (self._rows.get(q) or self._expand(q))[1]

    def _expand(self, q: int) -> tuple[tuple[tuple[int, ...], ...], bool]:
        state, delta, ids, tuples = self._tuples[q], self._delta, self._ids, self._tuples
        row = []
        for x in self.alphabet:
            succ = []
            for p in dict.fromkeys(p for p, _y in _lane_step(delta, state, x)):
                i = ids.setdefault(p, len(tuples))
                if i == len(tuples):
                    tuples.append(p)
                succ.append(i)
            row.append(tuple(succ))
        acc = self._acc
        final = any(any(map(acc.__getitem__, p)) for p, _y in _lane_step(delta, state, self._end))
        self._rows[q] = entry = (tuple(row), final)
        return entry


class NfaView:
    """An ``Nfa`` through the interface of ``LaneNfa``, its states
    numbered in declaration order."""

    def __init__(self, n: Nfa) -> None:
        index = {q: i for i, q in enumerate(n.states)}
        self.alphabet = n.alphabet
        self.initial = index[n.initial]
        self.step = [
            tuple(tuple(index[r] for r in n.transitions.get((q, x), ())) for x in n.alphabet)
            for q in n.states
        ].__getitem__
        self.accepting = [q in n.accepting_set for q in n.states].__getitem__


def _nfa_edges(n: Nfa, within: Optional[set[str]] = None):
    """Successor function of an NFA for ``_bfs``, optionally restricted to
    the states in ``within``."""
    return lambda q: [
        (r, x)
        for x in n.alphabet
        for r in n.transitions.get((q, x), ())
        if within is None or r in within
    ]


def _nfa_reachable(n: Nfa) -> set[str]:
    return set(_bfs((n.initial,), _nfa_edges(n))[0])


def _nfa_coaccessible(n: Nfa) -> set[str]:
    rev: dict[str, list[tuple[str, str]]] = {q: [] for q in n.states}
    for (q, x), rs in n.transitions.items():
        for r in rs:
            rev[r].append((q, x))
    return set(_bfs(n.accepting, rev.__getitem__)[0])


def is_empty(t: Transducer, k: int) -> bool:
    """True iff the machine accepts no word at all (the empty word included)."""
    return emptiness_witness(t, k) is None


def emptiness_witness(t: Transducer, k: int) -> Optional[Word]:
    """Shortest accepted word, or None when the language is empty."""
    n = LaneNfa(t, k)
    sigma = n.alphabet
    return _shortest_word(
        (n.initial,), lambda q: [(r, x) for x, rs in zip(sigma, n.step(q)) for r in rs],
        n.accepting,
    )


def is_finite(t: Transducer, k: int) -> bool:
    """True iff the accepted language is finite.

    Exact on the NFA: the language is infinite precisely when a cycle
    lies on some path from the initial state to an accepting state.
    """
    return infiniteness_witness(t, k) is None


def infiniteness_witness(t: Transducer, k: int) -> Optional[tuple[Word, Word, Word]]:
    """A pumpable decomposition (prefix, cycle, suffix) of accepted
    words, or None when the language is finite."""
    n = to_nfa(t, k)
    live = _nfa_reachable(n) & _nfa_coaccessible(n)
    cycle = _live_cycle(n, live)
    if cycle is None:
        return None
    q, cyc_word = cycle
    edges = _nfa_edges(n, live)
    prefix = _shortest_word((n.initial,), edges, q.__eq__)
    suffix = _shortest_word((q,), edges, n.accepting_set.__contains__)
    return (prefix, cyc_word, suffix)


def _live_cycle(n: Nfa, live: set[str]) -> Optional[tuple[str, Word]]:
    """A state on a cycle of the live subgraph and the cycle's word, or
    None when that subgraph is acyclic.

    Kahn peeling removes every state without a predecessor left; each
    remaining state keeps a remaining predecessor, so walking
    predecessors back from one must close a cycle.
    """
    states = [q for q in n.states if q in live]
    edges = _nfa_edges(n, live)
    preds: dict[str, list[tuple[str, str]]] = {q: [] for q in states}
    for q in states:
        for r, x in edges(q):
            preds[r].append((q, x))
    indegree = {q: len(preds[q]) for q in states}
    peeled = [q for q in states if not indegree[q]]
    for q in peeled:
        for r, _x in edges(q):
            indegree[r] -= 1
            if not indegree[r]:
                peeled.append(r)
    rest = live.difference(peeled)
    if not rest:
        return None
    back: dict[str, tuple[str, str]] = {}
    q = next(q for q in states if q in rest)
    while q not in back:
        back[q] = next((p, x) for p, x in preds[q] if p in rest)
        q = back[q][0]
    word = []
    p = q
    while True:
        p, x = back[p]
        word.append(x)
        if p == q:
            return q, tuple(reversed(word))


def _inclusion_witness(
    a: LaneNfa | NfaView, b: LaneNfa | NfaView, state_cap: int
) -> Optional[Word]:
    """First word of L(a) minus L(b) in length-lexicographic order over
    a's alphabet, or None when L(a) is a subset of L(b).

    Breadth-first search in alphabet order over nodes (p, S): p a state
    of a and S the set of b states reached by the same word.  The first
    node with p accepting and no accepting state in S ends the search.
    A new node is dropped when a node found earlier has the same p and a
    subset of S: every word leading from (p, S) to a goal leads there
    from the earlier node too, and its word is no later in
    length-lexicographic order.  Earlier nodes are never evicted, so the
    witness stays the first one.  Kept subsets are stored per p by size:
    an equal set costs one lookup, and the smaller sets of each size are
    either scanned or looked up among S's own subsets of that size,
    whichever are fewer.  Finding more than ``state_cap`` nodes raises
    ``ResourceBudgetError``.
    """
    if set(a.alphabet) != set(b.alphabet):
        raise MachineError("inclusion requires identical alphabets")
    sigma = a.alphabet
    # position in b's rows of each symbol of sigma
    column = [b.alphabet.index(x) for x in sigma]
    step1, step2, acc1, acc2 = a.step, b.step, a.accepting, b.accepting
    # per state of a, the subsets kept so far by size
    kept: defaultdict[int, dict[int, set[frozenset[int]]]] = defaultdict(dict)

    def keep(r: int, s: frozenset[int]) -> bool:
        by_size, n = kept[r], len(s)
        if s in by_size.get(n, ()):
            return False
        for m, us in by_size.items():
            if m >= n:
                continue
            if comb(n, m) <= len(us):
                if any(frozenset(c) in us for c in combinations(s, m)):
                    return False
            elif any(u <= s for u in us):
                return False
        by_size.setdefault(n, set()).add(s)
        return True

    def succ(node):
        p, s = node
        rows = [step2(q) for q in s]
        for x, rs, j in zip(sigma, step1(p), column):
            if not rs:
                continue
            nxt = frozenset().union(*[row[j] for row in rows])
            for r in rs:
                if keep(r, nxt):
                    yield (r, nxt), x

    start = (a.initial, frozenset((b.initial,)))
    keep(*start)
    try:
        return _shortest_word(
            (start,), succ, lambda node: acc1(node[0]) and not any(map(acc2, node[1])),
            limit=state_cap,
        )
    except ResourceBudgetError:
        raise ResourceBudgetError(
            f"inclusion search exceeded state_cap={state_cap}: "
            f"{state_cap + 1} search nodes found"
        ) from None


def _sigma_star(alphabet: tuple[str, ...]) -> NfaView:
    return NfaView(Nfa(
        states=("all",),
        alphabet=alphabet,
        initial="all",
        accepting=("all",),
        transitions={("all", x): ("all",) for x in alphabet},
    ))


def is_universal(
    t: Transducer, k: int, state_cap: int = DEFAULT_SEARCH_CAP
) -> bool:
    return universality_witness(t, k, state_cap) is None


def universality_witness(
    t: Transducer, k: int, state_cap: int = DEFAULT_SEARCH_CAP
) -> Optional[Word]:
    """Shortest rejected word (length-lexicographically first), or None
    when every word is accepted.  ``state_cap`` bounds the nodes of the
    inclusion search of Sigma* in L(t)."""
    n = LaneNfa(t, k)
    return _inclusion_witness(_sigma_star(n.alphabet), n, state_cap)


def includes(
    t1: Transducer, k1: int, t2: Transducer, k2: int,
    state_cap: int = DEFAULT_SEARCH_CAP,
) -> bool:
    """Whether L(t1) is a subset of L(t2)."""
    return inclusion_witness(t1, k1, t2, k2, state_cap) is None


def inclusion_witness(
    t1: Transducer, k1: int, t2: Transducer, k2: int,
    state_cap: int = DEFAULT_SEARCH_CAP,
) -> Optional[Word]:
    """Shortest word accepted by t1 but not t2 (length-lexicographically
    first), or None.  ``state_cap`` bounds the search nodes, not DFA
    subsets."""
    return _inclusion_witness(*_operands(t1, k1, t2, k2), state_cap)


def equivalent(
    t1: Transducer, k1: int, t2: Transducer, k2: int,
    state_cap: int = DEFAULT_SEARCH_CAP,
) -> bool:
    return equivalence_witness(t1, k1, t2, k2, state_cap) is None


def equivalence_witness(
    t1: Transducer, k1: int, t2: Transducer, k2: int,
    state_cap: int = DEFAULT_SEARCH_CAP,
) -> Optional[Word]:
    """A word accepted by exactly one machine, or None when the languages
    are equal.

    This is the length-lexicographically first word of L(t1) minus L(t2);
    only when that set is empty, the first word of L(t2) minus L(t1).  It
    is not always the shortest word of the symmetric difference.  Each of
    the two inclusion searches may find up to ``state_cap`` nodes; equal
    operands need only the first.
    """
    n1, n2 = _operands(t1, k1, t2, k2)
    w = _inclusion_witness(n1, n2, state_cap)
    if w is not None or n2 is n1:
        return w
    return _inclusion_witness(n2, n1, state_cap)


def _operands(
    t1: Transducer, k1: int, t2: Transducer, k2: int
) -> tuple[LaneNfa, LaneNfa]:
    """Both operands as lane NFAs; equal operands give the same object,
    so their tuples are expanded once."""
    n1 = LaneNfa(t1, k1)
    return n1, n1 if (t1, k1) == (t2, k2) else LaneNfa(t2, k2)
