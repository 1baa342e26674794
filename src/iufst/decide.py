"""Exact decision procedures for machines with a declared constant
sweep bound.

A machine that runs at most k sweeps accepts the language of the NFA
whose states are the lane tuples of k sweeps simulated in parallel in
one.  Every procedure searches that NFA without naming its states:
``core.LaneNfa`` fills a lane tuple's row per symbol read, its
successors on an input symbol and its acceptance each when first read,
and numbers the tuples as it discovers them (``convert.to_nfa`` renders
the same NFA with named states).  The searches read an automaton through
``alphabet``, ``initial``, ``rows`` and ``accepting(q)`` only, the
successors of state q on the c-th symbol being the cell ``rows[q][c]``; a
materialized ``Nfa`` or ``Dfa`` gives the same four names through its
``_view``.  Emptiness is a breadth-first search for an accepting
state.  Finiteness looks for a cycle among the live states, those
reachable and co-reachable, found by one search forwards and one over
the reversed edges.  Universality, inclusion and equivalence never
determinize: each is one or two inclusion checks, answered by a
breadth-first antichain search over pairs of a state of one NFA and a
subset of the other's states (De Wulf, Doyen, Henzinger & Raskin, CAV
2006), guarded by a configurable budget of search nodes.  Each predicate
also produces a witness word where one exists, so tests can validate
answers independently.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from math import comb
from types import SimpleNamespace
from typing import Optional

from .core import LaneNfa, MachineError, ResourceBudgetError, Transducer, Word
from .core import _bfs, _edges, _set_step, _shortest_word

# Budget of nodes (NFA state, subset) of one inclusion search.
DEFAULT_SEARCH_CAP = 2**20


def is_empty(t: Transducer, k: int) -> bool:
    """True iff the machine accepts no word at all (the empty word included)."""
    return emptiness_witness(t, k) is None


def emptiness_witness(t: Transducer, k: int) -> Optional[Word]:
    """Shortest accepted word, or None when the language is empty."""
    n = LaneNfa(t, k)
    return _shortest_word((n.initial,), _edges(n), n.accepting)


def _live(n: LaneNfa | SimpleNamespace) -> tuple[dict[int, list[tuple[int, str]]], dict]:
    """The live states of ``n`` (reachable from the initial state and
    co-reachable to an accepting one) in breadth-first discovery order,
    each with its edges into live states; and the reversed edges of the
    reachable states, each state's (predecessor, symbol) pairs in the
    order of the predecessors' discovery, then choice order."""
    edges = _edges(n)
    out = {q: edges(q) for q in _bfs((n.initial,), edges)[0]}
    rev: dict[int, list[tuple[int, str]]] = {q: [] for q in out}
    for q, es in out.items():
        for r, x in es:
            rev[r].append((q, x))
    co = _bfs([q for q in out if n.accepting(q)], rev.__getitem__)[0]
    return {q: [(r, x) for r, x in es if r in co] for q, es in out.items() if q in co}, rev


def is_finite(t: Transducer, k: int) -> bool:
    """True iff the accepted language is finite.

    Exact on the NFA: the language is infinite precisely when a cycle
    lies on some path from the initial state to an accepting state.
    """
    return infiniteness_witness(t, k) is None


def infiniteness_witness(t: Transducer, k: int) -> Optional[tuple[Word, Word, Word]]:
    """A pumpable decomposition (prefix, cycle, suffix) of accepted
    words, or None when the language is finite.

    Breadth-first discovery order from the initial state, edges in
    alphabet then choice order, fixes the pump: the cycle closes on the
    walk back from the first live state that Kahn peeling leaves, and
    the prefix and suffix are the first-found shortest words over live
    states from the initial state to the cycle's state and from it to
    an accepting state."""
    n = LaneNfa(t, k)
    live, rev = _live(n)
    cycle = _live_cycle(live, rev)
    if cycle is None:
        return None
    q, cyc_word = cycle
    prefix = _shortest_word((n.initial,), live.__getitem__, q.__eq__)
    suffix = _shortest_word((q,), live.__getitem__, n.accepting)
    return (prefix, cyc_word, suffix)


def _live_cycle(live: dict[int, list[tuple[int, str]]], rev: dict) -> Optional[tuple[int, Word]]:
    """A state on a cycle of the live subgraph and the cycle's word, or
    None when that subgraph is acyclic; ``live`` and ``rev`` are ``_live``'s.

    Kahn peeling removes every state without a predecessor left; each
    remaining state keeps a remaining predecessor, so walking
    predecessors back from the first one in ``live``'s order must close
    a cycle.
    """
    indegree = {q: sum(p in live for p, _x in rev[q]) for q in live}
    peeled = [q for q in live if not indegree[q]]
    for q in peeled:
        for r, _x in live[q]:
            indegree[r] -= 1
            if not indegree[r]:
                peeled.append(r)
    rest = live.keys() - peeled
    if not rest:
        return None
    q = next(q for q in live if q in rest)
    back: dict[int, tuple[int, str]] = {}
    while q not in back:
        back[q] = next((p, x) for p, x in rev[q] if p in rest)
        q = back[q][0]
    word = []
    p = q
    while True:
        p, x = back[p]
        word.append(x)
        if p == q:
            return q, tuple(reversed(word))


def _inclusion_witness(
    a: LaneNfa | SimpleNamespace, b: LaneNfa | SimpleNamespace, state_cap: int
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
    whichever are fewer.  S steps by ``core._set_step`` only on the
    symbols where p has a successor, so b's cells on the others stay
    unread.  Finding more than ``state_cap`` nodes raises
    ``ResourceBudgetError``.
    """
    if set(a.alphabet) != set(b.alphabet):
        raise MachineError("inclusion requires identical alphabets")
    sigma = a.alphabet
    # position in b's rows of each symbol of sigma
    column = [b.alphabet.index(x) for x in sigma]
    rows, acc1, acc2 = a.rows, a.accepting, b.accepting
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
        row = rows[p]
        for c, x in enumerate(sigma):
            rs = row[c]
            if rs:
                nxt = _set_step(b, s, column[c])
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


def _sigma_star(alphabet: tuple[str, ...]) -> SimpleNamespace:
    """The one-state automaton of every word over ``alphabet``, through
    ``LaneNfa``'s four names."""
    return SimpleNamespace(alphabet=alphabet, initial=0, rows=[((0,),) * len(alphabet)],
                           accepting=[True].__getitem__)


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
    so their rows are filled once."""
    n1 = LaneNfa(t1, k1)
    return n1, n1 if (t1, k1) == (t2, k2) else LaneNfa(t2, k2)
