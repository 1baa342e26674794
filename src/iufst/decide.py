"""Exact decision procedures for machines with a declared constant
sweep bound.

Everything goes through the NFA conversion: emptiness and finiteness
are graph questions on the NFA, while universality, inclusion, and
equivalence determinize first and pay the exponential price, guarded by
a configurable state budget.  Each predicate also produces a witness
word where one exists, so tests can validate answers independently.
"""

from __future__ import annotations

from typing import Optional

from .convert import (
    Dfa,
    Nfa,
    dfa_complement,
    dfa_product,
    dfa_shortest_accepted,
    nfa_to_dfa,
    to_nfa,
)
from .core import Transducer, _bfs, _shortest_word

DEFAULT_DFA_CAP = 2**20

Word = tuple[str, ...]


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
    n = to_nfa(t, k)
    return _shortest_word((n.initial,), _nfa_edges(n), n.accepting_set.__contains__)


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


def _to_dfa(t: Transducer, k: int, state_cap: int) -> Dfa:
    return nfa_to_dfa(to_nfa(t, k), state_cap=state_cap)


def is_universal(
    t: Transducer, k: int, state_cap: int = DEFAULT_DFA_CAP
) -> bool:
    return universality_witness(t, k, state_cap) is None


def universality_witness(
    t: Transducer, k: int, state_cap: int = DEFAULT_DFA_CAP
) -> Optional[Word]:
    """Shortest rejected word, or None when every word is accepted."""
    return dfa_shortest_accepted(dfa_complement(_to_dfa(t, k, state_cap)))


def includes(
    t1: Transducer, k1: int, t2: Transducer, k2: int,
    state_cap: int = DEFAULT_DFA_CAP,
) -> bool:
    """Whether L(t1) is a subset of L(t2)."""
    return inclusion_witness(t1, k1, t2, k2, state_cap) is None


def inclusion_witness(
    t1: Transducer, k1: int, t2: Transducer, k2: int,
    state_cap: int = DEFAULT_DFA_CAP,
) -> Optional[Word]:
    """Shortest word accepted by t1 but not t2, or None."""
    d1 = _to_dfa(t1, k1, state_cap)
    d2 = _to_dfa(t2, k2, state_cap)
    return dfa_shortest_accepted(dfa_product(d1, d2, "difference"))


def equivalent(
    t1: Transducer, k1: int, t2: Transducer, k2: int,
    state_cap: int = DEFAULT_DFA_CAP,
) -> bool:
    return equivalence_witness(t1, k1, t2, k2, state_cap) is None


def equivalence_witness(
    t1: Transducer, k1: int, t2: Transducer, k2: int,
    state_cap: int = DEFAULT_DFA_CAP,
) -> Optional[Word]:
    """Shortest word in the symmetric difference, or None when equal."""
    d1 = _to_dfa(t1, k1, state_cap)
    d2 = _to_dfa(t2, k2, state_cap)
    w = dfa_shortest_accepted(dfa_product(d1, d2, "difference"))
    if w is not None:
        return w
    return dfa_shortest_accepted(dfa_product(d2, d1, "difference"))
