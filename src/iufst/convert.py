"""Conversions between iterated transducers and classical acceptors.

The central construction simulates several sweeps of a machine in
parallel inside one sweep; its lane tuples, their moves and
``LaneNfa`` live in ``core``, whose lane route runs them, and this
module renders them: ``sweep_reduce`` materializes the tuples it
reaches as a transducer, and ``to_nfa`` names ``LaneNfa``'s states.
``Nfa`` and ``Dfa`` share their header rules in ``_Fa`` and each
keep their per-move rule and successor rule ``_successors`` (a 0- or
1-tuple in a ``Dfa``), on which ``_Fa`` builds one ``accepts`` and one
cached ``_view``: ``LaneNfa``'s four names, states numbered in
declaration order.  DFAs live in int tables (successor indices per symbol,
accepting bits) between two kernels: ``_powerset`` determinizes an NFA over
bitmask subsets, one OR chain of packed per-state successor masks giving
a subset's successors on every symbol, and ``_moore`` minimizes a table,
hashing each state's signature once a round and naming only its result.
``nfa_to_dfa`` names the subsets from their masks, ``dfa_minimize`` reads
a ``Dfa`` into a table, ``min_dfa`` feeds one kernel to the other, and
``oracle.predicate_to_min_dfa`` feeds its class table to ``_moore``.  The
tables go in and out of records through C-level ``map``, ``zip`` and
``product``, which keep the records' key order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, count, product, repeat
from types import SimpleNamespace
from typing import Iterable, Sequence

from .core import (
    LaneNfa,
    MachineError,
    MalformedInputError,
    ResourceBudgetError,
    Transducer,
    _DUMMY_SYMBOL,
    _Record,
    _bfs,
    _check_declared,
    _check_lanes,
    _check_list,
    _edges,
    _escapes,
    _fresh,
    _lane_step,
    materialize,
    renderer,
)


class _Fa(_Record):
    """Base of ``Nfa`` and ``Dfa``: their header rules, the alphabet as a
    set, and what is read through the successor rule ``_successors``."""

    def __post_init__(self) -> None:
        states = _check_list(self.states, "state")
        alphabet = _check_list(self.alphabet, "symbol")
        _check_declared(states, "initial", self.initial)
        _check_declared(states, "accepting", *self.accepting)
        self._check_moves(states, alphabet, self.transitions.items())

    @cached_property
    def alphabet_set(self) -> frozenset[str]:
        return frozenset(self.alphabet)

    def _check_word(self, word: Sequence[str]) -> None:
        bad = [a for a in word if a not in self.alphabet_set]
        if bad:
            raise MalformedInputError(f"symbols {bad!r} outside the alphabet")

    def accepts(self, word: Sequence[str]) -> bool:
        self._check_word(word)
        cur = {self.initial}
        for x in word:
            cur = {r for q in cur for r in self._successors(q, x)}
            if not cur:
                return False
        return bool(cur & self.accepting_set)

    @cached_property
    def _view(self) -> SimpleNamespace:
        """The automaton through ``LaneNfa``'s four names, its states numbered
        in declaration order; ``rows[q][c]``, the successors of state q on
        ``alphabet[c]``, is built for every cell at once."""
        index = {q: i for i, q in enumerate(self.states)}
        rows = [tuple(tuple(map(index.__getitem__, self._successors(q, x))) for x in self.alphabet)
                for q in self.states]
        accepting = [q in self.accepting_set for q in self.states]
        return SimpleNamespace(alphabet=self.alphabet, initial=index[self.initial], rows=rows,
                               accepting=accepting.__getitem__)


@dataclass(frozen=True)
class Nfa(_Fa):
    """Classical NFA; transitions map (state, symbol) to successor tuples."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    initial: str
    accepting: tuple[str, ...]
    transitions: dict[tuple[str, str], tuple[str, ...]]
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    @staticmethod
    def _check_moves(states: set[str], alphabet: set[str],
                     items: Iterable[tuple[tuple[str, str], tuple[str, ...]]]) -> None:
        """The per-move rule, over (key, successors) transition items in order."""
        for (q, x), rs in items:
            if q not in states or x not in alphabet:
                raise MachineError(f"bad transition key ({q!r}, {x!r})")
            for r in rs:
                if r not in states:
                    raise MachineError(f"transition into undeclared state {r!r}")

    def _successors(self, q: str, x: str) -> tuple[str, ...]:
        return self.transitions.get((q, x), ())


@dataclass(frozen=True)
class Dfa(_Fa):
    """Complete or partial DFA; at most one successor per (state, symbol)."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    initial: str
    accepting: tuple[str, ...]
    transitions: dict[tuple[str, str], str]
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    @staticmethod
    def _check_moves(states: set[str], alphabet: set[str],
                     items: Iterable[tuple[tuple[str, str], str]]) -> None:
        """The per-move rule, over (key, successor) transition items in order."""
        for (q, x), r in items:
            if q not in states or x not in alphabet or r not in states:
                raise MachineError(f"bad transition ({q!r}, {x!r}) -> {r!r}")

    @property
    def is_complete(self) -> bool:
        return all((q, x) in self.transitions for q in self.states for x in self.alphabet)

    def _successors(self, q: str, x: str) -> tuple[str, ...]:
        r = self.transitions.get((q, x))
        return () if r is None else (r,)


_DUMMY = "d"


def reduced_state_universe(n_states: int, i: int) -> int:
    """Size of the tuple-state universe for an i-fold parallel simulation.

    Tuples of arity i over the original states plus a dummy, where the
    dummy, once present, fills every later coordinate: sum of n^t for
    t = 0..i.
    """
    return sum(n_states**t for t in range(i + 1))


def _lane_states(t: Transducer) -> tuple[str, ...]:
    """Each lane state's name by index, the dummy's (``d``, primed until fresh) at -1."""
    return t.states + (_fresh(_DUMMY, set(t.states)),)


def sweep_reduce(t: Transducer, k: int, i: int) -> Transducer:
    """Equivalent machine running ceil(k/i) sweeps by simulating i at a time.

    The states are the lane tuples ``_lane_step`` reaches, explored over
    every symbol's character and named ``(q1,q2,...)`` by ``renderer``; a
    dead lane shows as the dummy state ``d`` and its output as the dummy
    symbol ``d`` (both primed until fresh).  A tuple is accepting when any
    lane holds an accepting original state.  Determinism is preserved, and
    the full tuple-state universe has at most 2 n^i members for n >= 2 (the
    constructed machine materializes only reachable tuples; the universe
    size is recorded in ``meta["universe_states"]``).
    """
    _check_lanes(k, i)
    dummy_sym = _fresh(_DUMMY, set(t.input_alphabet) | set(t.output_alphabet))
    q0, delta, acc = t._indexed
    lanes, name = _lane_states(t), renderer()
    enc, dec, _ = t._code
    inputs = tuple(map(enc.__getitem__, t.input_alphabet))
    out_alpha = tuple(map(enc.__getitem__, t.output_alphabet)) + (_DUMMY_SYMBOL,)
    symbols = tuple(dict.fromkeys(inputs + out_alpha))
    return materialize(
        start=(q0,) * i,
        moves=lambda state: [(x, p, y) for x in symbols
                             for p, y in dict.fromkeys(_lane_step(delta, state, x))],
        input_alphabet=inputs,
        output_alphabet=out_alpha,
        endmarker=enc[t.endmarker],
        accepting=lambda tup: any(map(acc.__getitem__, tup)),
        name_of=lambda tup: name(tuple(map(lanes.__getitem__, tup))),
        symbol_name=lambda y: dummy_sym if y == _DUMMY_SYMBOL else dec[y],
        sweep_bound=-(-k // i),  # ceil(k / i)
        meta={"universe_states": reduced_state_universe(len(t.states), i)},
    )


def to_nfa(t: Transducer, k: int) -> Nfa:
    """NFA equivalent to a machine with declared constant sweep bound k.

    ``LaneNfa(t, k)`` rendered: its states reachable on input symbols,
    in breadth-first order, named as ``sweep_reduce(t, k, k)`` names them,
    each accepting when one endmarker step from it
    can reach a tuple containing an accepting original state.  Applying
    the same rule to the initial state makes the NFA accept the empty
    word exactly when the transducer does.  The state universe stays
    within 2 n^k.
    """
    n = LaneNfa(t, k)
    order, _ = _bfs((n.initial,), _edges(n))
    lanes, name = _lane_states(t), renderer()
    names = {q: name(tuple(map(lanes.__getitem__, n._tuples[q]))) for q in order}
    rows, sigma = n.rows, n.alphabet
    return Nfa(
        states=tuple(names.values()),
        alphabet=sigma,
        initial=names[n.initial],
        accepting=tuple(names[q] for q in order if n.accepting(q)),
        transitions={
            (names[q], x): tuple(map(names.__getitem__, rows[q][c]))
            for q in order for c, x in enumerate(sigma) if rows[q][c]
        },
        meta={"universe_states": reduced_state_universe(len(t.states), k)},
    )


def nfa_to_1niufst(n: Nfa) -> Transducer:
    """Embed an NFA as a one-sweep transducer with one extra state.

    The transducer copies every symbol it reads; a fresh accepting state
    is entered exactly when the endmarker is read after the simulated
    NFA ended in one of its accepting states.
    """
    acc_state = _fresh("qacc", set(n.states))
    end = _fresh("<", set(n.alphabet))
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


def _powerset(n: Nfa, state_cap: int) -> tuple[list[int], list[list[int]], list[bool]]:
    """The powerset kernel: ``n``'s subsets reachable from ``{initial}``.

    A subset is an int bitmask, bit i standing for ``n.states[i]``.  A
    state's successor masks on all symbols are packed into one int, the
    one on symbol j shifted up j times the state count, so one OR chain
    over a subset's members gives its successors on every symbol, and
    each symbol's mask is cut out of the result.  Returns, in
    breadth-first discovery order (symbols in alphabet order, the initial
    subset first), each subset's mask; ``succ[j][i]``, the index of
    subset i's successor on symbol j; and the accepting bits.  The empty
    subset is kept like any other, so the table is complete.
    ``state_cap`` counts discovered subsets, the empty one included;
    discovering more raises ``ResourceBudgetError``, and a cap below 1,
    which not even the initial subset fits, raises ``ValueError``.
    """
    if state_cap < 1:
        raise ValueError(f"state_cap must be at least 1, got {state_cap}")
    v = n._view
    width = len(n.states)
    shifts = range(0, width * len(n.alphabet), width)
    # packed[1 << i]: state i's successor masks on every symbol
    packed = {1 << i: sum({1 << r + s for s, rs in zip(shifts, v.rows[i]) for r in rs})
              for i in range(width)}
    full = (1 << width) - 1
    masks = [1 << v.initial]
    index = {masks[0]: 0}
    succ: list[list[int]] = [[] for _ in shifts]
    cuts = list(zip(shifts, succ))
    for cur in masks:  # grows while it is read: a breadth-first queue
        whole = 0
        while cur:
            low = cur & -cur
            whole |= packed[low]
            cur ^= low
        for shift, col in cuts:
            nxt = whole >> shift & full
            j = index.get(nxt)
            if j is None:
                if len(masks) >= state_cap:
                    raise ResourceBudgetError(f"powerset construction exceeded {state_cap} states")
                j = index[nxt] = len(masks)
                masks.append(nxt)
            col.append(j)
    accepting = sum(1 << i for i in range(width) if v.accepting(i))
    return masks, succ, [bool(m & accepting) for m in masks]


# bin() digits to the bytes 0 and 1, a selector for ``compress``
_BINARY = bytes.maketrans(b"01", b"\x00\x01")


def nfa_to_dfa(n: Nfa, state_cap: int = 2**20) -> Dfa:
    """Powerset construction over reachable subsets: ``_powerset``
    rendered, each subset named ``{q1,q2,...}`` with its members in the
    NFA's state order, in discovery order: ``renderer(",", ("{", "}"))``
    of its member tuple, so a member's ``\\``, ``,``, ``{`` and ``}`` are
    escaped.  A name is read off the subset's mask, low bit first.  The
    result is complete: the empty subset ``{}`` is an explicit dead state
    whenever some (subset, symbol) has no successor.  ``state_cap`` is
    ``_powerset``'s.
    """
    masks, succ, final = _powerset(n, state_cap)
    escape = _escapes(",{}")
    members = [q.translate(escape) for q in n.states]  # each name escaped once
    names = ["{" + ",".join(compress(members, bin(m)[:1:-1].encode().translate(_BINARY))) + "}"
             for m in masks]
    alphabet = tuple(n.alphabet)
    return Dfa(
        states=tuple(names),
        alphabet=alphabet,
        initial=names[0],
        accepting=tuple(compress(names, final)),
        # keys subset by subset, symbols in alphabet order
        transitions=dict(zip(product(names, alphabet),
                             map(names.__getitem__, chain.from_iterable(zip(*succ))))),
    )


def _moore(
    succ: list[list[int]], final: list[bool], initial: int, alphabet: tuple[str, ...]
) -> Dfa:
    """The Moore kernel: the minimal complete DFA of an int table.

    ``succ[j][i]`` is state i's successor on ``alphabet[j]`` and
    ``final[i]`` its acceptance; the table must be complete.  Partition
    refinement runs over every state, until a round leaves the number of
    blocks unchanged.  A round hashes each state's signature (its block,
    then its successors' blocks) once, and a block's id is the index of
    its first member, so a round that keeps the partition keeps every id.
    The blocks reachable from ``initial``'s are then numbered canonically
    (breadth-first in alphabet order, named ``m0``, ``m1``, ...), so two
    minimal DFAs for the same language are equal.  ``meta`` reports both
    the complete state count and the partial count (without a dead
    state, when one exists).
    """
    states = range(len(final))
    ids: dict = {}
    block = list(map(ids.setdefault, final, states))
    while True:
        blocks, ids = len(ids), {}
        sigs = zip(block, *[map(block.__getitem__, col) for col in succ])
        block = list(map(ids.setdefault, sigs, states))
        if len(ids) == blocks:
            break
    # The last round kept every id, so its signatures read the final
    # blocks: sig[b] is block b, then its successors in alphabet order.
    sig = dict(zip(ids.values(), ids))
    name = {block[initial]: "m0"}
    order = list(name)
    for b in order:  # grows while it is read: a breadth-first queue
        for r in sig[b]:
            if r not in name:
                name[r] = f"m{len(order)}"
                order.append(r)
    names = tuple(name.values())
    rows = list(map(sig.__getitem__, order))
    out = Dfa(
        states=names,
        alphabet=alphabet,
        initial="m0",
        accepting=tuple(compress(names, map(final.__getitem__, order))),
        # keys block by block, symbols in alphabet order
        transitions=dict(zip(product(names, alphabet),
                             map(name.__getitem__, chain.from_iterable(row[1:] for row in rows)))),
    )
    # the states that reach no accepting state form one block, which
    # rejects and keeps itself on every move; the partial count leaves it out
    dead = any(not final[b] and row.count(b) == len(row) for b, row in zip(order, rows))
    out.meta["complete_states"] = len(names)
    out.meta["partial_states"] = len(names) - dead
    return out


def min_dfa(n: Nfa, state_cap: int = 2**20) -> Dfa:
    """``dfa_minimize(nfa_to_dfa(n, state_cap))``, from the powerset
    table straight to the Moore kernel: no subset is named, and the
    subset masks are dropped before refinement starts."""
    succ, final = _powerset(n, state_cap)[1:]
    return _moore(succ, final, 0, tuple(n.alphabet))


def dfa_minimize(d: Dfa) -> Dfa:
    """Unique minimal complete DFA, named canonically: ``_moore`` over
    ``d``'s states in declaration order plus one sink row after them for
    every missing move (unreachable when ``d`` is complete)."""
    index = dict(zip(d.states, count()))
    sink = len(index)
    moves = d.transitions.get
    succ = [[*map(index.get, map(moves, zip(d.states, repeat(x))), repeat(sink)), sink]
            for x in d.alphabet]
    final = [*map(d.accepting_set.__contains__, d.states), False]
    return _moore(succ, final, index[d.initial], d.alphabet)
