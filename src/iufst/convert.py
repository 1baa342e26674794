"""Conversions between iterated transducers and classical acceptors.

The central construction simulates several sweeps of a machine in
parallel inside one sweep, using tuple states with a dummy lane for
branches that died; this module is their one home.  ``_lane_step``
gives the moves of a tuple of lanes over the machine's state indices;
lanes read and write tape characters through the machine's one move
table, and the dummy symbol is an int, which no character equals.
``sweep_reduce`` materializes the tuples it reaches as a transducer.
``LaneNfa`` expands the NFA of k sweeps reduced into one on demand, over
input symbols, read through ``alphabet``, ``initial``, ``step(q)`` and
``accepting(q)``; its ``report`` is the one rule for what a set of its
tuples reached on a word answers, and ``to_nfa`` renders it with named
states.  ``core``'s lane route keeps one per lane count: its ``walk``
steps the set of tuples over a word by ``_set_step``, the one set step,
and its ``trace`` walks back over the sets reached to what lanes wrote.
``Nfa`` and ``Dfa`` share their header rules in ``_Fa`` and each
keep their per-move rule and successor rule ``_successors`` (a 0- or
1-tuple in a ``Dfa``), on which ``_Fa`` builds one ``accepts`` and one
cached ``_view``: the same four names, states numbered in declaration
order.  DFAs live in int tables (successor indices per symbol, accepting
bits) between two kernels: ``_powerset`` determinizes an NFA over
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
from functools import cache, cached_property
from itertools import chain, compress, count, product, repeat
from types import SimpleNamespace
from typing import Iterable, Optional, Sequence

from .core import (
    MachineError,
    MalformedInputError,
    ResourceBudgetError,
    RunReport,
    Transducer,
    _LIVE_MEMO_CAP,
    _Record,
    _bfs,
    _check_declared,
    _check_list,
    _encode,
    _escapes,
    _fresh,
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
        """The automaton through the four names of ``LaneNfa``, its states
        numbered in declaration order."""
        index = {q: i for i, q in enumerate(self.states)}
        step = [tuple(tuple(map(index.__getitem__, self._successors(q, x))) for x in self.alphabet)
                for q in self.states]
        accepting = [q in self.accepting_set for q in self.states]
        return SimpleNamespace(alphabet=self.alphabet, initial=index[self.initial],
                               step=step.__getitem__, accepting=accepting.__getitem__)


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

# The dummy lane state and the dummy symbol of ``_lane_step``.  The state is
# index -1, which reads the entries ``_lanes`` appends to the machine's
# per-state lists: no moves and not accepting.  The symbol is an int, which
# no tape character equals, so no transition of the machine reads it.
_DUMMY_STATE = -1
_DUMMY_SYMBOL = -1
_DEAD = ((_DUMMY_STATE, _DUMMY_SYMBOL),)


def reduced_state_universe(n_states: int, i: int) -> int:
    """Size of the tuple-state universe for an i-fold parallel simulation.

    Tuples of arity i over the original states plus a dummy, where the
    dummy, once present, fills every later coordinate: sum of n^t for
    t = 0..i.
    """
    return sum(n_states**t for t in range(i + 1))


def _check_lanes(k: int, i: int) -> None:
    if not isinstance(k, int) or k < 1:
        raise MachineError(f"declared sweep bound must be a positive integer, got {k!r}")
    if not 1 <= i <= k:
        raise MachineError(f"lane count i={i} must satisfy 1 <= i <= k={k}")


def _lanes(t: Transducer) -> tuple[int, list[dict], list[bool]]:
    """``t._indexed`` with the dummy lane state appended at index -1."""
    q0, delta, acc = t._indexed
    return q0, delta + [{}], acc + [False]


def _lane_step(delta: list[dict], state: tuple[int, ...], x) -> dict:
    """The moves of lane tuple ``state`` reading tape character ``x``: the
    distinct (next tuple, character the last lane writes) pairs, as the
    keys of a dict, in choice order.

    Lane t of a tuple carries one sweep of a block of parallel sweeps and
    reads the character lane t-1 writes (lane 1 reads ``x``).  A lane
    without a move collapses to the dummy state and writes the dummy
    symbol, an int that no row is keyed by, so every later lane collapses
    as well.  ``delta`` comes from ``_lanes``.
    """
    moves = [((), x)]
    for s in state:
        row = delta[s]
        nxt = []
        for lanes, y in moves:
            for r, z in row.get(y, _DEAD):
                nxt.append((lanes + (r,), z))
        moves = nxt
    return dict.fromkeys(moves)


def _lane_chains(delta: list[dict], state: tuple[int, ...], x) -> list[tuple[tuple[int, ...], tuple]]:
    """The branches behind ``_lane_step``, none merged, each with every
    lane's written character: (next tuple, characters lanes 1, 2, ...
    write), in choice order, so a trace can say what each sweep wrote."""
    moves = [((), (x,))]
    for s in state:
        row = delta[s]
        moves = [(lanes + (r,), out + (z,)) for lanes, out in moves for r, z in row.get(out[-1], _DEAD)]
    return [(lanes, out[1:]) for lanes, out in moves]


def _lane_states(t: Transducer) -> tuple[str, ...]:
    """Each lane state's name by index, the dummy's (``d``, primed until fresh) at -1."""
    return t.states + (_fresh(_DUMMY, set(t.states)),)


def _lane_meta(t: Transducer, k: int, i: int) -> dict:
    return {
        "universe_states": reduced_state_universe(len(t.states), i),
        "lanes": i,
        "source_states": len(t.states),
        "source_bound": k,
    }


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
    q0, delta, acc = _lanes(t)
    lanes, name = _lane_states(t), renderer()
    enc, dec, _ = t._code
    inputs = tuple(map(enc.__getitem__, t.input_alphabet))
    out_alpha = tuple(map(enc.__getitem__, t.output_alphabet)) + (_DUMMY_SYMBOL,)
    symbols = tuple(dict.fromkeys(inputs + out_alpha))
    return materialize(
        start=(q0,) * i,
        moves=lambda state: [(x, p, y) for x in symbols for p, y in _lane_step(delta, state, x)],
        input_alphabet=inputs,
        output_alphabet=out_alpha,
        endmarker=enc[t.endmarker],
        accepting=lambda tup: any(map(acc.__getitem__, tup)),
        name_of=lambda tup: name(tuple(map(lanes.__getitem__, tup))),
        symbol_name=lambda y: dummy_sym if y == _DUMMY_SYMBOL else dec[y],
        sweep_bound=-(-k // i),  # ceil(k / i)
        meta=_lane_meta(t, k, i),
    )


class LaneNfa:
    """The NFA of k sweeps run as k lanes of one sweep, over input
    symbols, expanded on demand.

    States are ints numbering the lane tuples in discovery order, the
    initial tuple being 0.  The first ``step``, ``accepting`` or ``report``
    call on a tuple expands it and keeps the result: ``_lane_step`` on each
    input symbol's character gives its successors, and one on the
    endmarker's the least lane that can reach an accepting state there
    (None when no lane can), so a tuple is ``accepting`` when it has one.
    ``completes`` is computed on its first request only; ``walk`` and
    ``trace`` keep memos of their own.
    """

    def __init__(self, t: Transducer, k: int) -> None:
        _check_lanes(k, k)
        q0, self._delta, self._acc = _lanes(t)
        self._end, *self._codes = _encode(t, (t.endmarker, *t.input_alphabet))
        self._tuples = [(q0,) * k]
        self._ids = {self._tuples[0]: 0}
        self._rows: dict[int, tuple[tuple[tuple[int, ...], ...], bool, Optional[int]]] = {}
        self._completes: dict[int, bool] = {}
        self._sets: dict[frozenset[int], dict] = {}  # ``walk``'s memo
        self._back: dict[tuple, tuple[int, tuple]] = {}  # ``trace``'s memo
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

    def report(self, s: frozenset[int]) -> RunReport:
        """What the set ``s`` of tuples reached on a word answers, as ``run``
        reports k sweeps: accepted at the least lane, counted from 1, that
        ends the endmarker step from a tuple in an accepting state; else
        rejected, ``exhausted`` exactly when no tuple ``completes`` its last
        lane, so no tape k + 1 exists.  No tape is kept: ``tapes_explored``
        is 0 and ``cap_hit`` False."""
        rows = self._rows
        lanes = [(rows.get(q) or self._expand(q))[2] for q in s]
        least = min(filter(None, lanes), default=None)  # lanes count from 1: drops only None
        return _lane_report(least, least is None and not any(map(self.completes, s)))

    def completes(self, q: int) -> bool:
        """Some branch of ``q`` steps on the endmarker in every lane."""
        done = self._completes.get(q)
        if done is None:
            ends = _lane_step(self._delta, self._tuples[q], self._end)
            done = self._completes[q] = any(p[-1] != _DUMMY_STATE for p, _y in ends)
        return done

    def _expand(self, q: int) -> tuple[tuple[tuple[int, ...], ...], bool, Optional[int]]:
        state, delta, ids, tuples = self._tuples[q], self._delta, self._ids, self._tuples
        row = []
        for x in self._codes:
            succ = []
            for p in dict.fromkeys(p for p, _y in _lane_step(delta, state, x)):
                i = ids.setdefault(p, len(tuples))
                if i == len(tuples):
                    tuples.append(p)
                succ.append(i)
            row.append(tuple(succ))
        acc, ends = self._acc, _lane_step(delta, state, self._end)
        least = min((i for p, _y in ends for i, s in enumerate(p, 1) if acc[s]), default=None)
        self._rows[q] = entry = (tuple(row), least is not None, least)
        return entry

    def walk(self, word: Sequence[str], sets: Optional[list[frozenset]] = None) -> Optional[RunReport]:
        """``report`` of the set of tuples reached on ``word``, over
        ``alphabet``, by Thompson's simulation made lazy: the set steps
        through ``_set_step`` and the memo ``_sets``, a row per set from
        input symbol to (next set, its row), up to ``_LIVE_MEMO_CAP`` sets; a
        row's ``None`` entry caches its set's report.  With ``sets``, the set
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
        per (set, symbol, chosen tuple) in ``_back``, up to
        ``_LIVE_MEMO_CAP`` entries."""
        tuples, delta, acc, back = self._tuples, self._delta, self._acc, self._back
        by_value = tuples.__getitem__
        path = [frozenset((self.initial,)), *sets]
        q, out = next((q, out) for q in sorted(path[-1], key=by_value)
                      for p, out in _lane_chains(delta, tuples[q], self._end) if acc[p[j - 1]])
        cols = [out]
        for before, x in zip(path[-2::-1], reversed(word)):
            hit = back.get((before, x, q))
            if hit is None:
                c = self.alphabet.index(x)
                p = min((p for p in before if q in self.step(p)[c]), key=by_value)
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


def _set_step(n, s: frozenset, c: int) -> frozenset:
    """The states of the automaton ``n`` (read through ``LaneNfa``'s
    ``step``) reached from the set ``s`` on ``n.alphabet[c]``: the one set
    step."""
    return frozenset([r for q in s for r in n.step(q)[c]])


@cache
def _lane_report(least: Optional[int], exhausted: bool) -> RunReport:
    """``LaneNfa.report``'s value for an outcome, built once: a report is
    immutable, and building one costs more than finding the outcome."""
    return RunReport(least is not None, least, 0, False, exhausted)


def _edges(n: LaneNfa | SimpleNamespace):
    """Successor function of ``n`` for ``_bfs``: a state's (successor,
    symbol) edges in alphabet order, then choice order."""
    sigma, step = n.alphabet, n.step
    return lambda q: [(r, x) for x, rs in zip(sigma, step(q)) for r in rs]


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
    return Nfa(
        states=tuple(names.values()),
        alphabet=n.alphabet,
        initial=names[n.initial],
        accepting=tuple(names[q] for q in order if n.accepting(q)),
        transitions={
            (names[q], x): tuple(map(names.__getitem__, rs))
            for q in order for x, rs in zip(n.alphabet, n.step(q)) if rs
        },
        meta=_lane_meta(t, k, k),
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
    packed = {1 << i: sum({1 << r + s for s, rs in zip(shifts, v.step(i)) for r in rs})
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
