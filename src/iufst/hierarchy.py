"""Constructible length functions: constructor machines, closure of the
class under addition and multiplication, and the prefix-copy language
built on top of a constructor.

A constructor for f is a deterministic iterated transducer whose
language is contained in {a^m v : |v| = f(m)} and hits every m >= 1,
within O(f^{-1}(n)) sweeps.  Combinators run the component constructors
in parallel on separate tracks of one tape.  A component that has
accepted keeps re-accepting on its settled track (all constructors here
do, and the combinators preserve the property), so a product accepts
exactly when every component accepts, at the maximum of the component
sweep counts plus the one splitting sweep.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .core import MachineError, Transducer, _fresh, materialize, renderer, run
from .witness import gen_copy


@dataclass(frozen=True)
class Constructor:
    """A constructor machine with its intended function attached.

    ``fn`` exists for test oracles only: the machine is the artifact,
    the function records what it is supposed to measure out.
    """

    machine: Transducer
    payload_alphabet: tuple[str, ...]
    fn: Callable[[int], int] = field(compare=False)
    name: str = ""

    def __post_init__(self) -> None:
        _check_payload(self.payload_alphabet)
        for sym in self.payload_alphabet:
            if sym not in self.machine.input_set:
                raise MachineError(f"payload symbol {sym!r} unknown to the machine")


def identity_constructor(payload_alphabet: Sequence[str] = ("x",)) -> Constructor:
    """Constructor for f(m) = m: accepts a^m v with |v| = m.

    Each sweep marks the leftmost unmarked a and the leftmost unmarked
    payload symbol; when the a's run out the payload must run out too,
    giving m + 1 sweeps on accepted words.
    """
    payload = tuple(payload_alphabet)
    marked = _marked(payload)
    trans: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {}
    trans[("q0", "a'")] = (("q0", "a'"),)
    trans[("q0", "a")] = (("Ma", "a'"),)
    trans[("Ma", "a")] = (("Ma", "a"),)
    for t in payload:
        trans[("Ma", marked[t])] = (("Sv", marked[t]),)
        trans[("Ma", t)] = (("Done", marked[t]),)
        trans[("Sv", marked[t])] = (("Sv", marked[t]),)
        trans[("Sv", t)] = (("Done", marked[t]),)
        trans[("Done", t)] = (("Done", t),)
        trans[("q0", marked[t])] = (("Z", marked[t]),)
        trans[("Z", marked[t])] = (("Z", marked[t]),)
    trans[("Done", "<")] = (("q0", "<"),)
    trans[("Z", "<")] = (("ACC", "<"),)
    states = ("q0", "Ma", "Sv", "Done", "Z", "ACC")
    return _constructor("id", lambda m: m, states, payload, marked, trans, "linear")


def expo_constructor(payload_alphabet: Sequence[str] = ("x",)) -> Constructor:
    """Constructor for f(m) = 2^m: accepts a^m v with |v| = 2^m.

    Each sweep marks one a and every second unmarked payload symbol,
    halving the unmarked payload; the sweep marking the last a must find
    exactly two unmarked payload symbols, and one verification sweep
    confirms the single survivor, for m + 1 sweeps in total.
    """
    payload = tuple(payload_alphabet)
    marked = _marked(payload)
    trans: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {}
    # qz: at least one marked a seen, so the verification sweep is legal
    trans[("q0", "a'")] = (("qz", "a'"),)
    trans[("q0", "a")] = (("W", "a'"),)
    trans[("qz", "a'")] = (("qz", "a'"),)
    trans[("qz", "a")] = (("W", "a'"),)
    trans[("W", "a")] = (("An", "a"),)
    trans[("An", "a")] = (("An", "a"),)
    for t in payload:
        # nonfinal sweeps: unmarked payload count must end up even
        trans[("An", t)] = (("Hn1", t),)
        trans[("An", marked[t])] = (("Hn0", marked[t]),)
        trans[("Hn0", t)] = (("Hn1", t),)
        trans[("Hn1", t)] = (("Hn0", marked[t]),)
        trans[("Hn0", marked[t])] = (("Hn0", marked[t]),)
        trans[("Hn1", marked[t])] = (("Hn1", marked[t]),)
        # the sweep marking the last a: exactly two unmarked, mark one
        trans[("W", t)] = (("Hf1", t),)
        trans[("W", marked[t])] = (("Hf0", marked[t]),)
        trans[("Hf0", t)] = (("Hf1", t),)
        trans[("Hf1", t)] = (("Hf2", marked[t]),)
        trans[("Hf0", marked[t])] = (("Hf0", marked[t]),)
        trans[("Hf1", marked[t])] = (("Hf1", marked[t]),)
        trans[("Hf2", marked[t])] = (("Hf2", marked[t]),)
        # verification sweep: exactly one unmarked payload symbol left
        trans[("qz", t)] = (("Z1", t),)
        trans[("qz", marked[t])] = (("Z0", marked[t]),)
        trans[("Z0", t)] = (("Z1", t),)
        trans[("Z0", marked[t])] = (("Z0", marked[t]),)
        trans[("Z1", marked[t])] = (("Z1", marked[t]),)
    trans[("Hn0", "<")] = (("q0", "<"),)
    trans[("Hf2", "<")] = (("q0", "<"),)
    trans[("Z1", "<")] = (("ACC", "<"),)
    states = ("q0", "qz", "W", "An", "Hn0", "Hn1", "Hf0", "Hf1", "Hf2", "Z0", "Z1", "ACC")
    return _constructor("expo", lambda m: 2**m, states, payload, marked, trans, "log")


def _marked(payload: tuple[str, ...]) -> dict[str, str]:
    """Each payload symbol's marked copy, primed until fresh against the others."""
    taken = set(payload) | {"a", "a'", "<"}
    return {t: _fresh(t + "'", taken) for t in payload}


def _constructor(name, fn, states, payload, marked, trans, sweep_bound) -> Constructor:
    """A constructor machine over a, the payload and their marked copies,
    from q0, accepting in ACC, with m + 1 sweeps on accepted words."""
    machine = Transducer(
        states=states,
        input_alphabet=("a",) + payload,
        output_alphabet=("a", "a'") + payload + tuple(marked[t] for t in payload) + ("<",),
        endmarker="<",
        initial="q0",
        accepting=("ACC",),
        transitions=trans,
        sweep_bound=sweep_bound,
    )
    return Constructor(machine, payload, fn=fn, name=name)


def _check_payload(payload: tuple[str, ...]) -> None:
    if not payload:
        raise MachineError("payload alphabet must be non-empty")
    # "a" and "-" fill track slots of the constructions below, and "b" and
    # "$" spell build_lf's copy prefix
    bad = {"a", "b", "$", "-"} & set(payload)
    if bad:
        raise MachineError(f"payload alphabet must avoid {sorted(bad)!r}")


# ---------------------------------------------------------------------------
# two-track tape symbols are (sep, left, right) tuples over the component
# machines' symbols, with "-" blanking a track; sep is "|" on ordinary
# cells and "!" on the cells where a factor of the multiplicative
# construction ends (its stored virtual endmarker sits on the left track).
# ``renderer`` names each declared tuple once, as [left|right] or [left!right],
# and each state as its parts joined by ";", escaping these characters.


def _track(t: Transducer) -> tuple[str, ...]:
    return tuple(dict.fromkeys(t.output_alphabet + ("-", "a")))


def _pair_universe(tf: Transducer, tg: Transducer, muls: bool) -> tuple[tuple[str, str, str], ...]:
    seps = ("|", "!") if muls else ("|",)
    return tuple((sep, l, r) for sep in seps for l in _track(tf) for r in _track(tg))


def _moves_of(t: Transducer) -> dict[str, list[tuple[str, str, str]]]:
    """Per state, the (read, next state, written) moves of a machine, first
    choice only: constructors are deterministic."""
    index: dict[str, list[tuple[str, str, str]]] = {q: [] for q in t.states}
    for (q, x), ((p, y), *_) in t.transitions.items():
        index[q].append((x, p, y))
    return index


def _check_disjoint(cf: Constructor, cg: Constructor) -> None:
    overlap = set(cf.payload_alphabet) & set(cg.payload_alphabet)
    if overlap:
        raise MachineError(f"payload alphabets overlap: {sorted(overlap)!r}")
    for c in (cf, cg):
        if not c.machine.is_deterministic:
            raise MachineError("constructors must be deterministic")


def _combine_bound(tf: Transducer, tg: Transducer) -> str:
    tags = {tf.sweep_bound, tg.sweep_bound}
    if "unbounded" in tags:
        return "unbounded"
    if "linear" in tags or any(isinstance(b, int) for b in tags):
        return "linear"
    return "log"


def _materialize_tracks(moves, input_alphabet, out, accepting, sweep_bound) -> Transducer:
    track = renderer("|", ("[", "]"), "!")
    return materialize(
        start=("q0",),
        moves=moves,
        input_alphabet=input_alphabet,
        output_alphabet=out + ("<",),
        endmarker="<",
        accepting=accepting,
        name_of=renderer(";", ("", "")),
        symbol_name=lambda s: track(s[1:], s[0]) if isinstance(s, tuple) else s,
        sweep_bound=sweep_bound,
    )


def combine_add(cf: Constructor, cg: Constructor) -> Constructor:
    """Constructor for f + g via a two-track product.

    The first sweep splits a^m v_f v_g into an f-track (prefix plus
    f-payload) and a g-track (prefix plus g-payload), requiring all
    f-payload symbols to precede the g-payload.  Later sweeps run both
    component machines in lockstep, each on its own track, skipping the
    other's cells; the product accepts at the end of any sweep where
    both components finish in accepting states.
    """
    _check_disjoint(cf, cg)
    tf, tg = cf.machine, cg.machine
    acc_f, acc_g = tf.accepting_set, tg.accepting_set
    moves_f, moves_g = _moves_of(tf), _moves_of(tg)

    def sim(qf, qg):
        for r, pg, yg in moves_g[qg]:
            yield ("|", "-", r), ("sim", qf, pg), ("|", "-", yg)
        for l, pf, yf in moves_f[qf]:
            yield ("|", l, "-"), ("sim", pf, qg), ("|", yf, "-")
            for r, pg, yg in moves_g[qg]:
                yield ("|", l, r), ("sim", pf, pg), ("|", yf, yg)

    def moves(state):
        mode = state[0]
        if mode == "q0":
            yield "a", ("sp", "a"), ("|", "a", "a")
            yield from sim(tf.initial, tg.initial)
        elif mode == "sp":
            region = state[1]
            if region == "a":
                yield "a", ("sp", "a"), ("|", "a", "a")
            if region in ("a", "f"):
                for x in cf.payload_alphabet:
                    yield x, ("sp", "f"), ("|", x, "-")
            for x in cg.payload_alphabet:
                yield x, ("sp", "g"), ("|", "-", x)
            yield "<", ("fin",), ("|", tf.endmarker, tg.endmarker)
        elif mode == "sim":
            yield from sim(state[1], state[2])

    machine = _materialize_tracks(
        moves,
        ("a",) + cf.payload_alphabet + cg.payload_alphabet,
        _pair_universe(tf, tg, muls=False),
        accepting=lambda s: s[0] == "sim" and s[1] in acc_f and s[2] in acc_g,
        sweep_bound=_combine_bound(tf, tg),
    )
    return _combined(cf, cg, machine, "+")


def combine_mul(cf: Constructor, cg: Constructor) -> Constructor:
    """Constructor for f * g via per-factor restarts on a two-track tape.

    Accepted words look like a^m x_1 v_1 .. x_G v_G: the g component
    checks a^m x_1 .. x_G (so G = g(m)) while the f component is
    simulated independently on every payload factor v_i, each simulation
    started in the state f reaches right after the shared prefix a^m.
    Every x-cell stores the virtual endmarker of the factor ending
    there, so a factor's sweep completes where the next factor begins;
    the product accepts when a sweep ends with the g component accepting
    and every factor simulation accepting.
    """
    _check_disjoint(cf, cg)
    tf, tg = cf.machine, cg.machine
    acc_f, acc_g = tf.accepting_set, tg.accepting_set
    moves_f, moves_g = _moves_of(tf), _moves_of(tg)
    lefts = _track(tf)

    def pre(qf, qg):
        for r, pg, yg in moves_g[qg]:
            # first x-cell: the shared prefix ends; its left slot backs
            # no factor and passes through unchanged
            for l in lefts:
                yield ("!", l, r), ("fact", qf, qf, pg, True), ("!", l, yg)
        for l, pf, yf in moves_f[qf]:
            for r, pg, yg in moves_g[qg]:
                yield ("|", l, r), ("pre", pf, pg), ("|", yf, yg)

    def moves(state):
        mode = state[0]
        if mode == "q0":
            yield "a", ("sp", "a"), ("|", "a", "a")
            yield from pre(tf.initial, tg.initial)
        elif mode == "sp":
            region = state[1]
            if region == "a":
                yield "a", ("sp", "a"), ("|", "a", "a")
            if region in ("a", "f"):
                for x in cg.payload_alphabet:
                    yield x, ("sp", "g"), ("!", tf.endmarker, x)
            if region in ("g", "f"):
                for x in cf.payload_alphabet:
                    yield x, ("sp", "f"), ("|", x, "-")
            if region == "f":
                yield "<", ("fin",), ("!", tf.endmarker, tg.endmarker)
        elif mode == "pre":
            yield from pre(state[1], state[2])
        elif mode == "fact":
            _, qpref, qf, qg, okf = state
            for l, pf, yf in moves_f[qf]:
                # a factor cell: the f component alone advances
                yield ("|", l, "-"), ("fact", qpref, pf, qg, okf), ("|", yf, "-")
                # '!': the running factor takes its endmarker step here and
                # the next one restarts from the shared prefix state
                ok = okf and pf in acc_f
                for r, pg, yg in moves_g[qg]:
                    yield ("!", l, r), ("fact", qpref, qpref, pg, ok), ("!", yf, yg)

    machine = _materialize_tracks(
        moves,
        ("a",) + cf.payload_alphabet + cg.payload_alphabet,
        _pair_universe(tf, tg, muls=True),
        accepting=lambda s: s[0] == "fact" and s[4] and s[3] in acc_g,
        sweep_bound=_combine_bound(tf, tg),
    )
    return _combined(cf, cg, machine, "*")


def _combined(cf: Constructor, cg: Constructor, machine: Transducer, op: str) -> Constructor:
    """The constructor of ``cf`` ``op`` ``cg`` (``+`` or ``*``) that ``machine`` is."""
    fn_f, fn_g, apply = cf.fn, cg.fn, {"+": operator.add, "*": operator.mul}[op]
    return Constructor(
        machine,
        cf.payload_alphabet + cg.payload_alphabet,
        fn=lambda m: apply(fn_f(m), fn_g(m)),
        name=f"({cf.name}{op}{cg.name})",
    )


def build_lf(cf: Constructor) -> Transducer:
    """Acceptor of u$u v where the constructor accepts a^(2|u|+1) v.

    Two tracks: the first runs the copy-language acceptor over the
    prefix, treating the first payload symbol's cell as its endmarker
    slot; the second runs the constructor with every prefix symbol read
    as an a.  The machine accepts once a sweep ends with the copy check
    settled positive and the constructor accepting.
    """
    payload = tuple(cf.payload_alphabet)
    tf = cf.machine
    tc = gen_copy()
    acc_f, acc_c = tf.accepting_set, tc.accepting_set
    moves_c, moves_f = _moves_of(tc), _moves_of(tf)

    def sim(qc, qf):
        for l, pc, yc in moves_c[qc]:
            for r, pf, yf in moves_f[qf]:
                yield ("|", l, r), ("sim", pc, pf), ("|", yc, yf)
                # '!': the copy component reads its endmarker slot and settles
                yield ("!", l, r), ("simv", pc in acc_c, pf), ("!", yc, yf)

    def moves(state):
        mode = state[0]
        if mode in ("q0", "sp"):
            for x in ("a", "b", "$"):
                yield x, ("sp",), ("|", x, "a")
        if mode == "q0":
            yield from sim(tc.initial, tf.initial)
        elif mode == "sp":
            for x in payload:
                yield x, ("spv",), ("!", tc.endmarker, x)
        elif mode == "spv":
            for x in payload:
                yield x, ("spv",), ("|", "-", x)
            yield "<", ("fin",), ("|", "-", tf.endmarker)
        elif mode == "sim":
            yield from sim(state[1], state[2])
        elif mode == "simv":
            _, okc, qf = state
            for r, pf, yf in moves_f[qf]:
                yield ("|", "-", r), ("simv", okc, pf), ("|", "-", yf)

    return _materialize_tracks(
        moves,
        ("a", "b", "$") + payload,
        _pair_universe(tc, tf, muls=True),
        accepting=lambda s: s[0] == "simv" and s[1] and s[2] in acc_f,
        sweep_bound=tf.sweep_bound if isinstance(tf.sweep_bound, str) else "linear",
    )


def in_lf(
    fn: Callable[[int], int], payload_alphabet: Sequence[str], w: Sequence[str]
) -> bool:
    """Reference predicate for the language built by ``build_lf``.

    It checks the payload length only, so it is exact only for a
    constructor that accepts every payload word of length f(m), as the
    identity and expo constructors do.  A combined constructor also fixes
    which payload symbols go where (``combine_add`` wants f(m) f-payload
    symbols, then g(m) g-payload symbols), which this predicate ignores.
    """
    payload = set(payload_alphabet)
    text = list(w)
    first = next((i for i, c in enumerate(text) if c in payload), len(text))
    prefix, v = text[:first], text[first:]
    if any(c not in payload for c in v) or not v:
        return False
    if any(c not in ("a", "b", "$") for c in prefix):
        return False
    if prefix.count("$") != 1:
        return False
    i = prefix.index("$")
    u, u2 = prefix[:i], prefix[i + 1 :]
    if u != u2:
        return False
    return len(v) == fn(2 * len(u) + 1)


def measure_sweep_growth(
    machine: Transducer,
    word_family: Callable[[int], Sequence[str]],
    params: Iterable[int],
    sweep_cap: Optional[int] = None,
    tape_cap: int = 500_000,
) -> list[tuple[int, int, Optional[int]]]:
    """Accepting sweep counts over a parameterized word family.

    Rows are (parameter, word length, sweeps); a None sweep count
    reports a hole, a family member the machine failed to accept within
    the caps.
    """
    rows: list[tuple[int, int, Optional[int]]] = []
    for p in params:
        word = tuple(word_family(p))
        cap = sweep_cap if sweep_cap is not None else len(word) + 16
        rows.append((p, len(word), run(machine, word, cap, tape_cap).min_accept_sweeps))
    return rows
