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

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .core import (
    MachineError,
    Transducer,
    build_transducer,
    find_accepting_trace,
)

Word = tuple[str, ...]


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
    marked = {t: t + "'" for t in payload}
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
    machine = Transducer(
        states=("q0", "Ma", "Sv", "Done", "Z", "ACC"),
        input_alphabet=("a",) + payload,
        output_alphabet=("a", "a'")
        + payload
        + tuple(marked[t] for t in payload)
        + ("<",),
        endmarker="<",
        initial="q0",
        accepting=("ACC",),
        transitions=trans,
        sweep_bound="linear",
        meta={"family": "id-ctor", "sweeps": "m + 1"},
    )
    return Constructor(machine, payload, fn=lambda m: m, name="id")


def expo_constructor(payload_alphabet: Sequence[str] = ("x",)) -> Constructor:
    """Constructor for f(m) = 2^m: accepts a^m v with |v| = 2^m.

    Each sweep marks one a and every second unmarked payload symbol,
    halving the unmarked payload; the sweep marking the last a must find
    exactly two unmarked payload symbols, and one verification sweep
    confirms the single survivor, for m + 1 sweeps in total.
    """
    payload = tuple(payload_alphabet)
    marked = {t: t + "'" for t in payload}
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
    machine = Transducer(
        states=(
            "q0", "qz", "W", "An", "Hn0", "Hn1", "Hf0", "Hf1", "Hf2",
            "Z0", "Z1", "ACC",
        ),
        input_alphabet=("a",) + payload,
        output_alphabet=("a", "a'")
        + payload
        + tuple(marked[t] for t in payload)
        + ("<",),
        endmarker="<",
        initial="q0",
        accepting=("ACC",),
        transitions=trans,
        sweep_bound="log",
        meta={"family": "expo-ctor", "sweeps": "m + 1"},
    )
    return Constructor(machine, payload, fn=lambda m: 2**m, name="expo")


def _check_payload(payload: tuple[str, ...]) -> None:
    if not payload:
        raise MachineError("payload alphabet must be non-empty")
    bad = {"a", "b", "$"} & set(payload)
    if bad:
        raise MachineError(f"payload alphabet must avoid {sorted(bad)!r}")
    # the two-track encoding below joins tracks with these characters, so
    # _unpair would split inside a payload symbol holding one
    for sym in payload:
        if any(c in sym for c in "[]|!"):
            raise MachineError(f"payload symbol {sym!r} uses a track-encoding character")


# ---------------------------------------------------------------------------
# two-track pair encoding; '|' joins ordinary track pairs, '!' marks the
# cells where a factor of the multiplicative construction ends (its
# stored virtual endmarker sits on the left track)


def _pair(left: str, right: str, sep: str = "|") -> str:
    return f"[{left}{sep}{right}]"


def _unpair(tok: str) -> Optional[tuple[str, str, str]]:
    if not (tok.startswith("[") and tok.endswith("]")):
        return None
    body = tok[1:-1]
    depth = 0
    for i, ch in enumerate(body):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch in "|!" and depth == 0:
            return body[:i], body[i + 1 :], ch
    return None


def _step(t: Transducer, q: str, x: str) -> Optional[tuple[str, str]]:
    choices = t.transitions.get((q, x))
    if not choices:
        return None
    return choices[0]


def _check_disjoint(cf: Constructor, cg: Constructor) -> None:
    overlap = set(cf.payload_alphabet) & set(cg.payload_alphabet)
    if overlap:
        raise MachineError(f"payload alphabets overlap: {sorted(overlap)!r}")
    for c in (cf, cg):
        if not c.machine.is_deterministic:
            raise MachineError("constructors must be deterministic")


def _pair_universe(tf: Transducer, tg: Transducer, muls: bool) -> tuple[str, ...]:
    lefts = tuple(tf.output_alphabet) + ("-", "a")
    rights = tuple(tg.output_alphabet) + ("-", "a")
    out = [_pair(l, r) for l in lefts for r in rights]
    if muls:
        out += [_pair(l, r, "!") for l in lefts for r in rights]
    seen = set()
    uniq = []
    for tok in out:
        if tok not in seen:
            seen.add(tok)
            uniq.append(tok)
    return tuple(uniq)


def _combine_bound(tf: Transducer, tg: Transducer) -> str:
    tags = {tf.sweep_bound, tg.sweep_bound}
    if "unbounded" in tags:
        return "unbounded"
    if "linear" in tags or any(isinstance(b, int) for b in tags):
        return "linear"
    return "log"


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
    sf, sg = set(cf.payload_alphabet), set(cg.payload_alphabet)
    acc_f, acc_g = tf.accepting_set, tg.accepting_set

    def sim(qf, qg, l, r):
        if l == "-" and r == "-":
            return []
        if l == "-":
            g = _step(tg, qg, r)
            return [] if g is None else [(("sim", qf, g[0]), _pair("-", g[1]))]
        if r == "-":
            f = _step(tf, qf, l)
            return [] if f is None else [(("sim", f[0], qg), _pair(f[1], "-"))]
        f = _step(tf, qf, l)
        g = _step(tg, qg, r)
        if f is None or g is None:
            return []
        return [(("sim", f[0], g[0]), _pair(f[1], g[1]))]

    def delta(state, tok):
        mode = state[0]
        if mode == "q0":
            if tok == "a":
                return [(("sp", "a"), _pair("a", "a"))]
            parts = _unpair(tok)
            if parts:
                return sim(tf.initial, tg.initial, parts[0], parts[1])
            return []
        if mode == "sp":
            region = state[1]
            if tok == "a" and region == "a":
                return [(("sp", "a"), _pair("a", "a"))]
            if tok in sf and region in ("a", "f"):
                return [(("sp", "f"), _pair(tok, "-"))]
            if tok in sg:
                return [(("sp", "g"), _pair("-", tok))]
            if tok == "<":
                return [(("fin",), _pair(tf.endmarker, tg.endmarker))]
            return []
        if mode == "sim":
            parts = _unpair(tok)
            if parts:
                return sim(state[1], state[2], parts[0], parts[1])
            return []
        return []

    machine = build_transducer(
        start=("q0",),
        delta=delta,
        input_alphabet=("a",) + cf.payload_alphabet + cg.payload_alphabet,
        output_alphabet=_pair_universe(tf, tg, muls=False) + ("<",),
        endmarker="<",
        accepting=lambda s: s[0] == "sim" and s[1] in acc_f and s[2] in acc_g,
        name_of=lambda s: ";".join(str(x) for x in s),
        sweep_bound=_combine_bound(tf, tg),
        meta={"family": "add", "components": (cf.name, cg.name)},
    )
    fn_f, fn_g = cf.fn, cg.fn
    return Constructor(
        machine,
        cf.payload_alphabet + cg.payload_alphabet,
        fn=lambda m: fn_f(m) + fn_g(m),
        name=f"({cf.name}+{cg.name})",
    )


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
    sf, sg = set(cf.payload_alphabet), set(cg.payload_alphabet)
    acc_f, acc_g = tf.accepting_set, tg.accepting_set

    def delta(state, tok):
        mode = state[0]
        if mode == "q0":
            if tok == "a":
                return [(("sp", "a"), _pair("a", "a"))]
            parts = _unpair(tok)
            if parts:
                return pre(tf.initial, tg.initial, *parts)
            return []
        if mode == "sp":
            region = state[1]
            if tok == "a" and region == "a":
                return [(("sp", "a"), _pair("a", "a"))]
            if tok in sg and region in ("a", "f"):
                return [(("sp", "g"), _pair(tf.endmarker, tok, "!"))]
            if tok in sf and region in ("g", "f"):
                return [(("sp", "f"), _pair(tok, "-"))]
            if tok == "<" and region == "f":
                return [(("fin",), _pair(tf.endmarker, tg.endmarker, "!"))]
            return []
        parts = _unpair(tok)
        if parts is None:
            return []
        l, r, sep = parts
        if mode == "pre":
            return pre(state[1], state[2], l, r, sep)
        if mode == "fact":
            qpref, qf, qg, okf = state[1], state[2], state[3], state[4]
            if sep == "|":
                # a factor cell: the f component alone advances
                if r != "-":
                    return []
                f = _step(tf, qf, l)
                if f is None:
                    return []
                return [(("fact", qpref, f[0], qg, okf), _pair(f[1], "-"))]
            # '!': the running factor takes its endmarker step here and
            # the next one restarts from the shared prefix state
            f = _step(tf, qf, l)
            g = _step(tg, qg, r)
            if f is None or g is None:
                return []
            ok = okf and f[0] in acc_f
            return [(("fact", qpref, qpref, g[0], ok), _pair(f[1], g[1], "!"))]
        return []

    def pre(qf, qg, l, r, sep):
        if sep == "!":
            # first x-cell: the shared prefix ends; its left slot backs
            # no factor and passes through unchanged
            g = _step(tg, qg, r)
            if g is None:
                return []
            return [(("fact", qf, qf, g[0], True), _pair(l, g[1], "!"))]
        if l == "-" or r == "-":
            return []
        f = _step(tf, qf, l)
        g = _step(tg, qg, r)
        if f is None or g is None:
            return []
        return [(("pre", f[0], g[0]), _pair(f[1], g[1]))]

    machine = build_transducer(
        start=("q0",),
        delta=delta,
        input_alphabet=("a",) + cf.payload_alphabet + cg.payload_alphabet,
        output_alphabet=_pair_universe(tf, tg, muls=True) + ("<",),
        endmarker="<",
        accepting=lambda s: s[0] == "fact" and s[4] and s[3] in acc_g,
        name_of=lambda s: ";".join(str(x) for x in s),
        sweep_bound=_combine_bound(tf, tg),
        meta={"family": "mul", "components": (cf.name, cg.name)},
    )
    fn_f, fn_g = cf.fn, cg.fn
    return Constructor(
        machine,
        cf.payload_alphabet + cg.payload_alphabet,
        fn=lambda m: fn_f(m) * fn_g(m),
        name=f"({cf.name}*{cg.name})",
    )


def build_lf(cf: Constructor) -> Transducer:
    """Acceptor of u$u v where the constructor accepts a^(2|u|+1) v.

    Two tracks: the first runs the copy-language acceptor over the
    prefix, treating the first payload symbol's cell as its endmarker
    slot; the second runs the constructor with every prefix symbol read
    as an a.  The machine accepts once a sweep ends with the copy check
    settled positive and the constructor accepting.
    """
    from .witness import gen_copy

    payload = tuple(cf.payload_alphabet)
    tf = cf.machine
    tc = gen_copy(("a", "b"))
    acc_f, acc_c = tf.accepting_set, tc.accepting_set
    prefix_syms = {"a", "b", "$"}

    def delta(state, tok):
        mode = state[0]
        if mode == "q0":
            if tok in prefix_syms:
                return [(("sp",), _pair(tok, "a"))]
            parts = _unpair(tok)
            if parts:
                return sim(tc.initial, tf.initial, *parts)
            return []
        if mode == "sp":
            if tok in prefix_syms:
                return [(("sp",), _pair(tok, "a"))]
            if tok in payload:
                return [(("spv",), _pair(tc.endmarker, tok, "!"))]
            return []
        if mode == "spv":
            if tok in payload:
                return [(("spv",), _pair("-", tok))]
            if tok == "<":
                return [(("fin",), _pair("-", tf.endmarker))]
            return []
        parts = _unpair(tok)
        if parts is None:
            return []
        if mode == "sim":
            return sim(state[1], state[2], *parts)
        if mode == "simv":
            okc, qf = state[1], state[2]
            l, r, sep = parts
            if sep != "|" or l != "-":
                return []
            f = _step(tf, qf, r)
            if f is None:
                return []
            return [(("simv", okc, f[0]), _pair("-", f[1]))]
        return []

    def sim(qc, qf, l, r, sep):
        if sep == "!":
            # the copy component reads its endmarker slot and settles
            c = _step(tc, qc, l)
            f = _step(tf, qf, r)
            if c is None or f is None:
                return []
            return [(("simv", c[0] in acc_c, f[0]), _pair(c[1], f[1], "!"))]
        if l == "-" or r == "-":
            return []
        c = _step(tc, qc, l)
        f = _step(tf, qf, r)
        if c is None or f is None:
            return []
        return [(("sim", c[0], f[0]), _pair(c[1], f[1]))]

    out = _pair_universe(tc, tf, muls=True)
    machine = build_transducer(
        start=("q0",),
        delta=delta,
        input_alphabet=("a", "b", "$") + payload,
        output_alphabet=out + ("<",),
        endmarker="<",
        accepting=lambda s: s[0] == "simv" and s[1] and s[2] in acc_f,
        name_of=lambda s: ";".join(str(x) for x in s),
        sweep_bound=tf.sweep_bound if isinstance(tf.sweep_bound, str) else "linear",
        meta={"family": "lf", "component": cf.name},
    )
    return machine


def in_lf(
    fn: Callable[[int], int], payload_alphabet: Sequence[str], w: Sequence[str]
) -> bool:
    """Reference predicate for the language built by ``build_lf``."""
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
        trace = find_accepting_trace(machine, word, cap, tape_cap)
        rows.append((p, len(word), None if trace is None else len(trace) - 1))
    return rows
