"""Line-oriented text format for machines.

One shared format covers transducers (deterministic and not), NFAs,
DFAs, and LBAs, discriminated by a ``kind`` directive, so converted
machines can be piped through files.  Serialization is canonical:
directives in a fixed order, states, symbols and transitions in
declaration order, one transition per line, LF endings.  Comments start
with ``%`` (``#`` is a live alphabet symbol in the block language) and
run to the end of the line.  Parsing is one lazy pass over the rows:
a line is tokenized only when its row is taken, and rows are numbered
as ``str.splitlines`` counts lines, from 1.  The kind parsers share
``_ends`` and ``_trans`` and keep only their own per-row checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

from .convert import Dfa, Nfa
from .core import MachineError, MalformedInputError, Transducer
from .lba import Lba

# each kind's record class and the noun its mismatch message uses
_RECORDS = {
    "niufst": (Transducer, "a transducer"),
    "iufst": (Transducer, "a transducer"),
    "nfa": (Nfa, "an NFA"),
    "dfa": (Dfa, "a DFA"),
    "lba": (Lba, "an LBA"),
}
KINDS = tuple(_RECORDS)

RESERVED = ("->", "%")


class MachineParseError(MachineError):
    """Parse failure; carries a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class MachineFile:
    kind: str
    machine: Transducer | Nfa | Dfa | Lba

    def __post_init__(self) -> None:
        if self.kind not in _RECORDS:
            raise MachineError(f"unknown machine kind {self.kind!r}")
        if self.kind == "iufst" and not self.machine.is_deterministic:
            raise MachineError("iufst files must be deterministic")
        record, noun = _RECORDS[self.kind]
        if not isinstance(self.machine, record):
            raise MachineError(f"kind {self.kind} requires {noun}")


def _rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) for each line with a token left once its ``%``
    comment is cut, tokenized only when taken; ``splitlines`` numbers the
    lines from 1, so CRLF and LF files number alike."""
    for line, raw in enumerate(text.splitlines(), start=1):
        toks = raw.partition("%")[0].split()
        if toks:
            yield line, toks


class _Parser:
    """Takes the header directives in order, one row ahead of them;
    ``rest()`` then yields the rows not yet taken."""

    def __init__(self, text: str):
        self.rows = _rows(text)
        self.line = 0  # line of the last row taken
        self.ahead = next(self.rows, None)

    def error(self, msg: str) -> MachineParseError:
        return MachineParseError(msg, self.line)

    def take(self, directive: str, required: bool = True) -> list[str] | None:
        if self.ahead is not None and self.ahead[1][0] == directive:
            self.line, toks = self.ahead
            self.ahead = next(self.rows, None)
            return toks[1:]
        if not required:
            return None
        if self.ahead is None:
            raise self.error("unexpected end of file")
        line, toks = self.ahead
        raise MachineParseError(f"expected directive {directive!r}, got {toks[0]!r}", line)

    def check_tokens(self, toks: list[str], what: str) -> None:
        """Reject a duplicate or a reserved token in a list of ``what``s."""
        if len(set(toks)) != len(toks):
            raise self.error(f"duplicate {what} declared")
        for tok in toks:
            if tok in RESERVED:
                raise self.error(f"{tok!r} is a reserved token")

    def rest(self) -> Iterator[tuple[int, list[str]]]:
        return self.rows if self.ahead is None else chain((self.ahead,), self.rows)


def parse_machine(text: str) -> MachineFile:
    """Parse the text format, validating every machine invariant.

    One pass: the header directives are taken in their fixed order, then
    one loop reads the transition rows as ``_rows`` yields them.  A
    ``%`` starts a comment; blank and comment-only lines are skipped but
    still counted, so a line number is the one ``splitlines`` gives.
    Distinct diagnostics with a line number: unknown directive, missing
    directive or unexpected end of file, undeclared state or symbol, a
    duplicate state, input or output symbol, a reserved token in a
    declaration, an endmarker that is also an input symbol, a sweep bound
    that is not a tag or ASCII digits without a leading zero, duplicate
    DFA transitions, and malformed LBA actions.  The rules only ``Lba``
    checks come out as line 0: an input symbol outside ``tape`` or equal
    to an endmarker, ``lend`` or ``rend`` outside ``tape``, equal
    endmarkers, ``L`` or ``R`` in ``tape``, a left move on ``lend`` or a
    right move on ``rend``, and writing an endmarker or over one.
    """
    p = _Parser(text)
    kind_ops = p.take("kind")
    if len(kind_ops) != 1 or kind_ops[0] not in KINDS:
        raise p.error(f"kind must be one of {', '.join(KINDS)}")
    kind = kind_ops[0]

    states = p.take("states")
    if not states:
        raise p.error("at least one state is required")
    p.check_tokens(states, "state")
    state_set = set(states)
    inputs = p.take("input") or []
    p.check_tokens(inputs, "input symbol")
    input_set = set(inputs)

    try:
        if kind in ("niufst", "iufst"):
            return _parse_transducer(p, kind, states, inputs, state_set, input_set)
        if kind in ("nfa", "dfa"):
            return _parse_fa(p, kind, states, inputs, state_set, input_set)
        return _parse_lba(p, states, inputs, state_set, input_set)
    except MachineParseError:
        raise
    except MachineError as exc:
        raise MachineParseError(str(exc), 0) from exc


def _parse_transducer(p, kind, states, inputs, state_set, input_set) -> MachineFile:
    outputs = p.take("output")
    p.check_tokens(outputs, "output symbol")
    if not outputs:
        raise p.error("transducers need a non-empty output alphabet")
    output_set = set(outputs)
    (endmarker,) = _exactly(p, p.take("endmarker"), 1, "endmarker")
    if endmarker in input_set:
        raise p.error("endmarker must not be an input symbol")
    if endmarker not in output_set:
        raise p.error("endmarker must be a declared output symbol")
    initial, accepting = _ends(p, state_set)
    bound: int | str | None = None
    sweeps = p.take("sweeps", required=False)
    if sweeps is not None:
        (tok,) = _exactly(p, sweeps, 1, "sweeps")
        if tok in ("unbounded", "log", "linear"):
            bound = tok
        elif tok.isascii() and tok.isdigit() and tok[0] != "0":
            bound = int(tok)
        else:
            raise p.error(f"sweeps must be a positive integer or unbounded/log/linear, got {tok!r}")
    transitions: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {}
    sym_set = input_set | output_set
    line = p.line
    usage = "transducer transitions read: trans s a -> t y"
    for line, (_, q, x, _, r, y) in _trans(p, 6, usage, state_set):
        if x not in sym_set:
            raise MachineParseError(f"undeclared symbol {x!r}", line)
        if y not in output_set:
            raise MachineParseError(f"output symbol {y!r} not in the output alphabet", line)
        key = q, x
        transitions[key] = transitions.get(key, ()) + ((r, y),)
    t = Transducer(
        states=tuple(states),
        input_alphabet=tuple(inputs),
        output_alphabet=tuple(outputs),
        endmarker=endmarker,
        initial=initial,
        accepting=tuple(accepting),
        transitions=transitions,
        sweep_bound=bound,
    )
    if kind == "iufst" and not t.is_deterministic:
        msg = "iufst machines must have at most one choice per (state, symbol)"
        raise MachineParseError(msg, line)
    return MachineFile(kind, t)


def _parse_fa(p, kind, states, inputs, state_set, input_set) -> MachineFile:
    initial, accepting = _ends(p, state_set)
    nfa_trans: dict[tuple[str, str], tuple[str, ...]] = {}
    usage = "finite-automaton transitions read: trans s a -> t"
    for line, (_, q, x, _, r) in _trans(p, 5, usage, state_set):
        if x not in input_set:
            raise MachineParseError(f"undeclared symbol {x!r}", line)
        if kind == "dfa" and (q, x) in nfa_trans:
            raise MachineParseError(f"duplicate dfa transition for ({q!r}, {x!r})", line)
        if r in nfa_trans.get((q, x), ()):
            raise MachineParseError(f"duplicate transition ({q!r}, {x!r}) -> {r!r}", line)
        nfa_trans[(q, x)] = nfa_trans.get((q, x), ()) + (r,)
    fa = _RECORDS[kind][0](
        states=tuple(states),
        alphabet=tuple(inputs),
        initial=initial,
        accepting=tuple(accepting),
        transitions={k: v[0] for k, v in nfa_trans.items()} if kind == "dfa" else nfa_trans,
    )
    return MachineFile(kind, fa)


def _parse_lba(p, states, inputs, state_set, input_set) -> MachineFile:
    tape = p.take("tape")
    p.check_tokens(tape, "tape symbol")
    tape_set = set(tape)
    (lend,) = _exactly(p, p.take("lend"), 1, "lend")
    (rend,) = _exactly(p, p.take("rend"), 1, "rend")
    initial, accepting = _ends(p, state_set)
    transitions: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {}
    usage = "lba transitions read: trans s a -> t (y|L|R)"
    for line, (_, q, x, _, r, act) in _trans(p, 6, usage, state_set):
        if x not in tape_set:
            raise MachineParseError(f"undeclared tape symbol {x!r}", line)
        if act not in ("L", "R") and act not in tape_set:
            raise MachineParseError(
                f"lba action must be a tape symbol, L, or R, got {act!r}", line
            )
        entry = (r, act)
        if entry in transitions.get((q, x), ()):
            raise MachineParseError(f"duplicate lba transition for ({q!r}, {x!r})", line)
        transitions[(q, x)] = transitions.get((q, x), ()) + (entry,)
    lba = Lba(
        states=tuple(states),
        input_alphabet=tuple(inputs),
        tape_alphabet=tuple(tape),
        left_end=lend,
        right_end=rend,
        initial=initial,
        accepting=tuple(accepting),
        transitions=transitions,
    )
    return MachineFile("lba", lba)


def _ends(p, state_set) -> tuple[str, list[str]]:
    """The ``initial`` and ``accept`` directives, over declared states."""
    (initial,) = _exactly(p, p.take("initial"), 1, "initial")
    if initial not in state_set:
        raise p.error(f"undeclared initial state {initial!r}")
    accepting = p.take("accept")
    for q in accepting:
        if q not in state_set:
            raise p.error(f"undeclared accepting state {q!r}")
    return initial, accepting


def _trans(p, width, usage, state_set) -> Iterator[tuple[int, list[str]]]:
    """The rows left, each a ``trans`` row of ``width`` tokens with ``->``
    fourth, between declared states; a row of another shape fails with
    ``usage``."""
    for line, toks in p.rest():
        if toks[0] != "trans":
            raise MachineParseError(f"unknown directive {toks[0]!r}", line)
        if len(toks) != width or toks[3] != "->":
            raise MachineParseError(usage, line)
        if toks[1] not in state_set or toks[4] not in state_set:
            msg = f"undeclared state in transition {toks[1]!r} / {toks[4]!r}"
            raise MachineParseError(msg, line)
        yield line, toks


def _exactly(p, toks, n, what):
    if toks is None or len(toks) != n:
        raise p.error(f"directive {what!r} takes exactly {n} operand(s)")
    return toks


def serialize_machine(mf: MachineFile) -> str:
    """Canonical text form; ``parse_machine`` inverts it structurally."""
    m = mf.machine
    lines = [f"kind {mf.kind}"]
    lines.append("states " + " ".join(m.states))
    if isinstance(m, Transducer):
        lines.append("input " + " ".join(m.input_alphabet))
        lines.append("output " + " ".join(m.output_alphabet))
        lines.append(f"endmarker {m.endmarker}")
        lines.append(f"initial {m.initial}")
        lines.append(("accept " + " ".join(m.accepting)).rstrip())
        if m.sweep_bound is not None:
            lines.append(f"sweeps {m.sweep_bound}")
        for (q, x), choices in m.transitions.items():
            for r, y in choices:
                lines.append(f"trans {q} {x} -> {r} {y}")
    elif isinstance(m, (Nfa, Dfa)):
        lines.append("input " + " ".join(m.alphabet))
        lines.append(f"initial {m.initial}")
        lines.append(("accept " + " ".join(m.accepting)).rstrip())
        if isinstance(m, Dfa):
            for (q, x), r in m.transitions.items():
                lines.append(f"trans {q} {x} -> {r}")
        else:
            for (q, x), rs in m.transitions.items():
                for r in rs:
                    lines.append(f"trans {q} {x} -> {r}")
    elif isinstance(m, Lba):
        lines.append("input " + " ".join(m.input_alphabet))
        lines.append("tape " + " ".join(m.tape_alphabet))
        lines.append(f"lend {m.left_end}")
        lines.append(f"rend {m.right_end}")
        lines.append(f"initial {m.initial}")
        lines.append(("accept " + " ".join(m.accepting)).rstrip())
        for (q, x), acts in m.transitions.items():
            for r, act in acts:
                lines.append(f"trans {q} {x} -> {r} {act}")
    else:  # pragma: no cover - MachineFile already constrains this
        raise MachineError(f"cannot serialize {type(m).__name__}")
    return "\n".join(lines) + "\n"


def parse_word(text: str, alphabet: Sequence[str]) -> tuple[str, ...]:
    """Read a word from CLI text.

    Symbols are comma-separated; when every alphabet symbol is a single
    character an unseparated string is also accepted.  The empty string
    is the empty word.
    """
    if text == "":
        return ()
    alpha = set(alphabet)
    if "," in text:
        syms = [s for s in text.split(",") if s != ""]
    elif all(len(a) == 1 for a in alphabet):
        syms = list(text)
    else:
        syms = [text]
    bad = [s for s in syms if s not in alpha]
    if bad:
        raise MalformedInputError(f"symbols {bad!r} not in the alphabet {sorted(alpha)!r}")
    return tuple(syms)


def format_word(word: Sequence[str]) -> str:
    return ",".join(word)
