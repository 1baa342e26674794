"""Line-oriented text format for machines.

One shared format covers transducers (deterministic and not), NFAs,
DFAs, and LBAs, discriminated by a ``kind`` directive, so converted
machines can be piped through files.  Serialization is canonical:
directives in a fixed order, states, symbols and transitions in
declaration order, one transition per line, LF endings.  Comments start
with ``%`` (``#`` is a live alphabet symbol in the block language) and
run to the end of the line.  Parsing is one lazy pass over the rows:
a line is tokenized only when its row is taken, and rows are numbered
as ``str.splitlines`` counts lines, from 1.

The records own the machine rules and this module owns the text format.
``_Parser.check`` runs a record's header rule at the line of the
directive that completes it.  ``_Parser.build`` builds the record once
and, when its constructor rejects a move, names the first ``trans`` row
that the record's per-move rule rejects.  The kind parsers share
``_ends`` and ``_bad_row`` and keep only the text-format rules of their
rows: shape, duplicates, and one choice per (state, symbol) in ``iufst``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Iterator, Sequence

from .convert import Dfa, Nfa
from .core import BOUND_TAGS, MachineError, MalformedInputError, Transducer
from .core import _check_declared, _check_list
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
        record, noun = _RECORDS[self.kind]
        if not isinstance(self.machine, record):
            raise MachineError(f"kind {self.kind} requires {noun}")
        if self.kind == "iufst" and not self.machine.is_deterministic:
            raise MachineError("iufst files must be deterministic")


def _rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) for each line with a token left once its ``%``
    comment is cut (lines are cut only in a text holding a ``%``),
    tokenized only when taken; ``splitlines`` numbers the lines from 1, so
    CRLF and LF files number alike."""
    lines = text.splitlines()
    if "%" in text:
        lines = [raw.partition("%")[0] for raw in lines]
    for line, raw in enumerate(lines, start=1):
        toks = raw.split()
        if toks:
            yield line, toks


class _Parser:
    """Takes the header directives in order, one row ahead of them;
    ``rest()`` then yields the rows not yet taken."""

    def __init__(self, text: str):
        self.text = text
        self.rows = _rows(text)
        self.line = 1  # line of the last row taken or checked, 1 before any
        self.ahead = next(self.rows, None)

    def error(self, msg: str) -> MachineParseError:
        return MachineParseError(msg, self.line)

    def take(self, directive: str, required: bool = True) -> tuple[str, ...] | None:
        if self.ahead is not None and self.ahead[1][0] == directive:
            self.line, toks = self.ahead
            self.ahead = next(self.rows, None)
            return tuple(toks[1:])
        if not required:
            return None
        if self.ahead is None:
            raise self.error("unexpected end of file")
        line, toks = self.ahead
        raise MachineParseError(f"expected directive {directive!r}, got {toks[0]!r}", line)

    def check(self, rule, *args):
        """``rule(*args)``, one of a record's rules, failing at ``line``."""
        try:
            return rule(*args)
        except MachineError as exc:
            raise self.error(str(exc)) from None

    def one(self, directive: str, required: bool = True) -> str | None:
        """The operand of a directive that takes exactly one."""
        toks = self.take(directive, required)
        if toks is not None and len(toks) != 1:
            raise self.error(f"directive {directive!r} takes exactly 1 operand(s)")
        return None if toks is None else toks[0]

    def rest(self) -> Iterator[tuple[int, list[str]]]:
        return self.rows if self.ahead is None else chain((self.ahead,), self.rows)

    def build(self, record, check_moves, item, *fields):
        """``record(*fields)``.  When its constructor rejects a move, its
        per-move rule ``check_moves`` walks the ``trans`` rows again in file
        order, each read as one transition item by ``item``, and fails at
        the first row it rejects."""
        try:
            return record(*fields)
        except MachineError:
            for self.line, toks in _rows(self.text):
                if toks[0] == "trans":
                    self.check(check_moves, [item(toks)])
            raise  # not a move's fault: the header rules ran at their lines


def parse_machine(text: str) -> MachineFile:
    """Parse the text format into a machine file.

    One pass: the header directives are taken in their fixed order, then
    one loop reads the transition rows as ``_rows`` yields them.  A
    ``%`` starts a comment; blank and comment-only lines are skipped but
    still counted, so a line number is the one ``splitlines`` gives.
    Every error names a line.  The records own the machine rules: each
    header rule runs at the line of the last directive it reads, and a
    record's per-move rule names the first ``trans`` row it rejects.
    This module owns the text format: the kind, the order and arity of
    the directives, the shape of a ``trans`` row, the spelling of
    ``sweeps``, duplicate rows, and one choice per (state, symbol) in an
    ``iufst`` file.
    """
    p = _Parser(text)
    kind_ops = p.take("kind")
    if len(kind_ops) != 1 or kind_ops[0] not in KINDS:
        raise p.error(f"kind must be one of {', '.join(KINDS)}")
    kind = kind_ops[0]
    states = p.take("states")
    if not states:
        raise p.error("at least one state is required")
    state_set = p.check(_check_list, states, "state")
    inputs = p.take("input")
    if kind in ("niufst", "iufst"):
        return _parse_transducer(p, kind, states, inputs, state_set)
    if kind in ("nfa", "dfa"):
        return _parse_fa(p, kind, states, inputs, state_set)
    return _parse_lba(p, states, inputs, state_set)


def _parse_transducer(p, kind, states, inputs, state_set) -> MachineFile:
    input_set = p.check(_check_list, inputs, "input symbol")
    outputs = p.take("output")
    if not outputs:
        raise p.error("transducers need a non-empty output alphabet")
    output_set = p.check(_check_list, outputs, "output symbol")
    endmarker = p.one("endmarker")
    p.check(Transducer._check_endmarker, endmarker, input_set, output_set)
    initial, accepting = _ends(p, state_set)
    bound = tok = p.one("sweeps", required=False)
    if tok is not None and tok not in BOUND_TAGS:
        if not (tok.isascii() and tok.isdigit() and tok[0] != "0"):
            raise p.error(f"sweeps must be a positive integer or unbounded/log/linear, got {tok!r}")
        bound = int(tok)
    transitions: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {}
    iufst = kind == "iufst"
    for line, toks in p.rest():
        if len(toks) != 6 or toks[0] != "trans" or toks[3] != "->":
            raise _bad_row(toks, line, "transducer transitions read: trans s a -> t y")
        _, q, x, _, r, y = toks
        choices = transitions.get((q, x), ())
        if iufst and choices and choices[0] != (r, y):
            msg = "iufst machines must have at most one choice per (state, symbol)"
            raise MachineParseError(msg, line)
        transitions[q, x] = choices + ((r, y),)
    check = partial(Transducer._check_moves, state_set, input_set | output_set, output_set)
    return MachineFile(kind, p.build(Transducer, check, _choice, states, inputs, outputs,
                                     endmarker, initial, accepting, transitions, bound))


def _parse_fa(p, kind, states, inputs, state_set) -> MachineFile:
    alphabet = p.check(_check_list, inputs, "symbol")
    initial, accepting = _ends(p, state_set)
    nfa_trans: dict[tuple[str, str], tuple[str, ...]] = {}
    for line, toks in p.rest():
        if len(toks) != 5 or toks[0] != "trans" or toks[3] != "->":
            raise _bad_row(toks, line, "finite-automaton transitions read: trans s a -> t")
        _, q, x, _, r = toks
        if kind == "dfa" and (q, x) in nfa_trans:
            raise MachineParseError(f"duplicate dfa transition for ({q!r}, {x!r})", line)
        if r in nfa_trans.get((q, x), ()):
            raise MachineParseError(f"duplicate transition ({q!r}, {x!r}) -> {r!r}", line)
        nfa_trans[(q, x)] = nfa_trans.get((q, x), ()) + (r,)
    # a move's successors as the record keeps them: one state or a tuple
    record, moves = (Dfa, lambda rs: rs[0]) if kind == "dfa" else (Nfa, tuple)
    check = partial(record._check_moves, state_set, alphabet)
    fa = p.build(record, check, lambda toks: ((toks[1], toks[2]), moves(toks[4:])), states,
                 inputs, initial, accepting, {key: moves(rs) for key, rs in nfa_trans.items()})
    return MachineFile(kind, fa)


def _parse_lba(p, states, inputs, state_set) -> MachineFile:
    p.check(_check_list, inputs, "input symbol")
    tape = p.take("tape")
    tape_set = p.check(Lba._check_tape, tape)
    lend, rend = p.one("lend"), p.one("rend")
    p.check(Lba._check_endmarkers, lend, rend, tape_set, inputs)
    initial, accepting = _ends(p, state_set)
    transitions: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {}
    for line, toks in p.rest():
        if len(toks) != 6 or toks[0] != "trans" or toks[3] != "->":
            raise _bad_row(toks, line, "lba transitions read: trans s a -> t (y|L|R)")
        _, q, x, _, r, act = toks
        if (r, act) in transitions.get((q, x), ()):
            raise MachineParseError(f"duplicate lba transition for ({q!r}, {x!r})", line)
        transitions[q, x] = transitions.get((q, x), ()) + ((r, act),)
    check = partial(Lba._check_moves, state_set, tape_set, lend, rend)
    return MachineFile("lba", p.build(Lba, check, _choice, states, inputs, tape, lend, rend,
                                      initial, accepting, transitions))


def _ends(p, state_set) -> tuple[str, tuple[str, ...]]:
    """The ``initial`` and ``accept`` directives, each checked at its line."""
    initial = p.one("initial")
    p.check(_check_declared, state_set, "initial", initial)
    accepting = p.take("accept")
    p.check(_check_declared, state_set, "accepting", *accepting)
    return initial, accepting


def _bad_row(toks: list[str], line: int, usage: str) -> MachineParseError:
    """The error of a row after the header that is not a ``trans`` row of
    the kind's shape: an unknown directive, else ``usage``."""
    if toks[0] != "trans":
        return MachineParseError(f"unknown directive {toks[0]!r}", line)
    return MachineParseError(usage, line)


def _choice(toks: list[str]) -> tuple[tuple[str, str], tuple[tuple[str, str]]]:
    """A transducer or LBA ``trans`` row as one transition item."""
    return (toks[1], toks[2]), ((toks[4], toks[5]),)


def serialize_machine(mf: MachineFile) -> str:
    """Canonical text form; ``parse_machine`` inverts it structurally."""
    m = mf.machine
    lines = [f"kind {mf.kind}", "states " + " ".join(m.states)]
    if isinstance(m, Transducer):
        lines.append("input " + " ".join(m.input_alphabet))
        lines.append("output " + " ".join(m.output_alphabet))
        lines.append(f"endmarker {m.endmarker}")
    elif isinstance(m, Lba):
        lines.append("input " + " ".join(m.input_alphabet))
        lines.append("tape " + " ".join(m.tape_alphabet))
        lines.append(f"lend {m.left_end}")
        lines.append(f"rend {m.right_end}")
    else:
        lines.append("input " + " ".join(m.alphabet))
    lines.append(f"initial {m.initial}")
    lines.append(("accept " + " ".join(m.accepting)).rstrip())
    if isinstance(m, Transducer) and m.sweep_bound is not None:
        lines.append(f"sweeps {m.sweep_bound}")
    if isinstance(m, (Nfa, Dfa)):
        lines += [f"trans {q} {x} -> {r}" for q, x in m.transitions for r in m._successors(q, x)]
    else:  # a transducer's or an LBA's (state, symbol or action) choices
        items = m.transitions.items()
        lines += [f"trans {q} {x} -> {r} {y}" for (q, x), choices in items for r, y in choices]
    return "\n".join(lines) + "\n"


def parse_word(text: str, alphabet: Sequence[str]) -> tuple[str, ...]:
    """Read a word from CLI text.

    Symbols are comma-separated; when every alphabet symbol is a single
    character an unseparated string is also accepted.  The empty string
    is the empty word; an empty symbol between commas is an error.
    """
    if text == "":
        return ()
    alpha = set(alphabet)
    if "," in text:
        syms = text.split(",")
    elif all(len(a) == 1 for a in alphabet):
        syms = list(text)
    else:
        syms = [text]
    bad = [s for s in syms if s not in alpha]
    if bad:
        raise MalformedInputError(f"symbols {bad!r} not in the alphabet {sorted(alpha)!r}")
    return tuple(syms)

