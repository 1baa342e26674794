"""Command-line front end.

Subcommands map one-to-one onto library operations and pipe machines
through the text format, so conversions compose via files.  Exit codes:
0 accept/true/success, 1 reject/false/disagreement, 2 usage or parse
error, 3 unknown (a cap or budget was exhausted before an answer).
"""

from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Callable, Optional, Sequence

from . import decide as decide_mod
from .convert import (
    Dfa,
    Nfa,
    ResourceBudgetError,
    dfa_minimize,
    min_dfa,
    nfa_to_dfa,
    sweep_reduce,
    to_nfa,
)
from .core import (
    DEFAULT_TAPE_CAP,
    MachineError,
    Transducer,
    Word,
    run,
    traced_run,
    verdict,
)
from .hierarchy import (
    combine_add,
    combine_mul,
    expo_constructor,
    identity_constructor,
    measure_sweep_growth,
)
from .lba import Lba, compile_lba, run_lba
from .oracle import OracleBudgetError, compare_languages, compare_on_words
from .textio import MachineFile, parse_machine, parse_word, serialize_machine
from .witness import (
    d_word,
    gen_block,
    gen_block_nfa,
    gen_copy,
    gen_d,
    gen_e,
    gen_uexpo,
    gen_unary,
    in_block,
    in_copy,
    in_d,
    in_e,
    in_uexpo,
    in_unary,
)

OK, REJECT, ERROR, UNKNOWN = 0, 1, 2, 3


class CliError(Exception):
    pass


def _load(path: str) -> MachineFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_machine(fh.read())


def _save(machine: Transducer | Nfa | Dfa, path: Optional[str]) -> None:
    """Write ``machine`` under the kind it is: ``iufst`` when it is a
    deterministic transducer, ``niufst`` for any other, ``nfa`` or ``dfa``."""
    if isinstance(machine, Transducer):
        kind = "iufst" if machine.is_deterministic else "niufst"
    else:
        kind = "dfa" if isinstance(machine, Dfa) else "nfa"
    text = serialize_machine(MachineFile(kind, machine))
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _need_transducer(mf: MachineFile) -> Transducer:
    if not isinstance(mf.machine, Transducer):
        raise CliError(f"expected a transducer machine file, got kind {mf.kind}")
    return mf.machine


def _need_bound(t: Transducer) -> int:
    if not isinstance(t.sweep_bound, int):
        raise CliError("this operation needs a declared constant sweep bound "
                       "(add a `sweeps K` directive)")
    return t.sweep_bound


@dataclass(frozen=True)
class Family:
    """One witness family, named ``name[:p1,p2,...]`` on the command line.

    The callable fields take the spec's integer parameters, and the
    signature of ``make`` is the spec grammar.  ``pred`` is the reference
    predicate for ``verify``, ``budget`` its default ``--max-len`` and
    ``corpus`` extra words it checks; ``words`` is the word family
    ``measure`` runs from ``least`` on.  They look library names up when called.
    A corpus of more than ``D_CORPUS_CAP`` (100,000) words is not built:
    ``verify --lang d:K`` checks the 1,536 words of width 2 and exits 3
    (budget exhausted) for every wider K, starting at the 234,881,024
    words of width 3.
    """

    make: Callable[..., object]
    pred: Optional[Callable[..., Callable[[Word], bool]]] = None
    alphabet: tuple[str, ...] = ()
    budget: Optional[Callable[..., int]] = None
    corpus: Optional[Callable[..., list[Word]]] = None
    words: Optional[Callable[..., Callable[[int], Word]]] = None
    least: int = 1


def _check_d_width(k: int) -> None:
    if k < 2:
        raise CliError("d needs k >= 2")


def _gen_d(k: int = 2) -> Transducer:
    # the machine covers every block width; the width only selects the
    # verification corpus and is checked for every command alike
    _check_d_width(k)
    return gen_d()


# The most words a verification corpus may hold.
D_CORPUS_CAP = 100_000


def _d_corpus(k: int = 2) -> list[Word]:
    """Every width-k member plus one single-mutation negative each:
    2 * (2^k - 1) * 2^(k * 2^k) words.  Raises ``OracleBudgetError``
    before building any word when that is more than ``D_CORPUS_CAP``."""
    # every width past 4 has over 2^160 words; count widths up to 4 only
    size = 2 * (2**k - 1) * 2 ** (k * 2**k) if k <= 4 else None
    if size is None or size > D_CORPUS_CAP:
        held = "over 2^160" if size is None else f"{size:,}"
        raise OracleBudgetError(f"the d:{k} corpus holds {held} words, "
                                f"more than the cap of {D_CORPUS_CAP:,}")
    words = []
    payload_space = list(product(product("ab", repeat=k), repeat=2**k))
    for idx, pays in enumerate(payload_space):
        for i in range(1, 2**k):
            w = d_word(k, pays, i)
            words.append(w)
            bad = list(w)
            pos = len(bad) - k + (idx % k)
            bad[pos] = "a" if bad[pos] == "b" else "b"
            words.append(tuple(bad))
    return words


def _block_word(k: int, m: int) -> Word:
    return ((("0",) * k + ("#",)) * max(2, m))[:-1]


def _copy_word(j: int) -> Word:
    u = tuple("ab"[i % 2] for i in range(j))
    return u + ("$",) + u


def _d_measure_word(k: int) -> Word:
    _check_d_width(k)
    pays = [tuple("ab"[(j + i) % 2] for i in range(k)) for j in range(2**k)]
    return d_word(k, pays, 1)


FAMILIES: dict[str, Family] = {
    "block": Family(
        lambda k: gen_block(k),
        pred=lambda k: lambda w: in_block(k, w), alphabet=("0", "1", "#"),
        budget=lambda k: 2 * k + 3, words=lambda k: lambda m: _block_word(k, m),
    ),
    "block-nfa": Family(
        lambda k: gen_block_nfa(k),
        pred=lambda k: lambda w: in_block(k, w), alphabet=("0", "1", "#"),
        budget=lambda k: 2 * k + 3,
    ),
    "unary": Family(
        lambda n, k: gen_unary(n, k),
        pred=lambda n, k: lambda w: in_unary(n, k, w), alphabet=("a",),
        budget=lambda n, k: 2 * n**k + 2,
        words=lambda n, k: lambda c: ("a",) * (c * n**k),
    ),
    "e": Family(
        lambda n, k: gen_e(n, k),
        pred=lambda n, k: lambda w: in_e(n, k, w), alphabet=("a", "b"),
        budget=lambda n, k: min(10, 2 * n**k + 2),
        words=lambda n, k: lambda c: ("b",) + ("a",) * (c * n**k - 1),
    ),
    "copy": Family(
        lambda: gen_copy(),
        pred=lambda: in_copy, alphabet=("a", "b", "$"), budget=lambda: 9,
        words=lambda: _copy_word,
    ),
    "uexpo": Family(
        lambda: gen_uexpo(),
        pred=lambda: in_uexpo, alphabet=("a",), budget=lambda: 64,
        words=lambda: lambda j: ("a",) * (2**j),
    ),
    "d": Family(
        _gen_d,
        pred=lambda k=2: in_d, alphabet=("a", "b", "0", "1"), budget=lambda k=2: 8,
        corpus=_d_corpus, words=lambda k=2: _d_measure_word, least=2,
    ),
    "id-ctor": Family(
        lambda: identity_constructor(("x",)).machine,
        words=lambda: lambda m: ("a",) * m + ("x",) * m,
    ),
    "expo-ctor": Family(
        lambda: expo_constructor(("x",)).machine,
        words=lambda: lambda m: ("a",) * m + ("x",) * (2**m),
    ),
}


def _family(spec: str, use: str) -> tuple[Family, list[int]]:
    """The family a ``name[:p1,p2,...]`` spec names, if it offers ``use``,
    with the spec's parameters."""
    name, _, raw = spec.partition(":")
    fam = FAMILIES.get(name)
    if fam is None or getattr(fam, use) is None:
        raise CliError(f"no family {spec!r} for this command")
    try:
        params = [int(p) for p in raw.split(",") if p != ""]
        inspect.signature(fam.make).bind(*params)
    except (TypeError, ValueError):
        raise CliError(f"bad family parameters in {spec!r}") from None
    return fam, params


def _specs(use: str) -> str:
    """The spec grammar of every family that offers ``use``."""
    out = []
    for name, fam in FAMILIES.items():
        if getattr(fam, use) is not None:
            params = inspect.signature(fam.make).parameters.values()
            grammar = ",".join(p.name.upper() for p in params)
            if any(p.default is not p.empty for p in params):
                name += f"[:{grammar}]"
            elif grammar:
                name += f":{grammar}"
            out.append(name)
    return " | ".join(out)


def cmd_run(args) -> int:
    mf = _load(args.machine)
    t = _need_transducer(mf)
    word = parse_word(args.word, t.input_alphabet)
    max_sweeps = args.max_sweeps
    if max_sweeps is None:
        if isinstance(t.sweep_bound, int):
            max_sweeps = t.sweep_bound
        else:
            max_sweeps = 4 * len(word) + 16
    if args.trace:
        report, trace = traced_run(t, word, max_sweeps, args.tape_cap)
    else:
        report = run(t, word, max_sweeps, args.tape_cap)
    answer = verdict(t, report, max_sweeps)
    if answer:
        print(f"accepted sweeps={report.min_accept_sweeps}")
        if args.trace:
            for tape in trace():
                print(" ".join(tape))
        return OK
    if answer is False:
        print("rejected")
        return REJECT
    print(f"unknown (explored {report.tapes_explored} tapes, "
          f"{max_sweeps} sweeps, cap_hit={report.cap_hit})")
    return UNKNOWN


def cmd_convert(args) -> int:
    mf = _load(args.machine)
    target = args.to
    if target.startswith("reduce:"):
        t = _need_transducer(mf)
        k = _need_bound(t)
        lanes = int(target.split(":", 1)[1])
        _save(sweep_reduce(t, k, lanes), args.output)
        return OK
    if target == "nfa":
        t = _need_transducer(mf)
        _save(to_nfa(t, _need_bound(t)), args.output)
        return OK
    if target in ("dfa", "min-dfa"):
        m = mf.machine
        if not isinstance(m, (Nfa, Dfa)):
            t = _need_transducer(mf)
            m = to_nfa(t, _need_bound(t))
        if isinstance(m, Nfa):
            m = (min_dfa if target == "min-dfa" else nfa_to_dfa)(m, state_cap=args.state_cap)
        elif target == "min-dfa":
            m = dfa_minimize(m)
        _save(m, args.output)
        return OK
    raise CliError(f"unknown conversion target {target!r}")


def cmd_decide(args) -> int:
    t = _need_transducer(_load(args.machine))
    k = _need_bound(t)
    question = args.question
    if question == "empty":
        answer = decide_mod.emptiness_witness(t, k)
    elif question == "finite":
        answer = decide_mod.infiniteness_witness(t, k)
    elif question == "universal":
        answer = decide_mod.universality_witness(t, k, args.state_cap)
    else:
        if not args.other:
            raise CliError(f"decide {question} needs -n OTHER_MACHINE")
        t2 = _need_transducer(_load(args.other))
        k2 = _need_bound(t2)
        if question == "equiv":
            answer = decide_mod.equivalence_witness(t, k, t2, k2, args.state_cap)
        else:
            answer = decide_mod.inclusion_witness(t, k, t2, k2, args.state_cap)
    if answer is None:
        print("true")
        return OK
    if question == "finite":
        print(f"false pump=({';'.join(','.join(part) for part in answer)})")
    else:
        print(f"false witness={','.join(answer) or 'λ'}")
    return REJECT


def cmd_gen(args) -> int:
    fam, params = _family(args.family, "make")
    _save(fam.make(*params), args.output)
    return OK


def cmd_combine(args) -> int:
    ctors = {"id": identity_constructor, "expo": expo_constructor}
    if args.left not in ctors or args.right not in ctors:
        raise CliError("combine operands must be id or expo")
    left = ctors[args.left](("x",))
    right = ctors[args.right](("y",))
    out = combine_add(left, right) if args.op == "add" else combine_mul(left, right)
    _save(out.machine, args.output)
    return OK


def cmd_lba(args) -> int:
    mf = _load(args.machine)
    if not isinstance(mf.machine, Lba):
        raise CliError("expected an lba machine file")
    if args.action == "compile":
        _save(compile_lba(mf.machine), args.output)
        return OK
    word = parse_word(args.word, mf.machine.input_alphabet)
    report = run_lba(mf.machine, word, args.max_steps)
    if report.accepted:
        print(f"accepted steps={report.steps_to_accept}")
        return OK
    if report.halted:
        print("rejected")
        return REJECT
    print(f"unknown (step budget {args.max_steps} exhausted)")
    return UNKNOWN


def cmd_verify(args) -> int:
    if args.max_len is not None and args.max_len < 0:
        raise CliError("--max-len must be >= 0")
    fam, params = _family(args.lang, "pred")
    machine = fam.make(*params)
    pred = fam.pred(*params)
    disagreements = []
    if fam.corpus is not None:
        disagreements += compare_on_words(machine, pred, fam.corpus(*params))
    max_len = args.max_len if args.max_len is not None else fam.budget(*params)
    disagreements += compare_languages(machine, pred, fam.alphabet, max_len)
    if disagreements:
        for w in disagreements[:20]:
            print("disagree:", ",".join(w) if w else "λ")
        print(f"{len(disagreements)} disagreement(s)")
        return REJECT
    print("ok")
    return OK


def cmd_measure(args) -> int:
    fam, params = _family(args.lang, "words")
    lo = fam.least if args.min_param is None else args.min_param
    rows = measure_sweep_growth(fam.make(*params), fam.words(*params),
                                range(lo, args.max_param + 1))
    print("param,length,sweeps")
    holes = 0
    for p, length, sweeps in rows:
        if sweeps is None:
            holes += 1
        print(f"{p},{length},{'' if sweeps is None else sweeps}")
    return REJECT if holes else OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="iufst",
        description="Iterated uniform finite-state transducer toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "run", help="run a machine on a word",
        description="At a budget of at most 8 sweeps, such as a machine's own constant "
                    "sweep bound (the default budget), a run steps the set of lane tuples "
                    "of its sweeps over the word and keeps no tape; a larger budget, or a "
                    "rejection that walk cannot make definite, searches tapes breadth first. "
                    "--trace takes the same route and gives the same answer.")
    p.add_argument("-m", "--machine", required=True)
    p.add_argument("-w", "--word", required=True,
                   help="symbols separated by , (plain string if single-char)")
    p.add_argument("--max-sweeps", type=int, default=None,
                   help="sweep budget (default: the constant sweep bound, else 4|w| + 16)")
    p.add_argument("--tape-cap", type=int, default=DEFAULT_TAPE_CAP,
                   help="tapes the tape search may sweep; the lane walk keeps none "
                        "(default %(default)s)")
    p.add_argument("--trace", action="store_true",
                   help="print one tape per sweep boundary of an accepting run, "
                        "from the lane walk or the tape search, whichever answers")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("convert", help="convert between machine kinds")
    p.add_argument("-m", "--machine", required=True)
    p.add_argument("--to", required=True, help="nfa | dfa | min-dfa | reduce:I")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--state-cap", type=int, default=2**20,
                   help="subsets the powerset construction of dfa and min-dfa may "
                        "discover; exit 3 when exceeded (default %(default)s)")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("decide", help="decide language questions")
    p.add_argument("question", choices=["empty", "finite", "universal", "equiv", "subset"])
    p.add_argument("-m", "--machine", required=True)
    p.add_argument("-n", "--other", default=None)
    p.add_argument("--state-cap", type=int, default=decide_mod.DEFAULT_SEARCH_CAP,
                   help="nodes (NFA state, subset) each inclusion search may find "
                        "for universal, equiv and subset, not DFA subsets; "
                        "exit 3 when exceeded (default %(default)s)")
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("gen", help="generate a machine family member")
    p.add_argument("family", help=_specs("make"))
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("combine", help="combine constructors")
    p.add_argument("op", choices=["add", "mul"])
    p.add_argument("--left", required=True, help="id | expo")
    p.add_argument("--right", required=True, help="id | expo")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_combine)

    p = sub.add_parser("lba", help="simulate or compile linear bounded automata")
    p.add_argument("action", choices=["compile", "run"])
    p.add_argument("-m", "--machine", required=True)
    p.add_argument("-w", "--word", default="")
    p.add_argument("--max-steps", type=int, default=100_000)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_lba)

    p = sub.add_parser("verify", help="compare a family machine against its definition")
    p.add_argument("--lang", required=True, help=_specs("pred"))
    p.add_argument("--max-len", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("measure", help="sweep growth table as CSV")
    p.add_argument("--lang", required=True, help=_specs("words"))
    p.add_argument("--min-param", type=int, help="first parameter (default 2 for d, else 1)")
    p.add_argument("--max-param", type=int, default=6)
    p.set_defaults(fn=cmd_measure)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return ERROR if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ResourceBudgetError, OracleBudgetError) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return UNKNOWN
    except (CliError, MachineError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
