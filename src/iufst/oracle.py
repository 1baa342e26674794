"""Brute-force ground truth: word enumeration, language comparison up
to a length budget, and minimal-DFA construction from a bare predicate.

These are the independent checks behind every equivalence claim in the
test suite.  Budgets are data owned by the callers; whenever a budget
turns out to be too small the functions fail loudly instead of
returning a silently wrong answer.

``compare_languages`` answers most words without asking the acceptor,
by walking the word tree over the states of an ``Nfa``'s or ``Dfa``'s
``_view``, which answers every word, or of a transducer's
``core.LaneNfa``, whose ``report`` answers each set of lane tuples.
A machine that declares a constant sweep bound k accepts exactly the
language of its k-lane NFA (the paper's reduction), so the walk answers
all its words and ``run`` is never called.  Any other machine walks
``_WORD_TREE_LANES`` (3) lanes, or a pair's k when that is smaller: a word
accepted at lane j is one ``run`` accepts at j sweeps, and one whose set
is ``exhausted`` leaves no tape past the lanes, so ``run`` rejects it
definitely; only the others run.  The reduction holds for every k, but
only the machine's own declared bound turns the exact walk on, never the
k of a pair: lane tuples grow like n^k, and
``LaneNfa(compile_lba(lba_copy()), 12)`` finds 59,307 of them on words
of at most 5 symbols, where pairs of that machine ask for 80.

The per-word acceptor of ``make_acceptor`` walks lanes as well: a bare
nondeterministic machine without an int bound walks each word at the
depth its first accepted run took, before searching tapes.  So
``compare_on_words`` answers a corpus of one language's members mostly by
walks.  Those walks take ``core._run_lanes``, ``run``'s lane route, and
answer what ``run`` answers, with one difference: a walk keeps no tapes,
so a word whose tape search would hit ``tape_cap`` (and raise) gets an
answer.
"""

from __future__ import annotations

from collections import abc
from functools import cache
from itertools import product, repeat
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .convert import Dfa, Nfa, _moore
from .core import LaneNfa, MachineError, Transducer, Word, _run_lanes, _set_step, run, verdict

# Built with | over builtin generics: a typing.Union would sit in typing's
# cache and keep every imported copy of these classes alive.
Acceptor = (
    Transducer | Nfa | Dfa | abc.Callable[[abc.Sequence[str]], bool] | tuple[Transducer, int]
)


class OracleBudgetError(MachineError):
    """A run budget was exhausted before the oracle could conclude."""


def enumerate_words(alphabet: Sequence[str], max_len: int) -> Iterator[Word]:
    """All words up to ``max_len`` in length-lexicographic order, the
    empty word first; alphabet order decides ties."""
    alphabet = tuple(alphabet)
    for length in range(max_len + 1):
        yield from product(alphabet, repeat=length)


def make_acceptor(acceptor: Acceptor, tape_cap: int = 200_000) -> Callable[[Word], bool]:
    """Uniform word-membership view of machines and predicates.

    Transducers run under their declared sweep bound, or under a budget
    of ``len(word) + 8`` sweeps for tagged bounds; an inconclusive run
    (budget exhausted with tapes left) raises instead of guessing.

    A bare nondeterministic transducer without an int bound learns a lane
    depth s, the ``min_accept_sweeps`` of its first accepted run.  Each
    later word whose budget is at least s first walks ``core.LaneNfa(t, s)``
    through ``core._run_lanes``, ``run``'s lane route, which answers where
    ``verdict`` answers its report: accepted at lane j <= s, so ``run``
    accepts at j sweeps, or ``exhausted``, so no tape s + 1 exists and
    ``run`` exhausts too.  The tape search answers the other words, and
    those on which the walk gives up at ``core._LANE_TUPLE_CAP`` tuples.
    A deterministic machine keeps the tape search: it is one chain of
    tapes, so lanes have nothing to merge, and walking them is slower (on a
    fresh ``gen_copy``, 120 random words of 7 to 21 symbols took 17.6 ms
    walked at 11 lanes against 1.7 ms on tapes, Python 3.11 on a 2-vCPU
    host).
    """
    if isinstance(acceptor, tuple):
        t, k = acceptor
    elif isinstance(acceptor, Transducer):
        t, k = acceptor, (acceptor.sweep_bound if isinstance(acceptor.sweep_bound, int) else None)
    elif isinstance(acceptor, (Nfa, Dfa)):
        return acceptor.accepts
    elif callable(acceptor):
        return acceptor
    else:
        raise MachineError(f"cannot interpret {acceptor!r} as a language acceptor")

    learns = isinstance(acceptor, Transducer) and k is None and not t.is_deterministic
    depth: Optional[int] = None

    def accepts(word: Word) -> bool:
        nonlocal depth
        sweeps = k if k is not None else len(word) + 8
        if depth is not None and sweeps >= depth:
            report = _run_lanes(t, word, depth)
            if report is not None:
                return report.accepted
        report = run(t, word, sweeps, tape_cap)
        answer = verdict(t, report, sweeps, k)
        if answer is None:
            raise OracleBudgetError(
                f"tape cap {tape_cap} hit on word of length {len(word)}" if report.cap_hit else
                f"sweep budget {sweeps} inconclusive on word of length {len(word)}"
            )
        if learns and answer and depth is None:
            depth = report.min_accept_sweeps
        return answer

    return accepts


def compare_languages(
    a: Acceptor,
    b: Acceptor,
    alphabet: Sequence[str],
    max_len: int,
    tape_cap: int = 200_000,
) -> list[Word]:
    """Words of length up to ``max_len`` on which the two acceptors
    disagree, in length-lexicographic order; empty means they agree on
    the whole budget.

    Each word is asked of ``a``, then of ``b``, so errors come out at the
    same word as with per-word calls, and a predicate sees every word.
    Answers are compared by truth value, so a predicate may answer None
    or a match object.  The walk of the module docstring answers an
    ``Nfa`` or ``Dfa`` on every word, and a transducer on every word when
    it declares an int bound, bare or in a ``(t, k)`` pair, with no tape
    budget (where a tape search would hit ``tape_cap`` and raise, the
    walk answers), else on the words its first ``_WORD_TREE_LANES`` sweeps
    (a pair's k, when smaller) decide; the words left are asked, and
    ``make_acceptor``'s learned depth may answer them by a deeper walk.
    The walk is off, and every word is asked, when the alphabet is empty
    or has a symbol outside the acceptor's (which then raises at the same
    word), when a ``(t, k)`` pair has ``k`` below 1 (``run`` never sweeps,
    or raises) or when a transducer's ``tape_cap`` is below 1 (``run``
    raises).
    """
    fa = make_acceptor(a, tape_cap=tape_cap)
    fb = make_acceptor(b, tape_cap=tape_cap)
    known_a = _known_answers(a, alphabet, max_len, tape_cap)
    known_b = _known_answers(b, alphabet, max_len, tape_cap)
    return [
        w for w, xa, xb in zip(enumerate_words(alphabet, max_len), known_a, known_b)
        if (not (fa(w) if xa is None else xa)) != (not (fb(w) if xb is None else xb))
    ]


# lanes of the word-tree walk of a machine without an int bound.  At 1 / 2 /
# 3 / 5 / 8 lanes, ``verify --lang copy --max-len 10`` leaves 3,586 / 1,284
# / 392 / 0 / 0 words to the tape search and takes 74 / 42 / 34 / 30 / 58
# ms, and ``--max-len 8`` takes 8.3 / 9.8 / 4.7 / 7.0 / 22.5 ms (medians,
# Python 3.11 on a 2-vCPU host): tuples grow with the lanes, so 5 lanes
# pay only on the larger tree, and 8 are slower than 1 on the smaller.
_WORD_TREE_LANES = 3


def _known_answers(
    acceptor: Acceptor, alphabet: Sequence[str], max_len: int, tape_cap: int
) -> Iterator[Optional[bool]]:
    """For each word in ``enumerate_words`` order, the answer the
    word-tree walk gives, or None where the acceptor must be asked (every
    word, when the walk is off).  A set of states of an automaton's
    ``_view`` answers whether one is ``accepting``.  A set of lane tuples
    answers through ``LaneNfa.report`` and ``core.verdict`` at its lane
    count: with an int bound the pair's k or that bound, else
    ``_WORD_TREE_LANES`` or the pair's k when smaller, which every budget
    covers (a bare machine's is ``len(word) + 8``).  True when accepted;
    False when exhausted or when the lanes cover the pair's k or that
    bound; None otherwise."""
    t, k = acceptor if isinstance(acceptor, tuple) else (acceptor, None)
    alphabet = tuple(alphabet)
    if isinstance(acceptor, (Nfa, Dfa)) and alphabet and acceptor.alphabet_set.issuperset(alphabet):
        n = acceptor._view
        return _walk_word_tree(n, alphabet, max_len, lambda s: any(map(n.accepting, s)))
    if not (
        isinstance(t, Transducer) and alphabet and t.input_set.issuperset(alphabet)
        and (k is None or isinstance(k, int) and k >= 1)
        and isinstance(tape_cap, int) and tape_cap >= 1
    ):
        return repeat(None)
    if isinstance(t.sweep_bound, int):
        lanes = k or t.sweep_bound
    else:
        lanes = min(k or _WORD_TREE_LANES, _WORD_TREE_LANES)
    n = LaneNfa(t, lanes)

    @cache  # a set reached from many sets answers once
    def answer(s: frozenset) -> Optional[bool]:
        return verdict(t, n.report(s), lanes, k)

    return _walk_word_tree(n, alphabet, max_len, answer)


def _walk_word_tree(
    n: LaneNfa | SimpleNamespace, alphabet: Word, max_len: int,
    answer: Callable[[frozenset], Optional[bool]],
) -> Iterator[Optional[bool]]:
    """``answer`` of the set of ``n``'s states reached on each word.  Word
    j of a level extends word j // |alphabet| of the level above by symbol
    j % |alphabet|, so each level is stepped from the one before (the last
    is not kept), through a memo that maps a set to its row: the
    successor set by ``core._set_step``, the one set step that ``run``'s
    lane route takes too, and its answer, per symbol."""
    cols = [n.alphabet.index(x) for x in alphabet]
    rows: dict[frozenset, tuple[list, list]] = {}
    level = [frozenset((n.initial,))]
    yield answer(level[0])
    for length in range(1, max_len + 1):
        keep = length < max_len
        nxt: list[frozenset] = []
        for s in level:
            row = rows.get(s)
            if row is None:
                succ = [_set_step(n, s, c) for c in cols]
                row = rows[s] = succ, list(map(answer, succ))
            yield from row[1]
            if keep:
                nxt += row[0]
        level = nxt


def compare_on_words(
    a: Acceptor, b: Acceptor, words: Iterable[Sequence[str]],
    tape_cap: int = 200_000,
) -> list[Word]:
    """Disagreements restricted to an explicit word corpus, for
    languages whose interesting members are too long to enumerate;
    answers are compared by truth value, as in ``compare_languages``.
    Every word is asked, so a bare nondeterministic machine without an int
    bound answers through ``make_acceptor``'s learned depth: on ``d:2``'s
    corpus of 1,536 words, the first member's tape search accepts at 11
    sweeps, and 11-lane walks answer every other word."""
    fa = make_acceptor(a, tape_cap=tape_cap)
    fb = make_acceptor(b, tape_cap=tape_cap)
    return [w for w in map(tuple, words) if (not fa(w)) != (not fb(w))]


def predicate_to_min_dfa(
    pred: Callable[[Sequence[str]], bool],
    alphabet: Sequence[str],
    max_len: int,
    prefix_len: Optional[int] = None,
) -> Dfa:
    """Minimal complete DFA of a regular language given only as a
    predicate, verified against the predicate on every word up to
    ``max_len``.

    States are equivalence classes of prefixes up to ``prefix_len``
    (half the budget by default), separated by distinguishing suffixes
    that are discovered by refinement: whenever two merged prefixes
    disagree one symbol later, the separating suffix is extended and the
    partition recomputed.  The class table goes to ``convert._moore`` as
    it is, which numbers the result canonically.  The caller guarantees
    the language is regular with every state reachable and
    distinguishable inside the budget; the final full-budget
    ``compare_languages`` of the DFA with the predicate turns a broken
    guarantee into a loud ``OracleBudgetError`` carrying the first
    counterexample.
    """
    alphabet = tuple(alphabet)
    if prefix_len is None:
        prefix_len = max_len // 2
    if prefix_len < 1 or prefix_len > max_len:
        raise MachineError("prefix_len must lie in 1..max_len")
    prefixes = list(enumerate_words(alphabet, prefix_len))
    cache: dict[Word, bool] = {}

    def member(w: Word) -> bool:
        v = cache.get(w)
        if v is None:
            v = cache[w] = bool(pred(w))
        return v

    suffixes: list[Word] = [()]
    for _round in range(len(prefixes) + 1):
        sig = {u: tuple(member(u + x) for x in suffixes) for u in prefixes}
        classes: dict[tuple, int] = {}
        cls = {}
        for u in prefixes:
            cls[u] = classes.setdefault(sig[u], len(classes))
        # prefer extendable representatives so transitions can be read off
        rep: dict[int, Word] = {}
        for u in prefixes:
            if len(u) < prefix_len:
                rep.setdefault(cls[u], u)
        for u in prefixes:
            rep.setdefault(cls[u], u)
        split: Optional[Word] = None
        for u in prefixes:
            if len(u) >= prefix_len:
                continue
            v = rep[cls[u]]
            if len(v) >= prefix_len or v == u:
                continue
            for a in alphabet:
                if cls[u + (a,)] != cls[v + (a,)]:
                    ua, va = sig[u + (a,)], sig[v + (a,)]
                    for i, x in enumerate(suffixes):
                        if ua[i] != va[i]:
                            split = (a,) + x
                            break
                    break
            if split:
                break
        if split is None:
            break
        suffixes.append(split)
    else:  # pragma: no cover - bounded by the class count
        raise OracleBudgetError("refinement failed to stabilize")

    # transitions are read off the last round's representatives, which
    # are extendable wherever their class has a prefix short enough
    if any(len(v) == prefix_len for v in rep.values()):
        raise OracleBudgetError(
            "some state has only maximal-length representatives; "
            "raise prefix_len"
        )
    succ = [[cls[rep[c] + (a,)] for c in range(len(rep))] for a in alphabet]
    final = [member(rep[c]) for c in range(len(rep))]
    dfa = _moore(succ, final, cls[()], alphabet)
    wrong = compare_languages(dfa, pred, alphabet, max_len)
    if wrong:
        raise OracleBudgetError(
            f"budget too small: dfa and predicate disagree on {wrong[0]!r}"
        )
    return dfa
