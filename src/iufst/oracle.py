"""Brute-force ground truth: word enumeration, language comparison up
to a length budget, minimal-DFA construction from a bare predicate, and
sweep measurement.

These are the independent checks behind every equivalence claim in the
test suite.  Budgets are data owned by the callers; whenever a budget
turns out to be too small the functions fail loudly instead of
returning a silently wrong answer.
"""

from __future__ import annotations

from collections import abc
from itertools import product
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .convert import Dfa, Nfa
from .core import DEFAULT_TAPE_CAP, MachineError, Transducer, run

Word = tuple[str, ...]
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


def make_acceptor(
    acceptor: Acceptor, sweep_budget: Optional[int] = None,
    tape_cap: int = 200_000,
) -> Callable[[Word], bool]:
    """Uniform word-membership view of machines and predicates.

    Transducers run under their declared sweep bound, or under a
    length-dependent budget for tagged bounds; an inconclusive run
    (budget exhausted with tapes left) raises instead of guessing.
    """
    if isinstance(acceptor, tuple):
        t, k = acceptor
        return make_acceptor_transducer(t, k, tape_cap)
    if isinstance(acceptor, Transducer):
        if isinstance(acceptor.sweep_bound, int):
            return make_acceptor_transducer(acceptor, acceptor.sweep_bound, tape_cap)
        return make_acceptor_transducer(acceptor, sweep_budget, tape_cap)
    if isinstance(acceptor, (Nfa, Dfa)):
        return acceptor.accepts
    if callable(acceptor):
        return acceptor
    raise MachineError(f"cannot interpret {acceptor!r} as a language acceptor")


def make_acceptor_transducer(
    t: Transducer, k: Optional[int], tape_cap: int
) -> Callable[[Word], bool]:
    def accepts(word: Word) -> bool:
        sweeps = k if k is not None else len(word) + 8
        report = run(t, word, sweeps, tape_cap)
        if report.accepted:
            return True
        if report.cap_hit:
            raise OracleBudgetError(
                f"tape cap {tape_cap} hit on word of length {len(word)}"
            )
        if k is None and not report.exhausted:
            raise OracleBudgetError(
                f"sweep budget {sweeps} inconclusive on word of length {len(word)}"
            )
        return False

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
    the whole budget."""
    fa = make_acceptor(a, tape_cap=tape_cap)
    fb = make_acceptor(b, tape_cap=tape_cap)
    return [w for w in enumerate_words(alphabet, max_len) if fa(w) != fb(w)]


def compare_on_words(
    a: Acceptor, b: Acceptor, words: Iterable[Sequence[str]],
    tape_cap: int = 200_000,
) -> list[Word]:
    """Disagreements restricted to an explicit word corpus, for
    languages whose interesting members are too long to enumerate."""
    fa = make_acceptor(a, tape_cap=tape_cap)
    fb = make_acceptor(b, tape_cap=tape_cap)
    return [tuple(w) for w in words if fa(tuple(w)) != fb(tuple(w))]


def min_accept_sweeps(
    t: Transducer, word: Sequence[str], cap: int,
    tape_cap: int = DEFAULT_TAPE_CAP,
) -> Optional[int]:
    """Minimum sweep count of an accepting run, or None within the cap."""
    report = run(t, word, cap, tape_cap)
    return report.min_accept_sweeps


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
    partition recomputed.  The caller guarantees the language is regular
    with every state reachable and distinguishable inside the budget;
    the final full-budget sweep turns a broken guarantee into a loud
    ``OracleBudgetError`` carrying a counterexample.
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

    # Transitions from any representative prefix short enough to extend.
    n_classes = len({cls[u] for u in prefixes})
    trans_rep: dict[int, Word] = {}
    for u in prefixes:
        if len(u) < prefix_len:
            trans_rep.setdefault(cls[u], u)
    if len(trans_rep) < n_classes:
        raise OracleBudgetError(
            "some state has only maximal-length representatives; "
            "raise prefix_len"
        )
    names = {c: f"s{c}" for c in range(n_classes)}
    transitions = {
        (names[c], a): names[cls[trans_rep[c] + (a,)]]
        for c in range(n_classes)
        for a in alphabet
    }
    dfa = Dfa(
        states=tuple(names[c] for c in range(n_classes)),
        alphabet=alphabet,
        initial=names[cls[()]],
        accepting=tuple(names[c] for c in range(n_classes) if member(trans_rep[c])),
        transitions=transitions,
    )
    from .convert import dfa_minimize

    dfa = dfa_minimize(dfa)
    witness = _verify_dfa_against_pred(dfa, pred, alphabet, max_len)
    if witness is not None:
        raise OracleBudgetError(
            f"budget too small: dfa and predicate disagree on {witness!r}"
        )
    return dfa


def _verify_dfa_against_pred(
    dfa: Dfa, pred: Callable[[Sequence[str]], bool],
    alphabet: Sequence[str], max_len: int,
) -> Optional[Word]:
    """Depth-first sweep of the whole word tree, threading the DFA state
    so each node costs one table lookup plus one predicate call."""
    if not dfa.is_complete:
        raise MachineError("verification requires a complete DFA")
    idx = {q: i for i, q in enumerate(dfa.states)}
    sym_ix = {a: j for j, a in enumerate(alphabet)}
    width = len(alphabet)
    table = [0] * (len(dfa.states) * width)
    for (q, a), r in dfa.transitions.items():
        table[idx[q] * width + sym_ix[a]] = idx[r]
    accepting = [q in dfa.accepting_set for q in dfa.states]
    word: list[str] = []
    if accepting[idx[dfa.initial]] != bool(pred(())):
        return ()
    # stack entries: (state, next symbol index to try at this depth)
    stack: list[tuple[int, int]] = [(idx[dfa.initial], 0)]
    while stack:
        state, j = stack[-1]
        if j >= width or len(word) >= max_len:
            stack.pop()
            if word:
                word.pop()
            continue
        stack[-1] = (state, j + 1)
        nxt = table[state * width + j]
        word.append(alphabet[j])
        if accepting[nxt] != bool(pred(tuple(word))):
            return tuple(word)
        stack.append((nxt, 0))
    return None
