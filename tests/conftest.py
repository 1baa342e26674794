import pytest

from iufst import (
    Dfa,
    Nfa,
    gen_block,
    gen_block_nfa,
    gen_copy,
    gen_d,
    gen_e,
    gen_uexpo,
    gen_unary,
    sweep_reduce,
)
from iufst.core import _shortest_word
from iufst.witness import bin_lsb


def reference_nfa(t, k):
    """The NFA of a machine with declared constant sweep bound k, read
    off its one-sweep reduction ``sweep_reduce(t, k, k)`` instead of
    rendered from ``LaneNfa`` as ``to_nfa`` is, so that answers of the
    lane NFA have an independent reference.

    The states are every tuple the reduction reaches over all symbols,
    some of them unreachable on input symbols; the transitions are the
    reduction's input moves, successors deduplicated in choice order.
    A state accepts when one endmarker step from it can reach a tuple
    holding an accepting original state.
    """
    reduced = sweep_reduce(t, k, k)
    end = reduced.endmarker
    reduced_acc = reduced.accepting_set
    accepting = tuple(
        q for q in reduced.states
        if any(r in reduced_acc for r, _y in reduced.transitions.get((q, end), ()))
    )
    transitions = {
        (q, x): tuple(dict.fromkeys(r for r, _y in choices))
        for (q, x), choices in reduced.transitions.items()
        if x in reduced.input_set
    }
    return Nfa(
        states=reduced.states,
        alphabet=reduced.input_alphabet,
        initial=reduced.initial,
        accepting=accepting,
        transitions=transitions,
        meta=dict(reduced.meta),
    )


def _dfa_edges(d):
    """Successor function of a (possibly partial) DFA for ``_bfs``."""
    return lambda q: [
        (d.transitions[(q, x)], x) for x in d.alphabet if (q, x) in d.transitions
    ]


def dfa_complement(d):
    """The complete DFA of the words ``d`` rejects, over its alphabet: a
    slow reference for the antichain searches of ``decide``."""
    assert d.is_complete
    return Dfa(
        states=d.states,
        alphabet=d.alphabet,
        initial=d.initial,
        accepting=tuple(q for q in d.states if q not in d.accepting_set),
        transitions=d.transitions,
    )


def dfa_shortest_accepted(d):
    """Length-lexicographically first accepted word, or None if L is empty."""
    return _shortest_word((d.initial,), _dfa_edges(d), d.accepting_set.__contains__)


def dfa_difference_witness(d1, d2):
    """Length-lexicographically first word ``d1`` accepts and ``d2``
    rejects, or None: a search over pairs of states of two complete DFAs
    on the same symbols, in ``d1``'s alphabet order."""
    assert d1.is_complete and d2.is_complete and set(d1.alphabet) == set(d2.alphabet)
    t1, t2 = d1.transitions, d2.transitions
    return _shortest_word(
        [(d1.initial, d2.initial)],
        lambda pq: [((t1[(pq[0], x)], t2[(pq[1], x)]), x) for x in d1.alphabet],
        lambda pq: pq[0] in d1.accepting_set and pq[1] not in d2.accepting_set,
    )


# Per-symbol references for the predicates of ``iufst.witness``, which
# read the whole word at once: one Python step per symbol, written
# straight from each language's definition.


def reference_in_unary(n, k, w):
    return all(a == "a" for a in w) and len(w) % (n**k) == 0


def reference_in_e(n, k, w):
    period = n**k
    m = len(w)
    for i, sym in enumerate(w):
        if sym == "b" and (m - i) % period == 0 and m - i >= period:
            return True
    return False


def reference_in_block(k, w):
    blocks = [[]]
    for sym in w:
        if sym == "#":
            blocks.append([])
        elif sym in ("0", "1"):
            blocks[-1].append(sym)
        else:
            return False
    if len(blocks) < 2 or any(len(b) != k for b in blocks):
        return False
    return blocks[-1] in blocks[:-1]


def reference_in_copy(w):
    text = list(w)
    if text.count("$") != 1:
        return False
    i = text.index("$")
    return text[:i] == text[i + 1 :]


def reference_in_uexpo(w):
    m = len(w)
    return m >= 1 and all(a == "a" for a in w) and (m & (m - 1)) == 0


def reference_in_d(w):
    text = list(w)
    k = 0
    while k < len(text) and text[k] == "a":
        k += 1
    if k < 2:
        return False
    pos = k
    b = 0
    while pos < len(text) and text[pos] == "b":
        pos += 1
        b += 1
    if b != 2**k:
        return False
    entries = []
    for _ in range(2**k + 1):
        bin_part = tuple(text[pos : pos + k])
        pos += k
        pay = tuple(text[pos : pos + k])
        pos += k
        if len(bin_part) != k or len(pay) != k:
            return False
        if any(c not in ("0", "1") for c in bin_part):
            return False
        if any(c not in ("a", "b") for c in pay):
            return False
        entries.append((bin_part, pay))
    if pos != len(text):
        return False
    for j in range(2**k):
        if entries[j][0] != bin_lsb(j, k):
            return False
    return any(entries[i] == entries[-1] for i in range(1, 2**k))


@pytest.fixture(scope="session")
def d_machine():
    return gen_d()


@pytest.fixture(scope="session")
def block2():
    return gen_block(2)


@pytest.fixture(scope="session")
def block_nfa2():
    return gen_block_nfa(2)


@pytest.fixture(scope="session")
def copy_machine():
    return gen_copy()


@pytest.fixture(scope="session")
def uexpo_machine():
    return gen_uexpo()


@pytest.fixture(scope="session")
def e21():
    return gen_e(2, 1)


@pytest.fixture(scope="session")
def e22():
    return gen_e(2, 2)


@pytest.fixture(scope="session")
def unary22():
    return gen_unary(2, 2)
