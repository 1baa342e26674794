"""Generators for the concrete machine families used throughout the
test suite, plus the reference predicates that serve as ground truth for
every oracle comparison.

Each predicate reads the whole word with C-level ``str`` and ``tuple``
operations rather than a Python step per symbol:

* ``in_block`` joins the word into one string (answering False unless
  every symbol is one character) and full-matches a pattern compiled
  once per k;
* ``in_copy`` compares the two halves of ``tuple(w)`` around its middle;
* ``in_d`` first derives the only block width k the word's length
  allows, then full-matches the joined word against a pattern compiled
  once per k and compares the repeated entry by slicing;
* ``in_e`` looks for a ``b`` in one stepped slice, and ``in_unary`` and
  ``in_uexpo`` test the length before counting ``a``'s.

``tests/conftest.py`` keeps the per-symbol loops they replaced as slow
references, and the tests compare the two on every enumerated word.

Families:

* ``gen_block(k)``      nondeterministic k-sweep machine for the block
                        language: words ``u1#u2#...#um`` of k-bit blocks
                        where the last block equals some earlier one.
* ``gen_block_nfa(k)``  the classical NFA for the same language, with
                        exactly ``2^(k+1) * (k+2)`` states.
* ``gen_unary(n, k)``   deterministic n-state k-sweep machine for the
                        unary language of word lengths divisible by n^k.
* ``gen_e(n, k)``       nondeterministic (n+1)-state k-sweep machine for
                        words ``u b v`` where ``|v| = c*n^k - 1``, c > 0.
* ``gen_copy()``        deterministic machine for words ``u$u``.
* ``gen_uexpo()``       deterministic machine for unary words of
                        power-of-two length.
* ``gen_d()``           nondeterministic machine, logarithmic sweeps,
                        for the indexed-directory language (see
                        ``in_d``).
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import product
from typing import Sequence

from .convert import Nfa
from .core import MachineError, Transducer, Word, materialize, renderer


# ---------------------------------------------------------------------------
# unary counting family


def gen_unary(n: int, k: int) -> Transducer:
    """n-state deterministic k-sweep acceptor of {a^(c * n^k) | c >= 0}.

    Counter states track the number of unmarked a's modulo n; each sweep
    keeps every n-th unmarked a and marks the rest, so the unmarked
    count divides by n per sweep.  Reading the sweep-indexed endmarker
    in the zero state advances its index; on the last index the machine
    moves to the designated accepting counter state.  A nonzero residue
    at the endmarker leaves the machine stuck, rejecting.
    """
    if n < 2 or k < 1:
        raise MachineError("gen_unary requires n >= 2 and k >= 1")
    states = tuple(f"q{r}" for r in range(n))
    marks = tuple(f"<{j}" for j in range(k))
    trans: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {}
    for r in range(n):
        if r + 1 == n:
            trans[(f"q{r}", "a")] = (("q0", "a"),)
        else:
            trans[(f"q{r}", "a")] = ((f"q{r+1}", "a'"),)
        trans[(f"q{r}", "a'")] = ((f"q{r}", "a'"),)
    for j in range(k - 1):
        trans[("q0", f"<{j}")] = (("q0", f"<{j+1}"),)
    trans[("q0", f"<{k-1}")] = ((f"q{n-1}", f"<{k-1}"),)
    return Transducer(
        states=states,
        input_alphabet=("a",),
        output_alphabet=("a", "a'") + marks,
        endmarker="<0",
        initial="q0",
        accepting=(f"q{n-1}",),
        transitions=trans,
        sweep_bound=k,
    )


def in_unary(n: int, k: int, w: Sequence[str]) -> bool:
    return len(w) % (n**k) == 0 and w.count("a") == len(w)


# ---------------------------------------------------------------------------
# suffix-length family


def gen_e(n: int, k: int) -> Transducer:
    """(n+1)-state k-sweep nondeterministic acceptor of words u b v with
    |v| = c * n^k - 1 for some c > 0.

    Sweep 1 blanks the prefix in the initial state, guessing on every b
    whether it separates u from v; from the guessed b on, the rest of
    the input is rewritten as consecutive blocks 1 2 .. n, checking
    divisibility by n.  Each later sweep rewrites n old blocks into one
    longer block, multiplying the checked divisor by n; the endmarker
    index counts the sweeps.  Acceptance happens on the final endmarker
    index only, hence at sweep k exactly.
    """
    if n < 2 or k < 1:
        raise MachineError("gen_e requires n >= 2 and k >= 1")
    digits = tuple(str(i) for i in range(1, n + 1))
    bar = f"{n}~"
    marks = tuple(f"<{j}" for j in range(k))
    blank = "_"
    trans: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {}
    trans[("q0", "a")] = (("q0", blank),)
    trans[("q0", blank)] = (("q0", blank),)
    trans[("q0", "b")] = (("q0", blank), ("q2", "1"))
    for i in range(1, n):
        for x in ("a", "b", str(n)):
            trans[(f"q{i}", x)] = ((f"q{i+1}", str(i)),)
    for x in ("a", "b", str(n)):
        trans[(f"q{n}", x)] = (("q1", str(n)),)
    for j in range(k - 1):
        trans[("q1", f"<{j}")] = (("q0", f"<{j+1}"),)
    trans[("q0", "1")] = (("q1", "1"),)
    small = tuple(str(i) for i in range(1, n)) + (bar,)
    for i in range(1, n):
        for x in small:
            trans[(f"q{i}", x)] = ((f"q{i}", str(i)),)
    for x in small:
        trans[(f"q{n}", x)] = ((f"q{n}", bar),)
    trans[("q1", f"<{k-1}")] = ((f"q{n}", f"<{k-1}"),)
    return Transducer(
        states=tuple(f"q{i}" for i in range(n + 1)),
        input_alphabet=("a", "b"),
        output_alphabet=("a", "b", blank) + digits + (bar,) + marks,
        endmarker="<0",
        initial="q0",
        accepting=(f"q{n}",),
        transitions=trans,
        sweep_bound=k,
    )


def in_e(n: int, k: int, w: Sequence[str]) -> bool:
    # the b sits c * n^k symbols before the end for some c >= 1
    period = n**k
    m = len(w)
    return m >= period and "b" in w[m - period :: -period]


# ---------------------------------------------------------------------------
# block language


def gen_block(k: int) -> Transducer:
    """k-sweep nondeterministic acceptor of the block language with a
    state count linear in k.

    Sweep 1 checks the block structure, nondeterministically picks an
    earlier block plus the last block, compares and blanks their first
    symbols, and flags the first tape cell so later sweeps know a choice
    was made.  Sweep j finds both chosen blocks by their blank prefixes
    and compares their j-th symbols; the sweep that blanks the chosen
    blocks' final symbols accepts at the endmarker, so every accepting
    computation takes exactly k sweeps.
    """
    if k < 2:
        raise MachineError("gen_block requires k >= 2")
    bits = ("0", "1")

    def delta(state, tok):
        kind = state[0]
        if kind == "q0":
            if tok in bits:
                return [(("A", 1), tok + "f"), (("C", tok, 1), "_f")]
            if tok in ("0f", "1f"):
                return [(("S0",), tok)]
            if tok == "_f":
                return [(("Sk1",), tok)]
            return []
        if kind == "A":
            p = state[1]
            if tok not in bits:
                return []
            if p == 0:
                return [(("A", 1), tok), (("C", tok, 1), "_")]
            if p < k - 1:
                return [(("A", p + 1), tok)]
            return [(("Asep",), tok)]
        if kind == "Asep":
            return [(("A", 0), "#")] if tok == "#" else []
        if kind == "C":
            s, p = state[1], state[2]
            if tok not in bits:
                return []
            if p == 0:
                out = [(("C", s, 1), tok)]
                if tok == s:
                    out.append((("D", 1), "_"))
                return out
            if p < k - 1:
                return [(("C", s, p + 1), tok)]
            return [(("Csep", s), tok)]
        if kind == "Csep":
            return [(("C", state[1], 0), "#")] if tok == "#" else []
        if kind == "D":
            p = state[1]
            if tok not in bits:
                return []
            if p < k - 1:
                return [(("D", p + 1), tok)]
            return [(("Dend",), tok)]
        if kind == "Dend":
            return [(("Vscan",), "<")] if tok == "<" else []
        if kind == "S0":
            if tok in bits or tok == "#":
                return [(("S0",), tok)]
            return [(("Sk1",), "_")] if tok == "_" else []
        if kind == "Sk1":
            if tok == "_":
                return [(("Sk1",), "_")]
            return [(("W", tok), "_")] if tok in bits else []
        if kind == "W":
            t = state[1]
            if tok in bits:
                return [(("Car", t, False), tok)]
            return [(("Car", t, True), "#")] if tok == "#" else []
        if kind == "Car":
            t, last = state[1], state[2]
            if tok in bits or tok == "#":
                return [(state, tok)]
            return [(("Sk2", t, last), "_")] if tok == "_" else []
        if kind == "Sk2":
            t, last = state[1], state[2]
            if tok == "_":
                return [(state, "_")]
            if tok == t:
                return [((("Vlast",) if last else ("Vscan",)), "_")]
            return []
        if kind == "Vscan":
            if tok in bits or tok == "#" or tok == "<":
                return [(("Vscan",), tok)]
            return []
        if kind == "Vlast":
            return [(("ACC",), "<")] if tok == "<" else []
        return []

    symbols = ("0", "1", "#", "_", "0f", "1f", "_f", "<")
    return materialize(
        start=("q0",),
        moves=lambda state: [(x, p, y) for x in symbols for p, y in delta(state, x)],
        input_alphabet=("0", "1", "#"),
        output_alphabet=symbols,
        endmarker="<",
        accepting=lambda s: s == ("ACC",),
        name_of=renderer("-", ("", "")),
        sweep_bound=k,
        meta={"state_envelope": (4, 19)},
    )


def gen_block_nfa(k: int) -> Nfa:
    """Two-phase NFA for the block language, 2^(k+1) * (k+2) states.

    Phase one stores each block in the finite control and guesses
    whether to keep it (2^(k+1) states counting the initial one).
    Phase two re-checks the block structure while guessing the block to
    match symbol by symbol against the kept one, accepting exactly when
    the matched block ends the word (2^(k+1) * (k+1) states).
    """
    if k < 2:
        raise MachineError("gen_block_nfa requires k >= 2")
    bits = ("0", "1")
    prefixes = [
        "".join(w) for length in range(k + 1) for w in product(bits, repeat=length)
    ]
    blocks = ["".join(w) for w in product(bits, repeat=k)]
    states = ["I"] + [f"P{p}" for p in prefixes]
    for x in blocks:
        states += [f"S{x}.{p}" for p in range(k)]
        states.append(f"Ssep{x}")
        states += [f"M{x}.{q}" for q in range(k)]
        states.append(f"F{x}")
    trans: dict[tuple[str, str], tuple[str, ...]] = {}

    def add(q, a, r):
        trans[(q, a)] = trans.get((q, a), ()) + (r,)

    for t in bits:
        add("I", t, f"P{t}")
    for p in prefixes:
        if len(p) < k:
            for t in bits:
                add(f"P{p}", t, f"P{p}{t}")
        else:
            add(f"P{p}", "#", "P")
            add(f"P{p}", "#", f"S{p}.0")
            add(f"P{p}", "#", f"M{p}.0")
    for x in blocks:
        for pos in range(k - 1):
            for t in bits:
                add(f"S{x}.{pos}", t, f"S{x}.{pos+1}")
        for t in bits:
            add(f"S{x}.{k-1}", t, f"Ssep{x}")
        add(f"Ssep{x}", "#", f"S{x}.0")
        add(f"Ssep{x}", "#", f"M{x}.0")
        for pos in range(k - 1):
            add(f"M{x}.{pos}", x[pos], f"M{x}.{pos+1}")
        add(f"M{x}.{k-1}", x[k - 1], f"F{x}")
    return Nfa(
        states=tuple(states),
        alphabet=("0", "1", "#"),
        initial="I",
        accepting=tuple(f"F{x}" for x in blocks),
        transitions=trans,
    )


@lru_cache(maxsize=16)
def _block_pattern(k: int) -> re.Pattern:
    block = f"[01]{{{k}}}"
    return re.compile(rf"(?:{block}#)*({block})#(?:{block}#)*\1")


def in_block(k: int, w: Sequence[str]) -> bool:
    text = "".join(w)
    # a member holds at least two blocks of k bits; equal lengths and no
    # empty symbol: every symbol is one character
    if len(text) != len(w) or not 0 <= 2 * k < len(text):
        return False
    return _block_pattern(k).fullmatch(text) is not None and "" not in w


# ---------------------------------------------------------------------------
# copy language with center marker


def gen_copy() -> Transducer:
    """Deterministic acceptor of u$u; one symbol pair checked per sweep.

    Each sweep marks the leftmost unmarked symbol on both sides of $ and
    compares them, holding the left symbol in the finite control across
    the marker.  Once the left side is exhausted the right side must be
    too, and the machine accepts at the endmarker; a word u$u therefore
    takes |u| + 1 sweeps.
    """
    alphabet = ("a", "b")
    marked = {t: t + "'" for t in alphabet}
    trans: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {}
    for t in alphabet:
        trans[("q0", marked[t])] = (("q0", marked[t]),)
        trans[("q0", t)] = ((f"L{t}", marked[t]),)
    trans[("q0", "$")] = (("Rz", "$"),)
    for t in alphabet:
        for u in alphabet:
            trans[(f"L{t}", u)] = ((f"L{t}", u),)
        trans[(f"L{t}", "$")] = ((f"R{t}", "$"),)
        for u in alphabet:
            trans[(f"R{t}", marked[u])] = ((f"R{t}", marked[u]),)
        trans[(f"R{t}", t)] = (("Rp", marked[t]),)
    for u in alphabet:
        trans[("Rp", u)] = (("Rp", u),)
        trans[("Rz", marked[u])] = (("Rz", marked[u]),)
    trans[("Rp", "<")] = (("q0", "<"),)
    trans[("Rz", "<")] = (("ACC", "<"),)
    return Transducer(
        states=("q0",)
        + tuple(f"L{t}" for t in alphabet)
        + tuple(f"R{t}" for t in alphabet)
        + ("Rp", "Rz", "ACC"),
        input_alphabet=alphabet + ("$",),
        output_alphabet=alphabet + tuple(marked[t] for t in alphabet) + ("$", "<"),
        endmarker="<",
        initial="q0",
        accepting=("ACC",),
        transitions=trans,
        sweep_bound="linear",
    )


def in_copy(w: Sequence[str]) -> bool:
    text = tuple(w)
    i = len(text) // 2
    return (len(text) % 2 == 1 and text[i] == "$" and text.count("$") == 1
            and text[:i] == text[i + 1 :])


# ---------------------------------------------------------------------------
# unary powers of two


def gen_uexpo() -> Transducer:
    """Deterministic acceptor of a^(2^j), j >= 0.

    Every sweep marks every second unmarked a, halving the unmarked
    count, which must stay even until exactly one or two remain (then
    one survives and the machine accepts).  Odd counts above one leave
    the machine stuck at the endmarker.
    """
    trans: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {
        ("z", "a"): (("o1", "a"),),
        ("o1", "a"): (("e2", "a'"),),
        ("e2", "a"): (("o3", "a"),),
        ("o3", "a"): (("e4", "a'"),),
        ("e4", "a"): (("o3", "a"),),
        ("o1", "<"): (("ACC", "<"),),
        ("e2", "<"): (("ACC", "<"),),
        ("e4", "<"): (("z", "<"),),
    }
    for s in ("z", "o1", "e2", "o3", "e4"):
        trans[(s, "a'")] = ((s, "a'"),)
    return Transducer(
        states=("z", "o1", "e2", "o3", "e4", "ACC"),
        input_alphabet=("a",),
        output_alphabet=("a", "a'", "<"),
        endmarker="<",
        initial="z",
        accepting=("ACC",),
        transitions=trans,
        sweep_bound="log",
    )


def in_uexpo(w: Sequence[str]) -> bool:
    m = len(w)
    return m >= 1 and (m & (m - 1)) == 0 and w.count("a") == m


# ---------------------------------------------------------------------------
# indexed directory language


def bin_lsb(j: int, k: int) -> Word:
    """k-bit binary of j, least significant digit first."""
    return tuple(str((j >> t) & 1) for t in range(k))


def d_word(k: int, payloads: Sequence[Sequence[str]], i: int) -> Word:
    """Build a directory word: a^k b^(2^k), all indexed entries in
    ascending order, then entry i repeated."""
    if not 1 <= i <= 2**k - 1 or len(payloads) != 2**k:
        raise ValueError("need 2^k payloads and 1 <= i <= 2^k - 1")
    w: list[str] = ["a"] * k + ["b"] * (2**k)
    for j, u in enumerate(payloads):
        w += list(bin_lsb(j, k)) + list(u)
    w += list(bin_lsb(i, k)) + list(payloads[i])
    return tuple(w)


# the block width k of the directory words of each length; no sequence
# reaches the length of width 64
_D_WIDTH = {k + 2**k + (2**k + 1) * 2 * k: k for k in range(2, 64)}


@lru_cache(maxsize=16)
def _d_pattern(k: int) -> re.Pattern:
    # a^k b^(2^k), every entry bin(j) u_j in order, then a last entry whose
    # index is captured
    pay = f"[ab]{{{k}}}"
    entries = "".join("".join(bin_lsb(j, k)) + pay for j in range(2**k))
    return re.compile(f"a{{{k}}}b{{{2**k}}}{entries}([01]{{{k}}}){pay}")


def in_d(w: Sequence[str]) -> bool:
    """Directory language: a^k b^(2^k) bin(0) u_0 ... bin(2^k-1)
    u_(2^k-1) bin(i) u_i, with k >= 2, payloads u_j in {a,b}^k, indices
    written least-significant-digit first, and 1 <= i <= 2^k - 1.

    The word's length fixes k, so a word of any other length is rejected
    before it is read."""
    k = _D_WIDTH.get(len(w))
    if k is None:
        return False
    text = "".join(w)
    if len(text) != len(w):
        return False
    match = _d_pattern(k).fullmatch(text)
    # equal lengths and no empty symbol: every symbol is one character
    if match is None or "" in w:
        return False
    i = int(match[1][::-1], 2)
    entry = k + 2**k + 2 * k * i
    return i >= 1 and text[entry : entry + 2 * k] == text[-2 * k :]


_BITS = ("0", "1")
_AB = ("a", "b")
_T2 = ("a", "b", "0", "1", "-")
_END = ("end",)
# the modes of gen_d's shifting sweeps (marking, waiting, the adder) and of
# its guess and comparison sweeps, as ``delta`` groups them
_SHIFT_MODES = frozenset(("m", "mbn", "mbf", "mblk", "sh", "shx", "ad", "add",
                          "adpay", "adfin", "adskip", "adskpay"))
_GUESS_MODES = frozenset(("g", "c", "gbin", "gpay", "gpfin", "gfbin", "gfpay", "gdone"))


def _cell(base: str, m1=False, sel=False, m2=False, t2="-") -> tuple:
    return ("cell", base, m1, sel, m2, t2)


def _c0(phase: str, m1: bool, t2: str) -> tuple:
    return ("c0", phase, m1, t2)


def _prefix_region(region: str, base: str, m1: bool, pay: str) -> str | None:
    """Next region of the walk a^k -> b^(2^k) -> index 0 -> first payload
    (region ``pay``) on reading a cell of ``base``; None where the walk
    is stuck.  An ``a`` passes only when ``m1`` is true.  The exit at the
    first index bit after the payload is left to the caller."""
    if region == "a":
        if base == "a" and m1:
            return "a"
        if base == "b":
            return "b"
    elif region == "b":
        if base == "b":
            return "b"
        if base == "0":
            return "z"
    elif region == "z":
        if base == "0":
            return "z"
        if base in _AB:
            return pay
    elif region == pay and base in _AB:
        return pay
    return None


def _tail(mode: str, base: str, names: tuple[str, str, str]) -> str | None:
    """Next mode of the walk from the payload of the all-ones entry
    (``names[0]``) across the index (``names[1]``) and payload
    (``names[2]``) of the repeated entry that ends the word; None where
    the walk is stuck."""
    fin, index, pay = names
    if mode == fin:
        return fin if base in _AB else index
    if mode == index:
        return index if base in _BITS else pay
    return pay if base in _AB else None


def _d_name(sym: tuple) -> str:
    """Token of a gen_d symbol: ("raw", c), the endmarker ``_END``, a cell or a cell-0 tuple."""
    if sym[0] == "raw":
        return sym[1]
    if sym == _END:
        return "<"
    if sym[0] == "c0":
        _, phase, m1, t2 = sym
        return f"@{phase}a{'*' if m1 else ''}/{t2}"
    _, base, m1, sel, m2, t2 = sym
    return f"{base}{'*' if m1 else ''}{'!' if sel else ''}{'=' if m2 else ''}/{t2}"


def gen_d() -> Transducer:
    """Log-sweep nondeterministic acceptor of the directory language.

    Sweep 1 copies the input onto a second track and checks the coarse
    shape.  The next 2k sweeps mark one leading a, halve the unmarked
    b's, and mark the leftmost unmarked symbol of every index and
    payload block (pinning all block lengths to k and the b-run to 2^k)
    while shifting the second track right one cell per sweep.  Once the
    shifted track aligns every index under its successor's position,
    which is detectable locally at the first inner index boundary, that
    sweep instead adds one to each shifted index on the fly and compares
    it with the index above, verifying the ascending counter; the
    all-ones index marks the final entry, which is exempt from the check
    and must be the last.  One sweep then guesses which entry the final
    one repeats, and 2k comparison sweeps match the guessed entry
    against the final entry symbol by symbol.  Accepting computations
    take exactly (1 + k + k + 1 + 2k) + 1 sweeps; the extra sweep is the
    separate guess sweep.

    Two tape regions are crossed the same way by several sweep types.
    The prefix a^k b^(2^k) bin(0) u_0 is walked by the waiting sweeps,
    the adder, the guess sweep and the comparison sweeps alike
    (``_prefix_region``); each starts its own work at the first index
    bit after u_0.  The tail u_(2^k-1) bin(i) u_i, from the payload of
    the all-ones entry to the end of the word, is walked alike by the
    adder once its count is done and by a guess sweep that passed every
    entry without guessing (``_tail``).
    """

    def delta(state, p):
        mode = state[0]

        # sweep-type dispatch at cell 0 -----------------------------------
        if mode == "q0":
            if p[0] == "raw" and p[1] == "a":
                return [(("s1", "a1"), _c0("C", False, "a"))]
            if p[0] == "c0":
                _, phase, m1, t2 = p
                if phase == "C":
                    if not m1:
                        return [(("m", "awatch", t2), _c0("C", True, "-"))]
                    return [
                        (("m", "aseek", t2), _c0("C", True, "-")),
                        (("sh", "a", t2), _c0("C", True, "-")),
                        (("ad", "a", t2), _c0("D", True, "-")),
                    ]
                if phase == "D":
                    return [(("g", "a"), _c0("P", m1, t2))]
                if phase == "P":
                    return [(("c", "a"), _c0("P", m1, t2))]
            return []

        # sweep 1: structure check and track split ------------------------
        if mode == "s1":
            region = state[1]
            if p[0] == "raw":
                ch = p[1]
                nxt = {
                    ("a1", "a"): "a2",
                    ("a2", "a"): "a2",
                    ("a2", "b"): "b",
                    ("b", "b"): "b",
                    ("b", "0"): "z",
                    ("z", "0"): "z",
                    ("z", "a"): "p0",
                    ("z", "b"): "p0",
                    ("p0", "a"): "p0",
                    ("p0", "b"): "p0",
                    ("p0", "0"): "bin",
                    ("p0", "1"): "bin",
                    ("bin", "0"): "bin",
                    ("bin", "1"): "bin",
                    ("bin", "a"): "pay",
                    ("bin", "b"): "pay",
                    ("pay", "a"): "pay",
                    ("pay", "b"): "pay",
                    ("pay", "0"): "bin",
                    ("pay", "1"): "bin",
                }.get((region, ch))
                if nxt is None:
                    return []
                return [(("s1", nxt), _cell(ch, t2=ch))]
            if p[0] == "end" and region == "pay":
                return [(("fin",), _END)]
            return []

        # shifting sweeps (marking, waiting, and the adder) ----------------
        if mode in _SHIFT_MODES:
            carry = state[-1]
            if p[0] == "end":
                return _shift_end(state)
            _, base, m1, sel, m2, t2 = p

            def w(m1=m1):
                return _cell(base, m1, sel, m2, carry)

            def go(*core):
                return core + (t2,)

            if mode == "m":
                sub = state[1]
                if sub == "aseek":
                    if base == "a" and m1:
                        return [(go("m", "aseek"), w())]
                    if base == "a":
                        return [(go("m", "awatch"), w(m1=True))]
                    return []
                if sub == "awatch":
                    if base == "a" and not m1:
                        return [(go("m", "apass"), w())]
                    if base == "b":
                        return _b_step(True, 0, p, carry)
                    return []
                if base == "a" and not m1:  # sub == "apass"
                    return [(go("m", "apass"), w())]
                if base == "b":
                    return _b_step(False, 0, p, carry)
                return []
            if mode == "mbn":
                if base == "b":
                    return _b_step(False, state[1], p, carry)
                if base == "0" and state[1] == 0:
                    return _blk_step(False, "bin", p, carry)
                return []
            if mode == "mbf":
                if base == "b":
                    return _b_step(True, state[1], p, carry)
                if base == "0" and state[1] == 2:
                    return _blk_step(True, "bin", p, carry)
                return []
            if mode == "mblk":
                final, kind, got, just = state[1], state[2], state[3], state[4]
                same = (base in _BITS) == (kind == "bin")
                if same:
                    if just and final:
                        return []
                    if m1 or got:
                        return [(go("mblk", final, kind, got, False), w())]
                    return [(go("mblk", final, kind, True, True), w(m1=True))]
                if not got:
                    return []
                nk = "pay" if kind == "bin" else "bin"
                return _blk_step(final, nk, p, carry)

            if mode in ("sh", "ad"):
                region = state[1]
                if region == "p" and base in _BITS:
                    aligned = carry in _AB and t2 in _BITS
                    if mode == "sh":
                        return [] if aligned else [(go("shx"), w())]
                    return _add_step(1, True, p, carry) if aligned else []
                nxt = _prefix_region(region, base, m1, "p")
                return [(go(mode, nxt), w())] if nxt else []
            if mode == "shx":
                return [(go("shx"), w())]

            if mode == "add":
                c, all1 = state[1], state[2]
                if base in _BITS:
                    return _add_step(c, all1, p, carry)
                if c != 0:  # base in _AB
                    return []
                if all1:
                    return [(go("adfin"), w())]
                return [(go("adpay"), w())]
            if mode == "adpay":
                if base in _AB:
                    return [(go("adpay"), w())]
                return _add_step(1, True, p, carry)  # base in _BITS
            nxt = _tail(mode, base, ("adfin", "adskip", "adskpay"))
            return [(go(nxt), w())] if nxt else []

        # guess and comparison sweeps ----------------------------------------
        if mode in _GUESS_MODES:
            if p[0] == "end":
                return [(("fin",), _END)] if mode == "gdone" else []
            base = p[1]
            if mode in ("g", "c"):
                region = state[1]
                if region == "p0" and base in _BITS:
                    if mode == "g":
                        return _guess_point(p)
                    return _cmp_entry(("seek",), ("bin", base == "1"), p, True)
                nxt = _prefix_region(region, base, True, "p0")
                return [((mode, nxt), p)] if nxt else []
            if mode == "gdone":
                return [(("gdone",), p)]
            if mode == "gbin":
                all1 = state[1]
                if base in _BITS:
                    return [(("gbin", all1 and base == "1"), p)]
                return [((("gpfin",) if all1 else ("gpay",)), p)]
            if mode == "gpay":
                if base in _AB:
                    return [(("gpay",), p)]
                return _guess_point(p)
            nxt = _tail(mode, base, ("gpfin", "gfbin", "gfpay"))
            return [((nxt,), p)] if nxt else []
        a_state, b_state = state[1], state[2]  # mode == "cs"
        if p[0] == "end":
            if a_state == ("done",):
                return [(("fin",), _END)]
            if a_state == ("accarm",):
                return [(("ACC",), _END)]
            return []
        return _cmp_cell(a_state, b_state, p)

    def _shift_end(state):
        # A shifting sweep reaching the endmarker: the marking sweeps
        # must have completed their per-block checks (handled in mblk;
        # state[3] says the last block had a cell marked), waiting sweeps
        # and the adder end here as well.
        mode = state[0]
        if mode in ("shx", "adskpay") or mode == "mblk" and state[3]:
            return [(("fin",), _END)]
        return []

    def _b_step(final, acc, p, carry):
        _, base, m1, sel, m2, t2 = p
        if m1:
            core = ("mbf", acc) if final else ("mbn", acc)
            return [(core + (t2,), _cell(base, m1, sel, m2, carry))]
        if final:
            if acc == 0:
                return [(("mbf", 1, t2), _cell(base, m1, sel, m2, carry))]
            if acc == 1:
                return [(("mbf", 2, t2), _cell(base, True, sel, m2, carry))]
            return []
        if acc == 0:
            return [(("mbn", 1, t2), _cell(base, m1, sel, m2, carry))]
        return [(("mbn", 0, t2), _cell(base, True, sel, m2, carry))]

    def _blk_step(final, kind, p, carry):
        _, base, m1, sel, m2, t2 = p
        if m1:
            return [(("mblk", final, kind, False, False, t2), _cell(base, m1, sel, m2, carry))]
        return [(("mblk", final, kind, True, True, t2), _cell(base, True, sel, m2, carry))]

    def _add_step(c, all1, p, carry):
        _, base, m1, sel, m2, t2 = p
        if t2 not in _BITS:
            return []
        x, y = int(t2), int(base)
        if y != (x + c) % 2:
            return []
        return [
            (("add", (x + c) // 2, all1 and base == "1", t2),
             _cell(base, m1, sel, m2, carry))
        ]

    def _guess_point(p):
        _, base, m1, sel, m2, t2 = p
        return [
            (("gbin", base == "1"), p),
            (("gdone",), _cell(base, m1, True, m2, t2)),
        ]

    def _cmp_entry(a_state, b_state, p, entry_start):
        """Process one cell in the entry region of a comparison sweep."""
        _, base, m1, sel, m2, t2 = p
        mark = _cell(base, m1, sel, True, t2)
        # resolve a pending last-cell question from the previous cell
        if a_state[0] == "post" and a_state[2] is None:
            a_state = ("post", a_state[1], a_state[3] and base in _BITS)
        if a_state[0] == "post" and b_state == ("final",) and entry_start:
            a_state = ("fskip", a_state[1], a_state[2])
        if a_state == ("seek",) and sel:
            a_state = ("enter",)
        if a_state == ("enter",) or a_state == ("skip",):
            if m2:
                return [(("cs", ("skip",), b_state), p)]
            pend = base in _AB
            return [(("cs", ("post", base, None, pend), b_state), mark)]
        if a_state[0] == "fskip":
            sigma, last = a_state[1], a_state[2]
            if m2:
                return [(("cs", a_state, b_state), p)]
            if base != sigma:
                return []
            nxt = ("accarm",) if last else ("done",)
            return [(("cs", nxt, b_state), mark)]
        return [(("cs", a_state, b_state), p)]

    def _cmp_cell(a_state, b_state, p):
        _, base, m1, sel, m2, t2 = p
        entry_start = False
        if b_state[0] == "bin":
            if base in _BITS:
                b_state = ("bin", b_state[1] and base == "1")
            else:
                b_state = ("payfin",) if b_state[1] else ("pay",)
        elif b_state == ("pay",):
            if base in _BITS:
                b_state = ("bin", base == "1")
                entry_start = True
        elif b_state == ("payfin",):
            if base in _BITS:
                b_state = ("final",)
                entry_start = True
        return _cmp_entry(a_state, b_state, p, entry_start)

    cells = tuple(
        _cell(b, m1, sel, m2, t2)
        for b in _BITS + _AB
        for m1 in (False, True)
        for sel in (False, True)
        for m2 in (False, True)
        for t2 in _T2
    )
    c0s = tuple(_c0(ph, m1, t2) for ph in "CDP" for m1 in (False, True) for t2 in ("a", "-"))
    raws = tuple(("raw", c) for c in ("a", "b", "0", "1"))
    out_alpha = cells + c0s + (_END,)
    # what each mode's branch of ``delta`` can read, in rank order; the
    # other modes read only cells and the endmarker, as ``delta`` assumes
    readable = {"q0": raws + c0s, "s1": raws + (_END,), "fin": (), "ACC": ()}
    cells_end = cells + (_END,)

    return materialize(
        start=("q0",),
        moves=lambda state: [
            (x, p, y) for x in readable.get(state[0], cells_end) for p, y in delta(state, x)
        ],
        input_alphabet=raws,
        output_alphabet=out_alpha,
        endmarker=_END,
        symbol_name=_d_name,
        accepting=lambda s: s == ("ACC",),
        sweep_bound="log",
        meta={"extra_sweeps": 1},
    )
