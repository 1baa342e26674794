"""Machine families against their reference predicates: languages,
state counts, sweep counts, and accept-mode discipline."""

import itertools
import tracemalloc

import pytest
from conftest import (
    reference_in_block,
    reference_in_copy,
    reference_in_d,
    reference_in_e,
    reference_in_uexpo,
    reference_in_unary,
)

from iufst import (
    MachineError,
    check_accept_mode,
    compare_languages,
    compare_on_words,
    d_word,
    enumerate_words,
    gen_block,
    gen_block_nfa,
    gen_e,
    gen_unary,
    in_block,
    in_copy,
    in_d,
    in_e,
    in_uexpo,
    in_unary,
    bin_lsb,
    run,
    run_deterministic,
)
from iufst.cli import _d_corpus


class TestPredicates:
    def test_in_block(self):
        assert in_block(2, tuple("00#11#00"))
        assert not in_block(2, tuple("00#11"))
        assert not in_block(2, tuple("0#11#00"))
        assert not in_block(2, tuple("00"))
        assert not in_block(2, ())

    def test_in_unary(self):
        assert in_unary(2, 2, ("a",) * 4)
        assert in_unary(2, 2, ())
        assert not in_unary(2, 2, ("a",) * 3)

    def test_in_e(self):
        assert in_e(2, 1, tuple("aba"))
        assert not in_e(2, 1, tuple("ab"))
        assert in_e(2, 2, ("b",) + ("a",) * 3)
        assert not in_e(2, 2, ("b",) + ("a",) * 2)

    def test_in_copy(self):
        assert in_copy(tuple("ab$ab"))
        assert not in_copy(tuple("ab$ba"))
        assert in_copy(("$",))
        assert not in_copy(tuple("a$a$a"))

    def test_in_uexpo(self):
        for m in range(65):
            assert in_uexpo(("a",) * m) == (m in (1, 2, 4, 8, 16, 32, 64))

    def test_in_d(self):
        pays = [("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")]
        w = d_word(2, pays, 3)
        assert in_d(w)
        assert not in_d(w[:-1])
        assert not in_d(("a",) + w)
        assert bin_lsb(5, 4) == ("1", "0", "1", "0")
        assert bin_lsb(12, 4) == ("0", "0", "1", "1")


def agree(pred, reference, *word_lists):
    for words in word_lists:
        for w in words:
            assert pred(w) == reference(w), w


class TestPredicatesAgainstReferences:
    """Each predicate, which reads the joined word or whole tuple, answers as
    its per-symbol reference in conftest: on every short word over the
    family's alphabet plus a foreign symbol, and over symbols of other
    lengths, "" and two characters (a word of "" and "01" joins to as many
    characters as it has symbols)."""

    @pytest.mark.parametrize("k", [-1, 0, 1, 2, 3, 9])
    def test_in_block(self, k):
        # a member of width 9 needs 19 symbols, more than any word here
        agree(lambda w: in_block(k, w), lambda w: reference_in_block(k, w),
              enumerate_words(("0", "1", "#", "x"), 7),
              enumerate_words(("0", "1", "#", "", "01", "1#"), 5))

    def test_in_copy(self):
        agree(in_copy, reference_in_copy,
              enumerate_words(("a", "b", "$", "x"), 8),
              enumerate_words(("a", "b", "$", "", "a$", "ba"), 5))

    @pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2), (2, 3), (3, 2)])
    def test_in_e(self, n, k):
        agree(lambda w: in_e(n, k, w), lambda w: reference_in_e(n, k, w),
              enumerate_words(("a", "b", "x"), 9),
              enumerate_words(("a", "b", "", "ab"), 6))

    @pytest.mark.parametrize("n,k", [(1, 1), (2, 2), (2, 3), (3, 1)])
    def test_in_unary(self, n, k):
        agree(lambda w: in_unary(n, k, w), lambda w: reference_in_unary(n, k, w),
              enumerate_words(("a", "x"), 12), enumerate_words(("a", "", "aa"), 8))

    def test_in_uexpo(self):
        agree(in_uexpo, reference_in_uexpo,
              enumerate_words(("a", "x"), 12), enumerate_words(("a", "", "aa"), 8))

    def test_in_d(self):
        w2 = d_word(2, [("a", "b"), ("b", "b"), ("a", "a"), ("b", "a")], 2)
        w3 = d_word(3, [tuple("abab"[j % 2 :][:3]) for j in range(8)], 5)
        symbols = ("a", "b", "0", "1", "x", "", "ab")
        substituted = [w[:i] + (x,) + w[i + 1 :]
                       for w in (w2, w3) for i in range(len(w)) for x in symbols]
        # one symbol emptied and a later one doubled keep the joined length
        balanced = [w2[:i] + ("",) + w2[i + 1 : j] + ("ab",) + w2[j + 1 :]
                    for i, j in itertools.combinations(range(len(w2)), 2)]
        # entry 0 may not be the repeated one
        repeat0 = [w2[:-4] + w2[6:10], w3[:-6] + w3[11:17]]
        assert in_d(w2) and in_d(w3)
        agree(in_d, reference_in_d, enumerate_words(("a", "b", "0", "1", "x"), 6),
              _d_corpus(2), substituted, balanced, repeat0)

    def test_in_d_rejects_other_lengths_unread(self):
        # 10^5 leading a's would ask for 2^(10^5) b's; no width has this length
        w = ("a",) * 10**5
        tracemalloc.start()
        try:
            assert not in_d(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10_000
        # 21,534 symbols is the length of width 10
        assert not in_d(("a",) * 21_534) and not reference_in_d(("a",) * 21_534)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: gen_e(1, 1), MachineError, "gen_e requires n >= 2 and k >= 1"),
        (lambda: gen_e(2, 0), MachineError, "gen_e requires n >= 2 and k >= 1"),
        (lambda: gen_block(1), MachineError, "gen_block requires k >= 2"),
        (lambda: gen_block_nfa(1), MachineError, "gen_block_nfa requires k >= 2"),
        (lambda: d_word(2, [("a",)] * 4, 0), ValueError, "need 2^k payloads and 1 <= i <= 2^k - 1"),
        (lambda: d_word(2, [("a",)] * 4, 4), ValueError, "need 2^k payloads and 1 <= i <= 2^k - 1"),
        (lambda: d_word(2, [("a",)] * 3, 1), ValueError, "need 2^k payloads and 1 <= i <= 2^k - 1"),
    ],
    ids=["e-n", "e-k", "block-k", "block-nfa-k", "d-index-0", "d-index-past", "d-payloads"],
)
def test_parameter_messages(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


class TestUnary:
    @pytest.mark.parametrize("n,k", [(n, k) for n in (2, 3, 4) for k in (1, 2, 3)])
    def test_state_count(self, n, k):
        assert len(gen_unary(n, k).states) == n

    @pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_language(self, n, k):
        t = gen_unary(n, k)
        budget = 3 * n**k
        assert compare_languages(t, lambda w: in_unary(n, k, w), ("a",), budget) == []

    def test_examples(self, unary22):
        assert run(unary22, ("a",) * 4, 2, 100).accepted
        assert not run(unary22, ("a",) * 3, 5, 100).accepted
        assert run(unary22, (), 2, 100).accepted

    def test_accepts_at_sweep_k_exactly(self):
        for n, k in [(2, 3), (3, 2)]:
            t = gen_unary(n, k)
            for c in (0, 1, 2):
                r = run(t, ("a",) * (c * n**k), k, 1000)
                assert r.accepted and r.min_accept_sweeps == k

    def test_param_validation(self):
        with pytest.raises(MachineError):
            gen_unary(1, 2)
        with pytest.raises(MachineError):
            gen_unary(2, 0)


class TestE:
    @pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_state_count(self, n, k):
        assert len(gen_e(n, k).states) == n + 1

    @pytest.mark.parametrize("n,k,budget", [(2, 1, 10), (2, 2, 10), (3, 1, 10), (3, 2, 10)])
    def test_language(self, n, k, budget):
        t = gen_e(n, k)
        assert compare_languages((t, k), lambda w: in_e(n, k, w), ("a", "b"), budget) == []

    def test_examples(self, e21):
        assert run(e21, tuple("aba"), 1, 100).accepted
        assert not run(e21, tuple("ab"), 3, 1000).accepted

    def test_accepted_at_sweep_k_only(self, e22):
        positives = [
            w
            for w in enumerate_words(("a", "b"), 9)
            if in_e(2, 2, w)
        ]
        assert positives
        for w in positives:
            assert run(e22, w, 2, 10_000).min_accept_sweeps == 2
        report = check_accept_mode(e22, positives, lambda n: 2)
        assert report.ok


class TestBlock:
    def test_examples(self, block2):
        assert run(block2, tuple("00#11#00"), 2, 10_000).accepted
        assert not run(block2, tuple("00#11"), 4, 10_000).accepted
        assert not run(block2, tuple("0#11#00"), 4, 10_000).accepted

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_state_envelope(self, k):
        t = gen_block(k)
        c, c0 = t.meta["state_envelope"]
        assert len(t.states) <= c * k + c0
        assert len(t.states) == 4 * k + 19

    def test_language_k2(self, block2):
        assert compare_languages(
            (block2, 2), lambda w: in_block(2, w), ("0", "1", "#"), 8
        ) == []

    def test_language_k3_positive_and_negative_samples(self):
        t = gen_block(3)
        words = [
            tuple("000#000"), tuple("001#010#001"), tuple("111#110"),
            tuple("000#0000"), tuple("00#000"), tuple("010#010#010"),
            tuple("011#101#011#011"),
        ]
        assert compare_on_words((t, 3), lambda w: in_block(3, w), words) == []

    def test_accept_mode(self, block2):
        positives = [w for w in enumerate_words(("0", "1", "#"), 8) if in_block(2, w)]
        assert positives
        report = check_accept_mode(block2, positives, lambda n: 2)
        assert report.ok


class TestBlockNfa:
    @pytest.mark.parametrize("k,count", [(2, 32), (3, 80), (4, 192)])
    def test_exact_state_count(self, k, count):
        assert len(gen_block_nfa(k).states) == count == 2 ** (k + 1) * (k + 2)

    def test_language_matches_machine(self, block2, block_nfa2):
        assert compare_languages((block2, 2), block_nfa2, ("0", "1", "#"), 8) == []

    def test_language_matches_predicate(self, block_nfa2):
        assert compare_languages(
            block_nfa2, lambda w: in_block(2, w), ("0", "1", "#"), 9
        ) == []


class TestCopy:
    def test_examples(self, copy_machine):
        assert run_deterministic(copy_machine, tuple("ab$ab"), 10)[0].accepted
        assert not run_deterministic(copy_machine, tuple("ab$ba"), 10)[0].accepted
        assert run_deterministic(copy_machine, ("$",), 10)[0].accepted

    def test_sweep_budget(self, copy_machine):
        report, _ = run_deterministic(copy_machine, tuple("ab$ab"), 10)
        assert report.accepted and report.min_accept_sweeps <= 4

    def test_language(self, copy_machine):
        assert compare_languages(copy_machine, in_copy, ("a", "b", "$"), 9) == []

    def test_accept_mode(self, copy_machine):
        positives = [w for w in enumerate_words(("a", "b", "$"), 9) if in_copy(w)]
        report = check_accept_mode(copy_machine, positives, lambda n: (n - 1) // 2 + 1)
        assert report.ok


class TestUexpo:
    def test_examples(self, uexpo_machine):
        assert run_deterministic(uexpo_machine, ("a",) * 8, 10)[0].accepted
        assert not run_deterministic(uexpo_machine, ("a",) * 6, 10)[0].accepted
        assert run_deterministic(uexpo_machine, ("a",), 10)[0].accepted

    def test_sweeps_on_16(self, uexpo_machine):
        report, _ = run_deterministic(uexpo_machine, ("a",) * 16, 10)
        assert report.accepted and report.min_accept_sweeps <= 5

    def test_language(self, uexpo_machine):
        assert compare_languages(uexpo_machine, in_uexpo, ("a",), 64) == []

    def test_accept_mode(self, uexpo_machine):
        positives = [("a",) * (2**j) for j in range(7)]
        report = check_accept_mode(
            uexpo_machine, positives, lambda n: max(1, n.bit_length() - 1)
        )
        assert report.ok


def d_corpus_k2():
    payload_space = list(itertools.product(itertools.product("ab", repeat=2), repeat=4))
    positives, negatives = [], []
    for idx, pays in enumerate(payload_space):
        for i in (1, 2, 3):
            w = d_word(2, pays, i)
            positives.append(w)
            bad = list(w)
            pos = len(bad) - 2 + (idx % 2)
            bad[pos] = "a" if bad[pos] == "b" else "b"
            negatives.append(tuple(bad))
    return positives, negatives


class TestDirectory:
    def test_positive_corpus(self, d_machine):
        positives, _ = d_corpus_k2()
        assert len(positives) == 768
        for w in positives:
            assert in_d(w)
            r = run(d_machine, w, 11, 100_000)
            assert r.accepted and r.min_accept_sweeps == 11, w

    def test_mutation_negatives(self, d_machine):
        _, negatives = d_corpus_k2()
        assert len(negatives) == 768
        for w in negatives:
            assert not in_d(w)
            r = run(d_machine, w, 13, 200_000)
            assert not r.accepted and r.exhausted, w

    def test_structural_negatives(self, d_machine):
        pays = [("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")]
        base = list(d_word(2, pays, 1))
        entry = lambda j: slice(6 + 4 * j, 6 + 4 * j + 4)
        words = []
        w = list(base)
        w[entry(1)], w[entry(2)] = w[entry(2)], w[entry(1)]  # counter broken
        words.append(tuple(w))
        words.append(tuple(base[:-4]))  # repeat entry missing
        words.append(tuple(base) + tuple("10ab"))  # trailing entry
        words.append(tuple(base[1:]))  # only one leading a
        words.append(tuple(["a", "a"] + ["b"] * 3 + base[6:]))  # b-run not 2^k
        repeat0 = base[:-4] + list(bin_lsb(0, 2)) + list(pays[0])
        words.append(tuple(repeat0))  # repeating entry 0 is not allowed
        for w in words:
            assert not in_d(w)
            r = run(d_machine, w, 14, 200_000)
            assert not r.accepted and r.exhausted, w

    def test_no_short_words(self, d_machine):
        assert compare_languages(d_machine, in_d, ("a", "b", "0", "1"), 8) == []

    def test_sweep_envelope_and_accept_mode(self, d_machine):
        positives, _ = d_corpus_k2()
        sample = positives[::37]

        def bound(n):
            # leading a-run k: every accepting run takes (1+k+k+1+2k)+1
            k = 2
            return (1 + k + k + 1 + 2 * k) + d_machine.meta["extra_sweeps"]

        report = check_accept_mode(d_machine, sample, bound, sweep_cap=40)
        assert report.ok

    def test_k3_member(self, d_machine):
        pays = [tuple("ab" [(j + i) % 2] for i in range(3)) for j in range(8)]
        w = d_word(3, pays, 5)
        assert in_d(w)
        r = run(d_machine, w, 15, 400_000)
        assert r.accepted and r.min_accept_sweeps == 15

    @pytest.mark.parametrize("i", range(1, 8))
    def test_k3_each_repeat_index(self, d_machine, i):
        pays = [tuple("ab"[int(c)] for c in bin_lsb(j, 3)) for j in range(8)]
        w = d_word(3, pays, i)
        assert in_d(w)
        r = run(d_machine, w, 15, 400_000)
        assert r.accepted and r.min_accept_sweeps == 15
        flipped = w[:-1] + ({"a": "b", "b": "a"}[w[-1]],)
        assert not in_d(flipped)
        r = run(d_machine, flipped, 17, 400_000)
        assert not r.accepted and r.exhausted
